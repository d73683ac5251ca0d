import numpy as np
import pytest

from weylspin.clifford import E, EPS
from weylspin.geometry import (
    WeightedDensity,
    analyze,
    curvature_package,
    density_derivative,
    milnor_geometry,
)
from weylspin.spinconn import (
    commutator_curvature,
    killing_connection,
    killing_curvature,
    spin_connection,
    weight0_matrices,
)
from weylspin.tensors import kulkarni_nomizu


def random_geometry(rng, theta_scale=1.0):
    return milnor_geometry(rng.uniform(-2, 2, 3), theta_scale * rng.uniform(-1, 1, 3))


def ric_n_spin_curvature(g):
    """The spin curvature in closed form, 1/4 mu^{34}(Ric^N kn c).

    The last two slots of the Kulkarni-Nomizu product are contracted into
    Clifford factors, slot 3 leftmost.
    """
    kn = kulkarni_nomizu(curvature_package(g).ric_n, np.eye(3))
    return 0.25 * np.einsum("ijab,axy,byz->ijxz", kn, E, E)


def spin_curvature_mismatch(g):
    """Max entry of the commutator curvature of spin_connection(g) minus its closed form."""
    comm = commutator_curvature(spin_connection(g), g)
    return float(np.max(np.abs(comm - ric_n_spin_curvature(g))))


def expansion_deviation(g, beta):
    """Max entry of R^beta minus its expansion in the spin curvature R^S:

        R^beta_ij = R^S_ij - (Alt (nabla beta) (x) nu)_ij + beta^2 (Alt nu12)_ij,

    with nu12 the rank-2 Clifford operator e_i e_j. It is an identity in
    (g, beta), Gauduchon-Tod or not, and it is how flatness reduces to the
    GT residuals.
    """
    alt = lambda t: t - np.einsum("ijab->jiab", t)
    nu12 = np.einsum("iab,jbc->ijac", E, E)
    grad_nu = np.einsum("i,jab->ijab", density_derivative(g, beta), E)
    r_s = commutator_curvature(spin_connection(g), g)
    expansion = r_s - alt(grad_nu) + beta.value**2 * alt(nu12)
    return float(np.max(np.abs(killing_curvature(g, beta).curvature - expansion)))


def test_round_sphere_connection_is_minus_half_clifford():
    # bi-invariant lambda = (2,2,2): A_i = -(1/2) e_i
    g = milnor_geometry((2.0, 2.0, 2.0))
    A = spin_connection(g)
    assert np.max(np.abs(A + 0.5 * E)) < 1e-15


def test_weight0_matrices_are_built_once_and_read_only():
    rng = np.random.default_rng(2)
    lam, theta = rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)
    g = milnor_geometry(lam, theta)
    A = weight0_matrices(g)
    assert weight0_matrices(g) is A
    assert not A.flags.writeable
    assert np.array_equal(A, spin_connection(g))
    with pytest.raises(ValueError):
        A[0, 0, 0] = 1.0
    # the cache is keyed on the geometry object: equal data is built anew
    A2 = weight0_matrices(milnor_geometry(lam, theta))
    assert A2 is not A and np.array_equal(A2, A)


def test_connection_matrices_traceless_at_weight_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = spin_connection(random_geometry(rng))
        for i in range(3):
            assert abs(np.trace(A[i])) < 1e-14


def test_spin_curvature_formula_vs_commutator():
    # quarter mu^{34} of (Ric^N kn c) against the bracket curvature
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        worst = max(worst, spin_curvature_mismatch(random_geometry(rng)))
    assert worst < 1e-10


def test_spin_curvature_formula_term_shape():
    # on the round sphere A_i = -1/2 e_i and c^k_ij = 2 eps_ijk, so
    # R_ij = 1/4 [e_i, e_j] + eps_ijk e_k = 1/2 eps_ijk e_k
    g = milnor_geometry((2.0, 2.0, 2.0))
    by_hand = 0.5 * np.einsum("ijk,kab->ijab", EPS, E)
    assert np.max(np.abs(ric_n_spin_curvature(g) - by_hand)) < 1e-14
    assert np.max(np.abs(commutator_curvature(spin_connection(g), g) - by_hand)) < 1e-14


def test_killing_connection_round_sphere():
    g = milnor_geometry((2.0, 2.0, 2.0))
    B_plus = killing_connection(g, WeightedDensity(0.5))
    assert np.max(np.abs(B_plus + E)) < 1e-15  # B_i = -e_i
    B_minus = killing_connection(g, WeightedDensity(-0.5))
    assert np.max(np.abs(B_minus)) < 1e-15  # B = 0


def test_killing_curvature_flat_on_round_sphere():
    g = milnor_geometry((2.0, 2.0, 2.0))
    for b in (0.5, -0.5):
        beta = WeightedDensity(b)
        assert killing_curvature(g, beta).residual < 1e-14
        assert expansion_deviation(g, beta) < 1e-14


def test_killing_curvature_negative_control_exact():
    # round sphere with beta = 0.3: B_i = -0.8 e_i, so
    # [B_i,B_j] - c^k_ij B_k = (0.64 - 0.8) [e_i,e_j] ... = 0.32 eps_ijk e_k
    g = milnor_geometry((2.0, 2.0, 2.0))
    beta = WeightedDensity(0.3)
    assert abs(killing_curvature(g, beta).residual - 0.32) < 1e-14
    assert expansion_deviation(g, beta) < 1e-14


def test_expansion_identity_holds_everywhere():
    # the curvature expansion is an identity in (g, beta), GT or not
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        g = random_geometry(rng)
        beta = WeightedDensity(float(rng.uniform(-1.5, 1.5)))
        worst = max(worst, expansion_deviation(g, beta))
    assert worst < 1e-12


def test_flatness_matches_gt_verdict_both_ways():
    rng = np.random.default_rng(4)
    flats = 0
    for _ in range(150):
        g = random_geometry(rng, theta_scale=0.5)
        beta = WeightedDensity(float(rng.uniform(-1, 1)))
        flat = killing_curvature(g, beta).residual
        rep = analyze(g, beta)
        gt = max(rep.n_ew, rep.n_scal, rep.n_star)
        if flat < 1e-10:
            flats += 1
            assert gt < 1e-8
        if gt < 1e-10:
            assert flat < 1e-8
    # seed known GT instances so the forward implication is exercised
    for lam, b in (((2.0, 2.0, 2.0), 0.5), ((1.0, 1.0, 1.0), -0.25), ((0.0, 0.0, 0.0), 0.0)):
        g = milnor_geometry(lam)
        beta = WeightedDensity(b)
        assert killing_curvature(g, beta).residual < 1e-10
        rep = analyze(g, beta)
        assert max(rep.n_ew, rep.n_scal, rep.n_star) < 1e-8
        flats += 1
    assert flats >= 3


def test_commutator_curvature_antisymmetric():
    rng = np.random.default_rng(5)
    g = random_geometry(rng)
    mats = spin_connection(g)
    curv = commutator_curvature(mats, g)
    assert np.max(np.abs(curv + np.einsum("ijab->jiab", curv))) < 1e-14
