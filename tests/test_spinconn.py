import numpy as np
import pytest

from weylspin.clifford import E
from weylspin.geometry import (
    WeightedDensity,
    analyze,
    curvature_package,
    milnor_geometry,
)
from weylspin.spinconn import (
    commutator_curvature,
    killing_connection,
    killing_curvature,
    spin_connection,
    spin_curvature,
    weight0_matrices,
)
from weylspin.tensors import kulkarni_nomizu


def random_geometry(rng, theta_scale=1.0):
    return milnor_geometry(rng.uniform(-2, 2, 3), theta_scale * rng.uniform(-1, 1, 3))


def test_round_sphere_connection_is_minus_half_clifford():
    # bi-invariant lambda = (2,2,2): A_i = -(1/2) e_i
    g = milnor_geometry((2.0, 2.0, 2.0))
    A = spin_connection(g)
    assert np.max(np.abs(A + 0.5 * E)) < 1e-15


def test_weight_term_is_scalar_shift():
    rng = np.random.default_rng(0)
    g = random_geometry(rng)
    base = spin_connection(g, 0.0)
    w = -1.0
    shifted = spin_connection(g, w)
    expect = base + w * g.theta[:, None, None] * np.eye(2)
    assert np.max(np.abs(shifted - expect)) < 1e-15


def test_weight0_matrices_are_built_once_and_read_only():
    rng = np.random.default_rng(2)
    lam, theta = rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)
    g = milnor_geometry(lam, theta)
    A = weight0_matrices(g)
    assert weight0_matrices(g) is A
    assert not A.flags.writeable
    assert np.array_equal(A, spin_connection(g, 0.0))
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
    # quarter mu^{34} of (Ric^N kn c) against the bracket curvature, weight 0
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        sc = spin_curvature(random_geometry(rng))
        worst = max(worst, sc.mismatch)
    assert worst < 1e-10


def test_spin_curvature_formula_term_shape():
    g = milnor_geometry((2.0, 2.0, 2.0))
    sc = spin_curvature(g)
    pkg = curvature_package(g)
    by_hand = 0.25 * np.einsum(
        "ijab,axy,byz->ijxz", kulkarni_nomizu(pkg.ric_n, np.eye(3)), E, E
    )
    assert np.max(np.abs(sc.formula - by_hand)) == 0.0
    assert np.max(np.abs(sc.commutator - by_hand)) < 1e-14


def test_formula_unavailable_off_weight_zero():
    g = milnor_geometry((2.0, 2.0, 2.0), (0.1, 0.0, 0.0))
    sc = spin_curvature(g, weight=-1.0)
    assert sc.formula is None and sc.mismatch is None
    assert np.array_equal(sc.commutator, commutator_curvature(spin_connection(g, -1.0), g))


def test_killing_connection_round_sphere():
    g = milnor_geometry((2.0, 2.0, 2.0))
    B_plus = killing_connection(g, WeightedDensity(0.5))
    assert np.max(np.abs(B_plus + E)) < 1e-15  # B_i = -e_i
    B_minus = killing_connection(g, WeightedDensity(-0.5))
    assert np.max(np.abs(B_minus)) < 1e-15  # B = 0


def test_killing_curvature_flat_on_round_sphere():
    g = milnor_geometry((2.0, 2.0, 2.0))
    for b in (0.5, -0.5):
        kc = killing_curvature(g, WeightedDensity(b))
        assert kc.residual < 1e-14
        assert kc.expansion_deviation < 1e-14


def test_killing_curvature_negative_control_exact():
    # round sphere with beta = 0.3: B_i = -0.8 e_i, so
    # [B_i,B_j] - c^k_ij B_k = (0.64 - 0.8) [e_i,e_j] ... = 0.32 eps_ijk e_k
    g = milnor_geometry((2.0, 2.0, 2.0))
    kc = killing_curvature(g, WeightedDensity(0.3))
    assert abs(kc.residual - 0.32) < 1e-14
    assert kc.expansion_deviation < 1e-14


def test_expansion_identity_holds_everywhere():
    # the curvature expansion is an identity in (g, beta), GT or not
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        g = random_geometry(rng)
        beta = WeightedDensity(float(rng.uniform(-1.5, 1.5)))
        worst = max(worst, killing_curvature(g, beta).expansion_deviation)
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
