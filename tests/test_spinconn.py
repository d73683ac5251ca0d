from fractions import Fraction

import numpy as np
import pytest

from weylspin import killing
from weylspin.clifford import E, EPS
from weylspin.geometry import (
    HomogeneousWeylGeometry,
    WeightedDensity,
    analyze,
    curvature_coefficients,
    curvature_package,
    density_derivative,
    form_coordinates,
    killing_coefficients,
    milnor_geometry,
    prescaled,
    validate_geometry,
)
from weylspin.spinconn import (
    commutator_curvature,
    flatness,
    killing_connection,
    killing_curvature,
    spin_connection,
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
    # the closed form: b = Id (B_i = q_i = -e_i) and b = 0, exactly
    assert np.array_equal(killing_coefficients(form_coordinates(g, WeightedDensity(0.5))), np.eye(3))
    assert np.array_equal(killing_coefficients(form_coordinates(g, WeightedDensity(-0.5))), np.zeros((3, 3)))


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


# the closed form of the Killing coefficients ----------------------------------


def chain_coefficients(g, beta):
    """b of the tensor chain: b[i, k] = -tr(q_k B_i) / 2 of killing_connection, q_k = -e_k."""
    return np.real(np.einsum("kab,iba->ik", 0.5 * E, killing_connection(g, beta)))


def geometry_at(x):
    """(g, beta) with form_coordinates x (13,)."""
    return HomogeneousWeylGeometry(x[:9].reshape(3, 3), x[9:12]), WeightedDensity(x[12])


def test_killing_coefficients_equal_the_chain_bitwise_on_the_polarization_points():
    # at e_k and e_k + e_l every term of both routes is a dyadic rational, so
    # they agree bit for bit, the signs of zeros aside
    n = 13
    eye = np.eye(n)
    k, l = np.triu_indices(n, 1)
    points = np.concatenate([eye, eye[k] + eye[l]])
    assert len(points) == 91
    chain = [chain_coefficients(*geometry_at(x)) for x in points]
    for x, want in zip(points, chain):
        assert np.array_equal(killing_coefficients(x), want), x


def random_lie_algebras(rng, count):
    """x (count, 13): N = R (n + [a]x) R^T with n a = 0, R random in SO(3), theta and beta random.

    Half have a = 0 (unimodular), half a != 0 and n of rank at most 2 orthogonal to a.
    """
    out = []
    for t in range(count):
        a = rng.standard_normal(3) if t % 2 else np.zeros(3)
        P = np.eye(3) - np.outer(a, a) / max(a @ a, 1e-300)
        M = rng.standard_normal((3, 3))
        n = P @ (M + M.T) @ P
        cross = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        R *= np.sign(np.linalg.det(R))
        out.append(np.concatenate([(R @ (n + cross) @ R.T).ravel(), rng.standard_normal(4)]))
    return np.array(out)


def closed_form_mismatch(scale, seed=7, count=40):
    """Max |b - chain| / scale over random x scaled to max|x| = scale, b as killing reads it.

    killing_data's steps, b / scale, against the chain at x / 2^e over m, with
    (x, e, m) = prescaled: the exact prescale keeps the chain finite at every
    scale. Where the chain is finite at x itself (every scale but the float
    maximum here), killing_data's b is held to it directly too.
    """
    worst = 0.0
    for x in random_lie_algebras(np.random.default_rng(seed), count):
        x = x / np.max(np.abs(x)) * scale
        g = validate_geometry(np.einsum("ijl,lk->ijk", EPS, x[:9].reshape(3, 3)), x[9:12])
        beta = WeightedDensity(x[12])
        _, e, m = prescaled(g, beta)
        data = killing.killing_data(g, beta)
        want = chain_coefficients(*geometry_at(np.ldexp(form_coordinates(g, beta), -e))) / m
        worst = max(worst, float(np.max(np.abs(data.steps - want))))
        if scale <= 1e300:
            worst = max(worst, float(np.max(np.abs(data.b - chain_coefficients(g, beta)))) / scale)
    return worst


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-5, 1.0, 3e4, 1e150, 1e300, 1.7e308])
def test_killing_coefficients_match_the_chain_at_every_scale(scale):
    # rotated frames of unimodular and non-unimodular algebras with random
    # theta and beta: the closed form rounds differently from the chain's
    # sums, by at most a few units of the scale's last place
    assert closed_form_mismatch(scale) <= 1e-15


def test_a_flipped_theta_term_fails_the_chain_comparison(monkeypatch):
    # the mutant b + [theta]x, whose [theta]x / 2 enters with the wrong sign,
    # is caught by the comparison the closed form passes
    def mutant(x):
        t1, t2, t3 = x[9:12]
        return killing_coefficients(x) + np.array([[0.0, -t3, t2], [t3, 0.0, -t1], [-t2, t1, 0.0]])

    monkeypatch.setattr(killing, "killing_coefficients", mutant)
    killing.killing_data.cache_clear()
    assert closed_form_mismatch(1.0) > 0.01
    monkeypatch.undo()
    killing.killing_data.cache_clear()
    assert closed_form_mismatch(1.0) <= 1e-15


# the closed form of the Killing curvature ------------------------------------


def polarization_points(n=13):
    """The points e_k, then e_k + e_l (k < l), of R^n, which fix a quadratic form: 91 for n = 13."""
    eye = np.eye(n)
    k, l = np.triu_indices(n, 1)
    return np.concatenate([eye, eye[k] + eye[l]])


def curvature_closed_form(x, mutant=None):
    """F = 2 cof(b) - N b (3, 3) in Fractions at x, b = killing_coefficients(x) taken exactly.

    mutant "NTb" and "bN" take N^T b and b N for N b, and "cof" flips the sign of the cofactor term.
    """
    b = [[Fraction(v) for v in row] for row in killing_coefficients(x)]
    N = [[Fraction(v) for v in x[3 * l : 3 * l + 3]] for l in range(3)]
    if mutant == "NTb":
        N = [list(col) for col in zip(*N)]
    prod = lambda A, B: [[sum(A[i][j] * B[j][k] for j in range(3)) for k in range(3)] for i in range(3)]
    Nb = prod(b, N) if mutant == "bN" else prod(N, b)
    sign = -2 if mutant == "cof" else 2
    return [[sign * (b[l - 2][k - 2] * b[l - 1][k - 1] - b[l - 2][k - 1] * b[l - 1][k - 2]) - Nb[l][k]
             for k in range(3)] for l in range(3)]


def chain_curvature_coefficients(points):
    """(p_0, p) (points, 3) and (points, 3, 3): R^beta_(l+1, l+2) = p_0[l] Id + sum_k p[l, k] q_k, by the chain."""
    pairs = np.array([killing_curvature(*geometry_at(x)).curvature[[1, 2, 0], [2, 0, 1]] for x in points])
    p0 = 0.5 * np.trace(pairs, axis1=-2, axis2=-1)
    return p0, np.einsum("kab,...lba->...lk", 0.5 * E, pairs)  # p_k = -tr(q_k M) / 2


def chain_polarization(residuals, n):
    """24 Q (rows, n, n) of a quadratic r (rows,) on R^n, unrounded, from its values at polarization_points(n)."""
    points = polarization_points(n)
    k, l = np.triu_indices(n, 1)
    r = 24.0 * np.array([residuals(x) for x in points]).T
    diag = r[:, :n]
    polarized = np.empty((len(r), n, n))
    polarized[:, range(n), range(n)] = diag
    polarized[:, k, l] = polarized[:, l, k] = 0.5 * (r[:, n:] - diag[:, k] - diag[:, l])
    return polarized


def closed_form_failures(formula):
    """The polarization points where formula(x) (3, 3) is not the chain's su(2) coefficients, exactly.

    Every term of the chain is a dyadic rational there, so its floats are exact;
    both sides are quadratic in x, so agreement on all 91 points is agreement everywhere.
    """
    points = polarization_points()
    p0, p = chain_curvature_coefficients(points)
    assert not p0.any() and not p.imag.any()  # the identity part is exactly 0, the rest real
    return [x for x, want in zip(points, p.real) if [[Fraction(v) for v in row] for row in want] != formula(x)]


def test_curvature_closed_form_equals_the_chain_exactly():
    assert len(polarization_points()) == 91
    assert closed_form_failures(curvature_closed_form) == []
    # the package's floats are the exact closed form at these points
    exact = lambda x: [[Fraction(v) for v in row] for row in curvature_coefficients(x.tolist())]
    assert closed_form_failures(exact) == []
    for x in polarization_points():
        assert exact(x) == curvature_closed_form(x)


@pytest.mark.parametrize("mutant", ["NTb", "bN", "cof"])
def test_curvature_closed_form_mutants_fail(mutant):
    # N^T b, b N and -2 cof(b) each differ from the chain somewhere on the points
    assert closed_form_failures(lambda x: curvature_closed_form(x, mutant)) != []


def test_flatness_matches_the_chain_on_random_coordinates():
    # 500 random x with no Jacobi identity imposed, at scales 2^-900 to 2^900:
    # flatness is max|R^beta| / scale^2 of the chain to rounding
    rng = np.random.default_rng(8)
    for t in range(500):
        x = rng.standard_normal(13)
        g, _ = geometry_at(x)
        beta = WeightedDensity(x[12])
        want = float(np.max(np.abs(killing_curvature(g, beta).curvature))) / float(np.max(np.abs(x))) ** 2
        k = int(rng.integers(-900, 901)) if t % 2 else 0
        scaled = HomogeneousWeylGeometry(np.ldexp(g.N, k), np.ldexp(g.theta, k))
        assert abs(flatness(scaled, WeightedDensity(float(np.ldexp(x[12], k)))) - want) <= 1e-14 * max(want, 1.0)
