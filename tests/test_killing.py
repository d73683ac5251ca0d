"""Parallel transport, loop holonomy, the 2-dimensional solution space, and
the Newton search over the five-parameter family.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylspin.clifford import E, j_structure
from weylspin.errors import NoConvergence, ShapeError
from weylspin import geometry, killing
from weylspin.cli import parse_geometry_file
from weylspin.geometry import (
    WeightedDensity,
    analyze,
    gauge_rescale,
    milnor_geometry,
    residual_scale,
    validate_geometry,
)
from weylspin.killing import (
    BASE_SPINORS,
    GroupArc,
    _family_quadratic_form,
    _su2_coefficients,
    _su2_exp,
    arc_from_vector,
    expm,
    find_gt_parameters,
    gt_residual_vector,
    killing_residual,
    loop_holonomy,
    milnor_theta3_family,
    min_singular_value,
    path_independence_residual,
    path_transports,
    quadrilateral_loop,
    rk4_transport,
    sample_transports,
    transport_operator,
)
from weylspin.spinconn import flatness, killing_connection, killing_curvature, spin_connection

from test_spinconn import random_geometry

ROUND = milnor_geometry((2.0, 2.0, 2.0))
HALF = WeightedDensity(0.5)
BERGER_PATH = os.path.join(os.path.dirname(__file__), "..", "geometries", "berger_theta.json")


def rotation(axis, angle):
    """The SO(3) rotation by angle about axis (Rodrigues)."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotated_geometry(g, R):
    """The same geometry in the orthonormal frame e'_i = sum_a R[i, a] e_a."""
    c = np.einsum("ia,jb,abc,kc->ijk", R, R, g.structure_constants, R)
    return validate_geometry(c, R @ g.theta)


def random_psi(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


def test_group_arc_validation():
    with pytest.raises(ShapeError):
        GroupArc((1.0, 1.0, 0.0), 0.5)
    with pytest.raises(ShapeError):
        GroupArc((1.0, 0.0), 0.5)
    a = arc_from_vector((0.0, 3.0, 4.0))
    assert abs(a.length - 5.0) < 1e-15
    assert np.max(np.abs(np.asarray(a.direction) - (0.0, 0.6, 0.8))) < 1e-15
    assert arc_from_vector((0.0, 0.0, 0.0)).length == 0.0


@pytest.mark.parametrize(
    "direction, length",
    [((np.nan, 0.0, 0.0), 1.0), ((1.0, 0.0, 0.0), np.nan), ((1.0, 0.0, 0.0), np.inf)],
)
def test_group_arc_rejects_non_finite_input(direction, length):
    # abs(nan - 1) > 1e-10 is False, so the unit-norm check alone lets NaN through
    with pytest.raises(ShapeError):
        GroupArc(direction, length)


@pytest.mark.parametrize("v", [(np.nan, 0.0, 0.0), (0.0, -np.inf, 1.0)])
def test_arc_from_vector_rejects_non_finite_input(v):
    with pytest.raises(ShapeError):
        arc_from_vector(v)


def test_zero_length_transport_is_identity():
    psi0 = np.array([0.3 + 0.1j, -0.8j])
    arc = GroupArc((1.0, 0.0, 0.0), 0.0)
    assert np.max(np.abs(transport_operator(ROUND, HALF, arc) @ psi0 - psi0)) == 0.0


def test_flat_abelian_transport_constant():
    g = milnor_geometry((0.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    rng = np.random.default_rng(0)
    psi0 = random_psi(rng)
    for _ in range(10):
        arc = arc_from_vector(rng.uniform(-2, 2, 3))
        assert np.max(np.abs(transport_operator(g, beta, arc) @ psi0 - psi0)) < 1e-15


def test_round_sphere_closed_form_transport():
    # B_i = -e_i at beta = 1/2, so transport along e_3 for time t is
    # exp(t e_3) = cos t + sin t e_3
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.3, 1.0, np.pi):
        arc = GroupArc((0.0, 0.0, 1.0), t)
        got = transport_operator(ROUND, HALF, arc) @ psi0
        want = (np.cos(t) * np.eye(2) + np.sin(t) * E[2]) @ psi0
        assert np.max(np.abs(got - want)) < 1e-13


def test_transport_cross_checked_by_rk4():
    rng = np.random.default_rng(1)
    for _ in range(5):
        arc = arc_from_vector(rng.uniform(-1.5, 1.5, 3))
        psi0 = random_psi(rng)
        exact = transport_operator(ROUND, HALF, arc) @ psi0
        stepped = rk4_transport(ROUND, HALF, arc, psi0, steps=256)
        doubled = rk4_transport(ROUND, HALF, arc, psi0, steps=512)
        assert np.max(np.abs(exact - doubled)) < 1e-8
        # step doubling shows the integrator is converging to the exponential
        assert np.max(np.abs(doubled - exact)) <= np.max(np.abs(stepped - exact)) + 1e-12


def test_killing_connection_is_su2_and_transport_matches_rk4():
    # the closed-form transport assumes every B_i is traceless anti-Hermitian;
    # check that on random Milnor data and on a non-unimodular algebra
    # ([e1, e2] = e2, [e1, e3] = e3)
    rng = np.random.default_rng(15)
    book = np.zeros((3, 3, 3))
    book[0, 1, 1], book[1, 0, 1] = 1.0, -1.0
    book[0, 2, 2], book[2, 0, 2] = 1.0, -1.0
    geometries = [random_geometry(rng) for _ in range(20)]
    geometries.append(validate_geometry(book, rng.uniform(-1, 1, 3)))
    for g in geometries:
        beta = WeightedDensity(float(rng.uniform(-1, 1)))
        B = killing_connection(g, beta)
        assert np.max(np.abs(np.trace(B, axis1=1, axis2=2))) < 1e-14
        assert np.max(np.abs(B + np.conj(np.swapaxes(B, 1, 2)))) < 1e-14
        arc = arc_from_vector(rng.uniform(-1, 1, 3))
        exact = transport_operator(g, beta, arc)
        for k, e in enumerate(np.eye(2, dtype=complex)):
            stepped = rk4_transport(g, beta, arc, e, steps=512)
            assert np.max(np.abs(exact[:, k] - stepped)) < 1e-8


def test_collinear_arcs_compose():
    rng = np.random.default_rng(2)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    t1, t2 = 0.7, 0.45
    lhs = transport_operator(ROUND, HALF, GroupArc(tuple(d), t1 + t2))
    rhs = transport_operator(ROUND, HALF, GroupArc(tuple(d), t2)) @ transport_operator(
        ROUND, HALF, GroupArc(tuple(d), t1)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_j_intertwines_transport():
    rng = np.random.default_rng(3)
    for _ in range(20):
        arc = arc_from_vector(rng.uniform(-1.5, 1.5, 3))
        psi0 = random_psi(rng)
        U = transport_operator(ROUND, HALF, arc)
        lhs = U @ j_structure(psi0)
        rhs = j_structure(U @ psi0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# loop bookkeeping -----------------------------------------------------------


def su2_embedding(g):
    """L with e_i -> sum_k L[i, k] q_k an embedding of a definite unimodular frame in su(2).

    Milnor's n (c^k_ij = eps_ijl n[l, k]) is symmetric and definite on such a
    frame, and L = sign(det n) chol(adj(n) / 4) solves 2 cof(L) = n L.
    """
    n = g.structure_constants[[1, 2, 0], [2, 0, 1]]
    adj = np.cross(n[[1, 2, 0]], n[[2, 0, 1]])
    return np.sign(np.linalg.det(n)) * np.linalg.cholesky(adj / 4.0)


def closure_defect(g, paths):
    """Per path (N,), how far the endpoint of (N, k, 3) paths lies from the identity.

    An independent model of the group: arcs add as vectors for c = 0, and
    multiply as unit quaternions exp(t d L) in the su(2) embedding otherwise.
    """
    paths = np.asarray(paths, dtype=float)
    if not np.any(g.structure_constants):
        return np.linalg.norm(paths.sum(axis=1), axis=-1)
    L = su2_embedding(g)
    end = np.broadcast_to(np.eye(2), paths.shape[:1] + (2, 2))
    for j in range(paths.shape[1]):
        end = end @ _su2_exp(paths[:, j] @ L)
    return np.max(np.abs(end - np.eye(2)), axis=(-2, -1))


def assert_loops_close(g, paths, tol=1e-12):
    """Raise AssertionError naming how many of the paths the oracle finds open."""
    n_open = np.count_nonzero(closure_defect(g, paths) > tol)
    if n_open:
        raise AssertionError(f"{n_open} of {len(paths)} paths open")


def oracle_frames():
    """Definite unimodular frames: round, Berger, negative definite and rotated."""
    g_berger, _ = parse_geometry_file(BERGER_PATH)
    R = rotation((1.0, 2.0, 3.0), 0.55)
    return [
        ROUND,
        g_berger,
        milnor_geometry((-2.0, -2.0, -2.0)),
        rotated_geometry(g_berger, R),
        rotated_geometry(milnor_geometry((-3.0, -1.0, -2.0)), R),
    ]


def test_su2_embedding_is_a_homomorphism():
    # [x_i, x_j] = sum_k c[i, j, k] x_k for x_i = sum_k L[i, k] q_k
    for g in oracle_frames():
        x = np.einsum("ik,kab->iab", su2_embedding(g), -E)
        bracket = np.einsum("iab,jbc->ijac", x, x) - np.einsum("jab,ibc->ijac", x, x)
        want = np.einsum("ijk,kab->ijab", g.structure_constants, x)
        assert np.max(np.abs(bracket - want)) < 1e-13


def test_quadrilateral_loops_close():
    rng = np.random.default_rng(4)
    for g in oracle_frames():
        loops = quadrilateral_loop(g, WeightedDensity(0.0), rng, 50)
        assert loops.shape == (50, 4, 3)
        assert np.array_equal(loops[:, 2], -loops[:, 0])
        assert_loops_close(g, loops, 1e-12)


def test_open_path_raises():
    # the oracle's gate refuses a one-arc path, whose transport is far from Id
    with pytest.raises(AssertionError, match="1 of 1 paths open"):
        assert_loops_close(ROUND, [[(0.0, 0.0, 0.7)]])
    _, deviation = loop_holonomy(ROUND, HALF, [[(0.0, 0.0, 0.7)]])
    assert deviation[0] > 0.1


def test_one_open_loop_in_a_batch_raises():
    loops = quadrilateral_loop(ROUND, HALF, np.random.default_rng(19), 6)
    assert_loops_close(ROUND, loops)
    loops[3, 3] *= 1.001
    assert np.flatnonzero(closure_defect(ROUND, loops) > 1e-10).tolist() == [3]
    with pytest.raises(AssertionError, match="1 of 6 paths open"):
        assert_loops_close(ROUND, loops)
    # on the flat round connection only the open loop has a holonomy
    _, deviation = loop_holonomy(ROUND, HALF, loops)
    assert np.flatnonzero(deviation > 1e-10).tolist() == [3]


def test_quadrilateral_loop_lengths_scale_with_the_geometry():
    # the two drawn arcs have length 0.4-1.2 in units of 1 / residual_scale
    for g, beta, scale in (
        (ROUND, HALF, 2.0),
        (milnor_geometry((20.0, 20.0, 20.0)), WeightedDensity(5.0), 20.0),
        (milnor_geometry((0.0, 0.0, 0.0)), WeightedDensity(0.0), 1.0),
    ):
        loops = quadrilateral_loop(g, beta, np.random.default_rng(18), 200)
        legs = np.linalg.norm(loops[:, :2], axis=-1)
        assert 0.4 <= np.min(legs) * scale and np.max(legs) * scale <= 1.2


def test_abelian_quadrilateral_loops_close():
    g = milnor_geometry((0.0, 0.0, 0.0))
    loops = quadrilateral_loop(g, WeightedDensity(0.0), np.random.default_rng(5), 10)
    # ad_X = 0, so Z = Y and the four arcs sum to zero
    assert np.array_equal(loops[:, 3], -loops[:, 1])
    assert np.max(closure_defect(g, loops)) < 1e-15


def cross_matrix(a):
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def test_expm_is_rodrigues_on_skew_matrices():
    rng = np.random.default_rng(26)
    for angle in (0.0, 1e-9, 0.3, 2.0, np.pi, 12.0):
        axis = rng.standard_normal(3)
        K = cross_matrix(axis / np.linalg.norm(axis))
        assert np.max(np.abs(expm(angle * K) - rotation(axis, angle))) < 1e-14 * max(1.0, angle)
    assert np.array_equal(expm(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 0)])
def test_expm_of_a_non_finite_matrix_is_non_finite(bad, entry):
    # an inf entry once crashed the choice of the squaring count; now any
    # non-finite matrix gives an all non-finite result, as NaN always did,
    # and the finite matrices of the batch keep their values
    rng = np.random.default_rng(28)
    finite = 3.0 * rng.standard_normal((2, 3, 3))
    A = np.concatenate([np.zeros((1, 3, 3)), finite])
    A[(0, *entry)] = bad
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf, as numpy signals them
        out = expm(A)
    assert not np.any(np.isfinite(out[0]))
    assert np.array_equal(out[1:], expm(finite))


def semidirect_constants(M):
    """[e1, e_j] = sum_k M[k - 1, j - 1] e_k and [e2, e3] = 0: Jacobi holds for any 2x2 M."""
    c = np.zeros((3, 3, 3))
    c[0, 1:, 1:] = np.transpose(M)
    c[1:, 0, 1:] = -np.transpose(M)
    return c


def test_expm_on_non_unimodular_ad_matrices():
    # tr ad_X = X_1 tr M is not 0, so det expm(ad_X) = exp(tr ad_X) is not 1;
    # M = Id is Bianchi V, and a batch mixes norms 1e-3 to 3
    rng = np.random.default_rng(27)
    X = rng.standard_normal((40, 3))
    X *= (np.logspace(-3, 0.5, 40) / np.linalg.norm(X, axis=1))[:, None]
    for M in (np.eye(2), np.array([[1.0, -2.0], [0.5, 0.3]])):
        c = semidirect_constants(M)
        assert geometry._jacobi_defect(c) == 0.0
        ad = np.einsum("ni,ijk->nkj", X, c)
        E_ad = expm(ad)
        assert np.max(np.abs(E_ad @ expm(-ad) - np.eye(3))) < 1e-13
        det = np.exp(np.trace(ad, axis1=-2, axis2=-1))
        assert np.max(np.abs(np.linalg.det(E_ad) / det - 1.0)) < 1e-13
        assert np.max(np.abs(det - 1.0)) > 1.0


def test_loops_close_on_a_non_unimodular_algebra():
    # Bianchi VII_h, M = [[1, 1], [-1, 1]], with theta = (1, 0, 0) is a flat
    # Weyl structure whose Killing connection does not vanish (unlike Bianchi
    # V's); flat, it represents the algebra in an abelian subalgebra of su(2)
    g = validate_geometry(semidirect_constants([[1.0, 1.0], [-1.0, 1.0]]), (1.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    assert analyze(g, beta).verdict and flatness(g, beta) == 0.0
    assert np.max(np.abs(killing_connection(g, beta))) > 0.1
    loops = quadrilateral_loop(g, beta, np.random.default_rng(28), 200)
    assert np.max(loop_holonomy(g, beta, loops)[1]) < 1e-13
    # negative control: open loops, the last arc lengthened by 1 %
    loops[:, 3] *= 1.01
    assert np.max(loop_holonomy(g, beta, loops)[1]) > 1e-4


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.5, 6.0), min_size=3, max_size=3),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([-1.0, 1.0]),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v) > 0.1
    ),
    st.floats(0.0, 2.0 * np.pi),
    st.integers(0, 2**32 - 1),
)
def test_loop_model_works_in_any_frame(lam, sign, beta_sign, axis, angle, seed):
    # closing a loop and its holonomy cannot depend on the frame: a definite
    # Milnor frame of either sign, rotated by a random R in SO(3)
    rng = np.random.default_rng(seed)
    R = rotation(axis, angle)
    g = rotated_geometry(milnor_geometry(sign * np.asarray(lam)), R)
    assert np.max(closure_defect(g, quadrilateral_loop(g, WeightedDensity(0.0), rng, 5))) < 1e-12
    # the round Gauduchon-Tod member, |beta| = lambda / 4, in the same frame
    g = rotated_geometry(milnor_geometry((sign * lam[0],) * 3), R)
    beta = WeightedDensity(beta_sign * lam[0] / 4.0)
    _, dev = loop_holonomy(g, beta, quadrilateral_loop(g, beta, rng, 5))
    assert np.max(dev) < 1e-12
    assert path_independence_residual(g, beta, rng, pairs=3) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(-10.0, 10.0))
@example(-10.0)
@example(10.0)
def test_verdicts_and_holonomy_are_gauge_invariant(s):
    # the shipped Berger sphere under g -> e^{2s} g: scale 2 e^{-s} spans
    # 9e-5 to 4.4e4, and every verdict is dimensionless
    g0, beta0 = parse_geometry_file(BERGER_PATH)
    g, beta = gauge_rescale(g0, beta0, s)
    assert analyze(g, beta).verdict
    assert flatness(g, beta) < 1e-10
    rng = np.random.default_rng(17)
    _, dev = loop_holonomy(g, beta, quadrilateral_loop(g, beta, rng, 5))
    assert np.max(dev) < 1e-9
    # negative control: beta off by 2 % fails both verdicts at every scale
    g, beta = gauge_rescale(g0, WeightedDensity(1.02 * beta0.value), s)
    assert not analyze(g, beta).verdict
    assert flatness(g, beta) > 1e-10


def test_negative_definite_milnor_frame_is_flat_along_loops():
    # lambda = (-2, -2, -2) is the round sphere with reversed orientation
    g = milnor_geometry((-2.0, -2.0, -2.0))
    beta = WeightedDensity(-0.5)
    assert analyze(g, beta).verdict
    assert killing_curvature(g, beta).residual < 1e-14
    rng = np.random.default_rng(16)
    _, dev = loop_holonomy(g, beta, quadrilateral_loop(g, beta, rng, 20))
    assert np.max(dev) < 1e-12
    assert path_independence_residual(g, beta, rng, pairs=8) < 1e-12


def test_empty_loop_is_trivial():
    H, dev = loop_holonomy(ROUND, HALF, np.zeros((1, 0, 3)))
    assert np.array_equal(H, np.eye(2)[None])
    assert np.array_equal(dev, [0.0])


def test_batched_holonomy_matches_per_arc_transports():
    # the array path against the per-arc product on round, Berger, flat and
    # rotated frames, including a loop batch of one
    g_berger, beta_berger = parse_geometry_file(BERGER_PATH)
    R = rotation((1.0, 2.0, 3.0), 0.55)
    cases = [
        (ROUND, HALF),
        (g_berger, beta_berger),
        (milnor_geometry((0.0, 0.0, 0.0)), WeightedDensity(0.0)),
        (rotated_geometry(g_berger, R), beta_berger),
        (rotated_geometry(milnor_geometry((-3.0, -3.0, -3.0)), R), WeightedDensity(0.75)),
    ]
    rng = np.random.default_rng(20)
    for g, beta in cases:
        for n in (1, 3):
            loops = quadrilateral_loop(g, beta, rng, n)
            H, dev = loop_holonomy(g, beta, loops)
            assert H.shape == (n, 2, 2) and dev.shape == (n,)
            assert np.max(np.abs(H - sample_transports(g, beta, loops))) < 1e-13
            assert np.array_equal(dev, np.max(np.abs(H - np.eye(2)), axis=(-2, -1)))
            legs = path_transports(g, beta, loops[:, :2])
            assert np.max(np.abs(legs - sample_transports(g, beta, loops[:, :2]))) < 1e-13


def test_holonomy_trivial_on_round_sphere():
    rng = np.random.default_rng(7)
    _, dev = loop_holonomy(ROUND, HALF, quadrilateral_loop(ROUND, HALF, rng, 50))
    assert np.max(dev) < 1e-9


def test_holonomy_negative_control():
    rng = np.random.default_rng(8)
    beta = WeightedDensity(0.3)  # not GT, curvature residual 0.32
    _, dev = loop_holonomy(ROUND, beta, quadrilateral_loop(ROUND, beta, rng, 1))
    assert dev[0] > 1e-3


def test_path_independence_iff_flatness():
    rng = np.random.default_rng(9)
    flat_res = killing_curvature(ROUND, HALF).residual
    assert flat_res < 1e-10
    assert path_independence_residual(ROUND, HALF, rng, pairs=8) < 1e-8
    beta = WeightedDensity(0.3)
    assert killing_curvature(ROUND, beta).residual > 1e-10
    assert path_independence_residual(ROUND, beta, rng, pairs=8) > 1e-8


# the basis ------------------------------------------------------------------


def test_basis_constant_for_vanishing_connection():
    # beta = -1/2 makes B = 0 on the round sphere: sections are constant
    rng = np.random.default_rng(10)
    U = sample_transports(ROUND, WeightedDensity(-0.5), [rng.uniform(-1, 1, (3, 3))])[0]
    assert np.max(np.abs(BASE_SPINORS @ U.T - BASE_SPINORS)) < 1e-14


def test_basis_pair_is_j_related_and_independent():
    psi1, psi2 = BASE_SPINORS
    assert np.max(np.abs(psi2 - j_structure(psi1))) == 0.0
    rng = np.random.default_rng(11)
    samples = [loop[:k] for loop in quadrilateral_loop(ROUND, HALF, rng, 20) for k in (1, 2)]
    assert min_singular_value(sample_transports(ROUND, HALF, samples)) > 0.1


def test_flat_abelian_basis_and_residual():
    g = milnor_geometry((0.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    rng = np.random.default_rng(12)
    samples = [rng.uniform(-1, 1, (1, 3)) for _ in range(5)]
    assert killing_residual(g, beta, sample_transports(g, beta, samples), h=0.05) < 1e-13


def test_killing_residual_second_order():
    rng = np.random.default_rng(13)
    samples = [loop[:k] for loop in quadrilateral_loop(ROUND, HALF, rng, 10) for k in (1, 2)]
    transports = sample_transports(ROUND, HALF, samples)
    r5 = killing_residual(ROUND, HALF, transports, h=1e-5)
    assert r5 < 1e-7
    r3 = killing_residual(ROUND, HALF, transports, h=1e-3)
    r4 = killing_residual(ROUND, HALF, transports, h=1e-4)
    assert 80.0 < r3 / r4 < 120.0


# the per-sample loops that the batched sections replaced, kept as their reference


def per_sample_transport(g, beta, path):
    U = np.eye(2, dtype=complex)
    for v in path:
        U = transport_operator(g, beta, arc_from_vector(v)) @ U
    return U


def per_sample_min_singular_value(g, beta, samples):
    worst = np.inf
    for path in samples:
        U = per_sample_transport(g, beta, path)
        v1, v2 = U @ BASE_SPINORS[0], U @ BASE_SPINORS[1]
        m = np.stack([v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)], axis=1)
        worst = min(worst, float(np.linalg.svd(m, compute_uv=False)[-1]))
    return worst


def per_sample_killing_residual(g, beta, samples, h):
    s = residual_scale(g, beta) or 1.0
    step = h / s
    A = spin_connection(g, 0.0)
    B = killing_connection(g, beta)
    plus = [_su2_exp(-step * _su2_coefficients(B[i])) for i in range(3)]
    minus = [_su2_exp(step * _su2_coefficients(B[i])) for i in range(3)]
    worst = 0.0
    for path in samples:
        U = per_sample_transport(g, beta, path)
        for psi0 in BASE_SPINORS:
            psi = U @ psi0
            scale = s * float(np.max(np.abs(psi)))
            for i in range(3):
                fd = (plus[i] @ psi - minus[i] @ psi) / (2.0 * step)
                defect = fd + A[i] @ psi - beta.value * (E[i] @ psi)
                worst = max(worst, float(np.max(np.abs(defect))) / scale)
    return worst


def sample_cases():
    """Certified (g, beta) in diagonal, rotated, abelian and negative Milnor frames."""
    g_berger, beta_berger = parse_geometry_file(BERGER_PATH)
    R = rotation((1.0, 2.0, 3.0), 0.55)
    return [
        (ROUND, HALF),
        (rotated_geometry(g_berger, R), beta_berger),
        (milnor_geometry((0.0, 0.0, 0.0)), WeightedDensity(0.0)),
        (milnor_geometry((-3.0, -3.0, -3.0)), WeightedDensity(-0.75)),
    ]


def test_batched_sample_sections_match_the_per_sample_loop():
    rng = np.random.default_rng(24)
    for g, beta in sample_cases():
        # one- and two-arc paths, interleaved as the killing command draws them
        samples = [loop[:k] for loop in quadrilateral_loop(g, beta, rng, 8) for k in (1, 2)]
        transports = sample_transports(g, beta, samples)
        assert transports.shape == (16, 2, 2)
        sv = min_singular_value(transports)
        assert abs(sv - per_sample_min_singular_value(g, beta, samples)) < 1e-15
        for h in (1e-3, 1e-2):
            got = killing_residual(g, beta, transports, h=h)
            want = per_sample_killing_residual(g, beta, samples, h)
            assert abs(got - want) <= 1e-9 * want


def test_batched_sample_sections_fail_on_a_non_finite_transport():
    loops = quadrilateral_loop(ROUND, HALF, np.random.default_rng(25), 4)
    transports = sample_transports(ROUND, HALF, loops[:, :2])
    assert min_singular_value(transports) > 0.1
    assert killing_residual(ROUND, HALF, transports) < 1e-7
    transports[2, 1, 0] = np.nan
    # NaN is the worst value: it fails the "above 0.1" and "below 1e3 h^2" bounds
    assert not min_singular_value(transports) > 0.1
    assert not killing_residual(ROUND, HALF, transports) < 1e-7


# parameter search -----------------------------------------------------------


def test_family_and_residual_vector():
    g, beta = milnor_theta3_family((2.0, 2.0, 2.0, 0.0, 0.5))
    assert np.max(np.abs(gt_residual_vector(g, beta))) < 1e-13
    r = gt_residual_vector(*milnor_theta3_family((2.0, 2.0, 2.0, 0.3, 0.5)))
    assert r.shape == (13,)
    assert np.max(np.abs(r)) > 1e-3


def family_residual(x):
    return gt_residual_vector(*milnor_theta3_family(x))


def form_defect(Q, xs):
    """Worst max|(Q @ x) @ x - r(x)| / max|x|^2 over the rows of xs."""
    return max(
        float(np.max(np.abs((Q @ x) @ x - family_residual(x)))) / float(np.max(np.abs(x))) ** 2
        for x in xs
    )


def test_family_quadratic_form_is_the_residual():
    Q = _family_quadratic_form()
    assert Q.shape == (13, 5, 5)
    assert not Q.flags.writeable
    assert np.array_equal(Q, np.swapaxes(Q, 1, 2))
    xs = np.random.default_rng(21).uniform(-5.0, 5.0, (1000, 5))
    assert form_defect(Q, xs) < 1e-13


def test_family_quadratic_form_broken_entry_fails():
    Q = np.array(_family_quadratic_form())
    k, i, j = np.unravel_index(np.argmax(np.abs(Q)), Q.shape)
    Q[k, i, j] *= 1.01
    xs = np.random.default_rng(21).uniform(-5.0, 5.0, (1000, 5))
    assert form_defect(Q, xs) > 1e-3


def test_family_quadratic_form_jacobian_is_the_unit_step_difference():
    Q = _family_quadratic_form()
    eye = np.eye(5)
    for x in np.random.default_rng(22).uniform(-5.0, 5.0, (50, 5)):
        central = np.stack(
            [0.5 * (family_residual(x + e) - family_residual(x - e)) for e in eye], axis=1
        )
        scale = (float(np.max(np.abs(x))) + 1.0) ** 2
        assert np.max(np.abs(2.0 * (Q @ x) - central)) < 1e-13 * scale


def test_family_quadratic_form_vanishes_on_the_gt_variety():
    # the Berger branch lambda = (a, a, c), theta3^2 = c (a - c), beta = c / 4, and the
    # round member with beta = -a / 4 (the closed-form roots of the theta3 family)
    Q = _family_quadratic_form()
    rng = np.random.default_rng(23)
    points = []
    for _ in range(200):
        a = rng.uniform(-5.0, 5.0)
        c = a * rng.uniform(0.0, 1.0)
        t = rng.choice([-1.0, 1.0]) * np.sqrt(c * (a - c))
        points += [(a, a, c, t, c / 4.0), (a, a, a, 0.0, -a / 4.0)]
    for x in np.array(points):
        assert np.max(np.abs((Q @ x) @ x)) < 1e-14 * np.max(np.abs(x)) ** 2
    # off the variety the form does not vanish
    x = np.array([2.0, 2.0, 1.5, 0.5, 0.5])
    assert np.max(np.abs((Q @ x) @ x)) > 1e-2


def test_search_from_exact_root_takes_no_steps():
    res = find_gt_parameters((2.0, 2.0, 2.0, 0.0, 0.5))
    assert res.iterations == 0
    assert res.residual_norm < 1e-10
    assert res.report.verdict


def test_search_converges_from_perturbed_guess():
    res = find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0))
    assert res.residual_norm < 1e-10
    assert res.iterations <= 50
    assert res.params[0] == 2.0  # pinned coordinate untouched
    g, beta = milnor_theta3_family(res.params)
    assert analyze(g, beta).verdict
    assert killing_curvature(g, beta).residual < 1e-8


def test_search_pin_by_index_and_value_none():
    res = find_gt_parameters((2.0, 2.1, 1.95, 0.01, 0.45), pin=(4, None))
    assert res.params[4] == 0.45
    assert res.residual_norm < 1e-10


def test_search_no_convergence_payload():
    with pytest.raises(NoConvergence) as info:
        find_gt_parameters(
            (2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0), max_iterations=1
        )
    err = info.value
    assert err.iterations == 1
    assert len(err.best_params) == 5
    assert err.best_residual > 1e-10


def test_search_is_deterministic():
    a = find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0))
    b = find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0))
    assert a.params == b.params
    assert a.residual_norm == b.residual_norm


def test_search_reports_the_formula_residual_at_its_root():
    res = find_gt_parameters((2.0, 2.0, 1.8, 0.3, 0.4), pin=("lambda1", 2.0))
    assert res.residual_norm == float(np.max(np.abs(family_residual(res.params))))


def test_search_evaluates_the_formula_only_at_its_root(monkeypatch):
    _family_quadratic_form()
    calls = []
    package = geometry.curvature_package
    monkeypatch.setattr(geometry, "curvature_package", lambda g: calls.append(g) or package(g))
    res = find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0))
    assert res.iterations > 1
    assert len(calls) == 1


def test_search_root_of_a_wrong_form_raises_no_convergence(monkeypatch):
    # a form that vanishes at x, where the residual formula reads 1.56: the
    # search stops at once, and the formula turns its "root" down
    x = np.array([2.0, 2.0, 1.8, 0.3, 0.4])
    Q = _family_quadratic_form()
    wrong = Q - np.einsum("i,k,l->ikl", (Q @ x) @ x, x, x) / (x @ x) ** 2
    monkeypatch.setattr(killing, "_family_quadratic_form", lambda: wrong)
    with pytest.raises(NoConvergence) as info:
        find_gt_parameters(x, pin=("lambda1", 2.0))
    assert info.value.iterations == 0
    assert info.value.best_residual == float(np.max(np.abs(family_residual(x))))
    assert info.value.best_residual > 1e-2


def test_transport_sequence_operator_orders_left():
    # sample_transports composes a path's arcs in travel order, the last leftmost
    v1, v2 = np.random.default_rng(14).uniform(-1, 1, (2, 3))
    lhs = sample_transports(ROUND, HALF, [np.stack([v1, v2])])[0]
    rhs = transport_operator(ROUND, HALF, arc_from_vector(v2)) @ transport_operator(
        ROUND, HALF, arc_from_vector(v1)
    )
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_search_overflow_raises_no_convergence():
    # the residuals are quadratic, so lambda1 = 1e200 overflows them
    with pytest.raises(NoConvergence) as info:
        find_gt_parameters((1e200, 2.0, 2.0, 0.0, 0.5))
    assert info.value.best_params[0] == 1e200
    assert not info.value.best_residual < 1e-10
