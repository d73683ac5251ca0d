"""Parallel transport, loop holonomy, the 2-dimensional solution space, and
the Newton search over the five-parameter family.
"""

import ast
import hashlib
import inspect
import math
import os
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylspin.clifford import EPS, QUATERNION_BASIS, E, j_structure
from weylspin.errors import NoConvergence, ShapeError
from weylspin import geometry, killing, spinconn
from weylspin.cli import parse_geometry_file
from weylspin.geometry import (
    WeightedDensity,
    analyze,
    gauge_rescale,
    gt_residual_vector,
    milnor_geometry,
    residual_scale,
    validate_geometry,
)
from weylspin.killing import (
    BASE_SPINORS,
    GroupArc,
    _HAMILTON,
    _family_quadratic_form,
    _float_quaternion,
    _hamilton,
    _loop_legs,
    _su2_quaternion,
    closing_arc,
    find_gt_parameters,
    killing_data,
    killing_residual,
    loop_batch,
    loop_holonomy,
    milnor_theta3_family,
    min_singular_value,
    path_independence_residual,
    rk4_transport,
    sample_transports,
    transport_loops,
    transport_operator,
)
from weylspin.spinconn import flatness, killing_connection, killing_curvature

import test_spinconn
from test_spinconn import random_geometry

ROUND = milnor_geometry((2.0, 2.0, 2.0))
HALF = WeightedDensity(0.5)
BERGER_PATH = os.path.join(os.path.dirname(__file__), "..", "geometries", "berger_theta.json")
Q = QUATERNION_BASIS[1:].reshape(3, 2, 2)  # q_k = -e_k, the unit quaternions


def rotation(axis, angle):
    """The SO(3) rotation by angle about axis (Rodrigues)."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotated_geometry(g, R):
    """The same geometry in the orthonormal frame e'_i = sum_a R[i, a] e_a."""
    c = np.einsum("ia,jb,abc,kc->ijk", R, R, g.structure_constants, R)
    return validate_geometry(c, R @ g.theta)


def quaternion_matrices(p):
    """Quaternions p (..., 4) as the (..., 2, 2) matrices p_0 Id + sum_k p_k q_k: the oracle for the entries."""
    return (p @ QUATERNION_BASIS).reshape(p.shape[:-1] + (2, 2))


def su2_coefficients(M):
    """Real x_k = -tr(q_k M) / 2 of the sum x_k q_k part of M (..., 2, 2); any Id part is dropped."""
    return -np.real(np.einsum("kab,...ba->...k", 0.5 * Q, M))  # q_k halved first: no overflow


def su2_exp(x):
    """exp of sum x_k q_k for coefficients x (..., 3) as (..., 2, 2) matrices, by the batch kernel."""
    return quaternion_matrices(np.moveaxis(_su2_quaternion(np.moveaxis(x, -1, 0)), 0, -1))


@np.errstate(over="ignore", invalid="ignore")  # an exponent that overflows gives NaN, as in transport_loops
def batch_transports(g, beta, vectors):
    """Transports (N, 2, 2) along single arcs, frame vectors (N, 3), by the batch kernel."""
    return su2_exp(-np.asarray(vectors, dtype=float) @ killing_data(g, beta).b)


def random_psi(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


@pytest.mark.parametrize(
    "direction",
    [
        np.array([[1.0], [0.0], [0.0]]),  # (3, 1)
        np.array([1.0, 0.0]),  # (2,)
        (1.0, 0.0, 0.0, 0.0),
        ((1.0,), (0.0,), (0.0,)),
        np.array(1.0),
        1.0,
        None,
    ],
)
def test_group_arc_rejects_what_is_not_a_unit_3_vector(direction):
    with pytest.raises(ShapeError):
        GroupArc(direction)


@pytest.mark.parametrize(
    "direction",
    [
        [0.0, 0.6, 0.8],
        (0.0, 0.6, 0.8 + 1e-11),
        np.array([0.0, 0.6, 0.8]),
        np.eye(3)[2],
        np.eye(3, dtype=int)[1],
    ],
)
def test_group_arc_accepts_lists_tuples_and_numpy_rows(direction):
    arc = GroupArc(direction)
    assert arc.vector == tuple(float(c) for c in np.asarray(direction))
    assert all(type(c) is float for c in arc.vector + (arc.length,))


@pytest.mark.parametrize(
    "vector",
    [
        (2, -3, 6),
        np.array([2, -3, 6], dtype=np.int64),
        [np.float32(0.5), np.int8(-1), 0],
        (0.0, 0.0, 0.0),
    ],
)
def test_group_arc_holds_any_finite_vector_as_three_floats(vector):
    arc = GroupArc(vector)
    assert arc.vector == tuple(float(c) for c in np.asarray(vector, dtype=float))
    assert all(type(c) is float for c in arc.vector + (arc.length,))
    assert arc.length == math.hypot(*arc.vector)


@pytest.mark.parametrize(
    "text", ["100", "340", b"100", ["1", "0", "0"], np.array(["1", "0", "0"]), (1.0, "0", 0.0)]
)
def test_group_arc_rejects_text(text):
    # float() parses "1" as 1.0, so a 3-character string would read as 3 numbers
    with pytest.raises(ShapeError):
        GroupArc(text)


@pytest.mark.parametrize("v", [np.zeros((3, 1)), np.ones((3, 1)), np.ones(2), (1.0, 2.0, 3.0, 4.0), 5.0])
def test_arc_from_vector_rejects_other_shapes(v):
    with pytest.raises(ShapeError):
        GroupArc(v)


def test_arc_length_is_the_correctly_rounded_norm():
    # against ||v|| in 60-digit decimals: math.hypot rounds the length
    # correctly here, and the vector is held bit for bit
    rng = np.random.default_rng(42)
    vs = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-5, 5, (500, 1))
    for v in list(vs) + [v.tolist() for v in vs[:20]]:
        arc = GroupArc(v)
        with localcontext() as ctx:
            ctx.prec = 60
            norm = sum(Decimal(float(c)) ** 2 for c in v).sqrt()
        assert arc.vector == tuple(float(c) for c in v)
        assert arc.length == math.hypot(*arc.vector) == float(norm)


def test_group_arc_validation():
    with pytest.raises(ShapeError):
        GroupArc((1.0, 0.0))
    with pytest.raises(TypeError):
        GroupArc((1.0, 0.0, 0.0), 0.5)  # an arc is its vector alone
    a = GroupArc((0.0, 3.0, 4.0))
    assert a.vector == (0.0, 3.0, 4.0) and a.length == 5.0
    assert GroupArc((0.0, 0.0, 0.0)).length == 0.0


@pytest.mark.parametrize(
    "direction, length",
    [((np.nan, 0.0, 0.0), 1.0), ((1.0, 0.0, 0.0), np.nan), ((1.0, 0.0, 0.0), np.inf)],
)
def test_group_arc_rejects_non_finite_input(direction, length):
    # a direction scaled by its length: any non-finite factor is refused
    with pytest.raises(ShapeError):
        GroupArc([length * c for c in direction])


@pytest.mark.parametrize("v", [(np.nan, 0.0, 0.0), (0.0, -np.inf, 1.0), (10**400, 0, 0), [0.0, 1.0, -(10**400)]])
def test_arc_from_vector_rejects_non_finite_input(v):
    with pytest.raises(ShapeError):
        GroupArc(v)


def test_zero_length_transport_is_identity():
    # the zero vector gives the exponent -0 and the identity quaternion
    # exactly, on every geometry, with no special case
    psi0 = np.array([0.3 + 0.1j, -0.8j])
    for g, beta in single_arc_cases():
        for zero in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), np.zeros(3, dtype=int)):
            arc = GroupArc(zero)
            assert arc.length == 0.0
            assert np.array_equal(transport_operator(g, beta, arc), np.eye(2))
            assert np.array_equal(rk4_transport(g, beta, arc, psi0, steps=4), psi0)


def test_flat_abelian_transport_constant():
    g = milnor_geometry((0.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    rng = np.random.default_rng(0)
    psi0 = random_psi(rng)
    for _ in range(10):
        arc = GroupArc(rng.uniform(-2, 2, 3))
        assert np.max(np.abs(transport_operator(g, beta, arc) @ psi0 - psi0)) < 1e-15


def test_round_sphere_closed_form_transport():
    # B_i = -e_i at beta = 1/2, so transport along e_3 for time t is
    # exp(t e_3) = cos t + sin t e_3
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.3, 1.0, np.pi):
        arc = GroupArc((0.0, 0.0, t))
        got = transport_operator(ROUND, HALF, arc) @ psi0
        want = (np.cos(t) * np.eye(2) + np.sin(t) * E[2]) @ psi0
        assert np.max(np.abs(got - want)) < 1e-13


def test_transport_cross_checked_by_rk4():
    rng = np.random.default_rng(1)
    for _ in range(5):
        arc = GroupArc(rng.uniform(-1.5, 1.5, 3))
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
        arc = GroupArc(rng.uniform(-1, 1, 3))
        exact = transport_operator(g, beta, arc)
        for k, e in enumerate(np.eye(2, dtype=complex)):
            stepped = rk4_transport(g, beta, arc, e, steps=512)
            assert np.max(np.abs(exact[:, k] - stepped)) < 1e-8


def test_collinear_arcs_compose():
    rng = np.random.default_rng(2)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    t1, t2 = 0.7, 0.45
    lhs = transport_operator(ROUND, HALF, GroupArc((t1 + t2) * d))
    rhs = transport_operator(ROUND, HALF, GroupArc(t2 * d)) @ transport_operator(
        ROUND, HALF, GroupArc(t1 * d)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_j_intertwines_transport():
    rng = np.random.default_rng(3)
    for _ in range(20):
        arc = GroupArc(rng.uniform(-1.5, 1.5, 3))
        psi0 = random_psi(rng)
        U = transport_operator(ROUND, HALF, arc)
        lhs = U @ j_structure(psi0)
        rhs = j_structure(U @ psi0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def single_arc_cases():
    """Round, Berger, flat R^3, flat Bianchi V and a rotated Berger frame, each with its beta."""
    g_berger, beta_berger = parse_geometry_file(BERGER_PATH)
    geometries = os.path.join(os.path.dirname(__file__), "..", "geometries")
    return [
        (ROUND, HALF),
        (g_berger, beta_berger),
        parse_geometry_file(os.path.join(geometries, "flat.json")),
        parse_geometry_file(os.path.join(geometries, "bianchi_v_flat.json")),
        (rotated_geometry(g_berger, rotation((1.0, 2.0, 3.0), 0.55)), beta_berger),
    ]


def test_single_arc_and_batch_routes_agree():
    # transport_operator runs the closed form on Python floats, _su2_quaternion
    # on arrays; both are the same formula, so they differ by rounding only
    rng = np.random.default_rng(43)
    for g, beta in single_arc_cases():
        scale = residual_scale(g, beta)
        for v in rng.standard_normal((40, 3)) * rng.uniform(0.1, 3.0, (40, 1)) / scale:
            arc = GroupArc(v)
            single = transport_operator(g, beta, arc)
            batch = batch_transports(g, beta, [arc.vector])[0]
            assert np.max(np.abs(single - batch)) <= 2e-15
        # phi = 0 gives Id exactly: a zero length, or any arc on a vanishing connection
        arcs = [GroupArc((0.0, 0.0, 0.0))]
        if not np.any(killing_data(g, beta).b):
            arcs.append(GroupArc(rng.standard_normal(3)))
        for arc in arcs:
            assert np.array_equal(transport_operator(g, beta, arc), np.eye(2))
            assert np.array_equal(batch_transports(g, beta, [arc.vector])[0], np.eye(2))


def test_transport_operator_is_the_quaternion_basis_matrix():
    # the 2x2 matrix is np.dot of the quaternion's four floats with
    # clifford.QUATERNION_BASIS, bit for bit, and its values are
    # quaternion_matrices'
    rng = np.random.default_rng(44)
    for g, beta in single_arc_cases():
        cols = killing_data(g, beta).columns
        scale = residual_scale(g, beta)
        vectors = rng.standard_normal((40, 3)) * rng.uniform(0.1, 3.0, (40, 1)) / scale
        for v in [*vectors, (0.0, 0.0, 0.0), (1.7e308, 0.0, 0.0)]:
            arc = GroupArc(v)
            x = [-sum(a * b for a, b in zip(arc.vector, col)) for col in cols]
            U = transport_operator(g, beta, arc)
            assert U.tobytes() == np.dot(_float_quaternion(x), QUATERNION_BASIS).reshape(2, 2).tobytes()
            assert np.array_equal(U, quaternion_matrices(np.array(_float_quaternion(x))), equal_nan=True)


def test_killing_reads_su2_from_the_quaternion_basis_alone():
    # the 2x2 basis and its entry map live in clifford: killing takes
    # QUATERNION_BASIS and ENTRY_PAIRS, and no Clifford generator E
    tree = ast.parse(inspect.getsource(killing))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "clifford" for alias in node.names}
    assert {"QUATERNION_BASIS", "ENTRY_PAIRS"} <= names and "E" not in names


@pytest.mark.parametrize("phi", [1e-300, 5e-324, 1e-170])
def test_tiny_exponents_give_finite_unitary_transports(phi):
    # on round at beta = 1/2, B_i = -e_i = q_i, so an arc of length t along e_3 has phi = t
    arc = GroupArc((0.0, 0.0, phi))
    for U in (transport_operator(ROUND, HALF, arc), batch_transports(ROUND, HALF, [arc.vector])[0]):
        assert np.all(np.isfinite(U))
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-15
        assert np.max(np.abs(U - np.eye(2))) <= 2 * phi


def test_overflowing_exponents_give_nan_transports_silently():
    # at lambda = 200, beta = 50 an arc of length 1.7e308 overflows the su(2)
    # exponent; both kernels give NaN, as closing_arc does, and warn nothing
    g, beta = milnor_geometry((200.0, 200.0, 200.0)), WeightedDensity(50.0)
    arc = GroupArc((1.7e308, 0.0, 0.0))
    vectors = np.array([(1.7e308, 0.0, 0.0), (0.3, 0.0, 0.0), (1e308, -1e308, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U = transport_operator(g, beta, arc)
        batch = batch_transports(g, beta, vectors)
        quaternions = _su2_quaternion(np.transpose([(1.5e308, 1.5e308, 0.0), (np.inf, 0.0, 0.0), (np.nan, 0.0, 0.0)]))
        sv = min_singular_value(np.stack([U, batch[1]]))
        batch_sv = min_singular_value(batch)
    assert U.shape == (2, 2) and np.all(np.isnan(U))
    assert np.all(np.isnan(batch[[0, 2]]))
    assert np.array_equal(batch[1], batch_transports(g, beta, vectors[1:2])[0])  # the others unharmed
    assert np.all(np.isnan(quaternions))
    assert math.isnan(sv) and math.isnan(batch_sv)


@pytest.mark.parametrize("t", [1.4e154, 1e160, 1e200, 1e300])
def test_both_kernels_overflow_at_the_same_norm(t):
    # on round at beta = 1/2 the arc t e_1 has the exponent x = (-t, 0, 0):
    # its sum of squares overflows from t of about 1.3e154, but phi = t does
    # not, so both kernels give the same finite unit quaternion
    arc = GroupArc((t, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = transport_operator(ROUND, HALF, arc)
        batch = batch_transports(ROUND, HALF, [(t, 0.0, 0.0), (0.3, 0.0, 0.0)])
    for U in (single, batch[0]):
        assert np.all(np.isfinite(U))
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-15
    assert np.max(np.abs(single - batch[0])) <= 2e-15
    # only the exponents whose sum of squares overflows are rescaled
    assert np.array_equal(batch[1], batch_transports(ROUND, HALF, [(0.3, 0.0, 0.0)])[0])
    # an exponent along no axis: finite and unit where its norm is
    q = _su2_quaternion(np.transpose([(t, -t, 0.5 * t), (1.5e308, 1.5e308, 0.0)]))
    assert np.all(np.isfinite(q[:, 0])) and abs(np.linalg.norm(q[:, 0]) - 1.0) <= 1e-15
    assert np.all(np.isnan(q[:, 1]))


def hamilton_product(p, q):
    """p * q for quaternion batches (N, 4), by _hamilton on their columns."""
    return _hamilton(p.T, q.T).T


def test_hamilton_table_is_the_matrix_product_and_write_locked():
    rng = np.random.default_rng(40)
    p, q = rng.standard_normal((2, 200, 4))
    lhs = quaternion_matrices(p) @ quaternion_matrices(q)
    scale = np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1)
    err = np.max(np.abs(lhs - quaternion_matrices(hamilton_product(p, q))), axis=(1, 2))
    assert np.all(err <= 1e-15 * scale)
    # the table is read off the basis exactly: one unit entry per row
    assert np.array_equal(np.count_nonzero(_HAMILTON, axis=1), np.ones(16))
    assert np.array_equal(np.abs(_HAMILTON).sum(axis=1), np.ones(16))
    assert not _HAMILTON.flags.writeable
    with pytest.raises(ValueError):
        _HAMILTON[0, 0] = 2.0


def matrix_path_transports(g, beta, paths):
    """Transports (N, 2, 2) along paths (N, k, 3): the per-arc product of complex 2x2 matrices."""
    steps = su2_exp(-np.asarray(paths, dtype=float) @ killing_data(g, beta).b)
    out = np.broadcast_to(np.eye(2, dtype=complex), steps.shape[:1] + (2, 2))
    for j in range(steps.shape[1]):
        out = steps[:, j] @ out
    return out


def quaternion_fold(g, beta, paths):
    """Quaternion columns (4, N) of paths (N, k, 3), one _hamilton product per arc, later arcs left."""
    steps = _su2_quaternion(np.moveaxis(-np.asarray(paths, dtype=float) @ killing_data(g, beta).b, -1, 0))
    out = np.broadcast_to([[1.0], [0.0], [0.0], [0.0]], (4, len(paths)))
    for j in range(steps.shape[-1]):
        out = _hamilton(steps[..., j], out)
    return out


@pytest.mark.parametrize("n", [0, 1, 3, 250])
@pytest.mark.parametrize("k", [0, 1, 4, 16])
def test_quaternion_composition_matches_the_matrix_product(n, k):
    g_berger, beta_berger = parse_geometry_file(BERGER_PATH)
    R = rotation((1.0, 2.0, 3.0), 0.55)
    rng = np.random.default_rng(41 + 16 * n + k)
    for g, beta in (
        (ROUND, HALF),
        (rotated_geometry(g_berger, R), beta_berger),
        (validate_geometry(semidirect_constants(np.eye(2)), (0.0, 0.0, 0.0)), WeightedDensity(0.0)),
    ):
        paths = rng.standard_normal((n, k, 3)) / residual_scale(g, beta)
        U = quaternion_matrices(quaternion_fold(g, beta, paths).T)
        assert U.shape == (n, 2, 2)
        assert np.max(np.abs(U - matrix_path_transports(g, beta, paths)), initial=0.0) <= 1e-15 * k
        # the composed quaternions (Re tr U / 2, su(2) part) stay on the unit sphere
        q0 = np.real(np.trace(U, axis1=1, axis2=2)) / 2
        norm = np.hypot(q0, np.linalg.norm(su2_coefficients(U), axis=1))
        assert np.max(np.abs(norm - 1.0), initial=0.0) < 1e-14


# loop bookkeeping -----------------------------------------------------------


def su2_embedding(g):
    """L with e_i -> sum_k L[i, k] q_k an embedding of a definite unimodular frame in su(2).

    Milnor's n (c^k_ij = eps_ijl n[l, k]) is symmetric and definite on such a
    frame, and L = sign(det n) chol(adj(n) / 4) solves 2 cof(L) = n L.
    """
    n = g.N
    adj = np.cross(n[[1, 2, 0]], n[[2, 0, 1]])
    return np.sign(np.linalg.det(n)) * np.linalg.cholesky(adj / 4.0)


def closure_defect(g, paths):
    """Per path (N,), how far the endpoint of (N, k, 3) paths lies from the identity.

    An independent model of the group: arcs add as vectors for c = 0, and
    multiply as unit quaternions exp(t d L) in the su(2) embedding otherwise.
    """
    paths = np.asarray(paths, dtype=float)
    if not np.any(g.N):
        return np.linalg.norm(paths.sum(axis=1), axis=-1)
    L = su2_embedding(g)
    end = np.broadcast_to(np.eye(2), paths.shape[:1] + (2, 2))
    for j in range(paths.shape[1]):
        end = end @ su2_exp(paths[:, j] @ L)
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


def loop_paths(batch):
    """The batch's loops as paths (loops, 4, 3) of arc frame vectors X, Y, -X, -Z."""
    legs = batch.legs
    return np.stack([legs[:, 0], legs[:, 1], -legs[:, 0], -batch.closing], axis=1)


def test_quadrilateral_loops_close():
    rng = np.random.default_rng(4)
    for g in oracle_frames():
        batch = loop_batch(g, WeightedDensity(0.0), rng, 50)
        assert batch.legs.shape == (50, 2, 3) and batch.closing.shape == (50, 3)
        assert_loops_close(g, loop_paths(batch), 1e-12)


def holonomies(batch):
    """The batch's loop holonomies conj(second) first (loops, 2, 2) as matrices, as loop_holonomy forms them."""
    return quaternion_matrices(_hamilton(killing._CONJUGATE * batch.second, batch.first).T)


def transported(g, beta, loops):
    """A LoopBatch of the given loops X, Y, -X, -Z (N, 4, 3), for loop_holonomy."""
    loops = np.asarray(loops, dtype=float)
    return transport_loops(g, beta, loops[:, :2], -loops[:, 3])


def test_open_path_raises():
    # the oracle's gate refuses a one-arc path, whose transport is far from Id
    with pytest.raises(AssertionError, match="1 of 1 paths open"):
        assert_loops_close(ROUND, [[(0.0, 0.0, 0.7)]])
    # the same path as a loop whose legs X and Z are zero
    deviation = loop_holonomy(transported(ROUND, HALF, [[(0.0, 0.0, 0.0), (0.0, 0.0, 0.7), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]]))
    assert deviation[0] > 0.1


def test_one_open_loop_in_a_batch_raises():
    loops = loop_paths(loop_batch(ROUND, HALF, np.random.default_rng(19), 6))
    assert_loops_close(ROUND, loops)
    loops[3, 3] *= 1.001
    assert np.flatnonzero(closure_defect(ROUND, loops) > 1e-10).tolist() == [3]
    with pytest.raises(AssertionError, match="1 of 6 paths open"):
        assert_loops_close(ROUND, loops)
    # on the flat round connection only the open loop has a holonomy
    deviation = loop_holonomy(transported(ROUND, HALF, loops))
    assert np.flatnonzero(deviation > 1e-10).tolist() == [3]


def test_quadrilateral_loop_lengths_scale_with_the_geometry():
    # the two drawn arcs have length 0.4-1.2 in units of 1 / residual_scale
    for g, beta, scale in (
        (ROUND, HALF, 2.0),
        (milnor_geometry((20.0, 20.0, 20.0)), WeightedDensity(5.0), 20.0),
        (milnor_geometry((0.0, 0.0, 0.0)), WeightedDensity(0.0), 1.0),
    ):
        legs = loop_batch(g, beta, np.random.default_rng(18), 200).legs
        lengths = np.linalg.norm(legs, axis=-1)
        assert 0.4 <= np.min(lengths) * scale and np.max(lengths) * scale <= 1.2


def test_abelian_quadrilateral_loops_close():
    g = milnor_geometry((0.0, 0.0, 0.0))
    batch = loop_batch(g, WeightedDensity(0.0), np.random.default_rng(5), 10)
    # ad_X = 0, so Z = Y exactly and the four arcs sum to zero
    assert np.array_equal(batch.closing, batch.legs[:, 1])
    assert np.max(closure_defect(g, loop_paths(batch))) < 1e-15


def cross_matrix(a):
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def from_bianchi(n, a):
    """(N, c) of N = n + [a]x, c^k_ij = sum_l eps_ijl N[l, k] by the tensor sum."""
    N = np.diag(n) + cross_matrix(a)
    return N, np.einsum("ijl,lk->ijk", EPS, N)


# The eleven Bianchi types in the canonical form of Ellis and MacCallum: n
# diagonal, a = (a, 0, 0), n a = 0; class B has h = a^2 / (n_2 n_3).
BIANCHI_TYPES = {
    "I": ((0.0, 0.0, 0.0), 0.0),
    "II": ((1.0, 0.0, 0.0), 0.0),
    "VI0": ((0.0, 1.0, -1.0), 0.0),
    "VII0": ((0.0, 1.0, 1.0), 0.0),
    "VIII": ((-1.0, 1.0, 1.0), 0.0),
    "IX": ((1.0, 1.0, 1.0), 0.0),
    "III": ((0.0, 1.0, -1.0), 1.0),
    "IV": ((0.0, 0.0, 1.0), 1.0),
    "V": ((0.0, 0.0, 0.0), 1.0),
    "VIh": ((0.0, 1.0, -1.0), 0.5),
    "VIIh": ((0.0, 1.5, 1.0), 0.7),
}


def bianchi_frames(scale, seed):
    """(name, geometry) of each Bianchi type at max|c| = scale: its Milnor frame and a random rotation."""
    rng = np.random.default_rng(seed)
    out = []
    for name, (n, a) in BIANCHI_TYPES.items():
        N, c = from_bianchi(n, (a, 0.0, 0.0))
        assert geometry._jacobi_defect(N) == 0.0
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for frame in (c, np.einsum("ia,jb,abc,kc->ijk", R, R, c, R)):
            big = np.max(np.abs(frame))
            if big:
                frame = frame / big * scale
            out.append((name, validate_geometry(frame, (0.0, 0.0, 0.0))))
    return out


def test_expm_is_rodrigues_on_skew_matrices():
    # on the round sphere ad_X = lambda [X]x is skew, so the closing arc is
    # Y rotated about X by lambda |X| (Rodrigues), and on the abelian algebra
    # it is Y exactly
    rng = np.random.default_rng(26)
    for lam in (2.0, -3.0):
        g = milnor_geometry((lam, lam, lam))
        for angle in (0.0, 1e-9, 0.3, 2.0, np.pi, 12.0):
            axis = rng.standard_normal(3)
            X = angle / abs(lam) * axis / np.linalg.norm(axis)
            Y = rng.standard_normal(3)
            Z = closing_arc(g, WeightedDensity(0.0), np.array([[X, Y]]))[0]
            want = rotation(np.sign(lam) * axis, angle) @ Y
            assert np.max(np.abs(Z - want)) < 1e-14 * max(1.0, angle) * np.max(np.abs(Y))
    legs = rng.standard_normal((4, 2, 3))
    assert np.array_equal(closing_arc(milnor_geometry((0.0, 0.0, 0.0)), WeightedDensity(0.0), legs), legs[:, 1])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (0, 2)])
def test_expm_of_a_non_finite_matrix_is_non_finite(bad, entry):
    # entry (leg, component) of one row's legs is not finite: a non-finite X
    # is a non-finite ad_X, a non-finite Y a non-finite vector. On every
    # Bianchi type that row's closing arc is NaN, silently, and the other
    # rows keep their bits
    for _, g in bianchi_frames(1.0, 28):
        beta = WeightedDensity(0.0)
        legs = _loop_legs(g, beta, np.random.default_rng(28), 3)
        want = closing_arc(g, beta, legs)
        legs[(0, *entry)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = closing_arc(g, beta, legs)
        assert np.all(np.isnan(Z[0]))
        assert Z[1:].tobytes() == want[1:].tobytes()


def milnor_constants(lam):
    """A writable copy of the structure constants c^k_ij = lam_k eps_ijk of a Milnor frame."""
    return milnor_geometry(lam).structure_constants.copy()


def semidirect_constants(M):
    """[e1, e_j] = sum_k M[k - 1, j - 1] e_k and [e2, e3] = 0: Jacobi holds for any 2x2 M."""
    c = np.zeros((3, 3, 3))
    c[0, 1:, 1:] = np.transpose(M)
    c[1:, 0, 1:] = -np.transpose(M)
    return c


def ad_matrices(g, legs):
    """Ad_exp(X) (N, 3, 3) as its action on the unit vectors, by closing_arc: column j is Z(X, e_j)."""
    X = np.repeat(legs[:, :1], 3, axis=0)
    Y = np.tile(np.eye(3), (len(legs), 1))[:, None]
    return closing_arc(g, WeightedDensity(0.0), np.concatenate([X, Y], axis=1)).reshape(-1, 3, 3).swapaxes(1, 2)


def test_expm_on_non_unimodular_ad_matrices():
    # tr ad_X = X_1 tr M is not 0, so det Ad_exp(X) = exp(tr ad_X) is not 1;
    # M = Id is Bianchi V, and a batch mixes norms 1e-3 to 3. Ad_exp(-X) is
    # the inverse of Ad_exp(X)
    rng = np.random.default_rng(27)
    X = rng.standard_normal((40, 3))
    X *= (np.logspace(-3, 0.5, 40) / np.linalg.norm(X, axis=1))[:, None]
    legs = np.stack([X, np.zeros_like(X)], axis=1)
    for M in (np.eye(2), np.array([[1.0, -2.0], [0.5, 0.3]])):
        c = semidirect_constants(M)
        g = validate_geometry(c, (0.0, 0.0, 0.0))
        assert geometry._jacobi_defect(g.N) == 0.0
        Ad = ad_matrices(g, legs)
        assert np.max(np.abs(Ad @ ad_matrices(g, -legs) - np.eye(3))) < 1e-13
        det = np.exp(np.trace(np.einsum("ni,ijk->nkj", X, c), axis1=-2, axis2=-1))
        assert np.max(np.abs(np.linalg.det(Ad) / det - 1.0)) < 1e-13
        assert np.max(np.abs(det - 1.0)) > 1.0


def taylor_expm(A):
    """The degree-16 Taylor series of A / 2^s term by term, squared s times: the oracle for exp(ad_X).

    s is the smallest count that brings the largest row-sum norm of the
    batch to 1/2 or below. Returns the result and s.
    """
    A = np.asarray(A, dtype=float)
    sums = np.sum(np.abs(A), axis=-1)
    norm = float(np.max(sums, initial=0.0, where=np.isfinite(sums)))
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    X = np.ldexp(A, -s)
    term = out = np.broadcast_to(np.eye(A.shape[-1]), A.shape)
    for k in range(1, 17):
        term = term @ X / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out, s


def taylor_closing_arcs(g, legs):
    """Z = taylor_expm(ad_X) Y (N, 3), one loop at a time, with (ad_X)[k, j] = sum_i X_i c[i, j, k]."""
    ad = np.einsum("ni,ijk->nkj", legs[:, 0], g.structure_constants)
    return np.stack([taylor_expm(a)[0] @ y for a, y in zip(ad, legs[:, 1])])


def test_expm_matches_the_term_by_term_taylor_series():
    # the closed form against the Taylor oracle on all eleven Bianchi types,
    # in their Milnor frames and in rotated ones, at gauge scales from 1e-300
    # to the float maximum: the legs are drawn as killing draws them, so
    # ad_X has norm of order 1 at every scale (the error reads up to 5.6e-15)
    for scale in (1e-300, 1e-150, 1e-5, 1.0, 3e4, 1e150, 1e300, 1.7e308):
        for name, g in bianchi_frames(scale, 42):
            beta = WeightedDensity(0.0)
            legs = _loop_legs(g, beta, np.random.default_rng(42), 40)
            Z = closing_arc(g, beta, legs)
            want = taylor_closing_arcs(g, legs)
            err = np.max(np.abs(Z - want), axis=1) / np.max(np.abs(legs[:, 1]), axis=1)
            assert np.max(err) <= 1e-14, (scale, name)


def test_expm_of_huge_finite_matrices_does_not_raise():
    # structure constants near the float maximum: legs of natural length
    # close finitely, and legs of length 1 make ad_X overflow, which gives
    # NaN rows, silently
    for name, g in bianchi_frames(1.7e308, 29):
        beta = WeightedDensity(0.0)
        legs = _loop_legs(g, beta, np.random.default_rng(29), 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = closing_arc(g, beta, legs)
            huge = closing_arc(g, beta, np.ones((2, 2, 3)))
        assert np.all(np.isfinite(Z)), name
        if name != "I":
            assert not np.any(np.isfinite(huge)), name


def test_expm_of_a_row_whose_sum_overflows_warns_nothing():
    # legs whose squares and products overflow: the row is NaN, with no
    # warning, and the finite row beside it keeps its bits
    for _, g in bianchi_frames(1.0, 30):
        beta = WeightedDensity(0.0)
        legs = np.array([[(1e308, 1e308, -1e308), (1e308, 1e308, 1e308)], [(0.3, -0.2, 0.1), (0.5, 0.4, -0.6)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = closing_arc(g, beta, legs)
        assert not np.all(np.isfinite(Z[0]))
        assert Z[1].tobytes() == closing_arc(g, beta, legs[1:])[0].tobytes()


def test_closing_arc_rows_do_not_depend_on_the_batch():
    # every operation is elementwise, so row k of a batch of 255 is bitwise
    # the row computed alone, on every Bianchi type at every scale, with a
    # NaN row in the batch
    for scale in (1e-300, 1.0, 1e300):
        for name, g in bianchi_frames(scale, 31):
            beta = WeightedDensity(0.0)
            legs = _loop_legs(g, beta, np.random.default_rng(31), 255)
            legs[7, 0, 1] = np.nan
            Z = closing_arc(g, beta, legs)
            for k in (0, 1, 7, 100, 254):
                assert closing_arc(g, beta, legs[k : k + 1]).tobytes() == Z[k : k + 1].tobytes(), name


@pytest.mark.parametrize("delta", [1e-12, 1e-11, 3e-11])
def test_closing_arc_moves_no_more_than_the_jacobi_defect(delta):
    # the closed form uses n a = 0; structure constants that break it by a
    # defect validate_geometry accepts move Z from the Taylor oracle by no
    # more than that defect (relative to max|c|^2), in rotated class B frames
    rng = np.random.default_rng(32)
    for n, a in ((0.0, 0.0, 0.0), 1.0), ((0.0, 1.0, -1.0), 0.5), ((0.0, 1.5, 1.0), 0.7), ((0.0, 0.0, 1.0), 1.0):
        _, c = from_bianchi((n[0] + delta, n[1], n[2]), (a, 0.0, 0.0))
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        g = validate_geometry(np.einsum("ia,jb,abc,kc->ijk", R, R, c, R), (0.0, 0.0, 0.0))
        scale = np.max(np.abs(g.N))
        defect = geometry._jacobi_defect(g.N) / scale**2
        assert delta / 2 < defect <= 1e-10
        beta = WeightedDensity(0.0)
        legs = _loop_legs(g, beta, rng, 100)
        err = np.max(np.abs(closing_arc(g, beta, legs) - taylor_closing_arcs(g, legs)), axis=1)
        assert np.max(err / np.linalg.norm(legs[:, 1], axis=1)) <= defect


def test_loops_close_on_a_non_unimodular_algebra():
    # Bianchi VII_h, M = [[1, 1], [-1, 1]], with theta = (1, 0, 0) is a flat
    # Weyl structure whose Killing connection does not vanish (unlike Bianchi
    # V's); flat, it represents the algebra in an abelian subalgebra of su(2)
    g = validate_geometry(semidirect_constants([[1.0, 1.0], [-1.0, 1.0]]), (1.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    assert analyze(g, beta).verdict and flatness(g, beta) == 0.0
    assert np.max(np.abs(killing_connection(g, beta))) > 0.1
    loops = loop_paths(loop_batch(g, beta, np.random.default_rng(28), 200))
    assert np.max(loop_holonomy(transported(g, beta, loops))) < 1e-13
    # negative control: open loops, the last arc lengthened by 1 %
    loops[:, 3] *= 1.01
    assert np.max(loop_holonomy(transported(g, beta, loops))) > 1e-4


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
    loops = loop_paths(loop_batch(g, WeightedDensity(0.0), rng, 5))
    assert np.max(closure_defect(g, loops)) < 1e-12
    # the round Gauduchon-Tod member, |beta| = lambda / 4, in the same frame
    g = rotated_geometry(milnor_geometry((sign * lam[0],) * 3), R)
    beta = WeightedDensity(beta_sign * lam[0] / 4.0)
    batch = loop_batch(g, beta, rng, 5)
    assert np.max(loop_holonomy(batch)) < 1e-12
    assert path_independence_residual(batch) < 1e-12


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
    dev = loop_holonomy(loop_batch(g, beta, rng, 5))
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
    batch = loop_batch(g, beta, rng, 20)
    assert np.max(loop_holonomy(batch)) < 1e-12
    assert path_independence_residual(batch) < 1e-12


def test_empty_loop_is_trivial():
    # a loop of four zero arcs: every step is the identity quaternion, so
    # the holonomy is Id exactly
    batch = transported(ROUND, HALF, np.zeros((1, 4, 3)))
    assert np.array_equal(holonomies(batch), np.eye(2)[None])
    assert np.array_equal(loop_holonomy(batch), [0.0])


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
            batch = loop_batch(g, beta, rng, n)
            loops = loop_paths(batch)
            H, dev = holonomies(batch), loop_holonomy(batch)
            assert H.shape == (n, 2, 2) and dev.shape == (n,)
            assert np.max(np.abs(H - sample_transports(g, beta, loops))) < 1e-13
            # hypot of the quaternion entries, and the modulus of the matrix entries
            np.testing.assert_allclose(dev, np.max(np.abs(H - np.eye(2)), axis=(-2, -1)), rtol=4e-16, atol=0)
            legs = matrix_path_transports(g, beta, batch.legs)
            assert np.max(np.abs(legs - sample_transports(g, beta, batch.legs))) < 1e-13


def test_quaternion_holonomies_match_the_matrix_product():
    # the loops' holonomies and both halves of each loop, the path X, Y, -X
    # and the arc Z, composed on unit quaternions, against the per-arc product
    # of complex 2x2 matrices
    for g, beta in batch_cases():
        for loops in LOOP_COUNTS:
            batch = loop_batch(g, beta, np.random.default_rng(34), loops)
            assert batch.first.shape == batch.second.shape == (4, loops)
            first, second = matrix_halves(g, beta, batch)
            assert np.max(np.abs(quaternion_matrices(batch.first.T) - first)) <= 1e-15
            assert np.max(np.abs(quaternion_matrices(batch.second.T) - second)) <= 1e-15
            assert np.max(np.abs(holonomies(batch) - matrix_path_transports(g, beta, loop_paths(batch)))) <= 1e-15


def test_holonomy_trivial_on_round_sphere():
    rng = np.random.default_rng(7)
    dev = loop_holonomy(loop_batch(ROUND, HALF, rng, 50))
    assert np.max(dev) < 1e-9


def test_holonomy_negative_control():
    rng = np.random.default_rng(8)
    beta = WeightedDensity(0.3)  # not GT, curvature residual 0.32
    dev = loop_holonomy(loop_batch(ROUND, beta, rng, 1))
    assert dev[0] > 1e-3


def test_path_independence_iff_flatness():
    rng = np.random.default_rng(9)
    flat_res = killing_curvature(ROUND, HALF).residual
    assert flat_res < 1e-10
    assert path_independence_residual(loop_batch(ROUND, HALF, rng, 8)) < 1e-8
    beta = WeightedDensity(0.3)
    assert killing_curvature(ROUND, beta).residual > 1e-10
    assert path_independence_residual(loop_batch(ROUND, beta, rng, 8)) > 1e-8


# the loop batch ---------------------------------------------------------------


def matrix_halves(g, beta, batch):
    """The oracle: the transports (N, 2, 2) along both halves of the batch's loops, the path X, Y, -X
    and the arc Z, each by the per-arc product of complex 2x2 matrices."""
    X, Y = batch.legs[:, 0], batch.legs[:, 1]
    first = matrix_path_transports(g, beta, np.stack([X, Y, -X], axis=1))
    return first, matrix_path_transports(g, beta, batch.closing[:, None])


def batch_cases():
    """Certified (g, beta): round, Berger, flat R^3, flat Bianchi V, a rotated Berger
    frame, a negative Milnor frame and the round member at scale 200."""
    return single_arc_cases() + [
        (milnor_geometry((-3.0, -3.0, -3.0)), WeightedDensity(-0.75)),
        (milnor_geometry((200.0, 200.0, 200.0)), WeightedDensity(50.0)),
    ]


LOOP_COUNTS = [1, 5, 7, 20, 50]


class RecordingGenerator:
    """A numpy Generator that records each draw's method name and size."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            self.draws.append((name, args[-1] if args else kwargs["size"]))
            return method(*args, **kwargs)

        return draw


def test_loop_batch_draws_one_direction_and_one_length_per_leg():
    # one standard_normal draw of the directions and one uniform draw of the
    # lengths, in that order: the legs are the unit directions times lengths
    # 0.4-1.2 / scale, and the closing arcs are bitwise closing_arc's
    for g, beta in batch_cases():
        scale = residual_scale(g, beta)
        for loops in LOOP_COUNTS:
            rng = RecordingGenerator(30)
            batch = loop_batch(g, beta, rng, loops)
            assert rng.draws == [("standard_normal", (loops, 2, 3)), ("uniform", (loops, 2))]
            want = np.random.default_rng(30)
            d, t = want.standard_normal((loops, 2, 3)), want.uniform(0.4, 1.2, (loops, 2))
            assert batch.legs.shape == (loops, 2, 3) and batch.closing.shape == (loops, 3)
            np.testing.assert_allclose(batch.legs * scale, d / np.linalg.norm(d, axis=-1, keepdims=True) * t[..., None], rtol=1e-15)
            assert np.ascontiguousarray(batch.closing).tobytes() == closing_arc(g, beta, batch.legs).tobytes()


@pytest.mark.parametrize("loops", [0, -1])
def test_loop_batch_refuses_fewer_than_one_loop(loops):
    # an empty batch has no worst loop to report: it is refused by name, like
    # the command line's --loops below 1, and draws nothing
    g, beta = milnor_geometry((2.0, 2.0, 2.0)), WeightedDensity(0.5)
    rng = RecordingGenerator(30)
    with pytest.raises(ShapeError, match="at least 1 loop"):
        loop_batch(g, beta, rng, loops)
    assert rng.draws == []


def test_loop_batch_sections_match_the_separate_calls():
    # the sections against the per-arc matrix products of each loop's halves,
    # each arc a separate su2_exp: the holonomy max|H - Id| with H the product
    # around the loop, and path independence max|U_1 - U_2| over the halves
    for g, beta in batch_cases():
        for loops in LOOP_COUNTS:
            batch = loop_batch(g, beta, np.random.default_rng(31), loops)
            deviation = np.max(np.abs(matrix_path_transports(g, beta, loop_paths(batch)) - np.eye(2)), axis=(-2, -1))
            first, second = matrix_halves(g, beta, batch)
            dev = loop_holonomy(batch)
            assert dev.shape == (loops,)
            assert np.max(np.abs(dev - deviation)) <= 1e-15
            independence = float(np.max(np.abs(first - second)))
            assert abs(path_independence_residual(batch) - independence) <= 1e-15


def test_zero_arcs_pad_a_path_bitwise():
    # a zero arc is the identity quaternion exactly, and a Hamilton product
    # with it multiplies by 0 and 1 and adds zeros, so padding a path with
    # zero arcs moves no bit of its transport
    rng = np.random.default_rng(32)
    for g, beta in batch_cases():
        zero = _su2_quaternion(-killing_data(g, beta).b.T @ np.zeros((3, 20)))
        assert np.array_equal(zero, np.broadcast_to([[1.0], [0.0], [0.0], [0.0]], (4, 20)))
        q = _su2_quaternion(rng.standard_normal((3, 20)) / residual_scale(g, beta))
        assert _hamilton(zero, q).tobytes() == q.tobytes()
        assert _hamilton(q, zero).tobytes() == q.tobytes()
        for k in (0, 1, 2, 3):
            paths = rng.standard_normal((20, k, 3)) / residual_scale(g, beta)
            want = quaternion_fold(g, beta, paths)
            for pad in range(1, 5 - k):
                padded = np.concatenate([paths, np.zeros((20, pad, 3))], axis=1)
                assert quaternion_fold(g, beta, padded).tobytes() == want.tobytes()


def test_path_independence_of_the_batch_trips_off_the_gauduchon_tod_family():
    # the negative control at killing's own sizes: beta off by 2 % on a
    # certified round member gives transports that depend on the path
    for lam in (2.0, 200.0):
        g = milnor_geometry((lam, lam, lam))
        for beta, certified in ((lam / 4.0, True), (1.02 * lam / 4.0, False)):
            batch = loop_batch(g, WeightedDensity(beta), np.random.default_rng(33), 20)
            indep = path_independence_residual(batch)
            worst = float(np.max(loop_holonomy(batch)))
            assert (indep < 1e-8, worst < 1e-8) == (certified, certified)


def test_path_independence_of_the_halves_trips_off_the_flat_geometries():
    # the negative control with the gate bypassed: the halves of killing's own
    # loops disagree far above the 1e-9 bound on every non-flat geometry (round
    # with beta = 0.51, perturbed.json, Nil and Bianchi V with theta = 0), and
    # agree to rounding on every shipped flat file; a residual that compared a
    # half with itself would read 0 on all of them
    non_flat = [
        (ROUND, WeightedDensity(0.51)),
        parse_geometry_file(os.path.join(os.path.dirname(BERGER_PATH), "perturbed.json")),
        (milnor_geometry((1.0, 0.0, 0.0)), WeightedDensity(0.0)),
        (validate_geometry(semidirect_constants(np.eye(2)), (0.0, 0.0, 0.0)), WeightedDensity(0.0)),
    ]
    for loops in (1, 20, 50):
        for g, beta in non_flat:
            assert flatness(g, beta) > 1e-3
            assert path_independence_residual(loop_batch(g, beta, np.random.default_rng(35), loops)) > 1e-9
        for g, beta in single_arc_cases()[:4]:
            assert path_independence_residual(loop_batch(g, beta, np.random.default_rng(35), loops)) < 1e-12


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
    samples = [leg[:k] for leg in loop_batch(ROUND, HALF, rng, 20).legs for k in (1, 2)]
    assert min_singular_value(sample_transports(ROUND, HALF, samples)) > 0.1


def test_sections_are_the_transported_base_spinors():
    # BASE_SPINORS are (1, 0) and (0, -1), so _sections gathers U[:, 0] and
    # -U[:, 1]; the values are those of the products, up to the sign of a zero
    assert np.array_equal(BASE_SPINORS, [[1.0, 0.0], [0.0, -1.0]])
    rng = np.random.default_rng(35)
    U = rng.standard_normal((12, 2, 2)) + 1j * rng.standard_normal((12, 2, 2))
    U[3] = np.nan
    want = np.stack([U @ psi for psi in BASE_SPINORS], axis=1)
    assert np.array_equal(killing._sections(U), want, equal_nan=True)


def test_flat_abelian_basis_and_residual():
    g = milnor_geometry((0.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    rng = np.random.default_rng(12)
    samples = [rng.uniform(-1, 1, (1, 3)) for _ in range(5)]
    assert killing_residual(g, beta, sample_transports(g, beta, samples), h=0.05) < 1e-13


def test_killing_residual_second_order():
    rng = np.random.default_rng(13)
    samples = [leg[:k] for leg in loop_batch(ROUND, HALF, rng, 10).legs for k in (1, 2)]
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
        U = transport_operator(g, beta, GroupArc(v)) @ U
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
    # in units of s = residual_scale, as killing_residual takes it: exponents
    # -+h b / s, a quotient by 2h, and (B / s) psi, B_i = sum_k b[i, k] q_k
    # with the b that killing reads
    s = residual_scale(g, beta)
    b = killing_data(g, beta).b
    B = np.einsum("ik,kab->iab", b / s, Q)
    plus = [su2_exp(-h * (b[i] / s)) for i in range(3)]
    minus = [su2_exp(h * (b[i] / s)) for i in range(3)]
    worst = 0.0
    for path in samples:
        U = per_sample_transport(g, beta, path)
        for psi0 in BASE_SPINORS:
            psi = U @ psi0
            for i in range(3):
                fd = (plus[i] @ psi - minus[i] @ psi) / (2.0 * h)
                defect = fd + B[i] @ psi
                worst = max(worst, float(np.max(np.abs(defect))) / float(np.max(np.abs(psi))))
    return worst


def stepped_killing_residual(g, beta, samples, h):
    # the same defect with the difference taken over the step h / s itself:
    # exponents -+(h / s) b, a quotient by 2 h / s, the defect over s ||psi||
    s = residual_scale(g, beta)
    step = h / s
    b = killing_data(g, beta).b
    B = np.einsum("ik,kab->iab", b, Q)
    plus = [su2_exp(-step * b[i]) for i in range(3)]
    minus = [su2_exp(step * b[i]) for i in range(3)]
    worst = 0.0
    for path in samples:
        U = per_sample_transport(g, beta, path)
        for psi0 in BASE_SPINORS:
            psi = U @ psi0
            for i in range(3):
                fd = (plus[i] @ psi - minus[i] @ psi) / (2.0 * step)
                defect = fd + B[i] @ psi
                worst = max(worst, float(np.max(np.abs(defect))) / (s * float(np.max(np.abs(psi)))))
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
        samples = [leg[:k] for leg in loop_batch(g, beta, rng, 8).legs for k in (1, 2)]
        transports = sample_transports(g, beta, samples)
        assert transports.shape == (16, 2, 2)
        sv = min_singular_value(transports)
        assert abs(sv - per_sample_min_singular_value(g, beta, samples)) < 1e-15
        for h in (1e-3, 1e-2):
            got = killing_residual(g, beta, transports, h=h)
            want = per_sample_killing_residual(g, beta, samples, h)
            assert abs(got - want) <= 1e-9 * want
            # an independent expression of the same defect rounds differently:
            # up to 5.7e-9 relative at h = 1e-3 over 20 draws of these cases
            stepped = stepped_killing_residual(g, beta, samples, h)
            assert abs(got - stepped) <= 1e-7 * stepped


def svd_min_singular_value(transports):
    """The oracle: min over the stack of the SVD's smallest singular value of the normalized sections."""
    v = np.stack([transports @ psi for psi in BASE_SPINORS], axis=-1)  # (N, 2, 2): columns the sections
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    return float(np.min(np.linalg.svd(v, compute_uv=False)[:, -1]))


def test_gram_min_singular_value_matches_the_svd():
    # transports of certified geometries, whose sections are orthonormal, and
    # random complex 2x2 matrices down to nearly parallel columns
    rng = np.random.default_rng(37)
    for g, beta in sample_cases():
        samples = [leg[:k] for leg in loop_batch(g, beta, rng, 10).legs for k in (1, 2)]
        transports = sample_transports(g, beta, samples)
        assert abs(min_singular_value(transports) - svd_min_singular_value(transports)) <= 1e-15
    for tilt in (1.0, 1e-2, 1e-5, 1e-8):
        M = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
        M[:, :, 1] = M[:, :, 0] * (0.3 - 0.7j) + tilt * M[:, :, 1]
        for k in range(len(M)):
            assert abs(min_singular_value(M[k : k + 1]) - svd_min_singular_value(M[k : k + 1])) <= 1e-15


def test_parallel_sections_fail_the_min_singular_value_bound():
    # the second section a multiple of the first: the pair spans one line,
    # min_singular_value reads 0 to rounding and fails killing's bound of 0.1
    rng = np.random.default_rng(38)
    M = rng.standard_normal((20, 2, 2)) + 1j * rng.standard_normal((20, 2, 2))
    M[:, :, 1] = M[:, :, 0] * (2.0 - 1.5j)
    sv = min_singular_value(M)
    assert 0.0 <= sv <= 1e-15 and not sv > 0.1
    M[5, :, 1] = [1e-9, 0.0]  # one sample nearly so, among independent ones
    assert abs(min_singular_value(M[4:7]) - svd_min_singular_value(M[4:7])) <= 1e-15


def test_killing_data_is_built_once_and_read_only():
    rng = np.random.default_rng(2)
    lam, theta = rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)
    g, beta = milnor_geometry(lam, theta), WeightedDensity(0.4)
    data = killing_data(g, beta)
    assert killing_data(g, beta) is data
    for array in (data.b, data.steps):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert data.columns == tuple(zip(*data.b.tolist()))
    assert np.array_equal(data.steps, data.b / residual_scale(g, beta))
    # the cache is keyed on the geometry object: equal data is built anew
    again = killing_data(milnor_geometry(lam, theta), beta)
    assert again is not data and np.array_equal(again.b, data.b)


COFACTOR = geometry.cofactor  # the mutants below replace geometry.cofactor and read this one


def negated_cofactor(M):
    """A mutant geometry.cofactor: rows M[i+2] x M[i+1], the negative of each cofactor."""
    return [[-v for v in row] for row in COFACTOR(M)]


def transposed_cofactor(M):
    """A mutant geometry.cofactor: the adjugate cof(M)^T in its place, equal to it for symmetric M."""
    return [list(col) for col in zip(*COFACTOR(M))]


@pytest.mark.parametrize("mutant", [negated_cofactor, transposed_cofactor])
def test_a_mutant_cofactor_fails_the_chain_and_taylor_checks(monkeypatch, mutant):
    # flatness reads 2 cof(b), which either mutant breaks against the chain;
    # closing_arc reads adj(n) = cof(n) of a symmetric n, where only the
    # negated cofactor differs, and the Taylor oracle catches it
    monkeypatch.setattr(geometry, "cofactor", mutant)
    monkeypatch.setattr(killing, "cofactor", mutant)
    killing_data.cache_clear()
    with pytest.raises(AssertionError):
        test_spinconn.test_flatness_matches_the_chain_on_random_coordinates()
    if mutant is negated_cofactor:
        with pytest.raises(AssertionError):
            test_expm_matches_the_term_by_term_taylor_series()
    else:
        test_expm_matches_the_term_by_term_taylor_series()
    monkeypatch.undo()
    killing_data.cache_clear()


def test_killing_data_holds_the_bianchi_split():
    # n + [a]x is the prescaled N, n symmetric with adj(n) its adjugate, and
    # u, v its rows next and last, in rotated frames of every Bianchi type
    for _, g in bianchi_frames(3.0, 39):
        beta = WeightedDensity(0.25)
        data = killing_data(g, beta)
        N = np.ldexp(np.reshape(geometry.form_coordinates(g, beta)[:9], (3, 3)), -data.e)
        n = 0.5 * N + 0.5 * N.T
        assert np.max(np.abs(n + cross_matrix(data.a[:, 0]) - N)) <= np.finfo(float).eps
        assert np.max(np.abs(data.adj[..., 0] - np.cross(n[[1, 2, 0]], n[[2, 0, 1]]))) <= np.finfo(float).eps
        assert np.array_equal(data.u[..., 0], n[[1, 2, 0]].T) and np.array_equal(data.v[..., 0], n[[2, 0, 1]].T)


def test_batched_sample_sections_fail_on_a_non_finite_transport():
    legs = loop_batch(ROUND, HALF, np.random.default_rng(25), 4).legs
    transports = sample_transports(ROUND, HALF, legs)
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


# sha256 of Q (13, 5, 5), C order, as v0.28.0 built it from the chain's form, with
# its 15 zeros of negative sign made positive
FAMILY_FORM_V0_28_0 = "3ed75ab74a7b3944a066253d732d642585e5a064c79b79f77ac22c36b101f720"


def test_family_quadratic_form_is_the_chains_polarization():
    # N = diag(l1, l2, l3) and theta = (0, 0, theta3) among the 13 coordinates:
    # the form read off the Killing curvature is the tensor chain's, polarized
    # on the family and rounded, and v0.28.0's table bit for bit, with no -0.0
    Q = _family_quadratic_form()
    chain = test_spinconn.chain_polarization(lambda x: gt_residual_vector(*milnor_theta3_family(x)), 5)
    assert np.max(np.abs(chain - np.rint(chain))) <= 1e-12
    assert np.array_equal(Q, np.rint(chain) / 24.0)
    assert hashlib.sha256(Q.tobytes()).hexdigest() == FAMILY_FORM_V0_28_0
    assert not np.signbit(Q[Q == 0.0]).any()
    assert np.array_equal(_family_quadratic_form.__wrapped__(), Q)  # a fresh build, same table
    idx = [0, 4, 8, 11, 12]
    x = np.array([2.0, 1.5, 1.0, 0.3, 0.4])
    g, beta = milnor_theta3_family(x)
    assert np.array_equal(np.take(geometry.form_coordinates(g, beta), idx), x)


def test_family_quadratic_form_refuses_residuals_off_by_rounding(monkeypatch):
    # residuals off by 1e-6 leave 24 Q up to 2.4e-5 from integers, which the build refuses
    formula = killing.gt_coefficients  # the form is polarized from it
    monkeypatch.setattr(killing, "gt_coefficients", lambda x: [v + 1e-6 for v in formula(x)])
    with pytest.raises(RuntimeError, match="from integers"):
        _family_quadratic_form.__wrapped__()


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


def test_array_module_records_are_immutable():
    # every record is a named tuple: fields cannot be assigned or deleted, and
    # nothing else can be attached
    from weylspin.identities import make_report

    g, beta = milnor_geometry((2.0, 2.0, 2.0)), HALF
    records = [
        GroupArc((0.0, 3.0, 4.0)),
        loop_batch(g, beta, np.random.default_rng(0), 2),
        find_gt_parameters((2.0, 2.0, 2.0, 0.0, 0.5)),
        killing_curvature(g, beta),
        make_report("kn_contraction", 0.0, 10, 1e-12),
        killing_data(g, beta),
    ]
    for record in records:
        for name in (*record._fields, "length", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert records[0] == GroupArc([0, 3, 4]) and records[0].length == 5.0
    assert records[4].worst_trial is None and records[4].passed


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
    # a pin is a PIN_INDEX name: value None keeps x0's entry, and the index
    # of the same coordinate is refused as an unknown pin
    res = find_gt_parameters((2.0, 2.1, 1.95, 0.01, 0.45), pin=("beta", None))
    assert res.params[4] == 0.45
    assert res.residual_norm < 1e-10
    with pytest.raises(ShapeError, match="unknown pin 4"):
        find_gt_parameters((2.0, 2.1, 1.95, 0.01, 0.45), pin=(4, None))


@pytest.mark.parametrize("pin", [(-1, 0.4), (-6, 2.0), (5, None), (7, None)])
def test_search_rejects_a_pin_index_out_of_range(pin):
    # no index is a pin: x[-1] = 0.4 would set beta and then leave all five
    # coordinates free, and an index past the end would pin nothing
    with pytest.raises(ShapeError, match="unknown pin"):
        find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=pin)


@pytest.mark.parametrize("name", [1.5, True, np.True_, "lambda4", "1", None, (1,)])
def test_search_rejects_a_pin_that_names_no_coordinate(name):
    # 1.5 and True would pin lambda2 by truncation, "lambda4" was a KeyError
    with pytest.raises(ShapeError, match="unknown pin"):
        find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=(name, None))


def test_search_pin_by_numpy_integer():
    # np.int64(4) is an index, not a name, and is refused like 4
    with pytest.raises(ShapeError, match="unknown pin"):
        find_gt_parameters((2.0, 2.1, 1.95, 0.01, 0.45), pin=(np.int64(4), None))


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


def analyze_at(params):
    """analyze's GTReport at milnor_theta3_family(params) and the largest of its three blocks."""
    report = analyze(*milnor_theta3_family(params))
    return report, max(report.n_ew, report.n_scal, report.n_star)


def test_search_reports_the_formula_residual_at_its_root():
    # residual_norm and the report are analyze's at the root, normalized by its scale
    res = find_gt_parameters((2.0, 2.0, 1.8, 0.3, 0.4), pin=("lambda1", 2.0))
    assert (res.report, res.residual_norm) == analyze_at(res.params)
    assert res.residual_norm < 1e-10


def test_search_runs_at_the_starts_own_scale():
    # a start scaled by a power of two takes the same steps: the same iterations,
    # residual_norm and report, and its root scaled bit for bit, from 2^-600 to 2^600,
    # where the raw quadratic residuals would underflow or overflow
    x0 = (2.2, 1.9, 2.1, 0.05, 0.4)
    base = find_gt_parameters(x0)
    assert base.iterations > 1 and base.report.verdict
    for k in (3, -3, 40, -40, 600, -600):
        res = find_gt_parameters(np.ldexp(x0, k))
        assert res.params == tuple(np.ldexp(base.params, k).tolist()), k
        assert (res.iterations, res.residual_norm, res.report) == (base.iterations, base.residual_norm, base.report)


def test_search_stops_on_the_residual_over_the_iterates_scale():
    # rho is the form's max-norm at the start over max|x0|^2: a tolerance 1 % above
    # it stops at once and one 1 % below takes a step, at every scale of the start
    x0 = np.array([2.2, 1.9, 2.1, 0.05, 0.4])
    Q = _family_quadratic_form()
    rho = float(np.max(np.abs((Q @ x0) @ x0))) / 2.2**2
    for k in (0, -30, 30):
        assert find_gt_parameters(np.ldexp(x0, k), tolerance=1.01 * rho).iterations == 0
        assert find_gt_parameters(np.ldexp(x0, k), tolerance=0.99 * rho).iterations > 0


def test_search_from_the_zero_start_converges_at_once():
    # all residuals of the zero start are 0, and its scale is 1, not 0
    res = find_gt_parameters((0.0, 0.0, 0.0, 0.0, 0.0))
    assert (res.params, res.iterations, res.residual_norm) == ((0.0,) * 5, 0, 0.0)
    assert res.report.verdict


def test_search_does_not_stall_near_a_root_curve():
    # with lambda1 pinned the roots form curves, where the Jacobian loses rank; a
    # step along its singular value of rounding size (about 1e-13) is rounding
    # noise, which stalled this start at a residual of 1.4e-10 for 34 iterations
    # at v0.20.0
    x0 = (
        2.2152371286252337,
        2.2143537050807494,
        1.8103098408797222,
        -0.21091668257124746,
        0.6967465298606332,
    )
    assert find_gt_parameters(x0).iterations <= 5


def test_search_evaluates_the_formula_only_at_its_root(monkeypatch):
    # the search iterates on the form and confirms its root with one analyze call;
    # it runs no tensor chain
    _family_quadratic_form()
    calls = []
    count = lambda name, fn: lambda *args: calls.append(name) or fn(*args)
    monkeypatch.setattr(killing, "analyze", count("analyze", analyze))
    monkeypatch.setattr(geometry, "curvature_package", count("chain", geometry.curvature_package))
    connection = count("chain", geometry.weyl_connection)
    for module in (geometry, spinconn):
        monkeypatch.setattr(module, "weyl_connection", connection)
    res = find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0))
    assert res.iterations > 1
    assert calls == ["analyze"]


def test_search_root_of_a_wrong_form_raises_no_convergence(monkeypatch):
    # a form that vanishes at x, where analyze reads 0.39: the search stops at
    # once, and analyze turns its "root" down
    x = np.array([2.0, 2.0, 1.8, 0.3, 0.4])
    Q = _family_quadratic_form()
    wrong = Q - np.einsum("i,k,l->ikl", (Q @ x) @ x, x, x) / (x @ x) ** 2
    monkeypatch.setattr(killing, "_family_quadratic_form", lambda: wrong)
    with pytest.raises(NoConvergence, match="the form's root fails the formula") as info:
        find_gt_parameters(x, pin=("lambda1", 2.0))
    assert info.value.iterations == 0
    assert info.value.best_params == tuple(x)
    assert info.value.best_residual == analyze_at(x)[1]
    assert info.value.best_residual > 1e-2


def test_transport_sequence_operator_orders_left():
    # sample_transports composes a path's arcs in travel order, the last leftmost
    v1, v2 = np.random.default_rng(14).uniform(-1, 1, (2, 3))
    lhs = sample_transports(ROUND, HALF, [np.stack([v1, v2])])[0]
    rhs = transport_operator(ROUND, HALF, GroupArc(v2)) @ transport_operator(
        ROUND, HALF, GroupArc(v1)
    )
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_search_overflow_raises_no_convergence():
    # lambda1 = 1e200 would overflow the quadratic residuals, but the search runs at
    # the start's own scale: it stalls, with analyze's finite residual at its best iterate
    with pytest.raises(NoConvergence) as info:
        find_gt_parameters((1e200, 2.0, 2.0, 0.0, 0.5))
    assert info.value.best_params[0] == 1e200
    assert info.value.best_residual == analyze_at(info.value.best_params)[1]
    assert 1e-10 < info.value.best_residual < math.inf
