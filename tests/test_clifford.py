import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weylspin import geometry
from weylspin.clifford import (
    ENTRY_PAIRS,
    QUATERNION_BASIS,
    E,
    EPS,
    _PAIR_COL,
    _PAIR_UNIT,
    act,
    clifford_apply,
    clifford_images,
    clifford_pairs,
    clifford_sum,
    j_structure,
)
from weylspin.errors import ShapeError

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def test_generators_are_i_sigma():
    assert np.array_equal(E, 1j * SIGMA)


def test_generators_are_write_locked():
    with pytest.raises(ValueError):
        E[0, 0, 0] = 99.0  # the module-level table is locked


# the generators as signed swaps ----------------------------------------------

# finite, and small enough that a sum of three terms cannot overflow
FINITE = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)


@st.composite
def frame_slot_views(draw):
    """A finite complex array with 0-3 leading axes, a frame slot and a spinor
    axis, viewed with the frame slot moved to the front, as mu_contract hands
    the slot's three terms to clifford_sum. Every term is a strided view."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    base = draw(arrays(np.complex128, lead + (3, 2), elements=FINITE))
    return np.moveaxis(base, -2, 0)


@st.composite
def spinor_arrays(draw):
    """Finite complex arrays with a trailing spinor axis: one term of
    frame_slot_views, a contiguous copy of it, or a negative-stride view."""
    x = draw(frame_slot_views())[draw(st.integers(0, 2))]
    view = draw(st.sampled_from(["strided", "contiguous", "reversed"]))
    if view == "strided":
        return x
    if view == "contiguous":
        return np.ascontiguousarray(x)
    return x[(slice(None, None, -1),) * (x.ndim - 1)]


def einsum_apply(a, x):
    return np.einsum("st,...t->...s", E[a], x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), spinor_arrays())
def test_clifford_apply_equals_the_einsum(a, x):
    assert np.array_equal(clifford_apply(a, x), einsum_apply(a, x))


@settings(max_examples=40, deadline=None)
@given(frame_slot_views())
def test_clifford_sum_equals_its_einsum_form(terms):
    # the dense form clifford_sum had before the kernel, as the oracle
    dense = einsum_apply(0, terms[0])
    for a in (1, 2):
        dense += einsum_apply(a, terms[a])
    assert np.array_equal(clifford_sum(terms), dense)


@settings(max_examples=40, deadline=None)
@given(spinor_arrays())
def test_clifford_pairs_apply_two_generators(x):
    pairs = clifford_pairs(x)
    assert pairs.shape == x.shape[:-1] + (3, 3, 2) and pairs.flags.c_contiguous
    for a in range(3):
        for b in range(3):
            assert np.array_equal(pairs[..., a, b, :], clifford_apply(a, clifford_apply(b, x)))


@settings(max_examples=40, deadline=None)
@given(spinor_arrays())
def test_clifford_images_stack_the_three_generators(x):
    images = clifford_images(x)
    assert images.shape == x.shape[:-1] + (3, 2) and images.flags.c_contiguous
    assert np.array_equal(images, np.stack([clifford_apply(a, x) for a in range(3)], axis=-2))


def clifford_sum_act(v, psi, batch):
    """act as it was before clifford_images: sum_k e_k (v_k psi), by clifford_sum."""
    v = v.reshape(v.shape[:batch] + (1,) * (psi.ndim - batch) + (3,))
    return clifford_sum([v[..., k] * psi for k in range(3)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_act_equals_its_clifford_sum_form(data):
    # 0-3 batch axes and a spinor or a rank-1 spinor-valued tensor, each
    # argument a strided view
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3)))
    mid = data.draw(st.sampled_from([(), (3,)]))
    psi = data.draw(arrays(np.complex128, lead + mid + (4,), elements=FINITE))[..., ::2]
    reals = st.floats(-1e100, 1e100, allow_nan=False)
    v = data.draw(arrays(np.float64, lead + (3, 2), elements=reals))[..., 1]
    assert np.array_equal(act(v, psi, len(lead)), clifford_sum_act(v, psi, len(lead)))


def test_pair_tables_are_the_generator_products_and_write_locked():
    for a in range(3):
        for b in range(3):
            dense = np.zeros((2, 2), dtype=complex)
            dense[[0, 1], _PAIR_COL[a, b]] = _PAIR_UNIT[a, b]
            assert np.array_equal(dense, E[a] @ E[b])
    for table in (_PAIR_COL, _PAIR_UNIT):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1


@settings(max_examples=40, deadline=None)
@given(spinor_arrays())
def test_j_structure_equals_its_einsum_form(x):
    assert np.array_equal(j_structure(x), einsum_apply(1, np.conj(x)))


def test_anticommutation_exact():
    # e_i e_j + e_j e_i = -2 delta_ij Id, with zero rounding error
    for i in range(3):
        for j in range(3):
            lhs = E[i] @ E[j] + E[j] @ E[i]
            rhs = -2.0 * (i == j) * np.eye(2)
            assert np.array_equal(lhs, rhs)


def test_product_rule_dimension_three():
    # e_i e_j psi = -sum_k eps_ijk e_k psi for i != j
    rng = np.random.default_rng(11)
    for _ in range(200):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                lhs = E[i] @ (E[j] @ psi)
                rhs = -np.einsum("k,kst,t->s", EPS[i, j], E, psi)
                assert np.max(np.abs(lhs - rhs)) < 1e-14


def vector_matrix(v):
    """The 2x2 matrix of Clifford multiplication by the real frame vector v."""
    return np.einsum("k,kst->st", v, E)


def test_act_matches_matrix():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.uniform(-2, 2, 3)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = act(v, psi)
        via_matrix = vector_matrix(v) @ psi
        assert np.max(np.abs(direct - via_matrix)) < 1e-14


def test_act_squares_to_minus_norm():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.uniform(-2, 2, 3)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        twice = act(v, act(v, psi))
        assert np.max(np.abs(twice + np.dot(v, v) * psi)) < 1e-13


def test_act_elementwise_on_spinor_valued_tensor():
    rng = np.random.default_rng(7)
    v = rng.uniform(-1, 1, 3)
    T = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
    out = act(v, T)
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(out[i, j] - act(v, T[i, j]))) == 0.0


def test_act_shape_errors():
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ShapeError):
        act(np.ones(4), psi)
    with pytest.raises(ShapeError):
        act(np.ones(3), np.ones(3))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_polarized_clifford_relation(v, w):
    v = np.asarray(v)
    w = np.asarray(w)
    psi = np.array([0.3 + 0.4j, -0.8 + 0.1j])
    lhs = act(v, act(w, psi)) + act(w, act(v, psi))
    rhs = -2.0 * np.dot(v, w) * psi
    assert np.max(np.abs(lhs - rhs)) < 1e-11


# quaternionic structure ----------------------------------------------------


def test_j_squares_to_minus_one():
    rng = np.random.default_rng(8)
    for _ in range(50):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.max(np.abs(j_structure(j_structure(psi)) + psi)) < 1e-15


def test_j_antilinear():
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = 0.7 - 1.3j
    assert np.max(np.abs(j_structure(a * psi) - np.conj(a) * j_structure(psi))) < 1e-15


def test_j_commutes_with_clifford_action():
    rng = np.random.default_rng(10)
    for _ in range(100):
        v = rng.uniform(-2, 2, 3)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.max(np.abs(j_structure(act(v, psi)) - act(v, j_structure(psi)))) < 1e-14


def test_j_pairs_to_independent_spinor():
    # det of the column pair [psi, J psi] is -|psi|^2, so the pair is a basis
    # whenever psi != 0
    rng = np.random.default_rng(12)
    for _ in range(50):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d = np.linalg.det(np.stack([psi, j_structure(psi)], axis=1))
        assert abs(d + np.vdot(psi, psi)) < 1e-13


def test_j_orthogonality():
    rng = np.random.default_rng(13)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert abs(np.vdot(psi, j_structure(psi))) < 1e-14


def test_quaternion_basis_and_its_entry_pairs():
    # rows Id, q_k = -e_k with q_i q_j = eps_ijk q_k; each 2x2 entry of
    # p @ QUATERNION_BASIS holds p_i and p_j, (i, j) = ENTRY_PAIRS[k], as its
    # real and imaginary parts, so its modulus is hypot(p_i, p_j), bit for bit
    Q = QUATERNION_BASIS.reshape(4, 2, 2)
    assert np.array_equal(Q[0], np.eye(2)) and np.array_equal(Q[1:], -E)
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert np.array_equal(Q[i] @ Q[j], Q[k])
    p = np.random.default_rng(3).standard_normal((200, 4)) * 10.0 ** np.arange(-2, 2)
    M = p @ QUATERNION_BASIS
    for k, (i, j) in enumerate(ENTRY_PAIRS):
        assert np.array_equal(np.hypot(p[:, i], p[:, j]), np.hypot(M[:, k].real, M[:, k].imag))
        assert sorted(map(np.abs, (M[0, k].real, M[0, k].imag))) == sorted(np.abs(p[0, [i, j]]))


def test_entry_pairs_are_the_quaternion_basis_nonzero_pattern():
    # ENTRY_PAIRS is written as a literal in geometry, whose flatness reads it
    # with no numpy loaded; it is the nonzero pattern of QUATERNION_BASIS's
    # columns, one real and one imaginary unit per 2x2 entry
    assert ENTRY_PAIRS is geometry.ENTRY_PAIRS
    assert ENTRY_PAIRS == tuple(tuple(np.flatnonzero(column).tolist()) for column in QUATERNION_BASIS.T)
    for k, (i, j) in enumerate(ENTRY_PAIRS):
        units = QUATERNION_BASIS[[i, j], k]
        assert np.array_equal(np.abs(units), [1.0, 1.0]) and sorted(np.abs(units.real)) == [0.0, 1.0]
