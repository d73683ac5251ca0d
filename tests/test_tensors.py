"""Multilinear algebra layer: slot calculus, the Kulkarni-Nomizu product and
its brute-force permutation oracle, mu contractions, nu embedding, Hodge star.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weylspin.clifford import E, EPS, act, j_structure
from weylspin.errors import RankError, ShapeError, SlotError, SymmetryError
from weylspin.tensors import (
    alt,
    hodge_star,
    kulkarni_nomizu,
    metric,
    mu_contract,
    nu_embed,
    sym0,
    tensor_rank,
)

from test_clifford import FINITE
from test_identities import KN_REAL, kn_views


def kn_oracle(w, h):
    """Brute-force Kulkarni-Nomizu product.

    Evaluates [(23) + (12)(24)(34) - (24) - (12)(23)] (w (x) h) by looping over
    all index tuples, with the slot-relabel (forward) permutation action:
    (p.T)(v1..v4) = T(v_p(1), .., v_p(4)). The four relabeled index tuples and
    the summation order match the production implementation term for term, so
    the comparison can demand bitwise equality.
    """
    out = np.empty((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    t1 = w[i, k] * h[j, l]  # (23)
                    t2 = w[j, l] * h[i, k]  # (12)(24)(34)
                    t3 = w[i, l] * h[k, j]  # (24)
                    t4 = w[j, k] * h[i, l]  # (12)(23)
                    out[i, j, k, l] = ((t1 + t2) - t3) - t4
    return out


def test_rank_detection():
    assert tensor_rank(np.zeros((3, 3))) == (2, False)
    assert tensor_rank(np.zeros((3, 3, 2))) == (2, True)
    assert tensor_rank(np.zeros((3,))) == (1, False)
    assert tensor_rank(np.zeros(2)) == (0, True)
    with pytest.raises(RankError):
        tensor_rank(np.zeros((4, 3)))
    with pytest.raises(RankError):
        tensor_rank(np.zeros((3, 2, 3)))


def test_alt_and_sym0():
    rng = np.random.default_rng(0)
    T = rng.standard_normal((3, 3))
    a = alt(T)
    assert np.max(np.abs(a + a.T)) == 0.0
    assert np.array_equal(alt(a), 2.0 * a)
    s = sym0(T)
    assert np.max(np.abs(s - s.T)) == 0.0
    assert abs(np.trace(s)) < 1e-14
    assert np.max(np.abs(sym0(a))) < 1e-15
    with pytest.raises(RankError):
        alt(np.zeros(3))
    with pytest.raises(RankError):
        sym0(np.zeros((3, 3, 2)))


def test_alt_on_spinor_valued_rank2():
    rng = np.random.default_rng(1)
    T = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
    a = alt(T)
    assert np.max(np.abs(a + np.swapaxes(a, 0, 1))) == 0.0


def test_kulkarni_nomizu_matches_oracle_exactly():
    # bitwise agreement with the loop oracle on 100 random pairs
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = rng.standard_normal((3, 3))
        h = rng.standard_normal((3, 3))
        assert np.array_equal(kulkarni_nomizu(w, h), kn_oracle(w, h))


def test_kulkarni_nomizu_symmetries():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 3))
    w = w + w.T
    h = rng.standard_normal((3, 3))
    h = h + h.T
    R = kulkarni_nomizu(w, h)
    assert np.max(np.abs(R + np.einsum("jikl->ijkl", R))) < 1e-13
    assert np.max(np.abs(R + np.einsum("ijlk->ijkl", R))) < 1e-13
    assert np.max(np.abs(R - np.einsum("klij->ijkl", R))) < 1e-13
    # symmetric factors commute
    assert np.max(np.abs(kulkarni_nomizu(h, w) - R)) < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_kulkarni_nomizu_bilinear(a, b):
    rng = np.random.default_rng(17)
    w1 = rng.standard_normal((3, 3))
    w2 = rng.standard_normal((3, 3))
    h = rng.standard_normal((3, 3))
    lhs = kulkarni_nomizu(a * w1 + b * w2, h)
    rhs = a * kulkarni_nomizu(w1, h) + b * kulkarni_nomizu(w2, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mu_contract_single_slot():
    rng = np.random.default_rng(4)
    T = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    out = mu_contract([1], T)
    by_hand = sum(E[a] @ T[a] for a in range(3))
    assert np.max(np.abs(out - by_hand)) < 1e-15


def test_mu_contract_order_is_first_slot_leftmost():
    rng = np.random.default_rng(5)
    v = rng.uniform(-1, 1, 3)
    w = rng.uniform(-1, 1, 3)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    T = np.einsum("i,j,s->ijs", v, w, psi)
    assert np.max(np.abs(mu_contract([1, 2], T) - act(v, act(w, psi)))) < 1e-14
    assert np.max(np.abs(mu_contract([2, 1], T) - act(w, act(v, psi)))) < 1e-14


def test_mu_contract_surviving_slots_keep_order():
    rng = np.random.default_rng(6)
    T = rng.standard_normal((3, 3, 3, 2)) + 1j * rng.standard_normal((3, 3, 3, 2))
    out = mu_contract([2], T)
    assert out.shape == (3, 3, 2)
    for i in range(3):
        for k in range(3):
            by_hand = sum(E[a] @ T[i, a, k] for a in range(3))
            assert np.max(np.abs(out[i, k] - by_hand)) < 1e-14


def test_mu_contract_slot_errors():
    T = np.zeros((3, 3, 2))
    with pytest.raises(SlotError):
        mu_contract([1, 1], T)
    with pytest.raises(SlotError):
        mu_contract([3], T)  # slot 3 is the spinor axis, not a frame slot
    with pytest.raises(SlotError):
        mu_contract([0], T)
    with pytest.raises(SlotError):
        mu_contract([], T)


def test_nu_embed_rows_are_clifford_images():
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    nu = nu_embed(psi)
    assert nu.shape == (3, 2)
    for i in range(3):
        assert np.max(np.abs(nu[i] - E[i] @ psi)) == 0.0


def test_nu_embed_on_spinor_valued_tensor():
    rng = np.random.default_rng(8)
    T = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    nu = nu_embed(T)
    assert nu.shape == (3, 3, 2)
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(nu[i, j] - E[i] @ T[j])) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=2), st.integers(0, 2), st.data())
def test_nu_embed_equals_its_einsum_form(lead, rank, data):
    # the dense 3-generator einsum nu_embed had before the kernel, as the
    # oracle, on a strided view of rank 0-2 with 0-2 batch axes
    base = data.draw(arrays(np.complex128, (*lead, *(3,) * (rank + 1), 2), elements=FINITE))
    x = base[..., data.draw(st.integers(0, 2)), :]
    batch = len(lead)
    dense = np.moveaxis(np.einsum("ist,...t->i...s", E, x), 0, batch)
    assert np.array_equal(nu_embed(x, batch), dense)


def kn_einsum(w, h):
    """kulkarni_nomizu as it was before the trials moved innermost: the outer
    product and its four relabelings as batch-first einsums."""
    t = np.einsum("...ij,...kl->...ijkl", w, h)
    out = np.einsum("...ikjl->...ijkl", t) + np.einsum("...jlik->...ijkl", t)
    out -= np.einsum("...ilkj->...ijkl", t)
    out -= np.einsum("...jkil->...ijkl", t)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=2).map(tuple), st.booleans(), st.data())
def test_kulkarni_nomizu_equals_its_einsum_form(lead, metric_factor, data):
    # 0-2 batch axes, each factor a view of its own kind; the sweep's second
    # factor is the identity metric broadcast over the batch (strides 0)
    w = data.draw(kn_views(lead, (3, 3), np.float64, KN_REAL))
    if metric_factor:
        h = np.broadcast_to(metric(), w.shape)
    else:
        h = data.draw(kn_views(lead, (3, 3), np.float64, KN_REAL))
    kn = kulkarni_nomizu(w, h, len(lead))
    assert kn.shape == lead + (3, 3, 3, 3)
    assert np.array_equal(kn, kn_einsum(w, h))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3).map(tuple), st.data())
def test_hodge_star_equals_its_einsum_form(lead, data):
    # 0-3 batch axes; F is transposed in memory and reversed on its batch axes
    a = data.draw(kn_views(lead, (3, 3), np.float64, KN_REAL))
    F = np.swapaxes(a - np.swapaxes(a, -1, -2), -1, -2)[(slice(None, None, -1),) * len(lead)]
    assert np.array_equal(hodge_star(F, len(lead)), 0.5 * np.einsum("ijk,...ij->...k", EPS, F))


def vector_to_two_form(v):
    """Inverse of hodge_star on this pair of spaces: F_ij = sum_k eps_ijk v_k."""
    return np.einsum("ijk,k->ij", EPS, v)


def test_hodge_star_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.uniform(-2, 2, 3)
        F = vector_to_two_form(v)
        assert np.max(np.abs(F + F.T)) == 0.0
        assert np.max(np.abs(hodge_star(F) - v)) < 1e-15


def test_hodge_star_basis_values():
    F = np.zeros((3, 3))
    F[0, 1], F[1, 0] = 1.0, -1.0  # sigma_1 ^ sigma_2
    assert np.array_equal(hodge_star(F), np.array([0.0, 0.0, 1.0]))


def test_hodge_star_rejects_symmetric_part():
    with pytest.raises(SymmetryError):
        hodge_star(np.eye(3))


def test_hodge_star_bounds_the_skew_relative_to_the_tensor():
    # an antisymmetric F at 1e300 with one entry moved by one unit in the last
    # place is antisymmetric to rounding, and passes
    F = 1e300 * np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
    F[1, 2] = np.nextafter(F[1, 2], np.inf)
    assert np.allclose(hodge_star(F), [3e300, 2e300, 1e300], rtol=1e-15, atol=0.0)
    # a tensor at 1e-300 with a skew of half its largest entry is refused,
    # alone and beside a tensor of order 1 in a batch
    G = np.array([[0.0, 1e-300, 0.0], [-0.5e-300, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(SymmetryError):
        hodge_star(G)
    with pytest.raises(SymmetryError):
        hodge_star(np.stack([np.eye(3)[[1, 2, 0]] - np.eye(3)[[2, 0, 1]], G]), 1)
    # non-finite entries pass the check and reach *F (inf - inf is NaN, as under
    # find_gt_parameters' errstate)
    H = np.array([[0.0, np.inf, 0.0], [-np.inf, 0.0, np.nan], [0.0, 1.0, 0.0]])
    with np.errstate(invalid="ignore"):
        star = hodge_star(H)
    assert np.isnan(star[0]) and star[2] == np.inf


def test_hodge_star_refuses_an_overflowing_skew_without_a_warning():
    # F[0, 1] = F[1, 0] = 1e308 is finite, and F + F^T overflows to inf: a skew
    # above any bound, refused as SymmetryError with no overflow warning
    F = np.zeros((3, 3))
    F[0, 1] = F[1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SymmetryError):
            hodge_star(F)
        with pytest.raises(SymmetryError):
            hodge_star(np.stack([np.zeros((3, 3)), F]), 1)


def test_metric_is_identity():
    assert np.array_equal(metric(), np.eye(3))


# batch axes -------------------------------------------------------------------

# n = 3 would hide a trial axis misread as a frame axis if the count were inferred
BATCH_SIZES = st.sampled_from([1, 2, 3, 7])


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=30, deadline=None)
@given(BATCH_SIZES, st.integers(0, 2**32 - 1))
def test_batched_operations_equal_their_rows(n, seed):
    # bitwise: every row of a batched call is the one-tensor call on that row
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, 3, 3))
    h = rng.standard_normal((n, 3, 3))
    F = w - np.swapaxes(w, 1, 2)
    v = rng.uniform(-1.0, 1.0, (n, 3))
    psi = _complex(rng, (n, 2))
    T2 = _complex(rng, (n, 3, 3, 2))
    T4 = _complex(rng, (n, 3, 3, 3, 3, 2))
    cases = [
        (alt(w, 1), [alt(x) for x in w]),
        (alt(T2, 1), [alt(x) for x in T2]),
        (sym0(w, 1), [sym0(x) for x in w]),
        (kulkarni_nomizu(w, h, 1), [kulkarni_nomizu(a, b) for a, b in zip(w, h)]),
        (mu_contract([2], T2, 1), [mu_contract([2], x) for x in T2]),
        (mu_contract([3, 4], T4, 1), [mu_contract([3, 4], x) for x in T4]),
        (mu_contract([4, 1, 3], T4, 1), [mu_contract([4, 1, 3], x) for x in T4]),
        (nu_embed(psi, 1), [nu_embed(x) for x in psi]),
        (nu_embed(T2, 1), [nu_embed(x) for x in T2]),
        (hodge_star(F, 1), [hodge_star(x) for x in F]),
        (act(v, psi, 1), [act(a, x) for a, x in zip(v, psi)]),
        (act(v, T2, 1), [act(a, x) for a, x in zip(v, T2)]),
        (j_structure(T2), [j_structure(x) for x in T2]),
    ]
    for batched, rows in cases:
        assert batched.shape[0] == n
        assert np.array_equal(batched, np.stack(rows))


def test_batched_operations_keep_their_checks():
    F = np.zeros((3, 3, 3))
    F[1] = np.eye(3)  # only the middle tensor has a symmetric part
    with pytest.raises(SymmetryError):
        hodge_star(F, 1)
    assert hodge_star(F[[0, 2]], 1).shape == (2, 3)
    # three rank-2 spinor-valued tensors: slot 3 exists only if the trial
    # axis were read as a frame axis
    T = np.zeros((3, 3, 3, 2))
    assert mu_contract([3], T).shape == (3, 3, 2)
    for slots in ([3], [1, 1], [0], []):
        with pytest.raises(SlotError):
            mu_contract(slots, T, 1)
    with pytest.raises(RankError):
        hodge_star(np.zeros((3, 3, 2)), 1)
    with pytest.raises(RankError):
        alt(np.zeros((3, 3)), 1)
    with pytest.raises(RankError):
        nu_embed(np.zeros((2, 3)), 1)
    with pytest.raises(RankError):
        mu_contract([1], np.zeros((2, 3, 3)), 1)
    with pytest.raises(RankError):
        kulkarni_nomizu(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), 1)
    with pytest.raises(RankError):
        tensor_rank(np.zeros(3), 2)
    with pytest.raises(ShapeError):
        act(np.zeros((2, 3)), np.zeros((3, 2)), 1)
    with pytest.raises(ShapeError):
        act(np.zeros(3), np.zeros((3, 2)), 1)
    with pytest.raises(ShapeError):
        act(np.zeros((2, 3)), np.zeros(2), 1)
