"""The identity suite: contraction lemma, the two Faraday identities, the
monopole reduction, the integrability relations, and the bridge identity that
ties the first two together at arbitrary (not constrained) gradient vectors.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weylspin import identities
from weylspin.cli import main, parse_geometry_file
from weylspin.clifford import E, EPS, act, clifford_apply, j_structure
from weylspin.errors import RankError, ShapeError, SymmetryError
from weylspin.geometry import (
    WeightedDensity,
    curvature_package,
    gauge_rescale,
    milnor_geometry,
    residual_scale,
)
from weylspin.identities import (
    CHUNK,
    SWEEPS,
    _broken_first_identity,
    _mu_last,
    _sweep,
    _two_form_and_spinor,
    clifford_relations_residual,
    dreieck_residual,
    first_identity_expression,
    first_identity_residual,
    integrability_residual,
    j_equivariance_residual,
    make_report,
    monopole_residual,
    mu2_nu_residual,
    product_rule_residual,
    random_rank2,
    random_spinor,
    random_two_form,
    second_identity_expression,
    second_identity_residual,
    verify_algebra,
)
from weylspin.tensors import hodge_star, kulkarni_nomizu, metric, mu_contract

from test_clifford import spinor_arrays
from test_killing import BERGER_PATH


def _tensor_spinor(T, psi, batch=0):
    """Attach a spinor to a frame tensor: T (x) psi, row by row over the batch
    axes; the complex tensor the residuals contracted before _mu_last."""
    T = np.asarray(T)
    psi = np.asarray(psi, dtype=complex)
    if T.shape[:batch] != psi.shape[:batch]:
        raise ShapeError(f"batch axes differ: {T.shape[:batch]} and {psi.shape[:batch]}")
    return T[..., None] * psi.reshape(psi.shape[:batch] + (1,) * (T.ndim - batch) + (2,))


def test_check_functions_pass_on_random_draws():
    rng = np.random.default_rng(0)
    assert clifford_relations_residual() < 1e-12
    for _ in range(100):
        omega = random_rank2(rng)
        F = random_two_form(rng)
        psi = random_spinor(rng)
        v = rng.uniform(-1.0, 1.0, 3)
        T = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert dreieck_residual(omega, psi) < 1e-12
        assert monopole_residual(F, psi) < 1e-12
        assert first_identity_residual(F, psi) < 1e-12
        assert second_identity_residual(F, psi) < 1e-12
        assert product_rule_residual(psi) < 1e-12
        assert j_equivariance_residual(v, psi) < 1e-12
        assert mu2_nu_residual(T) < 1e-12


def test_residuals_scale_with_input():
    # identities are linear in F, so scaling F scales the defect of a broken
    # instance; the clean residual stays at rounding level
    rng = np.random.default_rng(1)
    F = random_two_form(rng)
    psi = random_spinor(rng)
    assert first_identity_residual(3.0 * F, psi) < 1e-13
    broken = first_identity_residual(F, psi, grad=0.5 * hodge_star(F))
    broken3 = first_identity_residual(3.0 * F, psi, grad=0.5 * hodge_star(3.0 * F))
    assert abs(broken3 - 3.0 * broken) < 1e-12


def test_monopole_residual_zero_only_with_constraint():
    rng = np.random.default_rng(2)
    F = random_two_form(rng)
    psi = random_spinor(rng)
    assert monopole_residual(F, psi) < 1e-13
    assert dreieck_residual(random_rank2(rng), psi) < 1e-13


def test_break_control_exceeds_bound():
    _, control = verify_algebra(trials=200, seed=0)
    assert control > 0.1


def test_verify_algebra_reports():
    reports, control = verify_algebra(trials=150, seed=7)
    names = [r.name for r in reports]
    assert names == [
        "clifford_relations",
        "clifford_product_rule",
        "j_equivariance",
        "mu2_nu_operator",
        "kn_contraction",
        "monopole",
        "first_identity",
        "second_identity",
    ]
    for r in reports:
        assert r.passed and r.residual < r.tolerance
    assert control > 0.1


def test_verify_algebra_deterministic():
    a, ca = verify_algebra(trials=60, seed=3)
    b, cb = verify_algebra(trials=60, seed=3)
    assert ca == cb
    for ra, rb in zip(a, b):
        assert ra == rb


def test_bridge_identity_general_gradient():
    # with delta = b - (1/4)*F:  mu^2 E4(b) + (1/2) E5(b) = 2 delta (x) psi,
    # for every b; at b = (1/4)*F both sides vanish and the constrained
    # identities are recovered
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        F = random_two_form(rng)
        psi = random_spinor(rng)
        b = rng.uniform(-2.0, 2.0, 3)
        delta = b - 0.25 * hodge_star(F)
        lhs = (
            mu_contract([2], first_identity_expression(F, psi, grad=b))
            + 0.5 * second_identity_expression(F, psi, grad=b)
            - 2.0 * np.einsum("i,s->is", delta, psi)
        )
        worst = max(worst, float(np.max(np.abs(lhs))))
    assert worst < 1e-12


def test_identity_expressions_commute_with_j():
    # J applied inside equals J applied outside: the residual machinery is
    # quaternionic, which is what makes the solution space 2-dimensional
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        F = random_two_form(rng)
        psi = random_spinor(rng)
        for expr in (first_identity_expression, second_identity_expression):
            d = expr(F, j_structure(psi)) - j_structure(expr(F, psi))
            worst = max(worst, float(np.max(np.abs(d))))
    assert worst < 1e-10


def test_integrability_on_round_sphere():
    g = milnor_geometry((2.0, 2.0, 2.0))
    rng = np.random.default_rng(5)
    for b in (0.5, -0.5):
        beta = WeightedDensity(b)
        for _ in range(20):
            assert integrability_residual(g, beta, random_spinor(rng)) < 1e-12


def test_integrability_j_equivariant():
    g = milnor_geometry((2.0, 2.0, 2.0))
    beta = WeightedDensity(0.5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        psi = random_spinor(rng)
        a = integrability_residual(g, beta, psi)
        b = integrability_residual(g, beta, j_structure(psi))
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("s", [-12.0, -9.0, 0.0, 5.0])
def test_integrability_gate_is_scale_relative(s):
    # the raw residual has weight -2: on the certified Berger sphere it reads
    # about 6e-14 at s = 0, 4e-6 at s = -9 and 2e-3 at s = -12, and over
    # residual_scale^2 it reads below 1e-12 at every s
    g0, beta0 = parse_geometry_file(BERGER_PATH)
    g, beta = gauge_rescale(g0, beta0, s)
    psi = random_spinor(np.random.default_rng(0))
    scale2 = residual_scale(g, beta) ** 2
    assert integrability_residual(g, beta, psi) / scale2 < 1e-12
    # negative control: the curvature of the same frame at theta3 = 0.3
    lam = g0.structure_constants[[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    off, _ = gauge_rescale(milnor_geometry(lam, (0.0, 0.0, 0.3)), beta0, s)
    raw = integrability_residual(g, beta, psi, pkg=curvature_package(off))
    assert 0.1 < raw / scale2 < 0.5


def test_clifford_action_j_equivariance_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        v = rng.uniform(-2, 2, 3)
        psi = random_spinor(rng)
        d = j_structure(act(v, psi)) - act(v, j_structure(psi))
        worst = max(worst, float(np.max(np.abs(d))))
    assert worst < 1e-10


# batch axis -------------------------------------------------------------------

BATCH_SIZES = st.sampled_from([1, 2, 3, 7])
BREAK_CONTROL = ("first_identity_break_control", "_broken_first_identity", _two_form_and_spinor)


@settings(max_examples=20, deadline=None)
@given(BATCH_SIZES, st.integers(0, 2**32 - 1))
def test_batched_residuals_equal_their_rows(n, seed):
    # bitwise: the residual of row k of a batch is the one-trial residual of
    # row k, for every swept identity and for the break control
    rng = np.random.default_rng(seed)
    for _, residual_name, draw in SWEEPS + (BREAK_CONTROL,):
        residual_fn = getattr(identities, residual_name)
        inputs = draw(rng, n)
        assert all(np.shape(x)[0] == n for x in inputs)
        batched = residual_fn(*inputs)
        assert batched.shape == (n,)
        assert np.array_equal(batched, [residual_fn(*(x[k] for x in inputs)) for k in range(n)])


@settings(max_examples=10, deadline=None)
@given(BATCH_SIZES, st.integers(0, 2**32 - 1))
def test_batched_expressions_equal_their_rows(n, seed):
    rng = np.random.default_rng(seed)
    F, psi = random_two_form(rng, n), random_spinor(rng, n)
    grad = rng.uniform(-2.0, 2.0, (n, 3))
    for expr in (first_identity_expression, second_identity_expression):
        for g in (None, grad):
            rows = [expr(F[k], psi[k], None if g is None else g[k]) for k in range(n)]
            assert np.array_equal(expr(F, psi, g), np.stack(rows))


def test_batched_residuals_keep_shape_and_symmetry_checks():
    rng = np.random.default_rng(8)
    F, psi = random_two_form(rng, 3), random_spinor(rng, 3)
    F[2] += np.eye(3)  # one trial with a symmetric part
    for fn in (monopole_residual, first_identity_residual, second_identity_residual):
        with pytest.raises(SymmetryError):
            fn(F, psi)
    with pytest.raises(SymmetryError):
        _broken_first_identity(F, psi)
    F[2] -= np.eye(3)
    with pytest.raises(ShapeError):
        monopole_residual(F, psi[:2])  # batch sizes differ
    with pytest.raises(ShapeError):
        first_identity_residual(F, rng.standard_normal((3, 3)))  # not spinors
    with pytest.raises(RankError):
        second_identity_residual(F[:, :2], psi)
    with pytest.raises(ShapeError):
        j_equivariance_residual(rng.uniform(-1.0, 1.0, (2, 3)), psi)
    with pytest.raises(ShapeError):
        dreieck_residual(random_rank2(rng, 2), psi)
    with pytest.raises(RankError):
        mu2_nu_residual(rng.standard_normal((3, 2, 2)))


@settings(max_examples=20, deadline=None)
@given(BATCH_SIZES.flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_broken_row_is_the_worst_trial(n_k):
    # only row k has its gradient inflated to 1.1 * 1/4 *F
    n, k = n_k
    rng = np.random.default_rng(10 * n + k)
    F, psi = random_two_form(rng, n), random_spinor(rng, n)
    grad = 0.25 * hodge_star(F, 1)
    grad[k] *= 1.1
    values = first_identity_residual(F, psi, grad=grad)
    assert values[k] > 1e-6
    assert np.max(values, initial=0.0, where=np.arange(n) != k) < 1e-12
    worst, worst_trial = _sweep(
        lambda F, psi: first_identity_residual(F, psi, grad=grad), lambda r, m: (F, psi), n, rng
    )
    assert (worst, worst_trial) == (values[k], k)


def test_nan_residual_is_the_worst_trial():
    # a residual that is not a number must fail the sweep, not be passed over
    rng = np.random.default_rng(12)
    values = np.zeros(2 * CHUNK + 3)
    values[CHUNK + 5] = np.nan
    values[2 * CHUNK + 1] = 1.0
    chunks = iter(np.split(values, [CHUNK, 2 * CHUNK]))
    worst, worst_trial = _sweep(lambda x: x, lambda r, m: (next(chunks),), values.size, rng)
    assert np.isnan(worst) and worst_trial == CHUNK + 5
    assert not make_report("nan", worst, values.size, 1e-12, worst_trial).passed


@settings(max_examples=40, deadline=None)
@given(spinor_arrays())
def test_product_rule_equals_its_einsum_form(psi):
    # both sides, term by term, against the dense einsum forms they had
    # before clifford_apply; the two sides are equal, so the residual is 0
    for i in range(3):
        for j in range(3):
            if i != j:
                k = 3 - i - j
                lhs = np.einsum("st,...t->...s", E[i], np.einsum("st,...t->...s", E[j], psi))
                assert np.array_equal(clifford_apply(i, clifford_apply(j, psi)), lhs)
                rhs = -np.einsum("k,kst,...t->...s", EPS[i, j], E, psi)
                assert np.array_equal(-EPS[i, j, k] * clifford_apply(k, psi), rhs)
    assert np.array_equal(product_rule_residual(psi), np.zeros(psi.shape[:-1]))


# finite, and small enough that no product or sum of the contraction overflows
KN_REAL = st.floats(-1e50, 1e50, allow_nan=False)
KN_COMPLEX = st.complex_numbers(max_magnitude=1e50, allow_nan=False, allow_infinity=False)


@st.composite
def kn_views(draw, lead, tail, dtype, elements):
    """An array of shape lead + tail: contiguous, strided on its last axis, or
    reversed on every axis."""
    view = draw(st.sampled_from(["contiguous", "strided", "reversed"]))
    if view == "strided":
        base = draw(arrays(dtype, lead + tail[:-1] + (2 * tail[-1],), elements=elements))
        return base[..., ::2]
    x = draw(arrays(dtype, lead + tail, elements=elements))
    return x if view == "contiguous" else x[(slice(None, None, -1),) * x.ndim]


@st.composite
def kn_contraction_inputs(draw):
    """(omega, K, psi) with 0-2 shared batch axes, each a view of its own kind;
    K is a free real rank-4 tensor."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    omega = draw(kn_views(lead, (3, 3), np.float64, KN_REAL))
    K = draw(kn_views(lead, (3, 3, 3, 3), np.float64, KN_REAL))
    return omega, K, draw(kn_views(lead, (2,), np.complex128, KN_COMPLEX))


@settings(max_examples=60, deadline=None)
@given(kn_contraction_inputs())
def test_kn_contraction_equals_mu34_of_the_spinor_tensor(inputs):
    # the left side of the kn identity, contracted against the nine spinors
    # e_a e_b psi, against mu^{34} of the whole complex spinor tensor K (x) psi;
    # on omega kn c a swapped summation order changes no bit, so a free real
    # K checks the order too
    omega, free, psi = inputs
    batch = psi.ndim - 1
    kn = kulkarni_nomizu(omega, np.broadcast_to(metric(), omega.shape), batch)
    for K in (kn, free):
        oracle = mu_contract([3, 4], _tensor_spinor(K, psi, batch), batch)
        assert np.array_equal(_mu_last(K, psi, 2, batch), oracle)


@st.composite
def real_slot_inputs(draw):
    """(T, psi, n, slots): a real rank-2 or rank-4 T and a spinor with 0-3
    shared batch axes, each a view of its own kind, and the number n of T's
    last slots to contract with the mu_contract slots that name them."""
    n, rank, slots = draw(st.sampled_from([(0, 2, []), (1, 2, [2]), (2, 2, [1, 2]), (2, 4, [3, 4])]))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    T = draw(kn_views(lead, (3,) * rank, np.float64, KN_REAL))
    return T, draw(kn_views(lead, (2,), np.complex128, KN_COMPLEX)), n, slots


@settings(max_examples=80, deadline=None)
@given(real_slot_inputs())
def test_real_slot_contraction_equals_mu_of_the_spinor_tensor(inputs):
    # the real tensor against psi's Clifford images, against mu_contract of
    # the complex spinor tensor T (x) psi (T (x) psi itself for n = 0)
    T, psi, n, slots = inputs
    batch = psi.ndim - 1
    oracle = _tensor_spinor(T, psi, batch)
    if slots:
        oracle = mu_contract(slots, oracle, batch)
    assert np.array_equal(_mu_last(T, psi, n, batch), oracle)


def test_kn_contraction_builds_no_complex_rank4_tensor():
    # the complex spinor tensor K (x) psi of a 256-row chunk is 663 kB alone;
    # with it the residual peaked at about 1.3 MB, without it at about 0.6 MB
    rng = np.random.default_rng(15)
    omega, psi = random_rank2(rng, 256), random_spinor(rng, 256)
    dreieck_residual(omega, psi)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dreieck_residual(omega, psi)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("imaginary", [False, True])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_row_fails_its_report(bad, imaginary):
    # a non-finite entry in one row of a chunk (in the real or the imaginary
    # part of a complex input) gives that row a residual that fails its
    # report, and leaves every other row as it was
    n, k = 5, 3
    rng = np.random.default_rng(14)
    psi, omega, F = random_spinor(rng, n), random_rank2(rng, n), random_two_form(rng, n)
    T = rng.standard_normal((n, 3, 2)) + 1j * rng.standard_normal((n, 3, 2))
    bad_psi, bad_omega, bad_F, bad_T = psi.copy(), omega.copy(), F.copy(), T.copy()
    bad_psi[k, 1] = bad_T[k, 2, 0] = complex(0.0, bad) if imaginary else bad
    bad_omega[k, 2, 0] = bad
    bad_F[k, 0, 2], bad_F[k, 2, 0] = bad, -bad
    cases = [
        (product_rule_residual, (psi,), (bad_psi,)),
        (mu2_nu_residual, (T,), (bad_T,)),
        (dreieck_residual, (omega, psi), (bad_omega, psi)),
        (dreieck_residual, (omega, psi), (omega, bad_psi)),
        (monopole_residual, (F, psi), (bad_F, psi)),
        (monopole_residual, (F, psi), (F, bad_psi)),
    ]
    for fn in (first_identity_residual, second_identity_residual, _broken_first_identity):
        cases += [(fn, (F, psi), (bad_F, psi)), (fn, (F, psi), (F, bad_psi))]
    with np.errstate(all="ignore"):
        for fn, good, broken in cases:
            values, clean = fn(*broken), fn(*good)
            assert not make_report(fn.__name__, values[k], n, 1e-12).passed, fn.__name__
            others = np.arange(n) != k
            assert np.array_equal(values[others], clean[others])


PINNED_SWEEPS = os.path.join(os.path.dirname(__file__), "data", "verify_algebra_v0.24.0.json")


def test_verify_algebra_matches_v0_24_0_bit_for_bit():
    # every report's residual (as float.hex), its worst_trial and the break
    # control of v0.24.0, at seeds {0, 5, 123} x trials {1, 250, 257, 1000}
    with open(PINNED_SWEEPS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert len(pinned) == 12
    for key, want in pinned.items():
        seed, trials = map(int, key.split(":"))
        reports, control = verify_algebra(trials=trials, seed=seed)
        got = [
            {"name": r.name, "residual": float.hex(r.residual), "worst_trial": r.worst_trial}
            for r in reports
        ]
        assert (got, float.hex(float(control))) == (want["reports"], want["break_control"]), key


def test_worst_trial_replays_from_the_report(capsys):
    # the report alone (seed, trials, worst_trial) fixes the worst draw: redraw
    # every sweep in table order, CHUNK trials at a time, and evaluate trial
    # worst_trial on its own
    trials = 2 * CHUNK + 50  # three chunks, the last one short
    assert main(["verify-algebra", "--trials", str(trials), "--seed", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    sections = {s["name"]: s for s in report["sections"]}
    assert "worst_trial" not in sections["clifford_relations"]
    rng = np.random.default_rng(report["seed"])
    for name, residual_name, draw in SWEEPS:
        residual_fn = getattr(identities, residual_name)
        section = sections[name]
        assert section["trials"] == trials
        chunk, row = divmod(section["worst_trial"], CHUNK)
        for start in range(0, trials, CHUNK):
            inputs = draw(rng, min(CHUNK, trials - start))
            if start == chunk * CHUNK:
                replayed = residual_fn(*(x[row] for x in inputs))
        assert replayed == section["residual"], name


def test_verify_algebra_calls_the_residuals_bound_in_the_module(monkeypatch):
    # a wrapper bound in place of a swept residual, as the benchmark's tracer
    # binds one, is the function that verify_algebra calls
    names = ("dreieck_residual", "monopole_residual", "second_identity_residual")
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counting(*args, name=name, original=getattr(identities, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(identities, name, counting)
    verify_algebra(trials=CHUNK + 1, seed=0)  # two chunks per sweep
    assert calls == dict.fromkeys(names, 2)
