"""Residual evaluators for the algebraic identities behind the Killing equation.

Each *_residual function evaluates one identity as a max-norm residual. It
takes the inputs of one trial, or of a batch of trials stacked on a leading
axis, and then returns one residual per trial (row k depends on row k of the
inputs alone, bit for bit). verify_algebra sweeps the SWEEPS table over random
draws, CHUNK trials per call, and wraps the worst of each, with the index of
the trial that gave it, in an IdentityReport. The identities, in the names
used here:

  kn_contraction      mu^{34}(w kn c) = 2 Alt nu mu^2 w - 2 Alt w
  monopole            F . psi = -8 (nabla beta) . psi          with 4 nabla beta = *F
  first_identity      1/4 Alt nu mu^2 F (x) psi - Alt (nabla beta) (x) nu psi
                      - 1/2 F (x) psi = 0                       with 4 nabla beta = *F
  second_identity     nu(nabla beta . psi) - nabla beta . (nu psi)
                      - 1/2 mu^2 F (x) psi = 0                  with 4 nabla beta = *F
  integrability       the weight-0 Killing integrability relations at n = 3
                      (see check_integrability)

In second_identity the composition order is fixed by the identity suite: the
Clifford factor (nabla beta .) acts on the spinor values of nu psi. The first
four identities are pointwise algebra in a free antisymmetric F once
4 nabla beta = *F is imposed, so they are tested with random F independent of
any geometry; integrability needs a Gauduchon-Tod certified geometry.
"""

from dataclasses import dataclass

import numpy as np

from .clifford import E, EPS, act, clifford_apply, clifford_pairs, j_structure
from .errors import NotGT, ShapeError
from .geometry import analyze, curvature_package, density_derivative, normalized_residual
from .tensors import alt, hodge_star, kulkarni_nomizu, metric, mu_contract, nu_embed, sym0

_ID3 = np.eye(3)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    residual: float
    trials: int
    tolerance: float
    passed: bool
    worst_trial: int | None = None  # index of the draw that gave `residual`; None when draw-free


def make_report(name, residual, trials, tolerance, worst_trial=None):
    residual = float(residual)
    return IdentityReport(
        name, residual, int(trials), float(tolerance), residual < tolerance, worst_trial
    )


def _shape(n, *tail):
    """Shape of one draw (n is None) or of n draws on a leading trial axis."""
    return tail if n is None else (n, *tail)


def random_spinor(rng, n=None):
    shape = _shape(n, 2)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def random_rank2(rng, n=None):
    return rng.uniform(-1.0, 1.0, _shape(n, 3, 3))


def random_two_form(rng, n=None):
    # gaussian entries at scale 2 keep the identity terms O(1), so the
    # deliberate-break control produces a residual well clear of its bound
    a = 2.0 * rng.standard_normal(_shape(n, 3, 3))
    return a - np.swapaxes(a, -1, -2)


def _batch(psi):
    """Number of leading trial axes on a spinor argument (0 for a single trial)."""
    shape = np.shape(psi)
    if not shape or shape[-1] != 2:
        raise ShapeError(f"a spinor needs a trailing axis of length 2, got shape {shape}")
    return len(shape) - 1


def _worst(d, batch):
    """max |d| over each trial's entries: one value per trial, a scalar for one trial."""
    return np.max(np.abs(d), axis=tuple(range(batch, np.ndim(d))))


def _tensor_spinor(T, psi, batch=0):
    """Attach a spinor to a frame tensor: T (x) psi, row by row over the batch axes."""
    T = np.asarray(T)
    psi = np.asarray(psi, dtype=complex)
    if T.shape[:batch] != psi.shape[:batch]:
        raise ShapeError(f"batch axes differ: {T.shape[:batch]} and {psi.shape[:batch]}")
    return T[..., None] * psi.reshape(psi.shape[:batch] + (1,) * (T.ndim - batch) + (2,))


def clifford_relations_residual():
    """Defect of e_i e_j + e_j e_i = -2 delta_ij over all generator pairs."""
    return max(
        float(np.max(np.abs(E[i] @ E[j] + E[j] @ E[i] + 2.0 * (i == j) * np.eye(2))))
        for i in range(3)
        for j in range(3)
    )


def product_rule_residual(psi):
    """Defect of e_i e_j psi = -eps_ijk e_k psi over all pairs i != j.

    For i != j the sum over k has the one term k = 3 - i - j. Both sides are
    built with clifford_apply, so each is exact and the defect of a finite
    spinor is 0.
    """
    batch = _batch(psi)
    psi = np.asarray(psi, dtype=complex)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            k = 3 - i - j
            lhs = clifford_apply(i, clifford_apply(j, psi))
            rhs = -EPS[i, j, k] * clifford_apply(k, psi)
            worst = np.maximum(worst, _worst(lhs - rhs, batch))
    return worst


def j_equivariance_residual(v, psi):
    """Defect of J(v . psi) = v . J(psi)."""
    batch = _batch(psi)
    d = j_structure(act(v, psi, batch)) - act(v, j_structure(psi), batch)
    return _worst(d, batch)


def mu2_nu_residual(T):
    """Defect of mu^2 nu T = -nu mu^1 T - 2 T on a rank-1 spinor-valued T."""
    batch = np.ndim(T) - 2
    lhs = mu_contract([2], nu_embed(T, batch), batch)
    rhs = -nu_embed(mu_contract([1], T, batch), batch) - 2.0 * T
    return _worst(lhs - rhs, batch)


def _gradient(F, grad, batch):
    """grad, default 1/4 *F (any other value breaks the constraint); F must be antisymmetric."""
    star = hodge_star(F, batch)
    return 0.25 * star if grad is None else grad


def _mu34(K, psi, batch=0):
    """mu^{34}(K (x) psi) for a real rank-4 frame tensor K, row by row over the batch axes.

    Entry (i, j) is sum_a sum_b K_ijab (e_a e_b psi), with the nine spinors
    e_a e_b psi from clifford_pairs. The sum runs over b inside and a outside,
    with in-place adds, which is the order in which mu_contract([3, 4], ...)
    contracts slot 4 and then slot 3. Each e_a only permutes components and
    multiplies them by units, so e_a (sum_b x_b) = sum_b e_a x_b and
    K_ijab (e_a e_b psi) = e_a e_b (K_ijab psi) bit for bit: the result
    equals mu_contract([3, 4], _tensor_spinor(K, psi, batch), batch), up to
    the sign of an exact zero. The products are real, K times the float view
    of the spinors, so no complex rank-4 tensor is built. Both factors are
    copied with the batch axes last, so each product runs over the batch in
    its inner loop.
    """
    K = np.asarray(K, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    if K.shape != psi.shape[:batch] + (3, 3, 3, 3) or psi.shape[batch:] != (2,):
        raise ShapeError(f"need shapes B + (3, 3, 3, 3) and B + (2,), got {K.shape}, {psi.shape}")
    lead, last = range(batch), range(-batch, 0)
    # K[a, b, i, j, 1, *B] and pairs[a, b, re/im of each component, *B]
    K = np.ascontiguousarray(np.transpose(K, (batch + 2, batch + 3, batch, batch + 1, *lead)))
    K = K[:, :, :, :, None]
    pairs = np.ascontiguousarray(np.moveaxis(clifford_pairs(psi).view(float), lead, last))

    def inner(a):  # sum_b K_ijab (e_a e_b psi)
        term = K[a, 0] * pairs[a, 0]
        for b in (1, 2):
            term += K[a, b] * pairs[a, b]
        return term

    out = inner(0)
    for a in (1, 2):
        out += inner(a)
    return np.ascontiguousarray(np.moveaxis(out, range(3, 3 + batch), lead)).view(complex)


def dreieck_residual(omega, psi):
    """Defect of the Kulkarni-Nomizu contraction identity for (omega, psi).

    The left side mu^{34}((omega kn c) (x) psi) is contracted by _mu34,
    against the nine spinors e_a e_b psi; omega is a real rank-2 frame tensor.
    """
    batch = _batch(psi)
    g = np.broadcast_to(metric(), np.shape(omega))
    lhs = _mu34(kulkarni_nomizu(omega, g, batch), psi, batch)
    m2 = mu_contract([2], _tensor_spinor(omega, psi, batch), batch)
    rhs = 2.0 * alt(nu_embed(m2, batch), batch)
    rhs -= 2.0 * _tensor_spinor(alt(omega, batch), psi, batch)
    return _worst(lhs - rhs, batch)


def _monopole_defect(F, psi, grad, batch=0):
    """F . psi + 8 grad . psi, which vanishes when grad = nabla beta."""
    return mu_contract([1, 2], _tensor_spinor(F, psi, batch), batch) + 8.0 * act(grad, psi, batch)


def monopole_residual(F, psi):
    """Defect of F . psi = -8 (nabla beta) . psi with nabla beta = 1/4 *F."""
    batch = _batch(psi)
    return _worst(_monopole_defect(F, psi, _gradient(F, None, batch), batch), batch)


def first_identity_expression(F, psi, grad=None):
    """Left side of the first identity as a rank-2 spinor-valued tensor."""
    batch = _batch(psi)
    grad = _gradient(F, grad, batch)
    m2 = mu_contract([2], _tensor_spinor(F, psi, batch), batch)
    term1 = 0.25 * alt(nu_embed(m2, batch), batch)
    term2 = alt(np.einsum("...i,...js->...ijs", grad, nu_embed(psi, batch)), batch)
    term3 = 0.5 * _tensor_spinor(F, psi, batch)
    return term1 - term2 - term3


def first_identity_residual(F, psi, grad=None):
    return _worst(first_identity_expression(F, psi, grad), _batch(psi))


def second_identity_expression(F, psi, grad=None):
    """Left side of the second identity as a rank-1 spinor-valued tensor."""
    batch = _batch(psi)
    grad = _gradient(F, grad, batch)
    bracket = nu_embed(act(grad, psi, batch), batch) - act(grad, nu_embed(psi, batch), batch)
    return bracket - 0.5 * mu_contract([2], _tensor_spinor(F, psi, batch), batch)


def second_identity_residual(F, psi, grad=None):
    return _worst(second_identity_expression(F, psi, grad), _batch(psi))


def integrability_residual(g, beta, psi, pkg=None):
    """Max residual of the four weight-0 Killing integrability relations at n = 3.

    With R the scalar curvature, F the Faraday form, grad = nabla beta and
    Ric' = sym0 Ric + (1/3) R c - (1/2) F:

      full      mu^2 Ric' (x) psi = -mu^{12} Alt(grad (x) c) (x) psi
                + (R/3) nu psi - mu^2 F (x) psi
                (the grad (x) psi term carries coefficient 2(n-1-(n-1)/(n-2)),
                which vanishes at n = 3; the Alt term carries 1-(n-1)/(n-2) = -1)
      reduced   mu^2 sym0(Ric') (x) psi = -(grad . nu - nu grad) . psi
                - 1/2 mu^2 F (x) psi, the second identity's expression at grad
      scalar    R = 24 beta^2 (weighted by max|psi| so the report is uniformly
                degree 1 in psi)
      faraday   F . psi = -8 grad . psi, the monopole defect at grad
    """
    if pkg is None:
        pkg = curvature_package(g)
    grad = density_derivative(g, beta)
    psi = np.asarray(psi, dtype=complex)

    lhs_full = mu_contract([2], _tensor_spinor(pkg.ric_prime, psi))
    alt_grad_c = alt(np.einsum("i,jk->ijk", grad, _ID3))
    rhs_full = (
        -mu_contract([1, 2], _tensor_spinor(alt_grad_c, psi))
        + (pkg.scalar / 3.0) * nu_embed(psi)
        - mu_contract([2], _tensor_spinor(pkg.faraday, psi))
    )
    r_full = np.max(np.abs(lhs_full - rhs_full))

    lhs_red = mu_contract([2], _tensor_spinor(sym0(pkg.ric_prime), psi))
    r_red = np.max(np.abs(lhs_red - second_identity_expression(pkg.faraday, psi, grad)))

    r_scal = abs(pkg.scalar - 24.0 * beta.value**2) * np.max(np.abs(psi))

    r_far = np.max(np.abs(_monopole_defect(pkg.faraday, psi, grad)))

    return float(max(r_full, r_red, r_scal, r_far))


_INTEGRABILITY_TOLERANCE = 1e-8
_GT_TOLERANCE = 1e-8


def check_integrability(g, beta, psi):
    """Integrability report; the geometry must be Gauduchon-Tod certified.

    The relations are only asserted for Killing spinors, and those exist
    exactly on GT geometries, so a failing GT verdict raises NotGT instead of
    reporting a meaningless residual. The residual has conformal weight -2, so
    the report carries it over scale^2 (normalized_residual), which is the same
    at every gauge scale.
    """
    gt = analyze(g, beta, _GT_TOLERANCE)
    if not gt.verdict:
        raise NotGT(
            "geometry is not Gauduchon-Tod at tolerance "
            f"{_GT_TOLERANCE:g} (normalized residuals {gt.n_ew:.3e}, {gt.n_scal:.3e}, {gt.n_star:.3e})"
        )
    residual = normalized_residual(integrability_residual(g, beta, psi), g, beta)
    return make_report("integrability", residual, 1, _INTEGRABILITY_TOLERANCE)


def _two_form_and_spinor(rng, n):
    return random_two_form(rng, n), random_spinor(rng, n)


def _broken_first_identity(F, psi):
    return first_identity_residual(F, psi, grad=1.1 * 0.25 * hodge_star(F, _batch(psi)))


# (report name, residual, draw) in sweep order. draw(rng, n) returns each input
# for n trials in one bulk draw, in the listed order, trials on the leading
# axis; the residual returns one worst value per trial. The table order fixes
# the RNG draw sequence and with it the report bytes at a given seed.
SWEEPS = (
    ("clifford_product_rule", product_rule_residual, lambda r, n: (random_spinor(r, n),)),
    (
        "j_equivariance",
        j_equivariance_residual,
        lambda r, n: (r.uniform(-1, 1, (n, 3)), random_spinor(r, n)),
    ),
    (
        "mu2_nu_operator",
        mu2_nu_residual,
        lambda r, n: (r.standard_normal((n, 3, 2)) + 1j * r.standard_normal((n, 3, 2)),),
    ),
    ("kn_contraction", dreieck_residual, lambda r, n: (random_rank2(r, n), random_spinor(r, n))),
    ("monopole", monopole_residual, _two_form_and_spinor),
    ("first_identity", first_identity_residual, _two_form_and_spinor),
    ("second_identity", second_identity_residual, _two_form_and_spinor),
)

# trials drawn and evaluated together; the sweep's memory grows with CHUNK,
# not with the number of trials
CHUNK = 256


def _sweep(residual_fn, draw, trials, rng):
    """(max residual, index of the first trial reaching it) over `trials` draws.

    Trials are drawn and evaluated in chunks of CHUNK, so trial t is row
    t % CHUNK of chunk t // CHUNK. A NaN residual counts as the worst, so the
    report fails instead of passing over it.
    """
    worst, worst_trial = 0.0, 0
    for start in range(0, trials, CHUNK):
        values = residual_fn(*draw(rng, min(CHUNK, trials - start)))
        k = int(np.argmax(values))  # the first NaN, if there is one
        if not values[k] <= worst and not np.isnan(worst):
            worst, worst_trial = float(values[k]), start + k
    return worst, worst_trial


def verify_algebra(trials=1000, seed=0, tolerance=1e-12):
    """Run the full identity sweep suite; returns (reports, break_control).

    reports is a list of IdentityReport: the draw-free clifford_relations
    check, then one per SWEEPS entry carrying the max residual over `trials`
    random draws and the index of the draw that gave it. break_control is the
    max residual of the first identity when 4 nabla beta = *F is deliberately
    broken by 10%; a healthy suite has it far above the identity tolerances
    (the analyzer treats it as a lower bound of 0.1).
    """
    rng = np.random.default_rng(seed)
    reports = [make_report("clifford_relations", clifford_relations_residual(), 1, tolerance)]
    for name, residual_fn, draw in SWEEPS:
        worst, worst_trial = _sweep(residual_fn, draw, trials, rng)
        reports.append(make_report(name, worst, trials, tolerance, worst_trial))
    break_control, _ = _sweep(_broken_first_identity, _two_form_and_spinor, trials, rng)
    return reports, break_control
