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
                      (integrability_residual)

In second_identity the composition order is fixed by the identity suite: the
Clifford factor (nabla beta .) acts on the spinor values of nu psi. The first
four identities are pointwise algebra in a free antisymmetric F once
4 nabla beta = *F is imposed, so they are tested with random F independent of
any geometry. The integrability relations hold only on a Gauduchon-Tod
geometry, where Killing spinors exist; no command evaluates them yet, and the
tests call integrability_residual on certified geometries.
"""

from collections import namedtuple

import numpy as np

from .clifford import E, EPS, act, clifford_images, clifford_pairs, j_structure
from .errors import ShapeError
from .geometry import curvature_package, density_derivative
from .tensors import alt, hodge_star, kulkarni_nomizu, metric, mu_contract, nu_embed, sym0

_ID3 = np.eye(3)


# worst_trial is the index of the draw that gave residual, None when the check draws nothing
IdentityReport = namedtuple(
    "IdentityReport", "name residual trials tolerance passed worst_trial", defaults=(None,)
)


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


def clifford_relations_residual():
    """Defect of e_i e_j + e_j e_i = -2 delta_ij over all pairs, from one batched matmul."""
    products = E[:, None] @ E  # products[i, j] = E[i] @ E[j]
    d = products + products.swapaxes(0, 1) + 2.0 * _ID3[:, :, None, None] * np.eye(2)
    return float(np.max(np.abs(d)))


def product_rule_residual(psi):
    """Defect of e_i e_j psi = -eps_ijk e_k psi over all pairs i != j.

    For i != j the sum over k has the one term k = 3 - i - j. The two sides
    read clifford_pairs and clifford_images, so each is exact and the defect
    of a finite spinor is 0.
    """
    batch = _batch(psi)
    pairs, images = clifford_pairs(psi), clifford_images(psi)
    worst = 0.0
    for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        d = pairs[..., i, j, :] + EPS[i, j, 3 - i - j] * images[..., 3 - i - j, :]
        worst = np.maximum(worst, _worst(d, batch))
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


def _mu_last(T, psi, n, batch=0):
    """mu over the last n of T's frame slots, n in (0, 1, 2), of T (x) psi for a real T.

    sum_a sum_b T_..ab (e_a e_b psi) (clifford_pairs), sum_a T_..a (e_a psi)
    (clifford_images) or T (x) psi, row by row over the batch axes; b runs
    inside and a outside, with in-place adds, as mu_contract contracts the
    last slot first. e_a only permutes components and multiplies them by
    units, so this equals mu_contract of the complex T (x) psi up to the sign
    of an exact zero, and that tensor is never built: each product is T times
    the float view of the spinors, both copied batch-last so it runs over the
    batch in its inner loop.
    """
    T = np.asarray(T, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    rank, k = T.ndim - batch, T.ndim - n  # T's contracted slots are k, ..., k + n - 1
    if T.shape != psi.shape[:batch] + (3,) * rank or psi.shape[batch:] != (2,) or rank < n:
        raise ShapeError(f"need B + (3,)*r, r >= {n}, and B + (2,), got {T.shape}, {psi.shape}")
    images = (np.ascontiguousarray, clifford_images, clifford_pairs)[n](psi)
    lead, other = range(batch), range(batch, k)
    # T[contracted, other slots, 1, *B] and images[contracted, re/im per component, *B]
    T = np.ascontiguousarray(T[..., None].transpose(*range(k, k + n), *other, k + n, *lead))
    images = np.ascontiguousarray(images.view(float).transpose(*range(batch, images.ndim), *lead))

    def total(T, images, n):  # sum over a of the total of the next n - 1 slots
        if n == 0:
            return T * images
        out = total(T[0], images[0], n - 1)
        for a in (1, 2):
            out += total(T[a], images[a], n - 1)
        return out

    out = total(T, images, n).transpose(*range(k + 1 - batch, k + 1), *range(k + 1 - batch))
    return np.ascontiguousarray(out).view(complex)


def dreieck_residual(omega, psi):
    """Defect of the Kulkarni-Nomizu contraction identity for (omega, psi).

    The left side mu^{34}((omega kn c) (x) psi) is contracted by _mu_last,
    against the nine spinors e_a e_b psi; omega is a real rank-2 frame tensor.
    """
    batch = _batch(psi)
    g = np.broadcast_to(metric(), np.shape(omega))
    lhs = _mu_last(kulkarni_nomizu(omega, g, batch), psi, 2, batch)
    rhs = 2.0 * alt(nu_embed(_mu_last(omega, psi, 1, batch), batch), batch)
    rhs -= 2.0 * _mu_last(alt(omega, batch), psi, 0, batch)
    return _worst(lhs - rhs, batch)


def _monopole_defect(F, psi, grad, batch=0):
    """F . psi + 8 grad . psi, which vanishes when grad = nabla beta."""
    return _mu_last(F, psi, 2, batch) + 8.0 * act(grad, psi, batch)


def monopole_residual(F, psi):
    """Defect of F . psi = -8 (nabla beta) . psi with nabla beta = 1/4 *F."""
    batch = _batch(psi)
    return _worst(_monopole_defect(F, psi, _gradient(F, None, batch), batch), batch)


def first_identity_expression(F, psi, grad=None):
    """Left side of the first identity as a rank-2 spinor-valued tensor."""
    batch = _batch(psi)
    grad = _gradient(F, grad, batch)
    term1 = 0.25 * alt(nu_embed(_mu_last(F, psi, 1, batch), batch), batch)
    term2 = alt(grad[..., :, None, None] * nu_embed(psi, batch)[..., None, :, :], batch)
    term3 = 0.5 * _mu_last(F, psi, 0, batch)
    return term1 - term2 - term3


def first_identity_residual(F, psi, grad=None):
    return _worst(first_identity_expression(F, psi, grad), _batch(psi))


def second_identity_expression(F, psi, grad=None):
    """Left side of the second identity as a rank-1 spinor-valued tensor."""
    batch = _batch(psi)
    grad = _gradient(F, grad, batch)
    bracket = nu_embed(act(grad, psi, batch), batch) - act(grad, nu_embed(psi, batch), batch)
    return bracket - 0.5 * _mu_last(F, psi, 1, batch)


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

    lhs_full = _mu_last(pkg.ric_prime, psi, 1)
    alt_grad_c = alt(np.einsum("i,jk->ijk", grad, _ID3))
    rhs_full = (
        -_mu_last(np.moveaxis(alt_grad_c, -1, 0), psi, 2)  # mu^{12}: slots 1, 2 moved last
        + (pkg.scalar / 3.0) * nu_embed(psi)
        - _mu_last(pkg.faraday, psi, 1)
    )
    r_full = np.max(np.abs(lhs_full - rhs_full))

    lhs_red = _mu_last(sym0(pkg.ric_prime), psi, 1)
    r_red = np.max(np.abs(lhs_red - second_identity_expression(pkg.faraday, psi, grad)))

    r_scal = abs(pkg.scalar - 24.0 * beta.value * beta.value) * np.max(np.abs(psi))

    r_far = np.max(np.abs(_monopole_defect(pkg.faraday, psi, grad)))

    return float(max(r_full, r_red, r_scal, r_far))


def _two_form_and_spinor(rng, n):
    return random_two_form(rng, n), random_spinor(rng, n)


def _broken_first_identity(F, psi):
    return first_identity_residual(F, psi, grad=1.1 * 0.25 * hodge_star(F, _batch(psi)))


# (report name, residual function name, draw) in sweep order. draw(rng, n)
# returns each input for n trials in one bulk draw, in the listed order, trials
# on the leading axis; the residual returns one worst value per trial.
# verify_algebra looks each residual up in this module when it runs, so a
# wrapper bound in its place (a tracer, a test spy) is the one called. The
# table order fixes the RNG draw sequence and with it the report bytes at a
# given seed.
SWEEPS = (
    ("clifford_product_rule", "product_rule_residual", lambda r, n: (random_spinor(r, n),)),
    (
        "j_equivariance",
        "j_equivariance_residual",
        lambda r, n: (r.uniform(-1, 1, (n, 3)), random_spinor(r, n)),
    ),
    (
        "mu2_nu_operator",
        "mu2_nu_residual",
        lambda r, n: (r.standard_normal((n, 3, 2)) + 1j * r.standard_normal((n, 3, 2)),),
    ),
    ("kn_contraction", "dreieck_residual", lambda r, n: (random_rank2(r, n), random_spinor(r, n))),
    ("monopole", "monopole_residual", _two_form_and_spinor),
    ("first_identity", "first_identity_residual", _two_form_and_spinor),
    ("second_identity", "second_identity_residual", _two_form_and_spinor),
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
    (the analyzer treats it as a lower bound of 0.1), over max(trials, CHUNK) draws.
    """
    rng = np.random.default_rng(seed)
    reports = [make_report("clifford_relations", clifford_relations_residual(), 1, tolerance)]
    for name, residual_name, draw in SWEEPS:
        worst, worst_trial = _sweep(globals()[residual_name], draw, trials, rng)
        reports.append(make_report(name, worst, trials, tolerance, worst_trial))
    break_control, _ = _sweep(_broken_first_identity, _two_form_and_spinor, max(trials, CHUNK), rng)
    return reports, break_control
