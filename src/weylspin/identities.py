"""Residual evaluators for the algebraic identities behind the Killing equation.

Each *_residual function evaluates one identity as a max-norm residual;
verify_algebra sweeps them over random draws and wraps the worst in an
IdentityReport. The identities, in the names used here:

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

from .clifford import E, EPS, act, j_structure
from .errors import NotGT
from .geometry import analyze, curvature_package, density_derivative
from .tensors import alt, hodge_star, kulkarni_nomizu, metric, mu_contract, nu_embed, sym0

_ID3 = np.eye(3)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    residual: float
    trials: int
    tolerance: float
    passed: bool


def make_report(name, residual, trials, tolerance):
    residual = float(residual)
    return IdentityReport(name, residual, int(trials), float(tolerance), residual < tolerance)


def random_spinor(rng, unit=True):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    if unit:
        z = z / np.linalg.norm(z)
    return z


def random_rank2(rng):
    return rng.uniform(-1.0, 1.0, (3, 3))


def random_two_form(rng):
    # gaussian entries at scale 2 keep the identity terms O(1), so the
    # deliberate-break control produces a residual well clear of its bound
    a = 2.0 * rng.standard_normal((3, 3))
    return a - a.T


def _tensor_spinor(T, psi):
    """Attach a spinor to a frame tensor: T (x) psi."""
    return np.einsum("...,s->...s", np.asarray(T), np.asarray(psi, dtype=complex))


def dreieck_residual(omega, psi):
    """Defect of the Kulkarni-Nomizu contraction identity for (omega, psi)."""
    lhs = mu_contract([3, 4], _tensor_spinor(kulkarni_nomizu(omega, metric()), psi))
    m2 = mu_contract([2], _tensor_spinor(omega, psi))
    rhs = 2.0 * alt(nu_embed(m2)) - 2.0 * _tensor_spinor(alt(omega), psi)
    return float(np.max(np.abs(lhs - rhs)))


def monopole_residual(F, psi):
    """Defect of F . psi = -8 (nabla beta) . psi with nabla beta = 1/4 *F."""
    grad = 0.25 * hodge_star(F)
    f_psi = mu_contract([1, 2], _tensor_spinor(F, psi))
    return float(np.max(np.abs(f_psi + 8.0 * act(grad, psi))))


def first_identity_expression(F, psi, grad=None):
    """Left side of the first identity as a rank-2 spinor-valued tensor.

    grad defaults to 1/4 *F; passing anything else deliberately breaks the
    constraint (used by the non-vacuity control).
    """
    if grad is None:
        grad = 0.25 * hodge_star(F)
    else:
        hodge_star(F)  # still insist on an antisymmetric F
    term1 = 0.25 * alt(nu_embed(mu_contract([2], _tensor_spinor(F, psi))))
    term2 = alt(np.einsum("i,js->ijs", grad, nu_embed(psi)))
    term3 = 0.5 * _tensor_spinor(F, psi)
    return term1 - term2 - term3


def first_identity_residual(F, psi, grad=None):
    return float(np.max(np.abs(first_identity_expression(F, psi, grad))))


def second_identity_expression(F, psi, grad=None):
    """Left side of the second identity as a rank-1 spinor-valued tensor."""
    if grad is None:
        grad = 0.25 * hodge_star(F)
    else:
        hodge_star(F)
    bracket = nu_embed(act(grad, psi)) - act(grad, nu_embed(psi))
    return bracket - 0.5 * mu_contract([2], _tensor_spinor(F, psi))


def second_identity_residual(F, psi, grad=None):
    return float(np.max(np.abs(second_identity_expression(F, psi, grad))))


def integrability_residual(g, beta, psi, pkg=None):
    """Max residual of the four weight-0 Killing integrability relations at n = 3.

    With R the scalar curvature, F the Faraday form, grad = nabla beta and
    Ric' = sym0 Ric + (1/3) R c - (1/2) F:

      full      mu^2 Ric' (x) psi = -mu^{12} Alt(grad (x) c) (x) psi
                + (R/3) nu psi - mu^2 F (x) psi
                (the grad (x) psi term carries coefficient 2(n-1-(n-1)/(n-2)),
                which vanishes at n = 3; the Alt term carries 1-(n-1)/(n-2) = -1)
      reduced   mu^2 sym0(Ric') (x) psi = -(grad . nu - nu grad) . psi
                - 1/2 mu^2 F (x) psi
      scalar    R = 24 beta^2 (weighted by max|psi| so the report is uniformly
                degree 1 in psi)
      faraday   F . psi = -8 grad . psi
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
    bracket = act(grad, nu_embed(psi)) - nu_embed(act(grad, psi))
    rhs_red = -bracket - 0.5 * mu_contract([2], _tensor_spinor(pkg.faraday, psi))
    r_red = np.max(np.abs(lhs_red - rhs_red))

    r_scal = abs(pkg.scalar - 24.0 * beta.value**2) * np.max(np.abs(psi))

    f_psi = mu_contract([1, 2], _tensor_spinor(pkg.faraday, psi))
    r_far = np.max(np.abs(f_psi + 8.0 * act(grad, psi)))

    return float(max(r_full, r_red, r_scal, r_far))


def check_integrability(g, beta, psi, pkg=None, tolerance=1e-8, gt_tolerance=1e-8):
    """Integrability report; the geometry must be Gauduchon-Tod certified.

    The relations are only asserted for Killing spinors, and those exist
    exactly on GT geometries, so a failing GT verdict raises NotGT instead of
    reporting a meaningless residual.
    """
    gt = analyze(g, beta, gt_tolerance)
    if not gt.verdict:
        raise NotGT(
            "geometry is not Gauduchon-Tod at tolerance "
            f"{gt_tolerance:g} (normalized residuals {gt.n_ew:.3e}, {gt.n_scal:.3e}, {gt.n_star:.3e})"
        )
    return make_report("integrability", integrability_residual(g, beta, psi, pkg), 1, tolerance)


def _sweep(residual_fn, draw, trials, rng):
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, residual_fn(*draw(rng)))
    return worst


def verify_algebra(trials=1000, seed=0, tolerance=1e-12):
    """Run the full identity sweep suite; returns (reports, break_control).

    reports is a list of IdentityReport, one per sweep, each carrying the max
    residual over `trials` random draws. break_control is the max residual of
    the first identity when 4 nabla beta = *F is deliberately broken by 10%;
    a healthy suite has it far above the identity tolerances (the analyzer
    treats it as a lower bound of 0.1).
    """
    rng = np.random.default_rng(seed)
    reports = []

    anticomm = max(
        float(np.max(np.abs(E[i] @ E[j] + E[j] @ E[i] + 2.0 * (i == j) * np.eye(2))))
        for i in range(3)
        for j in range(3)
    )

    def product_rule_residual(psi):
        worst = 0.0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                lhs = E[i] @ (E[j] @ psi)
                rhs = -np.einsum("k,kst,t->s", EPS[i, j], E, psi)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst

    reports.append(make_report("clifford_relations", anticomm, 1, tolerance))
    reports.append(
        make_report(
            "clifford_product_rule",
            _sweep(product_rule_residual, lambda r: (random_spinor(r),), trials, rng),
            trials,
            tolerance,
        )
    )

    def j_equivariance_residual(v, psi):
        return float(np.max(np.abs(j_structure(act(v, psi)) - act(v, j_structure(psi)))))

    reports.append(
        make_report(
            "j_equivariance",
            _sweep(
                j_equivariance_residual,
                lambda r: (r.uniform(-1, 1, 3), random_spinor(r)),
                trials,
                rng,
            ),
            trials,
            tolerance,
        )
    )

    def mu2_nu_residual(T):
        lhs = mu_contract([2], nu_embed(T))
        rhs = -nu_embed(mu_contract([1], T)) - 2.0 * T
        return float(np.max(np.abs(lhs - rhs)))

    def draw_rank1(r):
        return ((r.standard_normal((3, 2)) + 1j * r.standard_normal((3, 2))),)

    reports.append(
        make_report(
            "mu2_nu_operator",
            _sweep(mu2_nu_residual, draw_rank1, trials, rng),
            trials,
            tolerance,
        )
    )

    reports.append(
        make_report(
            "kn_contraction",
            _sweep(
                dreieck_residual,
                lambda r: (random_rank2(r), random_spinor(r)),
                trials,
                rng,
            ),
            trials,
            tolerance,
        )
    )
    for name, fn in (
        ("monopole", monopole_residual),
        ("first_identity", first_identity_residual),
        ("second_identity", second_identity_residual),
    ):
        reports.append(
            make_report(
                name,
                _sweep(fn, lambda r: (random_two_form(r), random_spinor(r)), trials, rng),
                trials,
                tolerance,
            )
        )

    def broken_first(F, psi):
        return first_identity_residual(F, psi, grad=1.1 * 0.25 * hodge_star(F))

    break_control = _sweep(
        broken_first, lambda r: (random_two_form(r), random_spinor(r)), trials, rng
    )
    return reports, float(break_control)
