"""Residual evaluators for the algebraic identities behind the Killing equation.

Each *_residual function evaluates one identity as a max-norm residual;
verify_algebra sweeps the SWEEPS table over random draws and wraps the worst
of each in an IdentityReport. The identities, in the names used here:

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


def random_spinor(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


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


def clifford_relations_residual():
    """Defect of e_i e_j + e_j e_i = -2 delta_ij over all generator pairs."""
    return max(
        float(np.max(np.abs(E[i] @ E[j] + E[j] @ E[i] + 2.0 * (i == j) * np.eye(2))))
        for i in range(3)
        for j in range(3)
    )


def product_rule_residual(psi):
    """Defect of e_i e_j psi = -eps_ijk e_k psi over all pairs i != j."""
    worst = 0.0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            lhs = E[i] @ (E[j] @ psi)
            rhs = -np.einsum("k,kst,t->s", EPS[i, j], E, psi)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def j_equivariance_residual(v, psi):
    """Defect of J(v . psi) = v . J(psi)."""
    return float(np.max(np.abs(j_structure(act(v, psi)) - act(v, j_structure(psi)))))


def mu2_nu_residual(T):
    """Defect of mu^2 nu T = -nu mu^1 T - 2 T on a rank-1 spinor-valued T."""
    lhs = mu_contract([2], nu_embed(T))
    rhs = -nu_embed(mu_contract([1], T)) - 2.0 * T
    return float(np.max(np.abs(lhs - rhs)))


def _gradient(F, grad):
    """grad, default 1/4 *F (any other value breaks the constraint); F must be antisymmetric."""
    star = hodge_star(F)
    return 0.25 * star if grad is None else grad


def dreieck_residual(omega, psi):
    """Defect of the Kulkarni-Nomizu contraction identity for (omega, psi)."""
    lhs = mu_contract([3, 4], _tensor_spinor(kulkarni_nomizu(omega, metric()), psi))
    m2 = mu_contract([2], _tensor_spinor(omega, psi))
    rhs = 2.0 * alt(nu_embed(m2)) - 2.0 * _tensor_spinor(alt(omega), psi)
    return float(np.max(np.abs(lhs - rhs)))


def _monopole_defect(F, psi, grad):
    """F . psi + 8 grad . psi, which vanishes when grad = nabla beta."""
    return mu_contract([1, 2], _tensor_spinor(F, psi)) + 8.0 * act(grad, psi)


def monopole_residual(F, psi):
    """Defect of F . psi = -8 (nabla beta) . psi with nabla beta = 1/4 *F."""
    return float(np.max(np.abs(_monopole_defect(F, psi, _gradient(F, None)))))


def first_identity_expression(F, psi, grad=None):
    """Left side of the first identity as a rank-2 spinor-valued tensor."""
    grad = _gradient(F, grad)
    term1 = 0.25 * alt(nu_embed(mu_contract([2], _tensor_spinor(F, psi))))
    term2 = alt(np.einsum("i,js->ijs", grad, nu_embed(psi)))
    term3 = 0.5 * _tensor_spinor(F, psi)
    return term1 - term2 - term3


def first_identity_residual(F, psi, grad=None):
    return float(np.max(np.abs(first_identity_expression(F, psi, grad))))


def second_identity_expression(F, psi, grad=None):
    """Left side of the second identity as a rank-1 spinor-valued tensor."""
    grad = _gradient(F, grad)
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
    reporting a meaningless residual.
    """
    gt = analyze(g, beta, _GT_TOLERANCE)
    if not gt.verdict:
        raise NotGT(
            "geometry is not Gauduchon-Tod at tolerance "
            f"{_GT_TOLERANCE:g} (normalized residuals {gt.n_ew:.3e}, {gt.n_scal:.3e}, {gt.n_star:.3e})"
        )
    residual = integrability_residual(g, beta, psi)
    return make_report("integrability", residual, 1, _INTEGRABILITY_TOLERANCE)


def _two_form_and_spinor(rng):
    return random_two_form(rng), random_spinor(rng)


def _broken_first_identity(F, psi):
    return first_identity_residual(F, psi, grad=1.1 * 0.25 * hodge_star(F))


# (report name, residual, draw) in sweep order; the order fixes the RNG draw
# sequence and with it the report bytes at a given seed
SWEEPS = (
    ("clifford_product_rule", product_rule_residual, lambda r: (random_spinor(r),)),
    ("j_equivariance", j_equivariance_residual, lambda r: (r.uniform(-1, 1, 3), random_spinor(r))),
    (
        "mu2_nu_operator",
        mu2_nu_residual,
        lambda r: (r.standard_normal((3, 2)) + 1j * r.standard_normal((3, 2)),),
    ),
    ("kn_contraction", dreieck_residual, lambda r: (random_rank2(r), random_spinor(r))),
    ("monopole", monopole_residual, _two_form_and_spinor),
    ("first_identity", first_identity_residual, _two_form_and_spinor),
    ("second_identity", second_identity_residual, _two_form_and_spinor),
)


def _sweep(residual_fn, draw, trials, rng):
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, residual_fn(*draw(rng)))
    return worst


def verify_algebra(trials=1000, seed=0, tolerance=1e-12):
    """Run the full identity sweep suite; returns (reports, break_control).

    reports is a list of IdentityReport: the draw-free clifford_relations
    check, then one per SWEEPS entry carrying the max residual over `trials`
    random draws. break_control is the max residual of the first identity
    when 4 nabla beta = *F is deliberately broken by 10%; a healthy suite has
    it far above the identity tolerances (the analyzer treats it as a lower
    bound of 0.1).
    """
    rng = np.random.default_rng(seed)
    reports = [make_report("clifford_relations", clifford_relations_residual(), 1, tolerance)]
    for name, residual_fn, draw in SWEEPS:
        reports.append(make_report(name, _sweep(residual_fn, draw, trials, rng), trials, tolerance))
    break_control = _sweep(_broken_first_identity, _two_form_and_spinor, trials, rng)
    return reports, float(break_control)
