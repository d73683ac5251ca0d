"""The identity suite: contraction lemma, the two Faraday identities, the
monopole reduction, the integrability relations, and the bridge identity that
ties the first two together at arbitrary (not constrained) gradient vectors.
"""

import numpy as np
import pytest

from weylspin.clifford import act, j_structure
from weylspin.errors import NotGT
from weylspin.geometry import WeightedDensity, milnor_geometry
from weylspin.identities import (
    check_integrability,
    clifford_relations_residual,
    dreieck_residual,
    first_identity_expression,
    first_identity_residual,
    integrability_residual,
    j_equivariance_residual,
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
from weylspin.tensors import hodge_star, mu_contract


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
            psi = random_spinor(rng)
            rep = check_integrability(g, beta, psi)
            assert rep.passed
            assert rep.residual < 1e-8


def test_integrability_j_equivariant():
    g = milnor_geometry((2.0, 2.0, 2.0))
    beta = WeightedDensity(0.5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        psi = random_spinor(rng)
        a = integrability_residual(g, beta, psi)
        b = integrability_residual(g, beta, j_structure(psi))
        assert abs(a - b) < 1e-10


def test_integrability_rejects_non_gt():
    g = milnor_geometry((2.0, 2.0, 2.0), (0.0, 0.0, 0.3))
    with pytest.raises(NotGT):
        check_integrability(g, WeightedDensity(0.5), np.array([1.0, 0.0]))


def test_clifford_action_j_equivariance_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        v = rng.uniform(-2, 2, 3)
        psi = random_spinor(rng)
        d = j_structure(act(v, psi)) - act(v, j_structure(psi))
        worst = max(worst, float(np.max(np.abs(d))))
    assert worst < 1e-10
