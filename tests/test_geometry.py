"""Homogeneous Weyl geometries on Milnor frames.

The independent curvature oracle is the classical principal-Ricci formula for
diagonal structure constants on a unimodular 3d group: with
mu_i = (lambda_j + lambda_k - lambda_i)/2 (cyclic), the Levi-Civita Ricci in
the orthonormal frame is diag(2 mu_2 mu_3, 2 mu_3 mu_1, 2 mu_1 mu_2). The
Heisenberg and round values below are special cases of the same formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylspin.errors import JacobiViolation, ShapeError
from weylspin.geometry import (
    WeightedDensity,
    _jacobi_defect,
    analyze,
    curvature_package,
    decomposition_residual,
    density_derivative,
    gauge_rescale,
    kappa_from_beta,
    milnor_constants,
    milnor_geometry,
    residual_scale,
    validate_geometry,
    weyl_connection,
)


def ricci_oracle_diagonal(lam):
    l1, l2, l3 = lam
    m1 = 0.5 * (l2 + l3 - l1)
    m2 = 0.5 * (l3 + l1 - l2)
    m3 = 0.5 * (l1 + l2 - l3)
    return np.diag([2.0 * m2 * m3, 2.0 * m3 * m1, 2.0 * m1 * m2])


def test_milnor_constants_entries():
    c = milnor_constants((1.0, 2.0, 3.0))
    assert c.shape == (3, 3, 3)
    assert c[1, 2, 0] == 1.0 and c[2, 1, 0] == -1.0
    assert c[2, 0, 1] == 2.0 and c[0, 2, 1] == -2.0
    assert c[0, 1, 2] == 3.0 and c[1, 0, 2] == -3.0
    assert np.count_nonzero(c) == 6


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e100, 1e100), min_size=3, max_size=3),
    st.lists(st.floats(-1e100, 1e100), min_size=3, max_size=3),
)
def test_milnor_geometry_needs_no_algebra_checks(lam, theta):
    # milnor_geometry skips validate_geometry's skew and Jacobi checks; both
    # hold exactly by construction, so the two constructors agree bit for bit
    c = milnor_constants(lam)
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))
    assert _jacobi_defect(c) == 0.0
    g, v = milnor_geometry(lam, theta), validate_geometry(c, theta)
    assert g.structure_constants.tobytes() == v.structure_constants.tobytes()
    assert g.theta.tobytes() == v.theta.tobytes()


def test_milnor_geometry_rejects_non_finite_data():
    with pytest.raises(ShapeError):
        milnor_geometry((np.inf, 1.0, 1.0))
    with pytest.raises(ShapeError):
        milnor_geometry((1.0, 1.0, 1.0), (0.0, np.nan, 0.0))


def test_validate_geometry_errors():
    with pytest.raises(ShapeError):
        validate_geometry(np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        validate_geometry(np.zeros((3, 3, 3)), np.zeros(2))
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # no antisymmetric partner
    with pytest.raises(ShapeError):
        validate_geometry(bad, np.zeros(3))
    nanc = np.zeros((3, 3, 3))
    nanc[0, 1, 2], nanc[1, 0, 2] = np.nan, -np.nan
    with pytest.raises(ShapeError):
        validate_geometry(nanc, np.zeros(3))


def test_jacobi_violation():
    # brackets [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3 cycle and fail Jacobi
    c = np.zeros((3, 3, 3))
    c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    c[2, 0, 2], c[0, 2, 2] = 1.0, -1.0
    for scale in (1.0, 1e5):
        with pytest.raises(JacobiViolation):
            validate_geometry(scale * c, np.zeros(3))


def test_validation_bounds_are_relative_to_scale():
    # c = 0 still validates: the bounds scale with max|c| but stay strict
    validate_geometry(np.zeros((3, 3, 3)), np.zeros(3))
    c = milnor_constants((1e5, 2e5, 3e5))
    c[1, 0, 2] += 1e-8  # skew 1e-8, or 3e-14 of the scale: rounding, symmetrized away
    g = validate_geometry(c, np.zeros(3))
    assert np.array_equal(g.structure_constants, -np.swapaxes(g.structure_constants, 0, 1))
    c[1, 0, 2] += 1.0  # 3e-6 of the scale: a real defect
    with pytest.raises(ShapeError):
        validate_geometry(c, np.zeros(3))


def test_weighted_density_finite():
    with pytest.raises(ShapeError):
        WeightedDensity(np.nan)
    assert WeightedDensity(0.5).weight == -1.0


def test_validated_geometry_is_immutable():
    # the loop model and the Killing generators are memoized per geometry
    # object, which is sound only because its arrays cannot change
    g = milnor_geometry((1.5, -0.3, 2.0), (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        g.structure_constants[0, 1, 2] = 1.0
    with pytest.raises(ValueError):
        g.theta[0] = 1.0


def test_connection_torsion_and_conformal_metricity():
    rng = np.random.default_rng(0)
    for _ in range(30):
        g = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3))
        gamma = weyl_connection(g)
        c = g.structure_constants
        torsion = gamma - np.swapaxes(gamma, 0, 1) - c
        assert np.max(np.abs(torsion)) < 1e-14
        metricity = gamma + np.swapaxes(gamma, 1, 2) \
            - 2.0 * np.einsum("i,jk->ijk", g.theta, np.eye(3))
        assert np.max(np.abs(metricity)) < 1e-14


def test_round_sphere_frozen_values():
    g = milnor_geometry((2.0, 2.0, 2.0))
    gamma = weyl_connection(g)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    assert np.max(np.abs(gamma - eps)) == 0.0
    pkg = curvature_package(g)
    assert abs(pkg.scalar - 6.0) < 1e-12
    assert np.max(np.abs(pkg.ricci - 2.0 * np.eye(3))) < 1e-13
    assert np.max(np.abs(pkg.faraday)) == 0.0
    assert np.max(np.abs(pkg.sym0_ricci)) < 1e-13


def test_ricci_against_diagonal_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        lam = rng.uniform(-2.5, 2.5, 3)
        pkg = curvature_package(milnor_geometry(lam))
        assert np.max(np.abs(pkg.ricci - ricci_oracle_diagonal(lam))) < 1e-12


def test_heisenberg_ricci():
    # lambda = (1,0,0): principal Ricci (1/2, -1/2, -1/2)
    pkg = curvature_package(milnor_geometry((1.0, 0.0, 0.0)))
    assert np.max(np.abs(pkg.ricci - np.diag([0.5, -0.5, -0.5]))) < 1e-14
    assert abs(pkg.scalar + 0.5) < 1e-14


def test_faraday_and_ricci_antisymmetry():
    # the antisymmetric part of the Weyl Ricci is -(3/2) F in dimension 3
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3))
        pkg = curvature_package(g)
        anti = 0.5 * (pkg.ricci - pkg.ricci.T)
        assert np.max(np.abs(anti + 1.5 * pkg.faraday)) < 1e-13
        assert np.max(np.abs(pkg.faraday + pkg.faraday.T)) == 0.0


def test_curvature_decomposition_sweep():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        g = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3))
        worst = max(worst, decomposition_residual(curvature_package(g)))
    assert worst < 1e-10


def test_ric_n_and_ric_prime_conventions():
    rng = np.random.default_rng(4)
    g = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3))
    pkg = curvature_package(g)
    ric_n = -pkg.sym0_ricci - pkg.scalar / 12.0 * np.eye(3) + 0.5 * pkg.faraday
    ric_p = pkg.sym0_ricci + pkg.scalar / 3.0 * np.eye(3) - 0.5 * pkg.faraday
    assert np.max(np.abs(pkg.ric_n - ric_n)) == 0.0
    assert np.max(np.abs(pkg.ric_prime - ric_p)) == 0.0


def test_density_derivative_sign_and_weight():
    g = milnor_geometry((2.0, 2.0, 2.0), (0.1, -0.2, 0.3))
    beta = WeightedDensity(0.5, -1.0)
    grad = density_derivative(g, beta)
    assert np.max(np.abs(grad - (-0.5) * g.theta)) == 0.0
    grad2 = density_derivative(g, WeightedDensity(0.5, 2.0))
    assert np.max(np.abs(grad2 - g.theta)) == 0.0


def test_analyze_round_sphere():
    g = milnor_geometry((2.0, 2.0, 2.0))
    for b in (0.5, -0.5):
        rep = analyze(g, WeightedDensity(b))
        assert rep.verdict
        assert max(rep.r_ew, rep.r_scal, rep.r_star) < 1e-12
        assert max(rep.n_ew, rep.n_scal, rep.n_star) < 1e-12
    assert abs(kappa_from_beta(WeightedDensity(0.5)) + 2.0) < 1e-15


def test_analyze_negative_control():
    g = milnor_geometry((2.0, 2.0, 2.0), (0.0, 0.0, 0.3))
    rep = analyze(g, WeightedDensity(0.5))
    assert not rep.verdict
    assert max(rep.n_ew, rep.n_scal, rep.n_star) > 1e-3


def test_analyze_requires_weight_minus_one():
    g = milnor_geometry((2.0, 2.0, 2.0))
    with pytest.raises(ShapeError):
        analyze(g, WeightedDensity(0.5, weight=-2.0))
    with pytest.raises(ShapeError):
        kappa_from_beta(WeightedDensity(0.5, weight=0.0))


def test_residual_scale_zero_guard():
    g = milnor_geometry((0.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    assert residual_scale(g, beta) == 0.0
    rep = analyze(g, beta)  # flat abelian with beta = 0 is GT
    assert rep.verdict


def test_gauge_rescale_action():
    g = milnor_geometry((2.0, 1.0, -0.5), (0.2, 0.0, -0.1))
    beta = WeightedDensity(0.4)
    g2, b2 = gauge_rescale(g, beta, 0.7)
    f = np.exp(-0.7)
    assert np.max(np.abs(g2.structure_constants - f * g.structure_constants)) < 1e-15
    assert np.max(np.abs(g2.theta - f * g.theta)) < 1e-15
    assert abs(b2.value - 0.4 * np.exp(-0.7)) < 1e-15


def test_gauge_covariance_of_normalized_residuals():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-0.5, 0.5, 3))
        beta = WeightedDensity(float(rng.uniform(-1, 1)))
        rep = analyze(g, beta)
        for s in (-1.0, 0.7, 2.0):
            g2, b2 = gauge_rescale(g, beta, s)
            rep2 = analyze(g2, b2)
            assert abs(rep.n_ew - rep2.n_ew) < 1e-12
            assert abs(rep.n_scal - rep2.n_scal) < 1e-12
            assert abs(rep.n_star - rep2.n_star) < 1e-12
            assert rep.verdict == rep2.verdict
