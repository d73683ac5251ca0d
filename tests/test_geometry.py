"""Homogeneous Weyl geometries on Milnor frames.

The independent curvature oracle is the classical principal-Ricci formula for
diagonal structure constants on a unimodular 3d group: with
mu_i = (lambda_j + lambda_k - lambda_i)/2 (cyclic), the Levi-Civita Ricci in
the orthonormal frame is diag(2 mu_2 mu_3, 2 mu_3 mu_1, 2 mu_1 mu_2). The
Heisenberg and round values below are special cases of the same formula.
"""

import ast
import hashlib
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylspin import geometry
from weylspin.clifford import E, EPS
from weylspin.errors import JacobiViolation, ShapeError
from weylspin.geometry import (
    WeightedDensity,
    _jacobi_defect,
    analyze,
    curvature_coefficients,
    curvature_package,
    density_derivative,
    form_coordinates,
    gauge_rescale,
    gt_coefficients,
    gt_residual_vector,
    milnor_geometry,
    prescaled,
    residual_scale,
    validate_geometry,
    weyl_connection,
)
from weylspin.spinconn import flatness, killing_curvature
from weylspin.tensors import kulkarni_nomizu

from test_killing import milnor_constants, rotated_geometry, rotation, semidirect_constants
from test_spinconn import chain_polarization, geometry_at, random_lie_algebras


def ricci_oracle_diagonal(lam):
    l1, l2, l3 = lam
    m1 = 0.5 * (l2 + l3 - l1)
    m2 = 0.5 * (l3 + l1 - l2)
    m3 = 0.5 * (l1 + l2 - l3)
    return np.diag([2.0 * m2 * m3, 2.0 * m3 * m1, 2.0 * m1 * m2])


def test_milnor_constants_entries():
    g = milnor_geometry((1.0, 2.0, 3.0))
    assert np.array_equal(g.N, np.diag([1.0, 2.0, 3.0]))
    c = g.structure_constants
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
    g = milnor_geometry(lam, theta)
    c = g.structure_constants
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))
    assert _jacobi_defect(g.N) == 0.0
    v = validate_geometry(c, theta)
    assert g.N.tobytes() == v.N.tobytes()
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
    big = np.zeros((3, 3, 3))
    big[0, 1, 2] = big[1, 0, 2] = 1e308  # c + c^T overflows: a skew above any bound, no warning
    with pytest.raises(ShapeError, match="antisymmetric"):
        validate_geometry(big, np.zeros(3))


# every position a geometry's data can hold a non-finite value at: the 27
# entries of c, the 3 of theta, the 3 Milnor parameters and beta
DATA_POSITIONS = (
    [("c", k) for k in range(27)] + [("theta", k) for k in range(3)] + [("lambda", k) for k in range(3)] + [("beta", 0)]
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where, k", DATA_POSITIONS, ids=[f"{w}{k}" for w, k in DATA_POSITIONS])
def test_a_non_finite_entry_anywhere_is_refused(where, k, bad):
    # validation runs on Python floats, and Python's max skips a NaN that is
    # not its first argument (max(1.0, nan) is 1.0), so finiteness is checked
    # entry by entry: a NaN or infinity at any position raises ShapeError,
    # from an array and from nested lists alike
    c, theta, lam = milnor_constants((2.0, 1.0, -0.5)), np.array([0.3, -0.1, 0.2]), np.array([2.0, 1.0, -0.5])
    if where == "beta":
        with pytest.raises(ShapeError):
            WeightedDensity(bad)
        return
    {"c": c.reshape(-1), "theta": theta, "lambda": lam}[where][k] = bad
    for as_given in (lambda a: a, np.ndarray.tolist):
        if where != "lambda":
            with pytest.raises(ShapeError, match="finite"):
                validate_geometry(as_given(c), as_given(theta))
        if where != "c":
            with pytest.raises(ShapeError, match="finite"):
                milnor_geometry(as_given(lam), as_given(theta))


@pytest.mark.parametrize(
    "c, theta, lam",
    [
        ([[[0.0] * 3] * 3] * 2 + [[[0.0] * 3] * 2 + [[0.0] * 2]], [[0.0], 0.0, 0.0], [[1.0, 2.0], 3.0, 4.0]),  # ragged
        (np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3)),  # a (3, 3) array
        ("c" * 27, "000", "123"),  # text, which float() would read character by character
        ([[[0.0] * 3] * 3] * 2 + [[[0.0] * 3] * 2 + [[0.0, "0", 0.0]]], [0.0, "0", 0.0], ["1", 2.0, 3.0]),  # one text entry
        (np.zeros(27), np.zeros(4), np.zeros(2)),  # the wrong length
    ],
    ids=["ragged", "3x3", "string", "text-entry", "length"],
)
def test_wrong_shapes_are_refused(c, theta, lam):
    with pytest.raises(ShapeError, match="shape"):
        validate_geometry(c, np.zeros(3))
    with pytest.raises(ShapeError, match="shape"):
        validate_geometry(milnor_constants((1.0, 2.0, 3.0)), theta)
    with pytest.raises(ShapeError, match="shape"):
        milnor_geometry(lam)
    with pytest.raises(ShapeError, match="shape"):
        milnor_geometry((1.0, 2.0, 3.0), theta)


def test_an_array_and_the_same_nested_lists_give_the_same_bits():
    # validation reads an array through tolist(), so both give the same
    # coordinates: N, theta and the prescaled coordinates agree bit for bit,
    # over frames with a skew that is symmetrized away and scales 1e-300 to 1e300
    rng = np.random.default_rng(38)
    for x in random_lie_algebras(rng, 100):
        c = np.einsum("ijl,lk->ijk", EPS, x[:9].reshape(3, 3)) * 10.0 ** rng.uniform(-300, 300)
        c += 1e-13 * np.max(np.abs(c)) * rng.standard_normal(c.shape)
        theta, beta = x[9:12] * np.max(np.abs(c)), WeightedDensity(float(x[12] * np.max(np.abs(c))))
        pairs = [(validate_geometry(c, theta), validate_geometry(c.tolist(), theta.tolist())),
                 (milnor_geometry(x[:3], theta), milnor_geometry(x[:3].tolist(), tuple(theta.tolist())))]
        for g, h in pairs:
            assert g.N.tobytes() == h.N.tobytes() and g.theta.tobytes() == h.theta.tobytes()
            assert [v.hex() for v in prescaled(g, beta)[0]] == [v.hex() for v in prescaled(h, beta)[0]]


def test_jacobi_violation():
    # brackets [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3 cycle and fail Jacobi
    c = np.zeros((3, 3, 3))
    c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    c[2, 0, 2], c[0, 2, 2] = 1.0, -1.0
    for scale in (1.0, 1e5, 1.7e308):  # at 1.7e308, c - c^T is beyond the float range
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
    c = milnor_constants((1.5e308, 1.5e308, 1.5e308))  # an exact frame validates as it is
    assert np.array_equal(validate_geometry(c, np.zeros(3)).structure_constants, c)
    c = milnor_constants((2.0, 1.0, -0.5))
    c[0, 1, 0], c[1, 0, 0] = -3.763370959790291e-14, -1.533471020548487e-15  # their sum rounds
    g = validate_geometry(c, np.zeros(3))
    assert np.array_equal(g.structure_constants, -np.swapaxes(g.structure_constants, 0, 1))


def symmetrize_and_flip(c):
    """v0.26.0's repair, the oracle: A = c - (c + c^T) / 2, each entry below the diagonal set to
    the negative of the one above where the pair's sum rounded."""
    c = c - 0.5 * (c + np.swapaxes(c, 0, 1))
    flip = -np.swapaxes(c, 0, 1)
    lower = np.tril(np.ones((3, 3), dtype=bool), -1)[..., None]
    return np.where(lower & (c != flip), flip, c)


def test_validated_constants_equal_the_symmetrize_and_flip_repair():
    # N read off A above the diagonal gives the repaired c under ==, on Milnor
    # frames and rotated frames of unimodular and class B algebras with skew
    # up to 1e-13 of the scale at scales 1e-300 to 1e300; on Milnor frames the
    # entries that are 0 take independent skews, and many pairs' sums round
    rng = np.random.default_rng(35)
    rounded = 0
    for t, x in enumerate(random_lie_algebras(rng, 400)):
        N = x[:9].reshape(3, 3) if t % 2 else np.diag(x[:3])
        c = np.einsum("ijl,lk->ijk", EPS, N) * 10.0 ** rng.uniform(-300, 300)
        c += 1e-13 * np.max(np.abs(c)) * rng.standard_normal(c.shape) * (rng.random(c.shape) < 0.5)
        A = c - 0.5 * (c + np.swapaxes(c, 0, 1))
        rounded += not np.array_equal(A, -np.swapaxes(A, 0, 1))
        assert np.array_equal(validate_geometry(c, x[9:12]).structure_constants, symmetrize_and_flip(c))
    assert rounded > 50
    c = milnor_constants((2.0, 1.0, -0.5))
    c[0, 1, 0], c[1, 0, 0] = -3.763370959790291e-14, -1.533471020548487e-15  # their sum rounds
    assert np.array_equal(validate_geometry(c, np.zeros(3)).structure_constants, symmetrize_and_flip(c))


def test_structure_constants_are_derived_once_read_only_and_antisymmetric():
    rng = np.random.default_rng(36)
    single = geometry.HomogeneousWeylGeometry(rng.standard_normal((3, 3)), rng.standard_normal(3))
    for g in (single, milnor_geometry((1.0, 0.0, -2.0))):
        c = g.structure_constants
        assert g.structure_constants is c
        assert c.shape == (3, 3, 3) and not c.flags.writeable
        assert np.array_equal(c, -np.swapaxes(c, 0, 1))
        assert np.array_equal(c, np.einsum("ijl,lk->ijk", EPS, g.N))


def test_a_rotated_frame_has_its_n_conjugated():
    # e'_i = sum_a R[i, a] e_a takes N to R N R^T for det R = 1, and to
    # -R N R^T for det R = -1: N pairs the bracket with eps
    rng = np.random.default_rng(37)
    for x in random_lie_algebras(rng, 20):
        g = validate_geometry(np.einsum("ijl,lk->ijk", EPS, x[:9].reshape(3, 3)), x[9:12])
        R = rotation(rng.standard_normal(3), rng.uniform(0.0, 6.3))
        want, bound = R @ g.N @ R.T, 1e-14 * np.max(np.abs(g.N))
        assert np.max(np.abs(rotated_geometry(g, R).N - want)) <= bound
        assert np.max(np.abs(rotated_geometry(g, -R).N + want)) <= bound


def test_weighted_density_finite():
    # the value is read like every other coordinate, through float(): held as a
    # Python float, with text refused, as float("0.5") would read it as a number
    for bad in (np.nan, "0.5", b"0.5", [0.5], None):
        with pytest.raises(ShapeError):
            WeightedDensity(bad)
    assert WeightedDensity(0.5).weight == -1.0
    for value in (np.float64(0.5), np.float32(0.5), np.array(0.5), Fraction(1, 2), 0.5):
        beta = WeightedDensity(value)
        assert type(beta.value) is float and beta == WeightedDensity(0.5)
    assert type(WeightedDensity(0.5, -1).weight) is float


@pytest.mark.parametrize("huge", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "-int", "fraction"])
def test_a_number_beyond_the_float_range_is_refused(huge):
    # float() raises OverflowError on these, which every reader reports as a ShapeError
    c, zero = milnor_constants((2.0, 1.0, -0.5)).tolist(), [0.0, 0.0, 0.0]
    c[0][1][2] = huge
    for build in (
        lambda: milnor_geometry([huge, 1.0, 1.0]),
        lambda: milnor_geometry([2.0, 1.0, 1.0], [0.0, huge, 0.0]),
        lambda: validate_geometry(c, zero),
        lambda: geometry.HomogeneousWeylGeometry([[huge, 0.0, 0.0], zero, zero], zero),
        lambda: WeightedDensity(huge),
    ):
        with pytest.raises(ShapeError, match="finite"):
            build()


def test_records_are_immutable_and_compare_as_documented():
    # a geometry is equal only to itself, so two with the same coordinates are two
    # cache keys; a density, a curvature package and a report are tuples of values
    g, beta = milnor_geometry((2.0, 2.0, 2.0), (0.0, 0.0, 0.3)), WeightedDensity(0.5)
    twin = milnor_geometry((2.0, 2.0, 2.0), (0.0, 0.0, 0.3))
    assert twin.coordinates == g.coordinates and twin != g and g == g and len({g, twin}) == 2
    geometry.residual_scale.cache_clear()
    for key in (g, twin, g):
        geometry.residual_scale(key, beta)
    assert geometry.residual_scale.cache_info().misses == 3
    same = WeightedDensity(0.5, -1.0)
    assert beta == same and hash(beta) == hash(same)
    g.N  # a cached array is stored past __setattr__, and is then as immutable as the rest
    for record in (g, beta, curvature_package(g), analyze(g, beta)):
        for name in ("coordinates", "N", "value", "weight", "ricci", "verdict", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert g.coordinates == twin.coordinates and beta == (0.5, -1.0)


def test_validated_geometry_is_immutable():
    # the loop model and the Killing generators are memoized per geometry
    # object, which is sound only because its arrays cannot change
    g = milnor_geometry((1.5, -0.3, 2.0), (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        g.structure_constants[0, 1, 2] = 1.0
    with pytest.raises(ValueError):
        g.N[0, 0] = 1.0
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


def decomposition_residual(pkg):
    """Max-norm defect of R4 - Ric^N kn c - F (x) c, the decomposition of the full curvature."""
    eye = np.eye(3)
    target = kulkarni_nomizu(pkg.ric_n, eye) + np.einsum("ij,kl->ijkl", pkg.faraday, eye)
    return float(np.max(np.abs(pkg.full_curvature - target)))


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


def test_analyze_round_sphere():
    g = milnor_geometry((2.0, 2.0, 2.0))
    for b in (0.5, -0.5):
        rep = analyze(g, WeightedDensity(b))
        assert rep.verdict
        assert np.max(np.abs(gt_residual_vector(g, WeightedDensity(b)))) < 1e-12
        assert max(rep.n_ew, rep.n_scal, rep.n_star) < 1e-12


def test_analyze_negative_control():
    g = milnor_geometry((2.0, 2.0, 2.0), (0.0, 0.0, 0.3))
    rep = analyze(g, WeightedDensity(0.5))
    assert not rep.verdict
    assert max(rep.n_ew, rep.n_scal, rep.n_star) > 1e-3


def test_a_residual_on_the_tolerance_fails():
    # the verdict is strict: a tolerance equal to the largest normalized
    # residual fails, and the next float up passes
    cases = [(milnor_geometry((2.0, 2.0, 2.0), (0.0, 0.0, 0.3)), WeightedDensity(0.5)),
             (milnor_geometry((2.0, 2.0, 1.9), (0.1, 0.0, 0.3)), WeightedDensity(0.45)),
             (milnor_geometry((1.0, -0.5, 2.0), (0.3, 0.1, -0.2)), WeightedDensity(0.4))]
    for g, beta in cases:
        rep = analyze(g, beta)
        worst = max(rep.n_ew, rep.n_scal, rep.n_star)
        assert worst > 0.0
        assert not analyze(g, beta, tolerance=worst).verdict
        assert analyze(g, beta, tolerance=math.nextafter(worst, math.inf)).verdict


def test_analyze_requires_weight_minus_one():
    # beta has weight -1 by construction: a density of any other weight is
    # refused where it is built, so analyze, flatness and the form, which
    # all read beta as weight -1, never see one
    for weight in (2.0, -2.0, 0.0, np.nan):
        with pytest.raises(ShapeError, match="weight -1"):
            WeightedDensity(0.5, weight)
    assert WeightedDensity(0.5, -1.0) == WeightedDensity(0.5)


def test_residual_scale_zero_guard():
    g = milnor_geometry((0.0, 0.0, 0.0))
    beta = WeightedDensity(0.0)
    # the zero geometry's scale is 1: its residuals, all 0, stay as they are
    assert residual_scale(g, beta) == 1.0
    rep = analyze(g, beta)  # flat abelian with beta = 0 is GT
    assert rep.verdict and (rep.n_ew, rep.n_scal, rep.n_star) == (0.0, 0.0, 0.0)


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


# the quadratic form --------------------------------------------------------


def gt_defect(g, beta, residuals=gt_coefficients):
    """max|residuals(x) - gt_residual_vector| / residual_scale^2 at x = form_coordinates(g, beta)."""
    x = form_coordinates(g, beta)
    defect = float(np.max(np.abs(np.subtract(residuals(x), gt_residual_vector(g, beta)))))
    return defect / residual_scale(g, beta) ** 2


def curvature_defect(g, beta):
    """max|R^beta - sum_k F[l, k] q_k| / residual_scale^2 over the pairs (l + 1, l + 2), F = curvature_coefficients.

    R^beta is killing_curvature's, and F is taken at x = form_coordinates(g, beta).
    """
    F = np.array(curvature_coefficients(form_coordinates(g, beta)))
    closed = np.einsum("lk,kab->lab", F, -E)  # q_k = -e_k
    pairs = killing_curvature(g, beta).curvature[[1, 2, 0], [2, 0, 1]]
    return float(np.max(np.abs(pairs - closed))) / residual_scale(g, beta) ** 2


# coefficients below 1e-100 are flushed to 0: their products are subnormal, where
# the formulas themselves lose digits (the power-of-two rescaling test below
# covers the form at every scale)
coefficient = st.floats(-3.0, 3.0).map(lambda v: v if abs(v) > 1e-100 else 0.0)


@st.composite
def geometries(draw):
    """Milnor frames, rotated ones, and non-unimodular semidirect algebras (Bianchi V, VII, ...)."""
    kind = draw(st.sampled_from(["milnor", "rotated", "semidirect"]))
    theta = draw(st.lists(coefficient, min_size=3, max_size=3))
    if kind == "semidirect":
        M = np.array(draw(st.lists(coefficient, min_size=4, max_size=4))).reshape(2, 2)
        g = validate_geometry(semidirect_constants(M), theta)
    else:
        g = milnor_geometry(draw(st.lists(coefficient, min_size=3, max_size=3)), theta)
        if kind == "rotated":
            axis = draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))
            g = rotated_geometry(g, rotation(axis, draw(st.floats(0.0, 6.3))))
    return g, WeightedDensity(draw(coefficient))


def test_form_coordinates_are_the_structure_constants_exactly():
    g = milnor_geometry((1.0, -0.5, 2.0), (0.3, 0.1, -0.2))
    g, beta = rotated_geometry(g, rotation((1, 2, 3), 0.7)), WeightedDensity(0.4)
    x = form_coordinates(g, beta)
    assert len(x) == 13 and all(type(v) is float for v in x)  # Python floats, no array
    x = np.array(x)
    N = x[:9].reshape(3, 3)
    assert np.array_equal(N, g.N)
    assert np.array_equal(np.einsum("ijl,lk->ijk", EPS, N), g.structure_constants)
    assert np.array_equal(x[9:], [*g.theta, beta.value])


@settings(max_examples=200, deadline=None)
@given(geometries())
def test_quadratic_form_is_the_two_formulas(case):
    # the quadratic form r(x) that gt_coefficients reads off F is
    # gt_residual_vector, and the closed form F = 2 cof(b) - N b is
    # killing_curvature, each to rounding
    g, beta = case
    assert gt_defect(g, beta) < 1e-13
    assert curvature_defect(g, beta) < 1e-13


def chain_form_24():
    """24 Q (13, 13, 13) of the tensor chain's gt_residual_vector, polarized at the 91 points, unrounded."""
    return chain_polarization(lambda x: gt_residual_vector(*geometry_at(x)), 13)


# sha256 of 24 Q (13, 13, 13), C order, as v0.25.0 stored it in rows 0-12 of its
# (85, 13, 13) table: 313 nonzero integers and 111 zeros of negative sign
GT_FORM_V0_25_0 = "811f9652ec01df6ffc2be891bdc65acc3ba5122131bd268fcd93eaebde4f7162"


def test_quadratic_form_is_24ths_of_integers():
    # the chain's residuals, polarized, are 24ths of integers to 1e-12, and
    # rounded they are the table that v0.25.0 to v0.28.0 stored, bit for bit
    Q24 = chain_form_24()
    assert np.max(np.abs(Q24 - np.rint(Q24))) <= 1e-12
    Q24 = np.rint(Q24)
    assert np.array_equal(Q24, np.swapaxes(Q24, 1, 2))
    assert hashlib.sha256(Q24.tobytes()).hexdigest() == GT_FORM_V0_25_0


def covariant_gt_sum(x, mutant=None):
    """The 13 Gauduchon-Tod residuals at x (13,) in Fractions, by sums of N, theta and beta alone.

    With [theta]x w = theta x w and N = n + [a]x (bianchi_split, a = (M[2, 1], M[0, 2],
    M[1, 0]), M = (N - N^T) / 2):
        S = N N^T + N N - (tr N) N + theta theta^T + N^T [theta]x,  sym0 Ric = sym0 S,
        R = tr(N N) - 2 tr(N N^T) + (tr N)^2 / 2 - 2 |theta|^2 + 8 a.theta,
        4 nabla beta - *F = N theta - 4 beta theta.
    mutant "cross" drops N^T [theta]x, and "a" flips the sign of 8 a.theta.
    """
    x = [Fraction(v) for v in x]
    N, th, beta = [x[0:3], x[3:6], x[6:9]], x[9:12], x[12]
    NT = [list(col) for col in zip(*N)]
    mul = lambda A, B: [[sum(A[i][j] * B[j][k] for j in range(3)) for k in range(3)] for i in range(3)]
    cross = [[0, -th[2], th[1]], [th[2], 0, -th[0]], [-th[1], th[0], 0]]
    NNt, NN, NTc = mul(N, NT), mul(N, N), mul(NT, cross)
    tr = N[0][0] + N[1][1] + N[2][2]
    S = [[NNt[i][k] + NN[i][k] - tr * N[i][k] + th[i] * th[k] + (mutant != "cross") * NTc[i][k]
          for k in range(3)] for i in range(3)]
    trS = S[0][0] + S[1][1] + S[2][2]
    sym0_ric = [(S[i][k] + S[k][i]) / 2 - (i == k) * trS / 3 for i in range(3) for k in range(3)]
    a = [(N[2][1] - N[1][2]) / 2, (N[0][2] - N[2][0]) / 2, (N[1][0] - N[0][1]) / 2]
    a_theta = a[0] * th[0] + a[1] * th[1] + a[2] * th[2]
    scalar = (sum(NN[i][i] for i in range(3)) - 2 * sum(NNt[i][i] for i in range(3)) + tr * tr / 2
              - 2 * sum(t * t for t in th) + (-8 if mutant == "a" else 8) * a_theta)
    monopole = [sum(N[i][k] * th[k] for k in range(3)) - 4 * beta * th[i] for i in range(3)]
    return sym0_ric + [scalar - 24 * beta * beta] + monopole


def polarized_24(residuals):
    """24 Q (13, 13, 13) in Fractions of a quadratic r(x) (13,), from its values at e_k and e_k + e_l."""
    n = 13
    eye = np.eye(n)
    diag = [residuals(e) for e in eye]
    Q = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(k, n):
            rows = diag[k] if k == l else [(v - p - q) / 2 for v, p, q in
                                           zip(residuals(eye[k] + eye[l]), diag[k], diag[l])]
            for r in range(n):
                Q[r][k][l] = Q[r][l][k] = 24 * rows[r]
    return Q


def test_quadratic_form_is_the_covariant_sum():
    # the form is polarized from the tensor chain; the covariant sum of N, theta
    # and beta is an independent route to it, exact in Fractions, and each of
    # its two theta-N couplings is needed; gt_coefficients, in Fractions, is
    # the same form read off the Killing curvature
    want = [[[Fraction(v) for v in row] for row in block] for block in np.rint(chain_form_24()).tolist()]
    assert polarized_24(covariant_gt_sum) == want
    for mutant in ("cross", "a"):
        assert polarized_24(lambda x: covariant_gt_sum(x, mutant)) != want
    assert polarized_24(lambda x: gt_coefficients([Fraction(v) for v in x])) == want


def exact_rational_coordinates(rng, count):
    """count points x (13,) of small rationals as Fractions: N a Lie algebra for even t, generic (not one) for odd t.

    The Lie algebras alternate between symmetric N (unimodular, a = 0) and
    n = [[p, q, 0], [q, r, 0], [0, 0, 0]] with a = (0, 0, a3), so n a = 0 exactly.
    """
    out = []
    for t in range(count):
        x = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-40, 41, 13), rng.integers(1, 17, 13))]
        if t % 2 == 0:
            N = [x[0:3], x[3:6], x[6:9]]
            if t % 4 == 0:
                N = [[N[i][j] + N[j][i] for j in range(3)] for i in range(3)]
            else:
                p, q, r, a3, zero = x[0], x[1], x[4], x[8], Fraction(0)
                N = [[p, q + a3, zero], [q - a3, r, zero], [zero, zero, zero]]
            x[0:9] = [v for row in N for v in row]
            assert geometry._jacobi_vector(N) == [0, 0, 0]
        out.append(x)
    return out


# mutants of gt_coefficients' map: (source fragment, replacement)
GT_MAP_MUTANTS = {
    "drop 2 n a": ("4 * v + 2 * w", "4 * v"),
    "+4 tr F": ("[-4 * trace]", "[4 * trace]"),
    "1/3 for 2/3": ("2 * trace / 3", "trace / 3"),
    "flipped ax F": ("4 * v + 2 * w", "-4 * v + 2 * w"),
}


def mutated_gt_coefficients(fragment, replacement):
    """geometry.gt_coefficients with one source fragment replaced, compiled in geometry's namespace."""
    source = inspect.getsource(geometry.gt_coefficients)
    assert source.count(fragment) == 1
    namespace = dict(vars(geometry))
    exec(source.replace(fragment, replacement), namespace)
    return namespace["gt_coefficients"]


def gt_map_mismatches(formula, points):
    """The points x (Fractions) where formula(x) is not covariant_gt_sum(x) exactly."""
    return [x for x in points if formula(x) != covariant_gt_sum(x)]


def test_gt_coefficients_are_the_covariant_sum_in_fractions():
    # exact on random rationals, half of them with an N that is no Lie
    # algebra: the map from F is an identity in x; each mutant of the map
    # (the Jacobi term dropped, +4 tr F, 1/3 for 2/3, ax F of the wrong sign)
    # fails it, and the mutant that drops the Jacobi term passes on Lie algebras alone
    points = exact_rational_coordinates(np.random.default_rng(40), 200)
    assert gt_map_mismatches(gt_coefficients, points) == []
    for name, (fragment, replacement) in GT_MAP_MUTANTS.items():
        mismatches = gt_map_mismatches(mutated_gt_coefficients(fragment, replacement), points)
        assert mismatches, name
        if name == "drop 2 n a":
            assert all(geometry._jacobi_vector([x[0:3], x[3:6], x[6:9]]) != [0, 0, 0] for x in mismatches)


def test_quadratic_form_broken_entry_fails():
    # one coefficient off by 1/24 breaks the agreement with the formula
    Q = np.rint(chain_form_24()) / 24.0
    rng = np.random.default_rng(31)
    g, beta = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)), WeightedDensity(0.4)
    assert gt_defect(g, beta, lambda x: (Q @ x) @ x) < 1e-13
    Q[np.unravel_index(np.argmax(np.abs(Q)), Q.shape)] += 1.0 / 24.0
    assert gt_defect(g, beta, lambda x: (Q @ x) @ x) > 1e-3


def test_analyze_and_flatness_read_the_closed_forms():
    # analyze's blocks are the exact residuals (the covariant sum, in
    # Fractions) and flatness the largest entry of R^beta, each over scale^2
    # to rounding; on Milnor frames and on random N, which need not satisfy
    # Jacobi: both formulas are identities in x
    rng = np.random.default_rng(32)
    for t in range(100):
        if t % 2:
            x = rng.uniform(-2, 2, 13)
            g, beta = geometry.HomogeneousWeylGeometry(x[:9].reshape(3, 3), x[9:12]), WeightedDensity(x[12])
        else:
            g = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3))
            beta = WeightedDensity(float(rng.uniform(-1, 1)))
        s2 = Fraction(residual_scale(g, beta)) ** 2
        want = [abs(v) / s2 for v in covariant_gt_sum(form_coordinates(g, beta))]
        rep = analyze(g, beta)
        got = [rep.n_ew, rep.n_scal, rep.n_star]
        blocks = [float(max(want[:9])), float(want[9]), float(max(want[10:13]))]
        assert np.max(np.abs(np.subtract(got, blocks))) < 1e-14
        curv = np.max(np.abs(killing_curvature(g, beta).curvature)) / float(s2)
        assert abs(flatness(g, beta) - curv) < 1e-14


def test_flatness_reads_no_form(monkeypatch):
    # flatness is the largest entry modulus of the closed form, |F[l, 2]| and
    # hypot(F[l, 0], F[l, 1]) in E's basis, and reads it with the
    # Gauduchon-Tod map gone
    g = milnor_geometry((2.0, 2.0, 1.9), (0.1, 0.0, 0.3))
    beta = WeightedDensity(0.45)
    x, e, m = prescaled(g, beta)
    assert x == np.ldexp(form_coordinates(g, beta), -e).tolist()
    F = curvature_coefficients(x)
    moduli = [abs(row[2]) for row in F] + [np.hypot(row[0], row[1]) for row in F]
    monkeypatch.setattr(geometry, "gt_coefficients", None)
    assert flatness(g, beta) == max(moduli) / (m * m)


def test_geometry_imports_nothing_from_spinconn():
    # b, its curvature F and the Gauduchon-Tod map are closed forms in x, and
    # c is built from N by index assignment: geometry reads nothing of
    # spinconn or clifford
    tree = ast.parse(inspect.getsource(geometry))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"errors", "tensors"}
    assert not hasattr(geometry, "form_rows")


PERMUTATION_SIGNS = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]


def test_cofactor_is_exact_in_fractions():
    # cof(M)^T M = det(M) Id exactly, on random integer matrices, symmetric or not
    rng = np.random.default_rng(35)
    for _ in range(200):
        M = [[Fraction(int(v)) for v in row] for row in rng.integers(-50, 51, (3, 3))]
        if rng.integers(2):
            M = [[M[i][j] + M[j][i] for j in range(3)] for i in range(3)]
        cof = geometry.cofactor(M)
        det = sum(M[0][j] * cof[0][j] for j in range(3))
        assert det == sum(s * M[0][p] * M[1][q] * M[2][r] for (p, q, r), s in PERMUTATION_SIGNS)
        for j in range(3):
            for k in range(3):
                assert sum(cof[i][j] * M[i][k] for i in range(3)) == (det if j == k else 0)


def jacobi_oracle(c):
    """max|[[e_i, e_j], e_k] + cyclic| over all 81 entries, by the tensor sum."""
    term = np.einsum("ijm,mkn->ijkn", c, c)
    total = term + np.einsum("jkin->ijkn", term) + np.einsum("kijn->ijkn", term)
    return float(np.max(np.abs(total)))


def test_jacobi_defect_is_twice_n_a():
    # |Jacobi| = 2 max|n a| for every N, Jacobi or not, to rounding
    rng = np.random.default_rng(34)
    for _ in range(500):
        N = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3)
        want = jacobi_oracle(np.einsum("ijl,lk->ijk", EPS, N))
        assert want > 0.0
        assert abs(_jacobi_defect(N) - want) <= 1e-14 * want
    # exactly 0.0 on Milnor frames, where n is diagonal and a = 0
    for lam in rng.standard_normal((50, 3)):
        g = milnor_geometry(lam)
        assert _jacobi_defect(g.N) == 0.0 == jacobi_oracle(g.structure_constants)


@pytest.mark.parametrize("k", [-1000, -540, 540, 1000])
def test_normalized_residuals_keep_their_bits_under_power_of_two_rescaling(k):
    # 2^k times a Berger geometry: the prescaled coordinates are the same
    # bits at every k, so are the normalized residuals, even where scale^2
    # (2^(2k) times about 4) over- or underflows
    lam, theta = (2.0, 2.0, 1.9985228041705743), (0.0, 0.0, 0.054334239217389883)
    b = 0.49963070104264679
    g, beta = milnor_geometry(lam, theta), WeightedDensity(b)
    g2 = milnor_geometry(np.ldexp(lam, k), np.ldexp(theta, k))
    beta2 = WeightedDensity(float(np.ldexp(b, k)))
    rep, rep2 = analyze(g, beta), analyze(g2, beta2)
    assert (rep2.n_ew, rep2.n_scal, rep2.n_star) == (rep.n_ew, rep.n_scal, rep.n_star)
    assert rep2.verdict and flatness(g2, beta2) == flatness(g, beta)
