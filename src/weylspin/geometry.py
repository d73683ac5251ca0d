"""Homogeneous 3-dimensional Weyl geometries in a fixed gauge.

A geometry is a pair (N, theta): an orthonormal frame of the gauge metric with
[e_i, e_j] = sum_k c^k_ij e_k, c^k_ij = sum_l eps_ijl N[l, k] as for every
3-dimensional Lie algebra (Milnor; Ellis-MacCallum), and the Weyl 1-form theta
in that frame. c[i,j,k] = c^k_ij is derived from N once per geometry, for the
tensor chain. All coefficients are constants, so every curvature quantity is
exact finite-dimensional algebra.

Every Gauduchon-Tod residual is a homogeneous quadratic form in the 13
coordinates x = (N, theta, beta) of (g, beta): analyze evaluates one cached
form, built from gt_residual_vector, on x prescaled by a power of two
(prescaled, which flatness and killing read too), so its normalized residuals
are the same at every finite scale, and holds them below TOLERANCE.
residual_scale is the one unit: every residual (weight -2) is read in scale^2.

Sign and trace conventions (pinned by the curvature-decomposition and
flatness-equivalence audits, see docs/CONVENTIONS.md):

  * nabla g = -2 theta (x) g, so
    Gamma^k_ij = 1/2 (c^k_ij - c^i_jk + c^j_ki)
                 + theta_i d_jk + theta_j d_ik - d_ij theta_k
  * R4[i,j,k,l] = c(R(e_i,e_j) e_k, e_l),  Ric_xy = sum_z R4[z,x,y,z]
  * F_ij = -sum_k theta_k c^k_ij  (the exterior derivative of theta)
  * (nabla beta)_i = -theta_i beta  for a frame-constant density of weight -1
"""

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import JacobiViolation, ShapeError
from .tensors import NEXT, PREV, hodge_star, sym0

_ID3 = np.eye(3)
TOLERANCE = 1e-9  # analyze's default bound on each normalized Gauduchon-Tod residual


@dataclass(frozen=True, eq=False)
class HomogeneousWeylGeometry:
    """(N, theta) with c^k_ij = sum_l eps_ijl N[l, k]; either may carry the same leading batch axes."""

    N: np.ndarray  # (..., 3, 3), units 1/length
    theta: np.ndarray  # (..., 3), units 1/length

    @functools.cached_property
    def structure_constants(self):
        """Read-only c (..., 3, 3, 3), c[i,j,k] = c^k_ij, exactly antisymmetric in (i, j).

        c[l + 1, l + 2] = N[l] (indices mod 3, tensors.NEXT and PREV), and c[j, i] = -c[i, j].
        """
        c = np.zeros(self.N.shape[:-2] + (3, 3, 3))
        c[..., NEXT, PREV, :] = self.N
        c[..., PREV, NEXT, :] = -self.N
        c.setflags(write=False)
        return c


@dataclass(frozen=True)
class WeightedDensity:
    """A frame-constant density beta of conformal weight -1, the only weight it takes."""

    value: float  # units 1/length
    weight: float = -1.0

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ShapeError("density value must be finite")
        if self.weight != -1:
            raise ShapeError(f"beta must have weight -1, got weight {self.weight}")


@dataclass(frozen=True, eq=False)
class CurvaturePackage:
    full_curvature: np.ndarray  # (3,3,3,3)
    ricci: np.ndarray  # (3,3), possibly non-symmetric
    sym0_ricci: np.ndarray  # (3,3)
    scalar: float
    faraday: np.ndarray  # (3,3) antisymmetric
    ric_n: np.ndarray  # (3,3)
    ric_prime: np.ndarray  # (3,3)


@dataclass(frozen=True)
class GTReport:
    """Gauduchon-Tod residuals over residual_scale^2: Einstein-Weyl, scalar pinning, monopole."""

    n_ew: float
    n_scal: float
    n_star: float
    tolerance: float
    verdict: bool


def bianchi_split(N):
    """(n, a) with N = n + [a]x, n symmetric bit for bit, as Python floats (Milnor; Ellis-MacCallum).

    n = N/2 + N^T/2, a = (M[2, 1], M[0, 2], M[1, 0]), M = N/2 - N^T/2; for c^k_ij =
    sum_l eps_ijl N[l, k] the Jacobi identity holds exactly when n a = 0.
    """
    n = [[0.5 * N[i][j] + 0.5 * N[j][i] for j in range(3)] for i in range(3)]
    return n, [0.5 * N[i][j] - 0.5 * N[j][i] for i, j in ((2, 1), (0, 2), (1, 0))]


def cofactor(M):
    """cof(M) (3 lists of 3 floats) of M (3 rows of 3 floats): row i is M[i+1] x M[i+2] (indices mod 3).

    cof(M)^T M = det(M) Id, and a symmetric M's cofactor matrix is its adjugate.
    """
    (a, b, c), (d, e, f), (g, h, i) = M
    return [[e * i - f * h, f * g - d * i, d * h - e * g],
            [h * c - i * b, i * a - g * c, g * b - h * a],
            [b * f - c * e, c * d - a * f, a * e - b * d]]


def _jacobi_defect(N):
    """max|[[e_i, e_j], e_k] + cyclic| of c^k_ij = sum_l eps_ijl N[l, k], which is 2 max|n a| (bianchi_split)."""
    n, a = bianchi_split(N.tolist())
    return 2.0 * max(abs(row[0] * a[0] + row[1] * a[1] + row[2] * a[2]) for row in n)


def _finite_theta(values, theta):
    """(theta as a new read-only float array (3,), max|values|); ShapeError unless both are finite."""
    th = np.array(theta, dtype=float)
    if th.shape != (3,):
        raise ShapeError(f"theta must have shape (3,), got {th.shape}")
    scale = np.abs(values).max()  # not finite exactly when some entry is not
    if not (math.isfinite(scale) and np.isfinite(th).all()):
        raise ShapeError("geometry data must be finite")
    th.setflags(write=False)
    return th, scale


def validate_geometry(structure_constants, theta):
    """Build a validated geometry from raw arrays, structure constants c (3,3,3) and theta (3,).

    Both bounds are relative to the scale s = max|c|, so a valid frame passes
    at any scale: antisymmetry violations up to 1e-12 s are symmetrized away,
    larger ones are rejected, and the Jacobi identity must hold to 1e-10 s^2.
    The Jacobi defect is taken of N / 2^e, with s = m 2^e and 1/2 <= m < 1,
    against 1e-10 m^2: the same verdict wherever s^2 is a normal float, and
    no over- or underflow of the quadratic defect at any finite scale. The
    antisymmetric part is A = c - (c + c^T) / 2, which stays finite up to the
    float maximum and keeps the bits of an exactly antisymmetric c; N is read
    off its entries above the diagonal, N = (A[1, 2], -A[0, 2], A[0, 1]).
    """
    c = np.asarray(structure_constants, dtype=float)
    if c.shape != (3, 3, 3):
        raise ShapeError(f"structure constants must have shape (3,3,3), got {c.shape}")
    th, scale = _finite_theta(c, theta)
    with np.errstate(over="ignore"):  # a sum that overflows is a skew above any bound
        sym = c + np.swapaxes(c, 0, 1)
    skew = np.max(np.abs(sym))
    if skew > 1e-12 * scale:
        raise ShapeError(f"structure constants not antisymmetric in the lower pair ({skew:.3e})")
    A = c - 0.5 * sym
    N = np.stack([A[1, 2], -A[0, 2], A[0, 1]])
    m, e = math.frexp(scale)
    defect = _jacobi_defect(np.ldexp(N, -e))
    if not defect <= 1e-10 * m * m:
        raise JacobiViolation(f"Jacobi identity fails by {defect / (m * m):.3e} max|c|^2")
    N.setflags(write=False)
    return HomogeneousWeylGeometry(N, th)


def milnor_geometry(lam, theta=(0.0, 0.0, 0.0)):
    """The geometry of a Milnor frame, N = diag(lam), c^k_ij = lam_k eps_ijk, with Weyl form theta.

    N is symmetric, so the Jacobi identity holds by construction, and of
    validate_geometry's checks only shape and finiteness run.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ShapeError(f"need three Milnor parameters, got shape {lam.shape}")
    th, _ = _finite_theta(lam, theta)
    N = np.diag(lam)
    N.setflags(write=False)
    return HomogeneousWeylGeometry(N, th)


def weyl_connection(g):
    """Connection coefficients Gamma[i,j,k] = Gamma^k_ij of the Weyl connection.

    Torsion-free for the bracket (Gamma^k_ij - Gamma^k_ji = c^k_ij) and
    conformally metric with nabla g = -2 theta (x) g. Like every formula from
    here to gt_residual_vector (and spinconn's), it also takes a geometry
    whose arrays carry leading batch axes, with a density whose value is an
    array over the same axes, and gives each row the unbatched result.
    """
    # halving c first, and one nonzero term per entry of the theta part, keeps every
    # partial sum within max|c|; halving is exact wherever nothing is subnormal
    half = 0.5 * g.structure_constants
    th = g.theta
    lc = half - np.einsum("...jki->...ijk", half) + np.einsum("...kij->...ijk", half)
    wt = np.einsum("...i,jk->...ijk", th, _ID3) + (
        np.einsum("...j,ik->...ijk", th, _ID3) - np.einsum("ij,...k->...ijk", _ID3, th)
    )
    return lc + wt


def curvature_package(g):
    """All curvature data of the Weyl structure in the frame.

    The full curvature satisfies the decomposition
        R4 = Ric^N kn c + F (x) c
    with Ric^N = -sym0 Ric - (1/12) R c + (1/2) F, which the tests check.
    """
    gamma = weyl_connection(g)
    c = g.structure_constants
    r4 = (
        np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
        - np.einsum("...ikm,...jml->...ijkl", gamma, gamma)
        - np.einsum("...ijm,...mkl->...ijkl", c, gamma)
    )
    ric = np.einsum("...zxyz->...xy", r4)
    scal = ric.trace(axis1=-2, axis2=-1)
    faraday = -np.einsum("...k,...ijk->...ij", g.theta, c)
    s0 = sym0(ric, ric.ndim - 2)
    scal_id = scal[..., None, None]
    ric_n = -s0 - (scal_id / 12.0) * _ID3 + 0.5 * faraday
    ric_prime = s0 + (scal_id / 3.0) * _ID3 - 0.5 * faraday
    return CurvaturePackage(
        full_curvature=r4,
        ricci=ric,
        sym0_ricci=s0,
        scalar=scal if scal.ndim else float(scal),
        faraday=faraday,
        ric_n=ric_n,
        ric_prime=ric_prime,
    )


def density_derivative(g, beta):
    """(nabla beta)_i = -theta_i beta for a frame-constant density of weight -1.

    The sign is the one under which vanishing Gauduchon-Tod residuals and
    flatness of the Killing connection coincide (the opposite sign fails that
    audit).
    """
    return -g.theta * np.asarray(beta.value)[..., None]


def gauge_rescale(g, beta, s):
    """Constant gauge change g -> e^{2s} g.

    The orthonormal frame rescales by e^{-s}, hence structure constants,
    theta and the weight -1 density beta all pick up e^{-s}. All
    dimensionless verdicts are invariant.
    """
    f = float(np.exp(-s))
    return validate_geometry(g.structure_constants * f, g.theta * f), WeightedDensity(beta.value * f)


def gt_residual_vector(g, beta):
    """Stacked Gauduchon-Tod residuals: sym0 Ric (9), R - 24 beta^2, 4 grad - *F (3)."""
    pkg = curvature_package(g)
    grad = density_derivative(g, beta)
    batch = pkg.ricci.shape[:-2]
    star_f = hodge_star(pkg.faraday, len(batch))
    return np.concatenate(
        [
            pkg.sym0_ricci.reshape(batch + (9,)),
            np.asarray(pkg.scalar - 24.0 * beta.value * beta.value)[..., None],
            4.0 * grad - star_f,
        ],
        axis=-1,
    )


@functools.lru_cache(maxsize=1)
def residual_scale(g, beta):
    """The geometry's unit of 1/length: max coefficient magnitude, and 1 for the zero geometry.

    Weight -2 residuals are normalized by its square, and loop lengths and
    killing_residual's step are taken in its inverse. The zero geometry has
    all residuals 0, so its scale of 1 leaves them as they are. Computed once
    per (immutable) geometry and density, for analyze, flatness and killing.
    """
    scale = max(np.max(np.abs(g.N)), np.max(np.abs(g.theta)), abs(beta.value))
    return float(scale) or 1.0


def form_coordinates(g, beta):
    """x (13,) = (N.ravel(), theta, beta.value).

    c and Gamma are linear in x; R4, F, nabla beta and 24 beta^2 are quadratic.
    """
    return np.concatenate((g.N.ravel(), g.theta, (beta.value,)))


def prescaled(g, beta):
    """(x, e, m): x = form_coordinates / 2^e as 13 Python floats, residual_scale = m 2^e, 1/2 <= m < 1.

    Dividing by 2^e is exact wherever the result is a normal float, so a weight -2 residual at x over
    m^2 keeps the bits of residual / scale^2, finite and nonzero where scale^2 would over- or underflow.
    """
    m, e = math.frexp(residual_scale(g, beta))
    return np.ldexp(form_coordinates(g, beta), -e).tolist(), e, m


@functools.lru_cache(maxsize=1)
def quadratic_form_24():
    """Read-only 24 Q (13, 13, 13), integers, symmetric in its last two axes: r(x) = (Q @ x) @ x.

    r(x) is gt_residual_vector at x = form_coordinates(g, beta). Each row is a
    homogeneous quadratic in x, so Q is fixed by its values at the 91 points
    e_k and e_k + e_l (k < l), which one batched evaluation gives:
        Q[:, k, k] = r(e_k),  Q[:, k, l] = (r(e_k + e_l) - r(e_k) - r(e_l)) / 2.
    Every coefficient is a multiple of 1/24, so 24 Q is rounded to the
    integers it is, which drops the rounding of the evaluations (about 1e-16
    where the exact coefficient is 0); a polarized 24 Q more than 1e-12 from
    integers is refused. Built on first use, not at import.
    """
    n = 13  # coordinates
    eye = np.eye(n)
    k, l = np.triu_indices(n, 1)
    x = np.concatenate([eye, eye[k] + eye[l]])
    g = HomogeneousWeylGeometry(x[:, :9].reshape(-1, 3, 3), x[:, 9:12])
    r = 24.0 * gt_residual_vector(g, SimpleNamespace(value=x[:, 12])).T  # it reads only beta.value
    diag = r[:, :n]
    polarized = np.empty((len(r), n, n))
    polarized[:, range(n), range(n)] = diag
    polarized[:, k, l] = polarized[:, l, k] = 0.5 * (r[:, n:] - diag[:, k] - diag[:, l])
    form = np.rint(polarized)
    defect = float(np.max(np.abs(polarized - form)))
    if not defect <= 1e-12:
        raise RuntimeError(f"polarized 24 Q is {defect:.3e} from integers")
    form.setflags(write=False)
    return form


def _blocks(residuals):
    """max|.| of the three Gauduchon-Tod blocks of 13 residuals: sym0 Ric, scalar, monopole."""
    r = np.abs(residuals)
    return np.array([r[:9].max(), r[9], r[10:].max()])


def _report(scaled, m, tolerance):
    """GTReport from the block maxima scaled = raw / 2^(2e), with residual_scale = m 2^e (prescaled)."""
    n_ew, n_scal, n_star = (scaled / (m * m)).tolist()
    return GTReport(n_ew, n_scal, n_star, tolerance, max(n_ew, n_scal, n_star) < tolerance)


def gt_report(g, beta, residuals):
    """analyze's report, at TOLERANCE, on the given residuals (13,) of (g, beta).

    find_gt_parameters passes gt_residual_vector's, so that a root of its quadratic form is
    confirmed by the formula, never by a form; only prescaled's (e, m) are read, no coordinates.
    """
    m, e = math.frexp(residual_scale(g, beta))
    return _report(np.ldexp(_blocks(residuals), -2 * e), m, TOLERANCE)


def analyze(g, beta, tolerance=TOLERANCE):
    """Gauduchon-Tod residual report for (g, beta).

    The max-norms of the three blocks of gt_residual_vector, each divided by
    residual_scale^2 (all three have conformal weight -2):
        n_ew   = ||sym0 Ric|| / scale^2
        n_scal = |R - 24 beta^2| / scale^2
        n_star = ||4 nabla beta - *F|| / scale^2
    The verdict is True when every one is below the tolerance. They are the
    rows of quadratic_form_24 / 24 at x = form_coordinates / 2^e over m^2,
    (x, e, m) = prescaled(g, beta), so they are finite at every finite scale.
    """
    x, _, m = prescaled(g, beta)
    return _report(_blocks((quadratic_form_24() @ x) @ x / 24.0), m, tolerance)
