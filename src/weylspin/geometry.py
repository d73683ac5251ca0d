"""Homogeneous 3-dimensional Weyl geometries in a fixed gauge.

A geometry is a pair (structure constants, theta): an orthonormal frame of the
gauge metric with [e_i, e_j] = sum_k c^k_ij e_k (stored as c[i,j,k] = c^k_ij)
and the Weyl 1-form theta in that frame. All coefficients are constants, so
every curvature quantity is exact finite-dimensional algebra.

Sign and trace conventions (pinned by the curvature-decomposition and
flatness-equivalence audits, see docs/CONVENTIONS.md):

  * nabla g = -2 theta (x) g, so
    Gamma^k_ij = 1/2 (c^k_ij - c^i_jk + c^j_ki)
                 + theta_i d_jk + theta_j d_ik - d_ij theta_k
  * R4[i,j,k,l] = c(R(e_i,e_j) e_k, e_l),  Ric_xy = sum_z R4[z,x,y,z]
  * F_ij = -sum_k theta_k c^k_ij  (the exterior derivative of theta)
  * (nabla beta)_i = w theta_i beta  for a frame-constant density of weight w
"""

from dataclasses import dataclass

import numpy as np

from .errors import JacobiViolation, ShapeError
from .tensors import hodge_star, kulkarni_nomizu, sym0

_ID3 = np.eye(3)


@dataclass(frozen=True, eq=False)
class HomogeneousWeylGeometry:
    structure_constants: np.ndarray  # (3,3,3), c[i,j,k] = c^k_ij, units 1/length
    theta: np.ndarray  # (3,), units 1/length


@dataclass(frozen=True)
class WeightedDensity:
    value: float  # units length^weight
    weight: float = -1.0

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ShapeError("density value must be finite")


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
    """Gauduchon-Tod residuals: Einstein-Weyl, scalar pinning, monopole."""

    r_ew: float
    r_scal: float
    r_star: float
    n_ew: float
    n_scal: float
    n_star: float
    scale: float
    tolerance: float
    verdict: bool


def _jacobi_defect(c):
    term = np.einsum("ijm,mkn->ijkn", c, c)
    total = term + np.einsum("jkin->ijkn", term) + np.einsum("kijn->ijkn", term)
    return float(np.max(np.abs(total)))


def _finite_arrays(structure_constants, theta):
    """(c, theta, max|c|): float arrays of shapes (3,3,3) and (3,) with finite entries."""
    c = np.asarray(structure_constants, dtype=float)
    th = np.asarray(theta, dtype=float)
    if c.shape != (3, 3, 3):
        raise ShapeError(f"structure constants must have shape (3,3,3), got {c.shape}")
    if th.shape != (3,):
        raise ShapeError(f"theta must have shape (3,), got {th.shape}")
    scale = np.max(np.abs(c))  # not finite exactly when some entry of c is not
    if not (np.isfinite(scale) and np.all(np.isfinite(th))):
        raise ShapeError("geometry data must be finite")
    return c, th, scale


def _read_only_geometry(c, th):
    c = c.copy()
    th = th.copy()
    c.setflags(write=False)
    th.setflags(write=False)
    return HomogeneousWeylGeometry(c, th)


def validate_geometry(structure_constants, theta):
    """Build a validated geometry from raw arrays.

    Both bounds are relative to the scale m = max|c|, so a valid frame passes
    at any scale: antisymmetry violations up to 1e-12 m are symmetrized away,
    larger ones are rejected, and the Jacobi identity must hold to 1e-10 m^2.
    """
    c, th, scale = _finite_arrays(structure_constants, theta)
    skew = np.max(np.abs(c + np.swapaxes(c, 0, 1)))
    if skew > 1e-12 * scale:
        raise ShapeError(f"structure constants not antisymmetric in the lower pair ({skew:.3e})")
    c = 0.5 * (c - np.swapaxes(c, 0, 1))
    defect = _jacobi_defect(c)
    if defect > 1e-10 * scale**2:
        raise JacobiViolation(f"Jacobi identity fails by {defect:.3e}")
    return _read_only_geometry(c, th)


def milnor_constants(lam):
    """Structure constants c^k_ij = lambda_k eps_ijk of a Milnor frame."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ShapeError(f"need three Milnor parameters, got shape {lam.shape}")
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = lam[k]
        c[j, i, k] = -lam[k]
    return c


def milnor_geometry(lam, theta=(0.0, 0.0, 0.0)):
    """The geometry of a Milnor frame with parameters lam and Weyl form theta.

    Milnor constants are antisymmetric and satisfy the Jacobi identity by
    construction, so of validate_geometry's checks only shape and finiteness run.
    """
    c, th, _ = _finite_arrays(milnor_constants(lam), theta)
    return _read_only_geometry(c, th)


def weyl_connection(g):
    """Connection coefficients Gamma[i,j,k] = Gamma^k_ij of the Weyl connection.

    Torsion-free for the bracket (Gamma^k_ij - Gamma^k_ji = c^k_ij) and
    conformally metric with nabla g = -2 theta (x) g.
    """
    c = g.structure_constants
    th = g.theta
    lc = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    wt = (
        np.einsum("i,jk->ijk", th, _ID3)
        + np.einsum("j,ik->ijk", th, _ID3)
        - np.einsum("ij,k->ijk", _ID3, th)
    )
    return lc + wt


def curvature_package(g):
    """All curvature data of the Weyl structure in the frame.

    The full curvature satisfies the decomposition
        R4 = Ric^N kn c + F (x) c
    with Ric^N = -sym0 Ric - (1/12) R c + (1/2) F, which downstream code and
    tests use as the defining cross-check.
    """
    gamma = weyl_connection(g)
    c = g.structure_constants
    r4 = (
        np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("ijm,mkl->ijkl", c, gamma)
    )
    ric = np.einsum("zxyz->xy", r4)
    scal = float(np.trace(ric))
    faraday = -np.einsum("k,ijk->ij", g.theta, c)
    s0 = sym0(ric)
    ric_n = -s0 - (scal / 12.0) * _ID3 + 0.5 * faraday
    ric_prime = s0 + (scal / 3.0) * _ID3 - 0.5 * faraday
    return CurvaturePackage(
        full_curvature=r4,
        ricci=ric,
        sym0_ricci=s0,
        scalar=scal,
        faraday=faraday,
        ric_n=ric_n,
        ric_prime=ric_prime,
    )


def decomposition_residual(pkg):
    """Max-norm defect of R4 - Ric^N kn c - F (x) c."""
    target = kulkarni_nomizu(pkg.ric_n, _ID3) + np.einsum("ij,kl->ijkl", pkg.faraday, _ID3)
    return float(np.max(np.abs(pkg.full_curvature - target)))


def density_derivative(g, beta):
    """(nabla beta)_i = w theta_i beta for a frame-constant weight-w density.

    The sign is the one under which vanishing Gauduchon-Tod residuals and
    flatness of the Killing connection coincide (the opposite sign fails that
    audit).
    """
    return beta.weight * g.theta * beta.value


def gauge_rescale(g, beta, s):
    """Constant gauge change g -> e^{2s} g.

    The orthonormal frame rescales by e^{-s}, hence structure constants and
    theta pick up e^{-s}; a weight-w density representative picks up e^{ws}.
    All dimensionless verdicts are invariant.
    """
    f = float(np.exp(-s))
    g2 = validate_geometry(g.structure_constants * f, g.theta * f)
    b2 = WeightedDensity(beta.value * float(np.exp(beta.weight * s)), beta.weight)
    return g2, b2


def gt_residual_vector(g, beta):
    """Stacked Gauduchon-Tod residuals: sym0 Ric (9), R - 24 beta^2, 4 grad - *F (3)."""
    pkg = curvature_package(g)
    grad = density_derivative(g, beta)
    star_f = hodge_star(pkg.faraday)
    return np.concatenate(
        [
            pkg.sym0_ricci.ravel(),
            [pkg.scalar - 24.0 * beta.value**2],
            4.0 * grad - star_f,
        ]
    )


def residual_scale(g, beta):
    """Scale used to normalize weight -2 residuals: max coefficient magnitude."""
    return float(
        max(
            np.max(np.abs(g.structure_constants)),
            np.max(np.abs(g.theta)),
            abs(beta.value),
        )
    )


def normalized_residual(value, g, beta):
    """value / residual_scale(g, beta)^2 for a weight -2 residual; as is for the zero geometry."""
    scale = residual_scale(g, beta)
    return value / (scale * scale) if scale > 0.0 else value


def analyze(g, beta, tolerance=1e-9):
    """Gauduchon-Tod residual report for (g, beta), beta of weight -1.

    Raw residuals (max-norm of the three blocks of gt_residual_vector):
        r_ew   = ||sym0 Ric||
        r_scal = |R - 24 beta^2|
        r_star = ||4 nabla beta - *F||
    Normalized versions are divided by residual_scale^2, as normalized_residual
    does (all three quantities have conformal weight -2), and equal the raw
    ones for the zero geometry. The verdict is True when every normalized
    residual is below the tolerance.
    """
    if beta.weight != -1:
        raise ShapeError(f"analyze needs a weight -1 density, got weight {beta.weight}")
    r = np.abs(gt_residual_vector(g, beta))
    raw = np.array([np.max(r[:9]), r[9], np.max(r[10:])])
    r_ew, r_scal, r_star = raw.tolist()
    n_ew, n_scal, n_star = normalized_residual(raw, g, beta).tolist()
    verdict = bool(max(n_ew, n_scal, n_star) < tolerance)
    scale = residual_scale(g, beta)
    return GTReport(r_ew, r_scal, r_star, n_ew, n_scal, n_star, scale, tolerance, verdict)


def kappa_from_beta(beta):
    """Sectional constant kappa = -4 beta, read in the working gauge.

    The working gauge is taken as the distinguished (invariant) one for
    homogeneous data; the conversion is only meaningful there.
    """
    if beta.weight != -1:
        raise ShapeError(f"kappa conversion needs a weight -1 density, got {beta.weight}")
    return -4.0 * beta.value
