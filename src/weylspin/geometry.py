"""Homogeneous 3-dimensional Weyl geometries in a fixed gauge.

A geometry is a pair (N, theta): an orthonormal frame of the gauge metric with
[e_i, e_j] = sum_k c^k_ij e_k, c^k_ij = sum_l eps_ijl N[l, k] as for every
3-dimensional Lie algebra (Milnor; Ellis-MacCallum), and the Weyl 1-form theta
in that frame. c[i,j,k] = c^k_ij is derived from N once per geometry, for the
tensor chain. All coefficients are constants, so every curvature quantity is
exact finite-dimensional algebra.

The Killing connection b (killing_coefficients), its curvature F = 2 cof(b) - N b
(curvature_coefficients) and the 13 Gauduchon-Tod residuals, a fixed linear map of
F plus a Jacobi term (gt_coefficients), are closed forms in the coordinates
x = (N, theta, beta) of (g, beta). analyze reads the residuals, and spinconn.flatness
the curvature, at x prescaled by a power of two (prescaled, which killing reads too),
so they are the same at every finite scale; analyze holds them below TOLERANCE.
residual_scale is the one unit: every residual (weight -2) is read in scale^2. The
tensor chain, weyl_connection to gt_residual_vector, is what the tests hold these
closed forms to; no command runs it.

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

import numpy as np

from .errors import JacobiViolation, ShapeError
from .tensors import NEXT, PREV, hodge_star, sym0

_ID3 = np.eye(3)
TOLERANCE = 1e-9  # analyze's default bound on each normalized Gauduchon-Tod residual


@dataclass(frozen=True, eq=False)
class HomogeneousWeylGeometry:
    """(N, theta) with c^k_ij = sum_l eps_ijl N[l, k]."""

    N: np.ndarray  # (3, 3), units 1/length
    theta: np.ndarray  # (3,), units 1/length

    @functools.cached_property
    def structure_constants(self):
        """Read-only c (3, 3, 3), c[i,j,k] = c^k_ij, exactly antisymmetric in (i, j).

        c[l + 1, l + 2] = N[l] (indices mod 3, tensors.NEXT and PREV), and c[j, i] = -c[i, j].
        """
        c = np.zeros((3, 3, 3))
        c[NEXT, PREV] = self.N
        c[PREV, NEXT] = -self.N
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
    """(n, a) with N = n + [a]x, n symmetric bit for bit, as lists (Milnor; Ellis-MacCallum).

    n = N/2 + N^T/2, a = (M[2, 1], M[0, 2], M[1, 0]), M = N/2 - N^T/2; for c^k_ij =
    sum_l eps_ijl N[l, k] the Jacobi identity holds exactly when n a = 0.
    """
    n = [[N[i][j] / 2 + N[j][i] / 2 for j in range(3)] for i in range(3)]
    return n, [N[i][j] / 2 - N[j][i] / 2 for i, j in ((2, 1), (0, 2), (1, 0))]


def cofactor(M):
    """cof(M) (3 lists of 3 floats) of M (3 rows of 3 floats): row i is M[i+1] x M[i+2] (indices mod 3).

    cof(M)^T M = det(M) Id, and a symmetric M's cofactor matrix is its adjugate.
    """
    (a, b, c), (d, e, f), (g, h, i) = M
    return [[e * i - f * h, f * g - d * i, d * h - e * g],
            [h * c - i * b, i * a - g * c, g * b - h * a],
            [b * f - c * e, c * d - a * f, a * e - b * d]]


def _jacobi_vector(N):
    """n a (3,) of N = n + [a]x (bianchi_split), 0 exactly where c^k_ij = sum_l eps_ijl N[l, k] is a Lie algebra."""
    n, a = bianchi_split(N)
    return [row[0] * a[0] + row[1] * a[1] + row[2] * a[2] for row in n]


def _jacobi_defect(N):
    """max|[[e_i, e_j], e_k] + cyclic| of c^k_ij = sum_l eps_ijl N[l, k], which is 2 max|n a| (_jacobi_vector)."""
    return 2.0 * max(map(abs, _jacobi_vector(N.tolist())))


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
    conformally metric with nabla g = -2 theta (x) g.
    """
    # halving c first, and one nonzero term per entry of the theta part, keeps every
    # partial sum within max|c|; halving is exact wherever nothing is subnormal
    half = 0.5 * g.structure_constants
    th = g.theta
    lc = half - np.einsum("jki->ijk", half) + np.einsum("kij->ijk", half)
    wt = np.einsum("i,jk->ijk", th, _ID3) + (
        np.einsum("j,ik->ijk", th, _ID3) - np.einsum("ij,k->ijk", _ID3, th)
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
        np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("ijm,mkl->ijkl", c, gamma)
    )
    ric = np.einsum("zxyz->xy", r4)
    scal = float(ric.trace())
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


def density_derivative(g, beta):
    """(nabla beta)_i = -theta_i beta for a frame-constant density of weight -1.

    The sign is the one under which vanishing Gauduchon-Tod residuals and
    flatness of the Killing connection coincide (the opposite sign fails that
    audit).
    """
    return -g.theta * beta.value


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
    scalar = pkg.scalar - 24.0 * beta.value * beta.value
    monopole = 4.0 * density_derivative(g, beta) - hodge_star(pkg.faraday)
    return np.concatenate([pkg.sym0_ricci.ravel(), [scalar], monopole])


@functools.lru_cache(maxsize=1)
def residual_scale(g, beta):
    """The geometry's unit of 1/length, scale_of(form_coordinates): max|coefficient|, 1 for the zero geometry.

    Weight -2 residuals are normalized by its square, and loop lengths and
    killing_residual's step are taken in its inverse. The zero geometry has
    all residuals 0, so its scale of 1 leaves them as they are. Computed once
    per (immutable) geometry and density, for analyze, flatness and killing.
    """
    return scale_of(form_coordinates(g, beta))


def scale_of(x):
    """max|x_k| over the coordinates x, and 1 where every one is 0."""
    return float(np.max(np.abs(x))) or 1.0


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


def killing_coefficients(x):
    """b (3 lists of 3): B_i = sum_k b[i][k] q_k, q_k = -e_k, in closed form at x = (N, theta, beta) (13,).

    b = (tr N / 4 + beta) Id - N^T / 2 - [theta]x / 2, [theta]x w = theta x w, is the
    chain Gamma -> a -> A - beta E summed by hand (docs/CONVENTIONS.md), in x's own
    arithmetic, as are curvature_coefficients and gt_coefficients: on Python floats the
    diagonal, (N_jj + N_kk - N_ii) / 4 + beta, rounds like the chain, and on Fractions
    every value is exact.
    """
    n11, n12, n13, n21, n22, n23, n31, n32, n33, t1, t2, t3, beta = x
    return [[(n22 + n33 - n11) / 4 + beta, -(n21 - t3) / 2, -(n31 + t2) / 2],
            [-(n12 + t3) / 2, (n33 + n11 - n22) / 4 + beta, -(n32 - t1) / 2],
            [-(n13 - t2) / 2, -(n23 + t1) / 2, (n11 + n22 - n33) / 4 + beta]]


def curvature_coefficients(x):
    """F = 2 cof(b) - N b (3 lists of 3): R^beta_(l+1, l+2) = sum_k F[l, k] q_k (indices mod 3).

    b = killing_coefficients(x), [q_k, q_l] = 2 eps_klm q_m and c^k_(l+1, l+2) = N[l, k]
    at x = (N, theta, beta) (13,); R^beta_ji = -R^beta_ij and R^beta_ii = 0 are the rest.
    """
    b, N = killing_coefficients(x), (x[0:3], x[3:6], x[6:9])
    return [[2 * c - (n0 * b0 + n1 * b1 + n2 * b2) for c, b0, b1, b2 in zip(cof_row, *b)]
            for cof_row, (n0, n1, n2) in zip(cofactor(b), N)]


def gt_coefficients(x):
    """The 13 Gauduchon-Tod residuals at x (13,), in gt_residual_vector's order, read off the Killing curvature.

    With F = curvature_coefficients(x) = n_F + [a_F]x and N = n + [a]x (bianchi_split),
    they are a fixed linear map of F plus the Jacobi vector n a, for every x:
        sym0 Ric      = F + F^T - 2/3 tr F Id = 2 n_F - 2/3 tr F Id,
        R - 24 beta^2 = -4 tr F,
        4 nabla beta - *F = 2 ax F + 2 n a = 4 a_F + 2 n a,
    ax F = (F[2][1] - F[1][2], F[0][2] - F[2][0], F[1][0] - F[0][1]). So where n a = 0,
    on a Lie algebra, all 13 vanish exactly where F does: Gauduchon-Tod is flatness.
    """
    F = curvature_coefficients(x)
    n_f, a_f = bianchi_split(F)
    trace = F[0][0] + F[1][1] + F[2][2]
    sym0_ric = [2 * n_f[i][j] - (2 * trace / 3 if i == j else 0) for i in range(3) for j in range(3)]
    jacobi = _jacobi_vector((x[0:3], x[3:6], x[6:9]))
    return sym0_ric + [-4 * trace] + [4 * v + 2 * w for v, w in zip(a_f, jacobi)]


def analyze(g, beta, tolerance=TOLERANCE):
    """Gauduchon-Tod residual report for (g, beta).

    The max-norms of the three blocks of the residuals, each divided by
    residual_scale^2 (all three have conformal weight -2):
        n_ew   = ||sym0 Ric|| / scale^2
        n_scal = |R - 24 beta^2| / scale^2
        n_star = ||4 nabla beta - *F|| / scale^2
    The verdict is True when every one is below the tolerance. They are
    gt_coefficients at x = form_coordinates / 2^e over m^2, (x, e, m) =
    prescaled(g, beta), so they are finite at every finite scale.
    """
    x, _, m = prescaled(g, beta)
    r, s = [abs(v) for v in gt_coefficients(x)], m * m
    n_ew, n_scal, n_star = max(r[:9]) / s, r[9] / s, max(r[10:]) / s
    return GTReport(n_ew, n_scal, n_star, tolerance, max(n_ew, n_scal, n_star) < tolerance)
