"""Homogeneous 3-dimensional Weyl geometries in a fixed gauge.

A geometry is a pair (N, theta): an orthonormal frame of the gauge metric with
[e_i, e_j] = sum_k c^k_ij e_k, c^k_ij = sum_l eps_ijl N[l, k] as for every
3-dimensional Lie algebra (Milnor; Ellis-MacCallum), and the Weyl 1-form theta
in that frame. It is held as its 12 coordinates, Python floats; the arrays N,
theta and c[i,j,k] = c^k_ij are built on first read, for the tensor chain. All
coefficients are constants, so every curvature quantity is exact
finite-dimensional algebra.

The Killing connection b (killing_coefficients), its curvature F = 2 cof(b) - N b
(curvature_coefficients) and the 13 Gauduchon-Tod residuals, a fixed linear map of
F plus a Jacobi term (gt_coefficients), are closed forms in the coordinates
x = (N, theta, beta) of (g, beta). analyze reads the residuals, and flatness
the curvature, at x prescaled by a power of two (prescaled, which killing reads too),
so they are the same at every finite scale; analyze holds them below TOLERANCE.
residual_scale is the one unit: every residual (weight -2) is read in scale^2. The
tensor chain, weyl_connection to gt_residual_vector, is what the tests hold these
closed forms to; no command runs it.

Importing this module loads errors and the standard library's collections,
functools, math and operator, which site already loads at start-up, and no numpy.
Validation, the closed forms, analyze and flatness are arithmetic on 13 floats,
where numpy's import (about 70 ms) would cost far more than the work; so a
geometry's arrays, the tensor chain and gauge_rescale import numpy when first
called, and the command line's analyze runs without it. The records are a plain
class (HomogeneousWeylGeometry) and named tuples, not dataclasses: dataclasses and
the inspect module it imports, with the cost of building each class, were about
half of the command line's import. clifford, tensors, spinconn, identities and
killing compute with arrays and import numpy at module level.

Sign and trace conventions (pinned by the curvature-decomposition and
flatness-equivalence audits, see docs/CONVENTIONS.md):

  * nabla g = -2 theta (x) g, so
    Gamma^k_ij = 1/2 (c^k_ij - c^i_jk + c^j_ki)
                 + theta_i d_jk + theta_j d_ik - d_ij theta_k
  * R4[i,j,k,l] = c(R(e_i,e_j) e_k, e_l),  Ric_xy = sum_z R4[z,x,y,z]
  * F_ij = -sum_k theta_k c^k_ij  (the exterior derivative of theta)
  * (nabla beta)_i = -theta_i beta  for a frame-constant density of weight -1
"""

import collections
import functools
import math
import operator

from .errors import JacobiViolation, ShapeError

TOLERANCE = 1e-9  # analyze's default bound on each normalized Gauduchon-Tod residual
# entry k of a 2x2 matrix p_0 Id + sum_k p_k q_k (clifford.QUATERNION_BASIS) holds
# +-p_i +- i p_j, (i, j) = ENTRY_PAIRS[k]: one real and one imaginary unit per entry
ENTRY_PAIRS = ((0, 3), (1, 2), (1, 2), (0, 3))
# search-gt's coordinates (l1, l2, l3, theta3, beta) by name, the only names a pin takes
PIN_INDEX = {"lambda1": 0, "lambda2": 1, "lambda3": 2, "theta3": 3, "beta": 4}
# where c[j, i, k] sits in c flattened row by row (c[i, j, k] at 9 i + 3 j + k), in the order of c[i, j, k]
_TRANSPOSED = [9 * j + 3 * i + k for i in range(3) for j in range(3) for k in range(3)]


def _text(items):
    """Whether any of items is a str or bytes, which float() or iteration would read as numbers."""
    return any(issubclass(t, (str, bytes)) for t in set(map(type, items)))


def _floats(value, shape, what):
    """value as a flat list of finite Python floats, row by row; ShapeError unless it nests to shape.

    An ndarray is read through .tolist(), and any other value as nested sequences.
    Text is refused at every level: float() would read "1" as 1.0.
    """
    items = [value.tolist() if hasattr(value, "tolist") else value]
    try:
        for n in shape:
            if _text(items) or set(map(len, items)) != {n}:  # len() of a number raises TypeError
                raise TypeError(f"not {n} entries")
            items = [v for row in items for v in row]
        if _text(items):
            raise TypeError("text is not a number")
        values = list(map(float, items))
    except (TypeError, ValueError) as exc:  # a nested, missing or non-numeric entry
        raise ShapeError(f"{what} must have shape {shape}") from exc
    except OverflowError as exc:  # a number beyond the float range, such as the integer 10**400
        raise ShapeError("geometry data must be finite") from exc
    if not all(map(math.isfinite, values)):
        raise ShapeError("geometry data must be finite")
    return values


def _read_only(values):
    """values as a new read-only float array."""
    import numpy as np

    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


class HomogeneousWeylGeometry:
    """(N, theta) with c^k_ij = sum_l eps_ijl N[l, k], held as coordinates (12 floats).

    coordinates are N (3, 3) row by row, then theta (3,), finite Python floats in
    units of 1/length; the constructor takes N and theta as arrays or nested
    sequences. N, theta and structure_constants are read-only arrays built on
    first read, the only parts of a geometry that import numpy. A geometry is
    immutable and equal only to itself: the per-geometry caches key on it.
    """

    def __init__(self, N, theta):
        coordinates = _floats(N, (3, 3), "N") + _floats(theta, (3,), "theta")
        object.__setattr__(self, "coordinates", tuple(coordinates))

    def __setattr__(self, name, value):
        raise AttributeError(f"a geometry is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a geometry is immutable: cannot delete {name!r}")

    def __repr__(self):
        return f"HomogeneousWeylGeometry(coordinates={self.coordinates!r})"

    @functools.cached_property
    def N(self):
        """Read-only N (3, 3)."""
        return _read_only(self.coordinates[:9]).reshape(3, 3)

    @functools.cached_property
    def theta(self):
        """Read-only theta (3,)."""
        return _read_only(self.coordinates[9:])

    @functools.cached_property
    def structure_constants(self):
        """Read-only c (3, 3, 3), c[i,j,k] = c^k_ij, exactly antisymmetric in (i, j).

        c[l + 1, l + 2] = N[l] (indices mod 3, tensors.NEXT and PREV), and c[j, i] = -c[i, j].
        """
        import numpy as np

        from .tensors import NEXT, PREV

        c = np.zeros((3, 3, 3))
        c[NEXT, PREV] = self.N
        c[PREV, NEXT] = -self.N
        c.setflags(write=False)
        return c


class WeightedDensity(collections.namedtuple("WeightedDensity", "value weight")):
    """A frame-constant density beta of conformal weight -1, the only weight it takes.

    value is a finite Python float, in units 1/length, and weight is -1.0; a number of
    any other type is read through float(), and text, a non-finite value or another
    weight raise ShapeError.
    """

    __slots__ = ()

    def __new__(cls, value, weight=-1.0):
        (value,) = _floats(value, (), "density value")
        if weight != -1:
            raise ShapeError(f"beta must have weight -1, got weight {weight}")
        return super().__new__(cls, value, -1.0)


# curvature_package's arrays: R4 (3,3,3,3), Ric (3,3) possibly non-symmetric, sym0 Ric (3,3),
# R, F (3,3) antisymmetric, Ric^N (3,3) and Ric' (3,3)
CurvaturePackage = collections.namedtuple(
    "CurvaturePackage", "full_curvature ricci sym0_ricci scalar faraday ric_n ric_prime"
)

GTReport = collections.namedtuple("GTReport", "n_ew n_scal n_star tolerance verdict")
GTReport.__doc__ = """Gauduchon-Tod residuals over residual_scale^2: Einstein-Weyl, scalar pinning, monopole."""


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
    """max|[[e_i, e_j], e_k] + cyclic| of c^k_ij = sum_l eps_ijl N[l, k] (3 rows), which is 2 max|n a| (_jacobi_vector)."""
    return 2.0 * max(map(abs, _jacobi_vector(N)))


def validate_geometry(structure_constants, theta):
    """Build a validated geometry from raw data, structure constants c (3,3,3) and theta (3,).

    Both bounds are relative to the scale s = max|c|, so a valid frame passes
    at any scale: antisymmetry violations up to 1e-12 s are symmetrized away,
    larger ones are rejected, and the Jacobi identity must hold to 1e-10 s^2.
    The Jacobi defect is taken of N / 2^e, with s = m 2^e and 1/2 <= m < 1,
    against 1e-10 m^2: the same verdict wherever s^2 is a normal float, and
    no over- or underflow of the quadratic defect at any finite scale. The
    antisymmetric part is A = c - (c + c^T) / 2, which stays finite up to the
    float maximum and keeps the bits of an exactly antisymmetric c; N is read
    off its entries above the diagonal, N = (A[1, 2], -A[0, 2], A[0, 1]).
    Every entry is checked finite first: Python's max, unlike numpy's, skips
    a NaN that is not its first argument.
    """
    c = _floats(structure_constants, (3, 3, 3), "structure constants")  # c[i, j, k] at 9 i + 3 j + k
    th = _floats(theta, (3,), "theta")
    scale = max(map(abs, c))
    # c + c^T: a sum that overflows is inf, a skew above any bound
    sym = list(map(operator.add, c, [c[t] for t in _TRANSPOSED]))
    skew = max(map(abs, sym))
    if skew > 1e-12 * scale:
        raise ShapeError(f"structure constants not antisymmetric in the lower pair ({skew:.3e})")
    A = [u - 0.5 * v for u, v in zip(c, sym)]
    N = [A[15:18], [-v for v in A[6:9]], A[3:6]]  # A[1, 2], -A[0, 2], A[0, 1]
    m, e = math.frexp(scale)
    defect = _jacobi_defect([[math.ldexp(v, -e) for v in row] for row in N])
    if not defect <= 1e-10 * m * m:
        raise JacobiViolation(f"Jacobi identity fails by {defect / (m * m):.3e} max|c|^2")
    return HomogeneousWeylGeometry(N, th)


def milnor_geometry(lam, theta=(0.0, 0.0, 0.0)):
    """The geometry of a Milnor frame, N = diag(lam), c^k_ij = lam_k eps_ijk, with Weyl form theta.

    N is symmetric, so the Jacobi identity holds by construction, and of
    validate_geometry's checks only shape and finiteness run.
    """
    l1, l2, l3 = _floats(lam, (3,), "Milnor parameters")
    return HomogeneousWeylGeometry(((l1, 0.0, 0.0), (0.0, l2, 0.0), (0.0, 0.0, l3)), theta)


def weyl_connection(g):
    """Connection coefficients Gamma[i,j,k] = Gamma^k_ij of the Weyl connection.

    Torsion-free for the bracket (Gamma^k_ij - Gamma^k_ji = c^k_ij) and
    conformally metric with nabla g = -2 theta (x) g.
    """
    import numpy as np

    # halving c first, and one nonzero term per entry of the theta part, keeps every
    # partial sum within max|c|; halving is exact wherever nothing is subnormal
    half = 0.5 * g.structure_constants
    th, eye = g.theta, np.eye(3)
    lc = half - np.einsum("jki->ijk", half) + np.einsum("kij->ijk", half)
    wt = np.einsum("i,jk->ijk", th, eye) + (
        np.einsum("j,ik->ijk", th, eye) - np.einsum("ij,k->ijk", eye, th)
    )
    return lc + wt


def curvature_package(g):
    """All curvature data of the Weyl structure in the frame.

    The full curvature satisfies the decomposition
        R4 = Ric^N kn c + F (x) c
    with Ric^N = -sym0 Ric - (1/12) R c + (1/2) F, which the tests check.
    """
    import numpy as np

    from .tensors import sym0

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
    eye = np.eye(3)
    ric_n = -s0 - (scal / 12.0) * eye + 0.5 * faraday
    ric_prime = s0 + (scal / 3.0) * eye - 0.5 * faraday
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
    import numpy as np

    f = float(np.exp(-s))
    return validate_geometry(g.structure_constants * f, g.theta * f), WeightedDensity(beta.value * f)


def gt_residual_vector(g, beta):
    """Stacked Gauduchon-Tod residuals: sym0 Ric (9), R - 24 beta^2, 4 grad - *F (3)."""
    import numpy as np

    from .tensors import hodge_star

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
    """max|x_k| over the finite coordinates x, and 1 where every one is 0."""
    return float(max(map(abs, x))) or 1.0


def form_coordinates(g, beta):
    """x = (N row by row, theta, beta.value), a tuple of 13 Python floats.

    c and Gamma are linear in x; R4, F, nabla beta and 24 beta^2 are quadratic.
    """
    return (*g.coordinates, float(beta.value))


def prescaled(g, beta):
    """(x, e, m): x = form_coordinates / 2^e as 13 Python floats, residual_scale = m 2^e, 1/2 <= m < 1.

    Dividing by 2^e is exact wherever the result is a normal float, so a weight -2 residual at x over
    m^2 keeps the bits of residual / scale^2, finite and nonzero where scale^2 would over- or underflow.
    """
    m, e = math.frexp(residual_scale(g, beta))
    return [math.ldexp(v, -e) for v in form_coordinates(g, beta)], e, m


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


# the F_k that meet in each entry of sum_k F_k q_k: ENTRY_PAIRS less Id, on F's indices k - 1
(_FIRST, _SECOND), (_ALONE,) = sorted({tuple(k - 1 for k in pair if k) for pair in ENTRY_PAIRS})


def flatness(g, beta):
    """Killing curvature residual over scale^2, normalized like the GT residuals.

    The largest entry modulus of R^beta by curvature_coefficients at x over m^2,
    (x, e, m) = prescaled(g, beta): finite at every scale.
    """
    x, _, m = prescaled(g, beta)
    F = curvature_coefficients(x)
    return max(max(math.hypot(row[_FIRST], row[_SECOND]), abs(row[_ALONE])) for row in F) / (m * m)


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
