"""Killing spinor construction by parallel transport of the flat connection.

Paths live on the simply connected group of the homogeneous geometry. An arc
is the flow of a fixed frame vector v for unit parameter time (GroupArc); along
it the Killing connection is the constant matrix sum(v_i B_i). Every B_i lies
in su(2) (traceless and anti-Hermitian), so transport is a unit quaternion
given by a closed-form exponential, and the su(2) coefficients of the B_i are
resolved once per (immutable) geometry. Along a path the arcs compose as real
quaternions, by Hamilton products through a table read off the 2x2 basis, and
each path's product becomes a 2x2 matrix once, at the end. Loops are
quadrilaterals X, Y, -X, -Ad Y whose last arc comes from the adjoint action,
expm of the 3x3 matrix ad_X read off the structure constants (a degree-16
Taylor polynomial in Paterson-Stockmeyer form, scaled and squared), so they
close on every simply connected Lie group without a model of the group.
Paths come in batches, an (N, k, 3) array of arc frame vectors, so drawing
and transporting N loops are array operations; loop_batch draws the loops
and the path pairs of one killing check together, closes them with one expm
and transports them as one stack, which loop_holonomy and
path_independence_residual each read a slice of. A single arc runs the same
closed form on Python floats, where numpy's per-call cost would dominate a
3-vector, and its 2x2 matrix is formed from the quaternion's four floats by
the unit entries of the same quaternion basis the batch kernel uses. The
2-dimensional Killing spinor space is spanned by the transports of the base
pair (1, 0), J (1, 0): sample_transports gives them as an (N, 2, 2) stack,
and min_singular_value and killing_residual check all N samples as arrays.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .clifford import E, j_structure
from .errors import NoConvergence, ShapeError
from .geometry import (
    WeightedDensity,
    gt_report,
    gt_residual_vector,
    milnor_geometry,
    quadratic_form_24,
    residual_scale,
)
from .spinconn import killing_connection, weight0_matrices

_ID2 = np.eye(2, dtype=complex)
_Q = -E  # unit quaternion generators as 2x2 matrices: q_i q_j = eps_ijk q_k
_QUATERNION_BASIS = np.concatenate([_ID2[None], _Q]).reshape(4, 4)  # rows Id, q_1, q_2, q_3
_QUATERNION_BASIS.setflags(write=False)
# Each column of _QUATERNION_BASIS, one entry of the flattened 2x2 matrix, holds one
# real and one imaginary unit: entry k of p @ _QUATERNION_BASIS is complex(a p_i, b p_j)
# for _ENTRY_TERMS[k] = (i, a, j, b). Read off the basis, so E stays the one written copy.
_RE_ROW = np.argmax(_QUATERNION_BASIS.real != 0, axis=0)
_IM_ROW = np.argmax(_QUATERNION_BASIS.imag != 0, axis=0)
_ENTRY_TERMS = tuple(
    zip(
        _RE_ROW.tolist(),
        _QUATERNION_BASIS.real[_RE_ROW, range(4)].tolist(),
        _IM_ROW.tolist(),
        _QUATERNION_BASIS.imag[_IM_ROW, range(4)].tolist(),
    )
)
# The Hamilton product p * q = (p[:, None] * q[None]).reshape(16) @ _HAMILTON:
# row 4a + b holds the coefficients of (basis a)(basis b) on the basis. The
# rows of _QUATERNION_BASIS are orthogonal with squared norm 2, so projecting
# the 16 products onto them reads the table off exactly, with entries 0 and +-1.
_HAMILTON = 0.5 * np.real(
    (_QUATERNION_BASIS.reshape(4, 1, 2, 2) @ _QUATERNION_BASIS.reshape(1, 4, 2, 2)).reshape(16, 4)
    @ _QUATERNION_BASIS.conj().T
)
_HAMILTON.setflags(write=False)


def _float_triple(v):
    """v as three finite Python floats; ShapeError unless it is 3 finite numbers, shape (3,).

    Text is refused, whole or entry by entry: float() reads "1" as 1.0, so a
    str or bytes of three characters would otherwise pass as three numbers.
    Three entries that are Python floats already (a row of .tolist()) are
    taken as they are.
    """
    v = v.tolist() if isinstance(v, np.ndarray) else v
    try:
        x, y, z = v
        if type(x) is type(y) is type(z) is float:
            v = x, y, z
        elif any(isinstance(c, (str, bytes)) for c in (v, x, y, z)):
            raise TypeError("text is not a number")
        else:
            v = float(x), float(y), float(z)
    except (TypeError, ValueError) as exc:  # not iterable, nested, text, or not 3 numbers
        raise ShapeError("arc vector must be 3 numbers, shape (3,)") from exc
    if not all(map(math.isfinite, v)):
        raise ShapeError("arc vector must be finite")
    return v


@dataclass(frozen=True)
class GroupArc:
    """The flow of the frame vector `vector` (three finite floats) for unit parameter time."""

    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector", _float_triple(self.vector))

    @property
    def length(self):
        """|vector|, by math.hypot."""
        return math.hypot(*self.vector)


# ---------------------------------------------------------------------------
# transport


def transport_operator(g, beta, arc):
    """exp(-sum_i v_i B_i), the parallel transport of the Killing connection along arc.

    Every B_i is traceless and anti-Hermitian, so the exponent is the element
    x = -sum_i v_i b[i, k] q_k of su(2), and its exponential is the unit
    quaternion [cos phi, (sin phi / phi) x], phi = |x|, exactly. x and the
    quaternion are formed on Python floats (_float_quaternion) from the
    columns of b memoized per geometry, and the 2x2 matrix
    p_0 Id + sum_k p_k q_k is formed from the four floats by _ENTRY_TERMS:
    the values of _quaternion_matrices, up to the sign of a zero. An
    exponent whose norm overflows gives NaN entries.
    """
    v1, v2, v3 = arc.vector
    x = [-(v1 * b1 + v2 * b2 + v3 * b3) for b1, b2, b3 in _killing_columns(g, beta)]
    p = _float_quaternion(x)
    return np.array([complex(a * p[i], b * p[j]) for i, a, j, b in _ENTRY_TERMS]).reshape(2, 2)


def rk4_transport(g, beta, arc, psi0, steps=256):
    """Independent cross-check: integrate psi' = -(sum v_i B_i) psi over unit time with RK4."""
    B = killing_connection(g, beta)
    M = -np.einsum("i,iab->ab", np.asarray(arc.vector), B)
    h = 1.0 / steps
    psi = np.asarray(psi0, dtype=complex)
    for _ in range(steps):
        k1 = M @ psi
        k2 = M @ (psi + 0.5 * h * k1)
        k3 = M @ (psi + 0.5 * h * k2)
        k4 = M @ (psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


@functools.lru_cache(maxsize=1)
def _killing_coefficients(g, beta):
    """Real b[i, k] with B_i = sum_k b[i, k] q_k."""
    b = _su2_coefficients(killing_connection(g, beta))
    b.setflags(write=False)
    return b


@functools.lru_cache(maxsize=1)
def _killing_columns(g, beta):
    """The columns b[:, k] of _killing_coefficients as triples of Python floats."""
    return tuple(zip(*_killing_coefficients(g, beta).tolist()))


def _su2_coefficients(M):
    """Real x_k = -tr(q_k M) / 2 of the sum x_k q_k part of M (..., 2, 2); any Id part is dropped."""
    return -np.real(np.einsum("kab,...ba->...k", 0.5 * _Q, M))  # q_k halved first: no overflow


@np.errstate(over="ignore", invalid="ignore")  # an overflowing exponent gives NaN below
def _su2_quaternion(x):
    """exp of sum x_k q_k for coefficients x (..., 3), as unit quaternions (..., 4).

    [cos phi, (sin phi / phi) x] with phi = sqrt(sum x_k^2), and (1, 0, 0, 0)
    exactly where phi = 0. Where the sum of squares overflows, phi is
    m sqrt(sum (x_k / m)^2) with m = max|x_k| instead, so phi overflows where
    _float_quaternion's hypot does, and every other phi keeps its bits. A
    non-finite phi gives a NaN quaternion, with no warning.
    """
    x = np.asarray(x, dtype=float)
    phi = np.sqrt(np.einsum("...k,...k->...", x, x))[..., None]
    big = np.isinf(phi[..., 0])
    if np.any(big):
        m = np.max(np.abs(x[big]), axis=-1, keepdims=True)
        phi[big] = m * np.sqrt(np.sum((x[big] / m) ** 2, axis=-1, keepdims=True))
    sinc = np.divide(np.sin(phi), phi, out=np.ones_like(phi), where=phi != 0.0)
    return np.concatenate([np.cos(phi), sinc * x], axis=-1)


def _float_quaternion(x):
    """_su2_quaternion for one exponent x of three Python floats, as four floats.

    phi = hypot(x), which neither overflows nor underflows before phi itself
    does; phi = 0 gives (1, 0, 0, 0) exactly, and a phi that is not finite
    gives NaN (math.sin would raise on it).
    """
    phi = math.hypot(*x)
    if phi == 0.0:
        return 1.0, 0.0, 0.0, 0.0
    if not phi < math.inf:
        return (math.nan,) * 4
    s = math.sin(phi) / phi
    return math.cos(phi), s * x[0], s * x[1], s * x[2]


def _quaternion_matrices(p):
    """Quaternions p (..., 4) as the (..., 2, 2) matrices p_0 Id + sum_k p_k q_k."""
    return (p @ _QUATERNION_BASIS).reshape(p.shape[:-1] + (2, 2))


# ---------------------------------------------------------------------------
# loops


_TAYLOR = [1.0 / math.factorial(k) for k in range(17)]  # c_k = 1/k!


def expm(A):
    """exp of real square matrices A (..., n, n).

    The Taylor polynomial of degree 16 of X = A / 2^s, squared s times, with s
    the smallest count that brings the largest row-sum norm in the batch to
    1/2 or below, where the dropped terms are below 1e-19. X = ldexp(A, -s)
    is exact, and cannot overflow as 2.0**s can at s > 1023. The polynomial
    is evaluated in Paterson-Stockmeyer form: with X^2, X^3, X^4 formed
    once, Horner's rule in X^4 over the blocks
    c_4j Id + c_4j+1 X + c_4j+2 X^2 + c_4j+3 X^3, c_k = 1/k!, which takes
    6 matrix products where term-by-term Taylor takes 16. Rows whose sum is
    not finite do not count towards s; a matrix with an inf or NaN entry, or
    whose exponential overflows, comes out with non-finite entries, and the
    other matrices as without it.
    """
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore"):  # a sum that overflows is left out of s below
        sums = np.sum(np.abs(A), axis=-1)
    norm = float(np.max(sums, initial=0.0, where=np.isfinite(sums)))
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    X = np.ldexp(A, -s)
    X2 = X @ X
    powers = (X, X2, X2 @ X)
    X4 = X2 @ X2
    diagonal = (..., *np.diag_indices(A.shape[-1]))
    out = _TAYLOR[16] * X4
    for j in (3, 2, 1, 0):
        for i, Xi in enumerate(powers, start=1):
            out += _TAYLOR[4 * j + i] * Xi
        out[diagonal] += _TAYLOR[4 * j]
        if j:
            out = X4 @ out
    for _ in range(s):
        out = out @ out
    return out


@np.errstate(over="ignore", invalid="ignore")  # an exponent that overflows makes its path NaN
def path_transports(g, beta, paths):
    """Transports (N, 2, 2) along paths (N, k, 3) of arc frame vectors; later arcs act on the left.

    The arcs compose as real unit quaternions through _HAMILTON, and the N
    products become 2x2 matrices once, at the end. A path with an arc whose
    exponent overflows comes out NaN, and the other paths as without it.
    """
    steps = _su2_quaternion(-np.asarray(paths, dtype=float) @ _killing_coefficients(g, beta))
    n, k, _ = steps.shape
    out = steps[:, 0] if k else np.broadcast_to([1.0, 0.0, 0.0, 0.0], (n, 4))
    for j in range(1, k):
        out = (steps[:, j, :, None] * out[:, None, :]).reshape(n, 16) @ _HAMILTON
    return _quaternion_matrices(out)


def _loop_legs(g, beta, rng, n):
    """The first two arcs X, Y (2, n, 3) of n loops: all directions, then all lengths.

    Lengths are 0.4-1.2 in units of 1 / residual_scale(g, beta), so a loop
    spans the same part of the group at every normal scale. At a subnormal
    scale they are near the float maximum and a loop can overflow.
    """
    d = rng.standard_normal((n, 2, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    t = rng.uniform(0.4, 1.2, (n, 2)) / residual_scale(g, beta)
    return np.moveaxis(t[..., None] * d, 1, 0)


@dataclass(frozen=True, eq=False)
class LoopBatch:
    """Closed loops and path pairs, drawn together, with their transports as one stack.

    paths (loops + 2 pairs, 4, 3) holds the loops X, Y, -X, -Z, then each
    pair's first path X, Y, -X, 0, then its second path Z, 0, 0, 0, the
    closing arc reversed; a pair's two paths end at the same point. A zero
    arc transports as the identity quaternion exactly, so the padding changes
    no transport. transports (loops + 2 pairs, 2, 2) = path_transports(paths).
    """

    paths: np.ndarray
    transports: np.ndarray
    loops: int
    pairs: int


def loop_batch(g, beta, rng, loops, pairs=5):
    """Draw `loops` closed loops and `pairs` path pairs, and transport them as one LoopBatch.

    Each loop (and each pair) is the arcs X, Y, -X, -Z with Z = expm(ad_X) Y:
    flowing along X, Y, -X reaches exp(X) exp(Y) exp(-X) = exp(Ad_exp(X) Y),
    and Ad_exp(X) = expm(ad_X) with (ad_X)[k, j] = sum_i X_i c[i, j, k], so
    the arc -Z returns to the identity on every simply connected group. The
    loops' legs are drawn before the pairs', so pairs=0 gives the loops alone.
    All loops + pairs close through one expm and go through one path_transports.
    """
    X, Y = np.concatenate([_loop_legs(g, beta, rng, loops), _loop_legs(g, beta, rng, pairs)], axis=1)
    ad = np.einsum("ni,ijk->nkj", X, g.structure_constants)
    Z = (expm(ad) @ Y[..., None])[..., 0]
    closed = np.stack([X, Y, -X, -Z], axis=1)
    first = closed[loops:].copy()
    first[:, 3] = 0.0
    second = np.zeros_like(first)
    second[:, 0] = Z[loops:]
    paths = np.concatenate([closed[:loops], first, second])
    return LoopBatch(paths, path_transports(g, beta, paths), loops, pairs)


def loop_holonomy(batch):
    """Killing holonomies (loops, 2, 2) around the batch's loops, and their max|H - Id| (loops,)."""
    H = batch.transports[: batch.loops]
    return H, np.max(np.abs(H - _ID2), axis=(-2, -1))


def path_independence_residual(batch):
    """Max transport disagreement between the two paths of each of the batch's pairs."""
    first = batch.transports[batch.loops : batch.loops + batch.pairs]
    second = batch.transports[batch.loops + batch.pairs :]
    return float(np.max(np.abs(first - second)))


# ---------------------------------------------------------------------------
# the Killing basis

# Spinor values of the two basis sections at the group identity: (1, 0) and
# its quaternionic partner J (1, 0), so the basis is J-paired by construction.
BASE_SPINORS = np.array([[1.0, 0.0], j_structure([1.0, 0.0])], dtype=complex)
BASE_SPINORS.setflags(write=False)


def sample_transports(g, beta, samples):
    """Transports (N, 2, 2) along N paths, each a (k, 3) array of arc frame vectors.

    Later arcs act on the left, and a path of one arc is that arc's
    transport. Each arc goes once through transport_operator(g, beta,
    GroupArc(v)), the per-arc entry that bench/run.py wraps to spot-check
    transports against RK4.
    """
    out = []
    for path in samples:
        U = _ID2
        for v in path.tolist() if isinstance(path, np.ndarray) else path:
            T = transport_operator(g, beta, GroupArc(v))
            U = T if U is _ID2 else T @ U
        out.append(U)
    return np.stack(out)


def _sections(transports):
    """Values (N, 2, 2) of both basis sections: [n, k] = transports[n] @ BASE_SPINORS[k]."""
    return np.stack([transports @ psi for psi in BASE_SPINORS], axis=1)


def min_singular_value(transports):
    """Smallest singular value of the normalized transported pair over a stack (N, 2, 2).

    A non-finite transport reads NaN, which fails any bound.
    """
    v = _sections(transports)
    if not np.all(np.isfinite(v)):
        return float("nan")
    m = np.swapaxes(v / np.linalg.norm(v, axis=-1, keepdims=True), -2, -1)
    return float(np.min(np.linalg.svd(m, compute_uv=False)[:, -1]))


def killing_residual(g, beta, transports, h=1e-5):
    """Finite-difference check of the Killing equation on transported sections.

    transports (N, 2, 2) carry both basis sections to N sample points (see
    sample_transports). At each point the frame derivative e_i(psi) is
    approximated by central differences of parallel transports over +-h/s,
    and the report is
        max_i ||e_i(psi) + A_i psi - beta e_i psi|| / (s ||psi||)
    over all samples and both basis sections, with s = residual_scale(g, beta).
    The step h is thus dimensionless and the report is O(h^2) at every scale.
    It is taken in units of s, exponents +-h b / s, quotient by 2h and
    A_i psi - beta e_i psi over s, so no 2h/s overflows its reciprocal near
    the float maximum. All samples are evaluated as one array; a non-finite
    sample makes the report NaN, which fails any bound.
    """
    s = residual_scale(g, beta)
    psi = _sections(transports)[..., None]  # (N, 2, 2, 1): sample, section, spinor
    # plus and minus (3, 1, 1, 2, 2): steps of -h/s and +h/s along each e_i,
    # single arcs, so on the float kernel
    rows = (_killing_coefficients(g, beta) / s).tolist()
    steps = [_float_quaternion([sign * h * v for v in row]) for sign in (-1, 1) for row in rows]
    plus, minus = _quaternion_matrices(np.array(steps)).reshape(2, 3, 1, 1, 2, 2)
    A = weight0_matrices(g)[:, None, None]
    fd = (plus @ psi - minus @ psi) / (2.0 * h)
    defect = fd + (A @ psi - beta.value * (E[:, None, None] @ psi)) / s  # (3, N, 2, 2, 1)
    return float(np.max(np.max(np.abs(defect), axis=(-2, -1)) / np.max(np.abs(psi), axis=(-2, -1))))


# ---------------------------------------------------------------------------
# Gauduchon-Tod parameter search


@dataclass(frozen=True)
class GTSearchResult:
    params: tuple
    residual_norm: float
    iterations: int
    report: object  # GTReport at the solution


PIN_INDEX = {"lambda1": 0, "lambda2": 1, "lambda3": 2, "theta3": 3, "beta": 4}


def milnor_theta3_family(params):
    """(l1, l2, l3, theta3, beta) -> Milnor geometry with theta = (0, 0, theta3)."""
    params = np.asarray(params, dtype=float)
    g = milnor_geometry(params[:3], (0.0, 0.0, params[3]))
    return g, WeightedDensity(float(params[4]))


_MAX_HALVINGS = 20


@functools.lru_cache(maxsize=1)
def _family_quadratic_form():
    """Read-only Q (13, 5, 5), symmetric in its last two axes, with r(x) = (Q @ x) @ x.

    r(x) = gt_residual_vector(*milnor_theta3_family(x)): the slice P^T Q P
    of the Gauduchon-Tod rows of geometry.quadratic_form_24 / 24, P picking
    the family's coordinates: N = diag(l1, l2, l3) and theta = (0, 0, theta3)
    among geometry.form_coordinates.
    """
    idx = [0, 4, 8, 11, 12]
    Q = quadratic_form_24()[:13][:, idx][:, :, idx] / 24.0
    Q.setflags(write=False)
    return Q


def _pin_index(name):
    """The coordinate a pin names: a PIN_INDEX key, or an integer 0..4 that is not a bool."""
    if isinstance(name, str):
        if name not in PIN_INDEX:
            raise ShapeError(f"unknown pin {name!r}, expected one of {', '.join(PIN_INDEX)}")
        return PIN_INDEX[name]
    if isinstance(name, (bool, np.bool_)):
        raise ShapeError(f"pin {name!r} is a bool, not an index 0..4")
    try:
        idx = operator.index(name)
    except TypeError as exc:
        raise ShapeError(f"pin {name!r} is not an integer index 0..4") from exc
    if not 0 <= idx < len(PIN_INDEX):
        raise ShapeError(f"pin index {idx} is not one of 0..{len(PIN_INDEX) - 1}")
    return idx


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught and reported below
def find_gt_parameters(x0, pin=("lambda1", None), tolerance=1e-10, max_iterations=50):
    """Damped Newton search for a root of the Gauduchon-Tod residual system.

    One coordinate is pinned to quotient out the conformal rescaling freedom:
    pin = (name or index 0..4, value), with value None meaning "keep x0's entry";
    any other name or index raises ShapeError.
    Newton steps solve the least-squares system for the stacked residual
    vector of milnor_theta3_family, with simple backtracking (halve the step
    while the residual norm does not decrease). Singular values of the
    Jacobian below 1e-12 of the largest are dropped: the roots form curves,
    along which the Jacobian loses rank, and a step along a singular value
    of rounding size is rounding noise that backtracking cannot halve away. The residuals are the
    quadratic form r(x) = (Q @ x) @ x of _family_quadratic_form, so each step
    evaluates Q @ x once and takes the exact Jacobian 2 (Q @ x)[:, free]; no
    geometry is built inside the iteration. Success means a max-norm residual
    below tolerance within max_iterations, confirmed by gt_residual_vector
    itself: residual_norm is max|gt_residual_vector| at the root, and the
    report is geometry.gt_report on those residuals, never the form's.
    Otherwise, or as soon as a residual or a Newton step overflows to a
    non-finite value, NoConvergence carries the last iterate,
    which is the best one (an accepted step always lowers the norm), and
    gt_residual_vector's max-norm there.
    """
    x = np.asarray(x0, dtype=float).copy()
    name, value = pin
    idx = _pin_index(name)
    if value is not None:
        x[idx] = value
    if not np.all(np.isfinite(x)):
        raise ShapeError("search start must be finite")
    free = [k for k in range(x.size) if k != idx]
    Q = _family_quadratic_form()

    def stop(why, iterations):
        norm = float(np.max(np.abs(gt_residual_vector(*milnor_theta3_family(x)))))
        return NoConvergence(
            f"{why}, best residual {norm:.3e}",
            best_params=tuple(x),
            best_residual=norm,
            iterations=iterations,
        )

    def converged(iterations):
        g, beta = milnor_theta3_family(x)
        residuals = gt_residual_vector(g, beta)
        norm = float(np.max(np.abs(residuals)))
        if not norm < tolerance:
            raise stop("root of the quadratic form fails gt_residual_vector", iterations)
        return GTSearchResult(tuple(x), norm, iterations, gt_report(g, beta, residuals))

    qx = Q @ x
    r = qx @ x
    norm = float(np.max(np.abs(r)))
    for it in range(max_iterations):
        if norm < tolerance:
            return converged(it)
        jac = 2.0 * qx[:, free]
        if not (np.isfinite(norm) and np.all(np.isfinite(jac))):
            raise stop("non-finite residual", it)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=1e-12)
        if not np.all(np.isfinite(step)):
            raise stop("non-finite Newton step", it)
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            xt = x.copy()
            xt[free] += t * step
            qxt = Q @ xt
            rt = qxt @ xt
            nt = float(np.max(np.abs(rt)))
            if nt < norm:
                break
            t *= 0.5
        else:
            raise stop("backtracking stalled", it)
        x, qx, r, norm = xt, qxt, rt, nt
    if norm < tolerance:
        return converged(max_iterations)
    raise stop(f"iteration cap {max_iterations} hit", max_iterations)
