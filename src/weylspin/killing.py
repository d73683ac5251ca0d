"""Killing spinor construction by parallel transport of the flat connection.

Paths live on the simply connected group of the homogeneous geometry. An arc
is the flow of a fixed frame direction d for a parameter length t; along it the
Killing connection is the constant matrix sum(d_i B_i). Every B_i lies in su(2)
(traceless and anti-Hermitian), so transport is a unit quaternion given by a
closed-form exponential, and the su(2) coefficients of the B_i are resolved
once per (immutable) geometry. Loops are quadrilaterals X, Y, -X, -Ad Y whose
last arc comes from the adjoint action, expm of the 3x3 matrix ad_X read off
the structure constants, so they close on every simply connected Lie group
without a model of the group. Loops come in batches, an (N, k, 3) array of
arc frame vectors, so drawing and transporting N loops are array operations;
a single arc (GroupArc) runs on the same exponential. The 2-dimensional Killing
spinor space is spanned by the transports of the base pair (1, 0), J (1, 0):
sample_transports gives them as an (N, 2, 2) stack, and min_singular_value and
killing_residual check all N samples as arrays.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clifford import E, j_structure
from .errors import NoConvergence, ShapeError
from .geometry import WeightedDensity, analyze, gt_residual_vector, milnor_geometry, residual_scale
from .spinconn import killing_connection, weight0_matrices

_ID2 = np.eye(2, dtype=complex)
_Q = -E  # unit quaternion generators as 2x2 matrices: q_i q_j = eps_ijk q_k
_QUATERNION_BASIS = np.concatenate([_ID2[None], _Q]).reshape(4, 4)  # rows Id, q_1, q_2, q_3


@dataclass(frozen=True)
class GroupArc:
    direction: tuple  # unit vector of frame coefficients
    length: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            raise ShapeError(f"arc direction must have shape (3,), got {d.shape}")
        direction = tuple(d.tolist())
        length = float(self.length)
        if not all(map(math.isfinite, direction + (length,))):
            raise ShapeError("arc direction and length must be finite")
        if abs(math.hypot(*direction) - 1.0) > 1e-10:
            raise ShapeError("arc direction must be a unit vector")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "length", length)


def arc_from_vector(v):
    """Arc flowing along the frame vector v: direction v/||v||, length ||v||."""
    v = np.asarray(v, dtype=float)
    t = float(np.linalg.norm(v))
    if not math.isfinite(t):
        raise ShapeError("arc vector must be finite")
    if t == 0.0:
        return GroupArc((1.0, 0.0, 0.0), 0.0)
    return GroupArc((v / t).tolist(), t)


# ---------------------------------------------------------------------------
# transport


def transport_operator(g, beta, arc):
    """exp(-t sum_i d_i B_i), the parallel transport of the Killing connection.

    Every B_i is traceless and anti-Hermitian, so the exponent is the element
    -t sum_i d_i b[i, k] q_k of su(2) and the closed form _su2_exp is exact.
    """
    b = _killing_coefficients(g, beta)
    return _su2_exp(-arc.length * (np.asarray(arc.direction) @ b))


def rk4_transport(g, beta, arc, psi0, steps=256):
    """Independent cross-check: integrate psi' = -(sum d_i B_i) psi with RK4."""
    B = killing_connection(g, beta)
    M = -np.einsum("i,iab->ab", np.asarray(arc.direction), B)
    h = arc.length / steps
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


def _su2_coefficients(M):
    """Real x_k of the sum x_k q_k part of M (..., 2, 2); any Id part is dropped."""
    return -0.5 * np.real(np.einsum("kab,...ba->...k", _Q, M))


def _su2_exp(x):
    """exp of sum x_k q_k for coefficients x (..., 3), as (..., 2, 2) matrices."""
    x = np.asarray(x, dtype=float)
    phi = np.linalg.norm(x, axis=-1, keepdims=True)
    quaternion = np.concatenate([np.cos(phi), np.sinc(phi / np.pi) * x], axis=-1)
    return (quaternion @ _QUATERNION_BASIS).reshape(x.shape[:-1] + (2, 2))


# ---------------------------------------------------------------------------
# loops


def expm(A):
    """exp of real square matrices A (..., n, n).

    Taylor series to degree 16 of A / 2^s, squared s times, with s the
    smallest count that brings the largest row-sum norm in the batch to 1/2
    or below, where the dropped terms are below 1e-19. Rows whose sum is not
    finite do not count towards s; a matrix with an inf or NaN entry comes
    out with non-finite entries, and the other matrices as without it.
    """
    A = np.asarray(A, dtype=float)
    sums = np.sum(np.abs(A), axis=-1)
    norm = float(np.max(sums, initial=0.0, where=np.isfinite(sums)))
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    X = A / 2.0**s
    term = out = np.broadcast_to(np.eye(A.shape[-1]), A.shape)
    for k in range(1, 17):
        term = term @ X / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# A batch of paths is an (N, k, 3) array: N paths of k arcs, arc j of path n
# being the frame vector t d (direction d, length t) as arc_from_vector reads it.


def path_transports(g, beta, paths):
    """Transport operators (N, 2, 2) along a batch of paths; later arcs act on the left."""
    steps = _su2_exp(-np.asarray(paths, dtype=float) @ _killing_coefficients(g, beta))
    out = np.broadcast_to(_ID2, steps.shape[:1] + (2, 2))
    for j in range(steps.shape[1]):
        out = steps[:, j] @ out
    return out


def quadrilateral_loop(g, beta, rng, n):
    """n random closed loops (n, 4, 3): the arcs X, Y, -X, -Z with Z = exp(ad_X) Y.

    Flowing along X, Y, -X reaches exp(X) exp(Y) exp(-X) = exp(Ad_exp(X) Y),
    and Ad_exp(X) = expm(ad_X) with (ad_X)[k, j] = sum_i X_i c[i, j, k], so
    the arc -Z returns to the identity on every simply connected group.
    All directions are drawn first, rng.standard_normal((n, 2, 3)), then all
    lengths, rng.uniform(0.4, 1.2, (n, 2)), in units of 1 / residual_scale(g, beta)
    (1 for the zero geometry), so a loop spans the same part of the group at
    every scale.
    """
    d = rng.standard_normal((n, 2, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    t = rng.uniform(0.4, 1.2, (n, 2)) / (residual_scale(g, beta) or 1.0)
    X, Y = np.moveaxis(t[..., None] * d, 1, 0)
    ad = np.einsum("ni,ijk->nkj", X, g.structure_constants)
    Z = (expm(ad) @ Y[..., None])[..., 0]
    return np.stack([X, Y, -X, -Z], axis=1)


def loop_holonomy(g, beta, loops):
    """Killing holonomies (N, 2, 2) around a batch of closed loops, and their max|H - Id| (N,)."""
    H = path_transports(g, beta, loops)
    return H, np.max(np.abs(H - _ID2), axis=(-2, -1))


# ---------------------------------------------------------------------------
# the Killing basis

# Spinor values of the two basis sections at the group identity: (1, 0) and
# its quaternionic partner J (1, 0), so the basis is J-paired by construction.
BASE_SPINORS = np.array([[1.0, 0.0], j_structure([1.0, 0.0])], dtype=complex)
BASE_SPINORS.setflags(write=False)


def sample_transports(g, beta, samples):
    """Transports (N, 2, 2) along N paths, each a (k, 3) array of arc frame vectors.

    Later arcs act on the left. Each arc goes once through
    transport_operator(g, beta, arc_from_vector(v)), the per-arc entry that
    bench/run.py wraps to spot-check transports against RK4.
    """
    out = []
    for path in samples:
        U = _ID2
        for v in path:
            U = transport_operator(g, beta, arc_from_vector(v)) @ U
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


def path_independence_residual(g, beta, rng, pairs=5):
    """Max transport disagreement between random path pairs to a common endpoint."""
    loops = quadrilateral_loop(g, beta, rng, pairs)
    # each last arc closes its loop, so traversing it backwards is a one-arc
    # path to the endpoint of the first three arcs
    U1 = path_transports(g, beta, loops[:, :3])
    U2 = path_transports(g, beta, -loops[:, 3:])
    return float(np.max(np.abs(U1 - U2)))


def killing_residual(g, beta, transports, h=1e-5):
    """Finite-difference check of the Killing equation on transported sections.

    transports (N, 2, 2) carry both basis sections to N sample points (see
    sample_transports). At each point the frame derivative e_i(psi) is
    approximated by central differences of parallel transports over +-h/s,
    and the report is
        max_i ||e_i(psi) + A_i psi - beta e_i psi|| / (s ||psi||)
    over all samples and both basis sections, with s = residual_scale(g, beta)
    (1 for the zero geometry). The step h is thus dimensionless and the report
    is O(h^2) at every scale. All samples are evaluated as one array; a
    non-finite sample makes the report NaN, which fails any bound.
    """
    s = residual_scale(g, beta) or 1.0
    step = h / s
    b = _killing_coefficients(g, beta)
    psi = _sections(transports)[..., None]  # (N, 2, 2, 1): sample, section, spinor
    plus = _su2_exp(-step * b)[:, None, None]  # (3, 1, 1, 2, 2): one step along each e_i
    minus = _su2_exp(step * b)[:, None, None]
    A = weight0_matrices(g)[:, None, None]
    fd = (plus @ psi - minus @ psi) / (2.0 * step)
    defect = fd + A @ psi - beta.value * (E[:, None, None] @ psi)  # (3, N, 2, 2, 1)
    scale = s * np.max(np.abs(psi), axis=(-2, -1))  # (N, 2)
    return float(np.max(np.max(np.abs(defect), axis=(-2, -1)) / scale))


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
    return g, WeightedDensity(float(params[4]), -1.0)


_MAX_HALVINGS = 20


@functools.lru_cache(maxsize=1)
def _family_quadratic_form():
    """Read-only Q (13, 5, 5), symmetric in its last two axes, with r(x) = (Q @ x) @ x.

    r(x) = gt_residual_vector(*milnor_theta3_family(x)) is a homogeneous
    quadratic: c is linear in lambda, Gamma linear in (lambda, theta), and R4,
    F, nabla beta and 24 beta^2 are quadratic. So r is fixed by its values at
    the 15 points e_k and e_k + e_l (k < l):
        Q[:, k, k] = r(e_k),  Q[:, k, l] = (r(e_k + e_l) - r(e_k) - r(e_l)) / 2.
    """
    def r(params):
        return gt_residual_vector(*milnor_theta3_family(params))

    eye = np.eye(5)  # the coordinates (l1, l2, l3, theta3, beta)
    diag = [r(e) for e in eye]
    Q = np.empty((diag[0].size, 5, 5))
    for k in range(5):
        Q[:, k, k] = diag[k]
    for k, l in itertools.combinations(range(5), 2):
        Q[:, k, l] = Q[:, l, k] = 0.5 * (r(eye[k] + eye[l]) - diag[k] - diag[l])
    Q.setflags(write=False)
    return Q


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught and reported below
def find_gt_parameters(x0, pin=("lambda1", None), tolerance=1e-10, max_iterations=50):
    """Damped Newton search for a root of the Gauduchon-Tod residual system.

    One coordinate is pinned to quotient out the conformal rescaling freedom:
    pin = (name_or_index, value), with value None meaning "keep x0's entry".
    Newton steps solve the least-squares system for the stacked residual
    vector of milnor_theta3_family, with simple backtracking (halve the step
    while the residual norm does not decrease). The residuals are the
    quadratic form r(x) = (Q @ x) @ x of _family_quadratic_form, so each step
    evaluates Q @ x once and takes the exact Jacobian 2 (Q @ x)[:, free]; no
    geometry is built inside the iteration. Success means a max-norm residual
    below tolerance within max_iterations, confirmed by gt_residual_vector
    itself: residual_norm is max|gt_residual_vector| at the root, read from
    the analyze report. Otherwise, or as soon as a residual or a Newton step
    overflows to a non-finite value, NoConvergence carries the last iterate,
    which is the best one (an accepted step always lowers the norm), and
    gt_residual_vector's max-norm there.
    """
    x = np.asarray(x0, dtype=float).copy()
    name, value = pin
    idx = PIN_INDEX[name] if isinstance(name, str) else int(name)
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
        report = analyze(*milnor_theta3_family(x))
        norm = max(report.r_ew, report.r_scal, report.r_star)  # max|gt_residual_vector|
        if not norm < tolerance:
            raise stop("root of the quadratic form fails gt_residual_vector", iterations)
        return GTSearchResult(tuple(x), norm, iterations, report)

    qx = Q @ x
    r = qx @ x
    norm = float(np.max(np.abs(r)))
    for it in range(max_iterations):
        if norm < tolerance:
            return converged(it)
        jac = 2.0 * qx[:, free]
        if not (np.isfinite(norm) and np.all(np.isfinite(jac))):
            raise stop("non-finite residual", it)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
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
