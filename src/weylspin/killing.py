"""Killing spinor construction by parallel transport of the flat connection.

Paths live on the simply connected group of the homogeneous geometry. An arc
is the flow of a fixed frame vector v for unit parameter time (GroupArc); along
it the Killing connection is the constant sum(v_i B_i), with every B_i in su(2),
so transport is a unit quaternion p given by a closed-form exponential, the
2x2 matrix p @ clifford.QUATERNION_BASIS. Arcs compose as real quaternions, by
Hamilton products through a table read off that basis. Loops are
quadrilaterals X, Y, -X, -Z with Z = Ad_exp(X) Y, so they close on every
simply connected Lie group without a model of the group; closing_arc
evaluates exp(ad_X) Y in closed form from the Bianchi decomposition of the
structure constants, built once per geometry with b, B_i = sum_k b[i, k] q_k
(killing_data). loop_batch draws, closes and transports the loops of one
killing check as one batch, which holds the transports along each loop's two
halves, the path X, Y, -X and the arc Z: loop_holonomy reads the holonomies
off them, and path_independence_residual how far the halves disagree. A
single arc runs the same closed form on Python floats (transport_operator),
where numpy's per-call cost would dominate a 3-vector. The 2-dimensional
Killing spinor space is spanned by the transports of the base pair (1, 0),
J (1, 0): sample_transports gives them as an (N, 2, 2) stack, and
min_singular_value and killing_residual check all N samples as arrays.
"""

import functools
import math
import sys
from collections import namedtuple

import numpy as np

from .clifford import ENTRY_PAIRS, QUATERNION_BASIS, j_structure
from .errors import NoConvergence, ShapeError
from .geometry import (
    PIN_INDEX,
    WeightedDensity,
    analyze,
    bianchi_split,
    cofactor,
    gt_coefficients,
    killing_coefficients,
    milnor_geometry,
    prescaled,
    residual_scale,
    scale_of,
)
from .spinconn import killing_connection
from .tensors import NEXT, PREV

_ID2 = np.eye(2, dtype=complex)
# The Hamilton product p * q = (p[:, None] * q[None]).reshape(16) @ _HAMILTON:
# row 4a + b holds the coefficients of (basis a)(basis b) on the basis. The
# rows of QUATERNION_BASIS are orthogonal with squared norm 2, so projecting
# the 16 products onto them reads the table off exactly, with entries 0 and +-1.
_HAMILTON = 0.5 * np.real(
    (QUATERNION_BASIS.reshape(4, 1, 2, 2) @ QUATERNION_BASIS.reshape(1, 4, 2, 2)).reshape(16, 4)
    @ QUATERNION_BASIS.conj().T
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
    except OverflowError as exc:  # a number beyond the float range, such as the integer 10**400
        raise ShapeError("arc vector must be finite") from exc
    if not all(map(math.isfinite, v)):
        raise ShapeError("arc vector must be finite")
    return v


class GroupArc(namedtuple("GroupArc", "vector")):
    """The flow of the frame vector `vector` (three finite floats) for unit parameter time."""

    __slots__ = ()

    def __new__(cls, vector):
        return super().__new__(cls, _float_triple(vector))

    @property
    def length(self):
        """|vector|, by math.hypot."""
        return math.hypot(*self.vector)


# ---------------------------------------------------------------------------
# transport


KillingData = namedtuple("KillingData", "b columns steps e a u v adj")


@functools.lru_cache(maxsize=1)
def killing_data(g, beta):
    """What a killing check reads of (g, beta), in closed form from (x, e, m) = geometry.prescaled(g, beta).

    b = 2^e geometry.killing_coefficients(x), with columns as Python floats, and
    steps = b / m = b / scale. For closing_arc, on floats: geometry.bianchi_split's
    N = n + [a]x, with a (3, 1), u[k, i] = n[k, i + 1] and v[k, i] = n[k, i + 2]
    (tensors.NEXT and PREV) and adj(n) = geometry.cofactor(n) of the symmetric n,
    each (3, 3, 1). A sub-normal scale raises ShapeError.
    """
    scale, low = residual_scale(g, beta), sys.float_info.min
    if scale < low:
        raise ShapeError(f"killing covers scales from the smallest normal float, {low!r}, to the float"
                         f" maximum; this geometry's scale is {scale!r}")
    x, e, m = prescaled(g, beta)
    b = np.array(killing_coefficients(x))
    steps = b / m
    with np.errstate(over="ignore"):  # b beyond the float range: its transports are NaN
        b = np.ldexp(b, e)
    for array in (b, steps):
        array.setflags(write=False)
    n, a = bianchi_split((x[0:3], x[3:6], x[6:9]))
    n, a, adj = np.array(n), np.array(a)[:, None], np.array(cofactor(n))[..., None]
    return KillingData(b, tuple(zip(*b.tolist())), steps, e, a, n[:, NEXT, None], n[:, PREV, None], adj)


def transport_operator(g, beta, arc):
    """exp(-sum_i v_i B_i), the parallel transport of the Killing connection along arc.

    Every B_i is traceless and anti-Hermitian, so the exponent is the element
    x = -sum_i v_i b[i, k] q_k of su(2), and its exponential is the unit
    quaternion [cos phi, (sin phi / phi) x], phi = |x|, exactly. x and the
    quaternion p are formed on Python floats (_float_quaternion) from the
    columns of b in killing_data, and the 2x2 matrix p_0 Id + sum_k p_k q_k is
    p @ clifford.QUATERNION_BASIS. An exponent whose norm overflows gives NaN entries.
    """
    v1, v2, v3 = arc.vector
    x = [-(v1 * b1 + v2 * b2 + v3 * b3) for b1, b2, b3 in killing_data(g, beta).columns]
    return np.dot(_float_quaternion(x), QUATERNION_BASIS).reshape(2, 2)


def rk4_transport(g, beta, arc, psi0, steps=256):
    """Cross-check: integrate psi' = -(sum v_i B_i) psi over unit time with RK4, B by the tensor chain."""
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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing exponent gives NaN below
def _su2_quaternion(x):
    """exp of sum x_k q_k for coefficients x (3, ...), as unit quaternions (4, ...).

    [cos phi, (sin phi / phi) x] with phi = sqrt(sum x_k^2), and (1, 0, 0, 0)
    exactly where phi = 0. Where the sum of squares overflows, phi is m sqrt(sum
    (x_k / m)^2), m = max|x_k|, so phi overflows where _float_quaternion's hypot
    does; every other phi keeps its bits. A non-finite phi gives NaN, silently.
    """
    x = np.asarray(x, dtype=float)
    phi = np.sqrt(np.add.reduce(x * x, axis=0))  # (x_0^2 + x_1^2) + x_2^2
    big = np.isinf(phi)
    if np.any(big):
        m = np.max(np.abs(x[:, big]), axis=0)
        phi[big] = m * np.sqrt(np.sum((x[:, big] / m) ** 2, axis=0))
    sinc = np.divide(np.sin(phi), phi, out=np.ones_like(phi), where=phi != 0.0)
    return np.concatenate([np.cos(phi)[None], sinc * x])


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


# ---------------------------------------------------------------------------
# loops


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])[:, None]
_ENTRY_COMPONENTS = np.transpose(sorted(set(ENTRY_PAIRS)))  # (2, 2): each distinct pair i, j


@np.errstate(over="ignore", invalid="ignore")  # a non-finite leg makes its row non-finite
def closing_arc(g, beta, legs):
    """Z = Ad_exp(X) Y = exp(ad_X) Y (N, 3) for the legs X, Y of legs (N, 2, 3), in closed form.

    c^k_ij = sum_l eps_ijl N[l, k] (g.N), and N = n + [a]x
    is killing_data's split. Then ad_X Y = n (X x Y) + (a.X) Y - (a.Y) X = U Y
    + V Y; the Jacobi identity n a = 0 makes U and V commute, so exp(ad_X) =
    exp(U) exp(V), where V^2 = k V, k = a.X, gives exp(V) Y = e^k Y - phi_1(k)
    (a.Y) X, phi_1(k) = expm1(k) / k, and U^3 = -d U, d = X^T adj(n) X, gives
    exp(U) = Id + S(d) U + S(d/4)^2 U^2 / 2, S(d) = sin(sqrt d) / sqrt d
    (sinh(sqrt -d) / sqrt -d for d < 0, S(0) = 1). The legs are taken in
    units of 2^-e and N in units of 2^e, (x, e, m) = prescaled(g, beta): exact,
    and finite at every normal scale. Every operation is elementwise on rows
    (3, N), so row k of Z depends on row k of legs alone. A non-finite X
    makes its row NaN, a non-finite Y non-finite.
    """
    data = killing_data(g, beta)
    X, Y = XY = np.ldexp(legs.transpose(1, 2, 0), data.e, order="C")
    # each sum over a middle or leading axis of 3 adds its terms in order, row by row
    k, aY = np.add.reduce(data.a * XY, axis=1)
    phi1 = np.divide(np.expm1(k), k, out=np.ones_like(k), where=k != 0.0)
    W = np.exp(k) * Y - phi1 * aY * X  # exp(V) Y
    U = data.u * X.take(PREV, axis=0) - data.v * X.take(NEXT, axis=0)  # n [X]x
    UW = np.add.reduce(U * W, axis=1)
    UUW = np.add.reduce(U * UW, axis=1)
    d = np.add.reduce(np.add.reduce(data.adj * X, axis=1) * X, axis=0)  # X^T adj(n) X
    r = np.sqrt(np.abs(d)) * np.array([[1.0], [0.5]])  # sqrt|d| and sqrt|d / 4|
    s, half = np.divide(np.where(d > 0.0, np.sin(r), np.sinh(r)), r, out=np.ones_like(r), where=r != 0.0)
    return np.ldexp(W + s * UW + 0.5 * half * half * UUW, -data.e).T


def _hamilton(p, q):
    """Hamilton products p * q (4, N) of quaternions given as columns p, q (4, N), by _HAMILTON."""
    return _HAMILTON.T @ (p[:, None] * q[None]).reshape(16, -1)


def _entry_gap(p, q):
    """max_k |M(p) - M(q)|_k (N,) for quaternion columns (4, N): entry k's is hypot(p_i, p_j) (ENTRY_PAIRS)."""
    return np.hypot(*(p - q)[_ENTRY_COMPONENTS]).max(axis=0)


def _loop_legs(g, beta, rng, loops):
    """The arcs X, Y (loops, 2, 3) of `loops` loops: one draw of directions, then one of lengths.

    Lengths are 0.4-1.2 in units of 1 / residual_scale(g, beta), so a loop spans
    the same part of the group at every normal scale; killing_data refuses the
    sub-normal ones, where they would overflow.
    """
    d = rng.standard_normal((loops, 2, 3))
    t = rng.uniform(0.4, 1.2, (loops, 2))
    d /= np.sqrt(np.sum(d * d, axis=-1, keepdims=True))
    return (t / residual_scale(g, beta))[..., None] * d


LoopBatch = namedtuple("LoopBatch", "legs closing first second")
LoopBatch.__doc__ = """Loops X, Y, -X, -Z with the transports along their two halves as unit quaternions.

Row r of legs (N, 2, 3) holds X, Y and row r of closing Z. Both halves of
loop r, the path X, Y, -X and the arc Z, end at exp(X) exp(Y) exp(-X):
column r of first (4, N) is the transport along the path, and of second
(4, N) the transport along the arc.
"""


@np.errstate(over="ignore", invalid="ignore")  # an exponent that overflows makes its column NaN
def transport_loops(g, beta, legs, closing):
    """The LoopBatch of the loops with legs (N, 2, 3) and closing arcs (N, 3).

    The transport along -v is conj q_v bitwise, so a loop's first half is
    conj(q_X) (q_Y q_X) and its second q_Z.
    """
    arcs = np.concatenate([legs.transpose(2, 1, 0).reshape(3, -1), closing.T], axis=1)  # X | Y | Z
    q = _su2_quaternion(-killing_data(g, beta).b.T @ arcs)
    q_x, q_y, q_z = q.reshape(4, 3, len(legs)).swapaxes(0, 1)
    return LoopBatch(legs, closing, _hamilton(_CONJUGATE * q_x, _hamilton(q_y, q_x)), q_z)


def loop_batch(g, beta, rng, loops):
    """Draw `loops` closed loops and transport them as one LoopBatch.

    X, Y, -X reaches exp(X) exp(Y) exp(-X) = exp(Ad_exp(X) Y), so the arc -Z,
    Z = closing_arc(X, Y), returns to the identity on every simply connected
    group. A batch holds at least one loop: a count below 1 raises ShapeError.
    """
    if loops < 1:
        raise ShapeError(f"a loop batch needs at least 1 loop, got {loops}")
    legs = _loop_legs(g, beta, rng, loops)
    return transport_loops(g, beta, legs, closing_arc(g, beta, legs))


def loop_holonomy(batch):
    """max|H - Id| (N,) of the Killing holonomies H = conj(second) first around the batch's loops."""
    holonomy = _hamilton(_CONJUGATE * batch.second, batch.first)
    return _entry_gap(holonomy, np.eye(4, 1))  # gap to the identity


def path_independence_residual(batch):
    """max|first - second| over the batch's loops: how far their two halves' transports disagree."""
    return float(_entry_gap(batch.first, batch.second).max())


# ---------------------------------------------------------------------------
# the Killing basis

# Spinor values of the two basis sections at the group identity: (1, 0) and
# its quaternionic partner J (1, 0), so the basis is J-paired by construction.
BASE_SPINORS = np.array([[1.0, 0.0], j_structure([1.0, 0.0])], dtype=complex)
BASE_SPINORS.setflags(write=False)
_SECTION_SIGNS = BASE_SPINORS.diagonal().real[:, None]  # BASE_SPINORS is diagonal: (1, -1)


def sample_transports(g, beta, samples):
    """Transports (N, 2, 2) along N paths, each a (k, 3) array of arc frame vectors.

    Later arcs act on the left, and a path of one arc is that arc's
    transport. Each arc goes once through transport_operator(g, beta,
    GroupArc(v)), the per-arc entry that bench/run.py wraps to spot-check
    transports against RK4.
    """
    out = np.empty((len(samples), 2, 2), dtype=complex)
    for n, path in enumerate(samples):
        U = _ID2
        for v in path.tolist() if isinstance(path, np.ndarray) else path:
            T = transport_operator(g, beta, GroupArc(v))
            U = T if U is _ID2 else T @ U
        out[n] = U
    return out


def _sections(transports):
    """Values (N, 2, 2) of both basis sections: [n, k] = transports[n] @ BASE_SPINORS[k].

    BASE_SPINORS are (1, 0) and (0, -1): the columns U[:, 0] and -U[:, 1], up to signs of zeros.
    """
    return np.swapaxes(transports, -1, -2) * _SECTION_SIGNS


def min_singular_value(transports):
    """Smallest singular value of the normalized transported pair over a stack (N, 2, 2).

    The sections are the columns v of each transport, up to sign. Their Gram
    matrix [[a, c], [c*, b]] normalized to unit diagonal has sigma_min^2 = 1 -
    |c| / r = |det v|^2 / (r (r + |c|)), r = sqrt(a b), the form that does not
    cancel for nearly parallel sections. A non-finite transport reads NaN.
    """
    if not np.isfinite(transports).all():
        return float("nan")
    v = np.swapaxes(transports, -1, -2)  # (N, 2, 2): v[n, k] is column k
    r = np.sqrt(np.prod(np.sum(v.real * v.real + v.imag * v.imag, axis=-1), axis=-1))  # |v_1| |v_2|
    c = np.abs(np.sum(v[:, 0].conj() * v[:, 1], axis=-1))
    det = np.abs(v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0])
    return float(np.min(det / np.sqrt(r * (r + c))))


def killing_residual(g, beta, transports, h=1e-5):
    """Finite-difference check of the Killing equation on transported sections.

    transports (N, 2, 2) carry both basis sections to N sample points (see
    sample_transports). The report is max_i ||e_i(psi) + B_i psi|| / (s ||psi||),
    B_i = A_i - beta e_i, over all samples and both basis sections, with
    e_i(psi) the central difference of transports over +-h/s, s =
    residual_scale(g, beta): O(h^2) at every scale. It is taken in units of
    s, exponents +-h b / s, quotient by 2h and B_i / s from killing_data's
    steps, so no 2h/s overflows. A non-finite sample makes the report NaN.
    """
    rows = killing_data(g, beta).steps.tolist()
    psi = np.moveaxis(_sections(transports), -1, 0)[..., None]  # (2, N, 2, 1): component, sample, section
    # the steps of -h/s and +h/s along each e_i (single arcs, so on the float kernel), and B_i / s
    steps = [_float_quaternion([sign * h * v for v in row]) for sign in (-1, 1) for row in rows]
    ops = (np.array(steps + [(0.0, *row) for row in rows]) @ QUATERNION_BASIS).reshape(3, 3, 1, 1, 2, 2)
    # M psi for each, entry by entry (the bits of M @ psi): axes e_i, sample, section, component
    plus, minus, B = ops[..., 0] * psi[0] + ops[..., 1] * psi[1]
    defect = np.abs((plus - minus) / (2.0 * h) + B)
    size = np.abs(psi)[..., 0]
    return float(np.max(np.maximum(defect[..., 0], defect[..., 1]) / np.maximum(size[0], size[1])))


# ---------------------------------------------------------------------------
# Gauduchon-Tod parameter search


# a converged search: its root, residual norm and Newton steps, and the GTReport at the root
GTSearchResult = namedtuple("GTSearchResult", "params residual_norm iterations report")


def milnor_theta3_family(params):
    """(l1, l2, l3, theta3, beta) -> Milnor geometry with theta = (0, 0, theta3)."""
    params = np.asarray(params, dtype=float)
    g = milnor_geometry(params[:3], (0.0, 0.0, params[3]))
    return g, WeightedDensity(float(params[4]))


_MAX_HALVINGS = 20


@functools.lru_cache(maxsize=1)
def _family_quadratic_form():
    """Read-only Q (13, 5, 5), symmetric in its last two axes, with r(x) = (Q @ x) @ x.

    r(x) is geometry.gt_coefficients at the form_coordinates of milnor_theta3_family(x),
    N = diag(l1, l2, l3) and theta = (0, 0, theta3), the Gauduchon-Tod residuals. Each
    row is a homogeneous quadratic in x, so Q is fixed by its values at the 15 points
    e_k and e_k + e_l (k < l):
        Q[:, k, k] = r(e_k),  Q[:, k, l] = (r(e_k + e_l) - r(e_k) - r(e_l)) / 2.
    Every coefficient is a multiple of 1/24, so 24 Q is rounded to the integers it is,
    which drops the rounding of the evaluations; a polarized 24 Q more than 1e-12 from
    integers is refused. Built on first use, not at import, with no zero of negative sign.
    """
    idx = [0, 4, 8, 11, 12]  # l1, l2, l3, theta3 and beta among the 13 coordinates
    n = len(idx)
    eye, (k, l) = np.eye(n), np.triu_indices(n, 1)
    points = np.zeros((n + len(k), 13))
    points[:, idx] = np.concatenate([eye, eye[k] + eye[l]])
    r = 24 * np.array([gt_coefficients(x) for x in points.tolist()]).T
    diag = r[:, :n]
    polarized = np.empty((len(r), n, n))
    polarized[:, range(n), range(n)] = diag
    polarized[:, k, l] = polarized[:, l, k] = (r[:, n:] - diag[:, k] - diag[:, l]) / 2
    form = np.rint(polarized)
    defect = float(np.max(np.abs(polarized - form)))
    if not defect <= 1e-12:
        raise RuntimeError(f"polarized 24 Q is {defect:.3e} from integers")
    Q = form / 24 + 0.0
    Q.setflags(write=False)
    return Q


def _pin_index(name):
    """The coordinate a pin names, a PIN_INDEX key; ShapeError for anything else."""
    if not (isinstance(name, str) and name in PIN_INDEX):
        raise ShapeError(f"unknown pin {name!r}, expected one of {', '.join(PIN_INDEX)}")
    return PIN_INDEX[name]


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught and reported below
def find_gt_parameters(x0, pin=("lambda1", None), tolerance=1e-10, max_iterations=50):
    """Damped Newton search for a root of the Gauduchon-Tod residual system.

    One coordinate is pinned to quotient out the conformal rescaling freedom:
    pin = (a PIN_INDEX name, value), value None keeping x0's entry; any other
    pin raises ShapeError. Newton steps solve the least-squares system for
    the residuals of milnor_theta3_family, halving the step while
    the residual norm does not decrease. Singular values of the Jacobian below
    1e-12 of the largest are dropped: along the curves of roots the Jacobian
    loses rank, and a step along a singular value of rounding size is noise
    that backtracking cannot halve away. The residuals are the quadratic form
    r(x) = (Q @ x) @ x of _family_quadratic_form, with the exact Jacobian 2 (Q
    @ x)[:, free]; no geometry is built inside the iteration. It runs at the
    start's own scale, on x0 / 2^e with x0's scale (geometry.scale_of)
    = m 2^e, 1/2 <= m < 1, and the root is the iterate times 2^e: both exact,
    so a start scaled by a power of two gives its root scaled by the same.
    Success means max|r(x)| < tolerance s^2, s the iterate's scale, within
    max_iterations, confirmed by analyze at the root: residual_norm is the
    largest of its three normalized blocks, and report its GTReport. A root
    whose residual_norm is not below tolerance is refused. Otherwise, or once
    a residual or step is not finite, NoConvergence carries the last iterate,
    the best one (an accepted step always lowers the norm), and analyze's
    largest block there.
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
    _, e = math.frexp(scale_of(x))
    x = np.ldexp(x, -e)

    def finish(iterations, why=None):
        """End the search at the root, the iterate times 2^e, with one analyze call.

        A root of the form (why None) that analyze holds below tolerance is returned as the
        GTSearchResult; any other end raises NoConvergence, saying why.
        """
        root = tuple(np.ldexp(x, e).tolist())
        report = analyze(*milnor_theta3_family(root))
        norm = max(report.n_ew, report.n_scal, report.n_star)
        if why is None and norm < tolerance:
            return GTSearchResult(root, norm, iterations, report)
        why = why or "the form's root fails the formula"
        raise NoConvergence(
            f"{why}, best residual {norm:.3e}",
            best_params=root,
            best_residual=norm,
            iterations=iterations,
        )

    qx = Q @ x
    r = qx @ x
    norm = float(np.max(np.abs(r)))
    for it in range(max_iterations + 1):
        if norm < tolerance * scale_of(x) ** 2:
            return finish(it)
        if it == max_iterations:
            return finish(it, f"iteration cap {max_iterations} hit")
        jac = 2.0 * qx[:, free]
        if not (np.isfinite(norm) and np.all(np.isfinite(jac))):
            return finish(it, "non-finite residual")
        step, *_ = np.linalg.lstsq(jac, -r, rcond=1e-12)
        if not np.all(np.isfinite(step)):
            return finish(it, "non-finite Newton step")
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
            return finish(it, "backtracking stalled")
        x, qx, r, norm = xt, qxt, rt, nt
