"""Dense tensor calculus over a 3-dimensional orthonormal frame.

Frame tensors of rank r are numpy arrays of shape (3,)*r; spinor-valued tensors
carry one extra trailing axis of length 2. Since frame axes have length 3 the
two kinds never collide, and every operation here infers the kind from the
shape.

Batch axes: alt, sym0, kulkarni_nomizu, mu_contract, nu_embed and hodge_star (and
tensor_rank, which they use) take `batch`, a count of leading axes that index
independent tensors, default 0. The shape rule applies to the axes after
them, slots are still numbered from the first frame axis, and row b of the
result is the operation on row b of the input, bit for bit: an operation that
sums several Clifford terms adds them in a fixed order (clifford.clifford_sum),
so rounding does not depend on the batch size. A batch axis of length 3 is
never read as a frame axis, which is why the count is explicit and not
inferred. Every shape, slot and symmetry check applies to the whole batch.

Conventions pinned by the identity suite (see docs/CONVENTIONS.md):

  * Alt is unnormalized: (Alt T)_{ij...} = T_{ij...} - T_{ji...}.
  * Kulkarni-Nomizu permutations act by slot relabeling,
    (p.T)(v1,..,v4) = T(v_{p(1)},..,v_{p(4)}), with the permutation word
    composed right to left.
  * mu with several slots composes Clifford factors left to right in the
    listed slot order (mu over slots (3,4) puts the slot-3 factor leftmost).
"""

import numpy as np

from .clifford import clifford_images, clifford_sum
from .errors import RankError, SlotError, SymmetryError

_ID3 = np.eye(3)
NEXT, PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # (i, NEXT[i], PREV[i]) is cyclic: i + 1, i + 2 mod 3
NEXT.setflags(write=False)
PREV.setflags(write=False)


def metric():
    """The gauge metric in the orthonormal frame: the 3x3 identity."""
    return _ID3.copy()


def tensor_rank(T, batch=0):
    """Return (rank, spinor_valued) for a dense frame tensor after `batch` leading axes.

    The trailing axis of length 2, if present, is the spinor axis; all other
    axes after the batch axes must have length 3.
    """
    T = np.asarray(T)
    if T.ndim < batch:
        raise RankError(f"shape {T.shape} has fewer than {batch} batch axes")
    shape = T.shape[batch:]
    spinor = bool(shape) and shape[-1] == 2
    frame_shape = shape[:-1] if spinor else shape
    if any(n != 3 for n in frame_shape):
        raise RankError(f"not a frame tensor shape: {shape}")
    return len(frame_shape), spinor


def alt(T, batch=0):
    """Antisymmetrize the first two frame slots, unnormalized (1 - (12)).

    Alt(Alt(T)) = 2 Alt(T). Requires rank >= 2.
    """
    T = np.asarray(T)
    rank, _ = tensor_rank(T, batch)
    if rank < 2:
        raise RankError(f"alt needs rank >= 2, got rank {rank}")
    return T - np.swapaxes(T, batch, batch + 1)


def sym0(S, batch=0):
    """Symmetric trace-free part of a rank-2 frame tensor."""
    S = np.asarray(S)
    rank, spinor = tensor_rank(S, batch)
    if rank != 2 or spinor:
        raise RankError(f"sym0 needs a plain rank-2 tensor, got shape {S.shape}")
    trace = S.trace(axis1=-2, axis2=-1)[..., None, None]
    return 0.5 * (S + S.swapaxes(-2, -1)) - (trace / 3.0) * _ID3


def kulkarni_nomizu(w, h, batch=0):
    """Kulkarni-Nomizu product of two rank-2 frame tensors.

    (w kn h) = [(23) + (12)(24)(34) - (24) - (12)(23)] applied to w (x) h,
    permutations acting by slot relabeling: out[ijkl] = t[ikjl] + t[jlik] -
    t[ilkj] - t[jkil] (the word (12)(24)(34) composes, right to left, to the
    relabeling out[ijkl] = T[jlik]). Both factors carry the same batch axes,
    moved behind the frame slots so each product and sum runs over the batch
    in its inner loop, and in front of the result again.
    """
    w = np.asarray(w)
    h = np.asarray(h)
    for a in (w, h):
        rank, spinor = tensor_rank(a, batch)
        if rank != 2 or spinor:
            raise RankError(f"kulkarni_nomizu needs rank-2 tensors, got shape {a.shape}")
    if w.shape[:batch] != h.shape[:batch]:
        raise RankError(f"batch axes differ: {w.shape[:batch]} and {h.shape[:batch]}")
    lead, rest = range(batch), range(4, 4 + batch)
    w, h = (np.transpose(a, (batch, batch + 1, *lead)) for a in (w, h))
    t = w[:, :, None, None] * h
    out = t.transpose(0, 2, 1, 3, *rest) + t.transpose(2, 0, 3, 1, *rest)
    out -= t.transpose(0, 3, 2, 1, *rest)
    out -= t.transpose(2, 0, 1, 3, *rest)
    return out.transpose(*rest, 0, 1, 2, 3)


def mu_contract(slots, T, batch=0):
    """Clifford-contract the listed frame slots of a spinor-valued tensor.

    Slots are 1-based and distinct. Each listed slot j is summed against the
    frame, contributing a Clifford factor e_a; factors compose left to right
    in the listed order, so mu over (3,4) yields e_a e_b acting on the spinor
    part with a from slot 3 and b from slot 4. The surviving slots keep their
    original relative order.
    """
    T = np.asarray(T, dtype=complex)
    rank, spinor = tensor_rank(T, batch)
    if not spinor:
        raise RankError("mu_contract needs a spinor-valued tensor")
    slots = list(slots)
    if not slots:
        raise SlotError("need at least one slot to contract")
    if len(set(slots)) != len(slots):
        raise SlotError(f"slots must be distinct, got {slots}")
    for s in slots:
        if not 1 <= s <= rank:
            raise SlotError(f"slot {s} out of range for rank {rank}")
    listed = [batch + s - 1 for s in slots]
    rest = [a for a in range(batch, batch + rank) if a not in listed]
    T = np.transpose(T, list(range(batch)) + listed + rest + [batch + rank])
    # Contract the last listed slot first so earlier factors multiply on the
    # left, giving the left-to-right composition order.
    for j in reversed(range(len(listed))):
        T = np.moveaxis(T, batch + j, 0)
        T = clifford_sum(T)
    return T


def nu_embed(x, batch=0):
    """Prepend a frame slot with values e_i . x.

    Accepts a bare spinor (rank 0) or any spinor-valued tensor; the new slot
    becomes slot 1, right after the batch axes. Entry i of that slot is
    clifford_apply(i, x), from clifford_images, so every value is exact.
    """
    x = np.asarray(x, dtype=complex)
    _, spinor = tensor_rank(x, batch)
    if not spinor:
        raise RankError("nu_embed needs a spinor or spinor-valued tensor")
    out = clifford_images(x)
    return out.transpose(*range(batch), out.ndim - 2, *range(batch, out.ndim - 2), out.ndim - 1)


def hodge_star(F, batch=0):
    """Hodge star of an antisymmetric rank-2 frame tensor, (*F)_k = 1/2 eps_ijk F_ij.

    Component i is 1/2 (F_jk - F_kj), (i, j, k) cyclic: the eps sum's two
    nonzero terms. A tensor (any one of a batch) is refused when an entry of F + F^T exceeds 1e-12
    of its own largest entry modulus, at every scale; non-finite entries compare false and pass.
    """
    F = np.asarray(F)
    rank, spinor = tensor_rank(F, batch)
    if rank != 2 or spinor:
        raise RankError(f"hodge_star needs a plain rank-2 tensor, got shape {F.shape}")
    with np.errstate(over="ignore"):  # a sum that overflows is a skew above any bound
        skew = np.abs(F + np.swapaxes(F, -1, -2))
    if skew.any() and np.any(skew > 1e-12 * np.abs(F).max(axis=(-2, -1), keepdims=True)):
        raise SymmetryError("hodge_star needs an antisymmetric input")
    return 0.5 * (F[..., NEXT, PREV] - F[..., PREV, NEXT])

