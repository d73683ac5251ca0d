"""Irreducible representation of the 3-dimensional Clifford algebra on C^2.

The generators are fixed once and for all as e_k = i * sigma_k (Pauli matrices),
which satisfies both defining relations exactly, with entries in {0, +-1, +-i}:

    e_i e_j + e_j e_i = -2 delta_ij Id
    e_i e_j = -sum_k eps_ijk e_k   (i != j)

Each e_k has exactly one nonzero entry per row, a unit in {+-1, +-i}, so
e_k psi is a swap (or not) of the two spinor components times one unit per
component. clifford_apply applies it that way, from column and unit tables read
off E, and clifford_images gives all three e_a psi from one gather of psi; no
floating-point operation in either rounds. A product e_a e_b has the same form,
so clifford_pairs gives all nine e_a e_b psi from one gather and is exact too.

QUATERNION_BASIS holds Id and q_k = -e_k (q_i q_j = eps_ijk q_k) as flattened rows, so
p @ QUATERNION_BASIS is p_0 Id + sum_k p_k q_k; its entry k is +-p_i +- i p_j with
(i, j) = ENTRY_PAIRS[k], of modulus hypot(p_i, p_j). ENTRY_PAIRS is written as a
literal in geometry, whose flatness reads it without loading numpy; the tests pin
it to QUATERNION_BASIS's nonzero pattern.

The quaternionic structure J psi = e_2 conj(psi) is antilinear, squares to -Id,
and commutes with Clifford multiplication by real frame vectors. Its existence
is what forces the solution space of the Killing equation to be even-dimensional.
"""

import numpy as np

from .errors import ShapeError
from .geometry import ENTRY_PAIRS

# e_k = i * sigma_k
E = np.array(
    [
        [[0.0, 1j], [1j, 0.0]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[1j, 0.0], [0.0, -1j]],
    ],
    dtype=complex,
)
E.setflags(write=False)

QUATERNION_BASIS = np.concatenate([np.eye(2, dtype=complex)[None], -E]).reshape(4, 4)
QUATERNION_BASIS.setflags(write=False)

EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_j, _i, _k] = -1.0
EPS.setflags(write=False)

# Row s of e_a has its one nonzero entry in column _COL[a, s], of value
# _UNIT[a, s]. Both tables are read off E, so E stays the one written copy.
_COL = np.argmax(E != 0, axis=-1)
_UNIT = np.take_along_axis(E, _COL[..., None], axis=-1)[..., 0]
_COL.setflags(write=False)
_UNIT.setflags(write=False)

# The same tables for the nine products e_a e_b, indexed [a, b, s]: row s of
# e_a reads row _COL[a, s] of e_b. A product of two units is a unit, exactly.
_PAIR_COL = _COL[np.arange(3)[:, None], _COL[:, None, :]]
_PAIR_UNIT = _UNIT[:, None, :] * _UNIT[np.arange(3)[:, None], _COL[:, None, :]]
_PAIR_COL.setflags(write=False)
_PAIR_UNIT.setflags(write=False)


def clifford_apply(a, x):
    """e_a x on the trailing spinor axis of the array x, for a in (0, 1, 2).

    (e_a x)_s = _UNIT[a, s] * x_{_COL[a, s]}: a gather of the two components
    and one multiplication by a unit, which rounds nothing. For finite x this
    equals np.einsum("st,...t->...s", E[a], x) entry for entry; only the sign
    of an exact zero can differ. Leading axes pass through, and x may be any
    strided view. The gather is the one new array: the unit multiplies it in
    place.
    """
    out = np.asarray(x, dtype=complex)[..., _COL[a]]
    out *= _UNIT[a]
    return out


def clifford_images(x):
    """e_a x for a = 0, 1, 2, on a new axis before the spinor axis.

    out[..., a, s] = _UNIT[a, s] * x_{_COL[a, s]}: one gather and one unit
    multiplication in place, so entry a equals clifford_apply(a, x) bit for bit.
    """
    out = np.take(np.asarray(x, dtype=complex), _COL, axis=-1)
    out *= _UNIT
    return out


def clifford_pairs(x):
    """e_a e_b x for all nine pairs (a, b), on two new axes before the spinor axis.

    out[..., a, b, s] = _PAIR_UNIT[a, b, s] * x_{_PAIR_COL[a, b, s]}: one
    gather and one multiplication by a unit, in place, so for finite x entry
    (a, b) equals clifford_apply(a, clifford_apply(b, x)) entry for entry;
    only the sign of an exact zero can differ. The result is C-contiguous, so
    its float view holds the real and imaginary parts side by side.
    """
    out = np.take(np.asarray(x, dtype=complex), _PAIR_COL, axis=-1)
    out *= _PAIR_UNIT
    return out


def clifford_sum(x):
    """sum_a e_a x[a] for a sequence of three arrays with a trailing spinor axis.

    Each term is clifford_apply(a, x[a]), which is exact, and the three terms
    are added in the order a = 1, 2, 3: every output entry is rounded the same
    way whatever the shape of x, so a batch row equals its one-trial value.
    Terms are added in place, one at a time, so at most two are held at once.
    """
    out = clifford_apply(0, x[0])
    for a in (1, 2):
        out += clifford_apply(a, x[a])
    return out


def act(v, psi, batch=0):
    """Clifford multiplication (sum_k v_k e_k) psi for a real frame vector v.

    Real coefficients only; applying the same v twice gives -||v||^2 psi. With
    `batch` leading axes, v has shape B + (3,) and psi shape B + (..., 2), and
    row b of the result is act(v[b], psi[b]). The terms v_k (e_k psi), from
    clifford_images, are added in the order k = 1, 2, 3.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[batch:] != (3,):
        raise ShapeError(f"frame vector must have shape B + (3,), got {v.shape}")
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim <= batch or psi.shape[-1] != 2:
        raise ShapeError(f"spinor values need a trailing axis of length 2, got {psi.shape}")
    if psi.shape[:batch] != v.shape[:batch]:
        raise ShapeError(f"batch axes differ: {v.shape[:batch]} and {psi.shape[:batch]}")
    v = v.reshape(v.shape[:batch] + (1,) * (psi.ndim - batch - 1) + (3, 1))
    terms = v * clifford_images(psi)
    return terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]


def j_structure(psi):
    """Quaternionic structure J psi = e_2 conj(psi).

    Antilinear, J^2 = -Id, commutes with Clifford multiplication by real
    vectors, preserves the norm. For psi != 0 the pair (psi, J psi) is a
    C-basis of the spinor space: det[psi, J psi] = -||psi||^2 != 0.
    Leading axes, batch axes included, pass through: J acts on the trailing
    spinor axis of each row.
    """
    psi = np.asarray(psi, dtype=complex)
    return clifford_apply(1, np.conj(psi))
