"""Dense complex linear algebra helpers and the verification report record.

Everything here operates on 2-d ``numpy`` arrays of ``complex128`` in
row-major (C) order.  The row-major convention matters: ``vec`` of a
matrix is its flattened rows, so ``vec(A @ X @ B) = (A kron B.T) vec(X)``;
the intertwining systems number their unknowns in this order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_REL_TOL = 1e-9

# Columns from which a tall ``nullspace`` factors QR first.  Measured with OpenBLAS on 2 CPUs:
# at 6 columns (the n = 1 bulk system, 20 x 6) the extra QR costs ~10 us of ~25 us, at 15
# (n = 2, 54 x 15) both take ~90 us, and from 16 columns (48 x 16) on R first is as fast or faster.
QR_FIRST_MIN_COLS = 16

# Relative tie tolerance for picking the max-modulus entry in normalize_solution.
_TIE_TOL = 1e-12


def check_tolerance(tol) -> float:
    """Return ``tol`` as a float; anything but a positive, finite value is a ValueError."""
    value = float(tol)
    if not 0 < value < math.inf:  # also rejects NaN
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return value


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def isclose(a: complex, b: complex) -> bool:
    """``np.isclose(a, b, atol=0)`` in both directions: |a - b| <= 1e-5 min(|a|, |b|), symmetric."""
    return abs(a - b) <= 1e-5 * min(abs(a), abs(b))


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def flip_operator(d_a: int, d_b: int) -> np.ndarray:
    """Permutation matrix P with P(u kron v) = v kron u.

    Here u runs over C^d_a and v over C^d_b, so P maps the tensor slot
    order (a, b) to (b, a).  Shape is (d_a*d_b, d_a*d_b) and
    flip_operator(d_a, d_b) @ flip_operator(d_b, d_a) is the identity.
    """
    if d_a < 1 or d_b < 1:
        raise ValueError("leg dimensions must be >= 1")
    size = d_a * d_b
    eye = np.eye(size, dtype=np.complex128)
    return eye.reshape(d_a, d_b, size).transpose(1, 0, 2).reshape(size, size)


def embed_on_legs(op, legs, leg_dims) -> np.ndarray:
    """Act with a square operator on selected tensor legs, identity elsewhere.

    ``legs`` are 0-based, strictly increasing positions into ``leg_dims``.
    ``op x 1`` acts on the legs reordered as (selected..., rest...); its
    row and column axes are then moved back to the original leg order.
    """
    op = as_matrix(op)
    legs = list(legs)
    dims = [int(d) for d in leg_dims]
    if any(l < 0 or l >= len(dims) for l in legs):
        raise ValueError(f"legs {legs} out of range for {len(dims)} legs")
    if sorted(legs) != legs or len(set(legs)) != len(legs):
        raise ValueError("legs must be strictly increasing")
    sel = int(np.prod([dims[l] for l in legs]))
    if op.shape != (sel, sel):
        raise ValueError(
            f"operator shape {op.shape} does not match selected leg dims (total {sel})"
        )
    order = legs + [k for k in range(len(dims)) if k not in legs]
    total = int(np.prod(dims))
    big = np.kron(op, np.eye(total // sel, dtype=np.complex128))
    back = [order.index(k) for k in range(len(dims))]
    tensor = big.reshape([dims[k] for k in order] * 2)
    return tensor.transpose(back + [len(dims) + k for k in back]).reshape(total, total)


@dataclass
class NullspaceResult:
    """Right nullspace of a matrix, from an SVD rank decision."""

    dimension: int
    basis: np.ndarray  # one basis vector per row
    sigma_max: float  # 0 for an all-zero matrix
    margin: float  # min(kept sigma_min / cut, cut / dropped sigma_max)


def rank_decision(s, rel_tol: float = DEFAULT_REL_TOL):
    """Rank of one matrix or a stack of them, read off singular values alone.

    ``s`` holds each matrix's singular values in descending order along its
    last axis.  A singular value counts iff it is >= cut = rel_tol * sigma_max,
    and a matrix with sigma_max = 0 (all zero, or without rows) has rank 0.
    The margin is min(kept sigma_min / cut, cut / dropped sigma_max): the
    factor between the cut and the nearest singular value, inf for a side
    that has none or only exact zeros.  Returns (rank, sigma_max, margin),
    each shaped like ``s[..., 0]``.
    """
    check_tolerance(rel_tol)
    s = np.asarray(s, dtype=float)
    if not s.shape[-1]:  # a matrix without rows: one zero singular value
        s = np.zeros(s.shape[:-1] + (1,))
    # a few Python-float steps per matrix cost less than a dozen numpy calls on 0-d arrays
    decided = [_decide(row, rel_tol) for row in s.reshape(-1, s.shape[-1]).tolist()]
    decided = np.array(decided, dtype=float).reshape(*s.shape[:-1], 3)
    return decided[..., 0].astype(np.intp), decided[..., 1], decided[..., 2]


def _decide(row: list, rel_tol: float) -> tuple:
    """(rank, sigma_max, margin) of one descending list of singular values (``rank_decision``)."""
    sigma_max = row[0]
    cut = rel_tol * sigma_max
    if not cut:  # an all-zero row, or a cut that underflows: only exact zeros are dropped
        return len(row) - row.count(0.0), sigma_max, math.inf
    rank = len(row) - bisect.bisect_left(row[::-1], cut)  # the kept s >= cut lead the row
    low = row[rank - 1] / cut if rank else math.inf
    high = cut / row[rank] if rank < len(row) and row[rank] else math.inf
    return rank, sigma_max, min(low, high)


def nullspace(m, rel_tol: float = DEFAULT_REL_TOL) -> NullspaceResult:
    """Orthonormal basis of the right nullspace of ``m``, ranked by ``rank_decision``.

    An all-zero matrix, also one with no rows, yields the full space with
    ``sigma_max`` 0.  Only s and V^H are read, and no U of a tall matrix is
    formed.  A matrix with at least 17 rows per 9 columns, where zgesdd
    itself factors QR first (its ``MNTHR1``), and at least
    ``QR_FIRST_MIN_COLS`` columns is factored QR first here, and the SVD is
    taken of R alone (Chan's R-SVD): its s and V^H are the matrix's own.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if not m.any():
        s, vh = np.zeros(0), np.eye(cols, dtype=np.complex128)
    elif 9 * rows >= 17 * cols and cols >= QR_FIRST_MIN_COLS:
        _, s, vh = np.linalg.svd(np.linalg.qr(m, mode="r"), full_matrices=False)
    else:
        # a wide matrix needs the full V^H for its complement; a tall one has it thin
        _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    rank, sigma_max, margin = (x.item() for x in rank_decision(s, rel_tol))
    return NullspaceResult(cols - rank, vh[rank:].conj(), sigma_max, margin)


def stack_nullities(stack):
    """Nullspace dimensions and margins of a (points, rows, cols) stack, from singular values only."""
    if not np.isfinite(stack).all():
        raise ValueError("matrix has non-finite entries")
    s = np.linalg.svd(stack, compute_uv=False)
    rank, _, margin = rank_decision(s)
    return stack.shape[2] - rank, margin


def projective_compare(a, b, tol: float):
    """Compare two matrices up to one overall scalar.

    Returns (equal, lam, deviation) where lam = <vec b, vec a> / |vec b|^2
    and deviation = |a - lam*b|_F / |a|_F.  Comparing zero against nonzero
    reports not-equal with deviation 1; two zero inputs are an error.  The
    deviation is measured relative to the left argument.
    """
    check_tolerance(tol)
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        raise ValueError("degenerate comparison: both matrices are zero")
    if na == 0.0 or nb == 0.0:
        return False, 0j, 1.0
    lam = complex(np.vdot(b, a) / nb**2)
    deviation = float(np.linalg.norm(a - lam * b)) / na
    return deviation <= tol, lam, deviation


def normalize_solution(v) -> np.ndarray:
    """Divide by the entry of maximum modulus (first index on near-ties).

    Near-ties are judged relative to the largest modulus, so the pivot does
    not depend on the overall scale of ``v``.  The chosen entry becomes
    exactly 1+0i, which makes nullspace output independent of the arbitrary
    SVD phase.  Idempotent.
    """
    v = as_matrix(np.atleast_2d(v))
    flat = v.ravel()
    mods = np.abs(flat)
    top = float(mods.max())
    if top == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    pivot_index = int(np.nonzero(mods >= top * (1.0 - _TIE_TOL))[0][0])
    out = flat / flat[pivot_index]
    out[pivot_index] = 1.0
    return out.reshape(v.shape)


def relative_defect(lhs, rhs) -> float:
    """Frobenius defect |lhs-rhs| scaled by max(1, |lhs|, |rhs|)."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    scale = max(1.0, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs)) / scale


@dataclass
class VerificationReport:
    """Outcome of one numerical identity check.

    ``lam`` is the single scalar recovered by a projective comparison
    (identities hold only up to one overall factor; 1 for direct checks),
    ``deviation`` the relative mismatch after dividing that scalar out.
    """

    name: str
    deviation: float
    lam: complex
    tol: float
    passed: bool

    @classmethod
    def projective(cls, name: str, lhs, rhs, tol: float) -> "VerificationReport":
        """Report of ``projective_compare(lhs, rhs, tol)``."""
        equal, lam, deviation = projective_compare(lhs, rhs, tol)
        return cls(name=name, deviation=deviation, lam=lam, tol=tol, passed=equal)

    @classmethod
    def worst_of(cls, name: str, defects, tol: float) -> "VerificationReport":
        """Report of the worst of ``defects``; a NaN defect propagates and fails."""
        check_tolerance(tol)
        worst = float(np.max(defects))
        return cls(name=name, deviation=worst, lam=1.0, tol=tol, passed=worst <= tol)
