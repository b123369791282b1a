"""Dense complex linear algebra helpers and the verification report record.

Everything here operates on 2-d ``numpy`` arrays of ``complex128`` in
row-major (C) order.  The row-major convention matters: ``vec`` of a
matrix is its flattened rows, so ``vec(A @ X @ B) = (A kron B.T) vec(X)``;
the intertwining systems number their unknowns in this order.

This module owns every factorization and every rank cut.  ``nullspace``
takes one matrix; ``block_nullspace`` takes a block-diagonal matrix as its
(N, rows, cols) stack of diagonal blocks, as the Fourier blocks of a
cyclic-covariant bulk system come, and ranks all blocks' singular values
under one cut.  ``stack_nullities`` ranks a scan's stack of either kind from
singular values alone, through the same values-only SVD.  All three decide
with one rule, ``_decide``, and merge blocks' values with one function,
``merged_singular_values``.

``embed_on_legs`` and ``kron`` build dense Kronecker embeddings.  No library
code calls them: the checks compose on nonzeros (``checks._on_legs``).  The
tests keep them as the checks' dense oracle.
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


def nullspace(m, rel_tol: float = DEFAULT_REL_TOL) -> NullspaceResult:
    """Orthonormal basis of the right nullspace of ``m``, ranked by ``_decide``.

    An all-zero matrix, also one with no rows, yields the full space with
    ``sigma_max`` 0.  Only s and V^H are read, and no U of a tall matrix is
    formed.  A matrix with at least 17 rows per 9 columns, where zgesdd
    itself factors QR first (its ``MNTHR1``), and at least
    ``QR_FIRST_MIN_COLS`` columns is factored QR first here, and the SVD is
    taken of R alone (Chan's R-SVD): its s and V^H are the matrix's own.
    """
    m = as_matrix(m)
    s, vh = _right_factors(m)
    rank, sigma_max, margin = _decide(s.tolist(), check_tolerance(rel_tol))
    return NullspaceResult(m.shape[1] - rank, vh[rank:].conj(), sigma_max, margin)


def _right_factors(m: np.ndarray) -> tuple:
    """The singular values and V^H of a finite matrix, as ``nullspace`` reads them."""
    rows, cols = m.shape
    if not m.any():
        return np.zeros(0), np.eye(cols, dtype=np.complex128)
    if 9 * rows >= 17 * cols and cols >= QR_FIRST_MIN_COLS:
        _, s, vh = np.linalg.svd(np.linalg.qr(m, mode="r"), full_matrices=False)
    else:
        # a wide matrix needs the full V^H for its complement; a tall one has it thin
        _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return s, vh


def merged_singular_values(s: np.ndarray) -> np.ndarray:
    """Singular values (..., N, k) of N diagonal blocks as one descending row (..., N k) each.

    These are the singular values of the block-diagonal matrix, in the order
    ``_decide`` reads.  One block's values are already descending and are
    not sorted again.
    """
    merged = s.reshape(*s.shape[:-2], -1)
    return merged if s.shape[-2] == 1 else np.sort(merged, axis=-1)[..., ::-1]


def _decide(row: list, rel_tol: float) -> tuple:
    """(rank, sigma_max, margin) of one descending list of singular values: the one rank rule.

    A singular value counts iff it is >= cut = rel_tol * sigma_max.  A
    matrix without rows has no singular values and reads as one zero, and a
    matrix with sigma_max = 0 has rank 0.  The margin is min(kept sigma_min
    / cut, cut / dropped sigma_max): the factor between the cut and the
    nearest singular value, inf for a side that has none or only exact
    zeros.  A few Python-float steps cost less than numpy calls on 0-d arrays.
    """
    row = row or [0.0]
    sigma_max = row[0]
    cut = rel_tol * sigma_max
    rank = _kept(row, cut)
    if not cut:
        return rank, sigma_max, math.inf
    low = row[rank - 1] / cut if rank else math.inf
    high = cut / row[rank] if rank < len(row) and row[rank] else math.inf
    return rank, sigma_max, min(low, high)


def _kept(row: list, cut: float) -> int:
    """How many of a descending list of singular values a rank keeps at ``cut``.

    Those >= cut lead the row; a zero cut (an all-zero row, or a cut that
    underflows) drops only exact zeros.
    """
    if not cut:
        return len(row) - row.count(0.0)
    return len(row) - bisect.bisect_left(row[::-1], cut)


def block_nullspace(blocks: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> NullspaceResult:
    """``nullspace`` of the block-diagonal matrix whose diagonal blocks are ``blocks``.

    ``blocks`` is a finite (N, rows, cols) complex array; finiteness is the
    caller's to check.  One values-only SVD of every block gives the
    singular values, and ``_decide`` ranks them merged
    (``merged_singular_values``), so the cut is rel_tol times the largest
    singular value of any block, and ``sigma_max`` and the margin are the
    whole matrix's.  Each block keeps its values at that cut.  V^H is then
    computed, as ``nullspace`` computes it, only for the blocks with a null
    direction.  The basis is in the block-diagonal matrix's coordinates,
    block-major: each vector lies within one block's ``cols`` entries.
    """
    rel_tol = check_tolerance(rel_tol)
    count, _, cols = blocks.shape
    s = np.linalg.svd(blocks, compute_uv=False)
    rank, sigma_max, margin = _decide(merged_singular_values(s).tolist(), rel_tol)
    cut = rel_tol * sigma_max
    basis = np.zeros((count * cols - rank, count, cols), dtype=np.complex128)
    found = 0
    for k, values in enumerate(s.tolist()):
        kept = _kept(values, cut)
        if kept < cols:
            null = _right_factors(blocks[k])[1][kept:].conj()
            basis[found:found + len(null), k] = null
            found += len(null)
    return NullspaceResult(len(basis), basis.reshape(len(basis), count * cols), sigma_max, margin)


def stack_nullities(stack) -> tuple:
    """Nullspace dimensions and margins of a stack of systems, from singular values only.

    A (points, N, rows, cols) stack holds each point's block-diagonal matrix
    as its N diagonal blocks, and a (points, rows, cols) stack one matrix per
    point, ranked as one block.  Each point is decided as ``block_nullspace``
    decides; the dimensions and margins come as two lists.
    """
    if not np.isfinite(stack).all():
        raise ValueError("matrix has non-finite entries")
    blocks = stack.reshape(len(stack), math.prod(stack.shape[1:-2]), *stack.shape[-2:])
    s = merged_singular_values(np.linalg.svd(blocks, compute_uv=False))
    cols = blocks.shape[1] * blocks.shape[3]
    decided = [_decide(row, DEFAULT_REL_TOL) for row in s.tolist()]
    return [cols - rank for rank, _, _ in decided], [margin for _, _, margin in decided]


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
    return scale_to_pivot(as_matrix(np.atleast_2d(v)))


def scale_to_pivot(v: np.ndarray) -> np.ndarray:
    """``normalize_solution`` of a finite complex array, which is not checked again.

    Every zero part comes out +0.0: an exact zero divided by the pivot would
    take the sign of the order of arithmetic, not of the algebra.
    """
    flat = v.ravel()
    mods = np.abs(flat)
    top = float(mods.max())
    if top == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    pivot_index = int(np.argmax(mods >= top * (1.0 - _TIE_TOL)))  # the first near-tie
    out = flat / flat[pivot_index]
    out += 0.0  # -0.0 + 0.0 is +0.0; the identity on the rest
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
