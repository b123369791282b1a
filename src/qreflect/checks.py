"""Nonlinear consistency checks built out of solved intertwiners.

All identities here are expected to hold only projectively: each check
recovers a single scalar and reports the relative deviation after dividing
it out.  Per-channel normalizations of the inputs therefore never matter,
and multiplying any one input by a nonzero scalar cannot flip a verdict.

R-matrix conventions: a braiding S maps V_a x V_b -> V_b x V_a; the plain
R on V_a x V_b is flip . S, and the opposite R on V_b x V_a is the
flip-conjugation P R P of the plain one.

The YBE, reflection-equation and Sklyanin sides and the B blocks are
composed on nonzeros, one factor on chosen tensor legs at a time
(``_on_legs``), never as dense Kronecker embeddings: a solved S has
2N^2 - N nonzeros (weight conservation), so a YBE side costs what its
nonzeros cost, not N^9.  ``check_coideal_property`` and
``check_b_commutation`` act on no legs and stay dense.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .linalg import VerificationReport, as_matrix, check_tolerance, relative_defect
from .reps import PLAN_CACHE_SIZE, EvaluationRep, as_boundary_params, coideal_generators
from .reps import coproduct, frozen


def plain_r(braiding, d_a: int, d_b: int) -> np.ndarray:
    """Plain R-matrix on V_a x V_b from the braiding V_a x V_b -> V_b x V_a."""
    braiding = as_matrix(braiding)
    if braiding.shape != (d_b * d_a, d_a * d_b):
        raise ValueError(f"braiding shape {braiding.shape} does not match dims ({d_a},{d_b})")
    cols = braiding.shape[1]
    return braiding.reshape(d_b, d_a, cols).transpose(1, 0, 2).reshape(d_a * d_b, cols)


def opposite_r(r_plain, d_a: int, d_b: int) -> np.ndarray:
    """Opposite R on V_b x V_a: flip-conjugation P R P of plain R on V_a x V_b."""
    r_plain = as_matrix(r_plain)
    if r_plain.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"plain R shape {r_plain.shape} does not match dims ({d_a},{d_b})")
    size = d_a * d_b
    return r_plain.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(size, size)


class _Factor(NamedTuple):
    """A finite complex matrix and its nonzero pattern as row-major bytes, its plans' key."""

    matrix: np.ndarray
    pattern: bytes


def _factor(op) -> _Factor:
    op = as_matrix(op)
    return _Factor(op, (op != 0).tobytes())


class _Product(NamedTuple):
    """A map held on its nonzero entries: ``values`` at ascending ``keys``.

    A key indexes (column, output legs) row-major over (columns, *dims), so
    each column, the image of one input basis vector, is one run of keys.
    ``pattern`` is the keys' bytes, which ``keys`` views; None after a step
    too large to cache, and later steps are not cached either.
    """

    columns: int
    dims: tuple
    keys: np.ndarray
    values: np.ndarray
    pattern: bytes | None


# Most terms a cached step plan holds (~130 KB of index arrays, so PLAN_CACHE_SIZE plans keep
# at most ~17 MB), and the fewest a step must hold before it is contracted densely, so that
# the n = 1 checks' nearly dense products, on sides of 16 or 64 entries, stay on cached plans.
_PLAN_TERMS = 4096


def _compose(dims: tuple, *steps) -> _Product:
    """The identity on legs of ``dims``, then each (factor, legs[, out_dims]) step in turn."""
    size = math.prod(dims)
    pattern = (np.arange(size) * (size + 1)).tobytes()
    product = _Product(size, dims, np.frombuffer(pattern, dtype=np.int64),
                       np.ones(size, dtype=np.complex128), pattern)
    for step in steps:
        product = _on_legs(product, *step)
    return product


def _on_legs(product: _Product, factor: _Factor, legs: tuple, out_dims=None) -> _Product:
    """``factor`` applied to ``legs`` of ``product``, which it maps to ``out_dims``.

    The factor maps the legs' joint index, row-major over their dims, to one
    over ``out_dims`` (by default their own dims); other legs and the
    columns are carried, and terms that land on one key are summed.  A step
    of at most ``_PLAN_TERMS`` terms runs on its plan, cached on the two
    nonzero patterns; one of at most a dense side's entries on a plan made
    for this call; a larger one, whose product is nearly dense, in
    ``_dense_step``.
    """
    plan = product.pattern is not None and _leg_plan(
        product.pattern, product.dims, factor.pattern, factor.matrix.shape, legs, out_dims)
    if plan:
        src, pos, starts, keys, pattern, dims = plan
    else:
        dims = _step_dims(product.dims, factor.matrix.shape, legs, out_dims)
        plan = _plan(product.keys, product.dims, factor.matrix != 0, legs, dims,
                     max(product.columns * math.prod(dims), _PLAN_TERMS))
        if plan is None:
            return _Product(product.columns, dims, *_dense_step(product, factor, legs, dims),
                            None)
        (src, pos, starts, keys), pattern = plan, None
    values = np.add.reduceat(product.values[src] * factor.matrix.ravel()[pos], starts)
    return _Product(product.columns, dims, keys, values, pattern)


def _dense_step(product: _Product, factor: _Factor, legs: tuple, dims: tuple) -> tuple:
    """(keys, values) of a step with more terms than a dense side has entries.

    The product is scattered into its dense (columns, *dims) side and the
    factor contracted with its legs by one ``np.tensordot``; every temporary
    is one dense side.  Solved factors never come here: their steps hold
    far fewer terms.
    """
    side = np.zeros(product.columns * math.prod(product.dims), dtype=np.complex128)
    side[product.keys] = product.values
    side = side.reshape(product.columns, *product.dims)
    op = factor.matrix.reshape(*(dims[leg] for leg in legs),
                               *(product.dims[leg] for leg in legs))
    axes = [1 + leg for leg in legs]
    out = np.tensordot(op, side, axes=(list(range(len(legs), 2 * len(legs))), axes))
    del side
    out = np.moveaxis(out, range(len(legs)), axes).ravel()
    keys = np.flatnonzero(out)
    return keys, out[keys]


def _step_dims(dims: tuple, shape: tuple, legs: tuple, out_dims) -> tuple:
    """The leg dims after a factor of ``shape`` maps ``legs`` to ``out_dims``; else ValueError."""
    dims = list(dims)
    out_dims = tuple(dims[leg] for leg in legs) if out_dims is None else out_dims
    if shape != (math.prod(out_dims), math.prod(dims[leg] for leg in legs)):
        raise ValueError(f"operator shape {shape} does not map legs {legs} of dims "
                         f"{tuple(dims)} to {out_dims}")
    for leg, dim in zip(legs, out_dims):
        dims[leg] = dim
    return tuple(dims)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _leg_plan(pattern: bytes, dims: tuple, factor_pattern: bytes, shape: tuple, legs: tuple,
              out_dims) -> tuple | None:
    """``_plan`` on the keys in ``pattern``, read-only, or None past ``_PLAN_TERMS`` terms.

    (src, pos, starts, keys, pattern, dims): ``keys`` views the new
    ``pattern``, and ``dims`` are the leg dims after the step.
    """
    new_dims = _step_dims(dims, shape, legs, out_dims)
    nonzero = np.frombuffer(factor_pattern, dtype=bool).reshape(shape)
    plan = _plan(np.frombuffer(pattern, dtype=np.int64), dims, nonzero, legs, new_dims,
                 _PLAN_TERMS)
    if plan is None:
        return None
    src, pos, starts, keys = plan
    pattern = keys.tobytes()
    return (*frozen(src, pos, starts), np.frombuffer(pattern, dtype=np.int64), pattern,
            new_dims)


def _plan(keys: np.ndarray, dims: tuple, nonzero: np.ndarray, legs: tuple, new_dims: tuple,
          limit: int) -> tuple | None:
    """One step's (src, pos, starts, keys) on the product's ``keys``, or None past ``limit`` terms.

    Term t multiplies product entry src[t] by the factor's row-major entry
    pos[t]; the terms from starts[k] to starts[k + 1] sum to the entry at
    the new keys[k].
    """
    table = _column_table(nonzero, legs, new_dims)
    if len(keys) * len(table[0]) > limit:
        return None
    live, pos, out = _terms(keys, dims, table, legs, new_dims)
    live = np.flatnonzero(live)
    out = out.ravel()[live]
    order = np.argsort(out, kind="stable")
    out = out[order]
    head = np.ones(len(out), dtype=bool)
    head[1:] = out[1:] != out[:-1]
    starts = np.flatnonzero(head)
    return (live % len(keys))[order], pos.ravel()[live][order], starts, out[starts]


def _column_table(nonzero: np.ndarray, legs: tuple, new_dims: tuple) -> tuple:
    """(pos, lands, live), each (width, columns): each factor column's nonzeros, then zeros.

    Width is the most nonzeros in one column.  Slot w of column c holds the
    factor entry's row-major index, the offset its row adds to an output key
    at the leg dims ``new_dims``, and whether the entry is a nonzero.
    """
    width = int(nonzero.sum(axis=0).max(initial=0))
    rows = np.argsort(~nonzero, axis=0, kind="stable")[:width]
    strides = np.cumprod((1,) + new_dims[:0:-1])[::-1]
    digits = np.unravel_index(rows, [new_dims[leg] for leg in legs])
    lands = sum(digit * strides[leg] for leg, digit in zip(legs, digits))
    pos = rows * nonzero.shape[1] + np.arange(nonzero.shape[1])
    return pos, lands, np.take_along_axis(nonzero, rows, axis=0)


def _terms(keys: np.ndarray, dims: tuple, table: tuple, legs: tuple, new_dims: tuple) -> tuple:
    """(live, pos, out), each (width, entries): every product entry against its factor column.

    The entry's digits on ``legs`` select a column of ``_column_table``;
    against each of its slots, out is the output key.  Only index
    arithmetic and gathers: nothing is contracted densely.
    """
    pos, lands, live = table
    digits = [None] * len(dims)
    column = keys
    for leg in reversed(range(len(dims))):
        column, digits[leg] = np.divmod(column, dims[leg])
    selected, base = 0, column
    for leg in legs:
        selected = selected * dims[leg] + digits[leg]
    for leg, dim in enumerate(new_dims):
        base = base * dim + (0 if leg in legs else digits[leg])
    return live[:, selected], pos[:, selected], base + lands[:, selected]


def _projective(name: str, lhs: _Product, rhs: _Product, tol: float) -> VerificationReport:
    """``VerificationReport.projective`` of two composed sides, on the union of their keys.

    Off the union both sides are zero, so the norms, the scalar and the
    deviation are those of the dense sides, up to summation order.  Sides
    with one support are compared as they are held.
    """
    if np.array_equal(lhs.keys, rhs.keys):
        return VerificationReport.projective(name, lhs.values[None], rhs.values[None], tol)
    keys = np.union1d(lhs.keys, rhs.keys)
    sides = np.zeros((2, len(keys)), dtype=np.complex128)
    sides[0, np.searchsorted(keys, lhs.keys)] = lhs.values
    sides[1, np.searchsorted(keys, rhs.keys)] = rhs.values
    return VerificationReport.projective(name, sides[:1], sides[1:], tol)


def check_ybe(s_ab, s_ac, s_bc, dims, tol: float = 1e-8) -> VerificationReport:
    """Yang-Baxter equation in braid form on three legs.

    LHS = (1 x S_ab)(S_ac x 1)(1 x S_bc) against
    RHS = (S_bc x 1)(1 x S_ac)(S_ab x 1), both V_a V_b V_c -> V_c V_b V_a.
    """
    check_tolerance(tol)
    d_a, d_b, d_c = dims = tuple(int(d) for d in dims)
    ab, ac, bc = (_factor(s) for s in (s_ab, s_ac, s_bc))
    lhs = _compose(dims, (bc, (1, 2), (d_c, d_b)), (ac, (0, 1), (d_c, d_a)),
                   (ab, (1, 2), (d_b, d_a)))
    rhs = _compose(dims, (ab, (0, 1), (d_b, d_a)), (ac, (1, 2), (d_c, d_a)),
                   (bc, (0, 1), (d_c, d_b)))
    return _projective("yang-baxter", lhs, rhs, tol)


def check_reflection_equation(
    k_mu, k_nu, s_mn, s_m_nb, s_n_mb, s_nb_mb, tol: float = 1e-8
) -> VerificationReport:
    """Reflection equation, composed exactly as the two boundary factorizations.

    Path_left  = (1 x K_nu) S_{nu mubar} (1 x K_mu) S_{mu nu}
    Path_right = S_{nubar mubar} (1 x K_mu) S_{mu nubar} (1 x K_nu)
    as maps V_mu x V_nu -> V_mubar x V_nubar.  All six inputs must be solved
    in one consistent convention (same conjugate representation objects).
    """
    check_tolerance(tol)
    k_mu, k_nu, s_mn, s_m_nb, s_n_mb, s_nb_mb = (
        _factor(m) for m in (k_mu, k_nu, s_mn, s_m_nb, s_n_mb, s_nb_mb))
    d_mub, d_mu = k_mu.matrix.shape
    d_nub, d_nu = k_nu.matrix.shape
    left = _compose((d_mu, d_nu), (s_mn, (0, 1), (d_nu, d_mu)), (k_mu, (1,), (d_mub,)),
                    (s_n_mb, (0, 1), (d_mub, d_nu)), (k_nu, (1,), (d_nub,)))
    right = _compose((d_mu, d_nu), (k_nu, (1,), (d_nub,)), (s_m_nb, (0, 1), (d_nub, d_mu)),
                     (k_mu, (1,), (d_mub,)), (s_nb_mb, (0, 1), (d_mub, d_nub)))
    return _projective("reflection-equation", left, right, tol)


def check_coideal_property(
    rep_a: EvaluationRep, rep_b: EvaluationRep, eps, tol: float = 1e-12
) -> VerificationReport:
    """Left-coideal identity Delta(Qhat_i) = (Q_i+Qbar_i) x 1 + q^{T_i} x Qhat_i.

    Both sides expand to the same sum of Kronecker products, so the residual
    sits at machine precision; the check guards the assembly, not the algebra.
    """
    params = as_boundary_params(eps, rep_a.n)
    hats_b = coideal_generators(rep_b, params)
    eye_b = np.broadcast_to(np.eye(rep_b.dim, dtype=np.complex128), hats_b.shape)
    delta = coproduct(rep_a, rep_b)  # Q, Qbar and q^T images, kind-major
    q, qbar, d = delta.reshape(3, rep_a.nodes, *delta.shape[1:])
    lhs = q + qbar + np.array(params)[:, None, None] * d
    rhs = _kron_stack(rep_a.Q + rep_a.Qbar, eye_b) + _kron_stack(rep_a.D, hats_b)
    defects = [relative_defect(l, r) for l, r in zip(lhs, rhs)]
    return VerificationReport.worst_of("coideal-property", defects, tol)


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a[k] x b[k] of two (k, d, d) stacks, as one stack."""
    k, d_a, d_b = len(a), a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, d_a * d_b, d_a * d_b)


def eval_b_matrix(k_mu, r_in, r_op_out) -> np.ndarray:
    """Boundary transfer block B = R_op_out (K_mu x 1) R_in on V_mu x V_lambda.

    ``r_in`` is the plain R on V_mu x V_lambda, ``r_op_out`` the opposite R
    evaluated on V_mubar x V_lambda; the companion leg lambda is whatever
    finite representation the R's were evaluated in.
    """
    k_mu, r_in, r_op_out = (_factor(m) for m in (k_mu, r_in, r_op_out))
    d_mub, d_mu = k_mu.matrix.shape
    d_lam = len(r_in.matrix) // d_mu  # each step checks its factor's shape against these
    b = _compose((d_mu, d_lam), (r_in, (0, 1)), (k_mu, (0,), (d_mub,)), (r_op_out, (0, 1)))
    dense = np.zeros((d_mub * d_lam, b.columns), dtype=np.complex128)
    dense.T.flat[b.keys] = b.values  # keys run column-major
    return dense


def engine_blocks(matrices: dict, dim: int) -> dict:
    """B blocks and Sklyanin R set built from normalized ``engine_point`` channels.

    Returns ``b_nu``/``b_nub`` (companion leg nu/nubar), the ``r_set`` that
    check_sklyanin takes and, when the lambda channels are present,
    ``b1``/``b2`` (K_mu/K_nu with companion leg lambda).  Every leg has
    dimension ``dim``.
    """
    def r(key):
        return plain_r(matrices[key], dim, dim)

    def prp(key):
        return opposite_r(r(key), dim, dim)

    k_mu = matrices["k_mu"]
    r_set = {"dims": (dim, dim, dim), "r_mu_nu": r("s_mn"), "r_mu_nubar": r("s_m_nb"),
             "prp_nubar_mubar": prp("s_nb_mb"), "prp_nu_mubar": prp("s_n_mb")}
    blocks = {
        "b_nu": eval_b_matrix(k_mu, r_set["r_mu_nu"], r_set["prp_nu_mubar"]),
        "b_nub": eval_b_matrix(k_mu, r_set["r_mu_nubar"], r_set["prp_nubar_mubar"]),
        "r_set": r_set,
    }
    if "s_ml" in matrices:
        blocks["b1"] = eval_b_matrix(k_mu, r("s_ml"), prp("s_l_mb"))
        blocks["b2"] = eval_b_matrix(matrices["k_nu"], r("s_nl"), prp("s_l_nb"))
    return blocks


def _blocks(b: np.ndarray, d_rows: int, d_cols: int, d_lam: int) -> np.ndarray:
    """The d_lam x d_lam blocks of ``b`` as a stack, row-major over block positions."""
    return b.reshape(d_rows, d_lam, d_cols, d_lam).swapaxes(1, 2).reshape(-1, d_lam, d_lam)


def check_b_commutation(b_with_nu, b_with_nubar, k_nu, tol: float = 1e-8) -> VerificationReport:
    """One common scalar c with K_nu M_ab = c Mbar_ab K_nu over all blocks.

    The blocks M_ab (Mbar_ab) are the companion-leg matrices of B evaluated
    with lambda = nu (lambda = nubar).  Stacking all blocks before the
    projective comparison is what makes the scalar common: a per-block
    scalar would hold vacuously.
    """
    b_nu = as_matrix(b_with_nu)
    b_nubar = as_matrix(b_with_nubar)
    k_nu = as_matrix(k_nu)
    d_nub, d_nu = k_nu.shape
    if b_nu.shape[0] % d_nu or b_nu.shape[1] % d_nu:
        raise ValueError("b_with_nu block size does not divide its shape")
    d_rows = b_nu.shape[0] // d_nu
    d_cols = b_nu.shape[1] // d_nu
    if b_nubar.shape != (d_rows * d_nub, d_cols * d_nub):
        raise ValueError(
            f"b_with_nubar shape {b_nubar.shape} incompatible with blocks "
            f"({d_rows},{d_cols}) of size {d_nub}"
        )
    lhs = (k_nu @ _blocks(b_nu, d_rows, d_cols, d_nu)).reshape(-1, d_nu)
    rhs = (_blocks(b_nubar, d_rows, d_cols, d_nub) @ k_nu).reshape(-1, d_nu)
    return VerificationReport.projective("b-commutation", lhs, rhs, tol)


def check_sklyanin(b1, b2, r_set: dict, tol: float = 1e-8) -> VerificationReport:
    """Quadratic exchange relation of the boundary blocks, evaluated on three legs.

    Legs are (mu, nu, lambda); b1 acts on legs (0, 2), b2 on legs (1, 2).
    ``r_set`` supplies the leg-(0,1) factors: plain "r_mu_nu" and
    "r_mu_nubar", plus the flip-conjugated "prp_nubar_mubar" and
    "prp_nu_mubar".  The comparison is

      PRP_{nubar mubar} B1 R_{mu nubar} B2  =  B2 PRP_{nu mubar} B1 R_{mu nu}

    up to one scalar, both sides V_mu V_nu V_lam -> V_mubar V_nubar V_lam.
    """
    check_tolerance(tol)
    required = ("r_mu_nu", "r_mu_nubar", "prp_nubar_mubar", "prp_nu_mubar")
    missing = [key for key in required if key not in r_set]
    if missing:
        raise ValueError(f"r_set missing channels: {missing}")
    dims = tuple(int(d) for d in r_set["dims"])
    if len(dims) != 3:
        raise ValueError(f"r_set dims {dims} do not name three legs")
    b1, b2, r_mu_nu, r_mu_nubar, prp_nubar_mubar, prp_nu_mubar = (
        _factor(m) for m in (b1, b2, *(r_set[key] for key in required)))
    lhs = _compose(dims, (b2, (1, 2)), (r_mu_nubar, (0, 1)), (b1, (0, 2)),
                   (prp_nubar_mubar, (0, 1)))
    rhs = _compose(dims, (r_mu_nu, (0, 1)), (b1, (0, 2)), (prp_nu_mubar, (0, 1)),
                   (b2, (1, 2)))
    return _projective("sklyanin-exchange", lhs, rhs, tol)
