"""Intertwining equations posed as homogeneous linear systems.

Bulk S-matrices, boundary K-matrices, and representation equivalences are
all nullspace problems: stack the rows of X -> X @ M_in - M_out @ X per
generator on the entries of X that may be nonzero and feed the stack to the
SVD.  Blocks are stacked kind-major (Q, Qbar, qT), node index minor;
q^{-T_i} rows are implied by invertibility and never stacked.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import DEFAULT_REL_TOL, NullspaceResult, normalize_solution, nullspace
from .reps import GENERATOR_ORDER, EvaluationRep, as_boundary_params, check_point
from .reps import coideal_generators, coproduct_matrix, dual_rep, vector_rep


@dataclass
class IntertwinerSolution:
    """Nullspace of one intertwining problem.

    ``normalized`` is the canonically scaled solution, present only when the
    space is one-dimensional; ``residual`` is its worst relative defect over
    the defining equations; ``flags`` marks non-generic inputs.
    """

    nullspace: NullspaceResult
    normalized: np.ndarray | None = None
    residual: float = float("nan")
    flags: tuple = ()

    @property
    def dimension(self) -> int:
        return self.nullspace.dimension


def sylvester_rows(pairs, support) -> np.ndarray:
    """Rows of X -> X @ m_in - m_out @ X per pair, on the unknowns X[support] (a mask).

    A pair's equations (r, c) come in row-major order; all-zero rows are dropped.
    """
    out_idx, in_idx = np.nonzero(support)
    cols_x = support.shape[1]
    blocks = []
    for m_in, m_out in pairs:
        # X[o, i] m_in[i, c] enters equation (o, c); m_out[r, o] X[o, i] enters (r, i)
        k_in, c = np.nonzero(m_in[in_idx, :])
        r, k_out = np.nonzero(m_out[:, out_idx])
        equation = np.concatenate([out_idx[k_in] * cols_x + c, r * cols_x + in_idx[k_out]])
        coeff = np.concatenate([m_in[in_idx[k_in], c], -m_out[r, out_idx[k_out]]])
        labels, row = np.unique(equation, return_inverse=True)  # only the touched equations
        block = np.zeros((labels.size, out_idx.size), dtype=np.complex128)
        np.add.at(block, (row, np.concatenate([k_in, k_out])), coeff)
        blocks.append(block[block.any(axis=1)])
    return np.vstack(blocks)


def solve_system(rows, shape, rel_tol, residual, flags=(), support=None):
    """Common tail of every solve: nullspace of ``rows``, normalize, score.

    ``rows`` act on ``support`` (a mask; all entries when None) of an unknown of
    ``shape``, where the basis is scattered back; ``residual`` scores a 1-d solution.
    """
    ns = nullspace(rows, rel_tol=rel_tol)
    full = np.zeros((ns.dimension, *shape), dtype=np.complex128)
    full[:, np.ones(shape, dtype=bool) if support is None else support] = ns.basis
    ns.basis = full
    solution = IntertwinerSolution(nullspace=ns, flags=tuple(flags))
    if ns.dimension == 1:
        solution.normalized = normalize_solution(ns.basis[0])
        solution.residual = residual(solution.normalized)
    return solution


def _solve_stacked(pairs, shape, rel_tol, flags=(), support=None):
    """Solve every generator pair's rows on ``support`` (all entries when None)."""
    support = np.ones(shape, dtype=bool) if support is None else support
    residual = partial(intertwining_residual, pairs=pairs)  # full pairs, full X
    return solve_system(sylvester_rows(pairs, support), shape, rel_tol, residual, flags, support)


def intertwining_residual(x: np.ndarray, pairs) -> float:
    """Worst relative defect of X @ m_in - m_out @ X over the given pairs."""
    norm_x = float(np.linalg.norm(x))
    defects = []
    for m_in, m_out in pairs:
        scale = norm_x * max(1.0, float(np.linalg.norm(m_in)), float(np.linalg.norm(m_out)))
        defects.append(float(np.linalg.norm(x @ m_in - m_out @ x)) / scale)
    return float(np.max(defects))  # NaN propagates


def _bulk_pairs(rep_a: EvaluationRep, rep_b: EvaluationRep):
    return [
        (coproduct_matrix(rep_a, rep_b, kind, i), coproduct_matrix(rep_b, rep_a, kind, i))
        for kind in GENERATOR_ORDER
        for i in range(rep_a.nodes)
    ]


def solve_bulk(
    rep_a: EvaluationRep, rep_b: EvaluationRep, rel_tol: float = DEFAULT_REL_TOL
) -> IntertwinerSolution:
    """Braiding intertwiner S : V_a x V_b -> V_b x V_a.

    Solves S (pi_a x pi_b)(Delta g) = (pi_b x pi_a)(Delta g) S over all
    generators; only entries that conserve weight are unknowns, but the
    residual covers every entry.  Equal spectral parameters are permitted
    but flagged, since uniqueness claims hold only at generic points.
    """
    if not rep_a.same_algebra(rep_b):
        raise ValueError("bulk channels require matching (n, q)")
    equal = np.isclose(rep_a.x, rep_b.x, atol=0.0) and rep_a.is_dual == rep_b.is_dual
    flags = ("equal-rapidity",) if equal else ()
    shape = (rep_b.dim * rep_a.dim, rep_a.dim * rep_b.dim)
    pairs = _bulk_pairs(rep_a, rep_b)
    # Unknowns: the entries whose qT eigenvalues agree at every node (kind-major order puts
    # the qT pairs last).  Relative, so scale-free, and generous: a kept near-coincident
    # entry still meets its qT rows.
    support = np.logical_and.reduce([
        np.isclose(np.diag(m_out)[:, None], np.diag(m_in), rtol=1e-4, atol=0.0)
        for m_in, m_out in pairs[-rep_a.nodes:]
    ])
    return _solve_stacked(pairs, shape, rel_tol, flags, support)


def closed_form_s(n: int, q: complex, theta_a: complex, theta_b: complex) -> np.ndarray:
    """Closed-form braiding S : V_a x V_b -> V_b x V_a of two vector representations.

    Shares no code with ``solve_bulk``, which it backs as an oracle.  With
    N = n+1, u = theta_a - theta_b, z^p = e^{p u} and w = z^{N/2}, on the
    basis index a*N + b:
      S[iN+i, iN+i] = q w - 1/(q w)
      S[jN+i, iN+j] = w - 1/w                              (i != j)
      S[iN+j, iN+j] = (q - 1/q) z^{((j-i) mod N) - N/2}    (i != j)
    and every other entry is 0.  Rapidities, not x = e^theta, fix the
    branch of w.
    """
    n, q, _ = check_point(n, q, 1.0)
    u = complex(theta_a) - complex(theta_b)
    if not cmath.isfinite(u):
        raise ValueError("rapidities must be finite")
    dim = n + 1
    w = cmath.exp(dim * u / 2)
    out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for i in range(dim):
        out[i * dim + i, i * dim + i] = q * w - 1 / (q * w)
        for j in range(dim):
            if j != i:
                out[j * dim + i, i * dim + j] = w - 1 / w
                power = (j - i) % dim - dim / 2
                out[i * dim + j, i * dim + j] = (q - 1 / q) * cmath.exp(power * u)
    return out


def solve_boundary(
    rep: EvaluationRep,
    dual: EvaluationRep,
    eps,
    rel_tol: float = DEFAULT_REL_TOL,
) -> IntertwinerSolution:
    """Reflection intertwiner K : V -> Vbar for the boundary algebra.

    Solves K pi(Qhat_i) = pibar(Qhat_i) K for the coideal generators
    Qhat_i = Q_i + Qbar_i + eps_i q^{T_i}, with pibar acting on whatever
    conjugate representation the caller supplies.  The solvable locus in
    (x, dual parameter, eps) is an empirical matter; see reflection_dual
    for the convention under which solutions exist.
    """
    if not rep.same_algebra(dual):
        raise ValueError("boundary system requires matching (n, q)")
    if rep.dim != dual.dim:
        raise ValueError("boundary system requires equal dimensions")
    params = as_boundary_params(eps, rep.n)
    pairs = list(zip(coideal_generators(rep, params), coideal_generators(dual, params)))
    return _solve_stacked(pairs, (dual.dim, rep.dim), rel_tol)


def solve_equivalence(
    rep_a: EvaluationRep, rep_b: EvaluationRep, rel_tol: float = DEFAULT_REL_TOL
) -> IntertwinerSolution:
    """Module maps M with M pi_a(g) = pi_b(g) M over all generators."""
    if not rep_a.same_algebra(rep_b):
        raise ValueError("equivalence requires matching (n, q)")
    if rep_a.dim != rep_b.dim:
        raise ValueError("equivalence requires equal dimensions")
    pairs = []
    for kind in GENERATOR_ORDER:
        for i in range(rep_a.nodes):
            pairs.append((rep_a.generator(kind, i), rep_b.generator(kind, i)))
    return _solve_stacked(pairs, (rep_b.dim, rep_a.dim), rel_tol)


def reflection_dual(rep: EvaluationRep) -> EvaluationRep:
    """Conjugate representation a reflection can land in (engine convention).

    The antipode dual built at spectral parameter 1/x (the naive
    theta -> -theta reading) admits no boundary intertwiners at generic
    points; the dual built at -q/x does.  This helper returns the latter:
    the antipode dual of the vector representation at -q/x.
    """
    if rep.is_dual:
        raise ValueError("reflection_dual expects a vector representation")
    return dual_rep(vector_rep(rep.n, rep.q, -rep.q / rep.x))


def engine_point(n: int, q: complex, thetas, eps, rel_tol: float = DEFAULT_REL_TOL) -> dict:
    """Solve the K and S channels of the engine-convention boundary checks.

    ``thetas`` gives the rapidities (x = e^theta) of mu, nu and, optionally,
    lambda; conjugates come from ``reflection_dual``.  Returns solutions keyed
    by channel in solve order: ``k_mu``, ``k_nu``, then braidings ``s_ab`` :
    V_a x V_b -> V_b x V_a for ab in mn, m_nb, n_mb, nb_mb and, with lambda,
    ml, l_mb, nl, l_nb (``b`` marks a conjugate).
    """
    mu, nu = (vector_rep(n, q, cmath.exp(t)) for t in thetas[:2])
    mub, nub = reflection_dual(mu), reflection_dual(nu)
    solved = {
        "k_mu": solve_boundary(mu, mub, eps, rel_tol),
        "k_nu": solve_boundary(nu, nub, eps, rel_tol),
    }
    channels = {"s_mn": (mu, nu), "s_m_nb": (mu, nub), "s_n_mb": (nu, mub), "s_nb_mb": (nub, mub)}
    if len(thetas) > 2:
        lam = vector_rep(n, q, cmath.exp(thetas[2]))
        channels.update(s_ml=(mu, lam), s_l_mb=(lam, mub), s_nl=(nu, lam), s_l_nb=(lam, nub))
    for key, (a, b) in channels.items():
        solved[key] = solve_bulk(a, b, rel_tol)
    return solved


@dataclass
class ScanResult:
    """Nullspace dimensions recorded over a parameter grid, in grid order."""

    dims: list


def dimension_scan(kind: str, fixed: dict, grid, rel_tol: float = DEFAULT_REL_TOL) -> ScanResult:
    """Record intertwiner nullspace dimensions over a grid.

    kind="bulk": fixed needs n, q, x_left; grid entries are right spectral
    parameters.  kind="boundary": fixed needs n, q, x and a ``method`` that
    ``boundary.solve_k`` accepts ("paper" or "generic").  Grid entries are
    eps tuples, or spectral parameters when fixed carries an ``eps`` entry
    instead.  Degenerate points are recorded, never raised.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    n, q = fixed["n"], fixed["q"]
    dims = []
    if kind == "bulk":
        left = vector_rep(n, q, fixed["x_left"])
        for point in grid:
            dims.append(solve_bulk(left, vector_rep(n, q, point), rel_tol).dimension)
    elif kind == "boundary":
        from .boundary import solve_k  # local import, boundary builds on this module

        method = fixed.get("method", "paper")
        for point in grid:
            if isinstance(point, (tuple, list)):
                eps, x = point, fixed["x"]
            else:
                eps, x = fixed["eps"], point
            dims.append(solve_k(n, q, x, eps, method, rel_tol).dimension)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    return ScanResult(dims=dims)
