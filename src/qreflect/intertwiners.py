"""Intertwining equations posed as homogeneous linear systems.

Bulk S-matrices, boundary K-matrices, and representation equivalences are
all nullspace problems: stack the rows of X -> X @ M_in - M_out @ X per
generator on the entries of X that may be nonzero and feed the stack to the
SVD.  Generators come as (k, d, d) stacks, kind-major (Q, Qbar, qT) and node
index minor; q^{-T_i} rows are implied by invertibility and never stacked.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import DEFAULT_REL_TOL, NullspaceResult, isclose, normalize_solution, nullspace
from .linalg import stack_nullities
from .reps import EvaluationRep, check_point
from .reps import coideal_generators, coproduct, dual_rep, vector_rep

# A rank decision whose cut lies within this factor of a singular value is flagged.
NEAR_THRESHOLD_MARGIN = 1e3


@dataclass
class IntertwinerSolution:
    """Nullspace of one intertwining problem.

    ``normalized`` is the canonically scaled solution, present only when the
    space is one-dimensional; ``residual`` is its worst relative defect over
    the defining equations; ``flags`` marks non-generic inputs
    ("equal-rapidity") and doubtful ranks ("near-threshold").
    """

    nullspace: NullspaceResult
    normalized: np.ndarray | None = None
    residual: float = float("nan")
    flags: tuple = ()

    @property
    def dimension(self) -> int:
        return self.nullspace.dimension


def sylvester_rows(m_in, m_out, support) -> np.ndarray:
    """Rows of X -> X @ m_in[g] - m_out[g] @ X over two stacks, on the unknowns X[support].

    ``support`` is a boolean mask.  Equations come in order of g, then (r, c)
    row-major; all-zero rows are dropped.  Stacks with leading axes,
    (..., G, d, d), give one system per leading index, (..., rows, cols), on
    a shared row set: the equations that are nonzero in some system.
    """
    lead = m_in.shape[:-3]
    m_in, m_out = (m.reshape(-1, *m.shape[-3:]) for m in (m_in, m_out))
    rows_x, cols_x = support.shape
    column = np.cumsum(support).reshape(support.shape) - 1  # unknown index of X[o, i] on support
    # X[o, i] m_in[g, i, c] enters equation (g, o, c) for every o; m_out[g, r, o] X[o, i]
    # enters (g, r, i) for every i; only the unknowns on the support take part
    p, g, i, c = np.nonzero(m_in)
    o, e = np.nonzero(support[:, i])
    terms_in = (p[e], (g[e] * rows_x + o) * cols_x + c[e], column[o, i[e]], m_in[p, g, i, c][e])
    p, g, r, o = np.nonzero(m_out)
    e, i = np.nonzero(support[o, :])
    terms_out = (p[e], (g[e] * rows_x + r[e]) * cols_x + i, column[o[e], i], -m_out[p, g, r, o][e])
    touched = np.zeros(m_in.shape[1] * rows_x * cols_x, dtype=bool)
    touched[terms_in[1]] = touched[terms_out[1]] = True
    row = np.cumsum(touched) - 1  # rank among the touched equations, in label order
    system = np.zeros((len(m_in), row[-1] + 1, np.count_nonzero(support)), dtype=np.complex128)
    # a cell takes at most one term of each kind, so two buffered adds accumulate it exactly
    for part, equation, unknown, value in (terms_in, terms_out):
        system[part, row[equation], unknown] += value
    nonzero = system.any(axis=(0, 2))
    return (system if nonzero.all() else system[:, nonzero]).reshape(*lead, -1, system.shape[2])


def solve_system(rows, shape, rel_tol, residual, flags=(), support=None):
    """Common tail of every solve: nullspace of ``rows``, normalize, score.

    ``rows`` act on ``support`` (a mask; all entries when None) of an unknown of
    ``shape``, where the basis is scattered back; ``residual`` scores a 1-d solution.
    ``flags`` gains "near-threshold" when the rank cut lies near a singular value.
    """
    ns = nullspace(rows, rel_tol=rel_tol)
    full = np.zeros((ns.dimension, *shape), dtype=np.complex128)
    full[:, np.ones(shape, dtype=bool) if support is None else support] = ns.basis
    ns.basis = full
    near = ("near-threshold",) if ns.margin < NEAR_THRESHOLD_MARGIN else ()
    solution = IntertwinerSolution(nullspace=ns, flags=tuple(flags) + near)
    if ns.dimension == 1:
        solution.normalized = normalize_solution(ns.basis[0])
        solution.residual = residual(solution.normalized)
    return solution


def _solve_stacked(m_in, m_out, rel_tol, flags=(), support=None):
    """Solve X m_in[g] = m_out[g] X for every g on ``support`` (all entries when None)."""
    shape = (m_out.shape[1], m_in.shape[1])
    support = np.ones(shape, dtype=bool) if support is None else support
    residual = partial(intertwining_residual, m_in=m_in, m_out=m_out)  # full stacks, full X
    rows = sylvester_rows(m_in, m_out, support)
    return solve_system(rows, shape, rel_tol, residual, flags, support)


def intertwining_residual(x: np.ndarray, m_in, m_out) -> float:
    """Worst relative defect of X @ m_in[g] - m_out[g] @ X over two generator stacks."""
    norms = np.maximum(np.linalg.norm(m_in, axis=(1, 2)), np.linalg.norm(m_out, axis=(1, 2)))
    scale = float(np.linalg.norm(x)) * np.maximum(1.0, norms)
    defects = np.linalg.norm(x @ m_in - m_out @ x, axis=(1, 2)) / scale
    return float(np.max(defects))  # NaN propagates


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
    equal = isclose(rep_a.x, rep_b.x) and rep_a.is_dual == rep_b.is_dual
    flags = ("equal-rapidity",) if equal else ()
    m_in, m_out, support = _bulk_system(rep_a, rep_b)
    return _solve_stacked(m_in, m_out, rel_tol, flags, support)


def _bulk_system(rep_a: EvaluationRep, rep_b: EvaluationRep, support=None):
    """Stacks and unknowns of ``solve_bulk(rep_a, rep_b)``: (m_in, m_out, support).

    ``support`` masks the S[out, in] whose qT eigenvalues agree at every node,
    to a relative 1e-4: scale-free, and generous, as a kept near-coincident
    entry still meets its qT rows.  It depends on the qT images alone, so a
    caller that varies only x may pass it back in.
    """
    m_in, m_out = coproduct(rep_a, rep_b), coproduct(rep_b, rep_a)
    if support is None:
        d_in, d_out = (np.diagonal(m[-rep_a.nodes:], axis1=1, axis2=2) for m in (m_in, m_out))
        support = np.isclose(d_out[:, :, None], d_in[:, None, :], rtol=1e-4, atol=0.0).all(axis=0)
    return m_in, m_out, support


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
    m_in, m_out = coideal_generators(rep, eps), coideal_generators(dual, eps)
    return _solve_stacked(m_in, m_out, rel_tol)


def solve_equivalence(rep_a: EvaluationRep, rep_b: EvaluationRep) -> IntertwinerSolution:
    """Module maps M with M pi_a(g) = pi_b(g) M over all generators."""
    if not rep_a.same_algebra(rep_b):
        raise ValueError("equivalence requires matching (n, q)")
    if rep_a.dim != rep_b.dim:
        raise ValueError("equivalence requires equal dimensions")
    return _solve_stacked(rep_a.generators(), rep_b.generators(), DEFAULT_REL_TOL)


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


def engine_point(n: int, q: complex, thetas, eps) -> dict:
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
        "k_mu": solve_boundary(mu, mub, eps),
        "k_nu": solve_boundary(nu, nub, eps),
    }
    channels = {"s_mn": (mu, nu), "s_m_nb": (mu, nub), "s_n_mb": (nu, mub), "s_nb_mb": (nub, mub)}
    if len(thetas) > 2:
        lam = vector_rep(n, q, cmath.exp(thetas[2]))
        channels.update(s_ml=(mu, lam), s_l_mb=(lam, mub), s_nl=(nu, lam), s_l_nb=(lam, nub))
    for key, (a, b) in channels.items():
        solved[key] = solve_bulk(a, b)
    return solved


# Points per batched SVD in a scan, so that its memory does not grow with the grid.
SCAN_CHUNK = 32


@dataclass
class ScanResult:
    """Nullspace dimensions and rank margins (see ``linalg.rank_decision``), in grid order."""

    dims: list
    margins: list


def dimension_scan(kind: str, fixed: dict, grid) -> ScanResult:
    """Record intertwiner nullspace dimensions over a grid.

    kind="bulk": fixed needs n, q, x_left; grid entries are right spectral
    parameters.  kind="boundary": fixed needs n, q, a ``method`` that
    ``boundary.solve_k`` solves (default ``boundary.DEFAULT_K_METHOD``), and
    the point the axis leaves fixed: an ``eps`` entry makes the grid spectral
    parameters at that eps, otherwise the grid holds eps tuples at ``fixed["x"]``.
    Degenerate points are recorded, never raised.

    Each point's system is the one ``solve_bulk`` or ``boundary.solve_k``
    assembles there, from the same generator stacks; a chunk of
    ``SCAN_CHUNK`` points shares one row set and is ranked from its singular
    values alone, at ``DEFAULT_REL_TOL``.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    n, q, _ = check_point(fixed["n"], fixed["q"], 1.0)  # as the solves take them
    if kind == "bulk":
        left = vector_rep(n, q, fixed["x_left"])
        support = _bulk_system(left, vector_rep(n, q, grid[0]))[2]  # the qT images ignore x

        def rows(chunk):
            systems = [_bulk_system(left, vector_rep(n, q, x), support)[:2] for x in grid[chunk]]
            return sylvester_rows(*np.array(systems).swapaxes(0, 1), support)
    elif kind == "boundary":
        from .boundary import k_scan_rows  # local import, boundary builds on this module

        rows = k_scan_rows(n, q, fixed, grid)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    dims, margins = [], []
    for start in range(0, len(grid), SCAN_CHUNK):
        nullity, margin = stack_nullities(rows(slice(start, start + SCAN_CHUNK)))
        dims += nullity.tolist()
        margins += margin.tolist()
    return ScanResult(dims=dims, margins=margins)
