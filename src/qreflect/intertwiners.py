"""Intertwining equations posed as homogeneous linear systems.

Bulk S-matrices, boundary K-matrices, and representation equivalences are
all nullspace problems: stack one vectorized Sylvester block
X -> X @ M_in - M_out @ X per generator and feed the stack to the SVD.
Blocks are stacked kind-major (Q, Qbar, qT), node index minor; q^{-T_i}
rows are implied by invertibility and never stacked.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_REL_TOL,
    NullspaceResult,
    normalize_solution,
    nullspace,
)
from .reps import (
    GENERATOR_ORDER,
    EvaluationRep,
    as_boundary_params,
    coideal_generators,
    coproduct_matrix,
    dual_rep,
    vector_rep,
)


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


def _sylvester_block(m_in: np.ndarray, m_out: np.ndarray) -> np.ndarray:
    """Matrix of X -> X @ m_in - m_out @ X acting on vec(X), row-major."""
    rows_x = m_out.shape[0]
    cols_x = m_in.shape[0]
    eye_r = np.eye(rows_x, dtype=np.complex128)
    eye_c = np.eye(cols_x, dtype=np.complex128)
    return np.kron(eye_r, m_in.T) - np.kron(m_out, eye_c)


def solve_system(rows, shape, rel_tol, residual, flags=()):
    """Common tail of every solve: nullspace of ``rows``, normalize, score.

    ``residual`` maps the normalized solution (present only when the space
    is one-dimensional) to its worst relative defect.
    """
    ns = nullspace(rows, rel_tol=rel_tol, unknown_shape=shape)
    solution = IntertwinerSolution(nullspace=ns, flags=tuple(flags))
    if ns.dimension == 1:
        candidate = normalize_solution(ns.basis[0])
        solution.normalized = candidate
        solution.residual = residual(candidate)
    return solution


def _solve_stacked(pairs, shape, rel_tol, flags=()):
    """Stack one Sylvester block per generator pair and solve."""
    rows = np.vstack([_sylvester_block(m_in, m_out) for m_in, m_out in pairs])
    return solve_system(rows, shape, rel_tol, lambda x: intertwining_residual(x, pairs), flags)


def intertwining_residual(x: np.ndarray, pairs) -> float:
    """Worst relative defect of X @ m_in - m_out @ X over the given pairs."""
    norm_x = float(np.linalg.norm(x))
    defects = []
    for m_in, m_out in pairs:
        scale = norm_x * max(1.0, float(np.linalg.norm(m_in)), float(np.linalg.norm(m_out)))
        defects.append(float(np.linalg.norm(x @ m_in - m_out @ x)) / scale)
    return float(np.max(defects))  # NaN propagates


def _bulk_pairs(rep_a: EvaluationRep, rep_b: EvaluationRep):
    pairs = []
    for kind in GENERATOR_ORDER:
        for i in range(rep_a.nodes):
            pairs.append(
                (
                    coproduct_matrix(rep_a, rep_b, kind, i),
                    coproduct_matrix(rep_b, rep_a, kind, i),
                )
            )
    return pairs


def solve_bulk(
    rep_a: EvaluationRep, rep_b: EvaluationRep, rel_tol: float = DEFAULT_REL_TOL
) -> IntertwinerSolution:
    """Braiding intertwiner S : V_a x V_b -> V_b x V_a.

    Solves S (pi_a x pi_b)(Delta g) = (pi_b x pi_a)(Delta g) S over all
    generators.  Equal spectral parameters are permitted but flagged, since
    uniqueness claims hold only at generic points.
    """
    if not rep_a.same_algebra(rep_b):
        raise ValueError("bulk channels require matching (n, q)")
    flags = []
    if np.isclose(rep_a.x, rep_b.x, atol=0.0) and rep_a.is_dual == rep_b.is_dual:
        flags.append("equal-rapidity")
    shape = (rep_b.dim * rep_a.dim, rep_a.dim * rep_b.dim)
    return _solve_stacked(_bulk_pairs(rep_a, rep_b), shape, rel_tol, flags)


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
