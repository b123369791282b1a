"""Intertwining equations posed as homogeneous linear systems.

Bulk S-matrices, boundary K-matrices, and representation equivalences are
all nullspace problems: stack the rows of X -> X @ M_in - M_out @ X per
generator on the entries of X that may be nonzero and feed the stack to the
SVD.  Generators come as (k, d, d) stacks, kind-major (Q, Qbar, qT) and
node index minor; q^{-T_i} rows are implied by invertibility and never
stacked.  Which entry of a stack enters which row depends on nonzero
patterns and the support alone, never on q or x: it is planned once per
structure and cached (``RowPlan``), and a solve or scan chunk only gathers
its values into the plan.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import DEFAULT_REL_TOL, NullspaceResult, isclose, normalize_solution, nullspace
from .linalg import stack_nullities
from .reps import EvaluationRep, check_point, coideal_generators, coproduct_coordinates, dual_rep
from .reps import vector_rep

# A rank decision whose cut lies within this factor of a singular value is flagged.
NEAR_THRESHOLD_MARGIN = 1e3

# Structural plans each cache keeps, least recently used first out.  A plan is keyed on
# shapes and nonzero patterns only, never on values such as q or x.
PLAN_CACHE_SIZE = 128


def pattern_key(a: np.ndarray, core: int) -> tuple:
    """Shape of the last ``core`` axes of ``a``, and the bytes of where any leading slice is nonzero.

    A plan cache keys on it: it tells patterns apart, never values.
    """
    pattern = a != 0
    if pattern.ndim > core:
        pattern = pattern.reshape(-1, *pattern.shape[-core:]).any(axis=0)
    return pattern.shape, pattern.tobytes()


def key_pattern(key: tuple) -> np.ndarray:
    """The read-only boolean pattern of a ``pattern_key``."""
    shape, pattern = key
    return np.frombuffer(pattern, dtype=bool).reshape(shape)


def frozen(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only, so that a cached plan cannot be written through."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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


@dataclass(frozen=True)
class RowPlan:
    """Where the coordinates of two generator stacks land in their Sylvester rows.

    Coordinate ``source_in[e]`` of the input stack enters entry ``target_in[e]``
    of the flattened (rows, cols) system, and coordinate ``source_out[e]`` of
    the output stack enters ``target_out[e]`` with a minus sign.  ``rows``
    counts the equations some coordinate enters, in order of (g, r, c).
    """

    rows: int
    cols: int
    source_in: np.ndarray
    target_in: np.ndarray
    source_out: np.ndarray
    target_out: np.ndarray

    def assemble(self, values_in, values_out) -> np.ndarray:
        """Systems of coordinate values (..., K), on the equations nonzero in some system.

        Leading axes broadcast and give one (rows, cols) system each.
        """
        lead = np.broadcast_shapes(values_in.shape[:-1], values_out.shape[:-1])
        system = np.zeros((*lead, self.rows * self.cols), dtype=np.complex128)
        # a cell takes at most one term of each kind, so two buffered adds accumulate it exactly
        system[..., self.target_in] += values_in[..., self.source_in]
        system[..., self.target_out] -= values_out[..., self.source_out]
        system = system.reshape(math.prod(lead), self.rows, self.cols)
        nonzero = system.any(axis=(0, 2))
        system = system if nonzero.all() else system[:, nonzero]
        return system.reshape(*lead, *system.shape[1:])


def _row_plan(position_in, position_out, shape_in, shape_out, support) -> RowPlan:
    """The ``RowPlan`` of stacks whose coordinates sit at flat ``position_*`` in (G, d, d) stacks.

    Equations come in order of g, then (r, c) row-major; the unknowns are X[support].
    """
    rows_x, cols_x = support.shape
    column = np.cumsum(support).reshape(support.shape) - 1  # unknown index of X[o, i] on support
    # X[o, i] m_in[g, i, c] enters equation (g, o, c) for every o; m_out[g, r, o] X[o, i]
    # enters (g, r, i) for every i; only the unknowns on the support take part
    g, i, c = np.unravel_index(position_in, shape_in)
    o, source_in = np.nonzero(support[:, i])
    equation_in = (g[source_in] * rows_x + o) * cols_x + c[source_in]
    unknown_in = column[o, i[source_in]]
    g, r, o = np.unravel_index(position_out, shape_out)
    source_out, i = np.nonzero(support[o, :])
    equation_out = (g[source_out] * rows_x + r[source_out]) * cols_x + i
    unknown_out = column[o[source_out], i]
    touched = np.zeros(shape_in[0] * rows_x * cols_x, dtype=bool)
    touched[equation_in] = touched[equation_out] = True
    row = np.cumsum(touched) - 1  # rank among the touched equations, in label order
    cols = int(np.count_nonzero(support))
    targets = (row[equation_in] * cols + unknown_in, row[equation_out] * cols + unknown_out)
    return RowPlan(int(row[-1]) + 1, cols, *frozen(source_in, targets[0], source_out, targets[1]))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _stack_plan(key_in: tuple, key_out: tuple, key_support: tuple) -> RowPlan:
    """``RowPlan`` of two stacks by their ``pattern_key``s; sources index the flattened stacks."""
    position_in, position_out = (np.flatnonzero(key_pattern(k)) for k in (key_in, key_out))
    plan = _row_plan(position_in, position_out, key_in[0], key_out[0], key_pattern(key_support))
    sources = frozen(position_in[plan.source_in], position_out[plan.source_out])
    return replace(plan, source_in=sources[0], source_out=sources[1])


def sylvester_rows(m_in, m_out, support) -> np.ndarray:
    """Rows of X -> X @ m_in[g] - m_out[g] @ X over two stacks, on the unknowns X[support].

    ``support`` is a boolean mask.  Equations come in order of g, then (r, c)
    row-major; all-zero rows are dropped.  Stacks with leading axes,
    (..., G, d, d), give one system per leading index, (..., rows, cols), on
    a shared row set: the equations that are nonzero in some system.  Where
    each entry goes is planned once per nonzero pattern and support
    (``RowPlan``); a call only gathers the values.
    """
    plan = _stack_plan(pattern_key(m_in, 3), pattern_key(m_out, 3), pattern_key(support, 2))
    return plan.assemble(*(m.reshape(*m.shape[:-3], -1) for m in (m_in, m_out)))


def solve_system(rows, support, rel_tol, residual, flags=()):
    """Common tail of every solve: nullspace of ``rows``, normalize, score.

    ``rows`` act on the unknowns that the boolean mask ``support``, shaped like the
    unknown, selects; the basis is scattered back there.  ``residual`` scores a 1-d
    solution; ``flags`` gains "near-threshold" when the cut lies near a singular value.
    """
    ns = nullspace(rows, rel_tol=rel_tol)
    full = np.zeros((ns.dimension, *support.shape), dtype=np.complex128)
    full[:, support] = ns.basis
    ns.basis = full
    near = ("near-threshold",) if ns.margin < NEAR_THRESHOLD_MARGIN else ()
    solution = IntertwinerSolution(nullspace=ns, flags=tuple(flags) + near)
    if ns.dimension == 1:
        solution.normalized = normalize_solution(ns.basis[0])
        solution.residual = residual(solution.normalized)
    return solution


def _solve_stacked(m_in, m_out, rel_tol):
    """Solve X m_in[g] = m_out[g] X for every g, on every entry of X."""
    support = np.ones((m_out.shape[1], m_in.shape[1]), dtype=bool)
    residual = functools.partial(intertwining_residual, m_in=m_in, m_out=m_out)
    return solve_system(sylvester_rows(m_in, m_out, support), support, rel_tol, residual)


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
    a, b = rep_a.gens, rep_b.gens
    if not (np.isfinite(a).all() and np.isfinite(b).all()):  # before any arithmetic on them
        raise ValueError("matrix has non-finite entries")
    support = weight_support(a, b)
    rows, residual = _bulk_system(a, b, support)
    return solve_system(rows, support, rel_tol, residual, flags)


def weight_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unknowns of the braiding between factor stacks a, b: a (d_b d_a, d_a d_b) mask.

    It masks the S[out, in] whose qT eigenvalues, read off the diagonal of
    each factor's q^{T_i}, agree at every node to a relative 1e-4,
    |d_out - d_in| <= 1e-4 |d_in|: scale-free, and generous, as a kept
    near-coincident entry still meets its qT rows.  It ignores x.
    """
    d_a, d_b = (np.diagonal(g[2], axis1=1, axis2=2) for g in (a, b))
    d_in = (d_a[:, :, None] * d_b[:, None, :]).reshape(len(d_a), -1)  # q^{T_i} on V_a x V_b
    d_out = (d_b[:, :, None] * d_a[:, None, :]).reshape(len(d_a), -1)
    d_in, d_out = d_in[:, None, :], d_out[:, :, None]
    return (abs(d_out - d_in) <= 1e-4 * abs(d_in)).all(axis=0)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _bulk_plan(key_a: tuple, key_b: tuple, key_support: tuple) -> tuple:
    """Coordinates of both coproduct stacks and their ``RowPlan``, by ``pattern_key``s."""
    a, b = key_pattern(key_a), key_pattern(key_b)
    into, onto = coproduct_coordinates(a, b), coproduct_coordinates(b, a)
    frozen(*(arr for c in (into, onto) for arr in (c.position, *c.product, *c.plain)))
    plan = _row_plan(into.position, onto.position, into.shape, onto.shape, key_pattern(key_support))
    return into, onto, plan


def _bulk_system(a: np.ndarray, b: np.ndarray, support: np.ndarray):
    """Rows of ``solve_bulk`` between finite factor stacks a, b on ``support``: (rows, residual).

    a and b are ``gens`` stacks, (..., 3, nodes, d, d), whose leading axes
    broadcast to one system per index.  ``residual(x)`` scores an unstacked
    solution on the dense coproduct stacks, which it builds from the same
    coordinate values only when called.
    """
    into, onto, plan = _bulk_plan(pattern_key(a, 4), pattern_key(b, 4), pattern_key(support, 2))
    values_in, values_out = into.values(a, b), onto.values(b, a)

    def residual(x):  # on the full coproduct stacks and the full X
        return intertwining_residual(x, into.dense(values_in), onto.dense(values_out))

    return plan.assemble(values_in, values_out), residual


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
    assembles there, from the same generator stacks and cached plans (a bulk
    chunk gathers all its points' values at once); a chunk of
    ``SCAN_CHUNK`` points shares one row set and is ranked from its singular
    values alone, at ``DEFAULT_REL_TOL``.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    n, q, _ = check_point(fixed["n"], fixed["q"], 1.0)  # as the solves take them
    if kind == "bulk":
        left = vector_rep(n, q, fixed["x_left"]).gens
        support = weight_support(left, vector_rep(n, q, grid[0]).gens)  # the qT images ignore x

        def rows(chunk):
            right = np.array([vector_rep(n, q, x).gens for x in grid[chunk]])
            if not (np.isfinite(left).all() and np.isfinite(right).all()):
                raise ValueError("matrix has non-finite entries")
            return _bulk_system(left, right, support)[0]
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
