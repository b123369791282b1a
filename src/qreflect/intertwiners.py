"""Intertwining equations posed as homogeneous linear systems.

Bulk S-matrices, boundary K-matrices, and representation equivalences are
all nullspace problems: stack the rows of X -> X @ M_in - M_out @ X per
generator on the entries of X that may be nonzero and feed the stack to the
SVD.  Generators come as (k, d, d) stacks, kind-major (Q, Qbar, qT) and
node index minor; q^{-T_i} rows are implied by invertibility and never
stacked.  Which entry of a stack enters which row depends on nonzero
patterns and the support alone, never on q or x: it is planned once per
structure and cached (``RowPlan``), and a solve or scan chunk only gathers
its values into the plan.  The bulk support, the weight-conserving entries
of S, depends on q through the factors' q^{T_i} diagonals but never on x:
``weight_support`` computes it once per pair of diagonals, and a solve or
scan chunk looks it up (``_support_key``).  So do the bulk qT equations: on
the support, d_out / d_in = q^k, and a qT equation is planned only where
k != 0 leaves it a coefficient above roundoff (``_qt_rows``), so the bulk
rows are fixed when the plan is made.

The generic boundary system, K Qhat_i(x) = Qhat_i(conjugate) K with the
conjugate of ``reflection_dual``, has one structure per rank: its plan is
keyed on n alone (``_reflection_plan``), and a point contributes a few
coefficients, not two dense stacks (``reflection_coefficients``).  Scans,
``boundary.solve_k`` and ``engine_point`` build its rows this one way
(``reflection_rows``); ``solve_boundary`` keeps the Sylvester rows of any
two stacks, which the rows equal bit for bit.

The bulk generators are covariant under the cyclic Z_N symmetry of the
a_n^(1) diagram: with C the shift e_r -> e_{r+1 mod N} on each leg,
C g_i C^T = g_{i+1 mod N} exactly.  When the factors' nonzero patterns and
the support are shift-invariant, the bulk plan also holds a ``CyclicPlan``.
A solve or scan chunk whose factor stacks equal their own shift, bit for
bit, then takes only the equations of node 0, one per orbit of the shift,
and a DFT along each orbit turns the system into N independent Fourier
blocks with the same singular values (``linalg.block_nullspace``).  The DFT
is part of the plan: one phase-weighted gather of the coordinate values
gives the blocks, and one product by the plan's unitary DFT matrix maps a
null vector back.  Other inputs assemble the whole system.  Bulk solves and
bulk scan chunks take their systems from one checked front end
(``_bulk_system``): it refuses non-finite factors, looks the support up,
picks the blocks or the whole system, and refuses a non-finite system.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import DEFAULT_REL_TOL, NullspaceResult, block_nullspace, isclose, nullspace
from .linalg import scale_to_pivot, stack_nullities
from .reps import PLAN_CACHE_SIZE, EvaluationRep, _vector_gens, as_boundary_params
from .reps import check_point, coideal_generators, coideal_stack, coproduct_coordinates, dual_stack
from .reps import frozen, last_axis, vector_rep, vector_stack

# A rank decision whose cut lies within this factor of a singular value is flagged.
NEAR_THRESHOLD_MARGIN = 1e3


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

    The system's structurally nonzero entries, its cells, sit in equation
    ``row[k]`` and unknown ``col[k]``, in row-major order; ``rows`` counts the
    equations some coordinate enters, in order of (g, r, c).  Coordinate
    ``source_in[e]`` of the input stack enters cell ``target_in[e]``, and
    coordinate ``source_out[e]`` of the output stack enters cell
    ``target_out[e]`` with a minus sign.
    """

    rows: int
    cols: int
    row: np.ndarray
    col: np.ndarray
    source_in: np.ndarray
    target_in: np.ndarray
    source_out: np.ndarray
    target_out: np.ndarray

    def assemble(self, values_in, values_out) -> np.ndarray:
        """Systems of coordinate values (..., K), on the equations nonzero in some system.

        Leading axes broadcast and give one (rows, cols) system each.  Only the
        cells are summed, and only the kept equations are allocated.
        """
        lead = values_in.shape[:-1]
        if lead != values_out.shape[:-1]:
            lead = np.broadcast_shapes(lead, values_out.shape[:-1])
        elif lead == (1,):  # one system, which numpy's one-dimensional indexing builds faster
            return self.assemble(values_in[0], values_out[0])[None]
        cells = np.zeros((*lead, len(self.row)), dtype=np.complex128)
        # a cell takes at most one term of each kind: 0 + in - out, as in a dense sum
        cells[last_axis(self.target_in, lead)] += values_in.take(self.source_in, axis=-1)
        cells[last_axis(self.target_out, lead)] -= values_out.take(self.source_out, axis=-1)
        nonzero = cells.any(axis=tuple(range(len(lead)))) if lead else cells != 0
        kept = np.zeros(self.rows, dtype=bool)
        kept[self.row[nonzero]] = True
        rank = np.cumsum(kept) - 1  # row of each kept equation in the system
        cell = kept[self.row]
        system = np.zeros((*lead, np.count_nonzero(kept), self.cols), dtype=np.complex128)
        system[..., rank[self.row[cell]], self.col[cell]] = cells[last_axis(cell, lead)]
        return system


def _row_plan(position_in, position_out, shape_in, shape_out, support, column=None,
              dropped=None) -> RowPlan:
    """The ``RowPlan`` of stacks whose coordinates sit at flat ``position_*`` in (G, d, d) stacks.

    Equations come in order of g, then (r, c) row-major, labelled by their
    flat index (g, r, c); the labels in ``dropped`` are left out.  The
    unknowns are X[support], numbered row-major unless ``column`` gives the
    number of each entry of X on the support.
    """
    rows_x, cols_x = support.shape
    if column is None:
        column = np.cumsum(support).reshape(support.shape) - 1  # unknown index of X[o, i]
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
    if dropped is not None:  # the terms of a dropped equation take no part
        keep = ~np.isin(equation_in, dropped)
        source_in, equation_in, unknown_in = source_in[keep], equation_in[keep], unknown_in[keep]
        keep = ~np.isin(equation_out, dropped)
        source_out, equation_out, unknown_out = source_out[keep], equation_out[keep], unknown_out[keep]
    touched = np.zeros(shape_in[0] * rows_x * cols_x, dtype=bool)
    touched[equation_in] = touched[equation_out] = True
    row = np.cumsum(touched) - 1  # rank among the touched equations, in label order
    cols = int(np.count_nonzero(support))
    entry_in, entry_out = row[equation_in] * cols + unknown_in, row[equation_out] * cols + unknown_out
    cells, target = np.unique(np.concatenate((entry_in, entry_out)), return_inverse=True)
    target_in, target_out = target[:len(entry_in)], target[len(entry_in):]
    return RowPlan(int(row[-1]) + 1, cols, *frozen(cells // cols, cells % cols, source_in,
                                                    target_in, source_out, target_out))


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
    A bulk solve through the Fourier blocks shares all but the nullspace (``_scored``).
    """
    ns = nullspace(rows, rel_tol=rel_tol)
    full = np.zeros((ns.dimension, *support.shape), dtype=np.complex128)
    full[:, support] = ns.basis
    ns.basis = full
    return _scored(ns, residual, flags)


def _scored(ns: NullspaceResult, residual, flags) -> IntertwinerSolution:
    """The solution of a nullspace whose basis has the unknown's shape: flag, normalize, score."""
    near = ("near-threshold",) if ns.margin < NEAR_THRESHOLD_MARGIN else ()
    solution = IntertwinerSolution(nullspace=ns, flags=tuple(flags) + near)
    if ns.dimension == 1:  # a basis of finite rows is finite: no second check
        solution.normalized = scale_to_pivot(ns.basis[0])
        solution.residual = residual(solution.normalized)
    return solution


def _solve_stacked(m_in, m_out, rel_tol):
    """Solve X m_in[g] = m_out[g] X for every g, on every entry of X."""
    support = np.ones((m_out.shape[1], m_in.shape[1]), dtype=bool)
    rows = sylvester_rows(m_in, m_out, support)
    return solve_system(rows, support, rel_tol, _stacked_residual(m_in, m_out))


def _stacked_residual(m_in, m_out):
    """``intertwining_residual`` of X m_in[g] = m_out[g] X on every entry of X, as a function of X."""
    return functools.partial(intertwining_residual,
                             plan=_stack_defect_plan(m_in.shape, m_out.shape),
                             values_in=m_in.reshape(-1), values_out=m_out.reshape(-1))


@dataclass(frozen=True)
class DefectPlan:
    """Which coordinate meets which entry of X in the defect X @ m_in[g] - m_out[g] @ X.

    The coordinates are numbered input stack first, then output stack.  Term p
    multiplies coordinate ``value[p]``, with a minus sign if it is an output
    one, by entry ``entry[p]`` of the flattened X.  Terms are sorted by the
    defect entry they sum into; entry k's terms start at ``start[k]``, in
    generator ``generator[k]``.  ``generator_in`` and ``generator_out`` give
    each coordinate's generator, of ``generators``.
    """

    generators: int
    generator_in: np.ndarray
    generator_out: np.ndarray
    value: np.ndarray
    entry: np.ndarray
    start: np.ndarray
    generator: np.ndarray


def _defect_plan(position_in, position_out, shape_in, shape_out, support) -> DefectPlan:
    """The ``DefectPlan`` of stacks with coordinates at flat ``position_*`` of (G, d, d) stacks.

    X lives on the boolean mask ``support``.  The terms are found by matching
    indices of X's entries and the coordinates, not through ``_row_plan``, so
    that a residual read from this plan checks the assembled rows.
    """
    rows, cols = support.shape
    o, i = np.nonzero(support)  # the entries X[o, i] that may be nonzero
    g_in, j, c = np.unravel_index(position_in, shape_in)
    e_in, t_in = np.nonzero(j[:, None] == i)  # X[o, i] m_in[g, i, c] enters (g, o, c)
    g_out, r, j = np.unravel_index(position_out, shape_out)
    e_out, t_out = np.nonzero(j[:, None] == o)  # m_out[g, r, o] X[o, i] enters (g, r, i)
    cell = np.concatenate(((g_in[e_in] * rows + o[t_in]) * cols + c[e_in],
                           (g_out[e_out] * rows + r[e_out]) * cols + i[t_out]))
    order = np.argsort(cell, kind="stable")
    value = np.concatenate((e_in, len(position_in) + e_out))[order]
    entry = (o * cols + i)[np.concatenate((t_in, t_out))[order]]
    cell = cell[order]
    start = np.flatnonzero(np.diff(cell, prepend=-1))
    generator = cell[start] // (rows * cols)
    return DefectPlan(shape_in[0], *frozen(g_in, g_out, value, entry, start, generator))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _stack_defect_plan(shape_in: tuple, shape_out: tuple) -> DefectPlan:
    """``DefectPlan`` of two (G, d, d) stacks on every entry of X, each stack entry a coordinate.

    It depends on the shapes alone, so a solve of any pattern shares it.
    """
    every_in, every_out = (np.arange(math.prod(shape)) for shape in (shape_in, shape_out))
    support = np.ones((shape_out[1], shape_in[1]), dtype=bool)
    return _defect_plan(every_in, every_out, shape_in, shape_out, support)


def intertwining_residual(x: np.ndarray, plan: DefectPlan, values_in, values_out) -> float:
    """Worst relative defect of X @ m_in[g] - m_out[g] @ X over two generator stacks.

    The stacks come as their coordinate values, and ``plan`` says which
    coordinate meets which entry of X, which must vanish off the support it
    was planned on.  Generator g's defect is scored against
    |X| max(1, |m_in[g]|, |m_out[g]|), in Frobenius norms.  No dense stack
    or product is formed.
    """
    values = np.concatenate((values_in, -values_out))
    squares = (values * values.conj()).real
    norms = (np.bincount(plan.generator_in, squares[:len(values_in)], plan.generators),
             np.bincount(plan.generator_out, squares[len(values_in):], plan.generators))
    defect = np.add.reduceat(values[plan.value] * x.reshape(-1)[plan.entry], plan.start)
    defect = np.sqrt(np.bincount(plan.generator, (defect * defect.conj()).real, plan.generators))
    scale = float(np.linalg.norm(x)) * np.maximum(1.0, np.sqrt(np.maximum(*norms)))
    return float((defect / scale).max())  # NaN propagates


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
    system, support, residual, cyclic = _bulk_system(rep_a.gens, rep_b.gens)
    if cyclic is None:
        return solve_system(system, support, rel_tol, residual, flags)
    ns = block_nullspace(system, rel_tol)
    ns.basis = cyclic.solutions(ns.basis, support.shape)
    return _scored(ns, residual, flags)


def weight_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unknowns of the braiding between factor stacks a, b: a (d_b d_a, d_a d_b) mask.

    It masks the S[out, in] whose qT eigenvalues, read off the diagonal of
    each factor's q^{T_i}, agree at every node to a relative 1e-4,
    |d_out - d_in| <= 1e-4 |d_in|: scale-free, and generous, as a kept
    near-coincident entry still meets its qT rows (``_qt_rows``).  It
    ignores x.  It is the only support rule; ``_support_key`` caches it.
    """
    d_in, d_out = _cartan_products(a, b)
    support = np.ones((d_in.shape[1],) * 2, dtype=bool)
    for node_in, node_out, bound in zip(d_in, d_out, 1e-4 * abs(d_in)):  # memory: one mask
        support &= abs(node_out[:, None] - node_in) <= bound
    return support


def _cartan_products(a: np.ndarray, b: np.ndarray) -> tuple:
    """The q^{T_i} diagonals (nodes, d_a d_b) on V_a x V_b and on V_b x V_a of factor stacks a, b.

    Each entry is one product of the factors' diagonal entries, in the order
    ``CoproductCoordinates.values`` multiplies them.
    """
    d_a, d_b = (np.diagonal(g[2], axis1=1, axis2=2) for g in (a, b))
    d_in = (d_a[:, :, None] * d_b[:, None, :]).reshape(len(d_a), -1)
    d_out = (d_b[:, :, None] * d_a[:, None, :]).reshape(len(d_a), -1)
    return d_in, d_out


# A qT equation on the support is planned iff its coefficient d_in - d_out exceeds this many
# units of roundoff of the larger diagonal entry.  With d_out / d_in = q^k, that keeps every
# k != 0 equation unless q^k lies within a few ulp of 1, and no k = 0 one.
QT_ROW_ROUNDOFF = 8 * 2.0**-52  # float64's machine epsilon is 2^-52; a literal costs no import time


def _qt_rows(d_in: np.ndarray, d_out: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Which qT equations of the weight support carry a coefficient: a (nodes, unknowns) mask.

    Unknown u, numbered row-major on ``support``, is S[o, i]; its equation
    at node j reads (d_in[j, i] - d_out[j, o]) S[o, i] = 0.  Where k = 0 the
    two products are equal up to roundoff (numpy's complex multiply is not
    commutative bit for bit), and the equation is no constraint; it is kept
    iff |d_in - d_out| > ``QT_ROW_ROUNDOFF`` max(|d_in|, |d_out|).
    """
    o, i = np.nonzero(support)
    d_in, d_out = d_in[:, i], d_out[:, o]
    return abs(d_in - d_out) > QT_ROW_ROUNDOFF * np.maximum(abs(d_in), abs(d_out))


def _diagonal_key(gens: np.ndarray) -> tuple:
    """Shape and bytes of the q^{T_i} diagonals of the first (3, nodes, d, d) slice of a stack."""
    diagonals = np.diagonal(gens[(0,) * (gens.ndim - 4) + (2,)], axis1=1, axis2=2)
    return diagonals.shape, diagonals.tobytes()


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _support_key(key_a: tuple, key_b: tuple) -> tuple:
    """The bulk rows' key of factors with two ``_diagonal_key``s: (support, qT rows).

    Both are ``pattern_key``s: of the ``weight_support``, and of the
    (nodes, unknowns) ``_qt_rows`` mask on it.  On a miss, ``weight_support``
    reads stacks that hold those diagonals and nothing else, so the masks
    are the rules' bit for bit.  The key is the exact bytes: a diagonal one
    ulp away is an entry of its own.
    """
    stacks = []
    for (nodes, dim), diagonals in (key_a, key_b):
        gens = np.zeros((3, nodes, dim, dim), dtype=np.complex128)
        slot = np.arange(dim)
        gens[2][:, slot, slot] = np.frombuffer(diagonals, dtype=np.complex128).reshape(nodes, dim)
        stacks.append(gens)
    support = weight_support(*stacks)
    return pattern_key(support, 2), pattern_key(_qt_rows(*_cartan_products(*stacks), support), 2)


def _roots(nodes: int) -> np.ndarray:
    """w^{-m} for m = 0..N-1, w = e^{2 pi i / N}; exact at multiples of a quarter turn."""
    m = np.arange(nodes)
    roots = np.exp(-2j * np.pi * m / nodes)
    quarter = 4 * m % nodes == 0
    roots[quarter] = np.array([1, -1j, -1, 1j])[4 * m[quarter] // nodes]
    return roots


@dataclass(frozen=True)
class CyclicPlan:
    """The N Fourier blocks of a bulk system that the cyclic shift maps onto itself.

    The shift sends node i to i+1 and e_r to e_{r+1} on each factor leg, mod
    N.  A factor stack equals its shift iff its flat entries equal their
    gather at ``shift``.  An unknown S[o, i] goes to S[C o, C i], and each
    orbit of unknowns has N members: column c * N + s is the member at shift
    s of orbit c, at flat index ``position`` of S.  Every equation is a
    shifted equation of node 0, one per orbit of equations, so the system is
    block-circulant in these orbits, and the DFT along the shift axis makes
    it block-diagonal: the (N, rows, orbits) ``shape``.

    The DFT is folded into one gather.  The node-0 terms read coordinates
    ``source_in`` of the input stack, then ``source_out`` of the output
    stack.  Term ``spread[p]`` of that list, times ``phase[p]``, enters
    block entry ``target[t]``, flat in ``shape``, for the p from ``start[t]``
    on: a term of (r, c, s) enters (k, r, c) times w^{-ks}, and minus that
    for an output term.  ``dft`` holds w^{-ks} / sqrt(N), unitary.
    """

    nodes: int
    shape: tuple
    shift: np.ndarray
    position: np.ndarray
    source_in: np.ndarray
    source_out: np.ndarray
    spread: np.ndarray
    phase: np.ndarray
    start: np.ndarray
    target: np.ndarray
    dft: np.ndarray

    def covariant(self, *stacks) -> bool:
        """Whether every (..., 3, nodes, nodes, nodes) stack equals its own shift, exactly."""
        for stack in stacks:
            flat = stack.reshape(*stack.shape[:-4], -1)
            if not (flat.take(self.shift, axis=-1) == flat).all():
                return False
        return True

    def blocks(self, values_in, values_out) -> np.ndarray:
        """The (..., N, rows, orbits) Fourier blocks of coordinate values (see ``RowPlan``).

        Entry (r, c) of block k is sum_s A[r, c, s] w^{-ks}, w = e^{2 pi i / N},
        over the planned node-0 equations r, with A the node-0 rows on the
        columns (c, s).  Leading axes, equal on both value arrays, give one
        stack of blocks each, which is the unstacked call's bit for bit.
        """
        lead = values_in.shape[:-1]
        terms = np.concatenate((values_in.take(self.source_in, axis=-1),
                                values_out.take(self.source_out, axis=-1)), axis=-1)
        sums = np.add.reduceat(terms.take(self.spread, axis=-1) * self.phase, self.start, axis=-1)
        blocks = np.zeros((*lead, math.prod(self.shape)), dtype=np.complex128)
        blocks[last_axis(self.target, lead)] = sums
        return blocks.reshape(*lead, *self.shape)

    def solutions(self, basis: np.ndarray, shape: tuple) -> np.ndarray:
        """Basis vectors in block coordinates (``block_nullspace``) as unknowns of ``shape``.

        Block k's vector v gives S at the member at shift s of orbit c as
        v[c] w^{-ks} / sqrt(N): the unitary inverse of the transform ``blocks`` takes.
        """
        count, columns = len(basis), len(self.position)
        coefficients = basis.reshape(count, self.nodes, columns // self.nodes).swapaxes(1, 2)
        full = np.zeros((count, math.prod(shape)), dtype=np.complex128)
        full[:, self.position] = (coefficients @ self.dft).reshape(count, columns)
        return full.reshape(count, *shape)


def _cyclic_plan(a: np.ndarray, b: np.ndarray, support: np.ndarray, qt_rows: np.ndarray,
                 into, onto, dropped: np.ndarray):
    """The ``CyclicPlan`` of factor patterns a, b and their coproduct coordinates, or None.

    None unless every leg has dimension N = nodes, and the shift maps both
    patterns, the support and the (nodes, unknowns) ``_qt_rows`` mask onto
    themselves.  The equations labelled ``dropped`` (see ``_row_plan``) are
    not planned.
    """
    nodes = a.shape[1]
    if a.shape[1:] != (nodes,) * 3 or b.shape != a.shape:
        return None
    shift = np.roll(np.arange(a.size).reshape(a.shape), 1, axis=(1, 2, 3)).reshape(-1)
    step = np.roll(np.arange(nodes * nodes).reshape(nodes, nodes), -1, axis=(0, 1)).reshape(-1)
    if not all(np.array_equal(p.reshape(-1)[shift], p.reshape(-1)) for p in (a, b)) \
            or not np.array_equal(support[np.ix_(step, step)], support):
        return None
    number = np.cumsum(support).reshape(support.shape) - 1  # row-major unknown index
    o, i = np.nonzero(support)
    moved = number[step[o], step[i]]  # the unknown the shift makes of each
    if not np.array_equal(np.roll(qt_rows, -1, axis=0)[:, moved], qt_rows):  # node j+1 of C u
        return None
    walk = [np.arange(len(o))]  # walk[s][u]: the unknown that the shift applied s times makes of u
    for _ in range(nodes - 1):
        walk.append(walk[-1][moved])
    walk = np.array(walk)
    members = walk[:, np.unique(walk.min(axis=0))].T.ravel()  # orbit-major, then shift
    column = np.zeros(support.shape, dtype=np.intp)
    column[o[members], i[members]] = np.arange(len(members))
    square = into.shape[1] * into.shape[2]
    first = [np.flatnonzero(c.position // square % nodes == 0) for c in (into, onto)]
    plan = _row_plan(into.position[first[0]], onto.position[first[1]], into.shape, onto.shape,
                     support, column, dropped)
    # every node-0 term, input terms first, at each k: it enters block entry (k, r, c)
    cell = np.concatenate((plan.target_in, plan.target_out))
    orbit, s = np.divmod(plan.col[cell], nodes)
    k = np.arange(nodes)[:, None]
    target = ((k * plan.rows + plan.row[cell]) * (len(members) // nodes) + orbit).ravel()
    sign = np.repeat([1.0, -1.0], [len(plan.target_in), len(plan.target_out)])
    phase = (sign * _roots(nodes)[k * s % nodes]).ravel()
    order = np.argsort(target, kind="stable")  # a block entry's terms in order: input first
    target = target[order]
    start = np.flatnonzero(np.diff(target, prepend=-1))
    spread = np.tile(np.arange(len(cell)), nodes)[order]
    dft = _roots(nodes)[k * np.arange(nodes) % nodes] / math.sqrt(nodes)
    return CyclicPlan(nodes, (nodes, plan.rows, len(members) // nodes), *frozen(
        shift, np.flatnonzero(support)[members], first[0][plan.source_in],
        first[1][plan.source_out], spread, phase[order], start, target[start], dft))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _bulk_plan(key_a: tuple, key_b: tuple, key_support: tuple) -> tuple:
    """Coordinates of both coproduct stacks, their ``RowPlan``, ``DefectPlan`` and ``CyclicPlan``.

    The factor plans are keyed by ``pattern_key``s, and the rows by a
    ``_support_key`` value: unknowns on the support, and qT equations only
    where its qT mask keeps them.  The ``CyclicPlan`` is None where the shift
    does not map the patterns and masks onto themselves.
    The residual's ``DefectPlan`` covers every equation.
    """
    a, b = key_pattern(key_a), key_pattern(key_b)
    support, qt_rows = (key_pattern(key) for key in key_support)
    into, onto = coproduct_coordinates(a, b), coproduct_coordinates(b, a)
    frozen(*(arr for c in (into, onto) for arr in (c.position, *c.product, *c.plain)))
    rows_x, cols_x = support.shape
    o, i = np.nonzero(support)
    node, unknown = np.nonzero(~qt_rows)
    dropped = ((2 * a.shape[1] + node) * rows_x + o[unknown]) * cols_x + i[unknown]
    plan = _row_plan(into.position, onto.position, into.shape, onto.shape, support,
                     dropped=dropped)
    defect = _defect_plan(into.position, onto.position, into.shape, onto.shape, support)
    return into, onto, plan, defect, _cyclic_plan(a, b, support, qt_rows, into, onto, dropped)


def _bulk_system(a: np.ndarray, b: np.ndarray):
    """The system of ``solve_bulk`` between factor stacks a, b, checked: its one front end.

    a and b are ``gens`` stacks, (..., 3, nodes, d, d), whose leading axes
    broadcast to one system per index.  A non-finite factor is refused
    before any arithmetic.  The support and qT rows are looked up
    (``_support_key``) from each stack's first leading slice: a scan
    chunk's points share q, and the q^{T_i} diagonals ignore x.  Returns
    (system, support, residual, cyclic): ``residual(x)`` scores an
    unstacked solution on the coproduct coordinates, apart from the rows.
    Factors that equal their own shift, on a plan with a ``CyclicPlan``,
    give that plan as ``cyclic`` and the system as its (..., N, rows,
    orbits) Fourier blocks; otherwise ``cyclic`` is None and the system is
    the whole one, (..., rows, cols).  A system that is not finite, as
    products of finite factors can overflow, is refused before any SVD.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):  # before any arithmetic on them
        raise ValueError("matrix has non-finite entries")
    key = _support_key(_diagonal_key(a), _diagonal_key(b))
    into, onto, plan, defect, cyclic = _bulk_plan(pattern_key(a, 4), pattern_key(b, 4), key)
    values_in, values_out = into.values(a, b), onto.values(b, a)
    if cyclic is not None and cyclic.covariant(a, b):
        system = cyclic.blocks(values_in, values_out)
    else:
        system, cyclic = plan.assemble(values_in, values_out), None
    if not np.isfinite(system).all():
        raise ValueError("matrix has non-finite entries")
    residual = functools.partial(intertwining_residual, plan=defect, values_in=values_in,
                                 values_out=values_out)
    return system, key_pattern(key[0]), residual, cyclic


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
    for the convention under which solutions exist.  With that conjugate,
    ``solve_reflection`` solves the same system from ``reflection_rows``.
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
    point = check_point(rep.n, rep.q, _reflected(rep.q, rep.x))
    return EvaluationRep(n=rep.n, q=rep.q, x=point[2], is_dual=True, gens=_conjugate_gens(*point))


def _reflected(q: complex, x: complex) -> complex:
    """The spectral parameter -q/x of the conjugate ``reflection_dual`` builds for V(x)."""
    return -q / x


def _conjugate_gens(n: int, q: complex, y: complex) -> np.ndarray:
    """The ``gens`` of ``reflection_dual`` at a validated point (n, q, y = -q/x)."""
    return dual_stack(_vector_gens(n, q, [y]))[0]


def reflection_coefficients(n: int, q: complex, xs, eps: np.ndarray) -> np.ndarray:
    """The values of the coideal stacks of V(x) and its ``reflection_dual``, one (P, K) row each.

    (n, q) and the xs come validated (``reps.check_points``), and so does
    eps, a (P or 1, nodes) array whose one row serves every x; one x serves
    every eps row.  Only each conjugate's y = -q/x is validated here, with
    ``check_point``'s errors.  The columns are x and 1/x (V's Q_i and
    Qbar_i), -(1/q) y and -(1/(1/q)) (1/y) (the conjugate's, -D_i^{-1} g
    transposed), then per node i eps_i times (1, 1/q, q), V's q^{T_i}
    entries, and times their reciprocals, the conjugate's.  Reciprocals of
    points are taken in Python complex arithmetic, as ``vector_stack``
    takes them, and products and the reciprocals of (1, 1/q, q) as numpy
    array operations, as ``dual_stack`` and ``coideal_stack`` form them: a
    numpy scalar or Python product rounds differently.  So every value is
    theirs bit for bit.
    """
    conjugates = [check_point(n, q, _reflected(q, x))[2] for x in xs]
    return _reflection_coefficients(n, q, xs, conjugates, eps)


def _reflection_coefficients(n: int, q: complex, xs, conjugates, eps: np.ndarray) -> np.ndarray:
    """``reflection_coefficients`` with each x's conjugate y = -q/x given, validated."""
    points = np.array([(x, 1.0 / x, y, 1.0 / y) for x, y in zip(xs, conjugates)],
                      dtype=np.complex128)
    cartan = np.array([1.0, 1.0 / q, q], dtype=np.complex128)
    factors = np.concatenate((cartan, 1.0 / cartan))  # q^{T_i} entries of V, then of the conjugate
    out = np.empty((max(len(points), len(eps)), 4 + 6 * (n + 1)), dtype=np.complex128)
    out[:, :2] = points[:, :2]
    out[:, 2:4] = -(factors[5:3:-1] * points[:, 2:])  # the conjugate's D_i^{-1} at slots i+1, i
    out[:, 4:] = (eps[:, :, None] * factors).reshape(len(eps), -1)
    return out


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _reflection_plan(n: int) -> RowPlan:
    """``RowPlan`` of the generic K rows at rank n; sources index ``reflection_coefficients``.

    V's Qhat_i has x at (i+1, i), 1/x at (i, i+1) and eps_i q^{T_i} on the
    diagonal; the conjugate's has its Q_i at (i, i+1) and its Qbar_i at
    (i+1, i).  It depends on n alone, so it is derived once per n and cached.
    """
    dim = n + 1
    i = np.arange(dim)
    up = (i + 1) % dim
    node, slot = np.repeat(i, dim), np.tile(i, dim)
    power = (slot == node) + 2 * (slot == up[node])  # slot of (1, 1/q, q) in q^{T_node}
    diagonal = node * dim * dim + slot * (dim + 1)
    lower, upper = (i * dim + up) * dim + i, (i * dim + i) * dim + up
    plan = _row_plan(np.concatenate((lower, upper, diagonal)),
                     np.concatenate((upper, lower, diagonal)), (dim,) * 3, (dim,) * 3,
                     np.ones((dim, dim), dtype=bool))
    column = 4 + 6 * node + power
    sources = frozen(np.concatenate((0 * i, 0 * i + 1, column))[plan.source_in],
                     np.concatenate((0 * i + 2, 0 * i + 3, column + 3))[plan.source_out])
    return replace(plan, source_in=sources[0], source_out=sources[1])


def reflection_rows(n: int, coefficients: np.ndarray) -> np.ndarray:
    """The generic K system of ``reflection_coefficients``, one (rows, N*N) system per row.

    Point p's system is ``sylvester_rows`` of its two coideal stacks bit for
    bit, once all-zero rows are dropped; the points share one row set.
    """
    return _reflection_plan(n).assemble(coefficients, coefficients)


def solve_reflection(rep: EvaluationRep, conjugate: EvaluationRep | None, eps,
                     rel_tol: float = DEFAULT_REL_TOL) -> IntertwinerSolution:
    """``solve_boundary(rep, conjugate, eps, rel_tol)`` for conjugate = ``reflection_dual(rep)``.

    The rows come from ``reflection_rows``, as a boundary scan's do.  The
    residual is scored on the two coideal stacks, which are formed only for
    a one-dimensional solution; a ``conjugate`` of None is built then too,
    from the point -q/x, which is validated once, before eps.
    """
    point = check_point(rep.n, rep.q, _reflected(rep.q, rep.x))
    params = np.array(as_boundary_params(eps, rep.n))
    coefficients = _reflection_coefficients(rep.n, rep.q, [rep.x], point[2:], params[None])

    def residual(k):
        dual = _conjugate_gens(*point) if conjugate is None else conjugate.gens
        m_in, m_out = coideal_stack(rep.gens, params), coideal_stack(dual, params)
        return _stacked_residual(m_in, m_out)(k)

    support = np.ones((rep.dim, rep.dim), dtype=bool)
    return solve_system(reflection_rows(rep.n, coefficients)[0], support, rel_tol, residual)


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
        "k_mu": solve_reflection(mu, mub, eps),
        "k_nu": solve_reflection(nu, nub, eps),
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
    """Nullspace dimensions and rank margins (see ``NullspaceResult.margin``), in grid order."""

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
    chunk gathers all its points' values at once, and a covariant one comes
    as Fourier blocks, as its solves do); a chunk of ``SCAN_CHUNK`` points
    shares one row set and is ranked from its singular values alone, at
    ``DEFAULT_REL_TOL``.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    n, q, _ = check_point(fixed["n"], fixed["q"], 1.0)  # as the solves take them
    if kind == "bulk":
        left = vector_rep(n, q, fixed["x_left"]).gens

        def rows(chunk):
            return _bulk_system(left, vector_stack(n, q, grid[chunk]))[0]
    elif kind == "boundary":
        from .boundary import k_scan_rows  # local import, boundary builds on this module

        rows = k_scan_rows(n, q, fixed, grid)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    dims, margins = [], []
    for start in range(0, len(grid), SCAN_CHUNK):
        nullity, margin = stack_nullities(rows(slice(start, start + SCAN_CHUNK)))
        dims += nullity
        margins += margin
    return ScanResult(dims=dims, margins=margins)
