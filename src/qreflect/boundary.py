"""The explicit vector-soliton boundary system for type A_n^(1).

Four families of linear conditions constrain the N x N reflection matrix K
(entries K^a_b, N = n+1, node indices cyclic mod N):

  1.  eps_i (q^{-1} - q) K^i_i + x K^i_{i+1} - x^{-1} K^{i+1}_i = 0
  2.  K^{i+1}_{i+1} - K^i_i = 0
  3.  eps_i q     K^i_j + x^{-1} K^{i+1}_j = 0      for j not in {i, i+1}
  4.  eps_i q^{-1} K^j_i + x      K^j_{i+1} = 0     for j not in {i, i+1}

Families 3 and 4 are empty for n = 1.  When every eps_i is +-1 the system
has a one-dimensional solution space whose representative is given in
closed form by ``closed_form_k``; eps = 0 forces K proportional to the
identity; other moduli leave no solution.  These claims are exercised, not
assumed, by the test suite.

The family rows are written from a per-n layout (``_paper_plan``) and each
point's handful of coefficients.  The "generic" method, the antipode-dual
engine system, is built the same way, by ``intertwiners.reflection_rows``
on its own per-n plan; ``solve_k`` and boundary scans read both from here.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_REL_TOL, as_matrix, check_tolerance, normalize_solution
from .linalg import projective_compare
from .linalg import nullspace  # noqa: F401  (bench/test_bench.py traces it in this namespace)
from .intertwiners import PLAN_CACHE_SIZE, IntertwinerSolution, frozen, reflection_coefficients
from .intertwiners import reflection_rows, solve_reflection, solve_system
from .reps import as_boundary_params, check_point, check_points, vector_rep


# Every K method and the ``convention`` label of its documents.  ``solve_k`` and scans
# take all but "closed-form", which ``closed_form_k`` evaluates.  The CLI and ``io`` read
# the names, labels and default from here.
K_METHODS = {"paper": "paper", "generic": "antipode-dual", "closed-form": "paper"}
DEFAULT_K_METHOD = "paper"


def paper_boundary_system(n: int, q: complex, x: complex, eps) -> np.ndarray:
    """Emit the four equation families, one coefficient row per instance.

    The rows act on vec(K) in row-major entry order.  Row order is
    family-major: family 1 for i = 0..n, then family 2, then families 3 and
    4 with rows ordered by (i, j).  Total row count is (n+1)(2N-2).
    """
    n, q, x = check_point(n, q, x)
    return _paper_rows(n, q, [x], [as_boundary_params(eps, n)])[0]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _paper_plan(n: int) -> tuple:
    """Where each term of the family rows at rank n goes, as read-only (target, coefficient).

    Term k puts coefficient ``coefficient[k]`` (numbered as in ``_paper_rows``)
    at flat entry ``target[k]`` of one point's (rows, N*N) block.  It depends
    on n alone, so it is derived once per n and cached.
    """
    dim = n + 1
    i = np.arange(dim)
    up = (i + 1) % dim
    # families 3 and 4 run over the pairs (i, j), j not in {i, i+1}, in row-major order
    pi, pj = np.nonzero((i != i[:, None]) & (i != up[:, None]))
    f3 = 2 * dim + np.arange(pi.size)
    f4 = f3 + pi.size
    # one (row, a, b, c) per term: coefficient c at entry K^a_b; c = 0..4 are 1, -1, x, -1/x,
    # 1/x, then come eps_i (1/q - q), eps_i q and eps_i / q
    row, a, b, c = (np.concatenate(parts) for parts in zip(
        (i, i, i, 5 + i), (i, i, up, 2 + 0 * i), (i, up, i, 3 + 0 * i),  # family 1
        (dim + i, up, up, 0 * i), (dim + i, i, i, 1 + 0 * i),  # family 2
        (f3, pi, pj, 5 + dim + pi), (f3, up[pi], pj, 4 + 0 * pi),  # family 3
        (f4, pj, pi, 5 + 2 * dim + pi), (f4, pj, up[pi], 2 + 0 * pi),  # family 4
    ))
    return frozen((row * dim + a) * dim + b, c)


def _paper_rows(n: int, q: complex, x, eps) -> np.ndarray:
    """The family rows at the validated points (x[p], eps[p]), as one (points, rows, N*N) stack."""
    dim = n + 1
    target, coefficient = _paper_plan(n)
    # Python complex arithmetic, as the families are written: numpy's complex kernels
    # round differently in the last bit
    diag = 1.0 / q - q
    coefficients = np.array([
        [1.0, -1.0, xp, -1.0 / xp, 1.0 / xp, *(e * diag for e in ep), *(e * q for e in ep),
         *(e / q for e in ep)]
        for xp, ep in zip(x, eps)
    ], dtype=np.complex128)
    rows = np.zeros((len(coefficients), 2 * dim * (dim - 1), dim * dim), dtype=np.complex128)
    # every term has its own entry, so this adds each coefficient to an exact zero
    rows.reshape(len(rows), -1)[:, target] += coefficients[:, coefficient]
    return rows


def k_scan_rows(n: int, q: complex, fixed: dict, grid: list):
    """The rows ``solve_k`` ranks at each point of a boundary scan, by a slice of ``grid``.

    The axis is read from ``fixed`` once: with an ``eps`` entry the grid
    holds x values at that eps (a theta axis), otherwise eps tuples at
    ``fixed["x"]`` (an eps axis).  Every point is validated before any rows
    are built.  ``fixed["method"]`` (default ``DEFAULT_K_METHOD``) picks the
    rows: "paper" writes the family rows; "generic" gathers each point's
    ``reflection_coefficients`` into the cached ``reflection_rows`` plan, as
    ``solve_k`` does, and the points of a slice share one row set.  A theta
    axis builds a slice's coefficients in one call; an eps axis builds the
    whole grid's once, at its one x, and each slice takes its rows.
    """
    method = fixed.get("method", DEFAULT_K_METHOD)
    if "eps" in fixed:
        eps = [as_boundary_params(fixed["eps"], n)] * len(grid)
        n, q, xs = check_points(n, q, grid)
    else:
        eps = [as_boundary_params(e, n) for e in grid]
        n, q, xs = check_points(n, q, [fixed["x"]])
        xs *= len(grid)
    if method == "paper":
        return lambda chunk: _paper_rows(n, q, xs[chunk], eps[chunk])
    if method != "generic":
        raise ValueError(f"unknown boundary method {method!r}")
    if "eps" in fixed:
        params = np.array(eps[:1])
        return lambda chunk: reflection_rows(n, reflection_coefficients(n, q, xs[chunk], params))
    coefficients = reflection_coefficients(n, q, xs[:1], np.array(eps))
    return lambda chunk: reflection_rows(n, coefficients[chunk])


def solve_paper_k(
    n: int, q: complex, x: complex, eps, rel_tol: float = DEFAULT_REL_TOL
) -> IntertwinerSolution:
    """Nullspace of the explicit family system, canonically normalized.

    The residual is the row defect |rows . vec K| / (|K| max(1, |rows|)).
    """
    rows = paper_boundary_system(n, q, x, eps)

    def residual(k):
        scale = float(np.linalg.norm(k)) * max(1.0, float(np.linalg.norm(rows)))
        return float(np.linalg.norm(rows @ k.ravel())) / scale

    return solve_system(rows, np.ones((n + 1, n + 1), dtype=bool), rel_tol, residual)


def solve_k(n: int, q: complex, x: complex, eps, method: str = DEFAULT_K_METHOD,
            rel_tol: float = DEFAULT_REL_TOL) -> IntertwinerSolution:
    """Solve for the boundary K at one point by the named method.

    "paper" solves the explicit family system (``solve_paper_k``);
    "generic" solves the antipode-dual engine system with the conjugate
    from ``reflection_dual`` (``solve_reflection``), built only for the
    residual of a one-dimensional solution.
    """
    if method == "paper":
        return solve_paper_k(n, q, x, eps, rel_tol)
    if method == "generic":
        return solve_reflection(vector_rep(n, q, x), None, eps, rel_tol)
    raise ValueError(f"unknown boundary method {method!r}")


@dataclass(frozen=True)
class ClosedFormParams:
    """Inputs of the closed-form reflection matrix: the eps_i, each of modulus 1."""

    eps: tuple

    def __post_init__(self):
        params = as_boundary_params(self.eps, len(self.eps) - 1)  # closed_form_k checks the length
        bad = [e for e in params if abs(abs(e) - 1.0) > 1e-12]
        if bad:
            raise ValueError(f"closed form requires |eps_i| = 1, got {bad}")
        object.__setattr__(self, "eps", params)


def closed_form_k(n: int, q: complex, x: complex, params: ClosedFormParams) -> np.ndarray:
    """Evaluate the closed-form reflection matrix at one spectral point.

    With w a square root of -q x, W = w^{n+1} and eps_agg = eps_0 ... eps_n
    (the rule the n = 1 elimination fixes and the n = 2 nullspace confirms):
      K^i_i = (q^{-1} W - eps_agg q W^{-1}) / (q^{-1} - q)
      K^i_j = eps_i ... eps_{j-1}           w^{2(i-j)+n+1}   (j > i)
      K^j_i = eps_i ... eps_{j-1} eps_agg   w^{2(j-i)-n-1}   (j > i)
    """
    n, q, x = check_point(n, q, x)
    if abs(q**2 - 1.0) < 1e-12:
        raise ValueError("closed form is singular at q^2 = 1")
    eps = as_boundary_params(params.eps, n)
    agg = math.prod(eps, start=1 + 0j)
    w = cmath.sqrt(-q * x)
    cap_w = w ** (n + 1)
    dim = n + 1

    out = np.zeros((dim, dim), dtype=np.complex128)
    diag = (cap_w / q - agg * q / cap_w) / (1.0 / q - q)
    for i in range(dim):
        out[i, i] = diag
    for i in range(dim):
        for j in range(i + 1, dim):
            chain = 1.0 + 0j
            for l in range(i, j):
                chain *= eps[l]
            out[i, j] = chain * w ** (2 * (i - j) + n + 1)
            out[j, i] = chain * agg * w ** (2 * (j - i) - n - 1)
    return out


@dataclass
class GaugeReport:
    """Outcome of comparing two reflection-matrix conventions.

    ``constant`` says whether C(theta) = normalize(K_generic K_paper^{-1})
    is the same matrix (projectively) at every sampled rapidity; ``gauge``
    is that matrix when it is.
    """

    constant: bool
    gauge: np.ndarray | None
    max_deviation: float


def reconcile_gauge(k_paper_seq, k_generic_seq, tol: float = 1e-6) -> GaugeReport:
    """Measure whether two K conventions differ by a rapidity-independent gauge.

    Both sequences must hold the (invertible) dimension-1 solutions at the
    same sampled rapidities, in order.
    """
    k_paper_seq = [as_matrix(k) for k in k_paper_seq]
    k_generic_seq = [as_matrix(k) for k in k_generic_seq]
    if len(k_paper_seq) != len(k_generic_seq):
        raise ValueError("need one K per convention per sampled rapidity")
    if not k_paper_seq:
        raise ValueError("need at least one sample")
    check_tolerance(tol)
    gauges = []
    for k_p, k_g in zip(k_paper_seq, k_generic_seq):
        if abs(np.linalg.det(k_p)) < 1e-300:
            raise ValueError("paper-convention K is singular at a sample")
        gauges.append(normalize_solution(k_g @ np.linalg.inv(k_p)))
    deviations = [projective_compare(c, gauges[0], tol)[2] for c in gauges[1:]]
    worst = float(np.max(deviations, initial=0.0))  # NaN propagates
    constant = worst <= tol
    return GaugeReport(
        constant=constant,
        gauge=gauges[0] if constant else None,
        max_deviation=worst,
    )
