import cmath
import functools
import importlib
import itertools
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eps_star, generic_point
from qreflect.boundary import solve_k, solve_paper_k
from qreflect.checks import plain_r
import qreflect
from qreflect import boundary, checks, intertwiners, reps
from qreflect.intertwiners import (
    _solve_stacked,
    closed_form_s,
    dimension_scan,
    intertwining_residual,
    pattern_key,
    reflection_dual,
    solve_boundary,
    solve_bulk,
    solve_equivalence,
    sylvester_rows,
)
from qreflect.linalg import DEFAULT_REL_TOL, _decide, merged_singular_values, normalize_solution
from qreflect.linalg import projective_compare
from qreflect.reps import EvaluationRep, coideal_generators, coproduct, dual_rep, vector_rep

Q_REF = 0.8 * np.exp(0.3j)


def test_bulk_generic_unique():
    a = vector_rep(1, Q_REF, np.exp(0.7))
    b = vector_rep(1, Q_REF, np.exp(0.23))
    sol = solve_bulk(a, b)
    assert sol.dimension == 1
    assert sol.residual < 1e-10
    assert sol.flags == ()


def test_bulk_solution_intertwines_by_substitution():
    # independent of the reported residual: substitute S into every equation
    from qreflect.reps import coproduct_matrix

    a = vector_rep(1, Q_REF, np.exp(0.7))
    b = vector_rep(1, Q_REF, np.exp(0.23))
    s = solve_bulk(a, b).normalized
    for kind in ("Q", "Qbar", "qT"):
        for i in range(2):
            lhs = s @ coproduct_matrix(a, b, kind, i)
            rhs = coproduct_matrix(b, a, kind, i) @ s
            assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(s)


def test_bulk_equal_rapidity_flagged():
    a = vector_rep(1, Q_REF, np.exp(0.7))
    sol = solve_bulk(a, vector_rep(1, Q_REF, np.exp(0.7)))
    assert "equal-rapidity" in sol.flags
    # measured outcome at the coincident point: still a unique intertwiner
    assert sol.dimension == 1
    assert projective_compare(sol.normalized, np.eye(4), 1e-8)[0]
    # spectral parameters are compared relatively, so tiny distinct x are not equal
    assert solve_bulk(vector_rep(1, Q_REF, 1e-9), vector_rep(1, Q_REF, 2e-9)).flags == ()


def test_bulk_rejects_mismatched_algebra():
    with pytest.raises(ValueError):
        solve_bulk(vector_rep(1, Q_REF, 1.2), vector_rep(1, 1.1 * Q_REF, 1.7))


def test_bulk_rejects_a_near_q_in_either_order():
    # q_b = q_a (1 + 1.000005e-5) is within 1e-5 of |q_b| but not of |q_a|: solve_bulk's own
    # check rejects the pair whichever side comes first
    a, b = vector_rep(1, Q_REF, 1.2), vector_rep(1, Q_REF * (1 + 1.000005e-5), 1.7)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="bulk channels require matching"):
            solve_bulk(left, right)


def test_bulk_rejects_a_non_finite_factor_before_its_weight_support():
    # the weight support reads the q^T diagonals: an inf there must be reported as a non-finite
    # factor, as coproduct reports it, not as the invalid product the support would compute
    good = vector_rep(1, Q_REF, 1.7)
    for kind, entry, value in (("Qbar", (1, 0, 1), np.nan), ("D", (1, 0, 0), np.inf)):
        bad = vector_rep(1, Q_REF, 1.2)
        getattr(bad, kind)[entry] = value
        for pair in ((bad, good), (good, bad)):
            for build in (solve_bulk, coproduct):
                with np.errstate(all="raise"), pytest.raises(ValueError, match="non-finite"):
                    build(*pair)


def test_equal_rapidity_flag_does_not_depend_on_argument_order():
    # x_b = x_a (1 + 1.000005e-5) is within 1e-5 of |x_b| but not of |x_a|; the flag follows
    # the symmetric rule of same_algebra, whichever side comes first
    x = np.exp(0.7)
    for factor, flags in ((1 + 1.000005e-5, ()), (1 + 0.99e-5, ("equal-rapidity",))):
        a, b = vector_rep(1, Q_REF, x), vector_rep(1, Q_REF, x * factor)
        assert solve_bulk(a, b).flags == solve_bulk(b, a).flags == flags, factor


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bulk_dimension_one_generic(n):
    rng = np.random.default_rng(80 + n)
    for _ in range(3):
        q, x = generic_point(rng)
        _, y = generic_point(rng)
        sol = solve_bulk(vector_rep(n, q, x), vector_rep(n, q, y))
        assert sol.dimension == 1
        assert sol.residual < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_bulk_braid_square_is_scalar(n):
    rng = np.random.default_rng(7 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    a = vector_rep(n, q, x)
    b = vector_rep(n, q, y)
    s_ab = solve_bulk(a, b).normalized
    s_ba = solve_bulk(b, a).normalized
    dim = (n + 1) ** 2
    equal, _, dev = projective_compare(s_ba @ s_ab, np.eye(dim), 1e-8)
    assert equal, dev


def test_boundary_rejects_bad_eps_length():
    rep = vector_rep(1, Q_REF, np.exp(0.7))
    with pytest.raises(ValueError):
        solve_boundary(rep, reflection_dual(rep), (1.0,))


def test_boundary_at_inverse_x_is_empty():
    # Measured fact: with the dual built at 1/x (plain theta -> -theta) the
    # coideal system has no nonzero solutions at generic points, for any eps.
    for n in (1, 2):
        rep = vector_rep(n, Q_REF, np.exp(0.7))
        naive = dual_rep(vector_rep(n, Q_REF, 1 / rep.x))
        for eps in (np.zeros(n + 1), np.ones(n + 1)):
            assert solve_boundary(rep, naive, eps).dimension == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_reflection_dual_identity_at_zero_eps(n):
    rng = np.random.default_rng(19 + n)
    q, x = generic_point(rng)
    rep = vector_rep(n, q, x)
    sol = solve_boundary(rep, reflection_dual(rep), np.zeros(n + 1))
    assert sol.dimension == 1
    assert np.allclose(sol.normalized, np.eye(n + 1), atol=1e-10)
    assert sol.residual < 1e-10


def test_boundary_n1_solves_for_any_eps(rng):
    q, x = generic_point(rng)
    rep = vector_rep(1, q, x)
    dual = reflection_dual(rep)
    for _ in range(5):
        eps = rng.normal(size=2) + 1j * rng.normal(size=2)
        sol = solve_boundary(rep, dual, eps)
        assert sol.dimension == 1
        assert sol.residual < 1e-10


def test_boundary_n2_locus(rng):
    # eps_i = +-eps_star solves; the bare +-1 locus of the explicit family
    # system does not transfer to this convention
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    dual = reflection_dual(rep)
    star = 1 / np.sqrt((1 - q) * (1 - 1 / q))
    assert solve_boundary(rep, dual, (1, 1, 1)).dimension == 0
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1)):
        eps = tuple(star * s for s in signs)
        sol = solve_boundary(rep, dual, eps)
        assert sol.dimension == 1
        assert sol.residual < 1e-10


def test_boundary_generator_order_immaterial(rng):
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    dual = reflection_dual(rep)
    star = 1 / np.sqrt((1 - q) * (1 - 1 / q))
    eps = (star, star, star)
    m_in, m_out = coideal_generators(rep, eps), coideal_generators(dual, eps)
    fwd = _solve_stacked(m_in, m_out, 1e-9)
    rev = _solve_stacked(m_in[::-1], m_out[::-1], 1e-9)
    assert fwd.dimension == rev.dimension == 1
    assert np.allclose(fwd.normalized, rev.normalized, atol=1e-10)


def test_equivalence_self_contains_identity(rng):
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    sol = solve_equivalence(rep, vector_rep(2, q, x))
    assert sol.dimension >= 1
    if sol.dimension == 1:
        assert projective_compare(sol.normalized, np.eye(3), 1e-10)[0]


def test_equivalence_recovers_conjugation(rng):
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    g = np.diag([1.0, 2.0, -0.5j])
    conj = vector_rep(2, q, x)
    g_inv = np.linalg.inv(g)
    for lst in (conj.Q, conj.Qbar, conj.D):
        for i in range(3):
            lst[i] = g @ lst[i] @ g_inv
    sol = solve_equivalence(rep, conj)
    assert sol.dimension == 1
    assert projective_compare(sol.normalized, g, 1e-10)[0]


def test_equivalence_distinct_parameters_empty(rng):
    q, x = generic_point(rng)
    assert solve_equivalence(vector_rep(2, q, x), vector_rep(2, q, 1.9 * x)).dimension == 0


def test_dimension_stability_under_tolerance():
    from qreflect.boundary import solve_paper_k

    a = vector_rep(2, Q_REF, np.exp(0.7))
    b = vector_rep(2, Q_REF, np.exp(0.23))
    dims = {solve_bulk(a, b, rel_tol=t).dimension for t in (1e-10, 1e-9, 1e-8)}
    assert dims == {1}
    dims = {
        solve_paper_k(2, Q_REF, np.exp(0.7), (1, 1, 1), rel_tol=t).dimension
        for t in (1e-10, 1e-9, 1e-8)
    }
    assert dims == {1}


def test_scan_bulk_ray():
    xs = [np.exp(0.1 + 0.2 * k) for k in range(4)]
    result = dimension_scan("bulk", {"n": 1, "q": Q_REF, "x_left": np.exp(0.7)}, xs)
    assert result.dims == [1, 1, 1, 1]


def test_scan_boundary_paper_grid():
    # all-(+-1) points solve, modulus-2 contamination kills the system
    values = [0, 1, -1, 2]
    import itertools

    grid = [tuple(p) for p in itertools.product(values, repeat=3)]
    result = dimension_scan("boundary", {"n": 2, "q": Q_REF, "x": np.exp(0.7)}, grid)
    assert len(result.dims) == len(grid)
    for point, dim in zip(grid, result.dims):
        signs_only = all(v in (1, -1) for v in point)
        if signs_only or point == (0, 0, 0):
            assert dim == 1, point
        elif any(v == 2 for v in point) and all(v in (1, -1, 2) for v in point):
            assert dim == 0, point


def test_scan_boundary_generic_with_override():
    # the generic scan uses reflection_dual; overriding the conjugate with the
    # naive 1/x dual means calling solve_boundary directly
    rep = vector_rep(1, Q_REF, np.exp(0.7))
    naive = dual_rep(vector_rep(1, Q_REF, 1 / rep.x))
    working = dimension_scan(
        "boundary", {"n": 1, "q": Q_REF, "x": rep.x, "method": "generic"}, [(0.0, 0.0)]
    )
    assert solve_boundary(rep, naive, (0.0, 0.0)).dimension == 0
    assert working.dims == [1]


def test_scan_boundary_over_spectral_parameter():
    xs = [np.exp(0.4), np.exp(0.9)]
    result = dimension_scan("boundary", {"n": 1, "q": Q_REF, "eps": (1.0, 1.0)}, xs)
    assert result.dims == [1, 1]


def assert_same_rank_decision(dim, margin, solution):
    """A scan point's rank decision is the per-point solve's.

    Dimensions and the near-threshold flag agree, and margins agree to a
    relative 1e-12: a scan point's system is the solve's, bit for bit, so
    only the two SVD drivers (values only, or with a basis) differ.
    """
    ns = solution.nullspace
    assert dim == ns.dimension
    assert (margin < intertwiners.NEAR_THRESHOLD_MARGIN) == ("near-threshold" in solution.flags)
    if np.isinf(ns.margin):
        assert margin == ns.margin
        return
    assert margin == pytest.approx(ns.margin, rel=1e-12)


def assert_scan_matches_solves(fixed, grid):
    """dimension_scan over ``grid`` against one solve_k / solve_bulk per point."""
    result = dimension_scan("bulk" if "x_left" in fixed else "boundary", fixed, grid)
    assert len(result.dims) == len(result.margins) == len(grid)
    n, q = fixed["n"], fixed["q"]
    for point, dim, margin in zip(grid, result.dims, result.margins):
        if "x_left" in fixed:
            solution = solve_bulk(vector_rep(n, q, fixed["x_left"]), vector_rep(n, q, point))
        elif isinstance(point, tuple):
            solution = solve_k(n, q, fixed["x"], point, fixed["method"])
        else:
            solution = solve_k(n, q, point, fixed["eps"], fixed["method"])
        assert_same_rank_decision(dim, margin, solution)
    return result


@pytest.mark.parametrize("axis", ["eps", "theta"])
@pytest.mark.parametrize("method", ["paper", "generic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_matches_the_per_point_solves_on_the_bench_grids(n, method, axis):
    # the boundary_scan grids: every eps in {0, 1, -1, 2}^(n+1) (times eps* for the engine),
    # and 20 rapidities at a fixed sign pattern
    rng = np.random.default_rng(700 + 10 * n + (method == "generic"))
    q, x = generic_point(rng)
    scale = eps_star(q) if method == "generic" else 1.0
    if axis == "eps":
        grid = [tuple(scale * v for v in p) for p in itertools.product((0, 1, -1, 2), repeat=n + 1)]
        fixed = {"n": n, "q": q, "x": x, "method": method}
    else:
        signs = rng.choice([1.0, -1.0], size=n + 1)
        grid = list(np.exp(np.linspace(-1.0, 0.5, 20) + 0.3j))
        fixed = {"n": n, "q": q, "eps": tuple(scale * signs), "method": method}
    result = assert_scan_matches_solves(fixed, grid)
    if axis == "eps" and n >= 2:
        assert len(grid) > intertwiners.SCAN_CHUNK  # several chunks, ranked one at a time
        assert set(result.dims) == {0, 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bulk_scan_matches_the_per_point_solves(n):
    rng = np.random.default_rng(800 + n)
    q, x = generic_point(rng)
    grid = list(np.exp(np.linspace(0.1, 1.5, 20) + 0.2j))
    assert assert_scan_matches_solves({"n": n, "q": q, "x_left": x}, grid).dims == [1] * 20


def test_one_point_scans_match_their_solve():
    q, x = 0.8 * np.exp(0.3j), np.exp(0.7)
    assert_scan_matches_solves({"n": 2, "q": q, "x": x, "method": "paper"}, [(1, -1, 1)])
    assert_scan_matches_solves({"n": 2, "q": q, "x": x, "method": "generic"}, [(0, 0, 0)])
    assert_scan_matches_solves({"n": 2, "q": q, "x_left": x}, [np.exp(0.23)])


def test_scan_flags_the_documented_near_threshold_points():
    # paper and generic K at eps = (1+1e-8, 1, -1) (times eps* for the engine), and the bulk
    # S at q = -(1+1e-8) with equal rapidities: the cut lies within a factor 4 of a value
    q, eps, x = 0.8 * np.exp(0.3j), (1 + 1e-8, 1, -1), np.exp(0.7)
    eps_g, q_bulk = tuple(eps_star(q) * e for e in eps), -(1 + 1e-8)
    cases = [
        ({"n": 2, "q": q, "x": 2.0, "method": "paper"}, eps, solve_paper_k(2, q, 2.0, eps), 1),
        ({"n": 2, "q": q, "x": 2.0, "method": "generic"}, eps_g,
         solve_k(2, q, 2.0, eps_g, "generic"), 0),
        ({"n": 2, "q": q_bulk, "x_left": x}, x,
         solve_bulk(vector_rep(2, q_bulk, x), vector_rep(2, q_bulk, x)), 1),
    ]
    for fixed, point, solution, dim in cases:
        result = assert_scan_matches_solves(fixed, [point])
        assert result.dims == [dim]
        assert result.margins[0] < intertwiners.NEAR_THRESHOLD_MARGIN
        assert result.margins[0] == pytest.approx(solution.nullspace.margin, rel=1e-6)


@settings(derandomize=True, database=None, deadline=2000, max_examples=40)
@given(
    n=st.integers(1, 3),
    method=st.sampled_from(["paper", "generic", "bulk"]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 40),
    axis=st.sampled_from(["eps", "theta"]),
)
def test_scan_matches_the_per_point_solves_on_random_grids(n, method, seed, size, axis):
    rng = np.random.default_rng(seed)
    q, x = generic_point(rng)
    if method == "bulk":
        fixed = {"n": n, "q": q, "x_left": x}
        grid = list(np.exp(rng.uniform(-1, 1, size) + 1j * rng.uniform(-2, 2, size)))
    elif axis == "eps":  # solvable sign patterns and arbitrary complex eps, mixed
        fixed = {"n": n, "q": q, "x": x, "method": method}
        scale = eps_star(q) if method == "generic" else 1.0
        grid = [tuple(scale * rng.choice([1.0, -1.0], size=n + 1)) if rng.random() < 0.5 else
                tuple(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)) for _ in range(size)]
    else:
        fixed = {"n": n, "q": q, "method": method, "eps": tuple(rng.choice([0.0, 1.0, -1.0, 2.0],
                                                                          size=n + 1))}
        grid = list(np.exp(rng.uniform(-1, 1, size) + 1j * rng.uniform(-2, 2, size)))
    assert_scan_matches_solves(fixed, grid)


def _record_scan_stacks(monkeypatch) -> list:
    """Collect every stack ``dimension_scan`` ranks: (points, rows, cols), or of blocks."""
    stacks = []
    original = intertwiners.stack_nullities

    def spy(stack):
        stacks.append(stack)
        return original(stack)

    monkeypatch.setattr(intertwiners, "stack_nullities", spy)
    return stacks


@pytest.mark.parametrize("case", ["paper-eps", "generic-eps", "generic-theta", "bulk-theta",
                                  "blocked-bulk-theta"])
def test_scan_stacks_hold_the_per_point_systems_bit_for_bit(case, monkeypatch):
    # each point's slice of a chunk, without its all-zero rows, is the system its solve ranks;
    # q and x are numpy scalars, which scans and solves alike take as Python complex.  At
    # n = 3 a bulk point's slice is its stack of Fourier blocks, and so is its solve's system;
    # at n = 2 scan and solves are held to the whole system
    rng = np.random.default_rng(900)
    q, x = generic_point(rng)
    star = eps_star(q)
    thetas = list(np.exp(np.linspace(-1.0, 0.5, 40) + 0.3j))
    if case.endswith("eps"):
        method = case.split("-")[0]
        fixed = {"n": 2, "q": q, "x": x, "method": method}
        scale = star if method == "generic" else 1.0
        grid = [tuple(scale * v for v in p) for p in itertools.product((0, 1, -1, 2), repeat=3)]
        solve = lambda eps: solve_k(2, q, x, eps, method)  # noqa: E731
    elif case == "generic-theta":
        eps = (star, -star, star)
        fixed, grid = {"n": 2, "q": q, "eps": eps, "method": "generic"}, thetas
        solve = lambda y: solve_k(2, q, y, eps, "generic")  # noqa: E731
    else:
        n = 3 if case.startswith("blocked") else 2
        if n == 2:
            _whole_system_path(monkeypatch)
        fixed, grid = {"n": n, "q": q, "x_left": x}, thetas
        solve = lambda y: solve_bulk(vector_rep(n, q, x), vector_rep(n, q, y))  # noqa: E731
    stacks = _record_scan_stacks(monkeypatch)
    dimension_scan("bulk" if "x_left" in fixed else "boundary", fixed, grid)
    chunk = intertwiners.SCAN_CHUNK
    assert len(stacks) == -(-len(grid) // chunk) > 1
    systems = _record_systems(monkeypatch)
    for p, point in enumerate(grid):
        solve(point)
        rows = stacks[p // chunk][p % chunk]
        assert rows.ndim == systems[-1].ndim == (3 if case.startswith("blocked") else 2)
        assert np.array_equal(_without_zero_rows(rows), systems[-1]), p


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        dimension_scan("bulk", {"n": 1, "q": Q_REF, "x_left": 1.0}, [])
    with pytest.raises(ValueError):
        dimension_scan("orbit", {"n": 1, "q": Q_REF}, [1.0])


def _stack_residual(x, m_in, m_out):
    """``intertwining_residual`` of X on every entry, against two dense stacks."""
    position_in, position_out = np.flatnonzero(m_in), np.flatnonzero(m_out)
    support = np.ones(x.shape, dtype=bool)
    plan = intertwiners._defect_plan(position_in, position_out, m_in.shape, m_out.shape, support)
    return intertwining_residual(x, plan, m_in.reshape(-1)[position_in],
                                 m_out.reshape(-1)[position_out])


def _dense_residual(x, m_in, m_out):
    """The residual on dense stacks and the dense X: the reference of the coordinate form."""
    norms = np.maximum(np.linalg.norm(m_in, axis=(1, 2)), np.linalg.norm(m_out, axis=(1, 2)))
    scale = np.linalg.norm(x) * np.maximum(1.0, norms)
    return float(np.max(np.linalg.norm(x @ m_in - m_out @ x, axis=(1, 2)) / scale))


def test_intertwining_residual_propagates_nan():
    eye, nan = np.eye(2), np.full((2, 2), np.nan)
    assert np.isnan(_stack_residual(eye, np.array([eye]), np.array([nan])))
    assert np.isnan(_stack_residual(eye, np.array([eye, eye]), np.array([eye, nan])))


def test_intertwining_residual_matches_the_per_pair_loop(rng):
    # reference: the defect of each pair on its own; the coordinate terms sum in another
    # order, so agreement is to a few ulp, not bit for bit
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    m_in = rng.normal(size=(5, 4, 4)) * np.array([0.1, 1, 10, 100, 1e-3])[:, None, None]
    m_out = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    for scale in (1e-4, 1.0):  # generators of norm below 1 are scored against 1
        worst = max(
            np.linalg.norm(x @ a - b @ x)
            / (np.linalg.norm(x) * max(1.0, np.linalg.norm(a), np.linalg.norm(b)))
            for a, b in zip(scale * m_in, scale * m_out)
        )
        residual = _stack_residual(x, scale * m_in, scale * m_out)
        assert residual == pytest.approx(worst, rel=64 * 2.0**-52)


@pytest.mark.parametrize("flavour", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bulk_residual_matches_the_dense_formula_off_the_solution(n, flavour):
    # S perturbed on its support, so that every generator leaves a defect: the coordinate
    # residual of the solve is the dense one on the coproduct stacks to roundoff
    rng = np.random.default_rng(100 * n + flavour)
    a, b = vector_rep(n, Q_REF, np.exp(0.7)), vector_rep(n, Q_REF, np.exp(0.23))
    a, b = (dual_rep(r) if flavour & bit else r for r, bit in ((a, 1), (b, 2)))
    support = intertwiners.weight_support(a.gens, b.gens)
    _, _, residual, _ = intertwiners._bulk_system(a.gens, b.gens)
    solved = solve_bulk(a, b).normalized
    for size in (1e-9, 1e-3, 1.0):
        x = solved.copy()
        x[support] += size * (rng.normal(size=support.sum()) + 1j * rng.normal(size=support.sum()))
        expected = _dense_residual(x, coproduct(a, b), coproduct(b, a))
        assert expected > 1e-12 * size
        assert residual(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("fault", ["moved-term", "swapped-unknowns"])
def test_the_bulk_residual_does_not_read_the_rows(fault, monkeypatch):
    # a corrupt row plan: one input term moved to another cell of its equation, or the
    # first two unknowns swapped, which keeps the dimension and scatters a wrong S; the
    # residual, read from the coordinates alone, catches either.  At n = 2 the solve is held
    # to the whole system's plan, at n = 3 it reads the Fourier blocks' gather, where the
    # first input term's phase is negated instead of its term moved: each solve gets the
    # corruption in the plan it reads
    def corrupt(original, *key):
        into, onto, rows, defect, cyclic = original(*key)
        blocked = cyclic is not None
        if fault == "moved-term" and blocked:
            phase = cyclic.phase.copy()
            phase[cyclic.spread == 0] *= -1
            cyclic = replace(cyclic, phase=phase)
        elif fault == "moved-term":
            target_in = rows.target_in.copy()
            target_in[0] = np.flatnonzero((rows.row == rows.row[target_in[0]])
                                          & (rows.col != rows.col[target_in[0]]))[0]
            rows = replace(rows, target_in=target_in)
        elif blocked:  # the columns of unknowns 0 and 1 scatter to each other's entry of S
            position = cyclic.position.copy()
            first = np.flatnonzero(intertwiners.key_pattern(key[2][0]))[:2]
            i, j = (np.flatnonzero(position == p)[0] for p in first)
            position[i], position[j] = position[j], position[i]
            cyclic = replace(cyclic, position=position)
        else:
            col = rows.col.copy()
            col[rows.col == 0], col[rows.col == 1] = 1, 0
            rows = replace(rows, col=col)
        return into, onto, rows, defect, cyclic

    for n in (2, 3):
        a, b = vector_rep(n, Q_REF, np.exp(0.7)), vector_rep(n, Q_REF, np.exp(0.23))
        assert solve_bulk(a, b).residual < 1e-13
        with monkeypatch.context() as patch:
            if n == 2:
                _whole_system_path(patch)
            patch.setattr(intertwiners, "_bulk_plan",
                          functools.partial(corrupt, intertwiners._bulk_plan))
            systems = _record_systems(patch)
            wrong = solve_bulk(a, b)
        assert systems[-1].ndim == (2 if n == 2 else 3)  # the whole system, or the blocks
        assert wrong.dimension != 1 or wrong.residual > 1e-6
        assert fault == "moved-term" or wrong.dimension == 1


def _record_systems(monkeypatch) -> list:
    """Collect every matrix the solvers hand to ``nullspace``, and every stack of blocks
    they hand to ``block_nullspace``."""
    systems = []
    for name in ("nullspace", "block_nullspace"):
        original = getattr(intertwiners, name)

        def spy(m, *args, original=original, **kwargs):
            systems.append(m)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(intertwiners, name, spy)
    return systems


def _unknowns(system) -> int:
    """Unknowns of a whole system, or of the block-diagonal system of a stack of blocks."""
    return system.shape[-1] * (len(system) if system.ndim == 3 else 1)


def _without_zero_rows(system):
    """A system, or a stack of blocks, without the equations that are zero in every block."""
    keep = system.any(axis=-1)
    return system[..., keep.any(axis=0) if system.ndim == 3 else keep, :]


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_s_matches_solve_bulk(n, monkeypatch):
    # the bulk system has one unknown per weight-allowed entry: 2N^2 - N of N^4
    systems = _record_systems(monkeypatch)
    rng = np.random.default_rng(300 + n)
    for _ in range(2):
        q, _ = generic_point(rng)
        theta_a, theta_b = rng.uniform(-0.9, 0.9, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
        rep_a = vector_rep(n, q, cmath.exp(theta_a))
        sol = solve_bulk(rep_a, vector_rep(n, q, cmath.exp(theta_b)))
        assert sol.dimension == 1
        assert sol.residual < 1e-10
        oracle = closed_form_s(n, q, theta_a, theta_b)
        equal, _, dev = projective_compare(oracle, sol.normalized, 1e-12)
        assert equal, dev
    dim = n + 1
    assert [_unknowns(m) for m in systems] == [2 * dim * dim - dim] * 2
    assert [m.ndim for m in systems] == [3] * 2  # the Fourier blocks, at every n


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_closed_form_s_braiding_unitarity(n):
    rng = np.random.default_rng(17 + n)
    q, _ = generic_point(rng)
    theta_a, theta_b = rng.normal(size=2) + 1j * rng.normal(size=2)
    square = closed_form_s(n, q, theta_b, theta_a) @ closed_form_s(n, q, theta_a, theta_b)
    equal, _, dev = projective_compare(square, np.eye((n + 1) ** 2), 1e-12)
    assert equal, dev


def _partial_transpose(r, leg, dim):
    """Transpose one tensor leg (0 or 1) of an operator on C^dim x C^dim."""
    axes = (2, 1, 0, 3) if leg == 0 else (0, 3, 2, 1)
    return r.reshape((dim,) * 4).transpose(axes).reshape(dim * dim, dim * dim)


def crossed_s(n, q, theta_a, theta_b, dual_a, dual_b):
    """Braiding V_a x V_b -> V_b x V_a with either factor dual, by crossing ``closed_form_s``.

    With R = plain_r(closed_form_s) on the two vector factors and P the flip, the
    braiding is P (R^{t2})^{-1} for (a, b*), P (R^{-1})^{t1} for (a*, b) and P R^T
    for (a*, b*): (id x S)(R) = R^{-1} in the ``dual_rep`` convention.  The rapidity
    of a dual factor is that of the vector representation it dualises.
    """
    dim = n + 1
    r = plain_r(closed_form_s(n, q, theta_a, theta_b), dim, dim)
    if dual_a and dual_b:
        r = r.T
    elif dual_b:
        r = np.linalg.inv(_partial_transpose(r, 1, dim))
    elif dual_a:
        r = _partial_transpose(np.linalg.inv(r), 0, dim)
    return plain_r(r, dim, dim)  # P is its own inverse on equal legs


FLAVOURS = list(itertools.product((False, True), repeat=2))  # (dual_a, dual_b)


def _bulk(n, q, theta_a, theta_b, dual_a, dual_b):
    reps = []
    for theta, dual in ((theta_a, dual_a), (theta_b, dual_b)):
        rep = vector_rep(n, q, cmath.exp(theta))
        reps.append(dual_rep(rep) if dual else rep)
    return solve_bulk(*reps)


@pytest.mark.parametrize("n", range(1, 7))
def test_crossed_closed_form_matches_every_bulk_flavour(n):
    rng = np.random.default_rng(700 + n)
    for dual_a, dual_b in FLAVOURS:
        q, _ = generic_point(rng)
        theta_a, theta_b = rng.uniform(-0.9, 0.9, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
        sol = _bulk(n, q, theta_a, theta_b, dual_a, dual_b)
        assert sol.dimension == 1
        oracle = crossed_s(n, q, theta_a, theta_b, dual_a, dual_b)
        equal, _, dev = projective_compare(oracle, sol.normalized, 1e-12)
        assert equal, (dual_a, dual_b, dev)


# engine_point's braiding channels: key -> particles; "b" marks a reflection_dual conjugate
ENGINE_CHANNELS = {"s_mn": ("m", "n"), "s_m_nb": ("m", "nb"), "s_n_mb": ("n", "mb"),
                   "s_nb_mb": ("nb", "mb"), "s_ml": ("m", "l"), "s_l_mb": ("l", "mb"),
                   "s_nl": ("n", "l"), "s_l_nb": ("l", "nb")}


@pytest.mark.parametrize("n", range(1, 7))
def test_crossed_closed_form_matches_the_engine_channels(n):
    # a conjugate is the dual of the vector representation at -q/x: rapidity log(-q/x),
    # on either branch of the logarithm
    q, thetas = Q_REF, (0.7, 0.23, -0.41)
    solved = intertwiners.engine_point(n, q, thetas, (0,) * (n + 1))
    assert set(ENGINE_CHANNELS) == {key for key in solved if key.startswith("s_")}
    for branch in (0, 1):
        rapidity = dict(zip("mnl", thetas))
        for key in "mnl":
            rapidity[key + "b"] = cmath.log(-q / cmath.exp(rapidity[key])) + 2j * cmath.pi * branch
        for key, (a, b) in ENGINE_CHANNELS.items():
            assert solved[key].dimension == 1, key
            oracle = crossed_s(n, q, rapidity[a], rapidity[b], a.endswith("b"), b.endswith("b"))
            equal, _, dev = projective_compare(oracle, solved[key].normalized, 1e-12)
            assert equal, (key, branch, dev)


@settings(derandomize=True, database=None, deadline=2000, max_examples=30)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_bulk_braiding_unitarity_in_every_flavour(n, seed):
    # S_ba S_ab is a scalar: braiding back and forth returns every vector to itself
    rng = np.random.default_rng(seed)
    q, _ = generic_point(rng)
    theta_a, theta_b = rng.uniform(-0.9, 0.9, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
    for dual_a, dual_b in FLAVOURS:
        s_ab = _bulk(n, q, theta_a, theta_b, dual_a, dual_b)
        s_ba = _bulk(n, q, theta_b, theta_a, dual_b, dual_a)
        assert s_ab.dimension == s_ba.dimension == 1
        square = s_ba.normalized @ s_ab.normalized
        equal, _, dev = projective_compare(square, np.eye((n + 1) ** 2), 1e-12)
        assert equal, (dual_a, dual_b, dev)


def test_closed_form_s_rejects_bad_input():
    for n, q, theta in ((0, Q_REF, 0.1), (1, 0.0, 0.1), (1, Q_REF, float("nan"))):
        with pytest.raises(ValueError):
            closed_form_s(n, q, theta, 0.2)


def _bulk_key(a, b):
    """The ``_support_key`` of factor stacks a, b: their support and qT rows, as solves read it."""
    return intertwiners._support_key(intertwiners._diagonal_key(a), intertwiners._diagonal_key(b))


def _whole_rows(a, b):
    """The whole bulk system of factor stacks a, b, which solves off the cyclic path assemble."""
    into, onto, plan, _, _ = intertwiners._bulk_plan(pattern_key(a, 4), pattern_key(b, 4),
                                                     _bulk_key(a, b))
    return plan.assemble(into.values(a, b), onto.values(b, a))


def _shifted(gens):
    """C g_i C^T with C the cyclic shift e_r -> e_{r+1 mod N}, each moved to node i + 1."""
    dim = gens.shape[-1]
    c = np.roll(np.eye(dim), 1, axis=0)
    return np.roll(c @ gens @ c.T, 1, axis=1)


def _all_reps(n, q, x):
    rep = vector_rep(n, q, x)
    return {"vector": rep, "dual": dual_rep(rep), "reflection_dual": reflection_dual(rep)}


@pytest.mark.parametrize("n", range(1, 7))
def test_the_generators_are_cyclic_covariant_exactly(n):
    # the Z_N automorphism of the a_n^(1) diagram: C g_i C^T = g_{i+1 mod N} with a
    # difference of exactly 0, the fact the Fourier blocks rest on
    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        q, x = generic_point(rng)
        for name, rep in _all_reps(n, q, x).items():
            assert not (_shifted(rep.gens) - rep.gens).any(), name
            plan = _cyclic_plan_of(rep, rep)
            assert plan is not None and plan.covariant(rep.gens)


def _cyclic_plan_of(a, b):
    return intertwiners._bulk_plan(pattern_key(a.gens, 4), pattern_key(b.gens, 4),
                                   _bulk_key(a.gens, b.gens))[4]


def _whole_system_path(monkeypatch):
    """Hold every bulk solve and scan to the whole system, the blocks' reference.

    No plan holds a ``CyclicPlan``, and ``_bulk_plan`` plans on an empty cache of its own
    while patched, so the shared cache neither serves nor keeps a plan without one.
    """
    monkeypatch.setattr(intertwiners, "_cyclic_plan", lambda *args: None)
    uncached = intertwiners._bulk_plan.__wrapped__
    monkeypatch.setattr(intertwiners, "_bulk_plan", functools.lru_cache(maxsize=None)(uncached))


def _same_bits(one, other):
    ns, other_ns = one.nullspace, other.nullspace
    assert ns.basis.tobytes() == other_ns.basis.tobytes()
    assert (ns.dimension, ns.sigma_max, ns.margin) == (other_ns.dimension, other_ns.sigma_max,
                                                       other_ns.margin)
    assert one.flags == other.flags
    assert np.array_equal(one.residual, other.residual, equal_nan=True)
    assert (one.normalized is None) == (other.normalized is None)
    assert one.normalized is None or one.normalized.tobytes() == other.normalized.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_stack_off_its_shift_by_one_part_in_2_to_40_takes_the_whole_system(n, monkeypatch):
    # value covariance is not structural: one entry scaled by 1 + 2^-40 keeps every pattern.
    # On a charge the plan stays cyclic, and the solve must see the stack differ from its
    # shift; on a q^T entry it gives k = 0 qT equations a coefficient, and the plan is not
    # cyclic.  Either way the solve gives what the whole-system path gives, bit for bit
    rng = np.random.default_rng(60 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    for left, right, side in itertools.product(("vector", "dual"), ("vector", "dual"), (0, 1)):
        pair = [_all_reps(n, q, x)[left], _all_reps(n, q, y)[right]]
        rep = pair[side]
        gens = rep.gens.copy()
        entry = tuple(rng.choice(np.argwhere(gens != 0)))
        gens[entry] *= 1 + 2.0**-40
        assert gens[entry] != rep.gens[entry]
        pair[side] = EvaluationRep(n=n, q=rep.q, x=rep.x, is_dual=rep.is_dual, gens=gens)
        plan = _cyclic_plan_of(*pair)
        if entry[0] < 2:  # a charge: the patterns and masks keep their shift, the values do not
            assert plan is not None and plan.covariant(pair[1 - side].gens)
            assert not plan.covariant(gens)
        else:  # a q^T entry gives k = 0 qT equations off the shift a coefficient: no cyclic plan
            assert plan is None
        with monkeypatch.context() as patch:
            systems = _record_systems(patch)
            solution = solve_bulk(*pair)
            assert [m.ndim for m in systems] == [2]
            _whole_system_path(patch)
            _same_bits(solution, solve_bulk(*pair))


def _both_paths(monkeypatch, solve):
    """``solve()`` through the Fourier blocks, and through the whole system."""
    blocked = solve()
    with monkeypatch.context() as patch:
        _whole_system_path(patch)
        return blocked, solve()


def _assert_same_solution(blocked, whole, case):
    assert blocked.dimension == whole.dimension == 1, case
    assert blocked.flags == whole.flags, case
    assert max(blocked.residual, whole.residual) <= 1e-13, case
    equal, _, dev = projective_compare(whole.normalized, blocked.normalized, 1e-12)
    assert equal, (case, dev)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_fourier_blocks_solve_what_the_whole_system_solves(n, monkeypatch):
    # the four flavours and the eight engine channels, through both paths: equal dimensions
    # and flags, the blocks' merged singular values are the whole system's, and the
    # normalized S agree to roundoff
    rng = np.random.default_rng(80 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    for left, right in itertools.product(("vector", "dual"), repeat=2):
        a, b = _all_reps(n, q, x)[left], _all_reps(n, q, y)[right]
        blocks, _, _, cyclic = intertwiners._bulk_system(a.gens, b.gens)
        assert cyclic is not None
        rows = _whole_rows(a.gens, b.gens)
        whole = np.linalg.svd(rows, compute_uv=False)
        assert blocks.shape == (n + 1, rows.shape[0] // (n + 1), rows.shape[1] // (n + 1))
        merged = merged_singular_values(np.linalg.svd(blocks, compute_uv=False))
        assert np.abs(merged - whole).max() <= 1e-14 * whole[0], (left, right)
        _assert_same_solution(*_both_paths(monkeypatch, lambda: solve_bulk(a, b)), (left, right))
    thetas, eps = (0.7, 0.23, -0.41), (0,) * (n + 1)
    solve = lambda: intertwiners.engine_point(n, Q_REF, thetas, eps)  # noqa: E731
    blocked, whole = _both_paths(monkeypatch, solve)
    for key in ENGINE_CHANNELS:
        _assert_same_solution(blocked[key], whole[key], key)


def _flavoured(n, q, x, y, flavour):
    """V(x) and V(y) at (n, q), each its ``dual_rep`` where bit 0 or bit 1 of ``flavour`` says."""
    pair = vector_rep(n, q, x), vector_rep(n, q, y)
    return tuple(dual_rep(r) if flavour & bit else r for r, bit in zip(pair, (1, 2)))


def _fourier_blocks_by_definition(a, b, cyclic):
    """Node 0's dense Sylvester rows without their roundoff rows, on the orbit columns, through
    ``np.fft.fft`` along the shift, block axis first: the reference of the gathered blocks."""
    node_0 = [0, a.nodes, 2 * a.nodes]
    support = _cached_support(a.gens, b.gens)
    rows = sylvester_rows(coproduct(a, b)[node_0], coproduct(b, a)[node_0], support)
    rows = rows[~_roundoff_rows(rows)][:, (np.cumsum(support) - 1)[cyclic.position]]
    return np.fft.fft(rows.reshape(len(rows), -1, a.nodes)).transpose(2, 0, 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_the_gathered_fourier_blocks_are_the_node_0_rows_transformed(n):
    # four flavours, one point and a stack of three right-hand points: each point's slice of
    # the stack is its own blocks bit for bit, and both are the reference to roundoff
    rng = np.random.default_rng(110 + n)
    q, x = generic_point(rng)
    ys = [generic_point(rng)[1] for _ in range(3)]
    for flavour in range(4):
        a, _ = _flavoured(n, q, x, ys[0], flavour)
        right = reps.vector_stack(n, q, ys)
        right = reps.dual_stack(right) if flavour & 2 else right
        stacked, _, _, cyclic = intertwiners._bulk_system(a.gens, right)
        assert stacked.shape[:2] == (3, n + 1) and stacked.flags.c_contiguous
        for y, gens, blocks in zip(ys, right, stacked):
            alone = intertwiners._bulk_system(a.gens, gens)[0]
            assert alone.tobytes() == blocks.tobytes()
            b = EvaluationRep(n=n, q=q, x=y, is_dual=bool(flavour & 2), gens=gens)
            reference = _fourier_blocks_by_definition(a, b, cyclic)
            assert blocks.shape == reference.shape
            assert abs(blocks - reference).max() <= 1e-14 * abs(reference).max(), flavour


@pytest.mark.parametrize("n", range(1, 9))
def test_qt_rows_are_planned_only_near_a_root_of_unity_and_keep_their_shift(n):
    # at generic q no qT equation on the support has a coefficient above roundoff; at
    # q = -(1 + 1e-8) some do, on a mask the shift maps onto itself, and the solve, with or
    # without equal rapidities, ranks as the dense system that keeps every nonzero qT row
    q = -(1 + 1e-8)
    for flavour in range(4):
        a, b = _flavoured(n, Q_REF, 2.0, 1.3, flavour)
        assert not intertwiners.key_pattern(_bulk_key(a.gens, b.gens)[1]).any()
        for y in (np.exp(0.7), 1.3):
            a, b = _flavoured(n, q, np.exp(0.7), y, flavour)
            assert intertwiners.key_pattern(_bulk_key(a.gens, b.gens)[1]).any()
            assert _cyclic_plan_of(a, b) is not None
            support = _cached_support(a.gens, b.gens)
            dense = intertwiners.nullspace(sylvester_rows(coproduct(a, b), coproduct(b, a), support))
            solution = solve_bulk(a, b)
            case = (flavour, y)
            assert solution.dimension == dense.dimension, case
            near = dense.margin < intertwiners.NEAR_THRESHOLD_MARGIN
            assert ("near-threshold" in solution.flags) == near, case


@pytest.mark.parametrize("n", [1, 3])
def test_roundoff_qt_rows_constrain_nothing(n):
    # factors with their charges zeroed leave only the qT equations, which vanish on the
    # weight support up to roundoff (k = 0), so every unknown is free; ranked as rows, that
    # roundoff fixed 2 of 6 unknowns at n = 1 and 8 or 16 of 28 at n = 3, with margins ~1e9
    gens = vector_rep(n, Q_REF, 2.0).gens.copy()
    gens[:2] = 0.0
    a = EvaluationRep(n=n, q=Q_REF, x=2.0, is_dual=False, gens=gens)
    for b in (a, dual_rep(a)):
        assert solve_bulk(a, b).dimension == _cached_support(a.gens, b.gens).sum()


def test_blocked_solves_and_scans_call_no_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft was called")

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)
    intertwiners._bulk_plan.cache_clear()  # the plans too are built without it
    systems, stacks = _record_systems(monkeypatch), _record_scan_stacks(monkeypatch)
    a, b = vector_rep(4, Q_REF, 2.0), dual_rep(vector_rep(4, Q_REF, 1.3))
    assert solve_bulk(a, b).dimension == 1 and systems[-1].ndim == 3
    assert dimension_scan("bulk", {"n": 4, "q": Q_REF, "x_left": 2.0}, [1.3, 0.7]).dims == [1, 1]
    assert stacks[-1].ndim == 4


@pytest.mark.parametrize("n", [1, 2])
def test_covariant_solves_and_scans_take_the_blocks_from_two_nodes(n, monkeypatch):
    # N = 2 and 3 solve through the Fourier blocks, as every larger N does, in four flavours,
    # at equal rapidities and in the engine channels, and so do their scan chunks; the whole
    # system gives the same dimensions and flags, and the normalized S to 1e-14
    rng = np.random.default_rng(130 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    pairs = [_flavoured(n, q, x, y, flavour) for flavour in range(4)]
    pairs.append((vector_rep(n, q, x), vector_rep(n, q, x)))

    def solve(patch):
        systems, stacks = _record_systems(patch), _record_scan_stacks(patch)
        solved = [solve_bulk(a, b) for a, b in pairs]
        engine = intertwiners.engine_point(n, q, (0.7, 0.23, -0.41), (0,) * (n + 1))
        scan = dimension_scan("bulk", {"n": n, "q": q, "x_left": x}, [y, 2.0, 1.3j])
        solved += [engine[key] for key in ENGINE_CHANNELS]
        return solved, scan, [m.ndim for m in systems], [m.ndim for m in stacks]

    with monkeypatch.context() as patch:
        blocked, blocked_scan, ndims, stack_ndims = solve(patch)
    assert ndims == [3] * 5 + [2, 2] + [3] * 8 and stack_ndims == [4]  # the K channels first
    with monkeypatch.context() as patch:
        _whole_system_path(patch)
        whole, whole_scan, ndims, stack_ndims = solve(patch)
    assert ndims == [2] * 15 and stack_ndims == [3]
    for k, (one, other) in enumerate(zip(blocked, whole)):
        assert one.dimension == other.dimension == 1 and one.flags == other.flags, k
        assert abs(one.normalized - other.normalized).max() <= 1e-14, k
    assert "equal-rapidity" in blocked[4].flags
    assert blocked_scan.dims == whole_scan.dims == [1, 1, 1]
    assert [m < intertwiners.NEAR_THRESHOLD_MARGIN for m in blocked_scan.margins] == \
        [m < intertwiners.NEAR_THRESHOLD_MARGIN for m in whole_scan.margins]


@pytest.mark.parametrize("n", range(1, 5))
def test_factors_whose_coproduct_products_overflow_are_refused_before_any_svd(n, monkeypatch,
                                                                               capfd):
    # finite factors whose products overflow: q = 1e200 at x = 1e200, or q = 2 at x = 1e308.
    # Solves and scans refuse the system as non-finite, and no SVD runs, so LAPACK prints
    # nothing; ranked, the blocks gave dimension 0 with a NaN margin and no flag
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for q, x, y in ((1e200, 1e200, 1.0), (2.0, 1e308, 1.3)):
        with np.errstate(all="ignore"):
            a, b = vector_rep(n, q, x), vector_rep(n, q, y)
            assert np.isfinite(a.gens).all() and np.isfinite(b.gens).all()
            for left, right in ((a, b), (a, dual_rep(b))):
                with pytest.raises(ValueError, match="non-finite"):
                    solve_bulk(left, right)
            with pytest.raises(ValueError, match="non-finite"):
                dimension_scan("bulk", {"n": n, "q": q, "x_left": x}, [y, 2.0])
    assert capfd.readouterr() == ("", "")


def _negative_zeros(m) -> int:
    """How many real or imaginary parts of a complex array are -0.0."""
    parts = np.asarray(m, dtype=np.complex128).view(np.float64)
    return int(np.count_nonzero((parts == 0) & np.signbit(parts)))


@pytest.mark.parametrize("n", range(1, 5))
def test_normalized_solutions_carry_no_negative_zero(n):
    # an exact zero divided by the pivot took the pivot's sign: the n = 3 smatrix document
    # held 228 entries -0.0, every one off the support.  Bulk solves in four flavours, paper
    # and generic K, and the closed-form K through normalize_solution write +0.0 only
    rng = np.random.default_rng(140 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    solved = [solve_bulk(*_flavoured(n, q, x, y, flavour)) for flavour in range(4)]
    solved.append(solve_bulk(*_flavoured(n, 0.8 * np.exp(0.3j), 2.0, 1.3, 0)))
    for eps in ((0.0,) * (n + 1), tuple((-1.0) ** i for i in range(n + 1))):
        solved.append(solve_paper_k(n, 0.8 * np.exp(0.3j), 2.01, eps))
    solved.append(solve_k(n, q, x, [eps_star(q)] * (n + 1), "generic"))
    matrices = [solution.normalized for solution in solved]
    assert all(m is not None for m in matrices)
    for q_k, x_k in ((2.0, 3.0), (0.8 * np.exp(0.3j), 2.0)):
        params = boundary.ClosedFormParams((1.0, -1.0) + (1.0,) * (n - 1))
        matrices.append(normalize_solution(boundary.closed_form_k(n, q_k, x_k, params)))
    assert [_negative_zeros(m) for m in matrices] == [0] * len(matrices)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_each_fourier_block_is_the_whole_system_on_its_modes(n):
    # a vector v in block k comes back as the S that the whole system maps to a vector of
    # norm |B_k v|, and the vectors of all blocks come back orthonormal; solutions only ever
    # live in block 0, so this is what pins down the transform of every other block
    rng = np.random.default_rng(70 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    for left, right in itertools.product(("vector", "dual"), repeat=2):
        a, b = _all_reps(n, q, x)[left], _all_reps(n, q, y)[right]
        support = intertwiners.weight_support(a.gens, b.gens)
        rows = _whole_rows(a.gens, b.gens)
        blocks, _, _, cyclic = intertwiners._bulk_system(a.gens, b.gens)
        count, _, orbits = blocks.shape
        vectors = rng.normal(size=(count, orbits)) + 1j * rng.normal(size=(count, orbits))
        basis = np.zeros((count, count, orbits), dtype=complex)
        basis[np.arange(count), np.arange(count)] = vectors
        unknowns = cyclic.solutions(basis.reshape(count, -1), support.shape)
        assert not unknowns[:, ~support].any()
        gram = unknowns.reshape(count, -1).conj() @ unknowns.reshape(count, -1).T
        assert np.allclose(gram, np.diag(np.linalg.norm(vectors, axis=1) ** 2), atol=1e-12)
        for k in range(count):
            image = np.linalg.norm(rows @ unknowns[k][support])
            assert image == pytest.approx(np.linalg.norm(blocks[k] @ vectors[k]), rel=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_the_near_threshold_bulk_point_stays_flagged_through_the_blocks(n, monkeypatch):
    # q = -(1 + 1e-8) with equal rapidities: the smallest kept singular value lies within a
    # factor 5 of the cut at every n the gate admits
    q = -(1 + 1e-8)
    systems = _record_systems(monkeypatch)
    sol = solve_bulk(vector_rep(n, q, np.exp(0.7)), vector_rep(n, q, np.exp(0.7)))
    assert [m.ndim for m in systems] == [3]
    assert sol.dimension == 1
    assert sol.nullspace.margin < intertwiners.NEAR_THRESHOLD_MARGIN
    assert set(sol.flags) == {"equal-rapidity", "near-threshold"}


@pytest.mark.parametrize("n", range(9, 13))
def test_the_near_threshold_bulk_point_stays_flagged_past_n_8(n):
    # the same point reports dimension 2 from n = 9 on, with margins 1.09-1.42, so its
    # documented dimension 1 holds only up to n = 8; the rank is doubtful, and the flag says so
    q = -(1 + 1e-8)
    sol = solve_bulk(vector_rep(n, q, np.exp(0.7)), vector_rep(n, q, np.exp(0.7)))
    assert sol.nullspace.margin < intertwiners.NEAR_THRESHOLD_MARGIN
    assert set(sol.flags) == {"equal-rapidity", "near-threshold"}


@pytest.mark.parametrize("n", [3, 4])
def test_blocked_bulk_scans_rank_as_their_solves_bit_for_bit(n):
    # scans and solves take the same values-only SVD of the same blocks: equal margins
    rng = np.random.default_rng(90 + n)
    q, x = generic_point(rng)
    grid = list(np.exp(rng.uniform(-1, 1, 40) + 1j * rng.uniform(-2, 2, 40)))
    result = dimension_scan("bulk", {"n": n, "q": q, "x_left": x}, grid)
    for y, dim, margin in zip(grid, result.dims, result.margins):
        solution = solve_bulk(vector_rep(n, q, x), vector_rep(n, q, y))
        assert (dim, margin) == (solution.dimension, solution.nullspace.margin)


def _kept_margin(rows):
    """Smallest singular value counted in the rank, relative to the largest, of a whole
    system or of the block-diagonal system of a stack of blocks."""
    s = np.sort(np.linalg.svd(rows, compute_uv=False), axis=None)[::-1]
    return s[s >= DEFAULT_REL_TOL * s[0]][-1] / s[0]


@pytest.mark.filterwarnings("ignore:q is")
@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("flavour", ["vector", "dual"])
@pytest.mark.parametrize("n", [1, 2])
def test_weight_support_matches_full_support(n, flavour, k, monkeypatch):
    # near low roots of unity, where weights that differ coincide as q-numbers
    systems = _record_systems(monkeypatch)
    for delta in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
        q = cmath.exp(2j * cmath.pi / k) * (1 + delta)
        for theta_b in (0.23, 0.7):
            a = vector_rep(n, q, np.exp(0.7))
            b = vector_rep(n, q, np.exp(theta_b))
            b = dual_rep(b) if flavour == "dual" else b
            masked = solve_bulk(a, b)
            dense = _solve_stacked(coproduct(a, b), coproduct(b, a), DEFAULT_REL_TOL)
            case = (delta, theta_b)
            assert masked.dimension == dense.dimension, case
            if dense.dimension == 1:
                _, _, dev = projective_compare(masked.normalized, dense.normalized, 1)
                if dev > 1e-12:
                    # first-order perturbation bound: ~50 ulp over the relative gap
                    # that separates the null vector from the next singular vector
                    margin = min(_kept_margin(rows) for rows in systems[-2:])
                    assert dev <= 1e-14 / margin, (case, dev, margin)


def _tall_systems():
    """Every bulk system, four flavours, and every generic-K system at n = 1..6."""
    for n in range(1, 7):
        for flavour in range(4):
            a, b = vector_rep(n, Q_REF, np.exp(0.7)), vector_rep(n, Q_REF, np.exp(0.23))
            a, b = (dual_rep(r) if flavour & bit else r for r, bit in ((a, 1), (b, 2)))
            yield _whole_rows(a.gens, b.gens)
        rep = vector_rep(n, Q_REF, 2.0)
        m_in, m_out = (coideal_generators(r, [eps_star(Q_REF)] * (n + 1))
                       for r in (rep, reflection_dual(rep)))
        yield sylvester_rows(m_in, m_out, np.ones((n + 1, n + 1), dtype=bool))


def test_nullspace_of_the_tall_systems_matches_the_direct_svd():
    # nullspace reads s and V^H off R of a QR factorization from 16 columns on; a direct
    # thin SVD of the whole system gives the same rank, sigma_max, margin and nullspace
    qr_first = 0
    for rows in _tall_systems():
        qr_first += 9 * rows.shape[0] >= 17 * rows.shape[1] and rows.shape[1] >= 16
        ns = intertwiners.nullspace(rows)
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        rank, sigma_max, margin = _decide(s.tolist(), DEFAULT_REL_TOL)
        assert ns.dimension == rows.shape[1] - rank
        assert ns.sigma_max == pytest.approx(sigma_max, rel=1e-14)
        assert ns.margin == pytest.approx(margin, rel=1e-14)
        basis = vh[rank:].conj()
        projector = basis.T @ basis.conj()
        assert np.linalg.norm(ns.basis.T @ ns.basis.conj() - projector) < 1e-12
    assert qr_first == 20  # bulk (four flavours) and generic K, each at n = 3..6


def _weight_support_at_once(a, b):
    """The weight support over every node in one (nodes, D, D) pass: the mask's reference."""
    d_a, d_b = (np.diagonal(g[2], axis1=1, axis2=2) for g in (a, b))
    d_in = (d_a[:, :, None] * d_b[:, None, :]).reshape(len(d_a), -1)[:, None, :]
    d_out = (d_b[:, :, None] * d_a[:, None, :]).reshape(len(d_a), -1)[:, :, None]
    return (abs(d_out - d_in) <= 1e-4 * abs(d_in)).all(axis=0)


def _cached_support(a, b):
    """The mask that ``solve_bulk`` reads from the cache for factor stacks a, b."""
    return intertwiners.key_pattern(_bulk_key(a, b)[0])


def _assert_one_mask(a, b):
    """The rule, its one-pass reference and the mask cached for the pair agree, every byte."""
    expected = _weight_support_at_once(a, b).tobytes()
    assert intertwiners.weight_support(a, b).tobytes() == expected
    assert _cached_support(a, b).tobytes() == expected


@pytest.mark.filterwarnings("ignore:q is")
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weight_support_node_by_node_is_the_one_pass_mask(n):
    # near low roots of unity, where the relative cut decides, in all four flavours, and on
    # random diagonals; the mask solve_bulk reads from the cache is the rule's
    rng = np.random.default_rng(n)
    for k, delta in itertools.product((2, 3, 6), (0.0, 1e-6, 5e-5, 2e-4)):
        q = cmath.exp(2j * cmath.pi / k) * (1 + delta)
        a, b = vector_rep(n, q, 2.0), vector_rep(n, q, 1.3)
        for left, right in itertools.product((a, dual_rep(a)), (b, dual_rep(b))):
            _assert_one_mask(left.gens, right.gens)
    gens = np.zeros((2, 3, n + 1, n + 1, n + 1), dtype=complex)
    diagonal = np.arange(n + 1)
    gens[:, 2, :, diagonal, diagonal] = rng.choice([1, 1 + 1e-4, 1j, -1, 0.5], size=(n + 1, 2, n + 1))
    # 10001 against 1e4 is |d_out - d_in| = 1e-4 |d_in| = 1 exactly: an entry on the cut
    gens[0, 2, 0, :2, :2] = np.diag([1e4, 10001])
    gens[1, 2, 0, 0, 0] = 1.0
    _assert_one_mask(gens[0], gens[1])


def test_the_weight_support_is_looked_up_once_per_pair_of_diagonals():
    # other x and other flavours' second solves at one q miss nothing, and a factor whose
    # q^T diagonal moves by one ulp gets an entry of its own, holding the rule's mask
    q = 0.71 * np.exp(0.4j)

    def solve_every_flavour(x, y):
        a, b = vector_rep(3, q, x), vector_rep(3, q, y)
        for pair in itertools.product((a, dual_rep(a)), (b, dual_rep(b))):
            solve_bulk(*pair)
        return a, dual_rep(b)

    a, b = solve_every_flavour(2.0, 1.3)
    misses = intertwiners._support_key.cache_info().misses
    solve_every_flavour(0.5j, -3.0)
    dimension_scan("bulk", {"n": 3, "q": q, "x_left": 2.0}, [1.3, 0.7, 5.0])
    assert intertwiners._support_key.cache_info().misses == misses
    gens = a.gens.copy()
    gens[2, 1, 2, 2] = np.nextafter(gens[2, 1, 2, 2].real, 2.0) + 1j * gens[2, 1, 2, 2].imag
    moved = EvaluationRep(n=3, q=q, x=a.x, is_dual=False, gens=gens)
    solve_bulk(moved, b)
    assert intertwiners._support_key.cache_info().misses == misses + 1
    assert _cached_support(gens, b.gens).tobytes() == \
        intertwiners.weight_support(gens, b.gens).tobytes()


def test_the_cached_weight_support_is_read_only():
    a, b = vector_rep(2, Q_REF, 2.0), vector_rep(2, Q_REF, 1.3)
    key, rows = _bulk_key(a.gens, b.gens)
    support = intertwiners.key_pattern(key)
    for mask in (support, intertwiners.key_pattern(rows)):
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[...] = True
    a.gens[2] *= 2.0  # the cached key holds bytes, never a view of a factor
    assert intertwiners.key_pattern(key).tobytes() == support.tobytes()
    assert key == pattern_key(intertwiners.weight_support(vector_rep(2, Q_REF, 2.0).gens, b.gens), 2)


@pytest.mark.parametrize("n, q", [(8, Q_REF), (3, -(1 + 1e-8))])
def test_the_bulk_plan_leaves_out_exactly_the_roundoff_rows(n, q):
    # the dense Sylvester rows of the coproduct stacks drop only exact zeros, and keep the
    # qT rows that hold roundoff (k = 0); the planned whole system is those rows without
    # them, bit for bit, and no planned row is zero.  Near q = -1 the k != 0 qT rows stay
    for flavour in range(4):
        a, b = vector_rep(n, q, 2.0), vector_rep(n, q, 1.3)
        a, b = (dual_rep(r) if flavour & bit else r for r, bit in ((a, 1), (b, 2)))
        rows = _whole_rows(a.gens, b.gens)
        dense = sylvester_rows(coproduct(a, b), coproduct(b, a), _cached_support(a.gens, b.gens))
        roundoff = _roundoff_rows(dense)
        assert roundoff.any() == (q == Q_REF) and rows.any(axis=1).all()
        assert rows.tobytes() == dense[~roundoff].tobytes(), flavour
        kept = intertwiners.key_pattern(_bulk_key(a.gens, b.gens)[1])
        assert kept.any() == (q != Q_REF)


def _roundoff_rows(rows):
    """The rows of a bulk system that hold only roundoff against its largest entry."""
    return abs(rows).max(axis=1) <= 1e-13 * abs(rows).max()


def _kronecker_rows(m_in, m_out, support):
    """vec(X m_in - m_out X) = (1 kron m_in^T - m_out kron 1) vec(X), row-major, on support."""
    dense = np.kron(np.eye(len(m_out)), m_in.T) - np.kron(m_out, np.eye(len(m_in)))
    dense = dense[:, support.ravel()]
    return dense[dense.any(axis=1)]


def test_sylvester_rows_match_the_kronecker_form(rng):
    m_in = rng.normal(size=(3, 3)) * (rng.random((3, 3)) < 0.5)
    m_out = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m_out[0, 1] = 0.0
    # a stack of pairs: the one above, a dense one, the identity pair (X - X = 0, so all
    # its rows cancel) and a sparse one
    stack_in = np.array([m_in, rng.normal(size=(3, 3)), np.eye(3), np.diag([0.0, 2.0, 0.0])])
    stack_out = np.array([m_out, rng.normal(size=(2, 2)) * 1j, np.eye(2), np.eye(2)])
    for support in (np.ones((2, 3), dtype=bool), np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)):
        expected = _kronecker_rows(m_in, m_out, support)
        assert np.array_equal(sylvester_rows(m_in[None], m_out[None], support), expected)
        blocks = [_kronecker_rows(*pair, support) for pair in zip(stack_in, stack_out)]
        assert np.array_equal(sylvester_rows(stack_in, stack_out, support), np.vstack(blocks))
        assert blocks[2].shape == (0, support.sum())


def _nonzero_rows(m_in, m_out, support):
    """Sylvester rows derived from the stacks' nonzeros at every call: the oracle of the plans."""
    lead = m_in.shape[:-3]
    m_in, m_out = (m.reshape(-1, *m.shape[-3:]) for m in (m_in, m_out))
    rows_x, cols_x = support.shape
    column = np.cumsum(support).reshape(support.shape) - 1
    p, g, i, c = np.nonzero(m_in)
    o, e = np.nonzero(support[:, i])
    terms_in = (p[e], (g[e] * rows_x + o) * cols_x + c[e], column[o, i[e]], m_in[p, g, i, c][e])
    p, g, r, o = np.nonzero(m_out)
    e, i = np.nonzero(support[o, :])
    terms_out = (p[e], (g[e] * rows_x + r[e]) * cols_x + i, column[o[e], i], -m_out[p, g, r, o][e])
    touched = np.zeros(m_in.shape[1] * rows_x * cols_x, dtype=bool)
    touched[terms_in[1]] = touched[terms_out[1]] = True
    row = np.cumsum(touched) - 1
    system = np.zeros((len(m_in), row[-1] + 1, np.count_nonzero(support)), dtype=np.complex128)
    for part, equation, unknown, value in (terms_in, terms_out):
        system[part, row[equation], unknown] += value
    nonzero = system.any(axis=(0, 2))
    return (system if nonzero.all() else system[:, nonzero]).reshape(*lead, -1, system.shape[2])


def _sparse_stack(rng, shape, density):
    """Random complex entries on a random pattern; some kept entries are signed zeros."""
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    values[rng.random(shape) < 0.1] = -0.0
    return np.where(rng.random(shape) < density, values, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_planned_rows_match_the_nonzero_oracle_bit_for_bit(seed):
    # random supports, and sparse stacks whose points differ in pattern, against the
    # per-call np.nonzero derivation; run twice so the second call reads a cached plan
    rng = np.random.default_rng(700 + seed)
    gens, d_in, d_out = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 6)
    support = rng.random((d_out, d_in)) < rng.uniform(0.3, 1.0)
    support[rng.integers(d_out), rng.integers(d_in)] = True  # at least one unknown
    for lead in ((), (1,), (3,)):
        density = rng.uniform(0.1, 0.9)
        m_in = _sparse_stack(rng, (*lead, gens, d_in, d_in), density)
        m_out = _sparse_stack(rng, (*lead, gens, d_out, d_out), density)
        if seed % 2:
            m_in = m_in.real  # real stacks assemble into complex rows as well
        expected = _nonzero_rows(m_in, m_out, support)
        for _ in range(2):
            rows = sylvester_rows(m_in, m_out, support)
            assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()


def _kron_coproduct(a, b):
    """The coproduct stack as Kronecker products, one generator at a time."""
    eye = np.eye(b.dim)
    blocks = [np.kron(a.D[i], b.gens[k, i]) + (np.kron(a.gens[k, i], eye) if k < 2 else 0)
              for k in range(3) for i in range(a.nodes)]
    return np.array(blocks)


def _isclose_support(m_in, m_out, nodes):
    d_in, d_out = (np.diagonal(m[-nodes:], axis1=1, axis2=2) for m in (m_in, m_out))
    return np.isclose(d_out[:, :, None], d_in[:, None, :], rtol=1e-4, atol=0.0).all(axis=0)


def test_another_nonzero_pattern_gets_its_own_plan(monkeypatch):
    # a factor with one entry zeroed is a new pattern, hence one new plan, and its rows
    # are the oracle's; other values on a cached pattern build nothing
    a, b = vector_rep(2, Q_REF, np.exp(0.7)), dual_rep(vector_rep(2, Q_REF, np.exp(0.23)))
    solve_bulk(a, b)
    misses = intertwiners._bulk_plan.cache_info().misses
    solve_bulk(vector_rep(2, 0.7 * Q_REF, np.exp(0.1j)), dual_rep(vector_rep(2, 0.7 * Q_REF, 3.0)))
    assert intertwiners._bulk_plan.cache_info().misses == misses
    gens = a.gens.copy()
    gens[1, 2, 2, 0] = 0.0  # Qbar_2's one entry
    zeroed = EvaluationRep(n=2, q=a.q, x=a.x, is_dual=False, gens=gens)
    systems = _record_systems(monkeypatch)
    solution = solve_bulk(zeroed, b)
    assert intertwiners._bulk_plan.cache_info().misses == misses + 1
    m_in, m_out = _kron_coproduct(zeroed, b), _kron_coproduct(b, zeroed)
    support = _isclose_support(m_in, m_out, zeroed.nodes)
    expected = _nonzero_rows(m_in, m_out, support)
    assert systems[-1].tobytes() == expected[~_roundoff_rows(expected)].tobytes()
    assert solution.dimension == intertwiners.nullspace(expected).dimension
    assert solution.dimension != solve_bulk(a, b).dimension  # the algebra is broken


def _row_plan_arrays(rows):
    return [rows.row, rows.col, rows.source_in, rows.target_in, rows.source_out, rows.target_out]


def _plan_arrays(plan):
    into, onto, rows, defect, cyclic = plan
    return [into.position, *into.product, *into.plain, onto.position, *onto.product, *onto.plain,
            *_row_plan_arrays(rows), defect.generator_in, defect.generator_out, defect.value,
            defect.entry, defect.start, defect.generator, cyclic.shift, cyclic.position,
            cyclic.source_in, cyclic.source_out, cyclic.spread, cyclic.phase, cyclic.start,
            cyclic.target, cyclic.dft]


def test_cached_plans_are_read_only_and_outlive_writes_to_the_factors():
    a, b = vector_rep(3, Q_REF, np.exp(0.7)), vector_rep(3, Q_REF, np.exp(0.23))
    key = pattern_key(a.gens, 4), pattern_key(b.gens, 4), _bulk_key(a.gens, b.gens)
    before = solve_bulk(a, b)
    plan = intertwiners._bulk_plan(*key)
    saved = [arr.copy() for arr in _plan_arrays(plan)]
    a.gens[:2] *= 3.0
    a.gens[0, 1] = 0.0
    solve_bulk(a, b)
    assert intertwiners._bulk_plan(*key) is plan
    for arr, copy in zip(_plan_arrays(plan), saved):
        assert np.array_equal(arr, copy)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    # the solve at the original values reads the same plan and gives the same bytes
    again = solve_bulk(vector_rep(3, Q_REF, np.exp(0.7)), b)
    assert again.normalized.tobytes() == before.normalized.tobytes()
    m = coideal_generators(b, (1, 2, 3, 4))
    sylvester_rows(m, m, np.ones((4, 4), dtype=bool))
    stack = intertwiners._stack_plan(pattern_key(m, 3), pattern_key(m, 3),
                                     pattern_key(np.ones((4, 4), dtype=bool), 2))
    defect = intertwiners._stack_defect_plan(m.shape, m.shape)
    assert not any(arr.flags.writeable for arr in (
        *_row_plan_arrays(stack), defect.generator_in, defect.generator_out, defect.value,
        defect.entry, defect.start, defect.generator))


def test_plan_caches_are_bounded_by_one_module_constant():
    # the package's only caches are the structural plans, the checks' leg steps keyed on nonzero
    # patterns, and the weight support keyed on the q^T diagonals, under the one bound
    modules = [importlib.import_module(f"qreflect.{m.name}")
               for m in pkgutil.iter_modules(qreflect.__path__)]
    caches = {f for m in modules for f in vars(m).values() if hasattr(f, "cache_info")}
    assert caches == {intertwiners._bulk_plan, intertwiners._stack_plan,
                      intertwiners._stack_defect_plan, intertwiners._reflection_plan,
                      intertwiners._support_key, boundary._paper_plan, reps._vector_plan,
                      checks._leg_plan}
    for cache in caches:
        assert cache.cache_info().maxsize == intertwiners.PLAN_CACHE_SIZE


def test_stacked_systems_share_the_rows_any_of_them_needs(rng):
    # the first system cancels to zero; the stack keeps every row the second one needs
    gens = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    eye = np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3))
    full = np.ones((3, 3), dtype=bool)
    both = sylvester_rows(np.array([eye, gens]), np.array([eye, gens[::-1]]), full)
    alone = sylvester_rows(gens, gens[::-1], full)
    assert both.shape == (2, *alone.shape)
    assert not both[0].any() and np.array_equal(both[1], alone)


def test_all_zero_rows_give_the_degenerate_full_space():
    eye = np.eye(2)[None]
    assert sylvester_rows(eye, eye, np.ones((2, 2), dtype=bool)).shape == (0, 4)
    sol = _solve_stacked(eye, eye, 1e-9)  # X - X = 0: every row drops
    assert sol.dimension == 4
    assert sol.nullspace.sigma_max == 0
    assert sol.nullspace.basis.shape == (4, 2, 2)


def test_near_threshold_rank_decisions_are_flagged():
    # paper K: sigma_min / sigma_max = 5.6e-10 sits just under the 1e-9 cut; the generic
    # method at the same point reports another dimension, and both are flagged
    q, eps = 0.8 * np.exp(0.3j), (1 + 1e-8, 1, -1)
    paper = solve_paper_k(2, q, 2.0, eps)
    generic = solve_k(2, q, 2.0, tuple(eps_star(q) * e for e in eps), "generic")
    assert (paper.dimension, generic.dimension) == (1, 0)
    for sol in (paper, generic):
        assert sol.nullspace.margin < 1e3
        assert "near-threshold" in sol.flags
    # bulk S near q = -1 with equal rapidities: the smallest kept value is 3.5e-9 sigma_max
    q = -(1 + 1e-8)
    sol = solve_bulk(vector_rep(2, q, np.exp(0.7)), vector_rep(2, q, np.exp(0.7)))
    assert sol.dimension == 1
    assert sol.nullspace.margin < 1e3
    assert set(sol.flags) == {"equal-rapidity", "near-threshold"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generic_points_are_far_from_the_rank_cut(n):
    rng = np.random.default_rng(500 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    a = vector_rep(n, q, x)
    signs = tuple(rng.choice([1.0, -1.0], size=n + 1))
    solutions = [solve_bulk(a, vector_rep(n, q, y)), solve_bulk(a, dual_rep(vector_rep(n, q, y))),
                 solve_paper_k(n, q, x, signs), solve_paper_k(n, q, x, (0,) * (n + 1)),
                 solve_k(n, q, x, tuple(eps_star(q) * e for e in signs), "generic")]
    for sol in solutions:
        assert sol.nullspace.margin >= 1e5
        assert "near-threshold" not in sol.flags
