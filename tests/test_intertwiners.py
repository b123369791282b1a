import numpy as np
import pytest

from conftest import generic_point
from qreflect.intertwiners import (
    _solve_stacked,
    dimension_scan,
    intertwining_residual,
    reflection_dual,
    solve_boundary,
    solve_bulk,
    solve_equivalence,
)
from qreflect.linalg import projective_compare
from qreflect.reps import coideal_generators, dual_rep, vector_rep

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
    pairs = list(zip(coideal_generators(rep, eps), coideal_generators(dual, eps)))
    fwd = _solve_stacked(pairs, (3, 3), 1e-9)
    rev = _solve_stacked(pairs[::-1], (3, 3), 1e-9)
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


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        dimension_scan("bulk", {"n": 1, "q": Q_REF, "x_left": 1.0}, [])
    with pytest.raises(ValueError):
        dimension_scan("orbit", {"n": 1, "q": Q_REF}, [1.0])


def test_intertwining_residual_propagates_nan():
    eye = np.eye(2)
    assert np.isnan(intertwining_residual(eye, [(eye, np.full((2, 2), np.nan))]))
    assert np.isnan(intertwining_residual(eye, [(eye, eye), (eye, np.full((2, 2), np.nan))]))
