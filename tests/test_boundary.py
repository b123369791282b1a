import itertools

import numpy as np
import pytest

from conftest import eps_star, generic_point
from qreflect.boundary import (
    ClosedFormParams,
    closed_form_k,
    k_scan_rows,
    paper_boundary_system,
    reconcile_gauge,
    solve_k,
    solve_paper_k,
)
from qreflect.intertwiners import dimension_scan, reflection_coefficients, reflection_dual
from qreflect.intertwiners import reflection_rows, solve_boundary, solve_reflection
from qreflect.intertwiners import sylvester_rows
from qreflect.linalg import projective_compare
from qreflect.reps import coideal_generators, coideal_stack, dual_rep, dual_stack, vector_rep
from qreflect.reps import vector_stack

Q_REF = 0.8 * np.exp(0.3j)
X_REF = np.exp(0.7)


def test_system_row_counts():
    assert paper_boundary_system(1, 2.0, 3.0, (1, 1)).shape == (4, 4)
    assert paper_boundary_system(2, Q_REF, X_REF, (1, 1, 1)).shape == (12, 9)
    assert paper_boundary_system(3, Q_REF, X_REF, (1,) * 4).shape == (24, 16)


def test_system_family_one_row():
    rows = paper_boundary_system(1, 2.0, 3.0, (1.0, 1.0))
    # unknown order (K00, K01, K10, K11)
    assert np.allclose(rows[0], [0.5 - 2.0, 3.0, -1 / 3, 0.0])


def test_system_family_two_rows():
    rows = paper_boundary_system(1, 2.0, 3.0, (1.0, 1.0))
    assert np.allclose(rows[2], [-1, 0, 0, 1])
    assert np.allclose(rows[3], [1, 0, 0, -1])


def _family_rows_by_loop(n, q, x, eps):
    """The four families written out row by row, as the module docstring reads them."""
    dim = n + 1
    rows = []

    def add_row(*coeffs):
        row = np.zeros(dim * dim, dtype=np.complex128)
        for (a, b), value in coeffs:
            row[(a % dim) * dim + b % dim] += value
        rows.append(row)

    for i in range(dim):
        add_row(((i, i), eps[i] * (1.0 / q - q)), ((i, i + 1), x), ((i + 1, i), -1.0 / x))
    for i in range(dim):
        add_row(((i + 1, i + 1), 1.0), ((i, i), -1.0))
    pairs = [(i, j) for i in range(dim) for j in range(dim) if j not in (i, (i + 1) % dim)]
    for i, j in pairs:
        add_row(((i, j), eps[i] * q), ((i + 1, j), 1.0 / x))
    for i, j in pairs:
        add_row(((j, i), eps[i] / q), ((j, i + 1), x))
    return np.array(rows)


def test_paper_rows_are_the_family_loop_bit_for_bit():
    # signed zeros, units, real and complex values: every coefficient is computed and placed
    # as the families are written, one point at a time or as one stack
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5):
        q = complex(rng.uniform(0.3, 2), rng.choice([0.0, -0.0, rng.normal()]))
        xs = [complex(rng.choice([-1, 1]) * rng.uniform(0.3, 3), rng.choice([0.0, -0.0, rng.normal()]))
              for _ in range(6)]
        eps = [tuple(complex(rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, rng.normal()]),
                             rng.choice([0.0, -0.0, rng.normal()])) for _ in range(n + 1))
               for _ in range(6)]
        by_x = [k_scan_rows(n, q, {"x": x, "method": "paper"}, eps)(slice(None)) for x in xs]
        by_eps = [k_scan_rows(n, q, {"eps": e, "method": "paper"}, xs)(slice(None)) for e in eps]
        for (i, x), (k, e) in itertools.product(enumerate(xs), enumerate(eps)):
            reference = _family_rows_by_loop(n, q, x, e).tobytes()
            assert paper_boundary_system(n, q, x, e).tobytes() == reference
            assert by_x[i][k].tobytes() == by_eps[k][i].tobytes() == reference


def test_generic_scan_rows_build_one_representation_per_eps_axis(monkeypatch):
    # an eps axis has one x and builds its coefficients once, at every eps of the grid, over
    # every slice; a theta axis builds a slice's coefficients in one call, equal x or not
    from qreflect import boundary

    built = []

    def counted(n, q, xs, eps):
        built.append((list(xs), eps.shape[0]))
        return reflection_coefficients(n, q, xs, eps)

    monkeypatch.setattr(boundary, "reflection_coefficients", counted)
    q, x, eps = complex(Q_REF), complex(X_REF), (1 + 0j, -1 + 0j, 1 + 0j)
    rows = k_scan_rows(2, q, {"x": x, "method": "generic"}, [eps] * 5)
    assert [rows(slice(k, k + 2)).shape[0] for k in (0, 2, 4)] == [2, 2, 1]
    assert built == [([x], 5)]
    built.clear()
    xs = [x, x, 2 + 0j, x]
    rows = k_scan_rows(2, q, {"eps": eps, "method": "generic"}, xs)
    assert rows(slice(None)).shape[0] == len(xs)
    assert [rows(slice(k, k + 2)).shape[0] for k in (0, 2)] == [2, 2]
    assert built == [(xs, 1), (xs[:2], 1), (xs[2:], 1)]


def _vector_gens_by_loop(n, q, x):
    """``vector_rep``'s generators entry by entry, as its docstring reads them.

    Every Q and Qbar entry, zero or one, is multiplied by x or by 1/x in
    Python complex arithmetic, so zeros take the signs of x.
    """
    dim = n + 1
    gens = np.zeros((3, dim, dim, dim), dtype=np.complex128)
    for i, r, c in itertools.product(range(dim), repeat=3):
        up = (i + 1) % dim
        gens[0, i, r, c] = complex(float((r, c) == (up, i))) * x
        gens[1, i, r, c] = complex(float((r, c) == (i, up))) * (1.0 / x)
        if r == c:
            gens[2, i, r, c] = 1.0 / q if r == i else q if r == up else 1.0
    return gens


@pytest.mark.parametrize("count", [1, 7, 33])
@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_builders_are_the_one_point_builders_bit_for_bit(n, count):
    # every entry, signed zeros included, at real and complex x: the vector stack, its dual,
    # the stack of conjugates at every -q/x, and coideal stacks of both with one eps per
    # point or one eps for all, with zero entries among the eps
    rng = np.random.default_rng(1000 + 40 * n + count)
    q = generic_point(rng)[0]
    xs = [complex(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0),
                  rng.choice([0.0, -0.0, rng.normal()])) for _ in range(count)]
    eps = [tuple(complex(rng.choice([0.0, -0.0, 1.0, -1.0, rng.normal()]),
                         rng.choice([0.0, -0.0, rng.normal()])) for _ in range(n + 1))
           for _ in range(count)]
    stack = vector_stack(n, q, xs)
    duals = dual_stack(stack)
    pairs = np.array([stack, dual_stack(vector_stack(n, q, [-complex(q) / x for x in xs]))])
    by_point = coideal_stack(pairs, np.array(eps))
    by_stack = coideal_stack(pairs, np.array(eps[0]))
    assert stack.shape == duals.shape == (count, 3, n + 1, n + 1, n + 1)
    assert by_point.shape == by_stack.shape == (2, count, n + 1, n + 1, n + 1)
    for p, x in enumerate(xs):
        rep = vector_rep(n, q, x)
        conjugate = reflection_dual(rep)
        assert stack[p].tobytes() == rep.gens.tobytes()
        assert rep.gens.tobytes() == _vector_gens_by_loop(n, complex(q), x).tobytes()
        assert duals[p].tobytes() == dual_rep(rep).gens.tobytes()
        assert pairs[1, p].tobytes() == conjugate.gens.tobytes()
        # the engine's conjugate: the antipode dual of the vector representation at -q/x
        at_reflection = dual_rep(vector_rep(n, q, -complex(q) / x))
        assert conjugate.gens.tobytes() == at_reflection.gens.tobytes()
        assert (conjugate.n, conjugate.q, conjugate.x, conjugate.is_dual) == (
            at_reflection.n, at_reflection.q, at_reflection.x, True)
        for side, r in enumerate((rep, conjugate)):
            assert by_point[side, p].tobytes() == coideal_generators(r, eps[p]).tobytes()
            assert by_stack[side, p].tobytes() == coideal_generators(r, eps[0]).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_reflection_dual_is_the_conjugate_half_of_reflection_pairs_bit_for_bit(n):
    # reflection_dual builds only the conjugate: the dual half of one stacked build of V at x
    # and at -q/x, every entry, signed zeros included, at real and complex x
    rng = np.random.default_rng(2000 + n)
    q = complex(generic_point(rng)[0])
    for x in (complex(rng.uniform(0.3, 3.0)), complex(-rng.uniform(0.3, 3.0), 0.0),
              complex(-rng.uniform(0.3, 3.0), -0.0), complex(rng.normal(), rng.normal())):
        rep = vector_rep(n, q, x)
        conjugate = reflection_dual(rep)
        pair = vector_stack(n, q, [x, -q / x])
        assert rep.gens.tobytes() == pair[0].tobytes()
        assert conjugate.gens.tobytes() == dual_stack(pair)[1].tobytes()
        assert (conjugate.n, conjugate.q, conjugate.x, conjugate.is_dual) == (n, q, -q / x, True)


def _sylvester_reference(n, q, x, eps):
    """The generic K system of one point as ``solve_boundary`` builds it, on every entry of K."""
    rep = vector_rep(n, q, x)
    m_in, m_out = (coideal_generators(r, eps) for r in (rep, reflection_dual(rep)))
    return sylvester_rows(m_in, m_out, np.ones((n + 1, n + 1), dtype=bool))


def _without_zero_rows(rows):
    return rows[rows.any(axis=1)]


@pytest.mark.parametrize("count", [1, 7, 33])
@pytest.mark.parametrize("n", range(1, 9))
def test_reflection_rows_are_the_sylvester_rows_of_the_coideal_stacks_bit_for_bit(n, count):
    # each point's slice of a chunk, without its all-zero rows, is the Sylvester system of
    # its two coideal stacks, every byte: x real, negative with +-0 imaginary part, and
    # complex; eps with 0, -0, +-1 and random complex entries, one per point or one for all
    rng = np.random.default_rng(3000 + 40 * n + count)
    q = complex(generic_point(rng)[0])
    xs = [complex(rng.uniform(0.3, 3.0)) if k % 3 == 0 else
          complex(-rng.uniform(0.3, 3.0), rng.choice([0.0, -0.0])) if k % 3 == 1 else
          complex(rng.normal(), rng.normal()) for k in range(count)]
    eps = [tuple(complex(rng.choice([0.0, -0.0, 1.0, -1.0, rng.normal()]),
                         rng.choice([0.0, -0.0, rng.normal()])) for _ in range(n + 1))
           for _ in range(count)]
    eps[0] = (0j,) * (n + 1)
    by_point = reflection_rows(n, reflection_coefficients(n, q, xs, np.array(eps)))
    by_x = reflection_rows(n, reflection_coefficients(n, q, xs, np.array(eps[-1:])))
    by_eps = reflection_rows(n, reflection_coefficients(n, q, xs[-1:], np.array(eps)))
    assert len(by_point) == len(by_x) == len(by_eps) == count
    assert by_point.shape[-1] == (n + 1) ** 2
    for p, (x, e) in enumerate(zip(xs, eps)):
        for rows, point in ((by_point, (x, e)), (by_x, (x, eps[-1])), (by_eps, (xs[-1], e))):
            expected = _sylvester_reference(n, q, *point)
            assert _without_zero_rows(rows[p]).tobytes() == expected.tobytes()
    # a one-point solve ranks those rows, and scores its residual on the coideal stacks
    rep = vector_rep(n, q, xs[-1])
    for e in (eps[-1], eps[0]):
        ours, theirs = (solve(rep, reflection_dual(rep), e)
                        for solve in (solve_reflection, solve_boundary))
        assert ours.dimension == theirs.dimension
        assert ours.nullspace.basis.tobytes() == theirs.nullspace.basis.tobytes()
        assert (ours.nullspace.sigma_max, ours.nullspace.margin, ours.flags) == (
            theirs.nullspace.sigma_max, theirs.nullspace.margin, theirs.flags)
        assert np.array_equal(ours.residual, theirs.residual, equal_nan=True)
        if ours.normalized is not None:
            assert ours.normalized.tobytes() == theirs.normalized.tobytes()


def test_the_reflection_plan_is_cached_per_n_and_read_only():
    from qreflect import intertwiners

    coefficients = reflection_coefficients(3, complex(Q_REF), [complex(X_REF)], np.ones((1, 4)))
    reflection_rows(3, coefficients)
    plan = intertwiners._reflection_plan(3)
    reflection_rows(3, 2 * coefficients)
    assert intertwiners._reflection_plan(3) is plan
    for arr in (plan.row, plan.col, plan.source_in, plan.target_in, plan.source_out,
                plan.target_out):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


@pytest.mark.parametrize("x", [0.0, float("nan"), float("inf"), 1e-320],
                         ids=["zero", "nan", "inf", "overflowing-reflection"])
def test_generic_boundary_paths_reject_a_bad_point_with_check_points_error(x):
    # a generic scan validates each x once, and its coefficients only each -q/x; x = 1e-320
    # is finite and nonzero, but its reciprocal and its -q/x overflow
    eps = (1 + 0j, 1 + 0j)
    with np.errstate(all="ignore"):
        for solve in (lambda: dimension_scan("boundary", {"n": 1, "q": Q_REF, "eps": eps,
                                                           "method": "generic"}, [1.5, x]),
                      lambda: dimension_scan("boundary", {"n": 1, "q": Q_REF, "x": x,
                                                           "method": "generic"}, [eps]),
                      lambda: solve_k(1, Q_REF, x, eps, "generic")):
            with pytest.raises(ValueError, match="^q and x must be finite and nonzero$"):
                solve()


def test_the_paper_plan_is_cached_per_n_and_read_only():
    from qreflect import boundary

    paper_boundary_system(3, Q_REF, X_REF, (1, 1, 1, 1))
    plan = boundary._paper_plan(3)
    paper_boundary_system(3, 2 * Q_REF, 2 * X_REF, (1, -1, 2, 0))
    assert boundary._paper_plan(3) is plan
    for arr in plan:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_solve_anchor_plus_plus():
    sol = solve_paper_k(1, 2.0, 3.0, (1, 1))
    assert sol.dimension == 1
    assert np.allclose(sol.normalized, [[1.0, 0.5625], [0.5625, 1.0]], atol=1e-12)
    assert sol.residual < 1e-12


def test_solve_anchor_plus_minus():
    sol = solve_paper_k(1, 2.0, 3.0, (1, -1))
    assert sol.dimension == 1
    assert np.allclose(sol.normalized, [[1.0, 0.45], [-0.45, 1.0]], atol=1e-12)


def test_n1_every_eps_solves(rng):
    q, x = generic_point(rng)
    for _ in range(6):
        eps = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert solve_paper_k(1, q, x, eps).dimension == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_eps_gives_identity(n):
    sol = solve_paper_k(n, Q_REF, X_REF, np.zeros(n + 1))
    assert sol.dimension == 1
    assert np.allclose(sol.normalized, np.eye(n + 1), atol=1e-10)


def test_sign_patterns_match_closed_form_n2():
    for signs in itertools.product((1, -1), repeat=3):
        sol = solve_paper_k(2, Q_REF, X_REF, signs)
        assert sol.dimension == 1
        explicit = closed_form_k(2, Q_REF, X_REF, ClosedFormParams(signs))
        equal, _, dev = projective_compare(explicit, sol.normalized, 1e-8)
        assert equal, (signs, dev)


def test_modulus_away_from_unit_kills_system():
    assert solve_paper_k(2, Q_REF, X_REF, (2, 1, 1)).dimension == 0
    assert solve_paper_k(3, Q_REF, X_REF, (1, 0.5, 1, 1)).dimension == 0
    assert solve_paper_k(2, Q_REF, X_REF, (0, 1, 1)).dimension == 0


def test_phase_eps_measured_dimension():
    # measured outcome: unimodular phases other than +-1 leave no solution,
    # i.e. the modulus-one condition in the closed form means literal signs
    phase = np.exp(1j * np.pi / 3)
    assert solve_paper_k(2, Q_REF, X_REF, (phase,) * 3).dimension == 0


def test_closed_form_anchor_values():
    k = closed_form_k(1, 2.0, 3.0, ClosedFormParams((1, 1)))
    assert abs(k[0, 0] - 16 / 9) < 1e-12
    assert abs(k[0, 1] - 1.0) < 1e-12
    assert abs(k[0, 1] / k[0, 0] - 0.5625) < 1e-12
    k2 = closed_form_k(1, 2.0, 3.0, ClosedFormParams((1, -1)))
    assert abs(k2[0, 1] / k2[0, 0] - 0.45) < 1e-12
    assert abs(k2[1, 0] + k2[0, 1]) < 1e-12


def test_closed_form_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ClosedFormParams((2.0, 1.0))


BAD_POINTS = {"n0": (0, Q_REF, X_REF), "n-1": (-1, Q_REF, X_REF), "n1.5": (1.5, Q_REF, X_REF),
              "q-nan": (2, np.nan, X_REF), "q-inf": (2, np.inf, X_REF),
              "x-nan": (2, Q_REF, complex(np.nan, 1)), "x-inf": (2, Q_REF, np.inf),
              "q0": (2, 0.0, X_REF), "x0": (2, Q_REF, 0.0), "n-true": (True, Q_REF, X_REF)}
ENTRY_POINTS = {
    "vector_rep": vector_rep,
    "vector_stack": lambda n, q, x: vector_stack(n, q, [X_REF, x]),
    "paper_boundary_system": lambda n, q, x: paper_boundary_system(n, q, x, (1,)),
    "closed_form_k": lambda n, q, x: closed_form_k(n, q, x, ClosedFormParams((1,))),
}


@pytest.mark.parametrize("point", BAD_POINTS.values(), ids=BAD_POINTS.keys())
@pytest.mark.parametrize("build", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_invalid_point_rejected(build, point):
    # a one-entry eps has the right length at n = 0, so only the point check can fire
    with pytest.raises(ValueError, match="rank index|finite and nonzero"):
        build(*point)


def test_non_finite_eps_rejected():
    with pytest.raises(ValueError, match="finite"):
        paper_boundary_system(1, Q_REF, X_REF, (np.nan, 1))
    with pytest.raises(ValueError, match="finite"):
        ClosedFormParams((1, np.inf))


@pytest.mark.parametrize("eps", ["11", "1j", b"11", ("1", "1j"), (b"1", b"1")],
                         ids=["str", "str-imaginary", "bytes", "tuple-of-str", "tuple-of-bytes"])
def test_string_eps_rejected_on_every_path(eps):
    # a loop over a str or bytes yields its characters or bytes: "11" would read as (1, 1)
    solves = [lambda: solve_k(1, Q_REF, X_REF, eps, method) for method in ("paper", "generic")]
    solves += [lambda: ClosedFormParams(eps),
               lambda: dimension_scan("boundary", {"n": 1, "q": Q_REF, "eps": eps}, [X_REF])]
    for solve in solves:
        with pytest.raises(ValueError, match="sequence of numbers"):
            solve()


def test_solve_k_dispatches_by_method():
    rep = vector_rep(2, Q_REF, X_REF)
    paper = solve_k(2, Q_REF, X_REF, (1, -1, 1))
    assert np.array_equal(paper.normalized, solve_paper_k(2, Q_REF, X_REF, (1, -1, 1)).normalized)
    generic = solve_k(2, Q_REF, X_REF, (0, 0, 0), method="generic")
    engine = solve_boundary(rep, reflection_dual(rep), (0, 0, 0))
    assert np.array_equal(generic.normalized, engine.normalized)
    with pytest.raises(ValueError, match="unknown boundary method"):
        solve_k(2, Q_REF, X_REF, (1, 1, 1), method="closed-form")


def test_a_generic_solve_builds_its_conjugate_only_for_a_residual(monkeypatch):
    # a dimension-0 point scores no residual, so it forms no conjugate and no coideal stack; a
    # dimension-1 point forms each once, and both solve as the solve with the conjugate given
    from qreflect import intertwiners

    calls = []
    for name in ("dual_stack", "coideal_stack"):
        original = getattr(intertwiners, name)

        def spy(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(intertwiners, name, spy)
    star = eps_star(Q_REF)
    for signs, dimension, built in (((1, 1, 0.5, 1), 0, []),
                                    ((1, 1, -1, 1), 1, ["dual_stack"] + ["coideal_stack"] * 2)):
        eps = tuple(star * s for s in signs)
        calls.clear()
        solution = solve_k(3, Q_REF, 2.01, eps, "generic")
        assert (solution.dimension, calls) == (dimension, built)
        rep = vector_rep(3, Q_REF, 2.01)
        given = solve_reflection(rep, reflection_dual(rep), eps)
        assert solution.nullspace.basis.tobytes() == given.nullspace.basis.tobytes()
        assert (solution.nullspace.margin, solution.flags) == (given.nullspace.margin, given.flags)
        assert np.array_equal(solution.residual, given.residual, equal_nan=True)
    # -q/x is validated before eps, as when the conjugate was built first: 1/(-q/x) overflows
    with pytest.raises(ValueError, match="^q and x must be finite and nonzero$"):
        solve_k(1, Q_REF, 1.7e308, (1,), "generic")


def test_closed_form_accepts_phase_construction():
    # construction allows any unimodular entries; solvability is separate
    phase = np.exp(0.4j)
    k = closed_form_k(1, Q_REF, X_REF, ClosedFormParams((phase, phase.conjugate())))
    assert np.all(np.isfinite(k))


def test_reconcile_identity_case():
    thetas = [0.4, 0.8]
    ks = [solve_paper_k(1, Q_REF, np.exp(t), (1, 1)).normalized for t in thetas]
    report = reconcile_gauge(ks, ks)
    assert report.constant
    assert projective_compare(report.gauge, np.eye(2), 1e-10)[0]


def test_reconcile_constructed_gauge():
    thetas = [0.4, 0.8, 1.1]
    g = np.diag([1.0, 3.0 - 1.0j])
    kp = [solve_paper_k(1, Q_REF, np.exp(t), (1, 1)).normalized for t in thetas]
    kg = [g @ k for k in kp]
    report = reconcile_gauge(kp, kg)
    assert report.constant
    assert projective_compare(report.gauge, g, 1e-8)[0]


def test_reconcile_engine_vs_paper_n1():
    # measured: at n = 1 the engine dual at -q/x reproduces the explicit
    # family system exactly, so the bridge is the identity at every rapidity
    thetas = [0.7, 0.23, -0.41]
    kp, kg = [], []
    for t in thetas:
        rep = vector_rep(1, Q_REF, np.exp(t))
        kp.append(solve_paper_k(1, Q_REF, np.exp(t), (1, 1)).normalized)
        kg.append(solve_boundary(rep, reflection_dual(rep), (1, 1)).normalized)
    report = reconcile_gauge(kp, kg)
    assert report.constant
    assert projective_compare(report.gauge, np.eye(2), 1e-8)[0]


def test_reconcile_cross_locus_n2_not_constant():
    # measured: comparing the paper-convention solution at signs with the engine
    # solution at eps_star * signs is NOT rapidity-independent
    thetas = [0.7, 0.23, -0.41]
    star = 1 / np.sqrt((1 - Q_REF) * (1 - 1 / Q_REF))
    kp, kg = [], []
    for t in thetas:
        rep = vector_rep(2, Q_REF, np.exp(t))
        kp.append(solve_paper_k(2, Q_REF, np.exp(t), (1, 1, 1)).normalized)
        kg.append(solve_boundary(rep, reflection_dual(rep), (star,) * 3).normalized)
    report = reconcile_gauge(kp, kg)
    assert not report.constant


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_reconcile_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        reconcile_gauge([np.eye(2)], [np.eye(2)], tol=tol)


def test_reconcile_input_validation():
    with pytest.raises(ValueError):
        reconcile_gauge([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        reconcile_gauge([], [])
    with pytest.raises(ValueError):
        reconcile_gauge([np.zeros((2, 2))], [np.eye(2)])
