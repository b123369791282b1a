import numpy as np
import pytest

from conftest import generic_point
from qreflect.linalg import kron
from qreflect.reps import (
    EvaluationRep,
    cartan_inner,
    check_relations,
    GENERATOR_ORDER,
    check_point,
    coideal_generators,
    coproduct,
    coproduct_matrix,
    dual_rep,
    vector_rep,
    vector_stack,
)


def test_check_point_refuses_a_q_or_x_whose_reciprocal_overflows():
    # 1e-320 and 1e-320j are finite and nonzero, but their reciprocals are not; the smallest
    # normal double has a finite reciprocal and is accepted
    for value in (1e-320, -1e-320, 1e-320j, complex(1e-320, -1e-320)):
        for point in ((0.8, value), (value, 2.0)):
            with np.errstate(all="raise"), pytest.raises(
                    ValueError, match="^q and x must be finite and nonzero$"):
                check_point(1, *point)
            with pytest.raises(ValueError, match="^q and x must be finite and nonzero$"):
                vector_rep(1, *point)
    tiny = 2.2250738585072014e-308
    assert check_point(1, tiny, tiny) == (1, complex(tiny), complex(tiny))


def test_cartan_inner_values():
    assert cartan_inner(2, 0, 2) == -1  # cyclic adjacency of the affine node
    assert cartan_inner(1, 0, 1) == -2
    assert cartan_inner(3, 0, 2) == 0
    assert all(cartan_inner(4, i, i) == 2 for i in range(5))


@pytest.mark.parametrize("n", range(1, 7))
def test_cartan_rows_sum_to_zero(n):
    cartan = np.array([[cartan_inner(n, i, j) for j in range(n + 1)] for i in range(n + 1)])
    assert np.all(cartan.sum(axis=1) == 0)
    assert np.array_equal(cartan, cartan.T)


def test_cartan_inner_range_check():
    with pytest.raises(ValueError):
        cartan_inner(2, 0, 3)


def test_vector_rep_matrices():
    rep = vector_rep(1, 2.0, 3.0)
    assert np.allclose(np.diag(rep.D[0]), [0.5, 2.0])
    assert np.allclose(np.diag(rep.D[1]), [2.0, 0.5])
    assert np.allclose(rep.Q[0], [[0, 0], [3, 0]])
    assert np.allclose(rep.Qbar[0], [[0, 1 / 3], [0, 0]])


def test_vector_rep_structure_n2(rng):
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    for i in range(3):
        nz = np.argwhere(rep.Q[i] != 0)
        assert nz.shape == (1, 2)
        row, col = nz[0]
        assert (row, col) == ((i + 1) % 3, i)
        assert rep.Q[i][row, col] == x


def test_vector_rep_rejects_zero_parameters():
    with pytest.raises(ValueError):
        vector_rep(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        vector_rep(2, 1.5, 0.0)


def test_dual_rep_explicit_formula():
    dual = dual_rep(vector_rep(1, 2.0 + 0j, 3.0))
    assert np.allclose(dual.Q[0], [[0, -1.5], [0, 0]])
    assert np.allclose(dual.Qbar[0], [[0, 0], [-2 / 3, 0]])
    assert np.allclose(dual.D[0], np.diag([2.0, 0.5]))


def test_dual_rep_antipode_axiom(rng):
    # m(S x id)Delta(g) = eps(g) 1: the evaluation pairing sum_k e^k x e_k is
    # annihilated by Delta(Q_i), Delta(Qbar_i) and fixed by Delta(q^{T_i})
    for n in (1, 2, 3):
        q, x = generic_point(rng)
        rep = vector_rep(n, q, x)
        dual = dual_rep(rep)
        pairing = np.eye(n + 1).ravel()
        for i in range(n + 1):
            for kind in ("Q", "Qbar"):
                image = pairing @ coproduct_matrix(dual, rep, kind, i)
                assert np.allclose(image, 0.0, atol=1e-12)
            image = pairing @ coproduct_matrix(dual, rep, "qT", i)
            assert np.allclose(image, pairing, atol=1e-12)


def test_dual_of_dual_restores_cartan(rng):
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    twice = dual_rep(dual_rep(rep))
    assert not twice.is_dual
    for a, b in zip(twice.D, rep.D):
        assert np.allclose(a, b, atol=1e-14)


def test_dual_rep_satisfies_relations():
    rep = vector_rep(2, 0.8 * np.exp(0.3j), np.exp(0.7))
    report = check_relations(dual_rep(rep), tol=1e-10)
    assert report.passed


def test_coideal_generators_anchor():
    rep = vector_rep(1, 2.0, 3.0)
    gens = coideal_generators(rep, (1.0, 1.0))
    assert np.allclose(gens[0], [[0.5, 1 / 3], [3.0, 2.0]])


def test_coideal_generators_zero_eps(rng):
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    gens = coideal_generators(rep, (0, 0, 0))
    for i in range(3):
        assert np.allclose(gens[i], rep.Q[i] + rep.Qbar[i])
        assert gens[i].shape == (3, 3)


def test_coideal_generators_linear_in_eps(rng):
    q, x = generic_point(rng)
    rep = vector_rep(2, q, x)
    e1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    e2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    combined = coideal_generators(rep, e1 + e2)
    split = [
        coideal_generators(rep, e1)[i]
        + coideal_generators(rep, e2)[i]
        - (rep.Q[i] + rep.Qbar[i])
        for i in range(3)
    ]
    for a, b in zip(combined, split):
        assert np.allclose(a, b, atol=1e-13)


def test_coideal_generators_length_check(rng):
    q, x = generic_point(rng)
    with pytest.raises(ValueError):
        coideal_generators(vector_rep(2, q, x), (1.0, 1.0))


def test_coproduct_cartan_example():
    a = vector_rep(1, 2.0, 3.0)
    b = vector_rep(1, 2.0, 5.0)
    delta = coproduct_matrix(a, b, "qT", 0)
    assert np.allclose(delta, np.diag([0.25, 1.0, 1.0, 4.0]))
    inverse = kron(np.linalg.inv(a.D[0]), np.linalg.inv(b.D[0]))
    assert np.allclose(delta @ inverse, np.eye(4), atol=1e-13)


def test_coproduct_support(rng):
    q, x = generic_point(rng)
    a = vector_rep(1, q, x)
    b = vector_rep(1, q, x * 1.7)
    delta = coproduct_matrix(a, b, "Q", 0)
    expected = kron(a.Q[0], np.eye(2)) + kron(a.D[0], b.Q[0])
    assert np.array_equal(delta != 0, expected != 0)
    assert np.allclose(delta, expected)


def test_coproduct_requires_same_algebra(rng):
    q, x = generic_point(rng)
    with pytest.raises(ValueError):
        coproduct_matrix(vector_rep(1, q, x), vector_rep(1, q * 1.1, x), "Q", 0)
    # q is compared relatively, so tiny but distinct q are different algebras
    assert not vector_rep(1, 1e-9, x).same_algebra(vector_rep(1, 2e-9, x))


def test_same_algebra_uses_the_relative_isclose_rule():
    # |q_a - q_b| <= 1e-5 min(|q_a|, |q_b|), no absolute term: np.isclose(atol=0) both ways
    q = 0.8 * np.exp(0.3j)
    assert vector_rep(1, q, 2.0).same_algebra(vector_rep(1, q * (1 + 1e-6), 2.0))
    assert not vector_rep(1, q, 2.0).same_algebra(vector_rep(1, q * (1 + 1e-4), 2.0))
    assert not vector_rep(1, 1e-9, 2.0).same_algebra(vector_rep(1, 2e-9, 2.0))
    # symmetric: isclose must hold both ways, and q (1 + 1.000005e-5) is within 1e-5 of the
    # larger q only
    near, far = vector_rep(1, q, 2.0), vector_rep(1, q * (1 + 1.000005e-5), 2.0)
    assert not near.same_algebra(far) and not far.same_algebra(near)
    assert not vector_rep(1, q, 2.0).same_algebra(vector_rep(2, q, 2.0))


@pytest.mark.parametrize("flavours", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_coproduct_stack_is_the_kronecker_formula(n, flavours):
    rng = np.random.default_rng(60 + n)
    q, x = generic_point(rng)
    _, y = generic_point(rng)
    a, b = vector_rep(n, q, x), vector_rep(n, q, y)
    a, b = (dual_rep(r) if flip else r for r, flip in zip((a, b), flavours))
    delta = coproduct(a, b)
    assert delta.shape == (3 * (n + 1), (n + 1) ** 2, (n + 1) ** 2)
    eye = np.eye(n + 1, dtype=np.complex128)
    for k, kind in enumerate(GENERATOR_ORDER):
        for i in range(n + 1):
            if kind == "qT":
                expected = np.kron(a.D[i], b.D[i])
            else:
                g_a, g_b = (getattr(r, kind)[i] for r in (a, b))
                expected = np.kron(g_a, eye) + np.kron(a.D[i], g_b)
            assert np.array_equal(delta[k * (n + 1) + i], expected), (kind, i)
            assert np.array_equal(coproduct_matrix(a, b, kind, i), expected), (kind, i)


def test_coproduct_rejects_non_finite_or_mismatched_reps(rng):
    q, x = generic_point(rng)
    good = vector_rep(1, q, x)
    for side in (0, 1):
        bad = vector_rep(1, q, x)
        bad.Qbar[1] = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            coproduct(*((good, bad) if side else (bad, good)))
    for other in (vector_rep(2, q, x), vector_rep(1, q * 1.1, x)):
        with pytest.raises(ValueError, match="matching"):
            coproduct(good, other)


def test_coproduct_is_algebra_map():
    # the tensor-product images satisfy the defining relations themselves
    q = 0.8 * np.exp(0.3j)
    a = vector_rep(1, q, np.exp(0.7))
    b = vector_rep(1, q, np.exp(0.23))
    tensor = EvaluationRep(
        n=1,
        q=q,
        x=a.x * b.x,
        is_dual=False,
        gens=[[coproduct_matrix(a, b, kind, i) for i in range(2)] for kind in GENERATOR_ORDER],
    )
    assert check_relations(tensor, tol=1e-10).passed


def test_representation_is_one_generator_stack():
    rep = vector_rep(2, 0.8 * np.exp(0.3j), 2.0)
    assert rep.gens.shape == (3, 3, 3, 3) and rep.gens.dtype == np.complex128
    for k, view in enumerate((rep.Q, rep.Qbar, rep.D)):
        assert np.shares_memory(view, rep.gens) and np.array_equal(view, rep.gens[k])
    stack = rep.generators()
    assert stack.shape == (9, 3, 3) and np.shares_memory(stack, rep.gens)
    assert np.array_equal(stack, rep.gens.reshape(9, 3, 3))


def test_evaluation_reps_compare_and_hash_by_identity():
    a, b = vector_rep(1, 0.8j, 2.0), vector_rep(1, 0.8j, 2.0)
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (2, 2, 2, 2), (3, 2, 2, 3), (3, 2, 4), (6, 2, 2)])
def test_evaluation_rep_rejects_a_misshapen_stack(shape):
    # n = 1 needs a (3, 2, d, d) stack
    with pytest.raises(ValueError, match="generator stack must have shape"):
        EvaluationRep(n=1, q=0.8, x=2.0, is_dual=False, gens=np.zeros(shape))
    assert EvaluationRep(n=1, q=0.8, x=2.0, is_dual=False, gens=np.zeros((3, 2, 4, 4))).dim == 4


def test_check_relations_vector_anchor():
    rep = vector_rep(1, 2.0, 3.0)
    report = check_relations(rep)
    assert report.passed and report.deviation < 1e-12


def test_check_relations_detects_perturbation(rng):
    q, x = generic_point(rng)
    rep = vector_rep(1, q, x)
    rep.Q[0] = rep.Q[0] + 0.01 * np.array([[1, 0], [0, 0]])
    assert not check_relations(rep, tol=1e-10).passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_relations_detects_a_perturbed_last_node(n):
    # a rescaled Q_n keeps its pattern, so only relation (c) at i = j = n sees it: the
    # stacked relations must reach the last node on both loops
    rep = vector_rep(n, 0.8 * np.exp(0.3j), 2.0)
    assert check_relations(rep, tol=1e-10).passed
    rep.Q[n] *= 1 + 1e-6
    assert not check_relations(rep, tol=1e-10).passed


def test_check_relations_rejects_singular_q(rng):
    _, x = generic_point(rng)
    with pytest.warns(UserWarning):
        rep = vector_rep(1, -1.0, x)
    with pytest.raises(ValueError):
        check_relations(rep)


def test_vector_stack_warns_once_near_a_low_root_of_unity():
    with pytest.warns(UserWarning, match="root of unity of order 2") as record:
        stack = vector_stack(1, -1.0, [2.0, 3.0, 0.5])
    assert len(record) == 1 and stack.shape == (3, 3, 2, 2, 2)


def test_the_root_of_unity_warning_skips_only_moduli_that_cannot_warn():
    # a modulus more than 1e-6 from 1 returns before the powers; the warning fires exactly
    # where the loop over q^k, k = 1..6, fires, for q on, near and off the unit circle
    import warnings

    from qreflect import reps

    def loop_rule(q):
        return next((k for k in range(1, 7) if abs(q**k - 1.0) < 1e-9), None)

    rng = np.random.default_rng(6)
    qs = [np.exp(2j * np.pi * j / k) * (1 + d) for k in range(1, 9) for j in range(k)
          for d in (0.0, 1e-12, -1e-11, 1e-10, 1e-9, 1e-6, -1.1e-6)]
    qs += list(rng.uniform(0.5, 1.5, 40) * np.exp(2j * np.pi * rng.random(40)))
    for q in map(complex, qs):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            reps._warn_if_low_root_of_unity(q)
        order = loop_rule(q)
        assert len(record) == (order is not None), q
        if order is not None:
            assert f"order {order};" in str(record[0].message)
        if abs(abs(q) - 1.0) > 1e-6:
            assert order is None


def test_the_vector_plan_is_cached_per_n_and_read_only():
    from qreflect import reps

    vector_rep(3, 0.8 * np.exp(0.3j), 2.0)
    plan = reps._vector_plan(3)
    vector_stack(3, 0.5j, [1.5, -2j])
    assert reps._vector_plan(3) is plan
    for arr in plan:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_check_relations_nan_generator_fails():
    rep = vector_rep(1, 0.8 * np.exp(0.3j), 2.0)
    rep.Q[0] = np.full((2, 2), np.nan)
    report = check_relations(rep)
    assert np.isnan(report.deviation) and not report.passed


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_check_relations_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        check_relations(vector_rep(1, 2.0, 3.0), tol=tol)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relations_generic_samples(n):
    rng = np.random.default_rng(1234 + n)
    for _ in range(4):
        q, x = generic_point(rng)
        rep = vector_rep(n, q, x)
        assert check_relations(rep, tol=1e-10).passed
        assert check_relations(dual_rep(rep), tol=1e-10).passed
