import numpy as np
import pytest

from qreflect.linalg import (
    embed_on_legs,
    flip_operator,
    kron,
    normalize_solution,
    nullspace,
    projective_compare,
    rank_decision,
    stack_nullities,
)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_definition():
    out = kron([[0, 1], [0, 0]], [[2]])
    assert np.array_equal(out, [[0, 2], [0, 0]])


def test_kron_mixed_product(rng):
    # oracle: dense multiplication of both sides
    a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_flip_degenerate_leg():
    assert np.array_equal(flip_operator(1, 5), np.eye(5))
    assert np.array_equal(flip_operator(5, 1), np.eye(5))


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_flip_swaps_factors(da, db):
    u = np.arange(1.0, da + 1)
    v = np.arange(da + 1.0, da + db + 1)
    got = flip_operator(da, db) @ np.kron(u, v)
    assert np.allclose(got, np.kron(v, u))
    if (da, db) == (2, 2):
        assert np.allclose(got, [3, 6, 4, 8])


@pytest.mark.parametrize("d", [2, 3])
def test_flip_involution(d):
    p = flip_operator(d, d)
    assert np.allclose(p @ p, np.eye(d * d))


@pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (2, 5)])
def test_flip_inverse_pair(da, db):
    assert np.allclose(flip_operator(da, db) @ flip_operator(db, da), np.eye(da * db))


def test_embed_middle_leg(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = embed_on_legs(m, (1,), (2, 3, 2))
    assert np.allclose(out, np.kron(np.eye(2), np.kron(m, np.eye(2))))


def test_embed_leading_pair(rng):
    s = rng.normal(size=(9, 9))
    assert np.allclose(embed_on_legs(s, (0, 1), (3, 3, 3)), np.kron(s, np.eye(3)))


def test_embed_split_legs(rng):
    # oracle: conjugation of m x I by the explicit last-two-leg permutation
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    perm = np.kron(np.eye(2), flip_operator(2, 2))
    expected = perm @ np.kron(m, np.eye(2)) @ perm
    assert np.allclose(embed_on_legs(m, (0, 2), (2, 2, 2)), expected)

    # second oracle: index gymnastics on the 6-leg tensor
    t = m.reshape(2, 2, 2, 2)
    direct = np.einsum("acbd,ef->aecbfd", t, np.eye(2)).reshape(8, 8)
    assert np.allclose(embed_on_legs(m, (0, 2), (2, 2, 2)), direct)

    # unequal legs (2, 3, 4): conjugate m x I_3 by the order change to (0, 2, 1)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    to_front = np.kron(np.eye(2), flip_operator(3, 4))
    expected = to_front.T @ np.kron(m, np.eye(3)) @ to_front
    assert np.allclose(embed_on_legs(m, (0, 2), (2, 3, 4)), expected)


def test_embed_rejects_bad_shapes():
    with pytest.raises(ValueError):
        embed_on_legs(np.eye(3), (0,), (2, 2))
    with pytest.raises(ValueError):
        embed_on_legs(np.eye(4), (1, 0), (2, 2))


def test_nullspace_full_rank():
    assert nullspace(np.eye(4)).dimension == 0


def test_nullspace_zero_matrix():
    res = nullspace(np.zeros((2, 3)))
    assert res.dimension == 3
    assert res.sigma_max == 0


def test_nullspace_rank_one():
    res = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert res.dimension == 1
    v = res.basis[0]
    assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2)
    assert abs(v[0] + v[1]) < 1e-14


def test_nullspace_basis_orthonormal_and_bounded(rng):
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    b = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
    m = a @ b  # rank <= 3, so at least 4 null directions
    res = nullspace(m, rel_tol=1e-9)
    assert res.dimension >= 4
    basis = np.array([v.ravel() for v in res.basis])
    assert np.allclose(basis @ basis.conj().T, np.eye(res.dimension), atol=1e-12)
    for v in res.basis:
        assert np.linalg.norm(m @ v.ravel()) <= 1e-9 * res.sigma_max


def test_nullspace_wide_matrix_keeps_its_full_complement():
    # rank 2 with 2 rows and 6 columns: the complement needs all of V^H
    m = np.array([[1.0, 2.0, 0.0, 1j, 0.0, -1.0], [0.0, 1.0, 3.0, 0.0, 1.0, 2j]])
    res = nullspace(m)
    assert res.dimension == 4
    assert np.allclose(res.basis @ res.basis.conj().T, np.eye(4), atol=1e-12)
    assert np.linalg.norm(m @ res.basis.T) < 1e-12 * res.sigma_max


def test_nullspace_without_rows_is_the_degenerate_full_space():
    res = nullspace(np.zeros((0, 3)))
    assert res.dimension == 3 and res.sigma_max == 0
    assert np.array_equal(res.basis, np.eye(3))


def test_nullspace_margin_is_the_factor_to_the_nearest_singular_value():
    # cut = 1e-9: the kept 1e-7 sits 100x above it, the dropped 1e-13 10^4x below
    res = nullspace(np.diag([1.0, 1e-7, 1e-13]))
    assert res.dimension == 1
    assert res.margin == pytest.approx(100.0, rel=1e-12)
    assert nullspace(np.diag([1.0, 1e-3, 1e-15])).margin == pytest.approx(1e6, rel=1e-12)
    # a side without singular values, or with exact zeros only, is infinitely far
    assert nullspace(np.diag([2.0, 1.0])).margin == pytest.approx(5e8, rel=1e-12)
    assert nullspace(np.diag([1.0, 0.0])).margin == pytest.approx(1e9, rel=1e-12)
    assert nullspace(np.ones((1, 3))).margin == pytest.approx(1e9, rel=1e-12)
    assert nullspace(np.zeros((2, 2))).margin == float("inf")
    with np.errstate(all="raise"):  # the CLI's error state: computing a margin never raises
        assert nullspace(np.diag([1.0, 0.0]), rel_tol=1e-320).margin == float("inf")


def test_rank_decision_decides_a_stack_as_nullspace_decides_each_matrix():
    # rank-deficient, near-cut, full-rank and all-zero 4 x 3 matrices with exact singular
    # values, so that roundoff sets no margin
    mats = [np.vstack([np.diag(d)[::-1], np.zeros((1, 3))])
            for d in ([1, 1, 0], [1, 2e-9, 1e-15], [3, 2, 1], [0, 0, 0])]
    stack = np.array(mats)
    s = np.linalg.svd(stack, compute_uv=False)
    rank, sigma_max, margin = rank_decision(s)
    nullity, scan_margin = stack_nullities(stack)
    for k, m in enumerate(mats):
        ns = nullspace(m)
        assert (3 - rank[k], 3 - rank[k]) == (ns.dimension, nullity[k])
        assert sigma_max[k] == pytest.approx(ns.sigma_max, rel=1e-12)
        assert margin[k] == scan_margin[k] == pytest.approx(ns.margin, rel=1e-12)
    assert list(rank) == [2, 2, 3, 0] and margin[3] == float("inf")
    # matrices without rows have no singular values: rank 0, infinitely far from the cut
    rank, sigma_max, margin = rank_decision(np.zeros((2, 0)))
    assert list(rank) == [0, 0] and list(sigma_max) == [0, 0] and list(margin) == [np.inf] * 2
    with np.errstate(all="raise"):  # the CLI's error state: deciding a rank never raises
        # cut / dropped overflows to inf; the kept side decides
        assert rank_decision(np.array([[1e300, 1e-320]]))[2][0] == pytest.approx(1e9)
    with pytest.raises(ValueError, match="non-finite"):
        stack_nullities(np.full((1, 2, 2), np.nan))


@pytest.mark.parametrize("rel_tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_nullspace_rejects_bad_tolerance(rel_tol):
    with pytest.raises(ValueError):
        nullspace(np.eye(2), rel_tol=rel_tol)


def test_projective_scalar_multiple(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    equal, lam, dev = projective_compare(a, 3j * a, 1e-10)
    assert equal
    assert abs(lam - 1 / 3j) < 1e-12
    assert dev < 1e-12


def test_projective_detects_mismatch():
    a = np.eye(2)
    b = np.eye(2)
    b[0, 0] += 0.1
    equal, lam, dev = projective_compare(a, b, 1e-8)
    # oracle: least-squares fit of the single scalar
    coeff, *_ = np.linalg.lstsq(b.reshape(-1, 1), a.ravel(), rcond=None)
    expected_dev = np.linalg.norm(a - coeff[0] * b) / np.linalg.norm(a)
    assert not equal
    assert abs(dev - expected_dev) < 1e-12
    assert dev > 1e-2


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_projective_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        projective_compare(np.eye(2), np.eye(2), tol)


def test_projective_zero_cases():
    with pytest.raises(ValueError):
        projective_compare(np.zeros((2, 2)), np.zeros((2, 2)), 1e-8)
    equal, lam, dev = projective_compare(np.zeros((2, 2)), np.eye(2), 1e-8)
    assert not equal and dev == 1.0


def test_projective_wide_scalar_range(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e6 * 1j):
        equal, _, _ = projective_compare(a, lam * a, 1e-10)
        assert equal


def test_normalize_single_max():
    out = normalize_solution(np.array([[2j, 1.0]]))
    assert np.allclose(out, [[1.0, -0.5j]])
    assert out[0, 0] == 1.0 + 0.0j


def test_normalize_tie_breaks_to_first():
    out = normalize_solution(np.array([[1.0, -1.0]]))
    assert np.allclose(out, [[1.0, -1.0]])
    # ties are judged relative to the largest modulus, not absolutely
    small = normalize_solution(np.array([[1e-13, 3e-13], [0, 0]]))
    assert small[0, 1] == 1.0 + 0.0j
    assert np.abs(small).max() == 1.0


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize_solution(np.zeros((2, 2)))


def test_normalize_idempotent(rng):
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    once = normalize_solution(v)
    assert np.allclose(once, normalize_solution(once), atol=1e-14)
