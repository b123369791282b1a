import numpy as np
import pytest

from qreflect.linalg import (
    DEFAULT_REL_TOL,
    NullspaceResult,
    _decide,
    _right_factors,
    block_nullspace,
    embed_on_legs,
    flip_operator,
    kron,
    merged_singular_values,
    normalize_solution,
    nullspace,
    projective_compare,
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


def test_the_rank_rule_decides_a_stack_as_nullspace_decides_each_matrix():
    # rank-deficient, near-cut, full-rank and all-zero 4 x 3 matrices with exact singular
    # values, so that roundoff sets no margin
    mats = [np.vstack([np.diag(d)[::-1], np.zeros((1, 3))])
            for d in ([1, 1, 0], [1, 2e-9, 1e-15], [3, 2, 1], [0, 0, 0])]
    stack = np.array(mats)
    s = np.linalg.svd(stack, compute_uv=False)
    nullity, scan_margin = stack_nullities(stack)
    ranks = []
    for k, m in enumerate(mats):
        rank, sigma_max, margin = _decide(s[k].tolist(), DEFAULT_REL_TOL)
        ns = nullspace(m)
        assert (3 - rank, 3 - rank) == (ns.dimension, nullity[k])
        assert sigma_max == pytest.approx(ns.sigma_max, rel=1e-12)
        assert margin == scan_margin[k] == pytest.approx(ns.margin, rel=1e-12)
        ranks.append(rank)
    assert ranks == [2, 2, 3, 0] and scan_margin[3] == float("inf")
    # a matrix without rows has no singular values: rank 0, infinitely far from the cut
    assert _decide([], DEFAULT_REL_TOL) == (0, 0.0, float("inf"))
    assert stack_nullities(np.zeros((2, 0, 3))) == ([3, 3], [float("inf")] * 2)
    with np.errstate(all="raise"):  # the CLI's error state: deciding a rank never raises
        # cut / dropped overflows to inf; the kept side decides
        assert _decide([1e300, 1e-320], DEFAULT_REL_TOL)[2] == pytest.approx(1e9)
    with pytest.raises(ValueError, match="non-finite"):
        stack_nullities(np.full((1, 2, 2), np.nan))


def _block_diagonal(blocks):
    count, rows, cols = blocks.shape
    dense = np.zeros((count * rows, count * cols), dtype=complex)
    for k, block in enumerate(blocks):
        dense[k * rows:(k + 1) * rows, k * cols:(k + 1) * cols] = block
    return dense


def _blocks_of_rank(rng, ranks, rows, cols, scale=1.0):
    """Random complex blocks, block k of rank ``ranks[k]``."""
    blocks = []
    for rank in ranks:
        left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
        right = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
        blocks.append(scale * left @ right)
    return np.array(blocks)


@pytest.mark.parametrize("rows, cols", [(9, 4), (20, 17), (3, 5), (4, 4)])
def test_block_nullspace_is_the_nullspace_of_the_block_diagonal_matrix(rng, rows, cols):
    # tall blocks on both sides of the R-SVD rule, wide ones and square ones; the blocks'
    # ranks differ, and one block sits below the others by 1e6, so the one cut is global
    full = min(rows, cols)
    ranks = [full, full - 1, full - 3, full]
    blocks = _blocks_of_rank(rng, ranks, rows, cols)
    blocks[3] *= 1e-6
    ns = block_nullspace(blocks)
    dense = nullspace(_block_diagonal(blocks))
    assert ns.dimension == dense.dimension == 4 * cols - sum(ranks)
    assert ns.sigma_max == pytest.approx(dense.sigma_max, rel=1e-13)
    assert ns.margin == pytest.approx(dense.margin, rel=1e-6)
    assert ns.basis.shape == (ns.dimension, 4 * cols)
    assert np.allclose(ns.basis.conj() @ ns.basis.T, np.eye(ns.dimension), atol=1e-13)
    projector = dense.basis.T @ dense.basis.conj()
    assert np.linalg.norm(ns.basis.T @ ns.basis.conj() - projector) < 1e-12
    in_blocks = np.abs(ns.basis.reshape(ns.dimension, 4, cols)).sum(axis=2) > 0
    assert (in_blocks.sum(axis=1) == 1).all()  # every vector lies in one block


def test_block_nullspace_of_degenerate_blocks():
    # no rows, all zeros, and full rank: the full space with sigma_max 0, or no null vector
    for blocks in (np.zeros((3, 0, 2), dtype=complex), np.zeros((3, 4, 2), dtype=complex)):
        ns = block_nullspace(blocks)
        assert (ns.dimension, ns.sigma_max, ns.margin) == (6, 0.0, float("inf"))
        assert np.allclose(ns.basis.conj() @ ns.basis.T, np.eye(6))
    eye = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
    ns = block_nullspace(eye)
    assert (ns.dimension, ns.basis.shape, ns.sigma_max) == (0, (0, 6), 1.0)
    # a singular value exactly on the cut is kept, in the merged rank and in its block's
    on_cut = np.array([np.diag([1.0, 1e-9]), np.diag([1.0, 0.0])], dtype=complex)
    ns = block_nullspace(on_cut)
    assert (ns.dimension, ns.margin) == (1, 1.0)
    assert np.allclose(np.abs(ns.basis), [[0, 0, 0, 1]])
    with pytest.raises(ValueError):
        block_nullspace(eye, rel_tol=0)


def test_stack_nullities_rank_stacks_of_blocks_as_block_nullspace_does(rng):
    # the same values-only SVD and the same cut: dimensions and margins bit for bit
    stack = np.array([_blocks_of_rank(rng, ranks, 6, 3) for ranks in
                      ([3, 3, 3], [3, 2, 3], [0, 0, 0], [1, 3, 2])])
    stack[1, 1] += 1e-12 * rng.normal(size=(6, 3))  # a null direction just under the cut
    nullity, margin = stack_nullities(stack)
    for k, blocks in enumerate(stack):
        ns = block_nullspace(blocks)
        assert (nullity[k], margin[k]) == (ns.dimension, ns.margin)
    assert list(nullity) == [0, 1, 9, 3]
    s = np.linalg.svd(stack[3], compute_uv=False)
    merged = merged_singular_values(s)
    assert merged.shape == (9,) and (np.diff(merged) <= 0).all()
    assert sorted(merged) == sorted(s.ravel())


def _numpy_rank_decision(s, rel_tol):
    """The rank rule in numpy on whole stacks: the reference of ``_decide``."""
    s = np.asarray(s, dtype=float)
    if not s.shape[-1]:
        s = np.zeros(s.shape[:-1] + (1,))
    sigma_max = s[..., 0]
    cut = rel_tol * sigma_max
    kept = (s >= cut[..., None]) & (s > 0)
    with np.errstate(all="ignore"):
        low = np.where(kept, s, np.inf).min(axis=-1) / cut
        high = cut / np.where(kept, 0.0, s).max(axis=-1)
    return kept.sum(axis=-1), sigma_max, np.fmin(low, high)


def _descending_rows(rng):
    """Descending rows of singular values: exact zeros, spans that overflow or underflow the
    cut, a value on the cut, and no values at all."""
    rows = [np.zeros(0), np.zeros(4), np.array([1e300, 1e-320]), np.array([5e-324, 0.0]),
            np.array([1e-300, 1e-310, 0.0]), np.linspace(1, 1e-12, 28),
            np.array([2.0, 1.0, 0.5]), np.array([1.0, 1e-9, 0.0])]
    for _ in range(300):
        k = rng.integers(1, 9)
        s = np.abs(rng.normal(size=k)) * 10.0 ** rng.integers(-320, 300, k)
        s[rng.random(k) < 0.2] = 0.0
        rows.append(-np.sort(-s))
    return rows


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-320, 0.5, 2.0])
def test_the_rank_rule_is_the_numpy_rule_bit_for_bit(rel_tol):
    for s in _descending_rows(np.random.default_rng(5)):
        with np.errstate(all="raise"):
            decided = _decide(s.tolist(), rel_tol)
        expected = _numpy_rank_decision(s, rel_tol)
        assert type(decided[0]) is int and all(type(x) is float for x in decided[1:])
        assert decided[0] == expected[0]
        assert np.array(decided[1:]).tobytes() == np.array(expected[1:]).tobytes(), (s, rel_tol)


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-320, 0.5, 2.0])
def test_nullspace_decides_as_the_numpy_rule_on_its_own_singular_values(rel_tol):
    # diagonal matrices, wide and tall, on the rows above, and matrices without rows: the
    # dimension, sigma_max and margin are the numpy rule's on the values nullspace factors
    rng = np.random.default_rng(6)
    mats = [np.zeros((0, 3)), np.zeros((2, 3))]
    for s in _descending_rows(rng)[1:]:
        extra = np.zeros((len(s), rng.integers(0, 3)))
        mats.append(np.hstack([np.diag(s), extra]).T if rng.random() < 0.5 else
                    np.hstack([np.diag(s), extra]))
    for m in mats:
        rank, sigma_max, margin = _numpy_rank_decision(_right_factors(m.astype(complex))[0],
                                                       rel_tol)
        ns = nullspace(m, rel_tol)
        assert ns.dimension == m.shape[1] - rank
        assert np.array([ns.sigma_max, ns.margin]).tobytes() == \
            np.array([sigma_max, margin]).tobytes(), (m.shape, rel_tol)


def _numpy_block_nullspace(blocks, rel_tol):
    """``block_nullspace``'s decision in numpy: the merged values under ``_numpy_rank_decision``,
    and each block's rank counted at the one cut.  Returns (ranks, NullspaceResult)."""
    count, _, cols = blocks.shape
    each = np.linalg.svd(blocks, compute_uv=False)
    rank, sigma_max, margin = (x.item() for x in _numpy_rank_decision(
        merged_singular_values(each), rel_tol))
    cut = rel_tol * sigma_max
    ranks = np.count_nonzero(each >= cut if cut else each, axis=-1)
    basis = np.zeros((count * cols - rank, count, cols), dtype=np.complex128)
    found = 0
    for k in np.flatnonzero(ranks < cols):
        null = _right_factors(blocks[k])[1][ranks[k]:].conj()
        basis[found:found + len(null), k] = null
        found += len(null)
    return ranks, NullspaceResult(len(basis), basis.reshape(len(basis), count * cols),
                                  sigma_max, margin)


def test_block_nullspace_decides_as_the_numpy_rule_bit_for_bit():
    # random stacks whose blocks differ in rank and scale, blocks without rows, all-zero
    # blocks and stacks, and singular values exactly on the cut; the Python-float decision
    # gives the numpy rule's dimension, sigma_max, margin and basis, and so its block ranks
    rng = np.random.default_rng(19)
    on_cut = np.zeros((3, 3, 2), dtype=np.complex128)
    on_cut[0, :2, :2] = np.diag([1.0, 1e-9])  # 1e-9 = 1e-9 * sigma_max: kept
    on_cut[1, :2, :2] = np.diag([0.5, 1e-9])
    on_cut[2, 0, 0] = 1e-9 * (1 - 2 ** -52)  # just under the cut: dropped
    assert 1e-9 in np.linalg.svd(on_cut, compute_uv=False)
    with_zero = _blocks_of_rank(rng, [2, 1, 3], 4, 3)
    with_zero[1] = 0.0
    cases = [on_cut, with_zero, np.zeros((3, 0, 4)), np.zeros((2, 5, 4)),
             np.zeros((1, 1, 1)), _blocks_of_rank(rng, [1], 1, 1)]
    for _ in range(60):
        count, rows, cols = rng.integers(1, 5), rng.integers(1, 8), rng.integers(1, 6)
        blocks = _blocks_of_rank(rng, rng.integers(0, min(rows, cols) + 1, count), rows, cols)
        blocks *= 10.0 ** rng.integers(-12, 3, count)[:, None, None]
        cases.append(blocks)
    for rel_tol in (1e-9, 1e-320, 0.5, 2.0):
        for blocks in cases:
            ranks, expected = _numpy_block_nullspace(blocks, rel_tol)
            got = block_nullspace(blocks, rel_tol)
            assert got.dimension == expected.dimension == blocks.shape[0] * blocks.shape[2] - (
                ranks.sum())
            assert type(got.sigma_max) is float and type(got.margin) is float
            assert (got.sigma_max, got.margin) == (expected.sigma_max, expected.margin)
            assert got.basis.tobytes() == expected.basis.tobytes(), (blocks.shape, rel_tol)
    on_cut_ranks, _ = _numpy_block_nullspace(on_cut, 1e-9)
    assert list(on_cut_ranks) == [2, 2, 0] and block_nullspace(on_cut).dimension == 2


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
