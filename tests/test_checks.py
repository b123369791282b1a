from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import engine_point, eps_star, generic_point
from qreflect import checks, intertwiners
from qreflect.checks import (
    check_b_commutation,
    check_coideal_property,
    check_reflection_equation,
    check_sklyanin,
    check_ybe,
    engine_blocks,
    eval_b_matrix,
    opposite_r,
    plain_r,
)
from qreflect.intertwiners import _solve_stacked, solve_bulk
from qreflect.linalg import DEFAULT_REL_TOL, flip_operator
from qreflect.reps import coproduct, vector_rep

Q_REF = 0.8 * np.exp(0.3j)
THETAS = (0.7, 0.23, -0.41)


def _ybe_channels(n):
    xa, xb, xc = (np.exp(t) for t in THETAS)
    ra, rb, rc = (vector_rep(n, Q_REF, v) for v in (xa, xb, xc))
    return (
        solve_bulk(ra, rb).normalized,
        solve_bulk(ra, rc).normalized,
        solve_bulk(rb, rc).normalized,
    )


@pytest.mark.parametrize("n", [1, 2])
def test_ybe_passes(n):
    s_ab, s_ac, s_bc = _ybe_channels(n)
    dim = n + 1
    report = check_ybe(s_ab, s_ac, s_bc, (dim, dim, dim), tol=1e-8)
    assert report.passed
    assert report.deviation < 1e-12


@settings(derandomize=True, database=None, deadline=2000, max_examples=16)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_ybe_holds_on_solve_bulk_triples_at_random_points(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = generic_point(rng)
    thetas = rng.uniform(-0.9, 0.9, 3) + 1j * rng.uniform(-0.7, 0.7, 3)
    ra, rb, rc = (vector_rep(n, q, np.exp(t)) for t in thetas)
    solutions = [solve_bulk(a, b) for a, b in ((ra, rb), (ra, rc), (rb, rc))]
    assert [s.dimension for s in solutions] == [1, 1, 1]
    report = check_ybe(*(s.normalized for s in solutions), (n + 1,) * 3)
    assert report.passed, report.deviation


def test_ybe_detects_random_matrix(rng):
    s_ab, s_ac, s_bc = _ybe_channels(1)
    junk = rng.normal(size=s_ab.shape) + 1j * rng.normal(size=s_ab.shape)
    assert not check_ybe(junk, s_ac, s_bc, (2, 2, 2), tol=1e-8).passed


def test_ybe_scale_blind():
    s_ab, s_ac, s_bc = _ybe_channels(1)
    base = check_ybe(s_ab, s_ac, s_bc, (2, 2, 2), tol=1e-8)
    scaled = check_ybe(5.0 * s_ab, s_ac, s_bc, (2, 2, 2), tol=1e-8)
    assert base.passed == scaled.passed
    assert abs(scaled.deviation - base.deviation) < 1e-10


def _re_report(objs, tol=1e-8):
    return check_reflection_equation(
        objs["k_mu"], objs["k_nu"], objs["s_mn"], objs["s_m_nb"],
        objs["s_n_mb"], objs["s_nb_mb"], tol,
    )


def test_reflection_equation_zero_eps():
    objs = engine_point(1, Q_REF, THETAS[:2], (0.0, 0.0))
    assert objs is not None
    report = _re_report(objs)
    assert report.passed and report.deviation < 1e-12


def test_reflection_equation_n2_star_locus():
    star = eps_star(Q_REF)
    objs = engine_point(2, Q_REF, THETAS[:2], (star,) * 3)
    assert objs is not None
    assert _re_report(objs).passed


def test_reflection_equation_detects_corruption():
    objs = engine_point(1, Q_REF, THETAS[:2], (1.0, 1.0))
    corrupted = dict(objs)
    bad = objs["k_mu"].copy()
    bad[0, 1] *= 1.01
    corrupted["k_mu"] = bad
    assert _re_report(objs).passed
    assert not _re_report(corrupted).passed


def test_coideal_property_machine_precision(rng):
    for n in (1, 2, 3, 4):
        q = 0.8 * np.exp(0.3j)
        rep_a = vector_rep(n, q, np.exp(0.7))
        rep_b = vector_rep(n, q, np.exp(0.23))
        eps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        report = check_coideal_property(rep_a, rep_b, eps, tol=1e-12)
        assert report.passed
        assert report.deviation < 1e-13


def test_coideal_property_seed7():
    rng = np.random.default_rng(7)
    eps = rng.normal(size=3) + 1j * rng.normal(size=3)
    rep_a = vector_rep(2, Q_REF, np.exp(0.7))
    rep_b = vector_rep(2, Q_REF, np.exp(0.23))
    assert check_coideal_property(rep_a, rep_b, eps, tol=1e-12).passed


def test_coideal_property_rejects_bad_input():
    rep_a = vector_rep(2, Q_REF, np.exp(0.7))
    rep_b = vector_rep(2, Q_REF, np.exp(0.23))
    with pytest.raises(ValueError, match="positive and finite"):
        check_coideal_property(rep_a, rep_b, (1, 0, -1), tol=-1)
    with pytest.raises(ValueError, match="finite"):
        check_coideal_property(rep_a, rep_b, (1, np.nan, -1))


def test_coideal_property_nan_defect_fails(monkeypatch):
    # generators with NaN entries are rejected earlier, so feed the NaN defect directly
    defects = iter([0.0, float("nan"), 0.0])
    monkeypatch.setattr(checks, "relative_defect", lambda lhs, rhs: next(defects))
    rep_a = vector_rep(2, Q_REF, np.exp(0.7))
    rep_b = vector_rep(2, Q_REF, np.exp(0.23))
    report = check_coideal_property(rep_a, rep_b, (1, 0, -1))
    assert np.isnan(report.deviation) and not report.passed


def test_ybe_rejects_nan_tolerance():
    s_ab, s_ac, s_bc = _ybe_channels(1)
    with pytest.raises(ValueError, match="positive and finite"):
        check_ybe(s_ab, s_ac, s_bc, (2, 2, 2), tol=float("nan"))


def test_coideal_property_zero_eps():
    rep_a = vector_rep(2, Q_REF, np.exp(0.7))
    rep_b = vector_rep(2, Q_REF, np.exp(0.23))
    assert check_coideal_property(rep_a, rep_b, (0, 0, 0), tol=1e-12).passed


def _b_pair(objs, n):
    blocks = engine_blocks(objs, n + 1)
    return blocks["b_nu"], blocks["b_nub"]


def test_eval_b_matrix_typing_and_linearity():
    objs = engine_point(1, Q_REF, THETAS[:2], (1.0, 1.0))
    b_nu, _ = _b_pair(objs, 1)
    assert b_nu.shape == (4, 4)
    norm = np.linalg.norm(b_nu)
    assert 1e-6 < norm < 1e6
    zero, _ = _b_pair(dict(objs, k_mu=np.zeros_like(objs["k_mu"])), 1)
    assert np.all(zero == 0)


def test_eval_b_matrix_shape_guard():
    with pytest.raises(ValueError):
        eval_b_matrix(np.eye(2), np.eye(5), np.eye(4))


@pytest.mark.parametrize(
    "n,eps_of_q",
    [(1, lambda q: (1.0, 1.0)), (2, lambda q: (eps_star(q),) * 3)],
)
def test_b_commutation_common_scalar(n, eps_of_q):
    objs = engine_point(n, Q_REF, THETAS[:2], eps_of_q(Q_REF))
    b_nu, b_nub = _b_pair(objs, n)
    report = check_b_commutation(b_nu, b_nub, objs["k_nu"], tol=1e-8)
    assert report.passed
    assert report.deviation < 1e-12


def test_b_commutation_detects_block_perturbation():
    objs = engine_point(1, Q_REF, THETAS[:2], (1.0, 1.0))
    b_nu, b_nub = _b_pair(objs, 1)
    bad = b_nub.copy()
    bad[0:2, 0:2] *= 1.02
    assert not check_b_commutation(b_nu, bad, objs["k_nu"], tol=1e-8).passed


def test_b_commutation_k_scale_cancels():
    objs = engine_point(1, Q_REF, THETAS[:2], (1.0, 1.0))
    b_nu, b_nub = _b_pair(objs, 1)
    base = check_b_commutation(b_nu, b_nub, objs["k_nu"], tol=1e-8)
    scaled = check_b_commutation(b_nu, b_nub, 5.0 * objs["k_nu"], tol=1e-8)
    assert scaled.passed
    assert abs(scaled.lam - base.lam) < 1e-10


def _sklyanin_inputs(n, eps):
    objs = engine_point(n, Q_REF, THETAS, eps)
    blocks = engine_blocks(objs, n + 1)
    return blocks["b1"], blocks["b2"], blocks["r_set"], objs


@pytest.mark.parametrize(
    "n,eps_of_q",
    [(1, lambda q: (1.0, 1.0)), (2, lambda q: (eps_star(q),) * 3)],
)
def test_sklyanin_exchange_passes(n, eps_of_q):
    b1, b2, r_set, _ = _sklyanin_inputs(n, eps_of_q(Q_REF))
    report = check_sklyanin(b1, b2, r_set, tol=1e-8)
    assert report.passed
    assert report.deviation < 1e-12


def _solve_random_engine_point(n, q, rng):
    """``engine_point`` at complex rapidities and eps = +-eps* per node, drawn from ``rng``."""
    thetas = list(rng.uniform(-0.9, 0.9, 3) + 1j * rng.uniform(-0.7, 0.7, 3))
    eps = tuple(eps_star(q) * rng.choice([1.0, -1.0], size=n + 1))
    return intertwiners.engine_point(n, q, thetas, eps)


def _assert_re_and_sklyanin(solved, n):
    objs = {key: sol.normalized for key, sol in solved.items()}
    report = _re_report(objs)
    assert report.passed, report.deviation
    blocks = engine_blocks(objs, n + 1)
    report = check_sklyanin(blocks["b1"], blocks["b2"], blocks["r_set"], tol=1e-8)
    assert report.passed, report.deviation


@settings(derandomize=True, database=None, deadline=3000, max_examples=24)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_reflection_equation_and_sklyanin_hold_at_random_engine_points(n, seed):
    # generic q and complex rapidities, eps = +-eps* per node: every one of the ten channels
    # (two K, eight S in all vector/dual flavours) is one-dimensional and both checks pass
    rng = np.random.default_rng(seed)
    solved = _solve_random_engine_point(n, generic_point(rng)[0], rng)
    assert {key: sol.dimension for key, sol in solved.items()} == dict.fromkeys(solved, 1)
    _assert_re_and_sklyanin(solved, n)


@settings(derandomize=True, database=None, deadline=3000, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_reflection_equation_and_sklyanin_hold_at_random_engine_points_at_n5(seed):
    rng = np.random.default_rng(seed)
    solved = _solve_random_engine_point(5, generic_point(rng)[0], rng)
    assert {key: sol.dimension for key, sol in solved.items()} == dict.fromkeys(solved, 1)
    _assert_re_and_sklyanin(solved, 5)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 1e-2])
@settings(derandomize=True, database=None, deadline=3000, max_examples=3)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_engine_points_near_low_roots_of_unity_pass_or_are_flagged(k, delta, n, seed):
    # q = e^{2 pi i/k} (1 + delta): a doubtful rank must show, as a channel of dimension other
    # than 1 or a near-threshold flag, and a point that shows neither passes both checks.  At
    # n <= 2 each bulk channel has the dimension of its system on every entry, so the weight
    # support keeps every unknown that near-coincident weights need.
    q = np.exp(2j * np.pi / k) * (1 + delta)
    channels = []

    def recording(a, b):
        channels.append((a, b))
        return solve_bulk(a, b)

    with mock.patch.object(intertwiners, "solve_bulk", recording):
        solved = _solve_random_engine_point(n, q, np.random.default_rng(seed))
    bulk = [sol for key, sol in solved.items() if key.startswith("s_")]
    assert len(channels) == len(bulk) == 8
    if n <= 2:
        for (a, b), sol in zip(channels, bulk):
            full = _solve_stacked(coproduct(a, b), coproduct(b, a), DEFAULT_REL_TOL)
            assert sol.dimension == full.dimension
    if all(sol.dimension == 1 and "near-threshold" not in sol.flags for sol in solved.values()):
        _assert_re_and_sklyanin(solved, n)


def test_sklyanin_detects_corrupt_k():
    b1, b2, r_set, objs = _sklyanin_inputs(1, (1.0, 1.0))
    bad_k = objs["k_mu"].copy()
    bad_k[0, 0] *= 1.03
    bad_b1 = engine_blocks(dict(objs, k_mu=bad_k), 2)["b1"]
    assert not check_sklyanin(bad_b1, b2, r_set, tol=1e-8).passed


def test_sklyanin_missing_channel_guard():
    b1, b2, r_set, _ = _sklyanin_inputs(1, (1.0, 1.0))
    incomplete = {k: v for k, v in r_set.items() if k != "r_mu_nu"}
    with pytest.raises(ValueError):
        check_sklyanin(b1, b2, incomplete, tol=1e-8)


def test_plain_and_opposite_r_shape_guards():
    with pytest.raises(ValueError):
        plain_r(np.eye(5), 2, 2)
    with pytest.raises(ValueError):
        opposite_r(np.eye(5), 2, 2)


@pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2)])
def test_leg_swaps_match_flip_operator_on_unequal_legs(d_a, d_b, rng):
    size = d_a * d_b
    braiding = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    assert np.array_equal(plain_r(braiding, d_a, d_b), flip_operator(d_b, d_a) @ braiding)
    r_plain = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    expected = flip_operator(d_a, d_b) @ r_plain @ flip_operator(d_b, d_a)
    assert np.array_equal(opposite_r(r_plain, d_a, d_b), expected)


def test_b_commutation_on_a_rectangular_block_grid(rng):
    # 2 x 3 grid of 2 x 2 blocks with Mbar_ab = K M_ab K^-1: one common scalar
    k_nu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    blocks = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
    bar = k_nu @ blocks @ np.linalg.inv(k_nu)
    b_nu = blocks.swapaxes(1, 2).reshape(4, 6)
    b_nubar = bar.swapaxes(1, 2).reshape(4, 6)
    assert check_b_commutation(b_nu, 2.5 * b_nubar, k_nu).passed
    b_nubar[0:2, 4:6] *= 3.0  # block (0, 2) alone gets another scalar
    assert not check_b_commutation(b_nu, b_nubar, k_nu).passed
