import tracemalloc
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
from qreflect.linalg import (
    DEFAULT_REL_TOL,
    VerificationReport,
    embed_on_legs,
    flip_operator,
    kron,
)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coideal_property_detects_a_corrupt_last_node(monkeypatch, n):
    # the stacked comparison must reach node n: corrupt only its Q, Qbar or q^T image
    rep_a, rep_b = vector_rep(n, Q_REF, np.exp(0.7)), vector_rep(n, Q_REF, np.exp(0.23))
    eps = np.arange(1, n + 2) + 0.5j
    assert check_coideal_property(rep_a, rep_b, eps).passed
    for kind in range(3):
        delta = coproduct(rep_a, rep_b)
        delta[kind * rep_a.nodes + n] += 1e-6 * np.eye(delta.shape[-1])
        monkeypatch.setattr(checks, "coproduct", lambda a, b, delta=delta: delta)
        assert not check_coideal_property(rep_a, rep_b, eps).passed


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


@pytest.mark.parametrize("n", [1, 2])
def test_b_commutation_detects_a_perturbed_last_block(n):
    objs = engine_point(n, Q_REF, THETAS[:2], (eps_star(Q_REF),) * (n + 1))
    b_nu, b_nub = _b_pair(objs, n)
    assert check_b_commutation(b_nu, b_nub, objs["k_nu"], tol=1e-8).passed
    bad = b_nub.copy()
    bad[-(n + 1):, -(n + 1):] *= 1.02
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


def _misfit(shape_of):
    """A finite matrix one size up from ``shape_of``'s, which no leg dims accept."""
    rows, cols = np.shape(shape_of)
    return np.ones((rows + 1, cols + 1))


@pytest.mark.parametrize("which", range(3))
def test_ybe_refuses_a_factor_off_its_dims(which):
    channels = list(_ybe_channels(1))
    channels[which] = _misfit(channels[which])
    with pytest.raises(ValueError):
        check_ybe(*channels, (2, 2, 2))
    with pytest.raises(ValueError):
        check_ybe(*_ybe_channels(1), (2, 2, 3))


@pytest.mark.parametrize("key", ["k_mu", "k_nu", "s_mn", "s_m_nb", "s_n_mb", "s_nb_mb"])
def test_reflection_equation_refuses_a_factor_off_its_dims(key):
    objs = engine_point(1, Q_REF, THETAS[:2], (1.0, 1.0))
    with pytest.raises(ValueError):
        _re_report(dict(objs, **{key: _misfit(objs[key])}))


@pytest.mark.parametrize("key", ["b1", "b2", "r_mu_nu", "r_mu_nubar", "prp_nubar_mubar",
                                 "prp_nu_mubar", "dims"])
def test_sklyanin_refuses_a_factor_off_its_dims(key):
    b1, b2, r_set, _ = _sklyanin_inputs(1, (1.0, 1.0))
    blocks = dict(r_set, b1=b1, b2=b2)
    blocks[key] = (2, 2, 3) if key == "dims" else _misfit(blocks[key])
    r_set = {k: v for k, v in blocks.items() if k not in ("b1", "b2")}
    with pytest.raises(ValueError):
        check_sklyanin(blocks["b1"], blocks["b2"], r_set, tol=1e-8)


@pytest.mark.parametrize("which", range(3))
def test_eval_b_matrix_refuses_a_factor_off_its_dims(which):
    objs = engine_point(1, Q_REF, THETAS, (1.0, 1.0))
    args = [objs["k_mu"], plain_r(objs["s_ml"], 2, 2),
            opposite_r(plain_r(objs["s_l_mb"], 2, 2), 2, 2)]
    assert eval_b_matrix(*args).shape == (4, 4)
    args[which] = _misfit(args[which])
    with pytest.raises(ValueError):
        eval_b_matrix(*args)


# The dense compositions the checks replaced, kept as their oracle: every factor embedded on its
# legs as a dense N^3 x N^3 (or N^2 x N^2) matrix, the sides multiplied out.
ROUNDOFF = 1e-12  # most |deviation| and |lambda| / |lambda| may move between the two


def _dense_ybe(s_ab, s_ac, s_bc, dims, tol=1e-8):
    d_a, d_b, d_c = dims
    lhs = (embed_on_legs(s_ab, (1, 2), (d_c, d_a, d_b))
           @ embed_on_legs(s_ac, (0, 1), (d_a, d_c, d_b))
           @ embed_on_legs(s_bc, (1, 2), (d_a, d_b, d_c)))
    rhs = (embed_on_legs(s_bc, (0, 1), (d_b, d_c, d_a))
           @ embed_on_legs(s_ac, (1, 2), (d_b, d_a, d_c))
           @ embed_on_legs(s_ab, (0, 1), (d_a, d_b, d_c)))
    return VerificationReport.projective("yang-baxter", lhs, rhs, tol)


def _dense_reflection_equation(k_mu, k_nu, s_mn, s_m_nb, s_n_mb, s_nb_mb, tol=1e-8):
    (d_mub, d_mu), (d_nub, d_nu) = np.shape(k_mu), np.shape(k_nu)
    left = kron(np.eye(d_mub), k_nu) @ s_n_mb @ kron(np.eye(d_nu), k_mu) @ s_mn
    right = s_nb_mb @ kron(np.eye(d_nub), k_mu) @ s_m_nb @ kron(np.eye(d_mu), k_nu)
    return VerificationReport.projective("reflection-equation", left, right, tol)


def _dense_b(k_mu, r_in, r_op_out):
    d_lam = len(r_in) // np.shape(k_mu)[1]
    return r_op_out @ kron(k_mu, np.eye(d_lam)) @ r_in


def _dense_sklyanin(b1, b2, r_set, tol=1e-8):
    legs = r_set["dims"]
    lhs = (embed_on_legs(r_set["prp_nubar_mubar"], (0, 1), legs) @ embed_on_legs(b1, (0, 2), legs)
           @ embed_on_legs(r_set["r_mu_nubar"], (0, 1), legs) @ embed_on_legs(b2, (1, 2), legs))
    rhs = (embed_on_legs(b2, (1, 2), legs) @ embed_on_legs(r_set["prp_nu_mubar"], (0, 1), legs)
           @ embed_on_legs(b1, (0, 2), legs) @ embed_on_legs(r_set["r_mu_nu"], (0, 1), legs))
    return VerificationReport.projective("sklyanin-exchange", lhs, rhs, tol)


def _dense_blocks(objs, dim):
    """``engine_blocks`` with every B composed densely."""
    def r(key):
        return plain_r(objs[key], dim, dim)

    def prp(key):
        return opposite_r(r(key), dim, dim)

    r_set = {"dims": (dim, dim, dim), "r_mu_nu": r("s_mn"), "r_mu_nubar": r("s_m_nb"),
             "prp_nubar_mubar": prp("s_nb_mb"), "prp_nu_mubar": prp("s_n_mb")}
    return {"b_nu": _dense_b(objs["k_mu"], r_set["r_mu_nu"], r_set["prp_nu_mubar"]),
            "b_nub": _dense_b(objs["k_mu"], r_set["r_mu_nubar"], r_set["prp_nubar_mubar"]),
            "b1": _dense_b(objs["k_mu"], r("s_ml"), prp("s_l_mb")),
            "b2": _dense_b(objs["k_nu"], r("s_nl"), prp("s_l_nb")), "r_set": r_set}


def _assert_as_dense(report, oracle):
    assert (report.name, report.passed, report.tol) == (oracle.name, oracle.passed, oracle.tol)
    assert abs(report.deviation - oracle.deviation) <= ROUNDOFF
    assert abs(report.lam - oracle.lam) <= ROUNDOFF * abs(oracle.lam)


def _assert_boundary_checks_as_dense(objs, n):
    """RE, the B blocks, b-comm and Sklyanin at one engine point, each against its oracle."""
    args = [objs[key] for key in ("k_mu", "k_nu", "s_mn", "s_m_nb", "s_n_mb", "s_nb_mb")]
    _assert_as_dense(check_reflection_equation(*args), _dense_reflection_equation(*args))
    blocks, dense = engine_blocks(objs, n + 1), _dense_blocks(objs, n + 1)
    for key in ("b_nu", "b_nub", "b1", "b2"):
        scale = np.abs(dense[key]).max()
        assert np.allclose(blocks[key], dense[key], rtol=0, atol=ROUNDOFF * scale)
    _assert_as_dense(check_b_commutation(blocks["b_nu"], blocks["b_nub"], objs["k_nu"]),
                     check_b_commutation(dense["b_nu"], dense["b_nub"], objs["k_nu"]))
    _assert_as_dense(check_sklyanin(blocks["b1"], blocks["b2"], blocks["r_set"]),
                     _dense_sklyanin(dense["b1"], dense["b2"], dense["r_set"]))


@pytest.mark.parametrize("n", range(1, 9))
def test_ybe_gives_the_dense_verdict(n):
    # verify ybe's solves at n = 1..8, the same triple with one S entry moved by 1e-6, which
    # must fail, and with a transposed S: vector x vector braidings are symmetric, so that one
    # passes, as it does densely
    channels = list(_ybe_channels(n))
    dims = (n + 1,) * 3
    moved = channels[1].copy()
    moved.flat[np.flatnonzero(moved)[-1]] *= 1 + 1e-6
    for triple, passes in ((channels, True), ([channels[0], moved, channels[2]], False),
                           ([channels[0], channels[1], channels[2].T], True)):
        report = check_ybe(*triple, dims)
        assert report.passed == passes
        _assert_as_dense(report, _dense_ybe(*triple, dims))


@pytest.mark.parametrize("n", range(1, 7))
def test_boundary_checks_give_the_dense_verdicts(n):
    # the README's verify re, b-comm and sklyanin points at n = 1..6 (eps = 1 at n = 1, eps* at
    # n >= 2), then broken inputs, which must fail: one K entry moved by 1e-6, a K solved at
    # another eps and, from n = 2 on, where vector x dual braidings are not symmetric, a
    # transposed S
    eps = (1.0, 1.0) if n == 1 else (eps_star(Q_REF),) * (n + 1)
    objs = engine_point(n, Q_REF, THETAS, eps)
    keys = ("k_mu", "k_nu", "s_mn", "s_m_nb", "s_n_mb", "s_nb_mb")
    assert check_reflection_equation(*(objs[key] for key in keys)).passed
    _assert_boundary_checks_as_dense(objs, n)
    moved = objs["k_mu"].copy()
    moved.flat[np.flatnonzero(moved)[-1]] *= 1 + 1e-6
    other = engine_point(n, Q_REF, THETAS, (1.0, -1.0) if n == 1 else (-eps_star(Q_REF),) * (n + 1))
    broken = [{"k_mu": moved}, {"k_mu": other["k_mu"]}]
    if n >= 2:
        broken.append({"s_m_nb": objs["s_m_nb"].T})
    for change in broken:
        inputs = dict(objs, **change)
        assert not check_reflection_equation(*(inputs[key] for key in keys)).passed
        blocks = engine_blocks(inputs, n + 1)
        assert not check_sklyanin(blocks["b1"], blocks["b2"], blocks["r_set"]).passed
        _assert_boundary_checks_as_dense(inputs, n)


@settings(derandomize=True, database=None, deadline=3000, max_examples=12)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_boundary_checks_give_the_dense_verdicts_at_random_engine_points(n, seed):
    rng = np.random.default_rng(seed)
    solved = _solve_random_engine_point(n, generic_point(rng)[0], rng)
    _assert_boundary_checks_as_dense({key: sol.normalized for key, sol in solved.items()}, n)


def _random_factor(rng, rows, cols, density):
    """A random complex matrix with about ``density`` of its entries nonzero."""
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return m * (rng.random((rows, cols)) < density)


@settings(derandomize=True, database=None, deadline=3000, max_examples=30)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), density=st.sampled_from([0.1, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_checks_compose_as_dense_on_random_factors_of_unequal_dims(dims, density, seed):
    # every leg its own dim, so a mix-up of legs or strides shows in the deviation; sparse
    # factors also reach exact cancellations and all-zero sides
    rng = np.random.default_rng(seed)
    d_a, d_b, d_c = dims
    s_ab, s_ac, s_bc = (_random_factor(rng, x * y, x * y, density)
                        for x, y in ((d_a, d_b), (d_a, d_c), (d_b, d_c)))
    try:
        oracle = _dense_ybe(s_ab, s_ac, s_bc, dims)
    except ValueError:  # both sides zero
        with pytest.raises(ValueError, match="degenerate"):
            check_ybe(s_ab, s_ac, s_bc, dims)
    else:
        _assert_as_dense(check_ybe(s_ab, s_ac, s_bc, dims), oracle)
    d_mu, d_nu, d_mub, d_nub = rng.integers(1, 4, size=4)
    re_args = [_random_factor(rng, *shape, density) for shape in (
        (d_mub, d_mu), (d_nub, d_nu), (d_nu * d_mu, d_mu * d_nu), (d_nub * d_mu, d_mu * d_nub),
        (d_mub * d_nu, d_nu * d_mub), (d_mub * d_nub, d_nub * d_mub))]
    try:
        oracle = _dense_reflection_equation(*re_args)
    except ValueError:
        with pytest.raises(ValueError, match="degenerate"):
            check_reflection_equation(*re_args)
    else:
        _assert_as_dense(check_reflection_equation(*re_args), oracle)
    k_mu, r_in = re_args[0], _random_factor(rng, d_mu * d_c, d_mu * d_c, density)
    r_op_out = _random_factor(rng, d_mub * d_c, d_mub * d_c, density)
    assert np.allclose(eval_b_matrix(k_mu, r_in, r_op_out), _dense_b(k_mu, r_in, r_op_out),
                       rtol=0, atol=1e-13 * max(1.0, np.abs(_dense_b(k_mu, r_in, r_op_out)).max()))


@pytest.mark.parametrize("seed", range(4))
def test_ybe_compares_sides_of_one_size_on_the_union_of_their_supports(seed):
    # permutations with phases: each side holds one entry per column, so the two supports have
    # the same size but, unless the braid relation holds, not the same keys
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    factors = []
    for size in (6, 4, 6):
        factor = np.zeros((size, size), dtype=complex)
        factor[rng.permutation(size), np.arange(size)] = np.exp(2j * np.pi * rng.random(size))
        factors.append(factor)
    _assert_as_dense(check_ybe(*factors, dims), _dense_ybe(*factors, dims))


def test_reflection_equation_composes_as_dense_through_dense_steps(rng):
    # dense factors whose K's change the leg dims, mu 6 -> 9 and nu 7 -> 8: the K steps hold
    # more terms than a dense side has entries, so they are contracted densely
    (d_mu, d_mub), (d_nu, d_nub) = (6, 9), (7, 8)
    args = [_random_factor(rng, *shape, 1.0) for shape in (
        (d_mub, d_mu), (d_nub, d_nu), (d_nu * d_mu, d_mu * d_nu), (d_nub * d_mu, d_mu * d_nub),
        (d_mub * d_nu, d_nu * d_mub), (d_mub * d_nub, d_nub * d_mub))]
    _assert_as_dense(check_reflection_equation(*args), _dense_reflection_equation(*args))


@pytest.mark.parametrize("dims", [(4, 4, 4), (3, 4, 5)])
def test_dense_steps_compare_sides_on_the_union_of_their_supports(dims, rng):
    # dense S_ac and S_bc and an S_ab with one zero row: both sides end in dense steps, and the
    # side that applies S_ab last misses that row's keys, which the other side holds
    d_a, d_b, d_c = dims
    s_ab, s_ac, s_bc = (_random_factor(rng, x * y, x * y, 1.0)
                        for x, y in ((d_a, d_b), (d_a, d_c), (d_b, d_c)))
    s_ab[1] = 0
    with mock.patch.object(checks, "_dense_step", wraps=checks._dense_step) as dense_step:
        report = check_ybe(s_ab, s_ac, s_bc, dims)
    assert dense_step.call_count == 4  # the last two steps of each side
    _assert_as_dense(report, _dense_ybe(s_ab, s_ac, s_bc, dims))


def _dense_random_inputs(n, rng):
    size = (n + 1) ** 2
    triple = [_random_factor(rng, size, size, 1.0) for _ in range(3)]
    r_set = {key: _random_factor(rng, size, size, 1.0) for key in
             ("r_mu_nu", "r_mu_nubar", "prp_nubar_mubar", "prp_nu_mubar")}
    return triple, _random_factor(rng, size, size, 1.0), _random_factor(rng, size, size, 1.0), \
        dict(r_set, dims=(n + 1,) * 3)


def _peak_bytes(fn, *args):
    checks._leg_plan.cache_clear()
    tracemalloc.start()
    try:
        report = fn(*args)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [3, 4])
def test_dense_factors_give_the_dense_verdict_within_twice_its_memory(n, rng):
    # every entry nonzero: the composed sides hold one dense side each, and no step holds more
    # terms at once than a dense side has entries, so the peak stays within 2x the dense one's
    triple, b1, b2, r_set = _dense_random_inputs(n, rng)
    dims = (n + 1,) * 3
    for fn, oracle, args in ((check_ybe, _dense_ybe, (*triple, dims)),
                             (check_sklyanin, _dense_sklyanin, (b1, b2, r_set))):
        fn(*args), oracle(*args)  # first calls, so that no import or first-use cost is counted
        report, peak = _peak_bytes(fn, *args)
        dense_report, dense_peak = _peak_bytes(oracle, *args)
        _assert_as_dense(report, dense_report)
        assert not report.passed
        assert peak <= 2 * dense_peak, (fn.__name__, peak, dense_peak)


def _held_bytes(fn, *args):
    """Bytes a call of ``fn`` leaves allocated, its plans, on a cleared plan cache."""
    fn(*args)  # a first call, so that no import or first-use allocation is counted
    checks._leg_plan.cache_clear()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("inputs", ["dense ybe", "dense sklyanin", "solved ybe"])
def test_cached_plans_hold_at_most_plan_terms_per_step(inputs, rng):
    # a cached plan holds at most _PLAN_TERMS terms of <= 40 bytes (its source, position, start
    # and output key, and its key's input pattern), and larger steps are planned per call, so
    # the cache keeps at most that much per step after dense factors at n = 4 (a dense side is
    # 250 KB) or the solved n = 11 triple, whose larger steps hold up to 12 696 terms
    triple, b1, b2, r_set = _dense_random_inputs(4, rng)
    fn, args, steps = {"dense ybe": (check_ybe, (*triple, (5, 5, 5)), 6),
                       "dense sklyanin": (check_sklyanin, (b1, b2, r_set), 8),
                       "solved ybe": (check_ybe, (*_ybe_channels(11), (12, 12, 12)), 6)}[inputs]
    assert _held_bytes(fn, *args) <= steps * 40 * checks._PLAN_TERMS
