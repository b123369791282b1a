"""Nonlinear consistency checks built out of solved intertwiners.

All identities here are expected to hold only projectively: each check
recovers a single scalar and reports the relative deviation after dividing
it out.  Per-channel normalizations of the inputs therefore never matter,
and multiplying any one input by a nonzero scalar cannot flip a verdict.

R-matrix conventions: a braiding S maps V_a x V_b -> V_b x V_a; the plain
R on V_a x V_b is flip . S, and the opposite R on V_b x V_a is the
flip-conjugation P R P of the plain one.
"""

from __future__ import annotations

import numpy as np

from .linalg import VerificationReport, as_matrix, embed_on_legs, kron, relative_defect
from .reps import EvaluationRep, as_boundary_params, coideal_generators, coproduct


def plain_r(braiding, d_a: int, d_b: int) -> np.ndarray:
    """Plain R-matrix on V_a x V_b from the braiding V_a x V_b -> V_b x V_a."""
    braiding = as_matrix(braiding)
    if braiding.shape != (d_b * d_a, d_a * d_b):
        raise ValueError(f"braiding shape {braiding.shape} does not match dims ({d_a},{d_b})")
    cols = braiding.shape[1]
    return braiding.reshape(d_b, d_a, cols).transpose(1, 0, 2).reshape(d_a * d_b, cols)


def opposite_r(r_plain, d_a: int, d_b: int) -> np.ndarray:
    """Opposite R on V_b x V_a: flip-conjugation P R P of plain R on V_a x V_b."""
    r_plain = as_matrix(r_plain)
    if r_plain.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"plain R shape {r_plain.shape} does not match dims ({d_a},{d_b})")
    size = d_a * d_b
    return r_plain.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(size, size)


def check_ybe(s_ab, s_ac, s_bc, dims, tol: float = 1e-8) -> VerificationReport:
    """Yang-Baxter equation in braid form on three legs.

    LHS = (1 x S_ab)(S_ac x 1)(1 x S_bc) against
    RHS = (S_bc x 1)(1 x S_ac)(S_ab x 1), both V_a V_b V_c -> V_c V_b V_a.
    """
    d_a, d_b, d_c = (int(d) for d in dims)
    s_ab, s_ac, s_bc = as_matrix(s_ab), as_matrix(s_ac), as_matrix(s_bc)
    lhs = (
        embed_on_legs(s_ab, (1, 2), (d_c, d_a, d_b))
        @ embed_on_legs(s_ac, (0, 1), (d_a, d_c, d_b))
        @ embed_on_legs(s_bc, (1, 2), (d_a, d_b, d_c))
    )
    rhs = (
        embed_on_legs(s_bc, (0, 1), (d_b, d_c, d_a))
        @ embed_on_legs(s_ac, (1, 2), (d_b, d_a, d_c))
        @ embed_on_legs(s_ab, (0, 1), (d_a, d_b, d_c))
    )
    return VerificationReport.projective("yang-baxter", lhs, rhs, tol)


def check_reflection_equation(
    k_mu, k_nu, s_mn, s_m_nb, s_n_mb, s_nb_mb, tol: float = 1e-8
) -> VerificationReport:
    """Reflection equation, composed exactly as the two boundary factorizations.

    Path_left  = (1 x K_nu) S_{nu mubar} (1 x K_mu) S_{mu nu}
    Path_right = S_{nubar mubar} (1 x K_mu) S_{mu nubar} (1 x K_nu)
    as maps V_mu x V_nu -> V_mubar x V_nubar.  All six inputs must be solved
    in one consistent convention (same conjugate representation objects).
    """
    k_mu, k_nu = as_matrix(k_mu), as_matrix(k_nu)
    d_mu = k_mu.shape[1]
    d_mub = k_mu.shape[0]
    d_nu = k_nu.shape[1]
    d_nub = k_nu.shape[0]
    eye = np.eye
    left = (
        kron(eye(d_mub), k_nu)
        @ as_matrix(s_n_mb)
        @ kron(eye(d_nu), k_mu)
        @ as_matrix(s_mn)
    )
    right = (
        as_matrix(s_nb_mb)
        @ kron(eye(d_nub), k_mu)
        @ as_matrix(s_m_nb)
        @ kron(eye(d_mu), k_nu)
    )
    if left.shape != right.shape:
        raise ValueError(f"path shapes disagree: {left.shape} vs {right.shape}")
    return VerificationReport.projective("reflection-equation", left, right, tol)


def check_coideal_property(
    rep_a: EvaluationRep, rep_b: EvaluationRep, eps, tol: float = 1e-12
) -> VerificationReport:
    """Left-coideal identity Delta(Qhat_i) = (Q_i+Qbar_i) x 1 + q^{T_i} x Qhat_i.

    Both sides expand to the same sum of Kronecker products, so the residual
    sits at machine precision; the check guards the assembly, not the algebra.
    """
    params = as_boundary_params(eps, rep_a.n)
    hats_b = coideal_generators(rep_b, params)
    eye_b = np.broadcast_to(np.eye(rep_b.dim, dtype=np.complex128), hats_b.shape)
    delta = coproduct(rep_a, rep_b)  # Q, Qbar and q^T images, kind-major
    q, qbar, d = delta.reshape(3, rep_a.nodes, *delta.shape[1:])
    lhs = q + qbar + np.array(params)[:, None, None] * d
    rhs = _kron_stack(rep_a.Q + rep_a.Qbar, eye_b) + _kron_stack(rep_a.D, hats_b)
    defects = [relative_defect(l, r) for l, r in zip(lhs, rhs)]
    return VerificationReport.worst_of("coideal-property", defects, tol)


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a[k] x b[k] of two (k, d, d) stacks, as one stack."""
    k, d_a, d_b = len(a), a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, d_a * d_b, d_a * d_b)


def eval_b_matrix(k_mu, r_in, r_op_out) -> np.ndarray:
    """Boundary transfer block B = R_op_out (K_mu x 1) R_in on V_mu x V_lambda.

    ``r_in`` is the plain R on V_mu x V_lambda, ``r_op_out`` the opposite R
    evaluated on V_mubar x V_lambda; the companion leg lambda is whatever
    finite representation the R's were evaluated in.
    """
    k_mu = as_matrix(k_mu)
    r_in = as_matrix(r_in)
    r_op_out = as_matrix(r_op_out)
    d_mub, d_mu = k_mu.shape
    if r_in.shape[0] != r_in.shape[1] or r_in.shape[0] % d_mu:
        raise ValueError(f"r_in shape {r_in.shape} incompatible with K columns {d_mu}")
    d_lam = r_in.shape[0] // d_mu
    if r_op_out.shape != (d_mub * d_lam, d_mub * d_lam):
        raise ValueError(f"r_op_out shape {r_op_out.shape} incompatible with K rows {d_mub}")
    return r_op_out @ np.kron(k_mu, np.eye(d_lam, dtype=np.complex128)) @ r_in


def engine_blocks(matrices: dict, dim: int) -> dict:
    """B blocks and Sklyanin R set built from normalized ``engine_point`` channels.

    Returns ``b_nu``/``b_nub`` (companion leg nu/nubar), the ``r_set`` that
    check_sklyanin takes and, when the lambda channels are present,
    ``b1``/``b2`` (K_mu/K_nu with companion leg lambda).  Every leg has
    dimension ``dim``.
    """
    def r(key):
        return plain_r(matrices[key], dim, dim)

    def prp(key):
        return opposite_r(r(key), dim, dim)

    k_mu = matrices["k_mu"]
    r_set = {"dims": (dim, dim, dim), "r_mu_nu": r("s_mn"), "r_mu_nubar": r("s_m_nb"),
             "prp_nubar_mubar": prp("s_nb_mb"), "prp_nu_mubar": prp("s_n_mb")}
    blocks = {
        "b_nu": eval_b_matrix(k_mu, r_set["r_mu_nu"], r_set["prp_nu_mubar"]),
        "b_nub": eval_b_matrix(k_mu, r_set["r_mu_nubar"], r_set["prp_nubar_mubar"]),
        "r_set": r_set,
    }
    if "s_ml" in matrices:
        blocks["b1"] = eval_b_matrix(k_mu, r("s_ml"), prp("s_l_mb"))
        blocks["b2"] = eval_b_matrix(matrices["k_nu"], r("s_nl"), prp("s_l_nb"))
    return blocks


def _blocks(b: np.ndarray, d_rows: int, d_cols: int, d_lam: int) -> np.ndarray:
    """The d_lam x d_lam blocks of ``b`` as a stack, row-major over block positions."""
    return b.reshape(d_rows, d_lam, d_cols, d_lam).swapaxes(1, 2).reshape(-1, d_lam, d_lam)


def check_b_commutation(b_with_nu, b_with_nubar, k_nu, tol: float = 1e-8) -> VerificationReport:
    """One common scalar c with K_nu M_ab = c Mbar_ab K_nu over all blocks.

    The blocks M_ab (Mbar_ab) are the companion-leg matrices of B evaluated
    with lambda = nu (lambda = nubar).  Stacking all blocks before the
    projective comparison is what makes the scalar common: a per-block
    scalar would hold vacuously.
    """
    b_nu = as_matrix(b_with_nu)
    b_nubar = as_matrix(b_with_nubar)
    k_nu = as_matrix(k_nu)
    d_nub, d_nu = k_nu.shape
    if b_nu.shape[0] % d_nu or b_nu.shape[1] % d_nu:
        raise ValueError("b_with_nu block size does not divide its shape")
    d_rows = b_nu.shape[0] // d_nu
    d_cols = b_nu.shape[1] // d_nu
    if b_nubar.shape != (d_rows * d_nub, d_cols * d_nub):
        raise ValueError(
            f"b_with_nubar shape {b_nubar.shape} incompatible with blocks "
            f"({d_rows},{d_cols}) of size {d_nub}"
        )
    lhs = (k_nu @ _blocks(b_nu, d_rows, d_cols, d_nu)).reshape(-1, d_nu)
    rhs = (_blocks(b_nubar, d_rows, d_cols, d_nub) @ k_nu).reshape(-1, d_nu)
    return VerificationReport.projective("b-commutation", lhs, rhs, tol)


def check_sklyanin(b1, b2, r_set: dict, tol: float = 1e-8) -> VerificationReport:
    """Quadratic exchange relation of the boundary blocks, evaluated on three legs.

    Legs are (mu, nu, lambda); b1 acts on legs (0, 2), b2 on legs (1, 2).
    ``r_set`` supplies the leg-(0,1) factors: plain "r_mu_nu" and
    "r_mu_nubar", plus the flip-conjugated "prp_nubar_mubar" and
    "prp_nu_mubar".  The comparison is

      PRP_{nubar mubar} B1 R_{mu nubar} B2  =  B2 PRP_{nu mubar} B1 R_{mu nu}

    up to one scalar, both sides V_mu V_nu V_lam -> V_mubar V_nubar V_lam.
    """
    b1 = as_matrix(b1)
    b2 = as_matrix(b2)
    required = ("r_mu_nu", "r_mu_nubar", "prp_nubar_mubar", "prp_nu_mubar")
    missing = [key for key in required if key not in r_set]
    if missing:
        raise ValueError(f"r_set missing channels: {missing}")
    d_mu, d_nu, d_lam = (int(d) for d in r_set["dims"])
    legs = (d_mu, d_nu, d_lam)
    lhs = (
        embed_on_legs(r_set["prp_nubar_mubar"], (0, 1), legs)
        @ embed_on_legs(b1, (0, 2), legs)
        @ embed_on_legs(r_set["r_mu_nubar"], (0, 1), legs)
        @ embed_on_legs(b2, (1, 2), legs)
    )
    rhs = (
        embed_on_legs(b2, (1, 2), legs)
        @ embed_on_legs(r_set["prp_nu_mubar"], (0, 1), legs)
        @ embed_on_legs(b1, (0, 2), legs)
        @ embed_on_legs(r_set["r_mu_nu"], (0, 1), legs)
    )
    return VerificationReport.projective("sklyanin-exchange", lhs, rhs, tol)
