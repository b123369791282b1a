"""Result record for the numerical verification checks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VerificationReport:
    """Outcome of one projective identity check.

    ``lam`` is the single scalar recovered by the comparison (identities
    hold only up to one overall factor), ``deviation`` the relative
    Frobenius mismatch after dividing that scalar out.
    """

    name: str
    deviation: float
    lam: complex
    tol: float
    passed: bool
