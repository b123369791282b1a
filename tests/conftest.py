import numpy as np
import pytest

from qreflect import intertwiners


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def generic_point(rng):
    """A (q, x) pair away from roots of unity and rapidity degeneracies."""
    q = rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(0.15, 1.2))
    x = np.exp(rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.7, 0.7))
    return q, x


def eps_star(q):
    """Boundary parameter scale at which the engine coideal system solves."""
    return 1 / np.sqrt((1 - q) * (1 - 1 / q))


def engine_point(n, q, thetas, eps):
    """Normalized K and S channels of one engine-convention point.

    Wraps ``qreflect.intertwiners.engine_point``; returns None if any
    channel's solution space fails to be one-dimensional.
    """
    solved = intertwiners.engine_point(n, q, thetas, eps)
    if any(sol.dimension != 1 for sol in solved.values()):
        return None
    return {key: sol.normalized for key, sol in solved.items()}
