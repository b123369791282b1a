"""Evaluation representations of the type-A affine quantum algebra.

The algebra is generated by raising/lowering charges Q_i, Qbar_i and the
group-like Cartan elements q^{T_i}, i = 0..n, with all node indices cyclic
mod N = n+1 (the affine node participates on equal footing).  Only the
group-like q^{+-T_i} are ever represented; T_i itself never appears.

A representation is stored as one complex (3, N, d, d) stack of generator
matrices in GENERATOR_ORDER (Q, Qbar, D = image of q^{T_i}; node index
minor) together with the deformation parameter q and the spectral
parameter x = e^theta.  The D_i are diagonal, so their inverses are read
off the diagonal where needed.  Many points are built at once as stacks
with leading axes (``vector_stack``, ``dual_stack``, ``coideal_stack``),
and the one-point builders are their one-point cases.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import VerificationReport, isclose, relative_defect

# Entries each cache keeps, least recently used first out.  A plan is keyed on shapes and
# nonzero patterns only, never on values such as q or x; the one cache keyed on values holds the
# bulk weight support and its qT rows, on the exact bytes of the factors' q^{T_i} diagonals,
# never on x.
PLAN_CACHE_SIZE = 128


def frozen(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only, so that a cached plan cannot be written through."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def last_axis(index, lead: tuple):
    """``index`` as an index into the last axis of arrays with the leading axes ``lead``.

    Without leading axes it is the bare index, which numpy takes by its fast
    one-dimensional path rather than the general one that ``(..., index)`` takes.
    """
    return (Ellipsis, index) if lead else index


def cartan_inner(n: int, i: int, j: int) -> int:
    """Inner product alpha_i . alpha_j of simple roots of affine type A_n.

    2 on the diagonal, -1 for cyclically adjacent nodes (n >= 2), and -2
    off-diagonal for n = 1 where the two roots are opposite.  Rows sum to
    zero.
    """
    if n < 1:
        raise ValueError("rank index n must be >= 1")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"node indices ({i},{j}) out of range 0..{n}")
    if i == j:
        return 2
    if n == 1:
        return -2
    d = (i - j) % (n + 1)
    return -1 if d in (1, n) else 0


#: Stacking order of generator kinds for intertwining systems (kind-major,
#: node index minor).  Fixed so residual reports are reproducible.
GENERATOR_ORDER = ("Q", "Qbar", "qT")


@dataclass(eq=False)
class EvaluationRep:
    """Generator matrices of one evaluation representation.

    ``gens`` is the (3, nodes, dim, dim) stack in GENERATOR_ORDER; ``Q``,
    ``Qbar`` and ``D`` are views of its three kinds.  ``x`` always records
    the spectral parameter of the underlying vector representation;
    ``is_dual`` marks whether the matrices have been passed through the
    antipode-transpose construction.  Representations compare and hash by
    identity; ``same_algebra`` compares their (n, q).
    """

    n: int
    q: complex
    x: complex
    is_dual: bool
    gens: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.gens = np.ascontiguousarray(self.gens, dtype=np.complex128)
        shape = self.gens.shape
        if len(shape) != 4 or shape[:3] != (len(GENERATOR_ORDER), self.n + 1, shape[-1]):
            raise ValueError(f"generator stack must have shape (3, {self.n + 1}, d, d), got {shape}")

    @property
    def nodes(self) -> int:
        """Number of generator triples (node indices 0..n)."""
        return self.n + 1

    @property
    def dim(self) -> int:
        """Dimension of the carrier space."""
        return self.gens.shape[-1]

    Q = property(lambda self: self.gens[0], doc="The Q_i, a view of ``gens``.")
    Qbar = property(lambda self: self.gens[1], doc="The Qbar_i, a view of ``gens``.")
    D = property(lambda self: self.gens[2], doc="The q^{T_i} images, a view of ``gens``.")

    def generators(self) -> np.ndarray:
        """Every generator matrix as one (3 * nodes, dim, dim) view of ``gens``."""
        return self.gens.reshape(-1, self.dim, self.dim)

    def same_algebra(self, other: "EvaluationRep") -> bool:
        """Same rank and q by ``linalg.isclose`` (symmetric)."""
        return self.n == other.n and isclose(self.q, other.q)


def check_point(n: int, q: complex, x: complex) -> tuple:
    """Validate one point (n, q, x) and return it as (int, complex, complex).

    n must be an integer >= 1, and not a bool; q and x must be finite and nonzero, and so
    must their reciprocals, which the generators hold (|x| below ~5.6e-309 overflows 1/x).
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"rank index n must be an integer >= 1, got {n!r}")
    q, x = complex(q), complex(x)
    if q == 0 or x == 0 or not all(map(cmath.isfinite, (q, x, 1.0 / q, 1.0 / x))):
        raise ValueError("q and x must be finite and nonzero")
    return int(n), q, x


def check_points(n: int, q: complex, xs) -> tuple:
    """Validate every point (n, q, x) of ``xs`` with ``check_point``; return (int, complex, list).

    (n, q) is validated also when ``xs`` is empty.
    """
    n, q, _ = check_point(n, q, 1.0)
    return n, q, [check_point(n, q, x)[2] for x in xs]


def vector_rep(n: int, q: complex, x: complex) -> EvaluationRep:
    """The N = n+1 dimensional vector evaluation representation.

    Q_i = x e^{i+1}_i, Qbar_i = x^{-1} e^i_{i+1}, and q^{T_i} acts
    diagonally with q^{-1} in slot i and q in slot i+1 (indices mod N).
    Its ``gens`` are the one-point case of ``vector_stack``.
    """
    n, q, x = check_point(n, q, x)
    return EvaluationRep(n=n, q=q, x=x, is_dual=False, gens=_vector_gens(n, q, [x])[0])


def vector_stack(n: int, q: complex, xs) -> np.ndarray:
    """The ``gens`` of ``vector_rep(n, q, x)`` for every x of ``xs``, one (P, 3, N, N, N) stack.

    Each point is validated as ``vector_rep`` validates it, with the same
    errors and one root-of-unity warning; every entry is ``vector_rep``'s bit
    for bit.
    """
    n, q, xs = check_points(n, q, xs)
    return _vector_gens(n, q, xs)


def _vector_gens(n: int, q: complex, xs: list) -> np.ndarray:
    """``vector_stack`` at a validated (n, q) and validated x values."""
    _warn_if_low_root_of_unity(q)
    dim = n + 1
    charges, cartan = _vector_plan(n)
    gens = np.empty((len(xs), 3, dim, dim, dim), dtype=np.complex128)
    # the whole unit template times (x, 1/x), so zeros take x's signs; 1/x in Python complex
    # arithmetic, as a point's is
    scale = np.array([(x, 1.0 / x) for x in xs], dtype=np.complex128)
    np.multiply(charges, scale.reshape(-1, 2, 1, 1, 1), out=gens[:, :2])
    gens[:, 2] = np.array([0.0, 1.0, 1.0 / q, q], dtype=np.complex128)[cartan]
    return gens


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _vector_plan(n: int) -> tuple:
    """The read-only structure of ``vector_rep`` at rank n: (charges, cartan).

    ``charges`` is the (2, N, N, N) stack of Q_i and Qbar_i at x = 1: e^{i+1}_i
    and e^i_{i+1} per node i.  ``cartan`` gives each entry of the (N, N, N)
    q^{T_i} stack as an index into (0, 1, 1/q, q): q^{-1} in slot i, q in slot
    i+1, 1 elsewhere on the diagonal.
    """
    dim = n + 1
    i = np.arange(dim)
    up = (i + 1) % dim
    charges = np.zeros((2, dim, dim, dim), dtype=np.complex128)
    charges[0, i, up, i] = charges[1, i, i, up] = 1.0
    cartan = np.zeros((dim, dim, dim), dtype=np.intp)
    cartan[:, i, i] = 1
    cartan[i, i, i] = 2
    cartan[i, up, up] = 3
    return frozen(charges, cartan)


def _warn_if_low_root_of_unity(q: complex) -> None:
    # |q^k - 1| >= ||q| - 1| for every k >= 1, so a modulus this far from 1 never warns
    if abs(abs(q) - 1.0) > 1e-6:
        return
    for k in range(1, 7):
        if abs(q**k - 1.0) < 1e-9:
            warnings.warn(
                f"q is (close to) a root of unity of order {k}; "
                "generic-parameter claims may degenerate",
                stacklevel=_outside_stacklevel(),
            )
            return


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that names the first frame outside this package, for its caller's warning.

    So a command or a library call that builds several representations warns
    once per line of the caller's, not once per line of this package's.
    """
    frame, level = sys._getframe(1), 1  # the frame that calls warnings.warn
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    return level


_PACKAGE_DIR = os.path.dirname(__file__)


def dual_rep(rep: EvaluationRep) -> EvaluationRep:
    """Antipode-transpose dual of a representation.

    The antipode acts as S(Q_i) = -q^{-T_i} Q_i, S(Qbar_i) = -q^{-T_i} Qbar_i,
    S(q^{T_i}) = q^{-T_i}, and the dual matrices are transposes of the
    antipode images.  The dual at another spectral parameter is the dual of
    a vector representation built there.  Its ``gens`` are ``dual_stack``'s.
    """
    return EvaluationRep(n=rep.n, q=rep.q, x=rep.x, is_dual=not rep.is_dual,
                         gens=dual_stack(rep.gens))


def dual_stack(gens: np.ndarray) -> np.ndarray:
    """The ``gens`` of ``dual_rep`` of every (..., 3, nodes, d, d) stack of ``gens``."""
    dinv = 1.0 / _diagonals(gens)  # every D_i is diagonal
    out = np.zeros(gens.shape, dtype=np.complex128)  # C order, so its diagonals are a view
    # D_i^{-1} g entry by entry: each entry is one product, computed alike at every position, so
    # the dual is as cyclic-covariant as its input (a matrix product rounds some positions
    # otherwise).  A contiguous operand gives numpy one point's inner loop, and so its rounding,
    # at any leading shape
    charges = np.ascontiguousarray(gens[..., :2, :, :, :])
    out[..., :2, :, :, :] = -(dinv[..., None, :, :, None] * charges).swapaxes(-1, -2)
    _diagonals(out)[...] = dinv  # diagonal, so its own transpose
    return out


def _diagonals(gens: np.ndarray) -> np.ndarray:
    """The diagonals of the q^{T_i} of (..., 3, nodes, d, d) stacks, a (..., nodes, d) view."""
    cartan = gens[..., 2, :, :, :]
    return cartan.reshape(*cartan.shape[:-2], -1)[..., ::cartan.shape[-1] + 1]


def as_boundary_params(eps, n: int) -> tuple:
    """Boundary parameters eps_0..eps_n as a tuple of n+1 finite complex numbers."""
    items = [eps] if isinstance(eps, (str, bytes)) else list(eps)
    if any(isinstance(e, (str, bytes)) for e in items):  # text a loop or complex() reads as numbers
        raise ValueError(f"boundary parameters must be a sequence of numbers, got {eps!r}")
    params = tuple(complex(e) for e in items)
    if len(params) != n + 1:
        raise ValueError(f"expected {n + 1} boundary parameters, got {len(params)}")
    if not all(cmath.isfinite(e) for e in params):
        raise ValueError("boundary parameters must be finite")
    return params


def coideal_generators(rep: EvaluationRep, eps) -> np.ndarray:
    """Stack of the matrices Qhat_i = Q_i + Qbar_i + eps_i q^{T_i} of the boundary algebra.

    The one-point case of ``coideal_stack``.
    """
    return coideal_stack(rep.gens, np.array(as_boundary_params(eps, rep.n)))


def coideal_stack(gens: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """The Qhat_i of ``coideal_generators`` of (..., 3, nodes, d, d) stacks, as (..., nodes, d, d).

    ``eps`` holds validated parameters (``as_boundary_params``), shaped
    (..., nodes); its leading axes broadcast against the stacks', so one
    stack takes many eps, or many stacks one eps.  The q^{T_i} enter as a
    contiguous copy, which gives numpy one point's inner loop, and so its
    rounding, at any leading shape.
    """
    cartan = np.ascontiguousarray(gens[..., 2, :, :, :])
    return gens[..., 0, :, :, :] + gens[..., 1, :, :, :] + eps[..., None, None] * cartan


@dataclass(frozen=True)
class CoproductCoordinates:
    """Where the coproduct stack of two factor stacks x, y may be nonzero, and how.

    ``position`` holds the ascending flat indices into the (3 * nodes, D, D)
    stack, D = d_x d_y, of its structural nonzeros, the coordinates.  Entry
    ``entry`` of ``product`` is x[x_index] * y[y_index], a q^{T_i} x g_i term,
    and entry ``entry`` of ``plain`` adds x[x_index], a Q_i x 1 or Qbar_i x 1
    term; the indices are flat into the factors' ``gens``.
    """

    shape: tuple
    position: np.ndarray
    product: tuple  # (entry, x_index, y_index)
    plain: tuple  # (entry, x_index)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Values at the coordinates for stacks (..., 3, nodes, d, d); leading axes broadcast."""
        x = x.reshape(*x.shape[:-4], -1)
        y = y.reshape(*y.shape[:-4], -1)
        lead = x.shape[:-1]
        if lead != y.shape[:-1]:
            lead = np.broadcast_shapes(lead, y.shape[:-1])
        out = np.zeros((*lead, len(self.position)), dtype=np.complex128)
        entry, x_index, y_index = self.product
        out[last_axis(entry, lead)] = x.take(x_index, axis=-1) * y.take(y_index, axis=-1)
        entry, x_index = self.plain
        # the q^{T_i} x g_i term first, as the formula sums
        out[last_axis(entry, lead)] += x.take(x_index, axis=-1)
        return out

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The (..., 3 * nodes, D, D) stack with ``values`` at the coordinates and 0 elsewhere."""
        out = np.zeros((*values.shape[:-1], math.prod(self.shape)), dtype=np.complex128)
        out[..., self.position] = values
        return out.reshape(*values.shape[:-1], *self.shape)


def coproduct_coordinates(px: np.ndarray, py: np.ndarray) -> CoproductCoordinates:
    """Coordinates of the coproduct of two factors, from their (3, nodes, d, d) boolean patterns."""
    _, nodes, dx, _ = px.shape
    dy = py.shape[-1]
    size = dx * dy
    # x[..., r, c] kron y[..., s, t] sits at [..., r * dy + s, c * dy + t]
    i, r, c = np.nonzero(px[2])  # q^{T_i} x g_i for every kind of g_i on the same node i
    k, j, s, t = np.nonzero(py)
    a, b = np.nonzero(i[:, None] == j[None, :])
    product = (((k[b] * nodes + j[b]) * size + r[a] * dy + s[b]) * size + c[a] * dy + t[b],
               np.ravel_multi_index((2, i[a], r[a], c[a]), px.shape),
               np.ravel_multi_index((k[b], j[b], s[b], t[b]), py.shape))
    k, i, r, c = (v.repeat(dy) for v in np.nonzero(px[:2]))  # Q_i x 1 and Qbar_i x 1
    s = np.tile(np.arange(dy), len(k) // dy)
    plain = (((k * nodes + i) * size + r * dy + s) * size + c * dy + s,
             np.ravel_multi_index((k, i, r, c), px.shape))
    present = np.zeros(3 * nodes * size * size, dtype=bool)
    present[product[0]] = present[plain[0]] = True
    position = np.flatnonzero(present)  # a coordinate both terms reach appears once
    entries = (np.searchsorted(position, product[0]), np.searchsorted(position, plain[0]))
    return CoproductCoordinates(shape=(3 * nodes, size, size), position=position,
                                product=(entries[0], *product[1:]), plain=(entries[1], plain[1]))


def coproduct(rep_a: EvaluationRep, rep_b: EvaluationRep) -> np.ndarray:
    """Coproduct images of all generators on V_a x V_b, one stack in GENERATOR_ORDER.

    Delta(Q_i) -> Q_i x 1 + q^{T_i} x Q_i (same for Qbar_i), and the
    group-like Delta(q^{T_i}) -> q^{T_i} x q^{T_i}.  The stack has shape
    (3 * nodes, d_a * d_b, d_a * d_b) and is filled at the factors'
    ``coproduct_coordinates``, the entries ``solve_bulk`` assembles from.
    """
    if not rep_a.same_algebra(rep_b):
        raise ValueError("coproduct requires matching (n, q) on both factors")
    a, b = rep_a.gens, rep_b.gens
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("matrix has non-finite entries")
    coordinates = coproduct_coordinates(a != 0, b != 0)
    return coordinates.dense(coordinates.values(a, b))


def coproduct_matrix(rep_a: EvaluationRep, rep_b: EvaluationRep, kind: str, i: int) -> np.ndarray:
    """Image of the coproduct of one generator on the tensor product (see ``coproduct``)."""
    return coproduct(rep_a, rep_b)[GENERATOR_ORDER.index(kind) * rep_a.nodes + i]


def check_relations(rep: EvaluationRep, tol: float = 1e-10) -> VerificationReport:
    """Verify the defining algebra relations in a representation.

    For all i, j:
      (a) D_i Q_j D_i^{-1} = q^{alpha_i.alpha_j} Q_j
      (b) D_i Qbar_j D_i^{-1} = q^{-alpha_i.alpha_j} Qbar_j
      (c) Q_i Qbar_j - q^{-alpha_i.alpha_j} Qbar_j Q_i
              = delta_ij (D_i^2 - 1)/(q^2 - 1)
    (a)/(b) are the exponentiated forms of the T-commutators.  Serre
    relations are not checked.
    """
    q = rep.q
    if abs(q**2 - 1.0) < 1e-12:
        raise ValueError("relation (c) is singular at q^2 = 1")
    eye = np.eye(rep.dim, dtype=np.complex128)
    defects = []
    for i in range(rep.nodes):  # every j at once, so memory stays at the representation's size
        inner = [cartan_inner(rep.n, i, j) for j in range(rep.nodes)]
        up, down = (np.array([q**(sign * a) for a in inner])[:, None, None] for sign in (1, -1))
        dinv = np.diag(1.0 / np.diag(rep.D[i]))
        qbar = down * rep.Qbar
        casimir = np.zeros_like(rep.Q)
        casimir[i] = (rep.D[i] @ rep.D[i] - eye) / (q**2 - 1.0)
        sides = [(rep.D[i] @ rep.Q @ dinv, up * rep.Q), (rep.D[i] @ rep.Qbar @ dinv, qbar),
                 (rep.Q[i] @ rep.Qbar - qbar @ rep.Q[i], casimir)]
        defects += [relative_defect(l, r) for lhs, rhs in sides for l, r in zip(lhs, rhs)]
    return VerificationReport.worst_of("algebra-relations", defects, tol)
