"""Deterministic JSON documents for matrices, verification reports, and scans.

Complex numbers are stored as two-element [re, im] arrays and matrices as
row-major entry lists.  Serialization emits keys in a fixed documented
order with Python's shortest round-trip float repr, so identical inputs
produce byte-identical output and every file produced here survives a
deserialize/serialize round trip unchanged.

Every document carries a mandatory ``convention`` field, a label of
``boundary.K_METHODS`` or "n/a", so matrices from the two conjugation
conventions can never be silently mixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .boundary import K_METHODS
from .linalg import DEFAULT_REL_TOL

SCHEMA_VERSION = "1"

_LABELS = {*K_METHODS.values(), "n/a"}


class DocumentError(ValueError):
    """Malformed or invalid document."""


class DocumentParseError(DocumentError):
    """Bytes are not valid JSON."""


class DocumentVersionError(DocumentError):
    """Unsupported schema_version."""


class DocumentShapeError(DocumentError):
    """Declared shape disagrees with the data payload."""


def _pair(z) -> list:
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DocumentError("non-finite complex value")
    return [float(z.real), float(z.imag)]


def _unpair(p) -> complex:
    # exact types: a JSON true is a bool, not a number
    if not (isinstance(p, list) and len(p) == 2 and {type(p[0]), type(p[1])} <= {int, float}):
        raise DocumentShapeError(f"expected [re, im] pair of numbers, got {p!r}")
    return complex(float(p[0]), float(p[1]))


@dataclass
class MatrixDocument:
    """One matrix plus the parameters that produced it."""

    kind: str
    n: int
    q: complex
    matrix: np.ndarray
    convention: str
    x: list = field(default_factory=list)  # spectral parameters, when given as x values
    rapidities: list = field(default_factory=list)  # or as theta values
    eps: list | None = None
    normalization: str = "max-modulus-1"
    tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        if self.convention not in _LABELS:
            raise DocumentError(f"unknown convention {self.convention!r}")
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        if self.matrix.ndim != 2:
            raise DocumentShapeError("matrix must be 2-d")
        if not np.all(np.isfinite(self.matrix)):
            raise DocumentError("matrix has non-finite entries")


def _meta_dict(doc) -> dict:
    meta = {
        "schema_version": SCHEMA_VERSION,
        "kind": doc.kind,
        "n": int(doc.n),
        "q": _pair(doc.q),
    }
    if doc.x:
        meta["x"] = [_pair(v) for v in doc.x]
    if doc.rapidities:
        meta["rapidities"] = [_pair(v) for v in doc.rapidities]
    meta["eps"] = None if doc.eps is None else [_pair(v) for v in doc.eps]
    meta["convention"] = doc.convention
    if isinstance(doc, MatrixDocument):
        meta["normalization"] = doc.normalization
    meta["tol"] = float(doc.tol)
    return meta


def serialize_matrix(doc: MatrixDocument) -> bytes:
    """UTF-8 JSON with fixed key order; deterministic for identical input."""
    rows, cols = doc.matrix.shape
    payload = {
        "meta": _meta_dict(doc),
        "matrix": {
            "rows": int(rows),
            "cols": int(cols),
            "data": [_pair(z) for z in doc.matrix.ravel()],
        },
    }
    return (json.dumps(payload, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def deserialize_matrix(raw: bytes) -> MatrixDocument:
    """A ``serialize_matrix`` document; each key the writer always writes is required, typed."""
    payload = _parse(raw)
    meta = _require(payload, "meta", dict)
    _check_version(meta)
    block = _require(payload, "matrix", dict)
    rows, cols = (_require(block, key, int) for key in ("rows", "cols"))
    data = _require(block, "data", list)
    if rows < 0 or cols < 0 or rows * cols != len(data):
        raise DocumentShapeError(f"a {rows} x {cols} matrix but data has {len(data)} entries")
    entries = np.array([_unpair(p) for p in data], dtype=np.complex128)
    eps = _require(meta, "eps", (list, type(None)))
    spectral = {key: [_unpair(p) for p in _require(meta, key, list)]
                for key in ("x", "rapidities") if key in meta}  # the writer omits an empty list
    return MatrixDocument(
        kind=_require(meta, "kind", str),
        n=_require(meta, "n", int),
        q=_unpair(_require(meta, "q", list)),
        matrix=entries.reshape(rows, cols),
        convention=_require(meta, "convention", str),
        eps=None if eps is None else [_unpair(p) for p in eps],
        normalization=_require(meta, "normalization", str),
        tol=float(_require(meta, "tol", (int, float))),
        **spectral,
    )


@dataclass
class ReportDocument:
    """A batch of verification check outcomes."""

    kind: str
    n: int
    q: complex
    checks: list  # of VerificationReport
    convention: str
    x: list = field(default_factory=list)
    rapidities: list = field(default_factory=list)
    eps: list | None = None
    tol: float = 1e-8  # the checks' default tol; a test ties the two together

    def __post_init__(self):
        if self.convention not in _LABELS:
            raise DocumentError(f"unknown convention {self.convention!r}")
        for chk in self.checks:
            if bool(chk.passed) != (chk.deviation <= chk.tol):
                raise DocumentError(f"inconsistent pass flag in check {chk.name!r}")


def serialize_report(doc: ReportDocument) -> bytes:
    payload = {
        "meta": _meta_dict(doc),
        "checks": [
            {
                "name": chk.name,
                "deviation": float(chk.deviation),
                "lambda": _pair(chk.lam),
                "tol": float(chk.tol),
                "passed": bool(chk.passed),
            }
            for chk in doc.checks
        ],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def serialize_scan(meta: dict, grid, dims) -> bytes:
    """Scan results: grid points (complex or eps tuples) and their dimensions."""

    def encode_point(p):
        if isinstance(p, (tuple, list)):
            return [_pair(v) for v in p]
        return _pair(p)

    payload = {
        "meta": dict({"schema_version": SCHEMA_VERSION, "kind": "scan"}, **meta),
        "grid": [encode_point(p) for p in grid],
        "dims": [int(d) for d in dims],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def _parse(raw) -> dict:
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DocumentParseError("top-level JSON value must be an object")
    return payload


def _check_version(meta: dict) -> None:
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentVersionError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION!r}"
        )


def _require(obj: dict, key: str, typ):
    if key not in obj:
        raise DocumentShapeError(f"missing key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, typ):  # a bool is not a JSON number
        raise DocumentShapeError(f"key {key!r} has wrong type {type(value).__name__}")
    return value
