"""Seeded workloads of the qreflect benchmark and the validators of their outputs.

Each workload builds a fixed pool of operations from its seed; the timed
loop runs the pool in order and starts over when it is exhausted (the
library caches nothing, so a repeated input costs the same).  ``run(k)``
performs pool operation ``k`` through the public API, looking functions up
on the module at call time so the tracer's rebinding sees every call.
``check(k, result)`` validates the output outside the timed span and
returns an error message, or ``None`` when the output is correct.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io as _io
import itertools
import json
import math
import random

import numpy as np

import qreflect
from qreflect import io as qio

RESIDUAL_BOUND = 1e-10  # worst relative defect a valid solve may leave
PROJECTIVE_TOL = 1e-8   # YBE and closed-form agreement


def generic_q(rng: random.Random) -> complex:
    """A deformation parameter well away from low-order roots of unity."""
    return rng.uniform(0.6, 0.9) * cmath.exp(1j * rng.uniform(0.2, 1.2))


def eps_star(q: complex) -> complex:
    """Boundary parameter scale of the engine convention: eps*^2 = 1/((1-q)(1-1/q))."""
    return cmath.sqrt(1.0 / ((1.0 - q) * (1.0 - 1.0 / q)))


def expected_boundary_dim(n: int, signs) -> int:
    """Documented solution-space dimension at eps = signs (times eps* for the engine).

    At n = 1 families 3 and 4 are empty and every eps gives dimension 1.  At
    n >= 2 the dimension is 1 iff all entries are +-1 or all are 0.
    """
    if n == 1:
        return 1
    if all(s in (1, -1) for s in signs) or all(s == 0 for s in signs):
        return 1
    return 0


# --------------------------------------------------------------------------
# bulk_n3


class BulkN3:
    """solve_bulk at n = 3 in all four channel flavours (vector or dual per side).

    A round draws (q, x, y, z).  Its vector-vector solves S(x,y), S(x,z),
    S(y,z) form a Yang-Baxter triple; the vector-dual, dual-vector and
    dual-dual solves at (x, y) cover the other flavours.
    """

    name = "bulk_n3"
    n = 3
    rounds = 4
    warmup = 1  # operations run untimed before the loop

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []  # (left flavour, x_left, right flavour, x_right, q, ybe role)
        for _ in range(self.rounds):
            q = generic_q(rng)
            thetas = rng.sample(range(-10, 11), 3)  # distinct by at least 0.1
            x, y, z = (cmath.exp(0.1 * t + rng.uniform(-0.03, 0.03)) for t in thetas)
            self.ops += [
                ("vector", x, "vector", y, q, "ab"),
                ("vector", x, "vector", z, q, "ac"),
                ("vector", y, "vector", z, q, "bc"),
                ("vector", x, "dual", y, q, None),
                ("dual", x, "vector", y, q, None),
                ("dual", x, "dual", y, q, None),
            ]
        self._last = {}  # ybe role -> solution of the latest op with that role

    def _rep(self, flavour, q, x):
        rep = qreflect.vector_rep(self.n, q, x)
        return qreflect.dual_rep(rep) if flavour == "dual" else rep

    def run(self, k: int):
        left, x_left, right, x_right, q, _ = self.ops[k]
        return qreflect.solve_bulk(self._rep(left, q, x_left), self._rep(right, q, x_right))

    def check(self, k: int, solution):
        error = check_solution(solution)
        role = self.ops[k][5]
        if role is None:
            return error
        self._last[role] = None if error else solution
        if role == "ab":
            self._last.pop("ac", None)
        if role == "bc" and error is None:
            triple = [self._last.get(r) for r in ("ab", "ac", "bc")]
            if any(s is None for s in triple):
                return "Yang-Baxter triple incomplete"
            dim = self.n + 1
            report = qreflect.check_ybe(*(s.normalized for s in triple), (dim,) * 3,
                                        PROJECTIVE_TOL)
            if not report.passed:
                return f"Yang-Baxter failed: deviation {report.deviation:.3e}"
        return error


def check_solution(solution):
    """A unique intertwiner whose residual is within RESIDUAL_BOUND."""
    if solution.dimension != 1:
        return f"dimension {solution.dimension}, expected 1"
    if not solution.residual <= RESIDUAL_BOUND:
        return f"residual {solution.residual:.3e} above {RESIDUAL_BOUND:.0e}"
    return None


# --------------------------------------------------------------------------
# boundary_scan


class BoundaryScan:
    """One dimension_scan("boundary", ...) grid point per operation, n = 1..4.

    The mix follows the traffic of the README's scan lines.  Per round, for
    each n and each method ("paper", "generic"), the eps points are the full
    product grid {0, 1, -1, 2}^(n+1) that ``qreflect scan eps --grid
    0,1,-1,2`` enumerates (16, 64, 256 and 1024 points for n = 1..4), times
    eps* for the engine, and the theta points are one 20-point grid, the
    count of the README's ``scan theta`` line, at a fixed sign pattern.  The
    round's points are shuffled so neighbouring operations differ in n and
    method; a run that ends mid-round has timed a uniform sample of it.
    """

    name = "boundary_scan"
    ns = (1, 2, 3, 4)
    eps_values = (0, 1, -1, 2)
    theta_points = 20
    rounds = 4
    warmup = 400  # operations of the first round run untimed before the loop

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []  # (fixed, point, n, method, signs, x)
        for _ in range(self.rounds):
            q = generic_q(rng)
            x = math.exp(rng.uniform(0.3, 1.2))
            scale = {"paper": 1.0, "generic": eps_star(q)}
            block = []
            for n in self.ns:
                for method in ("paper", "generic"):
                    fixed = {"n": n, "q": q, "x": x, "method": method}
                    scaled = [scale[method] * v for v in self.eps_values]
                    block += [(fixed, point, n, method, signs, x) for signs, point in zip(
                        itertools.product(self.eps_values, repeat=n + 1),
                        itertools.product(scaled, repeat=n + 1))]
                    signs = tuple(rng.choice((1, -1)) for _ in range(n + 1))
                    fixed = {"n": n, "q": q, "method": method,
                             "eps": tuple(scale[method] * s for s in signs)}
                    start = rng.uniform(-1.0, 0.5)
                    stop = start + rng.uniform(0.5, 1.5)
                    for j in range(self.theta_points):
                        xt = cmath.exp(start + (stop - start) * j / (self.theta_points - 1))
                        block.append((fixed, xt, n, method, signs, xt))
            rng.shuffle(block)
            self.ops += block
        self._k_checked = {}  # pool index -> closed-form check outcome

    def run(self, k: int):
        fixed, point = self.ops[k][:2]
        return qreflect.dimension_scan("boundary", fixed, [point]).dims[0]

    def check(self, k: int, dim: int):
        fixed, _, n, method, signs, x = self.ops[k]
        expected = expected_boundary_dim(n, signs)
        if dim != expected:
            return f"n={n} {method} eps~{signs}: dimension {dim}, expected {expected}"
        if method == "paper" and dim == 1:
            if k not in self._k_checked:
                self._k_checked[k] = check_paper_k(n, fixed["q"], x, signs)
            return self._k_checked[k]
        return None


def check_paper_k(n, q, x, signs):
    """Paper-method K agrees projectively with its closed form (identity at eps = 0).

    Mixed eps at n = 1 have no closed form; only their dimension is checked.
    """
    if all(s == 0 for s in signs):
        reference = np.eye(n + 1)
    elif all(s in (1, -1) for s in signs):
        reference = qreflect.closed_form_k(n, q, x, qreflect.ClosedFormParams(signs))
    else:
        return None
    solution = qreflect.solve_paper_k(n, q, x, signs)
    error = check_solution(solution)
    if error:
        return error
    equal, _, deviation = qreflect.projective_compare(reference, solution.normalized,
                                                      PROJECTIVE_TOL)
    return None if equal else f"paper K off its closed form by {deviation:.3e}"


# --------------------------------------------------------------------------
# cli_readme


def _c(z) -> str:
    """CLI complex notation a+bi; repr keeps every digit."""
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _clist(values) -> str:
    return ",".join(_c(v) for v in values)


def _tlist(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliReadme:
    """Every README command line, run in-process through qreflect.cli.main.

    A perturbation set moves x, the rapidities and eps (eps stays on the
    solvable sign patterns); each set runs in two consecutive rounds so every
    argv is repeated.  Beyond the README lines, kmatrix also runs with
    --method generic, smatrix with --dual-right, and verify writes its report
    with --out, so every method, channel side and document kind is exercised.
    The extra smatrix also makes a round 13 commands long: with an even count
    the median latency would sit in the gap between the six cheap and the six
    dear commands and jump with any change in their mix.  Round order is
    shuffled per round.
    """

    name = "cli_readme"
    sets = 16

    def __init__(self, seed: int, out_dir: str):
        import qreflect.cli  # noqa: F401  (the CLI import is part of set-up)

        rng = random.Random(seed)
        self.ops = []  # (argv, scan kind or None)
        for s in range(self.sets):
            round_ops = self._round(rng, f"{out_dir}/s{s}")
            for _ in range(2):
                rng.shuffle(round_ops)
                self.ops += list(round_ops)
        self.warmup = len(round_ops)  # one round
        self._digests = {}  # argv -> sha256 of its --out bytes

    @staticmethod
    def _round(rng, prefix):
        def u(width):
            return rng.uniform(-width, width)

        def signs(count):
            return [rng.choice((1, -1)) for _ in range(count)]

        t3 = [0.7 + u(0.05), 0.23 + u(0.05), -0.41 + u(0.05)]
        t2 = t3[:2]
        e2 = _clist(signs(2))
        x = 2.01 + u(0.1)
        start = 0.1 + u(0.05)
        q = "0.8@0.3"
        ops = [
            (["rep-check", "--n", "2", "--q", q, "--x", _c(x)], None),
            (["smatrix", "--n", "1", "--q", q, "--x1", _c(x), "--x2", _c(1.26 + u(0.1)),
              "--out", f"{prefix}-s.json"], None),
            (["smatrix", "--n", "1", "--q", q, "--x1", _c(x), "--x2", _c(1.26 + u(0.1)),
              "--dual-right", "--out", f"{prefix}-sd.json"], None),
            (["kmatrix", "--n", "1", "--q", "2+0i", "--x", _c(3 + u(0.1)), "--eps=" + e2,
              "--method", "paper", "--out", f"{prefix}-kp.json"], None),
            (["kmatrix", "--n", "2", "--q", q, "--x", _c(2 + u(0.1)), "--eps=" + _clist(signs(3)),
              "--method", "closed-form", "--out", f"{prefix}-kc.json"], None),
            (["kmatrix", "--n", "1", "--q", q, "--x", _c(2 + u(0.1)), "--eps=" + e2,
              "--method", "generic", "--out", f"{prefix}-kg.json"], None),
            (["verify", "ybe", "--n", "1", "--q", q, "--rapidities=" + _tlist(t3),
              "--out", f"{prefix}-ybe.json"], None),
            (["verify", "re", "--n", "1", "--q", q, "--rapidities=" + _tlist(t2), "--eps=" + e2,
              "--out", f"{prefix}-re.json"], None),
            (["verify", "coideal", "--n", "3", "--q", q, "--rapidities=" + _tlist(t2),
              "--eps=" + _clist([1 + u(0.1), u(0.1), 2 + u(0.1) + 1j, -1 + u(0.1)]),
              "--out", f"{prefix}-co.json"], None),
            (["verify", "sklyanin", "--n", "1", "--q", q, "--rapidities=" + _tlist(t3),
              "--eps=" + e2, "--out", f"{prefix}-sk.json"], None),
            (["verify", "b-comm", "--n", "1", "--q", q, "--rapidities=" + _tlist(t2),
              "--eps=" + e2, "--out", f"{prefix}-bc.json"], None),
            (["scan", "eps", "--n", "2", "--q", q, "--x", _c(x), "--grid", "0,1,-1,2",
              "--out", f"{prefix}-scan.json"], "eps"),
            (["scan", "theta", "--kind", "bulk", "--n", "1", "--q", q, "--x", _c(x),
              "--grid", f"{start!r}:{start + 1.4 + u(0.05)!r}:20",
              "--out", f"{prefix}-ray.json"], "theta"),
        ]
        return ops

    def run(self, k: int):
        argv = self.ops[k][0]
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qreflect.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, k: int, result):
        argv, scan = self.ops[k]
        code, stdout, stderr = result
        if code != 0:
            return f"{argv[0]}: exit {code}: {stderr.strip()}"
        error = check_stdout(argv, stdout)
        if error or "--out" not in argv:
            return error
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            raw = fh.read()
        error = check_document(raw)
        if error:
            return error
        key = tuple(argv)
        digest = hashlib.sha256(raw).hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            return f"{' '.join(argv[:2])}: repeated argv wrote different bytes"
        if scan == "eps":
            doc = json.loads(raw)
            for point, dim in zip(doc["grid"], doc["dims"]):
                signs = tuple(round(re) for re, _ in point)
                if dim != expected_boundary_dim(2, signs):
                    return f"scan eps: dimension {dim} at eps {signs}"
        if scan == "theta" and set(json.loads(raw)["dims"]) != {1}:
            return "scan theta: a bulk point is not one-dimensional"
        return None


def check_stdout(argv, stdout):
    """rep-check and verify print only PASS lines; the others print their summary."""
    lines = stdout.splitlines()
    if argv[0] in ("rep-check", "verify"):
        if not lines or not all(line.startswith("PASS ") for line in lines):
            return f"{' '.join(argv[:2])}: verdict not PASS: {stdout.strip()!r}"
        return None
    head = {"smatrix": "smatrix: dimension 1", "kmatrix": "kmatrix[", "scan": "scan: "}[argv[0]]
    if len(lines) != 1 or not lines[0].startswith(head):
        return f"{argv[0]}: unexpected output {stdout.strip()!r}"
    return None


def roundtrip(raw: bytes) -> bytes:
    """Deserialize a document and serialize it again through qreflect.io.

    Matrices use io.deserialize_matrix; reports and scans, which io writes
    but does not read, are rebuilt into the objects io.serialize_* take.
    """
    payload = json.loads(raw)
    if "matrix" in payload:
        return qio.serialize_matrix(qio.deserialize_matrix(raw))
    meta = payload["meta"]

    def cplx(pair):
        return complex(pair[0], pair[1])

    if "grid" in payload:  # a theta scan's meta "kind" names the scanned system
        grid = [tuple(cplx(p) for p in point) if isinstance(point[0], list) else cplx(point)
                for point in payload["grid"]]
        return qio.serialize_scan(meta, grid, payload["dims"])
    checks = [
        qreflect.VerificationReport(name=c["name"], deviation=c["deviation"],
                                    lam=cplx(c["lambda"]), tol=c["tol"], passed=c["passed"])
        for c in payload["checks"]
    ]
    eps = meta["eps"]
    doc = qio.ReportDocument(
        kind=meta["kind"], n=meta["n"], q=cplx(meta["q"]), checks=checks,
        convention=meta["convention"],
        x=[cplx(p) for p in meta.get("x", [])],
        rapidities=[cplx(p) for p in meta.get("rapidities", [])],
        eps=None if eps is None else [cplx(p) for p in eps],
        tol=meta["tol"],
    )
    return qio.serialize_report(doc)


def check_document(raw: bytes):
    """The document survives a deserialize/serialize round trip bit-exactly."""
    try:
        again = roundtrip(raw)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"document does not parse back: {type(exc).__name__}: {exc}"
    if again != raw:
        return "document does not round-trip bit-exactly"
    return None


# --------------------------------------------------------------------------


WORKLOADS = {w.name: w for w in (BulkN3, BoundaryScan, CliReadme)}


def build(name: str, seed: int, out_dir: str):
    """The workload's operation pool; out_dir receives cli_readme's --out files."""
    cls = WORKLOADS[name]
    return cls(seed, out_dir) if cls is CliReadme else cls(seed)
