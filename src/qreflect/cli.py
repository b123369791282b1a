"""Command-line interface.

  rep-check --n --q --x [--tol]
  smatrix   --n --q --x1 --x2 [--dual-left] [--dual-right] --out FILE
  kmatrix   --n --q --x --eps LIST [--method {paper,generic,closed-form}] --out FILE
  verify    {ybe,re,coideal,sklyanin,b-comm} --n --q --rapidities LIST
            [--eps LIST] [--tol T] [--out FILE]
  scan      {eps,theta} --n --q ... --grid SPEC [--method M] --out FILE

Complex values are written "a+bi" or polar "r@phi", and lists are
comma-separated with no empty field.  A value may start with a minus sign
(--x -2+0i, --eps -1,1, --grid -1:1:5), as in the --flag=value form.
--rapidities takes theta values (x = e^theta internally), --x flags take x
directly.  Valid input: n >= 1, finite nonzero q and x, finite eps,
positive finite --tol, and at most MAX_SCAN_POINTS scan points.

The CLI decides nothing the library owns: ``boundary.K_METHODS`` names the
K methods, their ``convention`` labels and the default; --tol defaults to
``linalg.DEFAULT_REL_TOL`` for solves and, when omitted, to each check's
own default for rep-check and verify.

Exit codes: 0 success / verification passed, 1 verification failed,
2 invalid input or a size too large to allocate, 3 degenerate solution
space (dimension != 1 where a unique matrix was requested).  Output files
are written only after the computation has fully succeeded.  smatrix,
kmatrix and scan print one ``warning:`` line on stderr when a rank decision
lies within a factor ``NEAR_THRESHOLD_MARGIN`` of the cutoff; it changes no
exit code or output.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import io as qio
from .boundary import DEFAULT_K_METHOD, K_METHODS, ClosedFormParams, closed_form_k, solve_k
from .checks import (
    check_b_commutation,
    check_coideal_property,
    check_reflection_equation,
    check_sklyanin,
    check_ybe,
    engine_blocks,
)
from .intertwiners import NEAR_THRESHOLD_MARGIN, dimension_scan, engine_point, solve_bulk
from .linalg import DEFAULT_REL_TOL, check_tolerance, normalize_solution
from .reps import check_relations, dual_rep, vector_rep

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3

# Points a scan may have; the grid is sized against it before it is built.
MAX_SCAN_POINTS = 200_000


def parse_complex(text: str) -> complex:
    """Parse "a+bi" or polar "r@phi" notation."""
    raw = text.strip().replace(" ", "")
    if not raw:
        raise ValueError("empty complex value")
    if "@" in raw:
        mod, _, phase = raw.partition("@")
        try:
            return float(mod) * cmath.exp(1j * float(phase))
        except ValueError as exc:
            raise ValueError(f"bad polar value {text!r}") from exc
    try:
        return complex(raw.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"bad complex value {text!r}") from exc


def parse_complex_list(text: str) -> list:
    return [parse_complex(part) for part in text.split(",")]


def parse_tolerance(text: str) -> float:
    """Parse a positive, finite tolerance (argparse reports a rejection as exit 2)."""
    try:
        return check_tolerance(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pass_word(passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
        color = "32" if passed else "31"
        return f"\x1b[{color}m{word}\x1b[0m"
    return word


def _print_report(report) -> None:
    print(
        f"{_pass_word(report.passed)}  {report.name}: "
        f"deviation={report.deviation:.6e}  tol={report.tol:.1e}  "
        f"lambda={report.lam:.6g}"
    )


def _require_unique(solution, what: str) -> np.ndarray:
    if solution.dimension == 0:
        raise Degenerate(f"no solution: nullspace dimension 0 ({what})")
    if solution.dimension != 1:
        raise Degenerate(f"degenerate solution space: dimension {solution.dimension} ({what})")
    return solution.normalized


class Degenerate(RuntimeError):
    pass


def _warn_near_threshold(margins) -> None:
    """One stderr line when a rank decision lies near the cutoff; exit codes never change."""
    near = sum(m < NEAR_THRESHOLD_MARGIN for m in margins)
    if near:
        print(f"warning: {near} of {len(margins)} rank decisions lie within a factor "
              f"{NEAR_THRESHOLD_MARGIN:g} of the cutoff; their dimensions are doubtful",
              file=sys.stderr)


def _write_matrix(args, summary: str, **fields) -> int:
    """Write the matrix document of ``fields`` to ``args.out``; print ``summary`` and the path."""
    doc = qio.MatrixDocument(n=args.n, q=args.q, tol=args.tol, **fields)
    Path(args.out).write_bytes(qio.serialize_matrix(doc))
    print(f"{summary}, wrote {args.out}")
    return EXIT_OK


def _check_tol(args) -> dict:
    """The ``tol`` keyword for a check: --tol if given, else the check's own default."""
    return {} if args.tol is None else {"tol": args.tol}


# --------------------------------------------------------------------------
# subcommands


def cmd_rep_check(args) -> int:
    rep = vector_rep(args.n, args.q, args.x)
    reports = [check_relations(r, **_check_tol(args)) for r in (rep, dual_rep(rep))]
    for flavor, report in zip(("vector", "dual"), reports):
        print(f"{_pass_word(report.passed)}  algebra-relations[{flavor}]: "
              f"deviation={report.deviation:.6e}  tol={report.tol:.1e}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED


def cmd_smatrix(args) -> int:
    left = vector_rep(args.n, args.q, args.x1)
    right = vector_rep(args.n, args.q, args.x2)
    if args.dual_left:
        left = dual_rep(left)
    if args.dual_right:
        right = dual_rep(right)
    solution = solve_bulk(left, right, rel_tol=args.tol)
    _warn_near_threshold([solution.nullspace.margin])
    matrix = _require_unique(solution, "bulk intertwiner")
    return _write_matrix(args, f"smatrix: dimension 1, residual {solution.residual:.3e}",
                         kind="smatrix", matrix=matrix, convention="antipode-dual",
                         x=[args.x1, args.x2])


def cmd_kmatrix(args) -> int:
    if args.method == "closed-form":
        params = ClosedFormParams(args.eps)
        matrix = normalize_solution(closed_form_k(args.n, args.q, args.x, params))
        note = "closed form"
    else:
        solution = solve_k(args.n, args.q, args.x, args.eps, args.method, args.tol)
        _warn_near_threshold([solution.nullspace.margin])
        matrix = _require_unique(solution, f"{args.method} boundary system")
        note = f"residual {solution.residual:.3e}"
    return _write_matrix(args, f"kmatrix[{args.method}]: {note}", kind="kmatrix", matrix=matrix,
                         convention=K_METHODS[args.method], x=[args.x], eps=list(args.eps))


def cmd_verify(args) -> int:
    mode = args.check
    thetas = args.rapidities
    need = {"ybe": 3, "re": 2, "coideal": 2, "sklyanin": 3, "b-comm": 2}[mode]
    if len(thetas) != need:
        raise ValueError(f"verify {mode} needs {need} rapidities, got {len(thetas)}")
    eps = args.eps
    if mode != "ybe" and eps is None:
        raise ValueError(f"verify {mode} requires --eps")

    n, q = args.n, args.q
    dim = n + 1
    tol_kw = _check_tol(args)
    if mode == "ybe":
        ra, rb, rc = (vector_rep(n, q, cmath.exp(t)) for t in thetas)
        s_ab = _require_unique(solve_bulk(ra, rb), "S_ab")
        s_ac = _require_unique(solve_bulk(ra, rc), "S_ac")
        s_bc = _require_unique(solve_bulk(rb, rc), "S_bc")
        report = check_ybe(s_ab, s_ac, s_bc, (dim, dim, dim), **tol_kw)
    elif mode == "coideal":
        xa, xb = (cmath.exp(t) for t in thetas)
        report = check_coideal_property(vector_rep(n, q, xa), vector_rep(n, q, xb), eps, **tol_kw)
    else:
        solved = engine_point(n, q, thetas, eps)
        m = {key: _require_unique(sol, key) for key, sol in solved.items()}
        if mode == "re":
            report = check_reflection_equation(
                m["k_mu"], m["k_nu"], m["s_mn"], m["s_m_nb"], m["s_n_mb"], m["s_nb_mb"], **tol_kw
            )
        elif mode == "b-comm":
            blocks = engine_blocks(m, dim)
            report = check_b_commutation(blocks["b_nu"], blocks["b_nub"], m["k_nu"], **tol_kw)
        else:  # sklyanin
            blocks = engine_blocks(m, dim)
            report = check_sklyanin(blocks["b1"], blocks["b2"], blocks["r_set"], **tol_kw)

    _print_report(report)
    if args.out:
        doc = qio.ReportDocument(
            kind=f"verify-{mode}",
            n=n,
            q=q,
            checks=[report],
            convention="n/a" if mode in ("ybe", "coideal") else K_METHODS["generic"],
            rapidities=[complex(t) for t in thetas],
            eps=None if eps is None else list(eps),
            tol=report.tol,
        )
        Path(args.out).write_bytes(qio.serialize_report(doc))
    return EXIT_OK if report.passed else EXIT_FAILED


def _check_scan_size(points: int) -> None:
    if points > MAX_SCAN_POINTS:
        raise ValueError(f"scan grid has more than {MAX_SCAN_POINTS} points")


def _parse_theta_grid(spec: str) -> list:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("theta grid spec must be start:stop:count")
    start, stop = parse_complex(parts[0]), parse_complex(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid count {parts[2]!r}") from exc
    if count < 1:
        raise ValueError("grid count must be >= 1")
    _check_scan_size(count)
    if count == 1:
        return [start]
    return [start + (stop - start) * k / (count - 1) for k in range(count)]


def _scan_value(value):
    """A ``fixed`` entry as the scan document records it."""
    if isinstance(value, tuple):
        return [qio._pair(v) for v in value]
    return value if isinstance(value, (int, str)) else qio._pair(value)


def cmd_scan(args) -> int:
    fixed = {"n": args.n, "q": args.q}
    if args.axis == "eps":
        kind, meta = "boundary", {"scan": "eps"}
        if args.x is None:
            raise ValueError("scan eps requires --x")
        fixed["x"] = args.x
        values = parse_complex_list(args.grid)
        # past this exponent two or more values stay over the limit; it keeps the power small
        _check_scan_size(len(values) ** min(args.n + 1, MAX_SCAN_POINTS.bit_length()))
        grid = points = [tuple(p) for p in itertools.product(values, repeat=args.n + 1)]
    else:
        kind = args.kind
        meta = {"scan": "theta", "kind": kind}
        grid = _parse_theta_grid(args.grid)  # the document records the thetas, not x = e^theta
        points = [cmath.exp(t) for t in grid]
        if kind == "bulk":
            if args.x is None:
                raise ValueError("scan theta --kind bulk requires --x (left parameter)")
            fixed["x_left"] = args.x
        else:
            if args.eps is None:
                raise ValueError("scan theta --kind boundary requires --eps")
            fixed["eps"] = tuple(args.eps)
    if kind == "boundary":
        fixed["method"] = args.method
    result = dimension_scan(kind, fixed, points)
    meta.update((key, _scan_value(value)) for key, value in fixed.items())
    if kind == "boundary":
        meta["convention"] = K_METHODS[args.method]
    _warn_near_threshold(result.margins)
    Path(args.out).write_bytes(qio.serialize_scan(meta, grid, result.dims))
    print(f"scan: {len(result.dims)} points, dims "
          f"min={min(result.dims)} max={max(result.dims)}, wrote {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a token such as -2+0i, -1,1 or -1:1:5 as a value.

    argparse reads a token that starts with "-" as an option unless it is a
    plain negative number.  Here a minus sign before a digit, or before a
    point and a digit, starts a value, the rule of newer argparse releases;
    no option of this CLI looks like that.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qreflect",
        description="S-matrices and boundary reflection matrices from quantum affine symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, x_flags=()):
        p.add_argument("--n", type=int, required=True, help="rank index n >= 1")
        p.add_argument("--q", type=parse_complex, required=True, help="deformation parameter")
        for flag in x_flags:
            p.add_argument(flag, type=parse_complex, required=True)

    p = sub.add_parser("rep-check", help="verify the algebra relations in a representation")
    common(p, ("--x",))
    p.add_argument("--tol", type=parse_tolerance, default=None)
    p.set_defaults(func=cmd_rep_check)

    p = sub.add_parser("smatrix", help="solve a bulk two-particle intertwiner")
    common(p, ("--x1", "--x2"))
    p.add_argument("--dual-left", action="store_true")
    p.add_argument("--dual-right", action="store_true")
    p.add_argument("--tol", type=parse_tolerance, default=DEFAULT_REL_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("kmatrix", help="solve or evaluate a boundary reflection matrix")
    common(p, ("--x",))
    p.add_argument("--eps", type=parse_complex_list, required=True)
    p.add_argument("--method", choices=tuple(K_METHODS), default=DEFAULT_K_METHOD)
    p.add_argument("--tol", type=parse_tolerance, default=DEFAULT_REL_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kmatrix)

    p = sub.add_parser("verify", help="run a nonlinear consistency check")
    p.add_argument("check", choices=("ybe", "re", "coideal", "sklyanin", "b-comm"))
    common(p)
    p.add_argument("--rapidities", type=parse_complex_list, required=True,
                   help="theta values; x = e^theta")
    p.add_argument("--eps", type=parse_complex_list, default=None)
    p.add_argument("--tol", type=parse_tolerance, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="record nullspace dimensions over a grid")
    p.add_argument("axis", choices=("eps", "theta"))
    common(p)
    p.add_argument("--x", type=parse_complex, default=None)
    p.add_argument("--eps", type=parse_complex_list, default=None)
    p.add_argument("--grid", required=True,
                   help="eps: comma-separated values; theta: start:stop:count")
    p.add_argument("--kind", choices=("bulk", "boundary"), default="boundary")
    p.add_argument("--method", choices=[m for m in K_METHODS if m != "closed-form"],
                   default=DEFAULT_K_METHOD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    return parser


# Built once; each parse_args call starts from fresh defaults.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        # underflow stays benign; anything NaN-producing becomes exit 2
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return args.func(args)
    except Degenerate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
