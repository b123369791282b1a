import contextlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreflect.boundary import solve_k
from qreflect.checks import (
    check_b_commutation,
    check_coideal_property,
    check_reflection_equation,
    check_sklyanin,
    check_ybe,
)
from qreflect import cli
from qreflect.cli import MAX_SCAN_POINTS, main, parse_complex
from qreflect.intertwiners import NEAR_THRESHOLD_MARGIN, dimension_scan
from qreflect.io import deserialize_matrix
from qreflect.linalg import DEFAULT_REL_TOL


def test_parse_complex_forms():
    assert parse_complex("2+0i") == 2.0
    assert parse_complex("-1.5-2i") == -1.5 - 2j
    assert parse_complex("3") == 3.0
    assert abs(parse_complex("0.8@0.3") - 0.8 * np.exp(0.3j)) < 1e-15
    with pytest.raises(ValueError):
        parse_complex("nonsense")


def test_kmatrix_paper_anchor(tmp_path, capsys):
    out = tmp_path / "k.json"
    code = main([
        "kmatrix", "--n", "1", "--q", "2+0i", "--x", "3+0i",
        "--eps", "1+0i,1+0i", "--method", "paper", "--out", str(out),
    ])
    assert code == 0
    doc = deserialize_matrix(out.read_bytes())
    assert np.allclose(doc.matrix, [[1.0, 0.5625], [0.5625, 1.0]], atol=1e-10)
    assert doc.convention == "paper"


def test_kmatrix_methods_agree_projectively(tmp_path):
    outs = {}
    for method in ("paper", "closed-form"):
        out = tmp_path / f"{method}.json"
        assert main([
            "kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "2.01+0i",
            "--eps", "1+0i,-1+0i,1+0i", "--method", method, "--out", str(out),
        ]) == 0
        outs[method] = deserialize_matrix(out.read_bytes()).matrix
    from qreflect.linalg import projective_compare

    assert projective_compare(outs["paper"], outs["closed-form"], 1e-8)[0]


def test_kmatrix_generic_method_n1_matches_paper(tmp_path):
    # at n = 1 the two conventions coincide, so the outputs agree exactly
    outs = {}
    for method in ("paper", "generic"):
        out = tmp_path / f"{method}.json"
        assert main([
            "kmatrix", "--n", "1", "--q", "0.8@0.3", "--x", "2.01+0i",
            "--eps", "1+0i,-1+0i", "--method", method, "--out", str(out),
        ]) == 0
        doc = deserialize_matrix(out.read_bytes())
        outs[method] = doc
    assert outs["generic"].convention == "antipode-dual"
    assert np.allclose(outs["paper"].matrix, outs["generic"].matrix, atol=1e-10)


@pytest.mark.parametrize("method, eps, convention", [
    ("paper", (1, -1, 1), "paper"),
    ("generic", (0, 0, 0), "antipode-dual"),
], ids=["paper", "generic"])
def test_kmatrix_writes_the_solve_k_solution(method, eps, convention, tmp_path):
    out = tmp_path / "k.json"
    assert main([
        "kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "2.01+0i",
        "--eps", ",".join(map(str, eps)), "--method", method, "--out", str(out),
    ]) == 0
    doc = deserialize_matrix(out.read_bytes())
    expected = solve_k(2, parse_complex("0.8@0.3"), 2.01, eps, method).normalized
    assert np.array_equal(doc.matrix, expected)
    assert doc.convention == convention


@pytest.mark.parametrize("argv", [
    ["smatrix", "--x1", "2.01+0i", "--x2", "1.26+0i"],
    ["kmatrix", "--x", "2.01+0i", "--eps", "1,-1", "--method", "paper"],
    ["kmatrix", "--x", "2.01+0i", "--eps", "1,-1", "--method", "generic"],
    ["kmatrix", "--x", "2.01+0i", "--eps", "1,-1", "--method", "closed-form"],
], ids=["smatrix", "kmatrix-paper", "kmatrix-generic", "kmatrix-closed-form"])
def test_solve_documents_record_the_default_rel_tol(argv, tmp_path):
    out = tmp_path / "m.json"
    assert main(argv + ["--n", "1", "--q", "0.8@0.3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["tol"] == DEFAULT_REL_TOL


@pytest.mark.parametrize("mode, rapidities, check, tol", [
    ("ybe", "0.7,0.23,-0.41", check_ybe, 1e-8),
    ("re", "0.7,0.23", check_reflection_equation, 1e-8),
    ("coideal", "0.7,0.23", check_coideal_property, 1e-12),
    ("sklyanin", "0.7,0.23,-0.41", check_sklyanin, 1e-8),
    ("b-comm", "0.7,0.23", check_b_commutation, 1e-8),
], ids=["ybe", "re", "coideal", "sklyanin", "b-comm"])
def test_verify_records_the_check_default_tol(mode, rapidities, check, tol, tmp_path):
    assert inspect.signature(check).parameters["tol"].default == tol
    out = tmp_path / "v.json"
    assert main([
        "verify", mode, "--n", "1", "--q", "0.8@0.3", "--rapidities", rapidities,
        "--eps", "1,1", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["tol"] == tol
    assert payload["checks"][0]["tol"] == tol


def test_kmatrix_generic_method_off_locus_exits_3(tmp_path):
    code = main([
        "kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "2.01+0i",
        "--eps", "1+0i,1+0i,1+0i", "--method", "generic",
        "--out", str(tmp_path / "k.json"),
    ])
    assert code == 3


def test_kmatrix_no_solution_exits_3(tmp_path, capsys):
    out = tmp_path / "k.json"
    code = main([
        "kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "2.01+0i",
        "--eps", "2+0i,1+0i,1+0i", "--method", "paper", "--out", str(out),
    ])
    assert code == 3
    assert not out.exists()  # no partial output on failure
    assert "nullspace dimension 0" in capsys.readouterr().err


def test_kmatrix_eps_length_checked(tmp_path):
    code = main([
        "kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "2+0i",
        "--eps", "1+0i,1+0i", "--method", "paper", "--out", str(tmp_path / "k.json"),
    ])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "2", "--eps", "1,1", "--method", "generic"],
    ["kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "2", "--eps", "1,1",
     "--method", "closed-form"],
    ["verify", "re", "--n", "2", "--q", "0.8@0.3", "--rapidities", "0.7,0.23", "--eps", "1,1"],
    ["verify", "coideal", "--n", "2", "--q", "0.8@0.3", "--rapidities", "0.7,0.23",
     "--eps", "1,1,1,1"],
    ["scan", "theta", "--n", "2", "--q", "0.8@0.3", "--eps", "1,1", "--grid", "0.1:1.5:3"],
    ["scan", "theta", "--n", "2", "--q", "0.8@0.3", "--eps", "1,1", "--grid", "0.1:1.5:3",
     "--method", "generic"],
])
def test_eps_length_checked_on_every_path(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert "boundary parameters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rep-check", "--n", "1", "--q", "1e308@0", "--x", "2"],
    ["verify", "ybe", "--n", "1", "--q", "0.8@0.3", "--rapidities", "800,0,1"],
])
def test_arithmetic_overflow_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_a_non_finite_factor_exits_2_before_its_weight_support(tmp_path, monkeypatch, capsys):
    # 1/q overflows to inf on the q^T diagonals; the error names the factor, not a product
    monkeypatch.chdir(tmp_path)
    assert main(["smatrix", "--n", "1", "--q", "1e-320", "--x1", "2", "--x2", "3",
                 "--out", "s.json"]) == 2
    assert capsys.readouterr().err == "error: matrix has non-finite entries\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, tol", [
    (["smatrix", "--n", "1", "--q", "0.8@0.3", "--x1", "2", "--x2", "1.3"], "nan"),
    (["rep-check", "--n", "1", "--q", "0.8@0.3", "--x", "2"], "nan"),
    (["verify", "re", "--n", "1", "--q", "0.8@0.3", "--rapidities", "0.7,0.23",
      "--eps", "1,1"], "-1"),
    (["kmatrix", "--n", "1", "--q", "2", "--x", "3", "--eps", "1,1"], "inf"),
    (["verify", "ybe", "--n", "1", "--q", "0.8@0.3", "--rapidities", "0.7,0.23,-0.4"], "0"),
])
def test_invalid_tolerance_exits_2(command, tol, tmp_path, capsys):
    out = tmp_path / "x.json"
    extra = [] if command[0] in ("rep-check", "verify") else ["--out", str(out)]
    assert main(command + ["--tol", tol] + extra) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


KMATRIX_N = ["kmatrix", "--q", "0.8@0.3", "--x", "2", "--eps", "1", "--n"]


@pytest.mark.parametrize("argv", [
    *[KMATRIX_N + [n, "--method", method]
      for n in ("0", "-1") for method in ("paper", "generic", "closed-form")],
    ["scan", "eps", "--n", "0", "--q", "0.8@0.3", "--x", "2", "--grid", "1"],
    ["rep-check", "--n", "1", "--q", "2", "--x", "nan"],
    ["smatrix", "--n", "1", "--q", "nan", "--x1", "2", "--x2", "1.3"],
    ["kmatrix", "--n", "1", "--q", "0.8@0.3", "--x", "2", "--eps", "nan,1"],
])
def test_invalid_point_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    extra = [] if argv[0] == "rep-check" else ["--out", str(out)]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "PASS" not in captured.out
    assert not out.exists()


# Cheap valid invocations (n <= 2) and tokens no valid input contains.
CHEAP_ARGV = [
    ["rep-check", "--n", "1", "--q", "0.8@0.3", "--x", "2", "--tol", "1e-10"],
    ["smatrix", "--n", "1", "--q", "0.8@0.3", "--x1", "2", "--x2", "1.3", "--tol", "1e-9",
     "--out", "out.json"],
    *[["kmatrix", "--n", "1", "--q", "0.8@0.3", "--x", "2", "--eps", "1,-1", "--method", method,
       "--out", "out.json"] for method in ("paper", "generic", "closed-form")],
    ["verify", "coideal", "--n", "2", "--q", "0.8@0.3", "--rapidities", "0.7,0.23",
     "--eps", "1,0,-1", "--tol", "1e-12", "--out", "out.json"],
    ["scan", "eps", "--n", "1", "--q", "0.8@0.3", "--x", "2", "--grid", "0,1", "--out", "out.json"],
]
MALFORMED = ["nan", "1e400", "1@nan", "0", "-1", "x", "", "1,nan", "inf@0"]


@contextlib.contextmanager
def _quiet_tmpdir():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                yield
        finally:
            os.chdir(cwd)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(range(len(CHEAP_ARGV))), position=st.integers(0, 15),
       token=st.sampled_from(MALFORMED))
@example(case=2, position=2, token="0")  # kmatrix --n 0 --method paper
@example(case=0, position=6, token="nan")  # rep-check --x nan
@example(case=1, position=4, token="nan")  # smatrix --q nan
def test_malformed_argument_never_raises(case, position, token):
    argv = list(CHEAP_ARGV[case])
    argv[position % len(argv)] = token
    with _quiet_tmpdir():
        code = main(argv)
        if code in (2, 3):  # output files only follow a completed computation
            assert os.listdir(".") == []
    assert code in (0, 1, 2, 3)


def test_verify_ybe_passes(capsys):
    code = main([
        "verify", "ybe", "--n", "1", "--q", "0.8@0.3",
        "--rapidities", "0.7,0.23,-0.41",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "deviation" in out
    assert "\x1b[" not in out  # no ANSI color when not a tty


def test_verify_fail_exit_code():
    # an impossibly tight tolerance flips the verdict, exercising exit 1
    code = main([
        "verify", "ybe", "--n", "1", "--q", "0.8@0.3",
        "--rapidities", "0.7,0.23,-0.41", "--tol", "1e-18",
    ])
    assert code == 1


def test_verify_re_and_bcomm_and_sklyanin(capsys):
    for mode, thetas in (("re", "0.7,0.23"), ("b-comm", "0.7,0.23"),
                         ("sklyanin", "0.7,0.23,-0.41")):
        code = main([
            "verify", mode, "--n", "1", "--q", "0.8@0.3",
            "--rapidities", thetas, "--eps", "1+0i,1+0i",
        ])
        assert code == 0, mode


def test_verify_coideal(capsys):
    code = main([
        "verify", "coideal", "--n", "3", "--q", "0.8@0.3",
        "--rapidities", "0.7,0.23", "--eps", "1+0i,0+0i,2+1i,-1+0i",
    ])
    assert code == 0


def test_verify_requires_eps(capsys):
    code = main([
        "verify", "re", "--n", "1", "--q", "0.8@0.3", "--rapidities", "0.7,0.23",
    ])
    assert code == 2


def test_verify_rapidity_count_checked(capsys):
    code = main([
        "verify", "ybe", "--n", "1", "--q", "0.8@0.3", "--rapidities", "0.7,0.23",
    ])
    assert code == 2


def test_repeated_invocations_byte_identical(tmp_path):
    args = [
        "kmatrix", "--n", "2", "--q", "0.8@0.3", "--x", "1.87+0.3i",
        "--eps", "1+0i,1+0i,-1+0i", "--method", "paper",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("first, second", [
    (["kmatrix", "--n", "1", "--q", "0.8@0.3", "--x", "2.01+0i", "--eps", "1,-1",
      "--method", "generic", "--tol", "1e-8", "--out", "k.json"],
     ["kmatrix", "--n", "1", "--q", "0.8@0.3", "--x", "2.01+0i", "--eps", "1,-1",
      "--out", "k.json"]),
    (["smatrix", "--n", "1", "--q", "0.8@0.3", "--x1", "2.01+0i", "--x2", "1.26+0i",
      "--dual-left", "--out", "s.json"],
     ["smatrix", "--n", "1", "--q", "0.8@0.3", "--x1", "2.01+0i", "--x2", "1.26+0i",
      "--out", "s.json"]),
], ids=["kmatrix", "smatrix"])
def test_shared_parser_gives_a_later_call_its_own_defaults(first, second, tmp_path, monkeypatch,
                                                          capsys):
    # the parser is built once at import; flags of one call must not leak into the next
    alone = tmp_path / "alone"
    alone.mkdir()
    src = str(Path(cli.__file__).resolve().parent.parent)
    expected = subprocess.run([sys.executable, "-m", "qreflect.cli", *second], cwd=alone,
                              capture_output=True, check=True,
                              env={**os.environ, "PYTHONPATH": src}).stdout
    monkeypatch.chdir(tmp_path)
    assert main(first) == 0
    name = first[-1]
    first_bytes = Path(name).read_bytes()
    capsys.readouterr()
    assert main(second) == 0
    assert capsys.readouterr().out.encode() == expected
    assert Path(name).read_bytes() == (alone / name).read_bytes() != first_bytes


def test_rep_check(capsys):
    assert main(["rep-check", "--n", "2", "--q", "0.8@0.3", "--x", "2.01+0i"]) == 0
    out = capsys.readouterr().out
    assert "algebra-relations" in out
    assert out.count("tol=1.0e-10") == 2  # check_relations' own default


def test_smatrix_writes_document(tmp_path):
    out = tmp_path / "s.json"
    code = main([
        "smatrix", "--n", "1", "--q", "0.8@0.3", "--x1", "2.01+0i",
        "--x2", "1.26+0i", "--out", str(out),
    ])
    assert code == 0
    doc = deserialize_matrix(out.read_bytes())
    assert doc.kind == "smatrix"
    assert doc.matrix.shape == (4, 4)


def test_smatrix_dual_channel(tmp_path):
    out = tmp_path / "s.json"
    code = main([
        "smatrix", "--n", "2", "--q", "0.8@0.3", "--x1", "2.01+0i",
        "--x2", "1.26+0i", "--dual-right", "--out", str(out),
    ])
    assert code == 0
    assert deserialize_matrix(out.read_bytes()).matrix.shape == (9, 9)


def test_scan_eps_grid(tmp_path):
    out = tmp_path / "scan.json"
    code = main([
        "scan", "eps", "--n", "1", "--q", "0.8@0.3", "--x", "2.01+0i",
        "--grid", "0,1,-1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["grid"]) == 9
    assert set(payload["dims"]) <= {0, 1}


def test_scan_theta_bulk(tmp_path):
    out = tmp_path / "scan.json"
    code = main([
        "scan", "theta", "--kind", "bulk", "--n", "1", "--q", "0.8@0.3",
        "--x", "2.01+0i", "--grid", "0.1:0.5:3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["dims"] == [1, 1, 1]


def test_scan_bad_grid(tmp_path):
    code = main([
        "scan", "theta", "--kind", "bulk", "--n", "1", "--q", "0.8@0.3",
        "--x", "2.01+0i", "--grid", "junk", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["kmatrix", "--n", "1", "--q", "2+0i", "--x", "3+0i", "--eps", "1,,1", "--method", "paper"],
    ["kmatrix", "--n", "1", "--q", "2+0i", "--x", "3+0i", "--eps", "1,1,", "--method", "paper"],
    ["verify", "ybe", "--n", "1", "--q", "2", "--rapidities", "0.1,,0.2,0.3"],
    ["scan", "eps", "--n", "1", "--q", "2", "--x", "3", "--grid", "1,,-1"],
], ids=["eps", "eps-trailing", "rapidities", "scan-grid"])
def test_empty_list_field_exits_2(argv, tmp_path, capsys):
    # every field is parsed: an empty one is invalid input, never a dropped value
    out = tmp_path / "x.json"
    assert main(argv + ([] if argv[0] == "verify" else ["--out", str(out)])) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["theta", "--n", "1", "--kind", "bulk", "--x", "2", "--grid", f"0:1:{MAX_SCAN_POINTS + 1}"],
    ["theta", "--n", "1", "--eps", "1,1", "--grid", f"0:1:{MAX_SCAN_POINTS + 1}"],
    ["eps", "--n", "17", "--x", "2", "--grid", "0,1"],  # 2^18 points
    ["eps", "--n", "100000000", "--x", "2", "--grid", "0,1,-1"],  # never sized exactly
], ids=["theta-bulk", "theta-boundary", "eps", "eps-huge-n"])
def test_oversized_scan_grid_exits_2_before_scanning(argv, monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dimension_scan called on an oversized grid")

    monkeypatch.setattr(cli, "dimension_scan", refuse)
    out = tmp_path / "x.json"
    assert main(["scan", *argv, "--q", "0.8@0.3", "--out", str(out)]) == 2
    assert str(MAX_SCAN_POINTS) in capsys.readouterr().err
    assert not out.exists()


def test_unallocatable_size_exits_2(capsys):
    # numpy refuses the (3, N, N, N) generator stack at n = 100000 before allocating anything
    assert main(["rep-check", "--n", "100000", "--q", "0.8@0.3", "--x", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate") and captured.out == ""


def test_unknown_arguments_exit_2(capsys):
    assert main(["kmatrix", "--bogus"]) == 2


# (argv with the value as its own token, the flag it follows)
MINUS_VALUES = [
    ("kmatrix --n 1 --q 0.8@0.3 --x -2+0i --eps 1,1 --out k.json", "--x"),
    ("kmatrix --n 1 --q 0.8@0.3 --x 2 --eps -1,1 --out k.json", "--eps"),
    ("verify re --n 1 --q 0.8@0.3 --rapidities -0.4,0.2 --eps 1,1 --out v.json", "--rapidities"),
    ("scan theta --kind bulk --n 1 --q 0.8@0.3 --x 2 --grid -1:1:5 --out s.json", "--grid"),
]


@pytest.mark.parametrize("line, flag", MINUS_VALUES)
def test_values_that_start_with_a_minus_sign_parse_as_values(line, flag, tmp_path, monkeypatch,
                                                             capsys):
    # the separate-token form writes the bytes of its --flag=value twin
    argv = line.split()
    joined = list(argv)
    at = joined.index(flag)
    joined[at:at + 2] = [f"{flag}={joined[at + 1]}"]
    runs = []
    for name, args in (("spaced", argv), ("joined", joined)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code = main(args)
        runs.append((code, capsys.readouterr().out, sorted(os.listdir("."))))
    assert runs[0][0] == 0 and runs[0] == runs[1]
    out = argv[-1]
    assert (tmp_path / "spaced" / out).read_bytes() == (tmp_path / "joined" / out).read_bytes()


@pytest.mark.parametrize("extra", [["--dual-left", "-3"], ["--dual-right", "-1,1"],
                                   ["--bogus", "-1"], ["--bogus=-2+0i"], ["-2+0i"]])
def test_a_minus_value_after_a_flag_without_one_still_exits_2(extra, tmp_path, capsys):
    out = tmp_path / "s.json"
    argv = ["smatrix", "--n", "1", "--q", "0.8@0.3", "--x1", "2", "--x2", "1.3", "--out", str(out)]
    assert main(argv[:-2] + extra + argv[-2:]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def _cli_complex(z) -> str:
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


@pytest.mark.parametrize("method, code", [("paper", 0), ("generic", 3)])
def test_near_threshold_rank_decisions_warn_on_stderr(method, code, tmp_path, capsys):
    # n = 2, x = 2, eps = (1+1e-8, 1, -1) (times eps* for the engine): the rank cut lies
    # within a factor 2 of a singular value, and the two methods report different dimensions
    q = 0.8 * np.exp(0.3j)
    scale = 1 / np.sqrt((1 - q) * (1 - 1 / q)) if method == "generic" else 1
    eps = "=" + ",".join(_cli_complex(scale * e) for e in (1 + 1e-8, 1, -1))
    point = ["--n", "2", "--q", "0.8@0.3", "--x", "2+0i", "--method", method]
    assert main(["kmatrix", *point, "--eps" + eps, "--out", str(tmp_path / "k.json")]) == code
    out, err = capsys.readouterr()
    assert err.count("warning:") == 1 and "1 of 1 rank decisions" in err
    assert "warning" not in out
    assert main(["scan", "eps", *point, "--grid" + eps, "--out", str(tmp_path / "s.json")]) == 0
    out, err = capsys.readouterr()
    grid = itertools.product([scale * e for e in (1 + 1e-8, 1, -1)], repeat=3)
    fixed = {"n": 2, "q": q, "x": 2.0, "method": method}
    near = sum(m < NEAR_THRESHOLD_MARGIN for m in dimension_scan("boundary", fixed, grid).margins)
    assert near > 1 and err.count("warning:") == 1 and f"{near} of 27 rank decisions" in err
    assert out.startswith("scan: 27 points") and "warning" not in out
    # far from the cut: no warning
    far = "=" + ",".join(_cli_complex(scale * e) for e in (1, 1, -1))
    assert main(["kmatrix", *point, "--eps" + far, "--out", str(tmp_path / "k.json")]) == 0
    assert capsys.readouterr().err == ""


def test_near_threshold_bulk_solve_warns_on_stderr(tmp_path, capsys):
    # q = -(1 + 1e-8) with equal rapidities: the smallest kept singular value is 3.5e-9 sigma_max
    argv = ["smatrix", "--n", "2", "--q=-1.00000001+0i", "--x1", "2.01+0i", "--x2", "2.01+0i",
            "--out", str(tmp_path / "s.json")]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err.count("warning:") == 1 and out.startswith("smatrix: dimension 1")
