"""Tests of the benchmark's own arithmetic and validators.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import qreflect  # noqa: E402
from qreflect import io as qio  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_latency_summary_reports_p90_only_from_100_samples():
    latencies = [k / 1000 for k in range(1, 101)]  # 1..100 ms
    summary = run.latency_summary(latencies)
    assert summary["n"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p90_ms"] == pytest.approx(90.1)  # inclusive: 90 + 0.1 * (91 - 90)
    short = run.latency_summary(latencies[:99])
    assert short["n"] == 99 and short["p90_ms"] is None
    assert short["p50_ms"] == pytest.approx(50.0)


def _span(name, start, end, parent, shape=None):
    return [name, start, end, parent, 0, shape]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("intertwiners.solve_bulk", 0.0, 10.0, -1),
        _span("reps.vector_rep", 1.0, 4.0, 0),
        _span("linalg.kron", 2.0, 3.0, 1),
        _span("linalg.nullspace", 5.0, 9.0, 0, (30, 4)),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_account_for_the_operation_time():
    spans = [
        _span("intertwiners.solve_bulk", 0.0, 10.0, -1),
        _span("reps.vector_rep", 1.0, 4.0, 0),
        _span("linalg.kron", 2.0, 3.0, 1),
        _span("linalg.nullspace", 5.0, 9.0, 0, (30, 4)),
        _span("linalg.nullspace", 11.0, 12.0, -1, (10, 2)),
    ]
    metrics, table = tracing.layer_metrics(spans, op_seconds=14.0, n_ops=2)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["intertwiners.self_s"] == pytest.approx(1.5)
    assert value["reps.self_s"] == pytest.approx(1.0)
    assert value["linalg.self_s"] == pytest.approx(3.0)  # (1 + 4 + 1) / 2
    assert value["linalg.nullspace_s"] == pytest.approx(2.5)
    assert value["harness.self_s"] == pytest.approx(1.5)  # (14 - 10 - 1) / 2
    assert value["linalg.nullspace_calls"] == pytest.approx(1.0)
    assert value["linalg.nullspace_rows"] == pytest.approx(20.0)
    assert value["linalg.nullspace_cols"] == pytest.approx(3.0)
    assert value["linalg.system_mb"] == pytest.approx((120 + 20) / 2 * 16 / 1e6)
    layers = [f"{layer}.self_s" for layer in tracing.LAYERS] + ["harness.self_s"]
    assert sum(value[name] for name in layers) == pytest.approx(14.0 / 2)
    assert table[0][0] == "linalg.nullspace"


def test_tracer_rebinds_every_importing_module_and_restores_them():
    original = qreflect.linalg.nullspace
    tracer = tracing.Tracer()
    tracer.install(7)
    try:
        assert qreflect.intertwiners.nullspace is not original
        assert qreflect.boundary.nullspace is qreflect.intertwiners.nullspace
        rep = qreflect.vector_rep(1, 0.8 * np.exp(0.3j), 2.0)
        qreflect.solve_bulk(rep, qreflect.vector_rep(1, rep.q, 1.3))
    finally:
        tracer.uninstall()
    assert qreflect.intertwiners.nullspace is original
    names = [s[tracing.NAME] for s in tracer.spans]
    solve = names.index("intertwiners.solve_bulk")
    ns = names.index("linalg.nullspace")
    assert tracer.spans[ns][tracing.PARENT] == solve
    assert tracer.spans[ns][tracing.SHAPE] == (96, 16)  # 3 kinds x 2 nodes x 16 rows
    assert all(s[tracing.OP] == 7 for s in tracer.spans)
    before = len(tracer.spans)
    qreflect.vector_rep(1, 0.5, 2.0)
    assert len(tracer.spans) == before


def test_expected_boundary_dimension_rule():
    assert workloads.expected_boundary_dim(1, (0, 2)) == 1
    assert workloads.expected_boundary_dim(2, (1, -1, 1)) == 1
    assert workloads.expected_boundary_dim(3, (0, 0, 0, 0)) == 1
    assert workloads.expected_boundary_dim(2, (1, 0, -1)) == 0
    assert workloads.expected_boundary_dim(2, (2, 2, 2)) == 0


def test_boundary_validator_rejects_a_wrong_dimension():
    wl = workloads.BoundaryScan(5)
    k = next(k for k, op in enumerate(wl.ops) if op[2] >= 2 and 0 in op[4] and 1 in op[4])
    assert wl.check(k, 0) is None
    assert "expected 0" in wl.check(k, 1)


def test_boundary_round_validates():
    wl = workloads.BoundaryScan(3)
    for k in range(wl.warmup):
        assert wl.check(k, wl.run(k)) is None


def test_solution_validator_rejects_degenerate_or_inaccurate_solves():
    assert workloads.check_solution(SimpleNamespace(dimension=1, residual=1e-15)) is None
    assert "dimension 2" in workloads.check_solution(SimpleNamespace(dimension=2, residual=0.0))
    assert "residual" in workloads.check_solution(SimpleNamespace(dimension=1, residual=1e-6))
    assert "residual" in workloads.check_solution(
        SimpleNamespace(dimension=1, residual=float("nan")))


def _matrix_doc() -> bytes:
    doc = qio.MatrixDocument(kind="kmatrix", n=1, q=2.0, matrix=np.array([[1, 0.1j], [0.3, 1]]),
                             convention="paper", x=[3.0], eps=[1, -1])
    return qio.serialize_matrix(doc)


def test_document_validator_accepts_round_tripping_documents():
    report = qreflect.VerificationReport("yang-baxter", 1e-16, 1 + 1e-17j, 1e-8, True)
    docs = [
        _matrix_doc(),
        qio.serialize_report(qio.ReportDocument(kind="verify-ybe", n=1, q=0.5j, checks=[report],
                                                convention="n/a", rapidities=[0.7, -0.41])),
        qio.serialize_scan({"scan": "eps", "n": 1}, [(1, 0), (2, -1)], [1, 0]),
        qio.serialize_scan({"scan": "theta", "kind": "bulk"}, [0.1, 0.2], [1, 1]),
    ]
    for raw in docs:
        assert workloads.check_document(raw) is None


def test_document_validator_rejects_non_round_tripping_documents():
    raw = _matrix_doc()
    assert "round-trip" in workloads.check_document(raw.replace(b"1.0", b"1.00", 1))
    reordered = json.dumps(json.loads(raw), indent=2, sort_keys=True).encode() + b"\n"
    assert "round-trip" in workloads.check_document(reordered)
    assert "parse back" in workloads.check_document(raw.replace(b'"rows"', b'"r"'))


def test_cli_validator_rejects_a_failed_verdict_or_exit_code(tmp_path):
    wl = workloads.CliReadme(0, str(tmp_path))
    k = next(k for k, op in enumerate(wl.ops) if op[0][:2] == ["verify", "ybe"])
    assert "exit 3" in wl.check(k, (3, "", "degenerate"))
    assert "verdict" in wl.check(k, (0, "FAIL  yang-baxter: ...\n", ""))


def test_cli_rounds_validate_and_repeat_byte_identically(tmp_path):
    wl = workloads.CliReadme(0, str(tmp_path))
    for k in range(2 * wl.warmup):  # one perturbation set, run twice
        assert wl.check(k, wl.run(k)) is None
    key = next(iter(wl._digests))
    wl._digests[key] = "0" * 64
    k = next(k for k, op in enumerate(wl.ops) if tuple(op[0]) == key)
    assert "different bytes" in wl.check(k, wl.run(k))
