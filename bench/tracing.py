"""Per-layer tracing of qreflect calls, done entirely from the benchmark.

The tracer wraps the public functions of each package module and rebinds
the wrappers in every ``qreflect`` module whose namespace holds the
original (the defining module included), so calls made inside the library
go through them too.  Nothing in ``src/`` is changed.  Each call records a
span ``[name, start, end, parent, op, shape]`` in memory; ``shape`` is the
system shape for ``linalg.nullspace`` and ``None`` elsewhere.  The spans are
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Layer (= package module) -> public functions traced in it.  reflection_dual
# lives in intertwiners but only builds a representation, so it counts as reps.
LAYERS = {
    "reps": (
        ("qreflect.reps", "vector_rep"),
        ("qreflect.reps", "dual_rep"),
        ("qreflect.intertwiners", "reflection_dual"),
        ("qreflect.reps", "coideal_generators"),
        ("qreflect.reps", "coproduct_matrix"),
        ("qreflect.reps", "check_relations"),
    ),
    "intertwiners": (
        ("qreflect.intertwiners", "solve_bulk"),
        ("qreflect.intertwiners", "solve_boundary"),
        ("qreflect.intertwiners", "solve_equivalence"),
        ("qreflect.intertwiners", "dimension_scan"),
        ("qreflect.intertwiners", "intertwining_residual"),
    ),
    "boundary": (
        ("qreflect.boundary", "paper_boundary_system"),
        ("qreflect.boundary", "solve_paper_k"),
        ("qreflect.boundary", "closed_form_k"),
        ("qreflect.boundary", "reconcile_gauge"),
    ),
    "linalg": (
        ("qreflect.linalg", "nullspace"),
        ("qreflect.linalg", "embed_on_legs"),
        ("qreflect.linalg", "flip_operator"),
        ("qreflect.linalg", "kron"),
        ("qreflect.linalg", "normalize_solution"),
        ("qreflect.linalg", "projective_compare"),
    ),
    "checks": (
        ("qreflect.checks", "check_ybe"),
        ("qreflect.checks", "check_reflection_equation"),
        ("qreflect.checks", "check_coideal_property"),
        ("qreflect.checks", "check_b_commutation"),
        ("qreflect.checks", "check_sklyanin"),
        ("qreflect.checks", "eval_b_matrix"),
        ("qreflect.checks", "plain_r"),
        ("qreflect.checks", "opposite_r"),
    ),
    "io": (
        ("qreflect.io", "serialize_matrix"),
        ("qreflect.io", "serialize_report"),
        ("qreflect.io", "serialize_scan"),
        ("qreflect.io", "deserialize_matrix"),
    ),
    "cli": (("qreflect.cli", "main"),),
}

# Time not inside any library span: the benchmark's own call glue plus the
# wrappers' bookkeeping.
HARNESS = "harness"

# Named parts of a layer's self time: metric -> spans whose self time it sums.
PARTS = {
    "linalg.nullspace_s": ("linalg.nullspace",),
    "linalg.embed_s": ("linalg.embed_on_legs", "linalg.flip_operator"),
    "intertwiners.residual_s": ("intertwiners.intertwining_residual",),
    "boundary.paper_k_system_s": ("boundary.paper_boundary_system",),
    "boundary.closed_form_s": ("boundary.closed_form_k",),
    "io.serialize_s": ("io.serialize_matrix", "io.serialize_report", "io.serialize_scan"),
}

NAME, START, END, PARENT, OP, SHAPE = range(6)


class Tracer:
    """Wraps the traced functions; ``install``/``uninstall`` toggle them."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._bindings = []  # (module, attribute, original, wrapper)
        packages = [m for name, m in sys.modules.items()
                    if name == "qreflect" or name.startswith("qreflect.")]
        for layer, targets in LAYERS.items():
            for module_name, func_name in targets:
                module = sys.modules.get(module_name)
                if module is None:  # e.g. qreflect.cli when the workload does not use it
                    continue
                original = getattr(module, func_name)
                wrapper = self._wrap(f"{layer}.{func_name}", original)
                for mod in packages:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        with_shape = name == "linalg.nullspace"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            shape = getattr(args[0], "shape", None) if with_shape and args else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, shape]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, op_seconds: float, n_ops: int) -> tuple:
    """Per-layer metrics, each a mean per traced operation, plus a per-span table.

    ``op_seconds`` is the summed latency of the ``n_ops`` traced operations;
    the part of it no library span covers is reported as ``harness.self_s``,
    so the ``<layer>.self_s`` values and ``harness.self_s`` add up to the
    mean traced operation time.
    """
    per_op = 1.0 / n_ops
    self_by_name = defaultdict(float)
    calls = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_by_name[span[NAME]] += own
        calls[span[NAME]] += 1
    top_level = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)

    metrics = {}
    for layer in LAYERS:
        total = sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total * per_op, "s/op")
    metrics[f"{HARNESS}.self_s"] = ((op_seconds - top_level) * per_op, "s/op")
    for metric, names in PARTS.items():
        metrics[metric] = (sum(self_by_name[k] for k in names) * per_op, "s/op")
    metrics["reps.calls"] = (
        sum(v for k, v in calls.items() if k.startswith("reps.")) * per_op, "calls/op")

    shapes = [s[SHAPE] for s in spans if s[NAME] == "linalg.nullspace"]
    count = len(shapes)
    rows = sum(r for r, _ in shapes)
    cols = sum(c for _, c in shapes)
    metrics["linalg.nullspace_calls"] = (count * per_op, "calls/op")
    metrics["linalg.nullspace_rows"] = (rows / count if count else 0.0, "rows")
    metrics["linalg.nullspace_cols"] = (cols / count if count else 0.0, "cols")
    # Computed from the shapes (complex128 = 16 bytes per entry), not measured.
    system_mb = sum(r * c for r, c in shapes) * 16 / 1e6
    metrics["linalg.system_mb"] = (system_mb / count if count else 0.0, "MB")

    table = sorted(
        ((name, calls[name] * per_op, self_by_name[name] * per_op) for name in calls),
        key=lambda row: -row[2],
    )
    return metrics, table
