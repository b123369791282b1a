import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import qreflect
import qreflect.boundary
import qreflect.intertwiners
import qreflect.linalg


def test_import_loads_no_scipy():
    # the package depends on numpy only; importing it must not pull in scipy
    src = str(Path(qreflect.__file__).resolve().parent.parent)
    code = "import sys, qreflect; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def test_bench_traced_names_resolve():
    # the benchmark's tracer rebinds these names by getattr; keep each one importable
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for layer in tracing.LAYERS.values() for target in layer]
    missing = [(module, name) for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert targets and missing == []
    # solves call nullspace by its module-level name, which the tracer rebinds
    assert qreflect.intertwiners.nullspace is qreflect.linalg.nullspace
    assert qreflect.boundary.nullspace is qreflect.linalg.nullspace
