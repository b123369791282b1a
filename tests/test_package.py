import os
import subprocess
import sys
from pathlib import Path

import qreflect


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
