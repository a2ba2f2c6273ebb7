"""What a ``python -m repro`` process loads before it does any work.

``scipy`` is the heaviest import the package can pull in (hundreds of
modules and most of a bare CLI process's memory), and only the audit's
Clopper-Pearson bounds use it, so they import it on use. A fresh
interpreter checks this: the test process itself has long loaded scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_unloaded():
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.stdout.strip() == "[]"
