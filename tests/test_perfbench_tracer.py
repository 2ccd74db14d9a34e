"""The benchmark tracer patches coxfold functions and methods by name.

Installing it in a fresh interpreter fails when one of those names is
gone, so a change that renames or deletes one fails here rather than in
a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_current_source():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracing\n"
        "tracing.install(tracing.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
