"""End to end: `scripts/verify_all.py` runs the property suite over the
built-in catalog and prints one summary line per instance, in catalog
order.  Without --slow it skips the slow entries."""

import os
import re
import subprocess
import sys
from pathlib import Path

from coxfold.catalog import CATALOG

ROOT = Path(__file__).resolve().parent.parent


def test_verify_all_passes_every_fast_catalog_entry():
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "scripts/verify_all.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [entry.name, "PASS"] for entry in CATALOG if not entry.slow]
    assert all(re.fullmatch(r"\S+ +PASS  \(\d+\.\ds\)", line) for line in lines)
