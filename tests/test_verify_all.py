"""End to end: `scripts/verify_all.py` runs the property suite over the
built-in catalog and prints one summary line per instance, in catalog
order.  Without --slow it skips the slow entries."""

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

from coxfold import verify
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


def test_verify_all_prints_a_failing_witness_as_json(capsys, monkeypatch):
    # with the greedy probe capped at 2 steps, every finite parabolic of
    # rank 2 or more looks infinite to it, so the finiteness check fails
    monkeypatch.setattr(verify, "GREEDY_CAP", 2)
    monkeypatch.setattr(sys, "argv", ["verify_all.py"])
    main = runpy.run_path(str(ROOT / "scripts" / "verify_all.py"))["main"]
    assert main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[1:2] == ["FAIL"] for line in lines)
    prefix = "  [fail] finiteness-classification-vs-greedy: "
    witnesses = [json.loads(line[len(prefix):]) for line in lines
                 if line.startswith(prefix)]
    assert witnesses and all(w["classified_finite"] and not w["greedy_terminated"]
                             for w in witnesses)
