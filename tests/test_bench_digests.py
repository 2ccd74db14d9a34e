"""The verify reports the benchmark pins, checked in the tier-1 suite.

Each verify instance of `perfbench/workloads.py`, run as `verify FILE
--radius 16 --seed 0 --format json`, must print a report whose sha256 is
the one in `perfbench/reference/digests-seed0.json`.  The golden tests
pin the infinite instances at radius 8 only; at radius 16 their fixed
sets, generated balls and presentation pairs are about twice as large
(17 fixed elements and 545 pairs instead of 9 and 145).  Both files are
read, never written.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from coxfold import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads(
    (PERFBENCH / "reference" / "digests-seed0.json").read_text())["verify"]


INSTANCES = {name: text for name, text, _ in WORKLOADS.VERIFY_INSTANCES}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_verify_report_matches_benchmark_digest(capsys, tmp_path, name):
    path = tmp_path / (name + ".cox")
    path.write_text(INSTANCES[name])
    rc = cli.main(["verify", str(path), "--radius",
                   str(WORKLOADS.VERIFY_RADIUS), "--seed",
                   str(WORKLOADS.DEFAULT_SEED), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
