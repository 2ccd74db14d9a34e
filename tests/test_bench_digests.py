"""The outputs the benchmark pins, checked in the tier-1 suite.

Each verify instance of `perfbench/workloads.py`, run as `verify FILE
--radius 16 --seed 0 --format json`, must print a report whose sha256 is
the one in `perfbench/reference/digests-seed0.json`.  The golden tests
pin the infinite instances at radius 8 only; at radius 16 their fixed
sets, generated balls and presentation pairs are about twice as large
(17 fixed elements and 545 pairs instead of 9 and 145).  `catalog --slow`
must print `perfbench/reference/catalog-slow.txt`.  These files are read,
never written.

The E6 flip is pinned here too: its verify report enumerates all 51,840
elements of W, and no golden test covers it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from coxfold import cli

from conftest import entry_by_name

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


# sha256 of `verify e6-flip --radius 16 --seed 0 --format json`
E6_FLIP_DIGEST = (
    "c67d7ecce2a5e8f3bd4e3da5a7d360f0a7352578cd991bba02355a32ad2c27e1")


def test_e6_flip_verify_report_digest(capsys, tmp_path):
    path = tmp_path / "e6-flip.cox"
    path.write_text(entry_by_name("e6-flip").input_text)
    rc = cli.main(["verify", str(path), "--radius", "16", "--seed", "0",
                   "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == E6_FLIP_DIGEST


def test_catalog_slow_prints_benchmark_reference(capsys):
    rc = cli.main(["catalog", "--slow"])
    assert rc == 0
    assert capsys.readouterr().out == (
        PERFBENCH / "reference" / "catalog-slow.txt").read_text()
