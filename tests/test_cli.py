import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxfold import cli, verify
from coxfold.catalog import CatalogRow

from conftest import BAD_NUMBERS, E7_BESIDE_I2INF, NUMBER_POSITIONS

A3_FLIP = "rank 3\nm 1 2 3\nm 2 3 3\nauto flip 1>3 3>1\n"
A2 = "rank 2\nm 1 2 3\nauto id\n"
TRIANGLE = "rank 3\nm 1 2 3\nm 2 3 3\nm 1 3 3\nauto flip 1>2 2>1\n"
BAD_AUTO = "rank 3\nm 1 2 3\nm 2 3 3\nauto bad 1>2 2>1\n"


@pytest.fixture
def a3_file(tmp_path):
    p = tmp_path / "a3.cox"
    p.write_text(A3_FLIP)
    return str(p)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_reduce_text(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "reduce", a3_file, "--word", "2 1 3 2")
    assert rc == 0
    assert "normal form: 2 1 3 2" in out
    assert "length: 4" in out
    assert "left descents: 2" in out


def test_reduce_a2_word(capsys, tmp_path):
    p = tmp_path / "a2.cox"
    p.write_text(A2)
    rc, out, _ = run_cli(capsys, "reduce", str(p), "--word", "1 2 1 2")
    assert rc == 0
    assert "normal form: 2 1" in out
    assert "length: 2" in out


def test_reduce_empty_word_is_identity(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "reduce", a3_file)
    assert rc == 0
    assert "normal form: e" in out
    assert "length: 0" in out


def test_reduce_json(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "reduce", a3_file, "--word", "1 1",
                         "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["normal_form"] == [] and data["length"] == 0


def test_reduce_bad_word(capsys, a3_file):
    rc, _, err = run_cli(capsys, "reduce", a3_file, "--word", "9")
    assert rc == 2
    assert "out of range" in err


def test_fold_text(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "fold", a3_file)
    assert rc == 0
    assert "folded: I2(4), weights [2, 1]" in out
    assert "pair ({1,3},{2}): l(w_K) = 6, L = 2 + 1" in out
    assert "orbits: {1,3} {2}" in out


def test_fold_requires_auto(capsys, tmp_path):
    p = tmp_path / "noauto.cox"
    p.write_text("rank 2\nm 1 2 3\n")
    rc, _, err = run_cli(capsys, "fold", str(p))
    assert rc == 2
    assert "auto" in err


def test_fold_identity_auto(capsys, tmp_path):
    p = tmp_path / "a2id.cox"
    p.write_text(A2)
    rc, out, _ = run_cli(capsys, "fold", str(p))
    assert rc == 0
    assert "folded: A2, weights [1, 1]" in out
    assert "folded matrix:\n  1 3\n  3 1" in out


def test_fold_json(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "fold", a3_file, "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["folded_type"] == "I2(4)"
    assert data["weights"] == [2, 1]
    assert data["pairs"][0]["label"] == "4"


def test_verify_pass(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "verify", a3_file)
    assert rc == 0
    assert "result: all checks passed" in out


def test_verify_json(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "verify", a3_file, "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert all(c["status"] == "pass" for c in data["checks"])


def test_verify_validation_failure_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.cox"
    p.write_text(BAD_AUTO)
    rc, out, _ = run_cli(capsys, "verify", str(p))
    assert rc == 2
    assert "[fail] automorphisms-preserve-matrix" in out
    assert "[skipped]" in out


@pytest.mark.parametrize("command,extra", [
    ("reduce", ["--word", "1 2"]), ("fold", []), ("verify", []), ("classify", []),
])
def test_field_degree_over_cap_exits_2(capsys, tmp_path, command, extra):
    # label 1000 needs a cyclotomic field of degree 800, over the cap of 64
    p = tmp_path / "huge.cox"
    p.write_text("rank 2\nm 1 2 1000\nauto id\n")
    rc, out, err = run_cli(capsys, command, str(p), *extra)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and "exceeds the degree cap 64" in err


def test_verify_infinite_radius_flag(capsys, tmp_path):
    p = tmp_path / "tri.cox"
    p.write_text(TRIANGLE)
    rc, out, _ = run_cli(capsys, "verify", str(p), "--radius", "5")
    assert rc == 0
    assert "folded: I2(inf), weights [3, 1]" in out


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_verify_radius_below_one_exits_2(capsys, tmp_path, radius):
    # 0 used to mean the default 8, and -1 passed on the identity alone;
    # a sign is not an ASCII digit, so -1 is a malformed number
    p = tmp_path / "tri.cox"
    p.write_text(TRIANGLE)
    rc, out, err = run_cli(capsys, "verify", str(p), "--radius", radius)
    assert rc == 2
    assert out == ""
    assert err == {
        "0": "radius must be at least 1, not 0\n",
        "-1": "bad --radius value '-1': expected ASCII digits\n"}[radius]


def test_verify_deterministic_output(capsys, a3_file):
    rc1, out1, _ = run_cli(capsys, "verify", a3_file, "--seed", "7")
    rc2, out2, _ = run_cli(capsys, "verify", a3_file, "--seed", "7")
    assert (rc1, out1) == (rc2, out2)


A8 = "rank 8\n" + "".join(f"m {i} {i + 1} 3\n" for i in range(1, 8))


def test_verify_finite_group_over_node_cap_passes_under_its_flip(capsys,
                                                                 tmp_path):
    # A8 has 9! = 362880 elements, over the node cap, but its fixed set
    # B4 has 384, and the coset chain lists them without walking W
    p = tmp_path / "a8.cox"
    p.write_text(A8 + "auto flip 1>8 8>1 2>7 7>2 3>6 6>3 4>5 5>4\n")
    rc, out, err = run_cli(capsys, "verify", str(p))
    assert (rc, err) == (0, "")
    assert "fixed_elements=384" in out
    assert out.endswith("result: all checks passed\n")


def test_verify_over_node_cap_exits_2(capsys, tmp_path):
    # under the identity the folded group is A8 itself, over the node cap;
    # refused before any walk
    p = tmp_path / "a8-id.cox"
    p.write_text(A8 + "auto id\n")
    rc, out, err = run_cli(capsys, "verify", str(p))
    assert rc == 2
    assert out == ""
    assert err == ("the folded group has 362880 elements, "
                   "over the node cap 200000\n")


def test_verify_folded_group_over_node_cap_exits_2(capsys, tmp_path):
    # refused before any ball is walked: the generated ball of a finite
    # folded group is all of it
    p = tmp_path / "e7-i2inf.cox"
    p.write_text(E7_BESIDE_I2INF)
    rc, out, err = run_cli(capsys, "verify", str(p))
    assert rc == 2
    assert out == ""
    assert err == ("the folded group has 2903040 elements, "
                   "over the node cap 200000\n")


def test_verify_infinite_ball_over_node_cap_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "NODE_CAP", 50)
    p = tmp_path / "tri.cox"
    p.write_text(TRIANGLE)
    rc, out, err = run_cli(capsys, "verify", str(p))
    assert rc == 2
    assert out == ""
    assert err == "ball exceeded the node cap 50\n"


def test_verify_ball_over_letter_cap_exits_2(tmp_path):
    # I2(inf) has two elements of each length, so the node cap alone lets
    # its radius-100000 ball spell 10^10 letters; under a 1 GiB address
    # space that ends in MemoryError unless the letter cap stops the walk
    p = tmp_path / "i2inf.cox"
    p.write_text("rank 2\nm 1 2 inf\nauto id\n")
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from coxfold import cli\n"
        f"sys.exit(cli.main(['verify', {str(p)!r}, '--radius', '100000']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"ball exceeded the letter cap {verify.LETTER_CAP}\n"


def test_classify(capsys, a3_file):
    rc, out, _ = run_cli(capsys, "classify", a3_file)
    assert rc == 0
    assert "type: A3" in out and "order: 24" in out


def test_classify_infinite(capsys, tmp_path):
    p = tmp_path / "tri.cox"
    p.write_text(TRIANGLE)
    rc, out, _ = run_cli(capsys, "classify", str(p))
    assert rc == 0
    assert "finite: no" in out and "order: infinite" in out


def test_parse_errors_exit_2(capsys, tmp_path):
    p = tmp_path / "broken.cox"
    p.write_text("rank 2\nm 1 2 3\nm 2 1 4\n")
    rc, _, err = run_cli(capsys, "fold", str(p))
    assert rc == 2
    assert "3: duplicate m line" in err


def test_missing_file(capsys):
    rc, _, err = run_cli(capsys, "classify", "/nonexistent/file.cox")
    assert rc == 2
    assert "cannot read" in err


def test_non_utf8_file(capsys, tmp_path):
    p = tmp_path / "bad.cox"
    p.write_bytes(b"\xff\xfe")
    rc, _, err = run_cli(capsys, "classify", str(p))
    assert rc == 2
    assert "cannot read" in err


@pytest.mark.parametrize("rank", ["\u00b2", "9" * 5000])
def test_rank_that_int_refuses(capsys, tmp_path, rank):
    # isdigit() holds for both tokens, but int() raises on them
    p = tmp_path / "rank.cox"
    p.write_text(f"rank {rank}\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "classify", str(p))
    assert rc == 2
    assert "rank needs one integer argument" in err


@pytest.mark.parametrize("position", [*NUMBER_POSITIONS, "--word"])
@pytest.mark.parametrize("token", BAD_NUMBERS, ids=lambda t: repr(t)[:8])
def test_number_that_is_not_ascii_digits_exits_2(capsys, tmp_path, a3_file,
                                                  position, token):
    if position == "--word":
        argv = ["reduce", a3_file, "--word", f"1 {token}"]
    else:
        p = tmp_path / "bad.cox"
        p.write_text(NUMBER_POSITIONS[position][0].format(token),
                     encoding="utf-8")
        argv = ["classify", str(p)]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("option", ["--radius", "--seed"])
@pytest.mark.parametrize("token", BAD_NUMBERS, ids=lambda t: repr(t)[:8])
def test_verify_option_that_is_not_ascii_digits_exits_2(capsys, tmp_path,
                                                        option, token):
    p = tmp_path / "tri.cox"
    p.write_text(TRIANGLE)
    rc, out, err = run_cli(capsys, "verify", str(p), option, token)
    assert rc == 2 and out == ""
    assert err == f"bad {option} value {token!r}: expected ASCII digits\n"


@pytest.mark.parametrize("token", ["1_0", "-1", "\u0663"])
def test_verify_all_seed_that_is_not_ascii_digits_exits_2(token):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "scripts/verify_all.py", "--seed", token], cwd=root,
        env={**os.environ, "PYTHONPATH": "src"}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"bad --seed value {token!r}: expected ASCII digits" in proc.stderr


def test_verify_options_read_leading_zeros(capsys, tmp_path):
    p = tmp_path / "tri.cox"
    p.write_text(TRIANGLE)
    runs = [run_cli(capsys, "verify", str(p), "--radius", r, "--seed", s)
            for r, s in (("5", "7"), ("005", "0007"))]
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_leading_zeros_are_read(capsys, tmp_path):
    p = tmp_path / "zeros.cox"
    p.write_text("rank 0003\nm 0001 0002 0003\nm 0002 0003 0003\n")
    rc, out, _ = run_cli(capsys, "reduce", str(p), "--word", "0001 002 01")
    assert rc == 0
    assert "input word: 1 2 1" in out and "length: 3" in out


# -- catalog rendering (stubbed rows; the real catalog runs in acceptance) ------


def fake_rows(all_match):
    row = CatalogRow(
        name="a3-flip", expected_type="I2(4)", expected_weights=(2, 1),
        expected_order=8, computed_type="I2(4)", computed_weights=(2, 1),
        computed_order=8, ball_note="", match=True,
    )
    bad = CatalogRow(
        name="broken", expected_type="B3", expected_weights=(1,),
        expected_order=48, computed_type="A1", computed_weights=(9,),
        computed_order=1, ball_note="", match=False,
    )
    return [row] if all_match else [row, bad]


def test_catalog_text_match(capsys, monkeypatch):
    monkeypatch.setattr("coxfold.catalog.run_catalog", lambda slow: fake_rows(True))
    rc, out, _ = run_cli(capsys, "catalog")
    assert rc == 0
    assert "1/1 rows match" in out and "match" in out


def test_catalog_mismatch_exit_1(capsys, monkeypatch):
    monkeypatch.setattr("coxfold.catalog.run_catalog", lambda slow: fake_rows(False))
    rc, out, _ = run_cli(capsys, "catalog")
    assert rc == 1
    assert "MISMATCH" in out


def test_catalog_json(capsys, monkeypatch):
    monkeypatch.setattr("coxfold.catalog.run_catalog", lambda slow: fake_rows(True))
    rc, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["rows"][0]["expected"]["type"] == "I2(4)"
    assert data["rows"][0]["match"] is True


def test_catalog_json_is_byte_identical_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "catalog", "--format", "json")
    _, out2, _ = run_cli(capsys, "catalog", "--format", "json")
    assert out1 == out2
    assert "seconds" not in json.loads(out1)["rows"][0]


# -- many calls in one process -------------------------------------------------

CALLS_SCRIPT = """\
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from coxfold import cli
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    out.append([rc, stdout.getvalue(), stderr.getvalue()])
out.append("argparse" in sys.modules)
print(json.dumps(out))
"""


def run_calls(calls):
    """[rc, stdout, stderr] of each main call, all in one fresh process,
    then whether the process loaded argparse."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", CALLS_SCRIPT.format(src=str(src)),
         json.dumps(calls)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_main_calls_in_one_process_match_separate_calls(tmp_path, a3_file):
    tri = tmp_path / "tri.cox"
    tri.write_text(TRIANGLE)
    calls = [
        ["verify", a3_file, "--format", "json"],
        ["verify", a3_file, "--format", "xml"],     # usage error, exit 2
        ["verify", a3_file],
        ["frobnicate"],                             # usage error, exit 2
        ["reduce", a3_file, "--word", "1 2 1 3"],
        ["verify", str(tri), "--radius", "5"],
        ["catalog", "--format", "json"],
    ]
    *together, _ = run_calls(calls)
    assert [rc for rc, _, _ in together] == [0, 2, 0, 2, 0, 0, 0]
    assert "invalid choice: 'xml'" in together[1][2]
    for argv, outcome in zip(calls, together):
        *alone, _ = run_calls([argv])
        assert alone == [outcome]
    # valid command lines are parsed without argparse
    valid = [argv for argv, (rc, _, _) in zip(calls, together) if rc != 2]
    assert run_calls(valid)[-1] is False


def test_import_builds_no_parser():
    # the parser is built only for help and usage errors, so importing the
    # CLI costs no argparse set-up
    assert run_calls([]) == [False]


def test_main_returns_the_usage_exit_code(capsys):
    # help and usage errors return from main; argparse's SystemExit
    # stays inside it
    assert cli.main(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    assert cli.main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: coxfold verify")


# -- the pruned walk's node cap ------------------------------------------------

TRI443_SWAP = "rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\nauto swap 2>3 3>2\n"


@pytest.mark.parametrize("radius,fixed", [("24", 25), ("40", 41)])
def test_verify_pruned_walk_passes_past_the_whole_ball_cap(capsys, tmp_path,
                                                           radius, fixed):
    # the radius-24 ball of the (4,4,3) triangle group is over the node
    # cap, and verify refused it; the pruned walk under the swap appends
    # 349 nodes at radius 24 and 901 at radius 40, and keeps the fixed words
    p = tmp_path / "tri443.cox"
    p.write_text(TRI443_SWAP)
    rc, out, err = run_cli(capsys, "verify", str(p), "--radius", radius)
    assert (rc, err) == (0, "")
    assert f"fixed_elements={fixed} " in out
    assert out.endswith("result: all checks passed\n")


def test_verify_pruned_walk_node_cap_exits_2(capsys, tmp_path, monkeypatch):
    # the cap bounds the walked tree: 349 nodes at radius 24
    monkeypatch.setattr(verify, "NODE_CAP", 348)
    p = tmp_path / "tri443.cox"
    p.write_text(TRI443_SWAP)
    rc, out, err = run_cli(capsys, "verify", str(p), "--radius", "24")
    assert (rc, out) == (2, "")
    assert err == "ball exceeded the node cap 348\n"
    monkeypatch.setattr(verify, "NODE_CAP", 349)
    assert run_cli(capsys, "verify", str(p), "--radius", "24")[0] == 0


@pytest.mark.parametrize("fmt,digest", [
    ("json", "f82aa5c8e4e61af3f8368d2b71e210d121d6cbdeba886bfbc63047bbecfe4287"),
    ("text", "519185b4511d856023788e7b3466ed8dadb02da42037c07d7622071ff2130db0"),
])
def test_verify_tri443_radius_22_report(capsys, tmp_path, fmt, digest):
    # the largest radius whose whole ball fits the node cap: the report the
    # whole-ball walk gave, byte for byte
    p = tmp_path / "tri443.cox"
    p.write_text(TRI443_SWAP)
    rc, out, _ = run_cli(capsys, "verify", str(p), "--radius", "22",
                         "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
