"""The benchmark tracer patches coxfold functions and methods by name.

Installing it in a fresh interpreter fails when one of those names is
gone, so a change that renames or deletes one fails here rather than in
a traced benchmark run.  A traced radius-4 verify on the (4,4,3) triangle
group then runs the hooks that read results: the sizes of the pruned
ball, of the fixed set and of the generated ball.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRI443 = "rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\nauto swap 2>3 3>2\n"


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


def test_traced_infinite_verify(tmp_path):
    path = tmp_path / "tri443.cox"
    path.write_text(TRI443)
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracing\n"
        "T = tracing.Tracer()\n"
        "tracing.install(T)\n"
        "from coxfold import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main(['verify', {str(path)!r}, '--radius', '4'])\n"
        "print(json.dumps({'rc': rc, 'counts': dict(T.counts)}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["rc"] == 0
    counts = out["counts"]
    # of the 39 words of length <= 4 the pruned walk appends 19, the
    # subtrees where a fixed word may lie; the swap fixes e, 1, 2 3 2,
    # 1 2 3 2, 2 3 2 1
    assert counts["verify.enumerate_ball.elements"] == 19
    assert counts["verify.fixed_subgroup.scanned"] == 19
    assert counts["verify.fixed_subgroup.kept"] == 5
    assert counts["verify.generated_ball.elements"] > 0
