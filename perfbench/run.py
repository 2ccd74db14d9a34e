"""coxfold benchmark.

    python3 perfbench/run.py --workload {catalog-slow,verify,words}
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program is imported from
``src/``.  Every measured pass is a fresh single-threaded interpreter
(worker.py), so the process-global caches of coxfold start cold, as they
do for each CLI call.  Ops run closed loop with one client: the next op
starts when the previous one returns.

``--trace 0`` repeats passes while another pass is expected to end within
``--seconds`` (at least one), then runs set-up-only passes.  It checks
every output and reports the end-to-end metrics of BENCHMARK.json: medians
over passes and set-up samples, and latency percentiles over the ops of
all passes.  ``wall_s`` and ``setup_s`` are normalised to a nominal host
speed measured in the same process while it runs (calibrate.py), because
the shared host's own speed swings by more than their bounds;
``wall_s.raw`` and ``setup_s.raw`` are the times as measured.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one, the tracing overhead and the
self-time balance.

The last line of standard output is one JSON object (correct, attempted,
failed, metrics).  The exit code is 0 when every op passed its output
gate, 1 when some op failed it, and 2 when the checkout cannot be run.
A results file with the run metadata is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference")
WORKER = os.path.join(BENCH, "worker.py")

SETUP_PROBES = 12      # set-up-only passes per run, besides the measured ones
GATE_PROCS = 2         # processes checking words outputs, after all timing
RUN_LIMIT = 170        # seconds; workers still running then are killed
T_BEGIN = time.monotonic()


# ---------------------------------------------------------------------------
# worker processes


def _start_worker(job: dict, tag: str) -> tuple[subprocess.Popen, str]:
    job_path = os.path.join(job["work_dir"], tag + "-job.json")
    out_path = os.path.join(job["work_dir"], tag + ".json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    if os.path.exists(out_path):
        os.remove(out_path)
    proc = subprocess.Popen(
        [sys.executable, WORKER, job_path, out_path], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    return proc, out_path


def _finish_worker(proc: subprocess.Popen, out_path: str) -> dict | None:
    """The worker's result, or None if it crashed or timed out."""
    try:
        _, err = proc.communicate(
            timeout=max(1.0, RUN_LIMIT - (time.monotonic() - T_BEGIN)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"worker timed out: {out_path}\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"worker failed ({proc.returncode}): {err[-2000:]}\n")
        return None
    with open(out_path) as fh:
        return json.load(fh)


def run_worker(job: dict, tag: str) -> dict | None:
    return _finish_worker(*_start_worker(job, tag))


# ---------------------------------------------------------------------------
# measuring


def collect(spec: dict, seconds: float, trace: bool) -> dict:
    """Run the passes of one run; returns their raw results."""
    raw = {"passes": [], "setup_samples": [], "setup_raw_samples": []}
    if trace:
        raw["passes"].append(run_worker(dict(spec, mode="pass", trace=False),
                                        "pass-0"))
        raw["traced"] = run_worker(dict(spec, mode="pass", trace=True),
                                   "traced")
    else:
        t_begin = time.perf_counter()
        while True:
            k = len(raw["passes"])
            raw["passes"].append(
                run_worker(dict(spec, mode="pass", trace=False), f"pass-{k}"))
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / (k + 1) > seconds:
                break
        for k in range(SETUP_PROBES):
            res = run_worker(dict(spec, mode="setup", trace=False), f"setup-{k}")
            if res is not None:
                raw["setup_samples"].append(res["setup_s"])
                raw["setup_raw_samples"].append(res["setup_raw_s"])
    # the traced pass is left out: tracing slows its set-up
    for p in raw["passes"]:
        if p is not None:
            raw["setup_samples"].append(p["setup_s"])
            raw["setup_raw_samples"].append(p["setup_raw_s"])
    return raw


def op_count(spec: dict, reference: dict) -> int:
    if spec["workload"] == "catalog-slow":
        return len(reference["catalog_rows"])
    if spec["workload"] == "verify":
        return len(spec["instances"])
    with open(spec["words_file"]) as fh:
        return len(json.load(fh))


# ---------------------------------------------------------------------------
# output gate


def load_reference(spec: dict) -> dict:
    """Expected outputs: catalog text always, digests for the default seed."""
    name = "catalog.txt" if spec["tiny"] else "catalog-slow.txt"
    with open(os.path.join(REFERENCE, name)) as fh:
        text = fh.read()
    ref = {"catalog_text": text, "catalog_rows": text.splitlines()[:-1]}
    if spec["seed"] == workloads.DEFAULT_SEED and not spec["tiny"]:
        with open(os.path.join(REFERENCE, "digests-seed0.json")) as fh:
            ref.update(json.load(fh))
    return ref


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate_catalog(op: dict, reference: dict) -> list[bool]:
    """Per catalog row: does its line match the reference byte for byte?"""
    rows = reference["catalog_rows"]
    if "error" in op:
        return [False] * len(rows)
    out = op["output"]
    lines = out["stdout"].splitlines()
    ok = [i < len(lines) and lines[i] == row for i, row in enumerate(rows)]
    if all(ok) and (out["rc"] != 0 or out["stdout"] != reference["catalog_text"]):
        return [False] * len(rows)
    return ok


def gate_verify(op: dict, reference: dict) -> tuple[bool, str | None]:
    """Exit 0, every check passes, and the report digest matches if known."""
    if "error" in op or op["output"]["rc"] != 0:
        return False, None
    text = op["output"]["stdout"]
    digest = sha256(text)
    try:
        report = json.loads(text)
        passed = all(c["status"] == "pass" for c in report["checks"])
    except (ValueError, KeyError, TypeError):
        passed = False
    expected = reference.get("verify", {}).get(op["name"])
    return passed and expected in (None, digest), digest


def gate_words(spec: dict, ops: list[dict], reference: dict) -> tuple[set, str]:
    """Indices of failing ops, and the digest of all outputs."""
    with open(spec["words_file"]) as fh:
        items = json.load(fh)
    outputs = [op.get("output") for op in ops]
    digest = sha256(json.dumps(outputs))
    failed = {i for i, out in enumerate(outputs) if out is None}
    expected = reference.get("words")
    if expected is not None and expected != digest:
        return set(range(len(ops))), digest
    todo = [[i, items[i], out] for i, out in enumerate(outputs) if out is not None]
    workers = [
        _start_worker(dict(spec, mode="gate", check=todo[k::GATE_PROCS]),
                      f"gate-{k}")
        for k in range(GATE_PROCS)
    ]
    for k, (proc, out_path) in enumerate(workers):
        res = _finish_worker(proc, out_path)
        if res is None:
            failed.update(i for i, _, _ in todo[k::GATE_PROCS])
        else:
            failed.update(res["failed"])
    return failed, digest


def evaluate(spec: dict, raw: dict, reference: dict) -> dict:
    """Gate every op of every pass.  Returns failed counts and digests."""
    n_ops = op_count(spec, reference)
    passes = raw["passes"] + ([raw["traced"]] if "traced" in raw else [])
    attempted = n_ops * len(passes)
    live = [p for p in passes if p is not None]
    failed = n_ops * (len(passes) - len(live))
    digests: dict = {}
    if not live:
        return {"attempted": attempted, "failed": failed, "digests": digests}
    first = live[0]["ops"]
    if spec["workload"] == "catalog-slow":
        for p in live:
            failed += gate_catalog(p["ops"][0], reference).count(False)
    elif spec["workload"] == "verify":
        for p in live:
            for op in p["ops"]:
                ok, digest = gate_verify(op, reference)
                # later passes must repeat the first pass's report exactly
                first_digest = digests.setdefault(op["name"], digest)
                failed += not ok or digest != first_digest
    else:
        bad, digests["words"] = gate_words(spec, first, reference)
        for p in live:
            # later passes must repeat the first pass's outputs exactly
            failed += sum(
                1 for i, op in enumerate(p["ops"])
                if i in bad or op.get("output") != first[i].get("output")
            )
    return {"attempted": attempted, "failed": failed, "digests": digests}


# ---------------------------------------------------------------------------
# metrics


def p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def op_latencies(spec: dict, p: dict) -> list[tuple[str, bool, float]]:
    """(op name, ambient group finite?, seconds) for each op of a pass."""
    if spec["workload"] == "catalog-slow":
        return [(name, name not in workloads.CATALOG_INFINITE, s)
                for name, s in p["rows"]]
    if spec["workload"] == "verify":
        finite = {inst["name"]: inst["finite"] for inst in spec["instances"]}
    else:
        finite = {g["name"]: g["finite"] for g in spec["groups"]}
    return [(op["name"], finite[op["name"]], op["seconds"]) for op in p["ops"]]


def end_to_end(spec: dict, raw: dict, gate: dict) -> dict:
    """Every end-to-end metric that applies to the workload: (value, unit)."""
    live = [p for p in raw["passes"] if p is not None]
    if not live:
        return {}
    lat = [x for p in live for x in op_latencies(spec, p)]
    ms = [s * 1e3 for _, _, s in lat]
    m = {
        "wall_s": (statistics.median(p["wall_s"] for p in live), "s"),
        "setup_s": (statistics.median(raw["setup_samples"]), "s"),
        "wall_s.raw": (statistics.median(p["wall_raw_s"] for p in live), "s"),
        "setup_s.raw": (statistics.median(raw["setup_raw_samples"]), "s"),
        "host_factor": (statistics.median(p["host_factor"] for p in live),
                        "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in live),
                        "MiB"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p99_ms": (p99(ms), "ms"),
        "op_p50_ms.finite": (
            statistics.median(s * 1e3 for _, f, s in lat if f), "ms"),
        "op_p50_ms.infinite": (
            statistics.median(s * 1e3 for _, f, s in lat if not f), "ms"),
        "ops_failed_share": (gate["failed"] / gate["attempted"], "ratio"),
    }
    if spec["workload"] == "verify":
        for name in workloads.VERIFY_TIMED:
            times = [s for p in live for n, _, s in op_latencies(spec, p)
                     if n == name]
            if times:
                m["instance_s." + name] = (statistics.median(times), "s")
    return m


# ---------------------------------------------------------------------------
# metadata and reporting


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None, "note": "git unavailable"}


def metadata(spec: dict, raw: dict, n_ops: int) -> dict:
    live = [p for p in raw["passes"] if p is not None]
    return {
        "git": git_state(),
        "python": platform.python_version(),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "seed": spec["seed"],
        "workload": spec["workload"],
        "ops_per_pass": n_ops,
        "passes": len(raw["passes"]),
        "pass_wall_s": [p["wall_s"] for p in live],
        "pass_wall_raw_s": [p["wall_raw_s"] for p in live],
        "pass_host_factor": [p["host_factor"] for p in live],
        "setup_samples": len(raw["setup_samples"]),
        "ball_elements_per_pass": live[0].get("ball_elements") if live else None,
        "generated_elements_per_pass":
            live[0].get("generated_elements") if live else None,
    }


def check_trace(traced: dict, untraced: dict) -> dict:
    t = traced["trace"]
    return {
        "overhead_s": traced["wall_raw_s"] - untraced["wall_raw_s"],
        "traced_wall_s": traced["wall_raw_s"],
        "untraced_wall_s": untraced["wall_raw_s"],
        "root_s": t["root_s"],
        "self_sum_s": t["self_sum_s"],
        "self_sum_balanced": abs(t["self_sum_s"] - t["root_s"])
        <= 1e-6 * max(1.0, t["root_s"]),
        "layer_self_s": t["layer_self_s"],
        "waiting_s": t["waiting_s"],
        "spans": t["spans"],
        "by_name": t["by_name"],
        "counts": t["counts"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    work_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}"
                            + ("-tiny" if tiny else ""))
    shutil.rmtree(work_dir, ignore_errors=True)
    spec = workloads.make_inputs(workload, seed, tiny, work_dir)
    spec["work_dir"] = work_dir
    raw = collect(spec, seconds, trace)
    reference = load_reference(spec)
    gate = evaluate(spec, raw, reference)
    n_ops = op_count(spec, reference)
    result = {
        "metadata": metadata(spec, raw, n_ops),
        "gate": gate,
        "end_to_end": end_to_end(spec, raw, gate),
        "spec": spec,
    }
    if trace:
        traced, untraced = raw["traced"], raw["passes"][0]
        if traced is None or untraced is None:
            result["per_layer"] = {}
        else:
            result["per_layer"] = traced["trace"]["metrics"]
            result["trace"] = check_trace(traced, untraced)
    result["raw"] = raw
    return result


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def report(result: dict, trace: bool) -> tuple[dict, bool]:
    """Print the human-readable lines; return the JSON line's metrics."""
    gate = result["gate"]
    meta = result["metadata"]
    print(f"# workload {meta['workload']} seed {meta['seed']}: "
          f"{meta['passes']} pass(es) of {meta['ops_per_pass']} ops, "
          f"{gate['failed']}/{gate['attempted']} ops failed the output gate")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"{name:28s} {value:14.6g} {unit}")
    if result["end_to_end"]:
        print(f"(latency percentiles over {meta['passes'] * meta['ops_per_pass']} "
              f"ops; ops_failed_share = {gate['failed']}/{gate['attempted']} ops)")
    if trace and "trace" in result:
        t = result["trace"]
        print(f"tracing overhead {t['overhead_s']:.3f} s "
              f"(traced {t['traced_wall_s']:.3f} s, untraced "
              f"{t['untraced_wall_s']:.3f} s); self times sum to "
              f"{t['self_sum_s']:.6f} s of a {t['root_s']:.6f} s root span; "
              f"waiting {t['waiting_s']} s (one thread, no I/O)")
        for layer, s in t["layer_self_s"].items():
            print(f"  layer {layer:10s} self {s:10.4f} s")
        for name, (value, unit) in result["per_layer"].items():
            print(f"{name:58s} {value:14.6g} {unit}")
    source = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    complete = True
    for decl in declared_metrics(trace):
        if decl["name"] in source:
            value, unit = source[decl["name"]]
            metrics[decl["name"]] = {"value": value, "unit": unit}
        else:
            complete = False
    return metrics, complete


def write_results(result: dict, trace: bool) -> str:
    meta = result["metadata"]
    path = os.path.join(
        OUT, f"results-{meta['workload']}-seed{meta['seed']}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({k: v for k, v in result.items() if k != "raw"}, fh, indent=1)
    return path


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """Tiny inputs: every declared metric is emitted with its unit, and a
    corrupted reference makes ops fail."""
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = measure(workload, workloads.DEFAULT_SEED, 0, trace,
                             tiny=True)
            source = result["per_layer"] if trace else result["end_to_end"]
            for decl in declared_metrics(trace):
                got = source.get(decl["name"])
                if got is None or got[1] != decl["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: "
                                    f"{decl['name']} missing or wrong unit {got}")
            if result["gate"]["failed"]:
                problems.append(f"{workload} trace={int(trace)}: "
                                f"{result['gate']['failed']} ops failed")
            if trace and not result.get("trace", {}).get("self_sum_balanced"):
                problems.append(f"{workload}: self times do not sum to the root")
        spec, raw = result["spec"], result["raw"]
        bad = load_reference(spec)
        if workload == "catalog-slow":
            bad["catalog_rows"][0] = bad["catalog_rows"][0].replace("a", "b", 1)
        elif workload == "verify":
            bad["verify"] = {spec["instances"][0]["name"]: "0" * 64}
        else:
            bad["words"] = "0" * 64
        if evaluate(spec, raw, bad)["failed"] == 0:
            problems.append(f"{workload}: a corrupted reference failed no op")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coxfold", "__init__.py")):
        sys.stderr.write(f"no coxfold sources under {ROOT}/src\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace)
    metrics, complete = report(result, trace)
    print("# results:", os.path.relpath(write_results(result, trace), ROOT))
    if not complete:
        sys.stderr.write("some declared metrics were not measured\n")
        return 2
    gate = result["gate"]
    print(json.dumps({"correct": gate["failed"] == 0,
                      "attempted": gate["attempted"],
                      "failed": gate["failed"], "metrics": metrics}))
    return 0 if gate["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
