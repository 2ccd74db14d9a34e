"""Measure the baseline of the current code and write perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 10] [--sets 2] [--workload NAME]...

Run from the root of a source checkout.  For each set, each workload runs
once per seed 1..N with ``--trace 0`` and the ``run_seconds`` of
BENCHMARK.json; then each workload runs once at seed 0 with ``--trace 1``.
Each end-to-end metric gets the median and quartiles of the first set
(``statistics.quantiles``, n=4), its spread (q3 - q1) / median, and the
median of every later set.  The whys and predictions already in
baseline.json are kept.  Prints, per gated metric, the spread and the
shift of the last set's median against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
BASELINE = os.path.join(BENCH, "baseline.json")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its results file and JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited "
                 f"{proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    path = os.path.join(
        OUT, f"results-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        result = json.load(fh)
    result["line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    with open(BASELINE) as fh:
        baseline = json.load(fh)

    sets = []  # sets[k][workload] = results of the seeds
    for k in range(args.sets):
        sets.append({})
        for w in names:
            sets[k][w] = []
            for seed in range(1, args.seeds + 1):
                res = run(w, seed, bench["run_seconds"], 0)
                sets[k][w].append(res)
                print(f"set {k + 1} {w} seed {seed}: " + ", ".join(
                    f"{n} {v['value']:.5g}"
                    for n, v in res["line"]["metrics"].items()), flush=True)

    ok = True
    meta = None
    for w in names:
        first = sets[0][w]
        meta = first[0]["metadata"]
        entry = baseline["workloads"].setdefault(w, {})
        entry["ops_per_pass"] = meta["ops_per_pass"]
        entry["ball_elements_per_pass"] = meta["ball_elements_per_pass"] or 0
        entry["generated_elements_per_pass"] = (
            meta["generated_elements_per_pass"] or 0)
        e2e = {}
        for name, (_, unit) in first[0]["end_to_end"].items():
            stats = summary([r["end_to_end"][name][0] for r in first])
            stats["unit"] = unit
            stats["gated"] = name in gated
            stats["later_set_medians"] = [
                statistics.median(r["end_to_end"][name][0] for r in s[w])
                for s in sets[1:]]
            e2e[name] = stats
            if name in gated:
                bound = gated[name]["bound"]
                last = (stats["later_set_medians"] or [stats["median"]])[-1]
                shift = last / stats["median"] - 1
                spread_ok = name == "setup_s" or stats["spread"] <= bound / 3
                ok &= spread_ok and shift <= bound
                print(f"{w:13s} {name:12s} spread {stats['spread']:.3f} "
                      f"shift {shift:+.3f} bound {bound} "
                      f"{'ok' if spread_ok and shift <= bound else 'NOT OK'}")
        entry["end_to_end"] = e2e
        traced = run(w, 0, bench["run_seconds"], 1)
        entry["per_layer"] = {n: {"value": v, "unit": u}
                              for n, (v, u) in traced["per_layer"].items()}
        entry["tracing"] = {k: traced["trace"][k] for k in (
            "overhead_s", "traced_wall_s", "untraced_wall_s", "root_s",
            "self_sum_s", "layer_self_s")}

    git = meta["git"]
    baseline["commit"] = git["sha"]
    baseline["dirty"] = git["dirty"]
    baseline["machine"] = (f"nproc {meta['nproc']}, {platform.system()}, "
                           f"Python {meta['python']}, mpmath {meta['mpmath']}")
    baseline["about"] = (
        f"Baseline of the coxfold benchmark, from perfbench/baseline.py. "
        f"End-to-end: median, quartiles (statistics.quantiles, n=4) and "
        f"spread (q3 - q1) / median over {args.seeds} runs with seeds "
        f"1..{args.seeds}, --seconds {bench['run_seconds']}, --trace 0; "
        f"later_set_medians are the medians of the same runs repeated right "
        f"after. wall_s and setup_s are normalised to the nominal host "
        f"speed (calibrate.py); wall_s.raw and setup_s.raw are as measured "
        f"and move with the shared host's speed, so compare them only "
        f"between runs made side by side. Per-layer: one --trace 1 run at "
        f"seed 0. Metrics marked gated are the end_to_end metrics of "
        f"BENCHMARK.json; the others are printed and written to the "
        f"results file only.")
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    print("baseline written;", "all gated metrics steady" if ok
          else "some gated metric is NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
