"""One cold pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json OUT.json

JOB.json names the workload inputs that run.py generated and a mode:

* ``pass``:  set up, run every op of the workload once, record timings and
  outputs (with ``trace`` set, under the tracer of tracing.py);
* ``setup``: set up and stop, to sample set-up time alone;
* ``gate``:  check a slice of ``words`` outputs with the program itself.

Set-up is timed from the first statement of this file, so it covers
``import coxfold``; it ends before the first op.  Untraced set-up and ops
run under the host-speed sampler of calibrate.py: the time its handler
takes is left out of every time, and ``setup_s`` and ``wall_s`` are
normalised to the nominal host speed (``*_raw_s`` are not).
"""

import time

T_START = time.perf_counter()

import calibrate  # noqa: E402  (first, so that set-up is sampled)

SETUP_SAMPLER = calibrate.Sampler()
SETUP_SAMPLER.start()
POST_BURST = 10  # samples taken after a region, so that none has too few

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import coxfold  # noqa: E402
from coxfold import cli  # noqa: E402  (the op entry point)

import tracing  # noqa: E402

if not os.path.abspath(coxfold.__file__).startswith(SRC + os.sep):
    sys.exit(f"coxfold imported from {coxfold.__file__}, not from {SRC}")


def _read(path):
    with open(path) as fh:
        return fh.read()


def _autos(parsed):
    return [coxfold.Automorphism(images) for _, images in parsed.autos]


def setup(job):
    """Parse, build and fold every instance or group of the workload."""
    groups = {}
    if job["workload"] == "catalog-slow":
        from coxfold.catalog import CATALOG
        for entry in CATALOG:
            if entry.slow and job["tiny"]:
                continue
            parsed = coxfold.parse_input(entry.input_text)
            coxfold.fold(coxfold.CoxeterGroup(parsed.matrix), _autos(parsed))
    elif job["workload"] == "verify":
        for inst in job["instances"]:
            parsed = coxfold.parse_input(_read(inst["file"]))
            coxfold.fold(coxfold.CoxeterGroup(parsed.matrix), _autos(parsed))
    else:
        for g in job["groups"]:
            parsed = coxfold.parse_input(_read(g["file"]))
            groups[g["name"]] = coxfold.CoxeterGroup(parsed.matrix)
    return groups


def _cli_op(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def end_setup():
    """Stop the set-up sampler; (normalised, raw) set-up seconds."""
    raw = SETUP_SAMPLER.now() - T_START
    SETUP_SAMPLER.stop()
    samples = SETUP_SAMPLER.samples + calibrate.burst(POST_BURST)
    return raw / calibrate.factor(samples), raw


def run_ops(job, groups, tracer, clock):
    """Run every op once; each record carries its latency and output."""
    if job["workload"] == "catalog-slow":
        items = [("catalog", job["argv"])]
    elif job["workload"] == "verify":
        items = [(inst["name"], inst["argv"]) for inst in job["instances"]]
    else:
        items = json.loads(_read(job["words_file"]))
    ops = []
    for op_id, (name, arg) in enumerate(items):
        if tracer is not None:
            tracer.op = op_id
        rec = {"name": name}
        t0 = clock()
        try:
            if job["workload"] == "words":
                g = groups[name]
                w = g.reduce(arg)
                rec["output"] = [list(w.word), list(g.left_descents(w)),
                                 list(g.right_descents(w))]
            else:
                rec["output"] = _cli_op(arg)
        except Exception as err:  # a failed op is recorded; the pass goes on
            rec["error"] = f"{type(err).__name__}: {err}"
        rec["seconds"] = clock() - t0
        ops.append(rec)
    return ops


def run_pass(job):
    out = {}
    tracer = None
    sampler = calibrate.Sampler()  # never started in a traced pass
    if job["trace"]:
        SETUP_SAMPLER.stop()  # handler time would land in the spans
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        tracing.install_light(out, sampler.now)

    def whole_pass():
        groups = setup_span(job)
        if tracer is None:
            out["setup_s"], out["setup_raw_s"] = end_setup()
            sampler.start()
        t0 = sampler.now()
        out["ops"] = ops_span(job, groups, tracer, sampler.now)
        out["wall_raw_s"] = sampler.now() - t0
        sampler.stop()
        if tracer is None:
            samples = sampler.samples + calibrate.burst(POST_BURST)
            out["host_factor"] = calibrate.factor(samples)
            out["wall_s"] = out["wall_raw_s"] / out["host_factor"]

    if tracer is None:
        setup_span, ops_span = setup, run_ops
        whole_pass()
    else:
        setup_span = tracer.span("bench.setup", setup)
        ops_span = tracer.span("bench.ops", run_ops)
        tracer.span("bench.pass", whole_pass)()
        root = tracer.spans[0]  # the outermost span opens first
        out["trace"] = {
            "root_s": root[2] - root[1],
            "self_sum_s": tracer.self_time_sum(),
            "layer_self_s": tracer.layer_self_s(),
            "waiting_s": 0.0,
            "spans": len(tracer.spans),
            "by_name": {
                **{n: {"calls": tracer.calls[n], "total_s": tracer.total_s[n],
                       "self_s": tracer.self_s[n]} for n in tracer.calls},
                **{n: {"calls": h[0], "total_s": h[1], "self_s": h[2]}
                   for n, h in tracer.hot.items()},
            },
            "counts": dict(tracer.counts),
            "metrics": {k: list(v) for k, v in
                        tracing.per_layer_metrics(tracer).items()},
        }
        out["trace_spans"] = tracer.spans
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run_gate(job):
    """Check words outputs: normal forms re-reduce to themselves, are no
    longer than the input with the same parity, and the descent sets agree
    with the lengths of s * nf and nf * s."""
    groups = setup(job)
    failed = []
    for i, (name, word), output in job["check"]:
        try:
            ok = _check_word(groups[name], word, output)
        except Exception:
            ok = False
        if not ok:
            failed.append(i)
    return {"failed": failed}


def _check_word(g, word, output):
    nf, left, right = (tuple(x) for x in output)
    n = len(nf)
    w = g.reduce(nf)
    if w.word != nf or n > len(word) or (len(word) - n) % 2:
        return False
    # multiplying by a simple element costs less than reducing the longer word
    gens = g.generators()
    return (left == tuple(s for s in gens
                          if g.multiply(g.simple(s), w).length < n)
            and right == tuple(s for s in gens
                               if g.multiply(w, g.simple(s)).length < n))


def main():
    job_path, out_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    if job["mode"] == "pass":
        out = run_pass(job)
    elif job["mode"] == "setup":
        setup(job)
        setup_s, setup_raw_s = end_setup()
        out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    else:
        SETUP_SAMPLER.stop()
        out = run_gate(job)
    spans = out.pop("trace_spans", None)
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    if spans is not None:
        with open(out_path[:-len(".json")] + "-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


if __name__ == "__main__":
    main()
