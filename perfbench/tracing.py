"""Tracing of coxfold from outside the package.

The tracer replaces the public functions and methods of each coxfold module
with wrappers, in every module namespace that holds a reference to them
(``verify`` imports ``is_fixed`` and ``root_sign`` by name; the in-function
``from .words import root_sign`` re-imports resolve the patched
``coxfold.words`` attribute at call time).

* Span wrappers record (name, start, end, parent span, op id) per call and
  keep the spans in memory.
* Hot wrappers, for the scalar entry points called millions of times,
  keep only a call count, total time and self time per name.
* Counter wrappers count events without timing them.

Self time of a call is its duration minus the durations of the wrapped
calls made inside it, so the self times of all wrapped calls add up to the
duration of the outermost span.  The run is one thread doing no I/O, so
no time is spent waiting; the tracer records none.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

CHECKS = (
    ("check_finiteness_vs_greedy", "finiteness-classification-vs-greedy"),
    ("check_factorize_fixed", "fixed-elements-factorize"),
    ("check_choice_independence", "factorization-count-choice-independent"),
    ("check_minimal_additivity", "minimal-words-length-additive"),
    ("check_dihedral_pairs", "dihedral-pairs"),
    ("check_additivity_transfer", "length-additivity-transfer"),
    ("check_folded_exchange", "folded-exchange-condition"),
    ("check_generated_matches_fixed", "generated-subgroup-matches-fixed-set"),
    ("presentation_check", "presentation-isomorphism"),
)


def coxfold_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "coxfold" or n.startswith("coxfold."))]


def patch_function(module, attr: str, make):
    """Replace module.attr by make(original) wherever it is bound."""
    orig = getattr(module, attr)
    new = make(orig)
    for mod in coxfold_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
    return new


def patch_method(cls, attr: str, make):
    """Replace cls.attr and its aliases in the class body (e.g. __rmul__)."""
    orig = vars(cls)[attr]
    new = make(orig)
    for key, value in list(vars(cls).items()):
        if value is orig:
            setattr(cls, key, new)
    return new


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op)
        self.calls = defaultdict(int)  # span name -> calls
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.hot: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.op = -1
        self._ids = [-1]
        self._child = [0.0]            # child time of each open call

    def span(self, name, fn, observe=None):
        """Wrap fn in a span; name may be a function of the call arguments."""
        spans, ids, child = self.spans, self._ids, self._child
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            sid = len(spans)
            spans.append(None)
            parent = ids[-1]
            ids.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                ids.pop()
                self_s[label] += dur - child.pop()
                child[-1] += dur
                calls[label] += 1
                total_s[label] += dur
                spans[sid] = (label, t0, t1, parent, tracer.op)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result
        return wrapper

    def hot_call(self, name, fn):
        """Count and time fn without a span per call."""
        rec = self.hot.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child.pop()
                child[-1] += dur
        return wrapper

    def counter(self, key, fn, test=None):
        """Count calls of fn (those where test(*args) holds, if given)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if test is None or test(*args):
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def add(self, key, amount):
        self.counts[key] += amount

    # -- summaries -------------------------------------------------------------

    def self_time_sum(self) -> float:
        return sum(self.self_s.values()) + sum(h[2] for h in self.hot.values())

    def layer_self_s(self) -> dict:
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        for name, h in self.hot.items():
            out[name.split(".")[0]] += h[2]
        return dict(sorted(out.items()))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every coxfold module."""
    import mpmath
    from coxfold import catalog, cli, coxeter, cyclo, folding, verify, words

    T = tracer
    Cyclo = cyclo.CycloReal

    # cyclo: scalar entry points are hot; sign work is counted inside
    patch_method(Cyclo, "__mul__", lambda f: T.hot_call("cyclo.mul", f))
    for attr in ("__add__", "__sub__", "__rsub__", "__neg__"):
        patch_method(Cyclo, attr, lambda f: T.hot_call("cyclo.add", f))

    def count_nonzero(fn):
        def sign(self):
            s = fn(self)
            if s:
                T.counts["cyclo.sign.nonzero_calls"] += 1
            return s
        return sign

    patch_method(Cyclo, "sign",
                 lambda f: T.hot_call("cyclo.sign", count_nonzero(f)))
    patch_method(Cyclo, "_compute_sign", lambda f: T.counter(
        "cyclo.sign.memo_hits", f,
        lambda self: (not self.is_zero()
                      and (self.ctx.N, self.coeffs) in cyclo._SIGN_MEMO)))
    patch_method(Cyclo, "_interval_value",
                 lambda f: T.counter("cyclo.sign.interval_evals", f))
    patch_method(Cyclo, "_interval_value", lambda f: T.counter(
        "cyclo.sign.escalations", f, lambda self: mpmath.iv.prec > 64))

    # coxeter
    for attr in ("parse_input", "classify_finite", "coxeter_order",
                 "type_string", "validate"):
        patch_function(coxeter, attr,
                       lambda f, a=attr: T.span("coxeter." + a, f))

    # words
    G = words.CoxeterGroup
    patch_method(G, "__init__", lambda f: T.span("words.CoxeterGroup", f))
    patch_method(G, "reflect", lambda f: T.hot_call("words.reflect", f))
    for attr in ("reduce", "multiply", "inverse", "longest_element",
                 "positive_roots", "coset_decompose", "exchange",
                 "left_descents", "right_descents"):
        patch_method(G, attr, lambda f, a=attr: T.span("words." + a, f))
    patch_function(words, "root_sign",
                   lambda f: T.counter("words.descent_tests", f))

    # folding
    for attr in ("fold", "is_fixed", "orbits"):
        patch_function(folding, attr,
                       lambda f, a=attr: T.span("folding." + a, f))
    F = folding.FoldedSystem
    for attr in ("greedy_factorize", "factorize_product", "weight_additivity",
                 "folded_exchange", "lambda_length", "lambda_of_product",
                 "product_of"):
        patch_method(F, attr, lambda f, a=attr: T.span("folding." + a, f))
    patch_method(folding.InvariantViolation, "__init__",
                 lambda f: T.counter("folding.invariant_violations", f))

    # verify
    def ball_size(result, *args, **kwargs):
        T.add("verify.enumerate_ball.elements", len(result))

    def generated_size(result, *args, **kwargs):
        T.add("verify.generated_ball.elements", len(result))
        T.add("verify.generated_ball.new", len(result) - 1)
        T.add("verify.generated_ball.products", len(result.gens) * len(result))

    def kept(result, ball, *args, **kwargs):
        T.add("verify.fixed_subgroup.kept", len(result))
        T.add("verify.fixed_subgroup.scanned", len(ball))

    patch_function(verify, "enumerate_ball", lambda f: T.span(
        "verify.enumerate_ball", f, ball_size))
    patch_function(verify, "generated_ball", lambda f: T.span(
        "verify.generated_ball", f, generated_size))
    patch_function(verify, "fixed_subgroup", lambda f: T.span(
        "verify.fixed_subgroup", f, kept))
    for attr in ("property_suite", "input_digest"):
        patch_function(verify, attr, lambda f, a=attr: T.span("verify." + a, f))
    for attr, check in CHECKS:
        patch_function(verify, attr,
                       lambda f, c=check: T.span("verify.check." + c, f))

    # catalog: one span per row, named after the row
    patch_function(catalog, "run_catalog",
                   lambda f: T.span("catalog.run_catalog", f))
    patch_function(catalog, "run_entry", lambda f: T.span(
        lambda entry: "catalog.row." + entry.name, f))

    # cli: argument parsing, file reads and rendering are its self time
    patch_function(cli, "main", lambda f: T.span("cli.main", f))


def install_light(record: dict, clock=time.perf_counter) -> None:
    """Untraced passes: time catalog rows and count enumerated elements.

    A few dozen calls per pass, so the cost is below timer resolution of
    the metrics it serves.  ``clock`` is the pass's clock, which leaves out
    the host-speed sampler.
    """
    from coxfold import catalog, verify


    def rows(fn):
        def run_entry(entry):
            t0 = clock()
            row = fn(entry)
            record["rows"].append([entry.name, clock() - t0])
            return row
        return run_entry

    def sized(key, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record[key] += len(result)
            return result
        return wrapper

    record.update(rows=[], ball_elements=0, generated_elements=0)
    patch_function(catalog, "run_entry", rows)
    patch_function(verify, "enumerate_ball",
                   lambda f: sized("ball_elements", f))
    patch_function(verify, "generated_ball",
                   lambda f: sized("generated_elements", f))


def per_layer_metrics(T: Tracer) -> dict:
    """The per-layer metrics, by name: (value, unit)."""
    from coxfold.catalog import CATALOG

    def calls(name):
        return T.hot[name][0] if name in T.hot else T.calls.get(name, 0)

    def self_s(name):
        return T.hot[name][2] if name in T.hot else T.self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    c = T.counts
    m = {}
    for name in ("cyclo.mul", "cyclo.add"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["cyclo.sign.calls"] = (calls("cyclo.sign"), "count")
    m["cyclo.sign.self_s"] = (self_s("cyclo.sign"), "s")
    m["cyclo.sign.interval_evals"] = (c["cyclo.sign.interval_evals"], "count")
    m["cyclo.sign.escalations"] = (c["cyclo.sign.escalations"], "count")
    m["cyclo.sign.memo_hit_ratio"] = (
        ratio(c["cyclo.sign.memo_hits"], c["cyclo.sign.nonzero_calls"]), "ratio")
    m["coxeter.classify_finite.calls"] = (calls("coxeter.classify_finite"),
                                          "count")
    m["coxeter.classify_finite.self_s"] = (self_s("coxeter.classify_finite"),
                                           "s")
    m["coxeter.parse_input.self_s"] = (self_s("coxeter.parse_input"), "s")
    for name in ("words.reflect", "words.reduce", "words.multiply",
                 "words.longest_element"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["words.descent_tests"] = (c["words.descent_tests"], "count")
    m["folding.fold.self_s"] = (self_s("folding.fold"), "s")
    m["folding.is_fixed.calls"] = (calls("folding.is_fixed"), "count")
    for name in ("folding.greedy_factorize", "folding.factorize_product",
                 "folding.weight_additivity", "folding.folded_exchange"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["folding.invariant_violations"] = (c["folding.invariant_violations"],
                                         "count")
    m["verify.enumerate_ball.self_s"] = (self_s("verify.enumerate_ball"), "s")
    m["verify.enumerate_ball.elements"] = (
        c["verify.enumerate_ball.elements"], "count")
    m["verify.generated_ball.self_s"] = (self_s("verify.generated_ball"), "s")
    m["verify.generated_ball.elements"] = (
        c["verify.generated_ball.elements"], "count")
    m["verify.generated_ball.new_ratio"] = (
        ratio(c["verify.generated_ball.new"],
              c["verify.generated_ball.products"]), "ratio")
    m["verify.fixed_subgroup.self_s"] = (self_s("verify.fixed_subgroup"), "s")
    m["verify.fixed_subgroup.kept_ratio"] = (
        ratio(c["verify.fixed_subgroup.kept"],
              c["verify.fixed_subgroup.scanned"]), "ratio")
    m["verify.property_suite.self_s"] = (self_s("verify.property_suite"), "s")
    for _, check in CHECKS:
        name = "verify.check." + check
        m[name + ".self_s"] = (self_s(name), "s")
    for entry in CATALOG:
        name = "catalog.row." + entry.name
        m[name + ".s"] = (T.total_s.get(name, 0.0), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    return m
