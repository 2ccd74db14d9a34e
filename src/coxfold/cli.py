"""Command-line front end.

Subcommands: reduce, fold, verify, classify, catalog.  Input files use the
line-based format parsed by coxfold.coxeter.parse_input; words are
space-separated 1-based generator indices.  Output is deterministic for a
fixed input, seed and radius.  Each command imports the modules it runs
when it runs: importing this module loads only the word engine, and so do
`reduce` and `classify`.  The grammar is declared once, in `COMMANDS`.
`main` parses a valid command line straight from it, and imports argparse
only to print help or a usage error.

Exit codes: 0 all requested checks passed, 1 a check failed (the report
carries a replayable witness), 2 input or validation error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .coxeter import (
    ParseError,
    _orbit_str,
    classify_finite,
    components,
    coxeter_order,
    parse_input,
    parse_number,
    type_string,
)
from .words import CoxeterGroup, parse_word, word_str


class SystemExit2(Exception):
    """Input/validation error; the CLI maps it to exit code 2."""


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise SystemExit2(f"cannot read {path}: {err}")
    try:
        return parse_input(text)
    except ParseError as err:
        lines = [f"{path}:{ln}: {msg}" for ln, msg in err.problems]
        raise SystemExit2("\n".join(lines))


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------


def cmd_reduce(args) -> int:
    parsed = _load(args.file)
    group = CoxeterGroup(parsed.matrix)
    try:
        word = parse_word(args.word, group.rank)
    except ValueError as err:
        raise SystemExit2(str(err))
    w = group.reduce(word)
    payload = {
        "word": list(word),
        "normal_form": list(w.word),
        "length": w.length,
        "left_descents": list(group.left_descents(w)),
        "right_descents": list(group.right_descents(w)),
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2))
    else:
        _emit(
            f"input word: {word_str(word)}\n"
            f"normal form: {word_str(w.word)}\n"
            f"length: {w.length}\n"
            f"left descents: {' '.join(map(str, payload['left_descents'])) or '-'}\n"
            f"right descents: {' '.join(map(str, payload['right_descents'])) or '-'}"
        )
    return 0


def _instance(parsed):
    """The group and automorphisms of an input that must declare one."""
    from .folding import Automorphism

    if not parsed.autos:
        raise SystemExit2(
            "no automorphism declared; add an `auto` line (`auto id` is allowed)"
        )
    group = CoxeterGroup(parsed.matrix)
    return group, [Automorphism(images) for _, images in parsed.autos]


def _fold_from(parsed):
    from .folding import fold

    group, autos = _instance(parsed)
    try:
        return fold(group, autos)
    except ValueError as err:
        raise SystemExit2(str(err))


def cmd_fold(args) -> int:
    summary = _fold_from(_load(args.file)).to_dict()
    if args.format == "json":
        payload = {
            "orbits": summary["orbits"],
            "dropped_infinite": summary["dropped_infinite"],
            "generators": summary["generators"],
            "folded_matrix": [[str(v) for v in row] for row in summary["matrix"]],
            "folded_type": summary["type"],
            "weights": summary["weights"],
            "pairs": [dict(p, label=str(p["label"])) for p in summary["pairs"]],
        }
        _emit(json.dumps(payload, indent=2))
        return 0
    lines = [
        "orbits: " + " ".join(map(_orbit_str, summary["orbits"])),
        "dropped (infinite parabolic): "
        + (" ".join(map(_orbit_str, summary["dropped_infinite"])) or "none"),
    ]
    for k, g in enumerate(summary["generators"], start=1):
        lines.append(
            f"generator g{k} = orbit {_orbit_str(g['orbit'])}, "
            f"longest word {word_str(g['word'])}, weight {g['weight']}"
        )
    lines.append("folded matrix:")
    lines.extend("  " + " ".join(map(str, row)) for row in summary["matrix"])
    weights = ", ".join(map(str, summary["weights"]))
    lines.append(f"folded: {summary['type']}, weights [{weights}]")
    for p in summary["pairs"]:
        a, b = map(_orbit_str, p["orbits"])
        if p["label"] == "inf":
            lines.append(f"pair ({a},{b}): infinite parabolic union, label inf")
        else:
            lk, (wa, wb) = p["union_longest_length"], p["weights"]
            lines.append(f"pair ({a},{b}): l(w_K) = {lk}, L = {wa} + {wb}, "
                         f"m = 2*{lk}/({wa}+{wb}) = {p['label']}")
    _emit("\n".join(lines))
    return 0


def _option_number(option: str, token: str) -> int:
    value = parse_number(token)
    if value is None:
        raise SystemExit2(f"bad {option} value {token!r}: expected ASCII digits")
    return value


def cmd_verify(args) -> int:
    from .verify import NodeCapExceeded, VerifyConfig, property_suite

    seed = _option_number("--seed", args.seed)
    radius = (None if args.radius is None
              else _option_number("--radius", args.radius))
    group, autos = _instance(_load(args.file))
    try:
        config = VerifyConfig(seed=seed, radius=radius)
    except ValueError as err:
        raise SystemExit2(str(err))
    try:
        report = property_suite(group, autos, config)
    except NodeCapExceeded as err:
        raise SystemExit2(str(err))
    if args.format == "json":
        _emit(report.to_json())
    else:
        lines = [f"input digest: {report.input_digest}"]
        if report.orbit_summary:
            lines.append(
                "orbits: " + " ".join(
                    _orbit_str(o) for o in report.orbit_summary["orbits"]
                )
            )
            fs = report.folded_summary
            weights = ", ".join(map(str, fs["weights"]))
            lines.append(f"folded: {fs['type']}, weights [{weights}]")
        for c in report.checks:
            stats = " ".join(f"{k}={v}" for k, v in sorted(c.statistics.items()))
            lines.append(f"[{c.status}] {c.name}" + (f"  ({stats})" if stats else ""))
            if c.witness:
                lines.append("  witness: " + json.dumps(c.witness, sort_keys=True))
        lines.append("result: " + ("all checks passed" if report.passed
                                   else "CHECK FAILURES"))
        _emit("\n".join(lines))
    if report.validation_failed:
        return 2
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    parsed = _load(args.file)
    matrix = parsed.matrix
    subset = list(matrix.generators())
    comps = components(matrix, subset)
    labels = classify_finite(matrix, subset)
    order = coxeter_order(matrix, subset)
    payload = {
        "rank": matrix.rank,
        "components": [list(c) for c in comps],
        "finite": labels is not None,
        "type": type_string(matrix, subset),
        "order": order,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2))
    else:
        _emit(
            f"rank: {matrix.rank}\n"
            f"components: {' '.join(_orbit_str(c) for c in comps)}\n"
            f"type: {payload['type']}\n"
            f"finite: {'yes' if payload['finite'] else 'no'}\n"
            f"order: {order if order is not None else 'infinite'}"
        )
    return 0


def cmd_catalog(args) -> int:
    from .catalog import run_catalog

    rows = run_catalog(slow=args.slow)
    if args.format == "json":
        _emit(json.dumps({"rows": [r.to_dict() for r in rows]}, indent=2))
    else:
        lines = []
        for r in rows:
            ew = ",".join(map(str, r.expected_weights))
            cw = ",".join(map(str, r.computed_weights))
            expected = f"{r.expected_type} [{ew}] |{r.expected_order}|"
            computed = f"{r.computed_type} [{cw}] |{r.computed_order}|"
            status = "match" if r.match else "MISMATCH"
            note = f"  ({r.ball_note})" if r.ball_note else ""
            lines.append(
                f"{r.name:24s} expected {expected:24s} "
                f"computed {computed:24s} {status}{note}"
            )
        ok = sum(1 for r in rows if r.match)
        lines.append(f"{ok}/{len(rows)} rows match")
        _emit("\n".join(lines))
    return 0 if all(r.match for r in rows) else 1


# ---------------------------------------------------------------------------


# The grammar, read by `_parse` and by `build_parser`.  Each command maps to
# (handler, help, positionals, options, flags).  An option maps its name to
# (default, choices, help) and takes one value; a flag maps its name to its
# help and stores True.  Each name is `--` and then its namespace attribute.

_FORMAT = {"--format": ("text", ("text", "json"), None)}

COMMANDS = {
    "reduce": (cmd_reduce, "normal form, length and descents of a word",
               ("file",),
               {"--word": ("", None, "space-separated 1-based indices"),
                **_FORMAT}, {}),
    "fold": (cmd_fold, "orbits, folded generators and folded matrix",
             ("file",), _FORMAT, {}),
    "verify": (cmd_verify, "run the full property suite", ("file",),
               {"--radius": (None, None, "ball radius for infinite groups, "
                                         "at least 1 (default 8)"),
                "--seed": ("0", None, None), **_FORMAT}, {}),
    "classify": (cmd_classify, "components and finite-type classification",
                 ("file",), _FORMAT, {}),
    "catalog": (cmd_catalog, "recompute the built-in instances", (), _FORMAT,
                {"--slow": "also run the rows that enumerate a large group "
                           "(E6)"}),
}


def _parse(argv):
    """The namespace argparse returns for argv when argv is a plain command
    line, else None.  Plain: a command name, then exact option names each
    with a value in its choices, exact flags and exactly the command's
    positionals, in any order, no option or flag twice, and no value or
    positional that starts with '-'.  Help, `--opt=value`, abbreviations,
    `--` and every usage error are left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, positionals, options, flags = COMMANDS[argv[0]]
    args = {"command": argv[0], "func": func}
    args.update((name[2:], spec[0]) for name, spec in options.items())
    args.update((name[2:], False) for name in flags)
    seen, given = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in seen:
            return None
        if token in options:
            value = next(tokens, "-")      # no value: refused below
            choices = options[token][1]
            if value.startswith("-") or (choices and value not in choices):
                return None
        elif token in flags:
            value = True
        elif token.startswith("-"):
            return None
        else:
            given.append(token)
            continue
        seen.add(token)
        args[token[2:]] = value
    if len(given) != len(positionals):
        return None
    args.update(zip(positionals, given))
    return SimpleNamespace(**args)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`.  `main` builds it only for a
    command line that `_parse` leaves to it: help, an abbreviation, or a
    usage error.  Each command adds its positionals, then its flags, then
    its options, in table order."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="coxfold",
        description="Exact folding of Coxeter groups along diagram automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_, positionals, options, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name in positionals:
            p.add_argument(name)
        for name, flag_help in flags.items():
            p.add_argument(name, action="store_true", help=flag_help)
        for name, (default, choices, option_help) in options.items():
            p.add_argument(name, default=default, choices=choices,
                           help=option_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv) or build_parser().parse_args(argv)
    except SystemExit as exit_:     # argparse after help or a usage error
        return exit_.code
    try:
        return args.func(args)
    except SystemExit2 as err:
        sys.stderr.write(str(err) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
