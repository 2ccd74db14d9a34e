"""Exit-code contract under random input: every run of every subcommand
exits 0, 1 or 2, and no exception escapes `main` (which the console
script would print as a traceback).  On valid infinite-W inputs whose
automorphisms preserve the matrix, `verify` exits 0: the folding theorem
holds, so every check passes.  `main` parses a valid command line without
argparse; on every command line it takes, it returns argparse's namespace."""

import contextlib
import io
import itertools
import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

from coxfold import cli
from coxfold.coxeter import classify_finite, parse_input

from conftest import BAD_NUMBERS

LABELS = ("2", "3", "4", "5", "6", "12", "inf", "1", "0", "-3", "x", "2.5",
          "1000", *BAD_NUMBERS)
VALID_LABELS = ("2", "2", "3", "4", "5", "6", "inf")
SMALL = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(BAD_NUMBERS))


@st.composite
def well_formed(draw, max_rank):
    """A valid file; its automorphism need not preserve the labels."""
    rank = draw(st.integers(1, max_rank))
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    labels = draw(st.lists(st.sampled_from(VALID_LABELS), min_size=len(pairs),
                           max_size=len(pairs)))
    lines = [f"rank {rank}"]
    lines += [f"m {i} {j} {v}" for (i, j), v in zip(pairs, labels) if v != "2"]
    identity = list(range(1, rank + 1))
    images = draw(st.one_of(st.just(identity), st.permutations(identity)))
    moved = " ".join(f"{s}>{t}" for s, t in enumerate(images, start=1) if s != t)
    lines.append("auto g " + moved if moved else "auto id")
    return "\n".join(lines) + "\n"


@st.composite
def malformed(draw, max_rank):
    """Input files with malformed lines mixed in."""
    lines = []
    if draw(st.integers(0, 9)):
        lines.append(f"rank {draw(st.integers(0, max_rank))}")
    else:
        lines.append(draw(st.sampled_from(
            ["rank", "rank -1", "rank two", "rank \u00b2", "m 1 2 3"])))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["m", "m", "auto", "auto id", "junk"]))
        if kind == "m":
            lines.append(f"m {draw(SMALL)} {draw(SMALL)} {draw(st.sampled_from(LABELS))}")
        elif kind == "auto":
            maps = draw(st.lists(st.tuples(SMALL, SMALL), max_size=4))
            lines.append("auto g " + " ".join(f"{a}>{b}" for a, b in maps))
        elif kind == "auto id":
            lines.append("auto id")
        else:
            lines.append(draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


def input_texts(max_rank):
    return st.one_of(well_formed(max_rank), malformed(max_rank))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["reduce", "fold", "verify", "classify",
                                    "catalog"]))
    fmt = ["--format", draw(st.sampled_from(["text", "json"]))]
    if command == "catalog":
        return None, ["catalog", *fmt]
    text = draw(input_texts(3 if command == "verify" else 5))
    extra = []
    if command == "reduce":
        word = " ".join(draw(st.lists(SMALL, max_size=8)))
        extra = ["--word", draw(st.sampled_from([word, word + " x"]))]
    elif command == "verify":
        # a radius below 1 is a usage error (exit 2), tested in test_cli.py
        extra = ["--radius", str(draw(st.integers(1, 3))),
                 "--seed", str(draw(st.integers(0, 3)))]
    return text, [command, "FILE", *extra, *fmt]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(invocations())
def test_cli_exit_codes_under_random_input(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "input.cox")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [path if a == "FILE" else a for a in argv]
        rc, err = run_main(argv)
    assert rc in (0, 1, 2), (argv, text, rc, err)
    assert "Traceback" not in err


@st.composite
def infinite_symmetric(draw):
    """A file for an infinite W of rank 2..4, edge labels in 3, 4, 5, 6 and
    inf (and 2 for no edge), with one automorphism generator: a
    permutation drawn first, and one label drawn per orbit of it on the
    pairs, so it preserves the matrix."""
    rank = draw(st.integers(2, 4))
    images = draw(st.permutations(range(1, rank + 1)))
    labels = {}
    for pair in itertools.combinations(range(1, rank + 1), 2):
        if pair in labels:
            continue
        label = draw(st.sampled_from(("2", "3", "4", "5", "6", "inf")))
        while pair not in labels:   # the orbit of the pair
            labels[pair] = label
            pair = tuple(sorted(images[i - 1] for i in pair))
    lines = [f"rank {rank}"]
    lines += [f"m {i} {j} {v}" for (i, j), v in sorted(labels.items())
              if v != "2"]
    moved = " ".join(f"{s}>{t}" for s, t in enumerate(images, start=1)
                     if s != t)
    lines.append("auto g " + moved if moved else "auto id")
    text = "\n".join(lines) + "\n"
    matrix = parse_input(text).matrix
    assume(classify_finite(matrix, matrix.generators()) is None)
    return text


@settings(derandomize=True, max_examples=30, deadline=None)
@given(infinite_symmetric(), st.integers(1, 6), st.integers(0, 3))
def test_verify_passes_on_infinite_groups(text, radius, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.cox")
        with open(path, "w") as fh:
            fh.write(text)
        rc, err = run_main(["verify", path, "--radius", str(radius),
                            "--seed", str(seed)])
    assert rc == 0, (text, radius, seed, err)


COMMAND_NAMES = list(cli.COMMANDS)
OPTION_NAMES = sorted({name for _, _, _, options, flags in cli.COMMANDS.values()
                       for name in (*options, *flags)})
VALUES = ["json", "xml", "text", "16", "-1", "", "a3.cox"]
TOKENS = (COMMAND_NAMES + ["frobnicate"] + OPTION_NAMES
          + ["--rad", "--form", "--format=json", "-h", "--"] + VALUES)


@st.composite
def command_lines(draw):
    """A command, its positionals, then some of its own options and flags,
    each option with a value: mostly lines `_parse` takes."""
    command = draw(st.sampled_from(COMMAND_NAMES))
    _, _, positionals, options, flags = cli.COMMANDS[command]
    argv = [command] + ["a3.cox"] * len(positionals)
    for name in draw(st.lists(st.sampled_from([*options, *flags]),
                              max_size=2, unique=True)):
        argv += [name] if name in flags else [name, draw(st.sampled_from(VALUES))]
    return argv


ARGVS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=6),
    st.builds(lambda command, rest: [command, *rest],
              st.sampled_from(COMMAND_NAMES),
              st.lists(st.sampled_from(TOKENS), max_size=5)),
    command_lines())


def argparse_vars(argv):
    """vars() of argparse's namespace for argv; None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(ARGVS)
def test_parse_returns_argparse_namespace_or_none(argv):
    parsed = cli._parse(argv)
    assert parsed is None or vars(parsed) == argparse_vars(argv), argv
