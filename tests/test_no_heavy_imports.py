"""The package imports no module that the caller's work does not run.

No package module imports `dataclasses` or `inspect`.  Every CLI call
imports the package first.  `import dataclasses` loads `inspect`, and with
it `ast`, `dis` and `tokenize`, which nothing in the package needs, and each
`@dataclass` execs its generated methods at import.  The records are plain
classes or named tuples instead.

`import coxfold` loads only the word engine (cyclo, coxeter, words).  The
folding and verify names of the package load their module on first use,
each CLI command imports only the modules it runs, and argparse loads only
for help or a usage error.  Without a bytecode cache every module loaded is
compiled, so a words-only process would otherwise pay for folding, verify
and the catalog.  These probes each run in a fresh interpreter, since this
one has loaded every module.

`coxfold.verify` takes sha256 from the interpreter's own module, not from
hashlib, whose `_hashlib` loads OpenSSL.

No module imports, at module level, one that imports it back, directly or
through others: the package's import graph is acyclic.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from test_no_asserts import SOURCES

BANNED = {"dataclasses", "inspect"}
SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("coxfold.folding", "coxfold.verify", "coxfold.catalog")
PROBED = HEAVY + ("argparse",)
A3_FLIP = "rank 3\nm 1 2 3\nm 2 3 3\nauto flip 1>3 3>1\n"


def test_no_banned_imports():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in BANNED]
    assert not found, "banned imports in src/coxfold: " + ", ".join(found)


def fresh(code: str):
    """Run code in a fresh interpreter; the JSON it prints last."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str, modules=PROBED) -> list:
    return fresh(code + f"\nprint(json.dumps([m for m in {modules!r} "
                        "if m in sys.modules]))")


@pytest.mark.parametrize("code", ["import coxfold", "import coxfold.cli"])
def test_import_loads_only_the_word_engine(code):
    assert loaded_after(code) == []


@pytest.mark.parametrize("argv, loaded", [
    (["reduce", "{file}", "--word", "2 1 3 2"], []),
    (["classify", "{file}"], []),
    (["fold", "{file}"], ["coxfold.folding"]),
    (["verify", "{file}"], ["coxfold.folding", "coxfold.verify"]),
    (["catalog"], list(HEAVY)),
    # a usage error, the one row that loads argparse: it exits 2
    (["verify", "{file}", "--format", "xml"], ["argparse"]),
])
def test_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    path = tmp_path / "a3.cox"
    path.write_text(A3_FLIP)
    argv = [arg.format(file=path) for arg in argv]
    rc = 2 if "argparse" in loaded else 0
    assert loaded_after(f"from coxfold import cli\n"
                        f"if cli.main({argv!r}) != {rc}:\n"
                        f"    sys.exit(1)") == loaded


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None,
                    reason="this interpreter has no _hashlib")
def test_verify_loads_no_openssl():
    # input_digest takes sha256 from the interpreter's own module, since
    # hashlib loads OpenSSL through _hashlib
    assert loaded_after("import coxfold.verify", ("_hashlib",)) == []


def test_every_public_name_resolves_and_is_listed():
    names, unbound, unlisted = fresh(
        "import coxfold\n"
        "from coxfold import *\n"
        "names = coxfold.__all__\n"
        "print(json.dumps([names, [n for n in names if n not in globals()],"
        " [n for n in names if n not in dir(coxfold)]]))")
    assert len(names) == 30
    assert unbound == [] and unlisted == []


def test_submodule_import_and_unknown_name():
    module, error = fresh(
        "import coxfold\n"
        "from coxfold import verify\n"
        "try:\n"
        "    coxfold.no_such_name\n"
        "    error = None\n"
        "except AttributeError as err:\n"
        "    error = str(err)\n"
        "print(json.dumps([verify.__name__, error]))")
    assert module == "coxfold.verify"
    assert error == "module 'coxfold' has no attribute 'no_such_name'"


def package_imports(path) -> set:
    """The modules of the package that a module imports at module level,
    by `from . import X` or `from .X import ...`."""
    found = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
    return found


def test_package_imports_are_acyclic():
    graph = {path.stem: package_imports(path) for path in SOURCES}
    graph = {name: deps & graph.keys() for name, deps in graph.items()}
    assert graph["catalog"] >= {"folding", "verify", "words"}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")
