"""The package carries no test-only API.

Every function, method and class defined in src/coxfold is referenced in
src/coxfold outside its own definition: by name, or as an attribute.
Helpers that only tests call belong in tests/oracles.py.  Dunders are
called by the interpreter, names in `coxfold.__all__` are the library
API, and the benchmark's tracer (perfbench/tracing.py) patches some
names that nothing else calls; those three kinds are exempt.
"""

import ast
from pathlib import Path

import coxfold
from test_no_asserts import SOURCES

TRACER = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracer_names() -> set:
    """Every identifier the tracer mentions, in code or in a string such
    as "folding.factorize_product"."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _unreferenced() -> set:
    """Names defined in the package and referenced only inside their own
    definitions, dunders left out."""
    definitions = []        # (name, file, first line, last line)
    references = {}         # name -> [(file, line)]
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((node.name, path.name, node.lineno,
                                    node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((path.name, node.lineno))
    return {
        name for name, file, first, last in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not any(where != file or not first <= line <= last
                    for where, line in references.get(name, ()))
    }


def test_every_definition_is_referenced_in_the_package():
    unexplained = _unreferenced() - set(coxfold.__all__) - _tracer_names()
    assert not unexplained, (
        "defined in src/coxfold but referenced only by tests: "
        + ", ".join(sorted(unexplained)))


def test_the_scan_sees_the_tracer_pinned_names():
    # the scan finds the methods that only the tracer keeps; if one of
    # them gains a caller or goes, update this list
    assert _unreferenced() & _tracer_names() == {
        "positive_roots", "coset_decompose", "factorize_product",
        "lambda_of_product", "weight_additivity"}
