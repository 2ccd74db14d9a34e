"""The package checks its invariants with explicit raises, never `assert`.

`python -O` and PYTHONOPTIMIZE strip assert statements, and a broken
engine would then return a wrong answer instead of raising with a witness.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "coxfold").glob("*.py"))


def test_sources_found():
    assert any(p.name == "words.py" for p in SOURCES)


def test_no_assert_statements():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = sorted(node.lineno for node in ast.walk(tree)
                       if isinstance(node, ast.Assert))
        found += [f"{path.name}:{line}" for line in lines]
    assert not found, "assert statements in src/coxfold: " + ", ".join(found)
