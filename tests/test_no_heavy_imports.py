"""No package module imports `dataclasses` or `inspect`.

Every CLI call imports the package first.  `import dataclasses` loads
`inspect`, and with it `ast`, `dis` and `tokenize`, which nothing in the
package needs, and each `@dataclass` execs its generated methods at import.
The records are plain classes or named tuples instead.
"""

import ast

from test_no_asserts import SOURCES

BANNED = {"dataclasses", "inspect"}


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
