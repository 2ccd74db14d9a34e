"""Coxeter matrices: validation, diagram components, finite-type detection.

A Coxeter matrix is the symmetric table m(s,t) with m(s,s) = 1 and
off-diagonal entries in {2, 3, ...} or infinity.  Generators are 1-based
throughout, matching the input file format and the CLI word syntax.

Whether a standard parabolic subgroup W_I is finite is decided against the
classification of finite Coxeter groups: every connected component of the
diagram restricted to I must be one of A_n, B_n, D_n, E6/E7/E8, F4, H3, H4
or a dihedral I2(m) with m finite.  The matching needs no general graph
isomorphism: component size, degrees and edge labels already separate the
finitely many shapes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cyclo import INF, degree_problem, label_lcm

RANK_CAP = 16


class CoxeterMatrix:
    """Symmetric label table; entries[i][j] is m(i+1, j+1), INF allowed."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[float, ...], ...]):
        self.entries = entries

    def __eq__(self, other):
        if not isinstance(other, CoxeterMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def m(self, s: int, t: int):
        return self.entries[s - 1][t - 1]

    def generators(self) -> range:
        return range(1, self.rank + 1)

    def __str__(self):
        rows = []
        for row in self.entries:
            rows.append(" ".join("inf" if v == INF else str(int(v)) for v in row))
        return "\n".join(rows)

    @staticmethod
    def from_labels(rank: int, labels: dict[tuple[int, int], float]) -> "CoxeterMatrix":
        """Build from off-diagonal labels; unlisted pairs default to 2."""
        ent = [[2.0] * rank for _ in range(rank)]
        for i in range(rank):
            ent[i][i] = 1
        for (i, j), v in labels.items():
            ent[i - 1][j - 1] = v
            ent[j - 1][i - 1] = v
        norm = tuple(
            tuple(INF if v == INF else int(v) for v in row) for row in ent
        )
        return CoxeterMatrix(norm)


def validate(matrix: CoxeterMatrix) -> list[str]:
    """All invariant violations, each with the offending indices.

    Well-formed labels must also fit the exact arithmetic: the cyclotomic
    field holding every 2cos(pi/m) may have degree at most DEGREE_CAP.
    """
    errors = []
    n = matrix.rank
    if n < 1 or n > RANK_CAP:
        errors.append(f"rank {n} out of range 1..{RANK_CAP}")
    for row in matrix.entries:
        if len(row) != n:
            errors.append("entry table is not square")
            return errors
    for i in range(1, n + 1):
        if matrix.m(i, i) != 1:
            errors.append(f"diagonal must be 1 at ({i},{i}), got {matrix.m(i, i)}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = matrix.m(i, j), matrix.m(j, i)
            if a != b:
                errors.append(f"asymmetric at ({i},{j}): {a} != {b}")
            if a != INF and (a != int(a) or a < 2):
                errors.append(f"off-diagonal at ({i},{j}) must be >= 2, got {a}")
    if not errors:
        problem = degree_problem(label_lcm(matrix))
        if problem:
            errors.append(problem)
    return errors


def neighbours(matrix: CoxeterMatrix, subset) -> dict[int, list[int]]:
    """The diagram restricted to subset, as neighbour lists in increasing
    order: s and t are joined when m(s,t) >= 3.  Keys are sorted."""
    subset = sorted(set(subset))
    for s in subset:
        if not 1 <= s <= matrix.rank:
            raise IndexError(f"generator index {s} out of range")
    m = matrix.entries
    return {s: [t for t in subset if m[s - 1][t - 1] >= 3] for s in subset}


def graph_components(adj: dict[int, list[int]]) -> tuple[tuple[int, ...], ...]:
    """Connected components of a neighbour-list graph, as sorted tuples
    ordered by smallest member."""
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for s in comp:
            for t in adj[s]:
                if t not in seen:
                    seen.add(t)
                    comp.append(t)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def path_from(adj: dict[int, list[int]], start: int,
              prev: int | None = None) -> list[int]:
    """The vertices met walking from start away from prev, on a graph
    where no vertex of the walk has a second way on (a path, or an arm
    of a tree)."""
    path = [start]
    while True:
        ahead = [t for t in adj[path[-1]] if t != prev]
        if not ahead:
            return path
        prev = path[-1]
        path.append(ahead[0])


def components(matrix: CoxeterMatrix, subset) -> tuple[tuple[int, ...], ...]:
    """Connected components of the diagram restricted to subset.

    Edges are the pairs with m(s,t) >= 3.  Returned as sorted tuples,
    ordered by smallest member.
    """
    return graph_components(neighbours(matrix, subset))


# degrees of the exceptional types (Humphreys, Reflection Groups and Coxeter
# Groups, section 3.7)
_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
}


class FiniteTypeLabel(NamedTuple):
    """One irreducible finite type: family in {A,B,D,E,F,H,I2} plus parameter."""

    family: str
    parameter: int

    def __str__(self):
        if self.family == "I2":
            return f"I2({self.parameter})"
        return f"{self.family}{self.parameter}"

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic polynomial invariants (Humphreys, sections
        3.7 to 3.9): |W| is their product, |Phi+| the sum of d - 1."""
        n = self.parameter
        if self.family == "A":
            return tuple(range(2, n + 2))
        if self.family == "B":
            return tuple(range(2, 2 * n + 1, 2))
        if self.family == "D":
            return tuple(range(2, 2 * n - 1, 2)) + (n,)
        if self.family == "I2":
            return (2, n)
        return _EXCEPTIONAL_DEGREES[str(self)]

    @property
    def order(self) -> int:
        return math.prod(self.degrees)

    @property
    def positive_root_count(self) -> int:
        """|Phi+|, which is also the length of the longest element."""
        return sum(d - 1 for d in self.degrees)


def _classify_component(matrix: CoxeterMatrix, adj, comp: tuple[int, ...]):
    """FiniteTypeLabel for one connected component of the diagram with
    neighbour lists adj, or None if W_comp is infinite."""
    n = len(comp)
    if n == 1:
        return FiniteTypeLabel("A", 1)
    if sum(len(adj[s]) for s in comp) != 2 * (n - 1):
        return None  # a cycle; no finite type contains one
    edge_labels = [matrix.m(s, t) for s in comp for t in adj[s] if s < t]
    if INF in edge_labels:
        return None
    heavy = sum(v >= 4 for v in edge_labels)
    branch = [s for s in comp if len(adj[s]) >= 3]
    if len(branch) > 1 or any(len(adj[s]) > 3 for s in branch):
        return None

    if branch:
        if heavy:
            return None
        center = branch[0]
        arms = sorted(len(path_from(adj, t, center)) for t in adj[center])
        if arms[:2] == [1, 1]:
            return FiniteTypeLabel("D", n)
        if arms == [1, 2, 2]:
            return FiniteTypeLabel("E", 6)
        if arms == [1, 2, 3]:
            return FiniteTypeLabel("E", 7)
        if arms == [1, 2, 4]:
            return FiniteTypeLabel("E", 8)
        return None

    # a path; read off the labels end to end
    path = path_from(adj, min(s for s in comp if len(adj[s]) == 1))
    labels = [int(matrix.m(a, b)) for a, b in zip(path, path[1:])]
    if n == 2:
        m = labels[0]
        if m == 3:
            return FiniteTypeLabel("A", 2)
        if m == 4:
            return FiniteTypeLabel("B", 2)
        return FiniteTypeLabel("I2", m)
    if heavy > 1:
        return None
    if not heavy:
        return FiniteTypeLabel("A", n)
    big = max(labels)
    pos = labels.index(big)
    at_end = pos == 0 or pos == n - 2
    if big == 4:
        if at_end:
            return FiniteTypeLabel("B", n)
        if n == 4 and pos == 1:
            return FiniteTypeLabel("F", 4)
        return None
    if big == 5 and at_end and n in (3, 4):
        return FiniteTypeLabel("H", n)
    return None


def classify_finite(matrix: CoxeterMatrix, subset):
    """Finite-type labels, one per component, or None when W_I is infinite."""
    adj = neighbours(matrix, subset)
    labels = []
    for comp in graph_components(adj):
        label = _classify_component(matrix, adj, comp)
        if label is None:
            return None
        labels.append(label)
    return tuple(labels)


def coxeter_order(matrix: CoxeterMatrix, subset):
    """|W_I| for finite parabolics, None for infinite ones."""
    labels = classify_finite(matrix, subset)
    if labels is None:
        return None
    order = 1
    for lab in labels:
        order *= lab.order
    return order


def type_string(matrix: CoxeterMatrix, subset=None) -> str:
    """Readable isomorphism-type description, e.g. 'B3', 'A1 x A1', 'I2(inf)'."""
    if subset is None:
        subset = range(1, matrix.rank + 1)
    subset = sorted(set(subset))
    if not subset:
        return "trivial"
    labels = classify_finite(matrix, subset)
    if labels is not None:
        return " x ".join(str(lab) for lab in sorted(labels, key=str))
    comps = components(matrix, subset)
    if len(subset) == 2 and len(comps) == 1:
        return "I2(inf)"
    return "infinite"


# ---------------------------------------------------------------------------
# input files


def parse_number(token: str) -> int | None:
    """The value of a token of ASCII decimal digits, else None.

    int() alone would also take a sign, underscores, surrounding spaces
    and non-ASCII digits, and raises past the interpreter's digit limit.
    """
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's digit limit
        return None


class ParseError(ValueError):
    """Input file rejected; .problems lists (line_number, message) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        msg = "; ".join(f"line {ln}: {m}" for ln, m in self.problems)
        super().__init__(msg)


class InputSystem(NamedTuple):
    """Parsed input: a matrix plus named automorphism generators."""

    matrix: CoxeterMatrix
    autos: tuple[tuple[str, tuple[int, ...]], ...]  # (name, images) pairs


def parse_input(text: str) -> InputSystem:
    """Parse the line-based input format.

    Directives: `rank <n>` (required first), `m <i> <j> <v>` with v an
    integer label or `inf`, and `auto <name> <i>><j> ...` declaring one
    automorphism generator by its non-fixed points.
    """
    problems: list[tuple[int, str]] = []
    rank = None
    labels: dict[tuple[int, int], float] = {}
    seen_pairs: dict[tuple[int, int], int] = {}
    autos: list[tuple[str, tuple[int, ...]]] = []

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]

        if rank is None:
            if kind != "rank":
                problems.append((ln, f"expected 'rank <n>' first, got {kind!r}"))
                continue
            rank = parse_number(tokens[1]) if len(tokens) == 2 else None
            if rank is None:
                problems.append((ln, "rank needs one integer argument"))
                continue
            if not 1 <= rank <= RANK_CAP:
                problems.append((ln, f"rank {rank} out of range 1..{RANK_CAP}"))
                rank = None
            continue

        if kind == "rank":
            problems.append((ln, "duplicate rank line"))
        elif kind == "m":
            if len(tokens) != 4:
                problems.append((ln, "m needs: m <i> <j> <v>"))
                continue
            i, j = parse_number(tokens[1]), parse_number(tokens[2])
            if i is None or j is None:
                problems.append((ln, "m indices must be integers"))
                continue
            if not (1 <= i <= rank and 1 <= j <= rank):
                problems.append((ln, f"index out of range in m {i} {j}"))
                continue
            if i == j:
                problems.append((ln, "diagonal entries are fixed at 1"))
                continue
            v = INF if tokens[3] == "inf" else parse_number(tokens[3])
            if v is None:
                problems.append((ln, f"bad label {tokens[3]!r}"))
                continue
            if v < 2:
                problems.append((ln, f"label must be >= 2 or inf, got {v}"))
                continue
            key = (min(i, j), max(i, j))
            if key in seen_pairs:
                problems.append(
                    (ln, f"duplicate m line for pair {key} "
                         f"(first on line {seen_pairs[key]})")
                )
                continue
            seen_pairs[key] = ln
            labels[key] = v
        elif kind == "auto":
            if len(tokens) < 2:
                problems.append((ln, "auto needs a name"))
                continue
            name = tokens[1]
            images = list(range(1, (rank or 0) + 1))
            ok = True
            sources = set()
            for pair in tokens[2:]:
                a, _, b = pair.partition(">")
                i, j = parse_number(a), parse_number(b)
                if i is None or j is None:
                    problems.append((ln, f"bad mapping {pair!r}, expected i>j"))
                    ok = False
                    continue
                if not (1 <= i <= rank and 1 <= j <= rank):
                    problems.append((ln, f"index out of range in {pair!r}"))
                    ok = False
                    continue
                if i in sources:
                    problems.append((ln, f"duplicate source {i} in auto {name}"))
                    ok = False
                    continue
                sources.add(i)
                images[i - 1] = j
            if ok and sorted(images) != list(range(1, rank + 1)):
                problems.append((ln, f"auto {name} is not a permutation"))
                ok = False
            if ok:
                autos.append((name, tuple(images)))
        else:
            problems.append((ln, f"unknown directive {kind!r}"))

    if rank is None and not problems:
        problems.append((0, "empty input: no rank line"))
    if problems:
        raise ParseError(problems)

    matrix = CoxeterMatrix.from_labels(rank, labels)
    errs = validate(matrix)
    if errs:
        raise ParseError((0, e) for e in errs)
    return InputSystem(matrix=matrix, autos=tuple(autos))
