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
from dataclasses import dataclass

from .cyclo import INF, degree_problem, label_lcm

RANK_CAP = 16


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric label table; entries[i][j] is m(i+1, j+1), INF allowed."""

    entries: tuple[tuple[float, ...], ...]

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


def components(matrix: CoxeterMatrix, subset) -> tuple[tuple[int, ...], ...]:
    """Connected components of the diagram restricted to subset.

    Edges are the pairs with m(s,t) >= 3.  Returned as sorted tuples,
    ordered by smallest member.
    """
    subset = sorted(set(subset))
    for s in subset:
        if not 1 <= s <= matrix.rank:
            raise IndexError(f"generator index {s} out of range")
    seen = set()
    comps = []
    for start in subset:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            s = stack.pop()
            for t in subset:
                if t not in seen and matrix.m(s, t) >= 3:
                    seen.add(t)
                    comp.append(t)
                    stack.append(t)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


@dataclass(frozen=True)
class FiniteTypeLabel:
    """One irreducible finite type: family in {A,B,D,E,F,H,I2} plus parameter."""

    family: str
    parameter: int

    def __str__(self):
        if self.family == "I2":
            return f"I2({self.parameter})"
        return f"{self.family}{self.parameter}"

    @property
    def order(self) -> int:
        n = self.parameter
        if self.family == "A":
            return math.factorial(n + 1)
        if self.family == "B":
            return (1 << n) * math.factorial(n)
        if self.family == "D":
            return (1 << (n - 1)) * math.factorial(n)
        if self.family == "E":
            return {6: 51840, 7: 2903040, 8: 696729600}[n]
        if self.family == "F":
            return 1152
        if self.family == "H":
            return {3: 120, 4: 14400}[n]
        if self.family == "I2":
            return 2 * n
        raise ValueError(self.family)

    @property
    def positive_root_count(self) -> int:
        """|Phi+|, which is also the length of the longest element."""
        n = self.parameter
        if self.family == "A":
            return n * (n + 1) // 2
        if self.family == "B":
            return n * n
        if self.family == "D":
            return n * (n - 1)
        if self.family == "E":
            return {6: 36, 7: 63, 8: 120}[n]
        if self.family == "F":
            return 24
        if self.family == "H":
            return {3: 15, 4: 60}[n]
        if self.family == "I2":
            return n
        raise ValueError(self.family)


def _classify_component(matrix: CoxeterMatrix, comp: tuple[int, ...]):
    """FiniteTypeLabel for one connected component, or None if infinite."""
    n = len(comp)
    if n == 1:
        return FiniteTypeLabel("A", 1)

    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            v = matrix.m(comp[a], comp[b])
            if v >= 3:
                if v == INF:
                    return None
                edges.append((comp[a], comp[b], int(v)))
    if len(edges) != n - 1:
        return None  # a cycle; no finite type contains one

    degree = {s: 0 for s in comp}
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    branch = [s for s in comp if degree[s] >= 3]
    if any(degree[s] > 3 for s in comp) or len(branch) > 1:
        return None

    heavy = [e for e in edges if e[2] >= 4]

    if branch:
        if heavy:
            return None
        arms = sorted(_arm_lengths(edges, branch[0]))
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
    path = _path_order(edges, comp)
    labels = [
        int(matrix.m(path[k], path[k + 1])) for k in range(n - 1)
    ]
    if n == 2:
        m = labels[0]
        if m == 3:
            return FiniteTypeLabel("A", 2)
        if m == 4:
            return FiniteTypeLabel("B", 2)
        return FiniteTypeLabel("I2", m)
    if len(heavy) > 1:
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


def _arm_lengths(edges, center) -> list[int]:
    adj: dict[int, list[int]] = {}
    for a, b, _ in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    arms = []
    for nxt in adj[center]:
        length = 1
        prev, cur = center, nxt
        while True:
            following = [x for x in adj[cur] if x != prev]
            if not following:
                break
            prev, cur = cur, following[0]
            length += 1
        arms.append(length)
    return arms


def _path_order(edges, comp) -> list[int]:
    adj: dict[int, list[int]] = {s: [] for s in comp}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    ends = [s for s in comp if len(adj[s]) == 1]
    start = min(ends)
    path = [start]
    prev = None
    cur = start
    while len(path) < len(comp):
        nxt = [x for x in adj[cur] if x != prev][0]
        path.append(nxt)
        prev, cur = cur, nxt
    return path


def classify_finite(matrix: CoxeterMatrix, subset):
    """Finite-type labels, one per component, or None when W_I is infinite."""
    labels = []
    for comp in components(matrix, subset):
        label = _classify_component(matrix, comp)
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


class ParseError(ValueError):
    """Input file rejected; .problems lists (line_number, message) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        msg = "; ".join(f"line {ln}: {m}" for ln, m in self.problems)
        super().__init__(msg)


@dataclass(frozen=True)
class InputSystem:
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
            try:
                # int() refuses a superscript digit, which isdigit() takes,
                # and a token past the interpreter's digit limit
                if len(tokens) != 2 or not tokens[1].isdecimal():
                    raise ValueError
                rank = int(tokens[1])
            except ValueError:
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
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:
                problems.append((ln, "m indices must be integers"))
                continue
            if not (1 <= i <= rank and 1 <= j <= rank):
                problems.append((ln, f"index out of range in m {i} {j}"))
                continue
            if i == j:
                problems.append((ln, "diagonal entries are fixed at 1"))
                continue
            if tokens[3] == "inf":
                v = INF
            else:
                try:
                    v = int(tokens[3])
                except ValueError:
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
                if ">" not in pair:
                    problems.append((ln, f"bad mapping {pair!r}, expected i>j"))
                    ok = False
                    continue
                a, _, b = pair.partition(">")
                try:
                    i, j = int(a), int(b)
                except ValueError:
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
