"""Independent test oracles: permutation models and generic BFS.

Nothing here touches the package's action matrices or normal forms.  Words
map to permutations (plain or signed), lengths come from BFS distance in
the Cayley graph or from inversion counting, and group elements are bare
tuples.  Agreements between these models and the engine are therefore
meaningful checks.

The exceptions are forward_action, reference_right_descents,
reference_factorize, product_inv, reference_rmul,
reference_generated_ball, TupleRootTable and the two reference ball walks.
forward_action builds the action of w with the engine's rmul, one letter
at a time, and reference_right_descents reads the right descents off it
with the engine's sign test, as the package did before it read them off
the word.  The first peels a fixed element with the engine's
descent test and right multiplication, as the folded factorization is
defined, but without any of FoldedSystem's memos.  product_inv multiplies
an orbit word with the engine's compose, one letter at a time, where the
property suite reads its products off the generated ball.
scalar_matmul and reference_rmul are the exact matrix products with one
CycloReal `*` and `+` at a time, which the fused kernel
ArithContext.matmul must match entry by entry; reference_rmul is the
matrix engine's rmul before it called that kernel.
reference_generated_ball composes every edge of the generated ball,
where generated_ball reads each node's back edge off its parent.
reference_image_ball is the bytes-keyed ball walk of
coxfold.verify before its last-letter rule: every node tries every
generator, and the dedup set alone rejects what is not new.
TupleRootTable is the root table before its actions took the ball keys'
encoding: tuples of root indices stepped by itemgetter, the reference
that the bytes and str actions are decoded (decode) and compared with.
reference_shortlex_ball is the automaton walk of coxfold.verify before its
successor lists: every node scans its state's whole row of the ShortLex
automaton.  reference_fixed_nodes is the fixedness filter that ran on the
whole automaton ball before the walk was pruned: the states gamma leaves
stable (stable_states), then each such word spelled and tested from
scratch by the exchange walk (exchange_fixes).

The diagram references read a matrix only through m(s, t) and rank; they
are the hand-written walks that the shared neighbour-list routines of
coxfold.coxeter replaced, kept to compare against.

The cyclotomic views at the end read a CycloReal's coefficients only: a
float evaluation and the Galois conjugation zeta -> zeta^(-1).

The test-only API comes first: helpers that only tests call, so the
package does not carry them.  Two of them use the engine: apply_element
reduces the image word, and inversion_count counts on the engine's action
of w^-1.  replace copies a package record through its constructor.
"""

import inspect
import math
from collections import deque
from operator import itemgetter

from coxfold.folding import Automorphism, InvariantViolation
from coxfold.verify import Ball, GeneratedBall, _elements, _levels
from coxfold.words import NEG, _permute_roots, _RootTable, root_sign


# -- test-only API -----------------------------------------------------------


def replace(obj, **changes):
    """A new obj built through its class's constructor, from obj's own
    attributes of the same names and the given changes, as
    dataclasses.replace does.  What the constructor builds itself, such
    as FoldedSystem's memos, starts afresh."""
    params = inspect.signature(type(obj)).parameters
    args = {name: getattr(obj, name) for name in params if name not in changes}
    return type(obj)(**args, **changes)


def ball_words(ball):
    """The canonical word of every node of a ball, in node order."""
    return tuple(map(ball.spell, range(len(ball))))


def ball_elements(ball):
    """The element of every node of a ball, in node order."""
    return _elements(ball, range(len(ball)))


def identity_of(rank):
    return Automorphism(tuple(range(1, rank + 1)))


def is_identity(gamma):
    return all(gamma(s) == s for s in range(1, gamma.rank + 1))


def apply_word(gamma, word):
    return tuple(gamma(s) for s in word)


def apply_element(gamma, w):
    """gamma(w) from its letters; raises if the image changes length."""
    out = w.group.reduce(apply_word(gamma, w.word))
    if out.length != w.length:
        raise InvariantViolation(
            "automorphism", "image of an element has a different length",
            w.group._witness(automorphisms=[list(gamma.images)],
                             word=list(w.word), image=list(out.word)),
        )
    return out


def generator_index(folded, orbit):
    """1-based index of a folded generator in the folded matrix."""
    return folded.bar_s.index(orbit) + 1


def inversion_count(w):
    """Number of positive roots of W sent negative by w^-1, which is
    l(w^-1) = l(w) (finite W only); independent of the stored word.
    Counted on the root table's indices, or on the exact images of the
    positive roots."""
    engine, cols = w.group._engine, w.inv_cols
    if isinstance(engine, _RootTable):   # bytes or str, against its own -beta_0
        return sum(1 for j in cols[:engine.npos] if j >= engine.neg)
    images = engine.compose(cols, tuple(w.group.positive_roots()))
    return sum(1 for r in images if root_sign(r) < 0)


# -- plain permutations (symmetric group, diagram of type A) -----------------
# a permutation on n points is a tuple p with p[i] = image of i, 0-based


def perm_identity(n):
    return tuple(range(n))


def perm_compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(u[v[i]] for i in range(len(u)))


def adjacent_transposition(n, s):
    """Generator s of the type-A group on n points, 1-based s."""
    p = list(range(n))
    p[s - 1], p[s] = p[s], p[s - 1]
    return tuple(p)


def word_to_perm(n, word):
    out = perm_identity(n)
    for s in word:
        out = perm_compose(out, adjacent_transposition(n, s))
    return out


def perm_inversions(p):
    n = len(p)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
    )


def perm_left_descents(p):
    """1-based s with l(t_s o p) < l(p): s occurs after s+1 in one-line form."""
    inv = [0] * len(p)
    for pos, val in enumerate(p):
        inv[val] = pos
    return tuple(
        s for s in range(1, len(p)) if inv[s - 1] > inv[s]
    )


def perm_right_descents(p):
    return tuple(s for s in range(1, len(p)) if p[s - 1] > p[s])


# -- signed permutations (type B) ---------------------------------------------
# element = tuple w of signed images of 1..n (w[i-1] = w(i), value in +-1..+-n)


def signed_identity(n):
    return tuple(range(1, n + 1))


def signed_apply(w, i):
    return w[i - 1] if i > 0 else -w[-i - 1]


def signed_compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(signed_apply(u, v[i - 1]) for i in range(1, len(v) + 1))


def signed_generators(n):
    """s_1..s_{n-1} adjacent swaps, s_n the sign flip on the last coordinate;
    the Coxeter labels are 3 along the chain and 4 between s_{n-1} and s_n."""
    gens = []
    for s in range(1, n):
        img = list(range(1, n + 1))
        img[s - 1], img[s] = img[s], img[s - 1]
        gens.append(tuple(img))
    img = list(range(1, n + 1))
    img[n - 1] = -n
    gens.append(tuple(img))
    return gens


# -- generic Cayley-graph BFS ---------------------------------------------------


def bfs_lengths(identity, generators, compose, limit=None):
    """Map element -> word length over the given generators (right mult)."""
    dist = {identity: 0}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        if limit is not None and dist[x] >= limit:
            continue
        for g in generators:
            y = compose(x, g)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def group_order(identity, generators, compose):
    return len(bfs_lengths(identity, generators, compose))


# -- the action of w, built letter by letter -----------------------------------


def forward_action(group, word):
    """The action of the product of `word`: the engine's identity times
    each letter."""
    engine = group._engine
    cols = engine.identity
    for s in word:
        cols = engine.rmul(cols, s)
    return cols


def reference_right_descents(w):
    """The s with w(alpha_s) < 0, on the forward action of w."""
    group = w.group
    cols = forward_action(group, w.word)
    return tuple(s for s in group.generators()
                 if group._engine.negative(cols, s))


# -- folded factorization without memos ------------------------------------------


def reference_factorize(folded, inv_cols, choose=None):
    """(orbit sequence, letters) of the element with this inverse action,
    peeled one orbit at a time with no memo: the orbit of the smallest
    left descent, or of the one `choose` picks from the sorted descents."""
    group = folded.group
    engine = group._engine
    seq, letters = [], 0
    while True:
        descents = [s for s in group.generators()
                    if engine.negative(inv_cols, s)]
        if not descents:
            break
        s = choose(descents) if choose is not None else descents[0]
        orbit = folded.orbit_of(s)
        assert all(engine.negative(inv_cols, t) for t in orbit)
        count = 0
        while True:
            down = [t for t in sorted(orbit) if engine.negative(inv_cols, t)]
            if not down:
                break
            inv_cols = engine.rmul(inv_cols, down[0])
            count += 1
        assert count == folded.weight[orbit]
        seq.append(orbit)
        letters += count
    assert inv_cols == engine.identity
    return seq, letters


# -- products by compose, without the generated ball or any memo ------------------


def product_inv(folded, orbit_word):
    """Inverse action of a product of folded generators, one compose per
    letter: (u w_J)^-1 = w_J^-1 u^-1."""
    engine = folded.group._engine
    inv_cols = engine.identity
    for J in orbit_word:
        inv_cols = engine.compose(folded.longest[J].inv_cols, inv_cols)
    return inv_cols


# -- exact products one CycloReal at a time, and every edge composed ---------------


def scalar_matmul(outer, inner, zero):
    """Column j is sum_t inner[j][t] * outer[t], one CycloReal `*` and `+`
    at a time."""
    out = []
    for col in inner:
        acc = [zero] * len(outer[0])
        for t, c in enumerate(col):
            acc = [a + c * x for a, x in zip(acc, outer[t])]
        out.append(tuple(acc))
    return tuple(out)


def reference_rmul(group, cols, s):
    """The matrix engine's rmul before it called the fused kernel: column
    s negated, and c_st times it added to each neighbour t's column, by
    CycloReal `*` and `+`."""
    old = cols[s - 1]
    out = list(cols)
    out[s - 1] = tuple(-c for c in old)
    for t in group._nbrs[s]:
        coeff = group._coeff[s][t]
        out[t - 1] = tuple(a + coeff * b for a, b in zip(cols[t - 1], old))
    return tuple(out)


def reference_generated_ball(group, gens, radius, order=None):
    """generated_ball before it read back edges off the parents: every node
    composes every generator, and exact dedup alone finds each edge."""
    compose = group._engine.compose
    actions, levels = [group._engine.identity], [0]
    parents, edges, key_index = [None], [], {actions[0]: 0}
    truncated = False
    for head, inv_cols in enumerate(actions):
        out = []
        for k, g in enumerate(gens):
            y_inv = compose(g.inv_cols, inv_cols)
            idx = key_index.get(y_inv)
            if idx is None:
                if (len(actions) == order
                        or radius is not None and levels[head] + 1 > radius):
                    truncated = True
                    out.append(None)
                    continue
                idx = key_index[y_inv] = len(actions)
                actions.append(y_inv)
                levels.append(levels[head] + 1)
                parents.append((head, k))
            out.append(idx)
        edges.append(out)
    return GeneratedBall(gens=tuple(gens), actions=actions, levels=levels,
                         edges=edges, parents=parents, key_index=key_index,
                         complete=not truncated, radius=radius)


# -- the root table on tuples of root indices -------------------------------------


def decode(a):
    """A root-table action or ball key as a tuple of root indices, whether
    it is a tuple, bytes or a str."""
    return tuple(map(ord, a)) if isinstance(a, str) else tuple(a)


class TupleRootTable:
    """The root table's primitives as coxfold.words had them before its
    actions took the ball keys' encoding: an action is a tuple of root
    indices, stepped by itemgetter, and fixes takes a tuple only.  The
    permutations are read off the same elementary-root table."""

    def __init__(self, group):
        table = group._elementary
        P = self.npos = len(table.roots)
        self.identity = tuple(range(2 * P))
        self._roots = table.roots
        self._perms = [()] + [
            self._extend([P + i if row[s] == NEG else row[s]
                          for i, row in enumerate(table.step)])
            for s in group.generators()]
        self._rmul_getters = [None] + [itemgetter(*p) for p in self._perms[1:]]
        self.strip_rounds = P + 1

    def _extend(self, half):
        """A permutation of Phi from its values on Phi+, since g(-b) = -g(b)."""
        P = self.npos
        return tuple(half + [j + P if j < P else j - P for j in half])

    def lmul(self, s, cols):
        return itemgetter(*cols)(self._perms[s])

    def rmul(self, cols, s):
        return self._rmul_getters[s](cols)

    def compose(self, outer, inner):
        return itemgetter(*inner)(outer)

    def negative(self, cols, s):
        return cols[s - 1] >= self.npos

    def fixes(self, images, cols):
        g = self._extend(_permute_roots(self._roots, images))
        return all(g[cols[i]] == cols[t - 1] for i, t in enumerate(images))

    def strip(self, cols, subset):
        """CoxeterGroup._strip on this table: (letters, action after)."""
        letters = []
        for _ in range(self.strip_rounds):
            for s in subset:
                if self.negative(cols, s):
                    break
            else:
                return tuple(letters), cols
            letters.append(s)
            cols = self.rmul(cols, s)
        raise AssertionError("descent stripping did not terminate")


# -- the bytes-keyed ball walk without the last-letter rule -----------------------


def reference_image_ball(group, radius=None):
    """The ball of a root-table W with at most 256 roots, keyed by the
    bytes of w^-1(alpha_t): each node of level k tries every generator,
    and w s is appended when its key is in neither level k-1 nor the part
    of level k+1 found so far."""
    steps = [(s, bytes(perm).ljust(256, b"\0"))     # bytes.translate tables
             for s, perm in enumerate(TupleRootTable(group)._perms[1:], 1)]
    ball = Ball(group, [bytes(range(group.rank))])   # alpha_t is root t-1
    parents, letters, keys = ball.parents, ball.letters, ball.keys
    for prev, start in _levels(ball, radius):
        seen = set(keys[prev:start])
        for i in range(start, len(keys)):
            key = keys[i]
            for s, table in steps:
                y = key.translate(table)
                if y not in seen:
                    seen.add(y)
                    parents.append(i)
                    letters.append(s)
                    keys.append(y)
    return ball


def reference_shortlex_ball(group, radius=None):
    """The ball walked on the ShortLex automaton of the elementary roots,
    each node appending every successor its state's row lists."""
    row = group._elementary.shortlex_row
    ball = Ball(group, [0])
    parents, letters, keys = ball.parents, ball.letters, ball.keys
    for _, start in _levels(ball, radius):
        for i in range(start, len(keys)):
            for s, q in enumerate(row(keys[i])):
                if q is not None:
                    parents.append(i)
                    letters.append(s)
                    keys.append(q)
    return ball


# -- the automaton fixed-set filter before the pruned walk ------------------------


def stable_states(table, images):
    """The ShortLex states made so far whose set S gamma, given by its
    images, maps onto itself.  S is N(w) within E for the words w that
    reach the state, and gamma permutes E; gamma(w) = w makes gamma map
    N(w) onto itself, so a word reaching any other state is not fixed."""
    perm = _permute_roots(table.roots, images)
    out = set()
    for q, (S, _) in enumerate(table._states):
        moved, mask = 0, S
        while mask:
            low = mask & -mask
            moved |= 1 << perm[low.bit_length() - 1]
            mask ^= low
        if moved == S:
            out.add(q)
    return out


def exchange_fixes(table, images, word):
    """gamma(w) = w, for gamma given by its images and w by a reduced
    word: w^-1 * gamma(w) is the identity exactly when right-multiplying
    the reversed word by each letter of gamma(word) deletes a letter
    every time: the word then ends empty."""
    step = table.step
    u = list(reversed(word))
    for c in word:
        b = images[c - 1] - 1       # alpha_gamma(c)
        for j in range(len(u) - 1, -1, -1):
            b = step[b][u[j]]
            if b < 0:
                break
        if b != NEG:
            return False
        del u[j]
    return True


def reference_fixed_nodes(ball, autos):
    """Indices of the nodes of an unpruned automaton ball fixed by every
    automorphism other than the identity: for each, the nodes whose state
    it leaves stable, spelled and tested by the exchange walk."""
    table = ball.group._elementary
    nodes = range(len(ball))
    for gamma in autos:
        g = tuple(gamma.images)
        if g == tuple(ball.group.generators()):
            continue
        stable = stable_states(table, g)
        nodes = [i for i in nodes if ball.keys[i] in stable
                 and exchange_fixes(table, g, ball.spell(i))]
    return list(nodes)


# -- diagram references -----------------------------------------------------------
# a finite type is a (family, parameter) pair, as FiniteTypeLabel holds it

INF = float("inf")


def ref_components(matrix, subset):
    """Components of the diagram on subset (edges m >= 3), by search."""
    subset = sorted(set(subset))
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


def _arm_lengths(edges, center):
    adj = {}
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


def _path_order(edges, comp):
    adj = {s: [] for s in comp}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = min(s for s in comp if len(adj[s]) == 1)
    path = [start]
    prev = None
    cur = start
    while len(path) < len(comp):
        nxt = [x for x in adj[cur] if x != prev][0]
        path.append(nxt)
        prev, cur = cur, nxt
    return path


def ref_classify_component(matrix, comp):
    """(family, parameter) of one connected component, or None."""
    n = len(comp)
    if n == 1:
        return ("A", 1)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            v = matrix.m(comp[a], comp[b])
            if v >= 3:
                if v == INF:
                    return None
                edges.append((comp[a], comp[b], int(v)))
    if len(edges) != n - 1:
        return None
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
            return ("D", n)
        return {(1, 2, 2): ("E", 6), (1, 2, 3): ("E", 7),
                (1, 2, 4): ("E", 8)}.get(tuple(arms))
    path = _path_order(edges, comp)
    labels = [int(matrix.m(path[k], path[k + 1])) for k in range(n - 1)]
    if n == 2:
        return {3: ("A", 2), 4: ("B", 2)}.get(labels[0], ("I2", labels[0]))
    if len(heavy) > 1:
        return None
    if not heavy:
        return ("A", n)
    big = max(labels)
    pos = labels.index(big)
    at_end = pos == 0 or pos == n - 2
    if big == 4:
        if at_end:
            return ("B", n)
        if n == 4 and pos == 1:
            return ("F", 4)
        return None
    if big == 5 and at_end and n in (3, 4):
        return ("H", n)
    return None


def ref_classify_finite(matrix, subset):
    types = []
    for comp in ref_components(matrix, subset):
        t = ref_classify_component(matrix, comp)
        if t is None:
            return None
        types.append(t)
    return tuple(types)


def ref_order(family, n):
    """|W| of one irreducible finite type, from closed formulas."""
    if family == "A":
        return math.factorial(n + 1)
    if family == "B":
        return (1 << n) * math.factorial(n)
    if family == "D":
        return (1 << (n - 1)) * math.factorial(n)
    if family == "I2":
        return 2 * n
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152,
            "H3": 120, "H4": 14400}[f"{family}{n}"]


def ref_positive_root_count(family, n):
    if family == "A":
        return n * (n + 1) // 2
    if family == "B":
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "I2":
        return n
    return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "H3": 15,
            "H4": 60}[f"{family}{n}"]


def ref_coxeter_order(matrix, subset):
    types = ref_classify_finite(matrix, subset)
    return None if types is None else math.prod(
        ref_order(f, n) for f, n in types)


def ref_type_string(matrix, subset):
    subset = sorted(set(subset))
    if not subset:
        return "trivial"
    types = ref_classify_finite(matrix, subset)
    if types is not None:
        names = [f"I2({n})" if f == "I2" else f"{f}{n}" for f, n in types]
        return " x ".join(sorted(names))
    if len(subset) == 2 and len(ref_components(matrix, subset)) == 1:
        return "I2(inf)"
    return "infinite"


def ref_orbits(rank, perms):
    """Orbits of the group generated by permutations of 1..rank (tuples of
    images), by union-find; sorted by smallest member."""
    parent = list(range(rank + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for images in perms:
        for s in range(1, rank + 1):
            a, b = find(s), find(images[s - 1])
            if a != b:
                parent[max(a, b)] = min(a, b)
    buckets = {}
    for s in range(1, rank + 1):
        buckets.setdefault(find(s), set()).add(s)
    return tuple(frozenset(buckets[r]) for r in sorted(buckets))


def ref_diagram_order(matrix):
    """Display order of a folded diagram: a path read end to end with the
    lexicographically least labels (a tie keeps the walk from the smaller
    end); anything else in index order."""
    n = matrix.rank
    identity = tuple(range(1, n + 1))
    if n <= 1 or len(ref_components(matrix, identity)) != 1:
        return identity
    adj = {i: [j for j in identity if j != i and matrix.m(i, j) >= 3]
           for i in identity}
    if any(len(v) > 2 for v in adj.values()):
        return identity
    ends = sorted(i for i, v in adj.items() if len(v) == 1)
    if len(ends) != 2:
        return identity
    path = [ends[0]]
    prev = None
    while len(path) < n:
        nxt = [x for x in adj[path[-1]] if x != prev][0]
        prev = path[-1]
        path.append(nxt)
    labels = [matrix.m(path[k], path[k + 1]) for k in range(n - 1)]
    if labels[::-1] < labels:
        path.reverse()
    return tuple(path)


# -- cyclotomic views ---------------------------------------------------------------


def approx(x):
    """Float value of a real CycloReal, sum c_k cos(k*pi/N); not rigorous."""
    return float(sum(float(c) * math.cos(k * math.pi / x.ctx.N)
                     for k, c in enumerate(x.coeffs) if c))


def conjugate(x):
    """Image of a CycloReal under zeta -> zeta^(-1); the real values are its
    fixed points."""
    twoN = 2 * x.ctx.N
    out = [0] * twoN
    for k, c in enumerate(x.coeffs):
        if c:
            out[(-k) % twoN] += c
    return type(x)(x.ctx, x.ctx._reduce(out))
