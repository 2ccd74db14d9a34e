"""Brute-force oracles and the property suite.

The enumeration side never consults the folding machinery.  A ball is a
prefix tree of canonical ShortLex words.  On the root table of a finite W
it comes from a breadth-first search keyed by the root indices of
w^-1(alpha_t), the first rank entries of the action of w^-1, and
fixedness is one engine test per key; on the matrix engine it comes from
the ShortLex automaton on the elementary roots, and under a nontrivial
Gamma each node carries the exchange walks that decide gamma(w) = w: a
walk that fails fails in every word with that prefix, so the walk drops
the node's subtree, and a node whose walks have all deleted is fixed.
Either way only the fixed nodes are spelled and built as elements, and
counting them builds none.  A finite W under a nontrivial Gamma takes its
fixed set from a chain of coset walks instead (coset_walks).
The generated fixed subgroup is explored by plain right multiplication
with dedup on the exact action of w^-1, and that walk is the product
table of the checks that multiply fixed elements (_Products); an
exhaustive pair check reads it one row per left factor.
The folding side meets the oracle side only in the comparisons, so a
passing report actually certifies something.

A check body returns its statistics when the property holds, and raises
CheckFailed with its statistics so far and a replayable witness when it
finds a counterexample.  The _check decorator turns either outcome into the
check's CheckResult under its name, and so does an InvariantViolation that
a broken folded system raises from deep inside an operation.  The checks
run one after another, and reports are deterministic for a fixed input,
seed and radius.
"""

from __future__ import annotations

import json
import random
from array import array
from bisect import bisect_right
from functools import reduce, wraps
from itertools import accumulate, islice, repeat
from operator import itemgetter
from typing import Callable, Sequence

# the interpreter's own sha256, as random.py takes its sha512: hashlib loads
# OpenSSL, about 3 ms and 3.6 MiB of a fresh process
try:
    from _sha256 import sha256          # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256        # Python 3.12 on
    except ImportError:
        from hashlib import sha256

from .coxeter import CoxeterMatrix, classify_finite, coxeter_order
from .cyclo import INF
from .folding import (
    Automorphism,
    FoldedSystem,
    InvariantViolation,
    fold,
    orbits,
    validate_automorphism,
)
from .words import CoxeterGroup, Element, EngineInvariantError, _RootTable

DEFAULT_INFINITE_RADIUS = 8
# the multiplier of the factorizations statistic (fixed elements x SAMPLES);
# nothing is drawn, it keeps the reports' bytes until ROADMAP item 2
SAMPLES = 50
TRIALS = 200                # random orbit words for additivity probing
PAIR_CAP = 6000             # exhaustive pair checks up to this many
SAMPLE_PAIRS = 300          # sampled pairs beyond the cap
EXCHANGE_LAMBDA_CAP = 4     # folded exchange tested up to this length
GREEDY_CAP = 512            # step bound for the greedy finiteness probe
SUBSET_CAP = 4096           # exhaustive subset checks up to this many
# hard bound on enumerated nodes and coset-chain products.  A ball holds
# about 53 bytes per element on bytes keys (E6, 51,840 elements) and 14 on
# automaton states ((4,4,3) triangle group, radius 16 and 18), by tracemalloc.
# A pruned automaton walk bounds the nodes it walks: it holds 18-34 bytes
# per walked node, and the exchange-walk states of one level raise its peak
# to 46-110 (the (4,4,3) triangle group and affine A2 under a swap, affine
# A3 under a rotation and a flip, radius 16 to 100, up to 33,956 nodes).
NODE_CAP = 200_000
# A ball holds no words, but the fixed elements spell them, 8 bytes a
# letter, and I2(inf) under `auto id` fixes every element, so a ball is
# capped in letters too.  A finite W spells |W| l(w_0) / 2 letters
# (lengths are symmetric about l(w_0)/2).  Over the W the node cap admits
# (|W| <= NODE_CAP, phi(2N) <= DEGREE_CAP) that is largest for A2 x I2(90)
# x I2(90): 194,400 * 183 / 2 = 17,787,600.  The least multiple of NODE_CAP
# above it refuses no such W, and stops I2(inf) near radius 4,200 (150 MiB).
LETTER_CAP = 89 * NODE_CAP

CHECK_NAMES = (
    "finiteness-classification-vs-greedy",
    "fixed-elements-factorize",
    "factorization-count-choice-independent",
    "minimal-words-length-additive",
    "dihedral-pairs",
    "length-additivity-transfer",
    "folded-exchange-condition",
    "generated-subgroup-matches-fixed-set",
    "presentation-isomorphism",
)


class VerifyConfig:
    """The property suite's inputs besides the instance."""

    __slots__ = ("seed", "radius")

    def __init__(self, seed: int = 0, radius: int | None = None):
        self.seed = seed
        self.radius = radius        # None: full when W is finite, else 8
        if radius is not None and radius < 1:
            raise ValueError(f"radius must be at least 1, not {radius}")


class NodeCapExceeded(ValueError):
    """An enumeration or the coset chain would hold more than NODE_CAP
    elements, or a ball more than LETTER_CAP letters."""


# ---------------------------------------------------------------------------
# balls in W


class Ball:
    """Ball of W around e: a prefix tree of canonical words in (length,
    word) order; complete when it holds the whole group.

    Node 0 is e, and node i spells the word of the earlier node
    ``parents[i]`` followed by ``letters[i]``.  ``keys[i]`` determines w:
    the root indices of w^-1(alpha_t), the first rank entries of the
    action of w^-1 (bytes or str, as the root table encodes it), or the
    ShortLex automaton state its word reaches.

    An automaton walk under a nontrivial Gamma is pruned: it holds the
    nodes whose subtrees may hold a fixed word, ``gamma`` holds the images
    of the automorphisms other than the identity that pruned it, and
    ``fixed`` the indices of its fixed nodes.  A pruned ball is never
    complete."""

    gamma: frozenset = frozenset()      # unpruned: every node is listed,
    fixed: list | None = None           # and fixed by the identity

    def __init__(self, group: CoxeterGroup, keys: list):
        self.group = group
        self.keys = keys                    # [key of e]; walks append
        self.complete = False
        self.parents = array("i", [0])
        self.letters = array("B", [0])

    def __len__(self):
        return len(self.keys)

    def spell(self, i: int) -> tuple[int, ...]:
        word = []
        while i:
            word.append(self.letters[i])
            i = self.parents[i]
        return tuple(reversed(word))


def enumerate_ball(group: CoxeterGroup, radius: int | None = None,
                   autos: Sequence[Automorphism] = ()) -> Ball:
    """The ball of the given radius, or all of a finite W; on the
    automaton, only the subtrees that may hold a word that every
    automorphism in autos fixes.

    A full enumeration is refused up front on an infinite W, and on a
    finite W whose order is over the node cap.  Both walks extend the
    nodes w of level k in ShortLex order, each by the generators s in
    increasing order, and append w s when it is a new normal form, so
    level k+1 comes out in ShortLex order.

    Root table: the key of w s is one translate of the key of w by the
    table of s, the root table's lmul, since (w s)^-1 = s w^-1.  w s lies
    in level k-1 or k+1, and is new when its key is in neither level k-1
    nor the part of level k+1 found so far.  So y of length k+1 is first
    reached from the least pair (NF(y s), s) over its right descents s,
    and NF(y s) s is its ShortLex normal form.

    A node w = u t, t its last letter, skips s = t and every s < t with
    m(s, t) = 2, and no skipped w s is new, by induction along the walk:
    w t = u is in level k-1.  For a skipped s < t, w s = (u s) t.  If u s
    is shorter than u, w s is in level k-1.  Otherwise NF(u s) <= NF(u) s
    < NF(u) t = NF(w), so u s came earlier in level k, where (u s) t was
    found or skipped.  So the walk appends what the unpruned walk appends,
    in the same order, and the dedup set still rejects the rest.

    The matrix engine takes the ShortLex automaton on the elementary
    roots, which does no arithmetic.  There a nontrivial Gamma prunes the
    walk (_shortlex_ball); the root-table walk lists every node, and
    fixed_nodes tests their keys.
    """
    order = coxeter_order(group.matrix, group.generators())
    if order is None:
        if radius is None:
            raise ValueError("full enumeration requested on an infinite group")
    elif radius is None:
        if order > NODE_CAP:
            raise NodeCapExceeded(
                f"the group has {order} elements, over the node cap {NODE_CAP}"
            )
    if isinstance(group._engine, _RootTable):
        return _image_ball(group, radius)
    return _shortlex_ball(group, radius, _moved(group, autos))


def _moved(group: CoxeterGroup, autos: Sequence[Automorphism]) -> frozenset:
    """The images of the automorphisms other than the identity."""
    return (frozenset(tuple(g.images) for g in autos)
            - {tuple(group.generators())})


def _levels(ball: Ball, radius: int | None):
    """Yield (prev, start) for each level k to extend: level k is the nodes
    from start on, level k-1 those from prev to start.  Caps the ball, and
    sets ``complete`` once the walk ends: when a level comes out empty, or
    the ball holds all of a finite W."""
    prev = start = depth = letters = 0
    while start < len(ball) and (radius is None or depth < radius):
        depth += 1
        end = len(ball)
        yield prev, start
        prev, start = start, end
        letters += depth * (len(ball) - end)
        if len(ball) > NODE_CAP:
            raise NodeCapExceeded(f"ball exceeded the node cap {NODE_CAP}")
        if letters > LETTER_CAP:
            raise NodeCapExceeded(f"ball exceeded the letter cap {LETTER_CAP}")
    group = ball.group
    ball.complete = (start == len(ball) or len(ball)
                     == coxeter_order(group.matrix, group.generators()))


def _image_ball(group: CoxeterGroup, radius: int | None, K=None, J=(),
                 cap: float = float("inf")) -> Ball:
    """The key walk of enumerate_ball by the letters of K (default S),
    dropping nodes with a left descent in J and stopping past cap nodes.
    With J in K that is ^J W_K: prefixes of minimal coset representatives
    are minimal, and a left descent s in J of w is one of every longer w t,
    since l(s w t) <= l(s w) + 1 < l(w t)."""
    engine = group._engine
    first = engine.identity[:group.rank]            # alpha_t is root t-1
    neg, tables = engine.neg, engine.tables         # index of -beta_0
    m = group.matrix.m
    steps = [[(s, tables[s]) for s in sorted(K or group.generators())
              if s != t and not (s < t and m(s, t) == 2)]  # by last letter
             for t in range(group.rank + 1)]
    # the entries at J, a tuple even for one index since one repeats
    drop = J and itemgetter(*(s - 1 for s in J), min(J) - 1)
    ball = Ball(group, [first])
    parents, letters, keys = ball.parents, ball.letters, ball.keys
    for prev, start in _levels(ball, radius):
        seen = set(keys[prev:start])
        for i in range(start, len(keys)):
            key = keys[i]
            for s, table in steps[letters[i]]:
                y = key.translate(table)
                if y not in seen:
                    seen.add(y)
                    if drop and max(drop(y)) >= neg:
                        continue
                    parents.append(i)
                    letters.append(s)
                    keys.append(y)
                    if len(keys) > cap:
                        return ball
    return ball


# ---------------------------------------------------------------------------
# the fixed points of a finite W over a chain of parabolics
#
# For J in K, every w in W_K is uniquely u x with u in W_J and x in ^J W_K,
# the x in W_K with no left descent in J (Bjorner and Brenti, GTM 231, Prop.
# 2.4.4).  Each gamma preserves length, so for Gamma-stable J and K it fixes
# w exactly when it fixes u and x, and W^Gamma is the products of each
# step's fixed representatives.  The key walk lists them, and fixed_nodes
# keeps the fixed ones; the catalog counts their products, and the property
# suite lists them.


def coset_walks(group: CoxeterGroup, autos: Sequence[Automorphism]):
    """(J, K, |W_K| / |W_J|, ball of ^J W_K) for each step of a chain of
    unions of Gamma-orbits, bottom step first.  It is built from the top,
    each step dropping the orbit that leaves the largest parabolic (on a
    tie, the one with the smallest member), so each index is the least on
    offer.  A walk stops one node past its index."""
    matrix = group.matrix
    left = list(orbits(matrix, autos))
    K = set(matrix.generators())
    order_k = coxeter_order(matrix, K)
    steps = []
    while left:
        orders = [coxeter_order(matrix, K - orbit) for orbit in left]
        drop = orders.index(max(orders))
        J = K - left.pop(drop)
        steps.append((J, K, order_k // orders[drop]))
        K, order_k = J, orders[drop]
    for J, K, index in reversed(steps):
        yield J, K, index, _image_ball(group, None, K, J, index)


def fixed_elements(group: CoxeterGroup,
                   autos: Sequence[Automorphism]) -> tuple[Element, ...]:
    """W^Gamma of a finite W in ball order.  A product u x of fixed
    representatives is one compose, (u x)^-1 = x^-1 u^-1, and then its
    word is extracted.  Raises past NODE_CAP products, and when a walk
    disagrees with the classification."""
    compose = group._engine.compose
    products = [group._engine.identity]     # inverse actions of W_J^Gamma
    for J, K, index, reps in coset_walks(group, autos):
        if len(reps) != index:
            raise EngineInvariantError(
                "coset walk disagrees with the classification",
                group._witness(J=sorted(J), K=sorted(K), index=index,
                               found=len(reps)))
        fixed = [x.inv_cols for x in fixed_subgroup(reps, autos)]
        if len(products) * len(fixed) > NODE_CAP:
            raise NodeCapExceeded(
                f"fixed set exceeded the node cap {NODE_CAP}")
        products = [compose(x, u) for u in products for x in fixed]
    return tuple(sorted(map(group._element_from_inv, products),
                        key=lambda w: (len(w.word), w.word)))


_START = ((), (), None)     # the exchange walks of e: nothing to delete


def _all_deleted(states) -> bool:
    """Is the word fixed: has every walk of every gamma deleted?"""
    return not any(rest for rest, _, _ in states)


def _shortlex_ball(group: CoxeterGroup, radius: int | None,
                   gamma: frozenset = frozenset()) -> Ball:
    """The ball walked on the ShortLex automaton: a node's successors are
    the (letter, state) pairs of its state, listed once per state reached,
    so a node costs one lookup plus one append per successor.

    Under a nontrivial Gamma each node also carries, for each gamma, the
    state of the exchange walks that decide gamma(w) = w on its word
    (_ElementaryRoots.fixing_step): a child takes the parent's state one
    letter on.  Walk k reads only the prefix that it has walked and the
    deletions of the walks before it, so once it fails it fails in every
    extension, and the walk appends neither the node nor its subtree.
    Every prefix of a fixed ShortLex word is a ShortLex word none of whose
    walks has failed, so the pruned tree still holds every fixed word of
    the ball; a node is fixed when all of its l(w) walks have deleted."""
    table = group._elementary
    row, fixing_step = table.shortlex_row, table.fixing_step
    succ: dict[int, list] = {}      # state -> its (letter, successor) pairs
    ball = Ball(group, [0])
    parents, letters, keys = ball.parents, ball.letters, ball.keys
    gammas = sorted(gamma)
    walks = [[_START] * len(gammas)]    # of the level being extended
    fixed = [0]
    for _, start in _levels(ball, radius):
        level, walks = walks, []
        for i in range(start, len(keys)):
            steps = succ.get(q := keys[i])
            if steps is None:
                steps = succ[q] = [(s, r) for s, r in enumerate(row(q))
                                   if r is not None]
            for s, r in steps:
                if gammas:
                    there = fixing_step(gammas, level[i - start], s)
                    if there is None:
                        continue
                    if _all_deleted(there):
                        fixed.append(len(keys))
                    walks.append(there)
                parents.append(i)
                letters.append(s)
                keys.append(r)
    if gammas:
        ball.gamma, ball.fixed, ball.complete = gamma, fixed, False
    return ball


def _elements(ball: Ball, nodes) -> tuple[Element, ...]:
    """Elements of the given nodes.  Each inverse action is one lmul from
    its parent's, since (u s)^-1 = s u^-1."""
    group, parents, letters = ball.group, ball.parents, ball.letters
    lmul = group._engine.lmul
    inv_of = {0: group._engine.identity}    # node -> inverse action
    out = []
    for i in nodes:
        path = [i]
        while path[-1] not in inv_of:
            path.append(parents[path[-1]])
        inv_cols = inv_of[path.pop()]
        for j in reversed(path):
            inv_cols = inv_of[j] = lmul(letters[j], inv_cols)
        out.append(Element(group, ball.spell(i), inv_cols))
    return tuple(out)


def fixed_nodes(ball: Ball, autos: Sequence[Automorphism]) -> list[int]:
    """Indices of the ball's nodes fixed by every automorphism generator.
    gamma fixes w exactly when it fixes w^-1: the root table tests a key
    as it tests the whole action of w^-1, for each automorphism other than
    the identity.  An automaton ball pruned under the same
    automorphisms lists its fixed nodes from that walk (_shortlex_ball); on
    an unpruned one, the same exchange-walk states are carried from each
    node to its children.  Nothing is spelled."""
    group, keys = ball.group, ball.keys
    gamma = _moved(group, autos)
    if isinstance(group._engine, _RootTable):
        nodes = range(len(ball))
        for g in gamma:
            nodes = [i for i in nodes if group._engine.fixes(g, keys[i])]
        return list(nodes)
    if gamma == ball.gamma:
        return list(range(len(ball)) if ball.fixed is None else ball.fixed)
    if ball.gamma:
        raise ValueError("the ball was pruned under other automorphisms")
    # a full ball: the pruned walk's states, carried along its tree
    fixing_step, gammas = group._elementary.fixing_step, sorted(gamma)
    states = [[_START] * len(gammas)]
    for p, s in zip(ball.parents[1:], ball.letters[1:]):
        here = states[p]
        states.append(here and fixing_step(gammas, here, s))
    return [i for i, there in enumerate(states)
            if there and _all_deleted(there)]


def fixed_subgroup(ball: Ball, autos: Sequence[Automorphism]) -> tuple[Element, ...]:
    """Elements of the ball's fixed nodes, by fixed_nodes, in ball order;
    only those nodes are spelled and built."""
    return _elements(ball, fixed_nodes(ball, autos))


# ---------------------------------------------------------------------------
# the subgroup generated by the folded generators, enumerated independently


class GeneratedBall:
    """BFS over right multiplication by generators: the folded generators,
    or the simple reflections of the abstract folded group.  Each is an
    involution, so an element's discovering edge, read backwards, is one
    of its edges, found without a product.

    Levels are word lengths over those generators by construction; dedup
    uses the exact inverse action as key, and ``actions`` lists those keys
    in BFS order.  ``parents`` holds each element's discovering edge
    (parent index, generator index), None for the identity.  Completely
    independent of the greedy factorization it is later compared against.
    """

    def __init__(self, gens: tuple[Element, ...], actions: list,
                 levels: list[int], edges: list[list[int | None]],
                 parents: list[tuple[int, int] | None], key_index: dict,
                 complete: bool, radius: int | None):
        self.gens = gens
        self.actions = actions
        self.levels = levels
        self.edges = edges
        self.parents = parents
        self.key_index = key_index
        self.complete = complete
        self.radius = radius

    def __len__(self):
        return len(self.actions)

    def product(self, i: int, j: int) -> int | None:
        """Index of x_i * x_j: follow the edges from i along the BFS-tree
        word of j.  Edges are exact products with exact dedup, so this is
        the index of the exact product; None when a truncated edge is met."""
        path = []
        while j:
            j, k = self.parents[j]
            path.append(k)
        for k in reversed(path):
            i = self.edges[i][k]
            if i is None:
                return None
        return i

    def closure(self, nodes) -> tuple[dict, list]:
        """The ancestor closure of some nodes, in index order, for row:
        (position of each node in it, (parent position, generator) of each
        node after the identity)."""
        parents = self.parents
        closed = {0}
        for b in nodes:
            while b not in closed:
                closed.add(b)
                b = parents[b][0]
        order = sorted(closed)
        pos = {b: q for q, b in enumerate(order)}
        return pos, [(pos[parents[b][0]], parents[b][1]) for b in order[1:]]

    def row(self, i: int, steps) -> list:
        """Indices of x_i * x_b over an ancestor-closed set of nodes b in
        index order, one edge per node: the b after the identity are given
        by steps, (position of b's parent in the set, generator).  A prefix
        of the ball is such a set, and its steps are its parents.  An entry
        is None where product(i, b) meets a truncated edge."""
        edges = self.edges
        row = [i]
        for p, k in steps:
            r = row[p]
            row.append(None if r is None else edges[r][k])
        return row


def generated_ball(group: CoxeterGroup, gens: Sequence[Element],
                   radius: int | None,
                   order: int | None = None) -> GeneratedBall:
    """The span of gens up to the radius, and at most `order` elements: a
    span that a folded matrix claims has that order, but is larger, stops
    there truncated rather than walking on towards the node cap.  Raises
    ValueError, before the walk, unless each generator is an involution."""
    gens = tuple(gens)
    compose = group._engine.compose
    identity = group._engine.identity
    for g in gens:
        if compose(g.inv_cols, g.inv_cols) != identity:
            raise ValueError(f"generator {list(g.word)} is not an involution")
    actions = [identity]
    levels = [0]
    parents: list[tuple[int, int] | None] = [None]
    key_index = {identity: 0}
    edges: list[list[int | None]] = []
    truncated = False
    head = 0
    while head < len(actions):
        inv_cols = actions[head]
        lvl = levels[head]
        # x = p * g_b, and g_b is an involution, so x * g_b = p
        p, b = parents[head] or (None, None)
        out: list[int | None] = []
        for k, g in enumerate(gens):
            if k == b:
                out.append(p)
                continue
            # (x g)^-1 = g^-1 x^-1
            y_inv = compose(g.inv_cols, inv_cols)
            idx = key_index.get(y_inv)
            if idx is None:
                if (len(actions) == order
                        or radius is not None and lvl + 1 > radius):
                    truncated = True
                    out.append(None)
                    continue
                idx = len(actions)
                actions.append(y_inv)
                levels.append(lvl + 1)
                parents.append((head, k))
                key_index[y_inv] = idx
                if len(actions) > NODE_CAP:
                    raise NodeCapExceeded(
                        f"generated subgroup exceeded the node cap {NODE_CAP}"
                    )
            out.append(idx)
        edges.append(out)
        head += 1
    return GeneratedBall(gens=gens, actions=actions, levels=levels,
                         edges=edges, parents=parents, key_index=key_index,
                         complete=not truncated, radius=radius)


class _Products:
    """The checks' product table: products in W^Gamma read off the
    generated ball of the folded generators (in bar_s order).

    A factor is (ball node or None, inverse action), its node found by
    exact action lookup.  The edges are exact products deduplicated on the
    exact action, so a walk on them gives the action compose gives, even
    for a broken folded system.  compose runs only for a factor off the
    ball or past a truncated edge (past the radius, or the order a folded
    matrix claims).  ``lengths`` holds the (orbits, letters) of each
    node's folded walk, filled on first read.
    """

    def __init__(self, folded: FoldedSystem, ball: GeneratedBall):
        self.folded, self.ball = folded, ball
        self.compose = folded.group._engine.compose
        self.gens = {J: (k, folded.longest[J].inv_cols)
                     for k, J in enumerate(folded.bar_s)}
        self.identity = self.at(folded.group._engine.identity)
        self.lengths: list = [None] * len(ball)

    def at(self, inv_cols) -> tuple:
        """The factor of the element with this inverse action."""
        return self.ball.key_index.get(inv_cols), inv_cols

    def times(self, x: tuple, J: frozenset) -> tuple:
        """x w_J: one edge, else one compose."""
        k, gen = self.gens[J]
        if x[0] is not None and (y := self.ball.edges[x[0]][k]) is not None:
            return y, self.ball.actions[y]
        return None, self.compose(gen, x[1])    # (x w_J)^-1 = w_J^-1 x^-1

    def product(self, x: tuple, y: tuple) -> tuple:
        """x y: an edge walk from x along the word of y, else one compose."""
        if x[0] is not None and y[0] is not None:
            if (z := self.ball.product(x[0], y[0])) is not None:
                return z, self.ball.actions[z]
        return None, self.compose(y[1], x[1])

    def rows(self, nodes: Sequence[int | None]):
        """For each of some ball nodes (None: a factor off the ball), the
        nodes of its products with every one of them, as product finds
        them, and None where product composes.  Each row from a node is
        one edge per node of the ancestor closure of the others (no more
        than the walks of product), and is dropped once the next starts."""
        ball = self.ball
        pos, steps = ball.closure(b for b in nodes if b is not None)
        at = [-1 if b is None else pos[b] for b in nodes]   # -1: a None
        off = [None] * (len(steps) + 2)
        for x in nodes:
            row = off if x is None else ball.row(x, steps) + [None]
            yield [row[q] for q in at]

    def walk(self, x: tuple) -> tuple:
        """(orbits, letters) of the folded walk of x, kept per node."""
        if x[0] is None:
            return self.folded._lengths(x[1])
        got = self.lengths[x[0]]
        if got is None:
            got = self.lengths[x[0]] = self.folded._lengths(x[1])
        return got

    def of_word(self, orbit_word: Sequence[frozenset]):
        """Inverse action of the product of an orbit word."""
        return self.word(orbit_word)[1]

    def word(self, orbit_word: Sequence[frozenset]) -> tuple:
        """The factor of the product of an orbit word."""
        return reduce(self.times, orbit_word, self.identity)


# ---------------------------------------------------------------------------
# check plumbing


class CheckResult:
    def __init__(self, name: str, status: str, statistics: dict,
                 witness: dict | None = None):
        self.name = name
        self.status = status            # pass | fail | skipped
        self.statistics = statistics
        self.witness = witness

    def __eq__(self, other):
        if not isinstance(other, CheckResult):
            return NotImplemented
        return ((self.name, self.status, self.statistics, self.witness)
                == (other.name, other.status, other.statistics, other.witness))

    def to_dict(self):
        out = {"name": self.name, "status": self.status,
               "statistics": self.statistics}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class CheckFailed(Exception):
    """A counterexample: the check's statistics so far, and a witness."""


def _check(name: str):
    """Make a check body, which returns its statistics or raises
    CheckFailed, into the check that returns its CheckResult.  A broken
    folded system raises InvariantViolation with a witness from deep inside
    an operation; that is a failure too, not a crash."""
    def decorate(body: Callable[..., dict]) -> Callable[..., CheckResult]:
        @wraps(body)
        def check(*args, **kwargs):
            try:
                return CheckResult(name, "pass", body(*args, **kwargs))
            except CheckFailed as err:
                return CheckResult(name, "fail", *err.args)
            except InvariantViolation as err:
                return CheckResult(name, "fail", {}, err.witness)
        return check
    return decorate


class Report:
    def __init__(self, input_digest: str, orbit_summary: dict,
                 folded_summary: dict, checks: list[CheckResult]):
        self.input_digest = input_digest
        self.orbit_summary = orbit_summary
        self.folded_summary = folded_summary
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def validation_failed(self) -> bool:
        return any(
            c.name == "automorphisms-preserve-matrix" and c.status == "fail"
            for c in self.checks
        )

    def to_dict(self):
        return {
            "version": 1,
            "input_digest": self.input_digest,
            "orbit_summary": self.orbit_summary,
            "folded_summary": self.folded_summary,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def input_digest(matrix: CoxeterMatrix, autos: Sequence[Automorphism]) -> str:
    text = str(matrix) + "\n" + "\n".join(str(g) for g in autos)
    return sha256(text.encode()).hexdigest()


def _rng(config: VerifyConfig, name: str) -> random.Random:
    return random.Random(f"{config.seed}:{name}")


# ---------------------------------------------------------------------------
# individual checks


def _greedy_probe(group: CoxeterGroup, subset) -> bool:
    """Does the greedy longest-element walk stop in under GREEDY_CAP steps?

    Independent of the classification: just left-multiply by the smallest
    non-descending generator of the subset until none remains, with
    descents read off the elementary-root table.  A finite parabolic stops
    after exactly l(w_0) steps, so the probe reports finite exactly when
    l(w_0) < GREEDY_CAP.  GREEDY_CAP = 512 does not cover
    every input the rank and degree caps admit: five commuting I2(120)
    blocks have l(w_0) = 600.
    """
    return group._grow(subset, GREEDY_CAP - 1) is not None


@_check("finiteness-classification-vs-greedy")
def check_finiteness_vs_greedy(group: CoxeterGroup, config: VerifyConfig) -> dict:
    n = group.rank
    masks = range(1 << n)
    if (1 << n) > SUBSET_CAP:
        rng = _rng(config, "finiteness")
        masks = sorted(rng.sample(range(1 << n), SUBSET_CAP))
    checked = 0
    for mask in masks:
        subset = [i + 1 for i in range(n) if (mask >> i) & 1]
        finite = classify_finite(group.matrix, subset) is not None
        terminated = _greedy_probe(group, subset)
        if finite != terminated:
            raise CheckFailed({"subsets_checked": checked},
                              {"subset": subset, "classified_finite": finite,
                               "greedy_terminated": terminated})
        checked += 1
    return {"subsets_checked": checked, "greedy_cap": GREEDY_CAP}


@_check("fixed-elements-factorize")
def check_factorize_fixed(folded: FoldedSystem, fixed: Sequence[Element]) -> dict:
    try:
        max_lambda = max(map(folded.lambda_length, fixed), default=0)
    except InvariantViolation as err:
        raise CheckFailed({"fixed_elements": len(fixed)}, err.witness) from err
    return {"fixed_elements": len(fixed), "max_lambda": max_lambda}


@_check("factorization-count-choice-independent")
def check_choice_independence(folded: FoldedSystem,
                              fixed: Sequence[Element]) -> dict:
    """Every descent choice peels a fixed element into the same number of
    orbits, and their letters add up to its length.

    One exhaustive pass over the folded-peel memo decides this for every
    choice at once (FoldedSystem.choice_outcomes).  ``factorizations`` is
    the checked elements times SAMPLES, a multiplier that keeps the
    reports' bytes.  A failure reports the element's outcomes, or the
    witness of the peel that raised.
    """
    checked = 0
    try:
        for w in fixed:
            if not folded.is_fixed(w):
                raise ValueError("element is not fixed by the automorphism group")
            outcomes = folded.choice_outcomes(w.inv_cols, list(w.word))
            (_, letters), *others = outcomes
            if others or letters != w.length:
                raise CheckFailed(
                    {"factorizations": checked * SAMPLES},
                    {"word": list(w.word), "length": w.length,
                     "outcomes": sorted(outcomes)},
                )
            checked += 1
    except InvariantViolation as err:
        raise CheckFailed({"factorizations": checked * SAMPLES},
                          err.witness) from err
    return {"fixed_elements": len(fixed), "factorizations": len(fixed) * SAMPLES}


@_check("minimal-words-length-additive")
def check_minimal_additivity(folded: FoldedSystem, config: VerifyConfig,
                             products: _Products) -> dict:
    """Random orbit words whose length is already minimal must have
    weights summing exactly to the length of their product, an edge walk
    from e on the product table, measured by its memoized folded walk.
    A walk that raises runs again with the orbit word as its source, for
    the witness."""
    if not folded.bar_s:
        return {"trials": 0, "minimal_hits": 0}
    rng = _rng(config, "minimal-additivity")
    hits = 0
    for _ in range(TRIALS):
        k = rng.randint(0, 6)
        word = [folded.bar_s[rng.randrange(len(folded.bar_s))] for _ in range(k)]
        x = products.word(word)
        try:
            try:
                lam, length = products.walk(x)
            except InvariantViolation:
                lam, length = folded._lengths(
                    x[1], source=[sorted(J) for J in word])
        except InvariantViolation as err:
            raise CheckFailed({"trials": TRIALS, "minimal_hits": hits},
                              err.witness) from err
        if lam != k:
            continue
        hits += 1
        expected = sum(folded.weight[J] for J in word)
        if length != expected:
            raise CheckFailed(
                {"trials": TRIALS, "minimal_hits": hits},
                {"factors": [sorted(J) for J in word],
                 "product_length": length, "weight_sum": expected},
            )
    return {"trials": TRIALS, "minimal_hits": hits}


@_check("dihedral-pairs")
def check_dihedral_pairs(folded: FoldedSystem, products: _Products) -> dict:
    """Observed structure of each folded generator pair.

    Finite pairs: alternating products from both starts agree exactly at m
    factors and nowhere earlier, the group they span has 2m distinct
    elements, none longer than (m/2)(L_I + L_J), and the longest element of
    the union parabolic is that extreme product.  Infinite pairs: the first
    few alternating products stay distinct.  The products are edge walks on
    the product table, compared by exact action; Elements are built only
    for the span's lengths.
    """
    group = folded.group
    finite_pairs = 0
    infinite_pairs = 0

    def fail(**extra):          # for the pair a, b and label the loop is on
        raise CheckFailed({"finite_pairs": finite_pairs},
                          {"orbits": [sorted(a), sorted(b)], "label": label,
                           **extra})

    def alternating(first, second, count):  # e, w_first, w_first w_second, ...
        out = [products.identity]
        for k in range(count):
            out.append(products.times(out[-1], second if k % 2 else first))
        return [x[1] for x in out]

    for det in folded.details:
        a, b = det.orbit_a, det.orbit_b
        if det.label == INF:
            infinite_pairs += 1
            label = "inf"
            for k, (x, y) in enumerate(zip(alternating(a, b, 8),
                                           alternating(b, a, 8))):
                if k and x == y:
                    fail(agree_at=k)
            continue
        m = label = int(det.label)
        alt_a, alt_b = alternating(a, b, m), alternating(b, a, m)
        if alt_a[m] != alt_b[m]:
            fail(problem="alternating products differ at m factors")
        for k in range(1, m):
            if alt_a[k] == alt_b[k]:
                fail(problem=f"alternating products agree early, at {k} factors")
        w_k = group.longest_element(a | b)
        bound = m * (det.weight_a + det.weight_b)
        if alt_a[m] != w_k.inv_cols:
            fail(problem="extreme product is not the longest element of the union")
        if 2 * w_k.length != bound:
            fail(problem="longest length does not match the label derivation")
        span = (set(map(group._element_from_inv, alt_a))
                | set(map(group._element_from_inv, alt_b)))
        if len(span) != 2 * m:
            fail(problem=f"pair spans {len(span)} elements, expected {2 * m}")
        for y in span:
            if 2 * y.length > bound:
                fail(word=list(y.word),
                     problem="element exceeds the dihedral length bound")
        finite_pairs += 1
    return {"finite_pairs": finite_pairs, "infinite_pairs": infinite_pairs}


@_check("length-additivity-transfer")
def check_additivity_transfer(folded: FoldedSystem, fixed: Sequence[Element],
                              config: VerifyConfig, products: _Products) -> dict:
    """l restricts to a weight function on W^Gamma: for fixed w and w',
    l(w w') = l(w) + l(w') exactly when lambda(w w') = lambda(w) +
    lambda(w').  Every pair up to PAIR_CAP, one row of product nodes per
    left factor, else SAMPLE_PAIRS seeded draws; each product's l and
    lambda come from its node's entry of the product table's lengths, or
    from the folded walk of one compose off the ball."""
    n = len(fixed)
    exhaustive = n * n <= PAIR_CAP
    if not exhaustive:
        rng = _rng(config, "additivity-transfer")
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(SAMPLE_PAIRS)]
    stats = {"pairs": n * n if exhaustive else len(pairs),
             "exhaustive": exhaustive}
    try:
        lam = [folded.lambda_length(w) for w in fixed]
    except InvariantViolation as err:
        raise CheckFailed(stats, err.witness) from err
    length = [w.length for w in fixed]
    nodes = [products.at(w.inv_cols)[0] for w in fixed]
    ball, walked, compose = products.ball, products.lengths, products.compose
    if exhaustive:      # (i, right factors, their product nodes)
        rows = zip(range(n), repeat(range(n)), products.rows(nodes))
    else:
        rows = ((i, (j,), (None if nodes[i] is None or nodes[j] is None
                           else ball.product(nodes[i], nodes[j]),))
                for i, j in pairs)
    for i, js, zs in rows:
        for j, z in zip(js, zs):
            if z is None:       # off the ball, or past a truncated edge
                got = folded._lengths(compose(fixed[j].inv_cols,
                                              fixed[i].inv_cols))
            elif (got := walked[z]) is None:
                got = walked[z] = folded._lengths(ball.actions[z])
            l_add = got[1] == length[i] + length[j]
            if l_add != (lam_add := got[0] == lam[i] + lam[j]):
                raise CheckFailed(
                    stats,
                    {"left": list(fixed[i].word), "right": list(fixed[j].word),
                     "length_additive": l_add, "folded_additive": lam_add},
                )
    return stats


@_check("folded-exchange-condition")
def check_folded_exchange(folded: FoldedSystem, fixed: Sequence[Element],
                          products: _Products) -> dict:
    """FoldedSystem.folded_exchange at every folded descent w_I of every
    fixed element w with lambda(w) <= EXCHANGE_LAMBDA_CAP; only those
    have their orbit words spelled.  The lambda(w_I w) probe and the
    products inside folded_exchange are walks on the product table."""
    verified = 0
    try:
        for w in fixed:
            lam = folded.lambda_length(w)
            if lam > EXCHANGE_LAMBDA_CAP:
                continue
            word = folded.greedy_factorize(w)
            x = products.at(w.inv_cols)
            for orbit in folded.bar_s:
                w_i = products.times(products.identity, orbit)
                if products.walk(products.product(w_i, x))[0] > lam:
                    continue
                folded.folded_exchange(word, orbit, products.of_word, w)
                verified += 1
    except (InvariantViolation, ValueError) as err:
        witness = getattr(err, "witness", {"error": str(err)})
        raise CheckFailed({"descents_verified": verified}, witness) from err
    return {"descents_verified": verified, "lambda_cap": EXCHANGE_LAMBDA_CAP}


@_check("generated-subgroup-matches-fixed-set")
def check_generated_matches_fixed(folded: FoldedSystem, gen_ball: GeneratedBall,
                                  fixed: Sequence[Element],
                                  finite_w: bool) -> dict:
    """The subgroup spanned by the folded generators is the fixed set.

    Full balls: exact set equality of action keys.  Bounded balls: every
    enumerated product is fixed, and every fixed element whose greedy
    factorization fits the radius appears among the products.
    """
    fixed_keys = {w.inv_cols for w in fixed}
    gen_keys = set(gen_ball.key_index)
    sizes = {"generated": len(gen_keys), "fixed": len(fixed_keys)}
    if finite_w and gen_ball.complete:
        if gen_keys != fixed_keys:
            raise CheckFailed(sizes, {"generated_size": len(gen_keys),
                                      "fixed_size": len(fixed_keys)})
        return {**sizes, "mode": "full"}
    # gamma fixes w exactly when it fixes w^-1
    fixes = folded.group._engine.fixes
    for inv_cols in gen_ball.actions:
        if not all(fixes(gamma.images, inv_cols) for gamma in folded.autos):
            raise CheckFailed({"generated": len(gen_keys)},
                              {"problem": "generated element is not fixed"})
    radius = gen_ball.radius
    for w in fixed:
        try:
            lam = folded.lambda_length(w)
        except InvariantViolation as err:
            raise CheckFailed(sizes, err.witness) from err
        if radius is not None and lam > radius:
            continue
        if w.inv_cols not in gen_ball.key_index:
            raise CheckFailed(
                sizes,
                {"word": list(w.word), "lambda": lam,
                 "problem": "fixed element missing from generated ball"},
            )
    return {**sizes, "mode": "bounded"}


def _presentation_pairs(levels: Sequence[int], radius: int | None,
                        config: VerifyConfig) -> tuple[list, list | None]:
    """(row widths, drawn pairs) for the length-transfer test.

    The candidates are the pairs (i, j) with levels[i] + levels[j] <= radius
    in i-major order.  Levels are non-decreasing in BFS order, so the j of
    each i form a prefix of length width[i], at least 1 since levels[0] is
    0.  Up to PAIR_CAP candidates every one is tested, and drawn is None;
    over it, SAMPLE_PAIRS of them are drawn.  Draws are indices into the
    candidate list, mapped back to pairs, so the list is never built.
    """
    n = len(levels)
    if radius is None:
        width = [n] * n
    else:
        width = [bisect_right(levels, radius - lvl) for lvl in levels]
    if sum(width) <= PAIR_CAP:
        return width, None
    rng = _rng(config, "presentation-pairs")
    starts = list(accumulate(width, initial=0))
    pairs = []
    for k in rng.sample(range(starts[-1]), SAMPLE_PAIRS):
        i = bisect_right(starts, k) - 1
        pairs.append((i, k - starts[i]))
    return width, pairs


def _length(folded: FoldedSystem, built: dict, inv_cols) -> int:
    """Length of the element with this inverse action: a fixed element's
    own, else the letters of its memoized folded walk, which strips one
    left descent per letter down to the identity.  A walk that raises (a
    broken folded system) gives way to the extracted canonical word."""
    w = built.get(inv_cols)
    if w is not None:
        return w.length
    try:
        return folded._lengths(inv_cols)[1]
    except InvariantViolation:
        return folded.group._element_from_inv(inv_cols).length


@_check("presentation-isomorphism")
def presentation_check(folded: FoldedSystem, gen_ball: GeneratedBall,
                       config: VerifyConfig,
                       fixed: Sequence[Element] = ()) -> dict:
    """Labeled-graph isomorphism between the generated fixed subgroup and
    the abstract Coxeter group of the folded matrix, decided by comparing
    their BFS edge tables, plus the length-transfer biconditional on
    element pairs.

    Pair products come from GeneratedBall.row over the candidates of each
    i when they are all tested, else from GeneratedBall.product: a
    candidate pair has levels[i] + levels[j] <= radius, so its walk never
    leaves the ball.  Each pair reads lengths and levels by node index.
    Lengths come from `fixed` or from the memoized folded walk (_length);
    canonical words are built only for a failure witness."""
    group = folded.group
    radius = gen_ball.radius
    # the abstract group walked the same way: BFS levels over simple
    # reflections are lengths, and its edges are right products.  When the
    # folded matrix is W's own and the folded generators are W's simple
    # reflections in order (every orbit a singleton), that walk is gen_ball.
    if (folded.folded_matrix == group.matrix
            and [g.word for g in gen_ball.gens]
            == [(s,) for s in group.generators()]):
        abstract_ball = gen_ball
    else:
        abstract = CoxeterGroup(folded.folded_matrix)
        abstract_ball = generated_ball(
            abstract, [abstract.simple(s) for s in abstract.generators()],
            radius)

    stats = {
        "generated_size": len(gen_ball),
        "abstract_size": len(abstract_ball),
        "radius": "full" if radius is None else radius,
    }
    if len(gen_ball) != len(abstract_ball):
        raise CheckFailed(stats, {"problem": "sizes differ", **stats})

    # unit steps: every folded generator changes the BFS level by exactly 1
    for idx, row in enumerate(gen_ball.edges):
        for tgt in row:
            if tgt is not None and abs(gen_ball.levels[tgt] - gen_ball.levels[idx]) != 1:
                raise CheckFailed(
                    stats,
                    {"problem": "generator step does not change folded length by 1",
                     "level": gen_ball.levels[idx]},
                )

    # Both balls number elements in discovery order, trying generator k
    # in the same order.  An isomorphism of labeled graphs that fixes the
    # identity and keeps edges, truncated ones included, sends index i to
    # i: element i is first reached by an edge (h, k) with h < i, and every
    # earlier edge points below i.  So it exists exactly when the edge
    # tables are equal.
    for a, (row, other) in enumerate(zip(gen_ball.edges, abstract_ball.edges)):
        if row != other:
            k = next(k for k, (x, y) in enumerate(zip(row, other)) if x != y)
            one_sided = (row[k] is None) != (other[k] is None)
            raise CheckFailed(
                stats,
                {"problem": ("edge present on one side only" if one_sided
                             else "labeled edges disagree"),
                 "generator": k + 1, "level": gen_ball.levels[a]},
            )

    # length transfer: l adds exactly when the folded BFS level adds
    built = {w.inv_cols: w for w in fixed}
    lengths = [_length(folded, built, inv_cols)
               for inv_cols in gen_ball.actions]
    width, drawn = _presentation_pairs(gen_ball.levels, radius, config)
    stats["pairs"] = sum(width) if drawn is None else len(drawn)
    stats["pairs_exhaustive"] = drawn is None
    levels, parents = gen_ball.levels, gen_ball.parents
    if drawn is None:   # (i, first j, product nodes): a row over the prefix
        rows = ((i, 0, gen_ball.row(i, islice(parents, 1, w)))
                for i, w in enumerate(width))
    else:
        rows = ((i, j, (gen_ball.product(i, j),)) for i, j in drawn)
    for i, start, zs in rows:
        for j, z in enumerate(zs, start):
            if z is None:
                raise CheckFailed(stats,
                                  {"problem": "product left the generated ball"})
            l_add = lengths[z] == lengths[i] + lengths[j]
            if l_add != (lam_add := levels[z] == levels[i] + levels[j]):
                left, right = (built.get(gen_ball.actions[k])
                               or group._element_from_inv(gen_ball.actions[k])
                               for k in (i, j))
                raise CheckFailed(
                    stats,
                    {"problem": "length transfer fails",
                     "left": list(left.word), "right": list(right.word),
                     "length_additive": l_add, "folded_additive": lam_add},
                )
    return stats


# ---------------------------------------------------------------------------
# the suite


def property_suite(group: CoxeterGroup, autos: Sequence[Automorphism],
                   config: VerifyConfig = VerifyConfig()) -> Report:
    """Run every check against one (matrix, automorphisms) instance."""
    autos = tuple(autos)
    digest = input_digest(group.matrix, autos)

    problems = []
    for gamma in autos:
        problems.extend(validate_automorphism(group.matrix, gamma.images))
    validation = CheckResult(
        "automorphisms-preserve-matrix",
        "fail" if problems else "pass",
        {"generators": len(autos)},
        {"problems": problems} if problems else None,
    )
    skipped = [CheckResult(name, "skipped", {}) for name in CHECK_NAMES]
    if problems:
        return Report(input_digest=digest, orbit_summary={},
                      folded_summary={}, checks=[validation] + skipped)

    try:
        folded = fold(group, autos)
    except InvariantViolation as err:
        checks = [validation,
                  CheckResult("fold-construction", "fail", {}, err.witness)]
        return Report(input_digest=digest, orbit_summary={},
                      folded_summary={}, checks=checks + skipped)
    # the generated ball of a finite folded group is all of it
    fm = folded.folded_matrix
    folded_order = coxeter_order(fm, fm.generators())
    if folded_order is not None and folded_order > NODE_CAP:
        raise NodeCapExceeded(f"the folded group has {folded_order} elements, "
                              f"over the node cap {NODE_CAP}")
    radius = DEFAULT_INFINITE_RADIUS if config.radius is None else config.radius
    finite_w = classify_finite(group.matrix, group.generators()) is not None
    identity = Automorphism(tuple(group.generators()))
    if finite_w and set(autos) - {identity}:
        fixed = fixed_elements(group, autos)
    else:   # the whole ball under a trivial Gamma, else a pruned walk
        ball = enumerate_ball(group, None if finite_w else radius, autos)
        fixed = fixed_subgroup(ball, autos)
    gen_ball = generated_ball(group, [folded.longest[J] for J in folded.bar_s],
                              radius if folded_order is None else None,
                              folded_order)
    products = _Products(folded, gen_ball)

    checks = [  # in CHECK_NAMES order
        validation,
        check_finiteness_vs_greedy(group, config),
        check_factorize_fixed(folded, fixed),
        check_choice_independence(folded, fixed),
        check_minimal_additivity(folded, config, products),
        check_dihedral_pairs(folded, products),
        check_additivity_transfer(folded, fixed, config, products),
        check_folded_exchange(folded, fixed, products),
        check_generated_matches_fixed(folded, gen_ball, fixed, finite_w),
        presentation_check(folded, gen_ball, config, fixed),
    ]
    summary = folded.to_dict()
    orbit_keys = ("orbits", "bar_s", "dropped_infinite", "generators")
    return Report(
        input_digest=digest,
        orbit_summary={k: summary.pop(k) for k in orbit_keys},
        folded_summary=summary,
        checks=checks,
    )
