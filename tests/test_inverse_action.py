"""Differential tests: elements carry only the action of w^-1.

The action of w (``cols``) is derived from the canonical word on first
use.  Here it is compared with the forward action built letter by letter
from the input word and with the inverse action of w^-1; right descents
are compared with the left descents of w^-1, and the fixedness test on
the inverse action with mapping the word letterwise.  Both engines are
covered: table groups a5, d4 and h3, and matrix-engine groups affine A~2,
the (4,4,3) triangle group, I2(inf), and b3 on the matrix engine.

enumerate_ball walks a root-table W of rank 2 or more with at most 256
roots on bytes keys, the root indices of w^-1(alpha_t), and takes the
first discovery of each element; it walks the ShortLex automaton of the
elementary roots on any other W.  Either way a plain BFS, deduplicated on
the action and with words from normal-form extraction, must list the same
words.  The boundary cases I2(120) x I2(8), with exactly 256 roots, and
I2(120) x I2(10), with 260, take one walk each.  The bytes walk skips the
successors its last-letter rule shows are not new, and must append the
same keys, parents and letters as the walk that tries every generator,
on seeded random finite W, reducible ones included, and on relabelled E6
and D4, whole and at radius 1 to 3.  fixed_nodes and fixed_subgroup test
those keys, or the words with the exchange walk, and must keep exactly
the nodes that the engine's fixedness test keeps over the whole ball,
for every diagram automorphism and for all of them together: on the root
table against the table's own test, and on infinite W against the matrix
engine.  There it walks only the words whose automaton state the
automorphism leaves stable, and every fixed word's state is stable.
Groups of rank 0 and 1 take the automaton.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxfold.catalog import CATALOG
from coxfold.coxeter import (
    CoxeterMatrix,
    classify_finite,
    components,
    coxeter_order,
    parse_input,
)
from coxfold.folding import Automorphism, is_fixed
from coxfold.verify import enumerate_ball, fixed_nodes, fixed_subgroup
from coxfold.words import CoxeterGroup, _MatrixEngine, _RootTable

from conftest import (
    FLIPS,
    MATRICES,
    diagram_automorphisms,
    matrix_engine_group,
)

import oracles

TRI443 = CoxeterMatrix.from_labels(3, {(1, 2): 4, (1, 3): 4, (2, 3): 3})
H3 = CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3})

# name: (group builder, engine it must run on, automorphisms besides id)
CASES = {
    "a5": (lambda: CoxeterGroup(MATRICES["a5"]), _RootTable, [FLIPS["a5"]]),
    "d4": (lambda: CoxeterGroup(MATRICES["d4"]), _RootTable,
           [FLIPS["d4_triality"], FLIPS["d4_swap"]]),
    "h3": (lambda: CoxeterGroup(H3), _RootTable, []),
    "affine-a2": (lambda: CoxeterGroup(MATRICES["triangle"]), _MatrixEngine,
                  [FLIPS["triangle"], Automorphism((2, 3, 1))]),
    "tri443": (lambda: CoxeterGroup(TRI443), _MatrixEngine,
               [Automorphism((1, 3, 2))]),
    "i2inf": (lambda: CoxeterGroup(MATRICES["dinf"]), _MatrixEngine,
              [FLIPS["dinf"]]),
    "b3-matrix": (lambda: matrix_engine_group(MATRICES["b3"]), _MatrixEngine,
                  []),
}

_groups: dict[str, CoxeterGroup] = {}


def group(name):
    if name not in _groups:
        build, engine, _ = CASES[name]
        W = build()
        assert isinstance(W._engine, engine)
        _groups[name] = W
    return _groups[name]


def autos_of(name):
    W = group(name)
    return [oracles.identity_of(W.rank)] + CASES[name][2]


def forward_action(W, word):
    """The action of the product of `word`, one letter at a time."""
    cols = W._engine.identity
    for s in word:
        cols = W._engine.rmul(cols, s)
    return cols


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_derived_action_agrees(name, data):
    W = group(name)
    word = data.draw(st.lists(st.integers(1, W.rank), max_size=12), label="word")
    w = W.reduce(word)
    inv = W.inverse(w)
    assert w.cols == forward_action(W, word)
    assert w.cols == inv.inv_cols
    assert inv.cols == w.inv_cols
    assert W.right_descents(w) == W.left_descents(inv)
    assert W.left_descents(w) == W.right_descents(inv)
    for gamma in autos_of(name):
        assert is_fixed(w, [gamma]) == (oracles.apply_element(gamma, w) == w)


def test_fixed_elements_are_found():
    # the agreement above must not hold only because nothing is fixed
    W = group("affine-a2")
    gamma = FLIPS["triangle"]
    w = W.reduce((1, 2, 1))
    assert is_fixed(w, [gamma]) and oracles.apply_element(gamma, w) == w
    assert not is_fixed(W.reduce((1,)), [gamma])


def plain_ball_words(W, radius=None):
    """Words of a ball by BFS over left multiplication, deduplicated on the
    inverse action, each word extracted from its action; sorted by level
    and word."""
    engine = W._engine
    seen = {engine.identity}
    level = [engine.identity]
    words = [()]
    depth = 0
    while level and (radius is None or depth < radius):
        depth += 1
        nxt = []
        for inv_cols in level:
            for s in W.generators():
                if engine.negative(inv_cols, s):
                    continue
                y = engine.rmul(inv_cols, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        words.extend(sorted(W._extract_word(y) for y in nxt))
        level = nxt
    return words


def _e6():
    (entry,) = [e for e in CATALOG if e.name == "e6-flip"]
    return CoxeterGroup(parse_input(entry.input_text).matrix)


F4 = CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3})
H4 = CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3})


def bytes_walk(ball):
    """Did the ball come from the bytes-keyed walk?  The automaton walk
    keys nodes by integer states."""
    return isinstance(ball.keys[0], bytes)


def i2_product(m, n):
    return CoxeterMatrix.from_labels(4, {(1, 2): m, (3, 4): n})


SWAP = Automorphism((2, 1, 4, 3))


@pytest.mark.parametrize("build,radius", [
    (lambda: group("a5"), None),
    (lambda: group("d4"), None),
    (lambda: CoxeterGroup(F4), None),
    (lambda: CoxeterGroup(H4), None),
    (_e6, None),
    (lambda: group("tri443"), 6),
    (lambda: CoxeterGroup(i2_product(120, 8)), None),
    (lambda: CoxeterGroup(i2_product(120, 10)), None),
], ids=["a5", "d4", "f4", "h4", "e6", "tri443-r6", "i2-120x8", "i2-120x10"])
def test_enumerate_ball_matches_plain_bfs(build, radius):
    W = build()
    ball = enumerate_ball(W, radius)
    words = list(ball.words)
    assert words == plain_ball_words(W, radius)
    if radius is None:
        assert len(words) == coxeter_order(W.matrix, W.generators())
    else:
        assert not ball.complete and max(map(len, words)) == radius
    assert bytes_walk(ball) == (isinstance(W._engine, _RootTable)
                                and 2 * W._engine.npos <= 256)


@pytest.mark.parametrize("n,roots,order,walk", [
    (8, 256, 3840, True),
    (10, 260, 4800, False),
], ids=["i2-120x8", "i2-120x10"])
def test_walk_boundary_at_256_roots(n, roots, order, walk):
    # the bytes walk needs every root index in one byte
    W = CoxeterGroup(i2_product(120, n))
    assert isinstance(W._engine, _RootTable) and 2 * W._engine.npos == roots
    ball = enumerate_ball(W)
    assert ball.complete and len(ball) == order and bytes_walk(ball) == walk
    fixed = fixed_subgroup(ball, [SWAP])
    expected = [w for w in ball.elements if is_fixed(w, [SWAP])]
    assert [w.word for w in fixed] == [w.word for w in expected]
    assert [w.inv_cols for w in fixed] == [w.inv_cols for w in expected]
    # e, the longest elements of the two factors, and their product
    assert len(fixed) == 4
    assert all(oracles.apply_element(SWAP, w) == w for w in fixed)


def test_e6_ball_is_a_compact_prefix_tree():
    # the ball holds bytes keys and the tree, not words or actions, and
    # fixed_subgroup spells only the words it keeps
    (entry,) = [e for e in CATALOG if e.name == "e6-flip"]
    parsed = parse_input(entry.input_text)
    W = CoxeterGroup(parsed.matrix)
    (flip,) = [Automorphism(images) for _, images in parsed.autos]
    enumerate_ball(W, 1)        # builds the root table outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ball = enumerate_ball(W)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ball) == 51840
    assert held <= 120 * len(ball)
    assert bytes_walk(ball)
    assert len(fixed_subgroup(ball, [flip])) == 1152
    assert "words" not in vars(ball)


# -- the bytes walk against the walk without the last-letter rule ---------------


def random_finite_matrices(rng, count):
    """count finite W of rank 2 to 6 and order at most 5,000: a random
    forest of labelled edges under a random labelling, where label 2 leaves
    the group reducible."""
    out = []
    while len(out) < count:
        rank = rng.randint(2, 6)
        labels = {(rng.randint(1, v - 1), v): rng.choice((2, 3, 3, 3, 4, 5, 6))
                  for v in range(2, rank + 1)}
        perm = rng.sample(range(1, rank + 1), rank)
        matrix = relabelled(CoxeterMatrix.from_labels(rank, labels), perm)
        gens = matrix.generators()
        if (classify_finite(matrix, gens) is not None
                and coxeter_order(matrix, gens) <= 5000):
            out.append(matrix)
    return out


def relabelled(matrix, perm):
    """The matrix with generator s renamed perm[s - 1]."""
    return CoxeterMatrix.from_labels(matrix.rank, {
        (perm[i - 1], perm[j - 1]): matrix.m(i, j)
        for i, j in itertools.combinations(matrix.generators(), 2)})


def assert_walks_agree(W):
    for radius in (None, 1, 2, 3):
        ball = enumerate_ball(W, radius)
        reference = oracles.reference_image_ball(W, radius)
        assert bytes_walk(ball)
        assert ball.keys == reference.keys
        assert ball.parents == reference.parents
        assert ball.letters == reference.letters
        assert ball.complete == reference.complete


@pytest.mark.parametrize("seed", range(4))
def test_pruned_walk_matches_reference_on_random_groups(seed):
    matrices = random_finite_matrices(random.Random(seed), 10)
    assert any(len(components(m, m.generators())) > 1 for m in matrices)
    for matrix in matrices:
        assert_walks_agree(CoxeterGroup(matrix))


@pytest.mark.parametrize("name", ["e6", "d4"])
def test_pruned_walk_matches_reference_relabelled(name):
    # relabelling puts the commuting pairs s < t on both sides of the
    # letters they commute with
    matrix = _e6().matrix if name == "e6" else MATRICES["d4"]
    rng = random.Random(name)
    for _ in range(3):
        perm = rng.sample(range(1, matrix.rank + 1), matrix.rank)
        assert_walks_agree(CoxeterGroup(relabelled(matrix, perm)))


# -- image-keyed fixed sets against the root table's fixedness test ------------

IMAGE_CASES = {
    # name: (group builder, number of diagram automorphisms).  The identity,
    # and the swap of leaves 3 and 4 of d4, fix generator 1, so the one-byte
    # pre-test of fixed_nodes compares a byte of a key with itself.
    "a5": (lambda: CoxeterGroup(MATRICES["a5"]), 2),
    "b3": (lambda: CoxeterGroup(MATRICES["b3"]), 1),
    "d4": (lambda: CoxeterGroup(MATRICES["d4"]), 6),
    "f4": (lambda: CoxeterGroup(F4), 2),
    "h3": (lambda: CoxeterGroup(H3), 1),
    "e6": (_e6, 2),
}


@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
def test_image_fixed_set_matches_engine(name):
    build, n_autos = IMAGE_CASES[name]
    W = build()
    ball = enumerate_ball(W)
    assert isinstance(W._engine, _RootTable) and bytes_walk(ball)
    assert ball.complete
    autos = diagram_automorphisms(W.matrix)
    assert len(autos) == n_autos
    elements = ball.elements
    for gammas in [[g] for g in autos] + [autos]:
        nodes = [i for i, w in enumerate(elements) if is_fixed(w, gammas)]
        assert fixed_nodes(ball, gammas) == nodes
        fixed = fixed_subgroup(ball, gammas)
        expected = [elements[i] for i in nodes]
        assert [w.word for w in fixed] == [w.word for w in expected]
        assert [w.inv_cols for w in fixed] == [w.inv_cols for w in expected]


@pytest.mark.parametrize("matrix,order", [
    (CoxeterMatrix(()), 1),
    (CoxeterMatrix(((1,),)), 2),
], ids=["rank0", "rank1"])
def test_ranks_below_two_take_the_automaton(matrix, order):
    # an itemgetter of one index gives a root index, not a key
    W = CoxeterGroup(matrix)
    ball = enumerate_ball(W)
    assert ball.complete and not bytes_walk(ball)
    assert list(ball.words) == [(), (1,)][:order]
    gamma = oracles.identity_of(W.rank)
    assert [w.word for w in fixed_subgroup(ball, [gamma])] == list(ball.words)
    assert [w.word for w in enumerate_ball(W, 1).elements] == list(ball.words)


# -- the elementary-root automaton against the matrix engine -------------------

AUTOMATON_CASES = {
    # name: (matrix, radius, |E|, number of diagram automorphisms)
    "affine-a2": (MATRICES["triangle"], 8, 6, 6),
    "affine-a3": (CoxeterMatrix.from_labels(
        4, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 3}), 6, 12, 8),
    "tri443": (TRI443, 8, 8, 2),
    "tri237": (CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 7}), 10, 12, 1),
    "affine-g2": (CoxeterMatrix.from_labels(3, {(1, 2): 6, (2, 3): 3}),
                  10, 12, 1),
    "i2inf": (MATRICES["dinf"], 10, 2, 2),
}


@pytest.mark.parametrize("name", sorted(AUTOMATON_CASES))
def test_automaton_matches_matrix_engine(name):
    matrix, radius, size, n_autos = AUTOMATON_CASES[name]
    W = CoxeterGroup(matrix)
    assert isinstance(W._engine, _MatrixEngine)
    # the elementary roots of an affine group are as many as the roots of
    # its finite type
    assert len(W._elementary.roots) == size
    ball = enumerate_ball(W, radius)
    assert list(ball.words) == plain_ball_words(W, radius)
    assert not ball.complete and max(map(len, ball.words)) == radius
    autos = diagram_automorphisms(matrix)
    assert len(autos) == n_autos
    elements = [W.reduce(word) for word in ball.words]
    for gammas in [[g] for g in autos] + [autos]:
        nodes = [i for i, w in enumerate(elements) if is_fixed(w, gammas)]
        assert fixed_nodes(ball, gammas) == nodes
        expected = [elements[i] for i in nodes]
        fixed = fixed_subgroup(ball, gammas)
        assert [w.word for w in fixed] == [w.word for w in expected]
        assert [w.inv_cols for w in fixed] == [w.inv_cols for w in expected]
    # fixed_subgroup walks only the words whose state gamma leaves stable:
    # those whose set S, as a set of root vectors, gamma maps onto itself.
    # Every fixed word's state is stable.
    table = W._elementary
    state = dict(zip(ball.words, ball.keys))
    for gamma in autos:
        stable = table.stable_states(gamma.images)
        expected = set()
        for q, (S, _) in enumerate(table._states):
            vectors = {r for i, r in enumerate(table.roots) if S >> i & 1}
            if {move_root(gamma, r) for r in vectors} == vectors:
                expected.add(q)
        assert stable == expected
        assert all(state[w.word] in stable
                   for w in elements if is_fixed(w, [gamma]))
        if not oracles.is_identity(gamma):
            assert len(stable) < len(table._states)


def move_root(gamma, r):
    """gamma(r): coordinate i of r moves to coordinate gamma(i)."""
    moved = [None] * len(r)
    for i, c in enumerate(r):
        moved[gamma(i + 1) - 1] = c
    return tuple(moved)
