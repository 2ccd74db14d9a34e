"""Differential tests: the root table's string actions against tuples.

An action of a finite W is a string of root indices in the ball keys'
encoding: one byte each when there are at most 256 roots, one str code
point each otherwise, and every product is one translate.  The same
permutations stepped by itemgetter on tuples of ints are kept as
oracles.TupleRootTable.  On seeded words, every primitive must decode to
the tuple table's answer: lmul, rmul and compose, the descent test, the
fixedness test on a full action and on a ball key (its first rank
entries), and the descent strip.  The groups straddle the boundary: H4
(120 roots), E6 (72), E8 (240) and I2(120) x I2(8) (256) are bytes, and
I2(120) x I2(10) (260) and I2(120) x I2(30) (300) are str.
"""

import random

import pytest

from coxfold.coxeter import CoxeterMatrix
from coxfold.folding import Automorphism, orbits
from coxfold.words import CoxeterGroup, _RootTable

from oracles import TupleRootTable, decode

H4 = CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3})
E6 = CoxeterMatrix.from_labels(6, {(1, 3): 3, (3, 4): 3, (4, 5): 3,
                                   (5, 6): 3, (2, 4): 3})
E8 = CoxeterMatrix.from_labels(8, {(1, 3): 3, (3, 4): 3, (2, 4): 3, (4, 5): 3,
                                   (5, 6): 3, (6, 7): 3, (7, 8): 3})


def i2_product(m, n):
    return CoxeterMatrix.from_labels(4, {(1, 2): m, (3, 4): n})


I2_SWAPS = [(2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)]

# name: (matrix, number of roots, key type, nontrivial diagram automorphisms)
GROUPS = {
    "h4": (H4, 120, bytes, []),
    "e6": (E6, 72, bytes, [(6, 2, 5, 4, 3, 1)]),
    "e8": (E8, 240, bytes, []),
    "i2-120xi2-8": (i2_product(120, 8), 256, bytes, I2_SWAPS),
    "i2-120xi2-10": (i2_product(120, 10), 260, str, I2_SWAPS),
    "i2-120xi2-30": (i2_product(120, 30), 300, str, I2_SWAPS),
}


def seeded_actions(W, ref, autos, rng, count):
    """(action, tuple action) pairs of random words, and of products of the
    longest elements of Gamma-orbits, which every gamma in Gamma fixes."""
    engine, gens = W._engine, list(W.generators())
    words = [[rng.choice(gens) for _ in range(rng.randrange(60))]
             for _ in range(count)]
    for images in autos:
        parts = orbits(W.matrix, [Automorphism(images)])
        longest = [W.longest_element(p).word for p in parts]
        words += [[s for _ in range(3) for s in rng.choice(longest)]
                  for _ in range(count // 4)]
    out = []
    for word in words:
        a, r = engine.identity, ref.identity
        for s in word:
            a, r = engine.lmul(s, a), ref.lmul(s, r)
        out.append((a, r))
    return out


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_string_actions_match_the_tuple_table(name):
    matrix, roots, kind, autos = GROUPS[name]
    W = CoxeterGroup(matrix)
    engine, ref = W._engine, TupleRootTable(W)
    assert isinstance(engine, _RootTable) and 2 * engine.npos == roots
    assert type(engine.identity) is kind
    assert decode(engine.identity) == ref.identity
    rng = random.Random(f"string-actions-{name}")
    pairs = seeded_actions(W, ref, autos, rng, 24)
    gens = list(W.generators())
    images_list = [tuple(gens)] + autos
    fixed_seen = 0
    for (a, r), (b, q) in zip(pairs, pairs[1:] + pairs[:1]):
        assert type(a) is kind and decode(a) == r
        assert decode(engine.compose(a, b)) == ref.compose(r, q)
        for s in gens:
            assert decode(engine.lmul(s, a)) == ref.lmul(s, r)
            assert decode(engine.rmul(a, s)) == ref.rmul(r, s)
            assert engine.negative(a, s) == ref.negative(r, s)
        for images in images_list:
            fixed = ref.fixes(images, r)
            assert engine.fixes(images, a) == fixed
            assert engine.fixes(images, a[:W.rank]) == fixed
            fixed_seen += fixed and images in autos
        for subset in (gens, sorted(rng.sample(gens, 2))):
            letters, rest = W._strip(a, subset)
            ref_letters, ref_rest = ref.strip(r, subset)
            assert letters == ref_letters and decode(rest) == ref_rest
    # the orbit products make the fixedness test answer True as well
    assert fixed_seen or not autos
