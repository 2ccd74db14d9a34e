"""The engines' descent scan against a loop of negative.

Each engine answers descent queries from one scan of an action.  On the
root table one translate of the first rank entries flags the negative
ones, and a find or the first flagged member of the subset gives the
smallest descent or non-descent.  The matrix engine tests one sign at a
time, in the subset's order, and stops at the first it wants.  On seeded
actions and on every subset (sorted, and all of S as the range that
_extract_word passes), descent must return the smallest descent and the
smallest non-descent that a loop of negative finds, and descents the
whole descent set.  On the matrix engine the scan must also make the
loop's sign tests, in the same order, so that the infinite word groups
cost what they did.  H4, E6 and E8 act on bytes, I2(120) x I2(10) and
I2(120) x I2(30) on str; affine A2, the (2,3,7) triangle group and the
rank-4 hyperbolic group run on exact matrices.
"""

import random

import pytest

from coxfold import words
from coxfold.coxeter import CoxeterMatrix
from coxfold.cyclo import INF
from coxfold.words import CoxeterGroup, _MatrixEngine, _RootTable

from conftest import MATRICES
from oracles import TupleRootTable, decode, reference_descent, reference_descents

H4 = CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3})
E6 = CoxeterMatrix.from_labels(6, {(1, 3): 3, (3, 4): 3, (4, 5): 3,
                                   (5, 6): 3, (2, 4): 3})
E8 = CoxeterMatrix.from_labels(8, {(1, 3): 3, (3, 4): 3, (2, 4): 3, (4, 5): 3,
                                   (5, 6): 3, (6, 7): 3, (7, 8): 3})

# name: (matrix, action type)
ROOT_TABLES = {
    "h4": (H4, bytes),
    "e6": (E6, bytes),
    "e8": (E8, bytes),
    "i2-120xi2-10": (CoxeterMatrix.from_labels(4, {(1, 2): 120, (3, 4): 10}), str),
    "i2-120xi2-30": (CoxeterMatrix.from_labels(4, {(1, 2): 120, (3, 4): 30}), str),
}

MATRIX_GROUPS = {
    "affine-a2": MATRICES["triangle"],
    "tri237": CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 7}),
    "hyperbolic": CoxeterMatrix.from_labels(4, {
        (1, 2): 3, (1, 3): 4, (1, 4): 5, (2, 3): 6, (2, 4): INF, (3, 4): 5}),
}


def subsets(W):
    """All of S as a range, then every subset as a sorted list."""
    gens = W.generators()
    yield gens
    for mask in range(1 << W.rank):
        yield [s for s in gens if mask >> (s - 1) & 1]


def seeded_actions(W, name, count, length):
    """The identity and the inverse actions of seeded random words."""
    rng = random.Random(f"descent-scan-{name}")
    gens = list(W.generators())
    return [W._engine.identity] + [
        W.reduce(rng.choice(gens) for _ in range(rng.randrange(length))).inv_cols
        for _ in range(count)]


@pytest.mark.parametrize("name", sorted(ROOT_TABLES))
def test_root_table_scan_matches_the_negative_loop(name):
    matrix, kind = ROOT_TABLES[name]
    W = CoxeterGroup(matrix)
    engine, ref = W._engine, TupleRootTable(W)
    assert isinstance(engine, _RootTable) and type(engine.identity) is kind
    actions = seeded_actions(W, name, 16, 60)
    actions.append(W.longest_element(W.generators()).inv_cols)
    for a in actions:
        r = decode(a)
        assert engine.descents(a) == ref.descents(r)
        for subset in subsets(W):
            assert engine.descent(a, subset) == ref.descent(r, subset)
            for want in (True, False):
                assert (engine.descent(a, subset, want)
                        == ref.descent(r, subset, want)), (subset, want)
    # the identity has no descent, and w_0 has every generator as one
    assert engine.descents(actions[0]) == ()
    assert engine.descents(actions[-1]) == tuple(W.generators())


@pytest.mark.parametrize("name", sorted(MATRIX_GROUPS))
def test_matrix_scan_makes_the_sign_tests_of_the_negative_loop(name, monkeypatch):
    W = CoxeterGroup(MATRIX_GROUPS[name])
    engine = W._engine
    assert isinstance(engine, _MatrixEngine)
    actions = seeded_actions(W, name, 8, 16)
    tested = []
    sign = words.root_sign
    monkeypatch.setattr(words, "root_sign",
                        lambda col: tested.append(id(col)) or sign(col))

    def traced(query):
        tested.clear()
        return query(), list(tested)

    gens = W.generators()
    for a in actions:
        assert (traced(lambda: engine.descents(a))
                == traced(lambda: reference_descents(engine.negative, a, gens)))
        for subset in subsets(W):
            for want in (True, False):
                got = traced(lambda: engine.descent(a, subset, want))
                expected = traced(
                    lambda: reference_descent(engine.negative, a, subset, want))
                assert got == expected, (subset, want)
