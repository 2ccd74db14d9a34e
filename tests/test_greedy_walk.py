"""Differential test for the greedy walk up by non-descents.

`CoxeterGroup._grow` walks on the elementary-root table: it carries the
set of elementary roots that w^-1 sends negative as a bit mask.  The
reference below is the walk on the engine itself: left descents from
`negative`, and w^-1 right-multiplied with `rmul`.  Both must take the
same letters on every subset, and give up (None) at the same step bound;
finite groups run on the root table, infinite ones on exact matrices.

For a finite W the elementary-root table is read off the root table,
since every positive root is elementary; the closure under the exact
reflections, with its sign tests, must give the same table.
"""

import pytest

from coxfold.coxeter import CoxeterMatrix, classify_finite
from coxfold.cyclo import INF
from coxfold.verify import GREEDY_CAP, _greedy_probe
from coxfold.words import CoxeterGroup, _ElementaryRoots

from conftest import MATRICES

GROUPS = {
    "a5": MATRICES["a5"],
    "b3": MATRICES["b3"],
    "d4": MATRICES["d4"],
    "f4": CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}),
    "h3": CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3}),
    "h4": CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3}),
    "affine-a2": MATRICES["triangle"],
    "affine-a3": CoxeterMatrix.from_labels(
        4, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 3}),
    "tri443": CoxeterMatrix.from_labels(3, {(1, 2): 4, (1, 3): 4, (2, 3): 3}),
    "tri237": CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 7}),
    "affine-g2": CoxeterMatrix.from_labels(3, {(1, 2): 6, (2, 3): 3}),
    "i2inf": CoxeterMatrix.from_labels(2, {(1, 2): INF}),
}


def reference_grow(W, subset, steps):
    """The letters of the greedy walk on the engine's actions."""
    engine = W._engine
    inv_cols = engine.identity
    letters = []
    for _ in range(steps + 1):
        up = [s for s in subset if not engine.negative(inv_cols, s)]
        if not up:
            return tuple(letters)
        letters.append(up[0])
        inv_cols = engine.rmul(inv_cols, up[0])
    return None


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_grow_matches_engine_walk(name):
    W = CoxeterGroup(GROUPS[name])
    infinite_seen = False
    for mask in range(1 << W.rank):
        subset = [s for s in W.generators() if (mask >> (s - 1)) & 1]
        expected = reference_grow(W, subset, GREEDY_CAP - 1)
        assert W._grow(subset, GREEDY_CAP - 1) == expected, subset
        assert _greedy_probe(W, subset) == (expected is not None)
        finite = classify_finite(W.matrix, subset) is not None
        assert finite == (expected is not None)
        infinite_seen |= not finite
        if expected:
            # the bound is exact: one step short gives up
            steps = len(expected)
            assert W._grow(subset, steps) == expected
            assert W._grow(subset, steps - 1) is None
    assert infinite_seen == (classify_finite(W.matrix, W.generators()) is None)


@pytest.mark.parametrize("name", ["a5", "b3", "d4", "f4", "h3", "h4"])
def test_finite_table_is_the_elementary_closure(name):
    W = CoxeterGroup(GROUPS[name])
    table = W._elementary
    closure = _ElementaryRoots.closure(W)
    # the same roots, up to order, with the same reflection table
    index = {r: i for i, r in enumerate(table.roots)}
    perm = [index[r] for r in closure.roots]
    assert sorted(perm) == list(range(len(table.roots)))
    for i, row in enumerate(closure.step):
        assert [e if e < 0 else perm[e] for e in row[1:]] == \
            list(table.step[perm[i]][1:])
