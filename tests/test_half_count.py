"""The catalog's fixed count of a finite W over half of W.

Every diagram automorphism preserves length, so it fixes w0, and
w -> w0 w pairs the fixed elements of length k with those of length
N - k, N = l(w0).  finite_fixed_count walks the ball of radius N // 2
only, and must count what the full walk counts, for every diagram
automorphism of groups with odd and even N, reducible ones, rank 0 and 1,
and a group over 256 roots that takes the automaton walk.  The same
pairing over the whole ball must give |W|, so a broken walk makes the
catalog row mismatch.
"""

import itertools

import pytest

from coxfold import catalog
from coxfold.catalog import entry_by_name, finite_fixed_count, run_entry
from coxfold.coxeter import CoxeterMatrix, classify_finite, coxeter_order
from coxfold.verify import enumerate_ball, fixed_nodes
from coxfold.words import CoxeterGroup

from conftest import diagram_automorphisms


def path(rank, heavy=3):
    """A path diagram; the last edge carries label `heavy`."""
    labels = {(i, i + 1): 3 for i in range(1, rank)}
    if rank > 1:
        labels[(rank - 1, rank)] = heavy
    return CoxeterMatrix.from_labels(rank, labels)


def product(*blocks):
    """The reducible matrix of the given blocks, generators in block order."""
    labels, offset = {}, 0
    for block in blocks:
        for i, j in itertools.combinations(block.generators(), 2):
            labels[(i + offset, j + offset)] = block.m(i, j)
        offset += block.rank
    return CoxeterMatrix.from_labels(offset, labels)


def i2(m):
    return CoxeterMatrix.from_labels(2, {(1, 2): m})


A1 = path(1)
E6 = CoxeterMatrix.from_labels(6, {(1, 3): 3, (3, 4): 3, (4, 5): 3,
                                   (5, 6): 3, (2, 4): 3})

GROUPS = {
    # name: (matrix, l(w0), number of diagram automorphisms)
    "rank0": (CoxeterMatrix(()), 0, 1),
    "a1": (A1, 1, 1),
    "a2": (path(2), 3, 2),
    "a3": (path(3), 6, 2),
    "a4": (path(4), 10, 2),
    "a5": (path(5), 15, 2),
    "b3": (path(3, 4), 9, 1),
    "d4": (CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 3, (2, 4): 3}),
           12, 6),
    "d5": (CoxeterMatrix.from_labels(5, {(1, 2): 3, (2, 3): 3, (3, 4): 3,
                                         (3, 5): 3}), 20, 2),
    "e6": (E6, 36, 2),
    "i2-7": (i2(7), 7, 2),
    "i2-8": (i2(8), 8, 2),
    "a1^3": (product(A1, A1, A1), 3, 6),
    "a2xa2": (product(path(2), path(2)), 6, 8),
    "a3xa1": (product(path(3), A1), 7, 2),
    "i2-5xi2-5": (product(i2(5), i2(5)), 10, 8),
    "i2-120xi2-10": (product(i2(120), i2(10)), 130, 4),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_half_count_matches_full_walk(name):
    matrix, n, n_autos = GROUPS[name]
    W = CoxeterGroup(matrix)
    labels = classify_finite(matrix, matrix.generators())
    assert sum(lab.positive_root_count for lab in labels) == n
    autos = diagram_automorphisms(matrix)
    assert len(autos) == n_autos
    full = enumerate_ball(W)
    assert len(full) == coxeter_order(matrix, matrix.generators())
    for gamma in autos:
        assert finite_fixed_count(W, [gamma]) == len(fixed_nodes(full, [gamma]))
    assert finite_fixed_count(W, autos) == len(fixed_nodes(full, autos))


def test_automaton_walk_is_covered():
    # over 256 roots, so the half walk keys nodes by automaton states
    W = CoxeterGroup(GROUPS["i2-120xi2-10"][0])
    assert 2 * W._engine.npos == 260
    assert not isinstance(enumerate_ball(W, 1).keys[0], bytes)


# -- Ball.complete on a radius-bounded finite ball ------------------------------


@pytest.mark.parametrize("matrix,radius,size,complete", [
    (product(A1, A1, A1), 2, 7, False),
    (product(A1, A1, A1), 3, 8, True),
    (E6, 18, 27751, False),
    (E6, 36, 51840, True),
], ids=["a1^3-r2", "a1^3-r3", "e6-r18", "e6-r36"])
def test_ball_holding_all_of_w_is_complete(matrix, radius, size, complete):
    # the walk stops at the radius, where the longest element lies, without
    # reaching the empty level after it
    ball = enumerate_ball(CoxeterGroup(matrix), radius)
    assert len(ball) == size and ball.complete == complete


def test_ball_records_where_levels_start():
    ball = enumerate_ball(CoxeterGroup(path(3)))
    lengths = [len(word) for word in ball.words]
    # A3 has 1, 3, 5, 6, 5, 3, 1 elements of lengths 0 to 6, then none
    assert list(ball.starts) == [0, 1, 4, 9, 15, 20, 23, 24]
    assert all(lengths.index(k) == start
               for k, start in enumerate(ball.starts[:-1]))
    half = enumerate_ball(CoxeterGroup(path(3)), 3)
    assert list(half.starts) == [0, 1, 4, 9] and len(half) == 15


# -- the E6 catalog row -----------------------------------------------------------


def traced_walks(monkeypatch, before=None, after=None):
    """Record catalog.enumerate_ball's (radius, nodes); `before` may alter
    the group before the walk, and `after` the ball after it."""
    walks = []
    walk = catalog.enumerate_ball

    def traced(group, radius=None):
        if before:
            before(group)
        ball = walk(group, radius)
        if after:
            after(ball)
        walks.append((radius, len(ball)))
        return ball

    monkeypatch.setattr(catalog, "enumerate_ball", traced)
    return walks


def test_e6_row_walks_half_of_w_once(monkeypatch):
    walks = traced_walks(monkeypatch)
    row = run_entry(entry_by_name("e6-flip"))
    assert row.match and row.computed_order == 1152
    assert walks == [(18, 27751)]


def drop_last_node(ball):
    for column in (ball.keys, ball.parents, ball.letters):
        column.pop()


def corrupt_translate_table(group):
    # s_1 moves no root, so the walk never takes it and stays in W_{2..6}
    group._engine._perms[1] = group._engine.identity


@pytest.mark.parametrize("hooks", [
    {"after": drop_last_node},
    {"before": corrupt_translate_table},
], ids=["drop-node", "corrupt-table"])
def test_broken_walk_makes_the_row_mismatch(monkeypatch, hooks):
    walks = traced_walks(monkeypatch, **hooks)
    row = run_entry(entry_by_name("e6-flip"))
    assert [radius for radius, _ in walks] == [18]
    assert row.computed_order == -1 and not row.match
