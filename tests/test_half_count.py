"""The catalog's fixed count of a finite W over chains of coset walks.

For Gamma-stable J in K, each w in W_K is uniquely u x with u in W_J and
x a minimal representative of W_J x, and gamma fixes w exactly when it
fixes u and x.  finite_fixed_count multiplies the fixed representatives
of each step of a chain of Gamma-stable parabolics, and must count what
the full walk counts, for every diagram automorphism of groups with odd
and even l(w0), reducible ones, rank 0 and 1, and a group over 256 roots.
Each walk must find the index the classification gives, so a broken walk
makes the catalog row mismatch.  (The name is from the count's first
form, which walked half of W and paired it by w -> w0 w.)
"""

import itertools

import pytest

from coxfold import catalog
from coxfold.catalog import _min_coset_reps, finite_fixed_count, run_entry
from coxfold.coxeter import CoxeterMatrix, classify_finite, coxeter_order
from coxfold.folding import Automorphism
from coxfold.verify import NODE_CAP, enumerate_ball, fixed_nodes
from coxfold.words import CoxeterGroup

from conftest import diagram_automorphisms, entry_by_name


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
    # over 256 roots, so the full walk the count is compared with keys
    # nodes by automaton states, and root indices need more than a byte
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


# -- the coset walks ------------------------------------------------------------


def traced_walks(monkeypatch, before=None, after=None):
    """Record each coset walk's (nodes, index); `before` may alter the
    group before the walk, and `after` the keys after it."""
    walks = []

    def traced(group, J, K, index):
        if before:
            before(group)
        reps = _min_coset_reps(group, J, K, index)
        if after:
            after(reps)
        walks.append((len(reps), index))
        return reps

    monkeypatch.setattr(catalog, "_min_coset_reps", traced)
    return walks


def test_e6_row_walk_sizes(monkeypatch):
    # the flip's orbits are {1,6}, {3,5}, {2} and {4}, and the chain is
    # {} < {3,5} < {1,3,5,6} < {1,3,4,5,6} < S: A1^2, A2^2, A5 and E6
    walks = traced_walks(monkeypatch)
    row = run_entry(entry_by_name("e6-flip"))
    assert row.match and row.computed_order == 1152
    assert walks == [(4, 4), (9, 9), (20, 20), (72, 72)]


def drop_last_node(reps):
    reps.pop()


def corrupt_translate_table(group):
    # s_1 moves no root, so the walks through W_{1,3,5,6} fall short
    group._engine._perms[1] = group._engine.identity


@pytest.mark.parametrize("hooks", [
    {"after": drop_last_node},
    {"before": corrupt_translate_table},
], ids=["drop-node", "corrupt-table"])
def test_broken_walk_makes_the_row_mismatch(monkeypatch, hooks):
    walks = traced_walks(monkeypatch, **hooks)
    row = run_entry(entry_by_name("e6-flip"))
    assert walks and walks[-1][0] != walks[-1][1]
    assert row.computed_order == -1 and not row.match


def e_matrix(rank):
    """E_rank: the path 1 - 3 - 4 - ... - rank, and 2 joined to 4."""
    labels = {(1, 3): 3, (2, 4): 3}
    labels.update({(i, i + 1): 3 for i in range(3, rank)})
    return CoxeterMatrix.from_labels(rank, labels)


@pytest.mark.parametrize("rank,order", [(7, 2_903_040), (8, 696_729_600)])
def test_identity_counts_groups_over_the_node_cap(monkeypatch, rank, order):
    walks = traced_walks(monkeypatch)
    matrix = e_matrix(rank)
    assert coxeter_order(matrix, matrix.generators()) == order > NODE_CAP
    identity = Automorphism(tuple(matrix.generators()))
    assert finite_fixed_count(CoxeterGroup(matrix), [identity]) == order
    assert len(walks) == rank and all(n == index for n, index in walks)


def test_walk_stops_one_node_past_its_index():
    W = CoxeterGroup(E6)
    assert len(_min_coset_reps(W, set(), {1, 3}, 3)) == 4
    assert len(_min_coset_reps(W, {1}, {1, 3}, 3)) == 3
