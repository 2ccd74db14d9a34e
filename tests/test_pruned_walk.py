"""Differential tests: the pruned automaton walk against the old filter.

On an infinite W under a nontrivial Gamma, enumerate_ball walks the
ShortLex tree carrying the exchange walks that decide gamma(w) = w, and
drops every subtree where one of them has failed.  The reference
(tests/oracles.py) is the filter that ran before: the whole ball, then the
states gamma leaves stable, then each such word spelled and tested from
scratch by the exchange walk.  The pruned walk must keep the same fixed
words with the same inverse actions, and the engine's is_fixed must keep
the same nodes over the whole ball:

* on the automaton cases of test_inverse_action, for each diagram
  automorphism alone and for all of them together;
* on 40 seeded random infinite W of rank 2 to 5, every label drawn from
  {3, 4, 5, 6, inf} and kept by a random permutation of the generators,
  under that permutation and under all diagram automorphisms;
* on the rank-4 hyperbolic matrix under the swap 3 <-> 4.  The swap does
  not preserve that matrix (m(1, 3) = 4, m(1, 4) = 5), so there is no
  stable state to test and no is_fixed; the walk must keep exactly the
  words w with NF(gamma(w)) = w, where gamma maps letters.
"""

import itertools
import random

import pytest

import oracles
from coxfold.coxeter import CoxeterMatrix, classify_finite
from coxfold.cyclo import INF
from coxfold.folding import Automorphism, is_fixed
from coxfold.verify import enumerate_ball, fixed_nodes, fixed_subgroup
from coxfold.words import CoxeterGroup

from conftest import diagram_automorphisms
from test_inverse_action import AUTOMATON_CASES, TRI443

HYPERBOLIC = CoxeterMatrix.from_labels(4, {
    (1, 2): 3, (1, 3): 4, (1, 4): 5, (2, 3): 6, (2, 4): INF, (3, 4): 5})
LABELS = (3, 4, 5, 6, INF)
BALL_CAP = 400      # nodes of the whole ball in a random case


def assert_pruned_walk_matches_filter(W, radius, gammas):
    full = enumerate_ball(W, radius)
    words = oracles.ball_words(full)
    nodes = oracles.reference_fixed_nodes(full, gammas)
    elements = oracles.ball_elements(full)
    assert [i for i, w in enumerate(elements) if is_fixed(w, gammas)] == nodes
    pruned = enumerate_ball(W, radius, gammas)
    assert not pruned.complete
    # a subtree of the ball, in the ball's order
    at = {word: i for i, word in enumerate(words)}
    kept = [at[word] for word in oracles.ball_words(pruned)]
    assert kept == sorted(kept)
    fixed = fixed_subgroup(pruned, gammas)
    assert [w.word for w in fixed] == [words[i] for i in nodes]
    assert [w.inv_cols for w in fixed] == [elements[i].inv_cols for i in nodes]
    # the same walk carried along the unpruned ball
    assert fixed_nodes(full, gammas) == nodes
    return full, pruned


@pytest.mark.parametrize("name", sorted(AUTOMATON_CASES))
def test_automaton_cases_match_filter(name):
    matrix, radius, _, _ = AUTOMATON_CASES[name]
    W = CoxeterGroup(matrix)
    autos = diagram_automorphisms(matrix)
    for gammas in [[g] for g in autos] + [autos]:
        assert_pruned_walk_matches_filter(W, radius, gammas)


def random_case(rng):
    """(matrix, permutation keeping it, radius): labels are constant on
    the orbits of the permutation on pairs, and the radius is the largest
    up to 10 whose ball stays under BALL_CAP nodes."""
    while True:
        rank = rng.randint(2, 5)
        perm = tuple(rng.sample(range(1, rank + 1), rank))
        if perm == tuple(range(1, rank + 1)):
            continue
        labels = {}
        for pair in itertools.combinations(range(1, rank + 1), 2):
            if pair in labels:
                continue
            label = rng.choice(LABELS)
            while pair not in labels:
                labels[pair] = label
                pair = tuple(sorted(perm[s - 1] for s in pair))
        matrix = CoxeterMatrix.from_labels(rank, labels)
        if classify_finite(matrix, matrix.generators()) is not None:
            continue
        W = CoxeterGroup(matrix)
        radius = 1
        while radius < 10 and len(enumerate_ball(W, radius + 1)) <= BALL_CAP:
            radius += 1
        return matrix, Automorphism(perm), radius


@pytest.mark.parametrize("seed", range(40))
def test_random_infinite_groups_match_filter(seed):
    matrix, gamma, radius = random_case(random.Random(f"pruned-walk:{seed}"))
    autos = diagram_automorphisms(matrix)
    assert gamma in autos and len(autos) > 1
    W = CoxeterGroup(matrix)
    for gammas in ([gamma], autos):
        full, pruned = assert_pruned_walk_matches_filter(W, radius, gammas)
        assert len(pruned) <= len(full)


def test_hyperbolic_letter_swap_matches_exchange_walk():
    W = CoxeterGroup(HYPERBOLIC)
    swap = Automorphism((1, 2, 4, 3))
    assert swap not in diagram_automorphisms(HYPERBOLIC)
    full = enumerate_ball(W, 5)
    words = oracles.ball_words(full)
    table = W._elementary
    expected = [word for word in words
                if oracles.exchange_fixes(table, swap.images, word)]
    assert expected == [word for word in words
                        if W.reduce(oracles.apply_word(swap, word)).word == word]
    pruned = enumerate_ball(W, 5, [swap])
    assert len(pruned) < len(full)
    assert [w.word for w in fixed_subgroup(pruned, [swap])] == expected


def test_pruned_walk_sizes():
    # the (4,4,3) triangle group under its swap: 12,357 words of length at
    # most 16, of which the pruned walk appends 169 and 17 are fixed
    W = CoxeterGroup(TRI443)
    (swap,) = [g for g in diagram_automorphisms(TRI443)
               if not oracles.is_identity(g)]
    assert len(enumerate_ball(W, 16)) == 12357
    pruned = enumerate_ball(W, 16, [swap])
    assert (len(pruned), len(fixed_nodes(pruned, [swap]))) == (169, 17)
    # the identity prunes nothing
    identity = oracles.identity_of(3)
    assert len(enumerate_ball(W, 16, [identity])) == 12357


def test_pruned_ball_refuses_other_automorphisms():
    W = CoxeterGroup(AUTOMATON_CASES["affine-a2"][0])
    autos = diagram_automorphisms(W.matrix)
    moved = [g for g in autos if not oracles.is_identity(g)]
    pruned = enumerate_ball(W, 4, moved[:1])
    # the identity added changes nothing
    assert fixed_nodes(pruned, moved[:1] + [oracles.identity_of(3)]) == \
        fixed_nodes(pruned, moved[:1])
    with pytest.raises(ValueError, match="pruned under other automorphisms"):
        fixed_nodes(pruned, moved[1:2])
    with pytest.raises(ValueError, match="pruned under other automorphisms"):
        fixed_nodes(pruned, [oracles.identity_of(3)])
