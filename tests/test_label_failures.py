"""The failure branches of the folded labels, on the A3 flip.

fold derives each folded label m from l(w_K) of the union K of an orbit
pair and checks it against the order of the product of the two folded
generators (folding._folded_order); the dihedral-pairs check observes
each pair again on the product table.  On the A3 flip the orbits are
{1, 3} of weight 2 and {2} of weight 1, l(w_K) = 6 and m = 4.  Tampered
weights send _folded_order down each of its four failure branches, and a
folded system that writes inf over the label fails dihedral-pairs where
the alternating products first agree, at 4 factors.

An infinite pair is checked on its first 8 alternating products only, so
inf written over I2(m) under the identity fails for m = 8 and passes for
m = 9 and 10: a known gap (ROADMAP item 10), pinned as strict xfails.
"""

import pytest

from coxfold.coxeter import CoxeterMatrix
from coxfold.cyclo import INF
from coxfold.folding import Automorphism, InvariantViolation, _folded_order, fold
from coxfold.verify import _Products, check_dihedral_pairs, generated_ball
from coxfold.words import CoxeterGroup

from conftest import FLIPS
from oracles import replace

A, B = frozenset({1, 3}), frozenset({2})


@pytest.fixture(scope="module")
def a3_fold(group_of):
    return fold(group_of("a3"), [FLIPS["a3"]])


def test_untampered_weights_give_label_four(a3_fold):
    assert (a3_fold.weight[A], a3_fold.weight[B]) == (2, 1)
    assert _folded_order(a3_fold.group, a3_fold.longest, a3_fold.weight,
                         A, B, {}) == (4, 6)


@pytest.mark.parametrize("weights,message,keys", [
    ((2, 3), "2*l(w_K) is not a multiple of the weight sum",
     {"longest_length": 6, "weights": [2, 3]}),
    ((6, 6), "folded label 1 below 2", {}),
    ((1, 1), "product order 4 below folded label 6", {"label": 6}),
    ((2, 2), "product order exceeds folded label 3", {"label": 3}),
])
def test_tampered_weights_raise_with_their_witness(a3_fold, weights, message,
                                                   keys):
    weight = {A: weights[0], B: weights[1]}
    with pytest.raises(InvariantViolation) as exc:
        _folded_order(a3_fold.group, a3_fold.longest, weight, A, B,
                      {"input": "a3-flip"})
    assert str(exc.value) == "folded-label: " + message
    assert exc.value.witness == {"input": "a3-flip", "check": "folded-label",
                                 "orbits": [[1, 3], [2]], **keys}


def test_infinite_label_over_a_finite_pair_fails_dihedral_pairs(a3_fold):
    (detail,) = a3_fold.details
    broken = replace(a3_fold, details=(detail._replace(label=INF),))
    gen_ball = generated_ball(a3_fold.group,
                              [a3_fold.longest[J] for J in a3_fold.bar_s],
                              None, 8)
    assert check_dihedral_pairs(
        a3_fold, _Products(a3_fold, gen_ball)).statistics == {
            "finite_pairs": 1, "infinite_pairs": 0}
    result = check_dihedral_pairs(broken, _Products(broken, gen_ball))
    assert result.status == "fail"
    assert result.statistics == {"finite_pairs": 0}
    assert result.witness == {"orbits": [[1, 3], [2]], "label": "inf",
                              "agree_at": 4}


@pytest.mark.parametrize("m", [
    8,
    *(pytest.param(m, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 10"))
      for m in (9, 10)),
])
def test_infinite_label_over_a_dihedral_pair_fails_dihedral_pairs(m):
    folded = fold(CoxeterGroup(CoxeterMatrix.from_labels(2, {(1, 2): m})),
                  [Automorphism((1, 2))])
    (detail,) = folded.details
    assert detail.label == m
    broken = replace(folded, details=(detail._replace(label=INF),))
    gen_ball = generated_ball(folded.group,
                              [folded.longest[J] for J in folded.bar_s],
                              None, 8)
    result = check_dihedral_pairs(broken, _Products(broken, gen_ball))
    assert result.status == "fail"
    assert result.witness["orbits"] == [[1], [2]]
