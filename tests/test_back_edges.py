"""generated_ball reads each node's back edge off its parent.

Every generator of a generated ball is an involution, so a node x found as
p * g_k has p as its edge k.  generated_ball fills that edge without a
compose, and must give every field of oracles.reference_generated_ball,
which composes every edge: on the a3 flip (root table), on the (4,4,3)
triangle swap and the affine A2 flip at radius 16, on the rank-4
hyperbolic input at radius 4 (four generators), on the abstract I2(inf)
ball and on a ball that stops at the order a broken folded matrix claims
(the "finite" breakage of test_failure_golden).  It makes exactly
len(gens) * len(ball) - (len(ball) - 1) composes for the walk, plus one
per generator for the check that it is an involution; a generator that
is not one raises before any node is walked.
"""

import pytest

from coxfold.coxeter import coxeter_order, parse_input
from coxfold.folding import Automorphism, fold
from coxfold.verify import generated_ball
from coxfold.words import CoxeterGroup

from conftest import MATRICES
from oracles import reference_generated_ball
from test_ball_products import HYPERBOLIC_ID
from test_bench_digests import INSTANCES as BENCH_INSTANCES
from test_failure_golden import relabeled
from test_golden import INPUTS as GOLDEN_INPUTS


def folded_ball_args(text, radius, broken=None):
    """(group, folded generators, radius, order) as property_suite passes
    them to generated_ball, the folded system broken by `broken` first."""
    parsed = parse_input(text)
    group = CoxeterGroup(parsed.matrix)
    folded = fold(group, [Automorphism(images) for _, images in parsed.autos])
    if broken:
        folded = broken(folded)
    fm = folded.folded_matrix
    order = coxeter_order(fm, fm.generators())
    return (group, [folded.longest[J] for J in folded.bar_s],
            radius if order is None else None, order)


def abstract_ball_args(matrix, radius):
    group = CoxeterGroup(matrix)
    return group, [group.simple(s) for s in group.generators()], radius, None


CASES = {
    # name: (arguments builder, whether the ball is complete)
    "a3-flip": (lambda: folded_ball_args(GOLDEN_INPUTS["a3-flip"], 5), True),
    "tri443-swap": (lambda: folded_ball_args(BENCH_INSTANCES["tri443-swap"], 16),
                    False),
    "affine-a2-flip": (
        lambda: folded_ball_args(BENCH_INSTANCES["affine-a2-flip"], 16), False),
    "hyperbolic-id": (lambda: folded_ball_args(HYPERBOLIC_ID, 4), False),
    "i2-inf": (lambda: abstract_ball_args(MATRICES["dinf"], 9), False),
    "tri443-swap-finite": (
        lambda: folded_ball_args(BENCH_INSTANCES["tri443-swap"], 5,
                                 lambda folded: relabeled(folded, 3)), False),
}


def counting_compose(monkeypatch, group):
    """Count the composes of the group's engine from here on."""
    engine = type(group._engine)
    calls = []
    compose = engine.compose

    def counted(self, outer, inner):
        calls.append(1)
        return compose(self, outer, inner)

    monkeypatch.setattr(engine, "compose", counted)
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_back_edges_match_composing_every_edge(name, monkeypatch):
    build, complete = CASES[name]
    group, gens, radius, order = build()
    ref = reference_generated_ball(group, gens, radius, order)
    calls = counting_compose(monkeypatch, group)
    ball = generated_ball(group, gens, radius, order)
    for field in ("gens", "actions", "levels", "edges", "parents",
                  "key_index", "complete", "radius"):
        assert getattr(ball, field) == getattr(ref, field), field
    assert ball.complete is complete
    n = len(ball)
    assert len(calls) == len(gens) * n - (n - 1) + len(gens)


def test_a_generator_that_is_no_involution_raises_before_the_walk(monkeypatch):
    W = CoxeterGroup(MATRICES["a2"])
    calls = counting_compose(monkeypatch, W)
    with pytest.raises(ValueError, match=r"generator \[1, 2\] is not an involution"):
        generated_ball(W, [W.simple(1), W.reduce([1, 2])], None)
    assert len(calls) == 2
