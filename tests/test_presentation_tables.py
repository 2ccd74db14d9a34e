"""The presentation check's table comparison against the walk it replaced.

`presentation_check` decides the labeled-graph isomorphism between the
generated fixed subgroup and the abstract folded group by comparing their
BFS edge tables index by index.  The reference below is the partial-map
walk it replaced: it follows the only candidate map breadth-first from
identity to identity and demands that it be a level-preserving bijection
that keeps every labeled edge.  Both must reach the same verdict on every
catalog row, on the verify instances of the benchmark, and on seeded
tamperings of the abstract table: an entry retargeted, an entry set to
None, or two rows swapped.

`generated_ball` keeps each element's discovering edge, which
`GeneratedBall.product` walks; it must be the element's first appearance
in the edge table.
"""

import random

import pytest

from coxfold import verify
from coxfold.catalog import CATALOG
from coxfold.coxeter import classify_finite, parse_input
from coxfold.folding import Automorphism, fold
from coxfold.verify import (DEFAULT_INFINITE_RADIUS, VerifyConfig,
                            generated_ball, presentation_check)
from coxfold.words import CoxeterGroup

from oracles import replace

# the verify instances of the benchmark, run at radius 16
BENCHMARK = {
    "a5-flip": ("rank 5\nm 1 2 3\nm 2 3 3\nm 3 4 3\nm 4 5 3\n"
                "auto flip 1>5 5>1 2>4 4>2\n"),
    "d4-triality": "rank 4\nm 1 2 3\nm 2 3 3\nm 2 4 3\nauto rot 1>3 3>4 4>1\n",
    "h3-id": "rank 3\nm 1 2 5\nm 2 3 3\nauto id\n",
    "affine-a2-flip": "rank 3\nm 1 2 3\nm 2 3 3\nm 1 3 3\nauto flip 1>2 2>1\n",
    "tri443-swap": ("rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\n"
                    "auto swap 2>3 3>2\n"),
    "infinite-dihedral-flip": "rank 2\nm 1 2 inf\nauto flip 1>2 2>1\n",
}

# name: (input, radius of the balls when the folded group is infinite)
CASES = {
    **{f"catalog:{e.name}": (e.input_text, DEFAULT_INFINITE_RADIUS)
       for e in CATALOG},
    **{f"benchmark:{name}": (text, 16) for name, text in BENCHMARK.items()},
}

TABLE_PROBLEMS = ("edge present on one side only", "labeled edges disagree")


def reference_isomorphism(gen_ball, abstract_ball):
    """The problem the partial-map walk finds, or None when the only
    candidate map is an isomorphism of labeled graphs."""
    if len(gen_ball) != len(abstract_ball):
        return "sizes differ"
    phi = [None] * len(gen_ball)
    phi[0] = 0
    queue = [0]
    seen_images = {0}
    while queue:
        nxt = []
        for a in queue:
            b = phi[a]
            for k in range(len(gen_ball.gens)):
                a2 = gen_ball.edges[a][k]
                b2 = abstract_ball.edges[b][k]
                if (a2 is None) != (b2 is None):
                    return "edge present on one side only"
                if a2 is None:
                    continue
                if gen_ball.levels[a2] != abstract_ball.levels[b2]:
                    return "folded length mismatch"
                if phi[a2] is None:
                    if b2 in seen_images:
                        return "candidate map is not injective"
                    phi[a2] = b2
                    seen_images.add(b2)
                    nxt.append(a2)
                elif phi[a2] != b2:
                    return "labeled edges disagree"
        queue = nxt
    if any(v is None for v in phi):
        return "generated graph is not connected"
    return None


def first_appearances(ball):
    """Each element's first (row, generator) in the edge table."""
    tree = [None] * len(ball)
    for a, row in enumerate(ball.edges):
        for k, b in enumerate(row):
            if b and tree[b] is None:
                tree[b] = (a, k)
    return tree


_cache: dict = {}


def case(name):
    """(folded system, generated ball, the abstract ball presentation_check
    compared it with, its result), built once per name."""
    if name not in _cache:
        text, radius = CASES[name]
        parsed = parse_input(text)
        group = CoxeterGroup(parsed.matrix)
        folded = fold(group, [Automorphism(images)
                              for _, images in parsed.autos])
        fm = folded.folded_matrix
        finite = classify_finite(fm, fm.generators()) is not None
        gen_ball = generated_ball(
            group, [folded.longest[J] for J in folded.bar_s],
            None if finite else radius)
        built = []

        def spy(*args):
            built.append(generated_ball(*args))
            return built[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "generated_ball", spy)
            result = presentation_check(folded, gen_ball, VerifyConfig())
        abstract = built[0] if built else gen_ball
        _cache[name] = (folded, gen_ball, abstract, result)
    return _cache[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_untampered_tables_agree_with_the_walk(name):
    _, gen_ball, abstract, result = case(name)
    assert reference_isomorphism(gen_ball, abstract) is None
    assert gen_ball.edges == abstract.edges
    assert result.status == "pass"
    for ball in (gen_ball, abstract):
        assert ball.parents == first_appearances(ball)


def tampered(ball, rng):
    """A copy of the ball with one entry retargeted, one entry set to None
    or two rows swapped."""
    edges = [row[:] for row in ball.edges]
    n, gens = len(edges), len(ball.gens)
    how = rng.randrange(3)
    if how == 0:
        a, k = rng.randrange(n), rng.randrange(gens)
        edges[a][k] = rng.choice([b for b in range(n) if b != edges[a][k]])
    elif how == 1:
        a, k = rng.choice([(a, k) for a in range(n) for k in range(gens)
                           if edges[a][k] is not None])
        edges[a][k] = None
    else:
        a, b = rng.sample(range(n), 2)
        edges[a], edges[b] = edges[b], edges[a]
    return replace(ball, edges=edges)


# the cases whose abstract ball is built apart from the generated ball
TAMPERED = ["catalog:a3-flip", "catalog:a4-flip", "catalog:d4-triality",
            "catalog:d4-leaf-swap", "catalog:e6-flip", "benchmark:a5-flip",
            "benchmark:affine-a2-flip", "benchmark:tri443-swap"]
TAMPERINGS = 150


@pytest.mark.parametrize("name", TAMPERED)
def test_tampered_tables_agree_with_the_walk(name, monkeypatch):
    folded, gen_ball, abstract, _ = case(name)
    assert abstract is not gen_ball
    rng = random.Random(name)
    current = abstract
    monkeypatch.setattr(verify, "generated_ball", lambda *args: current)
    for _ in range(TAMPERINGS):
        current = tampered(abstract, rng)
        result = presentation_check(folded, gen_ball, VerifyConfig())
        reference = reference_isomorphism(gen_ball, current)
        assert (result.status == "pass") == (reference is None)
        assert result.status == "fail"
        assert result.witness["problem"] in TABLE_PROBLEMS
