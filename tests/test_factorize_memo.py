"""Differential tests for the memoized factorization of FoldedSystem.

`_factorize_inv` memoizes the descents of each inverse action it reaches
and each orbit peel that passed its checks.  The references (oracles.py's
reference_factorize and product_inv) peel and multiply without any memo,
exactly as the factorization is defined, and must agree with
`greedy_factorize` and `factorize_product` on every fixed element and on
random orbit words: same orbit sequence and same letter count.

`is_fixed` memoizes its verdict per element: each element is tested
once, a non-fixed one still raises on every call, and a replaced copy
starts with a memo of its own.
"""

import random

import pytest

from coxfold import folding
from coxfold.coxeter import parse_input
from coxfold.folding import Automorphism, InvariantViolation, fold
from coxfold.verify import enumerate_ball, fixed_subgroup
from coxfold.words import CoxeterGroup

from conftest import entry_by_name
from oracles import product_inv, reference_factorize, replace

INSTANCES = {
    # name: (input, ball radius; None enumerates all of W)
    "a5-flip": (entry_by_name("a5-flip").input_text, None),
    "h3-id": ("rank 3\nm 1 2 5\nm 2 3 3\nauto id\n", None),
    "tri443-swap": ("rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\n"
                    "auto swap 2>3 3>2\n", 8),
}

_cache: dict = {}


def instance(name):
    """(folded system, fixed elements of the ball), built once per name."""
    if name not in _cache:
        text, radius = INSTANCES[name]
        parsed = parse_input(text)
        group = CoxeterGroup(parsed.matrix)
        autos = [Automorphism(images) for _, images in parsed.autos]
        fixed = fixed_subgroup(enumerate_ball(group, radius), autos)
        _cache[name] = (fold(group, autos), fixed)
    return _cache[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_memoized_peel_matches_reference(name):
    folded, fixed = instance(name)
    assert fixed
    for w in fixed:
        seq, letters = reference_factorize(folded, w.inv_cols)
        assert letters == w.length
        assert folded.greedy_factorize(w) == seq
        assert folded.factorize_product(seq) == (seq, letters)
        # a second pass runs on memo hits only
        assert folded.greedy_factorize(w) == seq


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_factorize_product_matches_reference(name):
    folded, _ = instance(name)
    rng = random.Random(9)
    for _ in range(100):
        word = [rng.choice(folded.bar_s) for _ in range(rng.randint(0, 6))]
        expected = reference_factorize(
            folded, product_inv(folded, word))
        assert folded.factorize_product(word) == expected


def test_failing_peel_raises_on_every_call():
    folded, fixed = instance("a5-flip")
    orbit = folded.bar_s[0]
    broken = replace(
        folded, weight={**folded.weight, orbit: folded.weight[orbit] + 1})
    w = max(fixed, key=lambda e: e.length)
    witnesses = []
    for _ in range(2):
        with pytest.raises(InvariantViolation) as exc:
            broken.greedy_factorize(w)
        witnesses.append(exc.value.witness)
    assert witnesses[0] == witnesses[1]
    assert witnesses[0]["check"] == "factorize"
    # the failed peel was not stored
    assert not any(orbit in peels for _, _, peels in broken._steps.values())


def test_replaced_copy_starts_with_empty_memo():
    folded, fixed = instance("h3-id")
    for w in fixed:
        folded.greedy_factorize(w)
    folded.factorize_product(folded.bar_s * 2)
    folded.choice_outcomes(fixed[-1].inv_cols)
    assert folded._steps and folded._fixed and folded._outcomes
    copy = replace(folded)
    for memo in ("_steps", "_fixed", "_outcomes"):
        assert getattr(copy, memo) == {}
        assert getattr(copy, memo) is not getattr(folded, memo)
    assert copy == folded  # the memos take no part in equality


def test_fixedness_is_tested_once_per_element(monkeypatch):
    folded, fixed = instance("tri443-swap")
    folded = replace(folded)
    calls = []
    real = folding.is_fixed
    monkeypatch.setattr(folding, "is_fixed",
                        lambda w, autos: calls.append(w) or real(w, autos))
    for _ in range(3):
        for w in fixed:
            folded.greedy_factorize(w)
            folded.weight_additivity(w, fixed[-1])
    assert sorted(calls, key=lambda w: w.word) == sorted(fixed,
                                                         key=lambda w: w.word)


@pytest.mark.parametrize("name", ["a5-flip", "tri443-swap"])
def test_non_fixed_element_raises_on_every_call(name):
    folded, fixed = instance(name)
    w = folded.group.simple(2)   # the automorphism moves generator 2
    assert not folding.is_fixed(w, folded.autos)
    for _ in range(3):
        with pytest.raises(ValueError, match="not fixed"):
            folded.greedy_factorize(w)
        with pytest.raises(ValueError, match="must be fixed"):
            folded.weight_additivity(w, fixed[0])
        with pytest.raises(ValueError, match="must be fixed"):
            folded.weight_additivity(fixed[0], w)

