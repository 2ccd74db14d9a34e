"""The exhaustive choice-independence pass and the memo-walk lengths.

`check_choice_independence` decides the property in one pass over the
folded-peel memo (`FoldedSystem.choice_outcomes`).  The seeded sampled
loop it replaced is the reference here, its random draws peeled by the
memo-free oracles.reference_factorize: on every fixed set below both
return the same `CheckResult`; a tampered system fails both, and a
tampered memo branch off the smallest-descent walk fails the exhaustive
check alone.

`presentation_check` takes lengths from the letters of the memoized walk
instead of canonical words; they must be the extracted lengths.
"""

import sys

import pytest

from coxfold import verify
from coxfold.coxeter import classify_finite, parse_input
from coxfold.folding import Automorphism, InvariantViolation, fold
from coxfold.verify import (
    SAMPLES,
    VerifyConfig,
    _length,
    _rng,
    check_choice_independence,
    enumerate_ball,
    fixed_subgroup,
    generated_ball,
    presentation_check,
)
from coxfold.words import CoxeterGroup

from conftest import entry_by_name
from oracles import reference_factorize, replace

RADIUS = 16

# the verify instances of the benchmark, and three more catalog rows
INSTANCES = {
    "a5-flip": entry_by_name("a5-flip").input_text,
    "d4-triality": "rank 4\nm 1 2 3\nm 2 3 3\nm 2 4 3\nauto rot 1>3 3>4 4>1\n",
    "h3-id": "rank 3\nm 1 2 5\nm 2 3 3\nauto id\n",
    "affine-a2-flip": entry_by_name("affine-a2-flip").input_text,
    "tri443-swap": ("rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\n"
                    "auto swap 2>3 3>2\n"),
    "infinite-dihedral-flip": entry_by_name("infinite-dihedral-flip").input_text,
    "a3-flip": entry_by_name("a3-flip").input_text,
    "a4-flip": entry_by_name("a4-flip").input_text,
    "d4-leaf-swap": entry_by_name("d4-leaf-swap").input_text,
}

_cache: dict = {}


def instance(name):
    """(folded system, fixed elements) as the suite builds them at radius
    RADIUS; callers work on replace copies, whose memos start
    empty."""
    if name not in _cache:
        parsed = parse_input(INSTANCES[name])
        group = CoxeterGroup(parsed.matrix)
        autos = [Automorphism(images) for _, images in parsed.autos]
        finite = classify_finite(group.matrix, group.generators()) is not None
        fixed = fixed_subgroup(enumerate_ball(group, None if finite else RADIUS),
                               autos)
        _cache[name] = (fold(group, autos), fixed)
    return _cache[name]


def fresh(folded, **changes):
    return replace(folded, **changes)


def sampled_choice_independence(folded, fixed, config):
    """The reference: SAMPLES seeded random descent choices per fixed
    element, peeled without the memo, each compared with the
    smallest-descent factorization."""
    rng = _rng(config, "choice-independence")
    tried = 0
    try:
        for w in fixed:
            base = len(folded.greedy_factorize(w))
            for _ in range(SAMPLES):
                alt = len(reference_factorize(folded, w.inv_cols,
                                              choose=rng.choice)[0])
                tried += 1
                if alt != base:
                    return verify.CheckResult(
                        "factorization-count-choice-independent", "fail",
                        {"factorizations": tried},
                        {"word": list(w.word), "greedy_count": base,
                         "randomized_count": alt},
                    )
    except InvariantViolation as err:
        return verify.CheckResult("factorization-count-choice-independent",
                                  "fail", {"factorizations": tried},
                                  err.witness)
    return verify.CheckResult("factorization-count-choice-independent", "pass",
                              {"fixed_elements": len(fixed),
                               "factorizations": tried})


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_exhaustive_check_matches_sampled_loop(name):
    folded, fixed = instance(name)
    config = VerifyConfig(seed=0, radius=RADIUS)
    result = check_choice_independence(fresh(folded), fixed)
    assert result == sampled_choice_independence(fresh(folded), fixed, config)
    assert result.status == "pass"
    assert result.statistics == {"fixed_elements": len(fixed),
                                 "factorizations": len(fixed) * SAMPLES}


@pytest.mark.parametrize("name", ["a5-flip", "h3-id", "tri443-swap"])
def test_outcomes_are_the_single_factorization(name):
    folded, fixed = instance(name)
    system = fresh(folded)
    for w in fixed:
        outcomes = system.choice_outcomes(w.inv_cols)
        assert outcomes == {(len(folded.greedy_factorize(w)), w.length)}


# -- tampered systems ------------------------------------------------------------


def tampered_weight(folded):
    orbit = folded.bar_s[0]
    return fresh(folded, weight={**folded.weight,
                                 orbit: folded.weight[orbit] + 1})


def tampered_peel_count(folded, fixed):
    """A copy whose memo peels the longest fixed element's first orbit
    with one letter too many.  greedy_factorize wrote lengths along w's
    path; of those only w's own went through the tampered peel (no record
    above w was walked), so they are cleared."""
    system = fresh(folded)
    w = max(fixed, key=lambda e: e.length)
    system.greedy_factorize(w)
    record = system._state(w.inv_cols)
    _, descents, peels, _, _ = record
    orbit = system.orbit_of(descents[0])
    count, after = peels[orbit]
    peels[orbit] = (count + 1, after)
    record[3] = None
    return system


@pytest.mark.parametrize("name", ["a5-flip", "h3-id", "tri443-swap"])
def test_tampered_weight_fails_with_the_peel_witness(name):
    folded, fixed = instance(name)
    result = check_choice_independence(tampered_weight(folded), fixed)
    assert result.status == "fail"
    assert result.witness["check"] == "factorize"
    reference = sampled_choice_independence(tampered_weight(folded), fixed,
                                            VerifyConfig(seed=0))
    assert reference.status == "fail"


@pytest.mark.parametrize("name", ["a5-flip", "h3-id", "tri443-swap"])
def test_tampered_peel_count_fails_with_the_outcomes(name):
    folded, fixed = instance(name)
    w = max(fixed, key=lambda e: e.length)
    result = check_choice_independence(tampered_peel_count(folded, fixed),
                                       fixed)
    assert result.status == "fail"
    assert result.statistics == {"factorizations": fixed.index(w) * SAMPLES}
    assert result.witness["word"] == list(w.word)
    assert result.witness["length"] == w.length
    assert w.length + 1 in {letters for _, letters in result.witness["outcomes"]}
    reference = sampled_choice_independence(tampered_peel_count(folded, fixed),
                                            fixed, VerifyConfig(seed=0))
    assert reference.status == "fail"


def test_non_fixed_element_raises():
    folded, _ = instance("a5-flip")
    w = folded.group.simple(2)   # the flip moves generator 2
    with pytest.raises(ValueError, match="not fixed"):
        check_choice_independence(fresh(folded), [w])


def test_failing_branch_raises_on_every_call():
    folded, fixed = instance("a5-flip")
    system = tampered_weight(folded)
    w = max(fixed, key=lambda e: e.length)
    witnesses = []
    for _ in range(2):
        with pytest.raises(InvariantViolation) as exc:
            system.choice_outcomes(w.inv_cols, list(w.word))
        witnesses.append(exc.value.witness)
    assert witnesses[0] == witnesses[1]
    assert witnesses[0]["source"] == list(w.word)
    assert system._state(w.inv_cols)[4] is None


def test_two_counts_on_a_missed_branch_fail():
    # Give a memo branch of H3's w_0 off its smallest-descent walk a second
    # orbit count.  The sampled loop reads the memo on that walk alone, so
    # it still passes, and the exhaustive check must fail.
    folded, fixed = instance("h3-id")
    top = [max(fixed, key=lambda e: e.length)]
    system = fresh(folded)
    system.choice_outcomes(top[0].inv_cols)
    for record in system._steps.values():
        record[4] = None
    identity = system._state(system.group._engine.identity)
    missed = None
    for inv_cols, (_, descents, peels, _, _) in system._steps.items():
        seq, letters = folded._factorize_inv(inv_cols)
        untaken = [orbit for orbit in peels
                   if orbit != system.orbit_of(descents[0])]
        if untaken and len(seq) >= 2:
            missed = (peels, untaken[0], letters)
            break
    assert missed is not None
    peels, orbit, letters = missed
    peels[orbit] = (letters, identity)    # one orbit for the whole rest
    assert (sampled_choice_independence(system, top, VerifyConfig(seed=0))
            .status == "pass")

    result = check_choice_independence(system, top)
    assert result.status == "fail"
    assert result.statistics == {"factorizations": 0}
    outcomes = result.witness["outcomes"]
    assert len({count for count, _ in outcomes}) == 2
    assert {letters for _, letters in outcomes} == {top[0].length}
    assert result.witness["word"] == list(top[0].word)


# -- depth ---------------------------------------------------------------------------


def test_deep_walks_pass_without_recursion_error():
    # I2(inf) with the identity automorphism: every element is fixed and
    # peels one letter at a time, so walks are as long as the radius
    radius = 1100
    assert radius > sys.getrecursionlimit()
    parsed = parse_input("rank 2\nm 1 2 inf\nauto id\n")
    group = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    report = verify.property_suite(group, autos, VerifyConfig(radius=radius))
    assert report.passed
    (check,) = [c for c in report.checks
                if c.name == "factorization-count-choice-independent"]
    fixed = 2 * radius + 1
    assert check.statistics == {"fixed_elements": fixed,
                                "factorizations": fixed * SAMPLES}


# -- presentation lengths -------------------------------------------------------------


def generated(folded):
    fm = folded.folded_matrix
    finite = classify_finite(fm, fm.generators()) is not None
    return generated_ball(folded.group,
                          [folded.longest[J] for J in folded.bar_s],
                          None if finite else RADIUS)


@pytest.mark.parametrize("name", ["a5-flip", "h3-id", "affine-a2-flip",
                                  "tri443-swap"])
def test_walk_lengths_are_extracted_lengths(name):
    folded, _ = instance(name)
    system = fresh(folded)
    group = system.group
    for inv_cols in generated(system).actions:
        expected = group._element_from_inv(inv_cols).length
        assert system._factorize_inv(inv_cols)[1] == expected
        assert _length(system, {}, inv_cols) == expected


def test_broken_walk_falls_back_to_extracted_length():
    folded, fixed = instance("a5-flip")
    system = tampered_weight(folded)
    gen_ball = generated(folded)
    group = system.group
    for inv_cols in gen_ball.actions:
        assert (_length(system, {}, inv_cols)
                == group._element_from_inv(inv_cols).length)
    config = VerifyConfig(seed=0)
    assert (presentation_check(system, gen_ball, config, fixed)
            == presentation_check(folded, gen_ball, config, fixed))
