"""Differential tests for the lengths kept on the folded-peel records.

Each record of `FoldedSystem._steps` holds the (orbit count, letters) of
the smallest-descent walk from its action once `_lengths` has walked that
path to the identity.  Every state a property-suite run reaches, on the
benchmark's verify instances, the finite catalog rows, H3 and F4 under
`auto id` and the affine A3 flip at radius 16, must then hold the lengths
of oracles.reference_factorize, which peels without any memo.

A walk that raises writes nothing: a failing peel, or a state without
descents that is not the identity, leaves no lengths on the records of its
path, and the next call raises the same witness.
"""

import pytest

from coxfold import verify
from coxfold.catalog import CATALOG
from coxfold.coxeter import classify_finite, parse_input
from coxfold.folding import Automorphism, InvariantViolation
from coxfold.verify import VerifyConfig
from coxfold.words import CoxeterGroup

from oracles import reference_factorize, replace
from test_bench_digests import INSTANCES as BENCH_INSTANCES

RADIUS = 16


def _finite(text):
    matrix = parse_input(text).matrix
    return classify_finite(matrix, matrix.generators()) is not None


CASES = {
    **{"bench:" + name: text for name, text in BENCH_INSTANCES.items()},
    **{"catalog:" + entry.name: entry.input_text for entry in CATALOG
       if _finite(entry.input_text)},
    "h3-id": "rank 3\nm 1 2 5\nm 2 3 3\nauto id\n",
    "f4-id": "rank 4\nm 1 2 3\nm 2 3 4\nm 3 4 3\nauto id\n",
    "affine-a3-flip": ("rank 4\nm 1 2 3\nm 2 3 3\nm 3 4 3\nm 1 4 3\n"
                       "auto flip 1>3 3>1\n"),
}


def suite_run(monkeypatch, text):
    """(folded system, fixed elements) of a passing property-suite run at
    RADIUS, the memo as the run left it."""
    parsed = parse_input(text)
    group = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    seen = {}       # name -> the results of its calls
    for name in ("fold", "fixed_elements", "fixed_subgroup"):
        def record(*args, real=getattr(verify, name), name=name):
            seen.setdefault(name, []).append(out := real(*args))
            return out
        monkeypatch.setattr(verify, name, record)
    report = verify.property_suite(group, autos,
                                   VerifyConfig(seed=0, radius=RADIUS))
    assert report.passed
    (folded,) = seen["fold"]
    return folded, (seen.get("fixed_elements") or seen["fixed_subgroup"])[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_reached_state_has_the_reference_lengths(monkeypatch, name):
    folded, _ = suite_run(monkeypatch, CASES[name])
    reached = list(folded._steps)
    assert any(record[3] is not None for record in folded._steps.values())
    for inv_cols in reached:
        assert folded._lengths(inv_cols) == folded._steps[inv_cols][3]
    # the walks above wrote their paths: every record now holds lengths
    for inv_cols, record in folded._steps.items():
        seq, letters = reference_factorize(folded, inv_cols)
        assert record[3] == (len(seq), letters), inv_cols


FAILING = ("bench:a5-flip", "bench:h3-id", "bench:tri443-swap")


def raise_twice(system, w):
    """The witnesses of two _lengths calls on w, both of which must raise."""
    witnesses = []
    for _ in range(2):
        with pytest.raises(InvariantViolation) as exc:
            system._lengths(w.inv_cols, list(w.word))
        witnesses.append(exc.value.witness)
    assert witnesses[0] == witnesses[1]
    assert witnesses[0]["source"] == list(w.word)
    return witnesses[0]


@pytest.mark.parametrize("name", FAILING)
def test_failing_peel_writes_no_lengths(monkeypatch, name):
    folded, fixed = suite_run(monkeypatch, CASES[name])
    w = max(fixed, key=lambda e: e.length)
    # tamper the orbit that w's walk peels first last, after other peels
    seq, _ = folded._factorize_inv(w.inv_cols)
    orbit = max(set(seq), key=seq.index)
    assert seq.index(orbit) >= 1
    broken = replace(
        folded, weight={**folded.weight, orbit: folded.weight[orbit] + 1})
    witness = raise_twice(broken, w)
    assert (witness["check"], witness["orbit"], witness["weight"]) == (
        "factorize", sorted(orbit), folded.weight[orbit] + 1)
    assert len(broken._steps) > seq.index(orbit)
    assert all(record[3] is None for record in broken._steps.values())


@pytest.mark.parametrize("name", FAILING)
def test_descentless_state_off_the_identity_writes_no_lengths(monkeypatch,
                                                              name):
    folded, fixed = suite_run(monkeypatch, CASES[name])
    w = max(fixed, key=lambda e: e.length)
    # the state after w's first peel, a fixed element other than e
    _, descents, peels, lengths, _ = folded._steps[w.inv_cols]
    orbit = folded.orbit_of(descents[0])
    after = peels[orbit][1][0]
    assert lengths[0] >= 2 and after != folded.group._engine.identity
    system = replace(folded)
    system._state(after)[1] = ()        # a state that claims no descents
    witness = raise_twice(system, w)
    assert witness["check"] == "factorize"
    assert witness["factors"] == [sorted(orbit)]
    assert system._steps[w.inv_cols][3] is None
    assert system._steps[after][3] is None
