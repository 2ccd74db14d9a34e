import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxfold.coxeter import parse_input
from coxfold.cyclo import INF
from coxfold.folding import (
    Automorphism,
    InvariantViolation,
    fold,
    is_fixed,
    orbits,
    validate_automorphism,
)
from coxfold.verify import enumerate_ball
from coxfold.words import CoxeterGroup

from conftest import FLIPS, MATRICES
from oracles import (
    apply_element,
    ball_elements,
    apply_word,
    generator_index,
    identity_of,
    is_identity,
    product_inv,
    reference_factorize,
    replace,
)


O = frozenset


def exchange(fs, orbit_word, orbit):
    """folded_exchange with its products composed one letter at a time."""
    return fs.folded_exchange(orbit_word, orbit,
                              lambda word: product_inv(fs, word))


@pytest.fixture(scope="module")
def a3_fold(group_of):
    return fold(group_of("a3"), [FLIPS["a3"]])


def test_validate_automorphism():
    a3 = MATRICES["a3"]
    assert validate_automorphism(a3, (1, 2, 3)) == []
    assert validate_automorphism(a3, (3, 2, 1)) == []
    errs = validate_automorphism(a3, (2, 1, 3))
    assert any("witness pair (1,3)" in e for e in errs)
    errs = validate_automorphism(a3, (1, 1, 3))
    assert any("not a permutation" in e for e in errs)


def test_automorphism_application(group_of):
    W = group_of("a3")
    gamma = FLIPS["a3"]
    assert apply_word(gamma, (1, 2, 3)) == (3, 2, 1)
    w = W.reduce([1, 2])
    assert apply_element(gamma, w) == W.reduce([3, 2])
    assert is_identity(identity_of(3))
    assert str(gamma) == "1>3 3>1"


def test_orbits():
    a3 = MATRICES["a3"]
    assert orbits(a3, [Automorphism((1, 2, 3))]) == (O({1}), O({2}), O({3}))
    assert orbits(a3, [FLIPS["a3"]]) == (O({1, 3}), O({2}))
    d4 = MATRICES["d4"]
    assert orbits(d4, [FLIPS["d4_triality"]]) == (O({1, 3, 4}), O({2}))
    # two generators combine
    a3_both = orbits(a3, [FLIPS["a3"], Automorphism((1, 2, 3))])
    assert a3_both == (O({1, 3}), O({2}))


def test_fold_a3(a3_fold):
    fs = a3_fold
    assert fs.bar_s == (O({1, 3}), O({2}))
    assert fs.weight[O({1, 3})] == 2 and fs.weight[O({2})] == 1
    assert fs.longest[O({1, 3})].word == (1, 3)
    assert fs.folded_matrix.entries == ((1, 4), (4, 1))
    assert fs.folded_type() == "I2(4)"
    assert fs.ordered_weights() == (2, 1)
    assert fs.dropped == ()
    (detail,) = fs.details
    assert detail.longest_length == 6 and detail.label == 4


def test_fold_a2_flip(group_of):
    fs = fold(group_of("a2"), [FLIPS["a2"]])
    assert fs.bar_s == (O({1, 2}),)
    assert fs.weight[O({1, 2})] == 3
    assert fs.folded_type() == "A1"


def test_fold_a4_flip(group_of):
    fs = fold(group_of("a4"), [FLIPS["a4"]])
    assert fs.ordered_weights() == (2, 3)
    assert fs.longest[O({2, 3})].word == (2, 3, 2)
    assert fs.folded_type() == "I2(4)"
    (detail,) = fs.details
    assert detail.longest_length == 10  # 10 = (4/2)(2+3)


def test_fold_d4(group_of):
    fs = fold(group_of("d4"), [FLIPS["d4_triality"]])
    assert fs.folded_type() == "I2(6)"
    assert fs.ordered_weights() == (3, 1)
    (detail,) = fs.details
    assert detail.longest_length == 12  # 12 = (6/2)(3+1)
    fs = fold(group_of("d4"), [FLIPS["d4_swap"]])
    assert fs.folded_type() == "B3"
    assert fs.ordered_weights() == (1, 1, 2)


def test_fold_trivial_is_identity(group_of):
    W = group_of("a3")
    fs = fold(W, [identity_of(3)])
    assert fs.folded_matrix == W.matrix
    assert fs.ordered_weights() == (1, 1, 1)
    assert fs.folded_type() == "A3"


def test_fold_infinite_orbits(group_of):
    fs = fold(group_of("triangle"), [FLIPS["triangle"]])
    assert fs.bar_s == (O({1, 2}), O({3}))
    assert fs.ordered_weights() == (3, 1)
    assert fs.folded_matrix.m(1, 2) == INF
    assert fs.folded_type() == "I2(inf)"

    fs = fold(group_of("dinf"), [FLIPS["dinf"]])
    assert fs.bar_s == ()
    assert fs.dropped == (O({1, 2}),)
    assert fs.folded_type() == "trivial"
    assert fs.folded_matrix.rank == 0


def test_fold_e6_weights(group_of):
    parsed = parse_input(
        "rank 6\nm 1 3 3\nm 3 4 3\nm 4 5 3\nm 5 6 3\nm 2 4 3\n"
        "auto flip 1>6 6>1 3>5 5>3\n"
    )
    fs = fold(CoxeterGroup(parsed.matrix),
              [Automorphism(i) for _, i in parsed.autos])
    assert fs.folded_type() == "F4"
    assert fs.ordered_weights() == (2, 2, 1, 1)


def test_fold_rejects_invalid_automorphism(group_of):
    with pytest.raises(ValueError, match="invalid automorphism"):
        fold(group_of("a3"), [Automorphism((2, 1, 3))])
    with pytest.raises(ValueError, match="at least one"):
        fold(group_of("a3"), [])


# -- fixedness -----------------------------------------------------------------


def test_is_fixed_examples(group_of):
    W = group_of("a3")
    gamma = FLIPS["a3"]
    assert is_fixed(W.identity, [gamma])
    assert not is_fixed(W.simple(1), [gamma])
    assert is_fixed(W.reduce([2, 1, 3, 2]), [gamma])
    assert is_fixed(W.longest_element([1, 2, 3]), [gamma])


def test_is_fixed_agrees_with_letterwise_application(group_of):
    # the action-permutation shortcut must agree with mapping the word
    W = group_of("a3")
    gamma = FLIPS["a3"]
    for w in ball_elements(enumerate_ball(W)):
        direct = apply_element(gamma, w) == w
        assert is_fixed(w, [gamma]) == direct


def test_replaced_copy_leaves_its_source_intact(group_of):
    # a tampered copy builds its own orbit lookup instead of rewriting the
    # dict of the system it was copied from
    fs = fold(group_of("a3"), [FLIPS["a3"]])
    copy = replace(fs, orbit_partition=(O({1}), O({2}), O({3})))
    assert fs.orbit_of(1) == {1, 3}
    assert copy.orbit_of(1) == {1}
    assert copy._orbit_of is not fs._orbit_of


# -- factorization ----------------------------------------------------------------


def test_factorize_examples(group_of, a3_fold):
    W = group_of("a3")
    fs = a3_fold
    assert fs.greedy_factorize(W.identity) == []
    w0 = W.longest_element([1, 2, 3])
    assert fs.greedy_factorize(w0) == [O({1, 3}), O({2}), O({1, 3}), O({2})]
    assert fs.greedy_factorize(W.reduce([2, 1, 3, 2])) == [
        O({2}), O({1, 3}), O({2})
    ]


def test_factorize_rejects_unfixed(group_of, a3_fold):
    with pytest.raises(ValueError, match="not fixed"):
        a3_fold.greedy_factorize(group_of("a3").simple(1))


def test_lambda_length(group_of, a3_fold):
    W = group_of("a3")
    fs = a3_fold
    assert fs.lambda_length(W.identity) == 0
    for J in fs.bar_s:
        assert fs.lambda_length(fs.longest[J]) == 1
    assert fs.lambda_length(W.longest_element([1, 2, 3])) == 4


def test_factorize_random_choice_same_count(group_of, a3_fold):
    W = group_of("a3")
    fs = a3_fold
    rng = random.Random(17)
    for w in ball_elements(enumerate_ball(W)):
        if not fs.is_fixed(w):
            continue
        base = len(fs.greedy_factorize(w))
        for _ in range(25):
            seq, _ = reference_factorize(fs, w.inv_cols, choose=rng.choice)
            assert len(seq) == base


def test_factorize_product_roundtrip(a3_fold):
    fs = a3_fold
    word = [O({2}), O({1, 3}), O({2})]
    seq, length = fs.factorize_product(word)
    assert length == 4 and len(seq) == 3
    assert fs.product_of(word).length == 4


def test_length_changing_automorphism_raises(monkeypatch):
    W = CoxeterGroup(MATRICES["a3"])
    w = W.reduce([1, 2])
    monkeypatch.setattr(W, "reduce", lambda word: W.simple(1))
    with pytest.raises(InvariantViolation) as exc:
        apply_element(FLIPS["a3"], w)
    assert exc.value.witness["word"] == [1, 2]
    assert exc.value.witness["image"] == [1]


def test_tampered_weight_raises_violation(group_of, a3_fold):
    # the falsification harness: a wrong folded system must be reported,
    # not silently accepted
    broken = replace(
        a3_fold, weight={**a3_fold.weight, O({1, 3}): 1}
    )
    w0 = group_of("a3").longest_element([1, 2, 3])
    with pytest.raises(InvariantViolation) as exc:
        broken.greedy_factorize(w0)
    assert exc.value.witness["check"] == "factorize"


# -- additivity and folded exchange --------------------------------------------------


def test_weight_additivity_examples(group_of, a3_fold):
    W = group_of("a3")
    fs = a3_fold
    w13, w2 = fs.longest[O({1, 3})], fs.longest[O({2})]
    assert fs.weight_additivity(W.identity, w2) == (True, True)
    assert fs.weight_additivity(w2, w2) == (False, False)
    assert fs.weight_additivity(w13, w2) == (True, True)
    prod = w13 * w2
    assert prod.length == 3 and fs.lambda_length(prod) == 2
    with pytest.raises(ValueError, match="fixed"):
        fs.weight_additivity(W.simple(1), w2)


def test_folded_exchange_examples(a3_fold):
    fs = a3_fold
    assert exchange(fs, [O({2})], O({2})) == 1
    assert exchange(fs, [O({2}), O({1, 3}), O({2})], O({2})) == 1
    w0_word = [O({1, 3}), O({2}), O({1, 3}), O({2})]
    assert exchange(fs, w0_word, O({1, 3})) == 1


def test_folded_exchange_dihedral_middle(group_of):
    # B3-folded instance exercises drops in a block other than the first
    fs = fold(group_of("a5"), [FLIPS["a5"]])
    a, b, c = fs.bar_s
    word = fs.greedy_factorize(fs.longest[a] * fs.longest[b] * fs.longest[a])
    i = exchange(fs, word, a)
    assert i in (1, 3)


def test_folded_exchange_errors(a3_fold):
    fs = a3_fold
    with pytest.raises(ValueError, match="not a folded descent"):
        exchange(fs, [O({1, 3})], O({2}))
    with pytest.raises(ValueError, match="not minimal"):
        exchange(fs, [O({2}), O({2})], O({2}))
    with pytest.raises(ValueError, match="not a folded generator"):
        exchange(fs, [O({1, 2})], O({2}))


# -- randomized properties ------------------------------------------------------

FOLD_CASES = st.sampled_from([
    ("a3", "a3"), ("a4", "a4"), ("a5", "a5"),
    ("d4", "d4_triality"), ("d4", "d4_swap"), ("triangle", "triangle"),
])

_fold_cache = {}


def folded_case(group_of, case):
    if case not in _fold_cache:
        name, auto = case
        _fold_cache[case] = fold(group_of(name), [FLIPS[auto]])
    return _fold_cache[case]


@settings(max_examples=60, deadline=None)
@given(FOLD_CASES, st.data())
def test_products_of_generators_factorize_consistently(group_of, case, data):
    fs = folded_case(group_of, case)
    word = data.draw(st.lists(st.sampled_from(fs.bar_s), max_size=6))
    w = fs.product_of(word)
    assert fs.is_fixed(w)
    seq = fs.greedy_factorize(w)
    # the factorization is a word for the same element, never longer, of
    # the same parity, and its weights sum exactly to the length
    assert fs.product_of(seq) == w
    assert len(seq) <= len(word)
    assert (len(word) - len(seq)) % 2 == 0
    assert sum(fs.weight[J] for J in seq) == w.length
    seq2, length2 = fs.factorize_product(word)
    assert seq2 == seq and length2 == w.length


@settings(max_examples=40, deadline=None)
@given(FOLD_CASES, st.data())
def test_additivity_biconditional_on_random_products(group_of, case, data):
    fs = folded_case(group_of, case)
    left = data.draw(st.lists(st.sampled_from(fs.bar_s), max_size=4))
    right = data.draw(st.lists(st.sampled_from(fs.bar_s), max_size=4))
    w, wp = fs.product_of(left), fs.product_of(right)
    l_add, lam_add = fs.weight_additivity(w, wp)
    assert l_add == lam_add


def test_diagram_order_path_orientation(group_of):
    # B3-shaped foldings read the path with the label-3 edge first
    fs = fold(group_of("a5"), [FLIPS["a5"]])
    ordered = fs.ordered_bar_s()
    fm = fs.folded_matrix
    idx = [generator_index(fs, J) for J in ordered]
    assert fm.m(idx[0], idx[1]) == 3 and fm.m(idx[1], idx[2]) == 4
