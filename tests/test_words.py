import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxfold.coxeter import CoxeterMatrix, FiniteTypeLabel
from coxfold import words
from coxfold.verify import enumerate_ball
from coxfold.words import (
    CoxeterGroup,
    EngineInvariantError,
    RootSystemError,
    parse_word,
    root_sign,
    word_str,
)

import oracles
from conftest import MATRICES, matrix_engine_group


# -- the geometric action -----------------------------------------------------


def test_reflection_fixes_defining_relations(group_of):
    W = group_of("a2")
    alpha1, alpha2 = W.simple_root(1), W.simple_root(2)
    assert W.reflect(1, alpha1) == tuple(-c for c in alpha1)
    # label 3 gives coefficient 1: s1(alpha2) = alpha2 + alpha1
    img = W.reflect(1, alpha2)
    assert img == tuple(a + b for a, b in zip(alpha1, alpha2))


def test_reflection_label_4_coefficient(group_of):
    W = group_of("b2")
    img = W.reflect(1, W.simple_root(2))
    coeff = img[0]
    assert coeff * coeff == 2  # sqrt(2)


def test_reflection_involutive(group_of):
    W = group_of("b3")
    rng = random.Random(3)
    for _ in range(20):
        v = tuple(
            W.ctx.one * rng.randint(-3, 3) for _ in range(W.rank)
        )
        s = rng.randint(1, W.rank)
        assert W.reflect(s, W.reflect(s, v)) == v


def test_root_images_have_uniform_sign():
    # every image of a simple root under an element is positive or negative
    W = matrix_engine_group(MATRICES["b3"])
    for w in oracles.ball_elements(enumerate_ball(W)):
        for col in (~w).inv_cols:
            sign = root_sign(col)
            assert all(c.sign() in (0, sign) for c in col)


# -- reduce and normal forms ----------------------------------------------------


def test_reduce_examples(group_of):
    A2 = group_of("a2")
    assert A2.reduce([1, 1]).is_identity()
    assert A2.reduce([1, 2, 1, 2]).word == (2, 1)
    A3 = group_of("a3")
    w = A3.reduce([2, 1, 3, 2])
    assert w.word == (2, 1, 3, 2) and w.length == 4


def test_reduce_rejects_bad_letters(group_of):
    with pytest.raises(ValueError):
        group_of("a2").reduce([1, 3])


def test_normal_form_is_shortlex_least(group_of):
    # enumerate all reduced words of every element of A3 by peeling descents
    W = group_of("a3")

    def reduced_words(w):
        if w.is_identity():
            return [()]
        out = []
        for s in W.left_descents(w):
            shorter = W.multiply(W.simple(s), w)
            out.extend((s,) + rest for rest in reduced_words(shorter))
        return out

    for w in oracles.ball_elements(enumerate_ball(W)):
        words = reduced_words(w)
        assert w.word == min(words)
        assert all(len(u) == w.length for u in words)


def test_element_equality_and_hash(group_of):
    W = group_of("a2")
    assert W.reduce([1, 2, 1]) == W.reduce([2, 1, 2])
    assert hash(W.reduce([1, 2, 1])) == hash(W.reduce([2, 1, 2]))
    assert W.reduce([1]) != W.reduce([2])


# -- oracle agreement on A3 (symmetric group on 4 points) ------------------------


def test_lengths_and_descents_match_permutation_oracle(group_of):
    W = group_of("a3")
    n = 4
    for w in oracles.ball_elements(enumerate_ball(W)):
        perm = oracles.word_to_perm(n, w.word)
        assert w.length == oracles.perm_inversions(perm)
        assert W.left_descents(w) == oracles.perm_left_descents(perm)
        assert W.right_descents(w) == oracles.perm_right_descents(perm)


def test_multiplication_matches_permutation_oracle(group_of):
    W = group_of("a3")
    elements = oracles.ball_elements(enumerate_ball(W))
    rng = random.Random(5)
    for _ in range(150):
        a, b = rng.choice(elements), rng.choice(elements)
        prod = a * b
        assert oracles.word_to_perm(4, prod.word) == oracles.perm_compose(
            oracles.word_to_perm(4, a.word), oracles.word_to_perm(4, b.word)
        )


def test_specific_products(group_of):
    A2 = group_of("a2")
    s1, s2 = A2.simple(1), A2.simple(2)
    assert (s1 * s2).word == (1, 2)
    assert (s1 * A2.inverse(s1)).is_identity()
    A3 = group_of("a3")
    w13 = A3.reduce([1, 3])
    assert (w13 * A3.simple(2)).word == (1, 3, 2)


def test_inverse_is_canonical(group_of):
    A3 = group_of("a3")
    w = A3.reduce([2, 1, 3])
    inv = A3.inverse(w)
    assert (w * inv).is_identity()
    assert inv.word == (1, 3, 2)  # canonical, not just the reversal (3, 1, 2)
    assert inv.length == w.length


def test_length_is_inversion_count(group_of):
    for name in ("a3", "b3"):
        W = group_of(name)
        for w in oracles.ball_elements(enumerate_ball(W)):
            assert w.length == oracles.inversion_count(w)


def test_lengths_match_cayley_distance(group_of):
    # lengths are distances in the Cayley graph of an independent model
    W = group_of("a3")
    gens = [oracles.adjacent_transposition(4, s) for s in (1, 2, 3)]
    dist = oracles.bfs_lengths(oracles.perm_identity(4), gens,
                               oracles.perm_compose)
    assert len(dist) == 24
    for w in oracles.ball_elements(enumerate_ball(W)):
        assert dist[oracles.word_to_perm(4, w.word)] == w.length

    W = group_of("b3")
    gens = oracles.signed_generators(3)
    dist = oracles.bfs_lengths(oracles.signed_identity(3), gens,
                               oracles.signed_compose)
    assert len(dist) == 48
    for w in oracles.ball_elements(enumerate_ball(W)):
        elt = oracles.signed_identity(3)
        for s in w.word:
            elt = oracles.signed_compose(elt, gens[s - 1])
        assert dist[elt] == w.length


# -- longest elements -------------------------------------------------------------


def test_longest_examples(group_of):
    A2 = group_of("a2")
    assert A2.longest_element([1]).word == (1,)
    assert A2.longest_element([1, 2]).word == (1, 2, 1)
    A3 = group_of("a3")
    w0 = A3.longest_element([1, 2, 3])
    assert w0.length == 6
    assert (w0 * w0).is_identity()
    assert A3.left_descents(w0) == (1, 2, 3)
    assert A3.right_descents(w0) == (1, 2, 3)


def test_longest_rejects_infinite(group_of):
    with pytest.raises(ValueError, match="infinite"):
        group_of("triangle").longest_element([1, 2, 3])
    with pytest.raises(ValueError, match="infinite"):
        group_of("dinf").longest_element([1, 2])


def test_longest_length_equals_positive_root_count(group_of):
    W = group_of("b3")
    for subset in ([1], [1, 2], [2, 3], [1, 2, 3], [1, 3]):
        w = W.longest_element(subset)
        assert w.length == len(W.positive_roots(subset))


def test_table_is_built_on_first_element_operation():
    W = CoxeterGroup(MATRICES["b3"])
    assert "_engine" not in vars(W)
    assert W.reduce([1, 2]).length == 2
    assert vars(W)["_engine"].npos == 9


@pytest.mark.parametrize("delta,message", [(-1, "exceeds"), (1, "stops at 9")])
def test_root_closure_must_meet_the_classified_count(monkeypatch, delta, message):
    true_count = FiniteTypeLabel.positive_root_count
    monkeypatch.setattr(FiniteTypeLabel, "positive_root_count", property(
        lambda self: true_count.fget(self) + delta))
    W = CoxeterGroup(MATRICES["b3"])
    with pytest.raises(RootSystemError, match=message) as err:
        W.identity  # the first element operation builds the table
    assert err.value.witness["subset"] == [1, 2, 3]
    assert err.value.witness["positive_root_count"] == 9 + delta
    assert err.value.witness["matrix"] == str(MATRICES["b3"]).split("\n")


@pytest.mark.parametrize("count,message", [
    (5, "exceeds"), (6, "leaves the elementary roots"), (7, "stops at 6")])
def test_classified_finite_closure_must_be_all_elementary(
        monkeypatch, count, message):
    # affine A2 has 6 elementary roots and BIG steps; once a classification
    # calls it finite, both the root table and positive_roots must refuse it
    monkeypatch.setattr(words, "classify_finite", lambda matrix, subset: [
        SimpleNamespace(positive_root_count=count)])
    W = CoxeterGroup(MATRICES["triangle"])
    witness = {"matrix": str(MATRICES["triangle"]).split("\n"),
               "subset": [1, 2, 3], "positive_root_count": count}
    with pytest.raises(RootSystemError, match=message) as err:
        W.identity  # the first element operation builds the table
    assert err.value.witness == witness
    with pytest.raises(RootSystemError, match=message) as err:
        W.positive_roots([3, 1, 2])
    assert err.value.witness == witness


def test_broken_engine_raises_with_a_witness(monkeypatch):
    # the identities of the engine are checked by explicit raises, which
    # python -O keeps: a broken engine never returns a wrong answer
    W = CoxeterGroup(MATRICES["a3"])
    s1, s2 = W.simple(1), W.simple(2)
    matrix = str(MATRICES["a3"]).split("\n")

    monkeypatch.setattr(W, "_extract_word", lambda inv_cols: (1,))
    with pytest.raises(EngineInvariantError, match="parity") as err:
        W.reduce([1, 2])
    assert err.value.witness == {"matrix": matrix, "word": [1, 2],
                                 "normal_form": [1]}

    monkeypatch.setattr(W, "_extract_word", lambda inv_cols: (1, 2, 3))
    with pytest.raises(EngineInvariantError, match="l\\(a\\) \\+ l\\(b\\)") as err:
        s1 * s2
    assert err.value.witness["product"] == [1, 2, 3]
    monkeypatch.undo()

    monkeypatch.setattr(W._engine, "descent",
                        lambda cols, subset, negative=True: None)
    with pytest.raises(EngineInvariantError, match="not the identity"):
        W.reduce([2])


def test_wrong_longest_length_raises(monkeypatch):
    W = CoxeterGroup(MATRICES["b3"])
    W.identity  # build the root table with the true counts
    true_count = FiniteTypeLabel.positive_root_count
    monkeypatch.setattr(FiniteTypeLabel, "positive_root_count", property(
        lambda self: true_count.fget(self) + 1))
    with pytest.raises(EngineInvariantError, match="positive root count") as err:
        W.longest_element([1, 2])
    assert err.value.witness["positive_root_count"] == 4  # A2 has 3


def test_longest_walk_overrun_raises(monkeypatch):
    # a descent scan that never reports a descent would grow forever; the
    # walk is bounded by the classification's positive root count
    W = CoxeterGroup(MATRICES["a2"])
    monkeypatch.setattr(W._engine, "descent", lambda cols, subset, negative=True:
                        None if negative else subset[0])
    with pytest.raises(EngineInvariantError, match="greedy walk") as err:
        W.longest_element([1, 2])
    assert err.value.witness == {"matrix": str(MATRICES["a2"]).split("\n"),
                                 "subset": [1, 2], "positive_root_count": 3}


# -- coset decomposition ------------------------------------------------------------


def test_coset_examples(group_of):
    A2 = group_of("a2")
    w = A2.reduce([2, 1])
    u, x = A2.coset_decompose(w, [1])
    assert u.is_identity() and x == w
    A3 = group_of("a3")
    w0 = A3.longest_element([1, 2, 3])
    u, x = A3.coset_decompose(w0, [1, 2])
    assert u == A3.longest_element([1, 2])
    assert u.length == 3 and x.length == 3
    inside = A3.reduce([1, 2])
    u, x = A3.coset_decompose(inside, [1, 2])
    assert u == inside and x.is_identity()


def test_coset_lengths_add_everywhere(group_of):
    W = group_of("b3")
    subsets = ([1], [2], [3], [1, 2], [2, 3], [1, 3], [1, 2, 3])
    for w in oracles.ball_elements(enumerate_ball(W)):
        for I in subsets:
            u, x = W.coset_decompose(w, I)
            assert u.length + x.length == w.length
            assert (u * x) == w
            assert not any(W.is_left_descent(s, x) for s in I)


# -- exchange ---------------------------------------------------------------------


def brute_exchange(W, word, s):
    target = W.multiply(W.simple(s), W.reduce(word))
    for i in range(len(word)):
        if W.reduce(word[:i] + word[i + 1:]) == target:
            return i + 1
    return None


def test_exchange_examples(group_of):
    A2 = group_of("a2")
    assert A2.exchange((1,), 1) == 1
    # dropping letter 3 of s1 s2 s1 gives s2(s1 s2 s1) = s1 s2
    assert A2.exchange((1, 2, 1), 2) == 3
    assert brute_exchange(A2, (1, 2, 1), 2) == 3
    A3 = group_of("a3")
    assert A3.exchange((2, 1, 3, 2), 2) == 1


@pytest.mark.parametrize("matrix", [
    MATRICES["triangle"],
    CoxeterMatrix.from_labels(3, {(1, 2): 4, (1, 3): 4, (2, 3): 3}),
], ids=["affine-a2", "tri443"])
def test_exchange_matches_brute_force_on_infinite_groups(matrix):
    W = CoxeterGroup(matrix)
    ball = oracles.ball_elements(enumerate_ball(W, 6))
    checked = 0
    for w in ball:
        for s in W.left_descents(w):
            assert W.exchange(w.word, s) == brute_exchange(W, w.word, s)
            checked += 1
    # every element but the identity has a left descent
    assert checked >= len(ball) - 1


def test_exchange_errors(group_of):
    A3 = group_of("a3")
    with pytest.raises(ValueError, match="not a descent"):
        A3.exchange((2, 1), 3)
    with pytest.raises(ValueError, match="not reduced"):
        A3.exchange((1, 1, 2), 1)


@pytest.mark.parametrize("build", [
    lambda: CoxeterGroup(MATRICES["a3"]),
    lambda: matrix_engine_group(MATRICES["a3"]),
    lambda: CoxeterGroup(MATRICES["triangle"]),
], ids=["a3", "a3-matrix", "affine-a2"])
def test_left_descent_rejects_generators_out_of_range(build):
    # unchecked, s = 0 would read generator rank through index -1
    W = build()
    w = W.simple(W.rank)
    for s in (-1, 0, W.rank + 1):
        with pytest.raises(ValueError, match="out of range"):
            W.is_left_descent(s, w)
    assert W.is_left_descent(W.rank, w)
    assert not W.is_left_descent(1, w)


# -- property tests ------------------------------------------------------------------


WORD_CASES = st.sampled_from(["a2", "a3", "b2", "b3", "i25", "triangle", "dinf"])


@settings(max_examples=60, deadline=None)
@given(WORD_CASES, st.data())
def test_reduce_idempotent_and_parity(group_of, name, data):
    W = group_of(name)
    word = data.draw(
        st.lists(st.integers(1, W.rank), max_size=10), label="word"
    )
    w = W.reduce(word)
    assert W.reduce(w.word) == w
    assert w.length <= len(word)
    assert (len(word) - w.length) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(WORD_CASES, st.data())
def test_generator_steps_change_length_by_one(group_of, name, data):
    W = group_of(name)
    word = data.draw(st.lists(st.integers(1, W.rank), max_size=10))
    s = data.draw(st.integers(1, W.rank))
    w = W.reduce(word)
    sw = W.simple(s) * w
    if W.is_left_descent(s, w):
        assert sw.length == w.length - 1
    else:
        assert sw.length == w.length + 1


@settings(max_examples=40, deadline=None)
@given(WORD_CASES, st.data())
def test_inverse_involution(group_of, name, data):
    W = group_of(name)
    word = data.draw(st.lists(st.integers(1, W.rank), max_size=8))
    w = W.reduce(word)
    assert W.inverse(W.inverse(w)) == w
    assert W.inverse(w).length == w.length


# -- word parsing ------------------------------------------------------------------


def test_parse_word():
    assert parse_word("", 3) == ()
    assert parse_word(" 2 1 3 2 ", 3) == (2, 1, 3, 2)
    with pytest.raises(ValueError):
        parse_word("0 1", 3)
    with pytest.raises(ValueError):
        parse_word("x", 3)
    assert word_str(()) == "e"
    assert word_str((2, 1)) == "2 1"
