"""Differential tests: the root-index table against the exact matrix engine.

A finite W runs on the root-index table.  The matrix engine, which infinite
groups use, is built directly here on the same finite matrices, and every
answer the two can give is compared on random words: normal forms,
lengths, descents, products, inverses and fixedness.

Right descents are read off the word by one walk on the elementary roots.
They are compared with the sign test on the action of w, built letter by
letter with the engine's rmul (oracles.reference_right_descents), on
finite and infinite groups, and on E8 on both engines.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxfold.coxeter import CoxeterMatrix, coxeter_order
from coxfold.cyclo import INF
from coxfold.folding import Automorphism, is_fixed, orbits
from coxfold.verify import enumerate_ball
from coxfold.words import (
    _MAX_STRIP_STEPS,
    CoxeterGroup,
    EngineInvariantError,
    _MatrixEngine,
    _RootTable,
)

from conftest import FLIPS, MATRICES, matrix_engine_group
from oracles import (
    ball_elements,
    identity_of,
    inversion_count,
    reference_right_descents,
)

F4 = CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3})

# matrix and its diagram automorphisms besides the identity
CASES = {
    "a5": (MATRICES["a5"], [FLIPS["a5"]]),
    "b3": (MATRICES["b3"], []),
    "d4": (MATRICES["d4"], [FLIPS["d4_triality"], FLIPS["d4_swap"]]),
    "f4": (F4, [Automorphism((4, 3, 2, 1))]),
    "h3": (CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3}), []),
    "h4": (CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3}), []),
}

_pairs: dict[str, tuple[CoxeterGroup, CoxeterGroup]] = {}


def engines(name):
    """(group on the root table, group on the matrix engine) for a case."""
    if name not in _pairs:
        matrix = CASES[name][0]
        table = CoxeterGroup(matrix)
        exact = matrix_engine_group(matrix)
        assert isinstance(table._engine, _RootTable)
        _pairs[name] = (table, exact)
    return _pairs[name]


def autos_of(name):
    rank = CASES[name][0].rank
    return [identity_of(rank)] + CASES[name][1]


def words(rank, max_size=12):
    return st.lists(st.integers(1, rank), max_size=max_size)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_table_agrees_with_matrix_engine(name, data):
    T, M = engines(name)
    word = data.draw(words(T.rank), label="word")
    other = data.draw(words(T.rank), label="other")
    wt, wm = T.reduce(word), M.reduce(word)
    assert wt.word == wm.word
    assert wt.length == wm.length
    assert wt.length == inversion_count(wt) == inversion_count(wm)
    assert T.left_descents(wt) == M.left_descents(wm)
    assert T.right_descents(wt) == M.right_descents(wm)
    ut, um = T.reduce(other), M.reduce(other)
    assert T.multiply(wt, ut).word == M.multiply(wm, um).word
    assert T.multiply(ut, wt).word == M.multiply(um, wm).word
    assert T.inverse(wt).word == M.inverse(wm).word
    for gamma in autos_of(name):
        assert is_fixed(wt, [gamma]) == is_fixed(wm, [gamma])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_engines_agree_on_fixed_products(name, data):
    # products of orbit longest elements are fixed; both engines must say so
    T, M = engines(name)
    for gamma in autos_of(name):
        parts = orbits(T.matrix, [gamma])
        picks = data.draw(st.lists(st.integers(0, len(parts) - 1), max_size=5))
        wt, wm = T.identity, M.identity
        for k in picks:
            wt = wt * T.longest_element(parts[k])
            wm = wm * M.longest_element(parts[k])
        assert wt.word == wm.word
        assert is_fixed(wt, [gamma]) and is_fixed(wm, [gamma])


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_ball_is_the_whole_group(name):
    T, _ = engines(name)
    ball = enumerate_ball(T)
    assert ball.complete
    assert len(ball) == coxeter_order(T.matrix, T.generators())
    assert all(w.length == inversion_count(w) for w in ball_elements(ball))


@pytest.mark.parametrize("name", ["a5", "b3", "d4", "h3"])
def test_balls_agree_between_engines(name):
    T, M = engines(name)
    assert ([w.word for w in ball_elements(enumerate_ball(T))]
            == [w.word for w in ball_elements(enumerate_ball(M))])


@pytest.mark.parametrize("name", sorted(CASES))
def test_strip_on_root_table_is_bounded_by_positive_roots(name, monkeypatch):
    # w0 takes all |Phi+| peels and one more round that finds no descent
    T, _ = engines(name)
    table = T._engine
    gens = T.generators()
    w0 = T.longest_element(gens)
    letters, rest = T._strip(w0.inv_cols, gens)
    assert len(letters) == table.npos and rest == table.identity
    assert table.strip_rounds == table.npos + 1
    # an engine that always finds a descent is stopped at that bound
    rounds = []

    def negative(cols, s):
        rounds.append(s)
        return True

    monkeypatch.setattr(table, "negative", negative)
    with pytest.raises(EngineInvariantError) as raised:
        T._strip(table.identity, gens)
    assert len(rounds) == table.npos + 1
    assert raised.value.witness["steps"] == table.npos + 1


E8 = CoxeterMatrix.from_labels(8, {(1, 3): 3, (3, 4): 3, (2, 4): 3, (4, 5): 3,
                                     (5, 6): 3, (6, 7): 3, (7, 8): 3})

# name: (matrix, whether the group is forced onto the matrix engine)
DESCENT_CASES = {
    "a5": (MATRICES["a5"], False),
    "f4": (F4, False),
    "h4": (CASES["h4"][0], False),
    "a1": (CoxeterMatrix.from_labels(1, {}), False),
    "e8": (E8, False),
    "e8-matrix": (E8, True),
    "affine-a2": (MATRICES["triangle"], False),
    "tri237": (CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 7}), False),
    "i2inf": (MATRICES["dinf"], False),
    "tri443": (CoxeterMatrix.from_labels(3, {(1, 2): 4, (1, 3): 4,
                                             (2, 3): 3}), False),
    "hyperbolic": (CoxeterMatrix.from_labels(4, {
        (1, 2): 3, (1, 3): 4, (1, 4): 5, (2, 3): 6, (2, 4): INF,
        (3, 4): 5}), False),
}


@pytest.mark.parametrize("name", sorted(DESCENT_CASES))
def test_right_descents_agree_with_the_forward_action(name):
    matrix, exact = DESCENT_CASES[name]
    W = matrix_engine_group(matrix) if exact else CoxeterGroup(matrix)
    rng = random.Random(name)
    for _ in range(60):
        word = [rng.randint(1, W.rank) for _ in range(rng.randint(0, 24))]
        w = W.reduce(word)
        assert W.right_descents(w) == reference_right_descents(w), word


def test_strip_on_matrix_engine_keeps_the_fixed_bound():
    _, M = engines("b3")
    assert isinstance(M._engine, _MatrixEngine)
    assert M._engine.strip_rounds == _MAX_STRIP_STEPS
