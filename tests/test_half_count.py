"""The fixed points of a finite W over chains of coset walks.

For Gamma-stable J in K, each w in W_K is uniquely u x with u in W_J and
x a minimal representative of W_J x, and gamma fixes w exactly when it
fixes u and x.  verify.coset_walks walks each step of a chain of
Gamma-stable parabolics once, on the key walk; the catalog's
finite_fixed_count multiplies the fixed representatives' counts, and
verify.fixed_elements, the suite's fixed set, multiplies them out.  Both
must find what the full walk finds, for every diagram automorphism of
groups with odd and even l(w0), reducible ones, rank 0 and 1, and a
group over 256 roots, and what the automaton walk finds on the matrix
engine.  Each walk must find the index the classification gives, so a
broken walk makes the catalog row mismatch and the suite raise with a
witness.  (The name is from the count's first form, which walked half of
W and paired it by w -> w0 w.)
"""

import itertools

import pytest

from coxfold import verify
from coxfold.catalog import CATALOG, finite_fixed_count, run_entry
from coxfold.coxeter import (
    CoxeterMatrix, classify_finite, coxeter_order, parse_input)
from coxfold.folding import Automorphism
from coxfold.verify import (
    NODE_CAP,
    NodeCapExceeded,
    _image_ball,
    enumerate_ball,
    fixed_elements,
    fixed_nodes,
    fixed_subgroup,
    property_suite,
)
from coxfold.words import CoxeterGroup, EngineInvariantError

from conftest import diagram_automorphisms, entry_by_name, matrix_engine_group
from test_golden import INPUTS as GOLDEN_INPUTS, SAMPLED_INPUTS


def path(rank, heavy=3):
    """A path diagram; the last edge carries label `heavy`."""
    labels = {(i, i + 1): 3 for i in range(1, rank)}
    if rank > 1:
        labels[(rank - 1, rank)] = heavy
    return CoxeterMatrix.from_labels(rank, labels)


def product(*blocks):
    """The reducible matrix of the given blocks, generators in block order."""
    labels, offset = {}, 0
    for block in blocks:
        for i, j in itertools.combinations(block.generators(), 2):
            labels[(i + offset, j + offset)] = block.m(i, j)
        offset += block.rank
    return CoxeterMatrix.from_labels(offset, labels)


def i2(m):
    return CoxeterMatrix.from_labels(2, {(1, 2): m})


A1 = path(1)
E6 = CoxeterMatrix.from_labels(6, {(1, 3): 3, (3, 4): 3, (4, 5): 3,
                                   (5, 6): 3, (2, 4): 3})

GROUPS = {
    # name: (matrix, l(w0), number of diagram automorphisms)
    "rank0": (CoxeterMatrix(()), 0, 1),
    "a1": (A1, 1, 1),
    "a2": (path(2), 3, 2),
    "a3": (path(3), 6, 2),
    "a4": (path(4), 10, 2),
    "a5": (path(5), 15, 2),
    "b3": (path(3, 4), 9, 1),
    "d4": (CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 3, (2, 4): 3}),
           12, 6),
    "d5": (CoxeterMatrix.from_labels(5, {(1, 2): 3, (2, 3): 3, (3, 4): 3,
                                         (3, 5): 3}), 20, 2),
    "e6": (E6, 36, 2),
    "i2-7": (i2(7), 7, 2),
    "i2-8": (i2(8), 8, 2),
    "a1^3": (product(A1, A1, A1), 3, 6),
    "a2xa2": (product(path(2), path(2)), 6, 8),
    "a3xa1": (product(path(3), A1), 7, 2),
    "i2-5xi2-5": (product(i2(5), i2(5)), 10, 8),
    "i2-120xi2-10": (product(i2(120), i2(10)), 130, 4),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_half_count_matches_full_walk(name):
    matrix, n, n_autos = GROUPS[name]
    W = CoxeterGroup(matrix)
    labels = classify_finite(matrix, matrix.generators())
    assert sum(lab.positive_root_count for lab in labels) == n
    autos = diagram_automorphisms(matrix)
    assert len(autos) == n_autos
    full = enumerate_ball(W)
    assert len(full) == coxeter_order(matrix, matrix.generators())
    for gammas in [[gamma] for gamma in autos] + [autos]:
        assert finite_fixed_count(W, gammas) == len(fixed_nodes(full, gammas))
        assert_chain_lists_full_walk(W, gammas, full)


def assert_chain_lists_full_walk(W, autos, full):
    """The suite's fixed set from the chain is the full walk's: the same
    elements with the same words and inverse actions, in the same order."""
    chain = fixed_elements(W, autos)
    walked = fixed_subgroup(full, autos)
    assert [w.word for w in chain] == [w.word for w in walked]
    assert [w.inv_cols for w in chain] == [w.inv_cols for w in walked]


def finite(text):
    matrix = parse_input(text).matrix
    return classify_finite(matrix, matrix.generators()) is not None


FINITE_INPUTS = {name: text for name, text in {
    **GOLDEN_INPUTS, **SAMPLED_INPUTS,
    **{e.name: e.input_text for e in CATALOG}}.items() if finite(text)}


@pytest.mark.parametrize("name", sorted(FINITE_INPUTS))
def test_chain_lists_full_walk_on_golden_and_catalog_inputs(name):
    parsed = parse_input(FINITE_INPUTS[name])
    W = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    assert_chain_lists_full_walk(W, autos, enumerate_ball(W))


A8_FLIP = ("rank 8\n" + "".join(f"m {i} {i + 1} 3\n" for i in range(1, 8))
           + "auto flip 1>8 8>1 2>7 7>2 3>6 6>3 4>5 5>4\n")


def test_chain_lists_full_walk_on_a8_flip(monkeypatch):
    # |W| = 9! is over the node cap, which the full walk needs raised;
    # W^Gamma = B4 has 384 elements
    monkeypatch.setattr(verify, "NODE_CAP", 400_000)
    parsed = parse_input(A8_FLIP)
    W = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    full = enumerate_ball(W)
    assert len(full) == 362_880 and len(fixed_nodes(full, autos)) == 384
    assert_chain_lists_full_walk(W, autos, full)


def test_trivial_gamma_keeps_the_ball_and_tests_nothing(monkeypatch):
    # the chain would extract the word of every element of W, which the
    # ball spells for free, so the suite walks the ball, and fixed_nodes
    # keeps every node without calling the root table's test
    parsed = parse_input(GOLDEN_INPUTS["h3-id"])
    W = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    ball = enumerate_ball(W)

    def untouched(*args):
        raise AssertionError("called")

    with monkeypatch.context() as patch:
        patch.setattr(W._engine, "fixes", untouched)
        assert fixed_nodes(ball, autos) == list(range(120))
    monkeypatch.setattr(verify, "fixed_elements", untouched)
    assert property_suite(W, autos).passed


def test_chain_products_are_capped(monkeypatch):
    # the running product list stops at the node cap, so a wrong folded
    # order cannot make the suite list an unbounded fixed set
    parsed = parse_input(entry_by_name("a5-flip").input_text)
    W = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    assert len(fixed_elements(W, autos)) == 48
    monkeypatch.setattr(verify, "NODE_CAP", 47)
    with pytest.raises(NodeCapExceeded,
                       match="^fixed set exceeded the node cap 47$"):
        fixed_elements(W, autos)


def test_automaton_walk_is_covered():
    # the matrix engine walks a finite W on the automaton, whose full
    # walk must find the count and the chain's words
    for name in ("a3", "b3", "d4"):
        matrix, _, n_autos = GROUPS[name]
        W, M = CoxeterGroup(matrix), matrix_engine_group(matrix)
        full = enumerate_ball(M)
        assert isinstance(full.keys[0], int) and full.complete
        autos = diagram_automorphisms(matrix)
        assert len(autos) == n_autos
        for gammas in [[gamma] for gamma in autos] + [autos]:
            assert len(fixed_nodes(full, gammas)) == finite_fixed_count(
                W, gammas)
            assert ([w.word for w in fixed_subgroup(full, gammas)]
                    == [w.word for w in fixed_elements(W, gammas)])


# -- Ball.complete on a radius-bounded finite ball ------------------------------


@pytest.mark.parametrize("matrix,radius,size,complete", [
    (product(A1, A1, A1), 2, 7, False),
    (product(A1, A1, A1), 3, 8, True),
    (E6, 18, 27751, False),
    (E6, 36, 51840, True),
], ids=["a1^3-r2", "a1^3-r3", "e6-r18", "e6-r36"])
def test_ball_holding_all_of_w_is_complete(matrix, radius, size, complete):
    # the walk stops at the radius, where the longest element lies, without
    # reaching the empty level after it
    ball = enumerate_ball(CoxeterGroup(matrix), radius)
    assert len(ball) == size and ball.complete == complete


# -- the coset walks ------------------------------------------------------------


def traced_walks(monkeypatch, before=None, after=None):
    """Record each coset walk's (nodes, index); `before` may alter the
    group before the walk, and `after` the ball after it."""
    walks = []

    def traced(group, radius, K=None, J=(), cap=float("inf")):
        if before:
            before(group)
        reps = _image_ball(group, radius, K, J, cap)
        if after:
            after(reps)
        walks.append((len(reps), cap))
        return reps

    monkeypatch.setattr(verify, "_image_ball", traced)
    return walks


def test_e6_row_walk_sizes(monkeypatch):
    # the flip's orbits are {1,6}, {3,5}, {2} and {4}, and the chain is
    # {} < {3,5} < {1,3,5,6} < {1,3,4,5,6} < S: A1^2, A2^2, A5 and E6
    walks = traced_walks(monkeypatch)
    row = run_entry(entry_by_name("e6-flip"))
    assert row.match and row.computed_order == 1152
    assert walks == [(4, 4), (9, 9), (20, 20), (72, 72)]


def drop_last_node(reps):
    reps.keys.pop()


def corrupt_translate_table(group):
    # s_1 moves no root, so the walks through W_{1,3,5,6} fall short
    # E6 has 72 roots, so its translate tables are 256 bytes long
    group._engine.tables[1] = group._engine.identity.ljust(256, b"\0")


@pytest.mark.parametrize("hooks", [
    {"after": drop_last_node},
    {"before": corrupt_translate_table},
], ids=["drop-node", "corrupt-table"])
def test_broken_walk_makes_the_row_mismatch(monkeypatch, hooks):
    walks = traced_walks(monkeypatch, **hooks)
    row = run_entry(entry_by_name("e6-flip"))
    assert walks and walks[-1][0] != walks[-1][1]
    assert row.computed_order == -1 and not row.match


def test_broken_walk_raises_in_the_suite_with_a_witness(monkeypatch):
    # the chain's first step, {} < {3,5}, walks 4 nodes and keeps 3
    traced_walks(monkeypatch, after=drop_last_node)
    parsed = parse_input(entry_by_name("e6-flip").input_text)
    W = CoxeterGroup(parsed.matrix)
    with pytest.raises(EngineInvariantError,
                       match="^coset walk disagrees with the classification"
                       ) as err:
        property_suite(W, [Automorphism(images) for _, images in parsed.autos])
    assert err.value.witness == {"matrix": str(W.matrix).split("\n"),
                                 "J": [], "K": [3, 5], "index": 4, "found": 3}


def e_matrix(rank):
    """E_rank: the path 1 - 3 - 4 - ... - rank, and 2 joined to 4."""
    labels = {(1, 3): 3, (2, 4): 3}
    labels.update({(i, i + 1): 3 for i in range(3, rank)})
    return CoxeterMatrix.from_labels(rank, labels)


@pytest.mark.parametrize("rank,order", [(7, 2_903_040), (8, 696_729_600)])
def test_identity_counts_groups_over_the_node_cap(monkeypatch, rank, order):
    walks = traced_walks(monkeypatch)
    matrix = e_matrix(rank)
    assert coxeter_order(matrix, matrix.generators()) == order > NODE_CAP
    identity = Automorphism(tuple(matrix.generators()))
    assert finite_fixed_count(CoxeterGroup(matrix), [identity]) == order
    assert len(walks) == rank and all(n == index for n, index in walks)


def test_walk_stops_one_node_past_its_index():
    # W_{1,3} of E6 is A2, of order 6; the cosets of W_{1} are e, 3 and 3 1
    W = CoxeterGroup(E6)
    assert len(_image_ball(W, None, {1, 3}, set(), 3)) == 4
    assert len(_image_ball(W, None, {1, 3}, {1}, 3)) == 3
