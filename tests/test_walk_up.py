"""Differential tests for the walk up to a longest element, and for
elementary roots kept as integer coefficient tuples.

longest_element walks up on the engine's action: it right-multiplies
w^-1 by the smallest generator of I that the descent scan reports as not
yet descending, then extracts the canonical word once.  Before, it took
the letters of the same greedy walk on the elementary-root table
(CoxeterGroup._grow, now the finiteness probe alone) and rebuilt the
element from the reversed letters.  On every finite parabolic both must
give the same canonical word and the same inverse action: on the root
table of eight finite groups, on matrix-engine copies of them, and on the
matrix engine of three infinite groups, whose finite parabolics are the
four A3 of affine A3 and dihedral groups up to I2(6).

The elementary-root table keeps its roots as tuples of integer
coefficient tuples, and only positive_roots turns them into CycloReal.
Every diagram automorphism of a catalog input must permute the integer
roots as it permutes the same roots as CycloReal vectors.
"""

import pytest

from coxfold.catalog import CATALOG
from coxfold.coxeter import CoxeterMatrix, classify_finite, parse_input
from coxfold.cyclo import INF, CycloReal
from coxfold.words import CoxeterGroup, _MatrixEngine, _permute_roots, _RootTable

from conftest import MATRICES, diagram_automorphisms, matrix_engine_group

FINITE = {
    "a5": MATRICES["a5"],
    "b3": MATRICES["b3"],
    "d4": MATRICES["d4"],
    "f4": CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}),
    "h3": CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3}),
    "h4": CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3}),
    "e6": CoxeterMatrix.from_labels(
        6, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (2, 4): 3}),
    "e8": CoxeterMatrix.from_labels(8, {(1, 3): 3, (3, 4): 3, (2, 4): 3, (4, 5): 3,
                                        (5, 6): 3, (6, 7): 3, (7, 8): 3}),
}

INFINITE = {
    "affine-a3": CoxeterMatrix.from_labels(
        4, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 3}),
    "tri443": CoxeterMatrix.from_labels(3, {(1, 2): 4, (1, 3): 4, (2, 3): 3}),
    "hyperbolic": CoxeterMatrix.from_labels(4, {
        (1, 2): 3, (1, 3): 4, (1, 4): 5, (2, 3): 6, (2, 4): INF, (3, 4): 5}),
}

# name: (group factory, engine class)
CASES = {
    **{name: (lambda m=m: CoxeterGroup(m), _RootTable)
       for name, m in FINITE.items()},
    **{f"{name}-matrix": (lambda m=FINITE[name]: matrix_engine_group(m), _MatrixEngine)
       for name in FINITE},
    **{name: (lambda m=m: CoxeterGroup(m), _MatrixEngine)
       for name, m in INFINITE.items()},
}


def greedy_longest(W, subset):
    """w_I as longest_element built it before: the letters of the greedy
    walk on the elementary roots, reversed, and the element of that word."""
    labels = classify_finite(W.matrix, subset)
    letters = W._grow(subset, sum(lab.positive_root_count for lab in labels))
    return W._element_from_word_trusted(letters[::-1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_up_matches_the_greedy_word(name):
    make, kind = CASES[name]
    W = make()
    assert isinstance(W._engine, kind)
    finite = 0
    for mask in range(1 << W.rank):
        subset = [s for s in W.generators() if mask >> (s - 1) & 1]
        if classify_finite(W.matrix, subset) is None:
            continue
        finite += 1
        w, expected = W.longest_element(subset), greedy_longest(W, subset)
        assert w.word == expected.word, subset
        assert w.inv_cols == expected.inv_cols, subset
    assert finite > W.rank


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_integer_roots_permute_as_cyclo_vectors(name):
    entry = next(entry for entry in CATALOG if entry.name == name)
    W = CoxeterGroup(parse_input(entry.input_text).matrix)
    roots = W._elementary.roots
    assert all(c.__class__ is int for r in roots for x in r for c in x)
    vectors = [tuple(CycloReal(W.ctx, x) for x in r) for r in roots]
    autos = diagram_automorphisms(W.matrix)
    assert len(autos) > 1
    for gamma in autos:
        assert (_permute_roots(roots, gamma.images)
                == _permute_roots(vectors, gamma.images))
    if classify_finite(W.matrix, W.generators()) is not None:
        assert W.positive_roots() == set(vectors)
