"""The shared neighbour-list routines of coxfold.coxeter against the
hand-written diagram walks they replaced (tests/oracles.py): components,
finite-type classification, |W_I|, type strings, the folded display
order and automorphism orbits; and the degree table of each finite type
against the closed formulas for |W| and |Phi+|."""

import itertools
import random
from types import SimpleNamespace

from coxfold.coxeter import (
    CoxeterMatrix,
    FiniteTypeLabel,
    classify_finite,
    components,
    coxeter_order,
    type_string,
)
from coxfold.cyclo import INF
from coxfold.folding import Automorphism, FoldedSystem, orbits

from oracles import (
    ref_classify_finite,
    ref_components,
    ref_coxeter_order,
    ref_diagram_order,
    ref_order,
    ref_orbits,
    ref_positive_root_count,
    ref_type_string,
)

LABELS = (2, 3, 4, 5, 6, INF)


def restrict(matrix, subset):
    return CoxeterMatrix(tuple(tuple(matrix.m(s, t) for t in subset)
                               for s in subset))


def diagram_order(matrix):
    return FoldedSystem.diagram_order(SimpleNamespace(folded_matrix=matrix))


def compare(matrix, subset, families):
    """Assert the new routines and the references agree on one subset;
    record the families classified."""
    where = (matrix.entries, subset)
    assert components(matrix, subset) == ref_components(matrix, subset), where
    labels = classify_finite(matrix, subset)
    expected = ref_classify_finite(matrix, subset)
    got = None if labels is None else tuple(
        (lab.family, lab.parameter) for lab in labels)
    assert got == expected, where
    families.update(f for f, _ in expected or [(None, 0)])
    assert coxeter_order(matrix, subset) == ref_coxeter_order(matrix, subset)
    assert type_string(matrix, subset) == ref_type_string(matrix, subset)
    sub = restrict(matrix, subset)
    assert diagram_order(sub) == ref_diagram_order(sub), where


def test_every_small_matrix_and_subset():
    families = set()
    for rank in (1, 2, 3):
        pairs = list(itertools.combinations(range(1, rank + 1), 2))
        for labels in itertools.product(LABELS, repeat=len(pairs)):
            matrix = CoxeterMatrix.from_labels(rank, dict(zip(pairs, labels)))
            for k in range(rank + 1):
                for subset in itertools.combinations(range(1, rank + 1), k):
                    compare(matrix, subset, families)
    assert families == {"A", "B", "H", "I2", None}


def random_matrix(rng, rank):
    """Mostly tree-shaped diagrams with label 3, so that every finite
    family turns up; relabelled at random so paths start anywhere."""
    labels = {}
    for t in range(2, rank + 1):
        if rng.random() < 0.85:
            labels[(rng.randrange(1, t), t)] = rng.choice(
                (3, 3, 3, 3, 3, 4, 5, 6, INF))
    for pair in itertools.combinations(range(1, rank + 1), 2):
        if pair not in labels and rng.random() < 0.04:
            labels[pair] = rng.choice(LABELS[1:])
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    return CoxeterMatrix.from_labels(rank, {
        (perm[i - 1], perm[j - 1]): v for (i, j), v in labels.items()})


def test_seeded_matrices_of_rank_4_to_8():
    rng = random.Random(20141)
    families = set()
    for _ in range(2000):
        rank = rng.randint(4, 8)
        matrix = random_matrix(rng, rank)
        full = tuple(range(1, rank + 1))
        compare(matrix, full, families)
        for _ in range(3):
            subset = tuple(s for s in full if rng.random() < 0.7)
            compare(matrix, subset, families)
    assert families == {"A", "B", "D", "E", "F", "H", "I2", None}


def test_orbits_of_seeded_permutation_sets():
    rng = random.Random(1)
    for _ in range(3000):
        rank = rng.randint(1, 8)
        perms = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, rank + 1))
            # a few transpositions, so that orbits stay small and varied
            for _ in range(rng.randint(0, 2)):
                a, b = rng.randrange(rank), rng.randrange(rank)
                images[a], images[b] = images[b], images[a]
            perms.append(tuple(images))
        matrix = CoxeterMatrix.from_labels(rank, {})
        autos = [Automorphism(p) for p in perms]
        assert orbits(matrix, autos) == ref_orbits(rank, perms), perms


FINITE_TYPES = (
    [("A", n) for n in range(1, 17)] + [("B", n) for n in range(2, 17)]
    + [("D", n) for n in range(4, 17)] + [("E", 6), ("E", 7), ("E", 8)]
    + [("F", 4), ("H", 3), ("H", 4)] + [("I2", m) for m in range(5, 200)])


def test_degrees_give_order_and_root_count():
    for family, n in FINITE_TYPES:
        label = FiniteTypeLabel(family, n)
        assert len(label.degrees) == (2 if family == "I2" else n), label
        assert label.order == ref_order(family, n), label
        assert (label.positive_root_count
                == ref_positive_root_count(family, n)), label
