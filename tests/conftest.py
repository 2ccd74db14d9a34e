import itertools

import pytest

from coxfold.coxeter import CoxeterMatrix
from coxfold.cyclo import INF
from coxfold.folding import Automorphism
from coxfold.words import CoxeterGroup, _MatrixEngine


def a_matrix(n):
    return CoxeterMatrix.from_labels(n, {(i, i + 1): 3 for i in range(1, n)})


MATRICES = {
    "a2": a_matrix(2),
    "a3": a_matrix(3),
    "a4": a_matrix(4),
    "a5": a_matrix(5),
    "b2": CoxeterMatrix.from_labels(2, {(1, 2): 4}),
    "b3": CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 4}),
    "d4": CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 3, (2, 4): 3}),
    "i25": CoxeterMatrix.from_labels(2, {(1, 2): 5}),
    "i26": CoxeterMatrix.from_labels(2, {(1, 2): 6}),
    "a1x3": CoxeterMatrix.from_labels(3, {}),
    "triangle": CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 3, (1, 3): 3}),
    "dinf": CoxeterMatrix.from_labels(2, {(1, 2): INF}),
}

# tokens that int() reads, or that isdigit() takes, but that are not ASCII
# decimal digits; the last is past the interpreter's 4,300-digit limit
BAD_NUMBERS = ("+1", "-1", "1_0", "\u0663", "\uff13", "\u00b2", "1e3", "0x3",
               "9" * 4301)

# each numeric position of an input file, with the problem it reports for a
# malformed token there
NUMBER_POSITIONS = {
    "rank": ("rank {}\n", "rank needs one integer argument"),
    "m index i": ("rank 3\nm {} 2 3\n", "m indices must be integers"),
    "m index j": ("rank 3\nm 1 {} 3\n", "m indices must be integers"),
    "label": ("rank 3\nm 1 2 {}\n", "bad label"),
    "auto source": ("rank 3\nauto f {}>1\n", "bad mapping"),
    "auto target": ("rank 3\nauto f 1>{}\n", "bad mapping"),
}

FLIPS = {
    "a2": Automorphism((2, 1)),
    "a3": Automorphism((3, 2, 1)),
    "a4": Automorphism((4, 3, 2, 1)),
    "a5": Automorphism((5, 4, 3, 2, 1)),
    "d4_triality": Automorphism((3, 2, 4, 1)),
    "d4_swap": Automorphism((1, 2, 4, 3)),
    "triangle": Automorphism((2, 1, 3)),
    "dinf": Automorphism((2, 1)),
}

# E7 on 1..7 beside an I2(inf) on 8, 9, with 8 and 9 swapped: W is infinite,
# so its ball is bounded, but the folded group is E7, with 2903040 elements
E7_BESIDE_I2INF = ("rank 9\nm 1 3 3\nm 3 4 3\nm 2 4 3\nm 4 5 3\nm 5 6 3\n"
                   "m 6 7 3\nm 8 9 inf\nauto swap 8>9 9>8\n")

_groups: dict[str, CoxeterGroup] = {}


def matrix_engine_group(matrix):
    """A group on the exact CycloReal matrix engine, even for finite W,
    where it serves as the reference for the root table."""
    W = CoxeterGroup(matrix)
    W._engine = _MatrixEngine(W)
    return W


def diagram_automorphisms(matrix):
    """Every permutation of the generators that preserves the matrix."""
    gens = matrix.generators()
    return [Automorphism(p) for p in itertools.permutations(gens)
            if all(matrix.m(i, j) == matrix.m(p[i - 1], p[j - 1])
                   for i in gens for j in gens)]


@pytest.fixture(scope="session")
def group_of():
    """Shared CoxeterGroup instances keyed by matrix name."""

    def get(name):
        if name not in _groups:
            _groups[name] = CoxeterGroup(MATRICES[name])
        return _groups[name]

    return get
