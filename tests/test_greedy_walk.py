"""Differential test for the greedy walk up by non-descents.

`CoxeterGroup._grow` walks on the elementary-root table: it carries the
set of elementary roots that w^-1 sends negative as a bit mask.  The
reference below is the walk on the engine itself: left descents from
`negative`, and w^-1 right-multiplied with `rmul`.  Both must take the
same letters on every subset, and give up (None) at the same step bound;
finite groups run on the root table, infinite ones on exact matrices.

The probe stops at its first repeated mask, since the walk's next letter
and mask depend on the mask alone: on every subset of the seeded random
matrices and of the infinite groups it must answer as the walk without
that stop does.

The elementary-root table is the one closure of roots.  It runs on one
int per coordinate when every label of the subset is 2, 3 or inf, and on
the integer coefficients of the coordinates otherwise; either way it
keeps its roots as tuples of coefficient tuples, and looks each image up
before it tests a sign.  The reference closure below runs on CycloReal
coordinates under the matrix engine's `reflect` and tests a sign on every
root and generator that do not commute; both must give the same roots
(the coefficient tuples of the reference's coordinates), in the same
order, with the same table, on named groups (among them H4, the six
benchmark verify instances, E6 to E8, affine A4 and D4, and a Y with an
inf arm), on seeded random matrices, and on every subset of E6, H4 and a
hyperbolic group.  For a finite W the root table is read off that table, since
every positive root is elementary; its permutations must be those of the
reflections on the reference roots and their negatives.

The probe's step bound is below l(w_0) = 600 of five commuting I2(120)
blocks, so it calls that finite parabolic infinite: a known false failure
of the suite's finiteness check, pinned as a strict xfail.
"""

import random

import pytest

from coxfold import cyclo
from coxfold.coxeter import CoxeterMatrix, classify_finite
from coxfold.cyclo import INF, CycloReal, degree_problem, label_lcm
from coxfold.verify import GREEDY_CAP, _greedy_probe
from coxfold.words import BIG, NEG, CoxeterGroup

from conftest import MATRICES
from oracles import decode

GROUPS = {
    "a5": MATRICES["a5"],
    "b3": MATRICES["b3"],
    "d4": MATRICES["d4"],
    "f4": CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}),
    "h3": CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3}),
    "h4": CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3}),
    "affine-a2": MATRICES["triangle"],
    "affine-a3": CoxeterMatrix.from_labels(
        4, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 3}),
    "tri443": CoxeterMatrix.from_labels(3, {(1, 2): 4, (1, 3): 4, (2, 3): 3}),
    "tri237": CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 7}),
    "affine-g2": CoxeterMatrix.from_labels(3, {(1, 2): 6, (2, 3): 3}),
    "i2inf": CoxeterMatrix.from_labels(2, {(1, 2): INF}),
}


def reference_grow(W, subset, steps):
    """The letters of the greedy walk on the engine's actions."""
    engine = W._engine
    inv_cols = engine.identity
    letters = []
    for _ in range(steps + 1):
        up = [s for s in subset if not engine.negative(inv_cols, s)]
        if not up:
            return tuple(letters)
        letters.append(up[0])
        inv_cols = engine.rmul(inv_cols, up[0])
    return None


def unstopped_grow(W, subset, steps):
    """CoxeterGroup._grow without its stop at a repeated mask."""
    image = W._elementary._image
    mask, letters = 0, []
    for _ in range(steps + 1):
        up = [s for s in subset if not mask >> (s - 1) & 1]
        if not up:
            return tuple(letters)
        letters.append(up[0])
        mask = 1 << (up[0] - 1) | image(mask, up[0])
    return None


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_grow_matches_engine_walk(name):
    W = CoxeterGroup(GROUPS[name])
    infinite_seen = False
    for mask in range(1 << W.rank):
        subset = [s for s in W.generators() if (mask >> (s - 1)) & 1]
        expected = reference_grow(W, subset, GREEDY_CAP - 1)
        assert W._grow(subset, GREEDY_CAP - 1) == expected, subset
        assert _greedy_probe(W, subset) == (expected is not None)
        finite = classify_finite(W.matrix, subset) is not None
        assert finite == (expected is not None)
        infinite_seen |= not finite
        if expected:
            # the bound is exact: one step short gives up
            steps = len(expected)
            assert W._grow(subset, steps) == expected
            assert W._grow(subset, steps - 1) is None
    assert infinite_seen == (classify_finite(W.matrix, W.generators()) is None)


def random_matrices(count, seed=0):
    """Seeded matrices of rank 2 to 5 over the labels 2, 3, 4, 5, 6, 7, 8,
    12 and inf, those whose field fits the degree cap."""
    rng = random.Random(seed)
    labels = (2, 3, 4, 5, 6, 7, 8, 12, INF)
    out = {}
    while len(out) < count:
        rank = rng.randint(2, 5)
        matrix = CoxeterMatrix.from_labels(rank, {
            (i, j): rng.choice(labels)
            for i in range(1, rank + 1) for j in range(i + 1, rank + 1)})
        if degree_problem(label_lcm(matrix)) is None:
            out[f"random-{len(out)}"] = matrix
    return out


CLOSURE_GROUPS = {
    **GROUPS,
    "e6": CoxeterMatrix.from_labels(
        6, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (2, 4): 3}),
    "tri555": CoxeterMatrix.from_labels(3, {(1, 2): 5, (1, 3): 5, (2, 3): 5}),
    "534": CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 4}),
    "hyperbolic4": CoxeterMatrix.from_labels(4, {
        (1, 2): 3, (1, 3): 4, (1, 4): 5, (2, 3): 6, (2, 4): INF, (3, 4): 5}),
    "e7": CoxeterMatrix.from_labels(7, {
        (1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3, (2, 4): 3}),
    "e8": CoxeterMatrix.from_labels(8, {
        (1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3, (7, 8): 3,
        (2, 4): 3}),
    "affine-a4": CoxeterMatrix.from_labels(
        5, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (1, 5): 3}),
    "affine-d4": CoxeterMatrix.from_labels(
        5, {(1, 3): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}),
    # the Y with an inf arm: 7 elementary roots and 5 BIG steps
    "y-inf": CoxeterMatrix.from_labels(4, {(1, 2): INF, (2, 3): 3, (2, 4): 3}),
    **random_matrices(40),
}


PROBE_GROUPS = sorted(name for name, matrix in CLOSURE_GROUPS.items()
                      if name.startswith("random-")
                      or classify_finite(matrix, matrix.generators()) is None)


@pytest.mark.parametrize("name", PROBE_GROUPS)
def test_probe_stopped_at_a_repeated_mask_keeps_its_answer(name):
    W = CoxeterGroup(CLOSURE_GROUPS[name])
    for mask in range(1 << W.rank):
        subset = [s for s in W.generators() if (mask >> (s - 1)) & 1]
        assert (W._grow(subset, GREEDY_CAP - 1)
                == unstopped_grow(W, subset, GREEDY_CAP - 1)), subset


def test_infinite_dihedral_probe_stops_after_three_steps(monkeypatch):
    # alpha_1, alpha_2 are the only elementary roots of I2(inf), and the
    # masks go 0, {1}, {2}, {1}: the third multiplication repeats one
    W = CoxeterGroup(GROUPS["i2inf"])
    table = W._elementary
    image, calls = table._image, []
    monkeypatch.setattr(table, "_image",
                        lambda mask, s: calls.append(s) or image(mask, s))
    assert W._grow([1, 2], GREEDY_CAP - 1) is None
    assert calls == [1, 2, 1]
    assert not _greedy_probe(W, [1, 2])
    assert len(calls) == 6


def reference_closure(W, subset=None):
    """The elementary roots of W_I and their step table, with a sign test
    on every root beta and generator s with B(beta, alpha_s) != 0; I is
    all of S by default."""
    gens = W.generators() if subset is None else subset
    roots = [W.simple_root(s) for s in gens]
    index = {r: i for i, r in enumerate(roots)}
    step = []
    for i, beta in enumerate(roots):  # grows while it is read
        row = [None] * (W.rank + 1)
        for k, s in enumerate(gens):
            if i == k:
                row[s] = NEG
                continue
            img = W.reflect(s, beta)
            two_b = beta[s - 1] - img[s - 1]
            if two_b.is_zero():
                row[s] = i
            elif (two_b + 2).sign() <= 0:
                row[s] = BIG
            else:
                j = index.get(img)
                if j is None:
                    j = index[img] = len(roots)
                    roots.append(img)
                row[s] = j
        step.append(tuple(row))
    return roots, step


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_elementary_table_matches_reference_closure(name):
    W = CoxeterGroup(CLOSURE_GROUPS[name])
    roots, step = reference_closure(W)
    table = W._elementary
    assert table.roots == [tuple(c.coeffs for c in r) for r in roots]
    assert table.step == step
    if classify_finite(W.matrix, W.generators()) is None:
        assert any(BIG in row for row in step)
        return
    assert not any(BIG in row for row in step)
    assert W.positive_roots() == set(roots)
    phi = roots + [tuple(-c for c in r) for r in roots]
    index = {r: i for i, r in enumerate(phi)}
    # each translate table starts with s as an action on Phi
    assert [decode(t[:len(phi)]) for t in W._engine.tables[1:]] == [
        tuple(index[W.reflect(s, r)] for r in phi) for s in W.generators()]


@pytest.mark.parametrize("name", ["e6", "h4", "hyperbolic4"])
def test_subset_closure_matches_reference_closure(name):
    # the subsets of H4 and hyperbolic4 with labels 3 and inf only close on
    # ints inside a wider field: their roots carry that field's degree
    W = CoxeterGroup(CLOSURE_GROUPS[name])
    for mask in range(1 << W.rank):
        subset = [s for s in W.generators() if mask >> (s - 1) & 1]
        roots, step = reference_closure(W, subset)
        assert W._root_closure(subset) == (
            [tuple(c.coeffs for c in r) for r in roots], step), subset


@pytest.mark.parametrize("name", ["h4", "tri237", "hyperbolic4", "e6"])
def test_closure_does_not_reflect(monkeypatch, name):
    def reflect(*args):
        raise AssertionError("the closure called reflect")

    monkeypatch.setattr(CoxeterGroup, "reflect", reflect)
    W = CoxeterGroup(CLOSURE_GROUPS[name])
    assert len(W._elementary.roots) >= W.rank


def test_simply_laced_closure_needs_no_enclosure(monkeypatch):
    # every value on E6 is rational, so no sign goes to an enclosure; an
    # empty sign memo keeps a cached sign from hiding one
    def enclosure(self, *, prec):
        raise AssertionError("the closure evaluated an enclosure")

    monkeypatch.setattr(cyclo, "_SIGN_MEMO", {})
    monkeypatch.setattr(CycloReal, "_interval_value", enclosure)
    W = CoxeterGroup(CLOSURE_GROUPS["e6"])
    assert len(W._elementary.roots) == 36


# five commuting I2(120) blocks on 1..10, and an infinite edge to 11
FIVE_I2_120 = CoxeterMatrix.from_labels(
    11, {**{(2 * k - 1, 2 * k): 120 for k in range(1, 6)}, (10, 11): INF})


def test_five_i2_120_blocks_pass_the_greedy_cap():
    W = CoxeterGroup(FIVE_I2_120)
    labels = classify_finite(W.matrix, range(1, 11))
    assert sum(lab.positive_root_count for lab in labels) == 600 > GREEDY_CAP
    assert classify_finite(W.matrix, W.generators()) is None
    assert len(W._elementary.roots) == 601


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: GREEDY_CAP = 512 is below l(w_0) = 600, so the greedy "
    "probe calls this finite parabolic infinite"))
def test_greedy_probe_finds_five_i2_120_blocks_finite():
    assert _greedy_probe(CoxeterGroup(FIVE_I2_120), list(range(1, 11)))
