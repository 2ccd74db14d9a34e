"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with `pytest -s` to see them all) and enforces the stated runtime
budget.  Expected numbers are frozen from independent oracles: Cayley-BFS
counts, permutation models, and the brute-force enumeration in
coxfold.verify.
"""

import random
import time
from contextlib import contextmanager

from coxfold.catalog import run_catalog, run_entry
from coxfold.coxeter import classify_finite
from coxfold.folding import fold
from coxfold.verify import (
    VerifyConfig,
    _greedy_probe,
    enumerate_ball,
    fixed_subgroup,
    generated_ball,
    presentation_check,
)
from conftest import FLIPS, entry_by_name
from oracles import (ball_elements, inversion_count, product_inv,
                     reference_factorize)


@contextmanager
def criterion(number, name, budget_seconds):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {number} {name}: PASS ({dt:.1f}s)")
    assert dt < budget_seconds, f"runtime {dt:.1f}s exceeds {budget_seconds}s"


def fold_of(group_of, name, auto):
    return fold(group_of(name), [FLIPS[auto]])


def fixed_of(group_of, name, auto, radius=None):
    ball = enumerate_ball(group_of(name), radius)
    return fixed_subgroup(ball, [FLIPS[auto]])


# -- 1: the folding catalog ----------------------------------------------------

EXPECTED_ROWS = {
    "a2-flip": ("A1", (3,), 2),
    "a3-flip": ("I2(4)", (2, 1), 8),
    "a4-flip": ("I2(4)", (2, 3), 8),
    "a5-flip": ("B3", (2, 2, 1), 48),
    "d4-triality": ("I2(6)", (3, 1), 12),
    "d4-leaf-swap": ("B3", (1, 1, 2), 48),
    "affine-a2-flip": ("I2(inf)", (3, 1), None),
    "infinite-dihedral-flip": ("trivial", (), 1),
}


def test_criterion_1_folding_catalog(group_of):
    with criterion(1, "folding catalog", 30):
        rows = run_catalog(slow=False)
        assert len(rows) == 8
        for row in rows:
            expected = EXPECTED_ROWS[row.name]
            assert (row.computed_type, row.computed_weights,
                    row.computed_order) == expected, row.name
            assert row.match, row.name
        # dihedral label derivations: 2*l(w_K) = m*(L_I + L_J)
        for name, auto, l_wk, m in (
            ("a3", "a3", 6, 4), ("a4", "a4", 10, 4), ("d4", "d4_triality", 12, 6),
        ):
            (detail,) = fold_of(group_of, name, auto).details
            assert detail.longest_length == l_wk
            assert detail.label == m
            assert 2 * l_wk == m * (detail.weight_a + detail.weight_b)


def test_criterion_1_slow_e6_row():
    with criterion(1, "folding catalog, E6 row", 60):
        row = run_entry(entry_by_name("e6-flip"))
        assert (row.computed_type, row.computed_weights, row.computed_order) \
            == ("F4", (2, 2, 1, 1), 1152)
        assert row.match


# -- 2: factorization count is choice-independent --------------------------------


def test_criterion_2_factorization_count_choice_free(group_of):
    with criterion(2, "factorization count choice-independent", 60):
        rng = random.Random(0)
        cases = (("a3", "a3"), ("a4", "a4"), ("d4", "d4_triality"))
        elements = 0
        for name, auto in cases:
            folded = fold_of(group_of, name, auto)
            for w in fixed_of(group_of, name, auto):
                counts = {len(folded.greedy_factorize(w))}
                counts.update(
                    len(reference_factorize(folded, w.inv_cols,
                                            choose=rng.choice)[0])
                    for _ in range(50)
                )
                assert len(counts) == 1, (name, w.word, counts)
                elements += 1
        assert elements == 8 + 8 + 12


# -- 3: length additivity transfers both ways -------------------------------------


def test_criterion_3_additivity_biconditional(group_of):
    with criterion(3, "length additivity biconditional", 10):
        expected_pairs = {"a3": 64, "a4": 64, "d4": 144}
        for name, auto in (("a3", "a3"), ("a4", "a4"), ("d4", "d4_triality")):
            folded = fold_of(group_of, name, auto)
            fixed = fixed_of(group_of, name, auto)
            lam = [folded.lambda_length(w) for w in fixed]
            pairs = 0
            for i, w in enumerate(fixed):
                for j, wp in enumerate(fixed):
                    l_add, lam_add = folded.weight_additivity(
                        w, wp, lam_w=lam[i], lam_wp=lam[j]
                    )
                    assert l_add == lam_add, (name, w.word, wp.word)
                    pairs += 1
            assert pairs == expected_pairs[name]


# -- 4: folded exchange produces verified indices -----------------------------------


def test_criterion_4_folded_exchange(group_of):
    with criterion(4, "folded exchange condition", 30):
        cases = (
            ("a2", "a2", None, 1), ("a3", "a3", None, 8), ("a4", "a4", None, 8),
            ("a5", "a5", None, 30), ("d4", "d4_triality", None, 8),
            ("d4", "d4_swap", None, 30), ("triangle", "triangle", 8, 8),
            ("dinf", "dinf", 8, 0),
        )
        for name, auto, radius, expected_count in cases:
            folded = fold_of(group_of, name, auto)
            checked = 0
            for w in fixed_of(group_of, name, auto, radius):
                word = folded.greedy_factorize(w)
                if len(word) > 4:
                    continue
                for orbit in folded.bar_s:
                    w_i = folded.longest[orbit]
                    if folded.lambda_of_product(w_i, w) > len(word):
                        continue
                    i = folded.folded_exchange(
                        word, orbit, lambda u: product_inv(folded, u))
                    assert 1 <= i <= len(word)
                    checked += 1
            assert checked == expected_count, (name, auto, checked)


# -- 5: presentation isomorphism -----------------------------------------------------


def test_criterion_5_presentation(group_of):
    with criterion(5, "presentation isomorphism", 60):
        cases = (
            ("a2", "a2", None), ("a3", "a3", None), ("a4", "a4", None),
            ("a5", "a5", None), ("d4", "d4_triality", None),
            ("d4", "d4_swap", None), ("triangle", "triangle", 8),
            ("dinf", "dinf", None),  # folded group is trivial, hence finite
        )
        for name, auto, radius in cases:
            W = group_of(name)
            folded = fold(W, [FLIPS[auto]])
            folded_finite = classify_finite(
                folded.folded_matrix, folded.folded_matrix.generators()
            ) is not None
            lam_radius = None if folded_finite else radius
            gens = [folded.longest[J] for J in folded.bar_s]
            gen_ball = generated_ball(W, gens, lam_radius)
            res = presentation_check(folded, gen_ball, VerifyConfig())
            assert res.status == "pass", (name, res.witness)


# -- 6: word-engine invariants ---------------------------------------------------------


def test_criterion_6_word_engine(group_of):
    with criterion(6, "word-engine invariants", 60):
        # length equals inversion count, exhaustively
        for name in ("a3", "b3"):
            W = group_of(name)
            for w in ball_elements(enumerate_ball(W)):
                assert w.length == inversion_count(w)

        # exchange condition, exhaustively on groups of order <= 48
        small = ("a2", "b2", "a1x3", "i25", "i26", "a3", "b3")
        for name in small:
            W = group_of(name)
            ball = enumerate_ball(W)
            assert len(ball) <= 48
            for w in ball_elements(ball):
                for s in W.left_descents(w):
                    i = W.exchange(w.word, s)
                    dropped = w.word[:i - 1] + w.word[i:]
                    assert W.reduce(dropped) == W.simple(s) * w

        # reduce idempotence and unit length steps on 10^4 random words
        rng = random.Random(0)
        names = ("a3", "b3", "d4", "i25", "triangle", "dinf")
        for _ in range(10_000):
            W = group_of(names[rng.randrange(len(names))])
            word = [rng.randint(1, W.rank) for _ in range(rng.randint(0, 10))]
            w = W.reduce(word)
            assert W.reduce(w.word) == w
            s = rng.randint(1, W.rank)
            sw = W.simple(s) * w
            assert abs(sw.length - w.length) == 1


# -- 7: classification vs greedy termination --------------------------------------------


def test_criterion_7_finiteness_cross_check(group_of):
    with criterion(7, "finiteness classification cross-check", 30):
        names = ("a2", "a3", "a4", "a5", "b2", "b3", "d4",
                 "i25", "i26", "a1x3", "triangle", "dinf")
        subsets_checked = 0
        for name in names:
            W = group_of(name)
            assert W.rank <= 5
            n = W.rank
            for mask in range(1 << n):
                subset = [i + 1 for i in range(n) if (mask >> i) & 1]
                finite = classify_finite(W.matrix, subset) is not None
                terminated = _greedy_probe(W, subset)
                assert finite == terminated, (name, subset)
                subsets_checked += 1
        assert subsets_checked == 116
