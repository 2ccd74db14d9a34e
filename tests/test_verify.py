import json
import math

import pytest

from coxfold import verify
from coxfold.catalog import run_entry
from coxfold.cyclo import degree_problem
from coxfold.coxeter import (
    CoxeterMatrix,
    classify_finite,
    coxeter_order,
    parse_input,
)
from coxfold.folding import Automorphism, fold
from coxfold.words import CoxeterGroup, Element
from coxfold.verify import (
    NodeCapExceeded,
    VerifyConfig,
    _Products,
    _presentation_pairs,
    _rng,
    check_dihedral_pairs,
    enumerate_ball,
    fixed_subgroup,
    generated_ball,
    input_digest,
    presentation_check,
    property_suite,
)

from conftest import E7_BESIDE_I2INF, FLIPS, entry_by_name

import oracles


# -- ball enumeration -----------------------------------------------------------


def test_ball_counts_full(group_of):
    assert len(enumerate_ball(group_of("a2"))) == 6
    ball = enumerate_ball(group_of("a3"))
    assert len(ball) == 24 and ball.complete
    assert oracles.ball_elements(ball)[-1].length == 6
    assert len(enumerate_ball(group_of("b2"))) == 8
    assert len(enumerate_ball(group_of("d4"))) == 192


def test_ball_counts_match_classification(group_of):
    for name in ("a2", "a3", "b2", "b3", "i25", "i26", "d4", "a1x3"):
        W = group_of(name)
        assert len(enumerate_ball(W)) == coxeter_order(W.matrix, W.generators())


def test_ball_radius_infinite(group_of):
    ball = enumerate_ball(group_of("dinf"), radius=4)
    assert len(ball) == 9 and not ball.complete
    with pytest.raises(ValueError, match="infinite"):
        enumerate_ball(group_of("dinf"))


def test_ball_radius_on_finite_group_completes_early(group_of):
    ball = enumerate_ball(group_of("a2"), radius=10)
    assert len(ball) == 6 and ball.complete


def test_ball_order_and_uniqueness(group_of):
    ball = enumerate_ball(group_of("b3"))
    words = [w.word for w in oracles.ball_elements(ball)]
    assert words == sorted(words, key=lambda u: (len(u), u))
    assert len(set(words)) == len(words)
    # closed under inverse when complete
    keys = {w.inv_cols for w in oracles.ball_elements(ball)}
    for w in oracles.ball_elements(ball):
        assert (~w).inv_cols in keys  # the key of w^-1


def test_ball_matches_permutation_oracle(group_of):
    ball = enumerate_ball(group_of("a3"))
    perms = {oracles.word_to_perm(4, w.word) for w in oracles.ball_elements(ball)}
    assert len(perms) == 24


def test_e6_runs_build_elements_only_for_kept_words(monkeypatch):
    # |W(E6)| = 51840 and 1152 elements are fixed: the catalog row and the
    # suite both walk the four coset steps of the chain, 105 nodes, and
    # never all of W.  The row builds none of the fixed elements, only the
    # folding's own few; the suite builds the fixed ones and a few more
    entry = entry_by_name("e6-flip")
    built = []
    init = Element.__init__

    def counting_init(self, *args):
        built.append(args[1])
        init(self, *args)

    walks = []
    image_ball = verify._image_ball

    def counting_walk(*args):
        ball = image_ball(*args)
        walks.append(len(ball))
        return ball

    def no_full_walk(*args):
        raise AssertionError("enumerate_ball walked W")

    monkeypatch.setattr(Element, "__init__", counting_init)
    monkeypatch.setattr(verify, "_image_ball", counting_walk)
    monkeypatch.setattr(verify, "enumerate_ball", no_full_walk)
    assert run_entry(entry).match
    assert walks == [4, 9, 20, 72] and len(built) < 100
    built.clear()
    walks.clear()
    parsed = parse_input(entry.input_text)
    report = property_suite(CoxeterGroup(parsed.matrix),
                            [Automorphism(images) for _, images in parsed.autos])
    assert report.passed
    assert walks == [4, 9, 20, 72] and 1152 <= len(built) < 5000


# -- fixed subgroups ---------------------------------------------------------------


def test_fixed_subgroup_trivial_gamma(group_of):
    ball = enumerate_ball(group_of("a3"))
    assert len(fixed_subgroup(ball, [oracles.identity_of(3)])) == 24


@pytest.mark.parametrize(
    "name,auto,expected",
    [
        ("a2", "a2", 2),
        ("a3", "a3", 8),
        ("a4", "a4", 8),
        ("a5", "a5", 48),
        ("d4", "d4_triality", 12),
        ("d4", "d4_swap", 48),
    ],
)
def test_fixed_subgroup_sizes(group_of, name, auto, expected):
    ball = enumerate_ball(group_of(name))
    assert len(fixed_subgroup(ball, [FLIPS[auto]])) == expected


# -- presentation -----------------------------------------------------------------


def run_presentation(group_of, name, auto, radius=None):
    W = group_of(name)
    folded = fold(W, [FLIPS[auto]])
    gens = [folded.longest[J] for J in folded.bar_s]
    gen = generated_ball(W, gens, radius)
    return presentation_check(folded, gen, VerifyConfig())


def test_presentation_a2(group_of):
    res = run_presentation(group_of, "a2", "a2")
    assert res.status == "pass"
    assert res.statistics["generated_size"] == 2


def test_presentation_a3(group_of):
    res = run_presentation(group_of, "a3", "a3")
    assert res.status == "pass"
    assert res.statistics["generated_size"] == 8


def test_generated_ball_level_profile(group_of):
    # the fixed subgroup of the a3 flip is dihedral of order 8:
    # 1, 2, 2, 2, 1 elements at folded lengths 0..4
    W = group_of("a3")
    folded = fold(W, [FLIPS["a3"]])
    gen = generated_ball(W, [folded.longest[J] for J in folded.bar_s], None)
    profile = [gen.levels.count(k) for k in range(max(gen.levels) + 1)]
    assert profile == [1, 2, 2, 2, 1]
    # over the simple reflections the levels are the lengths, which is how
    # presentation_check walks the abstract folded group
    h3 = CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3})
    for W in (group_of("a5"), CoxeterGroup(h3), group_of("triangle"),
              group_of("dinf")):
        ball = enumerate_ball(W, 6)
        gen = generated_ball(W, [W.simple(s) for s in W.generators()], 6)
        assert len(gen) == len(ball)
        assert ({W._extract_word(a): level
                 for a, level in zip(gen.actions, gen.levels)}
                == {word: len(word) for word in oracles.ball_words(ball)})


def test_presentation_affine_radius6(group_of):
    res = run_presentation(group_of, "triangle", "triangle", radius=6)
    assert res.status == "pass"
    assert res.statistics["generated_size"] == 13  # 1 + 2 per length 1..6


def test_presentation_catches_wrong_matrix(group_of):
    # feed the checker a deliberately wrong folded matrix: must fail
    W = group_of("a3")
    folded = fold(W, [FLIPS["a3"]])
    wrong = oracles.replace(
        folded,
        folded_matrix=CoxeterMatrix.from_labels(2, {(1, 2): 3}),
    )
    gens = [folded.longest[J] for J in folded.bar_s]
    res = presentation_check(wrong, generated_ball(W, gens, None), VerifyConfig())
    assert res.status == "fail"
    assert res.witness["problem"] == "sizes differ"


def product_table(folded):
    """The checks' product table on the whole group the folded generators
    span (finite here)."""
    return _Products(folded, generated_ball(
        folded.group, [folded.longest[J] for J in folded.bar_s], None))


def test_dihedral_check_catches_wrong_label(group_of):
    W = group_of("a3")
    folded = fold(W, [FLIPS["a3"]])
    (detail,) = folded.details
    wrong = oracles.replace(
        folded, details=(oracles.replace(detail, label=3),)
    )
    res = check_dihedral_pairs(wrong, product_table(wrong))
    assert res.status == "fail"


# -- the suite ---------------------------------------------------------------------


def suite_statuses(report):
    return {c.name: c.status for c in report.checks}


def test_suite_all_pass_a3(group_of):
    rep = property_suite(group_of("a3"), [FLIPS["a3"]])
    assert rep.passed
    assert set(suite_statuses(rep).values()) == {"pass"}
    assert rep.folded_summary["type"] == "I2(4)"
    assert rep.folded_summary["weights"] == [2, 1]
    assert rep.folded_summary["fixed_subgroup_order"] == 8


def test_suite_reports_broken_system_as_failures(group_of, monkeypatch):
    # tamper the folded system behind the suite's back: the checks must
    # come back as failures with witnesses, never as crashes
    import coxfold.verify as verify_module

    W = group_of("a3")
    real = fold(W, [FLIPS["a3"]])
    broken = oracles.replace(
        real, weight={**real.weight, frozenset({1, 3}): 1}
    )
    monkeypatch.setattr(verify_module, "fold", lambda g, a: broken)
    rep = verify_module.property_suite(W, [FLIPS["a3"]])
    assert not rep.passed
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["fixed-elements-factorize"] == "fail"
    assert statuses["minimal-words-length-additive"] == "fail"
    witnesses = [c.witness for c in rep.checks if c.status == "fail"]
    assert all(w for w in witnesses)


def test_direct_check_reports_broken_system_as_failure(group_of):
    # outside the suite too, a check turns an InvariantViolation from a
    # broken folded system into a failing result with its witness and the
    # statistics it had gathered
    W = group_of("a3")
    real = fold(W, [FLIPS["a3"]])
    broken = oracles.replace(
        real, weight={**real.weight, frozenset({1, 3}): 1}
    )
    res = verify.check_minimal_additivity(broken, VerifyConfig(),
                                          product_table(broken))
    assert (res.name, res.status, res.statistics) == (
        "minimal-words-length-additive", "fail",
        {"trials": verify.TRIALS, "minimal_hits": 1})
    assert res.witness["check"] == "factorize"


def test_suite_refuses_folded_group_over_node_cap():
    parsed = parse_input(E7_BESIDE_I2INF)
    W = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    assert coxeter_order(W.matrix, W.generators()) is None
    with pytest.raises(NodeCapExceeded, match="folded group has 2903040 "):
        property_suite(W, autos)


def test_suite_invalid_automorphism_skips(group_of):
    rep = property_suite(group_of("a3"), [Automorphism((2, 1, 3))])
    statuses = suite_statuses(rep)
    assert statuses["automorphisms-preserve-matrix"] == "fail"
    assert statuses["presentation-isomorphism"] == "skipped"
    assert not rep.passed
    assert rep.validation_failed


def test_suite_trivial_gamma_b3(group_of):
    rep = property_suite(group_of("b3"), [oracles.identity_of(3)])
    assert rep.passed
    assert rep.folded_summary["type"] == "B3"
    assert rep.folded_summary["weights"] == [1, 1, 1]


def test_suite_infinite_radius(group_of):
    rep = property_suite(group_of("triangle"), [FLIPS["triangle"]],
                         VerifyConfig(radius=6))
    assert rep.passed
    assert rep.folded_summary["type"] == "I2(inf)"
    assert rep.folded_summary["fixed_subgroup_order"] is None


def test_suite_deterministic(group_of):
    cfg = VerifyConfig(seed=3)
    a = property_suite(group_of("a3"), [FLIPS["a3"]], cfg)
    b = property_suite(group_of("a3"), [FLIPS["a3"]], cfg)
    assert a.to_dict() == b.to_dict()
    assert a.to_json() == b.to_json()


def test_report_json_shape(group_of):
    rep = property_suite(group_of("a2"), [FLIPS["a2"]])
    data = json.loads(rep.to_json())
    assert data["version"] == 1
    assert data["input_digest"] == input_digest(
        group_of("a2").matrix, [FLIPS["a2"]]
    )
    names = [c["name"] for c in data["checks"]]
    assert names[0] == "automorphisms-preserve-matrix"
    assert all(c["status"] in ("pass", "fail", "skipped") for c in data["checks"])
    assert data["folded_summary"]["pairs"] == []


def test_infinite_labels_serialize(group_of):
    rep = property_suite(group_of("triangle"), [FLIPS["triangle"]],
                         VerifyConfig(radius=4))
    data = json.loads(rep.to_json())
    assert data["folded_summary"]["matrix"][0][1] == "inf"


# -- bounds: the pair draw and the node cap ---------------------------------------


def _levels(radius, count):
    return [k for k in range(radius + 1) for _ in range(count(k))]


def width_pairs(width):
    """The pairs (i, j) of rows of the given widths, i-major."""
    return [(i, j) for i, w in enumerate(width) for j in range(w)]


@pytest.mark.parametrize("levels,radius", [
    (_levels(6, lambda k: 2 * k + 1), None),        # 49^2 pairs, listed
    (_levels(12, lambda k: 3 * k + 1), None),       # 247^2 pairs, sampled
    (_levels(12, lambda k: 3 * k + 1), 12),         # 11284 pairs, sampled
    (_levels(16, lambda k: k + 1), 16),             # 4845 pairs, listed
    ([0, 1, 1, 2], 3),
])
def test_presentation_pairs_draw_the_listed_candidates(levels, radius):
    # the index draw must pick exactly what sampling the full list picks,
    # so seeded reports keep their bytes
    config = VerifyConfig(seed=5)
    bound = float("inf") if radius is None else radius
    listed = [(i, j) for i in range(len(levels)) for j in range(len(levels))
              if levels[i] + levels[j] <= bound]
    width, drawn = _presentation_pairs(levels, radius, config)
    if len(listed) > verify.PAIR_CAP:
        expected = _rng(config, "presentation-pairs").sample(
            listed, verify.SAMPLE_PAIRS)
        assert drawn is not None and drawn == expected
    else:
        assert drawn is None and width_pairs(width) == listed


PAIR_INSTANCES = {
    # name: (matrix, automorphism, generated-ball radius; None when the
    # folded group is finite, as in property_suite)
    "affine-a2-flip": (CoxeterMatrix.from_labels(
        3, {(1, 2): 3, (2, 3): 3, (1, 3): 3}), Automorphism((2, 1, 3)), 8),
    "tri443-swap": (CoxeterMatrix.from_labels(
        3, {(1, 2): 4, (1, 3): 4, (2, 3): 3}), Automorphism((1, 3, 2)), 8),
    "a5-flip": (CoxeterMatrix.from_labels(
        5, {(i, i + 1): 3 for i in range(1, 5)}),
        Automorphism((5, 4, 3, 2, 1)), None),
    "h3-id": (CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3}),
              Automorphism((1, 2, 3)), None),
}


@pytest.mark.parametrize("name", sorted(PAIR_INSTANCES))
def test_pair_products_follow_ball_edges(name):
    # the edge walk of GeneratedBall.product against the exact product
    matrix, gamma, radius = PAIR_INSTANCES[name]
    W = CoxeterGroup(matrix)
    folded = fold(W, [gamma])
    fm = folded.folded_matrix
    assert (classify_finite(fm, fm.generators()) is None) == (radius is not None)
    gen_ball = generated_ball(W, [folded.longest[J] for J in folded.bar_s],
                              radius)
    assert gen_ball.complete == (radius is None)
    width, drawn = _presentation_pairs(gen_ball.levels, radius,
                                       VerifyConfig())
    assert (drawn is None) == (name != "h3-id")
    pairs = width_pairs(width) if drawn is None else drawn
    compose, acts = W._engine.compose, gen_ball.actions
    for i, j in pairs:
        assert gen_ball.product(i, j) == gen_ball.key_index[
            compose(acts[j], acts[i])], (i, j)
    # past the radius the walk may leave the ball, but never lands wrong
    n = len(gen_ball)
    for i in range(0, n, 7):
        for j in range(0, n, 5):
            k = gen_ball.product(i, j)
            if k is not None:
                assert k == gen_ball.key_index[compose(acts[j], acts[i])]


def test_presentation_check_h4_identity():
    # |W| = 14400: 207M candidate pairs, which used to be listed in full
    h4 = CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3})
    W = CoxeterGroup(h4)
    folded = fold(W, [oracles.identity_of(4)])
    gen = generated_ball(W, [folded.longest[J] for J in folded.bar_s], None)
    res = presentation_check(folded, gen, VerifyConfig())
    assert res.status == "pass", res.witness
    assert res.statistics["generated_size"] == 14400
    assert res.statistics["pairs"] == verify.SAMPLE_PAIRS


def test_full_ball_over_node_cap_is_refused_up_front():
    a8 = CoxeterMatrix.from_labels(8, {(i, i + 1): 3 for i in range(1, 8)})
    with pytest.raises(NodeCapExceeded, match="362880 elements"):
        enumerate_ball(CoxeterGroup(a8))


def test_letter_cap_admits_every_finite_group_the_node_cap_admits():
    # every finite W with |W| <= NODE_CAP and field degree phi(2N) <=
    # DEGREE_CAP, as a product of irreducibles (order, l(w_0), largest
    # label); all of W spells |W| l(w_0) / 2 letters
    cap = verify.NODE_CAP
    irreducible = [(2, 1, 2), (51840, 36, 3), (1152, 24, 4), (120, 15, 5),
                   (14400, 60, 5)]                  # A1, E6, F4, H3, H4
    for n in range(2, 10):
        irreducible += [(math.factorial(n + 1), n * (n + 1) // 2, 3),
                        (2 ** n * math.factorial(n), n * n, 4)]
        if n >= 4:
            irreducible.append((2 ** (n - 1) * math.factorial(n), n * (n - 1), 3))
    irreducible += [(2 * m, m, m) for m in range(5, cap // 2 + 1)]   # I2(m)
    irreducible = [t for t in irreducible
                   if t[0] <= cap and degree_problem(math.lcm(2, t[2])) is None]
    best = 0

    def extend(start, order, length, lcm):
        nonlocal best
        best = max(best, order * length // 2)
        for i in range(start, len(irreducible)):
            o, n, m = irreducible[i]
            if order * o <= cap and degree_problem(math.lcm(lcm, m)) is None:
                extend(i, order * o, length + n, math.lcm(lcm, m))

    extend(0, 1, 0, 2)
    assert best == 194400 * 183 // 2        # A2 x I2(90) x I2(90)
    assert best <= verify.LETTER_CAP < best + cap


def test_bounded_balls_respect_node_cap(group_of, monkeypatch):
    monkeypatch.setattr(verify, "NODE_CAP", 10)
    with pytest.raises(NodeCapExceeded):
        enumerate_ball(group_of("triangle"), radius=8)
    W = group_of("triangle")
    folded = fold(W, [FLIPS["triangle"]])
    with pytest.raises(NodeCapExceeded):
        generated_ball(W, [folded.longest[J] for J in folded.bar_s], 8)
