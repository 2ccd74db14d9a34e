"""Property-suite runs on instances outside the built-in catalog."""

from coxfold.coxeter import CoxeterMatrix
from coxfold.folding import Automorphism, fold
from coxfold.verify import VerifyConfig, enumerate_ball, fixed_subgroup, property_suite
from coxfold.words import CoxeterGroup

from conftest import FLIPS, MATRICES
from oracles import identity_of


def run(matrix, autos, **kw):
    report = property_suite(CoxeterGroup(matrix), autos, VerifyConfig(**kw))
    failing = [c.name for c in report.checks if c.status == "fail"]
    assert report.passed, failing
    return report


def test_h3_trivial_automorphism():
    # exercises a bigger scalar field end to end: labels {3,5} give
    # N = lcm(2,3,5) = 30 and degree phi(60) = 16
    h3 = CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3})
    group = CoxeterGroup(h3)
    assert (group.ctx.N, group.ctx.degree) == (30, 16)
    report = run(h3, [identity_of(3)])
    assert report.folded_summary["type"] == "H3"
    assert report.folded_summary["fixed_subgroup_order"] == 120


def test_i25_swap():
    report = run(MATRICES["i25"], [Automorphism((2, 1))])
    assert report.folded_summary["type"] == "A1"
    assert report.folded_summary["weights"] == [5]
    assert report.folded_summary["fixed_subgroup_order"] == 2


def test_rank_one():
    report = run(CoxeterMatrix.from_labels(1, {}), [Automorphism((1,))])
    assert report.folded_summary["type"] == "A1"
    assert report.folded_summary["weights"] == [1]


def test_disconnected_a2_x_a1():
    # swap inside the A2 component; the isolated generator is its own orbit
    mat = CoxeterMatrix.from_labels(3, {(1, 2): 3})
    report = run(mat, [Automorphism((2, 1, 3))])
    assert report.folded_summary["type"] == "A1 x A1"
    assert sorted(report.folded_summary["weights"]) == [1, 3]
    assert report.folded_summary["fixed_subgroup_order"] == 4
    (pair,) = report.folded_summary["pairs"]
    assert pair["label"] == 2 and pair["union_longest_length"] == 4


def test_d4_full_leaf_symmetry_equals_triality():
    # two generators spanning the full S3 on the leaves: same orbits as the
    # 3-cycle alone, so the same folded system and the same fixed subgroup
    d4 = MATRICES["d4"]
    gens = [Automorphism((1, 2, 4, 3)), Automorphism((3, 2, 1, 4))]
    report = run(d4, gens)
    assert report.folded_summary["type"] == "I2(6)"
    assert report.folded_summary["weights"] == [3, 1]
    assert report.folded_summary["fixed_subgroup_order"] == 12

    W = CoxeterGroup(d4)
    ball = enumerate_ball(W)
    under_s3 = fixed_subgroup(ball, gens)
    under_c3 = fixed_subgroup(ball, [FLIPS["d4_triality"]])
    assert set(under_s3) == set(under_c3)


def test_b3_no_nontrivial_symmetry():
    # the only matrix-preserving permutation of B3 is the identity
    from coxfold.folding import validate_automorphism
    import itertools

    ok = [
        perm
        for perm in itertools.permutations((1, 2, 3))
        if not validate_automorphism(MATRICES["b3"], perm)
    ]
    assert ok == [(1, 2, 3)]
