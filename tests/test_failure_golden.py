"""Golden bytes of failing reports: sha256 of `Report.to_json()`.

Each golden input of test_golden.py runs through `property_suite` at seed
0 and radius 5 with its folded system broken behind the suite's back, one
way at a time:

* weight: the first folded generator's weight is one too large;
* swap: the first two folded generators trade longest elements;
* label: the first folded label, m(1, 2), is one larger in the folded
  matrix and in its derivation;
* finite: that label is 3 where it is infinite, so the folded matrix
  claims a finite group while the generators span an infinite one, and
  the generated ball stops at the claimed order;
* greedy: `GREEDY_CAP = 2`, so the greedy probe finds every parabolic of
  rank 2 or more infinite.

A breakage that has nothing to break is left out: weight with no folded
generator, swap with fewer than two, label below folded rank 2, and label
on the infinite folded groups, whose first label is inf = inf + 1.  finite
is pinned on the (4,4,3) triangle only.  I2(inf) under its flip passes
greedy, since its only finite parabolics have rank at most 1.  The B3
input whose automorphism does not preserve the matrix fails validation
unbroken.  Every pinned report fails, and together they fail each check
at least once.
"""

import hashlib
import json

import pytest

from coxfold import verify
from coxfold.coxeter import CoxeterMatrix, parse_input
from coxfold.folding import Automorphism, fold
from coxfold.verify import CHECK_NAMES, VerifyConfig, property_suite
from coxfold.words import CoxeterGroup

from oracles import replace
from test_golden import INPUTS as GOLDEN_INPUTS

INPUTS = {**GOLDEN_INPUTS,
          "b3-bad-swap": "rank 3\nm 1 2 3\nm 2 3 4\nauto swap 1>3 3>1\n"}


def heavier(folded):
    J = folded.bar_s[0]
    return replace(folded, weight={**folded.weight, J: folded.weight[J] + 1})


def swapped(folded):
    a, b = folded.bar_s[:2]
    longest = {**folded.longest, a: folded.longest[b], b: folded.longest[a]}
    return replace(folded, longest=longest)


def relabeled(folded, label=None):
    entries = [list(row) for row in folded.folded_matrix.entries]
    m = entries[0][1] = entries[1][0] = label or entries[0][1] + 1
    first, *rest = folded.details
    return replace(
        folded, folded_matrix=CoxeterMatrix(tuple(map(tuple, entries))),
        details=(replace(first, label=m), *rest))


BREAK = {"weight": heavier, "swap": swapped, "label": relabeled,
         "finite": lambda folded: relabeled(folded, 3)}

GOLDEN = {
    ("a2-flip", "weight"): "2efae3c9631ef357bb202a7d04904ca72bdf2f6958f118cd7d2ce340c34c496b",
    ("a2-flip", "greedy"): "36cd7aa8d1cb1c62f5a03f0b194b635fe53b3f2d87cebaca92459dd512365a59",
    ("a3-flip", "weight"): "ced64ef51aecc0ca12ee3caf891e3accbeed9fb7658666a760a51a128b174381",
    ("a3-flip", "swap"): "e9ed86bdcd03fa48a15f98d132a3a038b7c972996d7403e2c44b602562de22bf",
    ("a3-flip", "label"): "420b4e51b1da687270d9c9e928653df6dd45f0f835a440e1d8554a4cfb679fe1",
    ("a3-flip", "greedy"): "946bcd85977fc736240f74277e9f0aa00e8909a3cd7f8905c05b219c59281765",
    ("a4-flip", "weight"): "e9ad34a0b36922bc36262292ca3e2c9d67e8b2dc6ef53f8d18c89779c8ff9294",
    ("a4-flip", "swap"): "3a8ac5ea9fa8a2d0f5a127857c8903b07129ef056f0c057adf06568d6d7b0753",
    ("a4-flip", "label"): "5a57b3b7c58fed7f16e524a05684753a7f14389f42e4d3798a918773bb88776e",
    ("a4-flip", "greedy"): "83b3604d09e24afabef3c32cb4764f822cd2e55c2afad3a725c5fba95500670d",
    ("a5-flip", "weight"): "6abea87bad763fdb2b0fb3f05f2d51e77a6ef8e077d5db5044b5ca57e8d03029",
    ("a5-flip", "swap"): "a7d7bd60d3b619e7d2a440542c6a6a4b7e82303c6688162a7baa1cdcd5a73f75",
    ("a5-flip", "label"): "76ebfa6659b41441e2b29b4449703d77a445f447e82834d629f2281ea1297421",
    ("a5-flip", "greedy"): "d93f71617df9c57fba4ea9f4b95b2abfffd3d371382483a6f6985eee48df4ddc",
    ("affine-a2-flip", "weight"): "d2994427cfe553e35abc6893effd500a9ee28c9f3f06402e0d05563f1892f1e9",
    ("affine-a2-flip", "swap"): "4b56b555b6c93f9a33eb7cbd98739d87a442cc9fa9638f7ea821367e9beb8d5f",
    ("affine-a2-flip", "greedy"): "d724f560750f5f0d0a722ad6c82588ff565f9d3140e1814514332ff830b7d68c",
    ("b3-bad-swap", "none"): "2b225c65621530289067d56a67f21a51851bfa8c0ee004c0ec7295891bea8a66",
    ("d4-leaf-swap", "weight"): "d5bb529397cd8a1eefb34a0b01da41c386472c17394a78fb13e376b7a0ec5854",
    ("d4-leaf-swap", "swap"): "adcacdc41550da5cbfe44845aff5d7277f97500bb5c9358ae6ab952f4dbc339e",
    ("d4-leaf-swap", "label"): "8b6f397f5658fd7ce4efcd8eca03de1a9551e7f0eb01bcd8825567a0340d61a9",
    ("d4-leaf-swap", "greedy"): "ae985f06ba4071cda6c6c4a48deaba1683a70fb0ffe5a5decbdc48c994d0b682",
    ("d4-triality", "weight"): "d9e8e3a3e8cf17f4d343be812ae454065e022459d5109b804488668fcef62d32",
    ("d4-triality", "swap"): "411222d8be8bc60631dd61c09663a345f57f2dda070a92d1482b3f21f21548e2",
    ("d4-triality", "label"): "2be5e48a4c00fe8ab81a4e9457bf9c56722ac2b7bf2e2bb9bbe08c610b38fe2d",
    ("d4-triality", "greedy"): "878d2701f5c9dd7cb703a3824fdbcf8580d585df08b89bf1645103820bec5b43",
    ("h3-id", "weight"): "daabf70d9fcba09ae9c99a5b606b766ac57acefd0e73e81a5b89fc8fcf5ce598",
    ("h3-id", "swap"): "45dac962bae5916e382aab778f319bd2ecf212a59a637232aa235149c0bcc50b",
    ("h3-id", "label"): "94b3803fd75c4067db026c25a92756bd70496dc1705532c26fa8c5e3a6bd7fa9",
    ("h3-id", "greedy"): "1cce764a4cfae812d36d082d629e9bc509ef5f4d127b971aff50a856e8a70ccc",
    ("tri443-swap", "weight"): "3ea43250d5bcc54b1857cb625f3a63c9522e9e55c32c2c39efc3c7ce71aeb27b",
    ("tri443-swap", "swap"): "d6784b85eac44dc8c6c93d82564bd32a99436dd6c04e7ce9862da35fda0e1576",
    ("tri443-swap", "finite"): "e2ab2210e5bbc0e9d3ebb5718977625bda829839613aba9ecc720f334c245889",
    ("tri443-swap", "greedy"): "f4f5f85baa832db834f566ffbe613240c0ffc2d8adbf8a9e3839f3c9d27bdd15",
}


def failing_report(name, breakage):
    parsed = parse_input(INPUTS[name])
    group = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    with pytest.MonkeyPatch.context() as mp:
        if breakage == "greedy":
            mp.setattr(verify, "GREEDY_CAP", 2)
        elif breakage != "none":
            mp.setattr(verify, "fold",
                       lambda g, a: BREAK[breakage](fold(g, a)))
        return property_suite(group, autos, VerifyConfig(seed=0, radius=5))


@pytest.mark.parametrize("name,breakage", sorted(GOLDEN))
def test_failing_report_bytes(name, breakage):
    report = failing_report(name, breakage)
    assert not report.passed
    json.dumps(report.to_dict(), allow_nan=False)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == GOLDEN[name, breakage]


def test_every_check_fails_somewhere():
    failed = {c.name for key in GOLDEN for c in failing_report(*key).checks
              if c.status == "fail"}
    assert failed == {"automorphisms-preserve-matrix", *CHECK_NAMES}
