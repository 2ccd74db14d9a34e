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
    ("a2-flip", "weight"): "fe35c7ad2049d9ee67b505e3968c90f1e1c32b76b0d0057b6ec94af1fdb8a6f2",
    ("a2-flip", "greedy"): "36cd7aa8d1cb1c62f5a03f0b194b635fe53b3f2d87cebaca92459dd512365a59",
    ("a3-flip", "weight"): "0f591f9bcfae2cb8a37f13c5c39cddf08d15c3a5e8d7622ad454207680d27789",
    ("a3-flip", "swap"): "e9ed86bdcd03fa48a15f98d132a3a038b7c972996d7403e2c44b602562de22bf",
    ("a3-flip", "label"): "420b4e51b1da687270d9c9e928653df6dd45f0f835a440e1d8554a4cfb679fe1",
    ("a3-flip", "greedy"): "946bcd85977fc736240f74277e9f0aa00e8909a3cd7f8905c05b219c59281765",
    ("a4-flip", "weight"): "a5ee6d9dc8a881dec1a5a6c6baef66f465af47e565e60a37138678cdc0326689",
    ("a4-flip", "swap"): "3a8ac5ea9fa8a2d0f5a127857c8903b07129ef056f0c057adf06568d6d7b0753",
    ("a4-flip", "label"): "5a57b3b7c58fed7f16e524a05684753a7f14389f42e4d3798a918773bb88776e",
    ("a4-flip", "greedy"): "83b3604d09e24afabef3c32cb4764f822cd2e55c2afad3a725c5fba95500670d",
    ("a5-flip", "weight"): "e708ae03a3073520e26071c7539d52a857eedd74e9895332b9e862a1b4db2ed0",
    ("a5-flip", "swap"): "a7d7bd60d3b619e7d2a440542c6a6a4b7e82303c6688162a7baa1cdcd5a73f75",
    ("a5-flip", "label"): "76ebfa6659b41441e2b29b4449703d77a445f447e82834d629f2281ea1297421",
    ("a5-flip", "greedy"): "d93f71617df9c57fba4ea9f4b95b2abfffd3d371382483a6f6985eee48df4ddc",
    ("affine-a2-flip", "weight"): "5932d068b9c1859349a3008d37e940a12300939719e07a975dc02a7ad15f3b4d",
    ("affine-a2-flip", "swap"): "4b56b555b6c93f9a33eb7cbd98739d87a442cc9fa9638f7ea821367e9beb8d5f",
    ("affine-a2-flip", "greedy"): "d724f560750f5f0d0a722ad6c82588ff565f9d3140e1814514332ff830b7d68c",
    ("b3-bad-swap", "none"): "2b225c65621530289067d56a67f21a51851bfa8c0ee004c0ec7295891bea8a66",
    ("d4-leaf-swap", "weight"): "c1e6f9896162872b8d243c4d2bd7e575b038273fd45822690abedcb42a3bbed2",
    ("d4-leaf-swap", "swap"): "adcacdc41550da5cbfe44845aff5d7277f97500bb5c9358ae6ab952f4dbc339e",
    ("d4-leaf-swap", "label"): "8b6f397f5658fd7ce4efcd8eca03de1a9551e7f0eb01bcd8825567a0340d61a9",
    ("d4-leaf-swap", "greedy"): "ae985f06ba4071cda6c6c4a48deaba1683a70fb0ffe5a5decbdc48c994d0b682",
    ("d4-triality", "weight"): "0bd708456c00fe60022bdfe7a7d1b7729f0612a09dee63807c4c9a2fba29535a",
    ("d4-triality", "swap"): "411222d8be8bc60631dd61c09663a345f57f2dda070a92d1482b3f21f21548e2",
    ("d4-triality", "label"): "2be5e48a4c00fe8ab81a4e9457bf9c56722ac2b7bf2e2bb9bbe08c610b38fe2d",
    ("d4-triality", "greedy"): "878d2701f5c9dd7cb703a3824fdbcf8580d585df08b89bf1645103820bec5b43",
    ("h3-id", "weight"): "43d8da5b2a79b3006b29f0c5ea16899a720b0a518e3b0863bbc8920869edcbe1",
    ("h3-id", "swap"): "45dac962bae5916e382aab778f319bd2ecf212a59a637232aa235149c0bcc50b",
    ("h3-id", "label"): "94b3803fd75c4067db026c25a92756bd70496dc1705532c26fa8c5e3a6bd7fa9",
    ("h3-id", "greedy"): "1cce764a4cfae812d36d082d629e9bc509ef5f4d127b971aff50a856e8a70ccc",
    ("tri443-swap", "weight"): "906d3fb6af33f3e20f4ebaf0fb41e7a0d6ec30fa4a285ce89b3227f5711f7dc2",
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
    failed = [c for key in GOLDEN for c in failing_report(*key).checks
              if c.status == "fail"]
    assert {c.name for c in failed} == {"automorphisms-preserve-matrix",
                                        *CHECK_NAMES}
    # a failing check says how far it got, also when an operation raised
    assert all(c.statistics for c in failed)
