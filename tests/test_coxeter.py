import pytest

from coxfold.coxeter import (
    CoxeterMatrix,
    ParseError,
    classify_finite,
    components,
    coxeter_order,
    parse_input,
    type_string,
    validate,
)
from coxfold.cyclo import INF
from coxfold.words import parse_word

from conftest import BAD_NUMBERS, MATRICES, NUMBER_POSITIONS, a_matrix


def test_validate_ok():
    assert validate(MATRICES["a3"]) == []
    assert validate(MATRICES["dinf"]) == []


def test_validate_asymmetric():
    bad = CoxeterMatrix(((1, 3, 2), (4, 1, 3), (2, 3, 1)))
    errs = validate(bad)
    assert any("asymmetric at (1,2)" in e for e in errs)


def test_validate_diagonal():
    bad = CoxeterMatrix(((2, 3), (3, 1)))
    assert any("diagonal must be 1" in e for e in validate(bad))


def test_validate_offdiagonal_too_small():
    bad = CoxeterMatrix(((1, 1), (1, 1)))
    assert any(">= 2" in e for e in validate(bad))


def test_validate_rank_range():
    assert validate(a_matrix(17)) == ["rank 17 out of range 1..16"]
    assert validate(a_matrix(16)) == []


def test_components():
    a3 = MATRICES["a3"]
    assert components(a3, [1, 2, 3]) == ((1, 2, 3),)
    assert components(a3, [1, 3]) == ((1,), (3,))
    d4 = MATRICES["d4"]
    assert components(d4, [1, 3, 4]) == ((1,), (3,), (4,))
    with pytest.raises(IndexError):
        components(a3, [0, 1])


def test_components_partition_property():
    d4 = MATRICES["d4"]
    comps = components(d4, [1, 2, 3, 4])
    flat = sorted(s for c in comps for s in c)
    assert flat == [1, 2, 3, 4]
    # no edge with label >= 3 may cross two parts
    for i, ci in enumerate(comps):
        for cj in comps[i + 1:]:
            for s in ci:
                for t in cj:
                    assert d4.m(s, t) == 2


def labels_of(matrix, subset):
    labs = classify_finite(matrix, subset)
    return None if labs is None else sorted(str(lab) for lab in labs)


def test_classify_type_a():
    assert labels_of(MATRICES["a3"], [1, 2, 3]) == ["A3"]
    assert labels_of(MATRICES["a3"], [1, 3]) == ["A1", "A1"]
    assert labels_of(MATRICES["a5"], [1, 2, 3, 4, 5]) == ["A5"]


def test_classify_cycle_is_infinite():
    assert classify_finite(MATRICES["triangle"], [1, 2, 3]) is None


def test_classify_finite_is_memoized_per_matrix_and_set():
    # one entry per set of generators, whatever its order or repeats; an
    # out-of-range generator raises every time, as nothing is stored for it;
    # equality and hashing ignore the memo
    d4 = CoxeterMatrix(MATRICES["d4"].entries)
    first = classify_finite(d4, [4, 1, 2])
    assert classify_finite(d4, (1, 2, 2, 4)) is first
    assert classify_finite(d4, iter([2, 4, 1])) is first
    assert classify_finite(d4, [1, 3]) != first
    for _ in range(2):
        with pytest.raises(IndexError):
            classify_finite(d4, [1, 5])
    assert d4 == MATRICES["d4"] and hash(d4) == hash(MATRICES["d4"])
    assert labels_of(d4, [1, 2, 3, 4]) == ["D4"]


def test_classify_dihedral():
    assert labels_of(MATRICES["b2"], [1, 2]) == ["B2"]
    assert labels_of(MATRICES["a2"], [1, 2]) == ["A2"]
    assert labels_of(MATRICES["i25"], [1, 2]) == ["I2(5)"]
    assert labels_of(MATRICES["i26"], [1, 2]) == ["I2(6)"]
    assert classify_finite(MATRICES["dinf"], [1, 2]) is None


def test_classify_b_h_f():
    assert labels_of(MATRICES["b3"], [1, 2, 3]) == ["B3"]
    h3 = CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3})
    assert labels_of(h3, [1, 2, 3]) == ["H3"]
    h4 = CoxeterMatrix.from_labels(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3})
    assert labels_of(h4, [1, 2, 3, 4]) == ["H4"]
    f4 = CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3})
    assert labels_of(f4, [1, 2, 3, 4]) == ["F4"]
    # the 4 must sit on the middle edge of a 4-chain and nowhere else
    f5ish = CoxeterMatrix.from_labels(
        5, {(1, 2): 3, (2, 3): 4, (3, 4): 3, (4, 5): 3}
    )
    assert classify_finite(f5ish, [1, 2, 3, 4, 5]) is None
    b4 = CoxeterMatrix.from_labels(4, {(1, 2): 4, (2, 3): 3, (3, 4): 3})
    assert labels_of(b4, [1, 2, 3, 4]) == ["B4"]


def test_classify_d_e():
    assert labels_of(MATRICES["d4"], [1, 2, 3, 4]) == ["D4"]
    d5 = CoxeterMatrix.from_labels(
        5, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}
    )
    assert labels_of(d5, [1, 2, 3, 4, 5]) == ["D5"]
    e6 = CoxeterMatrix.from_labels(
        6, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (2, 4): 3}
    )
    assert labels_of(e6, [1, 2, 3, 4, 5, 6]) == ["E6"]
    e7 = CoxeterMatrix.from_labels(
        7, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3, (2, 4): 3}
    )
    assert labels_of(e7, list(range(1, 8))) == ["E7"]
    e8 = CoxeterMatrix.from_labels(
        8, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3, (7, 8): 3,
            (2, 4): 3}
    )
    assert labels_of(e8, list(range(1, 9))) == ["E8"]
    # affine-style branched shapes are infinite
    e6tilde = CoxeterMatrix.from_labels(
        7, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (2, 4): 3, (2, 7): 3}
    )
    assert classify_finite(e6tilde, list(range(1, 8))) is None
    star = CoxeterMatrix.from_labels(
        5, {(1, 5): 3, (2, 5): 3, (3, 5): 3, (4, 5): 3}
    )
    assert classify_finite(star, [1, 2, 3, 4, 5]) is None


def test_classify_two_heavy_edges_infinite():
    c2tilde = CoxeterMatrix.from_labels(3, {(1, 2): 4, (2, 3): 4})
    assert classify_finite(c2tilde, [1, 2, 3]) is None
    g2tilde = CoxeterMatrix.from_labels(3, {(1, 2): 6, (2, 3): 3})
    assert classify_finite(g2tilde, [1, 2, 3]) is None


def test_orders():
    assert coxeter_order(MATRICES["a3"], [1, 2, 3]) == 24
    assert coxeter_order(MATRICES["b3"], [1, 2, 3]) == 48
    assert coxeter_order(MATRICES["d4"], [1, 2, 3, 4]) == 192
    assert coxeter_order(MATRICES["i26"], [1, 2]) == 12
    assert coxeter_order(MATRICES["a3"], [1, 3]) == 4
    assert coxeter_order(MATRICES["triangle"], [1, 2, 3]) is None
    h3 = CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3})
    assert coxeter_order(h3, [1, 2, 3]) == 120
    f4 = CoxeterMatrix.from_labels(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3})
    assert coxeter_order(f4, [1, 2, 3, 4]) == 1152


def test_positive_root_count():
    # the length of the longest element, found greedily from descents,
    # is the positive root count of the classification
    from coxfold.words import CoxeterGroup

    cases = {
        "A4": (a_matrix(4), 10),
        "B4": (CoxeterMatrix.from_labels(
            4, {(1, 2): 3, (2, 3): 3, (3, 4): 4}), 16),
        "D5": (CoxeterMatrix.from_labels(
            5, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}), 20),
        "E6": (CoxeterMatrix.from_labels(
            6, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (2, 4): 3}), 36),
        "F4": (CoxeterMatrix.from_labels(
            4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}), 24),
        "H3": (CoxeterMatrix.from_labels(3, {(1, 2): 5, (2, 3): 3}), 15),
        "H4": (CoxeterMatrix.from_labels(
            4, {(1, 2): 5, (2, 3): 3, (3, 4): 3}), 60),
        "I2(7)": (CoxeterMatrix.from_labels(2, {(1, 2): 7}), 7),
    }
    for name, (matrix, count) in cases.items():
        (label,) = classify_finite(matrix, matrix.generators())
        assert str(label) == name
        assert label.positive_root_count == count
        W = CoxeterGroup(matrix)
        assert W.longest_element(matrix.generators()).length == count
    assert [lab.positive_root_count for lab in classify_finite(
        MATRICES["a3"], [1, 3])] == [1, 1]
    e7 = classify_finite(CoxeterMatrix.from_labels(
        7, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3, (2, 4): 3}),
        range(1, 8))
    e8 = classify_finite(CoxeterMatrix.from_labels(
        8, {(1, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3, (7, 8): 3,
            (2, 4): 3}), range(1, 9))
    assert (e7[0].positive_root_count, e8[0].positive_root_count) == (63, 120)


def test_validate_field_degree_cap():
    # 2cos(pi/1000) needs the cyclotomic field of degree phi(2000) = 800
    huge = CoxeterMatrix.from_labels(2, {(1, 2): 1000})
    (err,) = validate(huge)
    assert "phi(2000) = 800 exceeds the degree cap 64" in err
    # phi(128) = 64 is exactly the cap
    assert validate(CoxeterMatrix.from_labels(2, {(1, 2): 64})) == []
    # two large prime labels: rejected by a bound, without factoring N
    primes = CoxeterMatrix.from_labels(
        3, {(1, 2): 1_000_000_007, (2, 3): 998_244_353})
    (err,) = validate(primes)
    assert "exceeds the degree cap 64" in err
    with pytest.raises(ParseError, match="degree cap"):
        parse_input("rank 2\nm 1 2 1000\nauto id\n")


def test_type_string():
    assert type_string(MATRICES["a3"]) == "A3"
    assert type_string(MATRICES["a3"], [1, 3]) == "A1 x A1"
    assert type_string(MATRICES["triangle"]) == "infinite"
    assert type_string(MATRICES["dinf"]) == "I2(inf)"
    assert type_string(MATRICES["a3"], []) == "trivial"


# ---------------------------------------------------------------------------
# input files


GOOD = """\
# a comment line
rank 3
m 1 2 3   # trailing comment
m 2 3 inf

auto flip 1>3 3>1
auto id
"""


def test_parse_good():
    parsed = parse_input(GOOD)
    m = parsed.matrix
    assert m.rank == 3
    assert m.m(1, 2) == 3
    assert m.m(2, 3) == INF
    assert m.m(1, 3) == 2  # unlisted pairs default to 2
    assert parsed.autos == (("flip", (3, 2, 1)), ("id", (1, 2, 3)))


def problems_of(text):
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    return exc.value.problems


def test_parse_requires_rank_first():
    probs = problems_of("m 1 2 3\nrank 2\n")
    assert probs[0][0] == 1
    assert "rank" in probs[0][1]


def test_parse_duplicate_pair():
    probs = problems_of("rank 2\nm 1 2 3\nm 2 1 4\n")
    assert any(ln == 3 and "duplicate m line" in msg for ln, msg in probs)


def test_parse_bad_indices_and_labels():
    probs = problems_of("rank 2\nm 1 3 3\nm 1 1 3\nm 1 2 1\n")
    assert any(ln == 2 and "out of range" in msg for ln, msg in probs)
    assert any(ln == 3 and "diagonal" in msg for ln, msg in probs)
    assert any(ln == 4 and ">= 2" in msg for ln, msg in probs)


def test_parse_bad_auto():
    probs = problems_of("rank 3\nauto bad 1>2\n")
    assert any("not a permutation" in msg for _, msg in probs)
    probs = problems_of("rank 3\nauto dup 1>2 1>3\n")
    assert any("duplicate source" in msg for _, msg in probs)
    probs = problems_of("rank 3\nauto oob 1>9\n")
    assert any("out of range" in msg for _, msg in probs)


def test_parse_unknown_directive():
    probs = problems_of("rank 2\nfrobnicate 1\n")
    assert any("unknown directive" in msg for _, msg in probs)


def test_parse_empty():
    probs = problems_of("# nothing\n")
    assert any("no rank" in msg for _, msg in probs)


@pytest.mark.parametrize("position", NUMBER_POSITIONS)
@pytest.mark.parametrize("token", BAD_NUMBERS, ids=lambda t: repr(t)[:8])
def test_parse_rejects_numbers_that_are_not_ascii_digits(position, token):
    template, message = NUMBER_POSITIONS[position]
    (problem,) = problems_of(template.format(token))
    assert problem[0] in (1, 2) and message in problem[1]


@pytest.mark.parametrize("token", BAD_NUMBERS, ids=lambda t: repr(t)[:8])
def test_word_rejects_letters_that_are_not_ascii_digits(token):
    with pytest.raises(ValueError, match="bad word letter"):
        parse_word(f"1 {token} 2", 3)


def test_leading_zeros_are_read():
    parsed = parse_input("rank 0003\nm 0001 0002 0003\n"
                         "auto f 0001>0003 0003>0001\n")
    assert parsed.matrix.rank == 3 and parsed.matrix.m(1, 2) == 3
    assert parsed.autos == (("f", (3, 2, 1)),)
    assert parse_word("0001 02", 3) == (1, 2)
