"""The property suite's product table against the exact-compose oracle.

`verify._Products` reads products of fixed elements off the generated
ball: an edge walk along the word of the right factor for a pair, one edge
per folded generator for an orbit word or an alternating product, and one
compose where a factor is outside the ball or a walk meets a truncated
edge.  Each product the checks use
must be the action that compose gives, and each (l adds, lambda adds)
pair of the length-additivity check must be the oracle's, on every golden
input at radius 5 (bounded balls that many products leave) and on the six
benchmark verify instances at radius 16.

Two more pins: the additivity and minimal-word checks make no compose at
all on the affine A2 flip at radius 16, where every product they take lies
in the ball; and three reports whose products often leave the ball keep
their bytes.
"""

import hashlib
import random

import pytest

from coxfold import cli
from coxfold.coxeter import classify_finite, coxeter_order, parse_input
from coxfold.cyclo import INF
from coxfold.folding import Automorphism, fold
from coxfold.verify import (
    EXCHANGE_LAMBDA_CAP,
    PAIR_CAP,
    SAMPLE_PAIRS,
    VerifyConfig,
    _Products,
    check_additivity_transfer,
    check_minimal_additivity,
    enumerate_ball,
    fixed_subgroup,
    generated_ball,
)
from coxfold.words import CoxeterGroup

from oracles import product_inv, reference_factorize
from test_bench_digests import INSTANCES as BENCH_INSTANCES
from test_golden import INPUTS as GOLDEN_INPUTS

CASES = ([(name, 5) for name in sorted(GOLDEN_INPUTS)]
         + [("bench:" + name, 16) for name in BENCH_INSTANCES])

HYPERBOLIC_ID = ("rank 4\nm 1 2 3\nm 1 3 4\nm 1 4 5\nm 2 3 6\nm 2 4 inf\n"
                 "m 3 4 5\nauto id\n")


def suite_parts(text, radius):
    """(folded system, fixed elements, generated ball) as property_suite
    builds them."""
    parsed = parse_input(text)
    group = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    folded = fold(group, autos)
    fm = folded.folded_matrix
    order = coxeter_order(fm, fm.generators())
    finite_w = classify_finite(group.matrix, group.generators()) is not None
    fixed = fixed_subgroup(enumerate_ball(group, None if finite_w else radius),
                           autos)
    gen_ball = generated_ball(group, [folded.longest[J] for J in folded.bar_s],
                              radius if order is None else None, order)
    return folded, fixed, gen_ball


def case_text(name):
    if name.startswith("bench:"):
        return BENCH_INSTANCES[name[len("bench:"):]]
    return GOLDEN_INPUTS[name]


@pytest.mark.parametrize("name,radius", CASES)
def test_pair_products_match_compose(name, radius):
    folded, fixed, gen_ball = suite_parts(case_text(name), radius)
    products = _Products(folded, gen_ball)
    compose = folded.group._engine.compose
    n = len(fixed)
    if n * n <= PAIR_CAP:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = random.Random(f"ball-products:{name}")
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(SAMPLE_PAIRS)]
    factors = [products.at(w.inv_cols) for w in fixed]
    lam = [folded.lambda_length(w) for w in fixed]
    for i, j in pairs:
        w, wp = fixed[i], fixed[j]
        z = products.product(factors[i], factors[j])
        assert z[1] == compose(wp.inv_cols, w.inv_cols), (w, wp)
        seq, letters = products.walk(z)
        adds = (letters == w.length + wp.length, len(seq) == lam[i] + lam[j])
        assert adds == folded.weight_additivity(w, wp), (w, wp)


@pytest.mark.parametrize("name,radius", CASES)
def test_walks_match_compose(name, radius):
    folded, fixed, gen_ball = suite_parts(case_text(name), radius)
    products = _Products(folded, gen_ball)
    compose = folded.group._engine.compose
    longest = folded.longest

    # the alternating products of the dihedral check, from both starts
    for det in folded.details:
        steps = 8 if det.label == INF else int(det.label)
        for first, second in ((det.orbit_a, det.orbit_b),
                              (det.orbit_b, det.orbit_a)):
            x, inv_cols = products.identity, folded.group._engine.identity
            for k in range(1, steps + 1):
                J = first if k % 2 else second
                x = products.times(x, J)
                inv_cols = compose(longest[J].inv_cols, inv_cols)
                assert x[1] == inv_cols, (det, k)

    # the orbit words of the minimal-word check
    rng = random.Random(f"orbit-words:{name}")
    for _ in range(100):
        word = [rng.choice(folded.bar_s)
                for _ in range(rng.randint(0, 6))] if folded.bar_s else []
        assert products.of_word(word) == product_inv(folded, word)

    # the folded-exchange probe lambda(w_J w), and the products that
    # folded_exchange asks for when the probe finds a descent
    asked = []

    def of_word(word):
        asked.append(list(word))
        return products.of_word(word)

    for w in fixed:
        word = folded.greedy_factorize(w)
        if len(word) > EXCHANGE_LAMBDA_CAP:
            continue
        x = products.at(w.inv_cols)
        for J in folded.bar_s:
            w_j_w = products.product(products.times(products.identity, J), x)
            exact = compose(w.inv_cols, longest[J].inv_cols)
            assert w_j_w[1] == exact, (w, J)
            lam = len(products.walk(w_j_w)[0])
            assert lam == len(reference_factorize(folded, exact)[0])
            if lam <= len(word):
                assert (folded.folded_exchange(word, J, of_word, w)
                        == folded.folded_exchange(
                            word, J, lambda u: product_inv(folded, u)))
    for word in asked:
        assert products.of_word(word) == product_inv(folded, word)


def test_checks_make_no_compose_inside_the_ball(monkeypatch):
    folded, fixed, gen_ball = suite_parts(BENCH_INSTANCES["affine-a2-flip"], 16)
    config = VerifyConfig(seed=0, radius=16)
    engine = folded.group._engine
    calls = []
    real = engine.compose
    monkeypatch.setattr(engine, "compose",
                        lambda outer, inner: calls.append(1) or real(outer, inner))
    products = _Products(folded, gen_ball)
    assert check_additivity_transfer(folded, fixed, config,
                                     products).status == "pass"
    assert check_minimal_additivity(folded, config, products).status == "pass"
    assert calls == []


# sha256 of `verify FILE --radius R --seed 0 --format json`.  At radius 2
# the dihedral walks (8 factors) and the minimal words (up to 6) leave the
# generated balls of the two triangle groups; on the rank-4 input with
# labels 3, 4, 5, 6, inf, 5 at radius 3, 2,052 of its 2,704 fixed pairs do.
FALLBACK_DIGESTS = {
    ("affine-a2-flip", 2):
        "c39aad562b685bc0c42def40a12494b65ded544ecbb76d0ccecd0a85910ad13d",
    ("tri443-swap", 2):
        "81c879804cc20b926421c5c42ea0586353599699a608b352c558839cf8524f11",
    ("hyperbolic-id", 3):
        "9d8e2169f49ed89eb5bdf704f842c0fd6595d439c67753f90f7195389a4c65b1",
}
FALLBACK_INPUTS = {**BENCH_INSTANCES, "hyperbolic-id": HYPERBOLIC_ID}


@pytest.mark.parametrize("name,radius", sorted(FALLBACK_DIGESTS))
def test_compose_fallback_report_digest(capsys, tmp_path, name, radius):
    path = tmp_path / (name + ".cox")
    path.write_text(FALLBACK_INPUTS[name])
    rc = cli.main(["verify", str(path), "--radius", str(radius), "--seed", "0",
                   "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == FALLBACK_DIGESTS[name, radius])
