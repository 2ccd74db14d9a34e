import math
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from coxfold import cyclo

from coxfold.coxeter import CoxeterMatrix
from coxfold.cyclo import (
    INF,
    ArithContext,
    ContextMismatch,
    cyclotomic_polynomial,
    euler_phi,
    make_context,
)

from coxfold.verify import enumerate_ball
from coxfold.words import CoxeterGroup

import oracles
from conftest import MATRICES, matrix_engine_group


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 40):
        poly = cyclotomic_polynomial(n)
        assert len(poly) - 1 == euler_phi(n)
        assert poly[-1] == 1


def test_inexact_polynomial_division_raises():
    with pytest.raises(ArithmeticError, match="remainder"):
        cyclo._int_poly_divexact([1, 0, 1], [-1, 1])
    with pytest.raises(ArithmeticError, match="does not divide 1"):
        cyclo._int_poly_divexact([1, 0, 1], [1, 2])


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 12, 20, 36)] == [1, 1, 2, 2, 4, 8, 12]


def test_context_sizes_from_matrices():
    ctx = make_context(MATRICES["a3"])
    assert (ctx.N, ctx.degree) == (6, 4)
    ctx = make_context(MATRICES["i25"])
    assert (ctx.N, ctx.degree) == (10, 8)
    ctx = make_context(MATRICES["dinf"])
    assert (ctx.N, ctx.degree) == (2, 2)


def test_degree_cap():
    big = CoxeterMatrix.from_labels(2, {(1, 2): 97})
    with pytest.raises(ValueError, match="too large"):
        make_context(big)


def test_two_cos_small_labels():
    ctx = ArithContext(12)
    assert ctx.two_cos_pi_over(2) == ctx.zero
    assert ctx.two_cos_pi_over(3) == ctx.one
    root2 = ctx.two_cos_pi_over(4)
    assert root2 * root2 == 2
    root3 = ctx.two_cos_pi_over(6)
    assert root3 * root3 == 3
    assert ctx.two_cos_pi_over(INF) == 2


def test_two_cos_golden_ratio():
    ctx = ArithContext(10)
    x = ctx.two_cos_pi_over(5)
    # minimal relation x^2 - x - 1 = 0, and x is the positive root
    assert x * x - x == ctx.one
    assert x.sign() > 0
    assert math.isclose(oracles.approx(x), 2 * math.cos(math.pi / 5),
                        abs_tol=1e-12)


def test_label_must_divide_n():
    ctx = ArithContext(6)
    with pytest.raises(ValueError, match="does not divide"):
        ctx.two_cos_pi_over(5)


def test_ring_ops_and_canonical_equality():
    ctx = ArithContext(10)
    x = ctx.two_cos_pi_over(5)
    assert x + (-x) == ctx.zero
    assert (x - x).is_zero()
    triple = x * 3
    assert x + x + x == triple == 3 * x
    assert hash(x + x + x) == hash(triple)
    assert x * -1 == -x
    assert x * 0 == ctx.zero and x * 1 == x


def test_integer_operands():
    ctx = ArithContext(10)
    x = ctx.two_cos_pi_over(5)
    assert ctx.one * 3 == 3
    assert 3 - x == -(x - 3) and 3 + x == x + 3
    assert x * x == x + 1 and x * x != x


@pytest.mark.parametrize("op", [lambda x: x * Fraction(1, 2),
                                lambda x: Fraction(1, 2) * x,
                                lambda x: x + 0.5,
                                lambda x: Fraction(1, 2) - x,
                                lambda x: x - 0.5],
                         ids=["mul-fraction", "rmul-fraction", "add-float",
                              "rsub-fraction", "sub-float"])
def test_non_integer_scalars_raise_type_error(op):
    # the values are algebraic integers: no operation takes a rational
    with pytest.raises(TypeError):
        op(ArithContext(10).two_cos_pi_over(5))


def test_context_mismatch():
    a = ArithContext(6).one
    b = ArithContext(10).one
    with pytest.raises(ContextMismatch):
        a + b
    assert a != b


def test_sign_examples():
    ctx = ArithContext(6)
    assert ctx.zero.sign() == 0
    assert ctx.two_cos_pi_over(3).sign() == 1
    assert (-ctx.two_cos_pi_over(3)).sign() == -1
    # 2cos(pi/5) > 2cos(pi/4): both live in the N=20 field
    wide = ArithContext(20)
    diff = wide.two_cos_pi_over(5) - wide.two_cos_pi_over(4)
    assert diff.sign() == 1
    assert (-diff).sign() == -1


def test_sign_escalates_precision_for_tiny_values():
    # x - p/q for a rational p/q within 1e-50 of x, written as the integer
    # value q*x - p: it cannot be decided at the starting 64 bits, and the
    # doubling loop must still land on the correct sign
    ctx = ArithContext(30)
    x = ctx.two_cos_pi_over(30)
    with mpmath.workdps(60):
        true = 2 * mpmath.cos(mpmath.pi / 30)
        below = Fraction(mpmath.nstr(true - mpmath.mpf(10) ** -50, 55))
        above = Fraction(mpmath.nstr(true + mpmath.mpf(10) ** -50, 55))
    assert _minus(x, below).sign() == 1
    assert _minus(x, above).sign() == -1


def test_sign_zero_iff_canonical_zero():
    ctx = ArithContext(10)
    x = ctx.two_cos_pi_over(5)
    y = x * x - x - 1
    assert y.is_zero() and y.sign() == 0


def _random_value(ctx, rng, atoms):
    v = ctx.one * rng.randint(-3, 3)
    for _ in range(rng.randint(1, 4)):
        a = atoms[rng.randrange(len(atoms))]
        op = rng.randrange(3)
        if op == 0:
            v = v + a
        elif op == 1:
            v = v - a
        else:
            v = v * a
    return v


def test_float_oracle_regression():
    # canonical arithmetic agrees with floating evaluation on 1000 random
    # ring expressions
    ctx = ArithContext(30)  # labels 2,3,5,6,10,15,30 representable
    rng = random.Random(20240917)
    atoms = [ctx.two_cos_pi_over(m) for m in (2, 3, 5, 6, 10, 15)]
    for _ in range(1000):
        v = _random_value(ctx, rng, atoms)
        w = _random_value(ctx, rng, atoms)
        exact = v * w + v - w
        fv, fw = oracles.approx(v), oracles.approx(w)
        assert math.isclose(oracles.approx(exact), fv * fw + fv - fw,
                            rel_tol=0, abs_tol=1e-9)


def test_sign_positivity_closure():
    ctx = ArithContext(30)
    rng = random.Random(7)
    atoms = [ctx.two_cos_pi_over(m) for m in (3, 5, 6, 10)]
    positives = []
    for _ in range(200):
        v = _random_value(ctx, rng, atoms)
        s = v.sign()
        assert s in (-1, 0, 1)
        assert (s == 0) == v.is_zero()
        if s > 0:
            positives.append(v)
    for a, b in zip(positives, positives[1:]):
        assert (a * b).sign() > 0
        assert (a + b).sign() > 0


def test_conjugation_invariance_preserved():
    ctx = ArithContext(20)
    rng = random.Random(11)
    atoms = [ctx.two_cos_pi_over(m) for m in (4, 5, 10, 20)]
    for _ in range(100):
        v = _random_value(ctx, rng, atoms)
        w = _random_value(ctx, rng, atoms)
        for out in (v + w, v - w, v * w, -v, v * -7):
            assert oracles.conjugate(out) == out


def test_zeta_power_not_real():
    ctx = ArithContext(6)
    z = ctx.zeta_power(1)
    assert oracles.conjugate(z) != z
    assert oracles.conjugate(z + ctx.zeta_power(11)) == z + ctx.zeta_power(11)


# -- the fixed-point sign test, against mpmath as an independent oracle --------


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_cos_enclosures_contain_the_cosines(prec):
    bits = prec + cyclo._GUARD_BITS
    with mpmath.workprec(400):
        for N in range(2, 61):
            ctx = ArithContext(N)
            for k, (value, bound) in enumerate(ctx.cos_enclosures(prec)):
                true = mpmath.cos(mpmath.pi * k / N) * 2 ** bits
                assert abs(value - true) <= bound, (N, k)
                # the guard bits absorb the rounding: prec bits are exact
                assert bound < 1 << cyclo._GUARD_BITS


@pytest.mark.parametrize("bits", [96, 160, 288])
def test_pi_and_cos_bounds_hold_on_their_own(bits):
    # the table adds pi's bound to each cosine's, which would hide a
    # cosine bound that is too small
    one = 2 ** bits
    rng = random.Random(bits)
    with mpmath.workprec(400):
        value, bound = cyclo._pi(bits)
        assert abs(value - mpmath.pi * one) <= bound
        half_pi = int(mpmath.pi / 2 * one)
        for x in [0, 1, one // 3, one, half_pi] + [rng.randrange(half_pi)
                                                   for _ in range(20)]:
            value, bound = cyclo._cos(x, bits)
            assert abs(value - mpmath.cos(mpmath.mpf(x) / one) * one) <= bound


@pytest.mark.parametrize("prec", [64, 128])
@pytest.mark.parametrize("N", [5, 12, 42])
def test_cos_enclosures_equal_fresh_ones(N, prec):
    ctx = ArithContext(N)
    cached = ctx.cos_enclosures(prec)
    assert ctx.cos_enclosures(prec) is cached
    assert len(cached) == ctx.degree
    assert ArithContext(N).cos_enclosures(prec) == cached


@contextmanager
def _interval_prec(prec):
    saved = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        yield
    finally:
        mpmath.iv.prec = saved


def _reference_sign(x):
    """Sign by doubling the precision of mpmath's interval arithmetic."""
    if x.is_zero():
        return 0
    prec = 64
    while True:
        with _interval_prec(prec):
            total = mpmath.iv.mpf(0)
            for k, c in enumerate(x.coeffs):
                if c:
                    cos = (mpmath.iv.cos(mpmath.iv.pi / x.ctx.N * k) if k
                           else mpmath.iv.mpf(1))
                    total += cos * c
            if total > 0:
                return 1
            if total < 0:
                return -1
        prec *= 2


def _random_real(ctx, rng):
    v = ctx.zero
    for k in range(ctx.degree):
        v = v + ctx.zeta_power(k) * rng.randint(-4, 4)
    return v + oracles.conjugate(v)


def _minus(x, r):
    """q*x - p for r = p/q: an integer value with the sign of x - r."""
    return x * r.denominator - r.numerator


def _near(x, exponent, side):
    """A rational within about 10^-exponent of x, above it or below it; the
    tests use it through _minus, as the integer value q*x - p."""
    with mpmath.workdps(exponent + 20):
        true = mpmath.fsum(c * mpmath.cos(mpmath.pi * k / x.ctx.N)
                           for k, c in enumerate(x.coeffs) if c)
        return Fraction(mpmath.nstr(true + side * mpmath.mpf(10) ** -exponent,
                                    exponent + 10))


@pytest.mark.parametrize("N", [5, 12, 42])
def test_cached_signs_agree_with_uncached_evaluation(N):
    ctx = ArithContext(N)
    rng = random.Random(N)
    for i in range(50):
        x = _random_real(ctx, rng)
        assert x.sign() == _reference_sign(x)
        if i % 10 == 0:
            # values 1e-10 to 1e-50 from zero, on both sides
            for exponent in (10, 30, 50):
                for side in (1, -1):
                    y = _minus(x, _near(x, exponent, side))
                    assert y.sign() == _reference_sign(y) == -side


def test_precision_exhausted_below_what_a_tiny_value_needs(monkeypatch):
    ctx = ArithContext(30)
    x = ctx.two_cos_pi_over(15)
    y = _minus(x, _near(x, 50, 1))  # q*(about -1e-50): 256 bits decide it
    monkeypatch.setattr(cyclo, "_SIGN_MEMO", {})
    monkeypatch.setattr(cyclo, "_SIGN_MAX_PREC", 128)
    with pytest.raises(cyclo.PrecisionExhausted, match="undecided at 128 bits"):
        y._compute_sign()
    monkeypatch.setattr(cyclo, "_SIGN_MAX_PREC", 256)
    assert y._compute_sign() == -1


def test_signs_of_tiny_units(monkeypatch):
    # (2cos(pi/5) - 1)^k = phi^(-k) is a unit: as small as 1e-25 at k = 120,
    # with integer coefficients that grow like phi^k, so the high powers
    # escalate past the starting precision
    monkeypatch.setattr(cyclo, "_SIGN_MEMO", {})
    ctx = ArithContext(10)
    unit = ctx.two_cos_pi_over(5) - 1
    y = ctx.one
    escalated = 0
    with mpmath.workdps(120):
        phi = (1 + mpmath.sqrt(5)) / 2
        for k in range(1, 121):
            y = y * unit
            true = mpmath.fsum(c * mpmath.cos(mpmath.pi * j / ctx.N)
                               for j, c in enumerate(y.coeffs) if c)
            assert abs(true * phi ** k - 1) < mpmath.mpf(10) ** -40, k
            value, bound = y._interval_value(prec=cyclo._SIGN_START_PREC)
            escalated += abs(value) <= bound
            assert y.sign() == _reference_sign(y) == 1, k
            assert (-y).sign() == _reference_sign(-y) == -1, k
    assert escalated > 0


# -- the fused matrix kernel against one scalar object per product -------------


def _scalar_matmul(outer, inner, zero):
    """Column j is sum_t inner[j][t] * outer[t], one CycloReal `*` and `+`
    at a time."""
    out = []
    for col in inner:
        acc = [zero] * len(outer[0])
        for t, c in enumerate(col):
            acc = [a + c * x for a, x in zip(acc, outer[t])]
        out.append(tuple(acc))
    return tuple(out)


def _same(left, right):
    # canonical coefficient tuples, compared entry by entry
    return ([[x.coeffs for x in col] for col in left]
            == [[x.coeffs for x in col] for col in right])


KERNEL_GROUPS = {
    # name: (group builder, ball radius; None is all of a finite W)
    "affine-a2": (lambda: CoxeterGroup(MATRICES["triangle"]), 5),
    "tri443": (lambda: CoxeterGroup(CoxeterMatrix.from_labels(
        3, {(1, 2): 4, (1, 3): 4, (2, 3): 3})), 5),
    "tri237": (lambda: CoxeterGroup(CoxeterMatrix.from_labels(
        3, {(1, 2): 3, (2, 3): 7})), 6),
    "b3-matrix": (lambda: matrix_engine_group(MATRICES["b3"]), None),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_matmul_matches_scalar_products(name):
    build, radius = KERNEL_GROUPS[name]
    W = build()
    ctx = W.ctx
    actions = [w.inv_cols for w in enumerate_ball(W, radius).elements]
    if name == "tri237":
        assert ctx.degree == 24
    rng = random.Random(name)
    for _ in range(60):
        outer, inner = rng.choice(actions), rng.choice(actions)
        assert _same(ctx.matmul(outer, inner),
                     _scalar_matmul(outer, inner, ctx.zero))
    # a zero column, large and negative coefficients on both sides, and
    # zeta^(d-1) (not real) on both sides, so the top coefficient of a
    # product is hit
    big = ctx.two_cos_pi_over(ctx.N) * -(3 ** 45)
    top = ctx.zeta_power(ctx.degree - 1)
    odd = tuple(tuple(x * -(5 ** 30) for x in col) for col in actions[-1])
    odd = ((top,) + odd[0][1:],) + odd[1:]
    inner = ((ctx.zero,) * W.rank,
             (top, big) + (ctx.one,) * (W.rank - 2),
             actions[1][0]) + actions[-1][3:]
    for outer in (actions[-1], odd):
        product = ctx.matmul(outer, inner)
        assert _same(product, _scalar_matmul(outer, inner, ctx.zero))
        assert all(x.is_zero() for x in product[0])
    assert any(c < -2 ** 64 for col in ctx.matmul(odd, inner)
               for x in col for c in x.coeffs)


def test_matmul_of_empty_matrices():
    assert ArithContext(2).matmul((), ()) == ()


# -- no run imports mpmath or rational arithmetic --------------------------------


def test_mpmath_is_never_imported(tmp_path):
    root = Path(__file__).resolve().parent.parent
    path = tmp_path / "tri443.cox"
    path.write_text("rank 3\nm 1 2 4\nm 1 3 4\nm 2 3 3\nauto swap 2>3 3>2\n")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "import coxfold\n"
        "from coxfold import cli\n"
        "W = coxfold.CoxeterGroup(coxfold.parse_input("
        "'rank 3\\nm 1 2 3\\nm 2 3 4\\n').matrix)\n"
        "coxfold.fold(W, [coxfold.Automorphism((1, 2, 3))])\n"
        "assert (W.ctx.two_cos_pi_over(4) - 1).sign() == 1\n"
        f"assert cli.main(['verify', {str(path)!r}, '--radius', '4']) == 0\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_rational_arithmetic():
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "import coxfold.cli\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
