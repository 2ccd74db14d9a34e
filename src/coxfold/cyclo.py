"""Exact arithmetic for real cyclotomic values.

Scalars of the geometric reflection action are rational combinations of
2cos(k*pi/N).  We represent them inside the cyclotomic field of order 2N:
an element is a rational polynomial in zeta = exp(i*pi/N), reduced modulo
the 2N-th cyclotomic polynomial.  Real values are exactly the polynomials
invariant under zeta -> zeta^(-1); all constructors here produce such
values and the ring operations preserve them.

Equality is decided on canonical forms, so it is exact.  Sign queries fall
back to adaptive-precision interval evaluation (mpmath.iv): double the
working precision until the enclosing interval excludes zero.  That loop
terminates for every nonzero input because a nonzero algebraic number is
bounded away from zero.  mpmath is imported on the first such evaluation,
so a run that tests no sign, such as a fold of a finite W, never loads
it.  The enclosures of cos(k*pi/N) depend only on the context and the
working precision, so each context computes them once per precision and
every evaluation at that precision reuses them.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

INF = math.inf

#: working-precision schedule for interval sign evaluation
_SIGN_START_PREC = 64
_SIGN_MAX_PREC = 1 << 16

#: largest field degree phi(2N) a Coxeter matrix may ask for
DEGREE_CAP = 64

# mpmath's interval context keeps its precision in module-global state, so
# evaluations, and the import of mpmath on the first of them, are
# serialized.  The memo makes repeated queries on the same canonical value
# free; results are precision-independent, so the cache is observationally
# absent.
_EVAL_LOCK = threading.Lock()
_SIGN_MEMO: dict[tuple, int] = {}


class PrecisionExhausted(ArithmeticError):
    """Interval evaluation hit the precision cap without excluding zero.

    This is a hard internal failure: it can only happen for a nonzero value
    whose magnitude is below 2^-_SIGN_MAX_PREC, far outside the scale of the
    values this package produces.
    """


class ContextMismatch(ValueError):
    """Arithmetic between values from different cyclotomic contexts."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, index = power)


def _int_poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic up to sign).

    Raises ArithmeticError, naming both polynomials, when den does not
    divide num."""
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    q = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        if c % lead:
            raise ArithmeticError(
                f"{list(den)!r} does not divide {list(num)!r}: leading "
                f"coefficient {lead} does not divide {c} at degree {k}")
        f = c // lead
        q[k - dd] = f
        for j, dj in enumerate(den):
            rem[k - dd + j] -= f * dj
    if any(rem):
        raise ArithmeticError(
            f"{list(den)!r} does not divide {list(num)!r}: remainder {rem!r}")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Built the classical way: divide x^n - 1 by the cyclotomic polynomials
    of the proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _int_poly_divexact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# ---------------------------------------------------------------------------


class ArithContext:
    """Field data for exact arithmetic with the labels of one Coxeter matrix.

    N is the lcm of 2 and every finite off-diagonal label, so 2cos(pi/m) is
    representable for every label m.  The modulus is the 2N-th cyclotomic
    polynomial; its degree phi(2N) bounds every canonical form.
    """

    __slots__ = ("N", "modulus", "degree", "_zero", "_one", "_two_cos_cache",
                 "_cos_enclosures")

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("N must be positive")
        if N == 1:
            N = 2
        problem = degree_problem(N)
        if problem:
            raise ValueError(problem)
        deg = euler_phi(2 * N)
        self.N = N
        self.modulus = cyclotomic_polynomial(2 * N)
        self.degree = deg
        self._zero = CycloReal(self, (0,) * deg)
        self._one = CycloReal(self, (1,) + (0,) * (deg - 1))
        self._two_cos_cache: dict[object, CycloReal] = {}
        # working precision -> enclosures of cos(k*pi/N), k < degree
        self._cos_enclosures: dict[int, tuple] = {}

    def __repr__(self):
        return f"ArithContext(N={self.N}, degree={self.degree})"

    def __eq__(self, other):
        return isinstance(other, ArithContext) and other.N == self.N

    def __hash__(self):
        return hash(("ArithContext", self.N))

    @property
    def zero(self) -> CycloReal:
        return self._zero

    @property
    def one(self) -> CycloReal:
        return self._one

    def from_rational(self, q) -> CycloReal:
        return CycloReal(self, (_coeff(q),) + (0,) * (self.degree - 1))

    def zeta_power(self, k: int) -> CycloReal:
        """zeta^k as an element of the field (not real in general)."""
        coeffs = [0] * (2 * self.N)
        coeffs[k % (2 * self.N)] = 1
        return CycloReal(self, self._reduce(coeffs))

    def two_cos_pi_over(self, m) -> CycloReal:
        """Exact 2cos(pi/m); m = INF yields 2 by convention."""
        try:
            return self._two_cos_cache[m]
        except KeyError:
            pass
        if m == INF:
            val = self.from_rational(2)
        else:
            m = int(m)
            if m < 2:
                raise ValueError(f"label must be at least 2, got {m}")
            if self.N % m != 0:
                raise ValueError(f"label {m} does not divide N = {self.N}")
            k = self.N // m
            val = self.zeta_power(k) + self.zeta_power(2 * self.N - k)
        self._two_cos_cache[m] = val
        return val

    def cos_enclosures(self) -> tuple:
        """Intervals enclosing cos(k*pi/N) for k < degree, at mpmath.iv's
        current precision.  The caller holds _EVAL_LOCK, which guards both
        that precision and this cache."""
        import mpmath

        prec = mpmath.iv.prec
        table = self._cos_enclosures.get(prec)
        if table is None:
            step = mpmath.iv.pi / self.N
            table = self._cos_enclosures[prec] = (mpmath.iv.mpf(1),) + tuple(
                mpmath.iv.cos(step * k) for k in range(1, self.degree)
            )
        return table

    def matmul(self, outer, inner) -> tuple:
        """Product of two matrices over this field, each given by its
        columns: column j of the result is sum_t inner[j][t] * outer[t].

        One fused kernel.  Each entry accumulates the coefficient
        convolutions of its scalar products in one plain list and is
        reduced once, so no CycloReal is built for a product or a partial
        sum.  Reduction is linear, so the canonical form is the one that
        CycloReal `*` and `+` give.  It is _reduce's elimination, but
        skipping the zero coefficients of the modulus, most of them."""
        d = self.degree
        size = 2 * d - 1
        tail = [(j, m) for j, m in enumerate(self.modulus[:d]) if m]
        high = range(size - 1, d - 1, -1)
        rows = range(len(outer[0]) if outer else 0)
        # the nonzero (power, coefficient) pairs of every entry of outer
        terms = [[[(p, c) for p, c in enumerate(x.coeffs) if c] for x in col]
                 for col in outer]
        out = []
        for col in inner:
            parts = [(pairs, terms[t]) for t, x in enumerate(col)
                     if (pairs := [(p, c) for p, c in enumerate(x.coeffs) if c])]
            new = []
            for i in rows:
                acc = [0] * size
                for pairs, column in parts:
                    other = column[i]
                    for p, a in pairs:
                        for q, b in other:
                            acc[p + q] += a * b
                for k in high:
                    c = acc[k]
                    if c:
                        for j, m in tail:
                            acc[k - d + j] -= c * m
                new.append(CycloReal(self, tuple(acc[:d])))
            out.append(tuple(new))
        return tuple(out)

    def _reduce(self, coeffs: list) -> tuple:
        """Reduce a coefficient list modulo the cyclotomic modulus."""
        d = self.degree
        mod = self.modulus
        coeffs = list(coeffs)
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                coeffs[k] = 0
                for j in range(d):
                    mj = mod[j]
                    if mj:
                        coeffs[k - d + j] -= c * mj
        out = coeffs[:d]
        if len(out) < d:
            out.extend([0] * (d - len(out)))
        return tuple(out)


def _coeff(q):
    """Normalize a rational coefficient: plain int when exact.

    Coefficients are rationals; the values the reflection action produces
    are in fact algebraic integers, and int arithmetic is much faster than
    Fraction.  Mixing the two is safe because the numeric tower makes
    Fraction(n) and n equal with equal hashes, so canonical forms and
    their comparisons are unaffected.
    """
    if isinstance(q, int):
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class CycloReal:
    """An exact real number in the cyclotomic field of order 2N.

    Immutable; canonical form is the reduced coefficient tuple, so equality
    and hashing are structural.
    """

    __slots__ = ("ctx", "coeffs", "_hash", "_sign")

    def __init__(self, ctx: ArithContext, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs
        self._hash = None
        self._sign = None

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloReal):
            if other.ctx.N != self.ctx.N:
                raise ContextMismatch(
                    f"mixing contexts N={self.ctx.N} and N={other.ctx.N}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloReal(self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloReal(self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloReal(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ctx.zero
            if other == 1:
                return self
            q = _coeff(other)
            return CycloReal(self.ctx, tuple(a * q for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return CycloReal(self.ctx, self.ctx._reduce(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CycloReal):
            return self.ctx.N == other.ctx.N and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.from_rational(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ctx.N, self.coeffs))
        return h

    def __repr__(self):
        return f"CycloReal(N={self.ctx.N}, {self.coeffs!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if k == 0 else f"{c}*z^{k}")
        return " + ".join(parts)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def conjugate(self) -> CycloReal:
        """Image under zeta -> zeta^(-1); fixed points are the real values."""
        twoN = 2 * self.ctx.N
        out = [0] * twoN
        for k, c in enumerate(self.coeffs):
            if c:
                out[(-k) % twoN] += c
        return CycloReal(self.ctx, self.ctx._reduce(out))

    def is_real(self) -> bool:
        return self.conjugate() == self

    # -- sign and numeric views ----------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        s = self._sign
        if s is None:
            s = self._sign = self._compute_sign()
        return s

    def _compute_sign(self) -> int:
        if self.is_zero():
            return 0
        key = (self.ctx.N, self.coeffs)
        with _EVAL_LOCK:
            import mpmath

            memo = _SIGN_MEMO.get(key)
            if memo is not None:
                return memo
            saved = mpmath.iv.prec
            try:
                prec = _SIGN_START_PREC
                while prec <= _SIGN_MAX_PREC:
                    mpmath.iv.prec = prec
                    total = self._interval_value()
                    if total > 0:
                        _SIGN_MEMO[key] = 1
                        return 1
                    if total < 0:
                        _SIGN_MEMO[key] = -1
                        return -1
                    prec *= 2
            finally:
                mpmath.iv.prec = saved
        raise PrecisionExhausted(
            f"sign undecided at {_SIGN_MAX_PREC} bits for nonzero value "
            f"{self.coeffs!r} (N={self.ctx.N})"
        )

    def _interval_value(self):
        # the value is real, so it equals the real part sum c_k cos(k*pi/N)
        import mpmath

        cos = self.ctx.cos_enclosures()
        total = mpmath.iv.mpf(0)
        for k, c in enumerate(self.coeffs):
            if c:
                total += cos[k] * mpmath.iv.mpf(c.numerator) / c.denominator
        return total

    def __float__(self):
        # non-rigorous float view, for display and test oracles only
        return float(
            sum(float(c) * math.cos(k * math.pi / self.ctx.N)
                for k, c in enumerate(self.coeffs) if c)
        )

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0


def label_lcm(matrix) -> int:
    """N = lcm(2, finite labels): 2cos(pi/m) is in the field for every label m."""
    N = 2
    for i in range(1, matrix.rank + 1):
        for j in range(i + 1, matrix.rank + 1):
            v = matrix.m(i, j)
            if v != INF:
                N = math.lcm(N, int(v))
    return N


def degree_problem(N: int) -> str | None:
    """Why the field for N is too large, or None when phi(2N) fits the cap."""
    # phi(n) >= sqrt(n/2), so phi(2N) > cap once N > cap^2; deciding that
    # without factoring keeps huge (e.g. prime) labels from stalling here
    if N > DEGREE_CAP * DEGREE_CAP:
        return (f"rank/label combination too large: phi({2 * N}) "
                f"exceeds the degree cap {DEGREE_CAP}")
    deg = euler_phi(2 * N)
    if deg > DEGREE_CAP:
        return (f"rank/label combination too large: phi({2 * N}) = {deg} "
                f"exceeds the degree cap {DEGREE_CAP}")
    return None


def make_context(matrix) -> ArithContext:
    """Context sized for a Coxeter matrix: N = lcm(2, finite labels)."""
    return ArithContext(label_lcm(matrix))
