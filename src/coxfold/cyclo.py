"""Exact arithmetic for real values in the cyclotomic integers.

Scalars of the geometric reflection action are integer combinations of
2cos(k*pi/N) = zeta^k + zeta^(-k), zeta = exp(i*pi/N): algebraic integers
of the cyclotomic field of order 2N.  An element is an integer polynomial
in zeta, reduced modulo the (monic) 2N-th cyclotomic polynomial, so its
coefficients stay integers.  Real values are exactly the polynomials
invariant under zeta -> zeta^(-1); the constructors here other than
zeta_power produce such values and the ring operations preserve them.

Equality is decided on canonical forms, so it is exact.  An integer
value's sign is read off its constant coefficient.  Any other sign is
decided on an enclosure in integer fixed point: each cos(k*pi/N) carries
an explicit error bound (pi from Machin's formula, cos from its Taylor
series), and the value sums them with its integer coefficients.  The
first enclosure is at 64 bits; when it contains zero, the second is at
the precision that the norm of the value proves enough, so a sign takes
at most two.  Each context computes the cosine enclosures once per
working precision.
"""

from __future__ import annotations

import math
from functools import lru_cache

INF = math.inf

#: working precision of the first enclosure of a sign, in bits
_SIGN_START_PREC = 64
#: bits carried below the working precision; they absorb the rounding
#: errors of pi and of the cosine series, which a cosine table checks stay
#: below 2^(_GUARD_BITS - 1) units: about 4 per bit, so up to 2^29 bits
_GUARD_BITS = 32

#: largest field degree phi(2N) a Coxeter matrix may ask for
DEGREE_CAP = 64

# The memo makes repeated queries on the same canonical value free; results
# are precision-independent, so the cache is observationally absent.
_SIGN_MEMO: dict[tuple, int] = {}


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
    result, m, p = n, n, 2
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
# fixed point: an integer v stands for v / one, one = 2^bits.  Each function
# returns (v, bound): the true number is within bound / one of v / one.


def _atan_inv(x: int, bits: int) -> tuple[int, int]:
    """arctan(1/x) for an integer x >= 2, by its alternating series.

    power = floor(one / x^(2j+1)) exactly, since floor(floor(a/b)/c) =
    floor(a/(bc)), so term j, floor(power / (2j+1)), is off by less than 1.
    The loop stops at the first j with power = 0; the tail from there is
    below its first term, one / x^(2j+1) < 1.  So the bound is j + 1."""
    power, total, j = (1 << bits) // x, 0, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        power //= x * x
        j += 1
    return total, j + 1


def _pi(bits: int) -> tuple[int, int]:
    """Machin's formula, pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    a, ea = _atan_inv(5, bits)
    b, eb = _atan_inv(239, bits)
    return 16 * a - 4 * b, 16 * ea + 4 * eb


def _cos(x: int, bits: int) -> tuple[int, int]:
    """cos(x / one) for 0 <= x / one <= 1.5716, by its Taylor series.

    With u = (x/one)^2 < 2.47, term j is tau_j = one u^j / (2j)!; it is
    computed as t_j = floor(floor(t_{j-1} x2 / one) / ((2j-1) 2j)) from
    t_0 = one and x2 = floor(x^2 / one) = one (u - d), 0 <= d < 1/one.
    Every step rounds down, so e_j = tau_j - t_j >= 0, and
        e_j < (u e_{j-1} + tau_{j-1} d) / ((2j-1) 2j) + 1,
    where tau_{j-1} d <= u^(j-1) / (2j-2)! < 1.24.  So e_1 < 1.5, and for
    j >= 2, e_{j-1} < 2 gives e_j < (2.47 * 2 + 1.24) / 12 + 1 < 2.  The
    loop stops at the first t_J = 0.  The terms fall from j = 1 on, so the
    alternating tail is at most tau_J = e_J < 2, and the bound is 2J."""
    x2 = x * x >> bits
    term = total = 1 << bits
    j = 0
    while term:
        j += 1
        term = (term * x2 >> bits) // ((2 * j - 1) * (2 * j))
        total += -term if j & 1 else term
    return total, 2 * j


# ---------------------------------------------------------------------------


def _operand(coeffs: tuple):
    """An entry as matmul reads it: its int value when only the constant
    coefficient is nonzero, else its nonzero (power, coefficient) pairs."""
    if any(coeffs[1:]):
        return [(p, c) for p, c in enumerate(coeffs) if c]
    return coeffs[0]


class ArithContext:
    """Field data for exact arithmetic with the labels of one Coxeter matrix.

    N is the lcm of 2 and every finite off-diagonal label, so 2cos(pi/m) is
    representable for every label m.  The modulus is the 2N-th cyclotomic
    polynomial; its degree phi(2N) bounds every canonical form.
    """

    __slots__ = ("N", "modulus", "degree", "_tail", "zero", "one",
                 "_two_cos_cache", "_cos_enclosures")

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
        # the nonzero coefficients below the (monic) top of the modulus
        self._tail = tuple((j, m) for j, m in enumerate(self.modulus[:deg]) if m)
        self.zero = CycloReal(self, (0,) * deg)
        self.one = CycloReal(self, (1,) + (0,) * (deg - 1))
        self._two_cos_cache: dict[object, CycloReal] = {}
        # working precision -> enclosures of cos(k*pi/N), k < degree
        self._cos_enclosures: dict[int, tuple] = {}

    def __repr__(self):
        return f"ArithContext(N={self.N}, degree={self.degree})"

    def __eq__(self, other):
        return isinstance(other, ArithContext) and other.N == self.N

    def __hash__(self):
        return hash(("ArithContext", self.N))

    def zeta_power(self, k: int) -> CycloReal:
        """zeta^k as an element of the field (not real in general)."""
        coeffs = [0] * (2 * self.N)
        coeffs[k % (2 * self.N)] = 1
        return CycloReal(self, self._reduce(coeffs))

    def two_cos_pi_over(self, m) -> CycloReal:
        """Exact 2cos(pi/m); m = INF yields 2 by convention."""
        val = self._two_cos_cache.get(m)
        if val is not None:
            return val
        if m == INF:
            val = CycloReal(self, (2,) + (0,) * (self.degree - 1))
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

    def cos_enclosures(self, prec: int) -> tuple:
        """(value, bound) in fixed point with unit 2^(prec + _GUARD_BITS)
        enclosing cos(k*pi/N), for k < degree; computed once per prec.
        Raises unless each bound is below 2^(_GUARD_BITS - 1)."""
        table = self._cos_enclosures.get(prec)
        if table is None:
            bits = prec + _GUARD_BITS
            pi, pi_bound = _pi(bits)
            N, enclosures = self.N, []
            for k in range(self.degree):
                j = min(k, N - k)       # cos(k*pi/N) = -cos(j*pi/N) if j < k
                c, bound = _cos(j * pi // N, bits)
                # j/N <= 1/2, so the argument is off by below pi_bound/2 + 1,
                # and cos is 1-Lipschitz
                enclosures.append((c if j == k else -c, bound + pi_bound + 1))
            if max(b for _, b in enclosures) >> (_GUARD_BITS - 1):
                raise ArithmeticError(f"cosine bounds at {prec} bits (N={N})"
                                      f" reach 2^{_GUARD_BITS - 1} units")
            table = self._cos_enclosures[prec] = tuple(enclosures)
        return table

    def matmul(self, outer, inner) -> tuple:
        """Product of two matrices over this field, each given by its
        columns: column j of the result is sum_t inner[j][t] * outer[t].

        One fused kernel, which builds no CycloReal for a product or a
        partial sum.  Each entry is read once, by _operand.  int by int adds
        to the constant coefficient, int by pairs scales, and only pairs by
        pairs convolves; an entry is reduced once, and only after a
        convolution.  A unit column e_t of inner gives outer[t] itself.
        Reduction is linear and canonical forms are unique, so every entry
        is the one that CycloReal `*` and `+` give."""
        d = self.degree
        size, zeros = 2 * d - 1, (0,) * (d - 1)
        rows = range(len(outer[0]) if outer else 0)
        terms = [[_operand(x.coeffs) for x in col] for col in outer]
        out = []
        for col in inner:
            parts = [(a, t) for t, x in enumerate(col)
                     if (a := _operand(x.coeffs)) != 0]
            if len(parts) == 1 and parts[0][0] == 1:
                out.append(outer[parts[0][1]])
                continue
            parts = [(a, terms[t]) for a, t in parts]
            new = []
            for i in rows:
                const, acc, convolved = 0, None, False
                for a, column in parts:
                    b = column[i]
                    if type(b) is int:
                        if type(a) is int:
                            const += a * b
                            continue
                        if not b:
                            continue
                    if acc is None:
                        acc = [0] * size
                    if type(a) is int:
                        for q, v in b:
                            acc[q] += a * v
                    elif type(b) is int:
                        for p, u in a:
                            acc[p] += u * b
                    else:
                        convolved = True
                        for p, u in a:
                            for q, v in b:
                                acc[p + q] += u * v
                if acc is None:
                    coeffs = (const,) + zeros
                else:
                    acc[0] += const
                    coeffs = self._reduce(acc) if convolved else tuple(acc[:d])
                new.append(CycloReal(self, coeffs))
            out.append(tuple(new))
        return tuple(out)

    def _reduce(self, coeffs: list) -> tuple:
        """Reduce a coefficient list of length at least degree modulo the
        cyclotomic modulus, in place."""
        d, tail = self.degree, self._tail
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                for j, m in tail:
                    coeffs[k - d + j] -= c * m
        return tuple(coeffs[:d])


class CycloReal:
    """An exact real algebraic integer of the cyclotomic field of order 2N.

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
        if isinstance(other, int):
            return CycloReal(self.ctx, (other,) + (0,) * (self.ctx.degree - 1))
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
        if isinstance(other, int):
            return CycloReal(self.ctx, tuple(a * other for a in self.coeffs))
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
        if isinstance(other, int):
            return self.coeffs == self._coerce(other).coeffs
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ctx.N, self.coeffs))
        return h

    def __repr__(self):
        return f"CycloReal(N={self.ctx.N}, {self.coeffs!r})"

    def __str__(self):
        return " + ".join(f"{c}" if k == 0 else f"{c}*z^{k}"
                          for k, c in enumerate(self.coeffs) if c) or "0"

    # -- zero test and sign -------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        s = self._sign
        if s is None:
            s = self._sign = self._compute_sign()
        return s

    def _compute_sign(self) -> int:
        """The sign from at most two enclosures, none for an integer (as
        canonical forms are unique, integers are the rational values).  Else
        x = sum a_k zeta^k is in the real subfield, of degree d = phi(2N)/2,
        where its norm is a nonzero integer and each of its d conjugates is
        at most A = sum |a_k|: |x| >= A^-(d-1) (Washington, GTM 83, ch. 2).
        At p bits the enclosure is off by at most A*B units of 2^-(p+g), B
        the widest bound of the table and g = _GUARD_BITS.  For p >= d*L,
        L = A.bit_length(), and B < 2^(g-1), which cos_enclosures checks,
        |x| 2^(p+g) > A 2^g > 2AB, so it decides.  64 bits come first, then
        d*L rounded up to a power of two, so that values share tables."""
        coeffs = self.coeffs
        if not any(coeffs[1:]):
            return (coeffs[0] > 0) - (coeffs[0] < 0)
        memo = _SIGN_MEMO.get(key := (self.ctx.N, coeffs))
        if memo is not None:
            return memo
        value, bound = self._interval_value(prec=_SIGN_START_PREC)
        if abs(value) <= bound:
            needed = self.ctx.degree // 2 * sum(map(abs, coeffs)).bit_length()
            prec = max(1 << (needed - 1).bit_length(), _SIGN_START_PREC)
            if prec > _SIGN_START_PREC:
                value, bound = self._interval_value(prec=prec)
            if abs(value) <= bound:  # an engine bug
                raise ArithmeticError(f"sign of {self!r} undecided at {prec}"
                                      " bits, where its norm bound decides it")
        return _SIGN_MEMO.setdefault(key, 1 if value > 0 else -1)

    def _interval_value(self, *, prec: int) -> tuple[int, int]:
        """(value, bound) enclosing this number in fixed point with unit
        2^(prec + _GUARD_BITS).  The number is real, so it equals
        sum c_k cos(k*pi/N), and each c_k is an integer, so the sum adds
        no rounding."""
        cos = self.ctx.cos_enclosures(prec)
        value = bound = 0
        for c, (v, b) in zip(self.coeffs, cos):
            if c:
                value += c * v
                bound += abs(c) * b
        return value, bound


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
