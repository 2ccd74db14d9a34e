"""The word problem for a Coxeter system, solved geometrically.

A group element is its canonical word plus the action of w^-1 on roots
(``inv_cols``), its one action.  It gives the left descents, hence the
normal form, and gamma(w) = w exactly when gamma(w^-1) = w^-1; the right
descents and the inverse come from the word.
Two engines compute with actions behind six primitives (identity, lmul,
rmul, compose, negative, fixes) and a descent scan (descent, descents):

* Finite W, as decided by classify_finite, uses a root-index table.  Its
  positive roots are the elementary roots below, checked against the
  classification; each root gets an index, positive roots first, and each
  simple reflection becomes a permutation of Phi.  An action is the string
  of root indices w(Phi), bytes up to 256 roots and str past them, every
  product is one translate, and a root is negative exactly when its index
  is at least |Phi+|, so one more translate flags the left descents.  The
  table is built on the first element operation, so constructing a group
  costs no more than the matrix setup.
* Infinite W uses the matrix engine: columns are the images of the simple
  roots in exact CycloReal coordinates, and a root is negative when its
  coordinates are.  lmul is an exact reflection; rmul and compose are
  matrix products, one call each of the fused kernel
  ``ArithContext.matmul``, which builds no scalar object per product.

Either way s is a left descent of w exactly when w^-1(alpha_s) is a
negative root.  It is a right descent when w(alpha_s) is, which one walk
of the word on the elementary roots below decides (``inversions``).

Next to the engine, built on first use, is the table of the finitely
many elementary roots (Brink and Howlett): the simple roots closed under
the simple reflections (``_root_closure``), the one place where roots
are closed.  The labels pick only the arithmetic of that one walk: one
int per coordinate when every label is 2, 3 or inf, and the integer
coefficients of the coordinates otherwise.  The table walks reduced
words without arithmetic: it drives the ShortLex automaton that lists
the balls of an infinite W, the exchange walks that decide gamma(w) = w
one appended letter at a time (``fixing_step``), so that the ball walk
drops every subtree that holds no fixed word, and, for every W, the
right descents, the exchange property (``exchange``) and the finiteness
probe, a greedy walk up by non-descents (``_grow``).  Longest elements
take the same walk on the engine's action (``longest_element``).  The
root table of a finite W is read off it: every positive root is
elementary.

The stored word of an Element is canonical: the ShortLex-least reduced
word, extracted by repeatedly peeling the smallest left descent
(``_strip``).  Equality of elements is equality of canonical words.  The
same walk down by descents gives coset decompositions.

Root vectors are tuples in simple-root coordinates, of CycloReal or (in
the elementary-root table) of their integer coefficient tuples; a root is
positive or negative as its nonzero coordinates are.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import methodcaller
from typing import Iterable, Sequence

from .coxeter import CoxeterMatrix, classify_finite, parse_number, validate
from .cyclo import ArithContext, CycloReal, _operand, make_context

# safety valve for descent stripping on the matrix engine; far beyond desk
# scale.  The root table derives its own bound from |Phi+|.
_MAX_STRIP_STEPS = 100_000


def root_sign(coords: Sequence[CycloReal]) -> int:
    """+1 for a positive root, -1 for a negative one.

    Roots have all coordinates of one sign, so the first nonzero
    coordinate decides.
    """
    for c in coords:
        s = c.sign()
        if s:
            return s
    raise ValueError("zero vector is not a root")


class EngineInvariantError(RuntimeError):
    """An identity the word engine guarantees failed: an engine bug, never
    bad input.  Carries a witness (matrix, words) to replay it."""

    def __init__(self, message: str, witness: dict):
        self.witness = witness
        super().__init__(f"{message}: {witness}")


class RootSystemError(EngineInvariantError):
    """The root closure disagrees with the classification; carries a
    witness (matrix, subset, expected count) to replay it."""


class CoxeterGroup:
    """A Coxeter system (W, S) with an exact word-problem engine.

    Generators are the integers 1..rank.  Elements are constructed with
    :meth:`reduce` (from an arbitrary word) and combined with ``*`` and
    ``~``; they are immutable and hashable.
    """

    def __init__(self, matrix: CoxeterMatrix):
        # rank 0 is legal here: it is the folded matrix of an empty
        # generator set (the trivial group).  User input enforces rank >= 1.
        errs = validate(matrix)
        if matrix.rank == 0:
            errs = [e for e in errs if not e.startswith("rank")]
        if errs:
            raise ValueError("invalid Coxeter matrix: " + "; ".join(errs))
        self.matrix = matrix
        self.rank = matrix.rank
        self.ctx: ArithContext = make_context(matrix)
        zero = self.ctx.zero
        one = self.ctx.one
        n = self.rank
        self._coeff = [[zero] * (n + 1) for _ in range(n + 1)]
        self._nbrs: list[tuple[int, ...]] = [()] * (n + 1)
        for s in range(1, n + 1):
            nbrs = []
            for t in range(1, n + 1):
                if t != s and matrix.m(s, t) != 2:
                    self._coeff[s][t] = self.ctx.two_cos_pi_over(matrix.m(s, t))
                    nbrs.append(t)
            self._nbrs[s] = tuple(nbrs)
        unit = []
        for j in range(n):
            col = [zero] * n
            col[j] = one
            unit.append(tuple(col))
        self._unit_cols = tuple(unit)

    @cached_property
    def _engine(self):
        """The action engine, built on first use: a root-index table for
        finite W, read off the elementary roots, and exact matrices
        otherwise."""
        if classify_finite(self.matrix, self.generators()) is None:
            return _MatrixEngine(self)
        return _RootTable(self)

    @cached_property
    def _elementary(self) -> "_ElementaryRoots":
        """The elementary roots and their reflection table, built on first
        use: walks on reduced words need no arithmetic on it.  For a finite
        W they are all the positive roots, and the root table is read off
        them."""
        return _ElementaryRoots(self.rank, *self._root_closure(self.generators()))

    def generators(self) -> range:
        return range(1, self.rank + 1)

    def __repr__(self):
        return f"CoxeterGroup(rank={self.rank}, N={self.ctx.N})"

    def __eq__(self, other):
        return isinstance(other, CoxeterGroup) and other.matrix == self.matrix

    def __hash__(self):
        return hash(self.matrix.entries)

    # -- root-level action ---------------------------------------------------

    def simple_root(self, s: int) -> tuple[CycloReal, ...]:
        return self._unit_cols[s - 1]

    def reflect(self, s: int, coords: Sequence[CycloReal]) -> tuple[CycloReal, ...]:
        """Apply the simple reflection s to a vector in root coordinates."""
        acc = -coords[s - 1]
        for t in self._nbrs[s]:
            ct = coords[t - 1]
            if not ct.is_zero():
                acc = acc + self._coeff[s][t] * ct
        out = list(coords)
        out[s - 1] = acc
        return tuple(out)

    def _root_closure(self, subset) -> tuple[list, list]:
        """The elementary roots of W_I, simple roots first, and their step
        table: step[i][s], for s in I, is NEG when root i is alpha_s, BIG
        when s(beta_i) dominates alpha_s, and otherwise the index of
        s(beta_i); the entries of the other generators are None.

        The one closure of roots: s sets coordinate s to -beta_s + sum_t
        c_st beta_t.  An unchanged coordinate (B(beta, alpha_s) = 0) means s
        fixes beta; a listed image is elementary, so its step is never BIG;
        only a new one needs a sign test, since s(beta) = beta - 2B(beta,
        alpha_s) alpha_s is BIG when 2 + 2B(beta, alpha_s) = 2 + beta_s -
        s(beta)_s <= 0.  The labels of I pick only the arithmetic.  When
        every c_st is rational (labels 2, 3 and inf give 0, 1 and 2), a
        coordinate is one int and the test is on that int; its roots are
        lifted to coefficient tuples of the field's degree at the end.
        Otherwise a coordinate is its integer coefficients, an irrational
        c_st costs one convolution, and CycloReal.sign makes the test.
        Either way a root is a tuple of coefficient tuples.
        """
        subset = sorted(set(subset))
        ctx = self.ctx
        zero, size = ctx.zero.coeffs, 2 * ctx.degree - 1
        # (t - 1, c_st as an int, or as its nonzero (power, coefficient)
        # pairs); a neighbour outside I is skipped, since beta_t = 0 there
        terms = [None] * (self.rank + 1)
        for s in subset:
            terms[s] = [(t - 1, _operand(self._coeff[s][t].coeffs))
                        for t in self._nbrs[s] if t in subset]
        # the labels pick the arithmetic of s(beta)_s and of the BIG test
        on_ints = all(c.__class__ is int for s in subset for _, c in terms[s])
        roots = [tuple(x.coeffs[0] if on_ints else x.coeffs
                       for x in self.simple_root(s)) for s in subset]
        index = {r: i for i, r in enumerate(roots)}
        step = []
        for i, beta in enumerate(roots):  # grows while it is read
            row = [None] * (self.rank + 1)
            for k, s in enumerate(subset):
                if i == k:
                    row[s] = NEG
                    continue
                old = beta[s - 1]
                if on_ints:
                    new = -old
                    for t, c in terms[s]:
                        new += c * beta[t]
                else:
                    new, wide = [-a for a in old], None
                    for t, c in terms[s]:
                        b = beta[t]
                        if b == zero:
                            continue
                        if c.__class__ is int:
                            new = [a + c * x for a, x in zip(new, b)]
                            continue
                        wide = wide or [0] * size
                        for p, a in c:
                            for q, x in enumerate(b, p):
                                wide[q] += a * x
                    if wide:
                        new = [a + x for a, x in zip(new, ctx._reduce(wide))]
                    new = tuple(new)
                if new == old:
                    row[s] = i
                    continue
                img = (*beta[:s - 1], new, *beta[s:])
                j = index.get(img)
                if j is None:
                    if on_ints:
                        dominates = 2 + old - new <= 0
                    else:
                        two = [a - x for a, x in zip(old, new)]
                        two[0] += 2
                        dominates = CycloReal(ctx, tuple(two)).sign() <= 0
                    if dominates:
                        j = BIG
                    else:
                        j = index[img] = len(roots)
                        roots.append(img)
                row[s] = j
            step.append(tuple(row))
        if on_ints:
            pad = zero[1:]
            lift = {v: (v, *pad) for v in {v for r in roots for v in r}}
            roots = [tuple(map(lift.__getitem__, r)) for r in roots]
        return roots, step

    def _check_finite(self, subset, roots, step) -> None:
        """Every positive root of a finite W_I is elementary: its closure
        must meet no BIG step and give as many roots as the classification
        says, or RootSystemError is raised with a witness."""
        subset = sorted(set(subset))
        labels = classify_finite(self.matrix, subset)
        if labels is None:
            raise ValueError("parabolic subgroup is infinite")
        count = sum(lab.positive_root_count for lab in labels)
        witness = self._witness(subset=subset, positive_root_count=count)
        if len(roots) > count:
            raise RootSystemError(
                "root closure exceeds the positive root count", witness)
        if len(roots) < count:
            raise RootSystemError(
                f"root closure stops at {len(roots)} positive roots", witness)
        if any(BIG in row for row in step):
            raise RootSystemError(
                "root closure leaves the elementary roots", witness)

    def _witness(self, **extra) -> dict:
        return {"matrix": str(self.matrix).split("\n"), **extra}

    # -- elements from inverse actions ----------------------------------------

    def _strip(self, inv_cols, subset) -> tuple[tuple[int, ...], object]:
        """Peel the smallest left descent in subset (sorted), one descent
        scan each, until none is left: (letters peeled, inverse action
        after).  s * w has inverse action w^-1 * s, so for w = u * x with x
        a minimal coset representative of W_I, the letters are a reduced
        word of u and the action is that of x^-1.  Each peel shortens w by
        one, so the strip ends within the engine's ``strip_rounds``."""
        engine = self._engine
        descent, rmul, rounds = engine.descent, engine.rmul, engine.strip_rounds
        letters = []
        for _ in range(rounds):
            s = descent(inv_cols, subset)
            if s is None:
                return tuple(letters), inv_cols
            letters.append(s)
            inv_cols = rmul(inv_cols, s)
        raise EngineInvariantError(
            "descent stripping did not terminate",
            self._witness(subset=list(subset), steps=rounds))

    def _grow(self, subset, steps: int) -> tuple[int, ...] | None:
        """Walk up from the identity: left-multiply by the smallest s in
        subset that is not yet a left descent until all of subset descends.
        Returns the letters in the order taken, whose reversal is a word of
        the longest element of W_I, or None when the walk has not stopped
        after `steps` multiplications or its mask repeats.

        The walk carries the set S of elementary roots that w^-1 sends
        negative: s descends exactly when alpha_s is in S, and s * w has
        S' = {alpha_s} + (s(S) within E).  The next letter and mask depend
        on S alone, so once S repeats the walk cycles and never stops."""
        image = self._elementary._image
        mask, letters, seen = 0, [], set()
        for _ in range(steps + 1):
            for s in subset:
                if not mask >> (s - 1) & 1:
                    break
            else:
                return tuple(letters)
            if mask in seen:
                return None
            seen.add(mask)
            letters.append(s)
            mask = 1 << (s - 1) | image(mask, s)
        return None

    def _extract_word(self, inv_cols) -> tuple[int, ...]:
        """Canonical word from the inverse action: strip every left descent."""
        letters, rest = self._strip(inv_cols, self.generators())
        if rest != self._engine.identity:
            raise EngineInvariantError(
                "action without left descents is not the identity",
                self._witness(extracted=list(letters)))
        return letters

    def _element_from_inv(self, inv_cols) -> "Element":
        return Element(self, self._extract_word(inv_cols), inv_cols)

    def _element_from_word_trusted(self, word) -> "Element":
        # (s_1 ... s_k)^-1 = s_k ... s_1
        lmul = self._engine.lmul
        inv_cols = self._engine.identity
        for s in word:
            inv_cols = lmul(s, inv_cols)
        return self._element_from_inv(inv_cols)

    # -- public element constructors ------------------------------------------

    @cached_property
    def identity(self) -> "Element":
        return Element(self, (), self._engine.identity)

    @cached_property
    def _simples(self) -> dict:
        return {s: self._element_from_word_trusted((s,))
                for s in self.generators()}

    def simple(self, s: int) -> "Element":
        return self._simples[s]

    def reduce(self, word: Iterable[int]) -> "Element":
        """Element of an arbitrary word; its stored word is the ShortLex
        normal form, so this also computes lengths and canonical forms."""
        word = tuple(word)
        for s in word:
            if not (isinstance(s, int) and 1 <= s <= self.rank):
                raise ValueError(f"letter {s!r} out of range 1..{self.rank}")
        elt = self._element_from_word_trusted(word)
        if (len(word) - elt.length) % 2:
            raise EngineInvariantError(
                "normal form and word differ in length parity",
                self._witness(word=list(word), normal_form=list(elt.word)))
        return elt

    def multiply(self, a: "Element", b: "Element") -> "Element":
        if a.group.matrix != self.matrix or b.group.matrix != self.matrix:
            raise ValueError("elements belong to a different Coxeter matrix")
        # (ab)^-1 = b^-1 a^-1
        inv_cols = self._engine.compose(b.inv_cols, a.inv_cols)
        out = self._element_from_inv(inv_cols)
        excess = a.length + b.length - out.length
        if excess < 0 or excess % 2:
            raise EngineInvariantError(
                "product length is not l(a) + l(b) - 2k with k >= 0",
                self._witness(left=list(a.word), right=list(b.word),
                              product=list(out.word)))
        return out

    def inverse(self, a: "Element") -> "Element":
        return self._element_from_word_trusted(a.word[::-1])

    # -- descents --------------------------------------------------------------

    def is_left_descent(self, s: int, w: "Element") -> bool:
        """True exactly when l(s*w) < l(w)."""
        if not (isinstance(s, int) and 1 <= s <= self.rank):
            raise ValueError(f"generator {s!r} out of range 1..{self.rank}")
        return self._engine.negative(w.inv_cols, s)

    def left_descents(self, w: "Element") -> tuple[int, ...]:
        return self._engine.descents(w.inv_cols)

    def right_descents(self, w: "Element") -> tuple[int, ...]:
        """The s with l(w*s) < l(w): w(alpha_s) < 0, and alpha_s is
        elementary, so one walk of the reduced word decides them all."""
        mask = self._elementary.inversions(w.word)
        return tuple(s for s in self.generators() if mask >> (s - 1) & 1)

    # -- parabolic machinery -----------------------------------------------------

    def positive_roots(self, subset=None) -> set:
        """All positive roots of the standard parabolic W_I (finite I only)."""
        if subset is None:
            subset = self.generators()
        roots, step = self._root_closure(subset)
        self._check_finite(subset, roots, step)
        return {tuple(CycloReal(self.ctx, c) for c in r) for r in roots}

    def longest_element(self, subset) -> "Element":
        """Longest element of a finite standard parabolic, walked up on the
        engine's action: left-multiply by the smallest generator in I that
        does not yet descend, then extract the word once.  Verifies it is an
        involution whose length is the positive root count."""
        subset = sorted(set(subset))
        for s in subset:
            if not 1 <= s <= self.rank:
                raise ValueError(f"generator index {s} out of range")
        labels = classify_finite(self.matrix, subset)
        if labels is None:
            raise ValueError("parabolic subgroup is infinite; no longest element")
        count = sum(lab.positive_root_count for lab in labels)
        engine = self._engine
        inv_cols = engine.identity
        for _ in range(count + 1):      # l(w_I) = count steps, then a check
            s = engine.descent(inv_cols, subset, False)
            if s is None:
                break
            inv_cols = engine.rmul(inv_cols, s)     # (s * w)^-1 = w^-1 * s
        else:
            raise EngineInvariantError(
                "greedy walk exceeds the positive root count",
                self._witness(subset=subset, positive_root_count=count))
        w = self._element_from_inv(inv_cols)
        if self.multiply(w, w) != self.identity:
            raise EngineInvariantError(
                "longest element is not an involution",
                self._witness(subset=subset, word=list(w.word)))
        if w.length != count:
            raise EngineInvariantError(
                "longest element length is not the positive root count",
                self._witness(subset=subset, word=list(w.word),
                              positive_root_count=count))
        return w

    def coset_decompose(self, w: "Element", subset) -> tuple["Element", "Element"]:
        """Write w = u * x with u in W_I, x a minimal coset representative
        (no left descent of x lies in I), and l(w) = l(u) + l(x)."""
        subset = sorted(set(subset))
        letters, x_inv = self._strip(w.inv_cols, subset)
        x = self._element_from_inv(x_inv)
        u = self.reduce(letters)
        if u.length + x.length != w.length:
            raise EngineInvariantError(
                "coset lengths do not add",
                self._witness(word=list(w.word), subset=subset,
                              parabolic=list(u.word), coset=list(x.word)))
        return u, x

    def exchange(self, word: Sequence[int], s: int) -> int:
        """Exchange property: for reduced `word` and a left descent s of it,
        the 1-based index of the letter whose removal yields s * word.

        One walk on the elementary-root table, letter by letter from the
        left.  It carries the set S of elementary roots that the prefix u
        sends negative: the next letter c keeps the word reduced exactly
        when alpha_c is not in S, and u * c has S' = {alpha_c} + (c(S)
        within E).  Next to it, u^-1(alpha_s) is carried along: reaching
        NEG at letter c means s * u * c = u, so dropping that letter gives
        s * word; for a reduced word it is unique."""
        word = tuple(word)
        for c in word + (s,):
            if not (isinstance(c, int) and 1 <= c <= self.rank):
                raise ValueError(f"letter {c!r} out of range 1..{self.rank}")
        step, image = self._elementary.step, self._elementary._image
        mask, beta, index = 0, s - 1, None
        for j, c in enumerate(word, start=1):
            bit = 1 << (c - 1)
            if mask & bit:
                raise ValueError("word is not reduced")
            mask = bit | image(mask, c)
            if beta >= 0:
                beta = step[beta][c]
                if beta == NEG:
                    index = j
        if index is None:
            raise ValueError("not a descent")
        return index


# -- the two engines -------------------------------------------------------------
#
# Both compute with the action of one element at a time, through six
# primitives
#   identity          the action of e
#   lmul(s, a)        the action of s * w, from that a of w
#   rmul(a, s)        the action of w * s
#   compose(a, b)     the action of u * v, from those of u and v
#   negative(a, s)    whether the image of alpha_s is a negative root
#   fixes(g, a)       whether gamma(w) = w, gamma given by its images g
# and a descent scan reading the signs that negative reads:
#   descent(a, I, neg)  the smallest s in the sorted I with negative(a, s)
#                       == neg, or None
#   descents(a)         every s with negative(a, s)
# On matrices, rmul and compose are one call each of ArithContext.matmul,
# and the scan tests one sign at a time, stopping at the first it wants.


class _MatrixEngine:
    """Exact matrices on the span of the simple roots, for infinite W:
    cols[j] is the image of alpha_{j+1} in simple-root coordinates."""

    strip_rounds = _MAX_STRIP_STEPS

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.identity = group._unit_cols
        self._reflections = {}      # s -> the action of s, built on first use

    def lmul(self, s, cols):
        reflect = self.group.reflect
        return tuple(reflect(s, col) for col in cols)

    def rmul(self, cols, s):
        # the action of s has the column -alpha_s at s, alpha_t + c_st alpha_s
        # at each neighbour t and a unit column elsewhere, which matmul reuses
        action = self._reflections.get(s)
        if action is None:
            action = self._reflections[s] = self.lmul(s, self.identity)
        return self.group.ctx.matmul(cols, action)

    def compose(self, outer, inner):
        return self.group.ctx.matmul(outer, inner)

    def negative(self, cols, s):
        return root_sign(cols[s - 1]) < 0

    def descent(self, cols, subset, negative=True):
        for s in subset:
            if (root_sign(cols[s - 1]) < 0) == negative:
                return s
        return None

    def descents(self, cols):
        return tuple(s for s, col in enumerate(cols, 1) if root_sign(col) < 0)

    def fixes(self, images, cols):
        # gamma permutes the simple roots, so gamma(w) moves entry (i, j)
        # of w to (gamma i, gamma j)
        return all(cols[images[j] - 1][images[i] - 1] == c
                   for j, col in enumerate(cols) for i, c in enumerate(col))


def _permute_roots(roots, images) -> list[int]:
    """gamma, given by its images, on a list of roots it maps onto itself,
    by index: gamma permutes root coordinates like the generators."""
    index = {r: i for i, r in enumerate(roots)}
    out = []
    for r in roots:
        moved = [None] * len(images)
        for i, c in enumerate(r):
            moved[images[i] - 1] = c
        j = index.get(tuple(moved))
        if j is None:
            raise ValueError(f"{list(images)} does not permute the roots")
        out.append(j)
    return out


class _RootTable:
    """Permutations of the root system of a finite W, as strings of root
    indices: a[i] is the index of the image of root i.  Roots 0..P-1 are
    the positive roots (the first rank of them simple) and -beta_i has
    index i + P.  An index is one byte when there are at most 256 roots,
    and one str code point otherwise, where bytes cannot hold it (bytes
    walk the E6 ball about 1.6 times as fast).  This is the one place that
    decides it: a ball key is the first rank entries of an action.

    Every positive root of a finite W is elementary, so the roots and the
    permutations are read off the elementary-root table: NEG sends beta_i
    to -beta_i, and any other step to the root it indexes."""

    def __init__(self, group: CoxeterGroup):
        table = group._elementary
        group._check_finite(group.generators(), table.roots, table.step)
        P = len(table.roots)
        self.npos, self.rank = P, group.rank
        # l(w) <= |Phi+| peels, then one round that finds no descent
        self.strip_rounds = P + 1
        if 2 * P <= 256:
            self._code, self.neg = bytes, P
            # bytes.translate takes a table of exactly 256 entries
            self._pad = methodcaller("ljust", 256, b"\0")
            # the descent scan: one byte per entry, 1 where it is negative
            self._signs = methodcaller("translate", bytes(P) + b"\1" * (256 - P))
        else:
            self._code, self.neg = lambda idx: "".join(map(chr, idx)), chr(P)
            self._pad = str     # a str table of any length will do: a itself
            signs = "\0" * P + "\1" * P
            self._signs = lambda a: a.translate(signs).encode()
        self.identity = self._code(range(2 * P))
        self._roots = table.roots
        # s as an action (entry 0 unused): w * s reads w at its entries
        self._perms = [self.identity] + [
            self._action([P + i if row[s] == NEG else row[s]
                          for i, row in enumerate(table.step)])
            for s in group.generators()]
        # s * w sends each entry of w through the translate table of s
        self.tables = [*map(self._pad, self._perms)]
        self._gammas: dict[tuple[int, ...], tuple] = {}

    def _action(self, half):
        """An action from its values on Phi+, since g(-b) = -g(b)."""
        P = self.npos
        return self._code(half + [j + P if j < P else j - P for j in half])

    def lmul(self, s, a):
        return a.translate(self.tables[s])

    def rmul(self, a, s):
        return self._perms[s].translate(self._pad(a))

    def compose(self, outer, inner):
        return inner.translate(self._pad(outer))

    def negative(self, a, s):
        return a[s - 1] >= self.neg

    def descent(self, a, subset, negative=True):
        flags = self._signs(a[:self.rank])
        if len(subset) == self.rank:        # all of S: one find
            return flags.find(negative) + 1 or None
        for s in subset:
            if flags[s - 1] == negative:
                return s
        return None

    def descents(self, a):
        return tuple(compress(range(1, self.rank + 1), self._signs(a[:self.rank])))

    def fixes(self, images, a):
        # gamma w = w gamma on the simple roots, which determine both sides:
        # gamma(a[i]) == a[images[i] - 1], on an action or on a ball key
        g = self._gammas.get(images)
        if g is None:
            g = self._gammas[images] = (
                self._pad(self._action(_permute_roots(self._roots, images))),
                self._code([t - 1 for t in images]))
        return a[:len(images)].translate(g[0]) == g[1].translate(self._pad(a))


# -- elementary roots ------------------------------------------------------------
#
# Every Coxeter group has finitely many elementary roots: the positive roots
# that dominate no other positive root (Brink and Howlett, "A finiteness
# property and an automatic structure for Coxeter groups", Math. Ann. 296,
# 1993).  Their reflection table is a finite automaton for reduced words, and
# Casselman ("Computation in Coxeter groups II: constructing minimal roots",
# Represent. Theory 12, 2008) builds the ShortLex automaton on it.

NEG = -1    # s(alpha_s) = -alpha_s
BIG = -2    # s(beta) is positive and dominates alpha_s: it never returns to E


class _ElementaryRoots:
    """The elementary roots E, simple roots first, and their reflection
    table, as CoxeterGroup._root_closure builds them: step[i][s] is NEG
    when root i is alpha_s, BIG when B(beta_i, alpha_s) <= -1, and
    otherwise the index of s(beta_i).

    Walking alpha_c from right to left through a reduced word u decides
    u * c: reaching NEG at letter j means u * c is u without letter j (the
    exchange condition), and BIG or the start of u means u * c is reduced.
    """

    def __init__(self, rank: int, roots, step):
        self.rank = rank
        self.roots = roots
        self.step = step
        gens = range(1, rank + 1)
        # s(alpha_t) for the t < s, as a set of root indices: once v turns
        # one of them into alpha_u, s v u = t s v is a smaller rival
        self._smaller = [0] + [self._image((1 << (s - 1)) - 1, s) for s in gens]
        self._states = [(0, 0)]
        self._ids = {(0, 0): 0}
        self._rows: list[tuple | None] = [None]

    def inversions(self, word) -> int:
        """The elementary roots that a reduced word sends negative, as a bit
        mask: u * c sends alpha_c and c(S) negative, S those of u."""
        image = self._image
        mask = 0
        for c in word:
            mask = 1 << (c - 1) | image(mask, c)
        return mask

    def _image(self, mask: int, s: int) -> int:
        """s applied to a set of root indices, keeping the elementary ones."""
        step = self.step
        out = 0
        while mask:
            low = mask & -mask
            j = step[low.bit_length() - 1][s]
            if j >= 0:
                out |= 1 << j
            mask ^= low
        return out

    def shortlex_row(self, q: int) -> tuple:
        """Successors of state q of the ShortLex automaton, by generator
        (entry 0 unused): the state after appending s, or None when the
        longer word is not ShortLex-least.

        A state is a pair (S, R) of sets of elementary roots, as bit masks,
        for a ShortLex word w: S holds the roots that w sends negative, so
        alpha_u in S means w * u is not reduced, and alpha_u in R means
        w * u has a smaller reduced word.  The start is (0, 0), and s may
        follow exactly when alpha_s lies in neither."""
        row = self._rows[q]
        if row is None:
            S, R = self._states[q]
            out = [None]
            for s in range(1, self.rank + 1):
                bit = 1 << (s - 1)
                if (S | R) & bit:
                    out.append(None)
                    continue
                key = (bit | self._image(S, s),
                       self._image(R, s) | self._smaller[s])
                nxt = self._ids.get(key)
                if nxt is None:
                    nxt = self._ids[key] = len(self._states)
                    self._states.append(key)
                    self._rows.append(None)
                out.append(nxt)
            row = self._rows[q] = tuple(out)
        return row

    def fixing_step(self, gammas, states, s):
        """The exchange walks that decide gamma(w) = w, for each gamma given
        by its images, carried from a reduced word w to w * s: the states
        of w * s, one per gamma, or None when no word with prefix w * s is
        fixed by all of them.  The empty word's state is ((), (), None).

        gamma(w) = w exactly when w^-1 * gamma(w) is e: right-multiplying
        the reversed word by each letter of gamma(w) in turn deletes a
        letter every time.  Walk k carries alpha_gamma(c), c the k-th
        letter of w, through the letters not yet deleted, first letter
        first: it deletes the letter where it reaches NEG and fails at BIG.
        It starts once walk k-1 has ended, so it reads only a prefix of w
        and the deletions of walks 1..k-1, and a walk that fails fails in
        every word with that prefix.  A state is (rest, pending, b): the
        letters not deleted, the letters whose walks have not started, and
        the root of the walk that has read all of w without ending, or
        None.  w is fixed when rest is empty: all l(w) walks deleted."""
        step = self.step
        out = []
        for images, (rest, pending, b) in zip(gammas, states):
            rest += (s,)
            pending += (s,)
            if b is not None:       # the running walk takes one more step
                b = step[b][s]
                if b == BIG:
                    return None
                if b == NEG:
                    rest, b = rest[:-1], None
            while b is None and pending:
                b = images[pending[0] - 1] - 1      # alpha_gamma(c)
                pending = pending[1:]
                for j, t in enumerate(rest):
                    b = step[b][t]
                    if b == BIG:
                        return None
                    if b == NEG:
                        rest, b = rest[:j] + rest[j + 1:], None
                        break
            out.append((rest, pending, b))
        return out


class Element:
    """Group element: canonical reduced word plus the action of w^-1.

    ``inv_cols`` is in the form of the group's engine: the root indices
    w^-1(Phi) as bytes or str for finite W, exact CycloReal columns (images
    of the simple roots) otherwise.  It is the element's one action: right
    descents and the inverse come from the word.
    """

    __slots__ = ("group", "word", "inv_cols", "_hash")

    def __init__(self, group: CoxeterGroup, word: tuple[int, ...], inv_cols):
        self.group = group
        self.word = word
        self.inv_cols = inv_cols
        self._hash = None

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.group.multiply(self, other)

    def __invert__(self):
        return self.group.inverse(self)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.word == other.word and self.group.matrix == other.group.matrix

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.word)
        return h

    def __repr__(self):
        return f"Element({word_str(self.word)})"

    def __str__(self):
        return word_str(self.word)


def word_str(word: Sequence[int]) -> str:
    return " ".join(map(str, word)) if word else "e"


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    """Parse space-separated 1-based generator indices; '' is the identity."""
    text = text.strip()
    if not text:
        return ()
    letters = []
    for tok in text.split():
        v = parse_number(tok)
        if v is None:
            raise ValueError(f"bad word letter {tok!r}")
        if not 1 <= v <= rank:
            raise ValueError(f"word letter {v} out of range 1..{rank}")
        letters.append(v)
    return tuple(letters)
