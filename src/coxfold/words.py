"""The word problem for a Coxeter system, solved geometrically.

A group element is its canonical word plus the action of w^-1 on roots
(``inv_cols``); the action of w (``cols``) is derived from the word when
a caller asks for it.  The inverse action alone gives the left descents,
hence the normal form, and gamma(w) = w exactly when gamma(w^-1) = w^-1.
Two engines compute with actions behind six primitives (identity, lmul,
rmul, compose, negative, fixes):

* Finite W, as decided by classify_finite, uses a root-index table.  Its
  positive roots are the elementary roots below, checked against the
  classification; each root gets an index, positive roots first, and each
  simple reflection becomes an integer permutation of Phi.  An action is
  the tuple of root indices w(Phi), products are tuple indexing, and a
  root is negative exactly when its index is at least |Phi+|.  The table
  is built on the first element operation, so constructing a group costs
  no more than the matrix setup.
* Infinite W uses the matrix engine: columns are the images of the simple
  roots in exact CycloReal coordinates, and a root is negative when its
  coordinates are.  lmul and rmul are exact reflections; compose is a
  matrix product, one call of the fused kernel ``ArithContext.matmul``,
  which builds no scalar object per product.

Either way a descent query is a sign test: s is a left descent of w exactly
when w^-1(alpha_s) is a negative root, and a right descent when w(alpha_s)
is.

Next to the engine, built on first use, is the table of the finitely many
elementary roots (Brink and Howlett): the simple roots closed under the
exact ``reflect``, the one place where roots are closed.  It walks reduced
words without arithmetic: it drives the ShortLex automaton that lists the
balls of an infinite W (and of a finite W of rank 1 or over 256 roots),
the exchange walk that tests fixedness on words, and, for every W, the
exchange property (``exchange``) and the greedy walk up by non-descents
(``_grow``) that builds longest elements and probes finiteness.  The
root table of a finite W is read off it: every positive root is elementary.

The stored word of an Element is canonical: the ShortLex-least reduced
word, extracted by repeatedly peeling the smallest left descent
(``_strip``).  Equality of elements is equality of canonical words.  The
same walk down by descents gives coset decompositions.

Root vectors are plain tuples of CycloReal in simple-root coordinates; a
root is positive or negative according to the common sign of its nonzero
coordinates.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .coxeter import CoxeterMatrix, classify_finite, parse_number, validate
from .cyclo import ArithContext, CycloReal, make_context

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
        otherwise (and for the trivial group, which has no roots to
        index)."""
        if not classify_finite(self.matrix, self.generators()):
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

        This is the one closure under the exact reflect.  An image is looked
        up first; a listed root is elementary, so its step is never BIG, and
        only an image not listed yet needs a sign test.
        """
        subset = sorted(set(subset))
        roots = [self.simple_root(s) for s in subset]
        index = {r: i for i, r in enumerate(roots)}
        step = []
        for i, beta in enumerate(roots):  # grows while it is read
            row = [None] * (self.rank + 1)
            for k, s in enumerate(subset):
                if i == k:
                    row[s] = NEG
                    continue
                img = self.reflect(s, beta)
                j = index.get(img)
                if j is None:
                    # s(beta) = beta - 2B(beta, alpha_s) alpha_s
                    if (beta[s - 1] - img[s - 1] + 2).sign() <= 0:
                        j = BIG
                    else:
                        j = index[img] = len(roots)
                        roots.append(img)
                row[s] = j
            step.append(tuple(row))
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
        """Peel the smallest left descent in subset until none is left:
        (letters peeled, inverse action after).  s * w has inverse action
        w^-1 * s, so for w = u * x with x a minimal coset representative of
        W_I, the letters are a reduced word of u and the action is that of
        x^-1.  Each peel shortens w by one, so the strip ends within the
        engine's ``strip_rounds``."""
        engine = self._engine
        negative, rmul, rounds = engine.negative, engine.rmul, engine.strip_rounds
        letters = []
        for _ in range(rounds):
            for s in subset:
                if negative(inv_cols, s):
                    break
            else:
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
        after `steps` multiplications.

        The walk carries the set S of elementary roots that w^-1 sends
        negative: s descends exactly when alpha_s is in S, and s * w has
        S' = {alpha_s} + (s(S) within E)."""
        image = self._elementary._image
        mask = 0
        letters = []
        for _ in range(steps + 1):
            for s in subset:
                if not mask >> (s - 1) & 1:
                    break
            else:
                return tuple(letters)
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
        return self._element_from_inv(a.cols)

    # -- descents --------------------------------------------------------------

    def is_left_descent(self, s: int, w: "Element") -> bool:
        """True exactly when l(s*w) < l(w)."""
        return self._engine.negative(w.inv_cols, s)

    def is_right_descent(self, s: int, w: "Element") -> bool:
        return self._engine.negative(w.cols, s)

    def left_descents(self, w: "Element") -> tuple[int, ...]:
        return tuple(s for s in self.generators() if self.is_left_descent(s, w))

    def right_descents(self, w: "Element") -> tuple[int, ...]:
        return tuple(s for s in self.generators() if self.is_right_descent(s, w))

    # -- parabolic machinery -----------------------------------------------------

    def positive_roots(self, subset=None) -> set:
        """All positive roots of the standard parabolic W_I (finite I only)."""
        if subset is None:
            subset = self.generators()
        roots, step = self._root_closure(subset)
        self._check_finite(subset, roots, step)
        return set(roots)

    def longest_element(self, subset) -> "Element":
        """Longest element of a finite standard parabolic, built greedily:
        keep left-multiplying by the smallest generator in I that does not
        yet descend.  Verifies it is an involution whose length is the
        positive root count of the classification."""
        subset = sorted(set(subset))
        for s in subset:
            if not 1 <= s <= self.rank:
                raise ValueError(f"generator index {s} out of range")
        labels = classify_finite(self.matrix, subset)
        if labels is None:
            raise ValueError("parabolic subgroup is infinite; no longest element")
        count = sum(lab.positive_root_count for lab in labels)
        letters = self._grow(subset, count)
        if letters is None:
            raise EngineInvariantError(
                "greedy walk exceeds the positive root count",
                self._witness(subset=subset, positive_root_count=count))
        w = self._element_from_word_trusted(letters[::-1])
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
# primitives:
#   identity          the action of e
#   lmul(s, a)        the action of s * w, from that a of w
#   rmul(a, s)        the action of w * s
#   compose(a, b)     the action of u * v, from those of u and v (on
#                     matrices, one call of the fused ArithContext.matmul)
#   negative(a, s)    whether the image of alpha_s is a negative root
#   fixes(g, a)       whether gamma(w) = w, gamma given by its images g


class _MatrixEngine:
    """Exact matrices on the span of the simple roots, for any W:
    cols[j] is the image of alpha_{j+1} in simple-root coordinates."""

    strip_rounds = _MAX_STRIP_STEPS

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.identity = group._unit_cols

    def lmul(self, s, cols):
        reflect = self.group.reflect
        return tuple(reflect(s, col) for col in cols)

    def rmul(self, cols, s):
        group = self.group
        old = cols[s - 1]
        out = list(cols)
        out[s - 1] = tuple(-c for c in old)
        for t in group._nbrs[s]:
            coeff = group._coeff[s][t]
            out[t - 1] = tuple(
                a + coeff * b for a, b in zip(cols[t - 1], old)
            )
        return tuple(out)

    def compose(self, outer, inner):
        return self.group.ctx.matmul(outer, inner)

    def negative(self, cols, s):
        return root_sign(cols[s - 1]) < 0

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
    """Integer permutations of the root system of a finite W:
    cols[i] is the index of the image of root i.  Roots 0..P-1 are the
    positive roots (the first rank of them simple) and -beta_i has index
    i + P.

    Every positive root of a finite W is elementary, so the roots and the
    permutations are read off the elementary-root table: NEG sends beta_i
    to -beta_i, and any other step to the root it indexes."""

    def __init__(self, group: CoxeterGroup):
        table = group._elementary
        group._check_finite(group.generators(), table.roots, table.step)
        P = len(table.roots)
        self.npos = P
        # l(w) <= |Phi+| peels, then one round that finds no descent
        self.strip_rounds = P + 1
        self.identity = tuple(range(2 * P))
        self._roots = table.roots
        self._perms = [()]
        for s in group.generators():
            half = [P + i if row[s] == NEG else row[s]
                    for i, row in enumerate(table.step)]
            self._perms.append(self._extend(half))
        # w * s reads w's images at s's indices; itemgetter does it in C
        self._rmul_getters = [None] + [itemgetter(*p) for p in self._perms[1:]]
        self._gamma_perms: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _extend(self, half):
        """A permutation of Phi from its values on Phi+, since g(-b) = -g(b)."""
        P = self.npos
        return tuple(half + [j + P if j < P else j - P for j in half])

    def lmul(self, s, cols):
        return itemgetter(*cols)(self._perms[s])

    def rmul(self, cols, s):
        return self._rmul_getters[s](cols)

    def compose(self, outer, inner):
        return itemgetter(*inner)(outer)

    def negative(self, cols, s):
        return cols[s - 1] >= self.npos

    def _gamma_perm(self, images):
        """gamma on Phi: it permutes root coordinates like the generators."""
        g = self._gamma_perms.get(images)
        if g is None:
            half = _permute_roots(self._roots, images)
            g = self._gamma_perms[images] = self._extend(half)
        return g

    def fixes(self, images, cols):
        # gamma w = w gamma on the simple roots, which determine both sides
        g = self._gamma_perm(images)
        return all(g[cols[i]] == cols[t - 1] for i, t in enumerate(images))


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

    def stable_states(self, images) -> set[int]:
        """The ShortLex states made so far whose set S gamma, given by its
        images, maps onto itself.  S is N(w) within E for the words w that
        reach the state, and gamma permutes E; gamma(w) = w makes gamma map
        N(w) onto itself, so a word reaching any other state is not fixed."""
        perm = _permute_roots(self.roots, images)
        out = set()
        for q, (S, _) in enumerate(self._states):
            moved, mask = 0, S
            while mask:
                low = mask & -mask
                moved |= 1 << perm[low.bit_length() - 1]
                mask ^= low
            if moved == S:
                out.add(q)
        return out

    def fixes(self, images, word) -> bool:
        """gamma(w) = w, for gamma given by its images and w by a reduced
        word: w^-1 * gamma(w) is the identity exactly when right-multiplying
        the reversed word by each letter of gamma(word) deletes a letter
        every time: the word then ends empty."""
        step = self.step
        u = list(reversed(word))
        for c in word:
            b = images[c - 1] - 1       # alpha_gamma(c)
            for j in range(len(u) - 1, -1, -1):
                b = step[b][u[j]]
                if b < 0:
                    break
            if b != NEG:
                return False
            del u[j]
        return True


class Element:
    """Group element: canonical reduced word plus the action of w^-1.

    ``inv_cols`` is in the form of the group's engine: the tuple of root
    indices w^-1(Phi) for finite W, exact CycloReal columns (images of the
    simple roots) otherwise.  ``cols``, the action of w, is built from the
    word on first use and cached.
    """

    __slots__ = ("group", "word", "inv_cols", "_cols", "_hash")

    def __init__(self, group: CoxeterGroup, word: tuple[int, ...], inv_cols):
        self.group = group
        self.word = word
        self.inv_cols = inv_cols
        self._cols = None
        self._hash = None

    @property
    def cols(self):
        """The action of w: the identity times each letter of the word."""
        cols = self._cols
        if cols is None:
            rmul = self.group._engine.rmul
            cols = self.group._engine.identity
            for s in self.word:
                cols = rmul(cols, s)
            self._cols = cols
        return cols

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
        return f"Element({' '.join(map(str, self.word)) or 'e'})"

    def __str__(self):
        return " ".join(map(str, self.word)) if self.word else "e"


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
