"""Folding a Coxeter system along diagram automorphisms.

Given matrix-preserving permutations of the generators, the fixed subgroup
is generated by the longest elements w_I of the finite-parabolic orbits I.
This module computes those generators, factorizes fixed elements over
them, derives the folded Coxeter matrix from dihedral orbit pairs, and
checks the exchange condition at the folded level.

Every structural fact used along the way (orbits of descents are full
descent sets, coset components are longest elements, folded labels are
integral, dropped blocks reproduce products) is checked at runtime; a
failure raises InvariantViolation carrying a replayable witness instead
of returning a wrong answer.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .coxeter import (
    CoxeterMatrix,
    _orbit_str,
    classify_finite,
    coxeter_order,
    graph_components,
    neighbours,
    path_from,
    type_string,
)
from .cyclo import INF
from .words import CoxeterGroup, Element


class InvariantViolation(RuntimeError):
    """A structural invariant of the folding construction failed.

    Carries a witness: enough data (matrix, automorphisms, offending
    words) to replay the failure in isolation.
    """

    def __init__(self, check: str, message: str, witness: dict):
        self.check = check
        self.witness = dict(witness)
        self.witness.setdefault("check", check)
        super().__init__(f"{check}: {message}")


class Automorphism:
    """A permutation of the generators; images[i-1] = image of generator i."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        self.images = images

    def __call__(self, s: int) -> int:
        return self.images[s - 1]

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    @property
    def rank(self) -> int:
        return len(self.images)

    def __str__(self):
        moved = [f"{s}>{self(s)}" for s in range(1, self.rank + 1) if self(s) != s]
        return " ".join(moved) if moved else "id"


def validate_automorphism(matrix: CoxeterMatrix, images: Sequence[int]) -> list[str]:
    """Bijectivity and label preservation; violations carry a witness pair."""
    images = tuple(images)
    errors = []
    n = matrix.rank
    if sorted(images) != list(range(1, n + 1)):
        errors.append(f"not a permutation of 1..{n}: {images}")
        return errors
    gamma = Automorphism(images)
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            if matrix.m(gamma(s), gamma(t)) != matrix.m(s, t):
                errors.append(
                    f"label mismatch at witness pair ({s},{t}): "
                    f"m({gamma(s)},{gamma(t)}) = {matrix.m(gamma(s), gamma(t))} "
                    f"!= m({s},{t}) = {matrix.m(s, t)}"
                )
    return errors


def orbits(matrix: CoxeterMatrix, autos: Sequence[Automorphism]) -> tuple[frozenset, ...]:
    """Orbits of the generated permutation group: the components of the
    graph joining each s to gamma(s).  Sorted by smallest member.

    The edges need no reverse: gamma^-1 is a power of gamma, so the points
    reached from s along them already make up its orbit."""
    adj = {s: [gamma(s) for gamma in autos] for s in matrix.generators()}
    return tuple(frozenset(c) for c in graph_components(adj))


def is_fixed(w: Element, autos: Sequence[Automorphism]) -> bool:
    """Fixed by every generator; that suffices for the generated group.
    A commutation test of gamma with the action of w^-1, since
    gamma(w) = w exactly when gamma(w^-1) = w^-1."""
    fixes = w.group._engine.fixes
    return all(fixes(gamma.images, w.inv_cols) for gamma in autos)


class DihedralDetail(NamedTuple):
    """Derivation record for one folded matrix entry."""

    orbit_a: frozenset
    orbit_b: frozenset
    label: float            # folded m, INF allowed
    longest_length: int | None  # l(w_K) when K spans a finite parabolic
    weight_a: int
    weight_b: int


class FoldedSystem:
    """Folded generators and matrix of one (matrix, automorphisms) input."""

    def __init__(self, group: CoxeterGroup, autos: tuple[Automorphism, ...],
                 orbit_partition: tuple[frozenset, ...],
                 bar_s: tuple[frozenset, ...],
                 dropped: tuple[frozenset, ...],
                 longest: dict[frozenset, Element],
                 weight: dict[frozenset, int],
                 folded_matrix: CoxeterMatrix,
                 details: tuple[DihedralDetail, ...]):
        self.group = group
        self.autos = autos
        self.orbit_partition = orbit_partition
        self.bar_s = bar_s          # finite-parabolic orbits, by min member
        self.dropped = dropped      # infinite-parabolic orbits
        self.longest = longest
        self.weight = weight
        self.folded_matrix = folded_matrix
        self.details = details
        # The memos below are built here, not passed in, so a copy made
        # through the constructor starts with its own, empty.
        self._orbit_of: dict[int, frozenset] = {
            s: orbit for orbit in orbit_partition for s in orbit}
        # inverse action -> its record [action, left descents, {orbit:
        # peel}, (orbits, letters) of its smallest-descent walk, outcomes
        # over every choice], the last two None until known; see _lengths
        # and choice_outcomes.
        self._steps: dict = {}
        # (orbits, letters) -> the one tuple that records share, as many
        # records of a large fixed set share few distinct lengths.
        self._pairs: dict = {}
        # element -> whether every automorphism fixes it; see is_fixed.
        self._fixed: dict = {}

    def __eq__(self, other):
        """Equal inputs and results; the memos take no part."""
        if not isinstance(other, FoldedSystem):
            return NotImplemented
        return self._fields() == other._fields()

    def _fields(self) -> tuple:
        return (self.group, self.autos, self.orbit_partition, self.bar_s,
                self.dropped, self.longest, self.weight, self.folded_matrix,
                self.details)

    # -- structure -----------------------------------------------------------

    def orbit_of(self, s: int) -> frozenset:
        return self._orbit_of[s]

    def is_fixed(self, w: Element) -> bool:
        """Memoized per element, that is per canonical word: the pair
        checks test the same few fixed elements over and over."""
        fixed = self._fixed.get(w)
        if fixed is None:
            fixed = self._fixed[w] = is_fixed(w, self.autos)
        return fixed

    # folded_exchange's witness calls this; perfbench/tracing.py patches it.
    def product_of(self, orbit_word: Sequence[frozenset]) -> Element:
        out = self.group.identity
        for orbit in orbit_word:
            out = out * self.longest[orbit]
        return out

    def _witness(self, **extra) -> dict:
        return self.group._witness(
            automorphisms=[list(g.images) for g in self.autos], **extra)

    def _residual(self, source, seq) -> InvariantViolation:
        """Raised when a walk ends away from the identity after peeling seq."""
        return InvariantViolation(
            "factorize", "residual action is not the identity",
            self._witness(source=source, factors=[sorted(J) for J in seq]))

    # -- factorization over the folded generators ------------------------------

    def _factorize_inv(self, inv_cols, source=None):
        """(orbit sequence, letters) of the element whose inverse action is
        inv_cols: the walk of _lengths, its orbits spelled along the peels
        it stored.  Only a caller that reads the orbits spells them."""
        letters = self._lengths(inv_cols, source)[1]
        seq: list[frozenset] = []
        state = self._steps[inv_cols]
        while state[1]:
            orbit = self.orbit_of(state[1][0])
            seq.append(orbit)
            state = state[2][orbit][1]
        return seq, letters

    def _lengths(self, inv_cols, source=None) -> tuple[int, int]:
        """(orbit count, letters) of the greedy factorization of the
        element whose inverse action is inv_cols.

        Peels one descent orbit at a time, that of the smallest left
        descent: all letters of the orbit must descend, and greedily
        stripping them must remove exactly the weight of the orbit (the
        longest element is the unique maximal-length element of a finite
        parabolic, so the count equality pins it).  The letter total is
        the length of the element.  Left descents are read off the inverse
        action, and stripping t maps it to inv_cols * t, so the element
        itself never needs a normal form.

        Both steps are pure functions of the inverse action, so the system
        memoizes them in one record per action reached: its descents, and
        each peel that passed its checks, linked to the record it leads
        to, so a repeated walk hashes no action.  The walk stops at the
        first record whose lengths are known, or at a state without
        descents, which must be the identity; only then are the lengths
        written back onto every record of the path.  A failing peel is
        never stored, so a path that raised keeps no lengths and raises
        with the same witness on every call.
        """
        state = self._state(inv_cols)
        path: list = []
        seq: list[frozenset] = []      # the orbits peeled, for witnesses
        while state[3] is None:
            if not state[1]:
                if state[0] != self.group._engine.identity:
                    raise self._residual(source, seq)
                state[3] = (0, 0)
                break
            s = state[1][0]
            orbit = self.orbit_of(s)
            peel = state[2].get(orbit)
            if peel is None:
                peel = self._add_peel(state, s, orbit, source, seq)
            path.append(state)
            seq.append(orbit)
            state = peel[1]
        orbits, letters = state[3]
        for state, orbit in zip(reversed(path), reversed(seq)):  # to the root
            pair = orbits, letters = orbits + 1, letters + state[2][orbit][0]
            state[3] = self._pairs.setdefault(pair, pair)
        return state[3]

    def choice_outcomes(self, inv_cols, source=None) -> frozenset:
        """Every (orbit count, letters) that _factorize_inv can return for
        this inverse action, over every choice of descent at every step.

        One post-order pass over the memo's records: a state's outcomes
        are its successors' outcomes, each shifted by one orbit and the
        letters of its peel, over the orbits of its descents; a state
        without descents has the single outcome (0, 0).  The pass keeps
        the path from inv_cols on an explicit stack, so its depth is not
        bounded by the recursion limit.  Missing peels are made as
        _lengths makes them: a failing peel raises with the orbits
        peeled along that path, and so does a state without descents that
        is not the identity.  Outcomes are kept on each state's record,
        and only once every successor has its own, so a failing branch
        raises on every call.
        """
        root = self._state(inv_cols)
        stack = [] if root[4] is not None else [(root, iter(root[1]))]
        seq: list[frozenset] = []      # orbits peeled along the stack
        while stack:
            state, choices = stack[-1]
            peels = state[2]
            for s in choices:
                orbit = self.orbit_of(s)
                peel = peels.get(orbit)
                if peel is None:
                    peel = self._add_peel(state, s, orbit, source, seq)
                after = peel[1]
                if after[4] is None:
                    seq.append(orbit)
                    stack.append((after, iter(after[1])))
                    break
            else:
                out = set()
                for orbit in {self.orbit_of(s) for s in state[1]}:
                    count, after = peels[orbit]
                    out.update((orbits + 1, letters + count)
                               for orbits, letters in after[4])
                if not state[1]:
                    if state[0] != self.group._engine.identity:
                        raise self._residual(source, seq)
                    out.add((0, 0))
                state[4] = frozenset(out)
                stack.pop()
                if seq:
                    seq.pop()
        return root[4]

    def _state(self, inv_cols) -> list:
        """The memo record of an inverse action, made on first reach."""
        state = self._steps.get(inv_cols)
        if state is None:
            descents = self.group._engine.descents(inv_cols)
            state = self._steps[inv_cols] = [inv_cols, descents, {}, None, None]
        return state

    def _add_peel(self, state, s, orbit, source, seq):
        """Peel orbit off a memo record and store the peel, linked to the
        record it leads to; nothing is stored when the peel raises."""
        count, after = self._peel(state[0], s, orbit, source, seq)
        peel = state[2][orbit] = (count, self._state(after))
        return peel

    def _peel(self, inv_cols, s, orbit, source, seq):
        """Strip the parabolic component of orbit (reached from the
        descent s) off the left: (letters stripped, inverse action after).
        Raises unless it is the longest element w_orbit."""
        members = sorted(orbit)
        t = self.group._engine.descent(inv_cols, members, False)
        if t is not None:
            raise InvariantViolation(
                "factorize", "orbit of a descent is not all-descending",
                self._witness(source=source, descent=s, orbit=members,
                              non_descent=t, peeled=[sorted(J) for J in seq]),
            )
        if orbit not in self.longest:
            raise InvariantViolation(
                "factorize", "descent orbit spans an infinite parabolic",
                self._witness(source=source, orbit=members),
            )
        letters, inv_cols = self.group._strip(inv_cols, members)
        count = len(letters)
        if count != self.weight[orbit]:
            raise InvariantViolation(
                "factorize", "parabolic component is not the longest element",
                self._witness(source=source, orbit=members,
                              stripped=count, weight=self.weight[orbit]),
            )
        return count, inv_cols

    def greedy_factorize(self, w: Element) -> list[frozenset]:
        """Peel w into folded generators: take the smallest left descent s,
        strip the full parabolic component of its orbit, recurse.  The
        factor weights sum to l(w) and the factors multiply back to w;
        violations raise with a counterexample.
        """
        self.lambda_length(w)
        return self._factorize_inv(w.inv_cols)[0]

    def lambda_length(self, w: Element) -> int:
        """Word length of a fixed element over the folded generators, with
        the checks of greedy_factorize."""
        if not self.is_fixed(w):
            raise ValueError("element is not fixed by the automorphism group")
        orbits, letters = self._lengths(w.inv_cols, source=list(w.word))
        if letters != w.length:
            seq = self._factorize_inv(w.inv_cols)[0]
            raise InvariantViolation(
                "factorize", "factor weights do not sum to the length",
                self._witness(word=list(w.word),
                              factors=[sorted(J) for J in seq]),
            )
        return orbits

    # Kept only because perfbench/tracing.py patches it by name.
    def factorize_product(self, orbit_word: Sequence[frozenset]):
        """(greedy factor sequence, length) of a product of folded
        generators, computed without materializing the product."""
        engine = self.group._engine
        inv_cols = engine.identity
        for J in orbit_word:    # (u w_J)^-1 = w_J^-1 u^-1
            inv_cols = engine.compose(self.longest[J].inv_cols, inv_cols)
        return self._factorize_inv(
            inv_cols, source=[sorted(J) for J in orbit_word])

    # Kept only because perfbench/tracing.py patches it by name.
    def lambda_of_product(self, a: Element, b: Element) -> int:
        inv_cols = self.group._engine.compose(b.inv_cols, a.inv_cols)
        return self._lengths(inv_cols)[0]

    # -- folded-level predicates ------------------------------------------------

    # Kept only because perfbench/tracing.py patches it by name.
    def weight_additivity(self, w: Element, wp: Element,
                          lam_w: int | None = None,
                          lam_wp: int | None = None) -> tuple[bool, bool]:
        """(lengths add, folded lengths add) for a pair of fixed elements."""
        if not (self.is_fixed(w) and self.is_fixed(wp)):
            raise ValueError("both elements must be fixed")
        inv_cols = self.group._engine.compose(wp.inv_cols, w.inv_cols)
        orbits, letters = self._lengths(inv_cols)
        if lam_w is None:
            lam_w = self.lambda_length(w)
        if lam_wp is None:
            lam_wp = self.lambda_length(wp)
        l_add = letters == w.length + wp.length
        lam_add = orbits == lam_w + lam_wp
        return l_add, lam_add

    def folded_exchange(self, orbit_word: Sequence[frozenset], orbit: frozenset,
                        product, w: Element | None = None) -> int:
        """Folded exchange property.

        For a minimal orbit word [J_1..J_p] of w and a folded generator w_I
        with lambda(w_I * w) <= lambda(w), returns an index i such that
        dropping block i yields w_I * w.  The block is located through the
        plain exchange property inside the concatenated reduced word, and
        both the prefix conjugation z^-1 w_I z = w_{J_i}, tested as
        w_I z = z w_{J_i}, and the dropped product are verified exactly.

        ``product`` maps an orbit word to the exact inverse action of its
        product; the property suite passes a walk on its generated ball.
        ``w``, if given, is the caller's element for the orbit word, used
        when its action is the product's; otherwise (no ``w``, or a broken
        folded system's word spells another element) the product's element
        is extracted.
        """
        orbit_word = list(orbit_word)
        for J in orbit_word + [orbit]:
            if J not in self.longest:
                raise ValueError(f"{_orbit_str(J)} is not a folded generator")
        group = self.group
        inv_cols = product(orbit_word)
        if w is None or w.inv_cols != inv_cols:
            w = group._element_from_inv(inv_cols)
        p = len(orbit_word)
        if self.lambda_length(w) != p:
            raise ValueError("orbit word is not minimal for its product")
        w_i = self.longest[orbit]
        w_i_w = product([orbit] + orbit_word)
        if self._lengths(w_i_w)[0] > p:
            raise ValueError("not a folded descent")

        descent_letters = [t for t in sorted(orbit) if group.is_left_descent(t, w)]
        if not descent_letters:
            raise InvariantViolation(
                "folded-exchange", "folded descent without a letter descent",
                self._witness(orbit=sorted(orbit), word=list(w.word)),
            )
        s = descent_letters[0]

        blocks = [self.longest[J] for J in orbit_word]
        concat: tuple[int, ...] = ()
        for b in blocks:
            concat += b.word
        if len(concat) != w.length:
            raise InvariantViolation(
                "folded-exchange", "concatenated minimal word is not reduced",
                self._witness(word=list(w.word),
                              factors=[sorted(J) for J in orbit_word]),
            )
        letter_index = group.exchange(concat, s)  # 1-based

        # locate the block containing the dropped letter
        upto = 0
        block_index = None
        for i, b in enumerate(blocks, start=1):
            if letter_index <= upto + b.length:
                block_index = i
                break
            upto += b.length
        if block_index is None:
            raise InvariantViolation(
                "folded-exchange", "exchanged letter lies past the minimal word",
                self._witness(orbit=sorted(orbit), word=list(concat),
                              letter_index=letter_index),
            )

        prefix = orbit_word[: block_index - 1]
        if product([orbit] + prefix) != product(orbit_word[:block_index]):
            z = self.product_of(prefix)
            conj = ~z * w_i * z
            raise InvariantViolation(
                "folded-exchange", "prefix conjugate is not the dropped generator",
                self._witness(orbit=sorted(orbit),
                              factors=[sorted(J) for J in orbit_word],
                              block=block_index, conjugate=list(conj.word)),
            )
        if product(prefix + orbit_word[block_index:]) != w_i_w:
            raise InvariantViolation(
                "folded-exchange", "dropping the block does not give w_I * w",
                self._witness(orbit=sorted(orbit),
                              factors=[sorted(J) for J in orbit_word],
                              block=block_index),
            )
        return block_index

    # -- presentation ------------------------------------------------------------

    def folded_type(self) -> str:
        return folded_type_string(self.folded_matrix)

    def diagram_order(self) -> tuple[int, ...]:
        """Display permutation of the folded generators (1-based indices).

        Path-shaped folded diagrams are read end to end, oriented so the
        label sequence is lexicographically least (ties: smaller first
        orbit); anything else keeps the by-minimum order.
        """
        fm = self.folded_matrix
        identity = tuple(fm.generators())
        adj = neighbours(fm, identity)
        ends = [i for i in identity if len(adj[i]) == 1]
        if len(ends) != 2 or any(len(v) > 2 for v in adj.values()):
            return identity
        # walk from the smaller end; on a label tie that walk is kept
        path = path_from(adj, ends[0])
        if len(path) != fm.rank:
            return identity  # not connected
        labels = [fm.m(a, b) for a, b in zip(path, path[1:])]
        if labels[::-1] < labels:
            path.reverse()
        return tuple(path)

    def ordered_bar_s(self) -> tuple[frozenset, ...]:
        return tuple(self.bar_s[i - 1] for i in self.diagram_order())

    def ordered_weights(self) -> tuple[int, ...]:
        return tuple(self.weight[J] for J in self.ordered_bar_s())

    def to_dict(self) -> dict:
        """JSON-safe summary: orbits, generators, folded matrix, weights
        and the derivation of each label.  An infinite label is "inf"."""

        def label(v):
            return "inf" if v == INF else int(v)

        fm = self.folded_matrix
        return {
            "orbits": [sorted(o) for o in self.orbit_partition],
            "bar_s": [sorted(o) for o in self.bar_s],
            "dropped_infinite": [sorted(o) for o in self.dropped],
            "generators": [
                {"orbit": sorted(J), "word": list(self.longest[J].word),
                 "weight": self.weight[J]}
                for J in self.bar_s
            ],
            "matrix": [[label(v) for v in row] for row in fm.entries],
            "type": self.folded_type(),
            "weights": list(self.ordered_weights()),
            "fixed_subgroup_order": coxeter_order(fm, fm.generators()),
            "pairs": [
                {"orbits": [sorted(d.orbit_a), sorted(d.orbit_b)],
                 "label": label(d.label),
                 "union_longest_length": d.longest_length,
                 "weights": [d.weight_a, d.weight_b]}
                for d in self.details
            ],
        }


def folded_type_string(matrix: CoxeterMatrix) -> str:
    """Type of the folded matrix: type_string's, except that a rank-2
    label 4 reads as the dihedral group I2(4), where the classification
    says B2."""
    if matrix.rank == 2 and matrix.m(1, 2) == 4:
        return "I2(4)"
    return type_string(matrix)


def _folded_order(system_group: CoxeterGroup, longest, weight, a, b, witness):
    """Folded label of an orbit pair via the longest element of their union,
    cross-checked by iterating the product of the two folded generators."""
    K = a | b
    if classify_finite(system_group.matrix, K) is None:
        return INF, None
    w_k = system_group.longest_element(K)
    total = weight[a] + weight[b]
    if (2 * w_k.length) % total != 0:
        raise InvariantViolation(
            "folded-label", "2*l(w_K) is not a multiple of the weight sum",
            dict(witness, orbits=[sorted(a), sorted(b)],
                 longest_length=w_k.length, weights=[weight[a], weight[b]]),
        )
    m = (2 * w_k.length) // total
    if m < 2:
        raise InvariantViolation(
            "folded-label", f"folded label {m} below 2",
            dict(witness, orbits=[sorted(a), sorted(b)]),
        )
    t = longest[a] * longest[b]
    power = t
    for k in range(1, m):
        if power.is_identity():
            raise InvariantViolation(
                "folded-label", f"product order {k} below folded label {m}",
                dict(witness, orbits=[sorted(a), sorted(b)], label=m),
            )
        power = power * t
    if not power.is_identity():
        raise InvariantViolation(
            "folded-label", f"product order exceeds folded label {m}",
            dict(witness, orbits=[sorted(a), sorted(b)], label=m),
        )
    return m, w_k.length


def fold(group: CoxeterGroup, autos: Sequence[Automorphism]) -> FoldedSystem:
    """Build the folded system: orbits, folded generators, folded matrix.

    Orbits spanning infinite parabolics carry no longest element and are
    dropped (recorded, not silently).  The folded matrix is a valid Coxeter
    matrix and can be fed back into every other module.
    """
    autos = tuple(autos)
    if not autos:
        raise ValueError("need at least one automorphism (identity is allowed)")
    witness = group._witness(automorphisms=[list(g.images) for g in autos])
    for gamma in autos:
        errs = validate_automorphism(group.matrix, gamma.images)
        if errs:
            raise ValueError(
                "invalid automorphism " + str(gamma) + ": " + "; ".join(errs)
            )

    partition = orbits(group.matrix, autos)
    bar_s = []
    dropped = []
    longest: dict[frozenset, Element] = {}
    weight: dict[frozenset, int] = {}
    for orbit in partition:
        if classify_finite(group.matrix, orbit) is None:
            dropped.append(orbit)
            continue
        w_i = group.longest_element(orbit)
        if not is_fixed(w_i, autos):
            raise InvariantViolation(
                "folded-generator", "longest element of an orbit is not fixed",
                dict(witness, orbit=sorted(orbit), word=list(w_i.word)),
            )
        bar_s.append(orbit)
        longest[orbit] = w_i
        weight[orbit] = w_i.length

    bar_s.sort(key=min)
    n = len(bar_s)
    labels = {}
    details = []
    for i in range(n):
        for j in range(i + 1, n):
            m, lk = _folded_order(group, longest, weight, bar_s[i], bar_s[j], witness)
            labels[i + 1, j + 1] = m
            details.append(DihedralDetail(
                orbit_a=bar_s[i], orbit_b=bar_s[j], label=m,
                longest_length=lk,
                weight_a=weight[bar_s[i]], weight_b=weight[bar_s[j]],
            ))
    return FoldedSystem(
        group=group,
        autos=autos,
        orbit_partition=partition,
        bar_s=tuple(bar_s),
        dropped=tuple(dropped),
        longest=longest,
        weight=weight,
        folded_matrix=CoxeterMatrix.from_labels(n, labels),
        details=tuple(details),
    )
