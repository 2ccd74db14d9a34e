"""Brute-force oracles and the property suite.

The enumeration side never consults the folding machinery: balls in W come
from breadth-first search over simple generators with canonical-word
acceptance, the generated fixed subgroup is explored by plain right
multiplication with exact-action dedup, and dihedral orders are observed
by iterating products.  The folding side meets the oracle side only in the
comparisons, so a passing report actually certifies something.

Each named check returns pass/fail/skipped plus statistics; failures carry
a replayable witness.  Reports are deterministic for a fixed input, seed
and job count.
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from .coxeter import CoxeterMatrix, classify_finite, coxeter_order
from .cyclo import INF
from .folding import (
    Automorphism,
    FoldedSystem,
    InvariantViolation,
    fold,
    is_fixed,
    validate_automorphism,
)
from .words import CoxeterGroup, Element

DEFAULT_INFINITE_RADIUS = 8


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for the property suite; defaults are desk scale."""

    seed: int = 0
    radius: int | None = None     # None: full when W is finite, else 8
    samples: int = 50             # randomized factorizations per element
    trials: int = 200             # random orbit words for additivity probing
    pair_cap: int = 6000          # exhaustive pair checks up to this many
    sample_pairs: int = 300       # sampled pairs beyond the cap
    exchange_lambda_cap: int = 4  # folded exchange tested up to this length
    greedy_cap: int = 512         # step bound for the greedy finiteness probe
    subset_cap: int = 4096        # exhaustive subset checks up to this many
    node_cap: int = 200_000       # hard bound on enumerated nodes
    jobs: int = 1


# ---------------------------------------------------------------------------
# balls in W


@dataclass
class Ball:
    """Deduplicated BFS ball, ordered by (length, word)."""

    group: CoxeterGroup
    radius: int | None            # None means the full group
    complete: bool
    elements: tuple[Element, ...]
    key_index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.key_index:
            for i, w in enumerate(self.elements):
                self.key_index[w.cols] = i

    def __len__(self):
        return len(self.elements)


def enumerate_ball(group: CoxeterGroup, radius: int | None = None,
                   node_cap: int = 200_000) -> Ball:
    """BFS over left multiplication by simple generators.

    An element of length k+1 is accepted exactly once: from its unique
    predecessor along the smallest left descent.  The stored words are
    therefore canonical without any normal-form extraction, and no
    dedup table is needed.
    """
    if radius is None and classify_finite(group.matrix, group.generators()) is None:
        raise ValueError("full enumeration requested on an infinite group")
    engine = group._engine
    negative, lmul, rmul = engine.negative, engine.lmul, engine.rmul
    gens = group.generators()
    elements = [group.identity]
    level = [group.identity]
    depth = 0
    while level and (radius is None or depth < radius):
        depth += 1
        nxt = []
        for x in level:
            for s in gens:
                if negative(x.inv_cols, s):
                    continue
                inv_cols = rmul(x.inv_cols, s)
                # canonical predecessor: no smaller generator may descend s*x
                if any(negative(inv_cols, t) for t in range(1, s)):
                    continue
                nxt.append(Element(group, (s,) + x.word,
                                   lmul(s, x.cols), inv_cols))
        nxt.sort(key=lambda e: e.word)
        elements.extend(nxt)
        if len(elements) > node_cap:
            raise RuntimeError(f"ball exceeded the node cap {node_cap}")
        level = nxt
    return Ball(group=group, radius=radius, complete=not level,
                elements=tuple(elements))


def fixed_subgroup(ball: Ball, autos: Sequence[Automorphism]) -> tuple[Element, ...]:
    """Elements of the ball fixed by every automorphism generator."""
    return tuple(w for w in ball.elements if is_fixed(w, autos))


# ---------------------------------------------------------------------------
# the subgroup generated by the folded generators, enumerated independently


@dataclass
class GeneratedBall:
    """BFS over right multiplication by the folded generators.

    Levels are word lengths over those generators by construction; dedup
    uses the exact action as key.  Completely independent of the greedy
    factorization it is later compared against.
    """

    gens: tuple[Element, ...]
    pairs: list
    levels: list[int]
    edges: list[list[int | None]]
    key_index: dict
    complete: bool
    radius: int | None

    def __len__(self):
        return len(self.pairs)


def generated_ball(group: CoxeterGroup, gens: Sequence[Element],
                   radius: int | None, node_cap: int = 200_000) -> GeneratedBall:
    gens = tuple(gens)
    compose = group._engine.compose
    identity = group.identity
    pairs = [(identity.cols, identity.inv_cols)]
    levels = [0]
    key_index = {identity.cols: 0}
    edges: list[list[int | None]] = []
    truncated = False
    head = 0
    while head < len(pairs):
        cols, inv_cols = pairs[head]
        lvl = levels[head]
        out: list[int | None] = []
        for g in gens:
            y_cols = compose(cols, g.cols)
            idx = key_index.get(y_cols)
            if idx is None:
                if radius is not None and lvl + 1 > radius:
                    truncated = True
                    out.append(None)
                    continue
                y_inv = compose(g.inv_cols, inv_cols)
                idx = len(pairs)
                pairs.append((y_cols, y_inv))
                levels.append(lvl + 1)
                key_index[y_cols] = idx
                if len(pairs) > node_cap:
                    raise RuntimeError(
                        f"generated subgroup exceeded the node cap {node_cap}"
                    )
            out.append(idx)
        edges.append(out)
        head += 1
    return GeneratedBall(gens=gens, pairs=pairs, levels=levels, edges=edges,
                         key_index=key_index, complete=not truncated,
                         radius=radius)


def _ball_edges(ball: Ball) -> list[list[int | None]]:
    """Right-multiplication edges within a ball, by generator."""
    group = ball.group
    rmul = group._engine.rmul
    edges = []
    for w in ball.elements:
        row: list[int | None] = []
        for s in group.generators():
            row.append(ball.key_index.get(rmul(w.cols, s)))
        edges.append(row)
    return edges


# ---------------------------------------------------------------------------
# check plumbing


@dataclass
class CheckResult:
    name: str
    status: str                   # pass | fail | skipped
    statistics: dict
    witness: dict | None = None

    def to_dict(self):
        out = {"name": self.name, "status": self.status,
               "statistics": _plain(self.statistics)}
        if self.witness is not None:
            out["witness"] = _plain(self.witness)
        return out


def _plain(value):
    """Make a value JSON-safe: INF -> 'inf', sets sorted, tuples to lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    if value == INF:
        return "inf"
    if isinstance(value, float):
        return int(value) if value == int(value) else value
    return value


@dataclass
class Report:
    input_digest: str
    orbit_summary: dict
    folded_summary: dict
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def validation_failed(self) -> bool:
        return any(
            c.name == "automorphisms-preserve-matrix" and c.status == "fail"
            for c in self.checks
        )

    def to_dict(self):
        return {
            "version": 1,
            "input_digest": self.input_digest,
            "orbit_summary": _plain(self.orbit_summary),
            "folded_summary": _plain(self.folded_summary),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def input_digest(matrix: CoxeterMatrix, autos: Sequence[Automorphism]) -> str:
    text = str(matrix) + "\n" + "\n".join(str(g) for g in autos)
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(config: VerifyConfig, name: str) -> random.Random:
    return random.Random(f"{config.seed}:{name}")


# ---------------------------------------------------------------------------
# individual checks


def _greedy_probe(group: CoxeterGroup, subset, cap: int) -> bool:
    """Does the greedy longest-element construction terminate within cap?

    Independent of the classification: just left-multiply by the smallest
    non-descending generator of the subset until none remains.  With the
    rank cap of 16, every finite parabolic closes well within 512 steps,
    so hitting the cap certifies an infinite parabolic.  Works on the raw
    inverse action; left descents are its negative roots.
    """
    engine = group._engine
    inv_cols = engine.identity
    for _ in range(cap):
        for s in subset:
            if not engine.negative(inv_cols, s):
                inv_cols = engine.rmul(inv_cols, s)
                break
        else:
            return True
    return False


def check_finiteness_vs_greedy(group: CoxeterGroup, config: VerifyConfig) -> CheckResult:
    n = group.rank
    masks = range(1 << n)
    if (1 << n) > config.subset_cap:
        rng = _rng(config, "finiteness")
        masks = sorted(rng.sample(range(1 << n), config.subset_cap))
    checked = 0
    for mask in masks:
        subset = [i + 1 for i in range(n) if (mask >> i) & 1]
        finite = classify_finite(group.matrix, subset) is not None
        terminated = _greedy_probe(group, subset, config.greedy_cap)
        if finite != terminated:
            return CheckResult(
                "finiteness-classification-vs-greedy", "fail",
                {"subsets_checked": checked},
                {"subset": subset, "classified_finite": finite,
                 "greedy_terminated": terminated},
            )
        checked += 1
    return CheckResult("finiteness-classification-vs-greedy", "pass",
                       {"subsets_checked": checked,
                        "greedy_cap": config.greedy_cap})


def check_factorize_fixed(folded: FoldedSystem, fixed: Sequence[Element]) -> CheckResult:
    max_lambda = 0
    try:
        for w in fixed:
            max_lambda = max(max_lambda, len(folded.greedy_factorize(w)))
    except InvariantViolation as err:
        return CheckResult("fixed-elements-factorize", "fail",
                           {"fixed_elements": len(fixed)}, err.witness)
    return CheckResult("fixed-elements-factorize", "pass",
                       {"fixed_elements": len(fixed), "max_lambda": max_lambda})


def check_choice_independence(folded: FoldedSystem, fixed: Sequence[Element],
                              config: VerifyConfig) -> CheckResult:
    rng = _rng(config, "choice-independence")
    tried = 0
    try:
        for w in fixed:
            base = len(folded.greedy_factorize(w))
            for _ in range(config.samples):
                alt = len(folded.greedy_factorize(w, choose=rng.choice))
                tried += 1
                if alt != base:
                    return CheckResult(
                        "factorization-count-choice-independent", "fail",
                        {"factorizations": tried},
                        {"word": list(w.word), "greedy_count": base,
                         "randomized_count": alt},
                    )
    except InvariantViolation as err:
        return CheckResult("factorization-count-choice-independent", "fail",
                           {"factorizations": tried}, err.witness)
    return CheckResult("factorization-count-choice-independent", "pass",
                       {"fixed_elements": len(fixed), "factorizations": tried})


def check_minimal_additivity(folded: FoldedSystem, config: VerifyConfig) -> CheckResult:
    """Random orbit words whose length is already minimal must have
    weights summing exactly to the length of their product."""
    if not folded.bar_s:
        return CheckResult("minimal-words-length-additive", "pass",
                           {"trials": 0, "minimal_hits": 0})
    rng = _rng(config, "minimal-additivity")
    hits = 0
    for _ in range(config.trials):
        k = rng.randint(0, 6)
        word = [folded.bar_s[rng.randrange(len(folded.bar_s))] for _ in range(k)]
        seq, length = folded.factorize_product(word)
        if len(seq) != k:
            continue
        hits += 1
        expected = sum(folded.weight[J] for J in word)
        if length != expected:
            return CheckResult(
                "minimal-words-length-additive", "fail",
                {"trials": config.trials, "minimal_hits": hits},
                {"factors": [sorted(J) for J in word],
                 "product_length": length, "weight_sum": expected},
            )
    return CheckResult("minimal-words-length-additive", "pass",
                       {"trials": config.trials, "minimal_hits": hits})


def check_dihedral_pairs(folded: FoldedSystem) -> CheckResult:
    """Observed structure of each folded generator pair.

    Finite pairs: alternating products from both starts agree exactly at m
    factors and nowhere earlier, the group they span has 2m distinct
    elements, none longer than (m/2)(L_I + L_J), and the longest element of
    the union parabolic is that extreme product.  Infinite pairs: the first
    few alternating products stay distinct.
    """
    group = folded.group
    finite_pairs = 0
    infinite_pairs = 0
    for det in folded.details:
        a, b = det.orbit_a, det.orbit_b
        wa, wb = folded.longest[a], folded.longest[b]
        if det.label == INF:
            infinite_pairs += 1
            x = y = group.identity
            for k in range(1, 9):
                x = x * (wa if k % 2 else wb)
                y = y * (wb if k % 2 else wa)
                if x == y:
                    return CheckResult(
                        "dihedral-pairs", "fail",
                        {"finite_pairs": finite_pairs},
                        {"orbits": [sorted(a), sorted(b)],
                         "label": "inf", "agree_at": k},
                    )
            continue
        m = int(det.label)
        alt_a, alt_b = [group.identity], [group.identity]
        for k in range(1, m + 1):
            alt_a.append(alt_a[-1] * (wa if k % 2 else wb))
            alt_b.append(alt_b[-1] * (wb if k % 2 else wa))
        witness = {"orbits": [sorted(a), sorted(b)], "label": m}
        bad = None
        if alt_a[m] != alt_b[m]:
            bad = "alternating products differ at m factors"
        if bad is None:
            for k in range(1, m):
                if alt_a[k] == alt_b[k]:
                    bad = f"alternating products agree early, at {k} factors"
                    break
        if bad is None:
            w_k = group.longest_element(a | b)
            if alt_a[m] != w_k:
                bad = "extreme product is not the longest element of the union"
            elif 2 * w_k.length != m * (det.weight_a + det.weight_b):
                bad = "longest length does not match the label derivation"
        if bad is None:
            span = set(alt_a) | set(alt_b)
            if len(span) != 2 * m:
                bad = f"pair spans {len(span)} elements, expected {2 * m}"
            else:
                bound = m * (det.weight_a + det.weight_b)
                for y in span:
                    if 2 * y.length > bound:
                        bad = "element exceeds the dihedral length bound"
                        witness["word"] = list(y.word)
                        break
        if bad is not None:
            witness["problem"] = bad
            return CheckResult("dihedral-pairs", "fail",
                               {"finite_pairs": finite_pairs}, witness)
        finite_pairs += 1
    return CheckResult("dihedral-pairs", "pass",
                       {"finite_pairs": finite_pairs,
                        "infinite_pairs": infinite_pairs})


def check_additivity_transfer(folded: FoldedSystem, fixed: Sequence[Element],
                              config: VerifyConfig) -> CheckResult:
    n = len(fixed)
    if n * n <= config.pair_cap:
        pairs = [(i, j) for i in range(n) for j in range(n)]
        exhaustive = True
    else:
        rng = _rng(config, "additivity-transfer")
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(config.sample_pairs)]
        exhaustive = False
    lam = [folded.lambda_length(w) for w in fixed]
    for i, j in pairs:
        l_add, lam_add = folded.weight_additivity(
            fixed[i], fixed[j], lam_w=lam[i], lam_wp=lam[j]
        )
        if l_add != lam_add:
            return CheckResult(
                "length-additivity-transfer", "fail",
                {"pairs": len(pairs), "exhaustive": exhaustive},
                {"left": list(fixed[i].word), "right": list(fixed[j].word),
                 "length_additive": l_add, "folded_additive": lam_add},
            )
    return CheckResult("length-additivity-transfer", "pass",
                       {"pairs": len(pairs), "exhaustive": exhaustive})


def check_folded_exchange(folded: FoldedSystem, fixed: Sequence[Element],
                          config: VerifyConfig) -> CheckResult:
    verified = 0
    try:
        for w in fixed:
            word = folded.greedy_factorize(w)
            if len(word) > config.exchange_lambda_cap:
                continue
            lam = len(word)
            for orbit in folded.bar_s:
                if folded.lambda_of_product(folded.longest[orbit], w) > lam:
                    continue
                folded.folded_exchange(word, orbit)
                verified += 1
    except (InvariantViolation, ValueError) as err:
        witness = getattr(err, "witness", {"error": str(err)})
        return CheckResult("folded-exchange-condition", "fail",
                           {"descents_verified": verified}, witness)
    return CheckResult("folded-exchange-condition", "pass",
                       {"descents_verified": verified,
                        "lambda_cap": config.exchange_lambda_cap})


def check_generated_matches_fixed(folded: FoldedSystem, gen_ball: GeneratedBall,
                                  fixed: Sequence[Element],
                                  w_ball: Ball) -> CheckResult:
    """The subgroup spanned by the folded generators is the fixed set.

    Full balls: exact set equality of action keys.  Bounded balls: every
    enumerated product is fixed, and every fixed element whose greedy
    factorization fits the radius appears among the products.
    """
    fixed_keys = {w.cols for w in fixed}
    gen_keys = set(gen_ball.key_index)
    if w_ball.complete and gen_ball.complete:
        if gen_keys != fixed_keys:
            return CheckResult(
                "generated-subgroup-matches-fixed-set", "fail",
                {"generated": len(gen_keys), "fixed": len(fixed_keys)},
                {"generated_size": len(gen_keys), "fixed_size": len(fixed_keys)},
            )
        return CheckResult("generated-subgroup-matches-fixed-set", "pass",
                           {"generated": len(gen_keys), "fixed": len(fixed_keys),
                            "mode": "full"})
    fixes = folded.group._engine.fixes
    for pair in gen_ball.pairs:
        if not all(fixes(gamma.images, pair[0]) for gamma in folded.autos):
            return CheckResult(
                "generated-subgroup-matches-fixed-set", "fail",
                {"generated": len(gen_keys)},
                {"problem": "generated element is not fixed"},
            )
    radius = gen_ball.radius
    for w in fixed:
        lam = folded.lambda_length(w)
        if radius is not None and lam > radius:
            continue
        if w.cols not in gen_ball.key_index:
            return CheckResult(
                "generated-subgroup-matches-fixed-set", "fail",
                {"generated": len(gen_keys), "fixed": len(fixed_keys)},
                {"word": list(w.word), "lambda": lam,
                 "problem": "fixed element missing from generated ball"},
            )
    return CheckResult("generated-subgroup-matches-fixed-set", "pass",
                       {"generated": len(gen_keys), "fixed": len(fixed_keys),
                        "mode": "bounded"})


def presentation_check(folded: FoldedSystem, gen_ball: GeneratedBall,
                       config: VerifyConfig,
                       w_ball: Ball | None = None) -> CheckResult:
    """Labeled-graph isomorphism between the generated fixed subgroup and
    the abstract Coxeter group of the folded matrix, matched level by
    level, plus the length-transfer biconditional on element pairs."""
    group = folded.group
    radius = gen_ball.radius
    abstract = CoxeterGroup(folded.folded_matrix)
    abstract_ball = enumerate_ball(abstract, radius, node_cap=config.node_cap)
    abstract_edges = _ball_edges(abstract_ball)

    stats = {
        "generated_size": len(gen_ball),
        "abstract_size": len(abstract_ball),
        "radius": "full" if radius is None else radius,
    }
    if len(gen_ball) != len(abstract_ball):
        return CheckResult("presentation-isomorphism", "fail", stats,
                           {"problem": "sizes differ", **stats})

    # unit steps: every folded generator changes the BFS level by exactly 1
    for idx, row in enumerate(gen_ball.edges):
        for tgt in row:
            if tgt is not None and abs(gen_ball.levels[tgt] - gen_ball.levels[idx]) != 1:
                return CheckResult(
                    "presentation-isomorphism", "fail", stats,
                    {"problem": "generator step does not change folded length by 1",
                     "level": gen_ball.levels[idx]},
                )

    # the only candidate isomorphism maps identity to identity and commutes
    # with labeled edges; follow it breadth-first and demand consistency
    phi: list[int | None] = [None] * len(gen_ball)
    phi[0] = 0
    queue = [0]
    seen_images = {0}
    while queue:
        nxt = []
        for a in queue:
            b = phi[a]
            for k in range(len(gen_ball.gens)):
                a2 = gen_ball.edges[a][k]
                b2 = abstract_edges[b][k]
                if (a2 is None) != (b2 is None):
                    return CheckResult(
                        "presentation-isomorphism", "fail", stats,
                        {"problem": "edge present on one side only",
                         "generator": k + 1, "level": gen_ball.levels[a]},
                    )
                if a2 is None:
                    continue
                if gen_ball.levels[a2] != abstract_ball.elements[b2].length:
                    return CheckResult(
                        "presentation-isomorphism", "fail", stats,
                        {"problem": "folded length mismatch",
                         "generated_level": gen_ball.levels[a2],
                         "abstract_length": abstract_ball.elements[b2].length},
                    )
                if phi[a2] is None:
                    if b2 in seen_images:
                        return CheckResult(
                            "presentation-isomorphism", "fail", stats,
                            {"problem": "candidate map is not injective"},
                        )
                    phi[a2] = b2
                    seen_images.add(b2)
                    nxt.append(a2)
                elif phi[a2] != b2:
                    return CheckResult(
                        "presentation-isomorphism", "fail", stats,
                        {"problem": "labeled edges disagree",
                         "generator": k + 1, "level": gen_ball.levels[a]},
                    )
        queue = nxt
    if any(v is None for v in phi):
        return CheckResult("presentation-isomorphism", "fail", stats,
                           {"problem": "generated graph is not connected"})

    # length transfer: l adds exactly when the folded BFS level adds.
    # Inside a full ball, lengths come from the enumeration itself.
    full_lookup = w_ball is not None and w_ball.complete

    def materialize(pair):
        if full_lookup:
            idx = w_ball.key_index.get(pair[0])
            if idx is not None:
                return w_ball.elements[idx]
        return group._element_from_cols(*pair)

    elements = [materialize(pair) for pair in gen_ball.pairs]
    n = len(elements)
    if radius is None:
        candidates = [(i, j) for i in range(n) for j in range(n)]
    else:
        candidates = [
            (i, j) for i in range(n) for j in range(n)
            if gen_ball.levels[i] + gen_ball.levels[j] <= radius
        ]
    if len(candidates) > config.pair_cap:
        rng = _rng(config, "presentation-pairs")
        candidates = rng.sample(candidates, config.sample_pairs)
        stats["pairs"] = len(candidates)
        stats["pairs_exhaustive"] = False
    else:
        stats["pairs"] = len(candidates)
        stats["pairs_exhaustive"] = True
    compose = group._engine.compose
    for i, j in candidates:
        z_cols = compose(elements[i].cols, elements[j].cols)
        lam_z = gen_ball.key_index.get(z_cols)
        if lam_z is None:
            return CheckResult("presentation-isomorphism", "fail", stats,
                               {"problem": "product left the generated ball"})
        z = elements[lam_z]
        l_add = z.length == elements[i].length + elements[j].length
        lam_add = (gen_ball.levels[lam_z]
                   == gen_ball.levels[i] + gen_ball.levels[j])
        if l_add != lam_add:
            return CheckResult(
                "presentation-isomorphism", "fail", stats,
                {"problem": "length transfer fails",
                 "left": list(elements[i].word), "right": list(elements[j].word),
                 "length_additive": l_add, "folded_additive": lam_add},
            )
    return CheckResult("presentation-isomorphism", "pass", stats)


# ---------------------------------------------------------------------------
# the suite


def property_suite(group: CoxeterGroup, autos: Sequence[Automorphism],
                   config: VerifyConfig = VerifyConfig(),
                   digest: str | None = None) -> Report:
    """Run every check against one (matrix, automorphisms) instance."""
    autos = tuple(autos)
    digest = digest or input_digest(group.matrix, autos)

    problems = []
    for gamma in autos:
        problems.extend(validate_automorphism(group.matrix, gamma.images))
    validation = CheckResult(
        "automorphisms-preserve-matrix",
        "fail" if problems else "pass",
        {"generators": len(autos)},
        {"problems": problems} if problems else None,
    )

    check_names = [
        "finiteness-classification-vs-greedy",
        "fixed-elements-factorize",
        "factorization-count-choice-independent",
        "minimal-words-length-additive",
        "dihedral-pairs",
        "length-additivity-transfer",
        "folded-exchange-condition",
        "generated-subgroup-matches-fixed-set",
        "presentation-isomorphism",
    ]
    if problems:
        checks = [validation] + [
            CheckResult(name, "skipped", {}) for name in check_names
        ]
        return Report(input_digest=digest,
                      orbit_summary={}, folded_summary={}, checks=checks)

    try:
        folded = fold(group, autos)
    except InvariantViolation as err:
        checks = [validation,
                  CheckResult("fold-construction", "fail", {}, err.witness)]
        checks += [CheckResult(name, "skipped", {}) for name in check_names]
        return Report(input_digest=digest,
                      orbit_summary={}, folded_summary={}, checks=checks)
    finite_w = classify_finite(group.matrix, group.generators()) is not None
    w_radius = None if finite_w else (config.radius or DEFAULT_INFINITE_RADIUS)
    ball = enumerate_ball(group, w_radius, node_cap=config.node_cap)
    fixed = fixed_subgroup(ball, autos)
    folded_finite = (
        classify_finite(folded.folded_matrix, folded.folded_matrix.generators())
        is not None
    )
    lam_radius = None if folded_finite else (config.radius or DEFAULT_INFINITE_RADIUS)
    gen_ball = generated_ball(
        group, [folded.longest[J] for J in folded.bar_s], lam_radius,
        node_cap=config.node_cap,
    )

    tasks = {
        "finiteness-classification-vs-greedy":
            lambda: check_finiteness_vs_greedy(group, config),
        "fixed-elements-factorize":
            lambda: check_factorize_fixed(folded, fixed),
        "factorization-count-choice-independent":
            lambda: check_choice_independence(folded, fixed, config),
        "minimal-words-length-additive":
            lambda: check_minimal_additivity(folded, config),
        "dihedral-pairs":
            lambda: check_dihedral_pairs(folded),
        "length-additivity-transfer":
            lambda: check_additivity_transfer(folded, fixed, config),
        "folded-exchange-condition":
            lambda: check_folded_exchange(folded, fixed, config),
        "generated-subgroup-matches-fixed-set":
            lambda: check_generated_matches_fixed(folded, gen_ball, fixed, ball),
        "presentation-isomorphism":
            lambda: presentation_check(folded, gen_ball, config, w_ball=ball),
    }

    def run_check(name, fn):
        # a broken folded system raises with a witness from deep inside an
        # operation; that is a finding, not a crash
        try:
            return fn()
        except InvariantViolation as err:
            return CheckResult(name, "fail", {}, err.witness)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = {
                name: pool.submit(run_check, name, fn)
                for name, fn in tasks.items()
            }
            results = {name: fut.result() for name, fut in futures.items()}
    else:
        results = {name: run_check(name, fn) for name, fn in tasks.items()}
    checks = [validation] + [results[name] for name in check_names]

    orbit_summary = {
        "orbits": [sorted(o) for o in folded.orbit_partition],
        "bar_s": [sorted(o) for o in folded.bar_s],
        "dropped_infinite": [sorted(o) for o in folded.dropped],
        "generators": [
            {"orbit": sorted(J), "word": list(folded.longest[J].word),
             "weight": folded.weight[J]}
            for J in folded.bar_s
        ],
    }
    folded_summary = {
        "matrix": [
            ["inf" if v == INF else int(v) for v in row]
            for row in folded.folded_matrix.entries
        ],
        "type": folded.folded_type(),
        "weights": list(folded.ordered_weights()),
        "fixed_subgroup_order": coxeter_order(
            folded.folded_matrix, folded.folded_matrix.generators()
        ),
        "pairs": [
            {"orbits": [sorted(d.orbit_a), sorted(d.orbit_b)],
             "label": "inf" if d.label == INF else int(d.label),
             "union_longest_length": d.longest_length,
             "weights": [d.weight_a, d.weight_b]}
            for d in folded.details
        ],
    }
    return Report(input_digest=digest, orbit_summary=orbit_summary,
                  folded_summary=folded_summary, checks=checks)
