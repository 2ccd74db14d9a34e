"""Built-in folding instances with independently derived expectations.

Each entry carries its input in the plain file format, the expected folded
type and weights, and the expected fixed-subgroup size.  Running an entry
recomputes everything and counts the fixed subgroup by brute force, so a
"match" row means the folding construction and the oracle agree.  A finite
W is counted on the coset chain that `verify` lists W^Gamma on: each w in
W_K is uniquely u x with u in W_J and x a minimal coset representative
(Bjorner and Brenti, GTM 231, Prop. 2.4.4), and each walk must reach the
index the classification gives.  Infinite rows compare radius-bounded
balls instead of total counts.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import classify_finite, parse_input
from .folding import Automorphism, fold
from .verify import (
    DEFAULT_INFINITE_RADIUS,
    VerifyConfig,
    coset_walks,
    enumerate_ball,
    fixed_nodes,
    generated_ball,
    presentation_check,
)
from .words import CoxeterGroup


class CatalogEntry(NamedTuple):
    name: str
    input_text: str
    folded_type: str
    weights: tuple[int, ...]
    fixed_order: int | None   # None: infinite fixed subgroup, compare balls
    slow: bool = False


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="a2-flip",
        input_text="rank 2\nm 1 2 3\nauto flip 1>2 2>1\n",
        folded_type="A1", weights=(3,), fixed_order=2,
    ),
    CatalogEntry(
        name="a3-flip",
        input_text="rank 3\nm 1 2 3\nm 2 3 3\nauto flip 1>3 3>1\n",
        folded_type="I2(4)", weights=(2, 1), fixed_order=8,
    ),
    CatalogEntry(
        name="a4-flip",
        input_text="rank 4\nm 1 2 3\nm 2 3 3\nm 3 4 3\nauto flip 1>4 4>1 2>3 3>2\n",
        folded_type="I2(4)", weights=(2, 3), fixed_order=8,
    ),
    CatalogEntry(
        name="a5-flip",
        input_text=(
            "rank 5\nm 1 2 3\nm 2 3 3\nm 3 4 3\nm 4 5 3\n"
            "auto flip 1>5 5>1 2>4 4>2\n"
        ),
        folded_type="B3", weights=(2, 2, 1), fixed_order=48,
    ),
    CatalogEntry(
        name="d4-triality",
        input_text="rank 4\nm 1 2 3\nm 2 3 3\nm 2 4 3\nauto rot 1>3 3>4 4>1\n",
        folded_type="I2(6)", weights=(3, 1), fixed_order=12,
    ),
    CatalogEntry(
        name="d4-leaf-swap",
        input_text="rank 4\nm 1 2 3\nm 2 3 3\nm 2 4 3\nauto swap 3>4 4>3\n",
        folded_type="B3", weights=(1, 1, 2), fixed_order=48,
    ),
    CatalogEntry(
        name="affine-a2-flip",
        input_text="rank 3\nm 1 2 3\nm 2 3 3\nm 1 3 3\nauto flip 1>2 2>1\n",
        folded_type="I2(inf)", weights=(3, 1), fixed_order=None,
    ),
    CatalogEntry(
        name="infinite-dihedral-flip",
        input_text="rank 2\nm 1 2 inf\nauto flip 1>2 2>1\n",
        folded_type="trivial", weights=(), fixed_order=1,
    ),
    CatalogEntry(
        name="e6-flip",
        input_text=(
            "rank 6\nm 1 3 3\nm 3 4 3\nm 4 5 3\nm 5 6 3\nm 2 4 3\n"
            "auto flip 1>6 6>1 3>5 5>3\n"
        ),
        folded_type="F4", weights=(2, 2, 1, 1), fixed_order=1152,
        slow=True,
    ),
)


class CatalogRow(NamedTuple):
    name: str
    expected_type: str
    expected_weights: tuple[int, ...]
    expected_order: int | None
    computed_type: str
    computed_weights: tuple[int, ...]
    computed_order: int | None
    ball_note: str
    match: bool

    def to_dict(self):
        return {
            "name": self.name,
            "expected": {
                "type": self.expected_type,
                "weights": list(self.expected_weights),
                "fixed_order": self.expected_order,
            },
            "computed": {
                "type": self.computed_type,
                "weights": list(self.computed_weights),
                "fixed_order": self.computed_order,
            },
            "ball_note": self.ball_note,
            "match": self.match,
        }


def finite_fixed_count(group: CoxeterGroup, autos) -> int:
    """|W^Gamma| for a finite W by brute force: the product, over the
    coset chain, of each step's fixed minimal representatives; -1 when a
    walk disagrees with the classification."""
    count = 1
    for _, _, index, reps in coset_walks(group, autos):
        if len(reps) != index:
            return -1  # the walk disagrees with the classification
        count *= len(fixed_nodes(reps, autos))
    return count


def run_entry(entry: CatalogEntry) -> CatalogRow:
    """Fold the entry and count its fixed subgroup by brute force."""
    parsed = parse_input(entry.input_text)
    group = CoxeterGroup(parsed.matrix)
    autos = [Automorphism(images) for _, images in parsed.autos]
    folded = fold(group, autos)

    computed_type = folded.folded_type()
    computed_weights = folded.ordered_weights()

    finite_w = classify_finite(group.matrix, group.generators()) is not None
    ball_note = ""
    if finite_w:
        computed_order = finite_fixed_count(group, autos)
    else:
        folded_finite = (
            classify_finite(folded.folded_matrix,
                            folded.folded_matrix.generators()) is not None
        )
        gens = [folded.longest[J] for J in folded.bar_s]
        if folded_finite:
            gen = generated_ball(group, gens, None)
            computed_order = len(gen)
            w_ball = enumerate_ball(group, DEFAULT_INFINITE_RADIUS, autos)
            fixed_count = len(fixed_nodes(w_ball, autos))
            ball_note = (f"radius-{DEFAULT_INFINITE_RADIUS} fixed count "
                         f"{fixed_count}")
            if fixed_count != computed_order:
                computed_order = -1  # fixed set disagrees with the span
        else:
            computed_order = None
            gen = generated_ball(group, gens, DEFAULT_INFINITE_RADIUS)
            pres = presentation_check(folded, gen, VerifyConfig())
            ball_note = (
                f"radius-{DEFAULT_INFINITE_RADIUS} ball: {len(gen)} elements, "
                f"presentation {pres.status}"
            )
            if pres.status != "pass":
                computed_order = -1  # force a mismatch below

    match = (
        computed_type == entry.folded_type
        and tuple(computed_weights) == entry.weights
        and computed_order == entry.fixed_order
    )
    return CatalogRow(
        name=entry.name,
        expected_type=entry.folded_type,
        expected_weights=entry.weights,
        expected_order=entry.fixed_order,
        computed_type=computed_type,
        computed_weights=tuple(computed_weights),
        computed_order=computed_order,
        ball_note=ball_note,
        match=match,
    )


def run_catalog(slow: bool = False) -> list[CatalogRow]:
    return [run_entry(e) for e in CATALOG if slow or not e.slow]
