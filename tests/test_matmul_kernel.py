"""The fused kernel ArithContext.matmul, and the matrix engine's rmul that
calls it, against products with one CycloReal `*` and `+` at a time.

matmul reads an entry as an int when only its constant coefficient is
nonzero, else as its nonzero (power, coefficient) pairs, convolves only
pairs by pairs, reduces an entry only after a convolution and returns
outer[t] itself for a unit column e_t of inner.  Each of those paths must
give the entries of oracles.scalar_matmul, and every entry must be a
reduced coefficient tuple of length `degree`:

* on seeded matrices over N = 2, 6, 12, 42 and 60 (degrees 2 to 32),
  whose entries are zero, integers, sparse and dense, and whose inners
  mix unit columns, the columns of a reflection (-e_s, and e_t + c e_s)
  and arbitrary ones;
* on the ball actions of affine A2, where every entry is an integer, of
  the (4,4,3) and (2,3,7) triangle groups and of the rank-4 hyperbolic
  group, where rmul must also be oracles.reference_rmul, the body it had
  before it called the kernel.
"""

import random

import pytest

from coxfold.coxeter import CoxeterMatrix, parse_input
from coxfold.cyclo import ArithContext, CycloReal
from coxfold.verify import enumerate_ball
from coxfold.words import CoxeterGroup

import oracles
from conftest import MATRICES
from test_ball_products import HYPERBOLIC_ID


def _coeffs(matrix, degree):
    """Each entry's coefficients, after checking it is a reduced tuple."""
    out = []
    for col in matrix:
        for x in col:
            assert type(x.coeffs) is tuple and len(x.coeffs) == degree
            assert all(type(c) is int for c in x.coeffs)
        out.append([x.coeffs for x in col])
    return out


def _entry(ctx, rng):
    d = ctx.degree
    kind = rng.choice(("zero", "int", "sparse", "dense"))
    coeffs = [0] * d
    if kind == "int":
        coeffs[0] = rng.choice((1, -1, 2, -2, rng.randint(-9, 9), -(3 ** 41)))
    elif kind == "sparse":
        for p in rng.sample(range(d), min(d, rng.randint(1, 2))):
            coeffs[p] = rng.choice((1, -1, rng.randint(-50, 50)))
    elif kind == "dense":
        coeffs = [rng.randint(-2 ** 70, 2 ** 70) for _ in range(d)]
    return CycloReal(ctx, tuple(coeffs))


def _inner_column(ctx, rng, rank):
    """A column of inner, and t when it is the unit column e_t."""
    column = [ctx.zero] * rank
    kind = rng.choice(("unit", "negated", "neighbour", "zero", "any"))
    t, s = rng.sample(range(rank), 2)
    if kind == "unit":
        column[t] = ctx.one
    elif kind == "negated":
        column[s] = -ctx.one
    elif kind == "neighbour":
        column[t], column[s] = ctx.one, _entry(ctx, rng)
    elif kind == "any":
        column = [_entry(ctx, rng) for _ in range(rank)]
    return tuple(column), t if kind == "unit" else None


@pytest.mark.parametrize("N", [2, 6, 12, 42, 60])
def test_matmul_matches_scalar_products_on_seeded_matrices(N):
    ctx = ArithContext(N)
    rng = random.Random(f"matmul-kernel:{N}")
    for _ in range(40):
        rank = rng.randint(2, 4)
        outer = tuple(tuple(_entry(ctx, rng) for _ in range(rank))
                      for _ in range(rank))
        inner, units = zip(*(_inner_column(ctx, rng, rank)
                             for _ in range(rank)))
        product = ctx.matmul(outer, inner)
        assert (_coeffs(product, ctx.degree)
                == _coeffs(oracles.scalar_matmul(outer, inner, ctx.zero),
                           ctx.degree))
        for t, out in zip(units, product):
            assert t is None or out is outer[t]


BALL_GROUPS = {
    # name: (Coxeter matrix, ball radius)
    "affine-a2": (MATRICES["triangle"], 5),
    "tri443": (CoxeterMatrix.from_labels(3, {(1, 2): 4, (1, 3): 4, (2, 3): 3}),
               5),
    "tri237": (CoxeterMatrix.from_labels(3, {(1, 2): 3, (2, 3): 7}), 6),
    "hyperbolic": (parse_input(HYPERBOLIC_ID).matrix, 3),
}


@pytest.mark.parametrize("name", sorted(BALL_GROUPS))
def test_rmul_and_compose_match_scalar_products_on_ball_actions(name):
    matrix, radius = BALL_GROUPS[name]
    W = CoxeterGroup(matrix)
    ctx, engine = W.ctx, W._engine
    actions = [w.inv_cols for w in
               oracles.ball_elements(enumerate_ball(W, radius))]
    for cols in actions:
        for s in W.generators():
            assert (_coeffs(engine.rmul(cols, s), ctx.degree)
                    == _coeffs(oracles.reference_rmul(W, cols, s), ctx.degree))
    rng = random.Random(f"matmul-kernel:{name}")
    for _ in range(20):
        outer, inner = rng.choice(actions), rng.choice(actions)
        assert (_coeffs(engine.compose(outer, inner), ctx.degree)
                == _coeffs(oracles.scalar_matmul(outer, inner, ctx.zero),
                           ctx.degree))
