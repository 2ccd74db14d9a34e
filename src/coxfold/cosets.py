"""The fixed points of a finite W over a chain of parabolics.

For J in K, every w in W_K is uniquely u x with u in W_J and x in ^J W_K,
the x in W_K with no left descent in J (Bjorner and Brenti, GTM 231, Prop.
2.4.4).  Each gamma preserves length, so for Gamma-stable J and K it fixes
w exactly when it fixes u and x, and W^Gamma is the products of each
step's fixed representatives.  verify's key walk lists them, and its
fixedness test keeps the fixed ones; the catalog counts their products,
and the property suite lists them.
"""

from __future__ import annotations

from . import verify  # which imports this module: names read at call time
from .coxeter import coxeter_order, graph_components
from .words import EngineInvariantError


def coset_walks(group, autos):
    """(J, K, |W_K| / |W_J|, ball of ^J W_K) for each step of a chain of
    unions of Gamma-orbits, bottom step first.  It is built from the top,
    each step dropping the orbit that leaves the largest parabolic (on a
    tie, the one with the smallest member), so each index is the least on
    offer.  A walk stops one node past its index."""
    matrix = group.matrix
    orbits = [set(c) for c in graph_components(     # as in folding.orbits
        {s: [gamma(s) for gamma in autos] for s in matrix.generators()})]
    K = set(matrix.generators())
    order_k = coxeter_order(matrix, K)
    steps = []
    while orbits:
        orders = [coxeter_order(matrix, K - orbit) for orbit in orbits]
        drop = orders.index(max(orders))
        J = K - orbits.pop(drop)
        steps.append((J, K, order_k // orders[drop]))
        K, order_k = J, orders[drop]
    for J, K, index in reversed(steps):
        yield J, K, index, verify._image_ball(group, None, K, J, index)


def fixed_elements(group, autos) -> tuple:
    """W^Gamma of a finite W in ball order.  A product u x of fixed
    representatives is one compose, (u x)^-1 = x^-1 u^-1, and then its
    word is extracted.  Raises past NODE_CAP products, and when a walk
    disagrees with the classification."""
    compose = group._engine.compose
    products = [group._engine.identity]     # inverse actions of W_J^Gamma
    for J, K, index, reps in coset_walks(group, autos):
        if len(reps) != index:
            raise EngineInvariantError(
                "coset walk disagrees with the classification",
                group._witness(J=sorted(J), K=sorted(K), index=index,
                               found=len(reps)))
        fixed = [x.inv_cols for x in verify.fixed_subgroup(reps, autos)]
        if len(products) * len(fixed) > verify.NODE_CAP:
            raise verify.NodeCapExceeded(
                f"fixed set exceeded the node cap {verify.NODE_CAP}")
        products = [compose(x, u) for u in products for x in fixed]
    return tuple(sorted(map(group._element_from_inv, products),
                        key=lambda w: (len(w.word), w.word)))
