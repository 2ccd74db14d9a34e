"""Independent test oracles: permutation models and generic BFS.

Nothing here touches the package's action matrices or normal forms.  Words
map to permutations (plain or signed), lengths come from BFS distance in
the Cayley graph or from inversion counting, and group elements are bare
tuples.  Agreements between these models and the engine are therefore
meaningful checks.

The one exception is reference_factorize: it peels a fixed element with
the engine's descent test and right multiplication, as the folded
factorization is defined, but without any of FoldedSystem's memos.
"""

from collections import deque


# -- plain permutations (symmetric group, diagram of type A) -----------------
# a permutation on n points is a tuple p with p[i] = image of i, 0-based


def perm_identity(n):
    return tuple(range(n))


def perm_compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(u[v[i]] for i in range(len(u)))


def adjacent_transposition(n, s):
    """Generator s of the type-A group on n points, 1-based s."""
    p = list(range(n))
    p[s - 1], p[s] = p[s], p[s - 1]
    return tuple(p)


def word_to_perm(n, word):
    out = perm_identity(n)
    for s in word:
        out = perm_compose(out, adjacent_transposition(n, s))
    return out


def perm_inversions(p):
    n = len(p)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
    )


def perm_left_descents(p):
    """1-based s with l(t_s o p) < l(p): s occurs after s+1 in one-line form."""
    inv = [0] * len(p)
    for pos, val in enumerate(p):
        inv[val] = pos
    return tuple(
        s for s in range(1, len(p)) if inv[s - 1] > inv[s]
    )


def perm_right_descents(p):
    return tuple(s for s in range(1, len(p)) if p[s - 1] > p[s])


# -- signed permutations (type B) ---------------------------------------------
# element = tuple w of signed images of 1..n (w[i-1] = w(i), value in +-1..+-n)


def signed_identity(n):
    return tuple(range(1, n + 1))


def signed_apply(w, i):
    return w[i - 1] if i > 0 else -w[-i - 1]


def signed_compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(signed_apply(u, v[i - 1]) for i in range(1, len(v) + 1))


def signed_generators(n):
    """s_1..s_{n-1} adjacent swaps, s_n the sign flip on the last coordinate;
    the Coxeter labels are 3 along the chain and 4 between s_{n-1} and s_n."""
    gens = []
    for s in range(1, n):
        img = list(range(1, n + 1))
        img[s - 1], img[s] = img[s], img[s - 1]
        gens.append(tuple(img))
    img = list(range(1, n + 1))
    img[n - 1] = -n
    gens.append(tuple(img))
    return gens


# -- generic Cayley-graph BFS ---------------------------------------------------


def bfs_lengths(identity, generators, compose, limit=None):
    """Map element -> word length over the given generators (right mult)."""
    dist = {identity: 0}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        if limit is not None and dist[x] >= limit:
            continue
        for g in generators:
            y = compose(x, g)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def group_order(identity, generators, compose):
    return len(bfs_lengths(identity, generators, compose))


# -- folded factorization without memos ------------------------------------------


def reference_factorize(folded, inv_cols, choose=None):
    """(orbit sequence, letters) of the element with this inverse action,
    peeled one orbit at a time with no memo: the orbit of the smallest
    left descent, or of the one `choose` picks from the sorted descents."""
    group = folded.group
    engine = group._engine
    seq, letters = [], 0
    while True:
        descents = [s for s in group.generators()
                    if engine.negative(inv_cols, s)]
        if not descents:
            break
        s = choose(descents) if choose is not None else descents[0]
        orbit = folded.orbit_of(s)
        assert all(engine.negative(inv_cols, t) for t in orbit)
        count = 0
        while True:
            down = [t for t in sorted(orbit) if engine.negative(inv_cols, t)]
            if not down:
                break
            inv_cols = engine.rmul(inv_cols, down[0])
            count += 1
        assert count == folded.weight[orbit]
        seq.append(orbit)
        letters += count
    assert inv_cols == engine.identity
    return seq, letters
