"""Node-by-node reference routes for `families.TreeModel`, used only by tests.

These are the original one-node-at-a-time recursions: a region's mass walks
every partly covered node with a scalar subset value, a prefix mass follows
the single partial child down, and a draw walks the tree with one
`rng.choice` per live node.  The library answers the same queries with one
array pass per depth, so the two share nothing but the layer data
(`fanin`, `q`) and make an independent oracle for each other.  The exact
oracle at the end shares only the tree's shape: it builds each combiner's
weights in Fractions from its truth table.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _span(model, depth: int) -> int:
    s = 1
    for layer in model.layers[depth:]:
        s *= layer.fanin
    return s


def subset_value(layer, child_vals) -> float:
    """E over child subsets T of the product of child_vals inside T.

    e[t] is the elementary symmetric sum of order t divided by C(m, t), the
    mean product over the subsets of size t; it stays in [0, 1] at any fan-in,
    so no binomial is ever formed as a float.
    """
    m = layer.fanin
    e = np.zeros(m + 1)
    e[0] = 1.0
    t = np.arange(1, m + 1)
    step = t / (m - t + 1)  # C(m, t - 1) / C(m, t)
    for vi in np.asarray(child_vals, dtype=np.float64):
        e[1:] = e[1:] + vi * step * e[:-1]
    return float(layer.q[1:] @ e[1:])


def prefix_coeffs(layer, full: int) -> tuple[float, float]:
    """(alpha, beta) with prefix mass = alpha + beta * partial-child mass.

    Each binomial ratio is an int/int division, which Python rounds correctly
    and which cannot overflow for a ratio of at most 1.
    """
    m = layer.fanin
    alpha = beta = 0.0
    for t in range(1, m + 1):
        q_t = layer.q[t]
        if q_t == 0.0:
            continue
        alpha += q_t * (math.comb(full, t) / math.comb(m, t))
        if full < m:
            beta += q_t * (math.comb(full, t - 1) / math.comb(m, t))
    return alpha, beta


def subset_mass(model, cells) -> float:
    """Mass of sets contained in `cells`; the empty set always is."""
    inside = np.array(sorted(c for c in cells if c < model.leaf_count), dtype=np.int64)

    def node_value(depth: int, lo: int) -> float:
        span = _span(model, depth)
        count = int(
            np.searchsorted(inside, lo + span, side="left")
            - np.searchsorted(inside, lo, side="left")
        )
        if count == span:
            return 1.0
        if count == 0:
            return 0.0
        layer = model.layers[depth]
        child_span = span // layer.fanin
        vals = [node_value(depth + 1, lo + i * child_span) for i in range(layer.fanin)]
        return subset_value(layer, vals)

    return model.empty_mass + model.fluctuation_mass * node_value(0, 0)


def prefix_mass(model, boundary: int) -> float:
    """Mass of sets inside the first `boundary` cells."""
    b = min(boundary, model.leaf_count)
    if b <= 0:
        return model.empty_mass
    if b == model.leaf_count:
        return model.empty_mass + model.fluctuation_mass

    def node_value(depth: int, cut: int) -> float:
        layer = model.layers[depth]
        child_span = _span(model, depth) // layer.fanin
        full, rem = divmod(cut, child_span)
        alpha, beta = prefix_coeffs(layer, full)
        if rem == 0:
            return alpha
        return alpha + beta * node_value(depth + 1, rem)

    return model.empty_mass + model.fluctuation_mass * node_value(0, b)


def suffix_mass(model, boundary: int) -> float:
    """Mass of sets inside the cells from `boundary` on."""
    return subset_mass(model, frozenset(range(boundary, model.grid.n_cells)))


def sample(model, k: int, seed: int) -> list[tuple[int, ...]]:
    """k exact draws, one stack walk and one `rng.choice` per live node."""
    rng = np.random.default_rng(seed)
    draws: list[tuple[int, ...]] = []
    for _ in range(k):
        if rng.uniform() < model.empty_mass / model.total_mass:
            draws.append(())
            continue
        cells: list[int] = []
        stack = [(0, 0)]
        while stack:
            depth, lo = stack.pop()
            if depth == len(model.layers):
                cells.append(lo)
                continue
            layer = model.layers[depth]
            child_span = _span(model, depth) // layer.fanin
            t = int(rng.choice(layer.fanin + 1, p=layer.q))
            children = rng.choice(layer.fanin, size=t, replace=False).tolist()
            stack.extend((depth + 1, lo + int(i) * child_span) for i in children)
        draws.append(tuple(sorted(cells)))
    return draws


# ---------------------------------------------------------------------------
# exact oracle: Fraction masses from the combiners' own truth tables


def exact_layer(kind: str, m: int, mu: Fraction) -> tuple[Fraction, Fraction, list[Fraction]]:
    """(mean, fluctuation, w) of a majority, and or or combiner of m i.i.d. +-1
    inputs of mean `mu`, all exact; w[t] is the fraction of output fluctuation
    on one child subset of size t (w[0] = 0).

    The coefficient on a subset T of size t in the basis (y - mu) / sigma is
    E[g(Y) prod_T (Y_i - mu)] / sigma**t; g depends only on the number k of +1
    inputs, so that mean splits over the +1 inputs a inside T and b outside.
    """
    out = {"majority": lambda k: 2 * k > m, "and": lambda k: k == m, "or": lambda k: k > 0}[kind]
    p = (1 + mu) / 2
    c = [sum(math.comb(t, a) * math.comb(m - t, b) * p ** (a + b) * (1 - p) ** (m - a - b)
             * (1 if out(a + b) else -1) * (1 - mu) ** a * (-1 - mu) ** (t - a)
             for a in range(t + 1) for b in range(m - t + 1))
         for t in range(m + 1)]
    fluct = 1 - c[0] ** 2
    w = [Fraction(0)] + [c[t] ** 2 / (1 - mu * mu) ** t / fluct for t in range(1, m + 1)]
    # Parseval for a +-1 output: the subsets carry all of the fluctuation
    assert sum(math.comb(m, t) * w[t] for t in range(m + 1)) == 1
    return c[0], fluct, w


def exact_tree(specs) -> tuple[Fraction, Fraction, list[tuple[int, list[Fraction]]]]:
    """(empty mass, fluctuation mass, per-layer (fanin, w)) of a combiner tree
    listed root first over unbiased leaves."""
    layers, mu = [], Fraction(0)
    for kind, m in reversed(specs):
        mu, fluct, w = exact_layer(kind, m, mu)
        layers.append((m, w))
    return mu * mu, fluct, layers[::-1]


def exact_subset_mass(tree, ranges) -> Fraction:
    """Exact mass of the sets inside the cells of sorted disjoint [lo, hi) ranges."""
    empty, fluct, layers = tree
    spans = [1]
    for m, _ in reversed(layers):
        spans.insert(0, spans[0] * m)
    ranges = [(min(lo, spans[0]), min(hi, spans[0])) for lo, hi in ranges]

    def inside(lo: int, hi: int) -> int:
        return sum(max(0, min(hi, b) - max(lo, a)) for a, b in ranges)

    def node_value(depth: int, lo: int) -> Fraction:
        count = inside(lo, lo + spans[depth])
        if count in (0, spans[depth]):
            return Fraction(count // spans[depth])
        m, w = layers[depth]
        e = [Fraction(1)] + [Fraction(0)] * m  # elementary symmetric sums of the child values
        for i in range(m):
            v = node_value(depth + 1, lo + i * spans[depth + 1])
            for t in range(i + 1, 0, -1):
                e[t] += v * e[t - 1]
        return sum(w[t] * e[t] for t in range(1, m + 1))

    return empty + fluct * node_value(0, 0)
