"""Named functional families and exact spectral models for composition trees.

A balanced tree of sign combiners (majority, and, or) stays analyzable far
beyond the dense table cap.  The device: expand each combiner in the
orthonormal basis biased to its input distribution, phi(y) = (y - mu) / sigma.
Squared coefficients then give, layer by layer, the exact fraction of
fluctuation mass on each child subset, and the tree's spectral measure factors
into a top-down branching process.  Every combiner here is a symmetric
function of i.i.d. inputs, so that fraction depends only on the subset's size:
a layer is its per-size weights.  That yields closed-form singleton masses,
cardinality profiles, restricted masses for arbitrary cell regions, and an
exact set sampler, all without touching a 2^n table.

Queries run as array passes with one step per tree depth.  A region arrives
as its sorted cell ranges, and only the nodes it covers partly are visited,
so its cost grows with the number of range endpoints, not with the leaf
count.  On `and` and `or` layers the per-subset weights are geometric in the
subset size, so a node's region fraction has product form: one log1p sum
over its partly covered children, whatever the fan-in (tribes' 1638-way
`or` at level 14 included).  A majority layer reads each node as one row of
per-child values (1 inside, 0 outside, the child's own fraction when partly
covered) and runs the elementary symmetric recurrence over its few columns.
Cut coefficients are the same subset values at full prefixes, looked up for
every depth of a block of prefix and suffix cuts at once, and the sampler draws
child subsets for every live node of every draw at once.

Below the dense cap a family is also a value table, `family_values`, so every
closed form here can be cross-checked against the dense transform in tests.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._rng import worker_generator
from .functionals import BackendError, FamilyRef, ItoTerm, NoiseFunctional
from .grid import ElementarySet, TimeGrid
from .kernels import SimplexKernel

DENSE_FANIN_CAP = 15
# boundaries per cut pass; a pass holds prefix and suffix cuts side by side, one
# row per depth, and stays cache-sized (measured)
CUT_BLOCK = 1 << 13
# widest fan-in whose child picks count smaller keys instead of sorting.  Re-measured at
# tribes L12's fan-in-8 layer on a 2-core AMD EPYC guest, at the rows its draws reach (about
# 66 for 64 draws, 21,400 for 20,000): counting took 5.6-5.7 against 6.2-6.3 us at 66 rows
# and 361-371 against 602-612 us at 21,400 warm, but 760-780 against 580 us on a cold first
# pass, and whole draws got no faster (64 draws 137 against 136-137 us, 20,000 draws 38.0-38.3
# against 38.2-39.2 ms, medians of 15 interleaved runs), so the cutoff stays
SORT_FREE_FANIN = 5


# ---------------------------------------------------------------------------
# one combiner layer in the biased basis


@dataclass(frozen=True, eq=False)
class TreeLayer:
    """Spectral data of one symmetric combiner reading m i.i.d. biased inputs.

    The combiner (majority, and, or) treats its children alike, so every child
    subset of one size carries the same mass; q[t] is the fraction of output
    fluctuation mass on the subsets of size t.  For and/or the mass of one
    subset grows by the factor rho per child it takes; rho is None for majority.
    """

    fanin: int
    mu_out: float
    sigma_sq: float
    q: np.ndarray
    rho: float | None = None

    @cached_property
    def weights(self) -> np.ndarray:
        """Mass of one child subset, per subset size; read by majority layers only.

        Each is q[t] / C(m, t) as one correctly rounded int/int division, so it is the
        float quotient while the binomial is exact in a float, and finite past it."""
        m, ratios = self.fanin, map(float.as_integer_ratio, self.q.tolist())
        combs = itertools.accumulate(range(m), lambda c, t: c * (m - t) // (t + 1), initial=1)
        return np.array([a / (b * c) for (a, b), c in zip(ratios, combs)])

    @cached_property
    def cut_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) per count of full children.

        A prefix covering children 0..full-1 and part of child `full` holds the fraction
        alpha[full] + beta[full] * (that child's own prefix fraction).  alpha is the subset
        value with `full` children inside; beta is its step, since taking the partial child
        makes it full.  Children are alike, so a suffix has the same pair."""
        m = self.fanin
        # and/or layers read their product form at counts: no m-wide row per count
        alpha = (self._product_form(np.arange(m + 1), 0.0) if self.rho is not None else
                 self.subset_values(np.tri(m + 1, m, -1, dtype=bool),
                                    np.zeros((m + 1, m), dtype=bool), np.zeros(0)))
        return alpha, np.append(np.diff(alpha), 0.0)

    @cached_property
    def size_cdf(self) -> np.ndarray:
        """Cumulative q, the law of a drawn child subset's size."""
        return np.cumsum(self.q)

    def subset_values(self, full: np.ndarray, partial: np.ndarray, value: np.ndarray) -> np.ndarray:
        """Per node r, E over child subsets T of the product of child values in T:
        r's fraction of fluctuation mass inside a region.  `full` marks the
        children inside (value 1), `partial` those covered partly, whose own
        fractions are `value` in row-major order; the rest have value 0.  And/or
        layers take the product form (prod(1 + rho x) - 1) / ((1 + rho)**m - 1)
        from full counts (a partial value of exactly 1 counts as full) and log1p
        sums; majority layers run the elementary symmetric recurrence (written out at fan-in 3)."""
        if self.rho is not None:
            rows, one = partial.ravel().nonzero()[0] // self.fanin, value == 1.0
            logs = np.where(one, 0.0, np.log1p(self.rho * value))
            count = full @ np.ones(self.fanin) + np.bincount(rows, weights=one, minlength=len(full))
            return self._product_form(count, np.bincount(rows, weights=logs, minlength=len(full)))
        x = full.astype(np.float64)
        x[partial] = value
        if self.fanin == 3:  # the loop unrolled, less its adds of 0 and products by 1: same bits
            x0, x1, x2 = x.T
            e1, e2 = x0 + x1, x1 * x0
            return self.weights[1:] @ np.array([e1 + x2, e2 + x2 * e1, x2 * e2])
        # e[t] holds order t for every node, so each step runs along whole rows
        e = np.zeros((self.fanin + 1, len(x)))
        e[0] = 1.0
        for i, xi in enumerate(x.T):
            # orders above i + 1 are still zero and stay so
            e[1 : i + 2] += xi * e[: i + 1]
        return self.weights[1:] @ e[1:]

    def _product_form(self, full: np.ndarray, part) -> np.ndarray:
        """And/or subset values from full-child counts and log1p(rho x) sums over partial ones."""
        lp = math.log1p(self.rho)
        # with s = log prod(1 + rho x) this is exp(s - s_full) expm1(-s) / expm1(-s_full);
        # every factor lies in [0, 1], so no fan-in forms a huge product
        return (np.exp((full - self.fanin) * lp + part) * np.expm1(-(full * lp + part))
                / np.expm1(-self.fanin * lp))

    def draw_children(self, rng: np.random.Generator, nodes: int) -> np.ndarray:
        """One child subset per node, as a (nodes, fanin) boolean array; sizes read `size_cdf`."""
        m, cdf = self.fanin, self.size_cdf
        # the children whose uniform keys are at most the size-th smallest form
        # a uniform subset of that size (q[0] = 0, so sizes start at 1); keys
        # go in row blocks to bound memory.  One call draws the size uniforms and
        # then the first block's keys, the stream two calls would draw
        picks, step = np.empty((nodes, m), dtype=bool), max(1, (1 << 20) // m)
        u = rng.random(nodes + min(nodes, step) * m)
        # searching cdf without its last entry caps the sizes at m, as a clip would
        sizes = cdf[:-1].searchsorted(u[:nodes] * cdf[-1], side="right")[:, None]
        picks[:step] = _smallest_keys(u[nodes:].reshape(-1, m), sizes[:step])
        for s in range(step, nodes, step):
            block = picks[s : s + step]
            block[...] = _smallest_keys(rng.random(block.shape), sizes[s : s + step])
        return picks


def _smallest_keys(keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per row, the keys at most the row's size-th smallest (sizes >= 1), ties included.

    A key is one of them exactly when fewer than `size` keys of its row are
    smaller.  Narrow rows count those in one comparison of every column with
    every other, laid out as contiguous columns, and sort nothing; wide rows
    sort, where the m**2 comparisons cost more than a sort.
    """
    m = keys.shape[1]
    if m > SORT_FREE_FANIN:
        return keys <= np.take_along_axis(np.sort(keys, axis=1), sizes - 1, axis=1)
    cols = keys.T.copy()
    # row i: per node, the keys smaller than key i (a key is never below itself)
    return (np.add.reduce(cols[None] < cols[:, None], axis=1, dtype=np.uint8) < sizes.T).T


def _input_sigma_sq(mu_in: float) -> float:
    sigma_sq_in = 1.0 - mu_in * mu_in
    if sigma_sq_in <= 0.0:
        raise ValueError("combiner inputs are almost surely constant")
    return sigma_sq_in


@functools.lru_cache
def _majority_layer(m: int, mu_in: float) -> TreeLayer:
    """Majority of m inputs (m odd), expanded over its 2^m sign patterns.

    Position bit i = 0 means input i equals +1.  Contracting the 2x2 matrix
    [[p+, p-], [sigma/2, -sigma/2]] along every axis turns values into
    coefficients on phi-products; their squares, summed per subset size,
    give q.
    """
    if m % 2 == 0 or m > DENSE_FANIN_CAP:
        raise ValueError(f"majority needs an odd fanin of at most {DENSE_FANIN_CAP}")
    sigma = math.sqrt(_input_sigma_sq(mu_in))
    mat = np.array([[(1.0 + mu_in) / 2.0, (1.0 - mu_in) / 2.0], [sigma / 2.0, -sigma / 2.0]])
    sizes = np.bitwise_count(np.arange(1 << m, dtype=np.uint64))
    coeff = np.where(2 * (m - sizes) > m, 1.0, -1.0).reshape((2,) * m)
    for axis in range(m):
        coeff = np.tensordot(mat, coeff, axes=([1], [axis]))
        coeff = np.moveaxis(coeff, 0, axis)
    sq = coeff.reshape(-1) ** 2
    mu_out = float(coeff.reshape(-1)[0])
    fluct = float(sq.sum() - sq[0])
    if fluct <= 0.0:
        raise ValueError("combiner output is almost surely constant")
    frac = sq / fluct
    frac[0] = 0.0
    q = np.zeros(m + 1)
    np.add.at(q, sizes, frac)
    return TreeLayer(m, mu_out, fluct, q)


@functools.lru_cache
def _sized_layer(kind: str, m: int, mu_in: float) -> TreeLayer:
    """Closed-form layer for and (all inputs +1) and or (any input +1).

    Per-size masses are assembled in log space; for fanin in the hundreds the
    individual squared coefficients underflow long before the sums do.  Each
    extra child in a subset scales its mass by rho = sigma_in^2 / (1 +- mu_in)^2,
    the slope in t of the log formula.
    """
    if kind not in ("and", "or"):
        raise ValueError(f"unknown symmetric combiner {kind!r}")
    log_sigma = 0.5 * math.log(_input_sigma_sq(mu_in))
    t = np.arange(m + 1, dtype=np.float64)
    log_binom = np.array(
        [math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1) for k in range(m + 1)]
    )
    # delta is the rare-side probability doubled, kept separate so the
    # fluctuation stays accurate
    base = math.log1p(mu_in) if kind == "and" else math.log1p(-mu_in)
    delta = 2.0 * math.exp(m * base - m * math.log(2.0))
    mu_out = delta - 1.0 if kind == "and" else 1.0 - delta
    logs = log_binom + 2.0 * ((1 - m) * math.log(2.0) + t * log_sigma + (m - t) * base)
    logs[0] = -np.inf
    q = np.exp(logs - logs[1:].max())
    q[0] = 0.0
    q /= q.sum()
    fluct = delta * (2.0 - delta)
    if fluct <= 0.0:
        raise ValueError("combiner output is almost surely constant")
    return TreeLayer(m, float(mu_out), float(fluct), q, math.exp(2.0 * (log_sigma - base)))


def build_layers(specs: list[tuple[str, int]]) -> list[TreeLayer]:
    """Shared, read-only layers for combiner specs listed root first; leaves are unbiased."""
    layers: list[TreeLayer] = []
    mu = 0.0
    for kind, m in reversed(specs):
        layer = _majority_layer(m, mu) if kind == "majority" else _sized_layer(kind, m, mu)
        layers.append(layer)
        mu = layer.mu_out
    layers.reverse()
    return layers


@functools.lru_cache
def _cut_scan(layers: tuple[TreeLayer, ...], spans: tuple[int, ...]) -> tuple:
    """Per-depth columns shared by the tree's models: child spans, fan-ins below the root
    (int32 while the leaves fit) and offsets into the flat alpha and beta tables; then those."""
    dtype = np.int32 if spans[0] <= np.iinfo(np.int32).max else np.int64
    alpha, beta = map(np.concatenate, zip(*(layer.cut_coeffs for layer in layers)))
    alpha[layers[0].fanin] = 1.0  # the cut past every leaf holds all the mass
    offsets = np.cumsum([0] + [layer.fanin + 1 for layer in layers[:-1]])[:, None]
    columns = (spans[1:], [layer.fanin for layer in layers[1:]])
    # last, `subset_mass`'s child starts: per depth, the first leaf of each child and of the
    # next node past a node's own first leaf, as floats
    starts = [span * np.arange(layer.fanin + 1.0) for layer, span in zip(layers, spans[1:])]
    return *(np.array(v, dtype=dtype)[:, None] for v in columns), offsets, alpha, beta, starts


# ---------------------------------------------------------------------------
# the tree as a spectral measure


@dataclass(eq=False)
class TreeModel:
    """Exact spectral measure of a balanced combiner tree over grid cells.

    Leaf j of the tree reads cell j; cells past leaf_count (block padding)
    never enter any spectral set.  Total mass is 1 since values are +-1.
    """

    grid: TimeGrid
    layers: list[TreeLayer]
    multiplicity_mass = 0.0  # class constants: a Walsh measure has no multiplicity
    total_mass = 1.0

    def __post_init__(self) -> None:
        # spans[d]: leaves under one node of depth d, down to spans[-1] = 1
        self.spans = [math.prod(layer.fanin for layer in self.layers[d:])
                      for d in range(len(self.layers) + 1)]
        self.leaf_count = self.spans[0]
        if self.leaf_count > self.grid.n_cells:
            raise ValueError("tree has more leaves than the grid has cells")
        self.empty_mass = self.layers[0].mu_out ** 2
        self.fluctuation_mass = self.layers[0].sigma_sq
        self._scan = _cut_scan(tuple(self.layers), tuple(self.spans))

    def _levels(self):
        """(layer, leaves under one of its children) from the root down."""
        return zip(self.layers, self.spans[1:])

    def singleton_mass(self) -> float:
        return self.fluctuation_mass * math.prod(float(layer.q[1]) for layer in self.layers)

    def cardinality_profile(self) -> dict[int, float]:
        """Unnormalized mass per set size, the empty atom included at 0."""
        poly = np.array([0.0, 1.0])
        for layer in reversed(self.layers):
            # sizes past the last nonzero q[t] add nothing, so their powers are never formed
            last = int(np.flatnonzero(layer.q)[-1])
            acc = np.zeros(last * (len(poly) - 1) + 1)
            power = np.ones(1)
            for t in range(1, last + 1):
                power = np.convolve(power, poly)
                if layer.q[t] != 0.0:
                    acc[: len(power)] += layer.q[t] * power
            # high sizes underflow to exact zeros; dropping them keeps the
            # convolutions proportional to the sizes that carry mass
            poly = np.trim_zeros(acc, "b")
        out = {0: self.empty_mass}
        for k in np.flatnonzero(poly[1:]).tolist():
            out[k + 1] = self.fluctuation_mass * float(poly[k + 1])
        return out

    def subset_mass(self, region: ElementarySet) -> float:
        """Mass of sets inside a region, read from its flat int64 range `bounds`.

        The count of region cells below leaf x is piecewise linear in x (slope 1 inside a range,
        0 between), so one `np.interp` per depth over the clipped range ends is exact below 2**53.
        Each depth keeps only the nodes the region covers partly, so the cost grows with the
        number of range endpoints, not with the leaf count.  The empty set always lies inside."""
        ends = np.minimum(region.bounds, self.leaf_count, dtype=np.float64)  # np.interp's knots
        below = np.zeros(len(ends))  # region cells below each range end
        below[1::2] = ends[1::2] - ends[::2]
        below.cumsum(out=below)
        if not below.any():
            return self.empty_mass
        if below[-1] == self.leaf_count:
            return self.empty_mass + self.fluctuation_mass
        nodes, levels = np.zeros(1), []  # first leaf of each partly covered node, as an exact float
        for (layer, child_span), steps in zip(self._levels(), self._scan[-1]):
            starts = nodes[:, None] + steps
            below_starts = np.interp(starts, ends, below)
            counts = below_starts[:, 1:] - below_starts[:, :-1]
            full = counts == child_span
            partial = (counts > 0) ^ full  # a full count is positive too
            levels.append((layer, full, partial))
            nodes = starts[:, :-1][partial]
            if not nodes.size:
                break
        value = np.zeros(0)
        for layer, full, partial in reversed(levels):
            value = layer.subset_values(full, partial, value)
        return self.empty_mass + self.fluctuation_mass * float(value[0])

    def cut_masses(self, boundaries) -> tuple[np.ndarray, np.ndarray]:
        """Masses of the sets inside cells [0, b) and inside [b, n), per boundary b."""
        cut = np.empty((2, len(boundaries)), dtype=self._scan[0].dtype)
        np.minimum(np.maximum(boundaries, 0), self.leaf_count, out=cut[0])
        np.subtract(self.leaf_count, cut[0], out=cut[1])
        if cut.shape[1] <= CUT_BLOCK:  # one block: no loop, no copy
            out = self._cut_mass(cut)
        else:
            out = np.empty(cut.shape)
            for s in range(0, cut.shape[1], CUT_BLOCK):
                out[:, s : s + CUT_BLOCK] = self._cut_mass(cut[:, s : s + CUT_BLOCK])
        return out[0], out[1]

    def straddle_masses(self, boundaries) -> np.ndarray:
        """Mass of the sets with cells on both sides of each boundary."""
        left, right = self.cut_masses(boundaries)
        return self.total_mass - left - right + self.empty_mass

    def prefix_mass(self, boundary: int) -> float:
        """Mass of sets inside the first `boundary` cells."""
        return float(self._cut_mass(np.array([min(max(boundary, 0), self.leaf_count)]))[0])

    def _cut_mass(self, cut: np.ndarray) -> np.ndarray:
        """Mass of sets inside the first (or, alike, the last) `cut` leaves: every digit of
        every cut from one floor division, then frac += scale * alpha; scale *= beta down
        the depths.  Below a cut on a child boundary each alpha is exactly 0, and adds 0."""
        spans, fanins, offsets, alpha_table, beta_table, _ = self._scan
        flat = cut.reshape(-1)
        whole = flat // spans  # row d: nodes one depth below d that lie wholly before the cut
        index = whole + offsets
        index[1:] -= fanins * whole[:-1]
        alpha, beta = alpha_table.take(index), beta_table.take(index)
        if len(flat) > len(alpha):  # more cuts than depths: one step per depth on whole rows
            frac, scale = np.zeros(flat.shape), np.ones(flat.shape)
            for a, b in zip(alpha, beta):
                frac += scale * a
                scale = scale * b
        else:  # the same products and sums, in order, as running ones down each column
            alpha[1:] *= np.multiply.accumulate(beta[:-1], axis=0)
            frac = np.add.accumulate(alpha, axis=0)[-1]
        return (self.empty_mass + self.fluctuation_mass * frac).reshape(cut.shape)

    def sample(self, k: int, seed: int) -> list[tuple[int, ...]]:
        """k exact draws; each depth picks child subsets for all live nodes at once.
        A live node is one key, draw * leaf_count + first leaf, so a depth gathers once."""
        rng = worker_generator(seed, 0)
        key = (rng.random(k) >= self.empty_mass / self.total_mass).nonzero()[0] * self.leaf_count
        for layer, child_span in self._levels():
            picks = layer.draw_children(rng, len(key)).ravel().nonzero()[0]
            rows = picks // layer.fanin  # with the subtraction below, faster than np.divmod
            key = key[rows] + (picks - rows * layer.fanin) * child_span
        # flat indices rise row-major, so keys rise: each draw's cells come out grouped, sorted
        ends = key.searchsorted(self.leaf_count * np.arange(1, k + 1)).tolist()
        cells = (key - key // self.leaf_count * self.leaf_count).tolist()  # key % leaves, faster
        return [tuple(cells[a:b]) for a, b in zip([0, *ends], ends)]


# ---------------------------------------------------------------------------
# named families


def tribes_shape(level: int) -> tuple[int, int, int]:
    """(width, blocks, ignored) for the tribes function on 2**level cells.

    Width grows like level minus its log so block failure odds track 1/blocks;
    cells left over after whole blocks are ignored and carry no mass.
    """
    n = 1 << level
    width = max(1, level - math.ceil(math.log2(level)) if level > 1 else 1)
    blocks = n // width
    return width, blocks, n - width * blocks


def _tribes_tree(level: int) -> list[tuple[str, int]]:
    width, blocks, _ = tribes_shape(level)
    return [("or", blocks), ("and", width)]


def _single_coordinate(grid: TimeGrid, cell=0) -> NoiseFunctional:
    if isinstance(cell, bool) or not isinstance(cell, (int, np.integer)) or not (
            0 <= cell < grid.n_cells):
        raise ValueError(f"cell must be an integer in 0..{grid.n_cells - 1}, got {cell!r}")
    return NoiseFunctional.from_walsh_entries(grid, {(cell,): 1.0})


def _parity(grid: TimeGrid) -> NoiseFunctional:
    return NoiseFunctional.from_walsh_entries(grid, {tuple(range(grid.n_cells)): 1.0})


def _coordinate_sum(grid: TimeGrid) -> NoiseFunctional:
    c = 1.0 / math.sqrt(grid.n_cells)
    return NoiseFunctional.from_walsh_entries(grid, {(i,): c for i in range(grid.n_cells)})


def _white_noise(order: int, grid: TimeGrid) -> NoiseFunctional:
    kernel = SimplexKernel.constant(order, grid.n_cells, 1.0)
    return NoiseFunctional.from_program(grid, [ItoTerm(1.0, kernel)], degree_cap=order)


@dataclass(frozen=True)
class _Family:
    """A named family.  A tree family is a `FamilyRef` on base `base` alone, `tree(level)` its
    (combiner, fan-in) per depth, root first.  Any other family is `build(grid, **keywords)`
    on base `base` unless given `base=`.  `params` names every keyword a family takes."""

    base: int
    tree: Callable[[int], list[tuple[str, int]]] | None = None
    build: Callable[..., NoiseFunctional] | None = None
    params: tuple[str, ...] = ("base",)


# every named family, in the order `family_names` lists them
_FAMILIES = {
    "single-coordinate": _Family(2, build=_single_coordinate, params=("base", "cell")),
    "parity": _Family(2, build=_parity),
    "coordinate-sum": _Family(2, build=_coordinate_sum),
    "majority3-iterated": _Family(3, tree=lambda level: [("majority", 3)] * level, params=()),
    "tribes": _Family(2, tree=_tribes_tree, params=()),
    "white-noise-i1": _Family(2, build=functools.partial(_white_noise, 1)),
    "white-noise-i2": _Family(2, build=functools.partial(_white_noise, 2)),
}


def _tree_specs(grid: TimeGrid, ref: FamilyRef) -> list[tuple[str, int]]:
    """(combiner, fan-in) per depth, root first: what the model, table and evaluator read."""
    family = _FAMILIES.get(ref.name)
    if family is None or family.tree is None:
        raise BackendError(f"family {ref.name!r} is not tree-structured")
    return family.tree(ref.level)


def family_model(grid: TimeGrid, ref: FamilyRef) -> TreeModel:
    return TreeModel(grid, build_layers(_tree_specs(grid, ref)))


def make_functional(name: str, level: int, **params) -> NoiseFunctional:
    if (family := _FAMILIES.get(name)) is None:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(family_names())}")
    if unexpected := sorted(set(params) - set(family.params)):
        raise ValueError(f"family {name!r} got unexpected parameters {unexpected}")
    grid = TimeGrid(0, 1, level, params.pop("base", family.base))  # refuses level < 0
    if family.build:
        return family.build(grid, **params)
    if level < 1:
        raise ValueError(f"{name} needs level >= 1")
    return NoiseFunctional(grid, FamilyRef(name, level))


def family_names() -> list[str]:
    return list(_FAMILIES)


def _evaluate_rows(grid: TimeGrid, ref: FamilyRef, rows: np.ndarray) -> np.ndarray:
    """The `_tree_specs` tree on rows of +-1 signs, leaves up; padding cells drop out.
    On +-1 inputs majority is a positive sum, and a positive min, or a positive max."""
    specs = _tree_specs(grid, ref)
    v = rows[:, : math.prod(m for _, m in specs)]
    for kind, m in reversed(specs):
        combine = np.sum if kind == "majority" else np.min if kind == "and" else np.max
        v = np.where(combine(v.reshape(v.shape[0], -1, m), axis=2) > 0, 1.0, -1.0)
    return v[:, 0]


def family_values(grid: TimeGrid, ref: FamilyRef) -> np.ndarray:
    """Fresh value table of a family instance, below the cap, composed leaves up: a node's
    table is its combiner (as in `_evaluate_rows`) over the outer product of its children's
    tables, child c above child c-1's bits; the root's table tiles over cells past the tree."""
    t = np.array([1.0, -1.0])  # a leaf: bit 0 set is omega = -1
    for kind, m in reversed(_tree_specs(grid, ref)):
        combine = np.add if kind == "majority" else np.minimum if kind == "and" else np.maximum
        node = t
        for _ in range(m - 1):
            node = combine.outer(t, node).ravel()
        t = np.where(node > 0, 1.0, -1.0)
    return np.tile(t, (1 << grid.n_cells) // len(t))


def family_mean(grid: TimeGrid, ref: FamilyRef) -> float:
    return family_model(grid, ref).layers[0].mu_out


# ---------------------------------------------------------------------------
# deterministic calibration measures for the dimension estimator


def calibration_measure(name: str, level: int):
    """One-atom measures with known scaling: a point, the whole window, and
    the middle-thirds construction at its natural base-3 resolution."""
    from .spectral import SpectralMeasure

    grid = TimeGrid(0, 1, level, 3)
    if name == "point":
        cells: tuple[int, ...] = (0,)
    elif name == "full-interval":
        cells = tuple(range(grid.n_cells))
    elif name == "cantor-thirds":
        idx = [0]
        for _ in range(level):
            idx = [3 * c for c in idx] + [3 * c + 2 for c in idx]
        cells = tuple(sorted(idx))
    else:
        raise ValueError(f"unknown calibration set {name!r}")
    return SpectralMeasure(grid, {cells: 1.0})
