"""Weighted word metrics on finitely generated groups and the fiber schemes
they feed into the fibering combinator.

Concrete element models: integer lattices, free groups on reduced words,
finite multiplication tables, and direct/free products of those.  A Cayley
window materializes the ball of a chosen radius with exact norms, in closed
form for axis-generated Z^d and by shortest-weighted-path search otherwise;
pairwise distances inside the window read the norm table at twice the radius,
so they never silently truncate -- leaving the table raises WindowExhausted.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass

from .exact import scalar, sq_value
from .metric import (
    ConstructionError,
    Family,
    FiniteMetricSpace,
    InputError,
    LatticeIndex,
    _sample_indices,
    _sample_pairs,
    point_key,
)
from .covers import IntervalKernelSource, greedy_oracle, interval_oracle
from .combinators import (
    UniformlyExpansiveMap,
    _projection_scheme,
    fiber_scheme_from_asdim,
    fibering_cover,
    identity_rho,
    product_engine,
)
from .freeprod import fp_window, free_product_cover, wedge_space


BALL_CAP = 1_000_000  # elements a Cayley window's norm table may hold
KNAPSACK_CAP = 10**6  # weight budget of the exact expansion modulus


class WindowExhausted(InputError):
    """A product left the materialized window; enlarge the radius."""


# ---------------------------------------------------------------------------
# element models


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


class ZdModel:
    """Integer vectors of a fixed dimension."""

    def __init__(self, d):
        if d < 1:
            raise InputError("dimension must be positive")
        self.d = d
        self.name = f"Z^{d}"

    def identity(self):
        return (0,) * self.d

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def is_element(self, a):
        return isinstance(a, tuple) and len(a) == self.d and all(map(_is_int, a))

    def standard_gens(self, weights=None):
        gens = []
        for i in range(self.d):
            e = tuple(1 if j == i else 0 for j in range(self.d))
            w = 1 if weights is None else weights[i]
            gens.append((e, w))
        return gens


class FreeGroupModel:
    """Reduced words over k letters; letters are nonzero ints +-1..+-k."""

    def __init__(self, k):
        if k < 1:
            raise InputError("rank must be positive")
        self.k = k
        self.name = f"F_{k}"

    def identity(self):
        return ()

    def mul(self, a, b):
        out = list(a)
        for c in b:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
        return tuple(out)

    def inv(self, a):
        return tuple(-c for c in reversed(a))

    def is_element(self, a):
        """A reduced word: nonzero letters of absolute value at most k, no
        letter next to its inverse."""
        return (isinstance(a, tuple)
                and all(_is_int(c) and 0 < abs(c) <= self.k for c in a)
                and all(x != -y for x, y in zip(a, a[1:])))

    def standard_gens(self, weights=None):
        gens = []
        for i in range(1, self.k + 1):
            w = 1 if weights is None else weights[i - 1]
            gens.append(((i,), w))
        return gens


class TableModel:
    """Finite group given by an explicit multiplication table, refused unless
    it is a group.  Associativity is Light's test: the c with (x*c)*y ==
    x*(c*y) for all x, y are closed under the product, so it is tested only
    for each element that is no product of those tested before it.  Those
    products form a subgroup, which each such element at least doubles, so
    there are at most log2(n) + 1 tests of n^2 products each."""

    def __init__(self, elements, mul_table, identity_elem, name="table"):
        self.elements = tuple(elements)
        self.table = table = dict(mul_table)
        self._identity = e = identity_elem
        self.name = name
        elems = set(self.elements)
        bad = [(a, b) for a in self.elements for b in self.elements
               if (a, b) not in table or table[(a, b)] not in elems]
        if bad:
            raise InputError(f"multiplication table has no element product for {bad[:3]}")
        if e not in elems or any(table[(a, e)] != a or table[(e, a)] != a for a in elems):
            raise InputError(f"{e!r} is not the identity of the multiplication table")
        self._inv = {a: b for a in self.elements for b in self.elements if table[(a, b)] == e}
        missing = [a for a in self.elements if a not in self._inv]
        if missing:
            raise InputError(f"elements without inverses: {missing[:3]}")
        generated = set()
        for g in self.elements:
            if g in generated:
                continue
            for x, y in itertools.product(self.elements, repeat=2):
                if table[(table[(x, g)], y)] != table[(x, table[(g, y)])]:
                    raise InputError(f"multiplication table is not associative: "
                                     f"({x!r}*{g!r})*{y!r} != {x!r}*({g!r}*{y!r})")
            new = [g]
            while new:
                x = new.pop()
                if x not in generated:
                    generated.add(x)
                    new += [table[(x, y)] for y in generated] + [table[(y, x)] for y in generated]

    @staticmethod
    def cyclic(n):
        elems = list(range(n))
        table = {(a, b): (a + b) % n for a in elems for b in elems}
        return TableModel(elems, table, 0, name=f"Z/{n}")

    def identity(self):
        return self._identity

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def is_element(self, a):
        return a in self.elements


class DirectProductModel:
    def __init__(self, factors):
        self.factors = tuple(factors)
        self.name = "x".join(f.name for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def is_element(self, a):
        return (isinstance(a, tuple) and len(a) == len(self.factors)
                and all(f.is_element(x) for f, x in zip(self.factors, a)))


class FreeProductModel:
    """Alternating words of nontrivial factor elements, tagged by factor index."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.name = "*".join(f.name for f in self.factors)

    def identity(self):
        return ()

    def _push(self, out, idx, elem):
        f = self.factors[idx]
        if out and out[-1][0] == idx:
            merged = f.mul(out[-1][1], elem)
            out.pop()
            if merged != f.identity():
                out.append((idx, merged))
        elif elem != f.identity():
            out.append((idx, elem))

    def mul(self, a, b):
        out = list(a)
        for idx, elem in b:
            self._push(out, idx, elem)
        return tuple(out)

    def inv(self, a):
        return tuple((idx, self.factors[idx].inv(e)) for idx, e in reversed(a))

    def is_element(self, a):
        """An alternating word: (factor index, nontrivial factor element)
        pairs, no two neighbours from the same factor."""
        if not (isinstance(a, tuple) and all(
                isinstance(t, tuple) and len(t) == 2 and _is_int(t[0])
                and 0 <= t[0] < len(self.factors) for t in a)):
            return False
        return (all(self.factors[i].is_element(e) and e != self.factors[i].identity()
                    for i, e in a)
                and all(x[0] != y[0] for x, y in zip(a, a[1:])))


# ---------------------------------------------------------------------------
# weighted generating sets and Cayley windows


class WeightedGeneratingSet:
    """Finite symmetric generator list with positive weights, w(s) = w(s^-1)."""

    def __init__(self, model, gens):
        table = {}
        for elem, w in gens:
            w = scalar(w)
            if w <= 0:
                raise InputError(f"non-positive weight for generator {elem!r}")
            if elem == model.identity():
                raise InputError("the identity cannot be a generator")
            if elem in table and table[elem] != w:
                raise InputError(f"conflicting weights for generator {elem!r}")
            table[elem] = w
            inv = model.inv(elem)
            if inv in table and table[inv] != w:
                raise InputError(f"w(s) != w(s^-1) for generator {elem!r}")
            table[inv] = w
        if not table:
            raise InputError("empty generating set")
        self.model = model
        self.items = tuple(sorted(table.items(), key=lambda kv: point_key(kv[0])))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


class CayleyWindow:
    """The radius-L ball of a group model with exact norms out to norm_radius.

    Distances inside the ball are d(g, h) = ||inv(g) h||, read from the norm
    table; with the default norm_radius of 2L every in-window pair resolves.
    Z^d generated by {+-e_i} at weight w_i reads its norms in closed form,
    every other window by Dijkstra.  With int weights and norm_radius >= 2L
    its metric is sum_i w_i |g_i - h_i| on all pairs, and its space carries
    the lattice index g -> (w_1 g_1, ..., w_d g_d); other windows have none.
    The points are in :func:`point_key` order, which the window hands to its
    space as the rank: the closed form builds them in that order, and a
    Dijkstra ball is sorted.
    """

    def __init__(self, model, genset, radius, *, norm_radius=None):
        self.model = model
        self.genset = genset
        self.radius = scalar(radius)
        if self.radius < 0:
            raise InputError("ball radius must be non-negative")
        self.norm_radius = (
            2 * self.radius if norm_radius is None else scalar(norm_radius)
        )
        if self.norm_radius < self.radius:
            raise InputError("norm_radius must be at least the ball radius")
        weights = self._axis_weights()
        self.norms = self._dijkstra() if weights is None else self._axis_norms(weights)
        points = (g for g, n in self.norms.items() if n <= self.radius)
        self.points = tuple(points if weights else sorted(points, key=point_key))
        self.space = FiniteMetricSpace(
            self.points, self._dist, basepoint=model.identity(),
            name=f"ball({model.name},{radius})", index=self._axis_index(weights),
        )
        self.space.rank = {g: i for i, g in enumerate(self.points)}  # in key order

    def _axis_weights(self):
        """[w_1, ..., w_d] if the generators are exactly Z^d's +-e_i at w_i, else None."""
        if not isinstance(self.model, ZdModel):
            return None
        units = [tuple(int(j == i) for j in range(self.model.d)) for i in range(self.model.d)]
        gens = dict(self.genset)  # symmetric, so it holds -e_i with each e_i
        if len(gens) != 2 * len(units) or not all(e in gens for e in units):
            return None
        return [gens[e] for e in units]

    def _axis_index(self, weights):
        """The window's LatticeIndex when the class docstring grants one, else None."""
        if weights and all(map(_is_int, weights)) and self.norm_radius >= 2 * self.radius:
            return LatticeIndex(lambda g: tuple(map(operator.mul, weights, g)),
                                (range(len(weights)),))

    def _axis_norms(self, weights):
        """||g|| = sum_i w_i |g_i| over the ball: a word reaching g uses at least
        |g_i| letters +-e_i, each of weight w_i, as no other letter moves
        coordinate i, and |g_i| steps of sign(g_i) e_i per axis attain it.  The
        ball is built one axis at a time, each level counted from the last
        before it is built, so a level over the cap is refused unbuilt.  Each
        level extends the last one's tuples in order by increasing ints, so
        the table is lexicographic in the coordinates: :func:`point_key`
        order."""
        N, level = self.norm_radius, [((), 0)]
        for w in weights:
            if sum(2 * ((N - n) // w) + 1 for _, n in level) > BALL_CAP:
                raise InputError(f"ball exceeds the {BALL_CAP}-element cap")
            level = [(g + (k,), n + w * abs(k)) for g, n in level
                     for k in range(-((N - n) // w), (N - n) // w + 1)]
        return dict(level)

    def _dijkstra(self):
        """The norm table by shortest-path search.  A free group on
        single-letter generators is refused first if too many words must be
        in it: each reduced word over the k letters present with
        n <= norm_radius // w_max letters has norm at most norm_radius, and
        there are 2k(2k - 1)^(n - 1) of them for each n >= 1."""
        if isinstance(self.model, FreeGroupModel) and all(len(s) == 1 for s, _ in self.genset):
            k = len({abs(s[0]) for s, _ in self.genset})
            count, words = 1, 2 * k
            for _ in range(min(self.norm_radius // max(w for _, w in self.genset), BALL_CAP)):
                count += words
                if count > BALL_CAP:
                    raise InputError(f"ball exceeds the {BALL_CAP}-element cap")
                words *= 2 * k - 1
        e = self.model.identity()
        norms = {}
        heap = [(0, 0, e)]
        counter = 0
        while heap:
            n, _, g = heapq.heappop(heap)
            if g in norms:
                continue
            norms[g] = n
            if len(norms) > BALL_CAP:
                raise InputError(f"ball exceeds the {BALL_CAP}-element cap")
            for s, w in self.genset:
                nn = n + w
                if nn <= self.norm_radius:
                    h = self.model.mul(g, s)
                    if h not in norms:
                        counter += 1
                        heapq.heappush(heap, (nn, counter, h))
        return norms

    def norm_of(self, g):
        try:
            return self.norms[g]
        except KeyError:
            raise WindowExhausted(
                f"element {g!r} is outside the materialized {self.norm_radius}-ball"
            ) from None

    def _dist(self, g, h):
        return self.norm_of(self.model.mul(self.model.inv(g), h))


def cayley_ball(model, genset_items, L, **kw):
    genset = (
        genset_items
        if isinstance(genset_items, WeightedGeneratingSet)
        else WeightedGeneratingSet(model, genset_items)
    )
    return CayleyWindow(model, genset, L, **kw)


# ---------------------------------------------------------------------------
# stabilizers and fiber schemes


def r_stabilizer(window, action, target_space, x0, R, *, check_isometry=64):
    """Window elements moving x0 by at most R under the action.

    Optionally spot-checks that the action is isometric on up to
    ``check_isometry`` target pairs and elements from ``metric``'s sampler.
    """
    target_space.require([x0])
    elems = window.points
    if check_isometry and elems:
        pairs = _sample_pairs(target_space.points, check_isometry, 0)
        for (x, y), (i,) in zip(pairs, _sample_indices(len(elems), 1, check_isometry, 1)):
            g = elems[i]
            gx, gy = action(g, x), action(g, y)
            if gx in target_space and gy in target_space:
                if target_space.dist(gx, gy) != target_space.dist(x, y):
                    raise InputError(f"action is not isometric at {(g, x, y)!r}")
    out = set()
    for g in elems:
        gx = action(g, x0)
        if gx not in target_space:
            raise WindowExhausted(f"action left the target window at {g!r}")
        if target_space.dist(gx, x0) <= R:
            out.add(g)
    return frozenset(out)


@dataclass
class TrivialKernelSource:
    """Asdim-0 source for a trivial kernel: singletons in one family."""

    n = 0

    def cover(self, elems, R):
        return 0, [Family.of([{g} for g in elems])]


def hom_fiber_scheme(window, phi, sigma, windowH, kernel_source):
    """Fiber scheme for a homomorphism via the action g.h = phi(g) h.

    A fiber A with image of diameter below M is translated by the inverse of
    one of its elements into the M-stabilizer of the identity, the g with
    ||phi(g)|| <= M, covered there, and translated back; left-invariance
    preserves scales and meshes exactly.  The stabilizer ranges over the
    extended (twice-radius) region of the window, where phi(g) can leave the
    H window proper, and is a finite union of kernel cosets.  Splitting
    g = kappa(g) sigma(phi(g)) gives, for any two stabilizer elements,
    |d(g, g') - d(kappa g, kappa g')| <= 2 max ||sigma||, the maximum over
    the M-ball of H, so kernel families at scale R + 2 max ||sigma|| pull
    back to R-disjoint families of the stabilizer with mesh growing by the
    same 2 max ||sigma||.  The bound depends on (M, R) only.  The disjointness
    slack is loose in :func:`z2_extension_pipeline`, whose metric is l1 with
    sigma(h) = (0, h), so kappa(g) = (g0, 0) and d(kappa g, kappa g') <= d(g, g');
    only a metric under which kappa is not 1-Lipschitz can make it tight.
    """
    model = window.model
    n = kernel_source.n

    def provider(M, R):
        by_kernel = {}  # kernel element -> the stabilizer elements splitting to it
        for g in window.norms:
            h = phi(g)
            if windowH.norm_of(h) <= M:
                by_kernel.setdefault(model.mul(g, model.inv(sigma(h))), []).append(g)
        # M can exceed the H ball radius, so the section norms range over the
        # extended (norm-table) region of H too
        sigma_max = max((window.norm_of(sigma(h)) for h, nh in windowH.norms.items()
                         if nh <= M), default=0)
        B_k, kernel_fams = kernel_source.cover(set(by_kernel), R + 2 * sigma_max)
        # stabilizer element -> the (family, set) slots of its kernel part,
        # one list per kernel element; a kernel element the cover misses has none
        slots = {}
        for j, fam in enumerate(kernel_fams):
            for si, S in enumerate(fam.sets):
                for kk in S:
                    slots.setdefault(kk, []).append((j, si))
        table = {g: slots.get(kk, ()) for kk, gs in by_kernel.items() for g in gs}

        def cover_fn(A):
            if not A:
                return [Family.of([]) for _ in range(n + 1)]
            window.space.require(A)
            ginv = model.inv(min(A, key=window.space.rank.__getitem__))
            parts = [{} for _ in kernel_fams]
            for a in A:
                t = model.mul(ginv, a)
                if t not in table:
                    raise ConstructionError(
                        f"translated fiber element {t!r} escapes the {M}-stabilizer"
                    )
                for j, si in table[t]:
                    parts[j].setdefault(si, set()).add(a)
            return [Family.of([part[si] for si in sorted(part)], window.space.rank)
                    for part in parts]

        return B_k + 2 * sigma_max, cover_fn

    return fiber_scheme_from_asdim(n, provider)


def projection_fiber_scheme(oracle_H):
    """Scheme for the projection of a direct-product window onto its first factor.

    Families slice a fiber by the second coordinate against the H witness; no
    bounded-geometry assumption is needed, and the mesh bound is the fiber
    scale plus the largest H mesh.
    """
    return _projection_scheme(oracle_H, 1, operator.add)


# ---------------------------------------------------------------------------
# expansion moduli from weights


def rho_from_weights(genset, action, target_space, x0, *, exact=False):
    """A sound expansion modulus for the orbit map of a weighted action.

    Default: rho(N) = floor(N / w_min) * max_s d(s.x0, x0), a cheap upper
    bound for the exact maximum displacement reachable with weight budget N.
    With exact=True, solves the unbounded knapsack on a common denominator.
    N is an exact scalar, a Root included: floor(N * c) for a rational
    c > 0 is isqrt(floor(N^2 c^2)), since floor(x) = isqrt(floor(x^2)) for
    x >= 0.
    """
    disp = {}
    for s, w in genset:
        sx = action(s, x0)
        target_space.require([sx])
        disp[s] = (w, target_space.dist(sx, x0))
    w_min = min(w for w, _ in disp.values())
    max_disp = max(d for _, d in disp.values())

    if not exact:
        def rho(N):
            if N < 0:
                return 0
            return math.isqrt(sq_value(N) // (w_min * w_min)) * max_disp

        return rho

    denom = math.lcm(*(w.denominator for w, _ in disp.values()))
    items = [(int(w * denom), d) for w, d in disp.values()]
    memo = {}

    def rho_exact(N):
        if N < 0:
            return 0
        budget = math.isqrt(math.floor(sq_value(N) * denom * denom))
        if budget > KNAPSACK_CAP:
            raise InputError("exact modulus budget too large; use the bound")
        if budget not in memo:
            # unbounded knapsack on the common weight denominator; carrying
            # best[b-1] forward keeps the modulus non-decreasing
            best = [0] * (budget + 1)
            for b in range(1, budget + 1):
                best[b] = best[b - 1]
                for cost, gain in items:
                    if cost <= b and best[b - cost] + gain > best[b]:
                        best[b] = best[b - cost] + gain
            memo[budget] = best[budget]
        return memo[budget]

    return rho_exact


# ---------------------------------------------------------------------------
# pipelines


def lifted_generating_set(model_G, kernel_gens, h_gens, sigma):
    """Kernel generators plus section lifts of the quotient generators, each
    lift at its quotient weight; realizes the metric of the surjection
    construction."""
    gens = list(kernel_gens)
    for s, w in h_gens:
        gens.append((sigma(s), w))
    return WeightedGeneratingSet(model_G, gens)


def extension_cover(window_G, phi, sigma, window_H, oracle_H, kernel_source, scales):
    """Witness for the middle group of an extension via the fibering combinator.

    window_G must carry the lifted metric (kernel generators plus section
    lifts at quotient weights), which makes phi expansive with the identity
    modulus.
    """
    umap = UniformlyExpansiveMap(window_G.space, window_H.space, phi, identity_rho)
    factory = hom_fiber_scheme(window_G, phi, sigma, window_H, kernel_source)
    return fibering_cover(umap, oracle_H, factory, scales)


def z2_extension_pipeline(L, scales):
    """The canonical 1 -> Z -> Z^2 -> Z -> 1 pipeline on radius-L windows.

    Returns (window_G, witness); the witness verifies on the G window.
    """
    G = ZdModel(2)
    H = ZdModel(1)
    phi = lambda g: (g[1],)
    sigma = lambda h: (0, h[0])
    kernel_gens = [((1, 0), 1), ((-1, 0), 1)]
    h_gens = H.standard_gens()
    genset = lifted_generating_set(G, kernel_gens, h_gens, sigma)
    window_G = CayleyWindow(G, genset, L)
    window_H = CayleyWindow(H, WeightedGeneratingSet(H, h_gens), L)
    oracle_H = interval_oracle(window_H.space)
    kernel_source = IntervalKernelSource(coordinate=lambda g: g[0], step=1)
    witness = extension_cover(
        window_G, phi, sigma, window_H, oracle_H, kernel_source, scales
    )
    return window_G, witness


def product_group_window(window_G, window_H):
    """The box of two group windows under the summed word metric."""
    pairs = [(g, h) for g in window_G.points for h in window_H.points]

    def d(a, b):
        return window_G.space.dist(a[0], b[0]) + window_H.space.dist(a[1], b[1])

    return FiniteMetricSpace(
        pairs, d,
        basepoint=(window_G.model.identity(), window_H.model.identity()),
        name=f"{window_G.model.name}x{window_H.model.name}-box",
    )


def product_cover_groups(oracle_G, oracle_H, scales):
    """Product witness over the summed (l1) word metric; same slot layout as
    the l2 product combinator on the same factor oracles."""
    witness = product_engine(oracle_G, oracle_H, scales, combine=operator.add)
    witness.meta["space"] = "group-product"
    return witness


def free_product_cover_groups(window_G, window_H, scales, max_order, max_norm):
    """Free-product witness through the word-space pipeline over the wedge of
    the two group windows."""
    wedge = wedge_space(window_G.space, window_H.space)
    oracle = greedy_oracle(wedge)
    win = fp_window(wedge, max_order, max_norm)
    return free_product_cover(oracle, scales, win)
