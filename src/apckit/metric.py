"""Finite metric spaces, disjointness/mesh/component primitives, and space generators.

All distances are exact scalars: ints, Fractions, or Root values (square
roots of rationals, produced only by the l2 product metric).  Every value is
immutable after construction and every operation is a pure function, so
spaces and families can be shared freely across concurrent checks.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from .exact import Rational, Root, ceil_scalar, hyp, root_of, scalar, sq_value, triangle_le

DEFAULT_POINT_CAP = 200_000
INF = math.inf


class InputError(ValueError):
    """Bad user-supplied data: unknown points, malformed files, exceeded caps."""


class ConstructionError(RuntimeError):
    """A construction's preconditions failed mid-run (invalid oracle output etc)."""


def point_key(p):
    """Total order over the mixed point-id types we use (ints, strings, tuples)."""
    if isinstance(p, bool):
        return (0, int(p))
    if isinstance(p, Rational):
        return (0, p)
    if isinstance(p, str):
        return (1, p)
    if isinstance(p, tuple):
        return (2, tuple(point_key(x) for x in p))
    return (3, repr(p))


def sorted_points(pts):
    return sorted(pts, key=point_key)


class FiniteMetricSpace:
    """A finite point set with a total exact distance function.

    ``dist`` must be symmetric, zero exactly on the diagonal, and satisfy the
    triangle inequality; :func:`validate_metric` checks all of that and
    reports witnesses for any violation.  An optional basepoint marks pointed
    spaces (the x0 of word constructions).

    An optional ``index`` answers two set-level questions exactly, faster
    than all pairs: ``index.diameter_sq(S)`` is the squared diameter of a
    point list with at least two entries, and ``index.separated(sets, R)`` is
    true iff every pair of points from two distinct sets is more than R >= 0
    apart.  :func:`set_diameter_sq` and :func:`family_is_R_disjoint` use it;
    spaces without one, and every violation report, take the generic path.
    An index may also have ``pairs_within(pts, R)``, the index pairs (i, j),
    i < j, of a point list whose points are at most R >= 0 apart, each pair
    once; :func:`r_components` uses it when present.  ``gaps_sq(sets)``, when
    present, maps each index pair (i, j), i < j, of a list of nonempty point
    lists to an int no larger than the squared distance of any cross pair;
    :func:`~apckit.combinators.check_uniformly_expansive` proves its contract
    fiber by fiber with it.
    """

    def __init__(self, points, dist, *, basepoint=None, name="", dist_sq=None, index=None):
        self.points = tuple(points)
        self.point_set = frozenset(self.points)
        if len(self.point_set) != len(self.points):
            raise InputError("duplicate point ids in space")
        if basepoint is not None and basepoint not in self.point_set:
            raise InputError(f"basepoint {basepoint!r} is not a point of the space")
        self.basepoint = basepoint
        self.name = name
        self._dist = dist
        self._dist_sq = dist_sq
        self.index = index

    def dist(self, p, q):
        if p == q:
            return 0
        return self._dist(p, q)

    def dist_sq(self, p, q):
        """Exact squared distance; the comparison-friendly form for l2 products."""
        if p == q:
            return 0
        if self._dist_sq is not None:
            return self._dist_sq(p, q)
        return sq_value(self._dist(p, q))

    def raw_dist(self, p, q):
        """Distance without the diagonal shortcut; used by the validator."""
        return self._dist(p, q)

    def require(self, pts):
        for p in pts:
            if p not in self.point_set:
                raise InputError(f"unknown point id: {p!r}")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return p in self.point_set

    def __repr__(self):
        return f"FiniteMetricSpace({self.name or len(self.points)}, n={len(self.points)})"


@dataclass(frozen=True)
class Family:
    """An ordered collection of nonempty point sets. Empty sets are dropped."""

    sets: tuple

    @staticmethod
    def of(sets):
        cleaned = [frozenset(s) for s in sets if s]
        cleaned.sort(key=lambda s: point_key(min(s, key=point_key)))
        return Family(tuple(cleaned))

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def support(self):
        out = set()
        for s in self.sets:
            out |= s
        return out


@dataclass(frozen=True)
class MetricViolation:
    axiom: str
    points: tuple
    values: tuple

    def describe(self):
        return f"{self.axiom} violated at {self.points}: {self.values}"


@dataclass
class MetricReport:
    valid: bool
    violations: list
    checked: dict

    def describe(self):
        if self.valid:
            return f"valid ({self.checked})"
        lines = [v.describe() for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def _sample_pairs(pts, budget, seed):
    """All pairs of pts if there are at most budget of them, else budget seeded
    draws of two distinct points.  A generator, so the distances its caller
    evaluates stay the caller's work."""
    n = len(pts)
    if n * (n - 1) // 2 <= budget:
        yield from itertools.combinations(pts, 2)
        return
    rng = random.Random(seed)
    for _ in range(budget):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        yield pts[i], pts[j]


def validate_metric(space, *, pair_budget=2_000_000, triple_budget=2_000_000, seed=0):
    """Check all metric axioms, exhaustively within budgets, else on a seeded sample.

    Returns a report listing every violated axiom with a witnessing pair or
    triple.  Sampling never reports false violations; it can only miss some,
    and the report records which mode ran.  A budget below 1 would check
    nothing, so it is refused.
    """
    if pair_budget < 1 or triple_budget < 1:
        raise InputError(f"budgets must be >= 1, not {pair_budget}, {triple_budget}")
    pts = space.points
    n = len(pts)
    violations = []
    checked = {}

    for p in pts:
        d = space.raw_dist(p, p)
        if d != 0:
            violations.append(MetricViolation("identity", (p, p), (d,)))
    checked["diagonal"] = n

    for p, q in _sample_pairs(pts, pair_budget, seed):
        d1 = space.raw_dist(p, q)
        d2 = space.raw_dist(q, p)
        if d1 != d2:
            violations.append(MetricViolation("symmetry", (p, q), (d1, d2)))
        elif d1 < 0:
            violations.append(MetricViolation("non-negativity", (p, q), (d1,)))
        elif d1 == 0:
            violations.append(MetricViolation("separation", (p, q), (d1,)))
    n_pairs = n * (n - 1) // 2
    checked["pairs"] = (("exhaustive", n_pairs) if n_pairs <= pair_budget
                        else ("sampled", pair_budget))

    def check_triple(p, q, r):
        dpq = space.dist(p, q)
        dpr = space.dist(p, r)
        drq = space.dist(r, q)
        if not triangle_le(dpq, dpr, drq):
            violations.append(MetricViolation("triangle", (p, q, r), (dpq, dpr, drq)))

    n_triples = n * (n - 1) * (n - 2) // 6
    if n_triples <= triple_budget:
        for p, q, r in itertools.combinations(pts, 3):
            check_triple(p, q, r)
            check_triple(q, r, p)
            check_triple(r, p, q)
        checked["triples"] = ("exhaustive", n_triples)
    else:
        rng = random.Random(seed + 1)
        for _ in range(triple_budget):
            i, j, k = rng.sample(range(n), 3)
            check_triple(pts[i], pts[j], pts[k])
        checked["triples"] = ("sampled", triple_budget)

    return MetricReport(not violations, violations, checked)


# ---------------------------------------------------------------------------
# set-level distance operations


def set_distance(space, S, T):
    """min cross distance between two sets; +inf if either is empty."""
    space.require(S)
    space.require(T)
    if not S or not T:
        return INF
    return root_of(min(space.dist_sq(p, q) for p in S for q in T))


def set_diameter(space, S):
    return root_of(set_diameter_sq(space, S))


def set_diameter_sq(space, S):
    """Exact squared diameter; 0 for empty or singleton sets."""
    space.require(S)
    S = list(S)
    if len(S) <= 1:
        return 0
    if space.index is not None:
        return space.index.diameter_sq(S)
    return max(space.dist_sq(p, q) for p, q in itertools.combinations(S, 2))


def mesh(space, family):
    sets = family.sets if isinstance(family, Family) else list(family)
    if not sets:
        return 0
    return max(set_diameter(space, s) for s in sets)


def is_R_disjoint(space, S, T, R):
    """True iff every cross pair is at distance strictly greater than R."""
    space.require(S)
    space.require(T)
    if R < 0:
        return True
    R2 = sq_value(R)
    for p in S:
        for q in T:
            if not space.dist_sq(p, q) > R2:
                return False
    return True


def family_is_R_disjoint(space, family, R, *, diam_sqs=None):
    """Check pairwise R-disjointness of a family's distinct members.

    Returns (ok, violation) where violation is (set_i, set_j, p, q, d) for the
    first failing cross pair, i and j indexing the family's nonempty sets (a
    plain list loses its empty sets, as in :meth:`Family.of`, but keeps its
    order).  A space's index, when it has one, settles the
    passing case; otherwise, and to name the violation, representative-plus-
    diameter prefilters skip set pairs and points that no pair within R can
    involve: with int upper bounds r >= R and D_i >= diam S_i, a pair of sets
    whose representatives are more than r + D_i + D_j apart, and a point more
    than r + D_b from the representative of S_b.  Both tests compare exact
    squares, and every pair left is decided by the exact squared comparison.
    """
    sets = family.sets if isinstance(family, Family) else [frozenset(s) for s in family if s]
    if len(sets) <= 1:
        return True, None
    if R < 0:
        return True, None
    if space.index is not None and space.index.separated(sets, R):
        return True, None
    R2 = sq_value(R)
    if diam_sqs is None:
        diam_sqs = [set_diameter_sq(space, s) for s in sets]
    reps = [min(s, key=point_key) for s in sets]
    r_up = ceil_scalar(R)
    d_up = [ceil_scalar(root_of(d)) for d in diam_sqs]
    dist_sq = space.dist_sq
    for i, j in itertools.combinations(range(len(sets)), 2):
        if dist_sq(reps[i], reps[j]) > (r_up + d_up[i] + d_up[j]) ** 2:
            continue
        small, big = (i, j) if len(sets[i]) <= len(sets[j]) else (j, i)
        rep_b = reps[big]
        cutoff = (r_up + d_up[big]) ** 2
        members_b = list(sets[big])
        for p in sets[small]:
            if dist_sq(p, rep_b) > cutoff:
                continue
            for q in members_b:
                sq = dist_sq(p, q)
                if not sq > R2:
                    return False, (i, j, p, q, root_of(sq))
    return True, None


class UnionFind:
    """Union-find with path compression; indices 0..n-1."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def r_components(space, S, R):
    """Partition S into maximal R-connected pieces (chain steps <= R).

    Distinct pieces are automatically R-disjoint: a cross pair at distance
    <= R would merge them.
    """
    space.require(S)
    pts = sorted_points(S)
    if R < 0:
        return [frozenset({p}) for p in pts]
    uf = UnionFind(len(pts))
    pairs_within = getattr(space.index, "pairs_within", None)
    if pairs_within is not None:
        for i, j in pairs_within(pts, R):
            uf.union(i, j)
    else:
        R2 = sq_value(R)
        for i, j in itertools.combinations(range(len(pts)), 2):
            if space.dist_sq(pts[i], pts[j]) <= R2:
                uf.union(i, j)
    groups = {}
    for i, p in enumerate(pts):
        groups.setdefault(uf.find(i), []).append(p)
    comps = [frozenset(g) for g in groups.values()]
    comps.sort(key=lambda c: point_key(min(c, key=point_key)))
    return comps


# ---------------------------------------------------------------------------
# lattice index


class LatticeIndex:
    """Set diameters, R-separation and R-neighbour pairs of a lattice-embedded space.

    ``coord(p)`` is the integer coordinate tuple of p, and ``blocks`` is a
    tuple of ranges of coordinate positions; the squared distance of two
    points is the sum, over blocks, of the square of their l1 distance inside
    the block.  An interval window is one block of one coordinate, a grid
    window one block of d, and an l2 product the concatenation of its
    factors' blocks.  All arithmetic is on ints, and the squared distance
    only grows with each coordinate gap, which makes every bounding-box
    bound below exact.
    """

    def __init__(self, coord, blocks):
        self.coord = coord
        self.blocks = tuple(blocks)
        self.dim = self.blocks[-1].stop
        self._slices = tuple(slice(b.start, b.stop) for b in self.blocks)

    def _norm_sq(self, gaps):
        return sum(sum(gaps[s]) ** 2 for s in self._slices)

    def _dist_sq(self, a, b):
        return self._norm_sq([abs(x - y) for x, y in zip(a, b)])

    @staticmethod
    def _box(cs):
        """The bounding box (lo, hi) of a nonempty list of coordinate tuples."""
        cols = list(zip(*cs))
        return tuple(map(min, cols)), tuple(map(max, cols))

    def _box_gap_sq(self, c, lo, hi):
        """Squared distance from coordinates c to the box [lo, hi]."""
        return self._norm_sq([max(0, l - x, x - h) for x, l, h in zip(c, lo, hi)])

    def _boxes_gap_sq(self, box_a, box_b):
        """Squared distance between the boxes (lo_a, hi_a) and (lo_b, hi_b)."""
        (lo_a, hi_a), (lo_b, hi_b) = box_a, box_b
        return self._norm_sq([max(0, a - d, c - b)
                              for a, b, c, d in zip(lo_a, hi_a, lo_b, hi_b)])

    def gaps_sq(self, sets):
        """{(i, j): g} for i < j, g the int squared gap between the bounding
        boxes of the i-th and j-th nonempty point lists; no cross pair of the
        two lists is nearer than sqrt(g)."""
        boxes = [self._box([self.coord(p) for p in s]) for s in sets]
        return {(i, j): self._boxes_gap_sq(boxes[i], boxes[j])
                for i, j in itertools.combinations(range(len(boxes)), 2)}

    def diameter_sq(self, S):
        """Two sweeps give a pair at distance L.  A point whose farthest
        bounding-box corner is nearer than L is in no pair of length >= L,
        so both ends of every diameter pair are among the points left, and
        the exact maximum is taken over those only.  On a box the corners
        are all that is left."""
        cs = [self.coord(p) for p in S]
        dist = self._dist_sq
        a = max(cs, key=lambda c: dist(cs[0], c))
        L = max(dist(a, c) for c in cs)
        lo, hi = self._box(cs)
        left = [c for c in cs
                if self._norm_sq([max(x - l, h - x) for x, l, h in zip(c, lo, hi)]) >= L]
        return max(dist(p, q) for p, q in itertools.combinations(left, 2))

    def separated(self, sets, R):
        """True iff every pair of points from two distinct sets is more than R apart.

        Boxes sorted by their low first coordinate are scanned forward while
        that coordinate is within floor(R) (coordinates are ints, so no pair
        within R is farther apart in any one of them); a pair of sets whose
        boxes are more than R apart is skipped, and otherwise only the points
        of each set within R of the other's box are compared exactly.
        """
        if R < 0:
            return True
        R2 = math.floor(sq_value(R))
        reach = math.isqrt(R2)
        cs = [[self.coord(p) for p in s] for s in sets if s]
        boxes = [self._box(c) for c in cs]
        order = sorted(range(len(cs)), key=lambda i: boxes[i][0][0])
        for pos, i in enumerate(order):
            lo_i, hi_i = boxes[i]
            for j in order[pos + 1:]:
                lo_j, hi_j = boxes[j]
                if lo_j[0] - hi_i[0] > reach:
                    break
                if self._boxes_gap_sq(boxes[i], boxes[j]) <= R2:
                    near_i = [p for p in cs[i] if self._box_gap_sq(p, lo_j, hi_j) <= R2]
                    near_j = [q for q in cs[j] if self._box_gap_sq(q, lo_i, hi_i) <= R2]
                    if any(self._dist_sq(p, q) <= R2 for p in near_i for q in near_j):
                        return False
        return True

    def pairs_within(self, pts, R):
        """Index pairs (i, j), i < j, of pts at most R >= 0 apart, each once.

        Points go into cubical cells of side floor(R) + 1, so two points
        within R lie in the same or adjacent cells (Bentley, Stanat and
        Williams, IPL 1977); each unordered pair of adjacent cells is
        visited once, from the smaller key.
        """
        if R < 0:
            return []
        R2 = math.floor(sq_value(R))
        side = math.isqrt(R2) + 1
        cells = {}
        for i, p in enumerate(pts):
            c = self.coord(p)
            cells.setdefault(tuple(x // side for x in c), []).append((i, c))
        zero = (0,) * self.dim
        steps = [o for o in itertools.product((-1, 0, 1), repeat=self.dim) if o > zero]
        dist = self._dist_sq
        out = []
        for key, members in cells.items():
            for (i, a), (j, b) in itertools.combinations(members, 2):
                if dist(a, b) <= R2:
                    out.append((i, j))
            for k in (tuple(map(operator.add, key, o)) for o in steps):
                if k not in cells:
                    continue
                for i, a in members:
                    for j, b in cells[k]:
                        if dist(a, b) <= R2:
                            out.append((i, j) if i < j else (j, i))
        return out


def _lattice_product(X, Y):
    """The l2 product's lattice index from its factors', or None."""
    ix, iy = X.index, Y.index
    if not (isinstance(ix, LatticeIndex) and isinstance(iy, LatticeIndex)):
        return None
    cx, cy, shift = ix.coord, iy.coord, ix.dim
    return LatticeIndex(lambda p: cx(p[0]) + cy(p[1]),
                        ix.blocks + tuple(range(b.start + shift, b.stop + shift) for b in iy.blocks))


# ---------------------------------------------------------------------------
# products and generators


def product_space(X, Y):
    """The l2 product: d((x,y),(x',y')) = sqrt(dX^2 + dY^2), exact via squares."""
    points = [(x, y) for x in X.points for y in Y.points]

    def d(p, q):
        dx = X.dist(p[0], q[0])
        dy = Y.dist(p[1], q[1])
        return hyp(dx, dy)

    def d_sq(p, q):
        return X.dist_sq(p[0], q[0]) + Y.dist_sq(p[1], q[1])

    base = None
    if X.basepoint is not None and Y.basepoint is not None:
        base = (X.basepoint, Y.basepoint)
    return FiniteMetricSpace(
        points, d, basepoint=base, name=f"({X.name})x({Y.name})", dist_sq=d_sq,
        index=_lattice_product(X, Y),
    )


def _check_cap(count, cap):
    if count > cap:
        raise InputError(f"generator would produce {count} points; cap is {cap}")


def interval_window(lo, hi, *, cap=DEFAULT_POINT_CAP):
    """Integer interval [lo, hi] with |i - j|."""
    if hi < lo:
        raise InputError("empty interval window")
    _check_cap(hi - lo + 1, cap)
    return FiniteMetricSpace(
        range(lo, hi + 1), lambda p, q: abs(p - q), basepoint=lo,
        name=f"interval[{lo},{hi}]", dist_sq=lambda p, q: (p - q) ** 2,
        index=LatticeIndex(lambda p: (p,), (range(1),)),
    )


def grid_window(shape, *, cap=DEFAULT_POINT_CAP):
    """d-dimensional grid window of the given shape under l1."""
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise InputError("grid shape entries must be positive")
    count = 1
    for s in shape:
        count *= s
    _check_cap(count, cap)
    points = list(itertools.product(*(range(s) for s in shape)))

    def d(p, q):
        return sum(abs(a - b) for a, b in zip(p, q))

    # the empty shape is the one-point space; it has no coordinates to index
    index = LatticeIndex(lambda p: p, (range(len(shape)),)) if shape else None
    return FiniteMetricSpace(points, d, basepoint=points[0], name=f"grid{shape}",
                             dist_sq=lambda p, q: d(p, q) ** 2, index=index)


def path_space(n, *, cap=DEFAULT_POINT_CAP):
    """Path on n vertices with unit steps; same metric as interval_window(0, n-1)."""
    if n <= 0:
        raise InputError("path needs at least one vertex")
    return interval_window(0, n - 1, cap=cap)


def cycle_space(n, *, cap=DEFAULT_POINT_CAP):
    if n <= 0:
        raise InputError("cycle needs at least one vertex")
    _check_cap(n, cap)

    def d(p, q):
        k = abs(p - q)
        return min(k, n - k)

    return FiniteMetricSpace(range(n), d, basepoint=0, name=f"cycle[{n}]")


def star_space(leaves, *, cap=DEFAULT_POINT_CAP):
    """Star: center 0 and the given number of unit-distance leaves."""
    if leaves < 0:
        raise InputError("negative leaf count")
    _check_cap(leaves + 1, cap)

    def d(p, q):
        if p == q:
            return 0
        return 1 if (p == 0 or q == 0) else 2

    return FiniteMetricSpace(range(leaves + 1), d, basepoint=0, name=f"star[{leaves}]")


def hypercube_union(max_dim, *, cap=DEFAULT_POINT_CAP):
    """Disjoint union of the 0/1 cubes of dimensions 1..max_dim.

    Points are (n, bits).  Inside cube n the metric is l1; across cubes
    m != n it is ||x||_1 + ||y||_1 + |n^2 - m^2|, which makes the map that
    collapses cube n to the integer n^2 uniformly expansive with identity
    modulus.
    """
    if max_dim < 1:
        raise InputError("hypercube_union needs max_dim >= 1")
    count = sum(2**n for n in range(1, max_dim + 1))
    _check_cap(count, cap)
    points = []
    for n in range(1, max_dim + 1):
        for bits in itertools.product((0, 1), repeat=n):
            points.append((n, bits))

    def d(p, q):
        (n, x), (m, y) = p, q
        if n == m:
            return sum(a != b for a, b in zip(x, y))
        return sum(x) + sum(y) + abs(n * n - m * m)

    return FiniteMetricSpace(points, d, basepoint=(1, (0,)), name=f"hypercubes[1..{max_dim}]")


def hypercube_collapse(max_dim, *, cap=DEFAULT_POINT_CAP):
    """The cube union, the integer target window, and the collapsing point map.

    The map sends every point of cube n to n^2; with the union metric above
    it is 1-Lipschitz, so the stored expansion modulus is the identity.
    """
    space = hypercube_union(max_dim, cap=cap)
    values = sorted(n * n for n in range(1, max_dim + 1))
    target = FiniteMetricSpace(values, lambda p, q: abs(p - q), basepoint=values[0],
                               name=f"squares[1..{max_dim}]")

    def fmap(p):
        return p[0] * p[0]

    return space, target, fmap


GENERATOR_KINDS = ("interval", "grid", "path", "cycle", "star", "hypercube_union")


def generate_space(spec, *, cap=DEFAULT_POINT_CAP):
    """Build a space from a generator spec dict (see the space file format)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError(f"generator spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]

    def integer(v):
        try:
            return int(v)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"generator spec {kind!r}: {v!r} is not an integer") from None

    try:
        if kind == "interval":
            return interval_window(integer(spec["lo"]), integer(spec["hi"]), cap=cap)
        if kind == "grid":
            shape = spec["shape"]
            if not isinstance(shape, (list, tuple)):
                raise InputError(f"generator spec 'grid': shape {shape!r} is not a list")
            return grid_window([integer(s) for s in shape], cap=cap)
        if kind == "path":
            return path_space(integer(spec["n"]), cap=cap)
        if kind == "cycle":
            return cycle_space(integer(spec["n"]), cap=cap)
        if kind == "star":
            return star_space(integer(spec["leaves"]), cap=cap)
        if kind == "hypercube_union":
            return hypercube_union(integer(spec["max_dim"]), cap=cap)
    except KeyError as e:
        raise InputError(f"generator spec {kind!r} is missing field {e}") from None
    raise InputError(f"unknown generator kind: {kind!r} (known: {GENERATOR_KINDS})")


def matrix_space(ids, rows, *, basepoint=None, name="matrix"):
    """Space from an explicit symmetric distance matrix; entries are Roots or
    anything :func:`~apckit.exact.scalar` takes."""
    ids = list(ids)
    n = len(ids)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("distance matrix shape does not match point count")
    table = {}
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            table[(ids[i], ids[j])] = v if isinstance(v, Root) else scalar(v)

    return FiniteMetricSpace(ids, lambda p, q: table[(p, q)], basepoint=basepoint, name=name)
