"""Witness checker for the apckit benchmark, written apart from apckit.

Nothing here imports apckit.  Every geometry computes its own distances from
the definitions of the spaces the benchmark builds: box distances for integer
lattices (intervals, l1 grids, l2 products), tree distance from a parent map,
word distance by common-prefix elimination (with any letter metric, the wedge
of two Z balls included), and a brute-force fallback over an explicit distance
function.

A witness is handed over as plain data: a list of slots, each a pair
``(mesh_sq, sets)`` where ``mesh_sq`` is the exact square of the slot's mesh
bound and ``sets`` is a list of point collections.  Slot i must be
R_i-disjoint, where R_i is the i-th scale of a repeat-last stream.  All
comparisons are made between exact squares, so sqrt-valued bounds need no
rounding.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Finding:
    """The first violation found: its condition, slot (None for coverage) and points."""

    condition: str  # "unknown-point" | "coverage" | "mesh" | "disjointness"
    slot: int | None
    points: tuple


def scale_at(prefix, i):
    """The i-th scale (1-based) of a repeat-last stream with the given prefix."""
    return prefix[min(i, len(prefix)) - 1]


def exact(x):
    """An exact rational from an int, a Fraction or a 'p/q' string."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f
    raise TypeError(f"not an exact scalar: {x!r}")


# ---------------------------------------------------------------------------
# geometries


class Brute:
    """Any finite metric given by a distance function; all pairs are examined."""

    def __init__(self, dist):
        self.dist = dist

    def dist_sq(self, p, q):
        d = self.dist(p, q)
        return d * d

    def diameter_sq(self, S):
        S = list(S)
        return max((self.dist_sq(p, q) for p, q in itertools.combinations(S, 2)), default=0)

    def close_pair(self, sets, R):
        """Some (i, j, p, q) with p in sets[i], q in sets[j], i < j and d(p, q) <= R."""
        R2 = R * R
        for i, j in itertools.combinations(range(len(sets)), 2):
            for p in sets[i]:
                for q in sets[j]:
                    if self.dist_sq(p, q) <= R2:
                        return i, j, p, q
        return None


def _l1_offsets(dim, r):
    if dim == 0:
        return [()]
    out = []
    for a in range(-r, r + 1):
        out += [(a,) + t for t in _l1_offsets(dim - 1, r - abs(a))]
    return out


class Lattice:
    """Integer points (tuples) under the l1 or the l2 norm.

    Sets that fill their bounding box get their diameter from the box
    extents.  l1 diameters of other sets use max over sign vectors s of the
    spread of s.p; l1 proximity is found by probing every lattice offset of
    norm <= R.  l2 proximity sweeps bounding boxes along the first axis and
    resolves boxes closer than R exactly: from the box gap when both sets fill
    their boxes, point by point otherwise.
    """

    def __init__(self, norm):
        if norm not in ("l1", "l2"):
            raise ValueError(norm)
        self.norm = norm

    def dist_sq(self, p, q):
        if self.norm == "l1":
            d = sum(abs(a - b) for a, b in zip(p, q))
            return d * d
        return sum((a - b) * (a - b) for a, b in zip(p, q))

    @staticmethod
    def box(S):
        dims = range(len(next(iter(S))))
        lo = tuple(min(p[k] for p in S) for k in dims)
        hi = tuple(max(p[k] for p in S) for k in dims)
        volume = 1
        for a, b in zip(lo, hi):
            volume *= b - a + 1
        return lo, hi, volume == len(S)

    def _combine(self, parts):
        if self.norm == "l1":
            d = sum(parts)
            return d * d
        return sum(g * g for g in parts)

    def diameter_sq(self, S):
        S = list(S)
        if len(S) <= 1:
            return 0
        lo, hi, full = self.box(S)
        if full:
            return self._combine([b - a for a, b in zip(lo, hi)])
        if self.norm == "l1":
            best = 0
            for signs in itertools.product((1, -1), repeat=len(lo)):
                vals = [sum(s * c for s, c in zip(signs, p)) for p in S]
                best = max(best, max(vals) - min(vals))
            return best * best
        return max(self.dist_sq(p, q) for p, q in itertools.combinations(S, 2))

    def close_pair(self, sets, R):
        if self.norm == "l1":
            return self._close_pair_l1(sets, R)
        return self._close_pair_l2(sets, R)

    def _close_pair_l1(self, sets, R):
        owner = {}
        for i, S in enumerate(sets):
            for p in S:
                if p in owner:
                    return owner[p], i, p, p
                owner[p] = i
        if R < 1 or not owner:
            return None
        dim = len(next(iter(owner)))
        offsets = [o for o in _l1_offsets(dim, int(R)) if any(o)]
        for p, i in owner.items():
            for o in offsets:
                q = tuple(a + b for a, b in zip(p, o))
                j = owner.get(q)
                if j is not None and j != i:
                    return (i, j, p, q) if i < j else (j, i, q, p)
        return None

    def _close_pair_l2(self, sets, R):
        R2 = R * R
        boxes = sorted(
            ((self.box(S), i) for i, S in enumerate(sets)), key=lambda b: b[0][0][0]
        )
        active = []
        for (lo, hi, full), i in boxes:
            active = [a for a in active if a[0][1][0] >= lo[0] - R]
            for (lo2, hi2, full2), j in active:
                gaps = [max(0, a - d, c - b) for a, b, c, d in zip(lo, hi, lo2, hi2)]
                if self._combine(gaps) > R2:
                    continue
                if full and full2:
                    p, q = [], []
                    for a, b, c, d in zip(lo, hi, lo2, hi2):
                        if b < c:
                            p.append(b), q.append(c)
                        elif d < a:
                            p.append(a), q.append(d)
                        else:
                            p.append(max(a, c)), q.append(max(a, c))
                    p, q = tuple(p), tuple(q)
                else:
                    p, q = self._brute_pair(sets[i], sets[j], R2)
                    if p is None:
                        continue
                return (i, j, p, q) if i < j else (j, i, q, p)
            active.append(((lo, hi, full), i))
        return None

    def _brute_pair(self, A, B, R2):
        for p in A:
            for q in B:
                if self.dist_sq(p, q) <= R2:
                    return p, q
        return None, None


class Tree:
    """Unit-edge tree metric from a parent map {vertex: parent, root: None}.

    Distances go through binary-lifting ancestors.  Diameters use two
    farthest-point sweeps, exact on trees.  Proximity runs one multi-source
    breadth-first search from every member of a family: the closest cross
    pair shows up as an edge whose two ends were reached from different sets.
    """

    def __init__(self, parent):
        self.parent = dict(parent)
        roots = [v for v, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError("parent map needs exactly one root")
        self.adj = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                self.adj[v].append(p)
                self.adj[p].append(v)
        self.depth = {roots[0]: 0}
        order = [roots[0]]
        for v in order:
            for w in self.adj[v]:
                if w not in self.depth:
                    self.depth[w] = self.depth[v] + 1
                    order.append(w)
        if len(order) != len(self.parent):
            raise ValueError("parent map is not connected")
        self.up = [self.parent]
        while (1 << len(self.up)) <= len(order):
            prev = self.up[-1]
            self.up.append({v: (None if prev[v] is None else prev[prev[v]]) for v in prev})

    def dist(self, u, v):
        du, dv = self.depth[u], self.depth[v]
        total = du + dv
        if du < dv:
            u, v, du, dv = v, u, dv, du
        k = 0
        diff = du - dv
        while diff:
            if diff & 1:
                u = self.up[k][u]
            diff >>= 1
            k += 1
        if u != v:
            for k in range(len(self.up) - 1, -1, -1):
                a, b = self.up[k][u], self.up[k][v]
                if a != b:
                    u, v = a, b
            u = self.parent[u]
        return total - 2 * self.depth[u]

    def dist_sq(self, p, q):
        d = self.dist(p, q)
        return d * d

    def diameter_sq(self, S):
        S = list(S)
        if len(S) <= 1:
            return 0
        a = max(S, key=lambda x: self.dist(S[0], x))
        d = max(self.dist(a, x) for x in S)
        return d * d

    def close_pair(self, sets, R):
        label, src, dist = {}, {}, {}
        queue = deque()
        for i, S in enumerate(sets):
            for v in S:
                if v in label:
                    return label[v], i, v, v
                label[v], src[v], dist[v] = i, v, 0
                queue.append(v)
        limit = int(R)
        while queue:
            v = queue.popleft()
            if dist[v] >= limit:
                continue
            for w in self.adj[v]:
                if w not in label:
                    label[w], src[w], dist[w] = label[v], src[v], dist[v] + 1
                    queue.append(w)
        best = None
        for v in label:
            for w in self.adj[v]:
                if w in label and label[w] != label[v]:
                    d = dist[v] + 1 + dist[w]
                    if d <= R and (best is None or d < best[0]):
                        best = (d, v, w)
        if best is None:
            return None
        _, v, w = best
        i, j, p, q = label[v], label[w], src[v], src[w]
        return (i, j, p, q) if i < j else (j, i, q, p)


class Words(Brute):
    """Words over a pointed base: tuples of non-basepoint letters.

    d(u, v) drops the common prefix, then pays the letter distance at the
    first divergence plus the norms of both tails; when one word extends the
    other it is the norm of the extension.
    """

    def __init__(self, letter_norm, letter_dist):
        self.letter_norm = letter_norm
        self.letter_dist = letter_dist
        super().__init__(self.word_dist)

    def norm(self, w):
        return sum(self.letter_norm(c) for c in w)

    def word_dist(self, u, v):
        i = 0
        n = min(len(u), len(v))
        while i < n and u[i] == v[i]:
            i += 1
        tu, tv = u[i:], v[i:]
        if not tu:
            return self.norm(tv)
        if not tv:
            return self.norm(tu)
        return self.letter_dist(tu[0], tv[0]) + self.norm(tu[1:]) + self.norm(tv[1:])

    def window(self, letters, max_order, max_norm):
        """Every word of order <= max_order and norm <= max_norm."""
        words = [()]
        frontier = [((), 0)]
        for _ in range(max_order):
            nxt = []
            for w, n in frontier:
                for c in letters:
                    m = n + self.letter_norm(c)
                    if m <= max_norm:
                        nxt.append((w + (c,), m))
            words += [w for w, _ in nxt]
            frontier = nxt
        return words


def wedge_of_z_balls():
    """Letter metric of the wedge of two Z balls: letters ('x', (k,)) and ('y', (k,))."""

    def norm(c):
        return abs(c[1][0])

    def dist(a, b):
        if a[0] == b[0]:
            return abs(a[1][0] - b[1][0])
        return norm(a) + norm(b)

    return Words(norm, dist)


# ---------------------------------------------------------------------------
# witnesses


def slots_from_file(obj):
    """(scale prefix, slots) from a witness in apckit's canonical JSON file format."""
    if obj.get("extend", "repeat-last") != "repeat-last":
        raise ValueError("only repeat-last scale streams are supported")

    def point(v):
        return tuple(point(x) for x in v) if isinstance(v, list) else v

    def square(v):
        if isinstance(v, dict):
            (key, sq), = v.items()
            if key != "sqrt":
                raise ValueError(f"unknown scalar {v!r}")
            return exact(sq)
        x = exact(v)
        return x * x

    prefix = [exact(x) for x in obj["scales"]]
    slots = [
        (square(f.get("mesh", 0)), [{point(p) for p in s} for s in f["sets"]])
        for f in obj["families"]
    ]
    return prefix, slots


def check_witness(geometry, universe, prefix, slots, require=None):
    """The first violation of a witness, or None when it is valid.

    ``universe`` is every point of the space; ``require`` is the part that must
    be covered (all of it by default).  Checks run in order: unknown points,
    coverage, then per slot the mesh bound and R_i-disjointness.
    """
    universe = universe if isinstance(universe, (set, frozenset)) else set(universe)
    covered = set()
    for slot, (_, sets) in enumerate(slots, start=1):
        for S in sets:
            for p in S:
                if p not in universe:
                    return Finding("unknown-point", slot, (p,))
            covered |= set(S)
    missing = (universe if require is None else set(require)) - covered
    if missing:
        return Finding("coverage", None, tuple(sorted(missing, key=repr)[:1]))
    for slot, (mesh_sq, sets) in enumerate(slots, start=1):
        sets = [S for S in sets if S]
        for S in sets:
            if geometry.diameter_sq(S) > mesh_sq:
                return Finding("mesh", slot, (min(S, key=repr),))
        hit = geometry.close_pair(sets, scale_at(prefix, slot))
        if hit is not None:
            return Finding("disjointness", slot, hit[2:])
    return None


def confirm(geometry, prefix, slots, condition, slot, points):
    """True iff the named violation is real: used on a verifier's False verdict.

    coverage: the point is in no set.  mesh: the set of the slot holding the
    point is wider than the bound.  disjointness: the two points sit in
    different sets of the slot and are at most R_slot apart.
    """
    if condition == "coverage":
        return all(all(points[0] not in S for S in sets) for _, sets in slots)
    mesh_sq, sets = slots[slot - 1]
    if condition == "mesh":
        return any(points[0] in S and geometry.diameter_sq(S) > mesh_sq for S in sets)
    if condition == "disjointness":
        p, q = points
        R = scale_at(prefix, slot)
        apart = any(p in A and q in B for A, B in itertools.permutations(sets, 2))
        return apart and geometry.dist_sq(p, q) <= R * R
    raise ValueError(condition)
