"""Shared generators and brute-force oracles for the test suite.

The brute-force helpers here deliberately work straight from definitions
(set partitions, transitive closures) so they stay independent of the
library's own shortcuts.
"""

import itertools
import random
from fractions import Fraction

from apckit.metric import Family, FiniteMetricSpace, set_diameter, sorted_points

# The Cayley table of a loop of order 5 that is no group: 0 is the identity,
# each element is its own inverse and every row and column is a permutation,
# but 36 triples are not associative, (1*1)*2 != 1*(1*2) among them.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def random_points_space(rng, n, dim=3, span=9):
    """Random integer points under l1; always a genuine metric."""
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, span) for _ in range(dim)))
    pts = sorted(pts)

    def d(p, q):
        return sum(abs(a - b) for a, b in zip(p, q))

    return FiniteMetricSpace(pts, d, basepoint=pts[0], name=f"rand[{n}]")


def random_graph_space(rng, n, extra_edges=2):
    """Shortest-path metric of a random connected graph with small weights."""
    import math

    edges = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = rng.randint(1, 4)
    for _ in range(extra_edges * n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            key = (min(u, v), max(u, v))
            edges.setdefault(key, rng.randint(1, 4))
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (u, v), w in edges.items():
        dist[u][v] = min(dist[u][v], w)
        dist[v][u] = dist[u][v]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            row = dist[i]
            rowk = dist[k]
            for j in range(n):
                if dik + rowk[j] < row[j]:
                    row[j] = dik + rowk[j]
    return FiniteMetricSpace(range(n), lambda p, q: dist[p][q], basepoint=0, name="graph")


def brute_components(space, S, R):
    """Transitive closure of the <=R relation, computed by repeated sweeps."""
    S = sorted_points(S)
    comps = [{p} for p in S]
    changed = True
    while changed:
        changed = False
        for i in range(len(comps)):
            if not comps[i]:
                continue
            for j in range(i + 1, len(comps)):
                if not comps[j]:
                    continue
                if any(space.dist(p, q) <= R for p in comps[i] for q in comps[j]):
                    comps[i] |= comps[j]
                    comps[j] = set()
                    changed = True
    return sorted(
        (frozenset(c) for c in comps if c),
        key=lambda c: sorted_points(c)[0] if c else None,
    )


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {head}] + part[i + 1 :]
        yield part + [{head}]


def family_coverable(space, pts, R, B):
    """Definition-level check: can pts be split into sets of diameter <= B,
    pairwise more than R apart?"""
    for part in _set_partitions(pts):
        if all(set_diameter(space, block) <= B for block in part) and all(
            all(space.dist(p, q) > R for p in a for q in b)
            for a, b in itertools.combinations(part, 2)
        ):
            return True
    return False


def brute_witness_verdict(space, scales, witness):
    """Definition-level witness check: direct quantifier evaluation, no
    shortcuts, no squared-distance fast paths."""
    covered = set()
    for e in witness.entries:
        for s in e.family.sets:
            covered |= s
    if not covered >= space.point_set:
        return False
    for i, e in enumerate(witness.entries, start=1):
        R = scales.at(i)
        sets = e.family.sets
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                for p in sets[a]:
                    for q in sets[b]:
                        if not space.dist(p, q) > R:
                            return False
        for s in sets:
            for p in s:
                for q in s:
                    if space.dist(p, q) > e.mesh_bound:
                        return False
    return True


def brute_min_families(space, R, B, limit=4):
    """Smallest family count by exhaustive assignment, straight from the definition."""
    pts = sorted_points(space.points)
    for n in range(1, limit + 1):
        for assignment in itertools.product(range(n), repeat=len(pts)):
            if len(set(assignment)) != n:
                continue
            groups = {}
            for p, f in zip(pts, assignment):
                groups.setdefault(f, []).append(p)
            if all(family_coverable(space, g, R, B) for g in groups.values()):
                return n
    return None
