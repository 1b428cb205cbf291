"""Rooted simplicial trees with unit edges and their two-family annulus cover.

The cover splits vertices into depth annuli of height r and takes the
r-components of each annulus, even annuli into one family and odd into the
other.  Same-parity annuli are separated by more than r in depth alone, and
a component sits inside the subtree of a single "anchor" vertex just above
its annulus, which pins its diameter below 3r - 2 for integer r.

A tree's metric space carries a :class:`TreeIndex`: diameters come from two
farthest-point sweeps and R-links from one breadth-first search from every
point at once, so separation and R-components take linear time too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .exact import scalar, sq_value
from .metric import Family, FiniteMetricSpace, InputError, sorted_points
from .covers import _scale_oracle


class RootedTree:
    """Vertices with a parent map; exactly one root (parent None).

    One walk down the children lists from the root gives each vertex's
    ``depth`` and the ``preorder`` (each vertex after its parent, every
    subtree contiguous); the undirected ``adj`` is built on first read.
    """

    def __init__(self, parent):
        self.parent = dict(parent)
        if None in self.parent:
            raise InputError("None is not a tree vertex: it marks the root's parent")
        roots = [v for v, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise InputError(f"tree must have exactly one root, found {len(roots)}")
        self.root = roots[0]
        children = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                if p not in children:
                    raise InputError(f"parent {p!r} of {v!r} is not a vertex")
                children[p].append(v)
        # A vertex the walk misses has an ancestor chain that never reaches
        # the root, so it lies on or below a cycle.
        self.depth = {self.root: 0}
        self.preorder = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            self.preorder.append(v)
            for w in children[v]:
                self.depth[w] = self.depth[v] + 1
                stack.append(w)
        if len(self.preorder) != len(self.parent):
            raise InputError("parent map has a cycle")
        self._tables = None

    @functools.cached_property
    def adj(self):
        """vertex -> its parent, if any, and its children."""
        adj = {v: [] if p is None else [p] for v, p in self.parent.items()}
        for v, p in self.parent.items():
            if p is not None:
                adj[p].append(v)
        return adj

    @functools.cached_property
    def vertices(self):
        return tuple(sorted_points(self.parent))

    def __len__(self):
        return len(self.parent)

    def meet(self, u, v):
        """Deepest common ancestor, by walking up; the reference for :meth:`distance`."""
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            u = self.parent[u]
            du -= 1
        while dv > du:
            v = self.parent[v]
            dv -= 1
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def _lookup_tables(self):
        """(preorder position, sparse table of depths), built once.

        The preorder is the first-visit subsequence of the Euler tour.  For
        u != v at positions i < j, the shallowest vertex at positions
        i + 1 .. j is the child of meet(u, v) on the way to v (Bender and
        Farach-Colton's range-minimum reduction), so level k of the table,
        the minimum depth over each window of 2**k positions, answers a meet
        depth with two lookups.  Built on the first query, so trees that are
        never measured do not pay for it.
        """
        if self._tables is None:
            row = [self.depth[v] for v in self.preorder]
            table = [row]
            span = 1
            while 2 * span <= len(self.preorder):
                row = list(map(min, row, row[span:]))
                table.append(row)
                span *= 2
            self._tables = ({v: i for i, v in enumerate(self.preorder)}, table)
        return self._tables

    def distance(self, u, v):
        """depth(u) + depth(v) - 2 depth(meet(u, v)), in O(1) per query."""
        pos, table = self._tables or self._lookup_tables()
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        elif i == j:
            return 0
        k = (j - i).bit_length() - 1
        row = table[k]
        a, b = row[i + 1], row[j - (1 << k) + 1]
        depths = table[0]
        return depths[i] + depths[j] + 2 - 2 * (a if a < b else b)

    def as_space(self):
        return FiniteMetricSpace(
            self.vertices, self.distance, basepoint=self.root, name="tree",
            index=TreeIndex(self),
        )


class TreeIndex:
    """Set diameters and R-links of a tree's metric space in linear time."""

    def __init__(self, tree):
        self.tree = tree

    def diameter_sq(self, S):
        d = set_tree_diameter(self.tree, S)
        return d * d

    def links(self, label, R):
        """Label pairs (a, b), a != b, each of two vertices at most R >= 0
        apart, whose closure joins every two labels with vertices within R.

        A breadth-first search from every labelled vertex at once (a graph
        Voronoi diagram, cut off at depth floor(R), as tree distances are
        integers): each vertex is held by the first point to reach it, at its
        depth, and is expanded once.  A front of label a at depth d that
        meets a vertex held for b at depth e with d + e <= floor(R) yields
        (a, b).  On a path of length k <= R between two labelled points,
        every vertex is held, and any two adjacent ones held for different
        labels, at depths d and e, have d + 1 + e <= k; the shallower one
        meets the other already held when it expands, so the labels along
        the path are chained and the closure is exact.
        """
        if R < 0:
            return
        reach = math.isqrt(math.floor(sq_value(R)))
        adj = self.tree.adj
        held = {v: (a, 0) for v, a in label.items()}
        frontier = list(label.items())
        d = 0
        while frontier and d < reach:
            d += 1
            nxt = []
            for v, a in frontier:
                for w in adj[v]:
                    got = held.get(w)
                    if got is None:
                        held[w] = (a, d)
                        nxt.append((w, a))
                    elif got[0] != a and got[1] + d <= reach:
                        yield a, got[0]
            frontier = nxt


def tree_from_edges(root, edges):
    parent = {root: None}
    for p, c in edges:
        if c in parent:
            raise InputError(f"vertex {c!r} has two parents")
        parent[c] = p
    return RootedTree(parent)


@dataclass
class TreeCover:
    even: Family
    odd: Family
    mesh_bound: object

    def families(self):
        return [self.even, self.odd]


def tree_cover(tree, r):
    """Two r-disjoint families covering the tree, mesh < 3r.

    One pass over the tree's preorder, which lists each vertex after its
    parent.  Vertex v lies in annulus i = depth(v) // r, the depths d with
    i*r <= d < (i+1)*r.  Within an annulus every vertex connects up its
    branch to the annulus top, and two top vertices are within r iff they
    share the ancestor at depth ceil(i*r) - floor(floor(r)/2), the anchor;
    the components are the vertices of an annulus that share an anchor.  v
    takes its parent's anchor when the parent lies in the same annulus.
    Otherwise v is at the annulus top and its anchor is v itself (r < 2) or
    its parent's entry in ``up``, which each vertex inherits from its parent
    the same way, so no vertex walks up the tree and the pass is linear.  For
    integer r the mesh bound is the stronger 3r - 2.
    """
    r = scalar(r)
    if r < 1:
        raise InputError("tree_cover needs r >= 1")
    half = math.floor(r) // 2  # chain-step threshold: distances are integers
    # key: vertex -> (annulus, anchor); up: vertex -> its ancestor at the
    # anchor depth of the next annulus, for vertices at least that deep
    key, up, comps = {}, {}, {}
    for v in tree.preorder:
        d, p = tree.depth[v], tree.parent[v]
        i = d // r
        if p is not None and key[p][0] == i:
            key[v] = key[p]
        else:
            h = max(0, math.ceil(i * r) - half)
            key[v] = (i, v if d == h else up[p])
        h_next = math.ceil((i + 1) * r) - half
        if d >= h_next:
            up[v] = v if d == h_next else up[p]
        comps.setdefault(key[v], []).append(v)

    return TreeCover(
        even=Family.of(c for (i, _), c in comps.items() if i % 2 == 0),
        odd=Family.of(c for (i, _), c in comps.items() if i % 2),
        mesh_bound=3 * r - 2 if isinstance(r, int) else 3 * r,
    )


def tree_oracle(tree):
    """Oracle over the tree's metric space: tree_cover at the second scale,
    rounded up to an integer r >= 1."""
    return _scale_oracle(
        tree.as_space(),
        lambda R: ((c := tree_cover(tree, max(1, math.ceil(R)))).mesh_bound, c.families()),
        2, "tree",
    )


def set_tree_diameter(tree, S):
    """Exact diameter of a vertex subset via two farthest-point sweeps.

    Valid because tree metrics are 0-hyperbolic: the farthest vertex from any
    start is an end of a diametral pair.
    """
    S = list(S)
    if len(S) <= 1:
        return 0
    u = S[0]
    v = max(S, key=lambda x: tree.distance(u, x))
    return max(tree.distance(v, x) for x in S)
