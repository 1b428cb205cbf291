"""Reference functions the tests check the library against.

Each one works straight from a definition: common-prefix elimination for
free-product words, all-pairs scans for set distances, walks up the parent
map for trees.  None of them is on a library path; the library answers the
same questions through its windows, indexes and combinators, and the tests
compare the two.  :func:`without_index` gives the index-free copy of a space
that the index tests compare against, and :func:`without_squares` the copy
that the metric validator checks without squared distances, and
:func:`closure` the classes an index's R-links join, which must be the
generic path's R-components.  :func:`check_witness` decides a cover
witness from an explicit distance table, with every pair and no index.
:func:`matrix_search` is the exact solver's search on boolean R and B matrices,
re-checking every pair of a merged component.  :func:`dijkstra_norms` is the
Cayley norm table by shortest-path search, which axis-generated Z^d windows
replace with a closed form.  :func:`hom_fiber_provider` is the homomorphism
fiber scheme with a per-fiber intersection of every stabilizer set, which the
library replaces with one slot table per scale.  :func:`core_reach_failures`
is a component core's reach check by a full cone walk and a sorted scan of
every word, which the library reads off each word's prefix.
:func:`cone_cover` covers the cone over a flat base through a fresh cone
tree, which the tests compare with the library's cover read off the words'
prefixes.  :func:`cone_tree` builds the simplicial tree over a cone, with a
root joined to its flat base, and :func:`qi_violations` checks the
quasi-isometry inequalities against that tree's own distance, which the
library reads off the words' prefixes.  :func:`cone_tree_cover` pulls a
cone tree's cover back to words, root stripped, with the mesh bound of its
own base diameter, and :func:`cone_cover_bound` is that bound with a
uniform core cap; the library's subcover covers each component from its
words' prefixes, with no tree, and states its bound once.
:func:`point_key_reference` is the canonical point order with a separate
bool case and the tuple case tested last, which the library's key must match.
:func:`randrange_pairs` is the validator's seeded pair draw by ``randrange``,
which the library's one sampler must reproduce bit for bit.
:func:`random_tree` is the seeded tree generator the tree tests and the
pinned CLI tree file draw from.
:class:`FreeProductHypothesis` is the free-product decomposition hypothesis
as a stateful class that builds the V-families from a 2-subsampled stream,
which the library replaces with V-families built once before decompose.
:func:`interval_witness`, :func:`tree_witness` and :func:`solver_witness`
are the built-in oracles' answers as each oracle once computed them in a
loop of its own, which the library replaces with one cover-at-a-scale loop.
"""

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from apckit import groups
from apckit.combinators import FiberCoverScheme
from apckit.covers import witness_from_families
from apckit.exact import Rational, Root, root_of, scalar, sq_value
from apckit.freeprod import (FreeProductWindow, build_v_families, component_core, cone_radius,
                             cone_window, is_flat)
from apckit.metric import (ConstructionError, Family, FiniteMetricSpace, InputError, UnionFind,
                           point_key, r_components, set_diameter, sorted_points)
from apckit.trees import RootedTree, tree_cover

INF = math.inf


# ---------------------------------------------------------------------------
# point ids


def point_key_reference(p):
    """Total order over the mixed point-id types we use (ints, strings, tuples)."""
    if isinstance(p, bool):
        return (0, int(p))
    if isinstance(p, Rational):
        return (0, p)
    if isinstance(p, str):
        return (1, p)
    if isinstance(p, tuple):
        return (2, tuple(point_key_reference(x) for x in p))
    return (3, repr(p))


# ---------------------------------------------------------------------------
# free-product words


def fp_distance(base, u, v):
    """Common-prefix elimination distance between two words over a pointed base.

    When one word extends the other, the distance is the extension's norm
    (forced by the trivial-word rule); otherwise it pays the letter distance
    at the first divergence plus both tail norms.
    """
    if base.basepoint is None:
        raise InputError("fp_distance needs a pointed base space")
    x0 = base.basepoint
    for w in (u, v):
        for c in w:
            if c == x0:
                raise InputError("words may not contain the basepoint letter")

    def norm(w):
        return sum(base.dist(x0, c) for c in w)

    i = 0
    n = min(len(u), len(v))
    while i < n and u[i] == v[i]:
        i += 1
    tu, tv = u[i:], v[i:]
    if not tu:
        return norm(tv)
    if not tv:
        return norm(tu)
    return base.dist(tu[0], tv[0]) + norm(tu[1:]) + norm(tv[1:])


def words_adjacent(u, v) -> bool:
    """Adjacent words differ in their last letter or extend one another by one."""
    if u == v:
        return False
    if len(u) == len(v):
        return len(u) > 0 and u[:-1] == v[:-1]
    if abs(len(u) - len(v)) != 1:
        return False
    longer, shorter = (u, v) if len(u) > len(v) else (v, u)
    return longer[:-1] == shorter


def core_reach_failures(window, C, M, R, D, margin=0):
    """(artifacts, hard failures) of a component whose core is flat: the words
    of C outside the (max(M + R, 0) + D)-cone of its minimal-order slice, in
    sorted order, split by whether their norm exceeds max_norm - margin."""
    k0 = min(len(w) for w in C)
    core = frozenset(w for w in C if len(w) == k0)
    radius = max(scalar(M) + scalar(R), 0) + scalar(D)
    inner_bound = window.max_norm - scalar(margin)
    reach = cone_window(window, core, radius)
    artifacts, hard = [], []
    for w in sorted_points(C):
        if w in reach:
            continue
        if window.norm(w) > inner_bound:
            artifacts.append(w)
        else:
            hard.append(w)
    return artifacts, hard


ROOT = "<root>"  # cone-tree root sentinel; never collides with word tuples


@dataclass
class ConeTree:
    tree: RootedTree
    cone: frozenset
    E: object  # the window's minimal positive gap
    D: object  # diameter of the flat base
    M: object  # the cone scale
    window: FreeProductWindow


def cone_tree(window, A, M):
    """The simplicial tree over con_M(A): root joined to the flat base, one
    edge per single-letter extension of norm <= M."""
    A = frozenset(A)
    if not A:
        raise InputError("cone_tree needs a nonempty base")
    if not is_flat(A):
        raise InputError("cone_tree base must be flat")
    cone = cone_window(window, A, M)
    M = scalar(M)
    parent = {w: ROOT if w in A else w[:-1] for w in cone}
    parent[ROOT] = None
    tree = RootedTree(parent)
    D = set_diameter(window.space, A)
    return ConeTree(tree, cone, window.E, D, M, window)


def qi_violations(ct):
    """Both quasi-isometry inequalities, d/M - D/M <= d_T <= d/E + 3, on all
    pairs of a cone tree's cone, with d_T read off the built tree."""
    E, D, M = ct.E, ct.D, ct.M
    violations = []
    for u, v in itertools.combinations(sorted_points(ct.cone), 2):
        d = ct.window.space.dist(u, v)
        dT = ct.tree.distance(u, v)
        if not (Fraction(d, 1) / M - Fraction(D, 1) / M <= dT):
            violations.append(("lower", u, v, d, dT))
        if not (dT <= Fraction(d, 1) / E + 3):
            violations.append(("upper", u, v, d, dT))
    return violations


def cone_tree_cover(ct, r):
    """Two r-disjoint families covering a cone tree's cone, pulled back from
    the tree cover, and their mesh bound.

    Tree sets more than r/E + 3 apart give word sets more than r apart; a
    tree set of diameter below 3*ceil(r/E + 3) gives a word set of diameter
    at most M * (3 * ceil(r/E + 3)) + D, the returned bound.
    """
    r = scalar(r)
    tc = tree_cover(ct.tree, -(-r // ct.E) + 3)  # ceil(r/E + 3), exactly
    families = [Family.of([s - {ROOT} for s in fam.sets]) for fam in (tc.even, tc.odd)]
    return families, cone_cover_bound(ct.E, ct.D, ct.M, r)


def cone_cover_bound(E, D_bound, M, r):
    """The :func:`cone_tree_cover` mesh bound with the base diameter replaced by a uniform cap."""
    rt = -(-r // E) + 3  # ceil(r/E + 3), exactly
    return M * (3 * rt) + D_bound


def cone_cover(window, A, M, r):
    """Two r-disjoint families covering con_M(A) and their mesh bound; see
    :func:`cone_tree_cover`.  An empty base gives two empty families."""
    A = frozenset(A)
    if not A:
        return [Family.of([]), Family.of([])], 0
    return cone_tree_cover(cone_tree(window, A, M), r)


class FreeProductHypothesis:
    """Decomposition hypothesis realizing the free-product construction.

    Families are the R_i-components of the (R* + 1)-cones over the translated
    base families; each component is re-covered through its core's cone
    tree, built here from the core the component check reports.
    The margin is fixed by the caller (free_product_cover states its
    default): a failed core check at a word of norm above max_norm - margin
    is a window artifact, elsewhere an error.  Cone scale, cone radius, core
    cap and tree-cover scale are clamped at 0: a 0-disjoint family is
    R-disjoint for every R < 0.
    """

    def __init__(self, oracle_for_x, window, margin):
        self.oracle = oracle_for_x
        self.window = window
        self.margin = margin
        self.vf = None
        self.M = None
        self.artifacts = []

    def families(self, sub):
        self.vf = build_v_families(self.oracle, sub, self.window)
        if not self.vf.certificate.ok:
            raise ConstructionError(
                f"coverage certificate failed: {self.vf.certificate.problems[:3]}"
            )
        self.M = max(self.vf.R_star + 1, 0)
        out = []
        for i, fam in enumerate(self.vf.families, start=1):
            support = fam.support()
            cone = cone_window(self.window, support, self.M)
            comps = r_components(self.window.space, cone, sub.at(i))
            out.append((sub.at(i), Family.of(comps)))
        return out

    def subcover(self, i, R):
        D_i = self.vf.bounds[i - 1]
        radius = cone_radius(self.M, R, D_i)
        core_cap = 2 * radius
        B = cone_cover_bound(self.window.E, core_cap, radius, max(R, 0))

        def cover(U):
            report = component_core(self.window, U, self.M, R, D_i, margin=self.margin)
            self.artifacts.extend(report.artifacts)
            if report.hard_failures:
                raise ConstructionError(
                    f"component core failed inside the margin-reduced window: "
                    f"{report.hard_failures[:3]}"
                )
            if not report.flat:
                # whole component is a boundary artifact; emit nothing for it
                return [Family.of([]), Family.of([])]
            tree = cone_tree(self.window, report.core, radius)
            if tree.D > core_cap:
                inner_bound = self.window.max_norm - self.margin
                if not any(self.window.norm(w) > inner_bound for w in U):
                    raise ConstructionError(
                        f"core of an inner component exceeds its uniform diameter cap "
                        f"({core_cap})"
                    )
                self.artifacts.extend(U)  # free_product_cover sorts all artifacts once
                return [Family.of([]), Family.of([])]
            fams, _ = cone_tree_cover(tree, max(R, 0))
            return [Family.of([s & U for s in fam.sets]) for fam in fams]

        return B, cover


# ---------------------------------------------------------------------------
# set-level distances


def without_index(space):
    """The same points, distances and basepoint, with no index, so every
    set-level question about it takes the generic all-pairs path."""
    return FiniteMetricSpace(space.points, space._dist, dist_sq=space.dist_sq,
                             basepoint=space.basepoint, name="plain")


def closure(pts, links):
    """The classes of pts under the transitive closure of the index pairs links."""
    uf = UnionFind(len(pts))
    for i, j in links:
        uf.union(i, j)
    classes = {}
    for i, p in enumerate(pts):
        classes.setdefault(uf.find(i), set()).add(p)
    return {frozenset(c) for c in classes.values()}


def randrange_pairs(n, budget, seed):
    """budget seeded pairs of distinct indices below n, drawn by
    ``randrange``; the library's sampler, which draws by ``getrandbits``
    rejection, must draw exactly these."""
    rng = random.Random(seed)
    out = []
    for _ in range(budget):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        out.append((i, j))
    return out


def without_squares(space):
    """The same points, distances and basepoint, with no ``dist_sq`` and no
    index, so :func:`~apckit.metric.validate_metric` checks it on its
    distances instead of on exact squares."""
    return FiniteMetricSpace(space.points, space._dist, basepoint=space.basepoint,
                             name="plain")


def set_distance(space, S, T):
    """min cross distance between two sets; +inf if either is empty."""
    space.require(S)
    space.require(T)
    if not S or not T:
        return INF
    return root_of(min(space.dist_sq(p, q) for p in S for q in T))


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


# ---------------------------------------------------------------------------
# combinator bookkeeping and fiber schemes


def check_coarsely_surjective(fmap, X, Y, R):
    """For each y in Y there must be x in X with dist(y, f(x)) < R (strict)."""
    images = [fmap(x) for x in X.points]
    Y.require(images)
    for y in Y.points:
        if not any(Y.dist(y, fy) < R for fy in images):
            return False, y
    return True, None


def triangular_inverse(k: int):
    if k < 1:
        raise InputError("triangular positions start at 1")
    d = (3 + math.isqrt(8 * k - 7)) // 2
    while (d - 1) * (d - 2) // 2 >= k:
        d -= 1
    while d * (d - 1) // 2 < k:
        d += 1
    i = k - (d - 1) * (d - 2) // 2
    return i, d - i


def whole_fiber_scheme():
    """k = 1 scheme covering each fiber by itself; valid when diam A <= diam f(A).

    Useful for identity-like maps; the single family is vacuously disjoint at
    any scale.
    """

    def factory(stream):
        return FiberCoverScheme(1, lambda M: (M, lambda A: [Family.of([A])]))

    return factory


def singleton_fiber_scheme():
    """k = 1, mesh 0 scheme; valid only when every coarse fiber is a single point."""

    def factory(stream):
        def cover(A):
            if len(A) > 1:
                raise ConstructionError("singleton fiber scheme got a multi-point fiber")
            return [Family.of([A])]

        return FiberCoverScheme(1, lambda M: (0, cover))

    return factory


# ---------------------------------------------------------------------------
# group models


def dijkstra_norms(model, genset, norm_radius):
    """The norm table out to norm_radius by shortest-weighted-path search from
    the identity, for any model and generating set, with the window's cap."""
    e = model.identity()
    norms = {}
    heap = [(0, 0, e)]
    counter = 0
    while heap:
        n, _, g = heapq.heappop(heap)
        if g in norms:
            continue
        norms[g] = n
        if len(norms) > groups.BALL_CAP:
            raise InputError(f"ball exceeds the {groups.BALL_CAP}-element cap")
        for s, w in genset:
            nn = n + w
            if nn <= norm_radius:
                h = model.mul(g, s)
                if h not in norms:
                    counter += 1
                    heapq.heappush(heap, (nn, counter, h))
    return norms


def hom_fiber_provider(window, phi, sigma, windowH, kernel_source):
    """The homomorphism fiber scheme's provider(M, R) -> (B, cover_fn) with a
    per-fiber pullback: cover_fn translates the fiber into the M-stabilizer
    and intersects every pulled-back stabilizer set with it, where the
    library looks each element's kernel slots up in one table."""
    model = window.model
    n = kernel_source.n

    def provider(M, R):
        by_kernel = {}
        for g in window.norms:
            h = phi(g)
            if windowH.norm_of(h) <= M:
                by_kernel.setdefault(model.mul(g, model.inv(sigma(h))), []).append(g)
        stab = {g for gs in by_kernel.values() for g in gs}
        sigma_max = max((window.norm_of(sigma(h)) for h, nh in windowH.norms.items()
                         if nh <= M), default=0)
        B_k, kernel_fams = kernel_source.cover(set(by_kernel), R + 2 * sigma_max)
        fams = [[{g for k in S for g in by_kernel.get(k, ())} for S in fam.sets]
                for fam in kernel_fams]

        def cover_fn(A):
            A = frozenset(A)
            if not A:
                return [Family.of([]) for _ in range(n + 1)]
            ginv = model.inv(min(A, key=point_key))
            back = {}
            for a in A:
                t = model.mul(ginv, a)
                if t not in stab:
                    raise ConstructionError(
                        f"translated fiber element {t!r} escapes the {M}-stabilizer"
                    )
                back[t] = a
            return [Family.of([{back[t] for t in S & back.keys()} for S in sets])
                    for sets in fams]

        return B_k + 2 * sigma_max, cover_fn

    return provider


def embedded_gens(model, factor_gens):
    """Lift per-factor generator lists into a DirectProductModel."""
    gens = []
    for i, fg in enumerate(factor_gens):
        for elem, w in fg:
            lifted = tuple(
                elem if j == i else f.identity()
                for j, f in enumerate(model.factors)
            )
            gens.append((lifted, w))
    return gens


# ---------------------------------------------------------------------------
# rooted trees


def random_tree(n, rng=None, *, shape="attach"):
    """Random rooted tree on vertices 0..n-1 (0 is the root)."""
    rng = rng or random.Random(0)
    parent = {0: None}
    for v in range(1, n):
        if shape == "path":
            parent[v] = v - 1
        elif shape == "star":
            parent[v] = 0
        elif shape == "caterpillar":
            parent[v] = v - 1 if v % 2 else max(0, v - 2)
        else:
            parent[v] = rng.randrange(v)
    return RootedTree(parent)


def ancestor_at_depth(tree, v, h):
    d = tree.depth[v]
    if d < h:
        raise InputError("vertex is above the requested depth")
    while d > h:
        v = tree.parent[v]
        d -= 1
    return v


def height(tree):
    return max(tree.depth.values())


def tree_depths(parent):
    """Each vertex's depth in a parent map, by walking its ancestor chain up
    to a vertex of known depth, with RootedTree's refusals in their order."""
    parent = dict(parent)
    if None in parent:
        raise InputError("None is not a tree vertex: it marks the root's parent")
    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        raise InputError(f"tree must have exactly one root, found {len(roots)}")
    for v, p in parent.items():
        if p is not None and p not in parent:
            raise InputError(f"parent {p!r} of {v!r} is not a vertex")
    depth = {}
    for v in parent:
        chain = []
        u = v
        while u is not None and u not in depth:
            chain.append(u)
            u = parent[u]
            if len(chain) > len(parent):
                raise InputError("parent map has a cycle")
        base = -1 if u is None else depth[u]
        for w in reversed(chain):
            base += 1
            depth[w] = base
    return depth


# ---------------------------------------------------------------------------
# cover witnesses


def _square(x):
    """x * x exactly; a Root is sqrt of the rational it holds."""
    return x.sq if isinstance(x, Root) else Fraction(x) ** 2


def _at_most(d, r):
    """d <= r, for a distance d >= 0 and a scale or bound r of either sign."""
    return r >= 0 and _square(d) <= _square(r)


def check_witness(dist, scales, slots, require_cover_of=None):
    """Every violation of a cover witness, straight from the definition.

    dist maps each ordered pair (p, q) of points of the space, p == q
    included, to d(p, q): an int, a Fraction or a Root, compared by squares.
    The points of those pairs are the space.  slots[i - 1] is the family at
    slot i as (mesh bound, list of sets), disjoint at scales[i - 1].  The
    witness is valid iff the returned set is empty.  It holds
    ("coverage", None, p) for each point of the space, or of
    require_cover_of, that no set holds; ("disjointness", i, (p, q)) for each
    ordered pair from two distinct sets of slot i with d(p, q) <= R_i; and
    ("mesh", i, S) for each set S of slot i with two points farther apart
    than its bound.  A point outside the space raises LookupError.
    """
    space = {p for p, _ in dist}
    target = space if require_cover_of is None else set(require_cover_of)
    if not target <= space or any(not set(S) <= space for _, sets in slots for S in sets):
        raise LookupError("a point outside the space")
    found = set()
    covered = set()
    for i, (bound, sets) in enumerate(slots, start=1):
        for S in sets:
            covered |= set(S)
            if any(not _at_most(dist[p, q], bound) for p in S for q in S):
                found.add(("mesh", i, frozenset(S)))
        for S, T in itertools.permutations(sets, 2):
            found |= {("disjointness", i, (p, q))
                      for p in S for q in T if _at_most(dist[p, q], scales[i - 1])}
    found |= {("coverage", None, p) for p in target - covered}
    return found


# ---------------------------------------------------------------------------
# the exact solver's search on boolean matrices


def matrix_join(comps, p, le_R, le_B):
    """The R-components of a family after p joins it, or None when the
    component p lands in would exceed the mesh bound."""
    touching = []
    rest = []
    for comp in comps:
        if any(le_R[p][q] for q in comp):
            touching.append(comp)
        else:
            rest.append(comp)
    merged = [p]
    for comp in touching:
        merged.extend(comp)
    for a, b in itertools.combinations(merged, 2):
        if not le_B[a][b]:
            return None
    return rest + [merged]


def matrix_search(pts, dist, R, B, k):
    """Exhaustive branch-and-bound: split pts into at most k valid families.

    ``dist`` is the distance table of pts, row i holding d(pts[i], pts[j])
    for j > i.  Points are placed in order of
    decreasing R-degree, each trying the families in turn; a point may open
    at most the first unused family, which breaks the symmetry between
    families.  The search is iterative, so its depth is not bounded by the
    interpreter's recursion limit.  Returns ``(families, nodes)``: the
    families are None when no split exists, and nodes counts the points
    branched on.  No set has a negative diameter, so B < 0 is refused.
    """
    if B < 0:
        raise InputError(f"mesh bound must be >= 0, not {B}")
    n = len(pts)
    if n == 0:
        return [], 0
    if k <= 0:
        return None, 0
    le_R = [[False] * n for _ in range(n)]
    le_B = [[True] * n for _ in range(n)]
    for i, row in enumerate(dist):
        for j, d in enumerate(row, i + 1):
            le_R[i][j] = le_R[j][i] = d <= R
            le_B[i][j] = le_B[j][i] = d <= B
    order = sorted(range(n), key=lambda i: -sum(le_R[i]))
    comps = [[] for _ in range(k)]  # R-components of each family
    tried = [-1] * n  # the family holding the point placed at each depth
    saved = [None] * n  # that family's components before the point joined
    used = [0] * (n + 1)  # families opened above each depth
    depth, nodes = 0, 1
    while 0 <= depth < n:
        p = order[depth]
        for f in range(tried[depth] + 1, min(used[depth] + 1, k)):
            joined = matrix_join(comps[f], p, le_R, le_B)
            if joined is not None:
                tried[depth], saved[depth], comps[f] = f, comps[f], joined
                used[depth + 1] = max(used[depth], f + 1)
                depth += 1
                if depth < n:
                    tried[depth] = -1
                    nodes += 1
                break
        else:
            depth -= 1
            if depth >= 0:
                comps[tried[depth]] = saved[depth]
    if depth < 0:
        return None, nodes
    return [Family.of([[pts[i] for i in c] for c in fam]) for fam in comps if fam], nodes


# ---------------------------------------------------------------------------
# built-in oracles, one loop each


def interval_witness(space, scales):
    """interval_oracle's witness: at the second scale R, blocks of
    max(1, ceil(R)) consecutive points, even blocks in one family and odd in
    the other, each with mesh bound length - 1."""
    pts = space.points
    coord = (lambda p: p[0]) if all(isinstance(p, tuple) for p in pts) else (lambda p: p)
    lo = min(coord(p) for p in pts)
    length = max(1, math.ceil(scales.at(2)))
    blocks = {}
    for p in pts:
        blocks.setdefault((coord(p) - lo) // length, []).append(p)
    ordered = [blocks[k] for k in sorted(blocks)]
    fams = [f for f in (Family.of(ordered[0::2]), Family.of(ordered[1::2])) if len(f)]
    return witness_from_families(fams, scales, [length - 1] * len(fams))


def tree_witness(tree, scales):
    """tree_oracle's witness: tree_cover at the second scale rounded up to
    an integer r >= 1, its nonempty families with its mesh bound."""
    cover = tree_cover(tree, max(1, math.ceil(scales.at(2))))
    fams = [f for f in cover.families() if len(f)]
    return witness_from_families(fams, scales, [cover.mesh_bound] * len(fams))


def solver_witness(solve, scales):
    """exact_oracle's and greedy_oracle's witness: ``solve(R)`` at mesh bound
    0, rerun at the n-th scale while it returns n families for an index below n."""
    n = 1
    while True:
        res = solve(scales.at(n))
        if res.n <= n:
            return witness_from_families(res.families, scales, [0] * res.n)
        n = res.n
