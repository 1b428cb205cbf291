"""Free-product word spaces over a pointed finite metric space.

Words are tuples of non-basepoint letters; the distance between two words
eliminates their common prefix and pays the letter distance at the first
divergence plus the norms of both tails.  A window truncates the (infinite)
word space at a maximum order and norm; everything downstream -- cones and
their quasi-isometry check, component cores, the full cover pipeline -- works
inside a window and restricts its correctness claims to the margin-reduced part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import Root, scalar, sq_value
from .metric import (
    ConstructionError,
    Family,
    FiniteMetricSpace,
    InputError,
    point_key,
    r_components,
    set_diameter,
    sorted_points,
)
from .covers import (CountingStream, CoverWitness, MappedStream, verify_apc_witness,
                     witness_from_families)
from .combinators import decompose

EPSILON = ()

WINDOW_CAP = 200_000


class FreeProductWindow:
    """Finite truncation of the word space over a pointed base.

    Holds every word of order <= max_order and norm <= max_norm, the word
    metric, the base's minimal positive gap E, and an optional margin >= 0:
    all pipeline correctness assertions are restricted to words of norm at
    most max_norm - margin.  ``letter_dist`` maps each ordered pair of
    distinct base points to their distance, computed once with E; the word
    metric reads its divergence distance from it.  The words are enumerated
    in :func:`point_key` order, so the window hands its order to the space as
    its rank.  The window's space carries a :class:`WordIndex`, which answers
    diameters and R-links by walking up the trie from the words involved.
    """

    def __init__(self, base, max_order, max_norm, *, margin=None):
        if base.basepoint is None:
            raise InputError("free-product windows need a pointed base space")
        self.base = base
        self.x0 = base.basepoint
        self.max_order = int(max_order)
        self.max_norm = scalar(max_norm)
        self.margin = None if margin is None else scalar(margin)
        if self.max_order < 0 or self.max_norm < 0:
            raise InputError("window bounds must be non-negative")
        if self.margin is not None and self.margin < 0:
            raise InputError(f"the window margin must be non-negative, not {self.margin}")

        self.letter_dist = {}
        for p, q in itertools.combinations(base.points, 2):
            self.letter_dist[p, q] = self.letter_dist[q, p] = base.dist(p, q)
        gaps = self.letter_dist.values()
        if any(isinstance(g, Root) for g in gaps):
            raise InputError("free-product windows need a base with rational distances")
        self.E = min(gaps) if gaps else 1
        if gaps and self.E <= 0:
            raise InputError("base space is not discrete: zero gap between points")
        self.letter_norm = {
            x: self.letter_dist[self.x0, x] for x in base.points if x != self.x0
        }

        self._norms = self._enumerate()
        self.words = tuple(self._norms)
        self.word_set = frozenset(self.words)
        self.space = FiniteMetricSpace(
            self.words, self._dist, basepoint=EPSILON, name="*X-window",
            index=WordIndex(self),
        )
        self.space.rank = {w: i for i, w in enumerate(self.words)}  # built in key order

    def _enumerate(self):
        """Word -> norm, in :func:`point_key` order: each word is pushed once,
        by its parent, with the letters pushed in reverse key order, so the
        preorder lists a word before its extensions and those by their first
        new letter, which is how tuples compare."""
        letters = sorted(self.letter_norm.items(), key=lambda xn: point_key(xn[0]), reverse=True)
        norms = {}
        stack = [(EPSILON, 0)]
        while stack:
            w, nw = stack.pop()
            norms[w] = nw
            if len(norms) > WINDOW_CAP:
                raise InputError(f"window exceeds the {WINDOW_CAP}-word cap")
            if len(w) < self.max_order:
                stack.extend((w + (x,), nw + nx) for x, nx in letters if nw + nx <= self.max_norm)
        return norms

    def norm(self, w):
        return self._norms[w]

    def _dist(self, u, v):
        # every prefix of a window word is a window word, so the cached
        # norms resolve the common-prefix elimination in O(prefix) time
        i = 0
        n = min(len(u), len(v))
        while i < n and u[i] == v[i]:
            i += 1
        norms = self._norms
        nu, nv = norms[u], norms[v]
        if i == len(u):
            return nv - nu
        if i == len(v):
            return nu - nv
        head = self.letter_dist[u[i], v[i]]
        return head + (nu - norms[u[: i + 1]]) + (nv - norms[v[: i + 1]])

    def inner_words(self, margin):
        bound = self.max_norm - margin
        return frozenset(w for w in self.words if self.norm(w) <= bound)

    def __len__(self):
        return len(self.words)


class WordIndex:
    """Set diameters and R-links of a word window.

    Two words diverge at their longest common prefix c.  When c is one of
    them their distance is the norm of the other's tail below c; otherwise it
    is d_X(x, y) for the letters x, y after c plus the norms of the tails
    below c+x and c+y.  So each question about a set of words is answered on
    the trie of their prefixes, from the window's norms and letter table,
    with no word distance evaluated.  Each query walks up from its words,
    so an index that is never asked costs nothing.  Distances are rational
    and R may be a Root, so every test compares the distance spent with R.
    """

    def __init__(self, window):
        self.window = window

    def diameter_sq(self, S):
        """With T(c) the deepest tail of S below a trie node c, the diameter
        is the largest T(c+x) + d_X(x, y) + T(c+y) over sibling nodes, or
        T(c) when c is in S."""
        norms, ld = self.window._norms, self.window.letter_dist
        deep = {}
        for s in S:
            ns = norms[s]
            for k in range(len(s), -1, -1):
                c = s[:k]
                t = ns - norms[c]
                if c in deep and deep[c] >= t:
                    break  # a deeper tail already passed through c and above
                deep[c] = t
        best = max(deep[s] for s in S)
        kids = {}
        for c, t in deep.items():
            if c:
                kids.setdefault(c[:-1], []).append((c[-1], t))
        for ks in kids.values():
            for (x, tx), (y, ty) in itertools.combinations(ks, 2):
                d = tx + ld[x, y] + ty
                if d > best:
                    best = d
        return sq_value(best)

    def links(self, label, R):
        """Label pairs (a, b), a != b, of words each at most R >= 0 apart,
        whose transitive closure joins every two labels with words within R.

        Pass 1 walks up from each word while its tail fits in R and keeps at
        each node c+x the least tail below it and its word's label, as
        near[c][x], stopping at a node that already holds a tail no larger
        (that walk went on above with tails no larger).  Pass 2 walks up
        from each word u again: at each ancestor c, u links to near[c][y] for
        each sibling y of its letter x with tail + d_X(x, y) + that tail <= R,
        and at its first labelled ancestor it links to it if within R, and
        stops.  Links between equal labels are skipped.

        The closure is exact, by induction on len(u) + len(v) for u and v
        within R with longest common prefix c.  An ancestor a of u at or
        below c only shortens u's tail below c, so d(u, a) and d(a, v) are at
        most d(u, v): a word outside a's subtree is no nearer to u than a is,
        which is why the walk stops at a.  So if u or v has such an ancestor
        labelled, its walk links to the first, which is the other word or is
        joined to it.  Otherwise u and v diverge at c, below c+x and c+y, and
        both walks reach c.  With u* and v* the words behind near[c][x] and
        near[c][y], the steps u-v*, v*-u* and u*-v are each within R, each
        tail replaced by one no longer, and pass 2 links them at c, from u,
        u* and v; the walk of u* reaches c, as a branch's nearest word has no
        labelled ancestor inside the branch.  Neither step uses the base's
        triangle inequality.
        """
        norms, ln, ld = self.window._norms, self.window.letter_norm, self.window.letter_dist
        near = {}
        for s, a in label.items():
            ns, n = norms[s], s
            while n and (tail := ns - norms[n]) <= R:
                kids = near.setdefault(n[:-1], {})
                held = kids.get(n[-1])
                if held and held[0] <= tail:
                    break
                kids[n[-1]] = (tail, a)
                n = n[:-1]
        for s, a in label.items():
            ns, n = norms[s], s
            while n and (tail := ns - norms[n]) <= R:
                c, x = n[:-1], n[-1]
                for y, (t, b) in near[c].items():
                    if y != x and b != a and tail + ld[x, y] + t <= R:
                        yield a, b
                b = label.get(c)
                if b is not None:
                    if b != a and tail + ln[x] <= R:
                        yield a, b
                    break
                n = c


def fp_window(base, max_order, max_norm, *, margin=None):
    return FreeProductWindow(base, max_order, max_norm, margin=margin)


# ---------------------------------------------------------------------------
# cones and flat sets


def cone_window(window, A, R):
    """A concatenated with all words whose letters have norm <= R, inside the window."""
    window.space.require(A)
    R = scalar(R)
    small = [x for x, nx in window.letter_norm.items() if nx <= R]
    out = set(A)
    stack = list(A)
    while stack:
        w = stack.pop()
        for x in small:
            ext = w + (x,)
            if ext not in out and ext in window.word_set:
                out.add(ext)
                stack.append(ext)
    return frozenset(out)


def is_flat(A) -> bool:
    """True iff all words share one order and a common prefix of length order - 1.

    The one-point set {epsilon} counts as flat: it serves as the base of the
    trivial-word cone in the pipeline.
    """
    A = list(A)
    if not A:
        return False
    k = len(A[0])
    if any(len(w) != k for w in A):
        return False
    if k == 0:
        return len(A) == 1
    prefix = A[0][:-1]
    return all(w[:-1] == prefix for w in A)


# ---------------------------------------------------------------------------
# the quasi-isometry check


def qi_check(window, A, M):
    """Violations of the two quasi-isometry inequalities between con_M(A)
    and its cone tree, d/M - D/M <= d_T <= d/E + 3, checked exactly on every
    pair of the cone, as (side, u, v, d, d_T) in pair order.

    The cone tree joins a root to the flat base A and each cone word to its
    one-letter extensions.  The words of A have one order k and share their
    prefix of length k - 1, for which the root stands, so the tree is the
    cone's prefix trie and d_T(u, v) = len(u) + len(v) - 2 lcp(u, v).  D is
    the base's diameter and E the window's minimal gap; M must be positive.
    """
    A = frozenset(A)
    if not A:
        raise InputError("qi_check needs a nonempty base")
    if not is_flat(A):
        raise InputError("qi_check base must be flat")
    cone = cone_window(window, A, M)
    M = scalar(M)
    if M <= 0:
        raise InputError(f"the quasi-isometry check needs a cone scale M > 0, not {M}")
    E, D = window.E, set_diameter(window.space, A)
    violations = []
    for u, v in itertools.combinations(sorted_points(cone), 2):
        d = window.space.dist(u, v)
        lcp = next((i for i, (x, y) in enumerate(zip(u, v)) if x != y), min(len(u), len(v)))
        dT = len(u) + len(v) - 2 * lcp
        if not (Fraction(d, 1) / M - Fraction(D, 1) / M <= dT):
            violations.append(("lower", u, v, d, dT))
        if not (dT <= Fraction(d, 1) / E + 3):
            violations.append(("upper", u, v, d, dT))
    return violations


# ---------------------------------------------------------------------------
# component cores


@dataclass
class CoreReport:
    """A component's core, its prefix reach check and the core's diameter,
    which the subcover compares with its cap; see :func:`component_core`."""

    core: frozenset
    flat: bool
    artifacts: list  # boundary words where a check failed, norm beyond margin
    hard_failures: list  # failures among margin-reduced words
    core_diameter: object  # exact scalar; None when the core is not flat


def cone_radius(M, R, D):
    """max(M + R, 0) + D: the radius of the cone over a component's core that
    must hold the R-component of an M-cone over a family of mesh D."""
    return max(scalar(M) + scalar(R), 0) + scalar(D)


def component_core(window, C, M, R, D, *, margin=0):
    """Minimal-order slice of an R-component of a cone window, with checks.

    Verifies the core is flat and that C lies in the cone_radius(M, R, D)-cone
    of the core, and keeps the core's diameter.  A word w of C has order at
    least the core's order k0, and it lies in that cone iff w[:k0] is in the
    core and every later letter has norm at most the radius, since the window
    holds every prefix of its words; so each word is tested once, by its
    prefix, and no cone is walked.  Failures at words whose norm exceeds
    max_norm - margin are window artifacts; failures at inner words are hard.
    """
    C = frozenset(C)
    if not C:
        raise InputError("component_core needs a nonempty component")
    window.space.require(C)
    k0 = min(len(w) for w in C)
    core = frozenset(w for w in C if len(w) == k0)
    flat = is_flat(core)
    radius = cone_radius(M, R, D)
    inner_bound = window.max_norm - scalar(margin)

    artifacts = []
    hard = []
    if flat:
        small = {x for x, nx in window.letter_norm.items() if nx <= radius}
        failed = [w for w in C if w[:k0] not in core or not small.issuperset(w[k0:])]
        for w in sorted(failed, key=window.space.rank.__getitem__):
            if window.norm(w) > inner_bound:
                artifacts.append(w)
            else:
                hard.append(w)
    else:
        boundary = [w for w in C if window.norm(w) > inner_bound]
        if boundary:
            artifacts = sorted_points(boundary)
        else:
            hard = sorted_points(C)
    diameter = set_diameter(window.space, core) if flat else None
    return CoreReport(core, flat, artifacts, hard, diameter)


# ---------------------------------------------------------------------------
# the free-product pipeline


@dataclass
class CoverageAssignment:
    word: tuple
    family: int  # 1-based family index
    member: frozenset
    split: int | None  # position after the last heavy letter; None for the trivial case


@dataclass
class CoverageCertificate:
    R_star: object  # exact scalar
    assignments: list
    ok: bool
    problems: list


@dataclass
class VFamilies:
    families: list  # n + 1 families, the last is {{epsilon}}
    bounds: list  # member-diameter bound per family
    R_star: object  # exact scalar
    certificate: CoverageCertificate


def build_v_families(oracle_for_x, scales, window):
    """Translate a base-space witness into word-space families plus a coverage
    certificate.

    Family i collects x . (U minus the R*-ball) over window words x and
    members U of the i-th base family, where R* is the scale after the last
    base slot; the extra family is the trivial word alone.  Each word hangs
    under its prefix by its last letter, so one pass over the words ending in
    a heavy letter fills every member.  The certificate assigns every window
    word to the first base set, in witness order, holding its last heavy
    letter; its problems are the verifier's violations of the families as a
    witness (no coverage asked) and every member that is not flat.
    """
    if oracle_for_x.space.point_set != window.base.point_set:
        raise InputError("oracle is not over the window's base space")
    witness = oracle_for_x.checked(scales)
    n = len(witness.entries)
    R_star = scales.at(n + 1)

    # heavy letter -> (family, set) indices of the base sets holding it
    heavy = {x for x, nx in window.letter_norm.items() if nx > R_star}
    holders = {}
    for i, entry in enumerate(witness.entries):
        for si, U in enumerate(entry.family.sets):
            for u in heavy & U:
                holders.setdefault(u, []).append((i, si))

    members = [{} for _ in range(n)]  # per family: (prefix, set index) -> member
    for w in window.words:
        for i, si in holders.get(w[-1], ()) if w else ():
            members[i].setdefault((w[:-1], si), set()).add(w)
    members = [{k: frozenset(m) for k, m in fam.items()} for fam in members]
    families = [Family.of(set(fam.values()), window.space.rank) for fam in members]
    families.append(Family.of([{EPSILON}]))
    bounds = [entry.mesh_bound for entry in witness.entries] + [0]

    assignments = []
    for w in window.words:
        heavy_pos = [k for k, c in enumerate(w) if c in heavy]
        if not heavy_pos:
            assignments.append(CoverageAssignment(w, n + 1, frozenset({EPSILON}), None))
            continue
        mpos = heavy_pos[-1]
        i, si = holders[w[mpos]][0]
        assignments.append(CoverageAssignment(w, i + 1, members[i][(w[:mpos], si)], mpos))

    # disjointness at the family scale (R* for the trivial family n + 1)
    report = verify_apc_witness(window.space, scales,
                                witness_from_families(families, scales, bounds),
                                require_cover_of=())
    problems = [(f"V{v.entry}", v.detail) for v in report.violations]
    for i, fam in enumerate(families, start=1):
        problems += [(f"V{i}", f"member not flat: {sorted_points(member)[:3]}")
                     for member in fam.sets if not is_flat(member)]

    cert = CoverageCertificate(R_star, assignments, not problems, problems)
    return VFamilies(families, bounds, R_star, cert)


def prefix_cover(window, core, words, rt):
    """The tree cover at the integer scale rt of the cone tree over a flat
    core, cut to some words of the cone: the words grouped by annulus and
    anchor prefix, even annuli first; see :func:`family_subcover`."""
    k0, half = len(next(iter(core))), rt // 2
    sets = {}
    for v in words:
        i = (len(v) - k0 + 1) // rt
        sets.setdefault((i, v[:k0 - 1 + i * rt - half] if i else EPSILON), set()).add(v)
    return [Family.of([s for (i, _), s in sets.items() if i % 2 == parity], window.space.rank)
            for parity in (0, 1)]


def family_subcover(window, margin, M, D, R, artifacts):
    """(B, cover) for the R-components of the M-cone over a V-family whose
    members have diameter at most D.

    cover(U) covers a component U by the tree cover of its core's cone tree
    at scale rt = ceil(r/E) + 3, r = max(R, 0), cut back to U.  The cone tree
    over a core of diameter D_core at cone scale radius has d/radius -
    D_core/radius <= d_T <= d/E + 3, so tree sets more than rt apart give
    word sets more than r apart, and a tree set of diameter below 3 * rt
    gives a word set of diameter at most radius * (3 * rt) + D_core.  B is
    that bound with the core cap 2 * radius in place of D_core.  A failed
    core check at a word of norm above max_norm - margin is a window
    artifact, appended to artifacts with the component then covered by
    nothing, as is a component whose core exceeds the cap; elsewhere either
    is an error.  Cone radius, core cap and tree-cover scale are clamped at
    0: a 0-disjoint family is R-disjoint for every R < 0.

    No tree is built: :func:`prefix_cover` reads the cover off the words.
    The cone tree over a flat core of order k0 has the root at depth 0, the
    core at depth 1 and every other cone word under its prefix, so a cone
    word w has depth len(w) - k0 + 1 and its ancestor at depth h >= 1 is
    w[:k0 - 1 + h].  :func:`~apckit.trees.tree_cover` at the integer scale
    rt puts w in annulus i = depth // rt and keys its set by the ancestor of
    w at the anchor depth max(0, i * rt - rt // 2).  For i = 0 that is the
    root, shared by the whole annulus; for i >= 1 the anchor depth is at
    least rt - rt // 2 >= 2, so the anchor is the word w[:k0 - 1 + i * rt -
    rt // 2].  So the tree sets cut to U are the words of U in the cone
    grouped by annulus and anchor prefix, even annuli in the first family
    and odd ones in the second.  The root is no word, and the words of U
    outside the cone, which the core check reports, lie in no tree set.
    """
    radius = cone_radius(M, R, D)
    core_cap = 2 * radius
    rt = -(-max(R, 0) // window.E) + 3  # ceil(r/E) + 3, exactly
    B = radius * (3 * rt) + core_cap

    def cover(U):
        report = component_core(window, U, M, R, D, margin=margin)
        artifacts.extend(report.artifacts)
        if report.hard_failures:
            raise ConstructionError(
                f"component core failed inside the margin-reduced window: "
                f"{report.hard_failures[:3]}"
            )
        if report.core_diameter is None:
            # whole component is a boundary artifact; emit nothing for it
            return [Family.of([]), Family.of([])]
        if report.core_diameter > core_cap:
            inner_bound = window.max_norm - margin
            if not any(window.norm(w) > inner_bound for w in U):
                raise ConstructionError(
                    f"core of an inner component exceeds its uniform diameter cap "
                    f"({core_cap})"
                )
            artifacts.extend(U)  # free_product_cover sorts all artifacts once
            return [Family.of([]), Family.of([])]
        clipped = set(report.artifacts)
        return prefix_cover(window, report.core, (v for v in U if v not in clipped), rt)

    return B, cover


@dataclass
class FreeProductResult:
    witness: CoverWitness
    window: FreeProductWindow
    margin: object  # exact scalar
    reduced_points: frozenset
    v_families: VFamilies
    artifacts: list


def free_product_cover(oracle_for_x, scales, window):
    """End-to-end free-product cover on a window, via decompose with k = 2.

    The base oracle answers once: the V-families are built on the
    2-subsampled stream, and R*, its scale just after the base witness's last
    slot, fixes the cone scale M = max(R* + 1, 0) and, unless the window has
    one, the margin max(2R* + 1, 0): one cone layer per step.  decompose's
    i-th family is the R_i-components of the i-th V-family's M-cone, each
    re-covered by :func:`family_subcover`.  The returned witness passes
    verify_apc_witness with coverage required on the margin-reduced window;
    boundary words whose components were clipped are reported as artifacts,
    and meta["scales_consumed"] counts every scale read, the base oracle's
    included.
    """
    counting = CountingStream(scales)
    sub = MappedStream(counting, lambda i: i * 2)
    vf = build_v_families(oracle_for_x, sub, window)
    if not vf.certificate.ok:
        raise ConstructionError(f"coverage certificate failed: {vf.certificate.problems[:3]}")
    M = max(vf.R_star + 1, 0)
    margin = max(2 * vf.R_star + 1, 0) if window.margin is None else window.margin
    families = [
        Family(tuple(r_components(window.space, cone_window(window, fam.support(), M), sub.at(i))))
        for i, fam in enumerate(vf.families, start=1)
    ]
    artifacts = []
    reduced = window.inner_words(margin)

    witness = decompose(
        window.space, 2, families,
        lambda i, R: family_subcover(window, margin, M, vf.bounds[i - 1], R, artifacts),
        counting, allow_uncovered=window.word_set - reduced)
    witness.meta["scales_consumed"] = counting.max_index
    witness.meta["margin"] = margin
    witness.meta["artifacts"] = len(artifacts)
    return FreeProductResult(witness, window, margin, reduced, vf, sorted_points(set(artifacts)))


# ---------------------------------------------------------------------------
# wedges and the two-factor free product


def wedge_space(X, Y):
    """The wedge of two pointed spaces: glue the basepoints, route cross
    distances through them."""
    if X.basepoint is None or Y.basepoint is None:
        raise InputError("wedge needs pointed spaces")
    x0, y0 = X.basepoint, Y.basepoint
    points = ["*"]
    points += [("x", p) for p in X.points if p != x0]
    points += [("y", q) for q in Y.points if q != y0]
    sides = {"x": (X, x0), "y": (Y, y0)}

    def d(a, b):
        sa, p = ("x", x0) if a == "*" else a
        sb, q = ("x", x0) if b == "*" else b
        (A, a0), (B, b0) = sides[sa], sides[sb]
        if sa == sb:
            return A.dist(p, q)
        return A.dist(a0, p) + B.dist(b0, q)

    return FiniteMetricSpace(points, d, basepoint="*", name=f"({X.name})v({Y.name})")


def _alternating_words(window):
    """Window words whose letters alternate between the two wedge sides."""
    out = []
    for w in window.words:
        ok = all(w[i][0] != w[i + 1][0] for i in range(len(w) - 1))
        if ok:
            out.append(w)
    return out


@dataclass
class WedgeReport:
    ok: bool
    pairs_checked: int
    mismatches: list


def wedge_embed_check(X, Y, max_order, max_norm):
    """Exhaustive isometry check of two-factor words inside the wedge word space.

    The two-factor distance is computed independently: eliminate the common
    prefix; at the divergence pay the factor distance when both letters come
    from the same side and the sum of their norms otherwise.
    """
    W = wedge_space(X, Y)
    window = fp_window(W, max_order, max_norm)
    x0, y0 = X.basepoint, Y.basepoint

    def letter_norm(c):
        side, p = c
        return X.dist(x0, p) if side == "x" else Y.dist(y0, p)

    def letter_dist(a, b):
        if a[0] == b[0]:
            return X.dist(a[1], b[1]) if a[0] == "x" else Y.dist(a[1], b[1])
        return letter_norm(a) + letter_norm(b)

    def direct(u, v):
        i = 0
        n = min(len(u), len(v))
        while i < n and u[i] == v[i]:
            i += 1
        tu, tv = u[i:], v[i:]
        if not tu:
            return sum(map(letter_norm, tv))
        if not tv:
            return sum(map(letter_norm, tu))
        return (
            letter_dist(tu[0], tv[0])
            + sum(map(letter_norm, tu[1:]))
            + sum(map(letter_norm, tv[1:]))
        )

    words = _alternating_words(window)
    mismatches = []
    pairs = 0
    for u, v in itertools.combinations(words, 2):
        pairs += 1
        d, e = window.space.dist(u, v), direct(u, v)
        if d != e:
            mismatches.append((u, v, d, e))
    return WedgeReport(not mismatches, pairs, mismatches)
