"""Cover witnesses, the verification engine, minimal-cover solvers, and built-in oracles.

A CoverWitness is the object every construction produces: an ordered list of
slots, the i-th holding a family that must be R_i-disjoint for the i-th scale
of the stream it is verified against, with every member set's diameter below
the slot's recorded mesh bound and the union of all slots covering the space.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from .exact import root_of, scalar, sq_value
from .metric import (
    ConstructionError,
    Family,
    InputError,
    family_is_R_disjoint,
    grid_window,
    interval_window,
    set_diameter,
    set_diameter_sq,
    sorted_points,
)

EXTENSION_RULES = ("repeat-last", "arithmetic", "geometric")


class ScaleSequence:
    """Non-decreasing unbounded scale stream: explicit prefix plus extension rule.

    Element access is 1-based (`at(1)` is the first scale) to match the usual
    R_1, R_2, ... indexing of cover constructions.  Every scale is in the
    normal form of :func:`~apckit.exact.scalar`.
    """

    def __init__(self, prefix, extend="repeat-last", param=None):
        prefix = tuple(scalar(x) for x in prefix)
        if not prefix:
            raise InputError("scale sequence needs a non-empty prefix")
        if any(b < a for a, b in zip(prefix, prefix[1:])):
            raise InputError("scale prefix must be non-decreasing")
        if extend not in EXTENSION_RULES:
            raise InputError(f"unknown extension rule {extend!r}")
        if extend == "arithmetic":
            param = scalar(0 if param is None else param)
            if param < 0:
                raise InputError("arithmetic step must be >= 0")
        elif extend == "geometric":
            param = scalar(1 if param is None else param)
            if param < 1 or prefix[-1] < 0:
                raise InputError("geometric factor must be >= 1 on a non-negative tail")
        else:
            param = None
        self.prefix = prefix
        self.extend = extend
        self.param = param

    def at(self, i: int):
        if i < 1:
            raise InputError("scale index must be >= 1")
        n = len(self.prefix)
        if i <= n:
            return self.prefix[i - 1]
        last = self.prefix[-1]
        k = i - n
        if self.extend == "repeat-last":
            return last
        if self.extend == "arithmetic":
            return scalar(last + self.param * k)
        return scalar(last * self.param**k)


class MappedStream:
    """Reindexed view of a stream: at(i) = base.at(index_map(i))."""

    def __init__(self, base, index_map):
        self.base = base
        self.index_map = index_map

    def at(self, i):
        return self.base.at(self.index_map(i))


class CountingStream:
    """Wrapper recording the largest index pulled; used to log finite consumption."""

    def __init__(self, base):
        self.base = base
        self.max_index = 0

    def at(self, i):
        if i > self.max_index:
            self.max_index = i
        return self.base.at(i)


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class WitnessEntry:
    required_scale: object  # exact scalar
    family: Family
    mesh_bound: object  # exact scalar

    def is_empty(self):
        return len(self.family) == 0


@dataclass
class CoverWitness:
    entries: list
    meta: dict = field(default_factory=dict)

    def nonempty_slots(self):
        return [i for i, e in enumerate(self.entries, start=1) if not e.is_empty()]

    def all_sets(self):
        for e in self.entries:
            yield from e.family.sets

    def support(self):
        out = set()
        for s in self.all_sets():
            out |= s
        return out


def witness_from_families(families, scales, mesh_bounds):
    """Assemble a witness placing the i-th family at slot i."""
    entries = []
    for i, fam in enumerate(families, start=1):
        entries.append(WitnessEntry(scales.at(i), fam, mesh_bounds[i - 1]))
    return CoverWitness(entries)


@dataclass(frozen=True)
class CoverViolation:
    condition: str  # "coverage" | "disjointness" | "mesh"
    entry: int | None
    points: tuple
    detail: str

    def describe(self):
        where = f"slot {self.entry}" if self.entry is not None else "witness"
        return f"{self.condition} violation at {where}: {self.detail}"


@dataclass
class CoverReport:
    ok: bool
    violations: list
    per_entry: list
    stats: dict

    def describe(self):
        if self.ok:
            return f"pass ({self.stats})"
        return "\n".join(v.describe() for v in self.violations[:20])


def verify_apc_witness(space, scales, witness, *, require_cover_of=None):
    """Decision procedure for witness validity against a scale stream.

    Checks (a) the union of all families covers the space (or the given
    subset), (b) the family at slot i is scales.at(i)-disjoint, (c) every
    member's diameter is at most its slot's recorded mesh bound.  Unknown
    point ids raise InputError; everything else is reported, with a witnessing
    point or pair per violation.
    """
    target = space.point_set if require_cover_of is None else frozenset(require_cover_of)
    space.require(target)
    violations = []
    per_entry = []
    covered = set()
    for slot, entry in enumerate(witness.entries, start=1):
        entry_ok = True
        fam = entry.family
        covered.update(*fam.sets)
        diam_sqs = [set_diameter_sq(space, s) for s in fam.sets]
        bound = entry.mesh_bound
        bound_sq = sq_value(bound) if bound >= 0 else None
        for s, dsq in zip(fam.sets, diam_sqs):
            if bound_sq is None or dsq > bound_sq:
                entry_ok = False
                violations.append(
                    CoverViolation(
                        "mesh", slot, (min(s, key=space.rank.__getitem__),),
                        f"member diameter {root_of(dsq)} exceeds bound {bound}",
                    )
                )
        R = scales.at(slot)
        ok, bad = family_is_R_disjoint(space, fam, R, diam_sqs=diam_sqs)
        if not ok:
            i, j, p, q, d = bad
            entry_ok = False
            violations.append(
                CoverViolation(
                    "disjointness", slot, (p, q),
                    f"sets {i} and {j} have points at distance {d} <= {R}",
                )
            )
        per_entry.append("ok" if entry_ok else "violated")
    missing = target - covered
    if missing:
        sample = sorted_points(missing)[:5]
        violations.append(
            CoverViolation("coverage", None, tuple(sample), f"{len(missing)} points uncovered")
        )
    stats = {
        "entries": len(witness.entries),
        "nonempty": len(witness.nonempty_slots()),
        "points": len(target),
    }
    return CoverReport(not violations, violations, per_entry, stats)


# ---------------------------------------------------------------------------
# exact and greedy minimal-cover solvers
#
# A family of R-disjoint sets with mesh <= B covering a subset F of the space
# can always be normalized so that its sets are exactly the R-components of
# F: components must stay within one set (chains of steps <= R cannot cross
# sets that are pairwise > R apart), and splitting a set into its components
# preserves disjointness and mesh.  So "F is a valid family" reduces to:
# every R-component of F has diameter <= B.  The solvers search over
# assignments of points to families under that predicate.

DEFAULT_EXACT_CAP = 16


def _join(comps, p, near, within):
    """The R-components of a family after p joins it, or None when the
    component p lands in would exceed the mesh bound.  A component is a mask
    pair ``(members, common)``, common being the AND of its members' ``within``."""
    members, common = 1 << p, within[p]
    rest = []
    for comp in comps:
        if near[p] & comp[0]:
            members |= comp[0]
            common &= comp[1]
        else:
            rest.append(comp)
    if members & ~common:
        return None
    return rest + [(members, common)]


class SolverTable:
    """The exact solver's input, prepared once and refused above the point cap: a
    point set in canonical order and its distances, d(pts[i], pts[j]) at dist[i][j - i - 1]."""

    def __init__(self, space, points, cap=None):
        self.pts = sorted_points(points)
        if cap is not None and len(self.pts) > cap:
            raise InputError(f"{len(self.pts)} points exceed the exact solver cap of {cap}")
        self.dist = [[space.dist(p, q) for q in self.pts[i + 1:]] for i, p in enumerate(self.pts)]

    def search(self, R, B, k):
        """Exhaustive branch-and-bound: split the points into at most k valid families.

        Points are placed in order of decreasing R-degree, each trying the
        families in turn; a point may open at most the first unused family,
        which breaks the symmetry between families.  The search is iterative,
        so its depth is not bounded by the interpreter's recursion limit.
        Returns ``(families, nodes)``: the families are None when no split
        exists, and nodes counts the points branched on.  No set has a
        negative diameter, so B < 0 is refused.
        """
        if B < 0:
            raise InputError(f"mesh bound must be >= 0, not {B}")
        n = len(self.pts)
        if n == 0:
            return [], 0
        if k <= 0:
            return None, 0
        k = min(k, n)  # each point opens at most one family
        near = [0] * n  # the other points within R of each point
        within = [1 << i for i in range(n)]  # the points within B of each point, itself included
        for i, row in enumerate(self.dist):
            for j, d in enumerate(row, i + 1):
                if d <= R:
                    near[i] |= 1 << j
                    near[j] |= 1 << i
                if d <= B:
                    within[i] |= 1 << j
                    within[j] |= 1 << i
        order = sorted(range(n), key=lambda i: -near[i].bit_count())
        comps = [[] for _ in range(k)]  # R-components of each family
        tried = [-1] * n  # the family holding the point placed at each depth
        saved = [None] * n  # that family's components before the point joined
        used = [0] * (n + 1)  # families opened above each depth
        depth, nodes = 0, 1
        while 0 <= depth < n:
            p = order[depth]
            for f in range(tried[depth] + 1, min(used[depth] + 1, k)):
                joined = _join(comps[f], p, near, within)
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
        return [Family.of([[p for i, p in enumerate(self.pts) if members >> i & 1]
                           for members, _ in fam]) for fam in comps if fam], nodes


@dataclass
class NegativeCertificate:
    """Replayable record that exhaustive search found no witness at n families."""

    n: int
    R: object  # exact scalar
    B: object
    nodes: int

    def replay(self, space):
        return SolverTable(space, space.points).search(self.R, self.B, self.n)[0] is None


@dataclass
class SolveResult:
    n: int
    families: list  # list of Family
    mesh: object  # max actual diameter across all sets
    certificate: NegativeCertificate | None
    nodes: int


def _solved(space, fams, certificate, nodes):
    actual = max((set_diameter(space, s) for f in fams for s in f.sets), default=0)
    return SolveResult(len(fams), fams, actual, certificate, nodes)


def min_families_at_scale(space, R, B, *, cap=DEFAULT_EXACT_CAP):
    """Exactly minimal number of R-disjoint, B-bounded families covering the space.

    The returned n comes with a witnessing cover and a replayable negative
    certificate: exhaustive search proves no witness exists at n - 1, and the
    certificate's nodes are those of that failed pass.
    Refuses spaces above the point cap; use the greedy solver there.
    """
    R, B = scalar(R), scalar(B)
    table = SolverTable(space, space.points, cap)
    total_nodes = failed_nodes = 0
    for k in itertools.count():
        fams, nodes = table.search(R, B, k)
        total_nodes += nodes
        if fams is not None:
            cert = NegativeCertificate(k - 1, R, B, failed_nodes) if k else None
            return _solved(space, fams, cert, total_nodes)
        failed_nodes = nodes


def greedy_families_at_scale(space, R, B):
    """Heuristic upper bound: the search's first branch with one family per point.

    A free family is then always open, so the search never backtracks and
    each point joins the first family it can (first fit).
    """
    table = SolverTable(space, space.points)
    fams, _ = table.search(scalar(R), scalar(B), len(table.pts))
    return _solved(space, fams, None, 0)


def minimal_feasible_mesh(space, k, R, *, cap=DEFAULT_EXACT_CAP):
    """Smallest B such that k families of R-disjoint B-bounded sets cover the space.

    Feasibility only changes at realized pairwise distances, so those are the
    only candidates scanned.
    """
    if k < 1:
        raise InputError(f"a cover needs at least one family, not k = {k}")
    R = scalar(R)
    table = SolverTable(space, space.points, cap)
    for B in sorted({0}.union(*table.dist), key=lambda b: (sq_value(b), str(b))):
        fams, _ = table.search(R, B, k)
        if fams is not None:
            return B, fams
    raise AssertionError("B = diameter is always feasible")  # pragma: no cover


# ---------------------------------------------------------------------------
# built-in oracles


class ApcOracle:
    """A cover provider: called with a scale stream, returns a verified-valid witness."""

    def __init__(self, space, provide, name=""):
        self.space = space
        self.provide = provide
        self.name = name or "oracle"

    def __call__(self, scales):
        return self.provide(scales)

    def checked(self, scales):
        w = self.provide(scales)
        report = verify_apc_witness(self.space, scales, w)
        if not report.ok:
            raise ConstructionError(
                f"oracle {self.name!r} returned an invalid witness:\n{report.describe()}"
            )
        return w

    def __repr__(self):
        return f"ApcOracle({self.name})"


@dataclass
class IntervalKernelSource:
    """The integer-block cover of a set lying along an integer coordinate.

    coordinate maps an element to its integer position; step is the exact
    distance between consecutive positions.  At scale R the blocks
    coordinate // ceil(R/step), taken in block order, alternate between an
    even and an odd family; blocks two apart have a full block between them,
    so each family is more than R apart.  A cover has n + 1 = 2 families,
    the count ``hom_fiber_scheme`` reads off a kernel source.
    """

    coordinate: object  # elem -> int
    step: object = 1

    n = 1

    def cover(self, elems, R):
        step, R = scalar(self.step), scalar(R)
        length = max(1, -(-R // step))  # ceil(R / step), exactly
        blocks = {}
        for g in elems:
            blocks.setdefault(self.coordinate(g) // length, []).append(g)
        ordered = [blocks[k] for k in sorted(blocks)]
        return step * (length - 1), [Family.of(ordered[0::2]), Family.of(ordered[1::2])]


def _scale_oracle(space, cover, n, name):
    """Oracle covering with ``cover(R)``, which returns ``(mesh bound, families)``.

    It covers at the n-th scale and drops the empty families; while the
    nonempty count exceeds the index of the scale it covered at, it covers
    again at the scale of that count.  Every emitted family is then disjoint
    at a scale at least as large as every slot it occupies, so the witness
    verifies against any monotone stream.  The loop ends: the index strictly
    increases while it runs, and no cover has more nonempty families than
    the space has points.
    """

    def provide(scales):
        k = n
        while True:
            bound, fams = cover(scales.at(k))
            fams = [f for f in fams if len(f)]
            if len(fams) <= k:
                return witness_from_families(fams, scales, [bound] * len(fams))
            k = len(fams)

    return ApcOracle(space, provide, name=name)


def interval_oracle(space):
    """Two families of consecutive blocks for an integer interval window.

    The points are consecutive ints, or 1-tuples of them (a Z^1 Cayley
    window, a 1-D grid).  At the second scale R the blocks have ceil(R)
    points, so same-parity blocks are separated by more than R.
    """
    pts = space.points
    tuples = all(isinstance(p, tuple) and len(p) == 1 for p in pts)
    coord = (lambda p: p[0]) if tuples else (lambda p: p)
    coords = [coord(p) for p in pts]
    if any(not isinstance(c, int) for c in coords):
        raise InputError("interval_oracle needs integer points or 1-tuples of them")
    if not coords or max(coords) - min(coords) + 1 != len(coords):
        raise InputError("interval_oracle needs a contiguous integer window")
    lo = min(coords)
    source = IntervalKernelSource(lambda p: coord(p) - lo)
    return _scale_oracle(space, functools.partial(source.cover, pts), 2, f"interval({space.name})")


def exact_oracle(space, *, cap=DEFAULT_EXACT_CAP):
    """Oracle backed by the exact solver at mesh bound 0 (singleton sets)."""
    return _scale_oracle(space, lambda R: (0, min_families_at_scale(space, R, 0, cap=cap).families),
                         1, f"exact({space.name})")


def greedy_oracle(space):
    """Oracle backed by the greedy solver at mesh bound 0 (singleton sets)."""
    return _scale_oracle(space, lambda R: (0, greedy_families_at_scale(space, R, 0).families),
                         1, f"greedy({space.name})")


def grid_oracle(space, shape):
    """Product of interval oracles, one per grid dimension, over the l1 window.

    Each axis after the first joins by the product combinator with l1 mesh
    combination, appending its coordinate to the grid tuple.
    """
    from .combinators import product_engine

    shape = tuple(int(s) for s in shape)
    if len(shape) < 1:
        raise InputError("grid shape must have at least one dimension")
    oracle = interval_oracle(grid_window(shape[:1]))
    for d in range(1, len(shape)):
        axis = interval_oracle(interval_window(0, shape[d] - 1))
        provide = functools.partial(product_engine, oracle, axis, combine=operator.add,
                                    pair_point=lambda x, y: x + (y,))
        oracle = ApcOracle(grid_window(shape[:d + 1]), provide, name="grid-partial")
    return ApcOracle(space, oracle.provide, name=f"grid{shape}")
