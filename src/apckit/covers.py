"""Cover witnesses, the verification engine, minimal-cover solvers, and built-in oracles.

A CoverWitness is the object every construction produces: an ordered list of
slots, the i-th holding a family that must be R_i-disjoint for the i-th scale
of the stream it is verified against, with every member set's diameter below
the slot's recorded mesh bound and the union of all slots covering the space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import root_of, sq_value, to_fraction
from .metric import (
    ConstructionError,
    Family,
    InputError,
    family_is_R_disjoint,
    grid_window,
    interval_window,
    point_key,
    r_components,
    set_diameter,
    set_diameter_sq,
    sorted_points,
)

EXTENSION_RULES = ("repeat-last", "arithmetic", "geometric")


class ScaleSequence:
    """Non-decreasing unbounded scale stream: explicit prefix plus extension rule.

    Element access is 1-based (`at(1)` is the first scale) to match the usual
    R_1, R_2, ... indexing of cover constructions.
    """

    def __init__(self, prefix, extend="repeat-last", param=None):
        prefix = tuple(to_fraction(x) for x in prefix)
        if not prefix:
            raise InputError("scale sequence needs a non-empty prefix")
        if any(b < a for a, b in zip(prefix, prefix[1:])):
            raise InputError("scale prefix must be non-decreasing")
        if extend not in EXTENSION_RULES:
            raise InputError(f"unknown extension rule {extend!r}")
        if extend == "arithmetic":
            param = to_fraction(0 if param is None else param)
            if param < 0:
                raise InputError("arithmetic step must be >= 0")
        elif extend == "geometric":
            param = to_fraction(1 if param is None else param)
            if param < 1 or prefix[-1] < 0:
                raise InputError("geometric factor must be >= 1 on a non-negative tail")
        else:
            param = None
        self.prefix = prefix
        self.extend = extend
        self.param = param

    def at(self, i: int) -> Fraction:
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
            return last + self.param * k
        return last * self.param**k

    def describe(self):
        tail = {"repeat-last": "", "arithmetic": f" +{self.param}", "geometric": f" *{self.param}"}
        return f"({', '.join(str(x) for x in self.prefix)}, ...{tail[self.extend]})"


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
    required_scale: Fraction
    family: Family
    mesh_bound: object  # exact scalar

    def is_empty(self):
        return len(self.family) == 0


@dataclass
class CoverWitness:
    entries: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)

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
        for s in fam.sets:
            space.require(s)
            covered |= s
        diam_sqs = [set_diameter_sq(space, s) for s in fam.sets]
        bound = entry.mesh_bound
        bound_sq = sq_value(bound) if bound >= 0 else None
        for s, dsq in zip(fam.sets, diam_sqs):
            if bound_sq is None or dsq > bound_sq:
                entry_ok = False
                violations.append(
                    CoverViolation(
                        "mesh", slot, (min(s, key=point_key),),
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


class _FamilyState:
    """Incremental R-component tracking for one family during search."""

    __slots__ = ("comps",)

    def __init__(self):
        self.comps = []  # list of lists of point indices

    def try_add(self, p, le_R, le_B):
        """Return an undo token if p can join, else None."""
        touching = []
        rest = []
        for comp in self.comps:
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
        self.comps = rest + [merged]
        return (len(rest), touching)

    def undo(self, token, p):
        n_rest, touching = token
        self.comps = self.comps[:n_rest] + touching


@dataclass
class NegativeCertificate:
    """Replayable record that exhaustive search found no witness at n families."""

    n: int
    R: Fraction
    B: object
    nodes: int
    point_count: int

    def replay(self, space, points=None):
        pts = list(points) if points is not None else list(space.points)
        got = _decide(space, pts, self.R, self.B, self.n)
        return got is None


@dataclass
class SolveResult:
    n: int
    families: list  # list of Family
    mesh: object  # max actual diameter across all sets
    certificate: NegativeCertificate | None
    nodes: int


def _pair_tables(space, pts, R, B):
    n = len(pts)
    le_R = [[False] * n for _ in range(n)]
    le_B = [[True] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d = space.dist(pts[i], pts[j])
        le_R[i][j] = le_R[j][i] = d <= R
        ok = d <= B
        le_B[i][j] = le_B[j][i] = ok
    return le_R, le_B


def _decide(space, pts, R, B, n_families, count_nodes=None):
    """Exhaustive branch-and-bound: partition pts into <= n_families valid families.

    Points are assigned in a fixed order; symmetry is broken by allowing a
    point to open at most the first unused family.  Returns the assignment
    list or None.
    """
    if not pts:
        return []
    if n_families <= 0:
        return None
    le_R, le_B = _pair_tables(space, pts, R, B)
    order = sorted(range(len(pts)), key=lambda i: -sum(le_R[i]))
    states = [_FamilyState() for _ in range(n_families)]
    assignment = [-1] * len(pts)
    nodes = 0

    def dfs(pos, used):
        nonlocal nodes
        if pos == len(order):
            return True
        p = order[pos]
        nodes += 1
        limit = min(used + 1, n_families)
        for f in range(limit):
            token = states[f].try_add(p, le_R, le_B)
            if token is None:
                continue
            assignment[p] = f
            if dfs(pos + 1, max(used, f + 1)):
                return True
            states[f].undo(token, p)
            assignment[p] = -1
        return False

    found = dfs(0, 0)
    if count_nodes is not None:
        count_nodes.append(nodes)
    return assignment[:] if found else None


def _families_from_assignment(space, pts, assignment, R):
    groups = {}
    for p, f in zip(pts, assignment):
        groups.setdefault(f, []).append(p)
    fams = []
    for f in sorted(groups):
        comps = r_components(space, groups[f], R)
        fams.append(Family.of(comps))
    return fams


def min_families_at_scale(space, R, B, *, cap=DEFAULT_EXACT_CAP):
    """Exactly minimal number of R-disjoint, B-bounded families covering the space.

    The returned n comes with a witnessing cover and a replayable negative
    certificate: exhaustive search proves no witness exists at n - 1.
    Refuses spaces above the point cap; use the greedy solver there.
    """
    R = to_fraction(R)
    pts = sorted_points(space.points)
    if len(pts) > cap:
        raise InputError(
            f"exact solver cap is {cap} points (space has {len(pts)}); "
            "use greedy_families_at_scale for larger spaces"
        )
    if not pts:
        return SolveResult(0, [], 0, None, 0)
    total_nodes = 0
    for n in range(1, len(pts) + 1):
        counter = []
        got = _decide(space, pts, R, B, n, count_nodes=counter)
        total_nodes += counter[0]
        if got is not None:
            fams = _families_from_assignment(space, pts, got, R)
            actual = max((set_diameter(space, s) for f in fams for s in f.sets), default=0)
            cert = None
            if n > 1:
                cert_counter = []
                again = _decide(space, pts, R, B, n - 1, count_nodes=cert_counter)
                assert again is None
                cert = NegativeCertificate(n - 1, R, B, cert_counter[0], len(pts))
            else:
                cert = NegativeCertificate(0, R, B, 0, len(pts))
            return SolveResult(n, fams, actual, cert, total_nodes)
    raise AssertionError("singleton families always succeed")  # pragma: no cover


def greedy_families_at_scale(space, R, B):
    """Heuristic upper bound: first-fit assignment under the same validity predicate."""
    R = to_fraction(R)
    pts = sorted_points(space.points)
    if not pts:
        return SolveResult(0, [], 0, None, 0)
    index = {p: i for i, p in enumerate(pts)}
    le_R, le_B = _pair_tables(space, pts, R, B)
    states = []
    assignment = [-1] * len(pts)
    order = sorted(range(len(pts)), key=lambda i: -sum(le_R[i]))
    for p in order:
        for f, st in enumerate(states):
            token = st.try_add(p, le_R, le_B)
            if token is not None:
                assignment[p] = f
                break
        else:
            st = _FamilyState()
            st.try_add(p, le_R, le_B)
            states.append(st)
            assignment[p] = len(states) - 1
    fams = _families_from_assignment(space, pts, assignment, R)
    actual = max((set_diameter(space, s) for f in fams for s in f.sets), default=0)
    return SolveResult(len(fams), fams, actual, None, 0)


def minimal_feasible_mesh(space, k, R, *, cap=DEFAULT_EXACT_CAP):
    """Smallest B such that k families of R-disjoint B-bounded sets cover the space.

    Feasibility only changes at realized pairwise distances, so those are the
    only candidates scanned.
    """
    R = to_fraction(R)
    pts = sorted_points(space.points)
    if len(pts) > cap:
        raise InputError(f"exact solver cap is {cap} points (space has {len(pts)})")
    candidates = {0}
    for p, q in itertools.combinations(pts, 2):
        candidates.add(space.dist(p, q))
    for B in sorted(candidates, key=lambda b: (sq_value(b), str(b))):
        got = _decide(space, pts, R, B, k)
        if got is not None:
            fams = _families_from_assignment(space, pts, got, R)
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


def _relabel_to_tuples(oracle, space, name):
    """Oracle on space answering with oracle's checked witnesses, every point
    p renamed (p,): a cover of a 1-D window as a cover of its 1-tuples."""

    def provide(scales):
        w = oracle.checked(scales)
        entries = [
            WitnessEntry(e.required_scale,
                         Family.of([{(p,) for p in s} for s in e.family.sets], e.family.label),
                         e.mesh_bound)
            for e in w.entries
        ]
        return CoverWitness(entries, dict(w.meta))

    return ApcOracle(space, provide, name=name)


def _interval_blocks(coords, length):
    """Partition sorted integer coordinates into consecutive blocks of the given span."""
    lo = coords[0]
    blocks = {}
    for c in coords:
        blocks.setdefault((c - lo) // length, []).append(c)
    return [blocks[k] for k in sorted(blocks)]


def interval_oracle(space):
    """Two families of consecutive blocks for an integer interval window.

    At scale R the blocks have ceil(R) points, so same-parity blocks are
    separated by more than R.
    """
    coords = sorted(space.points)
    if any(not isinstance(c, int) for c in coords):
        raise InputError("interval_oracle needs integer points")
    if coords != list(range(coords[0], coords[-1] + 1)):
        raise InputError("interval_oracle needs a contiguous integer window")

    def provide(scales):
        R2 = scales.at(2)
        length = max(1, math.ceil(R2))
        blocks = _interval_blocks(coords, length)
        if len(blocks) == 1:
            fam = Family.of([blocks[0]])
            return witness_from_families([fam], scales, [length - 1])
        even = Family.of(blocks[0::2])
        odd = Family.of(blocks[1::2])
        return witness_from_families([even, odd], scales, [length - 1, length - 1])

    return ApcOracle(space, provide, name=f"interval({space.name})")


def exact_oracle(space, *, cap=DEFAULT_EXACT_CAP):
    """Oracle backed by the exact solver at mesh bound 0 (singleton sets).

    Solving at the n-th scale where n is the resulting family count makes all
    emitted families disjoint at a scale at least as large as every slot they
    occupy, so the witness verifies against any monotone stream.
    """

    def provide(scales):
        n = 1
        while True:
            R = scales.at(n)
            res = min_families_at_scale(space, R, 0, cap=cap)
            if res.n <= n:
                return witness_from_families(res.families, scales, [0] * res.n)
            n = res.n

    return ApcOracle(space, provide, name=f"exact({space.name})")


def _singleton_families_witness(space, scales):
    pts = sorted_points(space.points)
    fams = [Family.of([{p}]) for p in pts]
    return witness_from_families(fams, scales, [0] * len(fams))


def greedy_oracle(space, *, B=0):
    """Oracle backed by the greedy solver; falls back to one-singleton-per-slot."""

    def provide(scales):
        n = 1
        for _ in range(len(space.points) + 1):
            R = scales.at(n)
            res = greedy_families_at_scale(space, R, B)
            if res.n <= n:
                bounds = [max((set_diameter(space, s) for s in f.sets), default=0)
                          for f in res.families]
                return witness_from_families(res.families, scales, bounds)
            n = res.n
        return _singleton_families_witness(space, scales)

    return ApcOracle(space, provide, name=f"greedy({space.name})")


def grid_oracle(space, shape):
    """Product of interval oracles, one per grid dimension, over the l1 window.

    Reuses the product combinator with l1 mesh combination and relabels the
    nested pair points back to flat grid tuples.
    """
    from .combinators import product_engine

    shape = tuple(int(s) for s in shape)
    if len(shape) < 1:
        raise InputError("grid shape must have at least one dimension")
    axes = [interval_oracle(interval_window(0, s - 1)) for s in shape]

    if len(axes) == 1:
        return _relabel_to_tuples(axes[0], space, f"grid{shape}")

    def provide(scales):
        oracle = axes[0]
        flat_arity = 1
        for nxt in axes[1:]:
            oracle = _pair_product_oracle(oracle, nxt, flat_arity)
            flat_arity += 1
        return oracle.provide(scales)

    def _pair_product_oracle(oX, oY, arity):
        def pair_point(x, y):
            if arity == 1:
                return (x, y)
            return x + (y,)

        def provide_pair(scales):
            return product_engine(oX, oY, scales, mesh_combine="l1", pair_point=pair_point)

        return ApcOracle(grid_window(shape[:arity + 1]), provide_pair, name="grid-partial")

    return ApcOracle(space, provide, name=f"grid{shape}")
