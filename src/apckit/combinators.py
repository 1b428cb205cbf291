"""Cover-combination algorithms: product, fibering, and decomposition.

All three share the same triangular bookkeeping: the input scale stream is
rearranged into columns, per-column covers are requested from providers, and
the resulting (i, j)-indexed families are flattened back so that the family
built for column i, position j lands at exactly the slot whose scale it was
built for.  Empty slots are kept, never compacted.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

from .exact import ceil_scalar, hyp, root_of
from .metric import (
    ConstructionError,
    Family,
    InputError,
    _sample_pairs,
    family_is_R_disjoint,
    set_diameter,
    sorted_points,
)
from .covers import (
    CountingStream,
    CoverWitness,
    MappedStream,
    WitnessEntry,
)


def triangular_index(i: int, j: int) -> int:
    """Position of (i, j) in the diagonal enumeration of N+ x N+; (1,1) -> 1.

    Strictly increasing in each argument, so each column of a non-decreasing
    sequence is non-decreasing and a family placed at slot k(i, j) sits at a
    scale at least as large as the one it was built for.
    """
    if i < 1 or j < 1:
        raise InputError("triangular indices start at 1")
    d = i + j
    return (d - 1) * (d - 2) // 2 + i


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


def column_stream(scales, i):
    """The i-th column of the triangular rearrangement, as a stream."""
    return MappedStream(scales, lambda j: triangular_index(i, j))


# ---------------------------------------------------------------------------
# coarse-map predicates


@dataclass(frozen=True)
class UniformlyExpansiveMap:
    """A point map between finite spaces with a non-decreasing expansion modulus.

    The contract dist_Y(f(x), f(x')) <= rho(dist_X(x, x')) is checkable
    exhaustively; see check_uniformly_expansive.  rho must be non-decreasing
    with rho(0) >= 0: the column driver and the check's fiber-level proof
    both rely on it.  rho receives exact scalars, Roots included: the check
    passes it source distances and box gaps, which are Roots on l2 products.
    """

    source: object
    target: object
    fmap: object  # point -> point
    rho: object  # scalar -> scalar, non-decreasing

    def __call__(self, x):
        return self.fmap(x)


def identity_rho(t):
    return t


def check_uniformly_expansive(m, *, pair_budget=2_000_000, seed=0):
    """Verify the expansion contract on all pairs (or a seeded sample above budget).

    Returns (ok, witness) where witness is a violating pair, or None.

    When the source's index has ``gaps_sq``, rho(0) >= 0 and the images make
    at most pair_budget pairs, the contract is first proved for all pairs at
    once from the fibers of f: a cross pair of the fibers over a and b is at
    least sqrt(g_ab) apart, g_ab their squared box gap, so
    d_Y(a, b) <= rho(sqrt(g_ab)) bounds it by rho(d_X) when rho is
    non-decreasing, and a pair inside one fiber needs only 0 <= rho(0).  The
    proof is exact only for such a rho.  If it does not go through, or
    cannot be tried, the pairwise loop runs, so every failing verdict and its
    witness come from that loop.  A negative budget is refused.
    """
    if pair_budget < 0:
        raise InputError(f"pair budget must be >= 0, not {pair_budget}")
    pts = m.source.points
    fibers = {}
    for x in pts:
        fx = m.fmap(x)
        if fx not in m.target:
            return False, (x, fx)
        fibers.setdefault(fx, []).append(x)
    if _fibers_expand(m, fibers, pair_budget):
        return True, None
    for x, y in _sample_pairs(pts, pair_budget, seed):
        dx = m.source.dist(x, y)
        dy = m.target.dist(m.fmap(x), m.fmap(y))
        if not dy <= m.rho(dx):
            return False, (x, y)
    return True, None


def _fibers_expand(m, fibers, pair_budget):
    """True if the fibers' box gaps prove the contract of m for every pair;
    see check_uniformly_expansive."""
    gaps_sq = getattr(m.source.index, "gaps_sq", None)
    k = len(fibers)
    if gaps_sq is None or k * (k - 1) // 2 > pair_budget or not 0 <= m.rho(0):
        return False
    images = list(fibers)
    dist, rho = m.target.dist, m.rho
    return all(dist(images[i], images[j]) <= rho(root_of(g))
               for (i, j), g in gaps_sq(list(fibers.values())).items())


def check_coarsely_surjective(fmap, X, Y, R):
    """For each y in Y there must be x in X with dist(y, f(x)) < R (strict)."""
    images = [fmap(x) for x in X.points]
    Y.require(images)
    for y in Y.points:
        if not any(Y.dist(y, fy) < R for fy in images):
            return False, y
    return True, None


# ---------------------------------------------------------------------------
# the shared triangular bookkeeping


def _drive_columns(counting, provider_for, count_of, rho, oracleY):
    """The column driver behind product and fibering.

    provider_for(column stream) builds column i's provider once; count_of
    reads its family count n_i, which must be at least 1.  oracleY answers the
    stream of rho(R_{i, n_i}) monotonized by running max: providers are only
    guaranteed to honor non-decreasing streams, and raising a scale only
    strengthens every family built for it.  Returns oracleY's witness and
    the providers of its columns, in order.
    """
    providers = {}
    diag = []

    def column(i):
        if i not in providers:
            providers[i] = provider_for(column_stream(counting, i))
        return providers[i]

    def diag_at(i):
        while len(diag) < i:
            col = len(diag) + 1
            n_col = count_of(column(col))
            if n_col < 1:
                raise ConstructionError(f"column {col} provider gave no families")
            v = rho(column_stream(counting, col).at(n_col))
            diag.append(max(v, diag[-1]) if diag else v)
        return diag[i - 1]

    witnessY = oracleY.checked(SimpleNamespace(at=diag_at))
    return witnessY, [column(i) for i in range(1, len(witnessY.entries) + 1)]


def _assemble(counting, slots, n_slots, meta):
    """Witness with slots 1..n_slots from {slot: (family, bound)}, each at its
    own stream scale; empty slots are kept with bound 0, never compacted."""
    entries = []
    for t in range(1, n_slots + 1):
        fam, bound = slots[t] if t in slots else (Family.of([]), 0)
        entries.append(WitnessEntry(counting.at(t), fam, bound))
    return CoverWitness(entries, {**meta, "scales_consumed": counting.max_index})


def _check_and_merge(space, fams, k, container, bound, scale_of, where, merged,
                     exempt=frozenset()):
    """Reject provider output unless it is k families of subsets of container,
    the j-th scale_of(j)-disjoint, every set of diameter at most bound, jointly
    covering container minus exempt; then append the j-th family's sets to
    merged[j - 1].  Used per fiber by fibering and per member by decompose."""
    if len(fams) != k:
        raise ConstructionError(f"{where} returned {len(fams)} families, need {k}")
    covered = set()
    for j, fam in enumerate(fams, start=1):
        for s in fam.sets:
            if not s <= container:
                raise ConstructionError(f"{where}: a set of subfamily {j} leaves its container")
            covered |= s
            if set_diameter(space, s) > bound:
                raise ConstructionError(f"{where}: subfamily {j} exceeds the mesh bound {bound}")
        R = scale_of(j)
        ok, bad = family_is_R_disjoint(space, fam, R)
        if not ok:
            raise ConstructionError(f"{where}: subfamily {j} is not {R}-disjoint: {bad}")
    if not covered >= container - exempt:
        raise ConstructionError(
            f"{where} misses {len(container - exempt - covered)} points of its container"
        )
    for bucket, fam in zip(merged, fams):
        bucket.extend(fam.sets)


# ---------------------------------------------------------------------------
# the product combinator


def product_engine(oracleX, oracleY, scales, *, mesh_combine="l2", pair_point=None):
    """Shared engine behind product covers (l2 spaces, l1 grids, group products).

    Queries oracleX once per column, feeds the monotonized diagonal of
    end-of-column scales to oracleY, and places the product family built
    from column i position j at output slot triangular_index(i, j).
    """
    if pair_point is None:
        pair_point = lambda x, y: (x, y)
    combine = hyp if mesh_combine == "l2" else operator.add

    if not oracleX.space.points or not oracleY.space.points:
        return CoverWitness([], {"columns": 0, "per_column": []})

    counting = CountingStream(scales)
    witnessY, columns = _drive_columns(
        counting, oracleX.checked, lambda w: len(w.entries), identity_rho, oracleY)

    slots = {}
    for i, (wX, entryY) in enumerate(zip(columns, witnessY.entries), start=1):
        if entryY.is_empty():
            continue
        for j, entryX in enumerate(wX.entries, start=1):
            if entryX.is_empty():
                continue
            sets = [{pair_point(x, y) for x in U for y in V}
                    for U in entryX.family.sets for V in entryY.family.sets]
            slots[triangular_index(i, j)] = (
                Family.of(sets),
                combine(entryX.mesh_bound, entryY.mesh_bound),
            )

    return _assemble(counting, slots, max(slots, default=0),
                     {"columns": len(columns), "per_column": [len(w.entries) for w in columns]})


def product_cover(oracleX, oracleY, scales):
    """Cover of the l2 product space from covers of the factors.

    The output passes verify_apc_witness against the input stream: the family
    at slot t is R_t-disjoint because it was built for exactly that slot's
    scale, and each member's squared diameter is bounded by the sum of the
    squared factor meshes.
    """
    witness = product_engine(oracleX, oracleY, scales, mesh_combine="l2")
    witness.meta["space"] = "product"
    return witness


# ---------------------------------------------------------------------------
# the fibering combinator


@dataclass
class FiberCoverScheme:
    """Per-fiber cover provider implementing the uniform-fiber contract.

    family_count is fixed once the scale stream is fixed; bound_for_scale
    maps the fiber scale M to a mesh bound that must not depend on the fiber
    itself; cover(A, M) returns family_count families of subsets of A, the
    j-th disjoint at the j-th scale of the stream the scheme was built for.
    """

    family_count: int
    bound_for_scale: object  # M -> bound
    cover: object  # (A, M) -> list[Family]


def fiber_scheme_from_asdim(n, provider):
    """Scheme factory with k = n + 1 from a uniform per-fiber cover provider.

    provider(M, R) must return (B, cover_fn) where cover_fn(A) yields n + 1
    R-disjoint B-bounded families covering any A with diam f(A) < M, and B
    depends on (M, R) only.  The factory reads the (n+1)-st scale of its
    stream; families disjoint there are disjoint at every earlier scale.
    """

    def factory(stream):
        k = n + 1
        r_star = stream.at(k)
        memo = {}

        def entry(M):
            if M not in memo:
                memo[M] = provider(M, r_star)
            return memo[M]

        return FiberCoverScheme(
            family_count=k,
            bound_for_scale=lambda M: entry(M)[0],
            cover=lambda A, M: entry(M)[1](A),
        )

    return factory


def whole_fiber_scheme():
    """k = 1 scheme covering each fiber by itself; valid when diam A <= diam f(A).

    Useful for identity-like maps; the single family is vacuously disjoint at
    any scale.
    """

    def factory(stream):
        return FiberCoverScheme(
            family_count=1,
            bound_for_scale=lambda M: M,
            cover=lambda A, M: [Family.of([A])],
        )

    return factory


def singleton_fiber_scheme():
    """k = 1, mesh 0 scheme; valid only when every coarse fiber is a single point."""

    def factory(stream):
        def cover(A, M):
            if len(A) > 1:
                raise ConstructionError("singleton fiber scheme got a multi-point fiber")
            return [Family.of([A])]

        return FiberCoverScheme(1, lambda M: 0, cover)

    return factory


def _projection_scheme(oracle, coord, combine):
    """Scheme for a product projection from a witness of the other factor.

    The j-th family slices a fiber by coordinate coord against the sets of
    the witness's j-th entry, so it inherits that entry's disjointness; the
    mesh bound is combine(largest factor mesh, fiber scale).
    """

    def factory(stream):
        w = oracle.checked(stream)
        k = max(1, len(w.entries))
        max_mesh = max((e.mesh_bound for e in w.entries), default=0)

        def cover(A, M):
            fams = [Family.of([{p for p in A if p[coord] in U} for U in e.family.sets])
                    for e in w.entries]
            return fams + [Family.of([])] * (k - len(fams))

        return FiberCoverScheme(k, lambda M: combine(max_mesh, M), cover)

    return factory


def projection_scheme_from_oracle(oracleX):
    """Scheme for the projection of an l2 product onto its second factor.

    Families are slices (U x Y) of the fiber for U in the factor witness; the
    j-th inherits the j-th column scale's disjointness from the X coordinate,
    and mesh combines the factor mesh with the fiber scale in l2.
    """
    return _projection_scheme(oracleX, 0, hyp)


def fibering_cover(umap, oracleY, scheme_factory, scales, *, rho_budget=200_000):
    """Cover of the source of a uniformly expansive map from a cover of its target
    and uniform covers of its coarse fibers.

    Per column i the scheme fixes n_i; the target oracle answers the
    monotonized stream of rho(R_{i, n_i}); each target set's preimage is a
    coarse fiber at one more than its recorded mesh, covered by the scheme;
    unions over a target family are placed at slot triangular_index(i, j).
    Scheme output is validated per fiber and the mesh bound per (column, M)
    is recorded and audited to be fiber-independent.
    """
    X = umap.source
    if rho_budget < 1:
        raise InputError(f"rho_budget must be >= 1, not {rho_budget}")
    ok, bad = check_uniformly_expansive(umap, pair_budget=rho_budget)
    if not ok:
        raise InputError(f"expansion modulus violated at {bad!r}")
    if not X.points:
        return CoverWitness([], {"columns": 0, "per_column": [], "bounds": []})

    counting = CountingStream(scales)
    witnessY, schemes = _drive_columns(
        counting, scheme_factory, lambda sch: sch.family_count, umap.rho, oracleY)

    preimage = {}
    for x in X.points:
        preimage.setdefault(umap.fmap(x), []).append(x)

    slots = {}
    audit = []
    for i, (scheme, entryY) in enumerate(zip(schemes, witnessY.entries), start=1):
        if entryY.is_empty():
            continue
        k = scheme.family_count
        M_i = ceil_scalar(entryY.mesh_bound) + 1
        B_i = scheme.bound_for_scale(M_i)
        col = column_stream(counting, i)
        merged = [[] for _ in range(k)]
        n_fibers = 0
        for V in entryY.family.sets:
            A = frozenset(p for y in V for p in preimage.get(y, ()))
            if not A:
                continue
            n_fibers += 1
            _check_and_merge(X, scheme.cover(A, M_i), k, A, B_i, col.at,
                             f"fiber scheme (column {i})", merged)
        audit.append({"column": i, "M": M_i, "B": B_i, "fibers": n_fibers})
        for j, sets in enumerate(merged, start=1):
            if sets:
                slots[triangular_index(i, j)] = (Family.of(sets), B_i)

    return _assemble(counting, slots, max(slots, default=0),
                     {"columns": len(schemes),
                      "per_column": [sch.family_count for sch in schemes], "bounds": audit})


# ---------------------------------------------------------------------------
# the decomposition combinator


def decompose(space, k, hyp_oracle, scales, *, allow_uncovered=frozenset()):
    """Cover from families whose members each split into k bounded disjoint families.

    hyp_oracle.families(stream) returns the list of (scale, family) pairs, the
    i-th disjoint at the i-th scale of the k-subsampled stream (R_k, R_2k, ...);
    hyp_oracle.subcover(i, U, R) returns (B, k families of subsets of U
    covering U, each R-disjoint with mesh <= B) where B may depend on (i, R)
    but never on U -- violations abort.  The j-th subfamily of the i-th input
    family lands at slot (i-1)k + j, which is disjoint at its own slot scale
    because (i-1)k + j <= ik.

    Points in allow_uncovered are exempt from the coverage checks; windowed
    constructions use this for their margin region.
    """
    if k < 1:
        raise InputError("decompose needs k >= 1")
    allow_uncovered = frozenset(allow_uncovered)
    counting = CountingStream(scales)
    sub = MappedStream(counting, lambda i: i * k)
    fam_list = hyp_oracle.families(sub)
    n = len(fam_list)

    covered = set()
    for i, (scale_i, fam) in enumerate(fam_list, start=1):
        R_i = sub.at(i)
        if scale_i != R_i:
            raise ConstructionError(
                f"hypothesis family {i} declared scale {scale_i}, stream says {R_i}"
            )
        ok, bad = family_is_R_disjoint(space, fam, R_i)
        if not ok:
            raise ConstructionError(f"hypothesis family {i} is not {R_i}-disjoint: {bad}")
        covered |= fam.support()
    if not covered >= space.point_set - allow_uncovered:
        missing = sorted_points(space.point_set - allow_uncovered - covered)[:5]
        raise ConstructionError(f"hypothesis families do not cover the space: {missing}")

    b_values = []
    slots = {}
    for i, (_, fam) in enumerate(fam_list, start=1):
        R_i = sub.at(i)
        B_i = None
        merged = [[] for _ in range(k)]
        for U in fam.sets:
            B_u, subfams = hyp_oracle.subcover(i, U, R_i)
            if B_i is None:
                B_i = B_u
            elif B_u != B_i:
                raise ConstructionError(
                    f"subcover bound varies with the member set in family {i}: "
                    f"{B_u} != {B_i}"
                )
            _check_and_merge(space, subfams, k, U, B_u, lambda j: R_i,
                             f"subcover of a member of family {i}", merged,
                             allow_uncovered)
        if B_i is None:
            B_i = 0
        b_values.append(B_i)
        for j, sets in enumerate(merged, start=1):
            t = (i - 1) * k + j
            slots[t] = (Family.of(sets), B_i)

    return _assemble(counting, slots, n * k, {"n": n, "k": k, "bounds": b_values})
