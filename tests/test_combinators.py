import itertools
import operator
import random
from fractions import Fraction

import pytest

from apckit.combinators import (
    FiberCoverScheme,
    UniformlyExpansiveMap,
    check_uniformly_expansive,
    column_stream,
    decompose,
    fiber_scheme_from_asdim,
    fibering_cover,
    identity_rho,
    product_cover,
    product_engine,
    projection_scheme_from_oracle,
    triangular_index,
)
from apckit.covers import (
    ApcOracle,
    ScaleSequence,
    exact_oracle,
    grid_oracle,
    interval_oracle,
    verify_apc_witness,
    witness_from_families,
)
from apckit.exact import sq_value
from apckit.metric import (
    ConstructionError,
    Family,
    FiniteMetricSpace,
    InputError,
    family_is_R_disjoint,
    grid_window,
    interval_window,
    path_space,
    product_space,
    set_diameter,
)
from reference import (check_coarsely_surjective, singleton_fiber_scheme, triangular_inverse,
                       whole_fiber_scheme)


def scales(*prefix, **kw):
    return ScaleSequence(prefix, **kw)


class TestTriangularIndexer:
    def test_first_values(self):
        assert triangular_index(1, 1) == 1
        assert triangular_index(1, 2) == 2
        assert triangular_index(2, 1) == 3
        assert triangular_index(2, 3) == 8

    def test_inverse_example(self):
        assert triangular_inverse(10) == (4, 1)

    def test_bijection_roundtrip(self):
        for k in range(1, 1_000_001):
            i, j = triangular_inverse(k)
            assert triangular_index(i, j) == k

    def test_column_monotone(self):
        s = scales(1, 2, 3, 4, 5)
        col = column_stream(s, 2)
        vals = [col.at(j) for j in range(1, 6)]
        assert vals == sorted(vals)


class TestPredicates:
    def test_identity_expansive(self):
        X = path_space(6)
        m = UniformlyExpansiveMap(X, X, lambda p: p, identity_rho)
        ok, w = check_uniformly_expansive(m)
        assert ok and w is None

    def test_violation_reported(self):
        X = path_space(4)
        # map stretching distances 3x against an identity modulus
        Y = FiniteMetricSpace(range(4), lambda p, q: 3 * abs(p - q))
        m = UniformlyExpansiveMap(X, Y, lambda p: p, identity_rho)
        ok, w = check_uniformly_expansive(m)
        assert not ok and w is not None

    def test_image_outside_the_target_reported(self):
        m = UniformlyExpansiveMap(interval_window(0, 3), interval_window(0, 1), lambda p: p,
                                  identity_rho)
        assert check_uniformly_expansive(m) == (False, (2, 2))

    def test_coarse_surjectivity(self):
        X = path_space(3)
        Y = path_space(10)
        ok, _ = check_coarsely_surjective(lambda p: p, X, Y, 8)
        assert ok
        ok, witness = check_coarsely_surjective(lambda p: p, X, Y, 2)
        assert not ok and witness in Y.point_set

    def test_hypercube_collapse_with_stored_modulus(self):
        from apckit.metric import hypercube_collapse

        space, target, fmap = hypercube_collapse(4)
        m = UniformlyExpansiveMap(space, target, fmap, identity_rho)
        ok, bad = check_uniformly_expansive(m)
        assert ok, bad


class TestProductCover:
    def test_singleton_factor(self):
        X = FiniteMetricSpace(["p"], lambda a, b: 0)
        ox = ApcOracle(X, lambda s: witness_from_families([Family.of([{"p"}])], s, [0]))
        Y = interval_window(0, 9)
        s = scales(2)
        w = product_cover(ox, interval_oracle(Y), s)
        P = product_space(X, Y)
        assert verify_apc_witness(P, s, w).ok

    def test_interval_product_full_contract(self):
        X = interval_window(0, 32)
        ox, oy = interval_oracle(X), interval_oracle(X)
        s = scales(1, 2, 4, 8)
        w = product_cover(ox, oy, s)
        P = product_space(X, X)
        report = verify_apc_witness(P, s, w)
        assert report.ok
        # per-slot disjointness at the *slot* scale, checked directly
        for t, entry in enumerate(w.entries, start=1):
            if entry.is_empty():
                continue
            ok, _ = family_is_R_disjoint(P, entry.family, s.at(t))
            assert ok
        # squared mesh inequality per member, exact
        meshes = {}
        for t, entry in enumerate(w.entries, start=1):
            for member in entry.family.sets:
                d = set_diameter(P, member)
                assert sq_value(d) <= sq_value(entry.mesh_bound)

    def test_finite_consumption_logged(self):
        X = interval_window(0, 16)
        w = product_cover(interval_oracle(X), interval_oracle(X), scales(1, 2))
        assert w.meta["columns"] == len(w.meta["per_column"])
        assert w.meta["scales_consumed"] >= w.meta["columns"]

    def test_invalid_oracle_aborts(self):
        X = interval_window(0, 5)

        def bad(s):
            return witness_from_families([Family.of([{0}])], s, [0])

        with pytest.raises(ConstructionError):
            product_cover(ApcOracle(X, bad), interval_oracle(X), scales(1))

    def test_random_factor_fuzz(self):
        import random as _random

        from apckit.covers import exact_oracle
        from conftest import random_points_space

        rng = _random.Random(151)
        for _ in range(8):
            X = random_points_space(rng, rng.randint(1, 7), dim=2, span=5)
            Y = random_points_space(rng, rng.randint(1, 7), dim=2, span=5)
            prefix = sorted(rng.randint(0, 5) for _ in range(rng.randint(1, 3)))
            s = ScaleSequence(prefix)
            w = product_cover(exact_oracle(X), exact_oracle(Y), s)
            P = product_space(X, Y)
            assert verify_apc_witness(P, s, w).ok
            # the consumption log matches the construction's prescription
            assert len(w.meta["per_column"]) == w.meta["columns"]


class TestFiberingCover:
    def test_identity_with_singleton_scheme(self):
        Y = path_space(5)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)
        w = fibering_cover(m, exact_oracle(Y), singleton_fiber_scheme(), scales(1))
        assert verify_apc_witness(Y, scales(1), w).ok

    def test_identity_with_whole_fiber_scheme(self):
        Y = interval_window(0, 20)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)
        w = fibering_cover(m, interval_oracle(Y), whole_fiber_scheme(), scales(1, 3))
        assert verify_apc_witness(Y, scales(1, 3), w).ok

    def test_projection_cross_validates_product(self):
        X = interval_window(0, 12)
        Y = interval_window(0, 12)
        P = product_space(X, Y)
        s = scales(1, 2)
        w_prod = product_cover(interval_oracle(X), interval_oracle(Y), s)
        proj = UniformlyExpansiveMap(P, Y, lambda p: p[1], identity_rho)
        w_fib = fibering_cover(
            proj, interval_oracle(Y), projection_scheme_from_oracle(interval_oracle(X)), s
        )
        assert verify_apc_witness(P, s, w_prod).ok
        assert verify_apc_witness(P, s, w_fib).ok
        assert w_fib.meta["bounds"]  # audit recorded per column

    def test_each_column_asks_its_scheme_once(self):
        # identity on a path: a column's scheme is asked for (B, cover) once,
        # at the M its audit row records, and covers each fiber with that cover
        Y = path_space(12)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)
        asked = []

        def factory(stream):
            calls = []
            asked.append(calls)

            def at(M):
                calls.append(M)
                return M, lambda A: [Family.of([A])]

            return FiberCoverScheme(1, at)

        w = fibering_cover(m, interval_oracle(Y), factory, scales(1, 2))
        assert verify_apc_witness(Y, scales(1, 2), w).ok
        audit = w.meta["bounds"]
        assert audit and all(len(calls) <= 1 for calls in asked)
        assert [M for calls in asked for M in calls] == [row["M"] for row in audit]
        assert all(row["B"] == row["M"] for row in audit)

    def test_scheme_bound_violation_aborts(self):
        Y = path_space(8)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)

        def cheating(stream):
            # claims mesh 0 but returns whole (multi-point) fibers
            return FiberCoverScheme(1, lambda M: (0, lambda A: [Family.of([A])]))

        with pytest.raises(ConstructionError):
            fibering_cover(m, interval_oracle(Y), cheating, scales(2))

    def test_image_outside_the_target_is_refused(self):
        X, Y = interval_window(0, 3), interval_window(0, 1)
        m = UniformlyExpansiveMap(X, Y, lambda p: p, identity_rho)
        with pytest.raises(InputError, match=r"expansion modulus violated at \(2, 2\)"):
            fibering_cover(m, interval_oracle(Y), whole_fiber_scheme(), scales(1))


class TestFiberSchemeFromAsdim:
    def test_k_counts_scales(self):
        Y = path_space(9)
        calls = []

        def provider(M, R):
            calls.append((M, R))

            def cover(A):
                # n + 1 = 2 families of singletons split by parity: R-disjoint
                # only when R < 2, fine for the stream used here
                evens = [{p} for p in A if p % 2 == 0]
                odds = [{p} for p in A if p % 2 == 1]
                return [Family.of(evens), Family.of(odds)]

            return 0, cover

        factory = fiber_scheme_from_asdim(1, provider)
        scheme = factory(scales(1))
        assert scheme.family_count == 2
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)
        w = fibering_cover(m, interval_oracle(Y), factory, scales(1))
        assert verify_apc_witness(Y, scales(1), w).ok
        assert all(R == 1 for _, R in calls)  # reads the (n+1)-st scale


def _interval_hypothesis(space, block=6):
    """Hand-written decomposition hypothesis over an interval window:
    families of parity blocks, each block re-covered by two interval families.
    Returns the families and their subcover function."""
    import math

    pts = sorted(space.points)
    blocks = [pts[i : i + block] for i in range(0, len(pts), block)]
    families = [Family.of(blocks[0::2])]
    fam2 = Family.of(blocks[1::2])
    if len(fam2):
        families.append(fam2)

    def subcover(i, R):
        length = max(1, math.ceil(R))

        def cover(U):
            pts = sorted(U)
            blocks = {}
            for p in pts:
                blocks.setdefault((p - pts[0]) // length, []).append(p)
            ordered = [blocks[k] for k in sorted(blocks)]
            return [Family.of(ordered[0::2]), Family.of(ordered[1::2])]

        return length - 1, cover

    return families, subcover


def _whole(bound):
    """A k = 1 subcover: every member is its own family, at mesh bound."""
    return lambda i, R: (bound, lambda U: [Family.of([U])])


class TestDecompose:
    def test_k1_degenerate(self):
        space = path_space(6)
        w = decompose(space, 1, [Family.of([set(space.points)])], _whole(5), scales(0))
        assert len(w.entries) == 1
        assert verify_apc_witness(space, scales(0), w).ok

    def test_k2_blocks(self):
        space = interval_window(0, 23)
        families, subcover = _interval_hypothesis(space, block=6)
        s = scales(1, 2)  # family i reads R_2i: R_2=2, R_4=2; blocks of 6 are 6 apart
        w = decompose(space, 2, families, subcover, s)
        assert len(w.entries) == 4
        assert verify_apc_witness(space, s, w).ok

    @pytest.mark.parametrize("members", [1, 2, 5])
    def test_each_nonempty_family_is_asked_once(self, members):
        # family 1 holds `members` points 2 apart, family 2 is empty; each
        # nonempty family is asked for (bound, cover) once, however many
        # members it has, and an empty family records bound 0 unasked
        space = path_space(2 * members)
        asked, covered = [], []

        def subcover(i, R):
            asked.append((i, R))

            def cover(U):
                covered.append(U)
                return [Family.of([U])]

            return 3, cover

        s = scales(1)
        families = [Family.of([{2 * m} for m in range(members)]), Family.of([])]
        w = decompose(space, 1, families, subcover, s, allow_uncovered=range(1, 2 * members, 2))
        assert asked == [(1, 1)]
        assert len(covered) == members
        assert w.meta["bounds"] == [3, 0]
        assert [e.mesh_bound for e in w.entries] == [3, 0]

    def test_family_i_is_checked_at_scale_ik(self):
        # with k = 2 family 1 must be disjoint at R_2, not only at R_1:
        # {0} and {2} are 2 apart, so 1-disjoint but not 3-disjoint
        space = path_space(3)
        families = [Family.of([{0}, {2}]), Family.of([{1}])]
        with pytest.raises(ConstructionError, match="family 1 is not 3-disjoint"):
            decompose(space, 2, families, _whole(0), scales(1, 3))

    def test_undisjoint_hypothesis_aborts(self):
        space = path_space(6)
        with pytest.raises(ConstructionError):
            decompose(space, 1, [Family.of([{0, 1}, {2, 3}, {4, 5}])], _whole(1), scales(3))

    def test_families_that_miss_points_abort(self):
        space = path_space(4)
        with pytest.raises(ConstructionError, match=r"do not cover the space: \[2, 3\]"):
            decompose(space, 1, [Family.of([{0, 1}])], _whole(1), scales(1))


def _two_point_cover(A, space, fault=None):
    """The families {a} and {b} over a container {a, b} with b = a + 1, or the
    same with one planted fault that the provider check must reject."""
    a, b = sorted(A)
    if fault == "count":
        return [Family.of([{a}, {b}])]
    if fault == "leaves":
        outside = next(p for p in space.points if p not in A)
        return [Family.of([{a}]), Family.of([{b, outside}])]
    if fault == "mesh":
        return [Family.of([{a, b}]), Family.of([])]
    if fault == "disjointness":
        return [Family.of([{a}, {b}]), Family.of([])]
    if fault == "coverage":
        return [Family.of([{a}]), Family.of([])]
    return [Family.of([{a}]), Family.of([{b}])]


# each planted fault with a word of the rejection it must trigger
PROVIDER_FAULTS = {
    "count": "families, need",
    "leaves": "leaves",
    "mesh": "mesh bound",
    "disjointness": "-disjoint",
    "coverage": "misses",
}


def _fibering_with(fault):
    """Identity on a path of 8; the target oracle's fibers are the pairs
    {2i, 2i + 1}, and the scheme declares two families of mesh 0."""
    Y = path_space(8)
    m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)

    def scheme(stream):
        return FiberCoverScheme(2, lambda M: (0, lambda A: _two_point_cover(A, Y, fault)))

    return Y, fibering_cover(m, interval_oracle(Y), scheme, scales(2))


def _pair_members(space, fault=None):
    """Hypothesis on a path of 8: two families of 1-disjoint pairs, each pair
    re-covered by _two_point_cover at mesh 0; returns the families and their
    subcover function."""
    families = [Family.of([{0, 1}, {4, 5}]), Family.of([{2, 3}, {6, 7}])]
    return families, lambda i, R: (0, lambda U: _two_point_cover(U, space, fault))


class TestProviderCheck:
    """fibering_cover (per fiber) and decompose (per member) share one part
    loop that checks provider output; each rejection must fire through both
    callers."""

    def test_valid_providers_pass_through_both_callers(self):
        Y, w = _fibering_with(None)
        assert verify_apc_witness(Y, scales(2), w).ok
        space = path_space(8)
        w = decompose(space, 2, *_pair_members(space), scales(1))
        assert verify_apc_witness(space, scales(1), w).ok

    @pytest.mark.parametrize("fault", sorted(PROVIDER_FAULTS))
    def test_fibering_rejects(self, fault):
        with pytest.raises(ConstructionError, match=PROVIDER_FAULTS[fault]) as e:
            _fibering_with(fault)
        assert "column" in str(e.value)

    @pytest.mark.parametrize("fault", sorted(PROVIDER_FAULTS))
    def test_decompose_rejects(self, fault):
        space = path_space(8)
        with pytest.raises(ConstructionError, match=PROVIDER_FAULTS[fault]) as e:
            decompose(space, 2, *_pair_members(space, fault), scales(1))
        assert "family" in str(e.value)

    def test_decompose_exempts_allow_uncovered_from_coverage(self):
        space = path_space(8)
        exempt = frozenset({1, 3, 5, 7})  # the points the coverage fault drops
        w = decompose(space, 2, *_pair_members(space, "coverage"), scales(1),
                      allow_uncovered=exempt)
        assert w.support() == space.point_set - exempt
        report = verify_apc_witness(space, scales(1), w,
                                    require_cover_of=space.point_set - exempt)
        assert report.ok
        # without the exemption the same subcovers are refused
        with pytest.raises(ConstructionError, match="misses"):
            decompose(space, 2, *_pair_members(space, "coverage"), scales(1),
                      allow_uncovered={1, 3, 5})


class TestGridOracleEquivalence:
    def test_grid_oracle_is_product_of_intervals(self):
        g = grid_window((8, 8))
        s = scales(1, 2)
        w = grid_oracle(g, (8, 8)).checked(s)
        assert verify_apc_witness(g, s, w).ok
        # same layout as the generic engine applied to two interval oracles
        ox = interval_oracle(interval_window(0, 7))
        w2 = product_engine(ox, ox, s, combine=operator.add)
        for e1, e2 in zip(w.entries, w2.entries):
            assert {frozenset(x) for x in e1.family.sets} == {
                frozenset(x) for x in e2.family.sets
            }
