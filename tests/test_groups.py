import hashlib
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apckit import groups as groups_module
from apckit.covers import ScaleSequence, interval_oracle, verify_apc_witness
from apckit.combinators import product_cover, UniformlyExpansiveMap, identity_rho, fibering_cover
from apckit.exact import root_of
from apckit.io import canonical_dumps, witness_to_obj
from apckit.metric import (
    ConstructionError,
    Family,
    FiniteMetricSpace,
    InputError,
    LatticeIndex,
    interval_window,
    product_space,
    sorted_points,
    validate_metric,
)
from apckit.groups import (
    CayleyWindow,
    DirectProductModel,
    FreeGroupModel,
    FreeProductModel,
    IntervalKernelSource,
    TableModel,
    TrivialKernelSource,
    WeightedGeneratingSet,
    WindowExhausted,
    ZdModel,
    cayley_ball,
    extension_cover,
    free_product_cover_groups,
    hom_fiber_scheme,
    lifted_generating_set,
    product_cover_groups,
    product_group_window,
    projection_fiber_scheme,
    r_stabilizer,
    rho_from_weights,
    z2_extension_pipeline,
)
from conftest import LOOP5
from reference import dijkstra_norms, embedded_gens, hom_fiber_provider


def scales(*prefix, **kw):
    return ScaleSequence(prefix, **kw)


def z_window(L, weight=1):
    Z = ZdModel(1)
    return cayley_ball(Z, [((1,), weight), ((-1,), weight)], L)


def f2_window(L):
    F = FreeGroupModel(2)
    return cayley_ball(F, F.standard_gens(), L)


def brute_f2_ball(L):
    """Independent breadth-first enumeration of reduced words of length <= L."""
    words = {()}
    frontier = {()}
    for _ in range(L):
        nxt = set()
        for w in frontier:
            for c in (1, -1, 2, -2):
                if w and w[-1] == -c:
                    continue
                nxt.add(w + (c,))
        words |= nxt
        frontier = nxt
    return words


def is_group(elements, table, e):
    """The group axioms by definition: identity, inverses and every triple
    associative."""
    return (all(table[(a, e)] == a == table[(e, a)] for a in elements)
            and all(any(table[(a, b)] == e for b in elements) for a in elements)
            and all(table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
                    for a, b, c in itertools.product(elements, repeat=3)))


def _group_table(n, mul):
    return {(a, b): mul(a, b) for a in range(n) for b in range(n)}


def _s3(a, b):
    perms = list(itertools.permutations(range(3)))
    p, q = perms[a], perms[b]
    return perms.index(tuple(p[q[i]] for i in range(3)))


GROUP_TABLES = {
    "Z/1": _group_table(1, lambda a, b: 0),
    "Z/4": _group_table(4, lambda a, b: (a + b) % 4),
    "Z/2 x Z/2": _group_table(4, operator.xor),
    "Z/2 x Z/4": _group_table(8, lambda a, b: (a ^ b) & 4 | (a + b) & 3),
    "S3": _group_table(6, _s3),
    "loop": {(a, b): LOOP5[a][b] for a in range(5) for b in range(5)},
}


@st.composite
def group_tables(draw):
    """A group table (or the loop), its elements relabelled by a permutation,
    with up to two products changed to other elements."""
    table = GROUP_TABLES[draw(st.sampled_from(sorted(GROUP_TABLES)))]
    n = math.isqrt(len(table))
    relabel = draw(st.permutations(range(n)))
    table = {(relabel[a], relabel[b]): relabel[c] for (a, b), c in table.items()}
    for _ in range(draw(st.integers(0, 2))):
        table[(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))] = draw(
            st.integers(0, n - 1))
    return list(range(n)), table, relabel[0]


class TestModels:
    def test_zd(self):
        Z2 = ZdModel(2)
        assert Z2.mul((1, 2), (3, -1)) == (4, 1)
        assert Z2.inv((1, -2)) == (-1, 2)

    def test_free_reduction(self):
        F = FreeGroupModel(2)
        assert F.mul((1, 2), (-2, -1)) == ()
        assert F.mul((1,), (1,)) == (1, 1)
        assert F.inv((1, -2)) == (2, -1)

    def test_table_cyclic(self):
        C = TableModel.cyclic(5)
        assert C.mul(3, 4) == 2
        assert C.inv(2) == 3

    def test_direct_product(self):
        M = DirectProductModel([ZdModel(1), TableModel.cyclic(3)])
        e = M.identity()
        g = ((2,), 1)
        assert M.mul(g, M.inv(g)) == e

    def test_free_product_model(self):
        M = FreeProductModel([ZdModel(1), ZdModel(1)])
        a = ((0, (1,)),)
        b = ((1, (1,)),)
        ab = M.mul(a, b)
        assert ab == ((0, (1,)), (1, (1,)))
        assert M.mul(ab, M.inv(ab)) == ()
        # same-factor letters merge
        assert M.mul(a, a) == ((0, (2,)),)

    def test_table_must_hold_every_product(self):
        with pytest.raises(InputError):
            TableModel([0, 1], {(0, 0): 0}, 0)
        with pytest.raises(InputError):
            TableModel([0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}, 0)

    def test_table_must_be_a_group(self):
        loop = {(a, b): LOOP5[a][b] for a in range(5) for b in range(5)}
        with pytest.raises(InputError, match=r"not associative: \(1\*1\)\*2 != 1\*\(1\*2\)"):
            TableModel(range(5), loop, 0)
        z2 = {(a, b): (a + b) % 2 for a in range(2) for b in range(2)}
        for e in (1, 2):
            with pytest.raises(InputError, match="not the identity"):
                TableModel(range(2), z2, e)

    @given(group_tables())
    @settings(max_examples=300, deadline=None)
    def test_table_check_matches_the_group_axioms(self, case):
        elements, table, e = case
        try:
            TableModel(elements, table, e)
        except InputError:
            accepted = False
        else:
            accepted = True
        assert accepted == is_group(elements, table, e)

    def test_genset_symmetry_enforced(self):
        Z = ZdModel(1)
        with pytest.raises(InputError):
            WeightedGeneratingSet(Z, [((1,), 1), ((-1,), 2)])
        with pytest.raises(InputError):
            WeightedGeneratingSet(Z, [((1,), 0)])
        with pytest.raises(InputError):
            WeightedGeneratingSet(Z, [((0,), 1)])


class TestCayleyWindows:
    def test_z_ball(self):
        win = z_window(3)
        assert sorted(p[0] for p in win.points) == list(range(-3, 4))
        assert win.space.dist((1,), (-2,)) == 3

    def test_f2_ball_sizes(self):
        win = f2_window(3)
        by_norm = {}
        for g in win.points:
            by_norm.setdefault(win.norm_of(g), 0)
            by_norm[win.norm_of(g)] += 1
        sizes = [sum(v for n, v in by_norm.items() if n <= L) for L in range(4)]
        assert sizes == [1, 5, 17, 53]
        assert set(win.points) <= brute_f2_ball(6)
        assert {g for g in win.points} == brute_f2_ball(3)

    def test_weighted_norm(self):
        win = z_window(8, weight=2)
        assert win.norm_of((3,)) == 6

    def test_left_invariance_and_symmetry(self):
        win = z_window(4)
        pts = win.points
        for g, h, hp in itertools.product(pts, repeat=3):
            gh = win.model.mul(g, h)
            ghp = win.model.mul(g, hp)
            if gh in win.norms and ghp in win.norms:
                assert win.space.dist(gh, ghp) == win.space.dist(h, hp)
        for g in pts:
            assert win.norm_of(g) == win.norm_of(win.model.inv(g))

    def test_window_exhausted_signal(self):
        win = z_window(2)
        with pytest.raises(WindowExhausted):
            win.norm_of((99,))

    def test_window_metric_validates(self):
        win = f2_window(2)
        assert validate_metric(win.space).valid


class TestCayleyIndex:
    """Z^d windows generated by {+-e_i} with int weights carry a LatticeIndex
    that reproduces their word metric; every other window carries none."""

    AXIS_WINDOWS = [
        (1, None, 6), (2, None, 4), (3, None, 3), (2, [1, 3], 7), (3, [2, 1, 3], 5),
        (2, [2, 5], Fraction(19, 2)),
    ]

    @pytest.mark.parametrize("d, weights, L", AXIS_WINDOWS)
    def test_axis_windows_carry_an_exact_index(self, d, weights, L):
        model = ZdModel(d)
        win = cayley_ball(model, model.standard_gens(weights), L)
        index = win.space.index
        assert isinstance(index, LatticeIndex)
        w = weights or [1] * d
        for g in win.points:
            assert index.coord(g) == tuple(a * b for a, b in zip(w, g))
        for g, h in itertools.combinations(win.points, 2):
            n = win.norm_of(model.mul(model.inv(g), h))
            assert index.diameter_sq([g, h]) == n * n
            assert index.gaps_sq([[g], [h]]) == {(0, 1): n * n}

    def test_other_windows_carry_none(self):
        Z2 = ZdModel(2)
        F2 = FreeGroupModel(2)
        P = DirectProductModel([ZdModel(1), ZdModel(1)])
        cases = [
            cayley_ball(Z2, Z2.standard_gens() + [((1, 1), 1)], 3),
            cayley_ball(Z2, [((1, 1), 1), ((1, -1), 1)], 3),
            cayley_ball(Z2, [((1, 0), 1), ((0, 2), 1)], 3),
            cayley_ball(Z2, Z2.standard_gens([Fraction(1, 2), 1]), 3),
            cayley_ball(Z2, Z2.standard_gens(), 3, norm_radius=5),
            cayley_ball(F2, F2.standard_gens(), 3),
            cayley_ball(TableModel.cyclic(5), [(1, 1)], 2),
            cayley_ball(P, embedded_gens(P, [[((1,), 1)], [((1,), 1)]]), 2),
        ]
        for win in cases:
            assert win.space.index is None
        assert cayley_ball(Z2, Z2.standard_gens(), 3, norm_radius=6).space.index is not None


AXIS_WEIGHTS = [1, 2, 3, Fraction(1, 2), Fraction(3, 2)]


@st.composite
def axis_windows(draw):
    """(d, per-axis weights, radius, norm_radius) for a small Z^d axis window."""
    d = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from(AXIS_WEIGHTS), min_size=d, max_size=d))
    radius = draw(st.one_of(st.just(0), st.integers(1, 3),
                            st.fractions(0, 3, max_denominator=3)))
    extra = draw(st.sampled_from([None, 0, Fraction(1, 2), 1, radius + 1]))
    return d, weights, radius, None if extra is None else radius + extra


class TestAxisNorms:
    """Axis-generated Z^d windows read their norm table in closed form; it
    must equal the shortest-path table of ``reference.dijkstra_norms``."""

    @given(axis_windows())
    @example((2, [1, 3], 2, None))
    @example((3, [Fraction(1, 2), 2, Fraction(3, 2)], Fraction(3, 2), 4))
    @example((2, [2, Fraction(1, 2)], Fraction(5, 2), Fraction(5, 2)))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_dijkstra(self, case):
        d, weights, radius, norm_radius = case
        model = ZdModel(d)
        win = cayley_ball(model, model.standard_gens(weights), radius,
                          norm_radius=norm_radius)
        ref = dijkstra_norms(model, win.genset, win.norm_radius)
        assert win.norms == ref
        assert win.points == tuple(sorted_points(g for g, n in ref.items() if n <= radius))
        if len(win.points) > 60:
            return
        for g, h in itertools.combinations_with_replacement(win.points, 2):
            diff = model.mul(model.inv(g), h)
            if diff in ref:
                assert win.space.dist(g, h) == ref[diff]
            else:
                with pytest.raises(WindowExhausted):
                    win.space.dist(g, h)

    @given(axis_windows())
    @settings(max_examples=150, deadline=None)
    def test_points_are_built_in_key_order(self, case):
        # the closed form's table is lexicographic in the coordinates, so the
        # window keeps its order unsorted and hands it over as the rank
        d, weights, radius, norm_radius = case
        model = ZdModel(d)
        win = cayley_ball(model, model.standard_gens(weights), radius,
                          norm_radius=norm_radius)
        assert win.points == tuple(sorted_points(win.points))
        assert win.space.rank == FiniteMetricSpace.rank.func(win.space)

    def test_other_z2_gensets_take_dijkstra(self, monkeypatch):
        calls = []
        search = CayleyWindow._dijkstra
        monkeypatch.setattr(CayleyWindow, "_dijkstra",
                            lambda self: calls.append(self) or search(self))
        Z2 = ZdModel(2)
        win = cayley_ball(Z2, Z2.standard_gens() + [((1, 1), 1)], 3)
        assert calls == [win]
        assert win.norms == dijkstra_norms(Z2, win.genset, 6)
        assert win.norm_of((2, 2)) == 2  # the axis closed form would give 4
        cayley_ball(Z2, Z2.standard_gens([1, 3]), 3)
        assert calls == [win]

    @pytest.mark.parametrize("model, gens", [
        (ZdModel(3), ZdModel(3).standard_gens([1, Fraction(1, 2), 2])),
        (ZdModel(2), ZdModel(2).standard_gens() + [((1, 1), 1)]),
        (FreeGroupModel(2), FreeGroupModel(2).standard_gens()),
    ], ids=["closed-form", "dijkstra-z2", "dijkstra-f2"])
    def test_the_cap_refuses_one_element_over(self, monkeypatch, model, gens):
        size = len(cayley_ball(model, gens, 2).norms)
        monkeypatch.setattr(groups_module, "BALL_CAP", size)
        win = cayley_ball(model, gens, 2)
        assert len(win.norms) == size
        monkeypatch.setattr(groups_module, "BALL_CAP", size - 1)
        message = f"^ball exceeds the {size - 1}-element cap$"
        with pytest.raises(InputError, match=message):
            cayley_ball(model, gens, 2)
        with pytest.raises(InputError, match=message):
            dijkstra_norms(model, win.genset, win.norm_radius)

    def test_an_oversized_free_group_ball_is_refused_before_dijkstra(self):
        # radius 6 needs the 1 + 2(3^12 - 1) = 1 062 881 reduced words of F_2
        # up to length 12; radius 5 needs 1 + 2(3^10 - 1) = 118 097 and builds
        F = FreeGroupModel(2)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="^ball exceeds the 1000000-element cap$"):
                cayley_ball(F, F.standard_gens(), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert len(cayley_ball(F, F.standard_gens(), 5).norms) == 118_097


class TestStabilizers:
    def test_z2_acting_on_z(self):
        G = ZdModel(2)
        win = cayley_ball(G, G.standard_gens(), 3)
        Z = interval_window(-6, 6)
        action = lambda g, x: g[0] + x
        stab = r_stabilizer(win, action, Z, 0, 2)
        assert stab == {g for g in win.points if abs(g[0]) <= 2}

    def test_trivial_action(self):
        win = z_window(3)
        Z = interval_window(-3, 3)
        stab = r_stabilizer(win, lambda g, x: x, Z, 0, 1)
        assert stab == set(win.points)

    def test_free_action_R0(self):
        win = z_window(3)
        Z = interval_window(-6, 6)
        stab = r_stabilizer(win, lambda g, x: g[0] + x, Z, 0, 0)
        assert stab == {(0,)}

    def test_non_isometric_action_flagged(self):
        win = z_window(3)
        Z = interval_window(-9, 9)
        with pytest.raises(InputError):
            r_stabilizer(win, lambda g, x: g[0] * x, Z, 0, 1, check_isometry=500)


class TestRho:
    def test_unit_weights(self):
        win = z_window(4)
        Z = interval_window(-8, 8)
        rho = rho_from_weights(win.genset, lambda s, x: s[0] + x, Z, 0)
        assert rho(5) == 5

    def test_weighted_bound(self):
        Z3 = interval_window(-30, 30)
        G = ZdModel(1)
        genset = WeightedGeneratingSet(G, [((1,), 2)])
        rho = rho_from_weights(genset, lambda s, x: s[0] * 3 + x, Z3, 0)
        assert rho(5) == 6  # floor(5/2) * 3

    def test_exact_dp_at_most_bound(self):
        Z3 = interval_window(-30, 30)
        G = ZdModel(1)
        genset = WeightedGeneratingSet(G, [((1,), 2)])
        rho = rho_from_weights(genset, lambda s, x: s[0] * 3 + x, Z3, 0, exact=True)
        bound = rho_from_weights(genset, lambda s, x: s[0] * 3 + x, Z3, 0)
        for N in (0, 1, 2, 3, 5, 8):
            assert rho(N) <= bound(N)

    def test_orbit_map_expansive_on_z2(self):
        G = ZdModel(2)
        win = cayley_ball(G, G.standard_gens(), 4)
        Z = interval_window(-8, 8)
        action = lambda g, x: g[0] + x
        rho = rho_from_weights(win.genset, action, Z, 0)
        m = UniformlyExpansiveMap(
            win.space, Z, lambda g: action(g, 0), rho
        )
        from apckit.combinators import check_uniformly_expansive

        ok, bad = check_uniformly_expansive(m)
        assert ok, bad


    def test_modulus_takes_root_distances(self):
        # an l2 product hands rho Root distances: the fiber proof calls it on
        # box gaps and the pairwise loop on sqrt(2); each map gets a verdict
        from apckit.combinators import check_uniformly_expansive

        G = ZdModel(2)
        win = cayley_ball(G, G.standard_gens(), 2)
        X = product_space(interval_window(0, 3), interval_window(0, 3))
        Z = interval_window(-6, 6)
        for exact in (False, True):
            both = rho_from_weights(win.genset, lambda s, x: x + s[0] + s[1], Z, 0, exact=exact)
            first = rho_from_weights(win.genset, lambda s, x: x + s[0], Z, 0, exact=exact)
            assert both(root_of(2)) == 1 and both(root_of(8)) == 2 and both(root_of(1)) == 1
            # |p0 - q0| is an int at most the l2 distance, so floor(d) bounds it
            ok, bad = check_uniformly_expansive(UniformlyExpansiveMap(X, Z, lambda p: p[0], first))
            assert ok, bad
            # p0 + p1 moves 2 over sqrt(2), and floor(sqrt(2)) = 1
            ok, bad = check_uniformly_expansive(
                UniformlyExpansiveMap(X, Z, lambda p: p[0] + p[1], both))
            assert not ok and X.dist(*bad) == root_of(2)


class TestProjectionScheme:
    def _window_box(self, LG, LH):
        G = ZdModel(1)
        winG = z_window(LG)
        winH = z_window(LH)
        return winG, winH, product_group_window(winG, winH)

    def test_singleton_second_factor(self):
        winG = z_window(4)
        H = ZdModel(1)
        winH = cayley_ball(H, H.standard_gens(), 0)
        box = product_group_window(winG, winH)
        from apckit.covers import ApcOracle, witness_from_families
        from apckit.metric import Family

        oh = ApcOracle(
            winH.space,
            lambda s: witness_from_families([Family.of([{(0,)}])], s, [0]),
        )
        factory = projection_fiber_scheme(oh)
        scheme = factory(scales(1))
        assert scheme.family_count == 1
        assert scheme.at(5)[0] == 5

    def test_projection_pipeline_verifies(self):
        winG, winH, box = self._window_box(8, 8)
        proj = UniformlyExpansiveMap(box, winG.space, lambda p: p[0], identity_rho)

        def relabelled_interval(win):
            from apckit.covers import ApcOracle, CoverWitness, WitnessEntry
            from apckit.metric import Family

            base = interval_oracle(
                interval_window(-int(win.radius), int(win.radius))
            )

            def provide(s):
                w = base.provide(s)
                entries = [
                    WitnessEntry(
                        e.required_scale,
                        Family.of([{(p,) for p in S} for S in e.family.sets]),
                        e.mesh_bound,
                    )
                    for e in w.entries
                ]
                return CoverWitness(entries, dict(w.meta))

            return ApcOracle(win.space, provide)

        og = relabelled_interval(winG)
        oh = relabelled_interval(winH)
        s = scales(1, 2)
        w = fibering_cover(proj, og, projection_fiber_scheme(oh), s)
        report = verify_apc_witness(box, s, w)
        assert report.ok, report.describe()
        # mesh audit: every bound recorded is fiber-independent by construction
        assert all("M" in row and "B" in row for row in w.meta["bounds"])


class TestExtension:
    def test_z2_extension_small(self):
        window_G, witness = z2_extension_pipeline(8, scales(1, 2))
        report = verify_apc_witness(window_G.space, scales(1, 2), witness)
        assert report.ok, report.describe()
        assert witness.meta["bounds"]

    def test_kernel_scheme_bound_independent_of_fiber(self):
        window_G, witness = z2_extension_pipeline(6, scales(1))
        by_column = {}
        for row in witness.meta["bounds"]:
            key = (row["column"], row["M"])
            by_column.setdefault(key, set()).add(row["B"])
        assert all(len(v) == 1 for v in by_column.values())

    def test_interval_kernel_blocks_are_exact_beyond_floats(self):
        # blocks of ceil(R) = 10**17 + 1 positions; a float quotient rounds the
        # block length to 10**17 and puts both elements, R apart, in one family
        R = 10**17 + 1
        B, fams = IntervalKernelSource(coordinate=lambda g: g).cover({R - 2, 2 * R - 2}, R)
        assert B == R - 1
        assert [f.sets for f in fams] == [(frozenset({R - 2}),), (frozenset({2 * R - 2}),)]

    def test_trivial_kernel_scheme(self):
        Z = ZdModel(1)
        win = cayley_ball(Z, Z.standard_gens(), 4)
        phi = lambda g: g
        sigma = lambda h: h
        factory = hom_fiber_scheme(win, phi, sigma, win, TrivialKernelSource())
        scheme = factory(scales(1))
        assert scheme.family_count == 1
        _, cover = scheme.at(2)
        fams = cover(frozenset({(1,)}))
        assert [s for f in fams for s in f.sets] == [frozenset({(1,)})]

    def test_trivial_quotient_scheme_reshapes_kernel_cover(self):
        # phi to the trivial group: every window subset is a coarse fiber and
        # the scheme is the kernel's own interval cover, translated
        Z = ZdModel(1)
        win = cayley_ball(Z, Z.standard_gens(), 6)
        E = TableModel.cyclic(1)
        # a one-point group has no valid generating set, so model the trivial
        # quotient with a hand-rolled one-point window around its identity
        from apckit.metric import FiniteMetricSpace

        class TrivialWindow:
            model = E
            points = (0,)
            norms = {0: 0}
            space = FiniteMetricSpace([0], lambda a, b: 0, basepoint=0)

            def norm_of(self, g):
                return 0

        winH = TrivialWindow()
        phi = lambda g: 0
        sigma = lambda h: (0,)
        src = IntervalKernelSource(coordinate=lambda g: g[0], step=1)
        factory = hom_fiber_scheme(win, phi, sigma, winH, src)
        scheme = factory(scales(2))
        assert scheme.family_count == 2
        A = frozenset(win.points)
        _, cover = scheme.at(1)
        fams = cover(A)
        covered = set()
        from apckit.metric import family_is_R_disjoint

        for j, fam in enumerate(fams, start=1):
            ok, bad = family_is_R_disjoint(win.space, fam, scales(2).at(j))
            assert ok, bad
            for s in fam.sets:
                covered |= s
        assert covered == A


class OverlappingKernelSource:
    """Planted asdim-1 source whose two families share the kernel elements at
    coordinates cut - 1 and cut: blocks of two positions up to cut, one set
    from cut - 1 on."""

    n = 1

    def __init__(self, cut):
        self.cut = cut

    def cover(self, elems, R):
        blocks = {}
        for g in elems:
            if g[0] <= self.cut:
                blocks.setdefault(g[0] // 2, set()).add(g)
        high = {g for g in elems if g[0] >= self.cut - 1}
        return 1, [Family.of(blocks.values()), Family.of([high])]


class DroppingKernelSource:
    """Planted source: the interval cover less one kernel element, pick places
    after the middle one in point order, so the stabilizer elements over it
    are in no family."""

    n = 1

    def __init__(self, pick):
        self.pick = pick

    def cover(self, elems, R):
        B, fams = IntervalKernelSource(coordinate=lambda g: g[0]).cover(elems, R)
        ordered = sorted_points(elems)
        drop = ordered[(len(ordered) // 2 + self.pick) % len(ordered)]
        return B, [Family.of([S - {drop} for S in fam.sets]) for fam in fams]


# (G, H, phi, sigma): a Z^2 window onto Z (kernel Z), and identities on Z^2
# and Z (trivial kernel)
PULLBACK_MAPS = {
    "z2-onto-z": (ZdModel(2), ZdModel(1), lambda g: (g[1],), lambda h: (0, h[0])),
    "z2-identity": (ZdModel(2), ZdModel(2), lambda g: g, lambda h: h),
    "z-identity": (ZdModel(1), ZdModel(1), lambda g: g, lambda h: h),
}


@st.composite
def pullback_cases(draw):
    """A map, a kernel source, (M, R), and fibers: boxes around a window
    element (coarse fibers when small, escaping the M-stabilizer when not),
    the part of such a box over the element's image, and arbitrary window
    subsets."""
    G, H, phi, sigma = PULLBACK_MAPS[draw(st.sampled_from(list(PULLBACK_MAPS)))]
    L = draw(st.integers(1, 4))
    win = cayley_ball(G, G.standard_gens(), L)
    winH = cayley_ball(H, H.standard_gens(), L)
    source = draw(st.sampled_from([
        IntervalKernelSource(coordinate=lambda g: g[0]),
        TrivialKernelSource(),
        OverlappingKernelSource(draw(st.integers(-3, 3))),
        DroppingKernelSource(draw(st.integers(0, 20))),
    ]))
    M = draw(st.sampled_from([0, 1, Fraction(3, 2), 2, 3, 5]))
    R = draw(st.sampled_from([0, Fraction(1, 2), 1, 2, 3]))
    pts = win.points
    fibers = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["box", "over-image", "subset"]))
        if kind == "subset":
            fibers.append(frozenset(draw(st.sets(st.sampled_from(pts), max_size=6))))
            continue
        g0 = draw(st.sampled_from(pts))
        e = draw(st.integers(kind == "over-image", 3))
        fibers.append(frozenset(
            g for g in pts if all(abs(a - b) <= e for a, b in zip(g, g0))
            and (kind == "box" or phi(g) == phi(g0))))
    return win, phi, sigma, winH, source, M, R, fibers


def _outcome(cover, A):
    try:
        return cover(A)
    except ConstructionError as e:
        return str(e)


class TestPullbackAgainstReference:
    """hom_fiber_scheme looks each translated fiber element's kernel slots up
    in one table per (M, R); ``reference.hom_fiber_provider`` intersects the
    fiber with every pulled-back stabilizer set.  Both must give the same
    bound and, per fiber, the same families or the same error, with kernel
    families that overlap and with kernel elements the cover misses."""

    @given(pullback_cases())
    @settings(max_examples=300, deadline=None)
    def test_table_matches_the_per_fiber_scan(self, case):
        win, phi, sigma, winH, source, M, R, fibers = case
        stream = scales(R)
        B, cover = hom_fiber_scheme(win, phi, sigma, winH, source)(stream).at(M)
        B_ref, cover_ref = hom_fiber_provider(win, phi, sigma, winH, source)(
            M, stream.at(source.n + 1))
        assert B == B_ref
        for A in fibers:
            assert _outcome(cover, A) == _outcome(cover_ref, A)

    def test_overlapping_families_share_an_element(self):
        # the kernel element at cut is in both families, so each fiber
        # element over it is too
        win, winH = cayley_ball(ZdModel(2), ZdModel(2).standard_gens(), 2), z_window(2)
        phi, sigma = PULLBACK_MAPS["z2-onto-z"][2:]
        _, cover = hom_fiber_scheme(win, phi, sigma, winH, OverlappingKernelSource(1))(
            scales(1)).at(1)
        low, high = cover(frozenset({(0, 0), (1, 0), (2, 0)}))
        assert low.support() == {(0, 0), (1, 0)} and high.support() == {(0, 0), (1, 0), (2, 0)}

    def test_a_missed_kernel_element_drops_its_fiber_elements(self):
        win, winH = cayley_ball(ZdModel(2), ZdModel(2).standard_gens(), 2), z_window(2)
        phi, sigma = PULLBACK_MAPS["z2-onto-z"][2:]
        scheme = hom_fiber_scheme(win, phi, sigma, winH, DroppingKernelSource(0))(scales(1))
        _, cover = scheme.at(1)
        # the middle kernel element of the symmetric window is the identity,
        # the kernel part of (0, 0) and (0, 1)
        A = frozenset({(0, 0), (1, 0), (0, 1)})
        assert set().union(*(f.support() for f in cover(A))) == {(1, 0)}
        # every fiber is translated by its least element onto the identity,
        # so fibering reports the dropped points
        with pytest.raises(ConstructionError, match="misses"):
            fibering_cover(UniformlyExpansiveMap(win.space, winH.space, phi, identity_rho),
                           interval_oracle(winH.space),
                           hom_fiber_scheme(win, phi, sigma, winH, DroppingKernelSource(0)),
                           scales(1))


def witness_digest(scales, witness):
    text = canonical_dumps(witness_to_obj(scales, witness)) + repr(witness.meta)
    return hashlib.sha256(text.encode()).hexdigest()


class TestExtensionPins:
    """Witnesses and meta of the extension pipeline, and fiber covers of the
    homomorphism scheme, pinned by SHA-256, so a rewrite of the fiber scheme
    that changes any family, bound or audit row shows here."""

    @pytest.mark.parametrize("L, stream, pin", [
        (4, scales(1), "8021748cba2221a2e300cfeff419d48262e4c2fc90440f537dce6d16494d36ee"),
        (6, scales(1, 2), "796336224b7b65fc959d505a4536d33a90c07b98d788e3cfa952cffc00e33c49"),
        (8, scales(1, 2, 4), "58e79fc77f0546b09876b25d553aaae07961a0e6f9269ff468738621fee735e1"),
        (10, scales(Fraction(3, 2), extend="arithmetic", param=1),
         "201b70e4c6e97e1031c66f6d0936487d6adb314724622f4e1da09a7fb3c59d28"),
        (12, scales(2, 3, extend="geometric", param=2),
         "d3ef20f2e755570d5641f10a96faf2c2cc282505a5d8043cd5e2d89c4c029a4d"),
    ])
    def test_z2_extension_witness(self, L, stream, pin):
        _, witness = z2_extension_pipeline(L, stream)
        assert witness_digest(stream, witness) == pin

    def test_trivial_kernel_fiber_covers(self):
        # identity onto Z^2 (one kernel element) and the projection onto Z
        # (many stabilizer elements per kernel element)
        G, H = ZdModel(2), ZdModel(1)
        win = cayley_ball(G, G.standard_gens(), 4)
        winH = cayley_ball(H, H.standard_gens(), 4)
        rows = []
        for target, phi, sigma in ((win, lambda g: g, lambda h: h),
                                   (winH, lambda g: (g[1],), lambda h: (0, h[0]))):
            factory = hom_fiber_scheme(win, phi, sigma, target, TrivialKernelSource())
            scheme = factory(scales(1, 2))
            for M in (2, Fraction(5, 2), 3):
                B, cover = scheme.at(M)
                for x, y in ((0, 0), (-2, 1), (1, -3)):
                    A = frozenset(g for g in win.points
                                  if x <= g[0] <= x + 1 and y <= g[1] <= y + 1)
                    rows.append((M, B, [[sorted_points(s) for s in f.sets] for f in cover(A)]))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "31fb6b36d378909fb1072edc81e7d0b3d6f7ccbf5a3b961d48a89a30a7f6e762")


class TestGroupProduct:
    def test_slot_for_slot_match_with_l2_combinator(self):
        X = interval_window(0, 12)
        ox = interval_oracle(X)
        s = scales(1, 2)
        w_l2 = product_cover(ox, ox, s)
        w_l1 = product_cover_groups(ox, ox, s)
        assert len(w_l1.entries) == len(w_l2.entries)
        for e1, e2 in zip(w_l1.entries, w_l2.entries):
            assert {frozenset(x) for x in e1.family.sets} == {
                frozenset(x) for x in e2.family.sets
            }

    def test_l1_witness_verifies_on_box(self):
        winG, winH = z_window(6), z_window(6)

        def relabel(win):
            from apckit.covers import ApcOracle, CoverWitness, WitnessEntry
            from apckit.metric import Family

            base = interval_oracle(interval_window(-int(win.radius), int(win.radius)))

            def provide(s):
                w = base.provide(s)
                entries = [
                    WitnessEntry(
                        e.required_scale,
                        Family.of([{(p,) for p in S} for S in e.family.sets]),
                        e.mesh_bound,
                    )
                    for e in w.entries
                ]
                return CoverWitness(entries, dict(w.meta))

            return ApcOracle(win.space, provide)

        s = scales(1, 2)
        w = product_cover_groups(relabel(winG), relabel(winH), s)
        box = product_group_window(winG, winH)
        assert verify_apc_witness(box, s, w).ok


class TestTranslationInvariance:
    def test_translated_families_stay_disjoint_and_bounded(self):
        from apckit.metric import Family, family_is_R_disjoint, set_diameter

        G = ZdModel(2)
        win = cayley_ball(G, G.standard_gens(), 6)
        fam = Family.of([{(0, 0), (1, 0)}, {(3, 0), (3, 1)}])
        R, B = 1, 1
        ok, _ = family_is_R_disjoint(win.space, fam, R)
        assert ok
        rng = random.Random(3)
        for _ in range(12):
            g = rng.choice(win.points)
            translated = []
            for s in fam.sets:
                ts = {G.mul(g, p) for p in s}
                if not all(t in win.space for t in ts):
                    break
                translated.append(ts)
            else:
                tfam = Family.of(translated)
                ok, bad = family_is_R_disjoint(win.space, tfam, R)
                assert ok, bad
                assert max(set_diameter(win.space, s) for s in tfam.sets) <= B


class TestGroupFreeProduct:
    def test_z_star_z_window(self):
        winG, winH = z_window(2), z_window(2)
        res = free_product_cover_groups(winG, winH, scales(1), 2, 3)
        report = verify_apc_witness(
            res.window.space, scales(1), res.witness,
            require_cover_of=res.reduced_points,
        )
        assert report.ok, report.describe()

    def test_modular_group_pins(self):
        """Z/2 * Z/3, the modular group PSL(2, Z), over the wedge of the
        radius-1 balls at order and norm 6: witness and meta pinned by
        SHA-256, and the witness verifies on the margin-reduced words."""
        Z2, Z3 = TableModel.cyclic(2), TableModel.cyclic(3)
        stream = scales(1, 2)
        res = free_product_cover_groups(cayley_ball(Z2, [(1, 1)], 1),
                                        cayley_ball(Z3, [(1, 1)], 1), stream, 6, 6)
        assert len(res.window) == 1093
        witness = canonical_dumps(witness_to_obj(stream, res.witness))
        meta = repr(sorted(res.witness.meta.items()))
        assert hashlib.sha256(witness.encode()).hexdigest() == (
            "d44ab7a79cd93f21a920f9c8f538254736f294243f09290eed1d3685cbeba76b")
        assert hashlib.sha256(meta.encode()).hexdigest() == (
            "2a283e18367905ffe2fc55675330a4828cb25cb5ea5d19af1bcd1b56dd97a3cf")
        report = verify_apc_witness(res.window.space, stream, res.witness,
                                    require_cover_of=res.reduced_points)
        assert report.ok, report.describe()
