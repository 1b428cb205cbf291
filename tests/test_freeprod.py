import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apckit import io as fio
from apckit.cli import main as cli_main
from apckit.covers import (ApcOracle, ScaleSequence, interval_oracle, verify_apc_witness,
                           witness_from_families)
from apckit.metric import (
    Family,
    FiniteMetricSpace,
    InputError,
    interval_window,
    matrix_space,
    set_diameter,
    sorted_points,
    validate_metric,
)
from apckit.freeprod import (
    EPSILON,
    build_v_families,
    component_core,
    cone_radius,
    cone_window,
    fp_window,
    free_product_cover,
    is_flat,
    prefix_cover,
    qi_check,
    wedge_embed_check,
    wedge_space,
)
from apckit.groups import ZdModel, cayley_ball
from reference import (ROOT, FreeProductHypothesis, check_witness, cone_cover, cone_cover_bound,
                       cone_tree, cone_tree_cover, core_reach_failures, fp_distance,
                       qi_violations, words_adjacent)


def base_xab():
    """The pointed three-point space: d(x0,a)=1, d(x0,b)=2, d(a,b)=2."""
    return matrix_space(
        ["x0", "a", "b"],
        [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
        basepoint="x0",
        name="Xab",
    )


def one_family_oracle(space):
    """The whole space as a single one-set family (vacuously disjoint)."""
    diam = set_diameter(space, set(space.points))

    def provide(scales):
        return witness_from_families(
            [Family.of([set(space.points)])], scales, [diam]
        )

    return ApcOracle(space, provide, name="whole")


def scales(*prefix, **kw):
    return ScaleSequence(prefix, **kw)


A, B = "a", "b"


def w(*letters):
    return tuple(letters)


class TestWordBasics:
    def test_norm_additive(self):
        X = base_xab()
        assert fp_distance(X, (), w(A, B)) == 3
        assert len(EPSILON) == 0
        assert w(A) + w(B, A) == w(A, B, A)
        assert fp_distance(X, (), w(A) + w(B, A)) == 4

    def test_basepoint_letter_rejected(self):
        X = base_xab()
        with pytest.raises(InputError):
            fp_distance(X, (), ("x0",))


class TestFpDistance:
    def test_trivial_word_rule(self):
        X = base_xab()
        assert fp_distance(X, EPSILON, w(A, B)) == 3

    def test_divergent_letters(self):
        X = base_xab()
        assert fp_distance(X, w(A, B), w(A, A)) == 2

    def test_tails(self):
        X = base_xab()
        assert fp_distance(X, w(A, B, A), w(B)) == 2 + 3 + 0

    def test_prefix_case(self):
        X = base_xab()
        assert fp_distance(X, w(A), w(A, B, A)) == 3

    def test_symmetry_random(self):
        X = base_xab()
        win = fp_window(X, 3, 9)
        rng = random.Random(1)
        for _ in range(60):
            u, v = rng.choice(win.words), rng.choice(win.words)
            assert win.space.dist(u, v) == win.space.dist(v, u)


LETTERS = {
    "int": st.integers(-4, 4),
    "str": st.text("ab*", max_size=2),
    "tuple": st.tuples(st.integers(-2, 2)) | st.tuples(st.sampled_from("ab"), st.integers(0, 2)),
    "wedge": st.builds(lambda side, k: (side, (k,)), st.sampled_from("xy"), st.integers(-2, 2)),
}


@st.composite
def pointed_bases(draw):
    """A pointed base over letters of one or more id kinds, wedge letters
    ("x", (k,)) among them: d(x0, x) = n_x and d(x, y) = max(n_x, n_y)."""
    kinds = sorted(draw(st.sets(st.sampled_from(sorted(LETTERS)), min_size=1)))
    pts = draw(st.lists(st.one_of(*[LETTERS[k] for k in kinds]), min_size=1, max_size=5,
                        unique=True))
    x0 = draw(st.sampled_from(pts))
    norm = {p: 0 if p == x0 else draw(st.sampled_from([Fraction(1, 2), 1, 2])) for p in pts}
    rows = [[0 if p == q else max(norm[p], norm[q]) for q in pts] for p in pts]
    return matrix_space(pts, rows, basepoint=x0)


class TestWindow:
    @given(pointed_bases(), st.integers(0, 3), st.sampled_from([0, 1, Fraction(3, 2), 3]))
    @settings(max_examples=150, deadline=None)
    def test_words_are_built_in_key_order(self, X, m, L):
        # the enumeration's order is the sorted one, so the rank the window
        # hands its space is the generic rank
        win = fp_window(X, m, L)
        assert win.words == tuple(sorted_points(win.words))
        assert set(win.words) == brute_window_words(X, m, L)
        assert win.space.rank == FiniteMetricSpace.rank.func(win.space)

    def test_order_one(self):
        win = fp_window(base_xab(), 1, 9)
        assert set(win.words) == {EPSILON, w(A), w(B)}
        assert win.space.dist(w(A), w(B)) == 2

    def test_order_zero(self):
        win = fp_window(base_xab(), 0, 9)
        assert win.words == (EPSILON,)

    def test_norm_cut(self):
        win = fp_window(base_xab(), 2, 2)
        assert set(win.words) == {EPSILON, w(A), w(B), w(A, A)}

    def test_window_metric_validates(self):
        win = fp_window(base_xab(), 3, 6)
        assert validate_metric(win.space).valid

    def test_norm_is_distance_to_trivial_word(self):
        win = fp_window(base_xab(), 3, 7)
        for word in win.words:
            assert win.norm(word) == win.space.dist(EPSILON, word)

    def test_E_is_min_gap(self):
        assert fp_window(base_xab(), 1, 1).E == 1

    @pytest.mark.parametrize("margin", [-1, Fraction(-1, 2)])
    def test_negative_margin_refused(self, margin):
        with pytest.raises(InputError, match="margin"):
            fp_window(base_xab(), 3, 6, margin=margin)
        assert fp_window(base_xab(), 3, 6, margin=0).margin == 0


class TestCones:
    def test_cone_of_a(self):
        win = fp_window(base_xab(), 2, 9)
        assert cone_window(win, {w(A)}, 1) == {w(A), w(A, A)}

    def test_cone_of_empty(self):
        win = fp_window(base_xab(), 2, 9)
        assert cone_window(win, set(), 3) == frozenset()

    def test_cone_at_zero_is_identity(self):
        win = fp_window(base_xab(), 2, 9)
        assert cone_window(win, {w(A), w(B)}, 0) == {w(A), w(B)}


class TestFlat:
    def test_examples(self):
        assert is_flat({w(A), w(B)})
        assert is_flat({w(A, B), w(A, A)})
        assert not is_flat({w(A), w(A, B)})
        assert is_flat({EPSILON})
        assert not is_flat(set())


class TestConeTree:
    def test_path_tree(self):
        win = fp_window(base_xab(), 2, 9)
        ct = cone_tree(win, {w(A)}, 1)
        assert ct.cone == {w(A), w(A, A)}
        assert ct.tree.distance(w(A), w(A, A)) == 1
        assert qi_check(win, {w(A)}, 1) == []

    def test_no_extensions_below_gap(self):
        win = fp_window(base_xab(), 2, 9)
        ct = cone_tree(win, {w(A)}, Fraction(1, 2))
        assert ct.cone == {w(A)}

    def test_flat_pair_base(self):
        win = fp_window(base_xab(), 3, 9)
        assert qi_check(win, {w(A, B), w(A, A)}, 2) == []

    def test_root_adjacent_exactly_to_base(self):
        win = fp_window(base_xab(), 3, 9)
        ct = cone_tree(win, {w(A, B), w(A, A)}, 2)
        children_of_root = {v for v, p in ct.tree.parent.items() if p == ROOT}
        assert children_of_root == {w(A, B), w(A, A)}
        # every other edge extends by one letter of norm <= M
        for v, p in ct.tree.parent.items():
            if p in (None, ROOT):
                continue
            assert v[:-1] == p
            assert win.letter_norm[v[-1]] <= 2

    def test_non_flat_base_rejected(self):
        win = fp_window(base_xab(), 2, 9)
        with pytest.raises(InputError):
            qi_check(win, {w(A), w(A, B)}, 1)

    def test_qi_all_flat_bases_small_window(self):
        win = fp_window(base_xab(), 3, 9)
        prefixes = [word for word in win.words if len(word) <= 2]
        for prefix, M in itertools.product(prefixes, (1, 2, 3)):
            ext = [prefix + (c,) for c in (A, B) if prefix + (c,) in win.word_set]
            for k in (1, 2):
                for combo in itertools.combinations(ext, k):
                    assert qi_check(win, set(combo), M) == []


@st.composite
def matrix_bases(draw):
    """A pointed matrix base of 2-4 points whose distances are drawn freely
    from {1/2, 1, 2, 3, 5, 9}, so many break the triangle inequality, and a
    window of order <= 3 over it."""
    pts = ["x0", "a", "b", "c"][:draw(st.integers(2, 4))]
    d = {}
    for p, q in itertools.combinations(pts, 2):
        d[p, q] = d[q, p] = draw(st.sampled_from([Fraction(1, 2), 1, 2, 3, 5, 9]))
    rows = [[0 if p == q else d[p, q] for q in pts] for p in pts]
    X = matrix_space(pts, rows, basepoint="x0")
    return fp_window(X, draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 4])))


@given(matrix_bases())
@settings(max_examples=200, deadline=None)
def test_qi_check_matches_the_built_cone_tree(win):
    # every flat base of sibling extensions, at every cone scale: the prefix
    # trie's distance gives exactly the violations of the built tree's
    letters = sorted_points(win.letter_norm)
    for prefix in win.words:
        ext = [prefix + (c,) for c in letters if prefix + (c,) in win.word_set]
        for k in range(1, len(ext) + 1):
            for combo in itertools.combinations(ext, k):
                for M in (Fraction(1, 2), 1, 2, 3):
                    assert qi_check(win, combo, M) == qi_violations(cone_tree(win, combo, M))


class TestConeCover:
    def test_single_path_cone(self):
        win = fp_window(base_xab(), 3, 9)
        fams, bound = cone_cover(win, {w(A)}, 1, 1)
        sets = [s for fam in fams for s in fam.sets]
        assert frozenset().union(*sets) == {w(A), w(A, A), w(A, A, A)}
        assert len(sets) == 1  # depth 3 tree fits one annulus at r' = 4
        assert set_diameter(win.space, sets[0]) <= 2
        assert bound == 1 * (3 * 4) + 0

    def test_empty(self):
        win = fp_window(base_xab(), 2, 9)
        fams, bound = cone_cover(win, set(), 2, 1)
        assert all(len(f) == 0 for f in fams) and bound == 0

    def test_fuzz_random_flat_bases(self):
        rng = random.Random(3)
        win = fp_window(base_xab(), 3, 9)
        from apckit.metric import family_is_R_disjoint

        for _ in range(25):
            prefix = rng.choice([word for word in win.words if len(word) <= 2])
            ext = [prefix + (c,) for c in (A, B) if prefix + (c,) in win.word_set]
            if not ext:
                continue
            base = set(rng.sample(ext, rng.randint(1, len(ext))))
            M = rng.randint(1, 3)
            r = rng.randint(1, 3)
            fams, bound = cone_cover(win, base, M, r)
            cone = cone_window(win, base, M)
            support = set()
            for fam in fams:
                ok, bad = family_is_R_disjoint(win.space, fam, r)
                assert ok, bad
                for s in fam.sets:
                    support |= s
                    assert set_diameter(win.space, s) <= bound
            assert support == cone


class TestAdjacency:
    def test_cases(self):
        assert words_adjacent(w(A, B), w(A, A))
        assert words_adjacent(w(A, B), w(A))
        assert not words_adjacent(w(A), w(B, B))
        assert not words_adjacent(w(A), w(A))


class TestComponentCore:
    def test_two_word_component(self):
        win = fp_window(base_xab(), 2, 9)
        rep = component_core(win, {w(B), w(B, A)}, 1, 1, 0)
        assert rep.core == {w(B)}
        assert rep.flat and not rep.hard_failures

    def test_single_word(self):
        win = fp_window(base_xab(), 2, 9)
        rep = component_core(win, {w(A, B)}, 1, 1, 0)
        assert rep.core == {w(A, B)} and rep.flat and not rep.hard_failures

    def test_nonempty_required(self):
        win = fp_window(base_xab(), 2, 9)
        with pytest.raises(InputError):
            component_core(win, set(), 1, 1, 0)

    def test_flat_core_sorts_unreached_words_by_the_margin(self):
        # the 1-cone of (a) misses both b-words; with margin 1 only norms up
        # to 5 are inner, so (b, b) is a hard failure and (b, b, b) an artifact
        win = fp_window(base_xab(), 3, 6)
        rep = component_core(win, {w(A), w(B, B), w(B, B, B)}, 1, 0, 0, margin=1)
        assert rep.flat and rep.core == {w(A)}
        assert rep.artifacts == [w(B, B, B)] and rep.hard_failures == [w(B, B)]
        assert not (rep.flat and not rep.hard_failures)

    @pytest.mark.parametrize("margin, artifacts, hard", [
        (4, [w(A, B), w(B, A)], []),
        (0, [], [w(A, B), w(B, A)]),
    ])
    def test_non_flat_core_is_an_artifact_only_at_the_boundary(self, margin, artifacts, hard):
        win = fp_window(base_xab(), 3, 6)
        rep = component_core(win, {w(A, B), w(B, A)}, 1, 0, 0, margin=margin)
        assert not rep.flat
        assert rep.artifacts == artifacts and rep.hard_failures == hard


class TestBuildVFamilies:
    def test_spec_scenario(self):
        X = base_xab()
        win = fp_window(X, 2, 4)
        oracle = one_family_oracle(X)
        vf = build_v_families(oracle, scales(1, 1), win)
        assert vf.R_star == 1
        assert len(vf.families) == 2
        v1, v2 = vf.families
        assert v2.sets == (frozenset({EPSILON}),)
        # members of V1 are x . {b}; the word ab must be assigned via its
        # last heavy letter b to the member containing it
        assert all(is_flat(m) for m in v1.sets)
        by_word = {a.word: a for a in vf.certificate.assignments}
        assert vf.certificate.ok
        ab = by_word[w(A, B)]
        assert ab.family == 1 and w(A, B) in ab.member
        a_only = by_word[w(A)]
        assert a_only.family == 2 and a_only.split is None

    def test_every_window_word_assigned(self):
        X = base_xab()
        win = fp_window(X, 2, 4)
        vf = build_v_families(one_family_oracle(X), scales(1, 1), win)
        assert {a.word for a in vf.certificate.assignments} == set(win.words)


class TestFreeProductCover:
    def test_pipeline_spec_window(self):
        X = base_xab()
        win = fp_window(X, 2, 4, margin=2)
        res = free_product_cover(one_family_oracle(X), scales(1, 1), win)
        report = verify_apc_witness(
            win.space, scales(1, 1), res.witness, require_cover_of=res.reduced_points
        )
        assert report.ok

    def test_trivial_window(self):
        X = base_xab()
        win = fp_window(X, 0, 4, margin=0)
        res = free_product_cover(one_family_oracle(X), scales(1, 1), win)
        support = set().union(*res.witness.all_sets()) if len(res.witness.entries) else set()
        assert support == {EPSILON}
        assert verify_apc_witness(
            win.space, scales(1, 1), res.witness, require_cover_of=res.reduced_points
        ).ok

    def test_two_point_base(self):
        X = matrix_space(["x0", "a"], [[0, 1], [1, 0]], basepoint="x0")
        win = fp_window(X, 6, 6, margin=3)
        res = free_product_cover(one_family_oracle(X), scales(1), win)
        assert verify_apc_witness(
            win.space, scales(1), res.witness, require_cover_of=res.reduced_points
        ).ok

    def test_longer_scale_lists(self):
        X = base_xab()
        for prefix in [(1,), (1, 2), (1, 1, 2), (1, 2, 3, 4)]:
            win = fp_window(X, 3, 9)
            s = ScaleSequence(prefix)
            res = free_product_cover(one_family_oracle(X), s, win)
            report = verify_apc_witness(
                win.space, s, res.witness, require_cover_of=res.reduced_points
            )
            assert report.ok, report.describe()

    def test_hypothesis_built_once_with_the_same_witness(self, monkeypatch):
        # the V-families are built once, before decompose, and fix the default
        # margin, so the base oracle answers once per cover; the witness is the
        # one decompose gives on the families and subcover of the reference
        # hypothesis class with that margin, whose families read a 2-subsampled
        # view of one counting stream, down to meta["scales_consumed"]
        from apckit import freeprod
        from apckit.combinators import decompose
        from apckit.covers import CountingStream, MappedStream, exact_oracle

        X = base_xab()

        def lookahead_oracle(space):
            # reads a scale far past the slots it fills
            inner = exact_oracle(space)
            return ApcOracle(space, lambda sc: (sc.at(5), inner(sc))[1], name="ahead")

        for prefix, oracle, margin in itertools.product([(1,), (1, 2), (1, 1, 2)],
                                                        [exact_oracle, lookahead_oracle],
                                                        [None, 3]):
            win, s = fp_window(X, 3, 9, margin=margin), ScaleSequence(prefix)
            calls = []
            real = freeprod.build_v_families
            monkeypatch.setattr(freeprod, "build_v_families",
                                lambda *a: calls.append(1) or real(*a))
            base = oracle(X)
            provided = []
            provide = base.provide
            base.provide = lambda sc: provided.append(1) or provide(sc)
            res = free_product_cover(base, s, win)
            monkeypatch.undo()
            assert len(calls) == 1
            assert len(provided) == 1
            fresh = FreeProductHypothesis(oracle(X), win, res.margin)
            counting = CountingStream(s)
            pairs = fresh.families(MappedStream(counting, lambda i: 2 * i))
            ref = decompose(win.space, 2, [fam for _, fam in pairs], fresh.subcover, counting,
                            allow_uncovered=win.word_set - res.reduced_points)
            assert res.witness.entries == ref.entries
            assert res.witness.meta == {**ref.meta, "scales_consumed": counting.max_index,
                                        "margin": res.margin, "artifacts": len(fresh.artifacts)}
            assert res.v_families.families == fresh.vf.families

    def test_oracle_over_another_base_refused(self):
        # build_v_families checks the base before the oracle runs, with the
        # default margin and with an explicit one
        X = base_xab()
        other = matrix_space(["x0", "a"], [[0, 1], [1, 0]], basepoint="x0")
        for margin in (None, 2):
            win = fp_window(X, 2, 4, margin=margin)
            with pytest.raises(InputError, match="oracle is not over the window's base space"):
                free_product_cover(one_family_oracle(other), scales(1, 1), win)

    def test_exact_oracle_base(self):
        # a two-family base witness yields three word families, one possibly
        # empty once light letters are stripped
        from apckit.covers import exact_oracle

        X = base_xab()
        win = fp_window(X, 3, 9)
        s = scales(1, 1)
        res = free_product_cover(exact_oracle(X), s, win)
        report = verify_apc_witness(
            win.space, s, res.witness, require_cover_of=res.reduced_points
        )
        assert report.ok, report.describe()
        assert len(res.v_families.families) == 3

    def test_fractional_base_distances(self):
        X = matrix_space(
            ["x0", "a"],
            [[0, Fraction(1, 2)], [Fraction(1, 2), 0]],
            basepoint="x0",
        )
        win = fp_window(X, 4, 3)
        assert win.E == Fraction(1, 2)
        s = scales(Fraction(1, 2))
        res = free_product_cover(one_family_oracle(X), s, win)
        report = verify_apc_witness(
            win.space, s, res.witness, require_cover_of=res.reduced_points
        )
        assert report.ok, report.describe()

    def test_window_fuzz_metric_and_pipeline(self):
        rng = random.Random(17)
        for _ in range(6):
            n = rng.randint(2, 4)
            pts = [f"p{i}" for i in range(n)]
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(1, 3)
            # force the triangle inequality by passing through a star metric
            for i in range(n):
                for j in range(n):
                    if i != j:
                        rows[i][j] = min(rows[i][j], rows[i][0] + rows[0][j])
            X = matrix_space(pts, rows, basepoint="p0")
            if not validate_metric(X).valid:
                continue
            win = fp_window(X, 2, 5)
            assert validate_metric(win.space).valid
            s = scales(1)
            res = free_product_cover(one_family_oracle(X), s, win)
            report = verify_apc_witness(
                win.space, s, res.witness, require_cover_of=res.reduced_points
            )
            assert report.ok, report.describe()


class TestWedge:
    def test_two_point_wedge_is_star(self):
        X = matrix_space(["x0", "a"], [[0, 1], [1, 0]], basepoint="x0")
        Y = matrix_space(["y0", "b"], [[0, 3], [3, 0]], basepoint="y0")
        W = wedge_space(X, Y)
        assert len(W) == 3
        assert W.dist(("x", "a"), ("y", "b")) == 4
        assert validate_metric(W).valid

    def test_alternating_word_norm(self):
        X = matrix_space(["x0", "a"], [[0, 1], [1, 0]], basepoint="x0")
        Y = matrix_space(["y0", "b"], [[0, 3], [3, 0]], basepoint="y0")
        rep = wedge_embed_check(X, Y, 2, 8)
        assert rep.ok and rep.pairs_checked > 0

    def test_exhaustive_isometry_small(self):
        X = matrix_space(
            ["x0", "a", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], basepoint="x0"
        )
        Y = matrix_space(["y0", "b"], [[0, 2], [2, 0]], basepoint="y0")
        rep = wedge_embed_check(X, Y, 3, 6)
        assert rep.ok, rep.mismatches[:3]

    def test_distances_match_definition_on_random_bases(self):
        # same side: the factor's own distance; across: ||p||_X + ||q||_Y; the
        # wedge point "*" is the basepoint of both factors
        rng = random.Random(7)

        def random_base(tag):
            n = rng.randint(1, 4)
            pts = rng.sample([(i, j) for i in range(5) for j in range(5)], n)
            unit = Fraction(1, rng.randint(1, 3))
            rows = [[unit * (abs(p[0] - q[0]) + abs(p[1] - q[1])) for q in pts] for p in pts]
            ids = [f"{tag}{i}" for i in range(n)]
            base = rng.randrange(n)
            return matrix_space(ids, rows, basepoint=ids[base]), ids, rows, base

        for _ in range(30):
            X, xs, dX, bx = random_base("p")
            Y, ys, dY, by = random_base("q")
            W = wedge_space(X, Y)
            side = {"*": ("x", bx)}
            side.update({("x", p): ("x", i) for i, p in enumerate(xs) if i != bx})
            side.update({("y", q): ("y", j) for j, q in enumerate(ys) if j != by})
            assert set(W.points) == set(side) and W.basepoint == "*"
            for a, b in itertools.product(W.points, repeat=2):
                (sa, i), (sb, j) = side[a], side[b]
                if b == "*":
                    sb = sa  # "*" sits on either side at that side's basepoint
                    j = bx if sa == "x" else by
                if sa == sb:
                    want = (dX if sa == "x" else dY)[i][j]
                else:
                    (_, i), (_, j) = sorted([side[a], side[b]])
                    want = dX[bx][i] + dY[by][j]
                assert W._dist(a, b) == want, (a, b)


# ---------------------------------------------------------------------------
# pins and brute-force references for the word window, cones and V-families


def base_interval():
    return interval_window(0, 3)


def base_xab_fractional():
    return matrix_space(
        ["x0", "a", "b"],
        [[0, "1/2", "3/2"], ["1/2", 0, "3/2"], ["3/2", "3/2", 0]],
        basepoint="x0",
        name="Xab/2",
    )


def base_z_wedge():
    from apckit.groups import ZdModel, cayley_ball

    Z = ZdModel(1)
    ball = cayley_ball(Z, Z.standard_gens(), 2).space
    return wedge_space(ball, ball)


PIN_BASES = {
    "xab": base_xab,
    "interval": base_interval,
    "xab-fractional": base_xab_fractional,
    "z-wedge": base_z_wedge,
}
PIN_WINDOWS = [(2, 4), (3, 6), (2, 5)]
PIN_STREAMS = [(1,), (1, 2), (2, 2, 3)]


def _pin_cases(base_name, oracle_name):
    from apckit.covers import exact_oracle, greedy_oracle

    oracle = {"exact": exact_oracle, "greedy": greedy_oracle}[oracle_name]
    X = PIN_BASES[base_name]()
    for window, prefix in itertools.product(PIN_WINDOWS, PIN_STREAMS):
        yield X, oracle, window, ScaleSequence(prefix)


def _sha(parts):
    import hashlib

    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def cover_digest(base_name, oracle_name):
    """Canonical witness, sorted meta, margin, reduced words and artifacts of
    free_product_cover over every pinned window and stream."""
    return cases_cover_digest(_pin_cases(base_name, oracle_name))


def cases_cover_digest(cases):
    """cover_digest over the cases (base, oracle factory, (m, L), stream)."""
    from apckit.io import canonical_dumps, witness_to_obj
    from apckit.metric import ConstructionError, sorted_points

    parts = []
    for X, oracle, (m, L), s in cases:
        try:
            res = free_product_cover(oracle(X), s, fp_window(X, m, L))
        except (ConstructionError, InputError) as e:
            parts.append(f"{type(e).__name__}: {e}")
            continue
        parts.append(canonical_dumps(witness_to_obj(s, res.witness)))
        parts.append(repr(sorted(res.witness.meta.items())))
        parts.append(repr((res.margin, sorted_points(res.reduced_points), res.artifacts)))
    return _sha(parts)


def v_families_digest(base_name, oracle_name):
    """Families, bounds, R* and the whole coverage certificate of
    build_v_families over every pinned window and stream."""
    return cases_v_families_digest(_pin_cases(base_name, oracle_name))


def cases_v_families_digest(cases):
    """v_families_digest over the cases (base, oracle factory, (m, L), stream)."""
    from apckit.metric import sorted_points

    parts = []
    for X, oracle, (m, L), s in cases:
        vf = build_v_families(oracle(X), s, fp_window(X, m, L))
        cert = vf.certificate
        parts.append(repr([[sorted_points(u) for u in fam.sets] for fam in vf.families]))
        parts.append(repr((vf.bounds, vf.R_star, cert.R_star, cert.ok, cert.problems)))
        parts.append(repr([(a.word, a.family, sorted_points(a.member), a.split)
                           for a in cert.assignments]))
    return _sha(parts)


PIN_KEYS = list(itertools.product(PIN_BASES, ["exact", "greedy"]))

COVER_PINS = {
    ("xab", "exact"): "06abc1153368de63f465d3881fa0c39ab6940b547922b666013d8414023af39b",
    ("xab", "greedy"): "06abc1153368de63f465d3881fa0c39ab6940b547922b666013d8414023af39b",
    ("interval", "exact"): "505a8af743a45909e28931a6591be5e8d9de60d800da37b0728e14c7869a0711",
    ("interval", "greedy"): "505a8af743a45909e28931a6591be5e8d9de60d800da37b0728e14c7869a0711",
    ("xab-fractional", "exact"): "504821a599735d1f05a837cd86fd85cbe2a59200cc2e7335b30cdaf45e8f56d1",
    ("xab-fractional", "greedy"): "504821a599735d1f05a837cd86fd85cbe2a59200cc2e7335b30cdaf45e8f56d1",
    ("z-wedge", "exact"): "0b9546ed6522b9c60757818da645d5fb11a67b6d003dfc3cb42daafe399229b0",
    ("z-wedge", "greedy"): "0b9546ed6522b9c60757818da645d5fb11a67b6d003dfc3cb42daafe399229b0",
}

V_FAMILY_PINS = {
    ("xab", "exact"): "976418db9982b09059b02fdde9ceaccd773eda0b4cc1488adbc4057acdeb8bf1",
    ("xab", "greedy"): "976418db9982b09059b02fdde9ceaccd773eda0b4cc1488adbc4057acdeb8bf1",
    ("interval", "exact"): "43e20f811dfb8d86f295dbafb82f8a6113210a1b9286f38f1ef319e4e21b8a88",
    ("interval", "greedy"): "43e20f811dfb8d86f295dbafb82f8a6113210a1b9286f38f1ef319e4e21b8a88",
    ("xab-fractional", "exact"): "976418db9982b09059b02fdde9ceaccd773eda0b4cc1488adbc4057acdeb8bf1",
    ("xab-fractional", "greedy"): "976418db9982b09059b02fdde9ceaccd773eda0b4cc1488adbc4057acdeb8bf1",
    ("z-wedge", "exact"): "a8106e97ae83d6bc0586f728f90d8ecf427051527c5b80b5faeec05e62d4ab31",
    ("z-wedge", "greedy"): "a8106e97ae83d6bc0586f728f90d8ecf427051527c5b80b5faeec05e62d4ab31",
}


class TestFreeProductPins:
    """free_product_cover and build_v_families outputs pinned by SHA-256, so a
    rewrite of the word window, cones or V-families that changes any family,
    bound, assignment, problem, meta entry, margin or artifact shows here."""

    @pytest.mark.parametrize("base_name, oracle_name", PIN_KEYS)
    def test_cover(self, base_name, oracle_name):
        assert cover_digest(base_name, oracle_name) == COVER_PINS[base_name, oracle_name]

    @pytest.mark.parametrize("base_name, oracle_name", PIN_KEYS)
    def test_v_families(self, base_name, oracle_name):
        assert v_families_digest(base_name, oracle_name) == V_FAMILY_PINS[base_name, oracle_name]


# interval_oracle on [0, 5] at R* = 2: letters 3, 4 and 5 are heavy, the
# V-family bounds are [1, 1, 0] and V-family 1 has a member of diameter 1,
# so the V-family mesh check is tight; the cover has 31 words, 25 reduced
POSITIVE_MESH_CASE = [(interval_window(0, 5), interval_oracle, (2, 12), ScaleSequence((2,)))]
POSITIVE_MESH_PINS = (
    "2613f5a21f204d87c3fff218376f0146ac73fcaf4eb35f44c4891576e85f859d",
    "c5c55c98985a7d61e0162d9af770763ce78719a19c5720052411b12488c3cd8f",
)


class TestPositiveMeshPin:
    """A free-product pin with positive base mesh and heavy letters, where
    the exact- and greedy-oracle pins have mesh 0."""

    def test_the_v_family_mesh_bound_is_met_with_equality(self):
        [(X, oracle, (m, L), s)] = POSITIVE_MESH_CASE
        win = fp_window(X, m, L)
        vf = build_v_families(oracle(X), s, win)
        assert vf.R_star == 2 and vf.bounds == [1, 1, 0] and vf.certificate.ok
        assert max(set_diameter(win.space, u) for u in vf.families[0].sets) == 1
        res = free_product_cover(oracle(X), s, win)
        assert verify_apc_witness(win.space, s, res.witness,
                                  require_cover_of=res.reduced_points).ok
        assert (len(win.words), len(res.reduced_points)) == (31, 25)

    def test_cover(self):
        assert cases_cover_digest(POSITIVE_MESH_CASE) == POSITIVE_MESH_PINS[0]

    def test_v_families(self):
        assert cases_v_families_digest(POSITIVE_MESH_CASE) == POSITIVE_MESH_PINS[1]


def brute_window_words(X, m, L):
    """Non-basepoint letter tuples of order <= m and norm <= L, by enumeration."""
    letters = [x for x in X.points if x != X.basepoint]
    return {
        w
        for k in range(m + 1)
        for w in itertools.product(letters, repeat=k)
        if sum(X.dist(X.basepoint, c) for c in w) <= L
    }


def brute_cone(win, A, R):
    """Window words that extend some a in A by letters of norm <= R."""
    small = {x for x, nx in win.letter_norm.items() if nx <= R}
    return {
        w for w in win.words
        if any(w[: len(a)] == a and set(w[len(a):]) <= small for a in A)
    }


def brute_v_families(witness, win, R_star):
    """V-families as sets of members and the assignment of every word, straight
    from the definition: family i holds x . (U minus the R*-ball) for window
    words x and members U of base family i; a word goes to the first base set,
    in witness order, that holds its last heavy letter."""
    heavy = {x for x, nx in win.letter_norm.items() if nx > R_star}

    def member(x, U):
        return frozenset(x + (u,) for u in U & heavy if x + (u,) in win.word_set)

    families = [
        {member(x, U) for x in win.words for U in e.family.sets} - {frozenset()}
        for e in witness.entries
    ]
    n = len(witness.entries)
    assignments = []
    for w in win.words:
        pos = [k for k, c in enumerate(w) if c in heavy]
        if not pos:
            assignments.append((w, n + 1, frozenset({EPSILON}), None))
            continue
        k = pos[-1]
        i, U = next((i, U) for i, e in enumerate(witness.entries, start=1)
                    for U in e.family.sets if w[k] in U)
        assignments.append((w, i, member(w[:k], U), k))
    return families, assignments


class TestAgainstDefinitions:
    @pytest.mark.parametrize("base_name", list(PIN_BASES))
    @pytest.mark.parametrize("m, L", [(0, 3), (1, Fraction(1, 2)), (2, 4), (3, 6), (4, 5)])
    def test_window_words(self, base_name, m, L):
        X = PIN_BASES[base_name]()
        win = fp_window(X, m, L)
        assert len(win.words) == len(set(win.words))
        assert set(win.words) == brute_window_words(X, m, L)
        for w in win.words:
            assert win.norm(w) == fp_distance(X, (), w)

    @pytest.mark.parametrize("base_name", list(PIN_BASES))
    def test_cone_window(self, base_name):
        X = PIN_BASES[base_name]()
        win = fp_window(X, 3, 5)
        rng = random.Random(base_name)
        for _ in range(25):
            A = rng.sample(win.words, rng.randint(1, 4))
            for R in (-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3):
                assert cone_window(win, A, R) == brute_cone(win, A, R)

    @pytest.mark.parametrize("base_name", list(PIN_BASES))
    def test_v_families(self, base_name):
        from apckit.covers import exact_oracle

        X = PIN_BASES[base_name]()
        for (m, L), prefix in itertools.product(PIN_WINDOWS, PIN_STREAMS):
            win, s = fp_window(X, m, L), ScaleSequence(prefix)
            vf = build_v_families(exact_oracle(X), s, win)
            families, assignments = brute_v_families(
                exact_oracle(X).checked(s), win, vf.R_star)
            assert [set(f.sets) for f in vf.families[:-1]] == families
            assert [(a.word, a.family, a.member, a.split)
                    for a in vf.certificate.assignments] == assignments

    def test_overlapping_base_sets_at_negative_scale(self):
        # at scale -1 overlapping sets are disjoint enough; {a} and {x0, a}
        # give the same members, which the family holds once
        X = base_xab()
        sets = [{"x0", "a"}, {"a"}, {"a", "b"}, {"b"}]
        witness = witness_from_families([Family.of(sets)], scales(-1), [2])
        oracle = ApcOracle(X, lambda s: witness_from_families(
            [Family.of(sets)], s, [2]), name="overlap")
        for m, L in PIN_WINDOWS:
            win = fp_window(X, m, L)
            vf = build_v_families(oracle, scales(-1), win)
            assert vf.R_star == -1 and vf.certificate.ok
            families, assignments = brute_v_families(witness, win, -1)
            assert set(vf.families[0].sets) == families[0]
            assert len(vf.families[0].sets) == len(families[0])
            assert vf.families[1].sets == (frozenset({EPSILON}),)
            assert [(a.word, a.family, a.member, a.split)
                    for a in vf.certificate.assignments] == assignments


class TestConeScale:
    def test_pipeline_cone_trees_at_scale_zero(self):
        # streams below zero give cone covers at M = 0, which stay valid
        from apckit.covers import exact_oracle

        X = base_xab()
        for prefix in [(-2, -1, 0), (Fraction(-1, 2),)]:
            win, s = fp_window(X, 3, 6), ScaleSequence(prefix)
            res = free_product_cover(exact_oracle(X), s, win)
            assert verify_apc_witness(
                win.space, s, res.witness, require_cover_of=res.reduced_points).ok

    @pytest.mark.parametrize("M", [0, -1, Fraction(-1, 2)])
    def test_qi_check_refuses_non_positive_scale(self, M):
        win = fp_window(base_xab(), 2, 4)
        with pytest.raises(InputError):
            qi_check(win, {w(A), w(B)}, M)

    @pytest.mark.parametrize("scale", ["-1", "-5"])
    @pytest.mark.parametrize("kind", ["freeprod-cover", "free-product-zz"])
    def test_cli_covers_at_negative_scales(self, tmp_path, kind, scale):
        # below zero the default margin is 0, so the witness must cover the
        # whole window; the reference checks it on every pair
        out = str(tmp_path / "w.json")
        if kind == "freeprod-cover":
            base = base_xab()
            fio.save_space(str(tmp_path / "xab.json"), base)
            argv = ["freeprod", "cover", "--base", str(tmp_path / "xab.json"), "--window", "2,4"]
        else:  # the pipeline's default radius 8 and window 2,4
            ball = cayley_ball(ZdModel(1), ZdModel(1).standard_gens(), 8)
            base = wedge_space(ball.space, ball.space)
            argv = ["group", "pipeline", "--kind", "free-product-zz"]
        assert cli_main(argv + ["--scales", scale, "--out", out]) == 0
        space = fp_window(base, 2, 4).space
        s, witness = fio.load_witness(out)
        dist = {(p, q): space.dist(p, q) for p in space.points for q in space.points}
        slots = [(e.mesh_bound, e.family.sets) for e in witness.entries]
        assert check_witness(dist, [s.at(i) for i in range(1, len(slots) + 1)], slots) == set()


CORE_BASES = ["xab", "interval", "z-wedge", "xab-fractional"]


@functools.lru_cache(maxsize=None)
def core_window(base_name, m, L):
    return fp_window(PIN_BASES[base_name](), m, L)


@st.composite
def flat_components(draw):
    """A window of order <= 3, or <= 4 over the base whose minimal gap is 1/2,
    a flat core (a set of one-letter extensions of a prefix, or the trivial
    word alone) and deeper words that complete it to a component, some under
    the core and some anywhere, with the scales.  The fractional gap puts
    rt = ceil(r/E) + 3 at 3, 4 and 5, odd and even, and the order-4 windows
    reach a second annulus below one-letter cores as well as below the
    trivial word."""
    base_name = draw(st.sampled_from(CORE_BASES))
    m = draw(st.integers(1, 4 if base_name == "xab-fractional" else 3))
    L = draw(st.sampled_from([2, 3, Fraction(7, 2), 5]))
    win = core_window(base_name, m, L)
    if draw(st.booleans()):
        core = {EPSILON}
    else:
        prefix = draw(st.sampled_from(sorted_points({v[:-1] for v in win.words if v})))
        ext = [v for v in win.words if v and v[:-1] == prefix]
        core = draw(st.sets(st.sampled_from(ext), min_size=1))
    k = len(next(iter(core)))
    deeper = [v for v in win.words if len(v) > k]
    under = [v for v in deeper if v[:k] in core]
    C = set(core)
    for pool in (deeper, under):
        if pool:
            C |= draw(st.sets(st.sampled_from(pool), max_size=6))
    M = draw(st.sampled_from([0, Fraction(1, 2), 1, 2]))
    R = draw(st.sampled_from([-1, 0, Fraction(1, 2), 1]))
    D = draw(st.sampled_from([0, 1, Fraction(3, 2)]))
    margin = draw(st.sampled_from([0, 1, 2, L]))
    return win, frozenset(core), frozenset(C), M, R, D, margin


class TestCoreConeTree:
    """component_core checks a component's reach by its words' prefixes and
    keeps the core's diameter, and the free-product pipeline reads the cone
    tree's cover off the words, with no cone walked and no tree built."""

    @given(flat_components())
    @settings(max_examples=150, deadline=None)
    def test_report_matches_the_full_cone_walk(self, case):
        win, core, C, M, R, D, margin = case
        rep = component_core(win, C, M, R, D, margin=margin)
        assert rep.flat and rep.core == core
        assert (rep.artifacts, rep.hard_failures) == core_reach_failures(win, C, M, R, D, margin)
        assert rep.core_diameter == set_diameter(win.space, core)
        cone = cone_window(win, core, cone_radius(M, R, D))
        for r in (0, Fraction(1, 2), 1, 2):
            want, _ = cone_cover(win, core, cone_radius(M, R, D), r)
            assert prefix_cover(win, core, cone, -(-r // win.E) + 3) == want

    @given(flat_components())
    @example((core_window("xab", 2, 5), frozenset({w(A), w(B)}), frozenset({w(A), w(B)}),
              0, 0, 0, 0))
    @example((core_window("xab-fractional", 4, 5), frozenset({EPSILON}),
              frozenset({EPSILON, w(A), w(A, A), w(A, A, A), w(A, A, A, A),
                         w(A, B), w(B, A, A)}),
              1, -1, Fraction(3, 2), 0))
    @settings(max_examples=150, deadline=None)
    def test_subcover_cuts_the_reference_cone_cover_to_the_component(self, case):
        # cover(C) is the reference cover of the core's radius cone cut to C,
        # and B is the reference bound with the core cap; cover(C) refuses
        # exactly a hard core failure or an inner component over the cap,
        # which the strategy seldom draws, so the example pins one
        from apckit.freeprod import cone_radius, family_subcover
        from apckit.metric import ConstructionError

        win, core, C, M, R, D, margin = case
        radius = cone_radius(M, R, D)
        cap = 2 * radius
        artifacts = []
        B, cover = family_subcover(win, margin, M, D, R, artifacts)
        assert B == cone_cover_bound(win.E, cap, radius, max(R, 0))
        reached, hard = core_reach_failures(win, C, M, R, D, margin)
        over = set_diameter(win.space, core) > cap
        inner = all(win.norm(v) <= win.max_norm - margin for v in C)
        if hard or (over and inner):
            with pytest.raises(ConstructionError):
                cover(C)
            return
        fams = cover(C)
        if over:
            assert all(len(f) == 0 for f in fams)
            assert sorted_points(artifacts) == sorted_points(reached + list(C))
            return
        want, _ = cone_cover(win, core, radius, max(R, 0))
        assert fams == [Family.of([s & C for s in f.sets]) for f in want]
        assert artifacts == reached

    def test_a_non_flat_core_has_no_cone_tree(self):
        win = fp_window(base_xab(), 3, 6)
        rep = component_core(win, {w(A, B), w(B, A)}, 1, 0, 0)
        assert not rep.flat and rep.core_diameter is None
        with pytest.raises(InputError, match="flat"):
            qi_check(win, rep.core, 1)

    @pytest.mark.parametrize("base_name, m, L, prefix", [
        ("xab", 3, 9, (1,)), ("xab", 3, 9, (1, 1, 2)), ("interval", 3, 6, (1, 2)),
        ("z-wedge", 2, 5, (2, 2, 3)),
    ])
    def test_each_flat_component_walks_its_cone_once(self, monkeypatch, base_name, m, L, prefix):
        # cone_window runs once per V-family only and the core's diameter is
        # taken once per flat component: a component's reach and cover are
        # read off its words' prefixes, so no cone is walked for it and no
        # cone tree, rooted tree or tree cover is built
        from apckit import freeprod, trees
        from apckit.covers import exact_oracle

        X = PIN_BASES[base_name]()
        counts = collections.Counter()
        reports = []

        def counted(name, record=None):
            real = getattr(freeprod, name)

            def wrapper(*a, **kw):
                counts[name] += 1
                out = real(*a, **kw)
                if record is not None:
                    record.append(out)
                return out

            monkeypatch.setattr(freeprod, name, wrapper)

        counted("cone_window")
        counted("set_diameter")
        counted("verify_apc_witness")
        counted("component_core", reports)
        real_cover, real_init = trees.tree_cover, trees.RootedTree.__init__
        monkeypatch.setattr(trees, "tree_cover",
                            lambda *a: counts.update(["tree_cover"]) or real_cover(*a))
        monkeypatch.setattr(trees.RootedTree, "__init__",
                            lambda *a: counts.update(["RootedTree"]) or real_init(*a))
        res = free_product_cover(exact_oracle(X), ScaleSequence(prefix), fp_window(X, m, L))
        monkeypatch.undo()
        flat = sum(rep.flat for rep in reports)
        assert flat > 0
        vf = res.v_families.families
        assert counts["cone_window"] == len(vf)
        assert counts["tree_cover"] == counts["RootedTree"] == 0
        assert not hasattr(freeprod, "tree_cover") and not hasattr(freeprod, "cone_tree")
        # the V-family members' diameters are the verifier's, run once
        assert counts["set_diameter"] == flat
        assert counts["verify_apc_witness"] == 1

    @pytest.mark.parametrize("hi, prefix", [(3, (2,)), (5, (2,)), (5, (3,))])
    def test_a_family_bound_holds_each_components_own_bound(self, monkeypatch, hi, prefix):
        # interval_oracle's blocks give the V-families a positive mesh D_i,
        # which the cone radius must add: the bound subcover gives a family
        # is at least the cone-tree bound of each of its flat components
        from apckit import freeprod
        from apckit.covers import CountingStream, MappedStream, interval_oracle

        X = interval_window(0, hi)
        win = fp_window(X, 2, 9)
        hyp = FreeProductHypothesis(interval_oracle(X), win, 9)
        reports = []
        real = freeprod.component_core
        monkeypatch.setattr(freeprod, "component_core",
                            lambda *a, **kw: reports.append(real(*a, **kw)) or reports[-1])
        sub = MappedStream(CountingStream(ScaleSequence(prefix)), lambda i: 2 * i)
        positive = 0
        for i, (R, fam) in enumerate(hyp.families(sub), start=1):
            if not fam.sets:
                continue
            bound, cover = freeprod.family_subcover(win, 9, hyp.M, hyp.vf.bounds[i - 1], R, [])
            reports.clear()
            for U in fam.sets:
                cover(U)
            radius = cone_radius(hyp.M, R, hyp.vf.bounds[i - 1])
            trees = [cone_tree(win, rep.core, radius) for rep in reports if rep.flat]
            assert all(cone_tree_cover(tree, max(R, 0))[1] <= bound for tree in trees)
            positive += bool(trees) and hyp.vf.bounds[i - 1] > 0
        assert positive

    @pytest.mark.parametrize("margin", [0, 9])
    def test_an_oversized_core_is_an_artifact_only_at_the_boundary(self, margin):
        # V-family bound 0 and cone scale 0 cap the core's diameter at 0 for
        # R = 0, and the flat core {(a,), (b,)} has diameter 2
        from apckit import freeprod
        from apckit.metric import ConstructionError

        artifacts = []
        U = {w(B), w(A)}
        bound, cover = freeprod.family_subcover(fp_window(base_xab(), 2, 9), margin, 0, 0, 0,
                                                artifacts)
        if margin == 0:
            with pytest.raises(ConstructionError, match="uniform diameter cap"):
                cover(U)
            return
        fams = cover(U)
        assert bound == 0 and all(len(f) == 0 for f in fams)
        assert sorted(artifacts) == [w(A), w(B)]
