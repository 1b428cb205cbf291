import itertools
import random
from fractions import Fraction

import pytest

from apckit.covers import ApcOracle, ScaleSequence, verify_apc_witness, witness_from_families
from apckit.metric import (
    Family,
    InputError,
    interval_window,
    matrix_space,
    set_diameter,
    validate_metric,
)
from apckit.freeprod import (
    EPSILON,
    build_v_families,
    component_core,
    cone_cover,
    cone_tree,
    cone_window,
    fp_distance,
    fp_window,
    free_product_cover,
    is_flat,
    qi_check,
    wedge_embed_check,
    wedge_space,
    word_norm,
    words_adjacent,
)


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
        assert word_norm(X, w(A, B)) == 3
        assert len(EPSILON) == 0
        assert w(A) + w(B, A) == w(A, B, A)
        assert word_norm(X, w(A) + w(B, A)) == 4

    def test_basepoint_letter_rejected(self):
        X = base_xab()
        with pytest.raises(InputError):
            word_norm(X, ("x0",))


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
            assert win.dist(u, v) == win.dist(v, u)


class TestWindow:
    def test_order_one(self):
        win = fp_window(base_xab(), 1, 9)
        assert set(win.words) == {EPSILON, w(A), w(B)}
        assert win.dist(w(A), w(B)) == 2

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
            assert win.norm(word) == win.dist(EPSILON, word)

    def test_E_is_min_gap(self):
        assert fp_window(base_xab(), 1, 1).E == 1


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
        rep = qi_check(ct)
        assert rep.ok

    def test_no_extensions_below_gap(self):
        win = fp_window(base_xab(), 2, 9)
        ct = cone_tree(win, {w(A)}, Fraction(1, 2))
        assert ct.cone == {w(A)}

    def test_flat_pair_base(self):
        win = fp_window(base_xab(), 3, 9)
        ct = cone_tree(win, {w(A, B), w(A, A)}, 2)
        assert qi_check(ct).ok

    def test_root_adjacent_exactly_to_base(self):
        win = fp_window(base_xab(), 3, 9)
        ct = cone_tree(win, {w(A, B), w(A, A)}, 2)
        from apckit.freeprod import ROOT

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
            cone_tree(win, {w(A), w(A, B)}, 1)

    def test_qi_all_flat_bases_small_window(self):
        win = fp_window(base_xab(), 3, 9)
        prefixes = [word for word in win.words if len(word) <= 2]
        for prefix, M in itertools.product(prefixes, (1, 2, 3)):
            ext = [prefix + (c,) for c in (A, B) if prefix + (c,) in win.word_set]
            for k in (1, 2):
                for combo in itertools.combinations(ext, k):
                    ct = cone_tree(win, set(combo), M)
                    assert qi_check(ct).ok


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
        assert rep.ok

    def test_single_word(self):
        win = fp_window(base_xab(), 2, 9)
        rep = component_core(win, {w(A, B)}, 1, 1, 0)
        assert rep.core == {w(A, B)} and rep.ok

    def test_nonempty_required(self):
        win = fp_window(base_xab(), 2, 9)
        with pytest.raises(InputError):
            component_core(win, set(), 1, 1, 0)


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
        # the second families() call, made by decompose, must reuse the first
        # and still leave the witness a fresh hypothesis would give, down to
        # meta["scales_consumed"]
        from apckit import freeprod
        from apckit.combinators import decompose
        from apckit.covers import exact_oracle

        X = base_xab()

        def lookahead_oracle(space):
            # reads a scale far past the slots it fills
            inner = exact_oracle(space)
            return ApcOracle(space, lambda sc: (sc.at(5), inner(sc))[1], name="ahead")

        for prefix, oracle in itertools.product([(1,), (1, 2), (1, 1, 2)],
                                                [exact_oracle, lookahead_oracle]):
            win, s = fp_window(X, 3, 9), ScaleSequence(prefix)
            calls = []
            real = freeprod.build_v_families
            monkeypatch.setattr(freeprod, "build_v_families",
                                lambda *a: calls.append(1) or real(*a))
            res = free_product_cover(oracle(X), s, win)
            monkeypatch.undo()
            assert len(calls) == 1
            fresh = freeprod._FreeProductDecomposable(oracle(X), win, res.margin)
            ref = decompose(win.space, 2, fresh, s,
                            allow_uncovered=win.word_set - res.reduced_points)
            assert res.witness.entries == ref.entries
            assert res.witness.meta == {**ref.meta, "margin": res.margin,
                                        "artifacts": len(fresh.artifacts)}
            assert res.v_families.families == fresh.vf.families

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
