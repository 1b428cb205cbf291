import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apckit.covers import ScaleSequence, verify_apc_witness, witness_from_families
from apckit.metric import (
    Family,
    FiniteMetricSpace,
    InputError,
    family_is_R_disjoint,
    r_components,
    set_diameter,
    validate_metric,
)
from apckit.trees import (
    RootedTree,
    set_tree_diameter,
    tree_cover,
    tree_from_edges,
    tree_oracle,
)
from reference import ancestor_at_depth, height, random_tree


def path_tree(n):
    return RootedTree({0: None, **{i: i - 1 for i in range(1, n)}})


class TestTreeMetric:
    def test_path_depths_and_distance(self):
        t = path_tree(3)
        assert t.distance(0, 2) == 2

    def test_siblings(self):
        t = tree_from_edges("r", [("r", "u"), ("r", "v")])
        assert t.distance("u", "v") == 2

    def test_single_root_enforced(self):
        with pytest.raises(InputError):
            RootedTree({0: None, 1: None})
        with pytest.raises(InputError):
            RootedTree({0: 1, 1: 0})

    def test_random_trees_validate(self):
        rng = random.Random(2)
        for _ in range(8):
            t = random_tree(rng.randint(2, 40), rng)
            assert validate_metric(t.as_space()).valid

    def test_triangle_equality_along_paths(self):
        t = path_tree(6)
        assert t.distance(0, 5) == t.distance(0, 3) + t.distance(3, 5)

    def test_set_tree_diameter_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(25):
            t = random_tree(rng.randint(2, 30), rng)
            S = rng.sample(list(t.vertices), rng.randint(1, len(t)))
            # a plain space, so the diameter comes from all pairs, not the tree index
            brute = set_diameter(FiniteMetricSpace(t.vertices, t.distance), S)
            assert set_tree_diameter(t, S) == brute


class TestTreeCover:
    def test_path_example(self):
        t = path_tree(6)
        cover = tree_cover(t, 2)
        assert set(cover.even.sets) == {frozenset({0, 1}), frozenset({4, 5})}
        assert set(cover.odd.sets) == {frozenset({2, 3})}
        assert cover.mesh_bound == 4

    @pytest.mark.parametrize("r", [2, "2", 2.0, Fraction(4, 2)])
    def test_integral_r_in_any_form_gets_bound_3r_minus_2(self, r):
        cover = tree_cover(path_tree(6), r)
        assert cover.mesh_bound == 4 and type(cover.mesh_bound) is int

    def test_huge_r_single_annulus(self):
        t = path_tree(4)
        cover = tree_cover(t, 10)
        assert len(cover.even) == 1 and len(cover.odd) == 0
        assert cover.even.sets[0] == frozenset(t.vertices)

    def test_star_singletons(self):
        t = random_tree(51, shape="star")
        cover = tree_cover(t, 1)
        assert cover.even.sets == (frozenset({0}),)
        assert len(cover.odd) == 50
        assert all(len(s) == 1 for s in cover.odd.sets)

    def test_r_below_one_rejected(self):
        with pytest.raises(InputError):
            tree_cover(path_tree(3), Fraction(1, 2))

    def test_components_match_generic_r_components(self):
        rng = random.Random(4)
        r_pool = [1, 2, 3, 4, 5, Fraction(5, 2), Fraction(7, 3)]
        for _ in range(18):
            t = random_tree(rng.randint(2, 60), rng)
            r = rng.choice(r_pool)
            cover = tree_cover(t, r)
            space = t.as_space()
            # reconstruct annuli from the cover and compare against the
            # generic union-find components of each annulus
            got = sorted(
                [sorted(s) for fam in cover.families() for s in fam.sets]
            )
            expected = []
            i = 0
            while i * r <= height(t):
                members = [v for v in t.vertices if i * r <= t.depth[v] < (i + 1) * r]
                if members:
                    expected.extend(sorted(c) for c in r_components(space, members, r))
                i += 1
            assert got == sorted(expected), (len(t), r)

    def test_full_contract_random_trees(self):
        rng = random.Random(11)
        for _ in range(10):
            t = random_tree(rng.randint(2, 120), rng,
                            shape=rng.choice(["attach", "path", "star", "caterpillar"]))
            for r in (1, 2, 3, 5):
                cover = tree_cover(t, r)
                space = t.as_space()
                support = set()
                for fam in cover.families():
                    ok, bad = family_is_R_disjoint(space, fam, r)
                    assert ok, bad
                    for s in fam.sets:
                        support |= s
                        assert set_tree_diameter(t, s) <= 3 * r - 2
                assert support == set(t.vertices)

    def test_rational_r_cover_valid(self):
        rng = random.Random(5)
        t = random_tree(40, rng)
        r = Fraction(5, 2)
        cover = tree_cover(t, r)
        space = t.as_space()
        for fam in cover.families():
            ok, _ = family_is_R_disjoint(space, fam, r)
            assert ok
            for s in fam.sets:
                assert set_tree_diameter(t, s) <= 3 * r

    def test_anchor_containment(self):
        # every component sits inside the subtree of its annulus anchor depth
        rng = random.Random(6)
        t = random_tree(200, rng)
        for r in (2, 4):
            cover = tree_cover(t, r)
            for parity, fam in enumerate(cover.families()):
                for s in fam.sets:
                    depths = [t.depth[v] for v in s]
                    i = min(depths) // r
                    h = max(0, math.ceil(i * r) - math.floor(r) // 2)
                    anc = {ancestor_at_depth(t, v, h) for v in s}
                    assert len(anc) == 1


@given(st.sampled_from(["attach", "path", "star", "caterpillar"]), st.integers(1, 40),
       st.integers(0, 2**16),
       st.sampled_from([1, 2, 3, 5, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)]))
@settings(max_examples=300, deadline=None)
def test_families_are_the_r_components_of_each_annulus(shape, n, seed, r):
    # a plain space, so the components come from the generic all-pairs code;
    # an anchor that splits a component still leaves a valid cover, so only
    # this comparison catches it
    tree = random_tree(n, random.Random(seed), shape=shape)
    plain = FiniteMetricSpace(tree.vertices, tree.distance)
    cover = tree_cover(tree, r)
    for parity, fam in enumerate(cover.families()):
        expected = []
        i = parity
        while i * r <= height(tree):
            members = [v for v in tree.vertices if i * r <= tree.depth[v] < (i + 1) * r]
            expected.extend(r_components(plain, members, r))
            i += 2
        assert fam == Family.of(expected), (shape, n, seed, r, parity)


class TestTreeOracle:
    def test_witness_passes_for_repeat_stream(self):
        rng = random.Random(8)
        for _ in range(6):
            t = random_tree(rng.randint(2, 80), rng)
            r = rng.randint(1, 6)
            oracle = tree_oracle(t)
            s = ScaleSequence([r])
            w = oracle.checked(s)
            assert verify_apc_witness(oracle.space, s, w).ok
