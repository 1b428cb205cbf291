"""Tests of the benchmark's own witness checker.

Run from the repository root:

    python3 -m pytest -q apcbench/test_checker.py

Each geometry gets a hand-built valid witness and four planted faults: two
sets merged into one inside a slot, a dropped point, a lowered mesh bound and
a pair closer than the slot's scale.  A checker that accepted everything
would fail every fault test.
"""

import itertools
import json
from fractions import Fraction

import pytest

import checker as ck


def blocks_cover(points, block):
    """Boxes of side ``block`` (clipped to the points), one family per parity of box index."""
    slots = {}
    for p in points:
        idx = tuple(c // block for c in p)
        slots.setdefault(tuple(i % 2 for i in idx), {}).setdefault(idx, set()).add(p)
    return [list(slots[k].values()) for k in sorted(slots)]


def grid(*shape):
    return {p for p in itertools.product(*(range(s) for s in shape))}


def merged(slots, slot):
    out = [list(sets) for _, sets in slots]
    sets = out[slot]
    sets[0] = set(sets[0]) | set(sets.pop(1))
    return [(m, s) for (m, _), s in zip(slots, out)]


def dropped(slots, point):
    return [(m, [set(S) - {point} for S in sets]) for m, sets in slots]


def lowered(slots, slot, mesh_sq):
    out = list(slots)
    out[slot] = (mesh_sq, slots[slot][1])
    return out


def with_extra_set(slots, slot, extra):
    out = list(slots)
    out[slot] = (slots[slot][0], slots[slot][1] + [set(extra)])
    return out


# ---------------------------------------------------------------------------
# the cases: geometry, universe, scale prefix, valid slots, a point to drop,
# the slot to tamper with, a mesh bound too low for it, and a set whose
# points lie within the scale of a set of that slot


def l2_product_case():
    pts = grid(8, 8)
    slots = [(2, fam) for fam in blocks_cover(pts, 2)]  # 2x2 boxes: diameter^2 = 2
    # (2, 0) sits next to the box {0,1}x{0,1} of the first family
    return ck.Lattice("l2"), pts, [1], slots, (5, 6), 0, 1, {(2, 0)}


def l1_grid_case():
    pts = grid(6, 6, 4)
    slots = [(9, fam) for fam in blocks_cover(pts, 2)]  # l1 diameter 3
    return ck.Lattice("l1"), pts, [1], slots, (3, 3, 3), 0, 4, {(2, 0, 0)}


def l1_diamond_case():
    L = 4
    pts = {(a, b) for a in range(-L, L + 1) for b in range(-L, L + 1) if abs(a) + abs(b) <= L}
    # 2x2 boxes clipped at the rim of the l1 ball: many sets are not boxes
    slots = [(4, fam) for fam in blocks_cover(pts, 2)]
    return ck.Lattice("l1"), pts, [1], slots, (-1, 2), 0, 1, {(2, 0)}


def tree_case():
    # a path 0..9 with a branch 10, 11 hanging off vertex 4
    parent = {0: None, **{v: v - 1 for v in range(1, 10)}, 10: 4, 11: 10}
    even = [{0, 1}, {4, 5, 10}, {8, 9}]
    odd = [{2, 3}, {6, 7}, {11}]
    slots = [(4, even), (4, odd)]
    return ck.Tree(parent), set(parent), [1], slots, 7, 0, 3, {2}


def xab_words():
    return ck.Words({"a": 1, "b": 2}.__getitem__, lambda p, q: 0 if p == q else 2)


def words_case():
    words = xab_words()
    universe = words.window(["a", "b"], 2, 3)
    a, b = ("a",), ("b",)
    slots = [(4, [{a, b}]),  # d(a, b) = 2
             (0, [{()}, {("b", "a")}])]  # 3 apart
    slots += [(0, [{w}]) for w in universe if w not in {a, b, (), ("b", "a")}]
    return words, universe, [1], slots, ("a", "a"), 0, 3, {("a", "a")}


def wedge_case():
    words = ck.wedge_of_z_balls()
    letters = [(s, (k,)) for s in "xy" for k in (-1, 1)]
    universe = words.window(letters, 2, 2)
    x1, y1 = ("x", (1,)), ("y", (1,))
    slots = [(4, [{(x1,), (y1,)}]),  # d = 1 + 1
             (0, [{()}, {(y1, y1)}])]  # 2 apart
    slots += [(0, [{w}]) for w in universe if w not in {(x1,), (y1,), (), (y1, y1)}]
    return words, universe, [1], slots, (x1, x1), 0, 3, {(x1, x1)}


CASES = {
    "l2-product": l2_product_case,
    "l1-grid": l1_grid_case,
    "l1-diamond": l1_diamond_case,
    "tree": tree_case,
    "words": words_case,
    "wedge": wedge_case,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_valid_witness_passes(case):
    geometry, universe, prefix, slots, *_ = case
    assert ck.check_witness(geometry, universe, prefix, slots) is None


def test_merged_sets_break_the_mesh(case):
    geometry, universe, prefix, slots, _, slot, *_ = case
    bad = merged(slots, next(i for i, (_, sets) in enumerate(slots) if len(sets) >= 2))
    finding = ck.check_witness(geometry, universe, prefix, bad)
    assert finding is not None and finding.condition == "mesh"
    assert ck.confirm(geometry, prefix, bad, "mesh", finding.slot, finding.points)


def test_dropped_point_breaks_coverage(case):
    geometry, universe, prefix, slots, point, *_ = case
    bad = dropped(slots, point)
    finding = ck.check_witness(geometry, universe, prefix, bad)
    assert finding == ck.Finding("coverage", None, (point,))
    assert ck.confirm(geometry, prefix, bad, "coverage", None, (point,))
    assert not ck.confirm(geometry, prefix, slots, "coverage", None, (point,))


def test_lowered_mesh_bound(case):
    geometry, universe, prefix, slots, _, slot, low, _ = case
    bad = lowered(slots, slot, low)
    finding = ck.check_witness(geometry, universe, prefix, bad)
    assert finding is not None and (finding.condition, finding.slot) == ("mesh", slot + 1)
    assert not ck.confirm(geometry, prefix, slots, "mesh", slot + 1, finding.points)


def test_pair_closer_than_R(case):
    geometry, universe, prefix, slots, _, slot, _, extra = case
    bad = with_extra_set(slots, slot, extra)
    finding = ck.check_witness(geometry, universe, prefix, bad)
    assert finding is not None and (finding.condition, finding.slot) == ("disjointness", slot + 1)
    assert ck.confirm(geometry, prefix, bad, "disjointness", slot + 1, finding.points)


def test_unknown_point_is_reported(case):
    geometry, universe, prefix, slots, *_ = case
    bad = with_extra_set(slots, 0, {("not", "a", "point")})
    assert ck.check_witness(geometry, universe, prefix, bad).condition == "unknown-point"


# ---------------------------------------------------------------------------
# distances and other specifics


def test_l2_distances_and_box_diameters():
    l2 = ck.Lattice("l2")
    assert l2.dist_sq((0, 0), (3, 4)) == 25
    box = {(x, y) for x in range(3) for y in range(5)}
    assert l2.diameter_sq(box) == 4 + 16
    ragged = box - {(2, 4)}
    assert l2.diameter_sq(ragged) == max(l2.dist_sq(p, q) for p in ragged for q in ragged)


def test_l1_diameter_of_sets_that_are_not_boxes():
    l1 = ck.Lattice("l1")
    shapes = [{(0, 0), (3, 1), (1, 4)}, {(0, 0, 0), (2, 0, 1), (0, 3, 0), (1, 1, 1)}]
    for S in shapes:
        assert l1.diameter_sq(S) == max(l1.dist_sq(p, q) for p in S for q in S)


def test_l2_close_pair_between_ragged_sets():
    l2 = ck.Lattice("l2")
    A = {(0, 0), (0, 1), (1, 0)}  # the boxes overlap; the sets are sqrt(2) apart
    B = {(1, 2), (2, 1), (2, 2)}
    assert l2.close_pair([A, B], 1) is None
    assert l2.close_pair([A, B], Fraction(3, 2)) in [(0, 1, (0, 1), (1, 2)),
                                                    (0, 1, (1, 0), (2, 1))]


def test_tree_distances_match_breadth_first_search():
    parent = {0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 6: 5, 7: 2, 8: 7, 9: 8}
    tree = ck.Tree(parent)
    for src in parent:
        dist, frontier = {src: 0}, [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in tree.adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for v in parent:
            assert tree.dist(src, v) == dist[v]


def test_tree_close_pair_finds_the_nearest_cross_pair():
    parent = {v: (None if v == 0 else v - 1) for v in range(12)}
    tree = ck.Tree(parent)
    assert tree.close_pair([{0}, {3}, {9}], 2) is None
    assert tree.close_pair([{0}, {3}, {9}], 3) == (0, 1, 0, 3)


def test_word_distances():
    words = xab_words()
    assert words.word_dist(("a",), ("b",)) == 2
    assert words.word_dist(("a",), ("a", "b")) == 2
    assert words.word_dist(("b", "a"), ("a",)) == 2 + 1
    assert words.word_dist((), ("b", "b")) == 4
    assert len(words.window(["a", "b"], 2, 3)) == 1 + 2 + 3


def test_wedge_word_distances():
    words = ck.wedge_of_z_balls()
    x1, x3, y2 = ("x", (1,)), ("x", (-3,)), ("y", (2,))
    assert words.word_dist((x1,), (x3,)) == 4
    assert words.word_dist((x1,), (y2,)) == 3
    assert words.word_dist((x1, y2), (x1,)) == 2


def test_slots_from_file_reads_exact_bounds():
    obj = json.loads(json.dumps({
        "scales": [1, "3/2"], "extend": "repeat-last",
        "families": [{"R": 1, "mesh": {"sqrt": 2}, "sets": [[[0, 0], [1, 1]]]},
                     {"R": "3/2", "mesh": "1/2", "sets": [[[5, 5]]]}],
    }))
    prefix, slots = ck.slots_from_file(obj)
    assert prefix == [1, Fraction(3, 2)]
    assert slots[0] == (2, [{(0, 0), (1, 1)}])
    assert slots[1] == (Fraction(1, 4), [{(5, 5)}])
    assert ck.scale_at(prefix, 7) == Fraction(3, 2)


def test_confirm_rejects_false_claims():
    geometry, universe, prefix, slots, *_ = l2_product_case()
    fam = slots[0][1]
    far = (min(fam[0]), min(fam[1]))
    assert not ck.confirm(geometry, prefix, slots, "disjointness", 1, far)
    assert not ck.confirm(geometry, prefix, slots, "disjointness", 1, (far[0], far[0]))
