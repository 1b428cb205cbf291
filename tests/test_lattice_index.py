"""The lattice index against the generic all-pairs path and the definitions.

Every check builds the same space twice: as the constructors return it,
carrying a ``LatticeIndex``, and as a plain ``FiniteMetricSpace`` over the
same distance functions, which takes the generic code.  Verdicts, violation
tuples, diameters, R-components and whole verifier reports must agree.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from apckit.covers import CoverWitness, ScaleSequence, WitnessEntry, verify_apc_witness
from apckit.exact import root_of, sq_value
from apckit.metric import (
    Family,
    FiniteMetricSpace,
    LatticeIndex,
    cycle_space,
    family_is_R_disjoint,
    grid_window,
    interval_window,
    matrix_space,
    product_space,
    r_components,
    set_diameter_sq,
)

KINDS = ("interval", "grid1", "grid2", "grid3", "interval^2", "grid2 x interval",
         "(interval^2) x interval")
RADII = [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 3), 3, 4,
         root_of(2), root_of(5), root_of(Fraction(17, 2)), 10**400]
SCALES = [R for R in RADII if isinstance(R, (int, Fraction)) and R >= 0]


@st.composite
def intervals(draw, most=9):
    lo = draw(st.integers(-6, 6))
    return interval_window(lo, lo + draw(st.integers(0, most - 1)))


@st.composite
def grids(draw, d):
    return grid_window([draw(st.integers(1, {1: 9, 2: 5, 3: 3}[d])) for _ in range(d)])


@st.composite
def spaces(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "interval":
        return draw(intervals(14))
    if kind.startswith("grid") and len(kind) == 5:
        return draw(grids(int(kind[-1])))
    if kind == "interval^2":
        return product_space(draw(intervals(6)), draw(intervals(6)))
    if kind == "grid2 x interval":
        return product_space(draw(grids(2)), draw(intervals(4)))
    return product_space(product_space(draw(intervals(4)), draw(intervals(3))),
                         draw(intervals(3)))


def plain_space(space):
    return FiniteMetricSpace(space.points, space.raw_dist, dist_sq=space.dist_sq,
                             basepoint=space.basepoint, name="plain")


def boxes(space, rng, count):
    """Sets of the points whose coordinates fall in random boxes."""
    index = space.index
    coords = {p: index.coord(p) for p in space.points}
    out = []
    for _ in range(count):
        a, b = rng.choice(space.points), rng.choice(space.points)
        lo = [min(x, y) for x, y in zip(coords[a], coords[b])]
        hi = [max(x, y) for x, y in zip(coords[a], coords[b])]
        out.append({p for p, c in coords.items()
                    if all(l <= x <= h for x, l, h in zip(c, lo, hi))})
    return out


@st.composite
def families(draw, space):
    """Overlapping random sets, a partition of some points, or boxes."""
    pts = list(space.points)
    kind = draw(st.sampled_from(["random", "partition", "boxes"]))
    if kind == "random":
        return draw(st.lists(st.sets(st.sampled_from(pts), min_size=1, max_size=8), max_size=5))
    if kind == "partition":
        labels = draw(st.lists(st.integers(-1, 3), min_size=len(pts), max_size=len(pts)))
        groups = {}
        for p, a in zip(pts, labels):
            if a >= 0:
                groups.setdefault(a, set()).add(p)
        return list(groups.values())
    return boxes(space, random.Random(draw(st.integers(0, 2**16))), draw(st.integers(0, 4)))


@st.composite
def space_and_family(draw):
    space = draw(spaces())
    return space, draw(families(space)), draw(st.sampled_from(RADII))


def test_constructors_attach_the_index():
    iv = interval_window(-2, 3)
    assert isinstance(iv.index, LatticeIndex)
    assert isinstance(grid_window([2, 3]).index, LatticeIndex)
    nested = product_space(product_space(iv, grid_window([2, 2])), iv)
    assert isinstance(nested.index, LatticeIndex)
    assert nested.index.blocks == (range(0, 1), range(1, 3), range(3, 4))
    assert nested.index.coord(((1, (0, 1)), -2)) == (1, 0, 1, -2)
    m = matrix_space(["a", "b"], [[0, 1], [1, 0]])
    point = grid_window([])
    for space in (cycle_space(5), m, product_space(iv, cycle_space(3)), product_space(m, iv),
                  point, product_space(point, iv)):
        assert space.index is None
    assert family_is_R_disjoint(point, [{()}, {()}], 1) == (False, (0, 1, (), (), 0))


@given(space_and_family())
@settings(max_examples=400, deadline=None)
def test_set_level_results_match_generic_path(case):
    space, sets, R = case
    plain = plain_space(space)
    assert family_is_R_disjoint(space, sets, R) == family_is_R_disjoint(plain, sets, R)
    for s in sets:
        assert set_diameter_sq(space, s) == set_diameter_sq(plain, s)
    union = set().union(*sets)
    assert r_components(space, union, R) == r_components(plain, union, R)


@given(space_and_family())
@settings(max_examples=400, deadline=None)
def test_separated_and_pairs_within_match_definition(case):
    space, sets, R = case
    plain = plain_space(space)
    sets = [frozenset(s) for s in sets]
    within = (lambda p, q: False) if R < 0 else (lambda p, q: plain.dist_sq(p, q) <= sq_value(R))
    assert space.index.separated(sets, R) == (not any(
        within(p, q) for a, b in itertools.combinations(sets, 2) for p in a for q in b))
    pts = sorted(set().union(*sets), key=repr)
    want = [(i, j) for i, j in itertools.combinations(range(len(pts)), 2)
            if within(pts[i], pts[j])]
    assert sorted(space.index.pairs_within(pts, R)) == want


@given(spaces(), st.sampled_from([0, 1, 2, 3, 10**400]))
@settings(max_examples=150, deadline=None)
def test_whole_space_and_single_scale_results(space, R):
    """The whole point set: one box, so diameters come from its corners alone."""
    plain = plain_space(space)
    assert set_diameter_sq(space, space.points) == set_diameter_sq(plain, space.points)
    assert r_components(space, space.points, R) == r_components(plain, space.points, R)
    halves = [h for h in (space.points[::2], space.points[1::2]) if h]
    assert family_is_R_disjoint(space, halves, R) == family_is_R_disjoint(plain, halves, R)


def valid_slot(plain, pts, R):
    """The R-components of pts with the exact largest diameter as the bound."""
    comps = r_components(plain, pts, R)
    return [set(c) for c in comps], max((set_diameter_sq(plain, c) for c in comps), default=0)


def plant(rng, sets, diam_sq, fault):
    """Break one slot: lower its mesh bound below the largest diameter, move or
    copy a point between two of its sets, or drop a point."""
    bound = root_of(diam_sq)
    if fault == "mesh":
        return sets, root_of(diam_sq - 1) if diam_sq >= 1 else -1
    if fault == "drop":
        big = [s for s in sets if len(s) > 1]
        if big:
            s = rng.choice(big)
            s.discard(rng.choice(sorted(s, key=repr)))
        return sets, bound
    if len(sets) >= 2:
        a, b = rng.sample(range(len(sets)), 2)
        p = rng.choice(sorted(sets[a], key=repr))
        sets[b].add(p)
        if fault == "move" and len(sets[a]) > 1:
            sets[a].discard(p)
    return sets, bound


@st.composite
def space_and_witness(draw):
    space = draw(spaces())
    plain = plain_space(space)
    rng = random.Random(draw(st.integers(0, 2**16)))
    slots = draw(st.integers(1, 3))
    prefix = sorted(draw(st.sampled_from(SCALES)) for _ in range(slots))
    scales = ScaleSequence(prefix)
    parts = [[] for _ in range(slots)]
    for p in space.points:
        parts[rng.randrange(slots)].append(p)
    entries = []
    for i, pts in enumerate(parts, start=1):
        if draw(st.booleans()):
            sets, diam_sq = valid_slot(plain, pts, scales.at(i))
            fault = draw(st.sampled_from(["none", "mesh", "move", "copy", "drop"]))
            sets, bound = plant(rng, sets, diam_sq, fault)
        else:
            sets = draw(families(space))
            bound = draw(st.sampled_from([-1, 0, 1, 2, root_of(5), 4, Fraction(11, 2)]))
        entries.append(WitnessEntry(scales.at(i), Family.of(sets), bound))
    return space, scales, CoverWitness(entries)


@given(space_and_witness())
@settings(max_examples=300, deadline=None)
def test_verifier_report_matches_generic_path(case):
    space, scales, witness = case
    got = verify_apc_witness(space, scales, witness)
    want = verify_apc_witness(plain_space(space), scales, witness)
    assert (got.ok, got.per_entry, got.violations, got.stats) == (
        want.ok, want.per_entry, want.violations, want.stats)
