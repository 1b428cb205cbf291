"""The lattice index against the generic all-pairs path and the definitions.

Every check builds the same space twice: as the constructors return it,
carrying a ``LatticeIndex``, and as its copy without the index
(``reference.without_index``), which takes the generic code.  Verdicts, violation
tuples, diameters, R-components, whole verifier reports and the expansion
check's results must agree.  The spaces are interval windows, grid windows,
their l2 products and Z^d Cayley windows on the axis generators.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apckit import combinators
from apckit.combinators import UniformlyExpansiveMap, check_uniformly_expansive, identity_rho
from apckit.covers import CoverWitness, ScaleSequence, WitnessEntry, verify_apc_witness
from apckit.exact import root_of, sq_value
from apckit.groups import ZdModel, cayley_ball
from apckit.metric import (
    Family,
    FiniteMetricSpace,
    InputError,
    LatticeIndex,
    _separated,
    cycle_space,
    family_is_R_disjoint,
    grid_window,
    interval_window,
    matrix_space,
    product_space,
    r_components,
    set_diameter_sq,
)
from reference import without_index

KINDS = ("interval", "grid1", "grid2", "grid3", "interval^2", "grid2 x interval",
         "(interval^2) x interval", "cayley")
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
def cayley_windows(draw):
    """A ball of Z^d on the axis generators, with unit or unequal int weights."""
    d = draw(st.integers(1, 3))
    weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    model = ZdModel(d)
    return cayley_ball(model, model.standard_gens(weights),
                       draw(st.integers(0, {1: 12, 2: 5, 3: 3}[d]))).space


@st.composite
def spaces(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "cayley":
        return draw(cayley_windows())
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
    plain = without_index(space)
    assert family_is_R_disjoint(space, sets, R) == family_is_R_disjoint(plain, sets, R)
    for s in sets:
        assert set_diameter_sq(space, s) == set_diameter_sq(plain, s)
    union = set().union(*sets)
    assert r_components(space, union, R) == r_components(plain, union, R)


@given(space_and_family())
@settings(max_examples=400, deadline=None)
def test_separated_and_links_match_definition(case):
    space, sets, R = case
    plain = without_index(space)
    sets = [frozenset(s) for s in sets]
    within = (lambda p, q: False) if R < 0 else (lambda p, q: plain.dist_sq(p, q) <= sq_value(R))
    assert _separated(space.index, sets, R) == (not any(
        within(p, q) for a, b in itertools.combinations(sets, 2) for p in a for q in b))
    pts = sorted(set().union(*sets), key=repr)
    want = [(i, j) for i, j in itertools.combinations(range(len(pts)), 2)
            if within(pts[i], pts[j])]
    assert sorted(space.index.links(dict(zip(pts, range(len(pts)))), R)) == want


@given(spaces(), st.sampled_from([0, 1, 2, 3, 10**400]))
@settings(max_examples=150, deadline=None)
def test_whole_space_and_single_scale_results(space, R):
    """The whole point set: one box, so diameters come from its corners alone."""
    plain = without_index(space)
    assert set_diameter_sq(space, space.points) == set_diameter_sq(plain, space.points)
    assert r_components(space, space.points, R) == r_components(plain, space.points, R)
    halves = [h for h in (space.points[::2], space.points[1::2]) if h]
    assert family_is_R_disjoint(space, halves, R) == family_is_R_disjoint(plain, halves, R)


DIM5 = {
    "grid5": lambda: grid_window([2, 3, 2, 2, 2]),
    "interval^5": lambda: functools.reduce(
        product_space, [interval_window(0, k) for k in (2, 1, 1, 1, 2)]),
    "grid3 x interval^2": lambda: product_space(
        product_space(grid_window([2, 2, 3]), interval_window(0, 1)), interval_window(-1, 1)),
}
SHAPES = ("full", "anti-diagonal", "corner removed", "no opposite corners", "below the guard")


def corner_pairs(cs):
    """The opposite corner pairs (c, lo + hi - c) of the coordinate tuples'
    bounding box, from the definition: each unordered pair twice."""
    lo, hi = tuple(map(min, zip(*cs))), tuple(map(max, zip(*cs)))
    corners = itertools.product(*zip(lo, hi))
    return [(c, tuple(l + h - x for x, l, h in zip(c, lo, hi))) for c in corners]


@st.composite
def shaped_sets(draw):
    """A box of a lattice space's points (or all of them): whole, with one
    random opposite corner pair and no other corner, with one corner
    removed, or with some corners but no two opposite (L- and T-shapes); or,
    in a dim-5 space, fewer points than its 16 corner pairs, two of them
    opposite corners."""
    shape = draw(st.sampled_from(SHAPES))
    space = DIM5[draw(st.sampled_from(sorted(DIM5)))]() if shape == "below the guard" \
        else draw(spaces())
    coords = {p: space.index.coord(p) for p in space.points}
    if shape == "below the guard":
        lo_p, hi_p = space.points[0], space.points[-1]
        rest = draw(st.lists(st.sampled_from(space.points[1:-1]), max_size=13, unique=True))
        return space, [lo_p, hi_p] + rest
    box = list(space.points) if draw(st.booleans()) else \
        boxes(space, random.Random(draw(st.integers(0, 2**16))), 1)[0]
    pairs = corner_pairs([coords[p] for p in box])
    corner_set = {c for pair in pairs for c in pair}
    corners = [p for p in box if coords[p] in corner_set]
    inner = [p for p in box if coords[p] not in corner_set]
    if shape == "full" or not corners:  # a ball's diamond may have no corner
        return space, box
    if shape == "corner removed":
        drop = draw(st.sampled_from(corners))
        return space, [p for p in box if p != drop]
    keep = [p for p in inner if draw(st.booleans())]
    if shape == "anti-diagonal":
        c, d = draw(st.sampled_from(pairs))
        return space, keep + [p for p in corners if coords[p] in (c, d)]
    chosen = set()
    for c, d in pairs:
        if d not in chosen and draw(st.booleans()):
            chosen.add(c)
    return space, keep + [p for p in corners if coords[p] in chosen]


class KernelSpy:
    """Counts an index's calls of its squared-distance kernel."""

    def __init__(self, index):
        self.index, self.kernel, self.calls = index, index._dist_sq, 0

    def __call__(self, a, b):
        self.calls += 1
        return self.kernel(a, b)

    def __enter__(self):
        self.index._dist_sq = self
        return self

    def __exit__(self, *exc):
        self.index._dist_sq = self.kernel


@given(shaped_sets())
@settings(max_examples=500, deadline=None)
def test_diameter_matches_generic_path_in_both_branches(case):
    """The corner certificate answers, with no kernel call, exactly when the
    set has an opposite pair of its box's corners and at least as many
    points as corner pairs; otherwise the sweeps answer.  Either way the
    diameter is the generic path's."""
    space, S = case
    if len(S) < 2:
        return
    cs = {space.index.coord(p) for p in S}
    pairs = corner_pairs(cs)
    certified = 2 * len(S) >= len(pairs) and any(c in cs and d in cs for c, d in pairs)
    with KernelSpy(space.index) as spy:
        got = space.index.diameter_sq(S)
    assert got == set_diameter_sq(without_index(space), S)
    assert (spy.calls == 0) is certified


def test_a_full_box_costs_no_kernel_call():
    Z2 = ZdModel(2)
    cases = [
        (product_space(interval_window(0, 63), interval_window(0, 63)), lambda p: True),
        (grid_window([4, 3, 2]), lambda p: p[0] >= 1 and p[2] == 0),
        (product_space(grid_window([3, 3]), interval_window(-2, 2)), lambda p: p[1] <= 0),
        (cayley_ball(Z2, Z2.standard_gens([1, 2]), 6).space,
         lambda g: abs(g[0]) <= 1 and abs(g[1]) <= 1),
    ]
    for space, inside in cases:
        S = [p for p in space.points if inside(p)]
        with KernelSpy(space.index) as spy:
            got = set_diameter_sq(space, S)
        assert spy.calls == 0
        assert got == set_diameter_sq(without_index(space), S)


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
    plain = without_index(space)
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
    want = verify_apc_witness(without_index(space), scales, witness)
    assert (got.ok, got.per_entry, got.violations, got.stats) == (
        want.ok, want.per_entry, want.violations, want.stats)


@given(space_and_family())
@settings(max_examples=300, deadline=None)
def test_gaps_sq_bounds_every_cross_distance(case):
    space, sets, _ = case
    plain = without_index(space)
    sets = [list(s) for s in sets if s]
    gaps = space.index.gaps_sq(sets)
    assert sorted(gaps) == list(itertools.combinations(range(len(sets)), 2))
    for (i, j), g in gaps.items():
        assert isinstance(g, int)
        assert 0 <= g <= min(plain.dist_sq(p, q) for p in sets[i] for q in sets[j])
    pts = sorted(set().union(*sets), key=repr)[:12]
    assert space.index.gaps_sq([[p] for p in pts]) == {
        (i, j): plain.dist_sq(pts[i], pts[j]) for i, j in itertools.combinations(range(len(pts)), 2)}


def scaled(c):
    """t -> c t, exact on Root values too."""
    return lambda t: root_of(c * c * sq_value(t))


RHOS = {
    "identity": identity_rho,
    "double": scaled(2),
    "half": scaled(Fraction(1, 2)),
    "step at 2": lambda t: t if sq_value(t) >= 4 else 0,
    "negative below 2": lambda t: -1 if sq_value(t) < 4 else t,
}


def l1_space(points):
    return FiniteMetricSpace(sorted(points), lambda a, b: sum(abs(x - y) for x, y in zip(a, b)))


@st.composite
def expansive_maps(draw):
    """A lattice space, a target, a point map and a modulus: the identity, the
    projection onto some coordinates of one block, a 1-Lipschitz walk of one
    coordinate, or the identity with one point moved to a nearest neighbour."""
    space = draw(spaces())
    coords = {p: space.index.coord(p) for p in space.points}
    kind = draw(st.sampled_from(["identity", "projection", "lipschitz", "stretch"]))
    fmap, target = (lambda p: p), without_index(space)
    if kind == "projection":
        keep = draw(st.lists(st.sampled_from(draw(st.sampled_from(space.index.blocks))),
                             min_size=1, unique=True))
        fmap = lambda p: tuple(coords[p][k] for k in keep)
        target = l1_space({fmap(p) for p in space.points})
    elif kind == "lipschitz":
        k = draw(st.integers(0, space.index.dim - 1))
        lo = min(c[k] for c in coords.values())
        hi = max(c[k] for c in coords.values())
        walk = [0]
        for step in draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=hi - lo,
                                  max_size=hi - lo)):
            walk.append(walk[-1] + step)
        fmap = lambda p: walk[coords[p][k] - lo]
        target = interval_window(min(walk), max(walk))
    elif kind == "stretch" and len(space.points) > 1:
        x0 = draw(st.sampled_from(space.points))
        near = min(space.dist_sq(x0, q) for q in space.points if q != x0)
        y0 = draw(st.sampled_from([q for q in space.points
                                   if q != x0 and space.dist_sq(x0, q) == near]))
        fmap = lambda p: y0 if p == x0 else p
    return space, target, fmap, RHOS[draw(st.sampled_from(sorted(RHOS)))]


@given(expansive_maps(), st.sampled_from([None, 0, 3, 40]))
@settings(max_examples=400, deadline=None)
def test_expansion_check_matches_generic_path(case, budget):
    """With budget None the generic side checks every pair, so it is the
    definition; with a smaller one both sides must still agree exactly."""
    space, target, fmap, rho = case
    n = len(space.points)
    budget = n * (n - 1) // 2 if budget is None else budget
    if budget == 0 and n > 1:
        for source in (space, without_index(space)):
            with pytest.raises(InputError):
                check_uniformly_expansive(UniformlyExpansiveMap(source, target, fmap, rho),
                                          pair_budget=budget)
        return
    got = check_uniformly_expansive(UniformlyExpansiveMap(space, target, fmap, rho),
                                    pair_budget=budget)
    want = check_uniformly_expansive(UniformlyExpansiveMap(without_index(space), target, fmap, rho),
                                     pair_budget=budget)
    assert got == want


class GapsSpy:
    def __init__(self, index):
        self.index, self.calls = index, 0

    def gaps_sq(self, sets):
        self.calls += 1
        return self.index.gaps_sq(sets)


def test_negative_rho_at_zero_takes_the_pairwise_loop():
    space = product_space(interval_window(0, 5), interval_window(0, 4))
    spy = GapsSpy(space.index)
    spied = FiniteMetricSpace(space.points, space._dist, dist_sq=space.dist_sq, index=spy)
    target = interval_window(0, 4)
    proj = lambda p: p[1]
    assert check_uniformly_expansive(UniformlyExpansiveMap(spied, target, proj, identity_rho)) == (
        True, None)
    assert spy.calls == 1
    for rho, ok in ((RHOS["negative below 2"], False), (lambda t: -1 if t == 0 else t, True)):
        got = check_uniformly_expansive(UniformlyExpansiveMap(spied, target, proj, rho))
        assert spy.calls == 1
        assert got[0] is ok
        assert got == check_uniformly_expansive(
            UniformlyExpansiveMap(without_index(space), target, proj, rho))


def test_proof_settles_contractions_without_the_pairwise_loop(monkeypatch):
    def no_loop(*args, **kwargs):
        raise AssertionError("the pairwise loop ran")

    monkeypatch.setattr(combinators, "_sample_pairs", no_loop)
    Z2, Z1 = ZdModel(2), ZdModel(1)
    window = cayley_ball(Z2, Z2.standard_gens([1, 2]), 9)
    cases = [
        (product_space(interval_window(0, 5), interval_window(-2, 3)), interval_window(-2, 3),
         lambda p: p[1]),
        (grid_window([4, 3, 2]), interval_window(0, 3), lambda p: p[0]),
        (interval_window(-3, 4), interval_window(-3, 4), lambda p: p),
        (window.space, cayley_ball(Z1, Z1.standard_gens([2]), 9).space, lambda g: (g[1],)),
    ]
    for source, target, fmap in cases:
        m = UniformlyExpansiveMap(source, target, fmap, identity_rho)
        assert check_uniformly_expansive(m) == (True, None)


def test_one_step_stretch_on_sparse_coordinates_is_rejected():
    """Points at least 2 apart, so the fibers' box gaps exceed 1 and a
    proof that compared against the squared gap would wrongly pass."""
    Z1, Z2 = ZdModel(1), ZdModel(2)
    for window in (cayley_ball(Z1, Z1.standard_gens([3]), 12),
                   cayley_ball(Z2, Z2.standard_gens([2, 3]), 12)):
        x0 = window.model.identity()
        y0 = window.model.standard_gens()[0][0]
        moved = lambda p: y0 if p == x0 else p
        for source in (window.space, without_index(window.space)):
            ok, bad = check_uniformly_expansive(
                UniformlyExpansiveMap(source, without_index(window.space), moved, identity_rho))
            assert not ok and x0 in bad
