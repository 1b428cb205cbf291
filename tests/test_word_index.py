"""The word index against the generic all-pairs path and the definitions.

Every check builds the same word window twice: ``window.space``, which
carries the ``WordIndex``, and its copy without the index
(``reference.without_index``), which takes the generic code.  Diameters,
separation verdicts, violation tuples, R-components and whole verifier
reports, planted faults included, must agree, and the index's R-links must
close to the R-components.  The bases are
Xab, its half-scaled copy, the interval [0, 3], the wedge of two Z balls,
the wedge of the Z/2 and Z/3 balls, small random pointed bases with
rational distances, and bases that break the triangle inequality.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apckit.covers import CoverWitness, ScaleSequence, WitnessEntry, verify_apc_witness
from apckit.exact import Root, root_of, sq_value
from apckit.freeprod import WordIndex, fp_window, free_product_cover, wedge_space
from apckit.groups import TableModel, ZdModel, cayley_ball
from apckit.metric import (
    Family,
    UnionFind,
    family_is_R_disjoint,
    interval_window,
    matrix_space,
    r_components,
    set_diameter_sq,
)
from reference import fp_distance, without_index


def xab():
    return matrix_space(["x0", "a", "b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
                        basepoint="x0", name="Xab")


def xab_half():
    return matrix_space(["x0", "a", "b"],
                        [[0, "1/2", "3/2"], ["1/2", 0, "3/2"], ["3/2", "3/2", 0]],
                        basepoint="x0", name="Xab/2")


def z_wedge():
    Z = ZdModel(1)
    ball = cayley_ball(Z, Z.standard_gens(), 2).space
    return wedge_space(ball, ball)


def modular_wedge():
    Z2, Z3 = TableModel.cyclic(2), TableModel.cyclic(3)
    return wedge_space(cayley_ball(Z2, [(1, 1)], 1).space, cayley_ball(Z3, [(1, 1)], 1).space)


BASES = {
    "xab": xab,
    "xab-half": xab_half,
    "interval": lambda: interval_window(0, 3),
    "z-wedge": z_wedge,
    "modular": modular_wedge,
}
# (max_order, max_norm) per base, each window at most a few hundred words
BOUNDS = {
    "xab": [(0, 2), (2, 4), (3, 5), (4, 6)],
    "xab-half": [(1, 1), (3, 3), (4, Fraction(7, 2))],
    "interval": [(2, 3), (3, 4), (4, 5)],
    "z-wedge": [(1, 2), (2, 3), (3, 3)],
    "modular": [(2, 2), (3, 3), (4, 4)],
    "random": [(2, 2), (3, 3), (3, Fraction(7, 2))],
}
WEIGHTS = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 3), 3]


@st.composite
def random_bases(draw):
    """Shortest-path metric of a complete graph on 2 to 4 points with rational
    edge weights; point 0 is the basepoint."""
    n = draw(st.integers(2, 4))
    d = [[0 if i == j else draw(st.sampled_from(WEIGHTS)) for j in range(n)] for i in range(n)]
    d = [[min(d[i][j], d[j][i]) for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return matrix_space(list(range(n)), d, basepoint=0, name="random")


@st.composite
def windows(draw):
    name = draw(st.sampled_from(list(BASES) + ["random"]))
    base = draw(random_bases()) if name == "random" else BASES[name]()
    return fp_window(base, *draw(st.sampled_from(BOUNDS[name])))


def radii(window):
    """R = -1, 0, 1/2, 1, sqrt 2, 7/3, and one beyond the window's diameter."""
    beyond = max(window.norm(w) for w in window.words) * 2 + 1
    return [-1, 0, Fraction(1, 2), 1, root_of(2), Fraction(7, 3), beyond]


@st.composite
def families(draw, window):
    """Overlapping random sets, a partition of some words, or the words below
    a few prefixes."""
    words = list(window.words)
    kind = draw(st.sampled_from(["random", "partition", "cones"]))
    if kind == "random":
        return draw(st.lists(st.sets(st.sampled_from(words), min_size=1, max_size=8),
                             max_size=5))
    if kind == "partition":
        labels = draw(st.lists(st.integers(-1, 3), min_size=len(words), max_size=len(words)))
        groups = {}
        for w, a in zip(words, labels):
            if a >= 0:
                groups.setdefault(a, set()).add(w)
        return list(groups.values())
    tops = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
    return [{w for w in words if w[:len(c)] == c} for c in tops]


@st.composite
def window_and_family(draw):
    """A window, a family, and R from radii(window) or the exact distance of
    two window words, so that pairs exactly R apart come up often."""
    window = draw(windows())
    u, v = draw(st.sampled_from(window.words)), draw(st.sampled_from(window.words))
    R = draw(st.sampled_from(radii(window) + [fp_distance(window.base, u, v)]))
    return window, draw(families(window)), R


def within(plain, R):
    if R < 0:
        return lambda p, q: False
    return lambda p, q: plain.dist_sq(p, q) <= sq_value(R)


@given(window_and_family())
@settings(max_examples=300, deadline=None)
def test_set_level_results_match_generic_path(case):
    window, sets, R = case
    space, plain = window.space, without_index(window.space)
    assert family_is_R_disjoint(space, sets, R) == family_is_R_disjoint(plain, sets, R)
    for s in sets:
        got, want = set_diameter_sq(space, s), set_diameter_sq(plain, s)
        assert got == want and type(got) is type(want)
    union = set().union(*sets)
    assert r_components(space, union, R) == r_components(plain, union, R)


def closure(pts, links):
    """The classes of pts under the transitive closure of the index pairs links."""
    uf = UnionFind(len(pts))
    for i, j in links:
        uf.union(i, j)
    classes = {}
    for i, p in enumerate(pts):
        classes.setdefault(uf.find(i), set()).add(p)
    return {frozenset(c) for c in classes.values()}


@given(window_and_family())
@settings(max_examples=300, deadline=None)
def test_separated_and_links_match_definition(case):
    window, sets, R = case
    plain = without_index(window.space)
    near = within(plain, R)
    sets = [frozenset(s) for s in sets]
    assert window.space.index.separated(sets, R) == (not any(
        near(p, q) for a, b in itertools.combinations(sets, 2) for p in a for q in b))
    pts = sorted(set().union(*sets), key=repr)
    links = list(window.space.index.links(pts, R))
    assert all(fp_distance(window.base, pts[i], pts[j]) <= R for i, j in links)
    assert closure(pts, links) == set(r_components(plain, pts, R))


@st.composite
def non_metric_windows(draw):
    """Windows over pointed bases that may break the triangle inequality: the
    base (x0, a, b) with d(a, b) = 50 against norms 1, and random symmetric
    distances on 2 to 4 points."""
    if draw(st.booleans()):
        base = matrix_space(["x0", "a", "b"], [[0, 1, 1], [1, 0, 50], [1, 50, 0]],
                            basepoint="x0")
    else:
        n = draw(st.integers(2, 4))
        d = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            d[i][j] = d[j][i] = draw(st.sampled_from(WEIGHTS + [9]))
        base = matrix_space(list(range(n)), d, basepoint=0)
    return fp_window(base, draw(st.integers(1, 4)), draw(st.sampled_from([3, 5, 12])))


@given(non_metric_windows(), st.data())
@settings(max_examples=200, deadline=None)
def test_links_close_to_components_without_the_triangle_inequality(window, data):
    pts = data.draw(st.lists(st.sampled_from(window.words), min_size=1, max_size=30,
                             unique=True))
    u, v = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
    R = data.draw(st.sampled_from([0, 1, 2, 3, 49, 50, fp_distance(window.base, u, v)]))
    plain = without_index(window.space)
    links = list(window.space.index.links(pts, R))
    assert all(fp_distance(window.base, pts[i], pts[j]) <= R for i, j in links)
    assert closure(pts, links) == set(r_components(plain, pts, R))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts)))
    sets = [{p for p, k in zip(pts, labels) if k == i} for i in range(3)]
    near = within(plain, R)
    assert window.space.index.separated(sets, R) == (not any(
        near(p, q) for a, b in itertools.combinations(sets, 2) for p in a for q in b))


def test_links_stay_few_as_R_grows():
    """One link per sibling letter and level and one to the first ancestor
    bound the links of a word, whatever R is.  On the Z/2 * Z/3 window of
    order and norm 8 (9 841 words) that is at most 3 sum(len(w)) = 221 436
    links; the pairs within R = 8 number 1 419 090."""
    window = fp_window(modular_wedge(), 8, 8)
    words = list(window.words)
    bound = 3 * sum(map(len, words))
    for R in (2, 4, 8):
        assert len(list(window.space.index.links(words, R))) <= bound


@given(windows())
@settings(max_examples=100, deadline=None)
def test_whole_window_results(window):
    space, plain = window.space, without_index(window.space)
    words = list(window.words)
    assert set_diameter_sq(space, words) == set_diameter_sq(plain, words)
    halves = [words[::2], words[1::2]]
    for R in radii(window):
        assert r_components(space, words, R) == r_components(plain, words, R)
        assert family_is_R_disjoint(space, halves, R) == family_is_R_disjoint(plain, halves, R)


def valid_slot(plain, words, R):
    """The R-components of words with the exact largest diameter as the bound."""
    comps = r_components(plain, words, R)
    return [set(c) for c in comps], max((set_diameter_sq(plain, c) for c in comps), default=0)


def plant(rng, sets, diam_sq, fault):
    """Break one slot: lower its mesh bound below the largest diameter, move or
    copy a word between two of its sets, or drop a word."""
    bound = root_of(diam_sq)
    if fault == "mesh":
        return sets, root_of(diam_sq - Fraction(1, 4)) if diam_sq > 0 else -1
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


FAULTS = ["none", "mesh", "move", "copy", "drop"]


@st.composite
def window_and_witness(draw):
    window = draw(windows())
    plain = without_index(window.space)
    rng = random.Random(draw(st.integers(0, 2**16)))
    slots = draw(st.integers(1, 3))
    rational = [R for R in radii(window) if not isinstance(R, Root)]
    scales = ScaleSequence(sorted(draw(st.sampled_from(rational)) for _ in range(slots)))
    parts = [[] for _ in range(slots)]
    for w in window.words:
        parts[rng.randrange(slots)].append(w)
    entries = []
    for i, words in enumerate(parts, start=1):
        if draw(st.booleans()):
            sets, diam_sq = valid_slot(plain, words, scales.at(i))
            sets, bound = plant(rng, sets, diam_sq, draw(st.sampled_from(FAULTS)))
        else:
            sets = draw(families(window))
            bound = draw(st.sampled_from([-1, 0, 1, 2, root_of(5), 4, Fraction(11, 2)]))
        entries.append(WitnessEntry(scales.at(i), Family.of(sets), bound))
    return window, scales, CoverWitness(entries)


def same_report(space, scales, witness, **kw):
    got = verify_apc_witness(space, scales, witness, **kw)
    want = verify_apc_witness(without_index(space), scales, witness, **kw)
    assert (got.ok, got.per_entry, got.violations, got.stats) == (
        want.ok, want.per_entry, want.violations, want.stats)
    return got


@given(window_and_witness())
@settings(max_examples=200, deadline=None)
def test_verifier_report_matches_generic_path(case):
    window, scales, witness = case
    same_report(window.space, scales, witness)


# a window per base where the stream (1) gives families of several sets
PIPELINE_WINDOWS = {"xab": (4, 7), "xab-half": (6, 5), "interval": (4, 6), "z-wedge": (2, 6),
                    "modular": (4, 5)}


@pytest.mark.parametrize("name", list(BASES))
@pytest.mark.parametrize("fault", FAULTS)
def test_pipeline_witness_reports_match_with_planted_faults(name, fault):
    """The free-product pipeline's own witness, valid and then with one fault
    planted in each of its nonempty slots in turn, coverage of every window
    word required."""
    from apckit.covers import greedy_oracle

    base = BASES[name]()
    window = fp_window(base, *PIPELINE_WINDOWS[name])
    scales = ScaleSequence([1])
    res = free_product_cover(greedy_oracle(base), scales, window)
    plain = without_index(window.space)
    rng = random.Random(f"{name}-{fault}")
    assert same_report(window.space, scales, res.witness,
                       require_cover_of=res.reduced_points).ok
    verdicts = []
    for k, entry in enumerate(res.witness.entries):
        if not entry.family.sets:
            continue
        sets = [set(s) for s in entry.family.sets]
        diam_sq = max(set_diameter_sq(plain, s) for s in sets)
        sets, bound = plant(rng, sets, diam_sq, fault)
        entries = list(res.witness.entries)
        entries[k] = WitnessEntry(entry.required_scale, Family.of(sets), bound)
        report = same_report(window.space, scales, CoverWitness(entries),
                             require_cover_of=window.word_set)
        verdicts.append(report.ok)
    if fault == "drop":
        # a margin-reduced word left out of every slot
        w = rng.choice(sorted(res.reduced_points, key=repr))
        entries = [WitnessEntry(e.required_scale, Family.of([s - {w} for s in e.family]),
                                e.mesh_bound) for e in res.witness.entries]
        verdicts.append(same_report(window.space, scales, CoverWitness(entries),
                                    require_cover_of=res.reduced_points).ok)
    assert fault == "none" or not all(verdicts)


def test_boundary_radii_on_xab():
    """Pairs exactly R apart count as within R; siblings link both ways; a
    word links to its first ancestor in the set and no higher; a branch's
    nearest word is the first one listed among equally near ones."""
    window = fp_window(xab(), 3, 5)
    index = window.space.index

    def links(pts, R):
        return sorted(index.links(pts, R))

    a, b, aa, ab, aaa = ("a",), ("b",), ("a", "a"), ("a", "b"), ("a", "a", "a")
    assert links([a, b], 2) == [(0, 1), (1, 0)]
    assert links([a, b], Fraction(3, 2)) == []
    assert links([(), aa], 2) == [(1, 0)]
    assert links([(), aa], root_of(3)) == []
    assert links([(), a, aa], 2) == [(1, 0), (2, 1)]
    assert links([ab, b], 4) == [(0, 1), (1, 0)]
    assert links([ab, b], root_of(15)) == []
    assert links([b, ab], 4) == [(0, 1), (1, 0)]
    assert links([b, ab], root_of(15)) == []
    # ab and aaa are both 2 below a, so b links to ab, listed first
    assert links([ab, aaa, b], 4) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)]
    assert index.separated([{a}, {b}], Fraction(3, 2))
    assert not index.separated([{a}, {b}], 2)
    assert not index.separated([{a}, {a, b}], 0)
    assert not index.separated([{()}, {aa}], 2)
    assert index.separated([{()}, {aa}], root_of(3))
    assert index.diameter_sq([(), aa]) == 4
    assert index.diameter_sq([aa, ab, b]) == 16
    assert index.diameter_sq([a, aa]) == 1


def test_index_evaluates_no_word_distance():
    window = fp_window(z_wedge(), 3, 3)

    def refuse(u, v):
        raise AssertionError("a word distance was evaluated")

    window.space._dist = refuse
    index, words = window.space.index, list(window.words)
    assert index.diameter_sq(words) == 36
    assert index.separated([{()}, {w for w in words if window.norm(w) == 3}], 2)
    assert len(list(index.links(words, 1))) > 0
    assert len(r_components(window.space, words, 1)) == 1


def test_index_is_built_per_query():
    window = fp_window(xab(), 3, 5)
    assert isinstance(window.space.index, WordIndex)
    assert vars(window.space.index) == {"window": window}


def test_letter_table_holds_the_base_distances():
    base = z_wedge()
    window = fp_window(base, 1, 1)
    assert window.letter_dist == {(p, q): base.dist(p, q)
                                  for p, q in itertools.permutations(base.points, 2)}
    window = fp_window(base, 2, 3)
    for u, v in itertools.combinations(window.words, 2):
        assert window.space.dist(u, v) == fp_distance(base, u, v)
