import collections
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apckit import metric
from apckit.exact import Root, hyp, root_of, scalar, sq_value, triangle_le, triangle_le_sq
from apckit.metric import (
    Family,
    FiniteMetricSpace,
    InputError,
    grid_window,
    hypercube_collapse,
    hypercube_union,
    interval_window,
    family_is_R_disjoint,
    matrix_space,
    point_key,
    generate_space,
    product_space,
    r_components,
    set_diameter,
    star_space,
    cycle_space,
    validate_metric,
    _sample_pairs,
)
from apckit.combinators import decompose
from apckit.covers import ScaleSequence, verify_apc_witness, witness_from_families
from apckit.freeprod import fp_window
from apckit.groups import FreeGroupModel, FreeProductModel, ZdModel, cayley_ball
from conftest import brute_components, random_points_space
from reference import (is_R_disjoint, mesh, point_key_reference, random_tree, randrange_pairs,
                       set_distance, without_index, without_squares)


def line(lo, hi):
    return interval_window(lo, hi)


class TestExactScalars:
    def test_root_of_perfect_square_is_rational(self):
        assert root_of(25) == 5
        assert root_of(Fraction(9, 4)) == Fraction(3, 2)

    def test_root_comparisons(self):
        r = root_of(2)
        assert isinstance(r, Root)
        assert 1 < r < 2
        assert r != Fraction(3, 2)
        assert root_of(8) > root_of(7)
        assert r > -1

    def test_hyp(self):
        assert hyp(3, 4) == 5
        assert float(hyp(1, 1)) == pytest.approx(math.sqrt(2))

    def test_triangle_le_mixed(self):
        assert triangle_le(root_of(2), 1, 1)
        assert not triangle_le(root_of(9), 1, 1)
        assert triangle_le(5, root_of(9), root_of(4))

    def test_triangle_le_sq_at_the_collinear_boundary(self):
        assert triangle_le_sq(8, 2, 2) and triangle_le_sq(4, 4, 0)
        assert not triangle_le_sq(9, 2, 2) and not triangle_le_sq(5, 4, 0)
        assert triangle_le_sq(Fraction(9, 2), Fraction(1, 2), 2)

    def test_scalar_normal_form(self):
        for x in (2, "2", "4/2", 2.0, Fraction(2)):
            assert type(scalar(x)) is int and scalar(x) == 2
        for x in ("1/2", 0.5):
            assert type(scalar(x)) is Fraction and scalar(x) == Fraction(1, 2)

    @pytest.mark.parametrize("x, error", [
        (True, TypeError), (math.nan, ValueError), (math.inf, ValueError), ("abc", ValueError),
    ])
    def test_scalar_refuses(self, x, error):
        with pytest.raises(error):
            scalar(x)


def nested_ids(depth):
    """Point ids of every kind, in tuples nested up to depth."""
    leaves = st.one_of(st.integers(-2, 2), st.booleans(),
                       st.fractions(-2, 2, max_denominator=3), st.sampled_from(["", "a", "b"]),
                       st.floats(-2, 2), st.sampled_from([math.nan, None]))
    if depth == 0:
        return leaves
    return st.one_of(leaves, st.lists(nested_ids(depth - 1), max_size=3).map(tuple))


class TestPointKey:
    @given(st.lists(nested_ids(3), max_size=6))
    @settings(max_examples=500, deadline=None)
    def test_orders_as_the_reference(self, pts):
        keys = [(point_key(p), point_key_reference(p)) for p in pts]
        for (a, ref_a), (b, ref_b) in itertools.product(keys, repeat=2):
            assert (a < b, a == b) == (ref_a < ref_b, ref_a == ref_b), (a, b)
        order = range(len(pts))
        assert (sorted(order, key=lambda i: point_key(pts[i]))
                == sorted(order, key=lambda i: point_key_reference(pts[i])))


@st.composite
def mixed_space(draw):
    """A space over ids of every kind, in shuffled order, with random point sets.

    Ids equal as dict keys (1, 1.0 and True) collapse to one point."""
    ids = list(dict.fromkeys(draw(st.lists(nested_ids(2), min_size=1, max_size=12))))
    space = FiniteMetricSpace(draw(st.permutations(ids)), lambda p, q: 1)
    sets = draw(st.lists(st.sets(st.sampled_from(ids)), max_size=6))
    return space, sets


@st.composite
def window_spaces(draw):
    """The space of a Cayley window or of a word window over a mixed-id base."""
    if draw(st.booleans()):
        z = ZdModel(1)
        model, gens = draw(st.sampled_from([
            (ZdModel(2), ZdModel(2).standard_gens()),
            (FreeGroupModel(2), FreeGroupModel(2).standard_gens()),
            (FreeProductModel([z, z]), [(((0, (1,)),), 1), (((1, (1,)),), 1)]),
        ]))
        return cayley_ball(model, gens, draw(st.integers(0, 3))).space
    letters = draw(st.lists(st.sampled_from([3, "b", ("a", 1), Fraction(1, 2), (2, "c")]),
                            min_size=1, max_size=4, unique=True))
    ids = ["x0"] + letters
    rows = [[0 if p == q else 1 + (p in letters[1:] and q in letters[1:]) for q in ids]
            for p in ids]
    base = matrix_space(ids, rows, basepoint="x0")
    return fp_window(base, draw(st.integers(0, 3)), draw(st.integers(0, 4))).space


class TestRank:
    """A space's rank orders its points as point_key does, so sorts that
    read it give what the key gives."""

    @given(mixed_space())
    @settings(max_examples=300, deadline=None)
    def test_rank_orders_as_the_key(self, case):
        space, sets = case
        assert Family.of(sets, space.rank) == Family.of(sets)
        for S in sets + [space.points]:
            assert (sorted(S, key=space.rank.__getitem__)
                    == sorted(S, key=point_key_reference))

    @given(window_spaces())
    @settings(max_examples=100, deadline=None)
    def test_windows_hand_over_their_sorted_points(self, space):
        assert "rank" in vars(space)  # handed over, not sorted again on first read
        assert space.rank == {p: i for i, p in
                              enumerate(sorted(space.points, key=point_key_reference))}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_components_come_in_family_order(self, data):
        space = data.draw(st.one_of(
            st.builds(interval_window, st.integers(-3, 0), st.integers(0, 6)),
            mixed_space().map(lambda case: case[0]),
            window_spaces()))
        S = data.draw(st.sets(st.sampled_from(space.points)))
        R = data.draw(st.sampled_from([-1, 0, 1, Fraction(3, 2), 2]))
        pieces = r_components(space, S, R)
        assert Family.of(pieces).sets == tuple(pieces)


class TestUnknownIds:
    """A point outside the space is refused with InputError, before any
    lookup in the space's tables could fail on it."""

    def test_disjointness_check(self):
        for space in (cycle_space(6), line(0, 5)):
            with pytest.raises(InputError, match="unknown point id: 99"):
                family_is_R_disjoint(space, [{0}, {1, 99}], 1)

    def test_disjointness_check_refuses_before_the_index(self):
        # the index would find no pair within R and pass the family, wherever
        # the foreign point lies; a word the window lacks is no KeyError
        with pytest.raises(InputError, match="unknown point id: 99"):
            family_is_R_disjoint(interval_window(0, 5), [{0}, {3, 99}], 1)
        window = fp_window(matrix_space(["x0", "a"], [[0, 1], [1, 0]], basepoint="x0"), 3, 3)
        with pytest.raises(InputError, match="unknown point id"):
            family_is_R_disjoint(window.space, [{()}, {("a", "a"), ("b",)}], 1)

    def test_components(self):
        with pytest.raises(InputError, match="unknown point id: 99"):
            r_components(cycle_space(6), {0, 99}, 1)

    def test_verifier(self):
        stream = ScaleSequence([1])
        fams = [Family.of([{0, 1, 2}, {3, 4, 99}])]
        with pytest.raises(InputError, match="unknown point id: 99"):
            verify_apc_witness(cycle_space(6), stream, witness_from_families(fams, stream, [0]))

    def test_decompose_family(self):
        window = fp_window(matrix_space(["x0", "a"], [[0, 1], [1, 0]], basepoint="x0"), 3, 3)
        singletons = (0, lambda U: [Family.of([{u} for u in U])])
        for space, fam in ((cycle_space(6), [set(range(6)), {99}]),
                           (window.space, [{()}, {("a",), ("b",)}])):
            with pytest.raises(InputError, match="unknown point id"):
                decompose(space, 1, [Family.of(fam)], lambda i, R: singletons,
                          ScaleSequence([1]))


class TestValidateMetric:
    def test_triangle_violation_named(self):
        space = matrix_space(
            ["a", "b", "c"],
            [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
        )
        report = validate_metric(space)
        assert not report.valid
        assert any(v.axiom == "triangle" for v in report.violations)

    def test_grid_window_valid(self):
        report = validate_metric(grid_window((4, 4)))
        assert report.valid

    def test_symmetry_violation(self):
        space = matrix_space(["a", "b"], [[0, 1], [2, 0]])
        report = validate_metric(space)
        assert any(v.axiom == "symmetry" for v in report.violations)

    def test_identity_violation(self):
        report = validate_metric(matrix_space(["a", "b"], [[1, 2], [2, 0]]))
        assert [(v.axiom, v.points, v.values) for v in report.violations] == [
            ("identity", ("a", "a"), (1,))]

    def test_negative_entry_of_a_plain_matrix(self):
        report = validate_metric(matrix_space(["a", "b", "c"], PLANTED["negative"]))
        assert ("non-negativity", ("a", "b"), (-3,)) in [
            (v.axiom, v.points, v.values) for v in report.violations]

    def test_separation_violation(self):
        space = matrix_space(["a", "b"], [[0, 0], [0, 0]])
        report = validate_metric(space)
        assert any(v.axiom == "separation" for v in report.violations)

    def test_sampled_mode_on_large_space(self):
        space = grid_window((40, 40))
        report = validate_metric(space, triple_budget=10_000, pair_budget=10_000, seed=3)
        assert report.valid
        assert report.checked["triples"][0] == "sampled"


def _report(space, **kw):
    report = validate_metric(space, **kw)
    return report.valid, report.checked, [(v.axiom, v.points, v.values)
                                          for v in report.violations]


PLANTED = {
    "asymmetric": [[0, 1, 2], [2, 0, 1], [2, 1, 0]],
    "zero-off-diagonal": [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    "triangle": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
    "negative": [[0, -3, 1], [-3, 0, 1], [1, 1, 0]],
}


def _squares_spaces():
    iv = interval_window(-2, 3)
    yield "interval", iv
    yield "interval-1", interval_window(4, 4)
    yield "grid1", grid_window((6,))
    yield "grid2", grid_window((3, 4))
    yield "grid3", grid_window((2, 2, 3))
    yield "interval^2", product_space(iv, interval_window(0, 2))
    small_grid, pair = grid_window((2, 2)), interval_window(0, 1)
    yield "(interval x grid) x interval", product_space(
        product_space(interval_window(0, 2), small_grid), pair)
    for name, rows in PLANTED.items():
        m = matrix_space(["a", "b", "c"], rows)
        yield f"{name} x interval", product_space(m, interval_window(0, 2))
        yield f"interval x {name}", product_space(pair, m)
        yield f"({name})^2", product_space(m, m)
        yield f"({name} x interval) x grid", product_space(product_space(m, pair), small_grid)


class TestValidateOnSquares:
    """A space with its own dist_sq is checked on exact squares; its copy
    without dist_sq takes the generic path, and the two reports agree."""

    CASES = dict(_squares_spaces())

    @pytest.mark.parametrize("name", CASES)
    def test_exhaustive_reports_agree(self, name):
        space = self.CASES[name]
        assert space._dist_sq is not None
        assert _report(space) == _report(without_squares(space))

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_sampled_reports_agree(self, name, seed):
        space = self.CASES[name]
        kw = {"pair_budget": 6, "triple_budget": 9, "seed": seed}
        got = _report(space, **kw)
        assert got == _report(without_squares(space), **kw)
        if len(space) > 5:
            assert got[1]["pairs"] == ("sampled", 6) and got[1]["triples"] == ("sampled", 9)

    @pytest.mark.parametrize("name", PLANTED)
    def test_planted_faults_are_reported(self, name):
        for key in (f"{name} x interval", f"({name})^2"):
            valid, _, violations = _report(self.CASES[key])
            assert not valid and violations, key

    def test_negative_entry_breaks_only_a_triangle_of_the_product(self):
        axioms = {v[0] for v in _report(self.CASES["negative x interval"])[2]}
        assert axioms == {"triangle"}


class TestDistanceOps:
    def test_diameter_endpoints(self):
        assert set_diameter(line(0, 4), {0, 1, 2}) == 2

    def test_set_distance(self):
        assert set_distance(line(0, 9), {0, 1}, {4, 5}) == 3

    def test_set_distance_empty_is_inf(self):
        assert set_distance(line(0, 4), set(), {1}) == math.inf

    def test_mesh(self):
        fam = Family.of([{0, 1}, {4}])
        assert mesh(line(0, 9), fam) == 1

    def test_unknown_point_rejected(self):
        with pytest.raises(InputError):
            set_distance(line(0, 4), {0}, {99})


class TestDisjointness:
    def test_boundary_is_strict(self):
        space = line(0, 5)
        assert not is_R_disjoint(space, {0}, {3}, 3)
        assert is_R_disjoint(space, {0}, {3}, Fraction(29, 10))

    def test_family_disjoint(self):
        space = line(0, 5)
        fam = Family.of([{0}, {2}, {4}])
        ok, bad = family_is_R_disjoint(space, fam, 1)
        assert ok and bad is None

    def test_family_violation_reports_pair(self):
        space = line(0, 5)
        fam = Family.of([{0}, {1}])
        ok, bad = family_is_R_disjoint(space, fam, 1)
        assert not ok
        assert {bad[2], bad[3]} == {0, 1}

    def test_plain_list_drops_empty_members(self):
        for space in (cycle_space(4), interval_window(0, 3)):
            assert family_is_R_disjoint(space, [[0], []], 1) == (True, None)
            assert family_is_R_disjoint(space, [[0], [], [2]], 1) == (True, None)
            assert family_is_R_disjoint(space, [[], [0], [], [1]], 1) == (False, (0, 1, 0, 1, 1))

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_R(self, a, b):
        space = line(0, 20)
        S, T = {0, a}, {12, 12 + b}
        if is_R_disjoint(space, S, T, 5):
            for smaller in (4, 3, 1, 0):
                assert is_R_disjoint(space, S, T, smaller)


class TestScalarsBeyondFloats:
    """The disjointness prefilter must fall through to exact comparison on
    values a float cannot hold, never raise or prune wrongly."""

    BIG = 10**400

    def huge_matrix(self, base):
        return matrix_space(["p", "q", "r"],
                            [[0, base, base + 1], [base, 0, base + 2], [base + 1, base + 2, 0]])

    def test_huge_int_distances(self):
        space = self.huge_matrix(self.BIG)
        fam = Family.of([{"p"}, {"q"}, {"r"}])
        assert family_is_R_disjoint(space, fam, 1) == (True, None)
        assert family_is_R_disjoint(space, fam, self.BIG - 1) == (True, None)
        assert family_is_R_disjoint(space, fam, self.BIG) == (False, (0, 1, "p", "q", self.BIG))

    def test_squares_beyond_floats_with_roots_inside(self):
        # distances near 1e200: their squares overflow a float, their roots do not
        base = 10**200
        space = self.huge_matrix(base)
        fam = Family.of([{"p", "r"}, {"q"}])
        assert family_is_R_disjoint(space, fam, base - 1) == (True, None)
        assert family_is_R_disjoint(space, fam, base) == (False, (0, 1, "q", "p", base))

    def test_huge_fraction_scale(self):
        space = self.huge_matrix(self.BIG)
        fam = Family.of([{"p"}, {"q"}])
        assert family_is_R_disjoint(space, fam, Fraction(2 * self.BIG - 1, 2))[0]
        assert not family_is_R_disjoint(space, fam, Fraction(2 * self.BIG + 1, 2))[0]

    def test_tiny_fractions(self):
        eps = Fraction(1, 10**400)
        space = matrix_space(["a", "b", "c"],
                             [[0, eps, 2 * eps], [eps, 0, eps], [2 * eps, eps, 0]])
        fam = Family.of([{"a"}, {"c"}])
        assert family_is_R_disjoint(space, fam, 0) == (True, None)
        assert family_is_R_disjoint(space, fam, 2 * eps - eps / 2) == (True, None)
        assert family_is_R_disjoint(space, fam, 2 * eps) == (False, (0, 1, "a", "c", 2 * eps))

    def test_root_distances_beyond_floats(self):
        A = matrix_space(["a0", "a1"], [[0, self.BIG], [self.BIG, 0]])
        P = product_space(A, A)
        fam = Family.of([{("a0", "a0")}, {("a1", "a1")}])
        diagonal = root_of(2 * self.BIG**2)
        assert isinstance(diagonal, Root)
        below = Fraction(14142 * self.BIG, 10**4)  # sqrt(2) = 1.41421...
        above = Fraction(14143 * self.BIG, 10**4)
        assert family_is_R_disjoint(P, fam, below) == (True, None)
        assert family_is_R_disjoint(P, fam, above) == (
            False, (0, 1, ("a0", "a0"), ("a1", "a1"), diagonal))
        report = verify_apc_witness(P, ScaleSequence([self.BIG - 1]),
                                    witness_from_families([Family.of([{p} for p in P.points])],
                                                          ScaleSequence([self.BIG - 1]), [0]))
        assert report.ok, report.describe()

    def test_float_of_root_with_huge_square(self):
        assert math.isclose(float(root_of(2 * 10**400)), math.sqrt(2) * 1e200, rel_tol=1e-15)
        with pytest.raises(OverflowError):
            float(root_of(2 * 10**700))


def unfiltered_scan(space, family, R):
    """family_is_R_disjoint's pair scan with no prefilter: same pair order,
    every cross pair compared exactly."""
    sets = family.sets
    if len(sets) <= 1 or R < 0:
        return True, None
    R2 = sq_value(R)
    for i, j in itertools.combinations(range(len(sets)), 2):
        small, big = (i, j) if len(sets[i]) <= len(sets[j]) else (j, i)
        for p in sets[small]:
            for q in list(sets[big]):
                sq = space.dist_sq(p, q)
                if not sq > R2:
                    return False, (i, j, p, q, root_of(sq))
    return True, None


@st.composite
def scaled_matrix(draw):
    """A matrix metric c * l1 + b off the diagonal, on points of a 7 x 7 grid,
    with int, Fraction or beyond-float scale c; returns (space, c)."""
    pts = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                        min_size=1, max_size=6, unique=True))
    c = draw(st.sampled_from([1, 3, Fraction(1, 3), Fraction(7, 2), 10**310]))
    b = c * draw(st.sampled_from([0, 0, 1, Fraction(1, 2)]))
    rows = [[0 if p == q else c * (abs(p[0] - q[0]) + abs(p[1] - q[1])) + b for q in pts]
            for p in pts]
    return matrix_space(range(len(pts)), rows), c


@st.composite
def prefilter_case(draw):
    """A matrix space or an l2 product of two, a family of disjoint sets on
    it, and R: a realized distance (Roots on products), a Root, or a Fraction."""
    space, c = draw(scaled_matrix())
    if draw(st.booleans()):
        other, c2 = draw(scaled_matrix())
        space, c = product_space(space, other), max(c, c2)
    labels = draw(st.lists(st.integers(-1, 4), min_size=len(space), max_size=len(space)))
    fam = Family.of([{p for p, l in zip(space.points, labels) if l == k} for k in range(5)])
    pairs = list(itertools.combinations(space.points, 2))
    kind = draw(st.sampled_from(["distance", "root", "fraction"]))
    if kind == "distance" and pairs:
        R = space.dist(*draw(st.sampled_from(pairs)))
    elif kind == "root":
        R = root_of(draw(st.integers(0, 300)) * c * c)
    else:
        R = c * Fraction(draw(st.integers(0, 40)), 3)
    return space, fam, R


class TestPrefilter:
    @given(prefilter_case())
    @settings(max_examples=400, deadline=None)
    def test_matches_unfiltered_scan(self, case):
        space, fam, R = case
        assert family_is_R_disjoint(space, fam, R) == unfiltered_scan(space, fam, R)


class TestSampler:
    """One seeded sampler draws the validator's pairs and triples."""

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 9, 64, 4096, 4097])
    def test_pairs_match_the_randrange_loop(self, n):
        pts = list(range(n))
        budget = min(200, n * (n - 1) // 2 - 1)
        for seed in range(20):
            assert list(_sample_pairs(pts, budget, seed)) == randrange_pairs(n, budget, seed)

    def test_shift_map_hits_each_ordered_tuple_once(self, monkeypatch):
        """Every script of in-range draws, fed through getrandbits, maps to
        a different ordered k-tuple of distinct indices, and all are hit."""
        script = []

        class Scripted:
            def __init__(self, seed):
                pass

            def getrandbits(self, bits):
                return script.pop(0)

        monkeypatch.setattr(metric, "random", types.SimpleNamespace(Random=Scripted))
        for n in range(1, 8):
            for k in range(1, min(n, 3) + 1):
                hits = collections.Counter()
                for raw in itertools.product(*(range(n - t) for t in range(k))):
                    script[:] = raw
                    (draw,) = metric._sample_indices(n, k, 1, 0)
                    assert not script
                    hits[tuple(draw)] += 1
                assert hits == dict.fromkeys(itertools.permutations(range(n), k), 1), (n, k)

    def test_sampled_violations_are_confirmed_by_the_definition(self):
        """A 36-point line with planted faults: every sampled violation holds
        by the definition, and the report counts exactly the budgets."""
        n = 36
        rows = [[abs(i - j) for j in range(n)] for i in range(n)]
        rows[0][n - 1] = rows[n - 1][0] = 3 * n  # triangles through 0 and n - 1
        rows[5][9] = 7  # symmetry
        rows[12][13] = rows[13][12] = 0  # separation
        rows[20][30] = rows[30][20] = 40  # more triangles
        space = matrix_space(range(n), rows)
        d = lambda p, q: rows[p][q]
        for seed in range(4):
            report = validate_metric(space, pair_budget=300, triple_budget=2000, seed=seed)
            assert report.checked == {"diagonal": n, "pairs": ("sampled", 300),
                                      "triples": ("sampled", 2000)}
            assert not report.valid
            for v in report.violations:
                p, q = v.points[:2]
                if v.axiom == "triangle":
                    r = v.points[2]
                    assert d(p, q) > d(p, r) + d(r, q)
                    assert v.values == (d(p, q), d(p, r), d(r, q))
                elif v.axiom == "symmetry":
                    assert d(p, q) != d(q, p) and v.values == (d(p, q), d(q, p))
                else:
                    assert v.axiom == "separation" and p != q and d(p, q) == 0


FAIL_KINDS = ("interval", "grid", "l2-product", "tree", "words")


@st.composite
def failing_family(draw):
    """A space with an index, a partition of some of its points into two to
    five sets, and R at least the distance of a pair planted across two of
    them, so that the family fails and the scan names its first violation."""
    kind = draw(st.sampled_from(FAIL_KINDS))
    if kind == "interval":
        space = interval_window(draw(st.integers(-5, 5)), draw(st.integers(6, 30)))
    elif kind == "grid":
        space = grid_window([draw(st.integers(1, 7)), draw(st.integers(2, 7))])
    elif kind == "l2-product":
        space = product_space(interval_window(0, draw(st.integers(1, 6))),
                              interval_window(-2, draw(st.integers(0, 5))))
    elif kind == "tree":
        space = random_tree(draw(st.integers(2, 40)),
                            random.Random(draw(st.integers(0, 2**16)))).as_space()
    else:
        base = matrix_space(["x0", "a", "b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
                            basepoint="x0")
        space = fp_window(base, *draw(st.sampled_from([(2, 4), (3, 5), (4, 6)]))).space
    assert space.index is not None
    pts = list(space.points)
    k = draw(st.integers(2, 5))
    labels = draw(st.lists(st.integers(-1, k - 1), min_size=len(pts), max_size=len(pts)))
    p, q = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=2, unique=True))
    a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    sets = [set() for _ in range(k)]
    for x, label in zip(pts, labels):
        if label >= 0:
            sets[label].add(x)
    for x, label in ((p, a), (q, b)):
        for s in sets:
            s.discard(x)
        sets[label].add(x)
    d2 = space.dist_sq(p, q)
    R = draw(st.sampled_from([root_of(d2), root_of(d2 + 1), root_of(4 * d2)]))
    return space, Family.of(sets, space.rank), R


class TestFailingScan:
    @given(failing_family())
    @settings(max_examples=300, deadline=None)
    def test_index_cleared_scan_matches_generic_path(self, case):
        space, fam, R = case
        got = family_is_R_disjoint(space, fam, R)
        assert not got[0]
        assert got == family_is_R_disjoint(without_index(space), fam, R)


class TestComponents:
    def test_line_example(self):
        space = line(0, 11)
        comps = r_components(space, {0, 1, 2, 10, 11}, 1)
        assert comps == [frozenset({0, 1, 2}), frozenset({10, 11})]

    def test_big_R_single_component(self):
        space = line(0, 9)
        comps = r_components(space, set(space.points), 9)
        assert len(comps) == 1

    def test_R_zero_singletons(self):
        space = line(0, 5)
        comps = r_components(space, {0, 2, 4}, 0)
        assert all(len(c) == 1 for c in comps)

    def test_repeated_point_makes_one_piece(self):
        """A point listed twice is one point, on every index and on none."""
        xab = matrix_space(["x0", "a", "b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
                           basepoint="x0")
        words = fp_window(xab, 2, 4).space
        cases = [(words, ("a",)), (without_index(words), ("a",)),
                 (random_tree(6).as_space(), 3), (grid_window([3, 3]), (1, 2)),
                 (without_index(interval_window(0, 4)), 2)]
        for (space, p), R in itertools.product(cases, [-1, 0, 1, 5]):
            q = space.points[0]
            assert r_components(space, [p, p], R) == [frozenset({p})]
            assert r_components(space, [p, q, p], R) == r_components(space, {p, q}, R)

    def test_matches_brute_closure_and_pieces_disjoint(self):
        rng = random.Random(7)
        for _ in range(20):
            space = random_points_space(rng, rng.randint(2, 9))
            S = set(rng.sample(space.points, rng.randint(1, len(space))))
            R = rng.randint(0, 6)
            comps = r_components(space, S, R)
            assert comps == brute_components(space, S, R)
            assert set().union(*comps) == S
            for i in range(len(comps)):
                for j in range(i + 1, len(comps)):
                    assert is_R_disjoint(space, comps[i], comps[j], R)
                    # maximality: merging any two pieces brings a pair <= R?
                    # no -- distinct pieces have *no* cross pair <= R
                    assert all(
                        space.dist(p, q) > R for p in comps[i] for q in comps[j]
                    )


class TestProductSpace:
    def test_3_4_5_exact(self):
        X = line(0, 4)
        P = product_space(X, X)
        assert P.dist((0, 0), (3, 4)) == 5

    def test_singleton_factor_isometric(self):
        X = FiniteMetricSpace(["p"], lambda a, b: 0)
        Y = line(0, 6)
        P = product_space(X, Y)
        for a in Y.points:
            for b in Y.points:
                assert P.dist(("p", a), ("p", b)) == Y.dist(a, b)

    def test_grid_product_validates(self):
        P = product_space(line(0, 2), line(0, 2))
        assert len(P) == 9
        assert validate_metric(P).valid

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_between_max_and_sum(self, x1, y1, x2, y2):
        X = line(0, 3)
        P = product_space(X, X)
        d = P.dist((x1, y1), (x2, y2))
        dx, dy = X.dist(x1, x2), X.dist(y1, y2)
        assert d >= max(dx, dy)
        assert triangle_le(d, dx, dy)


class TestGenerators:
    def test_interval(self):
        space = interval_window(0, 4)
        assert len(space) == 5
        assert set_diameter(space, set(space.points)) == 4

    def test_grid_distance(self):
        g = grid_window((3, 3))
        assert g.dist((0, 0), (2, 2)) == 4

    def test_hypercube_union_cross_distance(self):
        h = hypercube_union(2)
        assert h.dist((1, (1,)), (2, (0, 0))) == 1 + 0 + abs(4 - 1)

    def test_generate_space_dispatch(self):
        for spec in (
            {"kind": "interval", "lo": 0, "hi": 4},
            {"kind": "grid", "shape": [3, 2]},
            {"kind": "path", "n": 5},
            {"kind": "cycle", "n": 6},
            {"kind": "star", "leaves": 5},
            {"kind": "hypercube_union", "max_dim": 3},
        ):
            space = generate_space(spec)
            assert validate_metric(space).valid
        # integral strings and floats are integers (others exit 2, see test_io_cli)
        assert generate_space({"kind": "path", "n": "7"}).point_set == set(range(7))
        assert generate_space({"kind": "interval", "lo": 0, "hi": 1000.0}).point_set == set(
            range(1001))

    def test_generator_cap(self):
        with pytest.raises(InputError):
            generate_space({"kind": "grid", "shape": [1000, 1000]})

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            generate_space({"kind": "moebius"})

    def test_collapse_map_is_one_lipschitz(self):
        space, target, fmap = hypercube_collapse(3)
        for p in space.points:
            for q in space.points:
                assert target.dist(fmap(p), fmap(q)) <= space.dist(p, q)

    def test_cycle_and_star(self):
        assert cycle_space(6).dist(0, 5) == 1
        s = star_space(4)
        assert s.dist(1, 2) == 2 and s.dist(0, 3) == 1
