import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from apckit.covers import (
    ApcOracle,
    CoverWitness,
    ScaleSequence,
    SolverTable,
    WitnessEntry,
    exact_oracle,
    greedy_families_at_scale,
    greedy_oracle,
    grid_oracle,
    interval_oracle,
    min_families_at_scale,
    minimal_feasible_mesh,
    verify_apc_witness,
    witness_from_families,
)
from apckit.metric import (
    Family,
    InputError,
    grid_window,
    interval_window,
    matrix_space,
    path_space,
    product_space,
    r_components,
    set_diameter,
    sorted_points,
)
from conftest import brute_min_families, random_points_space


def scales(*prefix, extend="repeat-last", param=None):
    return ScaleSequence(prefix, extend, param)


class TestScaleSequence:
    def test_repeat_last(self):
        s = scales(1, 2, 4)
        assert [s.at(i) for i in (1, 2, 3, 4, 9)] == [1, 2, 4, 4, 4]

    def test_arithmetic(self):
        s = scales(1, 3, extend="arithmetic", param=2)
        assert [s.at(i) for i in (2, 3, 5)] == [3, 5, 9]

    def test_geometric(self):
        s = scales(1, extend="geometric", param=2)
        assert s.at(4) == 8

    def test_rejects_decreasing_prefix(self):
        with pytest.raises(InputError):
            scales(3, 1)

    def test_rejects_bad_rules(self):
        with pytest.raises(InputError):
            scales(1, extend="fibonacci")
        with pytest.raises(InputError):
            scales(1, extend="arithmetic", param=-1)
        with pytest.raises(InputError):
            scales(1, extend="geometric", param=Fraction(1, 2))

    def test_index_must_be_positive(self):
        with pytest.raises(InputError):
            scales(1).at(0)


class TestVerifier:
    def test_single_set_passes(self):
        space = interval_window(0, 4)
        w = witness_from_families([Family.of([set(space.points)])], scales(1), [4])
        assert verify_apc_witness(space, scales(1), w).ok

    def test_constructed_violation_names_pair(self):
        space = interval_window(0, 4)
        fam = Family.of([{0}, {1}, {2}, {3}, {4}])
        w = witness_from_families([fam], scales(1), [0])
        report = verify_apc_witness(space, scales(1), w)
        assert not report.ok
        v = report.violations[0]
        assert v.condition == "disjointness" and v.entry == 1

    def test_coverage_violation(self):
        space = interval_window(0, 4)
        w = witness_from_families([Family.of([{0, 1}])], scales(1), [1])
        report = verify_apc_witness(space, scales(1), w)
        assert any(v.condition == "coverage" for v in report.violations)

    def test_mesh_violation(self):
        space = interval_window(0, 4)
        w = witness_from_families([Family.of([set(space.points)])], scales(1), [3])
        report = verify_apc_witness(space, scales(1), w)
        assert any(v.condition == "mesh" for v in report.violations)

    def test_unknown_point_is_input_error(self):
        space = interval_window(0, 4)
        w = witness_from_families([Family.of([{0, 99}])], scales(1), [99])
        with pytest.raises(InputError):
            verify_apc_witness(space, scales(1), w)

    def test_empty_families_are_vacuous(self):
        space = interval_window(0, 2)
        entries = [
            WitnessEntry(Fraction(1), Family.of([]), 0),
            WitnessEntry(Fraction(1), Family.of([set(space.points)]), 2),
        ]
        assert verify_apc_witness(space, scales(1), CoverWitness(entries)).ok

    def test_restricted_coverage_target(self):
        space = interval_window(0, 9)
        w = witness_from_families([Family.of([{0, 1, 2}])], scales(1), [2])
        assert not verify_apc_witness(space, scales(1), w).ok
        assert verify_apc_witness(space, scales(1), w, require_cover_of={0, 1}).ok


class TestExactSolver:
    def test_path5_needs_two_families(self):
        res = min_families_at_scale(path_space(5), 1, 0)
        assert res.n == 2
        assert res.certificate.n == 1
        assert res.certificate.replay(path_space(5))
        sets = {s for f in res.families for s in f.sets}
        assert all(len(s) == 1 for s in sets)

    def test_square_needs_two_families(self):
        cube = grid_window((2, 2))
        res = min_families_at_scale(cube, 1, 0)
        assert res.n == 2
        assert res.certificate.replay(cube)

    def test_R0_big_B_single_family(self):
        space = path_space(6)
        res = min_families_at_scale(space, 0, 5)
        assert res.n == 1

    def test_matches_brute_force_on_tiny_instances(self):
        rng = random.Random(11)
        for _ in range(12):
            space = random_points_space(rng, rng.randint(2, 6), dim=2, span=4)
            R = rng.randint(0, 4)
            B = rng.randint(0, 4)
            res = min_families_at_scale(space, R, B)
            expected = brute_min_families(space, R, B, limit=6)
            assert res.n == expected

    def test_a_family_count_above_n_searches_as_n(self):
        # a point opens at most one family, so k > n finds the same families
        # with the same node count as k = n, and needs no room for k families
        rng = random.Random(5)
        for _ in range(10):
            space = random_points_space(rng, rng.randint(1, 6), dim=2, span=4)
            R, B = rng.randint(0, 4), rng.randint(0, 4)
            table = SolverTable(space, space.points)
            expected = table.search(R, B, len(space.points))
            tracemalloc.start()
            try:
                got = table.search(R, B, 10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == expected
            assert peak < 10**6

    def test_witness_verifies(self):
        space = path_space(7)
        res = min_families_at_scale(space, 2, 1)
        w = witness_from_families(
            res.families, scales(2), [res.mesh] * res.n
        )
        assert verify_apc_witness(space, scales(2), w).ok

    def test_mesh_bound_in_any_scalar_form(self):
        # on an l2 product the distances are Roots, which a float or a string
        # bound could not be compared with
        P = product_space(interval_window(0, 2), interval_window(0, 2))
        results = [(min_families_at_scale(P, 1, B), greedy_families_at_scale(P, 1, B))
                   for B in (1.5, "3/2", Fraction(3, 2))]
        assert results[0] == results[1] == results[2]
        assert results[0][0].certificate.B == Fraction(3, 2)

    def test_cap_enforced(self):
        with pytest.raises(InputError):
            min_families_at_scale(path_space(30), 1, 0)

    def test_minimal_feasible_mesh(self):
        B, fams = minimal_feasible_mesh(path_space(5), 2, 1)
        assert B == 0
        # one family at R=1: all five points chain into one 1-component,
        # so the single set must hold the whole path
        B2, _ = minimal_feasible_mesh(path_space(5), 1, 1)
        assert B2 == 4

    def test_minimal_feasible_mesh_orders_candidates_exactly(self):
        # 1/2 - 10**-30 and 1/2 are the same float; both are feasible, and the
        # smaller one must be found first
        eps, half = Fraction(1, 10**30), Fraction(1, 2)
        ids = ["a", "b", "c", "e"]
        near = {frozenset("ab"): half - eps, frozenset("ce"): half}
        rows = [[0 if p == q else near.get(frozenset((p, q)), 10) for q in ids] for p in ids]
        B, fams = minimal_feasible_mesh(matrix_space(ids, rows), 1, half - eps)
        assert B == half - eps
        assert fams == [Family.of([{"a", "b"}, {"c"}, {"e"}])]

    def test_minimal_feasible_mesh_beyond_floats(self):
        big = 10**400
        space = matrix_space(["p", "q"], [[0, big], [big, 0]])
        assert minimal_feasible_mesh(space, 1, 1)[0] == 0
        assert minimal_feasible_mesh(space, 1, big)[0] == big


class TestGreedySolver:
    def test_greedy_geq_exact_on_random_instances(self):
        rng = random.Random(23)
        gaps = []
        for _ in range(40)  :
            space = random_points_space(rng, rng.randint(2, 10), dim=2, span=6)
            R = rng.randint(0, 5)
            B = rng.randint(0, 5)
            exact = min_families_at_scale(space, R, B)
            greedy = greedy_families_at_scale(space, R, B)
            assert greedy.n >= exact.n
            gaps.append(greedy.n - exact.n)
            w = witness_from_families(
                greedy.families, scales(R), [B] * greedy.n
            )
            assert verify_apc_witness(space, scales(R), w).ok

    def test_trivial_when_everything_fits(self):
        space = path_space(5)
        res = greedy_families_at_scale(space, 4, 4)
        assert res.n == 1

    @staticmethod
    def first_fit(space, R, B):
        """Reference greedy: points in order of decreasing R-degree, each into
        the first family whose R-components all stay within diameter B."""
        pts = sorted_points(space.points)
        degree = {p: sum(space.dist(p, q) <= R for q in pts if q != p) for p in pts}
        groups = []
        for p in sorted(pts, key=lambda p: -degree[p]):
            for g in groups:
                if all(set_diameter(space, c) <= B for c in r_components(space, g + [p], R)):
                    g.append(p)
                    break
            else:
                groups.append([p])
        return [Family.of(r_components(space, g, R)) for g in groups]

    def test_families_match_first_fit(self):
        rng = random.Random(1009)
        for _ in range(100):
            space = random_points_space(rng, rng.randint(2, 12), dim=2, span=7)
            R = rng.randint(0, 6)
            B = rng.randint(0, 6)
            res = greedy_families_at_scale(space, R, B)
            assert res.families == self.first_fit(space, R, B)
            assert res.n == len(res.families) and res.nodes == 0 and res.certificate is None

    def test_deep_path_needs_no_recursion(self):
        # 1100 points placed one per search level: deeper than the default
        # recursion limit
        res = greedy_families_at_scale(interval_window(0, 1099), 1, 0)
        assert res.n == 2 and res.nodes == 0


def families_digest(results):
    fams = [[[sorted_points(s) for s in f.sets] for f in r.families] for r in results]
    return hashlib.sha256(repr(fams).encode()).hexdigest()


class TestSolverPins:
    """Exact-solver answers pinned as (n, mesh, nodes, certificate n, certificate
    nodes), plus a digest of the families, so a change to the search that alters
    any answer, witness or node count shows here."""

    CRITERION_2 = [
        (1, 0, 4, 0, 0), (3, 0, 11, 2, 4), (1, 1, 4, 0, 0), (1, 2, 5, 0, 0), (4, 3, 50, 3, 31),
        (1, 2, 4, 0, 0), (1, 0, 3, 0, 0), (4, 0, 18, 3, 4), (1, 0, 5, 0, 0), (1, 0, 7, 0, 0),
        (2, 1, 8, 1, 3), (2, 0, 12, 1, 2), (1, 0, 4, 0, 0), (2, 2, 8, 1, 2), (2, 2, 15, 1, 2),
        (2, 0, 6, 1, 2), (2, 0, 8, 1, 2), (3, 2, 17, 2, 5), (1, 2, 12, 0, 0), (4, 1, 29, 3, 8),
        (3, 1, 12, 2, 5), (2, 0, 5, 1, 2), (2, 0, 9, 1, 2), (1, 0, 8, 0, 0), (2, 3, 7, 1, 2),
        (2, 4, 15, 1, 5), (1, 0, 2, 0, 0), (2, 6, 18, 1, 8), (1, 3, 9, 0, 0),
        (3, 5, 55, 2, 38), (1, 3, 4, 0, 0), (2, 0, 5, 1, 2), (1, 0, 2, 0, 0), (1, 5, 11, 0, 0),
        (1, 1, 4, 0, 0), (5, 0, 28, 4, 8), (2, 4, 12, 1, 4), (3, 2, 25, 2, 12),
        (2, 1, 10, 1, 2), (4, 3, 26, 3, 13), (1, 0, 4, 0, 0), (1, 0, 10, 0, 0),
        (3, 3, 16, 2, 5), (3, 4, 25, 2, 11), (2, 3, 7, 1, 3), (2, 4, 8, 1, 4), (2, 4, 6, 1, 3),
        (2, 0, 5, 1, 2), (2, 1, 5, 1, 2), (3, 3, 60, 2, 17), (2, 3, 16, 1, 5),
        (2, 4, 14, 1, 5), (2, 3, 8, 1, 3), (2, 0, 13, 1, 2), (1, 4, 10, 0, 0), (1, 0, 2, 0, 0),
        (1, 0, 3, 0, 0), (1, 0, 3, 0, 0), (3, 3, 28, 2, 8), (2, 6, 9, 1, 4), (1, 0, 2, 0, 0),
        (4, 2, 84, 3, 49), (5, 1, 29, 4, 8), (2, 1, 7, 1, 2), (4, 0, 19, 3, 6),
        (1, 0, 5, 0, 0), (1, 0, 10, 0, 0), (1, 0, 2, 0, 0), (2, 1, 9, 1, 2), (6, 1, 43, 5, 11),
        (1, 0, 2, 0, 0), (3, 3, 21, 2, 7), (3, 3, 12, 2, 4), (2, 6, 21, 1, 9),
        (4, 2, 32, 3, 11), (4, 0, 15, 3, 4), (1, 0, 7, 0, 0), (3, 4, 75, 2, 58),
        (1, 0, 3, 0, 0), (4, 0, 17, 3, 4), (2, 5, 19, 1, 7), (1, 1, 7, 0, 0), (5, 0, 25, 4, 5),
        (2, 5, 16, 1, 5), (2, 6, 22, 1, 10), (6, 0, 45, 5, 12), (1, 0, 4, 0, 0),
        (1, 0, 8, 0, 0), (2, 4, 15, 1, 5), (1, 1, 3, 0, 0), (2, 2, 17, 1, 7), (3, 0, 17, 2, 5),
        (1, 0, 7, 0, 0), (3, 0, 16, 2, 6), (2, 0, 6, 1, 2), (3, 2, 19, 2, 6), (2, 1, 9, 1, 4),
        (3, 4, 42, 2, 28), (1, 0, 8, 0, 0), (2, 1, 10, 1, 3),
    ]
    CRITERION_2_FAMILIES = "890f875785fc60acd6c57b0bc94539f226f210c44a8f9b0d69a8012db313c37a"

    # At (R, B) = (2, 2) the 4-cube needs 4 families.  A search whose undo
    # reordered a family's components lost one of them on backtracking and
    # answered 3, with a member of diameter 4.
    CUBE = {(1, 0): (2, 0, 18, 1, 2), (2, 1): (4, 1, 52, 3, 25), (2, 2): (4, 2, 1229, 3, 1157)}
    CUBE_FAMILIES = "e05e41db12b6bd7a5dea3c62b5917a13af1e5305f36f72fce7d95bfc4340927b"

    @staticmethod
    def pinned(res):
        return (res.n, res.mesh, res.nodes, res.certificate.n, res.certificate.nodes)

    def test_criterion_2_instances(self):
        rng = random.Random(1009)
        results = []
        for _ in range(100):
            space = random_points_space(rng, rng.randint(2, 12), dim=2, span=7)
            R = rng.randint(0, 6)
            B = rng.randint(0, 6)
            results.append(min_families_at_scale(space, R, B))
        assert [self.pinned(r) for r in results] == self.CRITERION_2
        assert families_digest(results) == self.CRITERION_2_FAMILIES

    def test_four_cube(self):
        cube = grid_window((2,) * 4)
        results = {RB: min_families_at_scale(cube, *RB) for RB in self.CUBE}
        assert {RB: self.pinned(r) for RB, r in results.items()} == self.CUBE
        assert families_digest(results.values()) == self.CUBE_FAMILIES
        for (R, B), res in results.items():
            w = witness_from_families(res.families, scales(R), [B] * res.n)
            assert verify_apc_witness(cube, scales(R), w).ok
            assert res.certificate.replay(cube)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_minimal_feasible_mesh_on_cubes(self, dim):
        # two families at R = 2: the halves split on the first coordinate
        cube = grid_window((2,) * dim)
        B, fams = minimal_feasible_mesh(cube, 2, 2)
        assert B == dim - 1
        assert fams == [Family.of([{p for p in cube.points if p[0] == h}]) for h in (0, 1)]


class TestOracles:
    def test_interval_oracle_blocks(self):
        space = interval_window(0, 9)
        oracle = interval_oracle(space)
        w = oracle.checked(scales(2))
        assert len(w.entries) == 2
        lens = {frozenset(map(len, e.family.sets)) for e in w.entries}
        assert lens == {frozenset({2})}

    def test_exact_oracle_path(self):
        oracle = exact_oracle(path_space(5))
        w = oracle.checked(scales(1))
        assert len(w.entries) == 2
        assert all(len(s) == 1 for e in w.entries for s in e.family.sets)

    def test_oracle_soundness_fuzz(self):
        rng = random.Random(5)
        spaces = [
            (interval_oracle(interval_window(0, rng.randint(3, 25))), None)
            for _ in range(4)
        ]
        spaces.append((exact_oracle(path_space(6)), None))
        spaces.append((greedy_oracle(random_points_space(rng, 12, dim=2)), None))
        for oracle, _ in spaces:
            for _ in range(6):
                prefix = sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 4)))
                rule = rng.choice(["repeat-last", "arithmetic", "geometric"])
                param = {"repeat-last": None, "arithmetic": rng.randint(0, 3),
                         "geometric": rng.randint(1, 2)}[rule]
                s = ScaleSequence(prefix, rule, param)
                w = oracle.checked(s)  # raises on violation
                assert verify_apc_witness(oracle.space, s, w).ok

    def test_grid_oracle_sound(self):
        g = grid_window((6, 5))
        oracle = grid_oracle(g, (6, 5))
        s = scales(1, 2)
        w = oracle.checked(s)
        assert verify_apc_witness(g, s, w).ok

    def test_grid_oracle_3d(self):
        g = grid_window((3, 3, 3))
        oracle = grid_oracle(g, (3, 3, 3))
        s = scales(1)
        assert verify_apc_witness(g, s, oracle.checked(s)).ok


class TestVerifierIsDecisionProcedure:
    def test_matches_brute_force_on_fuzzed_witnesses(self):
        """The optimized verifier and a definition-level brute check must agree
        on random witnesses, valid and perturbed alike."""
        from conftest import brute_witness_verdict

        rng = random.Random(77)
        for trial in range(60):
            space = random_points_space(rng, rng.randint(2, 9), dim=2, span=6)
            pts = list(space.points)
            n_fams = rng.randint(1, 3)
            entries = []
            for _ in range(n_fams):
                sets = []
                pool = pts[:]
                rng.shuffle(pool)
                while pool and rng.random() < 0.85:
                    k = rng.randint(1, min(3, len(pool)))
                    sets.append({pool.pop() for _ in range(k)})
                mesh = rng.randint(0, 8)
                entries.append(
                    WitnessEntry(Fraction(rng.randint(0, 4)), Family.of(sets), mesh)
                )
            s = scales(rng.randint(0, 4))
            witness = CoverWitness(entries)
            got = verify_apc_witness(space, s, witness).ok
            expected = brute_witness_verdict(space, s, witness)
            assert got == expected, f"trial {trial}"
