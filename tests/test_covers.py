import itertools
import random
from fractions import Fraction

import pytest

from apckit.covers import (
    ApcOracle,
    CoverWitness,
    ScaleSequence,
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

    def test_witness_verifies(self):
        space = path_space(7)
        res = min_families_at_scale(space, 2, 1)
        w = witness_from_families(
            res.families, scales(2), [res.mesh] * res.n
        )
        assert verify_apc_witness(space, scales(2), w).ok

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
