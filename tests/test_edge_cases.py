"""Adversarial and boundary coverage: growing scale streams, irrational mesh
bounds through serialization, empty slots, and provider misbehavior."""

import random
from fractions import Fraction

import pytest

from apckit import io as fio
from apckit.combinators import (
    UniformlyExpansiveMap,
    fiber_scheme_from_asdim,
    fibering_cover,
    identity_rho,
    product_cover,
)
from apckit.covers import (
    ApcOracle,
    CoverWitness,
    ScaleSequence,
    WitnessEntry,
    exact_oracle,
    interval_oracle,
    verify_apc_witness,
    witness_from_families,
)
from apckit.exact import Root, root_of
from apckit.groups import IntervalKernelSource, ZdModel, cayley_ball, extension_cover, \
    lifted_generating_set, WeightedGeneratingSet, CayleyWindow
from apckit.metric import (
    ConstructionError,
    Family,
    FiniteMetricSpace,
    InputError,
    interval_window,
    product_space,
)
from reference import whole_fiber_scheme


def scales(*prefix, **kw):
    return ScaleSequence(prefix, **kw)


class TestGrowingScaleStreams:
    def test_product_with_geometric_extension(self):
        X = interval_window(0, 40)
        s = scales(1, extend="geometric", param=2)
        w = product_cover(interval_oracle(X), interval_oracle(X), s)
        P = product_space(X, X)
        assert verify_apc_witness(P, s, w).ok

    def test_product_with_arithmetic_extension(self):
        X = interval_window(0, 24)
        s = scales(1, 2, extend="arithmetic", param=3)
        w = product_cover(interval_oracle(X), interval_oracle(X), s)
        P = product_space(X, X)
        assert verify_apc_witness(P, s, w).ok

    def test_fibering_with_geometric_extension(self):
        Y = interval_window(0, 30)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)
        s = scales(2, extend="geometric", param=2)
        w = fibering_cover(m, interval_oracle(Y), whole_fiber_scheme(), s)
        assert verify_apc_witness(Y, s, w).ok

    def test_extension_pipeline_with_arithmetic_scales(self):
        G = ZdModel(2)
        H = ZdModel(1)
        phi = lambda g: (g[1],)
        sigma = lambda h: (0, h[0])
        genset = lifted_generating_set(
            G, [((1, 0), 1), ((-1, 0), 1)], H.standard_gens(), sigma
        )
        wG = CayleyWindow(G, genset, 10)
        wH = CayleyWindow(H, WeightedGeneratingSet(H, H.standard_gens()), 10)
        itv = interval_window(-10, 10)

        def relabel(oracle):
            def provide(s):
                w = oracle.provide(s)
                entries = [
                    WitnessEntry(
                        e.required_scale,
                        Family.of([{(p,) for p in S} for S in e.family.sets]),
                        e.mesh_bound,
                    )
                    for e in w.entries
                ]
                return CoverWitness(entries, dict(w.meta))

            return ApcOracle(wH.space, provide)

        s = scales(1, extend="arithmetic", param=1)
        witness = extension_cover(
            wG, phi, sigma, wH, relabel(interval_oracle(itv)),
            IntervalKernelSource(coordinate=lambda g: g[0], step=1), s,
        )
        assert verify_apc_witness(wG.space, s, witness).ok


class TestIrrationalMeshSerialization:
    def test_product_witness_roundtrip_preserves_root_bounds(self, tmp_path):
        X = interval_window(0, 12)
        s = scales(1, 2)
        w = product_cover(interval_oracle(X), interval_oracle(X), s)
        assert any(isinstance(e.mesh_bound, Root) for e in w.entries if not e.is_empty())
        p = tmp_path / "w.json"
        fio.save_witness(str(p), s, w)
        s2, w2 = fio.load_witness(str(p))
        P = product_space(X, X)
        assert verify_apc_witness(P, s2, w2).ok
        for e1, e2 in zip(w.entries, w2.entries):
            assert e1.mesh_bound == e2.mesh_bound
        p2 = tmp_path / "w2.json"
        fio.save_witness(str(p2), s2, w2)
        assert p.read_bytes() == p2.read_bytes()


class TestEmptySlotHandling:
    def test_oracle_with_leading_empty_slot(self):
        # a valid oracle may leave early slots empty; the combinator must
        # keep the layout and still verify
        X = interval_window(0, 6)

        def provide(s):
            entries = [
                WitnessEntry(s.at(1), Family.of([]), 0),
                WitnessEntry(s.at(2), Family.of([set(X.points)]), 6),
            ]
            return CoverWitness(entries)

        ox = ApcOracle(X, provide, name="lazy-first")
        s = scales(1)
        w = product_cover(ox, exact_oracle(interval_window(0, 2)), s)
        P = product_space(X, interval_window(0, 2))
        assert verify_apc_witness(P, s, w).ok

    def test_witness_trailing_empty_slots_pass(self):
        X = interval_window(0, 3)
        entries = [
            WitnessEntry(Fraction(1), Family.of([set(X.points)]), 3),
            WitnessEntry(Fraction(1), Family.of([]), 0),
            WitnessEntry(Fraction(1), Family.of([]), 0),
        ]
        assert verify_apc_witness(X, scales(1), CoverWitness(entries)).ok


class TestProviderMisbehavior:
    def test_scheme_with_wrong_family_count_aborts(self):
        Y = interval_window(0, 8)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)

        def lying(stream):
            from apckit.combinators import FiberCoverScheme

            return FiberCoverScheme(3, lambda M: (M, lambda A: [Family.of([A])]))

        with pytest.raises(ConstructionError):
            fibering_cover(m, interval_oracle(Y), lying, scales(1))

    def test_scheme_leaving_fiber_aborts(self):
        Y = interval_window(0, 8)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)

        def escaping(stream):
            from apckit.combinators import FiberCoverScheme

            return FiberCoverScheme(1, lambda M: (M, lambda A: [Family.of([set(Y.points)])]))

        with pytest.raises(ConstructionError):
            fibering_cover(m, interval_oracle(Y), escaping, scales(2))

    def test_provider_bound_violation_in_asdim_scheme(self):
        Y = interval_window(0, 8)
        m = UniformlyExpansiveMap(Y, Y, lambda p: p, identity_rho)

        def provider(M, R):
            # claims bound 0 but returns whole fibers
            return 0, lambda A: [Family.of([A])]

        with pytest.raises(ConstructionError):
            fibering_cover(
                m, interval_oracle(Y), fiber_scheme_from_asdim(0, provider), scales(2)
            )


class TestScaleEdgeValues:
    def test_zero_scales_everywhere(self):
        X = interval_window(0, 5)
        s = scales(0)
        w = exact_oracle(X).checked(s)
        assert verify_apc_witness(X, s, w).ok

    def test_fractional_scales(self):
        X = interval_window(0, 10)
        s = scales(Fraction(1, 2), Fraction(3, 2))
        w = interval_oracle(X).checked(s)
        assert verify_apc_witness(X, s, w).ok
        w2 = product_cover(interval_oracle(X), interval_oracle(X), s)
        assert verify_apc_witness(product_space(X, X), s, w2).ok


class TestFractionalQi:
    def test_qi_inequalities_with_fractional_gap(self):
        from apckit.freeprod import fp_window, qi_check
        from apckit.metric import matrix_space

        X = matrix_space(
            ["x0", "a", "b"],
            [[0, "1/2", "3/2"], ["1/2", 0, "3/2"], ["3/2", "3/2", 0]],
            basepoint="x0",
        )
        win = fp_window(X, 3, 5)
        assert win.E == Fraction(1, 2)
        for M in (Fraction(1, 2), 1, 2):
            violations = qi_check(win, {("a",)}, M)
            assert not violations, violations[:2]
            violations = qi_check(win, {("a",), ("b",)}, M)
            assert not violations, violations[:2]


class TestRootScalars:
    def test_root_of_large_perfect_square(self):
        n = 12345678901234567890
        assert root_of(n * n) == n

    def test_root_ordering_dense(self):
        import math

        values = [root_of(k) for k in range(2, 30)]
        assert values == sorted(values)
        for k, v in zip(range(2, 30), values):
            if isinstance(v, Root):
                assert math.isqrt(k) < v < k
