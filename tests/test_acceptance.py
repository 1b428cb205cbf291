"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting both the property and the stated time budget."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from apckit.cli import hypercube_demo_rows
from apckit.combinators import product_cover
from apckit.covers import (
    ScaleSequence,
    greedy_families_at_scale,
    interval_oracle,
    min_families_at_scale,
    verify_apc_witness,
)
from apckit.exact import sq_value
from apckit.freeprod import fp_window, free_product_cover, is_flat, qi_check
from apckit.groups import FreeGroupModel, cayley_ball, z2_extension_pipeline
from apckit.metric import (
    family_is_R_disjoint,
    grid_window,
    hypercube_union,
    interval_window,
    matrix_space,
    product_space,
    set_diameter,
    validate_metric,
)
from apckit.trees import RootedTree, set_tree_diameter, tree_cover
from apckit import io as fio
from conftest import random_points_space
from reference import ancestor_at_depth, random_tree


class Stopwatch:
    def __init__(self, criterion, budget):
        self.criterion = criterion
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *a):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.criterion}: {elapsed:.2f}s (budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.criterion} exceeded its {self.budget}s budget"
            )


def scales(*prefix, **kw):
    return ScaleSequence(prefix, **kw)


def base_xab():
    return matrix_space(
        ["x0", "a", "b"],
        [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
        basepoint="x0",
        name="Xab",
    )


def test_criterion_1_metric_substrate():
    with Stopwatch(1, 10):
        budgets = dict(pair_budget=40_000, triple_budget=80_000)
        grid = grid_window((100, 100))
        assert len(grid) == 10_000
        assert validate_metric(grid, **budgets).valid

        rng = random.Random(41)
        tree = random_tree(5_000, rng)
        assert validate_metric(tree.as_space(), **budgets, seed=7).valid

        window = fp_window(base_xab(), 14, 14)
        assert len(window) >= 1_000
        assert validate_metric(window.space, **budgets, seed=11).valid

        small = [
            interval_window(0, 31),
            grid_window((5, 5, 5)),
            hypercube_union(5),
            random_tree(300, rng).as_space(),
        ]
        for space in small:
            assert validate_metric(space, **budgets).valid

        P = product_space(interval_window(0, 4), interval_window(0, 4))
        d = P.dist((0, 0), (3, 4))
        assert isinstance(d, int) and d == 5


def test_criterion_2_exact_solver_oracle():
    with Stopwatch(2, 30):
        path5 = interval_window(0, 4)
        res = min_families_at_scale(path5, 1, 0)
        assert res.n == 2
        assert res.certificate.n == 1 and res.certificate.replay(path5)

        square = grid_window((2, 2))
        res2 = min_families_at_scale(square, 1, 0)
        assert res2.n == 2
        assert res2.certificate.n == 1 and res2.certificate.replay(square)

        rng = random.Random(1009)
        for trial in range(100):
            space = random_points_space(rng, rng.randint(2, 12), dim=2, span=7)
            R = rng.randint(0, 6)
            B = rng.randint(0, 6)
            exact = min_families_at_scale(space, R, B)
            greedy = greedy_families_at_scale(space, R, B)
            assert greedy.n >= exact.n, (trial, R, B)


def test_criterion_3_product_combinator():
    from apckit.metric import set_diameter_sq

    with Stopwatch(3, 10):
        X = interval_window(0, 64)
        s = scales(1, 2, 4, 8, 16)
        witness = product_cover(interval_oracle(X), interval_oracle(X), s)
        P = product_space(X, X)
        report = verify_apc_witness(P, s, witness)
        assert report.ok, report.describe()
        for t, entry in enumerate(witness.entries, start=1):
            if entry.is_empty():
                continue
            diam_sqs = [set_diameter_sq(P, member) for member in entry.family.sets]
            ok, bad = family_is_R_disjoint(P, entry.family, s.at(t), diam_sqs=diam_sqs)
            assert ok, (t, bad)
            # the recorded bound combines the factor meshes in l2, so the
            # squared-mesh inequality is exactly the per-member check below
            bound_sq = sq_value(entry.mesh_bound)
            for dsq in diam_sqs:
                assert dsq <= bound_sq


def _tree_distance_matrix(tree):
    children = {}
    for v, p in tree.parent.items():
        if p is not None:
            children.setdefault(p, []).append(v)
    idx = {v: i for i, v in enumerate(tree.vertices)}
    n = len(tree.vertices)
    dist = [[0] * n for _ in range(n)]
    for src in tree.vertices:
        row = dist[idx[src]]
        seen = {src}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in children.get(u, []):
                    if w not in seen:
                        seen.add(w)
                        row[idx[w]] = d
                        nxt.append(w)
                p = tree.parent[u]
                if p is not None and p not in seen:
                    seen.add(p)
                    row[idx[p]] = d
                    nxt.append(p)
            frontier = nxt
    return idx, dist


def _check_tree_cover(tree, r, rng, matrix=None, samples=1_200):
    cover = tree_cover(tree, r)
    support = set()
    for fam in cover.families():
        for s in fam.sets:
            support |= s
            assert set_tree_diameter(tree, s) <= 3 * r - 2, (len(tree), r)
            # full containment check: each component in one anchor subtree
            i = min(tree.depth[v] for v in s) // r
            h = max(0, math.ceil(i * r) - math.floor(r) // 2)
            assert len({ancestor_at_depth(tree, v, h) for v in s}) == 1
        sets = fam.sets
        if len(sets) <= 1:
            continue
        if matrix is not None:
            idx, dist = matrix
            for a, b in itertools.combinations(range(len(sets)), 2):
                for u in sets[a]:
                    for v in sets[b]:
                        assert dist[idx[u]][idx[v]] > r, (u, v, r)
        else:
            pts = [(u, si) for si, s in enumerate(sets) for u in s]
            if len(pts) < 2:
                continue
            for _ in range(samples):
                (u, si), (v, sj) = rng.sample(pts, 2)
                if si != sj:
                    assert tree.distance(u, v) > r, (u, v, r)
    assert support == set(tree.vertices)


def test_criterion_4_tree_cover():
    with Stopwatch(4, 60):
        rng = random.Random(20260809)
        shapes = ["attach"] * 6 + ["path", "star", "caterpillar"]
        for t_index in range(200):
            shape = shapes[t_index % len(shapes)]
            if shape == "attach":
                if t_index % 20 == 0:
                    n = rng.randint(2_001, 5_000)
                else:
                    n = rng.randint(2, 1_000)
            elif shape == "star":
                n = rng.randint(2, 3_000)
            else:
                n = rng.randint(2, 400)
            tree = random_tree(n, rng, shape=shape)
            matrix = _tree_distance_matrix(tree) if len(tree) <= 150 else None
            for r in range(1, 17):
                _check_tree_cover(tree, r, rng, matrix=matrix)


def test_criterion_5_quasi_isometry_inequalities():
    with Stopwatch(5, 30):
        window = fp_window(base_xab(), 4, 99)
        letters = ("a", "b")
        checked = 0
        for prefix in [w for w in window.words if len(w) <= 3]:
            ext = [prefix + (c,) for c in letters if prefix + (c,) in window.word_set]
            for k in range(1, len(ext) + 1):
                for combo in itertools.combinations(ext, k):
                    base = set(combo)
                    assert is_flat(base)
                    for M in (1, 2, 3):
                        violations = qi_check(window, base, M)
                        checked += 1
                        assert not violations, violations[:2]
        assert checked >= 100


def test_criterion_6_free_product_pipeline():
    with Stopwatch(6, 120):
        X = base_xab()

        def one_family_oracle(space):
            from apckit.covers import ApcOracle, witness_from_families
            from apckit.metric import Family

            diam = set_diameter(space, set(space.points))

            def provide(s):
                return witness_from_families(
                    [Family.of([set(space.points)])], s, [diam]
                )

            return ApcOracle(space, provide, name="whole")

        scale_lists = [(1,), (1, 2), (2, 2, 3), (1, 2, 3, 4)]
        for prefix in scale_lists:
            for m, L in [(2, 4), (3, 9)]:
                window = fp_window(X, m, L)
                s = ScaleSequence(prefix)
                res = free_product_cover(one_family_oracle(X), s, window)
                report = verify_apc_witness(
                    window.space, s, res.witness, require_cover_of=res.reduced_points
                )
                assert report.ok, (prefix, m, L, report.describe())

                # margin is the default R* + M with M = R* + 1
                vf = res.v_families
                assert res.margin == vf.R_star + (vf.R_star + 1)

                # independent re-check of the last-heavy-letter assignment
                cert = vf.certificate
                assert cert.ok
                by_word = {a.word: a for a in cert.assignments}
                assert set(by_word) == set(window.words)
                for word in window.words:
                    a = by_word[word]
                    heavy = [k for k, c in enumerate(word)
                             if window.letter_norm[c] > vf.R_star]
                    if not heavy:
                        assert a.family == len(vf.families)
                        assert a.member == frozenset({()})
                    else:
                        mpos = max(heavy)
                        assert a.split == mpos
                        assert word[: mpos + 1] in a.member
                        assert a.member in set(vf.families[a.family - 1].sets)
                        assert all(
                            window.letter_norm[c] <= vf.R_star
                            for c in word[mpos + 1:]
                        )


def test_criterion_7_fibering_pipeline():
    with Stopwatch(7, 60):
        s = scales(1, 2, 4)
        window_G, witness = z2_extension_pipeline(32, s)
        assert len(window_G.points) == 2 * 32 * 32 + 2 * 32 + 1
        report = verify_apc_witness(window_G.space, s, witness)
        assert report.ok, report.describe()
        audit = witness.meta["bounds"]
        assert audit, "scheme bounds must be recorded per column"
        seen = {}
        for row in audit:
            key = (row["column"], row["M"])
            seen.setdefault(key, set()).add(row["B"])
        assert all(len(v) == 1 for v in seen.values()), "B must be fiber-independent"


def test_criterion_8_group_metrics():
    with Stopwatch(8, 10):
        F = FreeGroupModel(2)
        win = cayley_ball(F, F.standard_gens(), 3)
        sizes = []
        for L in range(4):
            sizes.append(sum(1 for g in win.points if win.norm_of(g) <= L))
        assert sizes == [1, 5, 17, 53]

        # breadth-first oracle: independent reduced-word enumeration
        words = {()}
        frontier = {()}
        expected = [1]
        for _ in range(3):
            nxt = set()
            for w in frontier:
                for c in (1, -1, 2, -2):
                    if w and w[-1] == -c:
                        continue
                    nxt.add(w + (c,))
            words |= nxt
            frontier = nxt
            expected.append(len(words))
        assert sizes == expected

        pts = win.points
        for g in pts:
            assert win.norm_of(g) == win.norm_of(F.inv(g))
        for g, h, hp in itertools.product(pts, repeat=3):
            gh, ghp = F.mul(g, h), F.mul(g, hp)
            if gh in win.norms and ghp in win.norms:
                assert win._dist(gh, ghp) == win._dist(h, hp)


def test_criterion_9_hypercube_demo():
    with Stopwatch(9, 120):
        rows = hypercube_demo_rows(max_dim=4, k=2, R=2)
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row["exact_verified"] and row["greedy_verified"]
            assert row["greedy_families"] >= row["exact_families"]
            assert row["consistent"]
        bs = [r["minimal_B"] for r in rows]
        assert bs == sorted(bs) and bs[-1] > bs[0], (
            "the minimal mesh bound must grow with the cube dimension"
        )
        # byte-for-byte reproducibility of the emitted table
        obj1 = fio.canonical_dumps({"rows": rows})
        obj2 = fio.canonical_dumps({"rows": hypercube_demo_rows(max_dim=4, k=2, R=2)})
        assert obj1 == obj2
