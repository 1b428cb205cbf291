"""The three benchmark workloads: their inputs, operations and output checks.

A workload's ``setup(ak, seed, workdir)`` builds every input from the seed and
returns its operations in pass order.  ``ak`` holds the apckit modules of the
current import; operations look functions up through it at call time, so the
traced run sees every call made through a wrapped module attribute.

Each operation has a kind: ``build`` (constructions: oracles, combinators,
pipelines, ``tree_cover``, the ``apckit product`` command), ``verify``
(``verify_apc_witness`` and ``apckit cover verify``) or ``other``.  Its
``run`` is timed; its ``check`` is not, and raises ``CheckFailed`` when an
output is wrong.  Checks use ``checker``, which does not import apckit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import checker as ck


class CheckFailed(Exception):
    """An output of apckit is wrong: a verdict, a witness, a count or a file."""


@dataclass
class Op:
    name: str
    kind: str  # "build" | "verify" | "other"
    run: Callable
    check: Callable
    known_fault: bool = False


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def slots_of(witness):
    """A CoverWitness as checker slots: (exact squared mesh bound, sets)."""
    out = []
    for e in witness.entries:
        b = e.mesh_bound
        out.append((b.sq if hasattr(b, "sq") else b * b, [set(s) for s in e.family.sets]))
    return out


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_cli(ak, argv):
    """apckit's CLI in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ak.cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def expect_report_ok(report, what):
    expect(report.ok, f"{what}: verifier rejected a valid witness: {report.describe()[:200]}")


def expect_cli_pass(result, what):
    code, out = result
    expect(code == 0, f"{what}: exit code {code}")
    expect(json.loads(out).get("ok") is True, f"{what}: report is not ok")


def expect_planted(report, geometry, prefix, slots, condition, what):
    """A False verdict naming the planted violation; every named point is confirmed."""
    expect(not report.ok, f"{what}: verifier accepted a witness with a planted {condition}")
    expect(any(v.condition == condition for v in report.violations),
           f"{what}: no {condition} violation reported")
    for v in report.violations:
        points = v.points[:1] if v.condition == "coverage" else v.points
        expect(ck.confirm(geometry, prefix, slots, v.condition, v.entry, points),
               f"{what}: checker does not confirm {v.condition} at {v.points!r}")


def known_fault_ops(ak, workdir):
    """Valid witnesses whose exact distances are ints above 10**308.

    The float prefilter in metric.family_is_R_disjoint converts these
    distances to float and raises OverflowError, so all three operations fail
    on every run until that is mended.  Their inputs do not depend on the seed.
    """
    big = 10**400
    ids = ["p", "q", "r"]
    rows = [[0, big, big + 1], [big, 0, big + 2], [big + 1, big + 2, 0]]
    M = ak.metric.matrix_space(ids, rows, name="huge")
    sm = ak.covers.ScaleSequence([1])
    wm = ak.covers.witness_from_families(
        [ak.metric.Family.of([{p} for p in ids])], sm, [0])
    brute_m = ck.Brute(lambda a, b: rows[ids.index(a)][ids.index(b)])
    slots_m = [(0, [{p} for p in ids])]

    A = ak.metric.matrix_space(["a0", "a1"], [[0, 3 * big], [3 * big, 0]], name="hugeA")
    B = ak.metric.matrix_space(["b0", "b1"], [[0, 4 * big], [4 * big, 0]], name="hugeB")
    P = ak.metric.product_space(A, B)
    sp = ak.covers.ScaleSequence([big])
    wp = ak.covers.witness_from_families(
        [ak.metric.Family.of([{p} for p in P.points])], sp, [0])
    # every distance of this product is an integer: 3 big, 4 big or 5 big
    side = {"a0": 0, "a1": 3 * big, "b0": 0, "b1": 4 * big}
    brute_p = ck.Brute(lambda p, q: math.isqrt((side[p[0]] - side[q[0]]) ** 2
                                               + (side[p[1]] - side[q[1]]) ** 2))
    slots_p = [(0, [{p} for p in P.points])]

    space_file = os.path.join(workdir, "huge_space.json")
    witness_file = os.path.join(workdir, "huge_witness.json")
    write_json(space_file, {"points": ids, "metric": {"kind": "matrix", "rows": rows}})
    write_json(witness_file, {"scales": [1], "extend": "repeat-last",
                              "families": [{"R": 1, "mesh": 0, "sets": [[p] for p in ids]}]})

    def valid(geometry, universe, prefix, slots, what):
        expect(ck.check_witness(geometry, universe, prefix, slots) is None,
               f"{what}: planted input is not valid")

    return [
        Op("huge_matrix_verify", "verify",
           lambda: ak.covers.verify_apc_witness(M, sm, wm),
           lambda r: (valid(brute_m, ids, [1], slots_m, "huge matrix"),
                      expect_report_ok(r, "huge matrix")),
           known_fault=True),
        Op("huge_l2_product_verify", "verify",
           lambda: ak.covers.verify_apc_witness(P, sp, wp),
           lambda r: (valid(brute_p, P.points, [big], slots_p, "huge product"),
                      expect_report_ok(r, "huge product")),
           known_fault=True),
        Op("huge_cli_cover_verify", "verify",
           lambda: run_cli(ak, ["cover", "verify", "--space", space_file,
                                "--witness", witness_file]),
           lambda r: expect_cli_pass(r, "huge cover verify"),
           known_fault=True),
    ]


# ---------------------------------------------------------------------------
# lattice


LATTICE_SIDE = 64
LATTICE_SCALES = [1, 2, 4, 8, 16]
FIBERING_SIDE = 40
FIBERING_RHO_BUDGET = 50_000
GRID3_SHAPE = (8, 10, 12)
GRID3_SCALES = [1, 2, 4]
RCOMP_SHAPE = (40, 40)
RCOMP_POINTS = 800
VALIDATE_BUDGET = 8_000


def lattice(ak, seed, workdir):
    """l2 products of interval windows, l1 grid windows and huge exact scalars."""
    rng = random.Random(seed)
    n = LATTICE_SIDE
    # four-digit coordinates for every seed, so the files written and the
    # integer objects made have the same sizes whatever the offsets
    lox, loy = rng.randrange(1000, 9000), rng.randrange(1000, 9000)
    X = ak.metric.interval_window(lox, lox + n - 1)
    Y = ak.metric.interval_window(loy, loy + n - 1)
    P = ak.metric.product_space(X, Y)
    scales = ak.covers.ScaleSequence(LATTICE_SCALES)
    l2, l1 = ck.Lattice("l2"), ck.Lattice("l1")
    product_points = {(x, y) for x in range(lox, lox + n) for y in range(loy, loy + n)}

    file_x, file_y = (os.path.join(workdir, f) for f in ("x.json", "y.json"))
    write_json(file_x, {"metric": {"kind": "generator",
                                   "spec": {"kind": "interval", "lo": lox, "hi": lox + n - 1}}})
    write_json(file_y, {"metric": {"kind": "generator",
                                   "spec": {"kind": "interval", "lo": loy, "hi": loy + n - 1}}})
    product_out = os.path.join(workdir, "product_witness.json")
    product_argv = ["product", "--space-x", file_x, "--space-y", file_y,
                    "--scales", ",".join(map(str, LATTICE_SCALES)), "--out", product_out]

    def check_product(result):
        code, out = result
        expect_cli_pass(result, "apckit product")
        with open(product_out) as fh:
            prefix, slots = ck.slots_from_file(json.load(fh))
        expect(prefix == LATTICE_SCALES, "apckit product: scales changed in the witness file")
        expect(json.loads(out)["slots"] == len(slots), "apckit product: slot count mismatch")
        # l2 boxes: the checker's mesh test is the squared-mesh inequality
        # diam(U)^2 + diam(V)^2 <= bound^2 for every member U x V
        finding = ck.check_witness(l2, product_points, prefix, slots)
        expect(finding is None, f"apckit product: invalid witness file: {finding}")

    m = FIBERING_SIDE
    FX = ak.metric.interval_window(lox, lox + m - 1)
    FY = ak.metric.interval_window(loy, loy + m - 1)
    FP = ak.metric.product_space(FX, FY)
    fibering_points = {(x, y) for x in range(lox, lox + m) for y in range(loy, loy + m)}
    proj = ak.combinators.UniformlyExpansiveMap(FP, FY, lambda p: p[1],
                                                ak.combinators.identity_rho)
    state = {}

    def build_fibering():
        state["fibering"] = ak.combinators.fibering_cover(
            proj, ak.covers.interval_oracle(FY),
            ak.combinators.projection_scheme_from_oracle(ak.covers.interval_oracle(FX)),
            scales, rho_budget=FIBERING_RHO_BUDGET)
        return state["fibering"]

    def check_fibering(w):
        finding = ck.check_witness(l2, fibering_points, LATTICE_SCALES, slots_of(w))
        expect(finding is None, f"fibering_cover: invalid witness: {finding}")
        bounds = {}
        for row in w.meta["bounds"]:
            bounds.setdefault((row["column"], row["M"]), set()).add(row["B"])
        expect(all(len(b) == 1 for b in bounds.values()),
               "fibering_cover: a fiber mesh bound depends on the fiber")

    # 3-D grid witness, built and saved as an input file
    shape = list(GRID3_SHAPE)
    rng.shuffle(shape)
    G3 = ak.metric.grid_window(shape)
    g3_scales = ak.covers.ScaleSequence(GRID3_SCALES)
    g3_witness = ak.covers.grid_oracle(G3, shape)(g3_scales)
    grid_space_file = os.path.join(workdir, "grid3_space.json")
    grid_witness_file = os.path.join(workdir, "grid3_witness.json")
    write_json(grid_space_file, {"metric": {"kind": "generator",
                                            "spec": {"kind": "grid", "shape": shape}}})
    ak.io.save_witness(grid_witness_file, g3_scales, g3_witness)
    grid_points = {(a, b, c) for a in range(shape[0]) for b in range(shape[1])
                   for c in range(shape[2])}
    grid_file_finding = []

    def check_grid_verify(result):
        expect_cli_pass(result, "apckit cover verify (3-D grid)")
        if not grid_file_finding:
            with open(grid_witness_file) as fh:
                prefix, slots = ck.slots_from_file(json.load(fh))
            grid_file_finding.append(ck.check_witness(l1, grid_points, prefix, slots))
        expect(grid_file_finding[0] is None,
               f"3-D grid witness file is invalid: {grid_file_finding[0]}")

    # r_components input: a seeded subset of a 2-D grid
    G2 = ak.metric.grid_window(RCOMP_SHAPE)
    subset = rng.sample(G2.points, RCOMP_POINTS)

    def check_components(comps):
        expected = lattice_components(subset)
        expect({frozenset(c) for c in comps} == expected and len(comps) == len(expected),
               "r_components: wrong partition")

    def check_validate(report):
        expect(report.valid, f"validate_metric: false violation {report.describe()[:200]}")
        expect(report.checked["pairs"] == ("sampled", VALIDATE_BUDGET)
               and report.checked["triples"] == ("sampled", VALIDATE_BUDGET),
               "validate_metric: budget not honoured")

    # planted violations
    base = ak.combinators.product_cover(ak.covers.interval_oracle(X),
                                        ak.covers.interval_oracle(Y), scales)
    moved = plant_moved_point(ak, base)
    moved_slots = slots_of(moved)
    dropped = plant_dropped_point(ak, g3_witness, rng)
    dropped_slots = slots_of(dropped)

    ops = [
        Op("cli_product", "build", lambda: run_cli(ak, product_argv), check_product),
        Op("fibering_cover", "build", build_fibering, check_fibering),
        Op("fibering_verify", "verify",
           lambda: ak.covers.verify_apc_witness(FP, scales, state["fibering"]),
           lambda r: expect_report_ok(r, "fibering verify")),
        Op("cli_grid3_cover_verify", "verify",
           lambda: run_cli(ak, ["cover", "verify", "--space", grid_space_file,
                                "--witness", grid_witness_file]),
           check_grid_verify),
        Op("r_components_grid", "build",
           lambda: ak.metric.r_components(G2, subset, 1), check_components),
        Op("validate_metric_product", "other",
           lambda: ak.metric.validate_metric(P, pair_budget=VALIDATE_BUDGET,
                                             triple_budget=VALIDATE_BUDGET, seed=seed),
           check_validate),
        Op("planted_disjointness_verify", "verify",
           lambda: ak.covers.verify_apc_witness(P, scales, moved),
           lambda r: expect_planted(r, l2, LATTICE_SCALES, moved_slots, "disjointness",
                                    "planted pair")),
        Op("planted_coverage_verify", "verify",
           lambda: ak.covers.verify_apc_witness(G3, g3_scales, dropped),
           lambda r: expect_planted(r, l1, GRID3_SCALES, dropped_slots, "coverage",
                                    "planted hole")),
    ]
    return ops + known_fault_ops(ak, workdir)


def lattice_components(points):
    """4-connected components of a set of 2-D integer points."""
    left = set(points)
    comps = set()
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            x, y = stack.pop()
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if q in left:
                    left.remove(q)
                    comp.add(q)
                    stack.append(q)
        comps.add(frozenset(comp))
    return comps


def _replace_slot(ak, witness, slot, sets):
    entries = list(witness.entries)
    e = entries[slot - 1]
    entries[slot - 1] = ak.covers.WitnessEntry(e.required_scale, ak.metric.Family.of(sets),
                                               e.mesh_bound)
    return ak.covers.CoverWitness(entries)


def plant_moved_point(ak, witness):
    """Move into one set the nearest point of a neighbouring set.

    The moved point now sits one step from the set it left, a cross pair
    closer than the slot's scale.  The planted set is the one a quarter of
    the way through the slot with most sets: the verifier's pair scan stops
    part way, at the same place for every seed, since the seeds only
    translate the product window.
    """
    slot = max(range(1, len(witness.entries) + 1),
               key=lambda t: (len(witness.entries[t - 1].family), -t))
    sets = [set(s) for s in witness.entries[slot - 1].family.sets]
    a = len(sets) // 4
    b = min((j for j in range(len(sets)) if j != a and len(sets[j]) >= 2),
            key=lambda j: (box_gap_sq(sets[a], sets[j]), j))
    q = min(sets[b], key=lambda p: (box_gap_sq(sets[a], {p}), p))
    sets[b].discard(q)
    sets[a].add(q)
    return _replace_slot(ak, witness, slot, sets)


def box_gap_sq(A, B):
    (lo, hi, _), (lo2, hi2, _) = ck.Lattice.box(A), ck.Lattice.box(B)
    return sum(max(0, a - d, c - b) ** 2 for a, b, c, d in zip(lo, hi, lo2, hi2))


def plant_dropped_point(ak, witness, rng):
    """Remove one seeded point from every set holding it: a coverage hole."""
    p = rng.choice(sorted(witness.support()))
    entries = witness
    for slot, e in enumerate(witness.entries, start=1):
        if any(p in s for s in e.family.sets):
            entries = _replace_slot(ak, entries, slot, [set(s) - {p} for s in e.family.sets])
    return entries


# ---------------------------------------------------------------------------
# trees


TREE_SHAPES = (("attach", 700), ("star", 350), ("caterpillar", 300), ("path", 300))
TREE_RADII = (1, 2, 4)


def parent_map(shape, n, rng):
    """A rooted tree on n seeded labels; shapes follow apckit's random_tree."""
    parent = {0: None}
    for v in range(1, n):
        if shape == "path":
            parent[v] = v - 1
        elif shape == "star":
            parent[v] = 0
        elif shape == "caterpillar":
            parent[v] = v - 1 if v % 2 else max(0, v - 2)
        else:
            parent[v] = rng.randrange(v)
    labels = rng.sample(range(10 * n), n)
    return {labels[v]: (None if p is None else labels[p]) for v, p in parent.items()}


def trees(ak, seed, workdir):
    """Seeded trees of four shapes, each covered at several r and verified."""
    rng = random.Random(seed)
    ops = []
    for shape, n in TREE_SHAPES:
        parent = parent_map(shape, n, rng)
        root = next(v for v, p in parent.items() if p is None)
        edges = [(p, v) for v, p in parent.items() if p is not None]
        tree = ak.trees.tree_from_edges(root, edges)
        space = tree.as_space()
        geometry = ck.Tree(parent)
        for r in TREE_RADII:
            ops += tree_ops(ak, f"{shape}{n}_r{r}", tree, space, geometry, parent, r)
    return ops


def tree_ops(ak, name, tree, space, geometry, parent, r):
    """tree_cover at r with its witness, and the verify of that witness."""
    scales = ak.covers.ScaleSequence([r])
    state = {}

    def build():
        cover = ak.trees.tree_cover(tree, r)
        fams = [f for f in cover.families() if len(f)]
        state["w"] = ak.covers.witness_from_families(fams, scales, [cover.mesh_bound] * len(fams))
        return cover, state["w"]

    def check(result):
        cover, w = result
        expect(cover.mesh_bound == 3 * r - 2, f"tree_cover {name}: bound {cover.mesh_bound}")
        finding = ck.check_witness(geometry, parent, [r], slots_of(w))
        expect(finding is None, f"tree_cover {name}: invalid witness: {finding}")

    return [
        Op(f"tree_cover_{name}", "build", build, check),
        Op(f"tree_verify_{name}", "verify",
           lambda: ak.covers.verify_apc_witness(space, scales, state["w"]),
           lambda rep: expect_report_ok(rep, f"tree verify {name}")),
    ]


# ---------------------------------------------------------------------------
# groups and words


Z2_RADIUS = 32
Z2_SCALES = [1, 2, 4]
XAB_WINDOW = (6, 12)
XAB_SCALES = [1, 2]
INTERVAL_BASE_WINDOW = (5, 10)
INTERVAL_BASE_SCALES = [1]
ZZ_BALL = 3
ZZ_WINDOW = (2, 5)
ZZ_SCALES = [1]


def groups_words(ak, seed, workdir):
    """Group pipelines and free-product word windows over three bases."""
    rng = random.Random(seed)
    ops = []

    L = Z2_RADIUS
    z2_scales = ak.covers.ScaleSequence(Z2_SCALES)
    diamond = {(a, b) for a in range(-L, L + 1) for b in range(-L, L + 1)
               if abs(a) + abs(b) <= L}
    state = {}

    def build_z2():
        state["z2"] = ak.groups.z2_extension_pipeline(L, z2_scales)
        return state["z2"]

    def check_z2(result):
        window, w = result
        expect(len(window.points) == 2 * L * L + 2 * L + 1, "z2 window has the wrong size")
        expect(set(window.points) == diamond, "z2 window is not the l1 ball")
        finding = ck.check_witness(ck.Lattice("l1"), diamond, Z2_SCALES, slots_of(w))
        expect(finding is None, f"z2 pipeline: invalid witness: {finding}")

    ops += [
        Op("z2_extension_pipeline", "build", build_z2, check_z2),
        Op("z2_verify", "verify",
           lambda: ak.covers.verify_apc_witness(state["z2"][0].space, z2_scales,
                                                state["z2"][1]),
           lambda r: expect_report_ok(r, "z2 verify")),
    ]

    # Xab: d(x0,a) = 1, d(x0,b) = 2, d(a,b) = 2, with seeded letter names
    a_name, b_name = rng.sample([f"{c}{k}" for c in "abcdefgh" for k in range(10)], 2)
    table = {a_name: 1, b_name: 2}
    xab = ak.metric.matrix_space(["x0", a_name, b_name],
                                 [[0, 1, 2], [1, 0, 2], [2, 2, 0]], basepoint="x0")
    xab_words = ck.Words(table.__getitem__, lambda p, q: 0 if p == q else 2)
    ops += word_ops(ak, "xab", state, xab, XAB_WINDOW, XAB_SCALES, xab_words, sorted(table))

    lo = rng.randrange(-50, 50)
    interval = ak.metric.interval_window(lo, lo + 3)
    interval_words = ck.Words(lambda c: c - lo, lambda p, q: abs(p - q))
    ops += word_ops(ak, "interval4", state, interval, INTERVAL_BASE_WINDOW,
                    INTERVAL_BASE_SCALES, interval_words, list(range(lo + 1, lo + 4)))

    Z = ak.groups.ZdModel(1)
    ball_g = ak.groups.cayley_ball(Z, Z.standard_gens(), ZZ_BALL)
    ball_h = ak.groups.cayley_ball(Z, Z.standard_gens(), ZZ_BALL)
    zz_scales = ak.covers.ScaleSequence(ZZ_SCALES)
    wedge_letters = [(side, (k,)) for side in "xy"
                     for k in range(-ZZ_BALL, ZZ_BALL + 1) if k]

    def build_zz():
        state["zz"] = ak.groups.free_product_cover_groups(ball_g, ball_h, zz_scales, *ZZ_WINDOW)
        return state["zz"]

    ops += [
        Op("free_product_cover_groups_zz", "build", build_zz,
           lambda res: check_free_product(res, ck.wedge_of_z_balls(), wedge_letters,
                                          ZZ_WINDOW, ZZ_SCALES, "Z*Z")),
        Op("free_product_zz_verify", "verify",
           lambda: ak.covers.verify_apc_witness(
               state["zz"].window.space, zz_scales, state["zz"].witness,
               require_cover_of=state["zz"].reduced_points),
           lambda r: expect_report_ok(r, "Z*Z verify")),
    ]
    return ops


def word_ops(ak, name, state, base, window_bounds, prefix, words, letters):
    """free_product_cover over a base, with the exact solver's oracle, and its verify."""
    window = ak.freeprod.fp_window(base, *window_bounds)
    scales = ak.covers.ScaleSequence(prefix)

    def build():
        state[name] = ak.freeprod.free_product_cover(ak.covers.exact_oracle(base), scales, window)
        return state[name]

    return [
        Op(f"free_product_cover_{name}", "build", build,
           lambda res: check_free_product(res, words, letters, window_bounds, prefix, name)),
        Op(f"free_product_{name}_verify", "verify",
           lambda: ak.covers.verify_apc_witness(window.space, scales, state[name].witness,
                                                require_cover_of=state[name].reduced_points),
           lambda r: expect_report_ok(r, f"{name} verify")),
    ]


def check_free_product(res, words, letters, window_bounds, prefix, name):
    max_order, max_norm = window_bounds
    universe = words.window(letters, max_order, max_norm)
    expect(set(res.window.words) == set(universe), f"{name}: window words differ")
    reduced = {w for w in universe if words.norm(w) <= max_norm - res.margin}
    expect(reduced, f"{name}: the margin-reduced window is empty")
    expect(set(res.reduced_points) == reduced, f"{name}: reduced words differ")
    finding = ck.check_witness(words, universe, prefix, slots_of(res.witness), require=reduced)
    expect(finding is None, f"{name}: invalid witness: {finding}")


WORKLOADS = {"lattice": lattice, "trees": trees, "groups-words": groups_words}
