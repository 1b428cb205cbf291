"""File-driven command line: load spaces/trees/groups/witnesses, run the
constructions, verify, and export.

Exit codes: 0 success, 1 verification or construction failure, 2 malformed
input.  Reports are machine-readable JSON by default; pass --format text for
human-readable output.  All outputs are canonical JSON, so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import io as fio
from .exact import scalar
from .metric import (
    ConstructionError,
    Family,
    InputError,
    grid_window,
    product_space,
    sorted_points,
    validate_metric,
)
from .covers import (
    ScaleSequence,
    exact_oracle,
    greedy_families_at_scale,
    greedy_oracle,
    grid_oracle,
    interval_oracle,
    min_families_at_scale,
    minimal_feasible_mesh,
    verify_apc_witness,
    witness_from_families,
    DEFAULT_EXACT_CAP,
    _distances,
    _search,
)
from .combinators import (UniformlyExpansiveMap, decompose, fibering_cover, identity_rho,
                          product_cover, projection_scheme_from_oracle)
from .trees import tree_cover
from .freeprod import fp_window, free_product_cover, qi_check, cone_tree
from .groups import ZdModel, cayley_ball, z2_extension_pipeline, free_product_cover_groups


def _scalar(text, flag):
    """An exact scalar from command-line text; text that is not a rational
    (``abc``, ``1/0``) is malformed input."""
    try:
        return scalar(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"{flag} {text!r} is not a scalar: {e}") from None


def _parse_scales(args):
    prefix = [_scalar(x, "--scales") for x in args.scales.split(",")]
    param = None if args.extend_param is None else _scalar(args.extend_param, "--extend-param")
    return ScaleSequence(prefix, args.extend, param)


def _window_params(args):
    """Window bounds from --window m,L or the separate -m/-L flags."""
    if getattr(args, "window", None):
        parts = args.window.split(",")
        if len(parts) != 2:
            raise InputError("--window expects 'max_order,max_norm'")
        try:
            max_order = int(parts[0])
        except ValueError:
            raise InputError(f"--window max_order {parts[0]!r} is not an integer") from None
        return max_order, _scalar(parts[1], "--window max_norm")
    if args.max_order is None or args.max_norm is None:
        raise InputError("need --window m,L or both -m and -L")
    return args.max_order, _scalar(args.max_norm, "--max-norm")


def _require_reduced_words(res):
    """A free-product cover whose margin-reduced window is empty certifies no
    coverage at all; refuse it as a bad window before anything is written."""
    if not res.reduced_points:
        raise InputError(
            f"margin {res.margin} exceeds max_norm {res.window.max_norm}, "
            "so the margin-reduced window is empty"
        )


def _emit(args, obj, text_lines):
    if args.format == "text":
        for line in text_lines:
            print(line)
    else:
        sys.stdout.write(fio.canonical_dumps(obj))


def _oracle_for_space_obj(obj, space, choice, cap):
    spec = obj.get("metric", {}).get("spec") if isinstance(obj, dict) else None
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if choice == "auto":
        if kind == "interval" or kind == "path":
            choice = "interval"
        elif kind == "grid":
            choice = "grid"
        elif len(space) <= cap:
            choice = "exact"
        else:
            choice = "greedy"
    if choice == "interval":
        return interval_oracle(space)
    if choice == "grid":
        if kind != "grid":
            raise InputError("grid oracle needs a grid-generator space file")
        return grid_oracle(space, spec["shape"])
    if choice == "exact":
        return exact_oracle(space, cap=cap)
    if choice == "greedy":
        return greedy_oracle(space)
    raise InputError(f"unknown oracle choice {choice!r}")


def _load_space_and_oracle(path, choice, cap):
    obj = fio.read_file(path)
    space = fio.space_from_obj(obj)
    return space, _oracle_for_space_obj(obj, space, choice, cap)


def _verdict(args, report, extra=None):
    obj = fio.report_to_obj(report)
    if extra:
        obj.update(extra)
    lines = ["pass" if report.ok else "FAIL"]
    lines += [v.describe() for v in report.violations[:10]]
    _emit(args, obj, lines)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# commands


def cmd_space_validate(args):
    space = fio.load_space(args.infile)
    report = validate_metric(
        space, pair_budget=args.budget, triple_budget=args.budget, seed=args.seed
    )
    obj = fio.metric_report_to_obj(report)
    lines = ["valid" if report.valid else "INVALID"]
    lines += [v.describe() for v in report.violations[:10]]
    _emit(args, obj, lines)
    return 0 if report.valid else 1


def cmd_space_export(args):
    space = fio.load_space(args.infile)
    dot = fio.proximity_dot(space, _scalar(args.R, "--R"))
    with open(args.dot, "w") as fh:
        fh.write(dot)
    print(f"wrote {args.dot}")
    return 0


def cmd_cover_verify(args):
    space = fio.load_space(args.space)
    scales, witness = fio.load_witness(args.witness)
    report = verify_apc_witness(space, scales, witness)
    return _verdict(args, report)


def cmd_cover_solve(args):
    space = fio.load_space(args.space)
    R = _scalar(args.R, "--R")
    B = _scalar(args.B, "--B")
    if args.mode == "exact":
        res = min_families_at_scale(space, R, B, cap=args.cap)
    else:
        res = greedy_families_at_scale(space, R, B)
    scales = ScaleSequence([R])
    witness = witness_from_families(res.families, scales, [B] * res.n)
    report = verify_apc_witness(space, scales, witness)
    if args.out:
        fio.save_witness(args.out, scales, witness)
    obj = {
        "n": res.n,
        "mode": args.mode,
        "mesh": fio.encode_scalar(res.mesh),
        "verified": report.ok,
    }
    if res.certificate is not None:
        obj["negative_certificate"] = {
            "n": res.certificate.n,
            "nodes": res.certificate.nodes,
        }
    _emit(args, obj, [f"n = {res.n} ({args.mode}), mesh {res.mesh}"])
    return 0 if report.ok else 1


def cmd_product(args):
    sx, ox = _load_space_and_oracle(args.space_x, args.oracle_x, args.cap)
    sy, oy = _load_space_and_oracle(args.space_y, args.oracle_y, args.cap)
    scales = _parse_scales(args)
    witness = product_cover(ox, oy, scales)
    P = product_space(sx, sy)
    report = verify_apc_witness(P, scales, witness)
    if args.out:
        fio.save_witness(args.out, scales, witness)
    return _verdict(args, report, {"slots": len(witness.entries)})


def cmd_fibering(args):
    sx, ox = _load_space_and_oracle(args.space_x, args.oracle_x, args.cap)
    sy, oy = _load_space_and_oracle(args.space_y, args.oracle_y, args.cap)
    scales = _parse_scales(args)
    P = product_space(sx, sy)
    proj = UniformlyExpansiveMap(P, sy, lambda p: p[1], identity_rho)
    witness = fibering_cover(proj, oy, projection_scheme_from_oracle(ox), scales)
    report = verify_apc_witness(P, scales, witness)
    if args.out:
        fio.save_witness(args.out, scales, witness)
    audit = [
        {"column": row["column"], "M": fio.encode_scalar(row["M"]),
         "B": fio.encode_scalar(row["B"]), "fibers": row["fibers"]}
        for row in witness.meta["bounds"]
    ]
    return _verdict(args, report, {"slots": len(witness.entries), "bounds": audit})


class _FileDecomposable:
    """Decomposition hypothesis from a witness file: its families feed the
    k-subsampled scales, and members are re-covered by the exact solver at
    the declared per-family mesh bounds."""

    def __init__(self, space, families, bounds, k, cap):
        self.space = space
        self.fams = families
        self.bounds = bounds
        self.k = k
        self.cap = cap

    def families(self, sub):
        return [(sub.at(i), fam) for i, fam in enumerate(self.fams, start=1)]

    def subcover(self, i, U, R):
        B = self.bounds[i - 1]
        pts = sorted_points(U)
        if len(pts) > self.cap:
            raise InputError(f"subcover member exceeds the {self.cap}-point solver cap")
        fams, _ = _search(pts, _distances(self.space, pts), R, B, self.k)
        if fams is None:
            raise ConstructionError(
                f"member of family {i} admits no {self.k}-family cover at mesh {B}"
            )
        return B, fams + [Family.of([])] * (self.k - len(fams))


def cmd_decompose(args):
    space = fio.load_space(args.space)
    _, hyp_witness = fio.load_witness(args.witness)
    families = [e.family for e in hyp_witness.entries]
    bounds = [_scalar(x, "--subcover-mesh") for x in args.subcover_mesh.split(",")]
    if len(bounds) != len(families):
        raise InputError("need one --subcover-mesh value per hypothesis family")
    scales = _parse_scales(args)
    hyp = _FileDecomposable(space, families, bounds, args.k, args.cap)
    witness = decompose(space, args.k, hyp, scales)
    report = verify_apc_witness(space, scales, witness)
    if args.out:
        fio.save_witness(args.out, scales, witness)
    return _verdict(args, report, {"slots": len(witness.entries)})


def cmd_tree_cover(args):
    tree = fio.load_tree(args.tree)
    r = _scalar(args.r, "--r")
    cover = tree_cover(tree, r)
    scales = ScaleSequence([r])
    fams = [f for f in cover.families() if len(f)]
    witness = witness_from_families(fams, scales, [cover.mesh_bound] * len(fams))
    space = tree.as_space()
    report = verify_apc_witness(space, scales, witness)
    if args.out:
        fio.save_witness(args.out, scales, witness)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(fio.tree_dot(tree, cover.families()))
    return _verdict(args, report, {"mesh_bound": fio.encode_scalar(cover.mesh_bound)})


def cmd_freeprod_window(args):
    base = fio.load_space(args.base)
    m, L = _window_params(args)
    win = fp_window(base, m, L)
    obj = fio.word_window_to_obj(win)
    if args.out:
        fio.write_file(args.out, obj)
    _emit(args, {"words": len(win.words)}, [f"{len(win.words)} words"])
    return 0


def cmd_freeprod_cover(args):
    base = fio.load_space(args.base)
    margin = _scalar(args.margin, "--margin") if args.margin is not None else None
    m, L = _window_params(args)
    win = fp_window(base, m, L, margin=margin)
    oracle = exact_oracle(base, cap=args.cap) if len(base) <= args.cap else greedy_oracle(base)
    scales = _parse_scales(args)
    res = free_product_cover(oracle, scales, win)
    _require_reduced_words(res)
    report = verify_apc_witness(
        win.space, scales, res.witness, require_cover_of=res.reduced_points
    )
    if args.out:
        fio.save_witness(args.out, scales, res.witness)
    return _verdict(
        args,
        report,
        {
            "margin": fio.encode_scalar(res.margin),
            "window_words": len(win.words),
            "reduced_words": len(res.reduced_points),
            "artifacts": len(res.artifacts),
        },
    )


def cmd_freeprod_qi_check(args):
    base = fio.load_space(args.base)
    m, L = _window_params(args)
    win = fp_window(base, m, L)
    M = _scalar(args.M, "-M")
    checked = 0
    failures = []
    prefixes = [w for w in win.words if len(w) < m]
    letters = sorted(win.letter_norm)
    for prefix in prefixes:
        ext = [prefix + (c,) for c in letters if prefix + (c,) in win.word_set]
        for k in range(1, len(ext) + 1):
            for combo in itertools.combinations(ext, k):
                rep = qi_check(cone_tree(win, set(combo), M))
                checked += 1
                if not rep.ok:
                    failures.append(rep.violations[0])
    if not checked:
        raise InputError(f"window ({m}, {L}) has no cone base to check")
    obj = {"cone_trees_checked": checked, "ok": not failures,
           "failures": [str(f) for f in failures[:5]]}
    _emit(args, obj, [f"{checked} cone trees checked; "
                      + ("all pass" if not failures else "FAILURES")])
    return 0 if not failures else 1


def cmd_group_ball(args):
    win = fio.load_group_window(args.group)
    by_norm = {}
    for g in win.points:
        n = win.norm_of(g)
        by_norm[n] = by_norm.get(n, 0) + 1
    sizes = sorted((fio.encode_scalar(n), c) for n, c in by_norm.items())
    obj = {"points": len(win.points), "spheres": [[n, c] for n, c in sizes]}
    if args.out:
        fio.save_space(args.out, win.space)
    _emit(args, obj, [f"ball has {len(win.points)} points"])
    return 0


def cmd_group_pipeline(args):
    scales = _parse_scales(args)
    if args.kind == "z2-extension":
        window, witness = z2_extension_pipeline(args.radius, scales)
        report = verify_apc_witness(window.space, scales, witness)
        if args.out:
            fio.save_witness(args.out, scales, witness)
        return _verdict(args, report, {"radius": args.radius})
    if args.kind == "free-product-zz":
        Z = ZdModel(1)
        gens = Z.standard_gens()
        winG = cayley_ball(Z, gens, args.radius)
        winH = cayley_ball(Z, gens, args.radius)
        res = free_product_cover_groups(
            winG, winH, scales, args.max_order, _scalar(args.max_norm, "--max-norm")
        )
        _require_reduced_words(res)
        report = verify_apc_witness(
            res.window.space, scales, res.witness, require_cover_of=res.reduced_points
        )
        if args.out:
            fio.save_witness(args.out, scales, res.witness)
        return _verdict(args, report, {"window_words": len(res.window.words)})
    raise InputError(f"unknown pipeline kind {args.kind!r}")


def hypercube_demo_rows(max_dim=4, k=2, R=2, cap=DEFAULT_EXACT_CAP):
    """Exact minimal mesh bound per cube dimension at a fixed family count
    and scale, with the greedy cross-check; values are run artifacts."""
    if max_dim < 1:
        raise InputError(f"the demo needs max_dim >= 1, not {max_dim}")
    rows = []
    for n in range(1, max_dim + 1):
        cube = grid_window((2,) * n)
        B, fams = minimal_feasible_mesh(cube, k, R, cap=cap)
        scales = ScaleSequence([R])
        exact_w = witness_from_families(fams, scales, [B] * len(fams))
        exact_ok = verify_apc_witness(cube, scales, exact_w).ok
        greedy = greedy_families_at_scale(cube, R, B)
        greedy_w = witness_from_families(greedy.families, scales, [B] * greedy.n)
        greedy_ok = verify_apc_witness(cube, scales, greedy_w).ok
        rows.append(
            {
                "n": n,
                "minimal_B": fio.encode_scalar(B),
                "exact_families": len(fams),
                "greedy_families": greedy.n,
                "exact_verified": exact_ok,
                "greedy_verified": greedy_ok,
                "consistent": greedy.n >= len(fams) and exact_ok and greedy_ok,
            }
        )
    return rows


def cmd_demo_hypercubes(args):
    R = _scalar(args.R, "--R")
    rows = hypercube_demo_rows(args.max_dim, args.k, R, args.cap)
    obj = {"demo": "hypercubes", "k": args.k, "R": fio.encode_scalar(R),
           "seed": args.seed, "rows": rows}
    if args.out:
        fio.write_file(args.out, obj)
    lines = [f"n-cube minimal mesh bound at k={args.k}, R={args.R}:"]
    for row in rows:
        lines.append(
            f"  n={row['n']}: B={row['minimal_B']} "
            f"(exact {row['exact_families']} families, greedy {row['greedy_families']})"
        )
    _emit(args, obj, lines)
    return 0 if all(r["consistent"] for r in rows) else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p, *, scales=False, out=False, seed=False, cap=False):
    p.add_argument("--format", choices=["structured", "text"], default="structured")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if cap:
        p.add_argument("--cap", type=int, default=DEFAULT_EXACT_CAP)
    if scales:
        p.add_argument("--scales", required=True, help="comma-separated non-decreasing prefix")
        p.add_argument("--extend", default="repeat-last",
                       choices=["repeat-last", "arithmetic", "geometric"])
        p.add_argument("--extend-param", dest="extend_param", default=None)
    if out:
        p.add_argument("--out", default=None)


def _add_window(p):
    p.add_argument("-m", "--max-order", dest="max_order", type=int, default=None)
    p.add_argument("-L", "--max-norm", dest="max_norm", default=None)
    p.add_argument("--window", default=None, help="shorthand: max_order,max_norm")


def build_parser():
    ap = argparse.ArgumentParser(prog="apckit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="validate and export spaces")
    ssub = sp.add_subparsers(dest="subcommand", required=True)
    v = ssub.add_parser("validate")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--budget", type=int, default=2_000_000)
    _add_common(v, seed=True)
    v.set_defaults(func=cmd_space_validate)
    e = ssub.add_parser("export")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--R", required=True)
    e.add_argument("--dot", required=True)
    _add_common(e)
    e.set_defaults(func=cmd_space_export)

    cp = sub.add_parser("cover", help="verify and solve covers")
    csub = cp.add_subparsers(dest="subcommand", required=True)
    cv = csub.add_parser("verify")
    cv.add_argument("--space", required=True)
    cv.add_argument("--witness", required=True)
    _add_common(cv)
    cv.set_defaults(func=cmd_cover_verify)
    cs = csub.add_parser("solve")
    cs.add_argument("--space", required=True)
    cs.add_argument("--R", required=True)
    cs.add_argument("--B", required=True)
    cs.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    _add_common(cs, out=True, cap=True)
    cs.set_defaults(func=cmd_cover_solve)

    pr = sub.add_parser("product", help="product cover of two spaces")
    pr.add_argument("--space-x", dest="space_x", required=True)
    pr.add_argument("--space-y", dest="space_y", required=True)
    pr.add_argument("--oracle-x", dest="oracle_x", default="auto")
    pr.add_argument("--oracle-y", dest="oracle_y", default="auto")
    _add_common(pr, scales=True, out=True, cap=True)
    pr.set_defaults(func=cmd_product)

    fb = sub.add_parser("fibering", help="fibering cover of a product projection")
    fb.add_argument("--space-x", dest="space_x", required=True)
    fb.add_argument("--space-y", dest="space_y", required=True)
    fb.add_argument("--oracle-x", dest="oracle_x", default="auto")
    fb.add_argument("--oracle-y", dest="oracle_y", default="auto")
    _add_common(fb, scales=True, out=True, cap=True)
    fb.set_defaults(func=cmd_fibering)

    dc = sub.add_parser("decompose", help="decompose a witness-backed hypothesis")
    dc.add_argument("--space", required=True)
    dc.add_argument("--witness", required=True)
    dc.add_argument("--k", type=int, required=True)
    dc.add_argument("--subcover-mesh", dest="subcover_mesh", required=True)
    _add_common(dc, scales=True, out=True, cap=True)
    dc.set_defaults(func=cmd_decompose)

    tc = sub.add_parser("tree-cover", help="two-family annulus cover of a tree")
    tc.add_argument("--tree", required=True)
    tc.add_argument("--r", required=True)
    tc.add_argument("--dot", default=None)
    _add_common(tc, out=True)
    tc.set_defaults(func=cmd_tree_cover)

    fp = sub.add_parser("freeprod", help="free-product word-space operations")
    fsub = fp.add_subparsers(dest="subcommand", required=True)
    fw = fsub.add_parser("window")
    fw.add_argument("--base", required=True)
    _add_window(fw)
    _add_common(fw, out=True)
    fw.set_defaults(func=cmd_freeprod_window)
    fc = fsub.add_parser("cover")
    fc.add_argument("--base", required=True)
    _add_window(fc)
    fc.add_argument("--margin", default=None)
    _add_common(fc, scales=True, out=True, cap=True)
    fc.set_defaults(func=cmd_freeprod_cover)
    fq = fsub.add_parser("qi-check")
    fq.add_argument("--base", required=True)
    _add_window(fq)
    fq.add_argument("-M", required=True)
    _add_common(fq)
    fq.set_defaults(func=cmd_freeprod_qi_check)

    gp = sub.add_parser("group", help="group windows and pipelines")
    gsub = gp.add_subparsers(dest="subcommand", required=True)
    gb = gsub.add_parser("ball")
    gb.add_argument("--group", required=True)
    _add_common(gb, out=True)
    gb.set_defaults(func=cmd_group_ball)
    gl = gsub.add_parser("pipeline")
    gl.add_argument("--kind", choices=["z2-extension", "free-product-zz"], required=True)
    gl.add_argument("--radius", type=int, default=8)
    gl.add_argument("-m", "--max-order", dest="max_order", type=int, default=2)
    gl.add_argument("-L", "--max-norm", dest="max_norm", default="4")
    _add_common(gl, scales=True, out=True)
    gl.set_defaults(func=cmd_group_pipeline)

    dm = sub.add_parser("demo", help="built-in demonstrations")
    dsub = dm.add_subparsers(dest="subcommand", required=True)
    dh = dsub.add_parser("hypercubes")
    dh.add_argument("--max-dim", dest="max_dim", type=int, default=4)
    dh.add_argument("--k", type=int, default=2)
    dh.add_argument("--R", default="2")
    _add_common(dh, out=True, seed=True, cap=True)
    dh.set_defaults(func=cmd_demo_hypercubes)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ConstructionError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
