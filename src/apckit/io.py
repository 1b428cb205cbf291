"""File schemas: spaces, trees, groups, witnesses, reports, and DOT exports.

All files are canonical JSON (sorted keys, two-space indent, trailing
newline), so identical objects serialize byte-identically.  Scalars are
stored exactly: integers as numbers, other rationals as "p/q" strings, and
square-root values as {"sqrt": <square>}.
"""

from __future__ import annotations

import json
import os
import tempfile

from .exact import Root, root_of, scalar
from .metric import (
    Family,
    FiniteMetricSpace,
    InputError,
    generate_space,
    matrix_space,
    point_key,
    sorted_points,
)
from .covers import CoverWitness, ScaleSequence, WitnessEntry
from .groups import (
    DirectProductModel,
    FreeGroupModel,
    FreeProductModel,
    TableModel,
    ZdModel,
    cayley_ball,
)
from .trees import tree_from_edges


def encode_scalar(x):
    if isinstance(x, Root):
        return {"sqrt": encode_scalar(x.sq)}
    try:
        x = scalar(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"cannot encode scalar {x!r}: {e}") from None
    return x if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


def decode_scalar(v):
    try:
        if isinstance(v, dict) and set(v) == {"sqrt"}:
            return root_of(v["sqrt"])
        return scalar(v)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"cannot decode scalar {v!r}: {e}") from None


def encode_point(p):
    if isinstance(p, tuple):
        return [encode_point(x) for x in p]
    return p


def decode_point(v):
    if isinstance(v, list):
        return tuple(decode_point(x) for x in v)
    if isinstance(v, dict):
        raise InputError(f"a point cannot be an object: {v!r}")
    return v


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_file(path, obj):
    """Atomic canonical-JSON write."""
    text = canonical_dumps(obj)
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}") from None


def _check_fields(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise InputError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InputError(f"{where}: missing field(s) {sorted(missing)}")


def _list(v, where):
    """v itself when it is a JSON list; anything else is malformed input."""
    if not isinstance(v, list):
        raise InputError(f"{where}: expected a list, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# spaces


def space_to_obj(space):
    pts = list(space.points)
    rows = [[encode_scalar(space.dist(p, q)) for q in pts] for p in pts]
    obj = {
        "points": [encode_point(p) for p in pts],
        "metric": {"kind": "matrix", "rows": rows},
    }
    if space.basepoint is not None:
        obj["basepoint"] = encode_point(space.basepoint)
    return obj


def space_from_obj(obj):
    _check_fields(obj, ["metric"], ["points", "basepoint"], "space file")
    metric = obj["metric"]
    _check_fields(metric, ["kind"], ["rows", "spec"], "space metric")
    basepoint = decode_point(obj["basepoint"]) if "basepoint" in obj else None
    if metric["kind"] == "matrix":
        _check_fields(metric, ["kind"], ["rows"], "space metric")
        if "points" not in obj:
            raise InputError("matrix space file needs points")
        pts = [decode_point(p) for p in _list(obj["points"], "space points")]
        rows = [[decode_scalar(v) for v in _list(row, "matrix row")]
                for row in _list(metric.get("rows", []), "matrix rows")]
        return matrix_space(pts, rows, basepoint=basepoint)
    if metric["kind"] == "generator":
        _check_fields(metric, ["kind"], ["spec"], "space metric")
        space = generate_space(metric.get("spec"))
        if "points" in obj:
            declared = {decode_point(p) for p in _list(obj["points"], "space points")}
            if declared != space.point_set:
                raise InputError("declared points do not match the generator output")
        if basepoint is not None:
            space = FiniteMetricSpace(
                space.points, space._dist, basepoint=basepoint, name=space.name,
                dist_sq=space._dist_sq, index=space.index,
            )
        return space
    raise InputError(f"unknown metric kind {metric['kind']!r}")


def save_space(path, space):
    write_file(path, space_to_obj(space))


def load_space(path):
    return space_from_obj(read_file(path))


# ---------------------------------------------------------------------------
# witnesses


def scales_to_obj(scales):
    obj = {"scales": [encode_scalar(x) for x in scales.prefix], "extend": scales.extend}
    if scales.param is not None:
        obj["extend_param"] = encode_scalar(scales.param)
    return obj


def scales_from_obj(obj):
    prefix = [_rational(x, "scale") for x in _list(obj.get("scales", []), "scales")]
    return ScaleSequence(
        prefix,
        obj.get("extend", "repeat-last"),
        _rational(obj["extend_param"], "extend_param") if "extend_param" in obj else None,
    )


def _encode_set(s):
    return [encode_point(p) for p in sorted_points(s)]


def witness_to_obj(scales, witness):
    obj = scales_to_obj(scales)
    fams = []
    for e in witness.entries:
        fams.append(
            {
                "R": encode_scalar(e.required_scale),
                "mesh": encode_scalar(e.mesh_bound),
                "sets": [_encode_set(s) for s in e.family.sets],
            }
        )
    obj["families"] = fams
    return obj


def witness_from_obj(obj):
    _check_fields(
        obj, ["scales", "families"], ["extend", "extend_param"], "witness file"
    )
    scales = scales_from_obj(obj)
    entries = []
    for i, f in enumerate(_list(obj["families"], "witness families"), start=1):
        _check_fields(f, ["R", "sets"], ["mesh"], f"witness family {i}")
        R, scale = decode_scalar(f["R"]), scales.at(i)
        if R != scale:
            raise InputError(
                f"witness family {i}: R is {R}, but the stream's scale {i} is {scale}"
            )
        where = f"witness family {i} sets"
        fam = Family.of([{decode_point(p) for p in _list(s, where)}
                         for s in _list(f["sets"], where)])
        entries.append(WitnessEntry(scale, fam, decode_scalar(f.get("mesh", 0))))
    return scales, CoverWitness(entries)


def save_witness(path, scales, witness):
    write_file(path, witness_to_obj(scales, witness))


def load_witness(path):
    return witness_from_obj(read_file(path))


# ---------------------------------------------------------------------------
# trees


def tree_to_obj(tree):
    edges = sorted(
        ([p, c] for c, p in tree.parent.items() if p is not None),
        key=lambda e: (point_key(e[0]), point_key(e[1])),
    )
    return {"root": encode_point(tree.root),
            "edges": [[encode_point(p), encode_point(c)] for p, c in edges]}


def tree_from_obj(obj):
    _check_fields(obj, ["root"], ["edges"], "tree file")
    edges = _list(obj.get("edges", []), "tree edges")
    if not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise InputError("tree edges: each edge must be a [parent, child] pair")
    return tree_from_edges(
        decode_point(obj["root"]),
        [(decode_point(p), decode_point(c)) for p, c in edges],
    )


def save_tree(path, tree):
    write_file(path, tree_to_obj(tree))


def load_tree(path):
    return tree_from_obj(read_file(path))


# ---------------------------------------------------------------------------
# groups


def _model_from_spec(spec):
    if isinstance(spec, str):
        for prefix, model in (("Z^", ZdModel), ("free-", FreeGroupModel)):
            if spec.startswith(prefix) and spec[len(prefix):].isdecimal():
                return model(int(spec[len(prefix):]))
        raise InputError(f"unknown model string {spec!r} (use Z^d or free-k)")
    if isinstance(spec, dict):
        if "product" in spec:
            return DirectProductModel(
                [_model_from_spec(s) for s in _list(spec["product"], "product model")])
        if "freeprod" in spec:
            return FreeProductModel(
                [_model_from_spec(s) for s in _list(spec["freeprod"], "freeprod model")])
        if "table" in spec:
            t = spec["table"]
            _check_fields(t, ["elements", "rows", "identity"], [], "table model")
            if not (isinstance(t["elements"], list) and isinstance(t["rows"], list)
                    and all(isinstance(r, list) and len(r) == 3 for r in t["rows"])):
                raise InputError("table model: 'elements' must be a list and 'rows' "
                                 "a list of [a, b, a*b] triples")
            elements = [decode_point(e) for e in t["elements"]]
            table = {
                (decode_point(a), decode_point(b)): decode_point(c)
                for a, b, c in t["rows"]
            }
            return TableModel(elements, table, decode_point(t["identity"]))
    raise InputError(f"unknown group model spec {spec!r}")


def _rational(v, where):
    """A decoded scalar that must be rational, as scales, group weights and radii are."""
    x = decode_scalar(v)
    if isinstance(x, Root):
        raise InputError(f"{where} {v!r} is not rational")
    return x


def group_window_from_obj(obj):
    _check_fields(obj, ["model", "generators", "radius"], ["norm_radius"], "group file")
    model = _model_from_spec(obj["model"])
    if not isinstance(obj["generators"], list):
        raise InputError("group file: 'generators' must be a list")
    gens = []
    for g in obj["generators"]:
        _check_fields(g, ["elem", "weight"], [], "group generator")
        elem = decode_point(g["elem"])
        if not model.is_element(elem):
            raise InputError(f"generator {g['elem']!r} is not an element of {model.name}")
        gens.append((elem, _rational(g["weight"], "generator weight")))
    norm_radius = None
    if "norm_radius" in obj:
        norm_radius = _rational(obj["norm_radius"], "group norm_radius")
    return cayley_ball(model, gens, _rational(obj["radius"], "group radius"),
                       norm_radius=norm_radius)


def load_group_window(path):
    return group_window_from_obj(read_file(path))


# ---------------------------------------------------------------------------
# reports


def report_to_obj(report):
    return {
        "ok": report.ok,
        "per_entry": report.per_entry,
        "stats": report.stats,
        "violations": [
            {
                "condition": v.condition,
                "entry": v.entry,
                "points": [encode_point(p) for p in v.points],
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }


def metric_report_to_obj(report):
    return {
        "valid": report.valid,
        "checked": {k: list(v) if isinstance(v, tuple) else v
                    for k, v in report.checked.items()},
        "violations": [
            {
                "axiom": v.axiom,
                "points": [encode_point(p) for p in v.points],
                "values": [encode_scalar(x) for x in v.values],
            }
            for v in report.violations
        ],
    }


# ---------------------------------------------------------------------------
# DOT exports


def _dot_id(p):
    return '"' + str(p).replace('"', "'") + '"'


def proximity_dot(space, R):
    """The <=R proximity graph of a space in DOT format."""
    pts = sorted_points(space.points)
    lines = ["graph proximity {"]
    for p in pts:
        lines.append(f"  {_dot_id(p)};")
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if space.dist(p, q) <= R:
                lines.append(f"  {_dot_id(p)} -- {_dot_id(q)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_PALETTE = ["lightblue", "lightsalmon", "palegreen", "plum", "khaki", "lightgray"]


def tree_dot(tree, families):
    """Tree edges in DOT format, with the families' member sets colored."""
    color = {}
    set_index = 0
    for fam in families:
        for s in fam.sets:
            for v in s:
                color[v] = _PALETTE[set_index % len(_PALETTE)]
            set_index += 1
    lines = ["graph tree {"]
    for v in tree.vertices:
        if v in color:
            lines.append(
                f"  {_dot_id(v)} [style=filled, fillcolor={color[v]}];"
            )
        else:
            lines.append(f"  {_dot_id(v)};")
    for v in tree.vertices:
        if tree.parent[v] is not None:
            lines.append(f"  {_dot_id(tree.parent[v])} -- {_dot_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def word_window_to_obj(window):
    """Word window export: base space, bounds, and the word list."""
    return {
        "base": space_to_obj(window.base),
        "max_order": window.max_order,
        "max_norm": encode_scalar(window.max_norm),
        "words": [[encode_point(c) for c in w] for w in window.words],
    }
