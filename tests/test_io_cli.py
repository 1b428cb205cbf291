import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from apckit import cli
from apckit import io as fio
from apckit.cli import main as cli_main
from apckit.covers import ScaleSequence, interval_oracle, verify_apc_witness
from apckit.exact import root_of
from apckit.metric import (InputError, LatticeIndex, grid_window, interval_window, matrix_space,
                           product_space)
from conftest import LOOP5
from reference import random_tree


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "apckit", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


class TestScalarCodec:
    def test_roundtrip(self):
        for x in (0, 5, Fraction(3, 2), root_of(2), root_of(Fraction(5, 4))):
            assert fio.decode_scalar(fio.encode_scalar(x)) == x

    def test_integral_fraction_compact(self):
        assert fio.encode_scalar(Fraction(4, 2)) == 2

    def test_encodings_and_refusals(self):
        assert [fio.encode_scalar(x) for x in (7, 2.0, 0.5, Fraction(6, 4), root_of(8))] == [
            7, 2, "1/2", "3/2", {"sqrt": 8}]
        assert fio.encode_scalar(root_of(Fraction(5, 4))) == {"sqrt": "5/4"}
        for bad in (float("inf"), float("-inf"), float("nan"), True, "abc", None):
            with pytest.raises(InputError):
                fio.encode_scalar(bad)


class TestSpaceFiles:
    def test_matrix_roundtrip_byte_stable(self, tmp_path):
        space = matrix_space(["a", "b"], [[0, 2], [2, 0]], basepoint="a")
        p = tmp_path / "s.json"
        fio.save_space(str(p), space)
        loaded = fio.load_space(str(p))
        p2 = tmp_path / "s2.json"
        fio.save_space(str(p2), loaded)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("nested", [False, True])
    def test_l2_product_roundtrip(self, nested):
        # a saved l2 product stores its irrational distances as {"sqrt": n}
        space = product_space(interval_window(0, 1), interval_window(0, 1))
        if nested:
            space = product_space(space, interval_window(0, 2))
        loaded = fio.space_from_obj(fio.space_to_obj(space))
        assert loaded.points == space.points
        assert all(loaded.dist(p, q) == space.dist(p, q)
                   for p in space.points for q in space.points)

    def test_generator_file(self, tmp_path):
        p = tmp_path / "g.json"
        fio.write_file(
            str(p),
            {"metric": {"kind": "generator",
                        "spec": {"kind": "interval", "lo": 0, "hi": 9}}},
        )
        space = fio.load_space(str(p))
        assert len(space) == 10

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        fio.write_file(str(p), {"metric": {"kind": "matrix", "rows": []},
                                "points": [], "bogus": 1})
        with pytest.raises(InputError) as e:
            fio.load_space(str(p))
        assert "bogus" in str(e.value)


class TestWitnessFiles:
    def test_roundtrip(self, tmp_path):
        space = interval_window(0, 9)
        s = ScaleSequence([1, 2])
        w = interval_oracle(space).checked(s)
        p = tmp_path / "w.json"
        fio.save_witness(str(p), s, w)
        s2, w2 = fio.load_witness(str(p))
        assert verify_apc_witness(space, s2, w2).ok
        p2 = tmp_path / "w2.json"
        fio.save_witness(str(p2), s2, w2)
        assert p.read_bytes() == p2.read_bytes()

    def test_family_R_must_match_stream(self):
        obj = {"scales": [1], "families": [{"R": 100, "mesh": 0, "sets": [[0], [2], [4]]}]}
        with pytest.raises(InputError) as e:
            fio.witness_from_obj(obj)
        assert "witness family 1" in str(e.value)
        # later slots are checked against the stream's extension too
        obj = {"scales": [1], "extend": "arithmetic", "extend_param": 1, "families": [
            {"R": 1, "sets": [[0]]}, {"R": 2, "sets": [[1]]}, {"R": 2, "sets": [[2]]}]}
        with pytest.raises(InputError) as e:
            fio.witness_from_obj(obj)
        assert "witness family 3" in str(e.value)
        # a square root is never a scale: scales are rational
        obj["families"][2]["R"] = {"sqrt": 9 + 1}
        with pytest.raises(InputError):
            fio.witness_from_obj(obj)
        obj["families"][2]["R"] = "6/2"
        scales, witness = fio.witness_from_obj(obj)
        assert [e.required_scale for e in witness.entries] == [1, 2, 3]


class TestTreeFiles:
    def test_roundtrip(self, tmp_path):
        t = random_tree(12)
        p = tmp_path / "t.json"
        fio.save_tree(str(p), t)
        t2 = fio.load_tree(str(p))
        assert t2.parent == t.parent


class TestGroupFiles:
    def test_zd(self, tmp_path):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {
            "model": "Z^1",
            "generators": [{"elem": [1], "weight": 1}, {"elem": [-1], "weight": 1}],
            "radius": 3,
        })
        win = fio.load_group_window(str(p))
        assert len(win.points) == 7

    def test_free(self, tmp_path):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {
            "model": "free-2",
            "generators": [{"elem": [1], "weight": 1}, {"elem": [2], "weight": 1}],
            "radius": 2,
        })
        win = fio.load_group_window(str(p))
        assert len(win.points) == 17

    def test_product_model(self, tmp_path):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {
            "model": {"product": ["Z^1", "Z^1"]},
            "generators": [
                {"elem": [[1], [0]], "weight": 1},
                {"elem": [[0], [1]], "weight": 1},
            ],
            "radius": 2,
        })
        win = fio.load_group_window(str(p))
        assert len(win.points) == 13  # l1 ball of radius 2 in Z^2

    def test_freeprod_model(self, tmp_path):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {
            "model": {"freeprod": ["Z^1", "Z^1"]},
            "generators": [
                {"elem": [[0, [1]]], "weight": 1},
                {"elem": [[1, [1]]], "weight": 1},
            ],
            "radius": 2,
        })
        win = fio.load_group_window(str(p))
        assert len(win.points) == 17  # free product of two Z's is F_2

    def test_table_model(self, tmp_path):
        p = tmp_path / "g.json"
        elems = list(range(4))
        rows = [[a, b, (a + b) % 4] for a in elems for b in elems]
        fio.write_file(str(p), {
            "model": {"table": {"elements": elems, "rows": rows, "identity": 0}},
            "generators": [{"elem": 1, "weight": 1}, {"elem": 3, "weight": 1}],
            "radius": 2,
        })
        win = fio.load_group_window(str(p))
        assert len(win.points) == 4  # the whole cyclic group within radius 2

    @pytest.mark.parametrize("model, gen", [
        ("free-2", {"elem": [[0, 1]], "weight": 1}),
        ("free-2", {"elem": [3], "weight": 1}),
        ("free-2", {"elem": [0], "weight": 1}),
        ("free-2", {"elem": [1, -1], "weight": 1}),
        ("free-2", {"elem": 1, "weight": 1}),
        ("Z^2", {"elem": [1], "weight": 1}),
        ("Z^1", {"elem": [True], "weight": 1}),
        ("Z^1", {"elem": ["a"], "weight": 1}),
        ({"product": ["Z^1", "Z^1"]}, {"elem": [[1]], "weight": 1}),
        ({"product": ["Z^1", "free-1"]}, {"elem": [[1], [2]], "weight": 1}),
        ({"freeprod": ["Z^1", "Z^1"]}, {"elem": [[2, [1]]], "weight": 1}),
        ({"freeprod": ["Z^1", "Z^1"]}, {"elem": [[0, [0]]], "weight": 1}),
        ({"freeprod": ["Z^1", "Z^1"]}, {"elem": [[0, [1]], [0, [1]]], "weight": 1}),
        ({"freeprod": ["Z^1", "Z^1"]}, {"elem": [[0, 1]], "weight": 1}),
        ({"table": {"elements": [0, 1], "identity": 0,
                    "rows": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]}},
         {"elem": 2, "weight": 1}),
        ("free-2", [1]),
        ("free-2", {"elem": [1]}),
        ("Z^x", {"elem": [1], "weight": 1}),
        ("Z^\u00b2", {"elem": [1], "weight": 1}),
    ])
    def test_generators_must_be_elements_of_the_model(self, tmp_path, model, gen):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {"model": model, "generators": [gen], "radius": 2})
        with pytest.raises(InputError):
            fio.load_group_window(str(p))

    def test_basepoint_override_keeps_the_lattice_index(self, tmp_path):
        p = tmp_path / "s.json"
        for space, spec in ((interval_window(2, 5), {"kind": "interval", "lo": 2, "hi": 5}),
                            (grid_window([3, 2]), {"kind": "grid", "shape": [3, 2]})):
            fio.write_file(str(p), {"metric": {"kind": "generator", "spec": spec},
                                    "basepoint": fio.encode_point(space.basepoint)})
            loaded = fio.load_space(str(p))
            assert loaded.basepoint == space.basepoint
            assert isinstance(loaded.index, LatticeIndex)
            assert loaded._dist_sq is not None

    def test_generator_points_mismatch_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        fio.write_file(str(p), {
            "points": [0, 1, 2],
            "metric": {"kind": "generator", "spec": {"kind": "path", "n": 5}},
        })
        import pytest as _pytest

        with _pytest.raises(InputError):
            fio.load_space(str(p))


class TestDotExports:
    def test_proximity_dot(self):
        space = interval_window(0, 3)
        dot = fio.proximity_dot(space, 1)
        assert dot.startswith("graph proximity {")
        assert '"0" -- "1"' in dot

    def test_tree_dot_colored(self):
        from apckit.trees import tree_cover

        t = random_tree(10)
        dot = fio.tree_dot(t, tree_cover(t, 2).families())
        assert "fillcolor" in dot


class TestCli:
    def _space_file(self, tmp_path, spec):
        p = tmp_path / "space.json"
        fio.write_file(str(p), {"metric": {"kind": "generator", "spec": spec}})
        return str(p)

    def test_space_validate_ok(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "grid", "shape": [3, 3]})
        r = run_cli("space", "validate", "--in", f)
        assert r.returncode == 0
        assert json.loads(r.stdout)["valid"]

    def test_space_validate_bad_metric(self, tmp_path):
        p = tmp_path / "bad.json"
        fio.write_file(str(p), {
            "points": ["a", "b", "c"],
            "metric": {"kind": "matrix",
                       "rows": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
        })
        r = run_cli("space", "validate", "--in", str(p))
        assert r.returncode == 1

    def test_malformed_input_exit_2(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        r = run_cli("space", "validate", "--in", str(p))
        assert r.returncode == 2

    def test_cover_solve_and_verify_roundtrip(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "path", "n": 5})
        out = tmp_path / "w.json"
        r = run_cli("cover", "solve", "--space", f, "--R", "1", "--B", "0",
                    "--out", str(out))
        assert r.returncode == 0
        assert json.loads(r.stdout)["n"] == 2
        r2 = run_cli("cover", "verify", "--space", f, "--witness", str(out))
        assert r2.returncode == 0

    def test_cover_verify_tampered_exit_1(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "path", "n": 5})
        out = tmp_path / "w.json"
        run_cli("cover", "solve", "--space", f, "--R", "1", "--B", "0",
                "--out", str(out))
        obj = json.loads(out.read_text())
        # move a point from one set of the first family into another set
        fam = obj["families"][0]["sets"]
        moved = fam[0].pop()
        fam[1].append(moved)
        obj["families"][0]["sets"] = [s for s in fam if s]
        out.write_text(json.dumps(obj))
        r = run_cli("cover", "verify", "--space", f, "--witness", str(out))
        assert r.returncode == 1
        report = json.loads(r.stdout)
        assert report["violations"], "tampering must be reported with a named violation"
        assert all(v["condition"] in ("disjointness", "mesh", "coverage")
                   for v in report["violations"])

    def test_cover_verify_rejects_family_R_off_the_stream(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "path", "n": 5})
        w = tmp_path / "w.json"
        fio.write_file(str(w), {"scales": [1], "families": [
            {"R": 100, "mesh": 0, "sets": [[0], [2], [4]]},
            {"R": 1, "mesh": 0, "sets": [[1], [3]]}]})
        r = run_cli("cover", "verify", "--space", f, "--witness", str(w))
        assert r.returncode == 2
        assert "witness family 1" in r.stderr

    def test_cover_verify_distances_beyond_floats(self, tmp_path):
        big = 10**400
        space = tmp_path / "huge.json"
        fio.write_file(str(space), {"points": ["p", "q", "r"], "metric": {
            "kind": "matrix", "rows": [[0, big, big + 1], [big, 0, big + 2], [big + 1, big + 2, 0]]}})
        w = tmp_path / "w.json"
        fio.write_file(str(w), {"scales": [1], "families": [
            {"R": 1, "mesh": 0, "sets": [["p"], ["q"], ["r"]]}]})
        r = run_cli("cover", "verify", "--space", str(space), "--witness", str(w))
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["ok"]

    @pytest.mark.parametrize("scale", ["abc", "1/0"])
    def test_cover_verify_malformed_scalar_exit_2(self, tmp_path, scale):
        f = self._space_file(tmp_path, {"kind": "path", "n": 5})
        w = tmp_path / "w.json"
        fio.write_file(str(w), {"scales": [scale], "families": [
            {"R": 1, "mesh": 0, "sets": [[0], [2], [4]]}]})
        r = run_cli("cover", "verify", "--space", f, "--witness", str(w))
        assert r.returncode == 2
        assert r.stderr.startswith("input error:")
        assert "Traceback" not in r.stderr

    def test_cover_verify_unknown_point_exit_2(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "path", "n": 5})
        w = tmp_path / "w.json"
        fio.write_file(str(w), {"scales": [1], "families": [
            {"R": 1, "mesh": 2, "sets": [[0, 1], [3, 4, 9]]}]})
        r = run_cli("cover", "verify", "--space", f, "--witness", str(w))
        assert r.returncode == 2
        assert r.stderr.startswith("input error:") and "9" in r.stderr
        assert "Traceback" not in r.stderr

    def test_group_ball_rejects_a_generator_outside_its_model(self, tmp_path):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {"model": "free-2", "radius": 2,
                                "generators": [{"elem": [[0, 1]], "weight": 1}]})
        r = run_cli("group", "ball", "--group", str(p))
        assert r.returncode == 2
        assert r.stderr.startswith("input error:")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("table", [
        {"elements": [0, 1], "identity": 0, "rows": [[0, 0, 0]]},
        {"elements": [0, 1], "identity": 0, "rows": [[0, 0, 0], [0, 1]]},
        {"elements": [0, 1], "rows": [[0, 0, 0]]},
        {"elements": 2, "identity": 0, "rows": []},
        {"elements": [0, 1], "identity": 1, "rows": [[a, b, a ^ b] for a in (0, 1) for b in (0, 1)]},
        {"elements": list(range(5)), "identity": 0,
         "rows": [[a, b, LOOP5[a][b]] for a in range(5) for b in range(5)]},
    ])
    def test_group_ball_rejects_a_malformed_table(self, tmp_path, table):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {"model": {"table": table},
                                "generators": [{"elem": 1, "weight": 1}], "radius": 2})
        r = run_cli("group", "ball", "--group", str(p))
        assert r.returncode == 2
        assert r.stderr.startswith("input error:")
        assert "Traceback" not in r.stderr

    def test_product_malformed_scales_exit_2(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 4})
        r = run_cli("product", "--space-x", f, "--space-y", f, "--scales", "abc")
        assert r.returncode == 2
        assert r.stderr.startswith("input error:")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("bad", ["abc", "1/0"])
    @pytest.mark.parametrize("argv", [
        ["product", "--space-x", "{iv}", "--space-y", "{iv}", "--scales", "1,{bad}"],
        ["product", "--space-x", "{iv}", "--space-y", "{iv}", "--scales", "1",
         "--extend", "arithmetic", "--extend-param", "{bad}"],
        ["space", "export", "--in", "{iv}", "--R", "{bad}", "--dot", "{out}"],
        ["cover", "solve", "--space", "{iv}", "--R", "{bad}", "--B", "1"],
        ["cover", "solve", "--space", "{iv}", "--R", "1", "--B", "{bad}"],
        ["decompose", "--space", "{iv}", "--witness", "{w}", "--k", "1",
         "--subcover-mesh", "{bad}", "--scales", "1"],
        ["tree-cover", "--tree", "{tree}", "--r", "{bad}"],
        ["freeprod", "cover", "--base", "{base}", "--window", "2,4", "--margin", "{bad}",
         "--scales", "1"],
        ["freeprod", "cover", "--base", "{base}", "--window", "2,{bad}", "--scales", "1"],
        ["freeprod", "cover", "--base", "{base}", "--window", "{bad},4", "--scales", "1"],
        ["freeprod", "qi-check", "--base", "{base}", "-m", "2", "-L", "{bad}", "-M", "1"],
        ["freeprod", "qi-check", "--base", "{base}", "-m", "2", "-L", "4", "-M", "{bad}"],
        ["group", "pipeline", "--kind", "free-product-zz", "--radius", "1", "-L", "{bad}",
         "--scales", "1"],
        ["demo", "hypercubes", "--max-dim", "1", "--R", "{bad}"],
    ])
    def test_malformed_command_line_scalars_exit_2(self, tmp_path, capsys, argv, bad):
        files = {"iv": self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 4}),
                 "out": str(tmp_path / "out.dot"), "w": str(tmp_path / "w.json"),
                 "tree": str(tmp_path / "t.json"), "base": str(tmp_path / "base.json")}
        fio.write_file(files["w"], {"scales": [1], "families": [
            {"R": 1, "mesh": 4, "sets": [[0, 1, 2, 3, 4]]}]})
        fio.save_tree(files["tree"], random_tree(5))
        fio.write_file(files["base"], {"points": ["x0", "a"], "basepoint": "x0",
                                       "metric": {"kind": "matrix", "rows": [[0, 1], [1, 0]]}})
        assert cli_main([a.format(bad=bad, **files) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and repr(bad) in err

    @pytest.mark.parametrize("argv, bad", [
        (["space", "validate", "--in", "{f}"],
         {"metric": {"kind": "generator", "spec": {"kind": "grid", "shape": "ab"}}}),
        (["space", "validate", "--in", "{f}"],
         {"points": [0, 1], "metric": {"kind": "matrix", "rows": 5}}),
        (["space", "validate", "--in", "{f}"],
         {"points": [{"a": 1}, 1], "metric": {"kind": "matrix", "rows": [[0, 1], [1, 0]]}}),
        (["cover", "verify", "--space", "{iv}", "--witness", "{f}"],
         {"scales": [1], "families": [{"R": 1, "sets": 5}]}),
        (["cover", "verify", "--space", "{iv}", "--witness", "{f}"],
         {"scales": [1], "families": [{"R": 1, "sets": [5]}]}),
        (["cover", "verify", "--space", "{iv}", "--witness", "{f}"],
         {"scales": 5, "families": []}),
        (["cover", "verify", "--space", "{iv}", "--witness", "{f}"],
         {"scales": [1], "families": 5}),
        (["tree-cover", "--tree", "{f}", "--r", "1"], {"root": 0, "edges": [[0]]}),
        (["group", "ball", "--group", "{f}"],
         {"model": {"product": 5}, "generators": [], "radius": 1}),
        (["space", "validate", "--in", "{f}"],
         {"points": [0, 1], "metric": {"kind": "matrix", "rows": [[0, math.nan], [math.nan, 0]]}}),
        (["space", "validate", "--in", "{f}"],
         {"points": [0, 1], "metric": {"kind": "matrix", "rows": [[0, math.inf], [math.inf, 0]]}}),
        (["space", "validate", "--in", "{f}"],
         {"points": [0, 1], "metric": {"kind": "matrix", "rows": [[0, {"sqrt": -2}],
                                                                  [{"sqrt": -2}, 0]]}}),
        (["group", "ball", "--group", "{f}"],
         {"model": "Z^1", "generators": [{"elem": [1], "weight": {"sqrt": 2}}], "radius": 2}),
        (["freeprod", "window", "--base", "{f}", "--window", "2,4"],
         {"points": ["o", "a", "b"], "basepoint": "o", "metric": {"kind": "matrix", "rows": [
             [0, 1, {"sqrt": 2}], [1, 0, 1], [{"sqrt": 2}, 1, 0]]}}),
        (["tree-cover", "--tree", "{f}", "--r", "1"], {"root": 0, "edges": [[0, None]]}),
        (["tree-cover", "--tree", "{f}", "--r", "1"], {"root": None}),
    ])
    def test_malformed_file_exit_2(self, tmp_path, capsys, argv, bad):
        files = {"iv": self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 4}),
                 "f": str(tmp_path / "bad.json")}
        fio.write_file(files["f"], bad)
        assert cli_main([a.format(**files) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("argv, flag", [
        (["cover", "verify", "--space", "{iv}", "--witness", "{w}"], ["--seed", "5"]),
        (["tree-cover", "--tree", "{tree}", "--r", "1"], ["--cap", "3"]),
        (["demo", "hypercubes", "--max-dim", "1"], ["--seed", "1"]),
    ])
    def test_flags_a_command_does_not_read_exit_2(self, tmp_path, capsys, argv, flag):
        files = {"iv": self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 4}),
                 "w": str(tmp_path / "w.json"), "tree": str(tmp_path / "t.json")}
        fio.write_file(files["w"], {"scales": [1], "families": [
            {"R": 1, "mesh": 4, "sets": [[0, 1, 2, 3, 4]]}]})
        fio.save_tree(files["tree"], random_tree(5))
        argv = [a.format(**files) for a in argv]
        assert cli_main(argv) == 0
        with pytest.raises(SystemExit) as e:
            cli_main(argv + flag)
        assert e.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err

    def test_freeprod_cover_refuses_empty_reduced_window(self, tmp_path):
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", "a", "b"],
            "metric": {"kind": "matrix",
                       "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
            "basepoint": "x0",
        })
        out = tmp_path / "w.json"
        r = run_cli("freeprod", "cover", "--base", str(p), "--window", "3,6",
                    "--scales", "2,3", "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("input error:")
        assert "margin 7" in r.stderr and "max_norm 6" in r.stderr
        assert not out.exists()

    def test_product_command_verifies_and_is_deterministic(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 12})
        o1, o2 = tmp_path / "w1.json", tmp_path / "w2.json"
        r1 = run_cli("product", "--space-x", f, "--space-y", f,
                     "--scales", "1,2", "--out", str(o1))
        r2 = run_cli("product", "--space-x", f, "--space-y", f,
                     "--scales", "1,2", "--out", str(o2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_fibering_command(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 8})
        r = run_cli("fibering", "--space-x", f, "--space-y", f, "--scales", "1,2")
        assert r.returncode == 0

    def test_decompose_command(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 11})
        hyp = tmp_path / "hyp.json"
        # two parity families of width-4 blocks, 4 apart, as the hypothesis
        fio.write_file(str(hyp), {
            "scales": [1, 2],
            "families": [
                {"R": 1, "mesh": 3, "sets": [[0, 1, 2, 3], [8, 9, 10, 11]]},
                {"R": 2, "mesh": 3, "sets": [[4, 5, 6, 7]]},
            ],
        })
        out = tmp_path / "w.json"
        r = run_cli("decompose", "--space", f, "--witness", str(hyp),
                    "--k", "2", "--subcover-mesh", "1,1",
                    "--scales", "1,1", "--out", str(out))
        assert r.returncode == 0, r.stderr
        r2 = run_cli("cover", "verify", "--space", f, "--witness", str(out))
        assert r2.returncode == 0

    def test_space_export_dot(self, tmp_path):
        f = self._space_file(tmp_path, {"kind": "path", "n": 4})
        dot = tmp_path / "p.dot"
        r = run_cli("space", "export", "--in", f, "--R", "1", "--dot", str(dot))
        assert r.returncode == 0
        assert "--" in dot.read_text()

    def test_freeprod_window_flag_shorthand(self, tmp_path):
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", "a"],
            "metric": {"kind": "matrix", "rows": [[0, 1], [1, 0]]},
            "basepoint": "x0",
        })
        r = run_cli("freeprod", "window", "--base", str(p), "--window", "3,3")
        assert r.returncode == 0
        assert json.loads(r.stdout)["words"] == 4

    def test_freeprod_qi_check_command(self, tmp_path):
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", "a", "b"],
            "metric": {"kind": "matrix",
                       "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
            "basepoint": "x0",
        })
        r = run_cli("freeprod", "qi-check", "--base", str(p), "-m", "3", "-L", "9",
                    "-M", "2")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["ok"]

    def test_freeprod_qi_check_letters_of_mixed_id_types(self, tmp_path, capsys):
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", [1], "b"],
            "metric": {"kind": "matrix",
                       "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
            "basepoint": "x0",
        })
        assert cli_main(["freeprod", "qi-check", "--base", str(p), "-m", "2", "-L", "4",
                         "-M", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    @pytest.mark.parametrize("window, M, digest", [
        ("3,9", "1", "cac36718d8eb349a1131c5a43acee9730c1d31b02155d6a0ae41aff3302f757c"),
        ("4,9", "2", "a585ad8c3c600da39ce0d4ff6aab83dcfd09c3ef6e1334f7f4f40e530d058f43"),
    ])
    def test_freeprod_qi_check_pins_a_failing_base(self, tmp_path, capsys, window, M, digest):
        # d(a, b) = 50 against norms 1 breaks the lower inequality on sibling
        # pairs; the report keeps the first violation of each failing base
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", "a", "b"],
            "metric": {"kind": "matrix", "rows": [[0, 1, 1], [1, 0, 50], [1, 50, 0]]},
            "basepoint": "x0",
        })
        assert cli_main(["freeprod", "qi-check", "--base", str(p), "--window", window,
                         "-M", M]) == 1
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_freeprod_qi_check_refuses_too_many_cone_bases(self, tmp_path, capsys):
        # the trivial word of a 24-letter star has 2**24 - 1 cone bases, which
        # are counted and refused before any cone is walked
        pts = ["x0"] + [f"l{i}" for i in range(24)]
        rows = [[0 if p == q else 1 if "x0" in (p, q) else 2 for q in pts] for p in pts]
        p = tmp_path / "star.json"
        fio.write_file(str(p), {"points": pts, "metric": {"kind": "matrix", "rows": rows},
                                "basepoint": "x0"})
        start = time.perf_counter()
        assert cli_main(["freeprod", "qi-check", "--base", str(p), "--window", "1,9",
                         "-M", "1"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("cap, code", [(45, 0), (44, 2)])
    def test_freeprod_qi_check_walks_exactly_the_cap(self, tmp_path, monkeypatch, cap, code):
        # Xab's order-4 window has 15 prefixes of two extensions each, so 45
        # cone bases: a cap of 45 walks them, a cap of 44 refuses them
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", "a", "b"],
            "metric": {"kind": "matrix", "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
            "basepoint": "x0",
        })
        monkeypatch.setattr(cli, "QI_BASE_CAP", cap)
        assert cli_main(["freeprod", "qi-check", "--base", str(p), "--window", "4,9",
                         "-M", "2"]) == code

    def write_failing_base(self, tmp_path):
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", "a", "b"],
            "metric": {"kind": "matrix", "rows": [[0, 1, 1], [1, 0, 50], [1, 50, 0]]},
            "basepoint": "x0",
        })
        return str(p)

    def test_freeprod_qi_check_refuses_too_many_cone_pairs(self, tmp_path, capsys):
        # 1 533 cone bases over 1 023 words hold 1 535 483 word pairs at -M 3,
        # which are counted from the cone sizes and refused before any is compared
        p = self.write_failing_base(tmp_path)
        start = time.perf_counter()
        assert cli_main(["freeprod", "qi-check", "--base", p, "--window", "9,99",
                         "-M", "3"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("cap, code", [(1003, 1), (1002, 2)])
    def test_freeprod_qi_check_compares_exactly_the_pair_cap(self, tmp_path, monkeypatch,
                                                             cap, code):
        # the failing-base pin's window (4, 9) at -M 2 has 1 003 cone pairs
        p = self.write_failing_base(tmp_path)
        monkeypatch.setattr(cli, "QI_PAIR_CAP", cap)
        assert cli_main(["freeprod", "qi-check", "--base", p, "--window", "4,9",
                         "-M", "2"]) == code

    def test_group_ball_fractional_weight_spheres_in_norm_order(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {"model": "Z^1", "radius": 2,
                                "generators": [{"elem": [1], "weight": "1/2"}]})
        assert cli_main(["group", "ball", "--group", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["spheres"] == [
            [0, 1], ["1/2", 2], [1, 2], ["3/2", 2], [2, 2]]

    def test_group_ball_refuses_an_oversized_z3_ball_before_building_it(self, tmp_path,
                                                                         capsys):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {"model": "Z^3", "radius": 50, "generators": [
            {"elem": [1, 0, 0], "weight": 1}, {"elem": [0, 1, 0], "weight": 1},
            {"elem": [0, 0, 1], "weight": 1}]})
        start = time.perf_counter()
        assert cli_main(["group", "ball", "--group", str(p)]) == 2
        assert time.perf_counter() - start < 1
        assert "ball exceeds the 1000000-element cap" in capsys.readouterr().err

    def test_group_ball_refuses_an_oversized_free_group_ball(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        fio.write_file(str(p), {"model": "free-2", "radius": 6, "generators": [
            {"elem": [1], "weight": 1}, {"elem": [2], "weight": 1}]})
        start = time.perf_counter()
        assert cli_main(["group", "ball", "--group", str(p)]) == 2
        assert time.perf_counter() - start < 1
        assert "ball exceeds the 1000000-element cap" in capsys.readouterr().err

    def test_freeprod_window_out_writes_the_words(self, tmp_path, capsys):
        p, out = tmp_path / "base.json", tmp_path / "words.json"
        fio.write_file(str(p), {
            "points": ["x0", "a"],
            "metric": {"kind": "matrix", "rows": [[0, 1], [1, 0]]},
            "basepoint": "x0",
        })
        assert cli_main(["freeprod", "window", "--base", str(p), "--window", "3,3",
                         "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["words"] == 4
        assert fio.read_file(str(out))["words"] == [[], ["a"], ["a", "a"], ["a", "a", "a"]]

    def test_cover_verify_text_format(self, tmp_path, capsys):
        f = self._space_file(tmp_path, {"kind": "path", "n": 5})
        w = tmp_path / "w.json"
        fio.write_file(str(w), {"scales": [1], "families": [
            {"R": 1, "mesh": 4, "sets": [[0, 1, 2, 3, 4]]}]})
        assert cli_main(["cover", "verify", "--space", f, "--witness", str(w),
                         "--format", "text"]) == 0
        assert capsys.readouterr().out == "pass\n"

    def test_product_greedy_oracle(self, tmp_path, capsys):
        f = self._space_file(tmp_path, {"kind": "interval", "lo": 0, "hi": 4})
        assert cli_main(["product", "--space-x", f, "--space-y", f, "--oracle-x", "greedy",
                         "--scales", "1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_tree_cover_command(self, tmp_path):
        t = random_tree(20)
        tf = tmp_path / "t.json"
        fio.save_tree(str(tf), t)
        out = tmp_path / "w.json"
        dot = tmp_path / "t.dot"
        r = run_cli("tree-cover", "--tree", str(tf), "--r", "2",
                    "--out", str(out), "--dot", str(dot))
        assert r.returncode == 0
        assert dot.read_text().startswith("graph tree {")

    def test_freeprod_cover_command(self, tmp_path):
        p = tmp_path / "base.json"
        fio.write_file(str(p), {
            "points": ["x0", "a", "b"],
            "metric": {"kind": "matrix",
                       "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
            "basepoint": "x0",
        })
        r = run_cli("freeprod", "cover", "--base", str(p), "-m", "2", "-L", "4",
                    "--margin", "2", "--scales", "1,1")
        assert r.returncode == 0, r.stderr

    def test_group_pipeline_command(self, tmp_path):
        r = run_cli("group", "pipeline", "--kind", "z2-extension",
                    "--radius", "6", "--scales", "1,2")
        assert r.returncode == 0, r.stderr

    def test_demo_hypercubes_deterministic(self, tmp_path):
        o1, o2 = tmp_path / "d1.json", tmp_path / "d2.json"
        r1 = run_cli("demo", "hypercubes", "--max-dim", "3", "--out", str(o1))
        r2 = run_cli("demo", "hypercubes", "--max-dim", "3", "--out", str(o2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestExitCodeContract:
    """Malformed input exits 2 with one `input error:` line, never a traceback."""

    WITNESS = {"scales": [1], "families": [{"R": 1, "mesh": 4, "sets": [[0, 1, 2, 3, 4]]}]}

    @pytest.mark.parametrize("argv, witness", [
        (["cover", "verify", "--space", "{iv}", "--witness", "{w}"],
         {"scales": [{"sqrt": 2}], "families": []}),
        (["cover", "verify", "--space", "{iv}", "--witness", "{w}"],
         {"scales": [1], "extend": "arithmetic", "extend_param": {"sqrt": 2}, "families": []}),
        (["cover", "verify", "--space", "{iv}", "--witness", "{w}"],
         {**WITNESS, "meta": {"margin": 3}}),
        (["freeprod", "qi-check", "--base", "{base}", "-m", "2", "-L", "4", "-M", "0"], None),
        (["freeprod", "qi-check", "--base", "{base}", "-m", "2", "-L", "4", "-M", "-1"], None),
        (["demo", "hypercubes", "--max-dim", "1", "--k", "0"], None),
        (["space", "export", "--in", "{iv}", "--R", "1", "--dot", "{missing}/out.dot"], None),
        (["cover", "solve", "--space", "{iv}", "--R", "1", "--B", "1",
          "--out", "{missing}/w.json"], None),
        (["freeprod", "cover", "--base", "{base}", "--window", "3,6", "--scales", "1,2",
          "--margin", "-1"], None),
        (["decompose", "--space", "{iv}", "--witness", "{w}", "--k", "1",
          "--subcover-mesh", "0", "--scales", "1", "--cap", "3"], None),
        (["decompose", "--space", "{iv}", "--witness", "{w}", "--k", "1",
          "--subcover-mesh", "0,1", "--scales", "1"], None),
        (["product", "--space-x", "{iv}", "--space-y", "{iv}", "--oracle-x", "grid",
          "--scales", "1"], None),
        (["product", "--space-x", "{iv}", "--space-y", "{iv}", "--oracle-x", "bogus",
          "--scales", "1"], None),
        (["freeprod", "window", "--base", "{base}", "--window", "3"], None),
        (["freeprod", "window", "--base", "{base}"], None),
    ], ids=["sqrt-scale", "sqrt-extend-param", "witness-meta", "qi-check-M-0",
            "qi-check-M-negative", "hypercubes-k-0", "dot-missing-dir", "out-missing-dir",
            "freeprod-margin-negative", "decompose-member-above-cap",
            "decompose-mesh-count", "product-grid-oracle-on-interval", "product-unknown-oracle",
            "window-one-bound", "window-missing"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, argv, witness):
        files = {"iv": str(tmp_path / "iv.json"), "w": str(tmp_path / "w.json"),
                 "base": str(tmp_path / "base.json"), "missing": str(tmp_path / "missing")}
        fio.save_space(files["iv"], interval_window(0, 4))
        fio.write_file(files["w"], witness or self.WITNESS)
        fio.write_file(files["base"], {"points": ["x0", "a", "b"], "basepoint": "x0",
                                       "metric": {"kind": "matrix", "rows": [
                                           [0, 1, 2], [1, 0, 2], [2, 2, 0]]}})
        assert cli_main([a.format(**files) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv", [
        ["space", "validate", "--in", "{iv}", "--budget", "0"],
        ["space", "validate", "--in", "{iv}", "--budget", "-1"],
        ["cover", "solve", "--space", "{iv}", "--R", "1", "--B", "-1", "--out", "{out}"],
        ["cover", "solve", "--space", "{iv}", "--R", "1", "--B=-1/2", "--mode", "greedy",
         "--out", "{out}"],
        ["cover", "solve", "--space", "{iv}", "--R", "1", "--B", "-1/2", "--out", "{out}"],
        ["freeprod", "qi-check", "--base", "{base}", "--window", "0,4", "-M", "1"],
        ["freeprod", "qi-check", "--base", "{base}", "--window", "3,0", "-M", "1"],
        ["demo", "hypercubes", "--max-dim", "0", "--out", "{out}"],
        ["demo", "hypercubes", "--max-dim", "-2", "--out", "{out}"],
    ], ids=["validate-budget-0", "validate-budget-negative", "solve-B-negative",
            "greedy-B-negative", "solve-B-negative-separate", "qi-check-order-0",
            "qi-check-norm-0", "hypercubes-max-dim-0", "hypercubes-max-dim-negative"])
    def test_nothing_to_check_exits_2(self, tmp_path, capsys, argv):
        files = {"iv": str(tmp_path / "iv.json"), "base": str(tmp_path / "base.json"),
                 "out": str(tmp_path / "out.json")}
        fio.save_space(files["iv"], interval_window(0, 9))
        fio.write_file(files["base"], {"points": ["x0", "a", "b"], "basepoint": "x0",
                                       "metric": {"kind": "matrix", "rows": [
                                           [0, 1, 2], [1, 0, 2], [2, 2, 0]]}})
        assert cli_main([a.format(**files) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and len(err.splitlines()) == 1, err
        assert not (tmp_path / "out.json").exists()

    def test_construction_failure_exits_1(self, tmp_path, capsys):
        iv, w = str(tmp_path / "iv.json"), str(tmp_path / "w.json")
        fio.save_space(iv, interval_window(0, 4))
        fio.write_file(w, self.WITNESS)
        # one family at mesh 0 cannot cover five points 1 apart at scale 1
        assert cli_main(["decompose", "--space", iv, "--witness", w, "--k", "1",
                         "--subcover-mesh", "0", "--scales", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("construction failed:") and len(err.splitlines()) == 1, err

    def test_other_exceptions_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "cmd_space_validate", boom)
        iv = str(tmp_path / "iv.json")
        fio.save_space(iv, interval_window(0, 4))
        assert cli_main(["space", "validate", "--in", iv]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: unexpected\n"

    def test_negative_scales_as_separate_argument_run_like_the_joined_form(self, tmp_path, capsys):
        iv = str(tmp_path / "iv.json")
        fio.save_space(iv, interval_window(0, 4))
        runs = []
        for scales in (["--scales=-1/2,1"], ["--scales", "-1/2,1"]):
            assert cli_main(["product", "--space-x", iv, "--space-y", iv, *scales]) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1]
