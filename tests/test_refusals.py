"""Budgets, mesh bounds and demo sizes that would check nothing are refused
with InputError instead of answering as if they had been checked."""

from fractions import Fraction

import pytest

from apckit import io as fio
from apckit.cli import hypercube_demo_rows
from apckit.cli import main as cli_main
from apckit.combinators import (UniformlyExpansiveMap, check_uniformly_expansive,
                                fibering_cover, identity_rho)
from apckit.covers import (NegativeCertificate, ScaleSequence, greedy_families_at_scale,
                           interval_oracle, min_families_at_scale)
from apckit.metric import (FiniteMetricSpace, InputError, interval_window, matrix_space,
                           validate_metric)
from reference import whole_fiber_scheme


def doubling():
    """p -> 2p from [0, 9] to [0, 18] with the identity modulus: not expansive."""
    return UniformlyExpansiveMap(interval_window(0, 9), interval_window(0, 18),
                                 lambda p: 2 * p, identity_rho)


def test_expansion_check_refuses_a_negative_budget():
    assert check_uniformly_expansive(doubling(), pair_budget=1)[0] is False
    with pytest.raises(InputError):
        check_uniformly_expansive(doubling(), pair_budget=-1)


def test_expansion_check_refuses_a_budget_that_checks_no_pair():
    assert check_uniformly_expansive(doubling(), pair_budget=1) == (False, (6, 7))
    with pytest.raises(InputError):
        check_uniformly_expansive(doubling(), pair_budget=0)
    point = interval_window(0, 0)
    assert check_uniformly_expansive(UniformlyExpansiveMap(point, point, lambda p: p, identity_rho),
                                     pair_budget=0) == (True, None)


@pytest.mark.parametrize("budget", [0, -1])
def test_fibering_refuses_a_budget_below_1(budget):
    m = doubling()
    with pytest.raises(InputError):
        fibering_cover(m, interval_oracle(m.target), whole_fiber_scheme(), ScaleSequence([1]),
                       rho_budget=budget)


@pytest.mark.parametrize("budgets", [
    {"pair_budget": 0, "triple_budget": 0},
    {"pair_budget": -1, "triple_budget": -1},
    {"pair_budget": 0},
    {"triple_budget": 0},
])
def test_validate_metric_refuses_a_budget_below_1(budgets):
    space = matrix_space([0, 1, 2], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert not validate_metric(space, pair_budget=1, triple_budget=1).valid
    with pytest.raises(InputError):
        validate_metric(space, **budgets)


@pytest.mark.parametrize("B", [-1, Fraction(-1, 2)])
def test_solvers_refuse_a_negative_mesh_bound(B):
    space = interval_window(0, 9)
    with pytest.raises(InputError):
        min_families_at_scale(space, 1, B)
    with pytest.raises(InputError):
        greedy_families_at_scale(space, 1, B)
    with pytest.raises(InputError):
        NegativeCertificate(1, 1, B, 0).replay(space)


@pytest.mark.parametrize("max_dim", [0, -2])
def test_hypercube_demo_refuses_no_dimensions(max_dim):
    with pytest.raises(InputError):
        hypercube_demo_rows(max_dim)


def test_validate_metric_refuses_a_space_with_no_points():
    assert validate_metric(matrix_space([0], [[0]])).valid
    for space in (matrix_space([], []), FiniteMetricSpace([], lambda p, q: 0)):
        with pytest.raises(InputError):
            validate_metric(space)


def test_space_validate_refuses_a_space_with_no_points(tmp_path, capsys):
    path = str(tmp_path / "empty.json")
    fio.write_file(path, {"points": [], "metric": {"kind": "matrix", "rows": []}})
    assert cli_main(["space", "validate", "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv", [
    ["cover", "solve", "--space", "{iv}", "--R", "1", "--B", "1"],
    ["product", "--space-x", "{iv}", "--space-y", "{iv}", "--scales", "1"],
    ["fibering", "--space-x", "{iv}", "--space-y", "{iv}", "--scales", "1"],
    ["decompose", "--space", "{iv}", "--witness", "{w}", "--k", "1", "--subcover-mesh", "4",
     "--scales", "1"],
    ["freeprod", "cover", "--base", "{base}", "--window", "2,4", "--scales", "1"],
    ["demo", "hypercubes", "--max-dim", "1"],
], ids=["cover-solve", "product", "fibering", "decompose", "freeprod-cover", "demo-hypercubes"])
def test_every_command_refuses_a_negative_cap(tmp_path, capsys, argv):
    files = {"iv": str(tmp_path / "iv.json"), "w": str(tmp_path / "w.json"),
             "base": str(tmp_path / "base.json")}
    fio.save_space(files["iv"], interval_window(0, 4))
    fio.write_file(files["w"], {"scales": [1], "families": [
        {"R": 1, "mesh": 4, "sets": [[0, 1, 2, 3, 4]]}]})
    fio.write_file(files["base"], {"points": ["x0", "a", "b"], "basepoint": "x0",
                                   "metric": {"kind": "matrix", "rows": [
                                       [0, 1, 2], [1, 0, 2], [2, 2, 0]]}})
    out = tmp_path / "out.json"
    argv = [a.format(**files) for a in argv] + ["--out", str(out)]
    assert cli_main(argv) == 0
    out.unlink()
    with pytest.raises(SystemExit) as e:
        cli_main(argv + ["--cap", "-1"])
    assert e.value.code == 2
    assert "argument --cap: cap -1 is below 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["group", "pipeline", "--kind", "z2-extension", "--radius", "2", "--scales", "1", "-m", "2",
     "--out", "{out}"],
    ["group", "pipeline", "--kind", "z2-extension", "--radius", "2", "--scales", "1", "-L", "4",
     "--out", "{out}"],
    ["freeprod", "window", "--base", "{base}", "--window", "2,4", "-m", "2", "--out", "{out}"],
    ["freeprod", "cover", "--base", "{base}", "--window", "2,4", "-L", "4", "--scales", "1",
     "--out", "{out}"],
    ["freeprod", "qi-check", "--base", "{base}", "--window", "2,4", "-m", "2", "-L", "4",
     "-M", "1"],
], ids=["z2-pipeline-m", "z2-pipeline-L", "window-m", "cover-L", "qi-check-m-L"])
def test_window_flags_a_command_would_not_read_are_refused(tmp_path, capsys, argv):
    files = {"base": str(tmp_path / "base.json"), "out": str(tmp_path / "out.json")}
    fio.write_file(files["base"], {"points": ["x0", "a", "b"], "basepoint": "x0",
                                   "metric": {"kind": "matrix", "rows": [
                                       [0, 1, 2], [1, 0, 2], [2, 2, 0]]}})
    assert cli_main([a.format(**files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out.json").exists()


def test_space_export_refuses_format(tmp_path, capsys):
    iv, dot = str(tmp_path / "iv.json"), tmp_path / "iv.dot"
    fio.save_space(iv, interval_window(0, 4))
    argv = ["space", "export", "--in", iv, "--R", "1", "--dot", str(dot)]
    assert cli_main(argv) == 0
    dot.unlink()
    with pytest.raises(SystemExit) as e:
        cli_main(argv + ["--format", "text"])
    assert e.value.code == 2
    assert "unrecognized arguments: --format text" in capsys.readouterr().err
    assert not dot.exists()
