"""Seeded decoder fuzz: mutated space, witness, tree and group files never
crash a command.

Each case starts from a valid file, replaces one to three random fields (or
the whole document) with malformed atoms, and runs one command in-process.
Whatever the mutation, the command must answer with exit 0, 1 or 2 and at
most one line on stderr; exit 3 is an internal error, which no file may
cause.  Radii stay at most 3, so each case is fast.
"""

import copy
import random

import pytest

from apckit import io as fio
from apckit.cli import main as cli_main
from conftest import LOOP5

ATOMS = [-1, "1/0", {"sqrt": -1}, [], None, True, [[1, [2]], []], [[[]]], "x0", 0.5, {}]

XAB = {
    "points": ["x0", "a", "b"],
    "metric": {"kind": "matrix", "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
    "basepoint": "x0",
}
INTERVAL = {"metric": {"kind": "generator", "spec": {"kind": "interval", "lo": 0, "hi": 3}},
            "basepoint": 0}
WITNESS = {
    "scales": [1, "3/2"], "extend": "repeat-last",
    "families": [{"R": 1, "mesh": 2, "sets": [["a", "x0"], ["b"]]},
                 {"R": "3/2", "mesh": 0, "sets": [["b"]]}],
}
TREE = {"root": 0, "edges": [[0, 1], [1, 2], [0, 3], [3, 4]]}
GROUPS = {
    "z2": {"model": "Z^2", "radius": 2,
           "generators": [{"elem": [1, 0], "weight": 1}, {"elem": [-1, 0], "weight": 1},
                          {"elem": [0, 1], "weight": "1/2"}, {"elem": [0, -1], "weight": "1/2"}]},
    "free": {"model": "free-2", "radius": 2,
             "generators": [{"elem": [1], "weight": 1}, {"elem": [2], "weight": 1}]},
    "freeprod": {"model": {"freeprod": ["Z^1", "Z^1"]}, "radius": 3,
                 "generators": [{"elem": [[0, [1]]], "weight": 1},
                                {"elem": [[1, [1]]], "weight": 2}]},
    "table": {"model": {"table": {"elements": [0, 1, 2], "identity": 0,
                                  "rows": [[a, b, (a + b) % 3] for a in range(3)
                                           for b in range(3)]}},
              "radius": 2, "generators": [{"elem": 1, "weight": 1}, {"elem": 2, "weight": 1}],
              "norm_radius": 3},
    "loop": {"model": {"table": {"elements": list(range(5)), "identity": 0,
                                 "rows": [[a, b, LOOP5[a][b]] for a in range(5)
                                          for b in range(5)]}},
             "radius": 2, "generators": [{"elem": 1, "weight": 1}, {"elem": 2, "weight": 1}]},
}

# name -> (argv with {file} slots, valid files by slot, the slot to mutate)
JOBS = {
    "cover-verify-space": (["cover", "verify", "--space", "{space}", "--witness", "{witness}"],
                           {"space": XAB, "witness": WITNESS}, "space"),
    "cover-verify-witness": (["cover", "verify", "--space", "{space}", "--witness", "{witness}"],
                             {"space": XAB, "witness": WITNESS}, "witness"),
    "tree-cover": (["tree-cover", "--tree", "{tree}", "--r", "1"], {"tree": TREE}, "tree"),
    **{f"group-ball-{name}": (["group", "ball", "--group", "{group}"], {"group": obj}, "group")
       for name, obj in GROUPS.items()},
    "space-validate-matrix": (["space", "validate", "--in", "{space}"], {"space": XAB}, "space"),
    "space-validate-generator": (["space", "validate", "--in", "{space}"],
                                 {"space": INTERVAL}, "space"),
    "freeprod-window-matrix": (["freeprod", "window", "--base", "{space}", "--window", "3,3"],
                               {"space": XAB}, "space"),
    "freeprod-window-generator": (["freeprod", "window", "--base", "{space}", "--window", "2,3"],
                                  {"space": INTERVAL}, "space"),
    "cover-solve": (["cover", "solve", "--space", "{space}", "--R", "1", "--B", "2"],
                    {"space": XAB}, "space"),
}
CASES_PER_JOB = 50
# the loop table is no group, so its unmutated file is refused too
VALID_EXIT = {"group-ball-loop": 2}


def paths(obj, here=()):
    """Every position in a JSON document, the document itself first."""
    yield here
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from paths(obj[k], here + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from paths(v, here + (i,))


def mutated(obj, rng):
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(paths(obj)))
        atom = copy.deepcopy(rng.choice(ATOMS))
        if not path:
            obj = atom
            continue
        obj = copy.deepcopy(obj)
        node = obj
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = atom
    return obj


@pytest.mark.parametrize("job", list(JOBS))
def test_mutated_files_exit_0_1_or_2_with_one_stderr_line(tmp_path, capsys, job):
    argv, files, target = JOBS[job]
    argv = [a.format(**{slot: tmp_path / f"{slot}.json" for slot in files}) for a in argv]
    rng = random.Random(job)
    for case in range(-1, CASES_PER_JOB):  # case -1 runs the valid files
        objs = dict(files, **{target: files[target] if case < 0 else mutated(files[target], rng)})
        for slot, obj in objs.items():
            fio.write_file(str(tmp_path / f"{slot}.json"), obj)
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code in ((VALID_EXIT.get(job, 0),) if case < 0 else (0, 1, 2)), (
            case, objs[target], code, err)
        assert err.count("\n") <= 1, (case, objs[target], err)
