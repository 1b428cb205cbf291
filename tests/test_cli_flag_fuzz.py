"""Seeded numeric-flag fuzz: malformed or extreme numbers on the command line
never crash a command.

Each case starts from a valid command, replaces one to three of its numeric
flags with values from a fixed pool, and runs it in-process.  Whatever the
values, the command must exit 0, 1 or 2, never 3 and never with a traceback;
an exit 2 prints one `input error:` line or an argparse usage message.

Flags that size the work are bounded, so each case is fast: a pool value
above its flag's bound is drawn again.  `--k` stays at most 64, because
`decompose` keeps n * k witness slots and hangs on a huge k; `--max-dim`
stays at most 3 (the demo's cubes have 2^n points), and `--radius` at most 3
and `-m` at most 4 (group balls and word windows grow exponentially in them).
"""

import random

import pytest

from apckit import io as fio
from apckit.cli import main as cli_main
from apckit.covers import EXTENSION_RULES
from apckit.metric import interval_window
from reference import random_tree

POOL = ["-1", "-2", "-1/2", "0", "1/2", "2.5", "1e3", "abc", "1/0", "nan", "inf",
        "12345678901234567890"]
BOUNDS = {"--k": 64, "--max-dim": 3, "--radius": 3, "-m": 4}

XAB = {
    "points": ["x0", "a", "b"],
    "metric": {"kind": "matrix", "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
    "basepoint": "x0",
}
WITNESS = {"scales": [1], "families": [{"R": 1, "mesh": 4, "sets": [[0, 1, 2, 3, 4]]}]}

# name -> (fixed argv with {file} slots, numeric flag -> valid value); every
# command that reads scales also draws its extension rule
COMMANDS = {
    "space-validate": (["space", "validate", "--in", "{iv}"], {"--budget": "100", "--seed": "0"}),
    "space-export": (["space", "export", "--in", "{iv}", "--dot", "{dot}"], {"--R": "1"}),
    "cover-solve": (["cover", "solve", "--space", "{iv}", "--out", "{out}"],
                    {"--R": "1", "--B": "2", "--cap": "8"}),
    "product": (["product", "--space-x", "{iv}", "--space-y", "{iv}", "--out", "{out}"],
                {"--scales": "1,2", "--extend-param": "1", "--cap": "8"}),
    "fibering": (["fibering", "--space-x", "{iv}", "--space-y", "{iv}", "--out", "{out}"],
                 {"--scales": "1,2", "--extend-param": "1", "--cap": "8"}),
    "decompose": (["decompose", "--space", "{iv}", "--witness", "{w}", "--out", "{out}"],
                  {"--k": "2", "--subcover-mesh": "4", "--scales": "1", "--extend-param": "1",
                   "--cap": "8"}),
    "tree-cover": (["tree-cover", "--tree", "{tree}", "--out", "{out}", "--dot", "{dot}"],
                   {"--r": "1"}),
    "freeprod-window": (["freeprod", "window", "--base", "{xab}", "--out", "{out}"],
                        {"--window": "3,4"}),
    "freeprod-cover": (["freeprod", "cover", "--base", "{xab}", "--out", "{out}"],
                       {"-m": "3", "-L": "6", "--scales": "1,2", "--extend-param": "1",
                        "--cap": "8"}),
    "freeprod-qi-check": (["freeprod", "qi-check", "--base", "{xab}"],
                          {"-m": "2", "-L": "4", "-M": "1"}),
    "group-pipeline-z2": (["group", "pipeline", "--kind", "z2-extension", "--out", "{out}"],
                          {"--radius": "2", "--scales": "1,2", "--extend-param": "1"}),
    "group-pipeline-zz": (["group", "pipeline", "--kind", "free-product-zz", "--out", "{out}"],
                          {"--radius": "2", "-m": "2", "-L": "3", "--scales": "1",
                           "--extend-param": "1"}),
    "demo-hypercubes": (["demo", "hypercubes", "--out", "{out}"],
                        {"--max-dim": "2", "--k": "2", "--R": "2", "--cap": "8"}),
}
CASES_PER_COMMAND = 50


def pool_value(flag, rng):
    """A pool value for flag, drawn again while it is above the flag's bound."""
    while True:
        value = rng.choice(POOL)
        try:
            if int(value) > BOUNDS.get(flag, int(value)):
                continue
        except ValueError:
            pass
        return value


def fuzzed_value(flag, rng):
    if flag == "--window":  # max_order,max_norm: max_order sizes the window as -m does
        return f"{pool_value('-m', rng)},{pool_value('-L', rng)}"
    if flag == "--scales":
        return rng.choice([pool_value(flag, rng), f"1,{pool_value(flag, rng)}"])
    return pool_value(flag, rng)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_fuzzed_numeric_flags_exit_0_1_or_2_without_a_traceback(tmp_path, capsys, command):
    fixed, flags = COMMANDS[command]
    files = {slot: str(tmp_path / name) for slot, name in [
        ("iv", "iv.json"), ("w", "w.json"), ("xab", "xab.json"), ("tree", "tree.json"),
        ("out", "out.json"), ("dot", "out.dot")]}
    fio.save_space(files["iv"], interval_window(0, 4))
    fio.write_file(files["w"], WITNESS)
    fio.write_file(files["xab"], XAB)
    fio.save_tree(files["tree"], random_tree(12))
    rng = random.Random(command)
    for case in range(-1, CASES_PER_COMMAND):  # case -1 runs the valid values
        values = dict(flags)
        if case >= 0:
            for flag in rng.sample(sorted(flags), rng.randint(1, min(3, len(flags)))):
                values[flag] = fuzzed_value(flag, rng)
        argv = [a.format(**files) for a in fixed]
        if "--scales" in flags:
            argv += ["--extend", rng.choice(EXTENSION_RULES)]
        for flag, value in values.items():
            argv += [flag, value]
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse refused a value
            code, usage = e.code, True
        else:
            usage = False
        err = capsys.readouterr().err
        assert "Traceback" not in err, (argv, err)
        assert code in ((0,) if case < 0 else (0, 1, 2)), (argv, code, err)
        if code == 2 and usage:
            assert err.startswith("usage:") and "error:" in err, (argv, err)
        elif code == 2:
            assert err.startswith("input error:") and err.count("\n") == 1, (argv, err)
