"""Pinned canonical CLI outputs.

Each case runs one command in-process through `cli.main` inside a fresh
directory and compares SHA-256 digests of its stdout (lines naming the
directory are skipped) and of every file it writes with digests recorded
before the last refactor.  A refactor that claims byte-identical outputs
keeps this file unchanged; a deliberate output change updates the digest
it moves and says why.
"""

import hashlib

import pytest

from apckit import cli
from apckit import io as fio
from reference import random_tree

XAB = {
    "points": ["x0", "a", "b"],
    "metric": {"kind": "matrix", "rows": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]},
    "basepoint": "x0",
}


def _generator(spec):
    return {"metric": {"kind": "generator", "spec": spec}}


# input files per case: name -> JSON object (trees are written separately)
INPUTS = {
    "path": _generator({"kind": "path", "n": 7}),
    "iv": _generator({"kind": "interval", "lo": 0, "hi": 9}),
    "iv12": _generator({"kind": "interval", "lo": 0, "hi": 11}),
    "grid": _generator({"kind": "grid", "shape": [5, 4]}),
    "xab": XAB,
    "hyp": {
        "scales": [1, 2],
        "families": [
            {"R": 1, "mesh": 3, "sets": [[0, 1, 2, 3], [8, 9, 10, 11]]},
            {"R": 2, "mesh": 3, "sets": [[4, 5, 6, 7]]},
        ],
    },
    "f2": {
        "model": "free-2",
        "generators": [{"elem": [1], "weight": 1}, {"elem": [2], "weight": 2}],
        "radius": 3,
    },
}

# name -> (argv, files the command writes); "{x}" names an input file
CASES = {
    "cover-solve": (["cover", "solve", "--space", "{path}", "--R", "1", "--B", "1",
                     "--out", "{out}"], ["out"]),
    "cover-verify": (["cover", "verify", "--space", "{path}", "--witness", "{solved}"], []),
    "product-intervals": (["product", "--space-x", "{iv}", "--space-y", "{iv}",
                           "--scales", "1,2,4", "--out", "{out}"], ["out"]),
    "product-grid": (["product", "--space-x", "{grid}", "--space-y", "{iv}",
                      "--scales", "1,2", "--out", "{out}"], ["out"]),
    "fibering": (["fibering", "--space-x", "{iv}", "--space-y", "{iv}",
                  "--scales", "1,2", "--out", "{out}"], ["out"]),
    "decompose": (["decompose", "--space", "{iv12}", "--witness", "{hyp}", "--k", "2",
                   "--subcover-mesh", "1,1", "--scales", "1,1", "--out", "{out}"], ["out"]),
    "tree-cover": (["tree-cover", "--tree", "{tree}", "--r", "3", "--out", "{out}",
                    "--dot", "{dot}"], ["out", "dot"]),
    "freeprod-cover": (["freeprod", "cover", "--base", "{xab}", "--window", "3,9",
                        "--scales", "1,2", "--out", "{out}"], ["out"]),
    "freeprod-qi-check": (["freeprod", "qi-check", "--base", "{xab}", "--window", "3,9",
                           "-M", "2"], []),
    "group-ball": (["group", "ball", "--group", "{f2}", "--out", "{out}"], ["out"]),
    "pipeline-z2": (["group", "pipeline", "--kind", "z2-extension", "--radius", "12",
                     "--scales", "1,2,4", "--out", "{out}"], ["out"]),
    "pipeline-free-product-zz": (["group", "pipeline", "--kind", "free-product-zz",
                                  "--radius", "3", "--scales", "1,1", "--out", "{out}"],
                                 ["out"]),
    "demo-hypercubes": (["demo", "hypercubes", "--max-dim", "3", "--out", "{out}"], ["out"]),
}

# name -> (exit code, stdout digest, {written file: digest})
GOLDEN = {
    'cover-solve': (0, '8ebce8283c48889f01f2b49d50db523104f7ab553aac8021845a8c9922524d52', {'out': 'c588fe29f8d7925866a58af6760f30e31c59d7c0c78c8a1feafccdfade957e8f'}),
    'cover-verify': (0, 'feb83334cb21fa2fe775e104ee956304473749635579b1eadb677ebfc3fdb44b', {}),
    'decompose': (0, 'fa7a365e206151ac2f9559700a92b9531e3aae4b5aaad3bf0ce56bdb37ab7700', {'out': 'e4252402eeab252d2affeb3557f2d0faf5f4805bdc4b79ed76fbe05cdcfbafad'}),
    'demo-hypercubes': (0, 'e647bcb360cd748d0c0074b756542e28a7fca3edc41531353f44f3639168a421', {'out': 'e647bcb360cd748d0c0074b756542e28a7fca3edc41531353f44f3639168a421'}),
    'fibering': (0, '812c0bd456c77f5ec57504018421c7747710da7a4fc20ec3da4920c612a3dace', {'out': '3149798f0d7d8da7aefbb65d4444210e5c7e14bca02926736b1807763f623394'}),
    'freeprod-cover': (0, 'c1b173b3c39c8905c2b48dd1fe08bffb0f9621bd04a44b98c0c15e5aeec73b2a', {'out': 'd73a0097fca39230afe17ba5702808e6457fd31cb3b5948e0ee413e99b32aa8e'}),
    'freeprod-qi-check': (0, 'bdbd3c5ec6f68a79cc9dc7ed76ad439d7169903ac5fb1d3bc4364748d7039492', {}),
    'group-ball': (0, 'a40dc89347f753ffec157e339af26ff4b884cda653eef1ff0169ab8cf5268fac', {'out': 'c6cff3c506572b571cbe8fd9e9927cf816aa3d703d9a70fed7b9f67a4598dc79'}),
    'pipeline-free-product-zz': (0, '5b5d75b86e02a2c77c02c7fbd533a2535f464c1f843985f442a8c25b69b4aeca', {'out': 'a342a519eafd35a34025352871d8e1783d23645d1cc32af4f3f23ac39f7ec6f9'}),
    'pipeline-z2': (0, '95267aa36fc54382d4ac83d86a26cb1f2b4497d33b8181a844ca0f0b9370d478', {'out': 'da9ce7c300e734613b844e04459196f6573f601f12a7fdec4e6352332687415d'}),
    'product-grid': (0, '7530e9ee8e0175dbbfc3ec6d23e8e92708fe029456731a5cabc7425297fe839a', {'out': 'c33239087cca02a5b283ba187199e1e4fc43fb14407e20e60861afac0671df1f'}),
    'product-intervals': (0, '7470375df8717f4e03698e136f9f2a22a4a31fac234b6a491164c7bc8abfa032', {'out': 'fbee591f86978a2f9d321cb35f416ddecb5a358e1e83d8c3e6ad9f64ca011990'}),
    'tree-cover': (0, '9029922d6e09d83eef4c9dbd6c576a1c97abdf14f2730c0d94b7e7693795b27a', {'out': '40337283376e735159ec124aa11a76db0d31249458665be20a7af856561c5319', 'dot': '04fcadc90c4b11c372a04f9ce10c40c60d8913d4c363e993afc6a7870e7a26db'}),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_case(name, tmp_path, capsys):
    """Run one case in tmp_path; return (exit code, stdout digest, file digests)."""
    paths = {}
    for key, obj in INPUTS.items():
        paths[key] = str(tmp_path / f"{key}.json")
        fio.write_file(paths[key], obj)
    paths["tree"] = str(tmp_path / "tree.json")
    fio.save_tree(paths["tree"], random_tree(60))
    paths["solved"] = str(tmp_path / "solved.json")
    cli.main(["cover", "solve", "--space", paths["path"], "--R", "1", "--B", "1",
              "--out", paths["solved"]])
    paths["out"] = str(tmp_path / "out.json")
    paths["dot"] = str(tmp_path / "out.dot")
    capsys.readouterr()

    argv, written = CASES[name]
    code = cli.main([a.format(**paths) for a in argv])
    stdout = capsys.readouterr().out
    kept = "".join(line for line in stdout.splitlines(keepends=True)
                   if str(tmp_path) not in line)
    files = {}
    for key in written:
        with open(paths[key], "rb") as fh:
            files[key] = _sha(fh.read())
    return code, _sha(kept.encode()), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == GOLDEN[name]
