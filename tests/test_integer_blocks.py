"""The integer-block cover of Z behind interval_oracle, grid_oracle and
IntervalKernelSource: SHA-256 pins of their outputs, interval_oracle on
1-tuple windows against the matching int window, and its refusals."""

import hashlib
import random
from fractions import Fraction

import pytest

from apckit import covers
from apckit.covers import ScaleSequence, grid_oracle, interval_oracle
from apckit.groups import IntervalKernelSource, ZdModel, cayley_ball
from apckit.io import canonical_dumps, witness_to_obj
from apckit.metric import FiniteMetricSpace, InputError, grid_window, interval_window

STREAMS = {
    "1": ScaleSequence([1]),
    "1,2,4": ScaleSequence([1, 2, 4]),
    "2+1": ScaleSequence([2], "arithmetic", 1),
}


def witness_digest(scales, witness):
    text = canonical_dumps(witness_to_obj(scales, witness)) + repr(witness.meta)
    return hashlib.sha256(text.encode()).hexdigest()


GRID_PINS = {
    ((7,), '1'): "86c3eda9d51c6a190d0e5e1effc21a7615ff4ceaf0efae8c549da4b0e3896f4a",
    ((7,), '1,2,4'): "fdb08bb20c56a791e114a89cdb459c888d09e188af3a0403164cd71f67f2a149",
    ((7,), '2+1'): "93c6b5f6def0b98f7da7fd13f8778e44a3cddba7d5dd9fcad3718590f13a86a6",
    ((5, 4), '1'): "ea9313eaa81e3b5ee4815a1bb14906b653e911b81198eba67c4d925e90afb4b6",
    ((5, 4), '1,2,4'): "190d66432ec62f2e84cc73ca6ae60b318719bbff9ce405a3a18fc572cf8177b0",
    ((5, 4), '2+1'): "03203a75fcf1790fb5f9d0dcaa03ec37ee65fba5426b263257afcd437f2320a5",
    ((3, 4, 5), '1'): "dbf3a1169a437d35c5a3458f4a63d51349e57d49cc116ccd4c8c8e6989d89e28",
    ((3, 4, 5), '1,2,4'): "031dc11ef5e2ac8650b4b2b1546c8fafb0cad905fa5e02d906c9871b6b21d6e0",
    ((3, 4, 5), '2+1'): "59e324c2aca0bee9159715df050710655f4943326d024904b36d1393e64abcdc",
    ((2, 3, 2, 2), '1'): "b45beaf5db0828496a6702b8d2a7ee4ffc6497fea30b9938f8276cddc901d4dc",
    ((2, 3, 2, 2), '1,2,4'): "ff8f46f647e773d193ff8f163e56dac4d6c0ec05cf5d3d935dc519686131722c",
    ((2, 3, 2, 2), '2+1'): "491ad82739f1a53928435fe528080b806853d444d4e564f587b4c25bd4ad906c",
}

INTERVAL_PINS = {
    '1': "9369594ffc14681e47ca2fbb0c15cfe2e8d35f39dbddef1e312f7b3439d7ec29",
    '1,2,4': "d504118bfdcfd723773b6b8a0c0a79c02e8e30f44ddac35c9a9162e025a6371b",
    '2+1': "d0014c95040d9b3c90143088ab21e0942c5766091a7dc399bdfde8f6331954f0",
}

KERNEL_PIN = "74f77c3173020f20170cee5cb4e20bf237c3d55afb2405130d09215a905ea845"


def kernel_rows():
    rows = []
    for seed in range(3):
        rng = random.Random(seed)
        elems = set(rng.sample(range(-20, 40), 25))
        for step in (1, 2, Fraction(3, 2)):
            source = IntervalKernelSource(coordinate=lambda g: g, step=step)
            for R in (1, Fraction(5, 2), 7):
                B, fams = source.cover(elems, R)
                rows.append((seed, step, R, B, [[sorted(s) for s in f.sets] for f in fams]))
    return rows


class TestIntegerBlockPins:
    """Outputs at the commit before the integer-block cover became one
    function; any change to a block, family, bound or meta entry shows here."""

    @pytest.mark.parametrize("shape, stream", sorted(GRID_PINS))
    def test_grid_oracle(self, shape, stream):
        s = STREAMS[stream]
        w = grid_oracle(grid_window(shape), shape).checked(s)
        assert witness_digest(s, w) == GRID_PINS[shape, stream]

    @pytest.mark.parametrize("stream", sorted(INTERVAL_PINS))
    def test_interval_oracle(self, stream):
        s = STREAMS[stream]
        w = interval_oracle(interval_window(-3, 8)).checked(s)
        assert witness_digest(s, w) == INTERVAL_PINS[stream]

    def test_kernel_source(self):
        assert hashlib.sha256(repr(kernel_rows()).encode()).hexdigest() == KERNEL_PIN


def relabelled(witness):
    """The entries of an int-window witness with every point p renamed (p,)."""
    return [(e.required_scale, e.mesh_bound, {frozenset((p,) for p in s) for s in e.family.sets})
            for e in witness.entries]


def entries(witness):
    return [(e.required_scale, e.mesh_bound, set(e.family.sets)) for e in witness.entries]


class TestOneTupleWindows:
    """interval_oracle on 1-tuples answers the int window's witness, renamed."""

    @pytest.mark.parametrize("stream", sorted(STREAMS) + ["one block"])
    def test_z1_cayley_window(self, stream):
        s = STREAMS.get(stream, ScaleSequence([30]))
        Z = ZdModel(1)
        for L in (1, 5, 9):
            window = cayley_ball(Z, Z.standard_gens(), L)
            got = interval_oracle(window.space).checked(s)
            assert entries(got) == relabelled(interval_oracle(interval_window(-L, L)).checked(s))

    @pytest.mark.parametrize("stream", sorted(STREAMS) + ["one block"])
    def test_one_dimensional_grid(self, stream):
        s = STREAMS.get(stream, ScaleSequence([30]))
        for n in (1, 2, 7, 12):
            got = interval_oracle(grid_window((n,))).checked(s)
            assert entries(got) == relabelled(interval_oracle(interval_window(0, n - 1)).checked(s))

    def test_one_block_is_one_family(self):
        w = interval_oracle(grid_window((4,))).checked(ScaleSequence([1, 4]))
        assert [len(e.family) for e in w.entries] == [1]


def plain(points):
    return FiniteMetricSpace(points, lambda p, q: 1, name="plain")


class TestIntervalRefusals:
    @pytest.mark.parametrize("space", [
        plain([Fraction(1, 2), Fraction(3, 2)]),
        plain(["a", "b"]),
        plain([("a",), ("b",)]),
        grid_window((3, 2)),
        plain([(0, 0), (1, 0)]),
        plain([0, 1, 3]),
        plain([(0,), (2,)]),
        plain([0, (1,)]),
    ], ids=["fractions", "strings", "string-1-tuples", "grid-2-tuples", "2-tuples", "gap",
            "1-tuple-gap", "ints-and-1-tuples"])
    def test_refused(self, space):
        with pytest.raises(InputError):
            interval_oracle(space)


def test_grid_oracle_builds_its_windows_once(monkeypatch):
    oracles = [grid_oracle(grid_window(shape), shape) for shape in ((6,), (4, 3), (3, 2, 4))]

    def no_window(*args, **kwargs):
        raise AssertionError("grid_window called after the oracle was built")

    monkeypatch.setattr(covers, "grid_window", no_window)
    for oracle in oracles:
        for s in STREAMS.values():
            oracle.checked(s)
