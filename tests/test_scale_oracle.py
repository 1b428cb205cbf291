"""The built-in oracles' one cover-at-a-scale loop: SHA-256 pins of the tree,
exact and greedy oracles' witnesses, and every built-in oracle against its
reference loop on random windows, trees and streams."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apckit.covers import (EXTENSION_RULES, ScaleSequence, exact_oracle, greedy_families_at_scale,
                           greedy_oracle, interval_oracle, min_families_at_scale)
from apckit.metric import grid_window, interval_window
from apckit.trees import tree_oracle
from conftest import random_graph_space, random_points_space
from reference import interval_witness, random_tree, solver_witness, tree_witness
from test_integer_blocks import STREAMS, witness_digest


def pinned_oracles():
    return {
        ("tree", "attach-40"): tree_oracle(random_tree(40, random.Random(1))),
        ("tree", "path-30"): tree_oracle(random_tree(30, shape="path")),
        ("tree", "star-12"): tree_oracle(random_tree(12, shape="star")),
        ("tree", "caterpillar-25"): tree_oracle(random_tree(25, shape="caterpillar")),
        ("exact", "interval-8"): exact_oracle(interval_window(0, 7)),
        ("exact", "graph-9"): exact_oracle(random_graph_space(random.Random(2), 9)),
        ("exact", "points-10"): exact_oracle(random_points_space(random.Random(3), 10, dim=2)),
        ("greedy", "grid-4x4"): greedy_oracle(grid_window((4, 4))),
        ("greedy", "graph-12"): greedy_oracle(random_graph_space(random.Random(5), 12)),
        ("greedy", "points-14"): greedy_oracle(random_points_space(random.Random(4), 14, dim=2)),
    }


PINS = {
    ("tree", "attach-40", "1"): "8405894d6870a367d99ae6288822e0b9a118de53770f693a36cf6678cbda8ae4",
    ("tree", "attach-40", "1,2,4"): "163a76438c8201f327bc469b947df98ff48363e0a38b918807cbdd7d398cd305",
    ("tree", "attach-40", "2+1"): "6b0458cb49c25f7cb29899cae3c9952b9738dbd3a57ec29e4b744f5e686a3c88",
    ("tree", "path-30", "1"): "c273fd0dcb5c796c347f3782b6b4ac7a37a0f916e7d46f84570643302219d2fb",
    ("tree", "path-30", "1,2,4"): "ca1648e29ea65d9ddc0fcf522a77d69f7e4d47113353c30ccb3699091050d806",
    ("tree", "path-30", "2+1"): "dec9f187674fa44f269fa5ac71908b355ce6cd5ab398b621c765033aec0f85e5",
    ("tree", "star-12", "1"): "17a4b4276d8225d7b43bd30dda60f2b782e8908816e8a44c88c6e16d27bc20e0",
    ("tree", "star-12", "1,2,4"): "58c21c10a03f0b307681ffbb0a58b2290cca9d08e73687177ce6c48a8cebb1af",
    ("tree", "star-12", "2+1"): "7bd203b7941cbe5303a5e19b26e50da33c142505d24f1dc9bd661db4e57d4ba2",
    ("tree", "caterpillar-25", "1"): "9cfb6e419ccb045c11a7cd4e59c0e463258f2217e64889619a70293ce1f3baba",
    ("tree", "caterpillar-25", "1,2,4"): "a4e854cbbb60f5e35f45ad26058accb091d27e3c1468d4fc6c7c534b57276523",
    ("tree", "caterpillar-25", "2+1"): "7312bac4610bb82c4656d08234fbd3581aa0e6991bd91aef12d4a90f6ea59b16",
    ("exact", "interval-8", "1"): "ecea8465cb18929cdb60443fac3628a07a4f78b930bd0f3a8128cd4c92a894c8",
    ("exact", "interval-8", "1,2,4"): "8699a2c4c5d76c0fb8dda733057b452ff8e3a0bdf8100041d86bfcedab40d725",
    ("exact", "interval-8", "2+1"): "10a396457c37fd301e861d60da907bd5235a7f0aa3aadd61b93c82d3abfab790",
    ("exact", "graph-9", "1"): "1f6498e8f5f7adb6076dcae29f12b04d07216db4109d9fa87671f5e93a99c4d2",
    ("exact", "graph-9", "1,2,4"): "03f6397d11694d66caf0f3f3044ceb9268fef430ca10e21f9b7a98caabdaa568",
    ("exact", "graph-9", "2+1"): "35c7d6102e5f7a35a4d794cc9e5c04c1f5a2ce7e88a624616285ef4a966406b1",
    ("exact", "points-10", "1"): "065ac83c10a886f690adc7ab947aa48e4404fed00eeff54b108dfadcb91df8d6",
    ("exact", "points-10", "1,2,4"): "ae6aa8d2de23d7ff3a9506373dd3f575099c154f7efa28d9315c97c44d9c2661",
    ("exact", "points-10", "2+1"): "39cad2c15ad4bcc759bd769f0416abbc467c1b2d40f1d9048c4b3a93a1b9d748",
    ("greedy", "grid-4x4", "1"): "d06fedd99a5c778e927f9ca19fe0b57f536176174371d7174e4edaa3cbbcc24b",
    ("greedy", "grid-4x4", "1,2,4"): "d98c59c1121f2dcb8fa579bd93d3f5a829cb4ff36cb56d53acdaf2f98f629587",
    ("greedy", "grid-4x4", "2+1"): "a5769a45b062d006e763de1e7f0733e3e92957d40b67ae7571188f12de398403",
    ("greedy", "graph-12", "1"): "f53a27a5c56a9d47c6e575ede5868c5b3c1391fcbfc3ba2ae44461bc9edb304c",
    ("greedy", "graph-12", "1,2,4"): "60f3562fc51c7d0d52ae382df1c0962edd47e1af95470b7e572acbf50b466f3d",
    ("greedy", "graph-12", "2+1"): "adab97fbe774cfdad545f97b67d4c44df4b11eb94914086476fc425d39776326",
    ("greedy", "points-14", "1"): "3258f729d12a298ebd02f3699c6518251c69423ca6dea90a1c238f1f00e7538b",
    ("greedy", "points-14", "1,2,4"): "58da9e486ea4d4fab17499825be427741b8b2e972a3152b0d56db7f0e1f1bf92",
    ("greedy", "points-14", "2+1"): "573b6576b0e9f0da8393f55bffabb7137854750d49da9e7707b257a98345c97b",
}


class TestOraclePins:
    """Witnesses at the commit before the built-in oracles shared one loop;
    any change to a slot, family, bound or meta entry shows here."""

    @pytest.mark.parametrize("kind, space, stream", sorted(PINS))
    def test_witness(self, kind, space, stream):
        s = STREAMS[stream]
        w = pinned_oracles()[kind, space].checked(s)
        assert witness_digest(s, w) == PINS[kind, space, stream]


scalars = st.one_of(st.integers(-2, 12), st.fractions(-2, 12, max_denominator=4))


@st.composite
def streams(draw):
    prefix = sorted(draw(st.lists(scalars, min_size=1, max_size=4)))
    rule = draw(st.sampled_from(EXTENSION_RULES))
    if rule == "arithmetic":
        return ScaleSequence(prefix, rule, draw(st.fractions(0, 3, max_denominator=3)))
    if rule == "geometric" and prefix[-1] >= 0:
        return ScaleSequence(prefix, rule, draw(st.fractions(1, 3, max_denominator=3)))
    return ScaleSequence(prefix)


def entries(witness):
    return [(type(e.required_scale), e.required_scale, type(e.mesh_bound), e.mesh_bound,
             e.family.sets) for e in witness.entries], witness.meta


@given(st.integers(-20, 20), st.integers(0, 30), st.booleans(), streams())
@settings(max_examples=200, deadline=None)
def test_interval_oracle_matches_its_reference(lo, size, tuples, s):
    space = interval_window(lo, lo + size)
    if tuples:
        space = grid_window((size + 1,))
    assert entries(interval_oracle(space)(s)) == entries(interval_witness(space, s))


@given(st.sampled_from(["attach", "path", "star", "caterpillar"]), st.integers(1, 40),
       st.integers(0, 2**16), streams())
@settings(max_examples=200, deadline=None)
def test_tree_oracle_matches_its_reference(shape, n, seed, s):
    tree = random_tree(n, random.Random(seed), shape=shape)
    assert entries(tree_oracle(tree)(s)) == entries(tree_witness(tree, s))


@given(st.integers(1, 10), st.integers(0, 2**16), st.booleans(), streams())
@settings(max_examples=100, deadline=None)
def test_solver_oracles_match_their_reference(n, seed, exact, s):
    space = random_graph_space(random.Random(seed), n)
    if exact:
        got = exact_oracle(space)(s)
        want = solver_witness(lambda R: min_families_at_scale(space, R, 0), s)
    else:
        got = greedy_oracle(space)(s)
        want = solver_witness(lambda R: greedy_families_at_scale(space, R, 0), s)
    assert entries(got) == entries(want)
