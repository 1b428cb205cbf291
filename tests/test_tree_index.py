"""The tree index against the generic all-pairs path and the definitions.

Every check builds the same tree twice: ``tree.as_space()``, which carries
the index, and its copy without the index (``reference.without_index``),
which takes the generic code.  Verdicts, violation tuples, diameters and whole
verifier reports must agree.  The constructor's one walk from the root is
checked against the chain walk of ``reference.tree_depths`` on parent maps
with planted faults.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apckit.covers import ScaleSequence, WitnessEntry, CoverWitness, verify_apc_witness
from apckit.exact import root_of
from apckit.metric import (Family, InputError, _separated, family_is_R_disjoint, r_components,
                           set_diameter_sq)
from apckit.trees import RootedTree, tree_cover
from reference import closure, random_tree, tree_depths, without_index

SHAPES = ("attach", "path", "star", "caterpillar")
RADII = [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3, Fraction(7, 2), 5, 100]


@st.composite
def trees(draw):
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(SHAPES))
    return random_tree(n, random.Random(draw(st.integers(0, 2**16))), shape=shape)


@st.composite
def families(draw, tree):
    """Overlapping random sets, a partition of some vertices, or a tree-cover family."""
    vs = list(tree.vertices)
    kind = draw(st.sampled_from(["random", "partition", "cover"]))
    if kind == "random":
        return draw(st.lists(st.sets(st.sampled_from(vs), min_size=1, max_size=6), max_size=5))
    if kind == "partition":
        labels = draw(st.lists(st.integers(-1, 3), min_size=len(vs), max_size=len(vs)))
        groups = {}
        for v, a in zip(vs, labels):
            if a >= 0:
                groups.setdefault(a, set()).add(v)
        return list(groups.values())
    cover = tree_cover(tree, draw(st.sampled_from([1, 2, 3, Fraction(5, 2)])))
    return list(draw(st.sampled_from(cover.families())).sets)


def separated_by_definition(tree, sets, R):
    return all(tree.distance(p, q) > R
               for a, b in itertools.combinations(sets, 2) for p in a for q in b)


@st.composite
def tree_and_family(draw):
    tree = draw(trees())
    return tree, draw(families(tree)), draw(st.sampled_from(RADII))


@given(tree_and_family())
@settings(max_examples=300, deadline=None)
def test_family_disjointness_and_diameters_match_generic_path(case):
    tree, sets, R = case
    indexed, plain = tree.as_space(), without_index(tree.as_space())
    assert family_is_R_disjoint(indexed, sets, R) == family_is_R_disjoint(plain, sets, R)
    for s in sets:
        assert set_diameter_sq(indexed, s) == set_diameter_sq(plain, s)


@given(tree_and_family())
@settings(max_examples=300, deadline=None)
def test_separated_matches_definition(case):
    tree, sets, R = case
    sets = [frozenset(s) for s in sets]
    assert _separated(tree.as_space().index, sets, R) == separated_by_definition(tree, sets, R)


LINK_RADII = [0, Fraction(1, 2), 1, Fraction(3, 2), 2, root_of(5), 4, 7]


@st.composite
def tree_labels_and_radius(draw):
    """A tree, int labels on some of its vertices, and R >= 0, with a
    planted pair of two new labels floor(R) apart when the tree has one."""
    tree = draw(trees())
    vs = list(tree.vertices)
    marks = draw(st.lists(st.integers(-1, 3), min_size=len(vs), max_size=len(vs)))
    label = {v: a for v, a in zip(vs, marks) if a >= 0}
    R = draw(st.sampled_from(LINK_RADII))
    u = draw(st.sampled_from(vs))
    far = [v for v in vs if tree.distance(u, v) == math.floor(R)]
    if far and u not in far:
        label[u], label[draw(st.sampled_from(far))] = 4, 5
    return tree, label, R


@given(tree_labels_and_radius())
@settings(max_examples=400, deadline=None)
def test_links_are_within_R_and_close_to_components(case):
    tree, label, R = case
    space = tree.as_space()
    members = {}
    for v, a in label.items():
        members.setdefault(a, []).append(v)
    assert all(a != b and any(tree.distance(p, q) <= R for p in members[a] for q in members[b])
               for a, b in space.index.links(label, R))
    pts = sorted(label, key=space.rank.__getitem__)
    links = list(space.index.links(dict(zip(pts, range(len(pts)))), R))
    assert all(i != j and tree.distance(pts[i], pts[j]) <= R for i, j in links)
    assert closure(pts, links) == set(r_components(without_index(space), pts, R))
    sets = list(members.values())
    assert _separated(space.index, sets, R) == separated_by_definition(tree, sets, R)


def test_components_of_a_large_tree_take_linear_time():
    """Vertices at depths divisible by 3 are within 2 only of their siblings."""
    tree = random_tree(20_000, random.Random(5))
    S = [v for v in tree.vertices if tree.depth[v] % 3 == 0]
    start = time.perf_counter()
    pieces = r_components(tree.as_space(), S, 2)
    assert time.perf_counter() - start < 2
    siblings = {}
    for v in S:
        siblings.setdefault(tree.parent[v], set()).add(v)
    assert set(pieces) == set(map(frozenset, siblings.values()))


@st.composite
def tree_and_witness(draw):
    tree = draw(trees())
    slots = draw(st.integers(0, 3))
    fams = [draw(families(tree)) for _ in range(slots)]
    prefix = sorted(draw(st.sampled_from(RADII)) for _ in range(max(1, slots)))
    bounds = [draw(st.sampled_from([-1, 0, 1, 2, 4, Fraction(5, 2), 7])) for _ in range(slots)]
    scales = ScaleSequence(prefix)
    entries = [WitnessEntry(scales.at(i), Family.of(f), b)
               for i, (f, b) in enumerate(zip(fams, bounds), start=1)]
    return tree, scales, CoverWitness(entries)


@given(tree_and_witness())
@settings(max_examples=300, deadline=None)
def test_verifier_report_matches_generic_path(case):
    tree, scales, witness = case
    got = verify_apc_witness(tree.as_space(), scales, witness)
    want = verify_apc_witness(without_index(tree.as_space()), scales, witness)
    assert (got.ok, got.per_entry, got.violations, got.stats) == (
        want.ok, want.per_entry, want.violations, want.stats)


@given(trees())
@settings(max_examples=150, deadline=None)
def test_distance_matches_meet_walk(tree):
    depth = tree.depth
    for u in tree.vertices:
        for v in tree.vertices:
            assert tree.distance(u, v) == depth[u] + depth[v] - 2 * depth[tree.meet(u, v)]


def test_tables_are_built_on_the_first_distance_query():
    tree = random_tree(50, random.Random(1))
    tree.as_space()
    assert tree._tables is None
    tree.distance(3, 7)
    assert tree._tables is not None


# cone trees mix a string root with word tuples
VERTEX_IDS = st.one_of(st.integers(-3, 40), st.text("ab<>", max_size=3),
                       st.tuples(st.integers(0, 3), st.sampled_from("ab")))


@st.composite
def parent_maps(draw):
    """A random tree on up to 30 vertex ids of mixed types, in a random dict
    order, with up to two planted faults: a vertex re-parented to any vertex,
    an ancestor of a vertex re-parented to it (a cycle, or a self-loop when
    the two are one), a second root, a parent that is not a vertex, or None
    as a vertex."""
    vs = draw(st.lists(VERTEX_IDS, min_size=1, max_size=30, unique=True))
    parent = {vs[0]: None}
    for i, v in enumerate(vs[1:], start=1):
        parent[v] = vs[draw(st.integers(0, i - 1))]
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.sampled_from(vs))
        fault = draw(st.sampled_from(["reparent", "cycle", "root", "ghost", "none"]))
        if fault == "reparent":
            parent[v] = draw(st.sampled_from(vs))
        elif fault == "cycle":
            chain = [v]
            while parent.get(chain[-1]) in parent and parent[chain[-1]] not in chain:
                chain.append(parent[chain[-1]])
            parent[draw(st.sampled_from(chain))] = v
        elif fault == "root":
            parent[v] = None
        elif fault == "ghost":
            parent[v] = "ghost"  # outside the id alphabet
        else:
            parent[None] = v
    return dict(draw(st.permutations(list(parent.items()))))


@given(parent_maps())
@settings(max_examples=400, deadline=None)
def test_the_walk_from_the_root_matches_the_chain_walk(parent):
    try:
        want = tree_depths(parent)
    except InputError as e:
        with pytest.raises(InputError) as got:
            RootedTree(parent)
        assert str(got.value) == str(e)
        return
    tree = RootedTree(parent)
    assert tree.depth == want
    children = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    assert all(Counter(tree.adj[v]) == Counter(children[v] + ([] if p is None else [p]))
               for v, p in parent.items())

    # every vertex once, after its parent, each subtree one run of positions
    pos = {v: i for i, v in enumerate(tree.preorder)}
    assert len(pos) == len(tree.preorder) == len(parent)
    size = dict.fromkeys(parent, 0)
    for v in parent:
        u = v
        while u is not None:
            size[u] += 1
            u = parent[u]
    for v in parent:
        u = v
        while u is not None:
            assert pos[u] <= pos[v] < pos[u] + size[u]
            u = parent[u]

    for u in parent:
        for v in parent:
            assert tree.distance(u, v) == want[u] + want[v] - 2 * want[tree.meet(u, v)]
