"""verify_apc_witness against reference.check_witness, the definition run on
an explicit distance table.

Spaces are random rational matrix spaces and l2 products of two of them,
whose distances are Roots.  Every distance lies in [1, 2] on a matrix space,
so every table is a metric.  Witnesses carry planted faults at the exact
boundaries of the definition: an uncovered point, a scale equal to a cross
distance, and a mesh bound equal to a member's diameter or just below it.

The exact solver's bitmask search is also checked against
reference.matrix_search, the same search on boolean R and B matrices, on
matrix spaces, shortest-path metrics of weighted graphs and l2 products.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apckit.covers import ScaleSequence, SolverTable, verify_apc_witness, witness_from_families
from apckit.exact import Root, root_of
from apckit.metric import Family, InputError, matrix_space, product_space
from reference import check_witness, matrix_search

DISTANCES = [Fraction(n, 4) for n in range(4, 9)]
EPS = Fraction(1, 1000)


def square(x):
    return x.sq if isinstance(x, Root) else x * x


def table(draw, max_points):
    n = draw(st.integers(1, max_points))
    dist = {(i, i): 0 for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        dist[i, j] = dist[j, i] = draw(st.sampled_from(DISTANCES))
    return n, dist


def matrix(n, dist):
    return matrix_space(range(n), [[dist[i, j] for j in range(n)] for i in range(n)])


@st.composite
def spaces(draw):
    """(distance table, library space): a matrix space of up to 9 points, or
    the l2 product of two of up to 3 points each, its table built from the
    factors' tables."""
    if draw(st.booleans()):
        n, dist = table(draw, 9)
        return dist, matrix(n, dist)
    (n, a), (m, b) = table(draw, 3), table(draw, 3)
    dist = {((x, y), (u, v)): root_of(square(a[x, u]) + square(b[y, v]))
            for x, u in itertools.product(range(n), repeat=2)
            for y, v in itertools.product(range(m), repeat=2)}
    return dist, product_space(matrix(n, a), matrix(m, b))


def below(d):
    """A value just below d, a Root when d is one."""
    return root_of(d.sq - EPS) if isinstance(d, Root) else d - EPS


def near_rationals(d):
    """Rational scales at or next to d: d itself when rational, else the
    multiples of EPS on either side of it."""
    if not isinstance(d, Root):
        return [d, d - EPS]
    lo = math.isqrt(math.floor(d.sq / EPS ** 2)) * EPS
    return [lo, lo + EPS]


@st.composite
def cases(draw):
    """A witness of up to 3 slots with up to 3 sets each, the scale of each
    slot near one of its cross distances and its bound at, below or above its
    largest member's diameter; one point may be dropped from every set."""
    dist, space = draw(spaces())
    pts = sorted(space.points)
    k = draw(st.integers(1, 3))
    label = {p: (draw(st.integers(1, k)), draw(st.integers(0, 2))) for p in pts}
    dropped = draw(st.one_of(st.none(), st.sampled_from(pts)))
    slots = []
    for i in range(1, k + 1):
        sets = [{p for p in pts if label[p] == (i, j) and p != dropped} for j in range(3)]
        sets = [S for S in sets if S]
        cross = [dist[p, q] for S, T in itertools.combinations(sets, 2) for p in S for q in T]
        R = draw(st.sampled_from(
            [0, Fraction(1, 2), 3] + [r for d in cross for r in near_rationals(d)]))
        diam = max((dist[p, q] for S in sets for p in S for q in S), key=square, default=0)
        bound = draw(st.sampled_from([diam, below(diam), 3]))
        slots.append((R, bound, sets))
    slots.sort(key=lambda slot: slot[0])
    require = draw(st.one_of(st.none(), st.sets(st.sampled_from(pts))))
    return dist, space, slots, dropped, require


@given(cases())
@settings(max_examples=600, deadline=None)
def test_verifier_matches_the_definition(case):
    dist, space, slots, dropped, require = case
    scales = [R for R, _, _ in slots]
    found = check_witness(dist, scales, [(bound, sets) for _, bound, sets in slots], require)

    # the planted faults are faults under the reference
    if dropped is not None and (require is None or dropped in require):
        assert ("coverage", None, dropped) in found
    for i, (R, bound, sets) in enumerate(slots, start=1):
        for S, T in itertools.permutations(sets, 2):
            for p, q in itertools.product(S, T):
                if dist[p, q] == R:
                    assert ("disjointness", i, (p, q)) in found
        for S in sets:
            diam = max((dist[p, q] for p in S for q in S), key=square)
            assert (("mesh", i, frozenset(S)) in found) == (square(diam) > square(bound)
                                                           or bound < 0)

    report = verify_apc_witness(
        space, ScaleSequence(scales),
        witness_from_families([Family.of(sets) for _, _, sets in slots], ScaleSequence(scales),
                              [bound for _, bound, _ in slots]),
        require_cover_of=require)
    assert report.ok == (not found)
    assert {(v.condition, v.entry) for v in report.violations} == \
        {(kind, slot) for kind, slot, _ in found}
    for v in report.violations:
        if v.condition == "coverage":
            assert all(("coverage", None, p) in found for p in v.points)
        elif v.condition == "disjointness":
            assert ("disjointness", v.entry, v.points) in found
        else:
            assert any(kind == "mesh" and slot == v.entry and v.points[0] in S
                       for kind, slot, S in found)
    for i in range(1, len(slots) + 1):
        assert sum(v.condition == "mesh" and v.entry == i for v in report.violations) == \
            sum(kind == "mesh" and slot == i for kind, slot, _ in found)


def test_points_outside_the_space_are_refused():
    dist = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1}
    space = matrix_space([0, 1], [[0, 1], [1, 0]])
    scales = ScaleSequence([1])
    with pytest.raises(LookupError):
        check_witness(dist, [1], [(0, [{2}])])
    with pytest.raises(InputError):
        verify_apc_witness(space, scales, witness_from_families([Family.of([{2}])], scales, [0]))
    with pytest.raises(LookupError):
        check_witness(dist, [1], [(0, [{0}, {1}])], require_cover_of={2})
    with pytest.raises(InputError):
        verify_apc_witness(space, scales,
                           witness_from_families([Family.of([{0}, {1}])], scales, [0]),
                           require_cover_of={2})


GRAPH_WEIGHTS = [1, Fraction(3, 2), 2]


def graph_space(n, edges):
    """The shortest-path metric on points 0..n-1 of a connected graph whose
    edges map (i, j) to a weight."""
    d = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for (i, j), w in edges.items():
        d[i][j] = d[j][i] = w
    for m, i, j in itertools.product(range(n), repeat=3):
        d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    return matrix_space(range(n), d)


# Points 1 and 3 have three unit neighbours each and are placed first, in one
# family as two R-components at R = 1; point 2, next, touches both, so its join
# must reject the merge for the pair 1, 3 at distance 2 > B = 1.
BRIDGE = graph_space(7, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 5): 1, (3, 6): 1})


@st.composite
def solver_cases(draw):
    """(space, R, B, k): a matrix space of up to 10 points, the shortest-path
    metric of a connected graph of up to 10 points with edge weights 1, 3/2
    and 2, or the l2 product of two matrix spaces of up to 3 points each."""
    kind = draw(st.sampled_from(["matrix", "graph", "product"]))
    if kind == "matrix":
        space = matrix(*table(draw, 10))
    elif kind == "product":
        space = product_space(matrix(*table(draw, 3)), matrix(*table(draw, 3)))
    else:
        n = draw(st.integers(1, 10))
        pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]  # a spanning tree
        pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=12))
        space = graph_space(n, {(i, j): draw(st.sampled_from(GRAPH_WEIGHTS))
                                for i, j in pairs if i != j})
    R = draw(st.sampled_from([-1, 0, 1, Fraction(3, 2), 2, 5]))
    B = draw(st.sampled_from([0, 1, 2, Fraction(7, 2)]))
    return space, R, B, draw(st.integers(0, len(space)))


@given(solver_cases())
@example((BRIDGE, 1, 1, 2))
@settings(max_examples=400, deadline=None)
def test_solver_search_matches_the_matrix_search(case):
    space, R, B, k = case
    solver = SolverTable(space, space.points)
    assert solver.search(R, B, k) == matrix_search(solver.pts, solver.dist, R, B, k)
