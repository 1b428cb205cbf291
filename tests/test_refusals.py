"""Budgets, mesh bounds and demo sizes that would check nothing are refused
with InputError instead of answering as if they had been checked."""

from fractions import Fraction

import pytest

from apckit.cli import hypercube_demo_rows
from apckit.combinators import (UniformlyExpansiveMap, check_uniformly_expansive,
                                fibering_cover, identity_rho, whole_fiber_scheme)
from apckit.covers import (NegativeCertificate, ScaleSequence, greedy_families_at_scale,
                           interval_oracle, min_families_at_scale)
from apckit.metric import InputError, interval_window, matrix_space, validate_metric


def doubling():
    """p -> 2p from [0, 9] to [0, 18] with the identity modulus: not expansive."""
    return UniformlyExpansiveMap(interval_window(0, 9), interval_window(0, 18),
                                 lambda p: 2 * p, identity_rho)


def test_expansion_check_refuses_a_negative_budget():
    assert check_uniformly_expansive(doubling(), pair_budget=1)[0] is False
    with pytest.raises(InputError):
        check_uniformly_expansive(doubling(), pair_budget=-1)


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
