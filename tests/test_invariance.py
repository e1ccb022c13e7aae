"""Capacity invariances: rewriting a channel must not move its certified interval.

Unitary conjugation, a letter permutation and a duplicated letter leave the
capacity unchanged, so the certificates before and after must overlap; an
added letter never lowers it, so the new upper bound must reach the old lower
bound. Each property runs with and without a cost budget. Certificates hold
at any stop, so an iteration cap bounds the run time without weakening them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqcap import CqChannel, constrained_capacity, random_channel, unconstrained_capacity
from helpers import random_unitary

EPSILON = 1e-6
MAX_ITER = 2_000
ROUNDING = 1e-9  # rewritten states differ from the originals in the last bits

PROPERTY = settings(derandomize=True, deadline=None, max_examples=5, database=None)


@st.composite
def channels(draw):
    """A small channel's states, integer costs (ties happen) and a budget fraction."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["pure", "mixed", "diagonal"]))
    ch = random_channel(n, m, draw(st.integers(0, 2**31 - 1)), kind)
    costs = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    fraction = draw(st.floats(0.0, 1.0))
    return [s.matrix for s in ch.states], costs, fraction


def certificate(states, costs, budget):
    ch = CqChannel(states, costs)
    if budget is None:
        return unconstrained_capacity(ch, EPSILON, MAX_ITER).gap_certificate_bits
    return constrained_capacity(ch, budget, EPSILON, MAX_ITER).gap_certificate_bits


def budget_of(costs, fraction, budgeted):
    if not budgeted:
        return None
    low, high = float(costs.min()), float(costs.max())
    return low + fraction * (high - low)


def assert_overlap(a, b):
    assert a[0] <= b[1] + ROUNDING and b[0] <= a[1] + ROUNDING, (a, b)


@pytest.mark.parametrize("budgeted", [False, True])
@PROPERTY
@given(channels(), st.integers(0, 2**31 - 1))
def test_unitary_conjugation(budgeted, drawn, seed):
    states, costs, fraction = drawn
    u = random_unitary(np.random.default_rng(seed), states[0].shape[0])
    budget = budget_of(costs, fraction, budgeted)
    rotated = [u @ rho @ u.conj().T for rho in states]
    assert_overlap(certificate(states, costs, budget), certificate(rotated, costs, budget))


@pytest.mark.parametrize("budgeted", [False, True])
@PROPERTY
@given(channels(), st.integers(0, 2**31 - 1))
def test_letter_permutation(budgeted, drawn, seed):
    states, costs, fraction = drawn
    order = np.random.default_rng(seed).permutation(len(states))
    budget = budget_of(costs, fraction, budgeted)
    assert_overlap(certificate(states, costs, budget),
                   certificate([states[x] for x in order], costs[order], budget))


@pytest.mark.parametrize("budgeted", [False, True])
@PROPERTY
@given(channels(), st.integers(0, 3))
def test_duplicated_letter(budgeted, drawn, letter):
    states, costs, fraction = drawn
    letter %= len(states)
    budget = budget_of(costs, fraction, budgeted)
    assert_overlap(certificate(states, costs, budget),
                   certificate(states + [states[letter]], np.append(costs, costs[letter]),
                               budget))


@pytest.mark.parametrize("budgeted", [False, True])
@PROPERTY
@given(channels(), st.integers(0, 2**31 - 1), st.integers(0, 3))
def test_added_letter_never_lowers_capacity(budgeted, drawn, seed, cost):
    states, costs, fraction = drawn
    extra = random_channel(1, states[0].shape[0], seed, "mixed").states[0].matrix
    budget = budget_of(costs, fraction, budgeted)
    before = certificate(states, costs, budget)
    after = certificate(states + [extra], np.append(costs, float(cost)), budget)
    assert after[1] >= before[0] - ROUNDING, (before, after)
