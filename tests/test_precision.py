"""A 50-digit oracle for two-letter channels: each certified interval must contain it.

With two letters, the mutual information I(p) of the input (p, 1 - p) is
concave on [0, 1], so a golden-section search at 50 digits finds its
maximum. Two pure states have the closed form h((1 + |<psi|phi>|) / 2). A
third letter whose state is the even mixture of the first two has
divergence below the capacity at the two-letter optimum (D is strictly
convex in its first argument), so its optimal mass is zero and the
two-letter maximum is the three-letter capacity. The oracle runs on mpmath,
on the inputs as given, off the solver's code path.
"""

import math

import mpmath
import numpy as np
import pytest

from cqcap import CqChannel, unconstrained_capacity
from helpers import random_unitary

DIGITS = 50
EPSILON = 1e-12
# the certificate carries no term for floating-point rounding yet, so each
# bound may land a few ulps on its wrong side: eight ulps of 1 bit
ROUNDING_BITS = 8 * 2.0 ** -52
GOLDEN_STEPS = 250  # the bracket shrinks to ~1e-52


def entropy_bits(dist) -> mpmath.mpf:
    return -mpmath.fsum(q * mpmath.log(q, 2) for q in dist if q > 0)


def classical_capacity_bits(rows) -> mpmath.mpf:
    """max_p I(p) for the two rows of a classical channel, each normalized exactly."""
    with mpmath.workdps(DIGITS + 10):
        a, b = ([mpmath.mpf(v) / mpmath.fsum(map(mpmath.mpf, row)) for v in row]
                for row in rows)
        ha, hb = entropy_bits(a), entropy_bits(b)

        def info(p):
            return entropy_bits([p * x + (1 - p) * y for x, y in zip(a, b)]) \
                - p * ha - (1 - p) * hb

        ratio = (mpmath.sqrt(5) - 1) / 2
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(GOLDEN_STEPS):
            left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            if info(left) < info(right):
                lo = left
            else:
                hi = right
        return +info((lo + hi) / 2)


def pure_pair_capacity_bits(psi, phi) -> mpmath.mpf:
    """h((1 + |<psi|phi>|) / 2) for the two kets, each normalized exactly."""
    with mpmath.workdps(DIGITS + 10):
        u, v = ([mpmath.mpc(complex(z)) for z in ket] for ket in (psi, phi))
        norm = mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in u)
                           * mpmath.fsum(abs(z) ** 2 for z in v))
        overlap = abs(mpmath.fsum(mpmath.conj(x) * y for x, y in zip(u, v))) / norm
        return +entropy_bits([(1 + overlap) / 2, (1 - overlap) / 2])


CLASSICAL_ROWS = [
    pytest.param([[0.7, 0.3, 0.0], [0.1, 0.9, 0.0]], id="zero-column-last"),
    pytest.param([[0.6, 0.0, 0.4], [0.05, 0.0, 0.95]], id="zero-column-middle"),
    pytest.param([[1 - 2e-12, 2e-12], [0.5, 0.5]], id="entry-above-cutoff"),
    pytest.param([[1 - 1e-12, 1e-12, 0.0], [0.2, 0.3, 0.5]], id="entry-at-cutoff"),
    pytest.param(
        [[1 - 5e-13, 5e-13], [3e-12, 1 - 3e-12]], id="entry-below-cutoff",
        marks=pytest.mark.xfail(
            strict=True,
            reason="validation drops the 5e-13 eigenvalue from the letter's entropy "
                   "but keeps it in the matrix: both bounds sit ~1.1e-11 bits above "
                   "the capacity of the states as given")),
    pytest.param([[0.5, 0.5], [0.5 + 1e-3, 0.5 - 1e-3]], id="almost-useless-1e-3"),
    pytest.param([[0.3, 0.7], [0.3 + 1e-6, 0.7 - 1e-6]], id="almost-useless-1e-6"),
    pytest.param([[0.3, 0.2, 0.5], [0.3 + 1e-8, 0.2, 0.5 - 1e-8]], id="almost-useless-1e-8"),
]

# (angle between the kets, relative phase): overlap cos(angle)
PURE_PAIRS = [(math.pi / 4, 0.0), (1.0, 0.9), (0.3, 1.7), (1e-3, 0.3),
              (1e-6, 0.0), (math.pi / 2 - 1e-3, 2.0)]


def assert_contains(ch: CqChannel, truth: mpmath.mpf) -> None:
    lower, upper = unconstrained_capacity(ch, epsilon=EPSILON).gap_certificate_bits
    with mpmath.workdps(DIGITS + 10):
        assert mpmath.mpf(lower) - ROUNDING_BITS <= truth <= mpmath.mpf(upper) + ROUNDING_BITS


@pytest.mark.parametrize("rows", CLASSICAL_ROWS)
def test_classical_interval_contains_the_50_digit_capacity(rows):
    ch = CqChannel([np.diag(row).astype(complex) for row in rows])
    # every one of these steps on its diagonal rows, the zero columns compressed away
    assert ch._diagonal_rows is not None
    assert_contains(ch, classical_capacity_bits(rows))


@pytest.mark.parametrize("rows", [
    pytest.param([[0.7, 0.3, 0.0], [0.1, 0.9, 0.0]], id="zero-column"),
    pytest.param([[0.6, 0.1, 0.3], [0.05, 0.15, 0.8]], id="full-support"),
])
@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
def test_zero_mass_mixture_letter_keeps_the_two_letter_capacity(rows, rotated):
    states = [np.diag(row).astype(complex) for row in rows]
    states.append((states[0] + states[1]) / 2)
    if rotated:
        # one fixed unitary takes every state off the diagonal, so the
        # channel steps through the matrix branch
        u = random_unitary(np.random.default_rng(3), len(rows[0]))
        states = [u @ rho @ u.conj().T for rho in states]
    ch = CqChannel(states)
    assert (ch._diagonal_rows is None) == rotated
    assert_contains(ch, classical_capacity_bits(rows))


@pytest.mark.parametrize("angle, phase", PURE_PAIRS)
def test_pure_pair_interval_contains_the_closed_form(angle, phase):
    psi = np.array([1.0, 0.0], dtype=complex)
    phi = np.array([math.cos(angle), math.sin(angle) * np.exp(1j * phase)])
    ch = CqChannel([np.outer(psi, psi.conj()), np.outer(phi, phi.conj())])
    assert_contains(ch, pure_pair_capacity_bits(psi, phi))


def test_golden_section_matches_the_binary_symmetric_channel():
    # 1 - h(0.1), the binary symmetric channel's capacity, to 45 digits
    with mpmath.workdps(DIGITS + 10):
        exact = 1 - entropy_bits([mpmath.mpf(1) / 10, mpmath.mpf(9) / 10])
        found = classical_capacity_bits([["0.9", "0.1"], ["0.1", "0.9"]])
        assert abs(found - exact) < mpmath.mpf(10) ** -45
