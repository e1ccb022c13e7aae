"""The benchmark's yardstick of work: what a plain Blahut-Arimoto solver needs per case.

The work is the plain solver's iterations plus SOLVE_OVERHEAD_STEPS per inner
solve. The gated solve time divides each solve's time by it, so a seed that
draws harder channels does not read as a slower solver, and a solver that
needs fewer iterations than the plain method reads as faster. The code here
is numpy only and never calls cqcap: it sees the same generated inputs
(transition matrices, kets, channel files) and runs the textbook update
p_x <- p_x exp(D_x - lambda c_x) / Z from the uniform start until the
certified gap max_x (D_x - lambda c_x) - log Z closes below eps. Budgeted
cases search the multiplier the way the seed commit's ``constrained_capacity``
does: doubling, then bisection on the expected cost, with warm starts.
"""

from __future__ import annotations

import json
import math

import numpy as np

LN2 = math.log(2.0)
# a solve also evaluates the mixture at its start and at the distribution it
# returns; without this, solves of a few steps (7 on a typical 4-letter
# fock-coherent case) read up to 50% dearer per step, and the gated p50 spread
# twice as much between seeds
SOLVE_OVERHEAD_STEPS = 2
WARM_START_MIX = 1e-6
LAMBDA_TOL_REL = 1e-12
LAMBDA_MAX = 2.0**64


def classical_divergences(transition):
    """D(W_x || pW) in nats for a row-stochastic transition matrix."""
    w = np.asarray(transition, dtype=float)
    positive = w > 0
    neg_entropy = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0).sum(axis=1)

    def divergences(p):
        out = p @ w
        return neg_entropy - w @ np.log(np.where(out > 0, out, 1.0))

    return divergences


def pure_divergences(kets):
    """D(psi_x || sigma_p) in nats from the n x n Gram matrix of pure states.

    With sqrt(P) G sqrt(P) = V diag(lam) V^H, <psi_x| log sigma_p |psi_x> =
    sum_k |V_xk|^2 lam_k log lam_k / p_x for p_x > 0. A vanishing eigenvalue
    contributes lam log lam = 0, so a rank-deficient mixture needs no cutoff.
    """
    kets = np.asarray(kets)
    gram = kets.conj() @ kets.T

    def divergences(p):
        root = np.sqrt(p)
        lam, vec = np.linalg.eigh(root[:, None] * gram * root[None, :])
        lam = np.clip(lam, 0.0, None)
        lam_log = lam * np.log(np.where(lam > 0, lam, 1.0))
        weighted = (np.abs(vec) ** 2) @ lam_log
        positive = p > 0
        return np.where(positive, -weighted / np.where(positive, p, 1.0), 0.0)

    return divergences


def mixed_divergences(states):
    """D(rho_x || sigma_p) in nats for a stack of density matrices."""
    states = np.asarray(states, dtype=complex)
    lam = np.clip(np.linalg.eigvalsh(states), 0.0, None)
    neg_entropy = (lam * np.log(np.where(lam > 0, lam, 1.0))).sum(axis=1)

    def divergences(p):
        spectrum, vec = np.linalg.eigh(np.einsum("x,xij->ij", p, states))
        log_mix = (vec * np.log(np.maximum(spectrum, 1e-300))) @ vec.conj().T
        cross = np.einsum("xij,ji->x", states, log_mix).real
        return np.maximum(neg_entropy - cross, 0.0)

    return divergences


def channel_file_states(path):
    """Density matrices and costs from a channel file (``cqcap gen`` output schema)."""
    with open(path) as fh:
        doc = json.load(fh)
    raw = np.asarray(doc["states"], dtype=float)
    states = raw[..., 0] + 1j * raw[..., 1]
    costs = np.asarray(doc.get("costs", np.zeros(len(states))), dtype=float)
    return states, costs


def fixed_lambda(divergences, costs, multiplier, epsilon, start, max_iter):
    """Iterations until the certified gap is at most ``epsilon`` bits, and the last iterate."""
    penalty = multiplier * LN2 * np.asarray(costs, dtype=float)
    p = start
    for iterations in range(1, max_iter + 1):
        d = divergences(p) - penalty
        bound = float(d.max())
        with np.errstate(divide="ignore"):
            log_weights = np.log(p) + d
        top = float(log_weights.max())
        log_norm = top + math.log(float(np.exp(log_weights - top).sum()))
        p = np.exp(log_weights - log_norm)
        if (bound - log_norm) / LN2 <= epsilon:
            break
    return iterations, p


def unconstrained_work(divergences, n, epsilon, max_iter):
    iterations, _ = fixed_lambda(divergences, np.zeros(n), 0.0, epsilon,
                                 np.full(n, 1.0 / n), max_iter)
    return iterations + SOLVE_OVERHEAD_STEPS


def budgeted_work(divergences, costs, budget, epsilon, max_iter):
    """Work of a doubling-then-bisection multiplier search, summed over its inner solves."""
    costs = np.asarray(costs, dtype=float)
    n = costs.size
    cost_tol = max(1e-8, epsilon)
    inner_eps = epsilon / 2.0
    total, p = fixed_lambda(divergences, costs, 0.0, inner_eps, np.full(n, 1.0 / n), max_iter)
    total += SOLVE_OVERHEAD_STEPS
    if float(costs @ p) <= budget + cost_tol:
        return total

    def solve(multiplier, warm):
        start = (1.0 - WARM_START_MIX) * warm + WARM_START_MIX / n
        iterations, p = fixed_lambda(divergences, costs, multiplier, inner_eps, start, max_iter)
        return iterations + SOLVE_OVERHEAD_STEPS, p

    lam_lo, lam_hi = 0.0, 1.0
    while True:
        iterations, p = solve(lam_hi, p)
        total += iterations
        cost = float(costs @ p)
        if abs(cost - budget) <= cost_tol:
            return total
        if cost < budget:
            break
        lam_lo, lam_hi = lam_hi, 2.0 * lam_hi
        if lam_hi > LAMBDA_MAX:
            return total
    while lam_hi - lam_lo > LAMBDA_TOL_REL * max(1.0, lam_hi):
        mid = 0.5 * (lam_lo + lam_hi)
        iterations, p = solve(mid, p)
        total += iterations
        cost = float(costs @ p)
        if abs(cost - budget) <= cost_tol:
            return total
        if cost > budget:
            lam_lo = mid
        else:
            lam_hi = mid
    return total
