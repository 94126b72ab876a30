"""Path-enumeration references for the finite-alphabet engine.

``bruteforce_posterior`` is the one-path-at-a-time loop that the array
enumeration of ``jcas_lab.bayes.bruteforce_posterior`` replaced; tests
require the two to agree bit for bit.
``sensing_cost`` enumerates every (state path, measurement path) pair and
runs the recursive estimator along each measurement path, and
``open_loop_tradeoff`` visits the grid combinations one at a time in
``itertools.product`` order, keeping the first strict maximum.
``evidence`` sums P(z^n | x^n) one state path at a time and
``posterior_along`` runs the per-trace predict/update filter that the
CLI's posterior table used before the all-input forward pass.
``forward_cost`` is the one-sequence-at-a-time reduction of the forward
pass that ``jcas_lab.bayes.sequence_costs`` replaced; ``sensing_cost``
must equal it bit for bit.  ``optimal_estimate`` is the risk-minimizing
estimate of one belief, which the path enumeration runs along each
measurement path.
``conditional_information`` scores one input law at a time, the per-point
evaluation that ``jcas_lab.bayes.information_table`` replaced.  Tests
compare the forward recursion and the array search with them: costs to a
relative tolerance, because the summation order differs, and estimates,
information tables and search results by exact equality.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from jcas_lab.bayes import (
    MAX_STATES_EXACT,
    MAX_STEPS_EXACT,
    Belief,
    TradeoffResult,
    belief_predict,
    belief_update,
    forward_messages,
    simplex_grid,
    state_marginals,
)
from jcas_lab.errors import EnumerationLimitError, EvidenceError, ParameterError

#: most (state path, measurement path) pairs ``sensing_cost`` enumerates
MAX_COST_PATHS = 200_000


def bruteforce_posterior(x_seq, z_seq, model) -> Belief:
    """Exact posterior over the current state, one state path at a time.

    Each path's weight is the left-to-right product of its factors and is
    added to its final state's total in itertools.product order.
    """
    x_seq = list(x_seq)
    z_seq = list(z_seq)
    if len(x_seq) != len(z_seq):
        raise ParameterError("x and z sequences must have equal length")
    steps = len(x_seq)
    if model.ns > MAX_STATES_EXACT or steps > MAX_STEPS_EXACT:
        raise EnumerationLimitError(
            f"exact enumeration limited to |S| <= {MAX_STATES_EXACT}, "
            f"steps <= {MAX_STEPS_EXACT}"
        )
    if steps == 0:
        return Belief(model.initial.copy(), 0)
    pz = model.z_likelihood()
    post = np.zeros(model.ns)
    for path in itertools.product(range(model.ns), repeat=steps + 1):
        w = model.initial[path[0]]
        for j in range(1, steps + 1):
            if w == 0.0:
                break
            w *= model.markov[path[j - 1], path[j]] * pz[x_seq[j - 1], path[j], z_seq[j - 1]]
        post[path[-1]] += w
    total = float(post.sum())
    if total <= 0.0:
        raise EvidenceError("measurement sequence has zero probability")
    return Belief(post / total, steps)


def evidence(x_seq, z_seq, model) -> float:
    """P(z^n | x^n), the sum of every state path's weight, one path at a time."""
    pz = model.z_likelihood()
    total = 0.0
    for path in itertools.product(range(model.ns), repeat=len(x_seq) + 1):
        w = model.initial[path[0]]
        for j in range(1, len(x_seq) + 1):
            w *= model.markov[path[j - 1], path[j]] * pz[x_seq[j - 1], path[j], z_seq[j - 1]]
        total += w
    return float(total)


def posterior_along(x_seq, z_seq, model):
    """The per-trace predict/update filter's posterior, or None when a
    measurement has zero probability along the way."""
    belief = Belief(model.initial.copy(), 0)
    for x, z in zip(x_seq, z_seq):
        try:
            belief = belief_update(belief_predict(belief, model), x, z, model)
        except EvidenceError:
            return None
    return belief.probabilities


def optimal_estimate(belief: Belief, model):
    """Risk-minimizing estimate under the belief; ties break to the smallest index.

    Returns (estimate_index, expected_per_letter_distortion).
    """
    costs = belief.probabilities @ model.distortion
    idx = int(np.argmin(costs))
    return idx, float(costs[idx])


def estimates_along(x_seq, z_path, model):
    """Recursive-estimator outputs [shat_0..shat_n] along one measurement path.

    Returns None when the path has zero marginal evidence (and therefore
    zero joint probability with every state path).
    """
    belief = Belief(model.initial.copy(), 0)
    ests = [optimal_estimate(belief, model)[0]]
    for x, z in zip(x_seq, z_path):
        belief = belief_predict(belief, model)
        try:
            belief = belief_update(belief, x, z, model)
        except EvidenceError:
            return None
        ests.append(optimal_estimate(belief, model)[0])
    return ests


def sensing_cost(x_seq, model) -> float:
    """Expected block distortion by enumerating every (state path,
    measurement path) pair, weighted by P(s^n) P(z^n | x^n, s^n)."""
    x_seq = [int(x) for x in x_seq]
    n = len(x_seq)
    for x in x_seq:
        if not (0 <= x < model.nx):
            raise ParameterError(f"input symbol {x} outside alphabet of size {model.nx}")
    n_paths = model.ns ** (n + 1) * model.nz ** n
    if n_paths > MAX_COST_PATHS:
        raise EnumerationLimitError(
            f"sensing cost enumeration would visit {n_paths} paths "
            f"(limit {MAX_COST_PATHS})"
        )
    if n == 0:
        belief = Belief(model.initial.copy(), 0)
        sh0, _ = optimal_estimate(belief, model)
        return float(model.initial @ model.distortion[:, sh0])

    pz = model.z_likelihood()
    z_paths = list(itertools.product(range(model.nz), repeat=n))
    est_by_zpath = {zp: estimates_along(x_seq, zp, model) for zp in z_paths}

    total = 0.0
    for s_path in itertools.product(range(model.ns), repeat=n + 1):
        ps = model.initial[s_path[0]]
        for j in range(1, n + 1):
            ps *= model.markov[s_path[j - 1], s_path[j]]
        if ps == 0.0:
            continue
        for zp in z_paths:
            w = ps
            for j in range(1, n + 1):
                w *= pz[x_seq[j - 1], s_path[j], zp[j - 1]]
                if w == 0.0:
                    break
            if w == 0.0:
                continue
            ests = est_by_zpath[zp]
            if ests is None:
                raise EvidenceError("positive-weight path with zero marginal evidence")
            block = 0.0
            for j in range(n + 1):
                block += model.distortion[s_path[j], ests[j]]
            total += w * block / (n + 1)
    return float(total)


def forward_cost(x_seq, model) -> float:
    """Expected block distortion from one forward pass along the one input
    sequence, its n + 1 per-letter terms added as Python floats."""
    x_seq = [int(x) for x in x_seq]
    n = len(x_seq)
    for x in x_seq:
        if not (0 <= x < model.nx):
            raise ParameterError(f"input symbol {x} outside alphabet of size {model.nx}")
    total = 0.0
    for belief, weight in forward_messages([[x] for x in x_seq], model):
        total += float(weight @ np.min(belief @ model.distortion, axis=1))
    return total / (n + 1)


def mutual_information(px: np.ndarray, py_given_x: np.ndarray) -> float:
    """I(X;Y) in nats for input px and transition rows py_given_x."""
    joint = px[:, None] * py_given_x
    py = joint.sum(axis=0)
    mask = joint > 0.0
    py_full = np.broadcast_to(py, joint.shape)
    return float(np.sum(joint[mask] * np.log(py_given_x[mask] / py_full[mask])))


def conditional_information(px: np.ndarray, py: np.ndarray, marginal: np.ndarray) -> float:
    """I(X; Y | S) in nats for input px, py[x, s, y] = P(y | x, s) and state law marginal."""
    mi = 0.0
    for s, ps in enumerate(marginal):
        if ps > 0.0:
            mi += ps * mutual_information(px, py[:, s, :])
    return mi


def capacity_objective(input_dists, model, n: int) -> float:
    """(1/n) sum_i I(X_i; Y_i | S_i), one step at a time."""
    py = model.y_likelihood()
    marginals = state_marginals(model, n)
    total = 0.0
    for i in range(n):
        total += conditional_information(np.asarray(input_dists[i], dtype=float), py, marginals[i])
    return total / n


def open_loop_tradeoff(model, distortion_budget: float, n: int, grid_resolution: float,
                       cost=sensing_cost) -> TradeoffResult:
    """The gridded search, one combination at a time, with costs from ``cost``."""
    grid = simplex_grid(model.nx, grid_resolution)
    n_points = grid.shape[0]
    x_seqs = list(itertools.product(range(model.nx), repeat=n))
    costs = np.array([cost(xs, model) for xs in x_seqs])
    cost_tensor = costs.reshape((model.nx,) * n)

    py = model.y_likelihood()
    marginals = state_marginals(model, n)
    mi_table = np.empty((n_points, n))
    for g in range(n_points):
        for i in range(n):
            mi_table[g, i] = conditional_information(grid[g], py, marginals[i])

    best_rate = -math.inf
    best_combo = None
    n_feasible = 0
    for combo in itertools.product(range(n_points), repeat=n):
        expected = cost_tensor
        for idx in combo:
            expected = np.tensordot(grid[idx], expected, axes=(0, 0))
        if float(expected) > distortion_budget + 1e-12:
            continue
        n_feasible += 1
        rate = float(np.mean([mi_table[idx, i] for i, idx in enumerate(combo)]))
        if rate > best_rate:
            best_rate = rate
            best_combo = combo

    per_seq = {xs: float(c) for xs, c in zip(x_seqs, costs)}
    if best_combo is None:
        return TradeoffResult(
            False, None, None, distortion_budget, n, grid_resolution, 0, per_seq
        )
    return TradeoffResult(
        True,
        best_rate,
        np.array([grid[idx] for idx in best_combo]),
        distortion_budget,
        n,
        grid_resolution,
        n_feasible,
        per_seq,
    )
