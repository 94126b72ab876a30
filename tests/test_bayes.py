import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcas_lab import bayes
from jcas_lab.bayes import (
    MAX_CHANNEL_ENTRIES,
    Belief,
    DiscreteJcasModel,
    _average_over_states,
    belief_predict,
    belief_update,
    bruteforce_open_loop_tradeoff,
    bruteforce_posterior,
    capacity_objective,
    forward_messages,
    information_table,
    load_discrete_model,
    sensing_cost,
    sequence_costs,
    simplex_grid,
    state_marginals,
)
from jcas_lab.errors import EnumerationLimitError, EvidenceError, ParameterError, SchemaError

import bayes_reference as ref
from conftest import random_discrete_model, toy_model_path


@pytest.fixture(scope="module")
def toy():
    return load_discrete_model(toy_model_path())


def uniform_channel_model(markov, initial, distortion):
    """2-state model whose measurement carries no information."""
    channel = np.full((2, 2, 2, 2), 0.25)
    return DiscreteJcasModel(
        channel=channel, markov=markov, initial=initial, distortion=distortion
    )


HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestBeliefOps:
    def test_predict_identity_kernel(self, toy):
        b = Belief(np.array([0.3, 0.7]))
        out = belief_predict(b, toy)
        np.testing.assert_allclose(out.probabilities, [0.3, 0.7], atol=1e-15)
        assert out.time_index == 1

    def test_predict_doubly_stochastic_preserves_uniform(self):
        model = uniform_channel_model(
            np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.5, 0.5]), HAMMING
        )
        out = belief_predict(Belief(np.array([0.5, 0.5])), model)
        np.testing.assert_allclose(out.probabilities, [0.5, 0.5], atol=1e-15)

    def test_predict_matrix_vector_oracle(self):
        model = uniform_channel_model(
            np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.5, 0.5]), HAMMING
        )
        out = belief_predict(Belief(np.array([1.0, 0.0])), model)
        np.testing.assert_allclose(out.probabilities, [0.9, 0.1], atol=1e-15)

    def test_update_uninformative_likelihood(self):
        model = uniform_channel_model(np.eye(2), np.array([0.5, 0.5]), HAMMING)
        b = Belief(np.array([0.3, 0.7]))
        out = belief_update(b, 0, 1, model)
        np.testing.assert_allclose(out.probabilities, [0.3, 0.7], atol=1e-15)

    def test_update_uniform_prior_takes_likelihood(self, toy):
        # toy x=0 reveals the state: likelihood rows are (1,0)/(0,1)
        out = belief_update(Belief(np.array([0.5, 0.5])), 0, 0, toy)
        np.testing.assert_allclose(out.probabilities, [1.0, 0.0], atol=1e-15)

    def test_update_bayes_rule_oracle(self):
        # likelihoods (0.5, 1.0) against prior (0.9, 0.1)
        channel = np.zeros((1, 2, 1, 2))
        channel[0, 0] = [[0.5, 0.5]]
        channel[0, 1] = [[0.0, 1.0]]
        model = DiscreteJcasModel(
            channel=channel, markov=np.eye(2), initial=np.array([0.9, 0.1]), distortion=HAMMING
        )
        out = belief_update(Belief(np.array([0.9, 0.1])), 0, 1, model)
        np.testing.assert_allclose(out.probabilities, [0.45 / 0.55, 0.10 / 0.55], atol=1e-12)

    def test_update_zero_evidence_raises(self, toy):
        with pytest.raises(EvidenceError):
            belief_update(Belief(np.array([1.0, 0.0])), 0, 1, toy)


class TestDerivedBeliefs:
    """Predicted and updated beliefs skip the public checks; they must still pass them."""

    @staticmethod
    def assert_valid(belief):
        p = belief.probabilities
        assert not p.flags.writeable
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        assert abs(float(p.sum()) - 1.0) <= 1e-9
        assert Belief(p, belief.time_index).probabilities.tobytes() == p.tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sparse=st.booleans(),
        steps=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_predict_and_update_return_valid_beliefs(self, seed, sparse, steps):
        rng = np.random.default_rng(seed)
        model = (sparse_discrete_model if sparse else random_discrete_model)(rng)
        belief = Belief(model.initial.copy(), 0)
        for _ in range(steps):
            belief = belief_predict(belief, model)
            self.assert_valid(belief)
            x = int(rng.integers(model.nx))
            # a measurement drawn from the predicted law has positive evidence
            pz = belief.probabilities @ model.z_likelihood()[x]
            z = int(rng.choice(model.nz, p=pz / pz.sum()))
            belief = belief_update(belief, x, z, model)
            self.assert_valid(belief)

    @pytest.mark.parametrize("bad", ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [0.5, -np.inf]))
    def test_public_constructor_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError):
            Belief(np.array(bad))


class TestOptimalEstimate:
    """The risk-minimizing estimate that the path enumeration runs."""

    def test_hamming_picks_mode(self, toy):
        idx, cost = ref.optimal_estimate(Belief(np.array([0.2, 0.8])), toy)
        assert idx == 1
        assert cost == pytest.approx(0.2, abs=1e-15)

    def test_point_mass(self, toy):
        idx, cost = ref.optimal_estimate(Belief(np.array([0.0, 1.0])), toy)
        assert idx == 1 and cost == 0.0

    def test_asymmetric_cost_oracle(self):
        model = uniform_channel_model(
            np.eye(2), np.array([0.5, 0.5]), np.array([[0.0, 1.0], [4.0, 0.0]])
        )
        idx, cost = ref.optimal_estimate(Belief(np.array([0.6, 0.4])), model)
        assert idx == 1  # 0.6 beats 1.6
        assert cost == pytest.approx(0.6, abs=1e-15)

    def test_tie_breaks_to_smallest_index(self):
        model = uniform_channel_model(np.eye(2), np.array([0.5, 0.5]), HAMMING)
        idx, _ = ref.optimal_estimate(Belief(np.array([0.5, 0.5])), model)
        assert idx == 0

    def test_never_beaten_by_fixed_alternative(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            model = random_discrete_model(rng)
            b = rng.random(model.ns) + 0.01
            belief = Belief(b / b.sum())
            idx, cost = ref.optimal_estimate(belief, model)
            for alt in range(model.n_estimates):
                assert cost <= belief.probabilities @ model.distortion[:, alt] + 1e-15


class TestBruteforcePosterior:
    def test_empty_sequences_return_prior(self, toy):
        out = bruteforce_posterior([], [], toy)
        np.testing.assert_allclose(out.probabilities, toy.initial, atol=1e-15)

    def test_deterministic_chain_point_mass(self, toy):
        # identity kernel + noiseless sensing input pins the state
        out = bruteforce_posterior([0, 0], [1, 1], toy)
        np.testing.assert_allclose(out.probabilities, [0.0, 1.0], atol=1e-15)

    def test_matches_recursive_composition(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(30):
            model = random_discrete_model(rng)
            steps = int(rng.integers(1, 6))
            xs = rng.integers(0, model.nx, steps).tolist()
            zs = rng.integers(0, model.nz, steps).tolist()
            brute = bruteforce_posterior(xs, zs, model)
            belief = Belief(model.initial.copy(), 0)
            for x, z in zip(xs, zs):
                belief = belief_update(belief_predict(belief, model), x, z, model)
            worst = max(worst, float(np.max(np.abs(belief.probabilities - brute.probabilities))))
        assert worst < 1e-12

    def test_capacity_error_on_oversized_instance(self):
        channel = np.full((2, 6, 2, 2), 0.25)
        markov = np.full((6, 6), 1.0 / 6.0)
        initial = np.full(6, 1.0 / 6.0)
        model = DiscreteJcasModel(
            channel=channel, markov=markov, initial=initial, distortion=np.zeros((6, 6))
        )
        with pytest.raises(EnumerationLimitError):
            bruteforce_posterior([0], [0], model)
        with pytest.raises(EnumerationLimitError):
            bruteforce_posterior([0] * 9, [0] * 9, random_discrete_model(np.random.default_rng(0)))


BAD_INPUTS = [
    (0.9, "input symbol 0.9 is not an integer"),
    (-1, "input symbol -1 outside alphabet of size 2"),
    (5, "input symbol 5 outside alphabet of size 2"),
]
BAD_MEASUREMENTS = [
    (1.0, "measurement symbol 1.0 is not an integer"),
    (-1, "measurement symbol -1 outside alphabet of size 2"),
    (5, "measurement symbol 5 outside alphabet of size 2"),
]
SYMBOL_CALLS = {
    "sensing_cost": lambda toy, x, z: sensing_cost([x], toy),
    "sequence_costs": lambda toy, x, z: sequence_costs([[0, x]], toy),
    "bruteforce_posterior": lambda toy, x, z: bruteforce_posterior([x], [z], toy),
    "belief_update": lambda toy, x, z: belief_update(Belief(toy.initial), x, z, toy),
}
SYMBOL_CASES = [
    (call, x, 0, message) for call in sorted(SYMBOL_CALLS) for x, message in BAD_INPUTS
] + [
    (call, 0, z, message)
    for call in ("bruteforce_posterior", "belief_update")
    for z, message in BAD_MEASUREMENTS
]


class TestSymbols:
    """A symbol that is not an index of its alphabet is refused and named,
    never truncated (0.9 read as 0), wrapped (-1 read as the last symbol)
    or left to a bare IndexError."""

    @pytest.mark.parametrize("call, x, z, message", SYMBOL_CASES)
    def test_refused_and_named(self, toy, call, x, z, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            SYMBOL_CALLS[call](toy, x, z)

    def test_numpy_integers_accepted(self, toy):
        symbols = np.array([0, 1])
        assert sensing_cost(symbols, toy) == sensing_cost([0, 1], toy)
        got = bruteforce_posterior(symbols, symbols[::-1], toy).probabilities
        assert np.array_equal(got, bruteforce_posterior([0, 1], [1, 0], toy).probabilities)


def sense_or_talk_model(seed: int, nx=3, ns=3, nz=3, ny=2):
    """Seeded strictly positive model: input 0 senses the state through z,
    the last input talks through y (the benchmark's bayes model shape)."""
    rng = np.random.default_rng([seed, nx, ns, nz, ny])
    channel = np.empty((nx, ns, ny, nz))
    for x in range(nx):
        sense = 0.85 * (1.0 - x / (nx - 1))
        for s in range(ns):
            pz = (1.0 - sense) * (rng.random(nz) + 0.05)
            pz = pz / pz.sum() * (1.0 - sense)
            pz[s % nz] += sense
            talk = 0.85 - sense
            py = rng.random(ny) + 0.05
            py = py / py.sum() * (1.0 - talk)
            py[x % ny] += talk
            channel[x, s] = np.outer(py, pz)
    markov = 0.6 * np.eye(ns) + 0.4 * (rng.random((ns, ns)) + 0.05)
    markov /= markov.sum(axis=1, keepdims=True)
    initial = rng.random(ns) + 0.05
    initial /= initial.sum()
    distortion = (1.0 - np.eye(ns)) * (0.5 + rng.random((ns, ns)))
    return DiscreteJcasModel(
        channel=channel, markov=markov, initial=initial, distortion=distortion
    )


def every_trace(model, max_len: int):
    for length in range(max_len + 1):
        for xs in itertools.product(range(model.nx), repeat=length):
            for zs in itertools.product(range(model.nz), repeat=length):
                yield xs, zs


class TestArrayEnumeration:
    """The array enumeration against the one-path-at-a-time loop in bayes_reference."""

    @staticmethod
    def assert_same_posterior(model, xs, zs):
        try:
            want = ref.bruteforce_posterior(xs, zs, model)
        except EvidenceError:
            with pytest.raises(EvidenceError):
                bruteforce_posterior(xs, zs, model)
            return False
        got = bruteforce_posterior(xs, zs, model)
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.time_index == want.time_index
        return True

    @pytest.mark.parametrize("seed", [4242, 7])
    def test_seeded_models_bit_for_bit(self, seed):
        model = sense_or_talk_model(seed)
        assert all(self.assert_same_posterior(model, xs, zs) for xs, zs in every_trace(model, 3))

    def test_toy_model_bit_for_bit(self, toy):
        outcomes = [self.assert_same_posterior(toy, xs, zs) for xs, zs in every_trace(toy, 5)]
        # the toy model's zero entries leave many traces without evidence
        assert 0 < outcomes.count(False) < len(outcomes)

    def test_sparse_models_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for _ in range(4):
            model = sparse_discrete_model(rng)
            for xs, zs in every_trace(model, 2):
                self.assert_same_posterior(model, xs, zs)

    def test_guard_size_is_fast_and_small(self):
        model = sense_or_talk_model(4242, ns=5)
        rng = np.random.default_rng(8)
        xs = rng.integers(0, model.nx, 8).tolist()
        zs = rng.integers(0, model.nz, 8).tolist()
        belief = Belief(model.initial.copy(), 0)
        for x, z in zip(xs, zs):
            belief = belief_update(belief_predict(belief, model), x, z, model)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            brute = bruteforce_posterior(xs, zs, model)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(brute.probabilities, belief.probabilities, rtol=0, atol=1e-12)
        assert elapsed < 1.0
        # 5^9 path weights are 15.6 MB; the final-state sums copy them once
        assert peak < 64e6


class TestLikelihoodTables:
    def test_cached_tables_equal_channel_marginals(self, toy):
        for model in (toy, sense_or_talk_model(4242), random_discrete_model(np.random.default_rng(3))):
            assert model.z_likelihood().tobytes() == model.channel.sum(axis=2).tobytes()
            assert model.y_likelihood().tobytes() == model.channel.sum(axis=3).tobytes()
            assert model.z_likelihood() is model.z_likelihood()
            assert model.y_likelihood() is model.y_likelihood()

    def test_cached_tables_are_read_only(self, toy):
        for table in (toy.z_likelihood(), toy.y_likelihood()):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 0.5

    def test_library_reads_the_cached_tables(self):
        # a NaN channel behind the cached marginals: any caller that sums the
        # channel itself would return NaN instead of the intact model's values
        model = sense_or_talk_model(4242)
        stale = sense_or_talk_model(4242)
        object.__setattr__(stale, "channel", np.full(model.channel.shape, np.nan))
        xs, zs = [0, 1, 2], [2, 0, 1]
        b = Belief(model.initial.copy(), 0)
        assert (
            belief_update(b, 0, 1, stale).probabilities.tobytes()
            == belief_update(b, 0, 1, model).probabilities.tobytes()
        )
        assert (
            bruteforce_posterior(xs, zs, stale).probabilities.tobytes()
            == bruteforce_posterior(xs, zs, model).probabilities.tobytes()
        )
        assert sensing_cost(xs, stale) == sensing_cost(xs, model)
        dists = np.tile([0.2, 0.3, 0.5], (2, 1))
        assert capacity_objective(dists, stale, 2) == capacity_objective(dists, model, 2)
        budget = sensing_cost([1, 1], model)
        got = bruteforce_open_loop_tradeoff(stale, budget, 2, 0.25)
        assert_same_search(got, bruteforce_open_loop_tradeoff(model, budget, 2, 0.25))
        assert got.feasible


class TestSensingCost:
    def test_zero_distortion_function(self):
        model = uniform_channel_model(np.eye(2), np.array([0.5, 0.5]), np.zeros((2, 2)))
        assert sensing_cost([0, 1], model) == 0.0

    def test_uninformative_input_costs_half(self, toy):
        # talking symbol: mode-guess risk 1/2 at every index
        assert sensing_cost([1], toy) == pytest.approx(0.5, abs=1e-12)
        assert sensing_cost([1, 1], toy) == pytest.approx(0.5, abs=1e-12)

    def test_noiseless_sensing_leaves_only_prior_term(self, toy):
        # d_1 = d_2 = 0 exactly; only E[d_0] = 1/2 survives the average
        assert sensing_cost([0, 0], toy) == pytest.approx(0.5 / 3.0, abs=1e-12)

    def test_mixed_sequence(self, toy):
        # sense then talk: d_0 = .5, d_1 = 0, d_2 = 0 (state frozen, already known)
        assert sensing_cost([0, 1], toy) == pytest.approx(0.5 / 3.0, abs=1e-12)

    def test_invariant_to_y_relabeling(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            model = random_discrete_model(rng)
            perm = rng.permutation(model.ny)
            relabeled = DiscreteJcasModel(
                channel=model.channel[:, :, perm, :],
                markov=model.markov,
                initial=model.initial,
                distortion=model.distortion,
            )
            xs = rng.integers(0, model.nx, 2).tolist()
            assert sensing_cost(xs, model) == pytest.approx(
                sensing_cost(xs, relabeled), abs=1e-14
            )

    def test_oversized_instance_rejected(self):
        rng = np.random.default_rng(1)
        model = random_discrete_model(rng, max_size=3)
        with pytest.raises(EnumerationLimitError):
            sensing_cost([0] * 12, model)


def sparse_discrete_model(rng: np.random.Generator, max_size: int = 3):
    """Random model with zero channel, kernel and prior entries, so that
    some measurement prefixes have zero probability."""
    nx, ns, nz = (int(v) for v in rng.integers(2, max_size + 1, 3))
    channel = rng.random((nx, ns, 2, nz)) * (rng.random((nx, ns, 2, nz)) < 0.5)
    channel[..., 0, 0] += 0.05
    channel /= channel.sum(axis=(2, 3), keepdims=True)
    markov = rng.random((ns, ns)) * (rng.random((ns, ns)) < 0.5) + 0.05 * np.eye(ns)
    markov /= markov.sum(axis=1, keepdims=True)
    initial = np.zeros(ns)
    initial[: ns - 1] = rng.random(ns - 1) + 0.05
    initial /= initial.sum()
    return DiscreteJcasModel(
        channel=channel, markov=markov, initial=initial, distortion=rng.random((ns, ns))
    )


def wide_sparse_model(seed: int, nx: int, ny: int, ns: int = 3, nz: int = 2):
    """Seeded model with zero channel entries and an unreachable last state,
    so its state marginals have a zero entry at every step."""
    rng = np.random.default_rng([seed, nx, ny, ns])
    channel = rng.random((nx, ns, ny, nz)) * (rng.random((nx, ns, ny, nz)) < 0.6)
    channel[..., 0, 0] += 0.05
    channel /= channel.sum(axis=(2, 3), keepdims=True)
    markov = rng.random((ns, ns)) + 0.05
    markov[:-1, -1] = 0.0
    markov /= markov.sum(axis=1, keepdims=True)
    initial = rng.random(ns) + 0.05
    initial[-1] = 0.0
    initial /= initial.sum()
    return DiscreteJcasModel(
        channel=channel, markov=markov, initial=initial, distortion=1.0 - np.eye(ns)
    )


def equivalence_cases():
    """(model, x_seq) pairs for n = 0..5 within the enumeration bound."""
    toy = load_discrete_model(toy_model_path())
    cases = [(toy, xs) for n in range(6) for xs in itertools.product(range(2), repeat=n)]
    rng = np.random.default_rng(44)
    for make in (random_discrete_model, sparse_discrete_model):
        for n in range(6):
            for _ in range(6):
                model = make(rng, max_size=3 if n < 5 else 2)
                cases.append((model, rng.integers(0, model.nx, n).tolist()))
    return cases


EQUIVALENCE_CASES = equivalence_cases()


class TestForwardRecursion:
    """The forward recursion against the path enumeration in bayes_reference."""

    def test_cost_matches_enumeration(self):
        worst = 0.0
        for model, xs in EQUIVALENCE_CASES:
            want = ref.sensing_cost(xs, model)
            worst = max(worst, abs(sensing_cost(xs, model) - want) / max(1.0, abs(want)))
        assert worst <= 1e-13

    def test_estimates_match_reference(self):
        dead = 0
        for model, xs in EQUIVALENCE_CASES:
            n = len(xs)
            messages = list(forward_messages([[x] for x in xs], model))
            estimates = [np.argmin(belief @ model.distortion, axis=1) for belief, _ in messages]
            final, weight = messages[n]
            for k, zp in enumerate(itertools.product(range(model.nz), repeat=n)):
                want = ref.estimates_along(xs, zp, model)
                if want is None:
                    dead += 1
                    assert weight[k] == 0.0 and not final[k].any()
                    continue
                assert weight[k] > 0.0 and final[k].any()
                got = [int(est[k // model.nz ** (n - j)]) for j, est in enumerate(estimates)]
                assert got == want, (xs, zp)
        assert dead > 0  # the zero-evidence branch ran

    @staticmethod
    def all_input_cases():
        rng = np.random.default_rng(45)
        cases = [(load_discrete_model(toy_model_path()), 4)]
        for ns in (2, 3, 4, 5):
            cases.append((random_discrete_model(rng, max_size=3), 3))
            cases.append((wide_sparse_model(ns, nx=2, ny=2, ns=ns, nz=2), 3))
        return cases

    def test_all_input_pass_matches_per_trace_filter(self):
        # Every belief is the exact posterior up to a common scale, each
        # entry off by at most (|S| + 2) roundings a step (predict sums |S|
        # terms, then one product and one quotient); normalizing at most
        # doubles that, and two such computations differ by twice it.
        eps = np.finfo(float).eps
        dead = 0
        for model, steps in self.all_input_cases():
            passes = forward_messages([range(model.nx)] * steps, model)
            for length, (beliefs, weight) in enumerate(passes):
                traces = itertools.product(
                    itertools.product(range(model.nx), repeat=length),
                    itertools.product(range(model.nz), repeat=length),
                )
                bound = 4 * (length * (model.ns + 2) + model.ns + 1) * eps
                for (xs, zs), belief, w in zip(traces, beliefs, weight, strict=True):
                    want = ref.posterior_along(xs, zs, model)
                    if want is None:
                        dead += 1
                        assert w == 0.0 and not belief.any()
                    else:
                        assert np.max(np.abs(belief - want)) <= bound, (xs, zs)
        assert dead > 0

    def test_weights_are_enumerated_evidence(self):
        # P(z^j | x^j) is a sum of |S|^(j+1) path products of 2j + 1 factors,
        # added one at a time; the pass's product of j evidences rounds
        # (|S| + 3) times a step
        eps = np.finfo(float).eps
        for model, steps in self.all_input_cases():
            passes = forward_messages([range(model.nx)] * steps, model)
            for length, (_, weight) in enumerate(passes):
                per_input = weight.reshape(model.nx ** length, model.nz ** length)
                rounds = model.ns ** (length + 1) + (model.ns + 5) * length + 1
                x_seqs = itertools.product(range(model.nx), repeat=length)
                for xs, row in zip(x_seqs, per_input, strict=True):
                    assert abs(row.sum() - 1.0) <= (length * (model.ns + 3) + len(row)) * eps
                    for zs, w in zip(itertools.product(range(model.nz), repeat=length), row):
                        want = ref.evidence(xs, zs, model)
                        assert abs(w - want) <= rounds * eps * want, (xs, zs)

    def test_guard_bounds_enumeration_size(self):
        # the pass along n inputs ends with |Z|^n |S| entries: 3^11 * 3 =
        # 531441 are within MAX_CHANNEL_ENTRIES, 3^12 * 3 are not
        model = DiscreteJcasModel(
            channel=np.full((1, 3, 1, 3), 1.0 / 3.0),
            markov=np.full((3, 3), 1.0 / 3.0),
            initial=np.full(3, 1.0 / 3.0),
            distortion=1.0 - np.eye(3),
        )
        assert sensing_cost([0] * 5, model) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert sensing_cost([0] * 6, model) == ref.forward_cost([0] * 6, model)
        # 3^11 weights of 3^-11 each, so the sum rounds a few ulps off 2/3
        assert sensing_cost([0] * 11, model) == ref.forward_cost([0] * 11, model)
        assert sensing_cost([0] * 11, model) == pytest.approx(2.0 / 3.0, abs=1e-14)
        with pytest.raises(
            EnumerationLimitError, match=r"forward pass would end with 1594323 entries \(limit 1000000\)"
        ):
            sensing_cost([0] * 12, model)


class TestSequenceCosts:
    """The one-pass cost table against the per-sequence reduction it replaced."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sparse=st.booleans(),
        n=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_sequence_equals_forward_cost(self, seed, sparse, n):
        rng = np.random.default_rng(seed)
        model = (sparse_discrete_model if sparse else random_discrete_model)(rng)
        xs = rng.integers(0, model.nx, n).tolist()
        if model.nz ** n * model.ns > MAX_CHANNEL_ENTRIES:
            with pytest.raises(EnumerationLimitError):
                sensing_cost(xs, model)
            return
        assert sensing_cost(xs, model) == ref.forward_cost(xs, model)

    def test_toy_rows_equal_sensing_cost(self, toy):
        for n in range(7):
            x_seqs = itertools.product(range(toy.nx), repeat=n)
            table = sequence_costs([range(toy.nx)] * n, toy).tolist()
            assert table == [sensing_cost(xs, toy) for xs in x_seqs]

    def test_rows_equal_sensing_cost_on_random_models(self):
        # taller stacks in the forward pass may round the predicted belief
        # differently, so a row may differ from the one-sequence cost in
        # its last bits
        rng = np.random.default_rng(46)
        for case in range(60):
            make = (random_discrete_model, sparse_discrete_model)[case % 2]
            model = make(rng, max_size=5)
            n = int(rng.integers(0, 4))
            levels = [
                sorted(rng.choice(model.nx, int(rng.integers(1, model.nx + 1)), replace=False))
                for _ in range(n)
            ]
            if math.prod(map(len, levels)) * model.nz ** n * model.ns > MAX_CHANNEL_ENTRIES:
                continue
            table = sequence_costs(levels, model)
            x_seqs = list(itertools.product(*levels))
            assert table.shape == (len(x_seqs),)
            for xs, got in zip(x_seqs, table):
                want = sensing_cost(xs, model)
                assert abs(got - want) <= 1e-15 * abs(want), (case, xs)

    def test_wide_alphabet_refused_before_the_pass(self, monkeypatch):
        # |X|^3 |Z|^3 |S| = 50^3 4^3 3 = 24 000 000 entries; the grid has only
        # 50^3 combinations at resolution 1, within MAX_GRID_COMBOS
        def refuse(*args, **kwargs):
            raise AssertionError("the forward pass was reached")

        monkeypatch.setattr(bayes, "_forward_pass", refuse)
        monkeypatch.setattr(bayes, "simplex_grid", refuse)
        channel = np.full((50, 3, 2, 4), 1.0 / 8.0)
        model = DiscreteJcasModel(
            channel=channel, markov=np.full((3, 3), 1.0 / 3.0), initial=np.full(3, 1.0 / 3.0),
            distortion=1.0 - np.eye(3),
        )
        refused = r"forward pass would end with 24000000 entries \(limit 1000000\)"
        with pytest.raises(EnumerationLimitError, match=refused):
            bruteforce_open_loop_tradeoff(model, 0.5, 3, 1.0)
        with pytest.raises(EnumerationLimitError, match=refused):
            sequence_costs([range(50)] * 3, model)
        with pytest.raises(EnumerationLimitError, match=refused):
            forward_messages([range(50)] * 3, model)

    def test_search_reads_the_table(self, toy, monkeypatch):
        rng = np.random.default_rng(47)
        for model in (toy, random_discrete_model(rng), sparse_discrete_model(rng)):
            for n in (1, 2, 3):
                table = sequence_costs([range(model.nx)] * n, model).tolist()
                res = bruteforce_open_loop_tradeoff(model, 0.4, n, 0.5)
                assert list(res.per_sequence_costs) == list(
                    itertools.product(range(model.nx), repeat=n)
                )
                assert list(res.per_sequence_costs.values()) == table
        # one pass per search, and no per-sequence cost
        calls = []
        monkeypatch.setattr(bayes, "sensing_cost", lambda *a: calls.append("sensing_cost"))
        original = bayes.forward_messages
        monkeypatch.setattr(
            bayes, "forward_messages", lambda *a: calls.append("pass") or original(*a)
        )
        bruteforce_open_loop_tradeoff(toy, 0.4, 3, 0.5)
        assert calls == ["pass"]


class TestCapacityObjective:
    def test_output_independent_of_input_is_zero(self):
        model = uniform_channel_model(np.eye(2), np.array([0.5, 0.5]), HAMMING)
        assert capacity_objective([[0.5, 0.5]], model, 1) == pytest.approx(0.0, abs=1e-15)

    def test_identity_channel_gives_ln2(self):
        channel = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for s in range(2):
                channel[x, s, x, :] = 0.5  # y = x, z uniform
        model = DiscreteJcasModel(
            channel=channel, markov=np.eye(2), initial=np.array([0.5, 0.5]), distortion=HAMMING
        )
        got = capacity_objective([[0.5, 0.5]], model, 1)
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_binary_symmetric_channel_oracle(self):
        # ln 2 - Hb(0.1) = 0.3680642071684971 nats
        eps = 0.1
        channel = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for s in range(2):
                channel[x, s, x, :] = (1 - eps) / 2.0
                channel[x, s, 1 - x, :] = eps / 2.0
        model = DiscreteJcasModel(
            channel=channel, markov=np.eye(2), initial=np.array([0.5, 0.5]), distortion=HAMMING
        )
        got = capacity_objective(np.array([0.5, 0.5]), model, 3)
        assert got == pytest.approx(0.3680642071684971, abs=1e-12)

    @pytest.mark.parametrize("bad", ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]))
    def test_non_finite_distribution_refused(self, bad):
        # every comparison with NaN is false, so the range checks alone pass it
        with pytest.raises(ParameterError):
            capacity_objective(np.array(bad), sense_or_talk_model(4242), 2)

    def test_concave_along_random_segments(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            model = random_discrete_model(rng)
            p = rng.random(model.nx) + 0.01
            q = rng.random(model.nx) + 0.01
            p /= p.sum()
            q /= q.sum()
            mid = capacity_objective([(p + q) / 2.0], model, 1)
            ends = 0.5 * (
                capacity_objective([p], model, 1) + capacity_objective([q], model, 1)
            )
            assert mid >= ends - 1e-9


class TestGridTradeoff:
    def test_budget_above_worst_case_is_unconstrained(self, toy):
        # costs are 0.25 and 0.5, so D = 0.6 frees the search entirely
        res = bruteforce_open_loop_tradeoff(toy, 0.6, 1, 0.05)
        assert res.feasible
        assert res.rate == pytest.approx(math.log(1.25), abs=1e-12)
        assert res.input_distributions[0][1] == pytest.approx(0.6, abs=1e-12)

    def test_binding_budget_lands_on_half(self, toy):
        # cost(p) = 0.25 + 0.25 p binds at p = 0.5 for D = 0.375
        res = bruteforce_open_loop_tradeoff(toy, 0.375, 1, 0.001)
        assert res.feasible
        assert res.input_distributions[0][1] == pytest.approx(0.5, abs=1e-9)
        assert res.rate == pytest.approx(0.21576155433883565, abs=1e-12)

    def test_nan_budget_refused(self, toy):
        # every cost comparison with NaN is false, which read as feasible
        with pytest.raises(ParameterError):
            bruteforce_open_loop_tradeoff(toy, math.nan, 1, 0.05)

    def test_budget_below_floor_is_infeasible(self, toy):
        res = bruteforce_open_loop_tradeoff(toy, 0.1, 1, 0.05)
        assert not res.feasible
        assert res.rate is None and res.n_feasible == 0

    def test_rate_nondecreasing_in_budget(self, toy):
        budgets = [0.26, 0.3, 0.35, 0.4, 0.5, 0.6]
        rates = []
        for d in budgets:
            res = bruteforce_open_loop_tradeoff(toy, d, 1, 0.05)
            assert res.feasible
            rates.append(res.rate)
        assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(rates, rates[1:]))

    def test_two_step_search_runs(self, toy):
        res = bruteforce_open_loop_tradeoff(toy, 0.4, 2, 0.25)
        assert res.feasible
        assert res.input_distributions.shape == (2, 2)

    def test_grid_counted_before_it_is_built(self, monkeypatch):
        # |X| = 40 at resolution 0.05 has C(59, 20), about 2.8e15, points
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(bayes, "simplex_grid", refuse)
        model = DiscreteJcasModel(
            channel=np.ones((40, 1, 1, 1)), markov=np.ones((1, 1)), initial=np.ones(1),
            distortion=np.zeros((1, 1)),
        )
        with pytest.raises(EnumerationLimitError, match=f"would visit {math.comb(59, 20)} "):
            bruteforce_open_loop_tradeoff(model, 0.5, 1, 0.05)

    def test_n_out_of_range(self, toy):
        with pytest.raises(EnumerationLimitError):
            bruteforce_open_loop_tradeoff(toy, 0.5, 4, 0.1)


def assert_same_search(got, want):
    assert got.feasible == want.feasible
    assert got.rate == want.rate
    assert got.n_feasible == want.n_feasible
    if want.input_distributions is None:
        assert got.input_distributions is None
    else:
        assert np.array_equal(got.input_distributions, want.input_distributions)
    assert got.per_sequence_costs.keys() == want.per_sequence_costs.keys()
    for xs, cost in want.per_sequence_costs.items():
        assert got.per_sequence_costs[xs] == pytest.approx(cost, rel=1e-13, abs=1e-13)


class TestArraySearch:
    """The array search against the one-combination-at-a-time loop in bayes_reference."""

    # grid steps per unit for binary and ternary inputs; coarser for n = 3,
    # where the loop visits (points)^3 combinations
    @pytest.mark.parametrize("n, binary_steps, ternary_steps", [(1, 10, 10), (2, 10, 4), (3, 5, 3)])
    def test_matches_loop(self, toy, n, binary_steps, ternary_steps):
        rng = np.random.default_rng(60 + n)
        models = (toy, random_discrete_model(rng), sparse_discrete_model(rng), wide_sparse_model(n, 3, 3))
        for model in models:
            resolution = 1.0 / (binary_steps if model.nx == 2 else ternary_steps)
            costs = [ref.sensing_cost(xs, model) for xs in itertools.product(range(model.nx), repeat=n)]
            lo, hi = min(costs), max(costs)
            for budget in (0.5 * lo, lo, float(np.median(costs)), (lo + hi) / 2.0, hi + 0.1):
                assert_same_search(
                    bruteforce_open_loop_tradeoff(model, budget, n, resolution),
                    ref.open_loop_tradeoff(model, budget, n, resolution),
                )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tied_rates_keep_first_combination(self, n):
        # z carries nothing and y = x: every sequence costs 1/2 and a law's
        # rate is its entropy, so (2/3, 1/3) and (1/3, 2/3) tie at every step
        channel = np.zeros((2, 2, 2, 2))
        for x in range(2):
            channel[x, :, x, :] = 0.5
        model = DiscreteJcasModel(
            channel=channel, markov=np.eye(2), initial=np.array([0.5, 0.5]), distortion=HAMMING
        )
        got = bruteforce_open_loop_tradeoff(model, 0.5, n, 1.0 / 3.0)
        assert_same_search(got, ref.open_loop_tradeoff(model, 0.5, n, 1.0 / 3.0))
        assert got.n_feasible == 4**n
        assert np.array_equal(got.input_distributions, np.tile([2.0 / 3.0, 1.0 / 3.0], (n, 1)))
        assert capacity_objective(np.tile([1.0 / 3.0, 2.0 / 3.0], (n, 1)), model, n) == got.rate


class TestInformationTable:
    """The array I(X; Y | S) against the per-point evaluation in bayes_reference."""

    # (nx, ny, grid resolution): at least 8 (x, y) terms, where numpy's
    # pairwise summation starts to group terms
    SHAPES = [(2, 4, 0.05), (3, 3, 0.1), (4, 3, 0.2), (4, 5, 0.25), (6, 2, 0.5)]

    @pytest.mark.parametrize("nx, ny, resolution", SHAPES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_table_bit_for_bit(self, seed, nx, ny, resolution):
        model = wide_sparse_model(seed, nx, ny)
        assert (model.channel == 0.0).any()
        grid = simplex_grid(nx, resolution)
        marginals = state_marginals(model, 3)
        assert (marginals == 0.0).any()
        py = model.y_likelihood()
        info = information_table(grid, model)
        want = np.array([
            [ref.mutual_information(q, py[:, s, :]) for s in range(model.ns)] for q in grid
        ])
        assert np.array_equal(info, want)
        got = _average_over_states(info[:, np.newaxis, :], marginals)
        want = np.array([
            [ref.conditional_information(q, py, marginals[i]) for i in range(3)] for q in grid
        ])
        assert np.array_equal(got, want)
        dists = grid[np.random.default_rng(seed).integers(0, len(grid), 3)]
        assert capacity_objective(dists, model, 3) == ref.capacity_objective(dists, model, 3)

    def test_blocks_do_not_change_bits(self, monkeypatch):
        model = wide_sparse_model(3, 4, 3)
        grid = simplex_grid(4, 0.1)
        whole = information_table(grid, model)
        monkeypatch.setattr(bayes, "_INFO_BLOCK_TERMS", 5 * 4 * 3)
        assert np.array_equal(information_table(grid, model), whole)


class TestModelLoading:
    def test_toy_tables(self, toy):
        assert (toy.nx, toy.ns, toy.ny, toy.nz) == (2, 2, 2, 2)
        np.testing.assert_allclose(toy.markov, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(toy.initial, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(toy.z_likelihood()[0, 0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(toy.y_likelihood()[1, 0], [0.0, 1.0], atol=1e-15)

    def test_row_sum_error_names_row(self, tmp_path):
        bad = toy_model_path()
        text = open(bad).read().replace("0 1 : 0.0 0.5 0.0 0.5", "0 1 : 0.0 0.5 0.0 0.48")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SchemaError, match=r"channel row \(x=0, s=1\)"):
            load_discrete_model(path)

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("0 1 : 0.0 0.5 0.0 0.5", "0 x : 0.0 0.5 0.0 0.5", "channel s"),
            ("0 1 : 0.0 0.5 0.0 0.5", "0.5 1 : 0.0 0.5 0.0 0.5", "channel x"),
            ("[markov]\n0 :", "[markov]\nzero :", "markov row"),
            ("1 : 1.0 0.0", "1.0 : 1.0 0.0", "distortion row"),
        ],
    )
    def test_non_integer_index_names_line(self, tmp_path, old, new, where):
        text = open(toy_model_path()).read()
        assert old in text
        text = text.replace(old, new, 1)
        path = tmp_path / "bad.txt"
        path.write_text(text)
        row = new.split("\n")[-1]
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(row))
        with pytest.raises(SchemaError, match=rf"line {lineno}: {where} index must be an integer"):
            load_discrete_model(path)

    @pytest.mark.parametrize(
        "row, what",
        [
            ("0 0 : 0.5 0.0 0.5 0.0", "channel row (x=0, s=0)"),
            ("1 1 : 0.0 0.0 0.5 0.5", "channel row (x=1, s=1)"),
            ("1 : 0.0 1.0", "markov row (s=1)"),
            ("0 : 0.0 1.0", "distortion row (s=0)"),
        ],
    )
    def test_duplicate_row_names_line(self, tmp_path, row, what):
        lines = open(toy_model_path()).read().splitlines()
        at = lines.index(row)
        lines.insert(at + 1, row)
        path = tmp_path / "dup.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"line {at + 2}: duplicate {what}")):
            load_discrete_model(path)

    @pytest.mark.parametrize(
        "row, bad, what",
        [
            ("0 1 : 0.0 0.5 0.0 0.5", "0 1 : 0.0 nan 0.0 0.5", "channel row (x=0, s=1)"),
            ("1 : 0.0 1.0", "1 : 0.0 inf", "markov row (s=1)"),
            ("0.5 0.5", "nan 0.5", "initial row"),
            ("0 : 0.0 1.0", "0 : -inf 1.0", "distortion row (s=0)"),
        ],
    )
    def test_non_finite_entry_names_line(self, tmp_path, row, bad, what):
        lines = open(toy_model_path()).read().splitlines()
        at = lines.index(row)
        lines[at] = bad
        path = tmp_path / "nonfinite.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"line {at + 1}: {what} has a non-finite")):
            load_discrete_model(path)

    @pytest.mark.parametrize(
        "sizes, lineno, what",
        [
            ((1000, 1000, 1000, 1000), 2, "1000000000000 channel table entries"),
            ((1000, 2, 2, 1000), 2, "4000000 channel table entries"),
            ((1, 2, 2, 250_001), 5, "1000004 channel table entries"),
            ((1, 1001, 1, 1), 3, "1002001 |S| x |S| table entries"),
        ],
    )
    def test_oversized_alphabets_refused_before_allocation(self, tmp_path, monkeypatch, sizes, lineno, what):
        def refuse(*args, **kwargs):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(np, "full", refuse)
        names = "\n".join(f"{name} = {size}" for name, size in zip("XSZY", sizes))
        path = tmp_path / "huge.txt"
        path.write_text(f"[alphabets]\n{names}\n[channel]\n[markov]\n[initial]\n[distortion]\n")
        with pytest.raises(SchemaError, match=re.escape(f"line {lineno}: alphabet sizes give {what}")):
            load_discrete_model(path)

    @pytest.mark.parametrize("sizes", [(1, 1000, 1, 1), (1, 2, 2, 250_000)])
    def test_alphabets_at_the_bound_reach_allocation(self, tmp_path, monkeypatch, sizes):
        # |S|^2 = 10^6 and 10^6 channel entries are within MAX_CHANNEL_ENTRIES
        def refuse(*args, **kwargs):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(np, "full", refuse)
        names = "\n".join(f"{name} = {size}" for name, size in zip("XSZY", sizes))
        path = tmp_path / "edge.txt"
        path.write_text(f"[alphabets]\n{names}\n[channel]\n[markov]\n[initial]\n[distortion]\n")
        with pytest.raises(AssertionError, match="a table was allocated"):
            load_discrete_model(path)

    @pytest.mark.parametrize(
        "extra, message",
        [("X = 7", "line 8: duplicate alphabet X"), ("W = 3", "line 7: unknown alphabet 'W'")],
    )
    def test_alphabet_names_checked(self, tmp_path, extra, message):
        lines = open(toy_model_path()).read().splitlines()
        at = lines.index("X = 2")
        lines.insert(at, extra)
        assert at + 1 == 7
        path = tmp_path / "alphabets.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_discrete_model(path)

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        # the decode error used to escape naming neither the file nor the line
        path = tmp_path / "latin1.txt"
        path.write_bytes(open(toy_model_path(), "rb").read().replace(b"X = 2", b"X = 2\xff", 1))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: line 7, column 6: not UTF-8 text")):
            load_discrete_model(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_lines_load_or_raise_schema_error(self, tmp_path_factory, data):
        lines = open(toy_model_path(), "rb").read().split(b"\n")
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at] = data.draw(st.one_of(
                st.binary(max_size=24),
                st.text("0123456789 .:-+=#[]eEXSZYinfa\t", max_size=24).map(str.encode),
                st.sampled_from(lines).map(lambda line: line.replace(b"2", b"3").replace(b"0.5", b"1e400")),
            ))
        path = tmp_path_factory.getbasetemp() / "mutated.txt"
        path.write_bytes(b"\n".join(lines))
        try:
            load_discrete_model(path)
        except SchemaError:
            pass

    def test_missing_section(self, tmp_path):
        path = tmp_path / "missing.txt"
        path.write_text("[alphabets]\nX = 2\nS = 2\nZ = 2\nY = 2\n")
        with pytest.raises(SchemaError, match="missing"):
            load_discrete_model(path)

    def test_content_before_section(self, tmp_path):
        path = tmp_path / "stray.txt"
        path.write_text("X = 2\n")
        with pytest.raises(SchemaError, match="line 1"):
            load_discrete_model(path)

    def test_ctor_rejects_negative_probability(self):
        channel = np.full((1, 2, 1, 2), 0.5)
        channel[0, 0, 0, 0] = -0.1
        channel[0, 0, 0, 1] = 1.1
        with pytest.raises(SchemaError, match="negative"):
            DiscreteJcasModel(
                channel=channel, markov=np.eye(2), initial=np.array([0.5, 0.5]), distortion=HAMMING
            )

    @pytest.mark.parametrize("shape", [(2, 0), (2,), (3, 2)])
    def test_ctor_rejects_distortion_shape(self, toy, shape):
        # a table without estimate columns left sensing_cost and sequence_costs
        # failing inside a numpy reduction
        tables = {name: getattr(toy, name) for name in ("channel", "markov", "initial")}
        with pytest.raises(SchemaError, match=re.escape(f"distortion table must be 2 x (k >= 1), got {shape}")):
            DiscreteJcasModel(**tables, distortion=np.zeros(shape))

    @pytest.mark.parametrize("section", ("channel", "markov", "initial", "distortion"))
    def test_ctor_rejects_nan(self, toy, section):
        tables = {name: getattr(toy, name).copy() for name in ("channel", "markov", "initial", "distortion")}
        tables[section].flat[0] = np.nan
        with pytest.raises(SchemaError, match=f"{section} entries must be finite"):
            DiscreteJcasModel(**tables)

    def test_belief_must_normalize(self):
        with pytest.raises(Exception):
            Belief(np.array([0.5, 0.4]))
