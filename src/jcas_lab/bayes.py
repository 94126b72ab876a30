"""Desk-scale finite-alphabet engine for the general Markov-state model.

Exact computation at small alphabet sizes: recursive predict/update
posterior filtering with an array path-enumeration oracle, the sensing
cost of the risk-minimizing estimator, and a gridded product-distribution
search for the best rate under a distortion budget, as whole arrays.
Everything is in nats.

One belief recursion serves the engine: ``forward_messages``, the scaled
forward pass (Rabiner 1989) over every (input, measurement) prefix of a
set of input levels, carries each prefix's belief and weight P(z^j | x^j),
and alone bounds the pass (``MAX_CHANNEL_ENTRIES`` entries).  Every cost
(``sequence_costs``: ``sensing_cost``, the rate search, the CLI's cost
table) and the CLI's posterior table read a pass.

A belief is validated once, by the public ``Belief(...)`` constructor; the
beliefs that ``belief_predict``, ``belief_update`` and
``bruteforce_posterior`` return are products of validated tables and a
validated belief and skip the checks; symbols are checked where they index
a table (``_symbol``).  I(X; Y | S) is one array evaluation over a stack of
input laws (``information_table``), shared by the rate search and
``capacity_objective``.

Alphabets are index sets 0..size-1.  The channel is a joint conditional
table P(y, z | x, s); the state evolves by a row-stochastic kernel
P(s' | s) from a known initial distribution.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EnumerationLimitError,
    EvidenceError,
    ParameterError,
    SchemaError,
)

PROB_TOL = 1e-12

#: enumeration guards (documented desk-scale bounds)
MAX_STATES_EXACT = 5
MAX_STEPS_EXACT = 8
MAX_GRID_COMBOS = 5_000_000
#: largest table (8 MB of floats): a model file's channel and |S| x |S|
#: tables, and the final (x^n, z^n, s) entries of one forward pass
MAX_CHANNEL_ENTRIES = 1_000_000


@dataclass(frozen=True)
class DiscreteJcasModel:
    """Finite-alphabet channel-with-state model.

    channel[x, s, y, z] = P(y, z | x, s); markov[s, s'] = P(s' | s);
    initial[s] is the time-0 state prior; distortion[s, shat] >= 0 with the
    estimate alphabet indexing the columns (a subset relabeling of the state
    alphabet).
    """

    channel: np.ndarray
    markov: np.ndarray
    initial: np.ndarray
    distortion: np.ndarray

    def __post_init__(self):
        channel = np.asarray(self.channel, dtype=float)
        markov = np.asarray(self.markov, dtype=float)
        initial = np.asarray(self.initial, dtype=float).reshape(-1)
        distortion = np.asarray(self.distortion, dtype=float)
        if channel.ndim != 4:
            raise SchemaError(f"channel table must be 4-D (x,s,y,z), got {channel.ndim}-D")
        nx, ns, ny, nz = channel.shape
        if markov.shape != (ns, ns):
            raise SchemaError(f"markov kernel must be {ns}x{ns}, got {markov.shape}")
        if initial.shape != (ns,):
            raise SchemaError(f"initial distribution must have {ns} entries")
        if distortion.ndim != 2 or distortion.shape[0] != ns or distortion.shape[1] == 0:
            raise SchemaError(f"distortion table must be {ns} x (k >= 1), got {distortion.shape}")
        for name, arr in (("channel", channel), ("markov", markov), ("initial", initial)):
            if not np.all(np.isfinite(arr)):
                raise SchemaError(f"{name} entries must be finite")
        if np.any(channel < 0):
            raise SchemaError("channel table has negative entries")
        for x in range(nx):
            for s in range(ns):
                tot = float(channel[x, s].sum())
                if abs(tot - 1.0) > PROB_TOL:
                    raise SchemaError(f"channel row (x={x}, s={s}) sums to {tot!r}, expected 1")
        if np.any(markov < 0):
            raise SchemaError("markov kernel has negative entries")
        for s in range(ns):
            tot = float(markov[s].sum())
            if abs(tot - 1.0) > PROB_TOL:
                raise SchemaError(f"markov row (s={s}) sums to {tot!r}, expected 1")
        if np.any(initial < 0) or abs(float(initial.sum()) - 1.0) > PROB_TOL:
            raise SchemaError("initial distribution must be nonnegative and sum to 1")
        if not np.all(np.isfinite(distortion)) or np.any(distortion < 0):
            raise SchemaError("distortion entries must be finite and nonnegative")
        for name, arr in (
            ("channel", channel),
            ("markov", markov),
            ("initial", initial),
            ("distortion", distortion),
            ("_z_like", channel.sum(axis=2)),
            ("_y_like", channel.sum(axis=3)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nx(self) -> int:
        return self.channel.shape[0]

    @property
    def ns(self) -> int:
        return self.channel.shape[1]

    @property
    def ny(self) -> int:
        return self.channel.shape[2]

    @property
    def nz(self) -> int:
        return self.channel.shape[3]

    @property
    def n_estimates(self) -> int:
        return self.distortion.shape[1]

    def z_likelihood(self) -> np.ndarray:
        """P(z | x, s): channel marginalized over y; shape (nx, ns, nz), read-only."""
        return self._z_like

    def y_likelihood(self) -> np.ndarray:
        """P(y | x, s): channel marginalized over z; shape (nx, ns, ny), read-only."""
        return self._y_like


@dataclass(frozen=True)
class Belief:
    """Distribution over the state alphabet at one time index."""

    probabilities: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).reshape(-1)
        if (
            not np.all(np.isfinite(p))
            or np.any(p < -PROB_TOL)
            or abs(float(p.sum()) - 1.0) > 1e-9
        ):
            raise ParameterError("belief must be a probability distribution")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def _derived(cls, p: np.ndarray, time_index: int) -> Belief:
        """A belief computed from validated tables and a validated belief;
        the checks of the public constructor are not re-run."""
        belief = object.__new__(cls)
        p.setflags(write=False)
        object.__setattr__(belief, "probabilities", p)
        object.__setattr__(belief, "time_index", time_index)
        return belief


def _symbol(value, size: int, what: str) -> int:
    """``value`` as an index of the alphabet, never wrapped or truncated."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} symbol {value!r} is not an integer") from None
    if not 0 <= index < size:
        raise ParameterError(f"{what} symbol {value} outside alphabet of size {size}")
    return index


def belief_predict(belief: Belief, model: DiscreteJcasModel) -> Belief:
    """Push the belief through the state kernel: b'(s') = sum_s P(s'|s) b(s)."""
    return Belief._derived(belief.probabilities @ model.markov, belief.time_index + 1)


def belief_update(belief: Belief, x: int, z: int, model: DiscreteJcasModel) -> Belief:
    """Condition on a measurement: b'(s) proportional to P(z|x,s) b(s).

    Zero-probability evidence raises EvidenceError rather than silently
    renormalizing; it signals a model/trace mismatch.
    """
    x, z = _symbol(x, model.nx, "input"), _symbol(z, model.nz, "measurement")
    like = model.z_likelihood()[x, :, z]
    post = like * belief.probabilities
    total = float(post.sum())
    if total <= 0.0:
        raise EvidenceError(
            f"measurement z={z} has zero probability under input x={x}"
        )
    return Belief._derived(post / total, belief.time_index)


def check_posterior_enumeration(model: DiscreteJcasModel, steps: int) -> None:
    """Refuse ``bruteforce_posterior`` over ``steps`` > 0 steps before any work."""
    if steps and (model.ns > MAX_STATES_EXACT or steps > MAX_STEPS_EXACT):
        raise EnumerationLimitError(
            f"exact enumeration limited to |S| <= {MAX_STATES_EXACT}, steps <= {MAX_STEPS_EXACT}"
        )


def bruteforce_posterior(x_seq, z_seq, model: DiscreteJcasModel) -> Belief:
    """Exact posterior over the current state by full path enumeration.

    Sums P(s_0) prod_j P(s_j|s_{j-1}) P(z_j|x_j,s_j) over every state path;
    the independent oracle for the recursive predict/update filter.  All
    |S|^(n+1) path weights form one array (axis j is s_j; about 16 MB at the
    guard limit), each rounded as the left-to-right product of its factors,
    and a sequential cumsum adds them by final state in itertools.product
    order.  Empty sequences return the initial distribution.
    """
    nx, nz = model.nx, model.nz
    x_seq = [_symbol(x, nx, "input") for x in x_seq]
    z_seq = [_symbol(z, nz, "measurement") for z in z_seq]
    if len(x_seq) != len(z_seq):
        raise ParameterError("x and z sequences must have equal length")
    steps = len(x_seq)
    check_posterior_enumeration(model, steps)
    if steps == 0:
        return Belief._derived(model.initial.copy(), 0)
    pz = model.z_likelihood()
    w = model.initial
    for x, z in zip(x_seq, z_seq):
        w = w[..., np.newaxis] * (model.markov * pz[x, :, z])
    post = np.cumsum(w.reshape(-1, model.ns), axis=0)[-1]
    total = float(post.sum())
    if total <= 0.0:
        raise EvidenceError("measurement sequence has zero probability")
    return Belief._derived(post / total, steps)


def forward_messages(levels, model: DiscreteJcasModel):
    """Yield (belief, weight) at indices 0..n of the scaled forward pass.

    ``levels[j]`` holds the input symbols of step j + 1.  Each row is one
    (x^j, z^j), x^j over the levels and z^j over Z^j, both in
    itertools.product order, x^j major.  belief[r] is the filter's
    posterior P(s_j | x^j, z^j) and weight[r] = P(z^j | x^j), the product
    of the steps' evidence (Rabiner's scale factors); a pair of zero
    evidence has weight 0 and a zero belief.  A pass ending with more than
    ``MAX_CHANNEL_ENTRIES`` (x^n, z^n, s) entries is refused on the call.
    """
    levels = [[_symbol(x, model.nx, "input") for x in level] for level in levels]
    entries = math.prod(map(len, levels)) * model.nz ** len(levels) * model.ns
    if entries > MAX_CHANNEL_ENTRIES:
        raise EnumerationLimitError(
            f"forward pass would end with {entries} entries (limit {MAX_CHANNEL_ENTRIES})"
        )
    return _forward_pass(levels, model)


def _forward_pass(levels, model: DiscreteJcasModel):
    like = model.z_likelihood().transpose(0, 2, 1)[:, np.newaxis]  # (x, 1, z, s)
    belief, weight = model.initial[np.newaxis, :], np.ones(1)
    yield belief, weight
    for j, level in enumerate(levels):
        pred = (belief @ model.markov).reshape(-1, 1, model.nz ** j, 1, model.ns)
        post = pred * like[level]  # axes (x^(j-1), x_j, z^(j-1), z_j, s)
        evidence = np.add.reduce(post, axis=-1)
        weight = (weight.reshape(pred.shape[:-1]) * evidence).reshape(-1)
        belief = (post / np.where(evidence > 0.0, evidence, 1.0)[..., np.newaxis]).reshape(-1, model.ns)
        yield belief, weight


def sequence_costs(levels, model: DiscreteJcasModel) -> np.ndarray:
    """Sensing cost of every input sequence over ``levels`` (as for
    ``forward_messages``, whose bound it shares), in itertools.product
    order, from one pass: the mean of a sequence's n + 1 prefix terms,
    added in index order, where an x^j prefix's term sums
    P(z^j | x^j) min_shat sum_s b(s) d(s, shat) over z^j.
    """
    levels = [list(level) for level in levels]
    n, nz = len(levels), model.nz
    # total[r] sums the terms of the x^j prefix r; each step repeats it for
    # every symbol of the next level
    total = np.zeros(1)
    passes = zip([1] + [len(level) for level in levels], forward_messages(levels, model))
    for j, (count, (belief, weight)) in enumerate(passes):
        least = np.minimum.reduce(belief @ model.distortion, axis=1)
        # one dot per x^j prefix, rounding as a 1-D dot over its z^j row
        terms = np.matmul(weight.reshape(-1, 1, nz ** j), least.reshape(-1, nz ** j, 1))
        total = total.repeat(count) + terms.reshape(-1)
    return total / (n + 1)


def sensing_cost(x_seq, model: DiscreteJcasModel) -> float:
    """Expected block distortion of the recursive estimator given the inputs.

    Exact, from ``sequence_costs`` along the one sequence: O(|Z|^n n |S|^2)
    work, refused when the pass would end with more than
    ``MAX_CHANNEL_ENTRIES`` (z^n, s) entries.
    """
    return float(sequence_costs([[x] for x in x_seq], model)[0])


def state_marginals(model: DiscreteJcasModel, n: int) -> np.ndarray:
    """P(S_i) for i = 1..n by chain iteration; shape (n, ns)."""
    out = np.empty((n, model.ns))
    p = model.initial
    for i in range(n):
        p = p @ model.markov
        out[i] = p
    return out


#: rows x (x, y) terms of one block of the information table's temporaries
_INFO_BLOCK_TERMS = 1 << 16


def _mutual_information_rows(q: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """I(X; Y) in nats for every input law q[r] through channel[x, y] = P(y | x).

    Each row rounds as a one-law evaluation would: the output law p(y)
    sums the joint over x in order, and the positive (x, y) terms of
    p(x, y) ln(P(y | x) / p(y)) are compacted into C-contiguous rows and
    summed along them, so numpy's pairwise summation groups them as it
    does a 1-D array.  Rows are grouped by which terms are positive, so a
    group shares one compaction.
    """
    ny = channel.shape[1]
    joint = q[:, :, np.newaxis] * channel
    py = joint.sum(axis=1)
    joint = joint.reshape(len(q), -1)
    supports, group = np.unique(joint > 0.0, axis=0, return_inverse=True)
    group = group.reshape(-1)
    out = np.empty(len(q))
    for k, support in enumerate(supports):
        rows = np.flatnonzero(group == k)[:, np.newaxis]
        terms = np.flatnonzero(support)
        ratio = channel.reshape(-1)[terms] / py[rows, terms % ny]
        out[rows[:, 0]] = np.sum(np.ascontiguousarray(joint[rows, terms]) * np.log(ratio), axis=1)
    return out


def information_table(q: np.ndarray, model: DiscreteJcasModel) -> np.ndarray:
    """I(X; Y | S = s) in nats for every input law q[r]; shape (len(q), ns).

    Grid rows go through in blocks, so the temporaries stay small however
    many laws there are.
    """
    py = model.y_likelihood()
    out = np.empty((len(q), model.ns))
    block = max(1, _INFO_BLOCK_TERMS // (model.nx * model.ny))
    for start in range(0, len(q), block):
        rows = slice(start, start + block)
        for s in range(model.ns):
            out[rows, s] = _mutual_information_rows(q[rows], py[:, s, :])
    return out


def _average_over_states(info: np.ndarray, laws: np.ndarray) -> np.ndarray:
    """sum_s laws[..., s] info[..., s], added in state order from 0.0 and
    skipping zero-probability states."""
    total = np.zeros(np.broadcast_shapes(info.shape, laws.shape)[:-1])
    for s in range(info.shape[-1]):
        weight = laws[..., s]
        np.add(total, weight * info[..., s], out=total, where=weight > 0.0)
    return total


def capacity_objective(input_dists, model: DiscreteJcasModel, n: int) -> float:
    """(1/n) sum_i I(X_i; Y_i | S_i) in nats for per-step input distributions."""
    dists = np.asarray(input_dists, dtype=float)
    if dists.ndim == 1:
        dists = np.tile(dists, (n, 1))
    if dists.shape != (n, model.nx):
        raise ParameterError(f"need {n} input distributions of size {model.nx}")
    if (
        not np.all(np.isfinite(dists))
        or np.any(dists < -1e-12)
        or np.any(np.abs(dists.sum(axis=1) - 1.0) > 1e-9)
    ):
        raise ParameterError("input distributions must be probability vectors")
    per_step = _average_over_states(information_table(dists, model), state_marginals(model, n))
    total = 0.0
    for value in per_step.tolist():
        total += value
    return total / n


def _grid_steps(resolution: float) -> int:
    """Number of grid steps k of a simplex grid, whose entries are multiples of 1/k."""
    if not (0.0 < resolution <= 1.0):
        raise ParameterError(f"grid resolution must lie in (0, 1], got {resolution}")
    return max(1, round(1.0 / resolution))


def simplex_grid(dim: int, resolution: float) -> np.ndarray:
    """All probability vectors with entries on a grid of the given step."""
    k = _grid_steps(resolution)
    points = []
    for combo in itertools.combinations_with_replacement(range(dim), k):
        counts = np.bincount(np.array(combo, dtype=int), minlength=dim)
        points.append(counts / k)
    return np.array(points)


@dataclass
class TradeoffResult:
    """Outcome of the gridded open-loop rate search under a distortion budget."""

    feasible: bool
    rate: float | None
    input_distributions: np.ndarray | None
    distortion_budget: float
    n: int
    grid_resolution: float
    n_feasible: int = 0
    per_sequence_costs: dict = field(default_factory=dict)


def check_grid_search(model: DiscreteJcasModel, n: int, grid_resolution: float) -> None:
    """Refuse a ``bruteforce_open_loop_tradeoff`` search before any work:
    n outside 1..3, a grid resolution outside (0, 1], or more than
    MAX_GRID_COMBOS grid combinations."""
    if not (1 <= n <= 3):
        raise EnumerationLimitError(f"grid search supports n in 1..3, got {n}")
    # C(k + |X| - 1, |X| - 1) grid points per step, counted before any is built
    k = _grid_steps(grid_resolution)
    n_combos = math.comb(k + model.nx - 1, model.nx - 1) ** n
    if n_combos > MAX_GRID_COMBOS:
        raise EnumerationLimitError(
            f"grid search would visit {n_combos} combinations (limit {MAX_GRID_COMBOS})"
        )


def bruteforce_open_loop_tradeoff(
    model: DiscreteJcasModel,
    distortion_budget: float,
    n: int,
    grid_resolution: float,
) -> TradeoffResult:
    """Best finite-n rate over gridded product input distributions.

    Only product (open-loop) distributions are searched: the objective
    depends on per-step marginals only, and restricting to products keeps
    the desk-scale search honest about what it optimizes.  Values are
    finite-n averages, labeled as such by the ``n`` field of the result.
    An empty feasible set is a result (feasible=False), not an error; a NaN
    budget, which every comparison would call met, is a ParameterError.
    """
    if np.isnan(distortion_budget):
        raise ParameterError(f"distortion budget must be a number, got {distortion_budget}")
    check_grid_search(model, n, grid_resolution)
    costs = sequence_costs([range(model.nx)] * n, model)
    grid = simplex_grid(model.nx, grid_resolution)
    n_points = grid.shape[0]

    # expected cost of every grid combination; contracting x_0 first, axis i
    # of the result indexes the grid point of step i
    expected = costs.reshape((model.nx,) * n)
    for _ in range(n):
        expected = np.tensordot(expected, grid, axes=(0, 1))
    infeasible = expected > distortion_budget + 1e-12
    n_feasible = expected.size - int(np.count_nonzero(infeasible))
    per_seq = dict(zip(itertools.product(range(model.nx), repeat=n), costs.tolist()))
    if n_feasible == 0:
        return TradeoffResult(
            False, None, None, distortion_budget, n, grid_resolution, 0, per_seq
        )

    # a combination's rate is the mean of its per-step conditional mutual
    # information, summed in step order into the no longer needed cost buffer
    mi_table = _average_over_states(
        information_table(grid, model)[:, np.newaxis, :], state_marginals(model, n)
    )
    rate = expected
    rate.fill(0.0)
    for i in range(n):
        rate += mi_table[:, i].reshape((n_points,) + (1,) * (n - 1 - i))
    rate /= n
    rate[infeasible] = -np.inf
    # the first maximum in C order is the first in itertools.product order
    best = int(np.argmax(rate))
    combo = np.unravel_index(best, rate.shape)
    return TradeoffResult(
        True,
        float(rate.flat[best]),
        grid[list(combo)],
        distortion_budget,
        n,
        grid_resolution,
        n_feasible,
        per_seq,
    )


# ---------------------------------------------------------------------------
# model file loading
# ---------------------------------------------------------------------------

def load_discrete_model(path) -> DiscreteJcasModel:
    """Load a model from the sectioned text format (see docs/discrete-model-format.md).

    Sections: [alphabets] with X/S/Z/Y sizes, [channel] rows
    ``x s : p(y,z)...`` flattened y-major, [markov] rows ``s : p(s'|s)...``,
    [initial] one probability row, [distortion] rows ``s : d(s, shat)...``.
    """
    sections: dict = {}
    current = None
    # undecodable bytes become lone surrogates, which UTF-8 cannot encode
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SchemaError(f"{path}: line {lineno}, column {exc.start + 1}: not UTF-8 text") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections[current] = []
                continue
            if current is None:
                raise SchemaError(f"line {lineno}: content before any [section]")
            sections[current].append((lineno, line))

    for required in ("alphabets", "channel", "markov", "initial", "distortion"):
        if required not in sections:
            raise SchemaError(f"missing [{required}] section")

    sizes, where = {}, {}
    for lineno, line in sections["alphabets"]:
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'NAME = size'")
        name, _, value = line.partition("=")
        name = name.strip().upper()
        if name not in ("X", "S", "Z", "Y"):
            raise SchemaError(f"line {lineno}: unknown alphabet {name!r}, expected X, S, Z or Y")
        if name in sizes:
            raise SchemaError(f"line {lineno}: duplicate alphabet {name}")
        try:
            sizes[name] = int(value)
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: alphabet size must be an integer") from exc
        where[name] = lineno
    for name in ("X", "S", "Z", "Y"):
        if name not in sizes or sizes[name] < 1:
            raise SchemaError(f"[alphabets] must define a positive size for {name}")
    nx, ns, nz, ny = sizes["X"], sizes["S"], sizes["Z"], sizes["Y"]
    # checked before any table is allocated; the line named is the largest size's
    for names, count, what in (
        ("S", ns * ns, "|S| x |S| table entries"),
        ("XSZY", nx * ns * nz * ny, "channel table entries"),
    ):
        if count > MAX_CHANNEL_ENTRIES:
            lineno = where[max(names, key=sizes.get)]
            raise SchemaError(
                f"line {lineno}: alphabet sizes give {count} {what}, above {MAX_CHANNEL_ENTRIES}"
            )

    def parse_index(lineno, text, what):
        try:
            return int(text)
        except ValueError as exc:
            raise SchemaError(
                f"line {lineno}: {what} index must be an integer, got {text.strip()!r}"
            ) from exc

    def parse_floats(lineno, text, expected, what):
        parts = text.split()
        if len(parts) != expected:
            raise SchemaError(
                f"line {lineno}: {what} needs {expected} values, got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {what} has a non-numeric entry") from exc
        if not all(np.isfinite(values)):
            raise SchemaError(f"line {lineno}: {what} has a non-finite entry")
        return values

    def parse_rows(name, labels, sizes, width):
        """The table of a section with one ``labels : values`` row, of width
        values, per index tuple: ``x s`` for the channel, ``s`` otherwise."""
        table = np.full((*sizes, width), np.nan)
        seen = set()
        for lineno, line in sections[name]:
            head, _, tail = line.partition(":")
            heads = head.split()
            if not tail or len(heads) != len(labels):
                raise SchemaError(f"line {lineno}: {name} row needs '{' '.join(labels)} : values'")
            names = [f"{name} {label}" for label in labels] if len(labels) > 1 else [f"{name} row"]
            index = tuple(parse_index(lineno, text, what) for text, what in zip(heads, names))
            row = f"{name} row ({', '.join(f'{label}={i}' for label, i in zip(labels, index))})"
            if not all(0 <= i < n for i, n in zip(index, sizes)):
                raise SchemaError(f"line {lineno}: {row} out of range")
            if index in seen:
                raise SchemaError(f"line {lineno}: duplicate {row}")
            seen.add(index)
            table[index] = parse_floats(lineno, tail, width, row)
        if np.isnan(table).any():
            raise SchemaError(f"{name} section is missing one or more rows")
        return table

    channel = parse_rows("channel", ("x", "s"), (nx, ns), ny * nz).reshape(nx, ns, ny, nz)
    markov = parse_rows("markov", ("s",), (ns,), ns)

    if len(sections["initial"]) != 1:
        raise SchemaError("[initial] must contain exactly one row")
    lineno, line = sections["initial"][0]
    initial = parse_floats(lineno, line.partition(":")[2] or line, ns, "initial row")

    distortion = parse_rows("distortion", ("s",), (ns,), ns)

    return DiscreteJcasModel(
        channel=channel, markov=markov, initial=np.array(initial), distortion=distortion
    )
