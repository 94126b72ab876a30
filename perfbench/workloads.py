"""The benchmark's four workloads: inputs, job lists and oracle checks.

Importing this module imports jcas_lab, so the import is part of set-up
time.  ``build(name, seed, workdir, tiny)`` is the rest of set-up: it makes
and validates the models and generates every input from the seed.  The
library receives only those generated inputs.

Each job times one call (or one short group of calls) into the library's
public API.  Its ``check`` compares the returned values or written files
with an independent oracle from :mod:`oracles` and runs after the timed
region.  Only signatures that the planned refactors keep are used: no
``threads`` argument, no private helpers.

Why these workloads (see NOTES.md for the full table):

* figures -- what a paper reader runs: ``reproduce fig3|fig4`` plus the
  ``riccati`` and ``rd-curve`` subcommands on the scalar reference config.
  Scalar Riccati kernels and critical-lambda bisection dominate.
* matrix -- the same riccati/tradeoff layers through the matrix path: 2x2
  critical lambda, curves and thresholds, plus a seeded 8x8 model.
* trials -- Monte Carlo covariance cells and filtered trajectories; the
  riccati layer is barely touched and no bisection runs.
* bayes -- the finite-alphabet engine: path-enumeration sensing cost,
  gridded tradeoff search and posterior recursion.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import jcas_lab
from jcas_lab import bayes, cli, montecarlo, riccati, statespace, tradeoff

import oracles

WORKLOADS = ("figures", "matrix", "trials", "bayes")

#: the paper's scalar reference systems (c = 1)
UNSTABLE = dict(a=-1.15, c=1.0, q=0.2, r=1.5)
STABLE = dict(a=-0.95, c=1.0, q=0.2, r=1.5)

#: the 2x2 model of the ROADMAP baseline table (eigenvalues 1.05, 0.9)
M2 = dict(A=[[1.05, 0.2], [0.0, 0.9]], C=[[1.0, 0.0]], Q=[[0.1, 0.0], [0.0, 0.1]], R=[[0.5]])

#: jobs whose oracle misses are a known defect of the program, not of the
#: benchmark: the filter simulates the raw unstable state, and after a few
#: hundred steps state - estimate rounds to zero, so the block mean of the
#: unstable switching run collapses below its band.  They still count in
#: ``failed`` and ``pass_frac``; they alone do not make a run incorrect.
KNOWN_DEFECTS = {
    "trials": {"block_unstable_switching": "unstable-filter precision loss (NOTES.md)"},
}


@dataclass
class Job:
    """One timed unit of library work and the oracle that checks it."""

    name: str
    metric: str  # named end-to-end metric the job's time counts towards
    run: Callable[[], object]
    check: Callable[[object], list]
    work: int = 0  # trials x horizon, for the steps-per-second metrics


@dataclass
class Workload:
    name: str
    jobs: list
    primary: str  # the named metric that exercises the workload's mechanism
    named: list  # [(metric, unit)] printed for this workload
    step_probe: Callable[[], dict] | None = None


def model_from(spec: dict) -> statespace.GaussMarkovModel:
    if "a" in spec:
        return statespace.GaussMarkovModel.scalar(spec["a"], spec["c"], spec["q"], spec["r"])
    return statespace.GaussMarkovModel(A=spec["A"], C=spec["C"], Q=spec["Q"], R=spec["R"])


def validated(model):
    report = statespace.validate_model(model)
    if not report.valid:
        raise ValueError("benchmark model invalid: " + "; ".join(report.violations))
    return model


def derive_seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng([seed, 0x6A636173])
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


# ---------------------------------------------------------------------------
# output fingerprints (informational digest of every job's output)
# ---------------------------------------------------------------------------

def fingerprint(obj, sink) -> None:
    """Feed a canonical byte form of a job result into a hash object."""
    if isinstance(obj, CliOutput):
        sink.update(f"exit={obj.code}".encode())
        for path in sorted(obj.out.iterdir()):
            sink.update(path.name.encode())
            sink.update(path.read_bytes())
    elif isinstance(obj, np.ndarray):
        sink.update(str(obj.shape).encode())
        sink.update(np.ascontiguousarray(obj, dtype=float).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        sink.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            fingerprint(getattr(obj, f.name), sink)
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            sink.update(repr(key).encode())
            fingerprint(obj[key], sink)
    elif isinstance(obj, (list, tuple)):
        sink.update(f"[{len(obj)}".encode())
        for item in obj:
            fingerprint(item, sink)
    else:
        sink.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    fingerprint(obj, h)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# figures: the CLI on the paper's scalar systems
# ---------------------------------------------------------------------------

@dataclass
class CliOutput:
    code: int
    out: Path


def cli_job(argv: list, out: Path) -> Callable[[], CliOutput]:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        return CliOutput(code, out)

    return run


def read_rows(path: Path, header_prefix: str) -> list:
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith(header_prefix):
            continue
        rows.append(line.split(","))
    return rows


def header_value(path: Path, key: str) -> float:
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key}="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"{path.name}: no '# {key}=' line")


def check_exit(res: CliOutput) -> list:
    return [] if res.code == 0 else [f"exit code {res.code}"]


def check_mb_csv(path: Path, system: dict) -> list:
    """Every finite multi-beam point matches the scalar quadratic root."""
    out = []
    for param, _rate, dist, _kind, finite in read_rows(path, "param,"):
        ref = oracles.quad_mb_root(system["a"], system["q"], system["r"], float(param))
        if finite == "1":
            out += oracles.check_close(f"{path.name} gamma={param}", float(dist), ref, 1e-10)
        elif math.isfinite(ref):
            out.append(f"{path.name} gamma={param}: reported divergent, oracle {ref!r}")
    return out


def check_inner_gaps(path: Path) -> list:
    if not path.exists():
        return [f"{path.name} missing"]
    gaps = [float(row[3]) for row in read_rows(path, "distortion,")]
    bad = [g for g in gaps if not g >= -1e-12]
    if not gaps or bad:
        return [f"{path.name}: {len(bad)} gaps below -1e-12 of {len(gaps)}"]
    return []


def lambda_c_closed(system: dict) -> float:
    a = system["a"]
    return max(0.0, 1.0 - 1.0 / (a * a))


def check_fig3(res: CliOutput) -> list:
    out = check_exit(res)
    if out:
        return out
    rows = {row[0]: row for row in read_rows(res.out / "fig3_summary.txt", "system,")}
    for name, system in (("unstable", UNSTABLE), ("stable", STABLE)):
        lam_c = float(rows[name][1])
        if not abs(lam_c - lambda_c_closed(system)) <= 1e-5:
            out.append(f"fig3 {name}: lambda_c {lam_c!r} vs {lambda_c_closed(system)!r}")
    stable_bs = read_rows(res.out / "fig3_stable_bs.csv", "param,")
    s0 = [float(r[2]) for r in stable_bs if float(r[0]) == 0.0 and r[3] == "outer"]
    ref = oracles.scalar_sbar(STABLE["a"], STABLE["q"], 0.0)
    if len(s0) != 1:
        out.append("fig3 stable: no outer point at lambda=0")
    else:
        out += oracles.check_close("fig3 stable S-bar(0)", s0[0], ref, 1e-9)
    return out


def check_fig4(res: CliOutput) -> list:
    out = check_exit(res)
    if out:
        return out
    for name, system in (("unstable", UNSTABLE), ("stable", STABLE)):
        for snr_db in cli.PRESET_SNRS_DB:
            tag = f"{name}_snr{snr_db:g}db"
            out += check_mb_csv(res.out / f"fig4_{tag}_mb.csv", system)
            out += check_inner_gaps(res.out / f"fig4_{tag}_dominance_inner.csv")
    return out


def check_riccati_cmd(res: CliOutput) -> list:
    out = check_exit(res)
    if out:
        return out
    lam_c = header_value(res.out / "riccati_thresholds.csv", "lambda_c")
    if not abs(lam_c - lambda_c_closed(UNSTABLE)) <= 1e-5:
        out.append(f"riccati: lambda_c {lam_c!r} vs {lambda_c_closed(UNSTABLE)!r}")
    for lam, s_tr, _v_tr in read_rows(res.out / "riccati_fixed_points.csv", "lambda,"):
        ref = oracles.scalar_sbar(UNSTABLE["a"], UNSTABLE["q"], float(lam))
        out += oracles.check_close(f"riccati S-bar({lam})", float(s_tr), ref, 1e-9)
    return out


def check_rd_cmd(res: CliOutput) -> list:
    out = check_exit(res)
    if out:
        return out
    out += check_mb_csv(res.out / "mb_curve.csv", UNSTABLE)
    out += check_inner_gaps(res.out / "dominance_mb_vs_bs_inner.csv")
    return out


def build_figures(seed: int, workdir: Path, tiny: bool) -> Workload:
    for system in (UNSTABLE, STABLE):
        validated(model_from(system))
    s = UNSTABLE
    cfg = {
        "model": {"A": [[s["a"]]], "C": [[s["c"]]], "Q": [[s["q"]]], "R": [[s["r"]]]},
        "channel": {"kind": "gaussian", "snr_db": 1.75},
        "lambda_grid": {"start": 0.0, "stop": 1.0, "count": 21 if tiny else 201},
        "gamma_grid": {"start": 1.0, "stop": 1e4, "count": 20 if tiny else 200, "spacing": "log"},
        "distortion_budgets": [0.5, 1.0, 2.0],
        "seed": seed,
    }
    cfg_path = workdir / "unstable_scalar.json"
    cfg_path.write_text(json.dumps(cfg))
    common = ["--seed", str(seed)]
    jobs = [
        Job("reproduce_fig3", "reproduce_s",
            cli_job(["reproduce", "fig3"] + common, workdir / "fig3"), check_fig3),
        Job("reproduce_fig4", "reproduce_s",
            cli_job(["reproduce", "fig4"] + common, workdir / "fig4"), check_fig4),
        Job("riccati_cmd", "analysis_cmd_s",
            cli_job(["riccati", "--config", str(cfg_path)] + common, workdir / "riccati"),
            check_riccati_cmd),
        Job("rd_curve_cmd", "analysis_cmd_s",
            cli_job(["rd-curve", "--config", str(cfg_path)] + common, workdir / "rd"),
            check_rd_cmd),
    ]
    named = [("reproduce_s", "s"), ("analysis_cmd_s", "s")]
    return Workload("figures", jobs, "reproduce_s", named)


# ---------------------------------------------------------------------------
# matrix: the riccati/tradeoff layers through the matrix path
# ---------------------------------------------------------------------------

def random_stable_model(seed: int, m: int = 8, k: int = 2, rho: float = 0.8):
    """Seeded m x m model with spectral radius exactly rho and PD Q, R."""
    rng = np.random.default_rng([seed, m, k])
    a = rng.standard_normal((m, m))
    a *= rho / float(np.max(np.abs(np.linalg.eigvals(a))))
    c = rng.standard_normal((k, m))
    lq = rng.standard_normal((m, m)) / math.sqrt(m)
    lr = rng.standard_normal((k, k)) / math.sqrt(k)
    return statespace.GaussMarkovModel(
        A=a, C=c, Q=lq @ lq.T + 0.1 * np.eye(m), R=lr @ lr.T + 0.5 * np.eye(k)
    )


def check_mb_traces(points, model, label: str) -> list:
    out = []
    for p in points:
        if not p.finite:
            out.append(f"{label} gamma={p.param!r}: divergent, DARE has a solution")
            continue
        ref = float(np.trace(oracles.dare_covariance(model.A, model.C, model.Q, model.R, p.param)))
        out += oracles.check_close(f"{label} gamma={p.param!r}", p.distortion, ref, 1e-9)
    return out


def check_bs_matrix(result, model) -> list:
    inner, _outer = result
    v1 = [p for p in inner if p.param == 1.0]
    if len(v1) != 1:
        return ["bs_curve: no inner point at lambda=1"]
    ref = float(np.trace(oracles.dare_covariance(model.A, model.C, model.Q, model.R, 1.0)))
    return oracles.check_close("bs_curve V-bar(1)", v1[0].distortion, ref, 1e-9)


def check_critical(value, model, tol) -> list:
    ref = oracles.critical_bound(model.A)
    if not abs(value - ref) <= tol:
        return [f"critical_lambda {value!r} vs 1 - 1/rho^2 = {ref!r} (tol {tol:g})"]
    return []


def check_thresholds(result, model, d: float, tol: float) -> list:
    ls, lv, gm = result
    A, C, Q, R = model.A, model.C, model.Q, model.R
    out = []

    def s_ok(lam):
        return oracles.trace_or_inf(oracles.lyapunov_covariance(A, Q, lam)) <= d

    def v_ok(lam):
        return oracles.trace_or_inf(oracles.vbar_covariance(A, C, Q, R, lam)) <= d

    def g_ok(log_gamma):
        return float(np.trace(oracles.dare_covariance(A, C, Q, R, math.exp(log_gamma)))) <= d

    for label, value, ok in (("lambda_s", ls, s_ok), ("lambda_v", lv, v_ok)):
        if value is None:
            if ok(1.0):
                out.append(f"{label}(D={d}) infeasible, oracle meets the budget at lambda=1")
        else:
            out += oracles.check_monotone_threshold(
                f"{label}(D={d})", value, tol, ok, 0.0, 1.0, increasing_ok=True
            )
    hi = riccati.GAMMA_LOG_RANGE
    if gm is None:
        if g_ok(0.0):
            out.append(f"gamma_max(D={d}) infeasible, oracle meets the budget at gamma=1")
    elif math.isinf(gm):
        if oracles.trace_or_inf(oracles.lyapunov_covariance(A, Q, 0.0)) > d:
            out.append(f"gamma_max(D={d}) unbounded, open-loop trace exceeds the budget")
    else:
        out += oracles.check_monotone_threshold(
            f"gamma_max(D={d})", math.log(gm), tol, g_ok, 0.0, hi, increasing_ok=False
        )
    return out


def step_probe(models: dict) -> dict:
    """Microseconds per call of gamma_bs/gamma_mb at a fixed covariance."""
    out = {}
    for label, model in models.items():
        p = np.array(model.Q, dtype=float) * 2.0
        calls = 20_000 if model.m == 1 else 2_000
        samples = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(calls):
                riccati.gamma_bs(p, 0.5, model)
                riccati.gamma_mb(p, 2.0, model)
            samples.append((perf_counter() - t0) / (2 * calls) * 1e6)
        out[label] = float(np.median(samples))
    return out


def build_matrix(seed: int, workdir: Path, tiny: bool) -> Workload:
    m2 = validated(model_from(M2))
    m8 = validated(random_stable_model(seed))
    m1 = validated(model_from(UNSTABLE))
    channel = tradeoff.ChannelSpec.gaussian(1.75)
    lam_grid = np.linspace(0.0, 1.0, 11 if tiny else 201)
    gam_grid = np.geomspace(1.0, 1e4, 10 if tiny else 200)
    gam_grid_m8 = np.geomspace(1.0, 1e4, 5 if tiny else 50)
    crit_tol = 2e-2 if tiny else 1e-3
    bisect_tol = 1e-4 if tiny else 1e-6

    def thresholds(d):
        def run():
            return (
                riccati.lambda_s(d, m2, bisect_tol=bisect_tol),
                riccati.lambda_v(d, m2, bisect_tol=bisect_tol),
                riccati.gamma_max(d, m2, bisect_tol=bisect_tol),
            )
        return run

    jobs = [
        Job("critical_lambda_2x2", "critical_lambda_s",
            lambda: riccati.critical_lambda(m2, bisect_tol=crit_tol),
            lambda v: check_critical(v, m2, crit_tol)),
        Job("bs_curve_2x2", "curve_s",
            lambda: tradeoff.bs_curve(m2, channel, lam_grid),
            lambda r: check_bs_matrix(r, m2)),
        Job("mb_curve_2x2", "curve_s",
            lambda: tradeoff.mb_curve(m2, channel, gam_grid),
            lambda r: check_mb_traces(r, m2, "mb_curve 2x2")),
        Job("mb_curve_8x8", "curve_s",
            lambda: tradeoff.mb_curve(m8, channel, gam_grid_m8),
            lambda r: check_mb_traces(r, m8, "mb_curve 8x8")),
    ]
    for d in (1.0, 3.0):
        jobs.append(Job(f"thresholds_2x2_D{d:g}", "threshold_s", thresholds(d),
                        lambda r, d=d: check_thresholds(r, m2, d, bisect_tol)))
    named = [("critical_lambda_s", "s"), ("curve_s", "s"), ("threshold_s", "s")]
    return Workload(
        "matrix", jobs, "critical_lambda_s", named,
        step_probe=lambda: step_probe({"m1": m1, "m2": m2, "m8": m8}),
    )


# ---------------------------------------------------------------------------
# trials: Monte Carlo cells and filtered trajectories
# ---------------------------------------------------------------------------

def check_mc_cell(rep, model, lam: float) -> list:
    out = []
    if rep.verdict != montecarlo.VERDICT_WITHIN:
        out.append(f"lam={lam}: sandwich verdict {rep.verdict}")
    s_n, v_n = oracles.switching_iterates(
        model.A, model.C, model.Q, model.R, lam, model.Q, rep.horizon
    )
    s_tr, v_tr = float(np.trace(s_n)), float(np.trace(v_n))
    out += oracles.check_close(f"lam={lam} tr S_n", rep.s_bound_trace, s_tr, 1e-9)
    out += oracles.check_close(f"lam={lam} tr V_n", rep.v_bound_trace, v_tr, 1e-9)
    out += oracles.check_interval(
        f"lam={lam} mean trace", rep.empirical_mean_trace,
        s_tr - 3.0 * rep.std_error, v_tr + 3.0 * rep.std_error,
    )
    return out


def check_block(rep, model, policy) -> list:
    se3 = 3.0 * rep.std_error
    A, C, Q, R = model.A, model.C, model.Q, model.R
    if policy.kind == "multibeam":
        if model.is_scalar:
            a, _c, q, r = model.scalars()
            ref = oracles.quad_mb_root(a, q, r, policy.value)
        else:
            ref = float(np.trace(oracles.dare_covariance(A, C, Q, R, policy.value)))
        return oracles.check_interval("block mean", rep.mean, ref - se3, ref + se3)
    lam = policy.value
    if model.is_scalar:
        a, _c, q, r = model.scalars()
        lo, hi = oracles.scalar_sbar(a, q, lam), oracles.scalar_vbar(a, q, r, lam)
    else:
        lo = oracles.trace_or_inf(oracles.lyapunov_covariance(A, Q, lam))
        hi = oracles.trace_or_inf(oracles.vbar_covariance(A, C, Q, R, lam))
    return oracles.check_interval("block mean", rep.mean, lo - se3, hi + se3)


def build_trials(seed: int, workdir: Path, tiny: bool) -> Workload:
    stable = validated(model_from(STABLE))
    unstable = validated(model_from(UNSTABLE))
    m2 = validated(model_from(M2))
    seeds = iter(derive_seeds(seed, 32))
    jobs = []

    def mc_job(name, model, lam, horizon, trials):
        crit = oracles.critical_bound(model.A)
        s = next(seeds)
        jobs.append(Job(
            name, "mc_steps_per_s",
            lambda: montecarlo.expected_covariance_mc(
                model, lam, horizon, trials, s, critical=crit),
            lambda rep: check_mc_cell(rep, model, lam),
            work=horizon * trials,
        ))

    def block_job(name, model, policy, horizon, trials):
        s = next(seeds)
        s0 = np.zeros(model.m)
        p0 = np.eye(model.m)
        jobs.append(Job(
            name, "filter_steps_per_s",
            lambda: montecarlo.empirical_block_distortion(
                model, policy, horizon, trials, s, s0, p0),
            lambda rep: check_block(rep, model, policy),
            work=horizon * trials,
        ))

    for label, model in (("stable", stable), ("unstable", unstable)):
        for lam in (0.3, 0.5, 0.7, 0.9):
            mc_job(f"mc_{label}_lam{lam}", model, lam, 50, 400 if tiny else 10_000)
    for lam in (0.5, 0.9):
        mc_job(f"mc_2x2_lam{lam}", m2, lam, 50, 40 if tiny else 1_000)
    block_job("block_stable_multibeam", stable, riccati.BeamPolicy.multibeam(2.0),
              500 if tiny else 5000, 20 if tiny else 200)
    block_job("block_unstable_switching", unstable, riccati.BeamPolicy.switching(0.7),
              500 if tiny else 5000, 20 if tiny else 200)
    block_job("block_2x2_switching", m2, riccati.BeamPolicy.switching(0.7),
              200 if tiny else 1000, 20)
    named = [("mc_steps_per_s", "steps/s"), ("filter_steps_per_s", "steps/s")]
    return Workload("trials", jobs, "mc_steps_per_s", named)


# ---------------------------------------------------------------------------
# bayes: the finite-alphabet engine
# ---------------------------------------------------------------------------

def sense_or_talk_model(seed: int, nx=3, ns=3, nz=3, ny=2) -> bayes.DiscreteJcasModel:
    """Seeded strictly positive model whose inputs trade sensing for rate.

    Input x = 0 makes z nearly reveal the state and y nearly useless; the
    last input does the opposite, so sequence costs differ and the budget
    search has a real tradeoff.  Every entry stays positive, so no trace
    has zero probability.
    """
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
    return bayes.DiscreteJcasModel(
        channel=channel, markov=markov, initial=initial, distortion=distortion
    )


def model_cost(x_seq, model) -> float:
    return oracles.sensing_cost_forward(
        x_seq, model.channel, model.markov, model.initial, model.distortion
    )


def search_budgets(model, n: int, resolution: float) -> tuple:
    """(feasible, infeasible) budgets for the grid search.

    The feasible one is the median expected cost over all grid
    combinations, so about half of them pass on every seed; the infeasible
    one lies below the cheapest input sequence.
    """
    costs = np.array([model_cost(xs, model) for xs in itertools.product(range(model.nx), repeat=n)])
    k = max(1, round(1.0 / resolution))
    grid = np.array([
        np.bincount(np.array(c), minlength=model.nx) / k
        for c in itertools.combinations_with_replacement(range(model.nx), k)
    ])
    expected = costs.reshape((model.nx,) * n)
    for _ in range(n):
        expected = np.tensordot(expected, grid, axes=(0, 1))
    return float(np.median(expected)), 0.5 * float(costs.min())


def posterior_traces(model, max_len: int) -> list:
    """(recursive, brute-force) posteriors along every trace up to max_len."""
    out = []
    for length in range(1, max_len + 1):
        for xs in itertools.product(range(model.nx), repeat=length):
            for zs in itertools.product(range(model.nz), repeat=length):
                belief = bayes.Belief(model.initial.copy(), 0)
                for x, z in zip(xs, zs):
                    belief = bayes.belief_update(bayes.belief_predict(belief, model), x, z, model)
                brute = bayes.bruteforce_posterior(xs, zs, model)
                out.append((belief.probabilities, brute.probabilities))
    return out


def check_posteriors(pairs) -> list:
    gap = max(float(np.max(np.abs(a - b))) for a, b in pairs)
    return [] if gap <= 1e-9 else [f"posterior gap {gap:.3e} > 1e-9"]


def check_costs(costs: dict, model, label: str) -> list:
    out = []
    for xs, value in costs.items():
        out += oracles.check_close(f"{label} cost{list(xs)}", value, model_cost(xs, model), 1e-12)
    return out


def check_toy(costs: dict) -> list:
    out = []
    for n in range(max(len(xs) for xs in costs) + 1):
        out += oracles.check_close(f"toy cost([0]*{n})", costs[(0,) * n], 0.5 / (n + 1), 1e-12)
        out += oracles.check_close(f"toy cost([1]*{n})", costs[(1,) * n], 0.5, 1e-12)
    return out


def check_search(res, model, budget: float, feasible: bool) -> list:
    out = check_costs(res.per_sequence_costs, model, "search")
    if not feasible:
        if res.feasible:
            out.append(f"D={budget!r}: reported feasible below the cheapest sequence")
        return out
    if not res.feasible:
        return out + [f"D={budget!r}: reported infeasible, median combination meets it"]
    rate = bayes.capacity_objective(res.input_distributions, model, res.n)
    out += oracles.check_close("search rate", res.rate, rate, 1e-12)
    expected = 0.0
    for xs, cost in res.per_sequence_costs.items():
        expected += math.prod(res.input_distributions[i][x] for i, x in enumerate(xs)) * cost
    if not expected <= budget + 1e-12:
        out.append(f"D={budget!r}: returned inputs cost {expected!r}")
    return out


def build_bayes(seed: int, workdir: Path, tiny: bool) -> Workload:
    model = sense_or_talk_model(seed)
    toy = bayes.load_discrete_model(files("jcas_lab").joinpath("data/toy_model.txt"))
    rng = np.random.default_rng([seed, 5])
    n_cost = 3 if tiny else 5
    resolution = 0.25 if tiny else 0.05
    x_seqs = [tuple(int(x) for x in rng.integers(0, model.nx, n_cost)) for _ in range(3)]
    feasible_d, infeasible_d = search_budgets(model, 2, resolution)
    toy_seqs = [()] + [(x,) * n for n in range(1, 7) for x in (0, 1)]

    def costs(seqs, m):
        return lambda: {xs: bayes.sensing_cost(xs, m) for xs in seqs}

    def search(d):
        return lambda: bayes.bruteforce_open_loop_tradeoff(model, d, 2, resolution)

    jobs = [
        Job("sensing_cost_n5", "bayes_cost_s", costs(x_seqs, model),
            lambda r: check_costs(r, model, "random")),
        Job("sensing_cost_toy", "bayes_cost_s", costs(toy_seqs, toy), check_toy),
        Job("search_feasible", "bayes_search_s", search(feasible_d),
            lambda r: check_search(r, model, feasible_d, True)),
        Job("search_infeasible", "bayes_search_s", search(infeasible_d),
            lambda r: check_search(r, model, infeasible_d, False)),
        Job("posterior_traces", "bayes_posterior_s",
            lambda: posterior_traces(model, 2 if tiny else 3), check_posteriors),
    ]
    named = [("bayes_cost_s", "s"), ("bayes_search_s", "s"), ("bayes_posterior_s", "s")]
    return Workload("bayes", jobs, "bayes_cost_s", named)


BUILDERS = {
    "figures": build_figures,
    "matrix": build_matrix,
    "trials": build_trials,
    "bayes": build_bayes,
}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, Path(workdir), tiny)
