"""Command-line entry point.

Subcommands: ``riccati``, ``rd-curve``, ``mc-verify``, ``filter-sim``,
``bayes``, ``reproduce {fig3|fig4}``.  Experiments are configured by a single
JSON file (flags override it; flags win).  The library modules compute;
this module formats every output file and writes it through ``write_lines``.
Every CSV written starts with a comment line recording the tool version, a
hash of the effective config, and the seed, and contains no timestamps, so
reruns with the same seed are byte-identical.

Exit codes: 0 success, 2 config error, 3 numerical/convergence error,
4 infeasible-only results under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import (
    MAX_STEPS_EXACT,
    bruteforce_open_loop_tradeoff,
    bruteforce_posterior,
    check_grid_search,
    check_posterior_enumeration,
    forward_messages,
    load_discrete_model,
    sequence_costs,
)
from .errors import DimensionError, EnumerationLimitError, EvidenceError, NumericalError, ParameterError, SchemaError
from .filtering import PRECISION_DIGITS, run_filter
from .montecarlo import expected_covariance_mc
from .riccati import (
    BeamPolicy,
    critical_lambda,
    gamma_max,
    lambda_s,
    lambda_v,
    sbar_traces,
    vbar_traces,
)
from .statespace import GaussMarkovModel, check_initial_covariance, validate_model
from .tradeoff import ChannelSpec, bs_arrays, dominance_report, full_rate, mb_arrays

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4

OUT_ENV_VAR = "JCAS_LAB_OUT"

#: fixed seed stamped on preset outputs when --seed is not given
PRESET_SEED = 20240601

#: reference scalar systems used by the reproduction presets
PRESET_SYSTEMS = {
    "unstable": dict(a=-1.15, c=1.0, q=0.2, r=1.5),
    "stable": dict(a=-0.95, c=1.0, q=0.2, r=1.5),
}
PRESET_SNRS_DB = (1.75, 20.0)

#: largest start/stop/count grid, checked before the grid is allocated
MAX_GRID_POINTS = 100_000

#: largest horizon and trial count a run accepts
MAX_HORIZON = 1_000_000
MAX_TRIALS = 1_000_000

GRID_KEYS = {"start", "stop", "count", "spacing"}
#: config keys some subcommand reads, each with the keys read inside it when
#: it is an object; anything else draws a warning
KNOWN_KEYS = {
    "model": {"A", "C", "Q", "R"},
    "channel": {"kind", "c0", "snr_db"},
    "policy": {"kind", "value"},
    "bayes": {"n", "grid_resolution", "budgets", "trace_len"},
    "lambda_grid": GRID_KEYS,
    "gamma_grid": GRID_KEYS,
    "mc_lambdas": GRID_KEYS,
    **dict.fromkeys(("seed", "out_dir", "distortion_budgets", "dominance_grid_points", "horizon",
                     "trials", "s0_estimate", "p0", "discrete_model"), set()),
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    unknown = sorted(cfg.keys() - KNOWN_KEYS.keys())
    for section, known in KNOWN_KEYS.items():
        if isinstance(cfg.get(section), dict):
            unknown += sorted(f"{section}.{k}" for k in set(cfg[section]) - known)
    for key in unknown:
        print(f"warning: {path}: unknown config key '{key}' is ignored", file=sys.stderr)
    return cfg


#: JSON kinds a config value can be asked to have, with the types json.loads gives them
JSON_KINDS = {"object": dict, "list": list, "number": (int, float), "string": str}


def expect(key: str, value, *kinds: str):
    """value, when it is one of the JSON kinds; SchemaError naming the key
    otherwise.  Of the numbers json.loads reads, NaN and an int past the
    float range (which float() cannot convert) count as none."""
    size = abs(value) if isinstance(value, (int, float)) else 0.0
    if size <= sys.float_info.max or size == math.inf:
        if not isinstance(value, bool) and isinstance(value, tuple(JSON_KINDS[k] for k in kinds)):
            return value
    raise SchemaError(f"config key '{key}' must be a {' or '.join(kinds)}, got {json.dumps(value)}")


def require(cfg: dict, key: str, *kinds: str):
    """cfg[key], checked against the JSON kinds when any are given."""
    if key not in cfg:
        raise SchemaError(f"config missing required key '{key}'")
    return expect(key, cfg[key], *kinds) if kinds else cfg[key]


def integer(key: str, value, lo: int, hi: int) -> int:
    """value as an int in [lo, hi], an integral float such as 21.0 included;
    SchemaError naming the key (or the flag, for a key such as '--seed')
    otherwise (bools and non-finite numbers too)."""
    name = key if key.startswith("--") else f"config key '{key}'"
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {json.dumps(value)}")
    if not lo <= value <= hi:
        raise SchemaError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def check_entries(key: str, value) -> None:
    """SchemaError naming the key unless every entry of value is a finite number."""
    if isinstance(value, list):
        for entry in value:
            check_entries(key, entry)
        return
    number = expect(key, value, "number")
    if abs(number) == math.inf:
        raise SchemaError(f"config key '{key}' must hold finite numbers, got {json.dumps(number)}")


@contextlib.contextmanager
def config_key(key: str, value=None):
    """Raise a library refusal of the block (ParameterError, DimensionError
    or EnumerationLimitError) as a SchemaError naming the config key whose
    value the library refused, and that value when one is given."""
    try:
        yield
    except (ParameterError, DimensionError, EnumerationLimitError) as exc:
        shown = "" if value is None else f" = {value}"
        raise SchemaError(f"config key '{key}'{shown}: {exc}") from exc


def parse_model(cfg: dict) -> GaussMarkovModel:
    spec = require(cfg, "model", "object")
    for key in ("A", "C", "Q", "R"):
        if key not in spec:
            raise SchemaError(f"config model missing matrix '{key}'")
        check_entries(f"model.{key}", spec[key])
    try:
        model = GaussMarkovModel(A=spec["A"], C=spec["C"], Q=spec["Q"], R=spec["R"])
    except TypeError as exc:
        raise SchemaError(f"config key 'model' must hold matrices of numbers: {exc}") from exc
    report = validate_model(model)
    if not report.valid:
        raise SchemaError("config model invalid: " + "; ".join(report.violations))
    return model


def parse_channel(cfg: dict) -> ChannelSpec:
    spec = require(cfg, "channel", "object")
    kind = spec.get("kind")
    if kind == "noiseless":
        c0 = expect("channel.c0", spec.get("c0", math.log(2.0)), "number")
        with config_key("channel.c0"):
            return ChannelSpec.noiseless(float(c0))
    if kind == "gaussian":
        if "snr_db" not in spec:
            raise SchemaError("gaussian channel needs 'snr_db'")
        snr_db = expect("channel.snr_db", spec["snr_db"], "number")
        with config_key("channel.snr_db"):
            return ChannelSpec.gaussian(float(snr_db))
    raise SchemaError(f"channel kind must be 'noiseless' or 'gaussian', got {kind!r}")


def parse_grid(spec, name: str) -> np.ndarray:
    if isinstance(spec, list):
        vals = []
        for v in spec:
            if isinstance(v, str):
                if v != "inf":
                    raise SchemaError(f"{name}: only the string 'inf' is allowed, got {v!r}")
                vals.append(math.inf)
            else:
                vals.append(float(expect(name, v, "number")))
        arr = np.array(vals, dtype=float)
    elif isinstance(spec, dict):
        for key in ("start", "stop", "count"):
            if key not in spec:
                raise SchemaError(f"{name}: grid spec needs start/stop/count")
        count = integer(f"{name}.count", spec["count"], 1, MAX_GRID_POINTS)
        start = float(expect(f"{name}.start", spec["start"], "number"))
        stop = float(expect(f"{name}.stop", spec["stop"], "number"))
        spacing = spec.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise SchemaError(f"{name}.spacing must be 'linear' or 'log', got {json.dumps(spacing)}")
        if spacing == "log" and not (start > 0.0 and stop > 0.0):
            raise SchemaError(f"{name}: a log grid needs positive start and stop, got {start!r}, {stop!r}")
        arr = (np.geomspace if spacing == "log" else np.linspace)(start, stop, count)
    else:
        raise SchemaError(f"{name}: grid must be a list or a start/stop/count object")
    if arr.size == 0:
        raise SchemaError(f"{name}: grid is empty")
    return arr


def parse_policy(cfg: dict) -> BeamPolicy:
    spec = require(cfg, "policy", "object")
    kind = spec.get("kind")
    if "value" not in spec:
        raise SchemaError("policy needs a 'value'")
    value = spec["value"]
    value = math.inf if value == "inf" else float(expect("policy.value", value, "number"))
    if kind in ("switching", "multibeam"):
        with config_key("policy.value"):
            return BeamPolicy(kind, value)
    raise SchemaError(f"policy kind must be 'switching' or 'multibeam', got {kind!r}")


def resolve_seed(args, cfg: dict | None) -> int:
    if args.seed is not None:
        return integer("--seed", args.seed, 0, 2**64 - 1)
    if cfg is not None and "seed" in cfg:
        return integer("seed", cfg["seed"], 0, 2**64 - 1)
    raise SchemaError("seed required: set 'seed' in the config or pass --seed")


def resolve_out_dir(args, cfg: dict | None) -> Path:
    if args.out:
        out = args.out
    elif cfg is not None and cfg.get("out_dir"):
        out = expect("out_dir", cfg["out_dir"], "string")
    elif os.environ.get(OUT_ENV_VAR):
        out = os.environ[OUT_ENV_VAR]
    else:
        out = "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot use output directory {out}: {exc}") from exc
    return path


def config_hash(command: str, cfg, seed: int) -> str:
    canon = json.dumps(
        {"command": command, "config": cfg, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def stamp(command: str, cfg, seed: int, extra: str = "") -> str:
    head = f"jcas-lab v{__version__} config_hash={config_hash(command, cfg, seed)} seed={seed}"
    return f"{head} {extra}".strip()


def fmt(x) -> str:
    if x is None:
        return "infeasible"
    if isinstance(x, float) and math.isinf(x):
        return "unbounded" if x > 0 else "-inf"
    return repr(float(x))


def write_lines(path: Path, lines) -> None:
    """Write one output file; every file a subcommand writes goes through here."""
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise SchemaError(f"cannot write output file {path}: {exc}") from exc


def _reprs(values) -> list:
    return [repr(float(x)) for x in values]


def curve_lines(curves, head: str, bits: bool) -> list:
    """Curves as one CSV: param, rate_nats, distortion, bound_kind, finite,
    and with ``bits`` a rate_bits column (the curves themselves stay in
    nats), one row per point, curve after curve."""
    lines = [f"# {head}", "param,rate_nats,distortion,bound_kind,finite" + (",rate_bits" if bits else "")]
    for curve in curves:
        d, kind = curve.distortions, curve.bound_kind
        columns = [curve.params.tolist(), curve.rates.tolist(), d.tolist(), np.isfinite(d).tolist()]
        if bits:
            columns.append((curve.rates / math.log(2.0)).tolist())
            lines += [f"{p!r},{r!r},{d!r},{kind},{f:d},{b!r}" for p, r, d, f, b in zip(*columns)]
        else:
            lines += [f"{p!r},{r!r},{d!r},{kind},{f:d}" for p, r, d, f in zip(*columns)]
    return lines


def mc_row(report) -> str:
    """One Monte Carlo cell as a row of mc_reports.csv."""
    return (
        f"{report.lam!r},{report.trials},{report.horizon},"
        f"{report.empirical_mean_trace!r},{report.std_error!r},"
        f"{report.s_bound_trace!r},{report.v_bound_trace!r},"
        f"{report.verdict},{int(report.near_critical)},{int(report.infinite_band)}"
    )


def mc_text(report) -> str:
    """One Monte Carlo cell as a block of mc_reports.txt."""
    lo, hi = report.band()
    lines = [
        f"lam={report.lam!r} trials={report.trials} horizon={report.horizon}",
        f"  empirical mean trace : {report.empirical_mean_trace!r}",
        f"  std error            : {report.std_error!r}",
        f"  lower bound tr(S_n)  : {report.s_bound_trace!r}",
        f"  upper bound tr(V_n)  : {report.v_bound_trace!r}",
        f"  3-sigma band         : [{lo!r}, {hi!r}]",
        f"  verdict              : {report.verdict}",
    ]
    if report.infinite_band:
        lines.append("  note: single trial, no variance estimate (infinite band)")
    if report.near_critical:
        lines.append("  note: near-critical sensing probability, interpret with care")
    return "\n".join(lines)


def per_step_lines(report, head: str) -> list:
    """A cell's per-step traces as CSV: i, mean_trace, s_bound, v_bound."""
    lines = [f"# {head}", "i,mean_trace,s_bound,v_bound"]
    steps = zip(report.per_step_mean, report.per_step_s, report.per_step_v)
    lines += [f"{i},{','.join(_reprs(row))}" for i, row in enumerate(steps)]
    return lines


def trajectory_lines(traj, model: GaussMarkovModel, head: str) -> list:
    """A filter run as CSV: i, s[0..m), z_present, z[0..k), gamma, shat[0..m),
    d_i; a step without a measurement leaves its z columns empty."""
    header = [
        "i", *(f"s{j}" for j in range(model.m)), "z_present", *(f"z{j}" for j in range(model.k)),
        "gamma", *(f"shat{j}" for j in range(model.m)), "d_i",
    ]
    lines = [f"# {head}", ",".join(header)]
    for i, z in enumerate(traj.measurements):
        row = [str(i), *_reprs(traj.states[i]), "0" if z is None else "1"]
        row += [""] * model.k if z is None else _reprs(z)
        row += [repr(float(traj.gammas[i])), *_reprs(traj.estimates[i])]
        row.append(repr(float(traj.per_letter_distortions[i])))
        lines.append(",".join(row))
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_riccati(args) -> int:
    cfg = load_config(require_config(args))
    model = parse_model(cfg)
    seed = resolve_seed(args, cfg)
    out = resolve_out_dir(args, cfg)
    lam_grid = parse_grid(require(cfg, "lambda_grid"), "lambda_grid")
    budgets = [
        float(expect("distortion_budgets", d, "number"))
        for d in require(cfg, "distortion_budgets", "list")
    ]
    if not budgets:
        raise SchemaError("distortion_budgets: grid is empty")
    head = stamp("riccati", cfg, seed, f"model=[{model.describe()}]")

    # every table is computed before the first file is written
    with config_key("lambda_grid"):
        traces = zip(lam_grid.tolist(), sbar_traces(lam_grid, model).tolist(), vbar_traces(lam_grid, model).tolist())
    lam_c = critical_lambda(model)
    with config_key("distortion_budgets"):
        thresholds = [(d, lambda_s(d, model), lambda_v(d, model), gamma_max(d, model)) for d in budgets]
    any_feasible = any(t is not None for row in thresholds for t in row[1:])

    lines = [f"# {head}", "lambda,tr_sbar,tr_vbar"]
    lines += [f"{lam!r},{s!r},{v!r}" for lam, s, v in traces]
    write_lines(out / "riccati_fixed_points.csv", lines)
    lines = [f"# {head}", f"# lambda_c={lam_c!r}", "D,lambda_s,lambda_v,gamma_max"]
    lines += [f"{d!r},{fmt(ls)},{fmt(lv)},{fmt(gm)}" for d, ls, lv, gm in thresholds]
    write_lines(out / "riccati_thresholds.csv", lines)

    print(f"riccati: lambda_c={lam_c!r}; wrote 2 files to {out}")
    if args.strict and not any_feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _dominance(mb, inner, outer, n_points: int, head: str, pattern: str):
    """Compare the multi-beam curve with each beam-switching bound they overlap.

    Returns the reports by label, "inner" or "outer", and each report's CSV
    lines by file name, pattern.format(label).
    """
    reports, files = {}, {}
    for label, other in (("inner", inner), ("outer", outer)):
        report = dominance_report(mb, other, n_points)
        if report.empty:
            continue
        lines = [
            f"# {head}",
            f"# mb vs bs-{label}: a_ge_b={report.n_a_ge_b} b_gt_a={report.n_b_gt_a}",
            "distortion,rate_a,rate_b,gap",
        ]
        rows = (x.tolist() for x in (report.distortions, report.rates_a, report.rates_b, report.gaps))
        lines += [f"{d!r},{ra!r},{rb!r},{gap!r}" for d, ra, rb, gap in zip(*rows)]
        reports[label], files[pattern.format(label)] = report, lines
    return reports, files


def cmd_rd_curve(args) -> int:
    cfg = load_config(require_config(args))
    model = parse_model(cfg)
    channel = parse_channel(cfg)
    seed = resolve_seed(args, cfg)
    out = resolve_out_dir(args, cfg)
    lam_grid = parse_grid(require(cfg, "lambda_grid"), "lambda_grid")
    head = stamp(
        "rd-curve", cfg, seed, f"model=[{model.describe()}] channel={channel.describe()}"
    )

    # every table is computed before the first file is written
    with config_key("lambda_grid"):
        inner, outer = bs_arrays(model, channel, lam_grid)
    files = {"bs_curve.csv": curve_lines((inner, outer), head, args.bits)}
    if channel.kind == "gaussian":
        gam_grid = parse_grid(require(cfg, "gamma_grid"), "gamma_grid")
        with config_key("gamma_grid"):
            mb = mb_arrays(model, channel, gam_grid)
        files["mb_curve.csv"] = curve_lines((mb,), head, args.bits)
        n_points = integer(
            "dominance_grid_points", cfg.get("dominance_grid_points", 60), 1, MAX_GRID_POINTS
        )
        files.update(_dominance(mb, inner, outer, n_points, head, "dominance_mb_vs_bs_{}.csv")[1])

    for name, lines in files.items():
        write_lines(out / name, lines)
    print(f"rd-curve: wrote {', '.join(files)} to {out}")
    return EXIT_OK


def cmd_mc_verify(args) -> int:
    cfg = load_config(require_config(args))
    model = parse_model(cfg)
    seed = resolve_seed(args, cfg)
    out = resolve_out_dir(args, cfg)
    lams = [float(x) for x in parse_grid(require(cfg, "mc_lambdas"), "mc_lambdas")]
    horizon = integer("horizon", require(cfg, "horizon"), 1, MAX_HORIZON)
    trials = integer("trials", require(cfg, "trials"), 1, MAX_TRIALS)
    head = stamp("mc-verify", cfg, seed, f"model=[{model.describe()}]")

    lam_c = critical_lambda(model, bisect_tol=1e-3)
    # every cell is computed before the first file is written
    with config_key("mc_lambdas"):
        reports = [
            expected_covariance_mc(model, lam, horizon, trials, seed, per_step=True, critical=lam_c)
            for lam in lams
        ]
    for idx, (lam, report) in enumerate(zip(lams, reports)):
        write_lines(out / f"mc_steps_{idx:03d}.csv", per_step_lines(report, f"{head} lam={lam!r}"))
    rows = [
        f"# {head}",
        "lam,trials,horizon,empirical_mean_trace,std_error,"
        "s_bound_trace,v_bound_trace,verdict,near_critical,infinite_band",
    ]
    write_lines(out / "mc_reports.csv", rows + [mc_row(report) for report in reports])
    write_lines(out / "mc_reports.txt", [mc_text(report) for report in reports])
    n_within = sum(report.verdict == "within" for report in reports)
    print(f"mc-verify: {n_within}/{len(lams)} verdicts within; wrote files to {out}")
    return EXIT_OK


def cmd_filter_sim(args) -> int:
    cfg = load_config(require_config(args))
    model = parse_model(cfg)
    seed = resolve_seed(args, cfg)
    out = resolve_out_dir(args, cfg)
    policy = parse_policy(cfg)
    horizon = integer("horizon", require(cfg, "horizon"), 1, MAX_HORIZON)
    s0 = require(cfg, "s0_estimate", "list", "number")
    p0 = require(cfg, "p0", "list", "number")
    check_entries("s0_estimate", s0)
    check_entries("p0", p0)
    with config_key("p0"):
        p0 = check_initial_covariance(model, p0)
    head = stamp("filter-sim", cfg, seed, f"model=[{model.describe()}]")

    # the horizon and p0 are checked above, so run_filter can refuse only s0
    with config_key("s0_estimate"):
        traj = run_filter(model, policy, horizon, np.asarray(s0, dtype=float), p0, seed)
    write_lines(out / "trajectory.csv", trajectory_lines(traj, model, head))
    lost = traj.precision_loss_index()
    if lost is not None:
        print(f"warning: filter-sim: from index {lost} on, |s_i| >> sqrt(tr P_i), so s_i - shat_i "
              f"recomputed from the written columns keeps under {PRECISION_DIGITS} significant "
              "digits (d_i comes from the simulated error and keeps its digits)", file=sys.stderr)
    print(
        f"filter-sim: horizon={horizon} block_distortion={traj.block_distortion()!r}; "
        f"wrote trajectory.csv to {out}"
    )
    return EXIT_OK


def cmd_bayes(args) -> int:
    cfg = load_config(require_config(args))
    seed = resolve_seed(args, cfg)
    out = resolve_out_dir(args, cfg)
    model_path = require(cfg, "discrete_model", "string")
    try:
        model = load_discrete_model(model_path)
    except OSError as exc:
        raise SchemaError(f"discrete_model file does not exist or cannot be read: {exc}") from exc
    bayes_cfg = expect("bayes", cfg.get("bayes", {}), "object")
    n = integer("bayes.n", bayes_cfg.get("n", 1), 1, MAX_STEPS_EXACT)
    resolution = float(
        expect("bayes.grid_resolution", bayes_cfg.get("grid_resolution", 0.05), "number")
    )
    budgets = [
        float(expect("bayes.budgets", d, "number"))
        for d in expect("bayes.budgets", bayes_cfg.get("budgets", []), "list")
    ]
    trace_len = integer("bayes.trace_len", bayes_cfg.get("trace_len", 2), 0, MAX_STEPS_EXACT)
    if budgets:
        # the tradeoff search's limits, checked before any table is computed:
        # a one-step grid past them is the resolution's fault, a longer one n's
        with config_key("bayes.grid_resolution"):
            check_grid_search(model, 1, resolution)
        with config_key("bayes.n"):
            check_grid_search(model, n, resolution)
    # the posterior and cost tables' own library bounds, checked before any
    # file is written; a refusal names the config key that set the size
    with config_key("bayes.trace_len", trace_len):
        passes = forward_messages([range(model.nx)] * trace_len, model)
        check_posterior_enumeration(model, trace_len)
    with config_key("bayes.n", n):
        costs = sequence_costs([range(model.nx)] * n, model).tolist()
    head = stamp("bayes", cfg, seed, f"discrete_model={model_path}")

    # every trace's posterior from one forward pass over all inputs, checked
    # against the brute-force enumeration oracle
    max_gap = 0.0
    gap_lines = [f"# {head}", "x_seq,z_seq,posterior,max_abs_gap"]
    next(passes)  # index 0, the prior
    for length, (beliefs, _) in enumerate(passes, start=1):
        x_seqs = itertools.product(range(model.nx), repeat=length)
        traces = itertools.product(x_seqs, itertools.product(range(model.nz), repeat=length))
        for (x_seq, z_seq), belief in zip(traces, beliefs, strict=True):
            try:
                brute = bruteforce_posterior(x_seq, z_seq, model)
            except EvidenceError:
                continue  # zero-probability trace
            if not belief.any():
                raise EvidenceError(f"forward pass rules out possible trace x={x_seq} z={z_seq}")
            gap = float(np.max(np.abs(belief - brute.probabilities)))
            max_gap = max(max_gap, gap)
            posterior = "|".join(repr(float(p)) for p in belief)
            gap_lines.append(
                f"{''.join(map(str, x_seq))},{''.join(map(str, z_seq))},"
                f"{posterior},{gap!r}"
            )
    write_lines(out / "bayes_posteriors.csv", gap_lines)

    x_seqs = itertools.product(range(model.nx), repeat=n)
    cost_lines = [f"{''.join(map(str, xs))},{c!r}" for xs, c in zip(x_seqs, costs, strict=True)]
    write_lines(out / "bayes_costs.csv", [f"# {head}", "x_seq,cost", *cost_lines])

    any_feasible = not budgets
    trade_lines = [f"# {head}", "D,feasible,rate_nats,input_distributions"]
    for d in budgets:
        res = bruteforce_open_loop_tradeoff(model, d, n, resolution)
        if res.feasible:
            any_feasible = True
            dists = ";".join(
                "|".join(repr(float(p)) for p in row) for row in res.input_distributions
            )
            trade_lines.append(f"{d!r},1,{res.rate!r},{dists}")
        else:
            trade_lines.append(f"{d!r},0,infeasible,")
    write_lines(out / "bayes_tradeoff.csv", trade_lines)

    print(f"bayes: recursive vs brute-force max-abs gap = {max_gap!r}")
    print(f"bayes: wrote files to {out}")
    if args.strict and not any_feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduction presets
# ---------------------------------------------------------------------------

def _preset_model(name: str) -> GaussMarkovModel:
    p = PRESET_SYSTEMS[name]
    return GaussMarkovModel.scalar(p["a"], p["c"], p["q"], p["r"])


def reproduce_fig3(out: Path, seed: int, bits: bool = False) -> dict:
    """Beam-switching curves for both reference systems, noiseless c0 = 1.

    Returns {system: (lambda_c, max_finite_rate)} for the summary file.
    """
    cfg = {"preset": "fig3"}
    head = stamp("reproduce", cfg, seed)
    channel = ChannelSpec.noiseless(c0=1.0)
    lam_grid = np.linspace(0.0, 1.0, 201)
    summary = {}
    lines = [f"# {head}", "system,lambda_c,max_finite_rate"]
    for name in ("unstable", "stable"):
        model = _preset_model(name)
        curves = bs_arrays(model, channel, lam_grid)
        curve_head = f"{head} system={name} channel=noiseless(c0=1.0)"
        write_lines(out / f"fig3_{name}_bs.csv", curve_lines(curves, curve_head, bits))
        lam_c = critical_lambda(model)
        max_rate = (1.0 - lam_c) * channel.c0
        summary[name] = (lam_c, max_rate)
        lines.append(f"{name},{lam_c!r},{max_rate!r}")
    lines.append("# rates above max_finite_rate have no finite-distortion guarantee")
    write_lines(out / "fig3_summary.txt", lines)
    return summary


def reproduce_fig4(out: Path, seed: int, bits: bool = False) -> list:
    """Beam-switching and multi-beam curves over the Gaussian channel.

    2 systems x 2 SNRs x {bs (inner+outer), mb} = 8 curve files, plus
    dominance reports of mb against each bs bound and the summary; returns
    the name of every file written.
    """
    cfg = {"preset": "fig4"}
    head = stamp("reproduce", cfg, seed)
    lam_grid = np.linspace(0.0, 1.0, 201)
    gam_grid = np.concatenate([np.geomspace(1.0, 1e4, 200), [math.inf]])
    written = []
    summary = [f"# {head}", "system,snr_db,full_rate_nats,mb_ge_inner,mb_gt_outer_top"]
    for name in ("unstable", "stable"):
        model = _preset_model(name)
        for snr_db in PRESET_SNRS_DB:
            channel = ChannelSpec.gaussian(snr_db)
            tag = f"{name}_snr{snr_db:g}db"
            inner, outer = bs_arrays(model, channel, lam_grid)
            mb = mb_arrays(model, channel, gam_grid)
            curve_head = f"{head} system={name} channel={channel.describe()}"
            write_lines(out / f"fig4_{tag}_bs.csv", curve_lines((inner, outer), curve_head, bits))
            write_lines(out / f"fig4_{tag}_mb.csv", curve_lines((mb,), curve_head, bits))
            written += [f"fig4_{tag}_bs.csv", f"fig4_{tag}_mb.csv"]
            reports, files = _dominance(mb, inner, outer, 60, head, f"fig4_{tag}_dominance_{{}}.csv")
            for file_name, lines in files.items():
                write_lines(out / file_name, lines)
            written += files
            mb_ge_inner = mb_gt_outer_top = ""
            if "inner" in reports:
                mb_ge_inner = str(int(reports["inner"].n_b_gt_a == 0))
            if "outer" in reports:
                top = reports["outer"].gaps[3 * len(reports["outer"].gaps) // 4 :]
                mb_gt_outer_top = str(int(bool(np.all(top > 0))))
            summary.append(
                f"{name},{snr_db!r},{full_rate(channel)!r},{mb_ge_inner},{mb_gt_outer_top}"
            )
    write_lines(out / "fig4_summary.txt", summary)
    return written + ["fig4_summary.txt"]


def cmd_reproduce(args) -> int:
    seed = resolve_seed(args, {"seed": PRESET_SEED})
    out = resolve_out_dir(args, None)
    if args.figure == "fig3":
        summary = reproduce_fig3(out, seed, bits=args.bits)
        for name, (lam_c, max_rate) in summary.items():
            print(f"fig3 {name}: lambda_c={lam_c!r} max_finite_rate={max_rate!r}")
    else:
        written = reproduce_fig4(out, seed, bits=args.bits)
        print(f"fig4: wrote {len(written)} files to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def require_config(args) -> str:
    if not args.config:
        raise SchemaError("this subcommand needs --config PATH")
    return args.config


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="jcas-lab",
        description=(
            "Capacity-distortion analysis for open-loop joint communication "
            "and sensing with a Markov-evolving state."
        ),
    )
    parser.add_argument("--version", action="version", version=f"jcas-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="64-bit seed (overrides the config)")
        p.add_argument(
            "--out",
            help=f"output directory (overrides config out_dir and ${OUT_ENV_VAR})",
        )

    def strict(p):
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 4 when every requested threshold/budget is infeasible",
        )

    p = sub.add_parser("riccati", help="fixed points and feasibility thresholds")
    common(p)
    strict(p)
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("rd-curve", help="rate-distortion curves and dominance report")
    common(p)
    p.add_argument("--bits", action="store_true", help="append a rate_bits column")
    p.set_defaults(func=cmd_rd_curve)

    p = sub.add_parser("mc-verify", help="Monte Carlo covariance sandwich check")
    common(p)
    p.set_defaults(func=cmd_mc_verify)

    p = sub.add_parser("filter-sim", help="simulate one filtered trajectory")
    common(p)
    p.set_defaults(func=cmd_filter_sim)

    p = sub.add_parser("bayes", help="discrete-model posterior, costs and tradeoff")
    common(p)
    strict(p)
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("reproduce", help="one-shot reproduction presets")
    p.add_argument("figure", choices=("fig3", "fig4"))
    common(p)
    p.add_argument("--bits", action="store_true", help="append a rate_bits column")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        if exc.condition is not None:
            print(f"  condition number: {exc.condition!r}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
