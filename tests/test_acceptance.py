"""Acceptance gate: one pass/fail line per criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see the lines for passing
tests as well.
"""

import json
import math
import time

import numpy as np
import pytest

from jcas_lab.cli import main, reproduce_fig3, reproduce_fig4
from jcas_lab.filtering import run_filter
from jcas_lab.montecarlo import empirical_block_distortion, expected_covariance_mc
from jcas_lab.riccati import BeamPolicy, mb_fixed_point, vbar
from jcas_lab.bayes import Belief, belief_predict, belief_update, bruteforce_posterior
from jcas_lab.statespace import GaussMarkovModel
from jcas_lab.tradeoff import ChannelSpec, bs_rate, mb_rate

from conftest import quad_mb_root, random_discrete_model, scaled_lyap_root, toy_model_path
from riccati_reference import dare

UNSTABLE = GaussMarkovModel.scalar(-1.15, 1.0, 0.2, 1.5)
STABLE = GaussMarkovModel.scalar(-0.95, 1.0, 0.2, 1.5)
LAMBDA_C_CLOSED = 1.0 - 1.0 / 1.15**2  # 0.2438563327...

# frozen independent-oracle values (closed forms evaluated offline)
FULL_RATE_175_DB = 0.4573919297749398
FULL_RATE_20_DB = 2.30756025842063
DARE_UNSTABLE = 0.9875363010123803


def check(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def read_curve_csv(path):
    rows = []
    for line in path.read_text().strip().split("\n"):
        if line.startswith("#") or line.startswith("param,"):
            continue
        param, rate, dist, kind, finite = line.split(",")
        rows.append((float(param), float(rate), float(dist), kind, finite == "1"))
    return rows


def read_gaps(path):
    gaps = []
    for line in path.read_text().strip().split("\n"):
        if line.startswith("#") or line.startswith("distortion,"):
            continue
        gaps.append(float(line.split(",")[3]))
    return np.array(gaps)


def seeded_6x6_model() -> dict:
    """A seeded 6x6, two-output model with rho(A) = 1.05 (one unstable mode,
    seen by C), as the ``model`` section of a config."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 6))
    a *= 1.05 / np.max(np.abs(np.linalg.eigvals(a)))
    lq = rng.standard_normal((6, 6)) / math.sqrt(6.0)
    return {
        "A": a.tolist(),
        "C": rng.standard_normal((2, 6)).tolist(),
        "Q": (lq @ lq.T + 0.1 * np.eye(6)).tolist(),
        "R": (0.5 * np.eye(2)).tolist(),
    }


def test_criterion_1_fig3_left(tmp_path):
    t0 = time.perf_counter()
    summary = reproduce_fig3(tmp_path, seed=0)
    elapsed = time.perf_counter() - t0

    lam_c, max_rate = summary["unstable"]
    rows = read_curve_csv(tmp_path / "fig3_unstable_bs.csv")
    below = [r for r in rows if r[0] < LAMBDA_C_CLOSED - 2e-3]
    above = [r for r in rows if r[0] > LAMBDA_C_CLOSED + 1e-3]
    structure_ok = all(not r[4] for r in below) and all(r[4] for r in above)

    ok = (
        abs(lam_c - LAMBDA_C_CLOSED) <= 1e-5
        and abs(max_rate - (1.0 - LAMBDA_C_CLOSED)) <= 1e-4
        and structure_ok
        and elapsed < 10.0
    )
    check(
        "criterion 1 (fig3 left, unstable noiseless)",
        ok,
        f"lambda_c={lam_c:.7f} (closed {LAMBDA_C_CLOSED:.7f}), "
        f"max_finite_rate={max_rate:.6f}, divergence split ok={structure_ok}, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_1_fig3_right(tmp_path):
    reproduce_fig3(tmp_path, seed=0)
    rows = read_curve_csv(tmp_path / "fig3_stable_bs.csv")
    point = [r for r in rows if r[0] == 0.0 and r[3] == "outer"][0]
    target = scaled_lyap_root(-0.95, 0.2, 1.0)  # 2.051282051...
    ok = point[1] == 1.0 and abs(point[2] - target) <= 1e-6
    check(
        "criterion 1 (fig3 right, stable reaches rate 1)",
        ok,
        f"rate={point[1]}, distortion={point[2]:.7f} vs {target:.7f}",
    )


def test_criterion_1_fig4(tmp_path):
    t0 = time.perf_counter()
    reproduce_fig4(tmp_path, seed=0)
    elapsed = time.perf_counter() - t0

    inner_ok = True
    for system in ("unstable", "stable"):
        for snr in ("1.75", "20"):
            gaps = read_gaps(tmp_path / f"fig4_{system}_snr{snr}db_dominance_inner.csv")
            inner_ok &= len(gaps) >= 50 and bool(np.all(gaps >= -1e-12))

    outer_ok = True
    for snr in ("1.75", "20"):
        gaps = read_gaps(tmp_path / f"fig4_unstable_snr{snr}db_dominance_outer.csv")
        top = gaps[3 * len(gaps) // 4 :]
        outer_ok &= bool(np.all(top > 0.0))

    ok = inner_ok and outer_ok and elapsed < 60.0
    check(
        "criterion 1 (fig4 dominance)",
        ok,
        f"mb>=bs-inner everywhere={inner_ok}, mb>bs-outer high-rate (unstable)={outer_ok}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_2_riccati_correctness():
    worst = 0.0
    for model, a in ((UNSTABLE, -1.15), (STABLE, -0.95)):
        for gamma in (1.0, 2.0, 5.0, 10.0):
            root = quad_mb_root(a, 1.0, 0.2, 1.5, gamma)
            worst = max(worst, abs(mb_fixed_point(gamma, model)[0, 0] - root))
        worst = max(worst, abs(vbar(1.0, model)[0, 0] - quad_mb_root(a, 1.0, 0.2, 1.5, 1.0)))
    pinned = abs(vbar(1.0, UNSTABLE)[0, 0] - DARE_UNSTABLE)
    ok = worst <= 1e-10 and pinned <= 1e-5
    check(
        "criterion 2 (riccati fixed points vs quadratic roots)",
        ok,
        f"worst |fp - root| = {worst:.2e} <= 1e-10, unstable lam=1 off by {pinned:.2e}",
    )


def test_criterion_3_sandwich():
    t0 = time.perf_counter()
    results = []
    for model in (STABLE, UNSTABLE):
        for lam in (0.3, 0.5, 0.7, 0.9):
            rep = expected_covariance_mc(
                model, lam, horizon=50, trials=10_000, seed=20240810, critical=math.nan
            )
            results.append(rep.verdict == "within")
    elapsed = time.perf_counter() - t0
    ok = all(results) and elapsed < 60.0
    check(
        "criterion 3 (covariance sandwich, 8 cells x 1e4 trials)",
        ok,
        f"{sum(results)}/8 within, {elapsed:.1f}s < 60s",
    )


def test_criterion_4_posterior_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240810)
    worst = 0.0
    for _ in range(200):
        model = random_discrete_model(rng)
        steps = int(rng.integers(1, 6))
        xs = rng.integers(0, model.nx, steps).tolist()
        zs = rng.integers(0, model.nz, steps).tolist()
        brute = bruteforce_posterior(xs, zs, model)
        belief = Belief(model.initial.copy(), 0)
        for x, z in zip(xs, zs):
            belief = belief_update(belief_predict(belief, model), x, z, model)
        worst = max(worst, float(np.max(np.abs(belief.probabilities - brute.probabilities))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    check(
        "criterion 4 (recursive vs brute-force posterior, 200 models)",
        ok,
        f"max-abs gap {worst:.2e} < 1e-9, {elapsed:.1f}s < 30s",
    )


def test_criterion_5_filter_theory_consistency():
    gamma0 = 2.0
    fp = float(np.trace(mb_fixed_point(gamma0, STABLE)))

    traj = run_filter(STABLE, BeamPolicy.multibeam(gamma0), 5000, [0.0], [[1.0]], seed=11)
    cov_gap = abs(float(np.trace(traj.covariances[-1])) - fp)

    rep = empirical_block_distortion(
        STABLE,
        BeamPolicy.multibeam(gamma0),
        horizon=5000,
        trials=2000,
        seed=20240810,
        s0_mean=[0.0],
        s0_cov=[[1.0]],
    )
    dist_gap = abs(rep.mean - fp)
    ok = cov_gap < 1e-6 and dist_gap <= 3.0 * rep.std_error
    check(
        "criterion 5 (long-horizon multibeam consistency)",
        ok,
        f"|tr P_5000 - tr fp| = {cov_gap:.1e} < 1e-6; "
        f"|block - tr fp| = {dist_gap:.2e} <= 3*SE = {3 * rep.std_error:.2e}",
    )


def test_criterion_6_endpoint_identities():
    ch175 = ChannelSpec.gaussian(1.75)
    ch20 = ChannelSpec.gaussian(20.0)
    zero_ok = bs_rate(ch175, 1.0) == 0.0 and mb_rate(ch175, 1.0) == 0.0

    formula_ok = True
    for ch, db in ((ch175, 1.75), (ch20, 20.0)):
        reference = 0.5 * math.log(1.0 + 10.0 ** (db / 10.0))
        formula_ok &= abs(mb_rate(ch, math.inf) - reference) <= 1e-12

    pinned_ok = (
        abs(mb_rate(ch175, math.inf) - FULL_RATE_175_DB) <= 1e-6
        and abs(mb_rate(ch20, math.inf) - FULL_RATE_20_DB) <= 1e-6
    )
    ok = zero_ok and formula_ok and pinned_ok
    check(
        "criterion 6 (endpoint identities)",
        ok,
        f"lam=1,g0=1 rates exactly 0: {zero_ok}; formula to 1e-12: {formula_ok}; "
        f"1.75dB={mb_rate(ch175, math.inf):.7f}, 20dB={mb_rate(ch20, math.inf):.7f}",
    )


def test_criterion_7_cli_determinism(tmp_path):
    cfg = {
        "model": {"A": [[-1.15]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]},
        "channel": {"kind": "gaussian", "snr_db": 1.75},
        "lambda_grid": {"start": 0.0, "stop": 1.0, "count": 15},
        "gamma_grid": {"start": 1.0, "stop": 50.0, "count": 12, "spacing": "log"},
        "mc_lambdas": [0.5],
        "distortion_budgets": [1.5],
        "horizon": 15,
        "trials": 150,
        "seed": 99,
        "policy": {"kind": "switching", "value": 0.6},
        "s0_estimate": [0.0],
        "p0": [[1.0]],
        "discrete_model": toy_model_path(),
        "bayes": {"n": 1, "grid_resolution": 0.1, "budgets": [0.4]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    commands = [
        ["riccati", "--config", str(cfg_path)],
        ["rd-curve", "--config", str(cfg_path)],
        ["mc-verify", "--config", str(cfg_path)],
        ["filter-sim", "--config", str(cfg_path)],
        ["bayes", "--config", str(cfg_path)],
        ["reproduce", "fig3"],
    ]
    all_ok = True
    details = []
    for argv in commands:
        name = argv[0] if argv[0] != "reproduce" else "reproduce-fig3"
        d1 = tmp_path / f"{name}_run1"
        d2 = tmp_path / f"{name}_run2"
        assert main(argv + ["--out", str(d1)]) == 0
        assert main(argv + ["--out", str(d2)]) == 0
        files1 = {p.name: p.read_bytes() for p in sorted(d1.iterdir())}
        files2 = {p.name: p.read_bytes() for p in sorted(d2.iterdir())}
        same = files1 == files2 and len(files1) > 0
        all_ok &= same
        details.append(f"{name}={'ok' if same else 'DIFFERS'}")
    check("criterion 7 (CLI rerun byte-identity)", all_ok, ", ".join(details))


def test_matrix_6x6_rd_curve(tmp_path):
    """rd-curve end to end on a seeded 6x6 model over a Gaussian channel,
    whose multi-beam policy steps solve by doubling: every finite multi-beam
    point is within 1e-9 of scipy's DARE, and the inner curve at lam = 1
    equals the multi-beam point at gamma = 1 bit for bit, the lam = 1
    identity V-bar(1) = multi-beam steady state at gamma = 1."""
    cfg = {
        "seed": 1,
        "model": seeded_6x6_model(),
        "channel": {"kind": "gaussian", "snr_db": 1.75},
        "lambda_grid": {"start": 0.0, "stop": 1.0, "count": 41},
        "gamma_grid": {"start": 1.0, "stop": 1e4, "count": 40, "spacing": "log"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["rd-curve", "--config", str(cfg_path), "--out", str(out)]) == 0
    model = GaussMarkovModel(**cfg["model"])
    assert model.m == 6 and model.rho > 1.0
    mb = read_curve_csv(out / "mb_curve.csv")
    finite = [(gamma, dist) for gamma, _, dist, _, ok in mb if ok]
    assert len(finite) == len(mb) == 40
    gaps = [abs(dist - np.trace(dare(model, gamma))) / np.trace(dare(model, gamma)) for gamma, dist in finite]
    check("6x6 multi-beam points vs DARE", max(gaps) <= 1e-9, f"max relative gap {max(gaps):.2e}")

    def lam_one_rows(name, kind):
        rows = (out / name).read_text().split("\n")
        return [row for row in rows if row.startswith("1.0,") and row.split(",")[3] == kind]

    (inner,), (at_one,) = lam_one_rows("bs_curve.csv", "inner"), lam_one_rows("mb_curve.csv", "exact")
    same = inner.split(",")[2] == at_one.split(",")[2]
    check("6x6 lam = 1 identity (bit for bit)", same, f"inner {inner!r}, multi-beam {at_one!r}")
