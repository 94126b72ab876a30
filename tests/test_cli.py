import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import jcas_lab
from jcas_lab.cli import main
from jcas_lab.errors import EnumerationLimitError

from conftest import toy_model_path


def write_config(path, **overrides):
    cfg = {
        "model": {"A": [[-1.15]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]},
        "channel": {"kind": "gaussian", "snr_db": 1.75},
        "lambda_grid": {"start": 0.0, "stop": 1.0, "count": 21},
        "gamma_grid": {"start": 1.0, "stop": 100.0, "count": 15, "spacing": "log"},
        "mc_lambdas": [0.5, 0.9],
        "distortion_budgets": [1.0, 3.0],
        "horizon": 20,
        "trials": 200,
        "seed": 4242,
        "policy": {"kind": "switching", "value": 0.7},
        "s0_estimate": [0.0],
        "p0": [[1.0]],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def read_dir_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def unstamped(d):
    """Every output file's lines, less the stamp line carrying the config hash."""
    return {
        name: [line for line in data.decode().splitlines() if "config_hash=" not in line]
        for name, data in read_dir_bytes(d).items()
    }


MODEL_KEYS = ("model.A", "model.C", "model.Q", "model.R")


def grid_keys(*grids):
    return tuple(f"{grid}.{part}" for grid in grids for part in ("start", "stop", "count"))


#: every numeric config key each subcommand reads; the grids as start/stop/count objects
NUMERIC_KEYS = {
    "riccati": (*MODEL_KEYS, *grid_keys("lambda_grid"), "distortion_budgets", "seed"),
    "rd-curve": (
        *MODEL_KEYS, "channel.snr_db", "channel.c0", *grid_keys("lambda_grid", "gamma_grid"),
        "dominance_grid_points", "seed",
    ),
    "mc-verify": (*MODEL_KEYS, "mc_lambdas", "horizon", "trials", "seed"),
    "filter-sim": (*MODEL_KEYS, "policy.value", "horizon", "s0_estimate", "p0", "seed"),
    "bayes": ("bayes.n", "bayes.grid_resolution", "bayes.budgets", "bayes.trace_len", "seed"),
}


def with_nan(value):
    """value with NaN for a number, for the first entry of a list, and for the
    first entry of a matrix's first row."""
    return [with_nan(value[0]), *value[1:]] if isinstance(value, list) else math.nan


#: the benchmark 2x2 model (unstable, one output)
BENCH_2X2 = {
    "model": {"A": [[1.05, 0.2], [0.0, 0.9]], "C": [[1.0, 0.0]], "Q": [[0.1, 0.0], [0.0, 0.1]], "R": [[0.5]]},
    "s0_estimate": [0.0, 0.0],
    "p0": [[1.0, 0.0], [0.0, 1.0]],
}


class TestSubcommands:
    def test_reproduce_fig4_counts_every_file(self, tmp_path, capsys):
        # the count printed is the count written, fig4_summary.txt included
        assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
        printed = int(capsys.readouterr().out.split("fig4: wrote ")[1].split()[0])
        written = [path for path in tmp_path.iterdir() if path.name.startswith("fig4_")]
        assert printed == len(written) == 17

    def test_back_to_back_calls_share_one_parser(self, tmp_path):
        # main parses every call with the parser built once per process;
        # each call still gets its own namespace, so a flag of one call
        # does not reach the next
        import jcas_lab.cli as cli

        cfg = str(write_config(tmp_path / "cfg.json"))
        runs = {
            "seeded": ["filter-sim", "--config", cfg, "--seed", "7"],
            "riccati": ["riccati", "--config", cfg, "--strict"],
            "default": ["filter-sim", "--config", cfg],
            "fig3": ["reproduce", "fig3"],
        }
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
        assert cli.build_parser() is cli.build_parser()
        seeded, default = ((tmp_path / name / "trajectory.csv").read_text() for name in ("seeded", "default"))
        assert "seed=7" in seeded.split("\n")[0] and "seed=4242" in default.split("\n")[0]
        assert seeded != default
        assert sorted(p.name for p in (tmp_path / "riccati").iterdir()) == [
            "riccati_fixed_points.csv", "riccati_thresholds.csv",
        ]
        assert (tmp_path / "fig3" / "fig3_summary.txt").exists()

    def test_riccati_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["riccati", "--config", str(cfg), "--out", str(out)]) == 0
        fixed = (out / "riccati_fixed_points.csv").read_text().strip().split("\n")
        assert fixed[0].startswith("# jcas-lab v")
        assert "config_hash=" in fixed[0] and "seed=4242" in fixed[0]
        assert fixed[1] == "lambda,tr_sbar,tr_vbar"
        assert len(fixed) == 2 + 21
        thresholds = (out / "riccati_thresholds.csv").read_text()
        assert "lambda_c=" in thresholds

    def test_riccati_infeasible_budgets_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", distortion_budgets=[0.05])
        out = tmp_path / "out"
        assert main(["riccati", "--config", str(cfg), "--out", str(out)]) == 0
        body = (out / "riccati_thresholds.csv").read_text()
        assert "infeasible,infeasible,infeasible" in body

    def test_riccati_strict_infeasible_exit_4(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", distortion_budgets=[0.05])
        assert main(["riccati", "--config", str(cfg), "--out", str(tmp_path / "o"), "--strict"]) == 4

    def test_rd_curve_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["rd-curve", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("bs_curve.csv", "mb_curve.csv", "dominance_mb_vs_bs_inner.csv"):
            assert (out / name).exists(), name
        header = (out / "bs_curve.csv").read_text().split("\n")[1]
        assert header == "param,rate_nats,distortion,bound_kind,finite"

    def test_rd_curve_noiseless_skips_mb(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", channel={"kind": "noiseless", "c0": 1.0})
        out = tmp_path / "out"
        assert main(["rd-curve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "bs_curve.csv").exists()
        assert not (out / "mb_curve.csv").exists()

    def test_mc_verify_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["mc-verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "mc_reports.csv").read_text().strip().split("\n")
        assert len(rows) == 2 + 2
        assert all("within" in r for r in rows[2:])
        assert (out / "mc_steps_000.csv").exists()
        assert (out / "mc_steps_001.csv").exists()

    def test_mc_verify_single_trial_flagged(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", trials=1, mc_lambdas=[0.5])
        out = tmp_path / "out"
        assert main(["mc-verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert "no variance estimate" in (out / "mc_reports.txt").read_text()

    def test_filter_sim_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["filter-sim", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[1] == "i,s0,z_present,z0,gamma,shat0,d_i"
        assert len(lines) == 2 + 21

    @pytest.mark.parametrize(
        "policy, seed",
        [({"kind": "switching", "value": 0.3}, seed) for seed in (4, 6, 8)]
        + [({"kind": "multibeam", "value": "inf"}, 1)],
    )
    def test_filter_sim_z_columns_without_arrivals(self, tmp_path, policy, seed):
        # no measurement arrives in these runs; the z columns still follow model.k
        model = {"A": [[-0.95]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]}
        cfg = write_config(tmp_path / "cfg.json", model=model, policy=policy, horizon=3, seed=seed)
        out = tmp_path / "out"
        assert main(["filter-sim", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[1] == "i,s0,z_present,z0,gamma,shat0,d_i"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4 and all(row[2] == "0" and row[3] == "" for row in rows)

    def test_filter_sim_2x2_z_columns_follow_model_k(self, tmp_path):
        model = dict(BENCH_2X2["model"], C=[[1.0, 0.0], [0.0, 1.0]], R=[[0.5, 0.0], [0.0, 0.5]])
        policy = {"kind": "multibeam", "value": "inf"}
        cfg = write_config(tmp_path / "cfg.json", **dict(BENCH_2X2, model=model), policy=policy, horizon=2)
        assert main(["filter-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "trajectory.csv").read_text().strip().split("\n")
        assert lines[1] == "i,s0,s1,z_present,z0,z1,gamma,shat0,shat1,d_i"
        assert all(line.split(",")[3:6] == ["0", "", ""] for line in lines[2:])

    def test_bayes_outputs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            discrete_model=toy_model_path(),
            bayes={"n": 1, "grid_resolution": 0.05, "budgets": [0.3, 0.6], "trace_len": 2},
        )
        out = tmp_path / "out"
        assert main(["bayes", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "max-abs gap" in printed
        gap = float(printed.split("max-abs gap = ")[1].split()[0])
        assert gap < 1e-9
        trade = (out / "bayes_tradeoff.csv").read_text()
        assert "0.3,1," in trade and "0.6,1," in trade
        costs = (out / "bayes_costs.csv").read_text().strip().split("\n")
        assert costs[2] == "0,0.25" and costs[3] == "1,0.5"

    def test_bayes_rate_nondecreasing_in_budget(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            discrete_model=toy_model_path(),
            bayes={"n": 1, "grid_resolution": 0.05, "budgets": [0.26, 0.3, 0.4, 0.6]},
        )
        out = tmp_path / "out"
        assert main(["bayes", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "bayes_tradeoff.csv").read_text().strip().split("\n")[2:]
        rates = [float(r.split(",")[2]) for r in rows]
        assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(rates, rates[1:]))

    def test_bayes_strict_all_infeasible_exit_4(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            discrete_model=toy_model_path(),
            bayes={"n": 1, "grid_resolution": 0.1, "budgets": [0.01]},
        )
        rc = main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o"), "--strict"])
        assert rc == 4


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["riccati", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_json_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "model": [,]\n}')
        assert main(["riccati", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        cfg = json.loads(cfg_path.read_text())
        del cfg["seed"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["mc-verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_empty_lambda_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", lambda_grid=[])
        assert main(["rd-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", ("linear", "log"))
    def test_huge_grid_count_refused_before_allocation(self, tmp_path, capsys, monkeypatch, spacing):
        import numpy as np

        def no_alloc(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "linspace", no_alloc)
        monkeypatch.setattr(np, "geomspace", no_alloc)
        grid = {"start": 1.0, "stop": 2.0, "count": 10**15, "spacing": spacing}
        cfg = write_config(tmp_path / "cfg.json", lambda_grid=grid)
        assert main(["riccati", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "lambda_grid" in err and "count" in err

    @pytest.mark.parametrize("count", (2.5, "21", True, 0, -3.0, 10**400))
    def test_bad_grid_count(self, tmp_path, capsys, count):
        grid = {"start": 1.0, "stop": 100.0, "count": count, "spacing": "log"}
        cfg = write_config(tmp_path / "cfg.json", gamma_grid=grid)
        assert main(["rd-curve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "gamma_grid" in err and "count" in err

    @pytest.mark.parametrize("spacing", ("Log", 5, None))
    def test_unknown_spacing_names_key(self, tmp_path, capsys, spacing):
        grid = {"start": 1.0, "stop": 100.0, "count": 15, "spacing": spacing}
        cfg = write_config(tmp_path / "cfg.json", gamma_grid=grid)
        assert main(["rd-curve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "gamma_grid.spacing must be 'linear' or 'log'" in capsys.readouterr().err

    @pytest.mark.parametrize("start, stop", ((0.0, 100.0), (-1.0, 1.0), (1.0, -5.0)))
    def test_log_grid_needs_positive_endpoints(self, tmp_path, capsys, start, stop):
        grid = {"start": start, "stop": stop, "count": 3, "spacing": "log"}
        cfg = write_config(tmp_path / "cfg.json", gamma_grid=grid)
        assert main(["rd-curve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "gamma_grid: a log grid needs positive start and stop" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("riccati", "distortion_budgets", [0.5, -1.0]),
            ("riccati", "lambda_grid", [0.5, 1.5]),
            ("mc-verify", "mc_lambdas", [0.5, 1.5]),
            ("rd-curve", "gamma_grid", [0.5, 2.0]),
            ("rd-curve", "lambda_grid", [-0.5, 0.5]),
        ],
    )
    def test_library_range_refusal_names_key_before_any_file(self, tmp_path, capsys, command, key, value):
        # the library tests the range; the refusal names the key and comes
        # before the first output file is written
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key '{key}': " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, key, overrides",
        [
            ("filter-sim", "policy.value", {"policy": {"kind": "switching", "value": 1.5}}),
            ("filter-sim", "policy.value", {"policy": {"kind": "multibeam", "value": 0.5}}),
            ("filter-sim", "p0", {"p0": [[-1.0]]}),
            ("filter-sim", "p0", {"p0": [[1.0, 0.0], [0.0, 1.0]]}),
            ("filter-sim", "s0_estimate", {"s0_estimate": [0.0, 0.0]}),
            ("rd-curve", "channel.c0", {"channel": {"kind": "noiseless", "c0": -1.0}}),
            ("rd-curve", "channel.snr_db", {"channel": {"kind": "gaussian", "snr_db": math.inf}}),
            ("bayes", "bayes.grid_resolution", {"bayes": {"n": 1, "grid_resolution": 2.0, "budgets": [0.4]}}),
            ("bayes", "bayes.n", {"bayes": {"n": 5, "budgets": [0.4]}}),
        ],
    )
    def test_library_refusal_names_key(self, tmp_path, capsys, command, key, overrides):
        # refusals from library constructors and checks, not from the
        # config reader; json.dumps writes math.inf as Infinity
        cfg = write_config(tmp_path / "cfg.json", discrete_model=toy_model_path(), **overrides)
        out = tmp_path / "o"
        out.mkdir()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["riccati", "--config", str(cfg), "--out", str(taken)]) == 2
        assert str(taken) in capsys.readouterr().err
        assert main(["reproduce", "fig3", "--out", str(taken / "sub")]) == 2
        assert str(taken / "sub") in capsys.readouterr().err

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        (tmp_path / "o" / "trajectory.csv").mkdir(parents=True)
        assert main(["filter-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(tmp_path / "o" / "trajectory.csv") in err

    def test_bayes_model_naming_a_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(tmp_path))
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "discrete_model" in err and str(tmp_path) in err

    @pytest.mark.parametrize("seed", ("-1", str(2**64), str(2**64 + 1)))
    @pytest.mark.parametrize("command", ("filter-sim", "reproduce"))
    def test_seed_flag_out_of_range_names_flag(self, tmp_path, capsys, command, seed):
        argv = ["reproduce", "fig3"]
        if command != "reproduce":
            argv = [command, "--config", str(write_config(tmp_path / "cfg.json"))]
        assert main(argv + [f"--seed={seed}", "--out", str(tmp_path / "o")]) == 2
        assert f"--seed must lie in [0, {2**64 - 1}], got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_range_ends_accepted(self, tmp_path):
        for seed in (0, 2**64 - 1):
            out = tmp_path / str(seed)
            assert main(["reproduce", "fig3", "--seed", str(seed), "--out", str(out)]) == 0
            assert f"seed={seed}" in (out / "fig3_summary.txt").read_text()

    def test_integral_float_count_accepted(self, tmp_path):
        out = {}
        for count in (21, 21.0):
            grid = {"start": 0.0, "stop": 1.0, "count": count}
            cfg = write_config(tmp_path / "cfg.json", lambda_grid=grid, seed=7)
            assert main(["riccati", "--config", str(cfg), "--out", str(tmp_path / str(count))]) == 0
            fixed = (tmp_path / str(count) / "riccati_fixed_points.csv").read_text()
            out[count] = fixed.split("\n", 1)[1]
        assert out[21] == out[21.0]

    def test_bayes_malformed_model_names_row(self, tmp_path, capsys):
        bad_model = tmp_path / "bad_model.txt"
        text = open(toy_model_path()).read().replace(
            "1 0 : 0.0 0.0 0.5 0.5", "1 0 : 0.0 0.0 0.5 0.4"
        )
        bad_model.write_text(text)
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(bad_model))
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "(x=1, s=0)" in capsys.readouterr().err

    def test_bayes_duplicate_row_names_line(self, tmp_path, capsys):
        lines = open(toy_model_path()).read().splitlines()
        at = lines.index("0 0 : 0.5 0.0 0.5 0.0")
        lines.insert(at + 1, lines[at])
        bad_model = tmp_path / "dup_model.txt"
        bad_model.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(bad_model))
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"line {at + 2}: duplicate channel row (x=0, s=0)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alphabets, message",
        [
            ("X = 1000\nS = 1000\nZ = 1000\nY = 1000", "line 2: alphabet sizes give 1000000000000 channel"),
            ("X = 7\nX = 2\nS = 2\nZ = 2\nY = 2", "line 3: duplicate alphabet X"),
            ("W = 3\nX = 2\nS = 2\nZ = 2\nY = 2", "line 2: unknown alphabet 'W'"),
            ("X = 1\nS = 1001\nZ = 1\nY = 1", "line 3: alphabet sizes give 1002001 |S| x |S| table"),
        ],
    )
    def test_bayes_bad_alphabets_exit_2(self, tmp_path, capsys, alphabets, message):
        text = open(toy_model_path()).read()
        body = text[text.index("[channel]"):]
        bad_model = tmp_path / "alphabets.txt"
        bad_model.write_text(f"[alphabets]\n{alphabets}\n{body}")
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(bad_model))
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("bayes", "bayes", 3),
            ("riccati", "distortion_budgets", 2.0),
            ("riccati", "model", 5),
            ("riccati", "model", {"A": [[-1.15]], "C": [[1.0]], "Q": [[0.2]], "R": {"r": 1.5}}),
            ("riccati", "model", {"A": [[{}]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]}),
            ("rd-curve", "channel", "x"),
            ("filter-sim", "policy", 3),
            ("mc-verify", "horizon", [5]),
            ("riccati", "seed", [1]),
        ],
    )
    def test_wrong_value_type_names_key(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path / "cfg.json", discrete_model=toy_model_path(), **{key: value})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        # a bad matrix entry names the matrix: 'model.A'
        assert re.search(rf"config key '{key}(\.[ACQR])?' must", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "matrix, entry, shown",
        [
            ("A", math.nan, "NaN"),
            ("Q", math.inf, "Infinity"),
            ("R", 10**400, "1" + "0" * 400),
            ("A", True, "true"),
            ("C", "1", '"1"'),
        ],
        ids=["nan", "inf", "huge-int", "bool", "string"],
    )
    def test_bad_model_entry_names_matrix(self, tmp_path, capsys, matrix, entry, shown):
        model = {"A": [[-1.15]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]}
        model[matrix] = [[entry]]
        cfg = write_config(tmp_path / "cfg.json", model=model)
        assert main(["riccati", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config key 'model.{matrix}' must" in err and shown in err

    @pytest.mark.parametrize(
        "command, key",
        [
            ("filter-sim", "seed"),
            ("filter-sim", "horizon"),
            ("mc-verify", "horizon"),
            ("mc-verify", "trials"),
            ("rd-curve", "dominance_grid_points"),
            ("bayes", "bayes.n"),
            ("bayes", "bayes.trace_len"),
        ],
    )
    @pytest.mark.parametrize("value", ["1e400", "NaN", "2.5", "-1", "1" + "0" * 400, "true", '"3"'])
    def test_bad_integer_names_key(self, tmp_path, capsys, command, key, value):
        # the raw JSON text: 1e400 parses as inf, 1000...0 as a Python int past the float range
        bayes = {"n": 1, "grid_resolution": 0.5, "budgets": [0.4], "trace_len": 1}
        cfg = write_config(tmp_path / "cfg.json", discrete_model=toy_model_path(), bayes=bayes)
        text = json.loads(cfg.read_text())
        section, _, name = key.rpartition(".")
        (text[section] if section else text)[name] = "@BAD@"
        cfg.write_text(json.dumps(text).replace('"@BAD@"', value))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}' must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command, keys in NUMERIC_KEYS.items() for key in keys]
    )
    def test_nan_names_key(self, tmp_path, capsys, command, key):
        # json.dumps writes math.nan as the literal NaN, which json.loads reads back
        bayes = {"n": 1, "grid_resolution": 0.5, "budgets": [0.4], "trace_len": 1}
        cfg = json.loads(
            write_config(
                tmp_path / "base.json", discrete_model=toy_model_path(), bayes=bayes, dominance_grid_points=5
            ).read_text()
        )
        if key == "channel.c0":
            cfg["channel"] = {"kind": "noiseless", "c0": 1.0}
        section, _, name = key.rpartition(".")
        owner = cfg[section] if section else cfg
        owner[name] = with_nan(owner[name])
        path = write_config(tmp_path / "cfg.json", **cfg)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}' must" in capsys.readouterr().err

    def test_bayes_missing_model_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(tmp_path / "ghost.txt"))
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "does not exist" in capsys.readouterr().err

    @staticmethod
    def uniform_model(tmp_path, nx, ns, nz):
        """A model file on the given alphabets, |Y| = 1, every table uniform."""
        row = " ".join([repr(1.0 / nz)] * nz)
        channel = "\n".join(f"{x} {s} : {row}" for x in range(nx) for s in range(ns))
        states = " ".join([repr(1.0 / ns)] * ns)
        markov = "\n".join(f"{s} : {states}" for s in range(ns))
        distortion = "\n".join(f"{s} : " + " ".join(["1.0"] * ns) for s in range(ns))
        path = tmp_path / "uniform.txt"
        path.write_text(
            f"[alphabets]\nX = {nx}\nS = {ns}\nZ = {nz}\nY = 1\n[channel]\n{channel}\n"
            f"[markov]\n{markov}\n[initial]\n{states}\n[distortion]\n{distortion}\n"
        )
        return path

    @pytest.mark.parametrize(
        "key, steps, entries",
        [("bayes.trace_len", 5, None), ("bayes.trace_len", 6, 1594323),
         ("bayes.n", 5, None), ("bayes.n", 6, 1594323)],
    )
    def test_bayes_tables_bounded_before_any_work(self, tmp_path, monkeypatch, capsys, key, steps, entries):
        # each table's forward pass ends with (|X| |Z|)^steps |S| entries:
        # 9^5 * 3 = 177147 pass, 9^6 * 3 do not
        import jcas_lab.bayes as bayes

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
            yield

        monkeypatch.setattr(bayes, "_forward_pass", reached)
        bayes_cfg = {"n": 1, "trace_len": 1, key.split(".")[1]: steps}
        model = self.uniform_model(tmp_path, 3, 3, 3)
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(model), bayes=bayes_cfg)
        argv = ["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]
        if entries is None:
            with pytest.raises(Reached):
                main(argv)
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (
            f"config key '{key}' = {steps}: forward pass would end with {entries} entries "
            "(limit 1000000)"
        ) in err
        assert not any((tmp_path / "o").iterdir())

    def test_one_bound_for_every_pass(self, tmp_path, monkeypatch, capsys):
        # |X| = 2, |S| = |Z| = 3 under a bound of 108 entries: every pass
        # over two steps of both inputs (6^2 * 3 = 108 entries) fits and
        # every pass over three (648) is refused, by the library calls and
        # by both CLI tables alike; one sequence fits up to 3^3 * 3 = 81
        import jcas_lab.bayes as bayes

        monkeypatch.setattr(bayes, "MAX_CHANNEL_ENTRIES", 108)
        path = self.uniform_model(tmp_path, 2, 3, 3)
        model = bayes.load_discrete_model(path)
        refused = "forward pass would end with 648 entries (limit 108)"
        assert len(bayes.sequence_costs([range(2)] * 2, model)) == 4
        assert bayes.bruteforce_open_loop_tradeoff(model, 1.0, 2, 1.0).feasible
        assert bayes.sensing_cost([0] * 3, model) == pytest.approx(1.0, abs=1e-15)
        for refuse in (
            lambda: bayes.sequence_costs([range(2)] * 3, model),
            lambda: bayes.bruteforce_open_loop_tradeoff(model, 1.0, 3, 1.0),
        ):
            with pytest.raises(EnumerationLimitError, match=re.escape(refused)):
                refuse()
        with pytest.raises(EnumerationLimitError, match=re.escape("end with 243 entries (limit 108)")):
            bayes.sensing_cost([0] * 4, model)
        for key in ("n", "trace_len"):
            for steps, code in ((2, 0), (3, 2)):
                out = tmp_path / f"{key}{steps}"
                bayes_cfg = {"n": 1, "trace_len": 1, key: steps}
                cfg = write_config(tmp_path / "cfg.json", discrete_model=str(path), bayes=bayes_cfg)
                assert main(["bayes", "--config", str(cfg), "--out", str(out)]) == code
            assert f"config key 'bayes.{key}' = 3: {refused}" in capsys.readouterr().err
            assert not any(out.iterdir())

    @pytest.mark.parametrize("trace_len, code", [(1, 2), (0, 0)])
    def test_bayes_posterior_enumeration_bound(self, tmp_path, capsys, trace_len, code):
        # the posterior table's oracle enumerates |S| <= 5 states; with six,
        # a posterior table with traces is refused before any file is written
        model = self.uniform_model(tmp_path, 2, 6, 2)
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(model), bayes={"trace_len": trace_len})
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        written = sorted(f.name for f in (tmp_path / "o").iterdir())
        if code == 2:
            assert (
                "config key 'bayes.trace_len' = 1: exact enumeration limited to |S| <= 5, steps <= 8"
                in capsys.readouterr().err
            )
            assert written == []
        else:
            assert written == ["bayes_costs.csv", "bayes_posteriors.csv", "bayes_tradeoff.csv"]

    def test_bayes_grid_refused_before_it_is_built(self, tmp_path, capsys):
        # |X| = 40 at resolution 0.05: C(59, 20), about 2.8e15 grid points
        model = self.uniform_model(tmp_path, 40, 1, 1)
        bayes = {"n": 1, "grid_resolution": 0.05, "budgets": [0.5], "trace_len": 1}
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(model), bayes=bayes)
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"grid search would visit {math.comb(59, 20)} combinations" in capsys.readouterr().err
        assert not any((tmp_path / "o").iterdir())

    def test_bayes_search_steps_refused_before_any_table(self, tmp_path, capsys):
        # the tradeoff search supports n in 1..3; with budgets, n = 4 is
        # refused before the posterior and cost tables are written
        bayes = {"n": 4, "budgets": [0.3], "trace_len": 1}
        cfg = write_config(tmp_path / "cfg.json", discrete_model=toy_model_path(), bayes=bayes)
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "grid search supports n in 1..3, got 4" in capsys.readouterr().err
        assert not any((tmp_path / "o").iterdir())
        # without budgets no search runs, so n = 4 only sizes the cost table
        cfg = write_config(tmp_path / "cfg.json", discrete_model=toy_model_path(), bayes=dict(bayes, budgets=[]))
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert sorted(f.name for f in (tmp_path / "o").iterdir()) == [
            "bayes_costs.csv", "bayes_posteriors.csv", "bayes_tradeoff.csv"
        ]

    def test_bayes_possible_trace_dead_in_the_pass_exit_2(self, tmp_path, monkeypatch, capsys):
        import jcas_lab.cli as cli

        def dead_pass(levels, model):
            for belief, weight in forward_messages(levels, model):
                yield np.zeros_like(belief), np.zeros_like(weight)

        forward_messages = cli.forward_messages
        monkeypatch.setattr(cli, "forward_messages", dead_pass)
        cfg = write_config(tmp_path / "cfg.json", discrete_model=toy_model_path())
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "forward pass rules out possible trace x=(0,) z=(0,)" in capsys.readouterr().err

    def test_numerical_error_exit_3_shows_condition(self, tmp_path, monkeypatch, capsys):
        import jcas_lab.cli as cli
        from jcas_lab.errors import NumericalError

        def singular(*args, **kwargs):
            raise NumericalError("innovation covariance is singular", condition=1.5e17)

        monkeypatch.setattr(cli, "critical_lambda", singular)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["riccati", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "innovation covariance is singular" in err
        assert "condition number: 1.5e+17" in err

    def test_unknown_flag_fails(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["riccati", "--config", "x.json", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ("rd-curve", "mc-verify", "filter-sim", "reproduce fig3"))
    def test_strict_only_where_read(self, tmp_path, command):
        # only riccati and bayes read --strict; the others refuse it
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--config", "x.json", "--out", str(tmp_path), "--strict"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["riccati", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--seed", "--out", "--strict"):
            assert flag in text


class TestUnknownKeys:
    def test_unknown_keys_warn(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            fixed_point_po=[[1.0]],
            fixed_point_p0=[[1.0]],
            dominance_grid_point=10,
            discrete_model=toy_model_path(),
            bayes={"n": 1, "budget": [0.4]},
        )
        for command in ("riccati", "bayes"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
            err = capsys.readouterr().err
            # fixed_point_p0 is no longer read: fixed points do not depend on a start
            for key in ("fixed_point_po", "fixed_point_p0", "dominance_grid_point", "bayes.budget"):
                assert f"unknown config key '{key}'" in err

    def test_known_keys_do_not_warn(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            dominance_grid_points=10,
            out_dir=str(tmp_path / "o"),
            discrete_model=toy_model_path(),
            bayes={"n": 1, "grid_resolution": 0.5, "budgets": [0.4], "trace_len": 1},
        )
        for command in ("riccati", "rd-curve", "mc-verify", "filter-sim", "bayes"):
            assert main([command, "--config", str(cfg)]) == 0
            assert "warning" not in capsys.readouterr().err

    def test_warning_writes_nothing_to_outputs(self, tmp_path):
        # reruns stay byte-identical, and only the stamped config hash
        # differs from a run without the unknown key
        plain = write_config(tmp_path / "plain.json")
        typo = write_config(tmp_path / "typo.json", fixed_point_po=[[1.0]])
        for run, cfg in (("plain", plain), ("a", typo), ("b", typo)):
            assert main(["riccati", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        assert read_dir_bytes(tmp_path / "a") == read_dir_bytes(tmp_path / "b")
        assert unstamped(tmp_path / "a") == unstamped(tmp_path / "plain")

    def test_unknown_nested_keys_warn(self, tmp_path, capsys):
        plain = write_config(tmp_path / "plain.json")
        cfg = json.loads(plain.read_text())
        cfg["model"]["extra"] = 1
        cfg["channel"]["snrdb"] = 3.0
        cfg["policy"]["lam"] = 0.5
        cfg["lambda_grid"]["step"] = 0.05
        cfg["gamma_grid"]["spaceing"] = "log"
        typo = tmp_path / "typo.json"
        typo.write_text(json.dumps(cfg))
        for command in ("rd-curve", "filter-sim"):
            assert main([command, "--config", str(plain), "--out", str(tmp_path / f"plain-{command}")]) == 0
            assert "warning" not in capsys.readouterr().err
            assert main([command, "--config", str(typo), "--out", str(tmp_path / command)]) == 0
            err = capsys.readouterr().err
            for key in ("model.extra", "channel.snrdb", "policy.lam", "lambda_grid.step", "gamma_grid.spaceing"):
                assert f"unknown config key '{key}'" in err
            assert unstamped(tmp_path / command) == unstamped(tmp_path / f"plain-{command}")


class TestOutputDirResolution:
    def test_env_var_default(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        target = tmp_path / "envout"
        monkeypatch.setenv("JCAS_LAB_OUT", str(target))
        assert main(["filter-sim", "--config", str(cfg)]) == 0
        assert (target / "trajectory.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        monkeypatch.setenv("JCAS_LAB_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "flagged"
        assert main(["filter-sim", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["filter-sim", "--config", str(cfg), "--out", str(out1), "--seed", "7"]) == 0
        assert main(["filter-sim", "--config", str(cfg), "--out", str(out2), "--seed", "7"]) == 0
        assert "seed=7" in (out1 / "trajectory.csv").read_text().split("\n")[0]
        assert read_dir_bytes(out1) == read_dir_bytes(out2)


#: sha256 of trajectory.csv with one generator per draw block, each block
#: drawn time-major (``filtering.draw_generators``), and the estimates and
#: distortions of the simulated error (shat = s - e, d = |e|^2); a change of
#: the draws, of the error recursion or of the covariance step moves them
TRAJECTORY_SHA256 = {
    "scalar_unstable_switching": "27511dc2466037fcfb727962965f5e19f653a042d1b1c08ae4378cb165ff3839",
    "2x2_switching": "43b9f9b5196741680b85210337a2a291b0bfa3e267e45d58b3f151ee7d45ad94",
    "scalar_unstable_switching_5000": "2438e4d83170e25164639407d4c24afcc318bf534f8b3d04a5accfcb4af2a963",
}

TRAJECTORY_CONFIGS = {
    "scalar_unstable_switching": dict(horizon=300),
    "2x2_switching": dict(BENCH_2X2, horizon=300),
    "scalar_unstable_switching_5000": dict(horizon=5000),
}

#: ``dir_sha256`` of whole output directories (the stamp line carries the
#: version); a change that claims byte-identical outputs leaves them alone
OUTPUT_DIR_SHA256 = {
    "reproduce_fig3": "9e393be983489b8fc3f124e85717a2a044f25e0071df182393c79f71ca1ece00",
    "reproduce_fig4": "d24ffa321922a0357158733031c5cce7f2499de6cdf0426bc17c3f179baa17d5",
    "reproduce_fig4_bits": "146a238f6e1769ff3321b7f3671b583b82d7d1f2903a1cb20bd8783307290995",
    "mc_verify_2x2": "ade9c3f8cb077c9ecce6ad90914536fc024868d5b38630a1843aae9f4efb8d5d",
    "mc_verify_scalar_unstable": "8ada7f017397989ab78157d6172818b03c377a0462150af9218f07d87664c662",
    "rd_curve_gaussian_bits": "bfd4bd273946f420cd13737d9f448ba356e1bd5e126490c05b956f8bb03113a6",
    "rd_curve_2x2": "b4922b8d6b7dc27213ea5bcfae8d4d073f082f75e8459fd6a2bada1541463add",
    "rd_curve_noiseless": "64e2fcf538b7b361a772103b543790d91b86b9fe41a649225424b96cc3cc4202",
    "riccati_scalar_unstable": "5841de422c41df207332a080abe3f1e982c7097975b13480da5a7d4b2eff76d3",
    "riccati_2x2": "83b88db36cb1611a4d36d5856ad37a82734a616deae63c2a6f525479881a12f8",
    "bayes_toy": "c0b41b8ead7cb85d2c2c3d6e2260602f3285cddd057c787d1096d78bea9e7557",
}


def dir_sha256(d) -> str:
    """sha256 over every file's name and sha256, in name order."""
    digest = hashlib.sha256()
    for name, data in read_dir_bytes(d).items():
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def output_dir_argv(name, tmp_path):
    if name == "mc_verify_2x2":
        cfg = write_config(tmp_path / "cfg.json", **BENCH_2X2, mc_lambdas=[0.0, 0.3, 0.7, 1.0])
        return ["mc-verify", "--config", str(cfg)]
    if name == "mc_verify_scalar_unstable":
        # the default scalar model at lam = 0.5 and 0.9: masked scalar steps
        return ["mc-verify", "--config", str(write_config(tmp_path / "cfg.json"))]
    if name == "rd_curve_gaussian_bits":
        return ["rd-curve", "--bits", "--config", str(write_config(tmp_path / "cfg.json"))]
    if name == "rd_curve_2x2":
        # both curves and both dominance reports of the matrix path
        return ["rd-curve", "--config", str(write_config(tmp_path / "cfg.json", **BENCH_2X2))]
    if name == "rd_curve_noiseless":
        # beam switching alone: bs_curve.csv is the only file
        cfg = write_config(tmp_path / "cfg.json", channel={"kind": "noiseless", "c0": 1.0})
        return ["rd-curve", "--config", str(cfg)]
    if name == "riccati_scalar_unstable":
        return ["riccati", "--config", str(write_config(tmp_path / "cfg.json"))]
    if name == "riccati_2x2":
        budgets = [0.5, 1.0, 3.0, 10.0, 100.0]
        cfg = write_config(tmp_path / "cfg.json", **BENCH_2X2, distortion_budgets=budgets)
        return ["riccati", "--config", str(cfg)]
    if name == "bayes_toy":
        # a model path relative to the working directory keeps the stamp
        # line, and so the digest, independent of where the package lives
        shutil.copy(toy_model_path(), tmp_path / "toy_model.txt")
        bayes = {"n": 2, "grid_resolution": 0.05, "budgets": [0.3, 0.6], "trace_len": 3}
        cfg = write_config(tmp_path / "cfg.json", discrete_model="toy_model.txt", bayes=bayes)
        return ["bayes", "--config", str(cfg)]
    if name == "reproduce_fig4_bits":
        # the rate_bits column of every preset curve, the gamma = inf rows too
        return ["reproduce", "fig4", "--bits"]
    return ["reproduce", name.split("_")[1]]


@pytest.mark.parametrize("name", sorted(OUTPUT_DIR_SHA256))
def test_output_dir_bytes_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert main(output_dir_argv(name, tmp_path) + ["--out", str(tmp_path / "o")]) == 0
    assert dir_sha256(tmp_path / "o") == OUTPUT_DIR_SHA256[name]


class TestFilterSimOutput:
    @pytest.mark.parametrize("name", ["scalar_unstable_switching", "2x2_switching"])
    def test_trajectory_bytes_pinned(self, tmp_path, name):
        cfg = write_config(tmp_path / "cfg.json", **TRAJECTORY_CONFIGS[name])
        assert main(["filter-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        data = (tmp_path / "o" / "trajectory.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == TRAJECTORY_SHA256[name]

    def test_precision_loss_warns_once(self, tmp_path, capsys):
        # a = -1.15, lam = 0.7: |s_i| grows like 1.15^i while the error stays O(1)
        name = "scalar_unstable_switching_5000"
        cfg = write_config(tmp_path / "cfg.json", **TRAJECTORY_CONFIGS[name])
        assert main(["filter-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert len(warnings) == 1 and "from index" in warnings[0]
        index = int(warnings[0].split("from index ")[1].split()[0])
        assert 50 < index < 500
        assert "recomputed from the written columns" in warnings[0]
        data = (tmp_path / "o" / "trajectory.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == TRAJECTORY_SHA256[name]
        # d_i comes from the simulated error, so none rounds to 0
        rows = data.decode().splitlines()[2:]
        assert len(rows) == 5001 and all(float(row.split(",")[-1]) > 0 for row in rows)

    def test_stable_run_does_not_warn(self, tmp_path, capsys):
        model = {"A": [[-0.95]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]}
        # P_0 = 0: s_0 = shat_0 exactly, which is no loss of precision
        cfg = write_config(tmp_path / "cfg.json", model=model, horizon=5000, p0=[[0.0]])
        assert main(["filter-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "warning" not in capsys.readouterr().err


def test_every_output_file_goes_through_write_lines(tmp_path, monkeypatch):
    import jcas_lab.cli as cli

    written = []

    def recording(path, lines):
        written.append(Path(path))
        original(path, lines)

    original = cli.write_lines
    monkeypatch.setattr(cli, "write_lines", recording)
    cfg = write_config(
        tmp_path / "cfg.json",
        discrete_model=toy_model_path(),
        bayes={"n": 1, "grid_resolution": 0.1, "budgets": [0.4], "trace_len": 1},
    )
    runs = {
        command: [command, "--config", str(cfg)]
        for command in ("riccati", "rd-curve", "mc-verify", "filter-sim", "bayes")
    }
    runs.update({fig: ["reproduce", fig] for fig in ("fig3", "fig4")})
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        files = sorted(out.iterdir())
        assert files, name
        assert files == sorted(p for p in written if p.parent == out), name
    assert len(written) == len(set(written))


def test_every_subcommand_runs_without_scipy(tmp_path):
    """scipy is a test oracle only: no subcommand may import it."""
    cfg = write_config(
        tmp_path / "cfg.json",
        discrete_model=toy_model_path(),
        bayes={"n": 1, "grid_resolution": 0.1, "budgets": [0.4], "trace_len": 1},
    )
    runs = [
        [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        for command in ("riccati", "rd-curve", "mc-verify", "filter-sim", "bayes")
    ] + [["reproduce", fig, "--out", str(tmp_path / fig)] for fig in ("fig3", "fig4")]
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from jcas_lab.cli import main
        for argv in {runs!r}:
            assert main(argv) == 0, argv
        """
    )
    src = str(Path(jcas_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
