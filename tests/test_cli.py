import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import jcas_lab
from jcas_lab.cli import main

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


#: the benchmark 2x2 model (unstable, one output)
BENCH_2X2 = {
    "model": {"A": [[1.05, 0.2], [0.0, 0.9]], "C": [[1.0, 0.0]], "Q": [[0.1, 0.0], [0.0, 0.1]], "R": [[0.5]]},
    "s0_estimate": [0.0, 0.0],
    "p0": [[1.0, 0.0], [0.0, 1.0]],
}


class TestSubcommands:
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

    def test_bayes_missing_model_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", discrete_model=str(tmp_path / "ghost.txt"))
        assert main(["bayes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_convergence_error_exit_3(self, tmp_path, monkeypatch, capsys):
        import jcas_lab.cli as cli
        from jcas_lab.errors import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("stuck", trace_tail=[0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])

        monkeypatch.setattr(cli, "critical_lambda", boom)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["riccati", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert "stuck" in err
        assert "last 5 of 6 step sizes: 0.25, 0.125, 0.0625, 0.03125, 0.015625" in err

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
#: drawn time-major (``filtering.draw_generators``); a change of the draws
#: moves them
TRAJECTORY_SHA256 = {
    "scalar_unstable_switching": "08e78678f653705233505349f5eeffb9d03dac22c1289041149094107ff3be14",
    "2x2_switching": "000ac90f1d4183a295cc6b6e2c36e44dedb24f83b9c36525c2bcd3c0618345b1",
    "scalar_unstable_switching_5000": "55a3804aa3d2d4205702f394e31bc6c9f39a89bc6921e96346f9e7d8ea3748df",
}

TRAJECTORY_CONFIGS = {
    "scalar_unstable_switching": dict(horizon=300),
    "2x2_switching": dict(BENCH_2X2, horizon=300),
    "scalar_unstable_switching_5000": dict(horizon=5000),
}


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
        data = (tmp_path / "o" / "trajectory.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == TRAJECTORY_SHA256[name]

    def test_stable_run_does_not_warn(self, tmp_path, capsys):
        model = {"A": [[-0.95]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]}
        # P_0 = 0: s_0 = shat_0 exactly, which is no loss of precision
        cfg = write_config(tmp_path / "cfg.json", model=model, horizon=5000, p0=[[0.0]])
        assert main(["filter-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "warning" not in capsys.readouterr().err


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
