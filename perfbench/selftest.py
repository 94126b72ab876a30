"""Fast self-checks of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/selftest.py

1. Each workload at tiny size prints, as its last line, the end-to-end
   metrics of BENCHMARK.json (``--trace 0``) or the per-layer ones
   (``--trace 1``), with the same units.
2. Each job's oracle accepts the tiny run's output and rejects a perturbed
   copy of it.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

The file name keeps it out of pytest's collection, so the test suite does
not pay for it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_printed_metrics(spec: dict) -> list:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                             "--trace", trace, "--tiny")
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{label}: attempted {result['attempted']}, correct {result['correct']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[(n, got[n]) for n in want if n in got and got[n] != want[n]]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{label}: {name} = {m['value']!r}")
    return problems


# -- perturbations: each returns a copy of a job result that is wrong -------

def edit_file(res, tmp: Path, name: str, edit):
    out = tmp / f"perturbed-{name}"
    shutil.copytree(res.out, out)
    path = out / name
    path.write_text(edit(path.read_text()))
    return workloads.CliOutput(res.code, out)


def bump_csv_distortion(text: str) -> str:
    """Scale the distortion of the first finite curve row by 1 + 1e-8."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) >= 5 and cells[4] == "1" and not line.startswith("#"):
            cells[2] = repr(float(cells[2]) * (1.0 + 1e-8))
            lines[i] = ",".join(cells)
            break
    return "\n".join(lines) + "\n"


def bump_lambda_c(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith("unstable,"):
            cells = line.split(",")
            cells[1] = repr(float(cells[1]) + 1e-4)
            line = ",".join(cells)
        elif line.startswith("# lambda_c="):
            line = f"# lambda_c={float(line.split('=')[1]) + 1e-4!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def bump_points(points, factor):
    last = points[-1]
    return points[:-1] + [dataclasses.replace(last, distortion=last.distortion * factor)]


def bump_vbar1(result):
    inner, outer = result
    inner = [dataclasses.replace(p, distortion=p.distortion * (1 + 1e-6)) if p.param == 1.0 else p
             for p in inner]
    return inner, outer


def shift_mc(rep):
    return dataclasses.replace(
        rep, empirical_mean_trace=rep.v_bound_trace + 10.0 * rep.std_error + 1.0
    )


def shift_block(rep):
    return dataclasses.replace(rep, mean=rep.mean + 10.0 * rep.std_error + 10.0)


def bump_costs(costs):
    key = next(iter(costs))
    return {**costs, key: costs[key] + 1e-6}


PERTURB = {
    "reproduce_fig3": lambda r, t: edit_file(r, t, "fig3_summary.txt", bump_lambda_c),
    "reproduce_fig4": lambda r, t: edit_file(r, t, "fig4_stable_snr20db_mb.csv", bump_csv_distortion),
    "riccati_cmd": lambda r, t: edit_file(r, t, "riccati_thresholds.csv", bump_lambda_c),
    "rd_curve_cmd": lambda r, t: edit_file(r, t, "mb_curve.csv", bump_csv_distortion),
    "critical_lambda_2x2": lambda r, t: r + 0.05,
    "bs_curve_2x2": lambda r, t: bump_vbar1(r),
    "mb_curve_2x2": lambda r, t: bump_points(r, 1 + 1e-6),
    "mb_curve_8x8": lambda r, t: bump_points(r, 1 + 1e-6),
    "thresholds_2x2_D1": lambda r, t: (r[0] + 1e-2, r[1], r[2]),
    "thresholds_2x2_D3": lambda r, t: (r[0], r[1], r[2] * math.exp(0.05)),
    "block_stable_multibeam": lambda r, t: shift_block(r),
    "block_unstable_switching": lambda r, t: shift_block(r),
    "block_2x2_switching": lambda r, t: shift_block(r),
    "sensing_cost_n5": lambda r, t: bump_costs(r),
    "sensing_cost_toy": lambda r, t: bump_costs(r),
    "search_feasible": lambda r, t: dataclasses.replace(r, rate=r.rate + 1e-6),
    "search_infeasible": lambda r, t: dataclasses.replace(r, feasible=True),
    "posterior_traces": lambda r, t: r[:-1] + [(r[-1][0] + 1e-6, r[-1][1])],
}


def check_oracles(tmp: Path) -> list:
    problems = []
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, tmp / name, tiny=True)
        known = workloads.KNOWN_DEFECTS.get(name, {})
        for job in wl.jobs:
            result = job.run()
            found = job.check(result)
            if found and job.name not in known:
                problems.append(f"{job.name}: oracle rejects the tiny run: {found[:2]}")
            perturb = PERTURB.get(job.name, lambda r, t: shift_mc(r))  # the mc_* cells
            if not job.check(perturb(result, tmp)):
                problems.append(f"{job.name}: oracle accepts a perturbed result")
    return problems


def check_empty_checkout(tmp: Path) -> list:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "--workload", "bayes", "--seed", "1", "--seconds", "1", "--trace", "0")
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
    if proc.returncode == 0 or any(line.startswith("{") for line in last):
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp_name:
        tmp = Path(tmp_name)
        for path in (tmp / w for w in workloads.WORKLOADS):
            path.mkdir()
        problems = check_oracles(tmp) + check_empty_checkout(tmp) + check_printed_metrics(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
