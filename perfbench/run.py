"""Run one jcas-lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one client in a closed loop: the workload's job
list runs back to back, pass after pass, until ``--seconds`` have elapsed
(at least one pass).  numpy/BLAS is held to one thread.

Timing uses ``time.perf_counter`` in the benchmark's own loop rather than
pytest-benchmark: the benchmark owns its run loop, its set-up probes and
its pass count, it must run without pytest and must never be collected by
the test suite.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json.  With ``--trace 1``
one untraced pass is followed by traced passes, and the metrics are the
per-layer ones.  Every named metric of the workload is also printed as a
``metric`` line, and the run record (provenance, per-pass times, oracle
failures, output digests, spans) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# hold numpy/BLAS to one thread; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: as workloads.WORKLOADS; repeated so arguments parse before jcas_lab loads
WORKLOADS = ("figures", "matrix", "trials", "bayes")

#: fresh interpreters timing the set-up, besides the run itself
SETUP_PROBES = 6


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def timed_setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import jcas_lab, build and validate the models, generate inputs."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports jcas_lab and numpy

    origin = Path(workloads.jcas_lab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail(f"jcas_lab was imported from {origin}, not from {SRC}")
    wl = workloads.build(workload, seed, workdir, tiny)
    return workloads, wl, perf_counter() - t0


def probe_setup(args) -> list:
    """Normalized set-up times of fresh interpreters running the same set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def sampled_setup(args, workdir: Path):
    """Set-up under the speed sampler: (modules, workload, raw s, normalized s)."""
    import speed

    sampler = speed.SpeedSampler()
    sampler.start()
    start = sampler.mark()
    workloads, wl, raw = timed_setup(args.workload, args.seed, workdir, args.tiny)
    end = sampler.mark()
    sampler.stop()
    return workloads, wl, raw, sampler.normalize(raw, start, end)


def run_pass(jobs: list, sampler=None) -> dict:
    """Run every job once.

    Returns by job name the raw time, the time normalized to nominal host
    speed (raw when no sampler runs), the result and any error.
    """
    raw, times, results, errors = {}, {}, {}, {}
    for job in jobs:
        start = sampler.mark() if sampler else None
        t0 = perf_counter()
        try:
            results[job.name] = job.run()
        except Exception:  # a job that raises is a failed job, the run goes on
            errors[job.name] = traceback.format_exc(limit=4)
        raw[job.name] = perf_counter() - t0
        times[job.name] = (
            sampler.normalize(raw[job.name], start, sampler.mark())
            if sampler else raw[job.name]
        )
    return {"raw": raw, "times": times, "results": results, "errors": errors}


def pass_figures(p: dict, wl) -> dict:
    """Named metrics, primary/secondary split and wall time of one pass."""
    by_metric: dict = {}
    work: dict = {}
    for job in wl.jobs:
        by_metric[job.metric] = by_metric.get(job.metric, 0.0) + p["times"][job.name]
        work[job.metric] = work.get(job.metric, 0) + job.work
    named = {}
    for metric, unit in wl.named:
        named[metric] = work[metric] / by_metric[metric] if unit == "steps/s" else by_metric[metric]
    primary = by_metric[wl.primary]
    wall = sum(p["times"].values())
    return {"named": named, "primary_s": primary, "secondary_s": wall - primary,
            "wall_s": wall, "raw_wall_s": sum(p["raw"].values())}


def median_of(passes: list, key: str, sub: str | None = None) -> float:
    values = [p[key][sub] if sub else p[key] for p in passes]
    return statistics.median(values)


def src_provenance() -> dict:
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode())
        h.update(data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": h.hexdigest(), "src_py_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; not for measurements")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "jcas_lab" / "__init__.py").is_file():
        fail(f"no jcas_lab sources under {SRC}; run from a source checkout")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            _, _, raw, normalized = sampled_setup(args, workdir)
            print(json.dumps([raw, normalized]))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    setup_samples = probe_setup(args)
    workloads, wl, *own_setup = sampled_setup(args, workdir)
    setup_samples.append(own_setup)

    import speed

    sampler = speed.SpeedSampler()
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        # re-run the set-up under the tracer so its layer work is recorded
        tracer = tracer_mod.Tracer(workloads.jcas_lab)
        tracer.install()
        tracer.begin("setup")
        wl = workloads.build(args.workload, args.seed, workdir, args.tiny)
        tracer.end("setup")
        tracer.uninstall()
        untraced = run_pass(wl.jobs)
    else:
        sampler.start()

    passes = []
    digests: dict = {}
    failures: dict = {job.name: 0 for job in wl.jobs}
    broken: set = set()  # jobs that raised or changed output between passes
    messages: dict = {}
    last_results: dict = {}
    if tracer:
        tracer.install()
    start = perf_counter()
    while True:
        phase = f"pass{len(passes)}"
        if tracer:
            tracer.begin(phase)
        p = run_pass(wl.jobs, None if tracer else sampler)
        if tracer:
            tracer.end(phase)
        p["phase"] = phase
        passes.append(p)
        # outside the timed region: fingerprint outputs, compare with pass 0
        for job in wl.jobs:
            if job.name in p["errors"]:
                failures[job.name] += 1
                broken.add(job.name)
                messages.setdefault(job.name, []).append(p["errors"][job.name])
                continue
            d = workloads.digest(p["results"][job.name])
            if digests.setdefault(job.name, d) != d:
                failures[job.name] += 1
                broken.add(job.name)
                messages.setdefault(job.name, []).append(f"{phase}: output differs from pass 0")
                continue
            last_results[job.name] = p["results"][job.name]
        p.pop("results")
        if perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
    else:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # oracle gate: after the timed work, so scipy loads only now
    clean_passes = {job.name: len(passes) - failures[job.name] for job in wl.jobs}
    for job in wl.jobs:
        if job.name not in last_results:
            continue
        try:
            problems = job.check(last_results[job.name])
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            failures[job.name] += clean_passes[job.name]
            messages.setdefault(job.name, []).extend(problems[:20])

    # a known defect excuses its oracle miss only, never an error
    known = workloads.KNOWN_DEFECTS.get(wl.name, {})
    attempted = len(wl.jobs) * len(passes)
    failed = sum(failures.values())
    correct = not any(n and (name not in known or name in broken) for name, n in failures.items())

    per_pass = [pass_figures(p, wl) for p in passes]
    named = {m: median_of(per_pass, "named", m) for m, _ in wl.named}
    wall_s = median_of(per_pass, "wall_s")
    e2e = {
        "setup_s": (statistics.median(n for _, n in setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "primary_s": (median_of(per_pass, "primary_s"), "s"),
        "secondary_s": (median_of(per_pass, "secondary_s"), "s"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": workloads.np.__version__,
            "machine": platform.machine(),
        },
        "source": src_provenance() | {"jcas_lab": workloads.jcas_lab.__version__},
        "passes": len(passes),
        "setup_samples_s": {"raw": [r for r, _ in setup_samples],
                            "normalized": [n for _, n in setup_samples]},
        "job_times_s": {job.name: [p["times"][job.name] for p in passes] for job in wl.jobs},
        "job_raw_times_s": {job.name: [p["raw"][job.name] for p in passes] for job in wl.jobs},
        "raw_wall_s": median_of(per_pass, "raw_wall_s"),
        "speed_samples": len(sampler.samples),
        "speed_median_s": statistics.median(sampler.samples) if sampler.samples else None,
        "named": {m: {"value": named[m], "unit": u} for m, u in wl.named},
        "fail_frac": failed / attempted,
        "failures": {name: n for name, n in failures.items() if n},
        "known_defects": {name: known[name] for name in failures if failures[name] and name in known},
        "messages": messages,
        "output_sha256": {
            "jobs": digests,
            "workload": hashlib.sha256("".join(digests[j.name] for j in wl.jobs if j.name in digests).encode()).hexdigest(),
        },
    }

    if tracer:
        layer = tracer.summary([p["phase"] for p in passes])
        untraced_wall = sum(untraced["raw"].values())
        traced_wall = median_of(per_pass, "raw_wall_s")
        metrics = {name: (layer[name], unit) for name, unit in tracer_mod.LAYER_METRICS}
        probe = wl.step_probe() if wl.step_probe else {}
        for label in ("m1", "m2", "m8"):
            metrics[f"riccati.step_us.{label}"] = (probe.get(label, 0.0), "us")
        metrics["trace.wall_s"] = (layer["_wall_s"], "s")
        metrics["trace_overhead"] = (traced_wall / untraced_wall, "ratio")
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name
        record["untraced_wall_s"] = untraced_wall
    else:
        metrics = e2e
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    record_path = OUT / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {wl.name}: {len(passes)} {'traced ' if tracer else ''}passes, seed {args.seed}, "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {workloads.np.__version__}, src {record['source']['src_py_lines']} lines")
    for m, u in wl.named:
        print(f"metric {m} {named[m]:.6g} {u}")
    print(f"metric fail_frac {failed / attempted:.6g} ratio")
    print(f"metric raw_wall_s {record['raw_wall_s']:.6g} s (not normalized)")
    for name, n in record["failures"].items():
        tag = " (known defect)" if name in known else ""
        print(f"failed {name}: {n}/{len(passes)}{tag}: {messages[name][0].strip().splitlines()[-1]}")
    print(f"outputs sha256 {record['output_sha256']['workload']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
