"""Per-layer tracing from outside the program.

The tracer rebinds public functions of jcas_lab, in the module that defines
them and in every jcas_lab module that imported them, to wrappers that
record a span (name, start, end, parent) per call.  The program's own files
are not touched; ``uninstall`` restores every original binding.

Hot step functions (one covariance step, scalar or matrix) would cost more
as spans than the work they do, so they keep only a count, taken at the
outermost step call: a step that calls another step counts once.  A
scalar step takes a fraction of a microsecond, and timing each one would
more than double the traced run, so step time is not measured separately;
it stays in the enclosing span's self time, so ``riccati.bisect.self_s``
covers the probes it runs.

Spans are kept in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: (module, function, span name) for every traced public function
SPANS = (
    ("statespace", "solve_scaled_lyapunov", "statespace.lyapunov"),
    ("statespace", "validate_model", "statespace.validate"),
    ("riccati", "vbar", "riccati.solve"),
    ("riccati", "sbar", "riccati.solve"),
    ("riccati", "mb_fixed_point", "riccati.solve"),
    ("riccati", "critical_lambda", "riccati.bisect"),
    ("riccati", "lambda_s", "riccati.bisect"),
    ("riccati", "lambda_v", "riccati.bisect"),
    ("riccati", "gamma_max", "riccati.bisect"),
    ("tradeoff", "bs_curve", "tradeoff.curve"),
    ("tradeoff", "mb_curve", "tradeoff.curve"),
    ("tradeoff", "dominance_report", "tradeoff.dominance"),
    ("montecarlo", "expected_covariance_mc", "montecarlo.cell"),
    ("montecarlo", "empirical_block_distortion", "montecarlo.block"),
    ("filtering", "run_filter", "filtering.run_filter"),
    ("bayes", "sensing_cost", "bayes.cost"),
    ("bayes", "bruteforce_open_loop_tradeoff", "bayes.search"),
    ("bayes", "bruteforce_posterior", "bayes.posterior"),
    ("bayes", "belief_predict", "bayes.posterior"),
    ("bayes", "belief_update", "bayes.posterior"),
    ("cli", "main", "cli.main"),
)

#: one covariance step each; counted, not spanned
STEPS = (
    ("statespace", "lyap_kernel"),
    ("statespace", "lyapunov_step"),
    ("riccati", "riccati_kernel"),
    ("riccati", "bs_kernel"),
    ("riccati", "riccati_step"),
    ("riccati", "gamma_bs"),
    ("riccati", "gamma_mb"),
)

#: per-layer metrics in output order, with units
LAYER_METRICS = (
    ("statespace.lyapunov.calls", "count"),
    ("statespace.lyapunov.self_s", "s"),
    ("statespace.validate.self_s", "s"),
    ("riccati.solve.calls", "count"),
    ("riccati.solve.self_s", "s"),
    ("riccati.solve.diverged", "count"),
    ("riccati.solve.errors", "count"),
    ("riccati.bisect.calls", "count"),
    ("riccati.bisect.self_s", "s"),
    ("riccati.step.calls", "count"),
    ("riccati.steps_per_solve", "count"),
    ("tradeoff.curve.points", "count"),
    ("tradeoff.curve.self_s", "s"),
    ("tradeoff.curve.finite_frac", "ratio"),
    ("tradeoff.dominance.self_s", "s"),
    ("montecarlo.cell.calls", "count"),
    ("montecarlo.cell.self_s", "s"),
    ("montecarlo.within_frac", "ratio"),
    ("montecarlo.block.self_s", "s"),
    ("filtering.run_filter.calls", "count"),
    ("filtering.run_filter.self_s", "s"),
    ("filtering.steps", "count"),
    ("bayes.cost.calls", "count"),
    ("bayes.cost.paths", "count_computed"),
    ("bayes.cost.self_s", "s"),
    ("bayes.search.combos", "count_computed"),
    ("bayes.search.feasible_frac", "ratio"),
    ("bayes.search.self_s", "s"),
    ("bayes.posterior.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("bench.self_s", "s"),
)


def _info_solve(args, kwargs, result):
    return {"diverged": int(result is None)}


def _info_curve(args, kwargs, result):
    points = result[0] + result[1] if isinstance(result, tuple) else result
    return {"points": len(points), "finite": sum(1 for p in points if p.finite)}


def _info_cell(args, kwargs, result):
    return {"within": int(result.verdict == "within")}


def _info_filter(args, kwargs, result):
    return {"steps": result.horizon}


def _info_cost(args, kwargs, result):
    x_seq, model = args[0], args[1]
    n = len(list(x_seq))
    return {"paths": model.ns ** (n + 1) * model.nz**n}


def _info_search(args, kwargs, result):
    model, _budget, n, resolution = args[:4]
    k = max(1, round(1.0 / resolution))
    points = math.comb(k + model.nx - 1, model.nx - 1)
    return {"combos": points**n, "feasible": result.n_feasible}


def _info_cli(args, kwargs, result):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if "--out" not in argv:
        return {"bytes": 0}
    out = Path(argv[argv.index("--out") + 1])
    return {"bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


INFO = {
    "riccati.solve": _info_solve,
    "tradeoff.curve": _info_curve,
    "montecarlo.cell": _info_cell,
    "filtering.run_filter": _info_filter,
    "bayes.cost": _info_cost,
    "bayes.search": _info_search,
    "cli.main": _info_cli,
}


class Tracer:
    """Span recorder bound to the jcas_lab modules while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = [
            getattr(package, name)
            for name in ("statespace", "riccati", "tradeoff", "montecarlo", "filtering", "bayes", "cli")
        ] + [package]
        # (name, start, end, parent, phase, steps inside, error, info)
        self.spans: list = []
        self.stack: list = []
        self.phase = "setup"
        self.step = [0, 0]  # depth, outermost calls
        self.step_marks: dict = {}
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module in self.modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self) -> None:
        for mod_name, fn_name, span_name in SPANS:
            fn = getattr(getattr(self.package, mod_name), fn_name)
            self._rebind(fn, self._span_wrapper(span_name, fn, INFO.get(span_name)))
        for mod_name, fn_name in STEPS:
            fn = getattr(getattr(self.package, mod_name), fn_name)
            self._rebind(fn, self._step_wrapper(fn))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, info_fn):
        spans, stack, step, clock = self.spans, self.stack, self.step, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            steps0 = step[1]
            error = None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                step[0] = 0
                stack.pop()
                info = info_fn(args, kwargs, result) if info_fn and error is None else None
                spans[sid] = (name, t0, t1, parent, self.phase, step[1] - steps0, error, info)

        return traced

    def _step_wrapper(self, fn):
        step = self.step

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if step[0]:
                return fn(*args, **kwargs)
            step[0] = 1
            result = fn(*args, **kwargs)  # a raising step is reset by its span
            step[0] = 0
            step[1] += 1
            return result

        return counted

    # -- phases -----------------------------------------------------------

    def begin(self, phase: str) -> None:
        self.phase = phase
        self.step_marks[phase] = [self.step[1], perf_counter(), None]

    def end(self, phase: str) -> None:
        mark = self.step_marks[phase]
        mark[0] = self.step[1] - mark[0]
        mark[2] = perf_counter() - mark[1]

    # -- aggregation ------------------------------------------------------

    def child_time(self) -> dict:
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return child

    def phase_metrics(self, phase: str, child: dict) -> dict:
        """Per-layer totals of one phase (the set-up or one traced pass)."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        info = defaultdict(float)
        errors = defaultdict(int)
        solve_steps = 0
        root_s = 0.0
        for sid, span in enumerate(self.spans):
            if span is None or span[4] != phase:
                continue
            name, t0, t1, parent, _phase, steps, error, extra = span
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
            if parent < 0:
                root_s += t1 - t0
            if error == "ConvergenceError":
                errors[name] += 1
            if name == "riccati.solve":
                solve_steps += steps
            for key, value in (extra or {}).items():
                info[f"{name}.{key}"] += value
        step_calls, _start, wall = self.step_marks[phase]

        def ratio(num, den):
            return num / den if den else 0.0

        points = info["tradeoff.curve.points"]
        combos = info["bayes.search.combos"]
        return {
            "statespace.lyapunov.calls": calls["statespace.lyapunov"],
            "statespace.lyapunov.self_s": self_s["statespace.lyapunov"],
            "statespace.validate.self_s": self_s["statespace.validate"],
            "riccati.solve.calls": calls["riccati.solve"],
            "riccati.solve.self_s": self_s["riccati.solve"],
            "riccati.solve.diverged": info["riccati.solve.diverged"],
            "riccati.solve.errors": errors["riccati.solve"],
            "riccati.bisect.calls": calls["riccati.bisect"],
            "riccati.bisect.self_s": self_s["riccati.bisect"],
            "riccati.step.calls": step_calls,
            "riccati.steps_per_solve": ratio(solve_steps, calls["riccati.solve"]),
            "tradeoff.curve.points": points,
            "tradeoff.curve.self_s": self_s["tradeoff.curve"],
            "tradeoff.curve.finite_frac": ratio(info["tradeoff.curve.finite"], points),
            "tradeoff.dominance.self_s": self_s["tradeoff.dominance"],
            "montecarlo.cell.calls": calls["montecarlo.cell"],
            "montecarlo.cell.self_s": self_s["montecarlo.cell"],
            "montecarlo.within_frac": ratio(
                info["montecarlo.cell.within"], calls["montecarlo.cell"]
            ),
            "montecarlo.block.self_s": self_s["montecarlo.block"],
            "filtering.run_filter.calls": calls["filtering.run_filter"],
            "filtering.run_filter.self_s": self_s["filtering.run_filter"],
            "filtering.steps": info["filtering.run_filter.steps"],
            "bayes.cost.calls": calls["bayes.cost"],
            "bayes.cost.paths": info["bayes.cost.paths"],
            "bayes.cost.self_s": self_s["bayes.cost"],
            "bayes.search.combos": combos,
            "bayes.search.feasible_frac": ratio(info["bayes.search.feasible"], combos),
            "bayes.search.self_s": self_s["bayes.search"],
            "bayes.posterior.self_s": self_s["bayes.posterior"],
            "cli.main.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
            "cli.bytes_written": info["cli.main.bytes"],
            "bench.self_s": wall - root_s,
            "_wall_s": wall,
        }

    def summary(self, passes: list) -> dict:
        """Set-up totals plus the traced pass of median wall time.

        Counts repeat exactly from pass to pass; taking one whole pass
        (rather than a median per metric) keeps the identity that the
        layer self times plus ``bench.self_s`` add up to ``_wall_s``.
        Set-up work (model validation) happens once per run and is added
        on top.
        """
        child = self.child_time()
        setup = self.phase_metrics("setup", child)
        per_pass = sorted((self.phase_metrics(p, child) for p in passes), key=lambda m: m["_wall_s"])
        middle = per_pass[(len(per_pass) - 1) // 2]
        out = {}
        for key, value in middle.items():
            if key.endswith("_s") or key.endswith(".calls"):
                value += setup[key]
            out[key] = value
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, phase, steps, error, info."""
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, phase, steps, error, info = span
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                    "phase": phase, "steps": steps, "error": error, "info": info,
                }) + "\n")
