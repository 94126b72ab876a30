import json
import math
from itertools import product, repeat

import numpy as np
import pytest

from jcas_lab import riccati, tradeoff
from jcas_lab.cli import curve_lines, main, write_lines
from jcas_lab.errors import ParameterError
from jcas_lab.riccati import mb_fixed_point
from jcas_lab.statespace import grid_members, scaled_lyapunov_grid
from jcas_lab.tradeoff import (
    ChannelSpec,
    Curve,
    RateDistortionPoint,
    bs_arrays,
    bs_curve,
    bs_rate,
    dominance_report,
    full_rate,
    mb_arrays,
    mb_curve,
    mb_rate,
    snr_linear,
)

from conftest import quad_mb_root, scaled_lyap_root
from riccati_reference import trace_or_inf

GAUSS_175 = ChannelSpec.gaussian(1.75)


def sorted_points(points) -> list:
    """A curve's order one point at a time: by distortion, ties by param, stable."""
    return sorted(points, key=lambda p: (p.distortion, p.param))


def interp_loop(points):
    """(distortions, rates) of a curve's finite points one point at a time:
    sorted by (distortion, rate), each run of equal distortions keeping its
    largest rate."""
    finite = sorted((p.distortion, p.rate) for p in points if p.finite)
    dist, rate = [], []
    for d, r in finite:
        if dist and d == dist[-1]:
            rate[-1] = max(rate[-1], r)
            continue
        dist.append(d)
        rate.append(r)
    return np.array(dist), np.array(rate)


def point_curve_lines(points, head: str, bits: bool) -> list:
    """A point list as the curve CSV, one point at a time: the formatter
    that ``cli.curve_lines`` replaced, kept as its oracle."""
    lines = [f"# {head}", "param,rate_nats,distortion,bound_kind,finite" + (",rate_bits" if bits else "")]
    for p in points:
        row = f"{float(p.param)!r},{float(p.rate)!r},{float(p.distortion)!r},{p.bound_kind},{int(p.finite)}"
        if bits:
            row += f",{float(p.rate / math.log(2.0))!r}"
        lines.append(row)
    return lines


def point_curves(model, channel, lams, gammas):
    """bs_curve and mb_curve built one point at a time from the solved grids."""
    def curve(kind, params, rates, fixed_points):
        return sorted_points(
            RateDistortionPoint(rate, trace_or_inf(x), kind, param)
            for rate, x, param in zip(rates, fixed_points, params)
        )

    bs_rates = [bs_rate(channel, lam) for lam in lams]
    mb_rates = [mb_rate(channel, g) for g in gammas]
    return (
        curve("inner", lams, bs_rates, grid_members(riccati._vbar_grid(model, lams))),
        curve("outer", lams, bs_rates, grid_members(scaled_lyapunov_grid(model, 1.0 - np.asarray(lams)))),
        curve("exact", gammas, mb_rates, grid_members(riccati._mb_grid(model, gammas))),
    )


class TestRates:
    def test_snr_linear(self):
        assert snr_linear(0.0) == 1.0
        assert snr_linear(20.0) == pytest.approx(100.0, rel=1e-14)
        assert snr_linear(1.75) == pytest.approx(1.4962356560944334, rel=1e-14)

    def test_snr_roundtrip(self):
        for db in (-3.0, 0.0, 1.75, 12.5):
            assert 10.0 * math.log10(snr_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_bs_rate_endpoints(self):
        assert bs_rate(GAUSS_175, 1.0) == 0.0
        assert bs_rate(ChannelSpec.noiseless(1.0), 0.5) == 0.5
        assert bs_rate(GAUSS_175, 0.0) == pytest.approx(0.4573919297749398, abs=1e-12)

    def test_bs_rate_affine_decreasing(self):
        lams = np.linspace(0.0, 1.0, 11)
        rates = [bs_rate(GAUSS_175, l) for l in lams]
        diffs = np.diff(rates)
        assert np.allclose(diffs, diffs[0], atol=1e-12)
        assert diffs[0] < 0

    def test_mb_rate_endpoints(self):
        assert mb_rate(GAUSS_175, 1.0) == 0.0
        assert mb_rate(GAUSS_175, math.inf) == pytest.approx(0.4573919297749398, abs=1e-12)
        assert mb_rate(GAUSS_175, 2.0) == pytest.approx(0.27926984115561837, abs=1e-12)

    def test_mb_rate_nondecreasing(self):
        gammas = (1.0, 1.5, 2.0, 5.0, 50.0, math.inf)
        rates = [mb_rate(GAUSS_175, g) for g in gammas]
        assert all(r1 <= r2 + 1e-15 for r1, r2 in zip(rates, rates[1:]))

    def test_mb_rate_rejects_noiseless(self):
        with pytest.raises(ParameterError):
            mb_rate(ChannelSpec.noiseless(), 2.0)

    def test_channel_validation(self):
        with pytest.raises(ParameterError):
            ChannelSpec.noiseless(0.0)
        with pytest.raises(ParameterError):
            ChannelSpec.gaussian(math.inf)
        with pytest.raises(ParameterError):
            ChannelSpec("fancy")


class TestBsCurve:
    def test_lambda_one_endpoint(self, unstable_model):
        inner, outer = bs_curve(unstable_model, ChannelSpec.noiseless(1.0), [1.0])
        assert inner[0].rate == 0.0 and outer[0].rate == 0.0
        assert inner[0].distortion == pytest.approx(
            quad_mb_root(-1.15, 1.0, 0.2, 1.5, 1.0), abs=1e-9
        )
        assert outer[0].distortion == pytest.approx(0.2, abs=1e-12)

    def test_unstable_divergence_region(self, unstable_model):
        lam_c = 1.0 - 1.0 / 1.15**2
        grid = np.linspace(0.0, 1.0, 101)
        inner, outer = bs_curve(unstable_model, ChannelSpec.noiseless(1.0), grid)
        for points in (inner, outer):
            for p in points:
                if p.param < lam_c - 1e-3:
                    assert not p.finite
                elif p.param > lam_c + 1e-3:
                    assert p.finite

    def test_stable_open_loop_point(self, stable_model):
        inner, outer = bs_curve(stable_model, ChannelSpec.noiseless(1.0), [0.0, 0.5, 1.0])
        zero = [p for p in outer if p.param == 0.0][0]
        assert zero.rate == 1.0
        assert zero.distortion == pytest.approx(scaled_lyap_root(-0.95, 0.2, 1.0), abs=1e-6)

    def test_sorted_and_flagged(self, unstable_model):
        inner, outer = bs_curve(unstable_model, ChannelSpec.noiseless(1.0), np.linspace(0, 1, 41))
        dist = [p.distortion for p in inner]
        assert dist == sorted(dist)
        assert any(not p.finite for p in inner)

    def test_inner_right_of_outer_at_equal_lambda(self, stable_model):
        grid = np.linspace(0.0, 1.0, 21)
        inner, outer = bs_curve(stable_model, GAUSS_175, grid)
        by_param_inner = {p.param: p for p in inner}
        by_param_outer = {p.param: p for p in outer}
        for lam in grid:
            assert by_param_inner[lam].distortion >= by_param_outer[lam].distortion - 1e-10

    def test_floor_at_trace_q(self, stable_model):
        inner, outer = bs_curve(stable_model, GAUSS_175, np.linspace(0, 1, 21))
        for p in inner + outer:
            if p.finite:
                assert p.distortion >= 0.2 - 1e-10


class TestMbCurve:
    def test_all_sensing_endpoint(self, stable_model):
        pts = mb_curve(stable_model, GAUSS_175, [1.0])
        assert pts[0].rate == 0.0
        assert pts[0].distortion == pytest.approx(quad_mb_root(-0.95, 1.0, 0.2, 1.5, 1.0), abs=1e-9)

    def test_stable_open_loop_limit(self, stable_model):
        pts = mb_curve(stable_model, GAUSS_175, [math.inf])
        assert pts[0].rate == pytest.approx(full_rate(GAUSS_175), abs=1e-15)
        assert pts[0].distortion == pytest.approx(scaled_lyap_root(-0.95, 0.2, 1.0), abs=1e-6)

    def test_unstable_open_loop_flagged_infinite(self, unstable_model):
        pts = mb_curve(unstable_model, GAUSS_175, [math.inf])
        assert pts[0].rate == pytest.approx(full_rate(GAUSS_175), abs=1e-15)
        assert not pts[0].finite

    def test_matches_fixed_point_traces(self, unstable_model):
        gammas = (1.0, 2.0, 7.0)
        pts = mb_curve(unstable_model, GAUSS_175, gammas)
        by_param = {p.param: p for p in pts}
        for g in gammas:
            assert by_param[g].distortion == pytest.approx(
                float(np.trace(mb_fixed_point(g, unstable_model))), abs=1e-12
            )


def curve(*ds):
    """An exact curve with distortions ds and rates 0, 0.1, 0.2, ..."""
    n = len(ds)
    return Curve(np.ones(n), 0.1 * np.arange(n), np.array(ds, dtype=float), "exact")


class TestDominance:
    def test_curve_against_itself_is_zero(self, stable_model):
        mb = mb_arrays(stable_model, GAUSS_175, np.geomspace(1.0, 100.0, 25))
        rep = dominance_report(mb, mb, 11)
        assert rep.distortions.size == 11
        np.testing.assert_allclose(rep.gaps, 0.0, atol=1e-14)
        assert rep.n_b_gt_a == 0

    def test_overlap_of_finite_distortions(self):
        rep = dominance_report(curve(1.0, 3.0, math.inf), curve(2.0, 5.0), 7)
        assert rep.distortions.tolist() == np.geomspace(2.0, 3.0, 7).tolist()
        np.testing.assert_array_equal(rep.rates_a, np.interp(rep.distortions, [1.0, 3.0], [0.0, 0.1]))
        np.testing.assert_array_equal(rep.rates_b, np.interp(rep.distortions, [2.0, 5.0], [0.0, 0.1]))

    def test_grid_is_linear_from_zero_distortion(self):
        rep = dominance_report(curve(0.0, 4.0), curve(0.0, 8.0), 5)
        assert rep.distortions.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert dominance_report(curve(0.0, 4.0), curve(0.0, 8.0), 1).distortions.tolist() == [0.0]

    def test_grid_stays_inside_a_span_a_few_ulps_wide(self):
        # geomspace rounds some interior points of this span out of it
        lo, hi = 636.962050359767, 636.9620503597689
        grid = np.geomspace(lo, hi, 60)
        assert np.any((grid < lo) | (grid > hi))
        d = dominance_report(curve(1.0, hi), curve(lo, 1000.0), 60).distortions
        assert d[0] == lo and d[-1] == hi and np.all((d >= lo) & (d <= hi))

    def test_empty_overlap(self):
        cases = [
            ((1.0, 2.0), (5.0, 6.0)),  # disjoint
            ((1.0, 2.0), (2.0, 5.0)),  # spans that touch: lo == hi
            ((math.inf, math.inf), (0.5, 5.0)),  # no finite distortion
            ((1.0, 1.0, math.inf), (0.5, 5.0)),  # fewer than two distinct finite ones
        ]
        for (a, b), n_points in product(cases, (1, 60)):
            assert dominance_report(curve(*a), curve(*b), n_points).empty
            assert dominance_report(curve(*b), curve(*a), n_points).empty

    def test_interp_arrays_built_once_per_curve(self, tmp_path, monkeypatch):
        # rd-curve writes two reports; each builds the arrays of its two curves
        calls = []
        interp_arrays = tradeoff._interp_arrays
        monkeypatch.setattr(tradeoff, "_interp_arrays", lambda curve: calls.append(1) or interp_arrays(curve))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "model": {"A": [[-1.15]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]},
            "channel": {"kind": "gaussian", "snr_db": 1.75}, "lambda_grid": {"start": 0.0, "stop": 1.0, "count": 21},
            "gamma_grid": {"start": 1.0, "stop": 100.0, "count": 15, "spacing": "log"},
        }))
        assert main(["rd-curve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        reports = [path for path in (tmp_path / "out").iterdir() if path.name.startswith("dominance_")]
        assert len(reports) == 2
        assert len(calls) / len(reports) == 2

    def test_mb_dominates_bs_inner(self, stable_model):
        grid_l = np.linspace(0.0, 1.0, 60)
        grid_g = np.concatenate([np.geomspace(1.0, 1e4, 60), [math.inf]])
        inner, _ = bs_arrays(stable_model, GAUSS_175, grid_l)
        mb = mb_arrays(stable_model, GAUSS_175, grid_g)
        rep = dominance_report(mb, inner, 50)
        assert rep.distortions.size == 50
        assert rep.n_b_gt_a == 0


class TestCurveCsv:
    def test_layout_and_determinism(self, stable_model, tmp_path):
        mb = mb_arrays(stable_model, GAUSS_175, [1.0, 2.0, math.inf])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lines(p1, curve_lines((mb,), "model=stable grid=3", bits=False))
        write_lines(p2, curve_lines((mb,), "model=stable grid=3", bits=False))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().split("\n")
        assert lines[0] == "# model=stable grid=3"
        assert lines[1] == "param,rate_nats,distortion,bound_kind,finite"
        assert len(lines) == 5

    def test_bits_column(self, stable_model, tmp_path):
        mb = mb_arrays(stable_model, GAUSS_175, [2.0])
        header, row = curve_lines((mb,), "bits", bits=True)[1:]
        assert header.endswith(",rate_bits")
        rate_nats = float(row.split(",")[1])
        rate_bits = float(row.split(",")[-1])
        assert rate_bits == pytest.approx(rate_nats / math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("bits", (False, True))
    def test_equals_point_formatter(self, bits):
        # seeded random curves: +inf distortions, distortion ties broken by
        # param, rate 0.0 at lam = 1 and param +inf
        rng = np.random.default_rng(5)
        for n in (*range(4), *rng.integers(4, 80, 100)):
            curves = []
            for kind in ("inner", "outer", "exact"):
                params = rng.choice([0.0, 0.25, 0.5, 1.0, math.inf, *rng.random(3)], n)
                params[:1] = 1.0
                rates = np.where(params == 1.0, 0.0, rng.random(n) * rng.choice([1e-300, 1.0, 1e300], n))
                dists = rng.choice([0.5, 1.0, math.inf, *rng.random(3) * 10.0], n)
                curves.append(tradeoff._sorted(rates, dists, kind, params))
            points = [p for c in curves for p in tradeoff._points(c)]
            assert curve_lines(curves, "random", bits) == point_curve_lines(points, "random", bits)

    @pytest.mark.parametrize("name", ("unstable_model", "stable_model", "matrix_model"))
    def test_solved_curves_equal_point_formatter(self, request, name):
        model = request.getfixturevalue(name)
        lams = np.linspace(0.0, 1.0, 41)
        gammas = [*np.geomspace(1.0, 1e4, 40).tolist(), math.inf]
        inner, outer = bs_arrays(model, GAUSS_175, lams)
        mb = mb_arrays(model, GAUSS_175, gammas)
        bs_points = [*bs_curve(model, GAUSS_175, lams)]
        for bits in (False, True):
            assert curve_lines((inner, outer), "bs", bits) == point_curve_lines(bs_points[0] + bs_points[1], "bs", bits)
            assert curve_lines((mb,), "mb", bits) == point_curve_lines(mb_curve(model, GAUSS_175, gammas), "mb", bits)

    def test_commands_build_no_points(self, tmp_path, monkeypatch, unstable_model):
        # reproduce and rd-curve keep every curve as arrays up to the CSV
        made = []
        init = RateDistortionPoint.__init__

        def counting(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(RateDistortionPoint, "__init__", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "model": {"A": [[-1.15]], "C": [[1.0]], "Q": [[0.2]], "R": [[1.5]]},
            "channel": {"kind": "gaussian", "snr_db": 1.75}, "lambda_grid": {"start": 0.0, "stop": 1.0, "count": 21},
            "gamma_grid": {"start": 1.0, "stop": 100.0, "count": 15, "spacing": "log"},
        }))
        runs = {fig: ["reproduce", fig] for fig in ("fig3", "fig4")}
        runs["rd-curve"] = ["rd-curve", "--bits", "--config", str(cfg)]
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            assert (tmp_path / name / ("mb_curve.csv" if name == "rd-curve" else f"{name}_summary.txt")).exists()
        assert made == []
        # the spy sees the point-list view
        assert len(bs_curve(unstable_model, GAUSS_175, [0.5])[0]) == 1
        assert len(made) == 2


class TestArrayCurves:
    """Curves are solved, traced and ordered as arrays; they equal the curves
    built one point at a time."""

    @pytest.mark.parametrize("name", ("unstable_model", "stable_model", "matrix_model", "correlated_model"))
    def test_curves_equal_point_curves(self, request, name):
        model = request.getfixturevalue(name)
        lams = np.linspace(0.0, 1.0, 41).tolist()
        gammas = [*np.geomspace(1.0, 1e4, 40).tolist(), math.inf]
        inner, outer, mb = point_curves(model, GAUSS_175, lams, gammas)
        assert bs_curve(model, GAUSS_175, lams) == (inner, outer)
        assert mb_curve(model, GAUSS_175, gammas) == mb

    def test_order_equals_sorted(self):
        # tied distortions, inf among them, and repeated params: the rates
        # tell equal (distortion, param) pairs apart, so the order is stable
        rng = np.random.default_rng(3)
        for n in (*range(6), *rng.integers(6, 60, 200)):
            dists = rng.choice([0.5, 1.0, 2.0, math.inf], n)
            params = rng.choice([0.0, 0.25, 1.0, math.inf], n)
            rates = rng.random(n)
            points = list(map(RateDistortionPoint, rates.tolist(), dists.tolist(), repeat("exact"), params.tolist()))
            assert tradeoff._points(tradeoff._sorted(rates, dists, "exact", params)) == sorted_points(points)

    def test_interp_equals_loop(self):
        # unsorted curves with runs of equal distortion and infinite points
        rng = np.random.default_rng(4)
        for n in (*range(4), *rng.integers(4, 60, 200)):
            dists = rng.choice([0.5, 1.0, 1.5, 2.0, math.inf], n)
            rates = rng.choice([0.0, 0.1, 0.2, 0.3], n) + rng.random(n) * (rng.random() < 0.5)
            points = list(map(RateDistortionPoint, rates.tolist(), dists.tolist(), repeat("exact"), repeat(1.0)))
            got, want = tradeoff._interp_arrays(Curve(np.ones(n), rates, dists, "exact")), interp_loop(points)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == float
                assert g.tobytes() == w.tobytes()
