import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoabench.analysis import (CrossoverEstimate, FitResult, crossover,
                                emit_report, fit_exponential, read_points)

TABLE_P4 = [(8, 100.6), (10, 102.8), (12, 106.6), (14, 107.5), (16, 113.1), (20, 118.8)]


def test_exact_exponential_recovered():
    pts = [(n, 10 ** (0.0409 * n - 8)) for n in (10, 20, 30, 40)]
    fit = fit_exponential(pts)
    assert abs(fit.slope - 0.0409) < 1e-10
    assert abs(fit.intercept + 8.0) < 1e-9
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_exponential([(8, 1.0), (10, 2.0)])
    with pytest.raises(ValueError):
        fit_exponential([(8, 1.0), (10, 0.0), (12, 2.0)])
    with pytest.raises(ValueError):
        fit_exponential([(8, 1.0), (8, 2.0), (8, 3.0)])


def test_published_average_costs_regression_oracle():
    # frozen OLS value computed from the per-size averages; differs from the
    # study's quoted 0.0141 fit coefficient (different fit inputs, see
    # analysis module notes)
    fit = fit_exponential(TABLE_P4)
    assert fit.slope == pytest.approx(0.0061225676, abs=1e-9)
    assert fit.r_squared > 0.97


def test_crossover_analytic():
    fq = FitResult(0.0141, 2.0, 1.0, 5, 12.0, 100.0, 0.0)
    fc = FitResult(0.0409, -6.0, 1.0, 5, 12.0, 100.0, 0.0)
    cross = crossover(fq, fc)
    assert cross.n_star == pytest.approx(8.0 / 0.0268, abs=1e-9)


def test_crossover_equal_slopes_none():
    f = FitResult(0.01, 1.0, 1.0, 4, 10.0, 50.0, 0.1)
    g = FitResult(0.01, 2.0, 1.0, 4, 10.0, 50.0, 0.1)
    assert crossover(f, g) == CrossoverEstimate(None, None, None)


def test_crossover_invariant_under_common_intercept_shift():
    fq = FitResult(0.0141, 2.0, 1.0, 5, 12.0, 100.0, 0.05)
    fc = FitResult(0.0409, -6.0, 1.0, 5, 12.0, 100.0, 0.0)
    base = crossover(fq, fc)
    shifted = crossover(
        FitResult(0.0141, 2.0 + 3.5, 1.0, 5, 12.0, 100.0, 0.05),
        FitResult(0.0409, -6.0 + 3.5, 1.0, 5, 12.0, 100.0, 0.0))
    assert shifted.n_star == pytest.approx(base.n_star, abs=1e-9)
    assert shifted.band_low_cross == pytest.approx(base.band_low_cross, abs=1e-6)
    assert shifted.band_high_cross == pytest.approx(base.band_high_cross, abs=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(slope_q=st.floats(0.005, 0.05), slope_gap=st.floats(0.005, 0.05),
       intercept_q=st.floats(-3.0, 3.0), intercept_c=st.floats(-10.0, -4.0),
       resid_std=st.floats(0.0, 0.2), shift=st.floats(-5.0, 5.0))
def test_crossover_shift_invariance_property(slope_q, slope_gap, intercept_q, intercept_c,
                                             resid_std, shift):
    def fits(offset):
        return (FitResult(slope_q, intercept_q + offset, 1.0, 6, 14.0, 70.0, resid_std),
                FitResult(slope_q + slope_gap, intercept_c + offset, 1.0, 6, 14.0, 70.0, 0.0))
    base, shifted = crossover(*fits(0.0)), crossover(*fits(shift))
    assert shifted.n_star == pytest.approx(base.n_star, rel=1e-9, abs=1e-9)
    for a, b in ((base.band_low_cross, shifted.band_low_cross),
                 (base.band_high_cross, shifted.band_high_cross)):
        assert (a is None) == (b is None)
        if a is not None:
            assert b == pytest.approx(a, abs=1e-6)


def test_band_contains_line_and_widens():
    fit = fit_exponential(TABLE_P4)
    xs = np.array([8.0, 14.0, 30.0, 100.0])
    low, high = fit.prediction_band(xs)
    center = fit.predict(xs)
    assert np.all(low <= center) and np.all(center <= high)
    widths = high - low
    # widens away from the data centroid (x_mean = 13.33)
    assert widths[3] > widths[2] > widths[1]


def test_prediction_band_coverage_monte_carlo():
    # 95% band must cover a held-out point at least 90% of the time
    rng = np.random.default_rng(2024)
    slope, intercept, noise = 0.02, -1.0, 0.05
    xs = np.arange(8, 22, 2.0)
    hits = 0
    trials = 1000
    for _ in range(trials):
        ys = slope * xs + intercept + rng.normal(0, noise, xs.size)
        fit = fit_exponential(list(zip(xs, 10.0 ** ys)))
        x_new = 24.0
        y_new = slope * x_new + intercept + rng.normal(0, noise)
        low, high = fit.prediction_band(x_new)
        hits += bool(low <= y_new <= high)
    assert hits / trials >= 0.90


def test_emit_report_deterministic():
    fits = {"qaoa-p4": fit_exponential(TABLE_P4)}
    points = {"qaoa-p4": TABLE_P4}
    cross = None
    a = emit_report(fits, points, cross)
    b = emit_report(fits, points, cross)
    assert a == b
    csv_text, json_text = a
    header = csv_text.splitlines()[0]
    assert header == "kind,label,N,log10_seconds,band_low,band_high"
    assert '"slope"' in json_text


def test_read_timing_csv():
    text = "N,seconds,label\n8,100.6,qaoa-p4\n10,102.8,qaoa-p4\n30,0.5,classical\n"
    groups = read_points(text)
    assert set(groups) == {"qaoa-p4", "classical"}
    assert groups["qaoa-p4"] == [(8.0, 100.6), (10.0, 102.8)]
    assert read_points("8,1.5\n")["default"] == [(8.0, 1.5)]
