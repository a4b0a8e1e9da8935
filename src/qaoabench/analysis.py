"""Exponential scaling fits, prediction bands, and the crossover point.

Costs are fitted as straight lines in log10(T) against problem size N via
ordinary least squares, with t-distribution prediction intervals for a
future observation. The crossover is where two fitted lines intersect;
because exponentials look locally straight, everything here is an
extrapolation aid, not a forecast.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

BAND_LEVEL = 0.95           # coverage of the prediction bands
CROSSOVER_N_LIMIT = 1e5     # largest N searched for a band crossing
REPORT_GRID_POINTS = 50     # N values per fitted curve in the report CSV


@dataclass(frozen=True)
class FitResult:
    """OLS fit of log10(T) = slope * N + intercept with interval metadata."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    x_mean: float
    s_xx: float
    resid_std: float                # sqrt(SSE / (n - 2))

    def predict(self, n) -> np.ndarray:
        return self.slope * np.asarray(n, dtype=float) + self.intercept

    def prediction_band(self, n):
        """(low, high) BAND_LEVEL bounds in log10 seconds for a future observation at n.

        Widens away from the data centroid; always contains the fitted
        line. With only perfect-fit data the band collapses onto the line.
        """
        x = np.asarray(n, dtype=float)
        center = self.predict(x)
        df = self.n_points - 2
        t_crit = stdtrit(df, 0.5 + BAND_LEVEL / 2.0)   # Student-t quantile
        half = t_crit * self.resid_std * np.sqrt(
            1.0 + 1.0 / self.n_points + (x - self.x_mean) ** 2 / self.s_xx)
        return center - half, center + half


def fit_exponential(points) -> FitResult:
    """Fit T(N) = 10^(slope N + intercept) to (N, T_seconds) pairs."""
    pts = [(float(n), float(t)) for n, t in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a fit with intervals")
    if any(t <= 0 for _, t in pts):
        raise ValueError("all times must be positive")
    x = np.array([n for n, _ in pts])
    y = np.log10([t for _, t in pts])
    if np.ptp(x) == 0:
        raise ValueError("all points share one N; slope is undefined")

    x_mean = float(x.mean())
    s_xx = float(((x - x_mean) ** 2).sum())
    slope = float(((x - x_mean) * (y - y.mean())).sum() / s_xx)
    intercept = float(y.mean() - slope * x_mean)
    resid = y - (slope * x + intercept)
    sse = float((resid ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if sst == 0 else 1.0 - sse / sst
    resid_std = math.sqrt(sse / (len(pts) - 2))
    return FitResult(slope, intercept, max(0.0, min(1.0, r_squared)),
                     len(pts), x_mean, s_xx, resid_std)


@dataclass(frozen=True)
class CrossoverEstimate:
    """Intersection of two fitted lines, plus where the first fit's
    BAND_LEVEL prediction band crosses the second line (None when parallel
    or when a crossing does not exist below CROSSOVER_N_LIMIT)."""

    n_star: float | None
    band_low_cross: float | None
    band_high_cross: float | None


def crossover(fit_q: FitResult, fit_c: FitResult) -> CrossoverEstimate:
    """Size where the two fitted costs meet, with a band-based window.

    The window brackets n_star by intersecting fit_q's BAND_LEVEL band edges
    with fit_c's central line below CROSSOVER_N_LIMIT. Adding a common
    constant to both intercepts (a shared cost rescaling) leaves every
    output unchanged.
    """
    if math.isclose(fit_q.slope, fit_c.slope, rel_tol=0.0, abs_tol=1e-15):
        return CrossoverEstimate(None, None, None)
    n_star = (fit_c.intercept - fit_q.intercept) / (fit_q.slope - fit_c.slope)

    def band_cross(which: int) -> float | None:
        def gap(n):
            band = fit_q.prediction_band(n)[which]
            return float(band - fit_c.predict(n))
        lo, hi = 0.0, max(2.0 * abs(n_star), 10.0)
        while gap(lo) * gap(hi) > 0:
            hi *= 2.0
            if hi > CROSSOVER_N_LIMIT:
                return None
        from scipy.optimize import brentq
        return float(brentq(gap, lo, hi, xtol=1e-9))

    return CrossoverEstimate(float(n_star), band_cross(0), band_cross(1))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(fits: dict[str, FitResult], points: dict[str, list],
                cross: CrossoverEstimate | None = None) -> tuple[str, str]:
    """Machine-readable scaling report: (CSV text, JSON summary text).

    The CSV lists the raw datapoints and, for every fit, the fitted curve
    and band sampled at REPORT_GRID_POINTS common N values, one row per
    (kind, label, N). Deterministic for fixed inputs.
    """
    all_n = [float(n) for pts in points.values() for n, _ in pts]
    lo, hi = min(all_n), max(all_n)
    span = hi - lo if hi > lo else 1.0
    grid = np.linspace(lo, hi + 0.5 * span, REPORT_GRID_POINTS)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "label", "N", "log10_seconds", "band_low", "band_high"])
    for label in sorted(points):
        for n, t in points[label]:
            writer.writerow(["data", label, f"{n:.6g}", f"{math.log10(t):.9g}", "", ""])
    for label in sorted(fits):
        fit = fits[label]
        low, high = fit.prediction_band(grid)
        center = fit.predict(grid)
        for i, n in enumerate(grid):
            writer.writerow(["fit", label, f"{n:.6g}", f"{center[i]:.9g}",
                             f"{low[i]:.9g}", f"{high[i]:.9g}"])

    summary = {
        "fits": {
            label: {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "n_points": fit.n_points,
            }
            for label, fit in sorted(fits.items())
        },
        "crossover": None if cross is None else {
            "n_star": cross.n_star,
            "band_low_cross": cross.band_low_cross,
            "band_high_cross": cross.band_high_cross,
        },
    }
    return buf.getvalue(), json.dumps(summary, indent=2) + "\n"


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _point(n: str, seconds: str, row: int) -> tuple[float, float]:
    try:
        return float(n), float(seconds)
    except ValueError:
        raise ValueError(f"row {row}: N {n!r} and seconds {seconds!r} must be numbers") from None


def read_points(text: str) -> dict[str, list[tuple[float, float]]]:
    """(N, seconds) data points grouped by label, from a bench CSV or a timing CSV.

    The first non-blank row picks the format. A bench CSV starts with the
    header of costmodel.write_cost_csv, and each of its N,p,mean_seconds,
    sdom_seconds,n_instances rows gives (N, mean_seconds) under the label
    qaoa-p<p>. Any other text holds (N, seconds, label) rows, the label
    "default" when left out, under an optional header: a first row in which
    neither N nor seconds is a number. Only that first row may be a header;
    blank rows are skipped, and any other malformed row raises ValueError
    naming its row.
    """
    rows = [(i, row) for i, row in enumerate(csv.reader(io.StringIO(text)), 1)
            if any(cell.strip() for cell in row)]
    out: dict[str, list[tuple[float, float]]] = {}
    if rows and rows[0][1][:3] == ["N", "p", "mean_seconds"]:
        for i, row in rows[1:]:
            if len(row) != 5:
                raise ValueError(f"row {i}: a bench row has 5 fields, got {len(row)}: {row}")
            out.setdefault(f"qaoa-p{row[1]}", []).append(_point(row[0], row[2], i))
        return out
    if rows and not any(map(_is_number, rows[0][1][:2])):
        rows = rows[1:]             # the header
    for i, row in rows:
        if len(row) < 2:
            raise ValueError(f"row {i}: a timing row needs at least N and seconds: {row}")
        label = row[2].strip() if len(row) > 2 and row[2].strip() else "default"
        out.setdefault(label, []).append(_point(row[0], row[1], i))
    return out
