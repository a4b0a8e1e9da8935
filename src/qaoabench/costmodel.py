"""Projected hardware wall-clock cost of solving an instance.

One coherent repetition takes T_P + depth * T_G + T_M: prepare, run the
scheduled circuit, measure. Only the sum T_P + T_M matters, so it is
stored as one number; the hoisted |+...+> preparation layer is charged
there rather than to depth. An instance's repetition count is the total
function-evaluation count across every optimization restart times the
samples per evaluation.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .optimizer import InstanceSolveResult

DEFAULT_T_PREP_PLUS_MEAS = 1e-6     # seconds
DEFAULT_T_GATE = 10e-9              # seconds


@dataclass(frozen=True)
class HardwareTimes:
    """Aggressive but realistic projections for superconducting devices."""

    t_prep_plus_meas: float = DEFAULT_T_PREP_PLUS_MEAS
    t_gate: float = DEFAULT_T_GATE

    def __post_init__(self):
        for name in ("t_prep_plus_meas", "t_gate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class InstanceCost:
    depth: int
    total_repetitions: int
    wall_time: float                # seconds


def single_repetition_time(depth: int, hw: HardwareTimes) -> float:
    """Duration of one coherent repetition at the given circuit depth."""
    return hw.t_prep_plus_meas + depth * hw.t_gate


def instance_wall_time(solve: InstanceSolveResult, depth: int, hw: HardwareTimes,
                       n_samples: int = 10_000) -> InstanceCost:
    """Wall time = (evals over all restarts) x (samples per eval) x T_s.r."""
    reps = solve.total_function_evals * n_samples
    return InstanceCost(depth, reps, reps * single_repetition_time(depth, hw))


def aggregate(costs: list[InstanceCost]) -> tuple[float, float]:
    """Mean wall time and the standard deviation of that mean.

    The error bar is sqrt(sample variance / n): the spread of the
    per-instance cost distribution shrunk by the instance count.
    """
    times = [c.wall_time for c in costs]
    n = len(times)
    if n == 0:
        raise ValueError("no costs to aggregate")
    mean = sum(times) / n
    if n == 1:
        return mean, 0.0
    var = sum((t - mean) ** 2 for t in times) / (n - 1)
    return mean, math.sqrt(var / n)


def write_cost_csv(rows: list[dict]) -> str:
    """Render benchmark rows as the Table-I-style CSV.

    Each row needs keys: n, p, mean_seconds, sdom_seconds, n_instances.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "p", "mean_seconds", "sdom_seconds", "n_instances"])
    for row in rows:
        writer.writerow([row["n"], row["p"],
                         f"{row['mean_seconds']:.6g}", f"{row['sdom_seconds']:.6g}",
                         row["n_instances"]])
    return buf.getvalue()
