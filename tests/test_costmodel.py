import math

import numpy as np
import pytest

from qaoabench.costmodel import (HardwareTimes, InstanceCost, aggregate,
                                 instance_wall_time, single_repetition_time,
                                 write_cost_csv)
from qaoabench.optimizer import NmConfig, solve_instance
from qaoabench.simulator import NoiseParams


def test_single_repetition_time_examples():
    hw = HardwareTimes()
    assert single_repetition_time(31, hw) == pytest.approx(1.31e-6)
    assert single_repetition_time(0, hw) == pytest.approx(1e-6)
    assert single_repetition_time(100, hw) == pytest.approx(2e-6)


def test_hardware_times_validated():
    with pytest.raises(ValueError):
        HardwareTimes(t_prep_plus_meas=0.0)
    # NaN and inf fail too, in either field
    for bad in (math.nan, math.inf, -math.inf, -1e-6):
        for name in ("t_prep_plus_meas", "t_gate"):
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "
                                                 f"{bad}$"):
                HardwareTimes(**{name: bad})


def test_paper_scale_arithmetic():
    # 20 runs x 300 evals x 1e4 samples at T_s.r. = 1.31 us -> 78.6 s
    reps = 20 * 300 * 10_000
    assert reps * single_repetition_time(31, HardwareTimes()) == pytest.approx(78.6)


def test_back_solved_evals_per_run_is_in_the_hundreds():
    # evals/run needed to reproduce the published 100.6 s at depth 31
    t_sr = single_repetition_time(31, HardwareTimes())
    evals_per_run = 100.6 / (20 * 10_000 * t_sr)
    assert 100 <= evals_per_run < 1000
    assert round(evals_per_run) == 384


def test_instance_wall_time(k4):
    cfg = NmConfig(n_restarts=2, max_updates=20)
    res = solve_instance(k4, 1, cfg, "exact", NoiseParams.noiseless(), 2)
    hw = HardwareTimes()
    cost = instance_wall_time(res, res.depth, hw, n_samples=cfg.n_samples)
    assert cost.total_repetitions == res.total_function_evals * cfg.n_samples
    assert cost.wall_time == pytest.approx(
        cost.total_repetitions * single_repetition_time(res.depth, hw))
    # single repetition baseline
    one = InstanceCost(res.depth, 1, single_repetition_time(res.depth, hw))
    assert instance_wall_time(res, res.depth, hw, n_samples=1).wall_time \
        == pytest.approx(one.wall_time * res.total_function_evals)


def test_wall_time_linear_in_each_factor(k4):
    cfg = NmConfig(n_restarts=2, max_updates=20)
    res = solve_instance(k4, 1, cfg, "exact", NoiseParams.noiseless(), 2)
    hw = HardwareTimes()
    base = instance_wall_time(res, res.depth, hw, n_samples=100).wall_time
    assert instance_wall_time(res, res.depth, hw, n_samples=200).wall_time \
        == pytest.approx(2 * base)
    # depth only changes wall time through T_s.r., never repetitions
    deeper = instance_wall_time(res, 2 * res.depth, hw, n_samples=100)
    assert deeper.total_repetitions == res.total_function_evals * 100
    assert deeper.wall_time > base


def test_aggregate_examples():
    c = lambda t: InstanceCost(1, 1, t)
    mean, sdom = aggregate([c(5.0), c(5.0), c(5.0)])
    assert (mean, sdom) == (5.0, 0.0)
    mean, sdom = aggregate([c(2.0), c(6.0)])
    assert mean == pytest.approx(4.0)
    assert sdom == pytest.approx(2.0)            # |a - b| / 2
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_sdom_against_synthetic_normal():
    rng = np.random.default_rng(0)
    sigma = 3.0
    sdoms = []
    for _ in range(200):
        draws = rng.normal(50.0, sigma, 40)
        _, sdom = aggregate([InstanceCost(1, 1, float(t)) for t in draws])
        sdoms.append(sdom)
    expected = sigma / math.sqrt(40)
    assert abs(np.mean(sdoms) - expected) < 3 * np.std(sdoms) / math.sqrt(len(sdoms)) + 0.02


def test_cost_csv_layout():
    text = write_cost_csv([{"n": 8, "p": 4, "mean_seconds": 100.6,
                            "sdom_seconds": 0.7, "n_instances": 40}])
    lines = text.splitlines()
    assert lines[0] == "N,p,mean_seconds,sdom_seconds,n_instances"
    assert lines[1] == "8,4,100.6,0.7,40"
