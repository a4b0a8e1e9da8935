"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Criteria 6 and 7 share one multi-start noisy optimization of the
8-qubit reference instance; it runs at a reduced realization count
(ACCEPT_R below) to keep the suite in the minutes range. The cost
projection of criterion 6 does not involve the realization count.
"""
import math

import numpy as np
import pytest

from qaoabench.analysis import FitResult, crossover, fit_exponential
from qaoabench.circuit import QaoaParams, build_qaoa_circuit
from qaoabench.costmodel import HardwareTimes, instance_wall_time, single_repetition_time
from qaoabench.graphs import (Graph, brute_force_maxcut, cut_values_table,
                              gen_random_3regular)
from qaoabench.maxsat import brute_force_max2sat, reduce_to_max2sat
from qaoabench.optimizer import NmConfig, solve_instance
from qaoabench.scheduler import (GridTopology, choose_grid, parse_pdpt, schedule,
                                 validate_schedule)
from qaoabench.simulator import (NoiseParams, _cycle_noise_qubit, convergence_study,
                                 run_noisy_ensemble, simulate_logical)

from conftest import APP_B_EDGES, APP_B_PDPT, PUBLISHED_DEPTH
from oracles import (dense_qaoa_state, density_matrix_oracle, simulate_schedule_physical,
                     trace_distance)

PAPER_NOISE = NoiseParams(t1=200e-6, t2=100e-6, t_gate=10e-9)
TABLE_I_N8_P4 = 100.6          # seconds, published mean cost at N=8, p=4
ACCEPT_R = 96                  # reduced realization count for the slow solve
ACCEPT_SEED = 20240

K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
APP_B = Graph(8, APP_B_EDGES)


@pytest.fixture(scope="module")
def noisy_solve():
    """Shared N=8, p=4 noisy sampled-pipeline optimization (criteria 6, 7)."""
    return solve_instance(APP_B, 4, NmConfig(), "sampled", PAPER_NOISE,
                          ACCEPT_SEED, n_realizations=ACCEPT_R)


def test_criterion_1_unitary_correctness():
    rng = np.random.default_rng(1)
    worst = 0.0
    for g in (K3, K4):
        for p in (1, 2):
            params = QaoaParams(tuple(rng.uniform(0, 2 * np.pi, p)),
                                tuple(rng.uniform(0, np.pi, p)))
            ours = simulate_logical(build_qaoa_circuit(g, params))
            err = float(np.max(np.abs(ours - dense_qaoa_state(g, params))))
            worst = max(worst, err)
            assert err < 1e-10
    print(f"\nACCEPTANCE 1 PASS: p=1,2 states on K3/K4 vs dense oracle, "
          f"max amplitude error {worst:.2e} < 1e-10")


def test_criterion_2_noise_channel_fidelity():
    R = 100_000
    # relaxation: P(1) = e^-1 after one op of duration T1 from |1>
    rng = np.random.default_rng(42)
    states = np.zeros((R, 2), dtype=complex)
    states[:, 1] = 1.0
    dt = PAPER_NOISE.t1
    eps = rng.standard_normal(R) * math.sqrt(PAPER_NOISE.dephasing_var(dt))
    _cycle_noise_qubit(states, 1, 0, eps, rng.random(R), PAPER_NOISE.damping_prob(dt))
    p1 = np.abs(states[:, 1]) ** 2
    dev_t1 = abs(p1.mean() - math.exp(-1)) / (p1.std(ddof=1) / math.sqrt(R))
    assert dev_t1 < 3.0

    # dephasing: <X> = e^-1 after duration T2 from |+> (T1 = 2 T2)
    rng = np.random.default_rng(43)
    states = np.full((R, 2), 1 / math.sqrt(2), dtype=complex)
    dt = PAPER_NOISE.t2
    eps = rng.standard_normal(R) * math.sqrt(PAPER_NOISE.dephasing_var(dt))
    _cycle_noise_qubit(states, 1, 0, eps, rng.random(R), PAPER_NOISE.damping_prob(dt))
    x = 2 * (states[:, 0].conj() * states[:, 1]).real
    dev_t2 = abs(x.mean() - math.exp(-1)) / (x.std(ddof=1) / math.sqrt(R))
    assert dev_t2 < 3.0

    # scheduled 2-qubit ensemble vs channel-composition density matrix
    edge = Graph(2, ((0, 1),))
    circ = build_qaoa_circuit(edge, QaoaParams((0.9, 0.5), (0.4, 1.1)))
    sched = schedule(circ, choose_grid(2), 3)
    noise = NoiseParams.from_t2_ratio(20.0)
    ens = run_noisy_ensemble(sched, circ, noise, 384, 123, keep_states=True)
    rho_ens = np.einsum("ri,rj->ij", ens.states, ens.states.conj()) / 384
    td = trace_distance(rho_ens, density_matrix_oracle(sched, circ, noise))
    assert td < 0.05
    print(f"\nACCEPTANCE 2 PASS: T1 decay {dev_t1:.2f} sigma, T2 decay "
          f"{dev_t2:.2f} sigma (R=1e5); 2-qubit ensemble trace distance "
          f"{td:.4f} < 0.05 (R=384)")


def test_criterion_3_convergence_plateau():
    quick = solve_instance(APP_B, 4, NmConfig(n_restarts=5, max_updates=80),
                           "exact", None, 7)
    circ = build_qaoa_circuit(APP_B, quick.best_run.best_params)
    sched = schedule(circ, choose_grid(8), 7)
    cut_table = cut_values_table(APP_B)
    k_max, _ = brute_force_maxcut(APP_B)

    spreads = {}
    for ratio in (500.0, 10000.0):
        noise = NoiseParams.from_t2_ratio(ratio)
        curves = convergence_study(sched, circ, noise, 450, (1, 2, 3),
                                   cut_table, k_max)
        at_400 = [curve[399] for curve in curves.values()]
        spreads[ratio] = max(at_400) - min(at_400)
        assert spreads[ratio] < 0.01
    print(f"\nACCEPTANCE 3 PASS: running-mean ratio plateau spread across 3 "
          f"seeds at R=400: T2/TG=500 -> {spreads[500.0]:.4f}, "
          f"T2/TG=10000 -> {spreads[10000.0]:.4f} (both < 0.01)")


def test_criterion_4_schedule_validity_and_equivalence():
    # generated schedules satisfy all three constraints
    for n, p, seed in ((6, 2, 0), (8, 4, 1), (10, 1, 2)):
        g = gen_random_3regular(n, seed)
        c = build_qaoa_circuit(g, QaoaParams((0.3,) * p, (0.7,) * p))
        t = choose_grid(n)
        assert validate_schedule(schedule(c, t, seed), c, t) == []

    # noiseless scheduled simulation == logical, via the all-sites oracle
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))
    circ = build_qaoa_circuit(APP_B, params)
    sched = schedule(circ, GridTopology(3, 3), 11)
    fid = abs(np.vdot(simulate_schedule_physical(sched, circ),
                      simulate_logical(circ))) ** 2
    assert fid > 1 - 1e-10

    # the published table parses and validates against its stated edge list
    circ4 = build_qaoa_circuit(APP_B, QaoaParams((0.1,) * 4, (0.2,) * 4))
    published = parse_pdpt(APP_B_PDPT, n_prep_gates=circ4.prep_layer_size())
    assert published.n_cycles == PUBLISHED_DEPTH
    assert validate_schedule(published, circ4, published.grid) == []

    # soft depth parity: within 1.5x of the published 31 cycles
    ours = schedule(circ4, GridTopology(3, 3), 1).n_cycles
    assert ours <= 1.5 * PUBLISHED_DEPTH
    print(f"\nACCEPTANCE 4 PASS: schedules valid; scheduled==logical fidelity "
          f"{fid:.12f}; published table validates; our depth {ours} <= "
          f"{1.5 * PUBLISHED_DEPTH:.1f}")


def test_criterion_5_reduction_identity():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        n = int(rng.choice((4, 6, 8, 10, 12)))
        g = gen_random_3regular(n, int(rng.integers(1 << 31)))
        k_max, _ = brute_force_maxcut(g)
        assert brute_force_max2sat(reduce_to_max2sat(g)) == g.n_edges + k_max
        checked += 1
    print(f"\nACCEPTANCE 5 PASS: E + k identity exact on {checked} random "
          f"graphs (n <= 12)")


def test_criterion_6_cost_model_back_solve(noisy_solve):
    hw = HardwareTimes()
    t_sr = single_repetition_time(PUBLISHED_DEPTH, hw)
    evals_per_run = TABLE_I_N8_P4 / (20 * 10_000 * t_sr)
    assert 100 <= evals_per_run < 1000
    assert round(evals_per_run) == 384

    cost = instance_wall_time(noisy_solve, noisy_solve.depth, hw,
                              n_samples=NmConfig().n_samples)
    factor = cost.wall_time / TABLE_I_N8_P4
    assert 1 / 3 <= factor <= 3
    print(f"\nACCEPTANCE 6 PASS: back-solved evals/run {evals_per_run:.1f} "
          f"(~384, inside the hundreds); own N=8 p=4 pipeline: "
          f"{noisy_solve.total_function_evals} evals over 20 runs, depth "
          f"{noisy_solve.depth}, projected {cost.wall_time:.1f} s = "
          f"{factor:.2f}x the published 100.6 s (within 3x)")


def test_criterion_7_overlap_bar(noisy_solve):
    assert noisy_solve.overlap > 0.001
    print(f"\nACCEPTANCE 7 PASS: optimized N=8 p=4 noisy state has overlap "
          f"{noisy_solve.overlap:.4f} with the brute-force optima (> 0.001, "
          f"so the solution shows up among 1e4 samples); N=20-scale overlap "
          f"figures are beyond desk scale and not required")


def test_criterion_8_regression_and_crossover():
    pts = [(n, 10 ** (0.0409 * n - 8)) for n in (10, 20, 30, 40)]
    fit = fit_exponential(pts)
    assert abs(fit.slope - 0.0409) < 1e-10
    assert abs(fit.intercept + 8.0) < 1e-9

    fq = FitResult(0.0141, 2.0, 1.0, 5, 12.0, 100.0, 0.0)
    fc = FitResult(0.0409, -6.0, 1.0, 5, 12.0, 100.0, 0.0)
    n_star = crossover(fq, fc).n_star
    assert abs(n_star - 8.0 / 0.0268) < 1e-9

    rng = np.random.default_rng(88)
    xs = np.arange(8, 22, 2.0)
    hits = 0
    for _ in range(1000):
        ys = 0.015 * xs - 1.0 + rng.normal(0, 0.04, xs.size)
        f = fit_exponential(list(zip(xs, 10.0 ** ys)))
        y_new = 0.015 * 24.0 - 1.0 + rng.normal(0, 0.04)
        low, high = f.prediction_band(24.0)
        hits += bool(low <= y_new <= high)
    assert hits >= 900
    print(f"\nACCEPTANCE 8 PASS: synthetic slope recovered to 1e-10; "
          f"crossover {n_star:.4f} matches 8/0.0268 to 1e-9; 95% band "
          f"covered {hits}/1000 held-out points (>= 900)")


def test_criterion_9_desk_scale_statement(tmp_path):
    # full-size noisy benchmarking (N = 16-24, 40 instances x 20 restarts x
    # R = 384) needs cluster-scale compute by design and is NOT reproduced
    # here; the scaling claim rests on criteria 1-8 plus determinism.
    from qaoabench.cli import main

    args = ["bench", "--sizes", "4", "--p", "1", "--instances", "2",
            "--pipeline", "sampled", "--noiseless", "--restarts", "2",
            "--max-updates", "15", "--samples", "500", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    print("\nACCEPTANCE 9 PASS: headline full-scale numbers are out of desk "
          "scope by design (N=16-24 with 40 instances x 20 restarts x R=384 "
          "is cluster-budget work); pipeline outputs are byte-identical for "
          "fixed seeds, and scaling acceptance rests on criteria 1-8")
