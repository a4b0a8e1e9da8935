import numpy as np
import pytest

from qaoabench.circuit import QaoaParams, build_qaoa_circuit
from qaoabench.estimator import exact_cut_expectation
from qaoabench.graphs import brute_force_maxcut
from qaoabench.optimizer import (CONTRACTION, EXPANSION, REFLECTION, SHRINK, STALL_FACTOR,
                                 InstanceProblem, NmConfig, nelder_mead,
                                 random_initial_simplex, solve_instance)
from qaoabench.simulator import NoiseParams, simulate_logical


def _simplex2d():
    return np.array([[0.0, 0.0], [0.3, 0.1], [0.1, 0.4]])


def test_config_defaults_and_validation():
    assert (REFLECTION, EXPANSION, CONTRACTION, SHRINK) == (1.1, 1.5, 0.6, 0.4)
    assert STALL_FACTOR == 10
    cfg = NmConfig()
    assert cfg.max_updates == 300
    assert cfg.n_restarts == 20 and cfg.n_samples == 10_000
    with pytest.raises(ValueError):
        NmConfig(max_updates=0)
    with pytest.raises(ValueError):
        NmConfig(n_samples=-1)


def test_quadratic_maximum():
    rec = nelder_mead(lambda x: -(x[0] - 1) ** 2 - (x[1] + 2) ** 2,
                      _simplex2d(), NmConfig())
    assert abs(rec.best_params.gammas[0] - 1.0) < 1e-3
    assert abs(rec.best_params.betas[0] + 2.0) < 1e-3


def test_constant_objective_stalls_after_exact_window():
    rec = nelder_mead(lambda x: 1.0, _simplex2d(), NmConfig())
    assert rec.termination == "stalled"
    assert len(rec.trace) == STALL_FACTOR * 1              # dim 2 -> p = 1


def test_rosenbrock_best_vertex_monotone():
    simplex = np.array([[-1.2, 1.0], [-0.95, 1.0], [-1.2, 1.25]])
    rec = nelder_mead(lambda x: -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2),
                      simplex, NmConfig())
    assert all(a <= b + 1e-15 for a, b in zip(rec.trace, rec.trace[1:]))


def test_evaluation_count_includes_initial_simplex():
    count = [0]

    def f(x):
        count[0] += 1
        return 1.0

    rec = nelder_mead(f, _simplex2d(), NmConfig())
    assert rec.n_function_evals == count[0]
    assert rec.n_function_evals >= 3               # 2p + 1 initial vertices


def test_degenerate_simplex_rejected():
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        nelder_mead(lambda x: 0.0, bad, NmConfig())


def test_random_initial_simplex_properties():
    rng = np.random.default_rng(9)
    s = random_initial_simplex(3, rng)
    assert s.shape == (7, 6)
    assert np.linalg.matrix_rank(s[1:] - s[0]) == 6
    assert np.all((0 <= s[0][:3]) & (s[0][:3] < 2 * np.pi))
    assert np.all((0 <= s[0][3:]) & (s[0][3:] < np.pi))
    again = random_initial_simplex(3, np.random.default_rng(9))
    assert np.array_equal(s, again)


# ---------------------------------------------------------------------------
# instance pipeline
# ---------------------------------------------------------------------------

def _grid_search_ratio(g, steps=50):
    k_max, _ = brute_force_maxcut(g)
    best = 0.0
    for gamma in np.linspace(0, 2 * np.pi, steps, endpoint=False):
        for beta in np.linspace(0, np.pi, steps, endpoint=False):
            state = simulate_logical(
                build_qaoa_circuit(g, QaoaParams((gamma,), (beta,))))
            best = max(best, exact_cut_expectation(state, g))
    return best / k_max


def test_exact_pipeline_beats_grid_search(k4):
    oracle = _grid_search_ratio(k4)
    res = solve_instance(k4, 1, NmConfig(), "exact", None, 3)
    assert res.best_run.best_value / res.k_max >= oracle - 0.01


def test_eval_accounting_bound(k4):
    cfg = NmConfig(n_restarts=3, max_updates=40)
    res = solve_instance(k4, 1, cfg, "exact", None, 5)
    assert res.total_function_evals == sum(r.n_function_evals for r in res.runs)
    # per update at most 2 + dim evaluations (reflect + contract + shrink)
    per_run_cap = (2 * 1 + 1) + cfg.max_updates * (2 + 2 * 1)
    assert res.total_function_evals <= cfg.n_restarts * per_run_cap


def test_solve_is_deterministic(k4):
    cfg = NmConfig(n_restarts=2, max_updates=30)
    a = solve_instance(k4, 1, cfg, "sampled", None, 11)
    b = solve_instance(k4, 1, cfg, "sampled", None, 11)
    assert a.total_function_evals == b.total_function_evals
    assert a.best_run.best_value == b.best_run.best_value
    assert a.best_run.best_params == b.best_run.best_params
    assert a.overlap == b.overlap


def test_deeper_circuits_do_not_lose_quality(k3):
    # true optimum is monotone in p; multi-start NM at p=2 must reach at
    # least the p=1 grid-search value minus optimizer slack
    oracle_p1 = _grid_search_ratio(k3)
    cfg = NmConfig(n_restarts=8, max_updates=120)
    res = solve_instance(k3, 2, cfg, "exact", None, 7)
    assert res.best_run.best_value / res.k_max >= oracle_p1 - 0.02


def test_sampled_noisy_pipeline_smoke(k4):
    cfg = NmConfig(n_restarts=2, max_updates=25, n_samples=2000)
    noise = NoiseParams.from_t2_ratio(1000.0)
    res = solve_instance(k4, 1, cfg, "sampled", noise, 13, n_realizations=32)
    assert 0.0 < res.best_exact_ratio <= 1.0
    assert 0.0 <= res.overlap <= 1.0
    assert res.depth >= 1
    assert res.best_run.termination in ("stalled", "max_updates")
    payload = res.to_json()
    assert '"total_function_evals"' in payload


def test_pipeline_name_validated(k4):
    with pytest.raises(ValueError):
        InstanceProblem(k4, 1, NmConfig(), "both", None, 0)
