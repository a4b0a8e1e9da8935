import contextlib
import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from qaoabench.circuit import QaoaParams, build_qaoa_circuit
from qaoabench.cli import main
from qaoabench.graphs import (brute_force_maxcut, cut_values_table, gen_random_3regular,
                              write_graph)
from qaoabench.optimizer import (CONTRACTION, EXPANSION, REFLECTION, SHRINK, STALL_FACTOR,
                                 InstanceProblem, NmConfig, _restart_workers, nelder_mead,
                                 pinned_pool, random_initial_simplex, solve_instance,
                                 solve_instances)
from qaoabench import simulator
from qaoabench.simulator import NoiseParams, _n_blocks, probabilities

from oracles import logical_state


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
    table = cut_values_table(g)
    best = 0.0
    for gamma in np.linspace(0, 2 * np.pi, steps, endpoint=False):
        for beta in np.linspace(0, np.pi, steps, endpoint=False):
            state = logical_state(
                build_qaoa_circuit(g, QaoaParams((gamma,), (beta,))))
            best = max(best, float(probabilities(state) @ table))
    return best / k_max


def test_exact_pipeline_beats_grid_search(k4):
    oracle = _grid_search_ratio(k4)
    res = solve_instance(k4, 1, NmConfig(), "exact", NoiseParams.noiseless(), 3)
    assert res.best_run.best_value / res.k_max >= oracle - 0.01


def test_eval_accounting_bound(k4):
    cfg = NmConfig(n_restarts=3, max_updates=40)
    res = solve_instance(k4, 1, cfg, "exact", NoiseParams.noiseless(), 5)
    assert res.total_function_evals == sum(r.n_function_evals for r in res.runs)
    # per update at most 2 + dim evaluations (reflect + contract + shrink)
    per_run_cap = (2 * 1 + 1) + cfg.max_updates * (2 + 2 * 1)
    assert res.total_function_evals <= cfg.n_restarts * per_run_cap


def test_solve_is_deterministic(k4):
    cfg = NmConfig(n_restarts=2, max_updates=30)
    a = solve_instance(k4, 1, cfg, "sampled", NoiseParams.noiseless(), 11)
    b = solve_instance(k4, 1, cfg, "sampled", NoiseParams.noiseless(), 11)
    assert a.total_function_evals == b.total_function_evals
    assert a.best_run.best_value == b.best_run.best_value
    assert a.best_run.best_params == b.best_run.best_params
    assert a.overlap == b.overlap


def test_deeper_circuits_do_not_lose_quality(k3):
    # true optimum is monotone in p; multi-start NM at p=2 must reach at
    # least the p=1 grid-search value minus optimizer slack
    oracle_p1 = _grid_search_ratio(k3)
    cfg = NmConfig(n_restarts=8, max_updates=120)
    res = solve_instance(k3, 2, cfg, "exact", NoiseParams.noiseless(), 7)
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
        InstanceProblem(k4, 1, NmConfig(), "both", NoiseParams.noiseless(), 0)


def test_realization_count_checked_whatever_the_noise(k4):
    # a noise with no process replays one realization whatever R is, and R < 1
    # is still rejected
    for noise in (NoiseParams.noiseless(), NoiseParams.from_t2_ratio(1000.0)):
        with pytest.raises(ValueError, match="n_realizations must be at least 1, got 0"):
            InstanceProblem(k4, 1, NmConfig(), "exact", noise, 0, n_realizations=0)


def test_noiseless_shortcut_only_without_any_process(k4):
    # T1 = T2 = inf replays one realization; any finite time replays R of them
    cases = ((NoiseParams.noiseless(), 1), (NoiseParams(math.inf, math.inf, 1e-8), 1),
             (NoiseParams(1.0, 2.0, 0.01), 384), (NoiseParams(math.inf, 0.5, 0.01), 384))
    for noise, n_realizations in cases:
        problem = InstanceProblem(k4, 1, NmConfig(), "exact", noise, 0)
        assert problem.n_realizations == n_realizations


@pytest.mark.parametrize("noise", [NoiseParams.from_t2_ratio(1e4), NoiseParams.noiseless()],
                         ids=["noisy", "noiseless"])
def test_instance_problem_plans_its_schedule_once(monkeypatch, noise):
    # every evaluation of a restart and both final scorings replay one plan,
    # built at the first evaluation
    simulator._replay_plan.cache_clear()
    layout_plan, calls = simulator._layout_plan, []

    def counting(*args):
        calls.append(args)
        return layout_plan(*args)

    monkeypatch.setattr(simulator, "_layout_plan", counting)
    cfg = NmConfig(n_restarts=1, max_updates=8, n_samples=200)
    problem = InstanceProblem(gen_random_3regular(8, 4), 2, cfg, "sampled", noise, 3,
                              n_realizations=8)
    assert calls == []
    record = problem.run_restart(0)
    problem.final_overlap(record.best_params)
    problem.final_exact_ratio(record.best_params)
    assert record.n_function_evals > 8 and len(calls) == 1


# ---------------------------------------------------------------------------
# restarts on the pinned process pool
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _one_cpu():
    """Pin this process to one CPU, so that a solve runs its restarts in turn."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


_SMALL = NmConfig(n_restarts=3, max_updates=6, n_samples=300)


def _small_solve(pipeline, noise, seed=21):
    g = gen_random_3regular(6, seed)
    return solve_instance(g, 2, _SMALL, pipeline, noise, seed, n_realizations=16)


def _small_solves(pipeline, noise, seeds):
    """The JSON of each instance of one solve_instances call, in _small_solve's setting."""
    instances = [(gen_random_3regular(6, seed), seed) for seed in seeds]
    return [r.to_json() for r in solve_instances(instances, 2, _SMALL, pipeline, noise, 16)]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_pool_and_serial_solves_give_the_same_bytes():
    assert _restart_workers(3) > 1
    for pipeline in ("exact", "sampled"):
        for noise in (NoiseParams.from_t2_ratio(1e4), NoiseParams.noiseless()):
            pooled = [_small_solve(pipeline, noise, seed).to_json() for seed in (21, 22)]
            # two instances' six restarts as one task list
            assert _small_solves(pipeline, noise, (21, 22)) == pooled
            with _one_cpu():
                assert _restart_workers(6) == 1
                assert _small_solve(pipeline, noise).to_json() == pooled[0]
                assert _small_solves(pipeline, noise, (21, 22)) == pooled


def test_worker_count():
    # one worker per usable CPU and per pooled task, counted over all instances
    cpus = len(os.sched_getaffinity(0))
    for n_tasks in (0, 1, 3, 20, 800):
        assert _restart_workers(n_tasks) == min(cpus, n_tasks)


def test_pool_task_sees_one_cpu():
    with pinned_pool(2) as pool:
        seen = [pool.submit(os.sched_getaffinity, 0) for _ in range(4)]
        blocks = pool.submit(_n_blocks, 384, 1 << 10)
        assert all(len(f.result()) == 1 for f in seen)
        assert blocks.result() == 1
    assert not multiprocessing.active_children()


def test_daemonic_caller_solves_in_process():
    # a multiprocessing.Pool worker may not start children, so it solves serially
    noise = NoiseParams.from_t2_ratio(1e4)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        remote = pool.apply(_small_solve, ("sampled", noise)).to_json()
    assert remote == _small_solve("sampled", noise).to_json()


def _failing_evaluate(original):
    def evaluate(self, x, restart, eval_idx):
        if restart == 1:
            raise ValueError(f"evaluation {eval_idx} of restart {restart} failed")
        return original(self, x, restart, eval_idx)
    return evaluate


def test_worker_error_reaches_the_caller(monkeypatch):
    # forked workers inherit the patched class
    monkeypatch.setattr(InstanceProblem, "evaluate",
                        _failing_evaluate(InstanceProblem.evaluate))
    message = "^evaluation 1 of restart 1 failed$"
    with pytest.raises(ValueError, match=message):
        _small_solve("exact", NoiseParams.from_t2_ratio(1e4))
    assert not multiprocessing.active_children()
    with _one_cpu(), pytest.raises(ValueError, match=message):
        _small_solve("exact", NoiseParams.from_t2_ratio(1e4))


def test_worker_error_is_one_cli_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(InstanceProblem, "evaluate",
                        _failing_evaluate(InstanceProblem.evaluate))
    graph = tmp_path / "g.txt"
    graph.write_text(write_graph(gen_random_3regular(6, 4)))
    argv = ["solve", "--graph", str(graph), "--p", "1", "--restarts", "2",
            "--max-updates", "2", "--realizations", "4", "--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: evaluation 1 of restart 1 failed\n"
    with pytest.raises(ValueError, match="restart 1 failed"):
        main(["--debug", *argv])
    assert not multiprocessing.active_children()


class _Interrupted(Exception):
    pass


def test_interrupt_kills_the_workers(monkeypatch):
    # the workers would sleep for a minute; an exception raised in the caller
    # while it waits for them must end them at once
    def slow(self, x, restart, eval_idx):
        time.sleep(60)

    def interrupt(*_):
        raise _Interrupted

    monkeypatch.setattr(InstanceProblem, "evaluate", slow)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(_Interrupted):
            _small_solve("exact", NoiseParams.from_t2_ratio(1e4))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30
    assert not multiprocessing.active_children()
