"""Multi-start Nelder-Mead outer loop with function-evaluation accounting.

The simplex update uses the fixed coefficients REFLECTION, EXPANSION,
CONTRACTION and SHRINK (1.1 / 1.5 / 0.6 / 0.4) and runs until either
NmConfig.max_updates (300) simplex updates have happened or the best vertex
has not changed for STALL_FACTOR * p (10 p) consecutive updates. Every
objective call is counted, including the 2p+1 initial-simplex evaluations,
because on hardware each one costs real repetitions.

Each restart owns an independent random stream derived from
(master seed, restart index); within a restart, evaluations are strictly
sequential, mirroring how a hybrid loop would drive one device. So
solve_instances spreads the restarts of all its instances, as one list of
(instance, restart) tasks, largest N first, over one pool of forked worker
processes (pinned_pool), each pinned to one usable CPU, and gets the same
bits as one process running them in turn. On one CPU, for one task, or in a
daemonic process (which may not start any children) the restarts run in turn
in the calling process instead, each batch on up to one row-block thread per
usable CPU. The final scorings of each instance's best parameters run in the
caller. Every evaluation, with noise or without, is one run_noisy_ensemble
call on the instance's schedule; without noise it replays one realization.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .circuit import QaoaParams, build_qaoa_circuit
from .graphs import Graph, brute_force_maxcut, cut_values_table, require_edge
from .scheduler import choose_grid, schedule
from .simulator import NoiseParams, optima_mask, run_noisy_ensemble, sample_from_probs

SIMPLEX_OFFSET = 0.25  # radians added along each axis to form the initial simplex
REFLECTION = 1.1
EXPANSION = 1.5        # scales the reflection step
CONTRACTION = 0.6
SHRINK = 0.4
STALL_FACTOR = 10      # stall window = STALL_FACTOR * p updates
DEFAULT_REALIZATIONS = 384  # noise realizations per sampled evaluation


@dataclass(frozen=True)
class NmConfig:
    """Nelder-Mead termination limit, restart budget and samples per evaluation."""

    max_updates: int = 300
    n_restarts: int = 20
    n_samples: int = 10_000

    def __post_init__(self):
        if min(self.max_updates, self.n_restarts, self.n_samples) <= 0:
            raise ValueError("counts must be positive")


@dataclass
class RunRecord:
    """Outcome of one optimization run (one restart)."""

    best_params: QaoaParams
    best_value: float
    n_function_evals: int
    termination: str                # "max_updates" or "stalled"
    trace: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "best_gammas": list(self.best_params.gammas),
            "best_betas": list(self.best_params.betas),
            "best_value": self.best_value,
            "n_function_evals": self.n_function_evals,
            "termination": self.termination,
            "trace": self.trace,
        }


def random_initial_simplex(p: int, rng: np.random.Generator) -> np.ndarray:
    """Base point with gammas in [0, 2pi), betas in [0, pi), plus 2p offsets.

    Rows are simplex vertices in the flat (gammas..., betas...) layout;
    vertex k+1 displaces the base by SIMPLEX_OFFSET along axis k, which
    keeps the vertices affinely independent.
    """
    base = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, p),
                           rng.uniform(0.0, np.pi, p)])
    simplex = np.tile(base, (2 * p + 1, 1))
    for k in range(2 * p):
        simplex[k + 1, k] += SIMPLEX_OFFSET
    return simplex


def nelder_mead(objective, initial_simplex: np.ndarray, cfg: NmConfig) -> RunRecord:
    """Maximize objective(params_vector) from the given simplex.

    One "update" is one pass of the main loop (reflection through shrink).
    Terminates at cfg.max_updates updates, or as "stalled" once the best
    vertex is unchanged for STALL_FACTOR * p consecutive updates. Sorting
    is stable, so on exact ties the incumbent best vertex is kept.
    """
    simplex = np.array(initial_simplex, dtype=float)
    n_vertices, dim = simplex.shape
    if n_vertices != dim + 1:
        raise ValueError(f"simplex needs {dim + 1} vertices for dimension {dim}")
    if np.linalg.matrix_rank(simplex[1:] - simplex[0]) < dim:
        raise ValueError("degenerate initial simplex")
    p = dim // 2 if dim % 2 == 0 else dim
    stall_window = STALL_FACTOR * max(p, 1)

    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return -float(objective(x))

    values = np.array([f(x) for x in simplex])
    order = np.argsort(values, kind="stable")
    simplex, values = simplex[order], values[order]

    rho, chi, psi, sigma = REFLECTION, EXPANSION, CONTRACTION, SHRINK
    trace: list[float] = []
    termination = "max_updates"
    stall = 0
    prev_best = simplex[0].copy()

    for _ in range(cfg.max_updates):
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        xr = centroid + rho * (centroid - worst)
        fr = f(xr)

        if fr < values[0]:
            xe = centroid + rho * chi * (centroid - worst)
            fe = f(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:     # outside contraction
                xc = centroid + psi * rho * (centroid - worst)
                fc = f(xc)
                accept = fc <= fr
            else:                   # inside contraction
                xc = centroid - psi * (centroid - worst)
                fc = f(xc)
                accept = fc < values[-1]
            if accept:
                simplex[-1], values[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
                values[1:] = [f(x) for x in simplex[1:]]

        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        trace.append(-values[0])

        if np.array_equal(simplex[0], prev_best):
            stall += 1
            if stall >= stall_window:
                termination = "stalled"
                break
        else:
            stall = 0
            prev_best = simplex[0].copy()

    return RunRecord(
        best_params=QaoaParams.from_vector(simplex[0]),
        best_value=-float(values[0]),
        n_function_evals=evals,
        termination=termination,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# per-instance pipeline
# ---------------------------------------------------------------------------

@dataclass
class InstanceSolveResult:
    """Everything the cost model needs about one solved instance."""

    n: int
    p: int
    best_run: RunRecord
    runs: list[RunRecord]
    total_function_evals: int
    overlap: float                  # best-state mass on brute-force optima
    best_exact_ratio: float         # exact <cut>/k_max at the best params
    k_max: int
    depth: int                      # scheduled circuit depth (prep excluded)

    def to_json(self) -> str:
        payload = {
            "n": self.n, "p": self.p,
            "total_function_evals": self.total_function_evals,
            "overlap": self.overlap,
            "best_exact_ratio": self.best_exact_ratio,
            "k_max": self.k_max,
            "depth": self.depth,
            "best_run": self.best_run.to_dict(),
            "runs": [r.to_dict() for r in self.runs],
        }
        return json.dumps(payload, indent=2) + "\n"


def _derived_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def estimate_cut(samples: np.ndarray, cut_table: np.ndarray) -> float:
    """Mean cut over sampled basis states (integer codes): the estimate the
    sampled pipeline feeds the optimizer, sampling noise included."""
    if len(samples) == 0:
        raise ValueError("no samples")
    return float(cut_table[np.asarray(samples, dtype=np.int64)].astype(np.float64).mean())


class InstanceProblem:
    """One Max-Cut instance compiled and ready for repeated evaluation.

    The schedule is angle-independent -- QAOA circuits at one depth share
    their structure -- so routing happens once here, the replay's plan is built
    at the first evaluation (simulator._replay_plan), and every objective
    evaluation just replays it with fresh angles (and, in the sampled
    pipeline, fresh noise realizations and fresh measurement shots). A noise
    with no process (T1 = T2 = inf, as NoiseParams.noiseless()) leaves every
    realization in the same state, so each evaluation then replays one.
    """

    def __init__(self, g: Graph, p: int, cfg: NmConfig, pipeline: str,
                 noise: NoiseParams, master_seed: int,
                 n_realizations: int = DEFAULT_REALIZATIONS):
        if pipeline not in ("exact", "sampled"):
            raise ValueError(f"pipeline must be 'exact' or 'sampled', got {pipeline!r}")
        if n_realizations < 1:
            raise ValueError(f"n_realizations must be at least 1, got {n_realizations}")
        require_edge(g)
        self.g = g
        self.p = p
        self.cfg = cfg
        self.pipeline = pipeline
        self.noise = noise
        self.master_seed = master_seed
        self.n_realizations = 1 if math.isinf(noise.t1) and math.isinf(noise.t2) \
            else n_realizations

        self.circuit0 = build_qaoa_circuit(g, QaoaParams((0.0,) * p, (0.0,) * p))
        self.grid = choose_grid(g.n)
        self.schedule = schedule(self.circuit0, self.grid, _derived_seed(master_seed, 0xC0))
        self.depth = self.schedule.n_cycles
        self.cut_table = cut_values_table(g)
        self.k_max, self.optima = brute_force_maxcut(g)
        self.optima_mask = optima_mask(self.optima, g.n)

    def _final_probs(self, params: QaoaParams, ens_seed: int) -> np.ndarray:
        circuit = build_qaoa_circuit(self.g, params)
        ens = run_noisy_ensemble(self.schedule, circuit, self.noise,
                                 self.n_realizations, ens_seed)
        return ens.mean_probs

    def evaluate(self, x: np.ndarray, restart: int, eval_idx: int) -> float:
        """One objective evaluation: the estimated (or exact) expected cut."""
        params = QaoaParams.from_vector(x)
        probs = self._final_probs(params, _derived_seed(self.master_seed, restart, eval_idx, 1))
        if self.pipeline == "exact":
            return float(probs @ self.cut_table)
        rng = np.random.default_rng([self.master_seed, restart, eval_idx, 2])
        samples = sample_from_probs(probs, self.cfg.n_samples, rng)
        return estimate_cut(samples, self.cut_table)

    def run_restart(self, restart: int) -> RunRecord:
        rng = np.random.default_rng([self.master_seed, restart, 0xA11])
        simplex = random_initial_simplex(self.p, rng)
        counter = [0]

        def objective(x):
            counter[0] += 1
            return self.evaluate(x, restart, counter[0])

        return nelder_mead(objective, simplex, self.cfg)

    def final_overlap(self, params: QaoaParams) -> float:
        probs = self._final_probs(params, _derived_seed(self.master_seed, 0xF1))
        return float(probs[self.optima_mask].sum())

    def final_exact_ratio(self, params: QaoaParams) -> float:
        probs = self._final_probs(params, _derived_seed(self.master_seed, 0xF2))
        return float(probs @ self.cut_table) / self.k_max


# ---------------------------------------------------------------------------
# the process pool
# ---------------------------------------------------------------------------

def _pin_worker(cpus) -> None:
    """Pin this pool worker to the next CPU in the queue, so that its ensembles
    run on one row block (simulator._n_blocks counts the usable CPUs)."""
    os.sched_setaffinity(0, {cpus.get()})


@contextlib.contextmanager
def pinned_pool(n_workers: int):
    """A ProcessPoolExecutor of n_workers forked processes, each pinned to one
    usable CPU, the CPUs taken in turn.

    Forked workers inherit the loaded package; spawned ones would import
    qaoabench.optimizer again (0.18 s) for every solve. The executor forks
    all workers at the first task, before it starts its own thread, so the
    caller must run no thread of its own then (simulator._run_blocks joins
    its threads before it returns). A task's exception reaches the caller
    with its type and message when it takes the result. When the with-block
    raises (a task's exception, or an interrupt), the workers are killed
    rather than left to finish the tasks already queued; either way none
    outlives the block.
    """
    # imported here, as in simulator._run_blocks: they load logging, which a solve
    # on one worker and a lone ensemble need not hold
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    cpus = ctx.SimpleQueue()
    allowed = sorted(os.sched_getaffinity(0))
    for k in range(n_workers):
        cpus.put(allowed[k % len(allowed)])
    pool = ProcessPoolExecutor(n_workers, mp_context=ctx, initializer=_pin_worker,
                               initargs=(cpus,))
    try:
        yield pool
    except BaseException:
        # the executor has no public way to stop a running task
        for proc in list((pool._processes or {}).values()):
            proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
        cpus.close()


def _restart_workers(n_tasks: int) -> int:
    """Worker processes for n_tasks pooled restarts: one per usable CPU and per
    task, and at most 1 in a daemonic process, which may not start children."""
    count = min(len(os.sched_getaffinity(0)), n_tasks)
    if count <= 1:
        return count
    import multiprocessing
    return 1 if multiprocessing.current_process().daemon else count


def solve_instances(instances: list[tuple[Graph, int]], p: int, cfg: NmConfig, pipeline: str,
                    noise: NoiseParams,
                    n_realizations: int = DEFAULT_REALIZATIONS) -> list[InstanceSolveResult]:
    """Solve each (graph, master seed) pair as solve_instance does, the results
    in instance order.

    Each instance is compiled here, once. The restarts of all instances form
    one task list, largest N first, so that the pool ends on its shortest
    tasks. It runs on one pinned_pool of one worker per usable CPU and per
    task; an error in a worker is raised here with its type and message. On
    one CPU, for one task or in a daemonic process the tasks run here in turn.
    The final scorings run here. Each worker holds its own ensemble batch,
    states and spare of 32 * R * 2^N bytes (at most 2 GiB under
    simulator._CHUNK_AMPS), so the peak memory grows with the worker count:
    about 0.8 GB per worker at N=16, R=384. A process that solves alongside
    others should be pinned to one CPU, or each starts a pool of its own.
    """
    restarts = range(cfg.n_restarts)
    problems = [InstanceProblem(g, p, cfg, pipeline, noise, seed, n_realizations)
                for g, seed in instances]
    tasks = [(problem, r) for problem in sorted(problems, key=lambda q: -q.g.n)
             for r in restarts]
    n_workers = _restart_workers(len(tasks))
    if n_workers > 1:
        with pinned_pool(n_workers) as pool:
            # map(f, problems, restarts) calls f(problem, restart) for each task
            done = dict(zip(tasks, pool.map(InstanceProblem.run_restart, *zip(*tasks))))
    else:
        done = {(problem, r): problem.run_restart(r) for problem, r in tasks}
    results = []
    for problem in problems:
        runs = [done[problem, r] for r in restarts]
        best = max(runs, key=lambda r: r.best_value)
        results.append(InstanceSolveResult(
            n=problem.g.n,
            p=p,
            best_run=best,
            runs=runs,
            total_function_evals=sum(r.n_function_evals for r in runs),
            overlap=problem.final_overlap(best.best_params),
            best_exact_ratio=problem.final_exact_ratio(best.best_params),
            k_max=problem.k_max,
            depth=problem.depth,
        ))
    return results


def solve_instance(g: Graph, p: int, cfg: NmConfig, pipeline: str,
                   noise: NoiseParams, master_seed: int,
                   n_realizations: int = DEFAULT_REALIZATIONS) -> InstanceSolveResult:
    """Run cfg.n_restarts independent Nelder-Mead runs and keep the best.

    All runs are costed: the total function-evaluation count sums over
    every restart, matching how the repetition budget is spent on
    hardware. The best run is the one with the highest estimated
    objective; its final state is scored for overlap with the brute-force
    optima and for the exact approximation ratio. The restarts run as
    solve_instances runs them: on the pinned pool, or here in turn on one CPU.
    """
    return solve_instances([(g, master_seed)], p, cfg, pipeline, noise, n_realizations)[0]
