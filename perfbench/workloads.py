"""The benchmark's workloads: inputs made from the seed, the timed operation
and the checks on its output.

Every input is derived from the seed slot (see ``run.py``) through
``numpy.random.SeedSequence``; qaoabench only ever receives the generated
graphs, angles, noise parameters and seeds. Operation ``j`` of a run always
uses the same inputs, so a run's outputs can be compared with reference
values recorded from the program for that slot.
"""
from __future__ import annotations

import functools
import math
import time
import zlib

import numpy as np

from qaoabench.circuit import QaoaParams, build_qaoa_circuit
from qaoabench.costmodel import HardwareTimes, instance_wall_time
from qaoabench.graphs import brute_force_maxcut, cut_values_table, gen_random_3regular
from qaoabench.optimizer import InstanceProblem, NmConfig, solve_instance
from qaoabench.scheduler import (choose_grid, emit_pdpt, parse_pdpt, schedule,
                                 validate_schedule)
from qaoabench.simulator import (NoiseParams, apply_rx, apply_zzphase, optima_mask,
                                 probabilities, run_noisy_ensemble)

from tracing import maybe_span

P = 4                                   # QAOA depth of every workload
PAPER_NOISE = NoiseParams(200e-6, 100e-6, 10e-9)
T2R50_NOISE = NoiseParams.from_t2_ratio(50.0)
REL_TOL = 1e-12                         # ROADMAP aim 2: refactors agree to 1e-12
SUM_TOL = 1e-9
POOL = 10                               # seed slots with recorded references
SWEEP_SIZES = (24, 36, 50, 64, 80)
NOMINAL_CYCLES = 32                     # ensemble op_s is per call of this depth
AMP_BYTES = 16                          # complex128


def derive(*path: int) -> int:
    return int(np.random.SeedSequence([int(x) for x in path]).generate_state(1)[0])


def random_params(seed: int) -> QaoaParams:
    rng = np.random.default_rng(seed)
    return QaoaParams(tuple(rng.uniform(0.0, 2.0 * math.pi, P)),
                      tuple(rng.uniform(0.0, math.pi, P)))


def jump_candidate_share(noise: NoiseParams, n: int, depth: int) -> float:
    """Share of trajectories with at least one qubit-cycle where u < p_damp."""
    p_damp = noise.damping_prob(noise.t_gate)
    return 1.0 - (1.0 - p_damp) ** (n * depth)


def compare(values: dict, ref: dict) -> list[str]:
    """Differences of values from ref: integers exactly, floats to REL_TOL."""
    return [f"{key}: got {values.get(key)!r}, reference {want!r}"
            for key, want in ref.items() if not _same(values.get(key), want)]


def _same(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, int):
        return got == want
    return got is not None and abs(got - want) <= REL_TOL * max(1.0, abs(want))


class Workload:
    """One workload at one seed slot.

    build() makes every input and the pipeline objects the operations need;
    it is repeated to time set-up. op(j) is one timed operation; op(-1), when
    has_warmup is set, is the untimed first call. values() extracts what is
    compared with the recorded reference, invariants() what must hold for
    any seed.
    """

    name = ""
    n_instances = 1     # a run makes at least one operation on each instance
    max_ops = None      # operations with recorded references, when capped
    has_warmup = False
    interpreter_bound = True    # times normalised by calibrate.Calibrator

    def __init__(self, slot: int, smoke: bool = False):
        self.slot = slot
        self.tag = zlib.crc32(self.name.encode())

    def seed(self, *path: int) -> int:
        return derive(self.tag, self.slot, *path)

    def reference_ops(self) -> list[int]:
        first = [-1] if self.has_warmup else []
        return first + list(range(self.max_ops or self.n_instances))

    def ref_key(self, j: int) -> str:
        return "warm" if j < 0 else f"op{j if self.max_ops else j % self.n_instances}"

    def check(self, j: int, out, refs: dict | None) -> list[str]:
        errors = self.invariants(j, out)
        if refs is not None:
            ref = refs.get(self.ref_key(j))
            if ref is None:
                errors.append(f"no reference value for {self.ref_key(j)}")
            else:
                errors += compare(self.values(j, out), ref)
        return errors

    def steps(self, j: int) -> list:
        """Untraced operation j as calls that are timed one by one."""
        return [functools.partial(self.op, j, None)]

    def join(self, outs: list):
        """The output of op(j) from the outputs of steps(j)."""
        return outs[0]

    def work_scale(self, j: int) -> float:
        """Factor that brings the time of operation j to the workload's nominal size."""
        return 1.0

    def probes(self) -> dict:
        """Direct kernel calls on this workload's (R, 2^N) batch."""
        g = self.instances[0][0]
        return kernel_probes(self.r, self.n, g.edges, self.seed(9))

    def simulation_descriptors(self, depths: list[int]) -> dict:
        return {"n": self.n, "realizations": self.r, "depths": depths,
                "t2_over_tgate": self.noise.t2 / self.noise.t_gate,
                "jump_candidate_share": float(np.mean(
                    [jump_candidate_share(self.noise, self.n, d) for d in depths])),
                "batch_bytes": self.r * (1 << self.n) * AMP_BYTES}


class SolveN8(Workload):
    name = "solve-n8"
    n_instances = 6

    def __init__(self, slot, smoke=False):
        super().__init__(slot, smoke)
        self.n, self.r = (6, 4) if smoke else (8, 96)
        self.cfg = NmConfig(n_restarts=2, max_updates=1 if smoke else 6)
        self.noise = PAPER_NOISE

    def build(self, tracer):
        self.instances = []
        for i in range(self.n_instances):
            g = gen_random_3regular(self.n, self.seed(i, 0))
            master = self.seed(i, 2)
            problem = InstanceProblem(g, P, self.cfg, "sampled", self.noise, master, self.r)
            self.instances.append((g, master, problem))

    def op(self, j, tracer):
        g, master, _ = self.instances[j % self.n_instances]
        result = solve_instance(g, P, self.cfg, "sampled", self.noise, master, self.r)
        with maybe_span(tracer, "costmodel.wall_time"):
            cost = instance_wall_time(result, result.depth, HardwareTimes(), self.cfg.n_samples)
        return result, cost

    def values(self, j, out):
        result, cost = out
        return {"evals": result.total_function_evals,
                "restart_evals": [r.n_function_evals for r in result.runs],
                "best_value": result.best_run.best_value,
                "depth": result.depth,
                "wall_time": cost.wall_time,
                "overlap": result.overlap,
                "exact_ratio": result.best_exact_ratio}

    def invariants(self, j, out):
        result, cost = out
        errors = []
        if result.total_function_evals != sum(r.n_function_evals for r in result.runs):
            errors.append("total evaluations differ from the sum over restarts")
        if len(result.runs) != self.cfg.n_restarts:
            errors.append(f"{len(result.runs)} restarts, expected {self.cfg.n_restarts}")
        if not 0.0 <= result.overlap <= 1.0:
            errors.append(f"overlap {result.overlap} outside [0, 1]")
        if not 0.0 < result.best_exact_ratio <= 1.0:
            errors.append(f"best exact ratio {result.best_exact_ratio} outside (0, 1]")
        if result.depth != self.instances[j % self.n_instances][2].depth:
            errors.append("solve depth differs from the set-up schedule")
        if cost.total_repetitions != result.total_function_evals * self.cfg.n_samples:
            errors.append("cost model repetitions differ from evaluations x samples")
        return errors

    def descriptors(self):
        return dict(self.simulation_descriptors([prob.depth for _, _, prob in self.instances]),
                    restarts=self.cfg.n_restarts, max_updates=self.cfg.max_updates)


class Ensemble(Workload):
    n_instances = 4
    max_ops = 8
    has_warmup = True
    interpreter_bound = False

    def __init__(self, slot, smoke=False):
        super().__init__(slot, smoke)
        if smoke:
            self.n, self.r = 6, 4

    def build(self, tracer):
        self.instances = []
        for i in range(self.n_instances):
            g = gen_random_3regular(self.n, self.seed(i, 0))
            c = build_qaoa_circuit(g, random_params(self.seed(i, 1)))
            grid = choose_grid(self.n)
            with maybe_span(tracer, "scheduler.schedule"):
                s = schedule(c, grid, self.seed(i, 3))
            with maybe_span(tracer, "graphs.cut_table"):
                cut = cut_values_table(g)
            with maybe_span(tracer, "graphs.bruteforce"):
                _, optima = brute_force_maxcut(g)
            self.instances.append((g, c, s, cut, optima_mask(optima, g.n)))
        self.weights = np.random.default_rng(self.seed(8)).random((2, 1 << self.n))

    def op(self, j, tracer):
        g, c, s, cut, mask = self.instances[max(j, 0) % self.n_instances]
        with maybe_span(tracer, "simulator.ensemble",
                        amp_cycles=self.r * s.n_cycles * (1 << self.n)):
            return run_noisy_ensemble(s, c, self.noise, self.r, self.seed(j + 1, 4),
                                      cut_table=cut, overlap_mask=mask)

    def work_scale(self, j):
        # A call's time grows in proportion to the schedule's cycles; the
        # depth of each graph is the scheduler's doing, and schedule-sweep
        # measures it.
        return NOMINAL_CYCLES / self.instances[max(j, 0) % self.n_instances][2].n_cycles

    def values(self, j, ens):
        w1, w2 = self.weights @ ens.mean_probs
        return {"sum": float(ens.mean_probs.sum()), "cut": ens.mean_cut,
                "overlap": ens.mean_overlap, "w1": float(w1), "w2": float(w2)}

    def invariants(self, j, ens):
        probs = ens.mean_probs
        errors = []
        if probs.shape != (1 << self.n,) or ens.n_realizations != self.r:
            return [f"ensemble shape {probs.shape} x {ens.n_realizations} realizations"]
        if not abs(probs.sum() - 1.0) <= SUM_TOL:
            errors.append(f"mean_probs sums to {probs.sum()!r}")
        if probs.min() < 0.0:
            errors.append("negative probability")
        cut = self.instances[max(j, 0) % self.n_instances][3]
        if not abs(ens.mean_cut - float(probs @ cut)) <= SUM_TOL * max(1.0, ens.mean_cut):
            errors.append("mean cut disagrees with mean_probs")
        return errors

    def descriptors(self):
        return self.simulation_descriptors([s.n_cycles for _, _, s, _, _ in self.instances])


class EnsembleN14(Ensemble):
    name = "ensemble-n14"
    n_instances = 6
    n, r, noise = 14, 32, PAPER_NOISE


class EnsembleN12T2R50(Ensemble):
    name = "ensemble-n12-t2r50"
    n_instances = 8
    n, r, noise = 12, 96, T2R50_NOISE


class ScheduleSweep(Workload):
    name = "schedule-sweep"
    n_instances = 3

    def __init__(self, slot, smoke=False):
        super().__init__(slot, smoke)
        self.sizes = (10, 16) if smoke else SWEEP_SIZES

    def build(self, tracer):
        self.instances = []
        for i in range(self.n_instances):
            jobs = []
            for n in self.sizes:
                g = gen_random_3regular(n, self.seed(i, n, 0))
                c = build_qaoa_circuit(g, random_params(self.seed(i, n, 1)))
                jobs.append((n, c, choose_grid(n), self.seed(i, n, 3)))
            self.instances.append(jobs)

    def op(self, j, tracer):
        return [self.job(*job, tracer) for job in self.instances[j % self.n_instances]]

    def steps(self, j):
        return [functools.partial(self.job, *job, None)
                for job in self.instances[j % self.n_instances]]

    def join(self, outs):
        return outs

    def job(self, n, c, grid, seed, tracer):
        with maybe_span(tracer, "scheduler.schedule", n=n):
            s = schedule(c, grid, seed)
        with maybe_span(tracer, "scheduler.validate", n=n):
            violations = validate_schedule(s, c, grid)
        with maybe_span(tracer, "scheduler.pdpt", n=n):
            text = emit_pdpt(s)
            back = parse_pdpt(text, grid, s.n_prep_gates)
        return n, s, violations, text, back

    def values(self, j, out):
        return {"depth": [s.n_cycles for _, s, _, _, _ in out],
                "swaps": [count_swaps(s) for _, s, _, _, _ in out]}

    def invariants(self, j, out):
        errors = []
        for n, s, violations, text, back in out:
            if violations:
                errors.append(f"N={n}: {len(violations)} violations, first: {violations[0]}")
            if back != s or emit_pdpt(back) != text:
                errors.append(f"N={n}: PDPT round trip changed the schedule")
        return errors

    def descriptors(self):
        return {"sizes": list(self.sizes)}

    def probes(self):
        return {}


def count_swaps(s) -> int:
    return len({e for row in s.table for e in row if e < 0})


def kernel_probes(r: int, n: int, edges, seed: int, passes: int = 3) -> dict:
    """Median milliseconds of one direct kernel call on a random (r, 2^n) batch."""
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((r, 1 << n)) + 1j * rng.standard_normal((r, 1 << n))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    timings = {"rx": [], "zz": [], "probs": []}
    for _ in range(passes):
        for q in range(n):
            t = time.perf_counter()
            apply_rx(batch, n, q, 0.3)
            timings["rx"].append(time.perf_counter() - t)
        for a, b in edges:
            t = time.perf_counter()
            apply_zzphase(batch, n, a, b, 0.7)
            timings["zz"].append(time.perf_counter() - t)
        t = time.perf_counter()
        probabilities(batch)
        timings["probs"].append(time.perf_counter() - t)
    return {k: 1e3 * float(np.median(v)) for k, v in timings.items()}


WORKLOADS = {w.name: w for w in (SolveN8, EnsembleN14, EnsembleN12T2R50, ScheduleSweep)}
