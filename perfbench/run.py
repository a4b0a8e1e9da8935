"""Fixed-seed benchmark of the qaoabench pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload solve-n8 --seed 3 --seconds 22 --trace 0

Workloads (p=4, one process, single-threaded BLAS):

  solve-n8            solve_instance on random 3-regular N=8 graphs, sampled
                      pipeline, paper noise, R=96, 2 restarts of at most 6
                      Nelder-Mead updates each.
  ensemble-n14        one run_noisy_ensemble call, N=14, paper noise, R=32.
  ensemble-n12-t2r50  one run_noisy_ensemble call, N=12, T2/T_G=50, R=96.
  schedule-sweep      schedule + validate_schedule + PDPT emit/parse round
                      trip at N = 24, 36, 50, 64, 80.

Each run makes at least one operation on each of the workload's instances
and keeps going while the next one is expected to end within --seconds.

End-to-end metrics (--trace 0, no tracing installed):

  op_s         seconds per operation: the mean over instances of each
               instance's median. It is the solve time on solve-n8, the time
               per ensemble call on the ensemble workloads (R / op_s is the
               realizations per second) and the compile time of one sweep on
               schedule-sweep. An ensemble call's time is scaled to a circuit
               of workloads.NOMINAL_CYCLES cycles, as it grows in proportion
               to the cycles, and the graphs' schedules at N=14 range from
               about 24 to 40 cycles. On solve-n8 and schedule-sweep, whose time
               goes to the interpreter, each call is timed together with
               probes of a reference loop run before, during and after it,
               and scaled to a host on which that loop takes
               calibrate.NOMINAL_S, because the shared host's speed changes
               by up to 1.5x within a run (see calibrate.py). The ensemble
               workloads are not scaled for host speed.
  setup_s      seconds a fresh process spends before its first operation:
               median import time of qaoabench over 3 fresh interpreters, plus
               the median of 3 builds of the inputs and pipeline objects
               (graphs, circuits, schedules, cut tables, brute-force optima,
               InstanceProblem), plus the first ensemble call on the
               ensemble workloads, which is slower than later ones. Scaled
               for host speed like op_s.
  peak_rss_mb  peak resident memory of the benchmark process.

The share of operations whose output fails its check is reported by the
result's "attempted" and "failed" counts.

Per-layer metrics (--trace 1) come from a separate run that alternates an
untraced and a traced operation on the same inputs. Spans are recorded by the
benchmark around its own calls into qaoabench and around the names that
qaoabench.optimizer imports (see TRACED). Per-operation busy times count
spans directly under an operation, so on solve-n8 the busy times plus
optimizer.self_s add up to trace.op_s. A metric of a layer that a workload
does not use reads 0.

Inputs come from the seed slot (seed mod POOL). The outputs are compared with
reference values recorded for each slot from the program (perfbench/record.py)
to 1e-12, and with invariants that hold for any seed. A line of JSON with the
machine, provenance, workload descriptors, per-operation times (host and
scaled), the unscaled op_s and setup_s, and the mean probe time of each timed
section precedes the result line.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
IMPORT_CHILD = ("import time; t = time.perf_counter(); import qaoabench; "
                "print(time.perf_counter() - t)")


def import_package():
    """Import qaoabench from this checkout's src/; exits if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import qaoabench
    except ImportError as exc:
        sys.exit(f"cannot import qaoabench from {SRC}: {exc}")
    if Path(qaoabench.__file__).resolve().parent.parent != SRC:
        sys.exit(f"qaoabench imported from {qaoabench.__file__}, not from {SRC}")
    return qaoabench


def _ensemble_work(args, kwargs):
    try:
        s, c, _, r = args[:4]
        return {"amp_cycles": r * s.n_cycles * (1 << c.n_qubits)}
    except (ValueError, TypeError, AttributeError):
        return {}


# Names qaoabench.optimizer imports from the other layers, and their spans.
TRACED = {
    "qaoabench.optimizer.run_noisy_ensemble": ("simulator.ensemble", _ensemble_work),
    "qaoabench.optimizer.sample_from_probs": ("simulator.sample", None),
    "qaoabench.optimizer.estimate_cut": ("estimator.estimate", None),
    "qaoabench.optimizer.build_qaoa_circuit": ("circuit.build", None),
    "qaoabench.optimizer.schedule": ("scheduler.schedule", None),
    "qaoabench.optimizer.brute_force_maxcut": ("graphs.bruteforce", None),
    "qaoabench.optimizer.cut_values_table": ("graphs.cut_table", None),
}

# Per-operation busy time: spans of these names directly under an operation.
BUSY = {
    "simulator.ensemble_busy_s": ("simulator.ensemble",),
    "simulator.sample_busy_s": ("simulator.sample",),
    "estimator.estimate_busy_s": ("estimator.estimate",),
    "circuit.build_busy_s": ("circuit.build",),
    "scheduler.busy_s": ("scheduler.schedule",),
    "graphs.busy_s": ("graphs.bruteforce", "graphs.cut_table"),
    "costmodel.busy_s": ("costmodel.wall_time",),
    "scheduler.validate_s": ("scheduler.validate",),
    "scheduler.pdpt_s": ("scheduler.pdpt",),
}

# Seconds of one set-up spent in a layer.
SETUP_LAYERS = {
    "scheduler.schedule_s": "scheduler.schedule",
    "graphs.bruteforce_s": "graphs.bruteforce",
    "graphs.cut_table_s": "graphs.cut_table",
}


# ---------------------------------------------------------------------------
# machine and provenance
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l2_bytes() -> int:
    size = os.sysconf("SC_LEVEL2_CACHE_SIZE") if "SC_LEVEL2_CACHE_SIZE" in os.sysconf_names else 0
    if size > 0:
        return size
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
        return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        return 0


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, without searching parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qaoabench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "l2_bytes": l2_bytes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Time to import qaoabench in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Bench:
    """One benchmark run of one workload; collects times, checks and spans."""

    def __init__(self, wl, refs, seconds, tracer=None):
        from calibrate import Calibrator
        self.wl = wl
        self.refs = refs
        self.seconds = seconds
        self.tracer = tracer
        self.cal = Calibrator(wl.interpreter_bound and tracer is None)
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def checked(self, j, out):
        self.attempted += 1
        errors = self.wl.check(j, out, self.refs)
        if errors:
            self.failed += 1
            self.errors += [f"op {j}: {e}" for e in errors[:3]]

    def build(self) -> None:
        if self.tracer is None:
            self.wl.build(None)
        else:
            with self.tracer.installed(TRACED):
                self.wl.build(self.tracer)

    def setup(self, import_reps: int) -> dict:
        """Times set-up; each entry is [host seconds, normalised seconds]."""
        imports, builds = [], []
        for _ in range(import_reps):
            child_s, _, scale = self.cal.timed(import_seconds)
            imports.append([child_s, child_s * scale])
        for _ in range(SETUP_REPS):
            _, raw, scale = self.cal.timed(self.build)
            builds.append([raw, raw * scale])
        first_call = [0.0, 0.0]
        if self.wl.has_warmup:
            if self.tracer is not None:
                self.tracer.phase = "warmup"
            out, raw, scale = self.cal.timed(lambda: self.wl.op(-1, self.tracer))
            first_call = [raw, raw * scale]
            self.checked(-1, out)
        return {"import_s": imports, "build_s": builds, "first_call_s": first_call}

    def more(self, j: int, times: list[float], t0: float) -> bool:
        if j < self.wl.n_instances and (j == 0 or self.tracer is None):
            return True
        if self.wl.max_ops is not None and j >= self.wl.max_ops:
            return False
        return time.perf_counter() - t0 + statistics.fmean(times) <= self.seconds

    def timed_ops(self) -> list[tuple[int, float, float]]:
        """(j, host seconds, normalised seconds) of each timed operation.

        Each step of an operation is timed on its own (see calibrate.py), and
        the sum is scaled to the workload's nominal size (work_scale).
        """
        times: list[tuple[int, float, float]] = []
        t0 = time.perf_counter()
        j = 0
        while self.more(j, [raw for _, raw, _ in times], t0):
            outs, raw, norm = [], 0.0, 0.0
            for step in self.wl.steps(j):
                out, dt, scale = self.cal.timed(step)
                outs.append(out)
                raw += dt
                norm += dt * scale
            times.append((j, raw, norm * self.wl.work_scale(j)))
            self.checked(j, self.wl.join(outs))
            j += 1
        return times

    def traced_pairs(self):
        """Untraced and traced operation j in turn, alternating which is first."""
        tracer = self.tracer
        tracer.phase = "op"
        pairs, values, absent = [], [], []
        t0 = time.perf_counter()
        j = 0
        while self.more(j, [u + v for u, v in pairs], t0):
            pair = {}
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                t = time.perf_counter()
                if traced:
                    tracer.op = j
                    with tracer.installed(TRACED) as absent, tracer.span("op"):
                        out = self.wl.op(j, tracer)
                    tracer.op = None
                    values.append(self.wl.values(j, out))
                else:
                    out = self.wl.op(j, None)
                pair[traced] = time.perf_counter() - t
                self.checked(j, out)
            pairs.append((pair[False], pair[True]))
            j += 1
        return pairs, values, absent


def op_seconds(wl, times) -> float:
    """Mean over instances of the median time of each instance's operations.

    times holds (j, seconds) pairs.
    """
    by_instance: dict[int, list[float]] = {}
    for j, dt in times:
        by_instance.setdefault(j % wl.n_instances, []).append(dt)
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def layer_metrics(wl, tracer, pairs, values, first_call_s, probes) -> dict:
    import workloads
    spans = tracer.spans
    first_values = values[0]
    op_spans = {i: s for i, s in enumerate(spans) if s.name == "op"}
    n_ops = len(op_spans)
    direct = [s for s in spans if s.parent in op_spans]
    m = {}
    for metric, names in BUSY.items():
        m[metric] = sum(s.duration for s in direct if s.name in names) / n_ops
    op_total = sum(s.duration for s in op_spans.values())
    self_total = op_total - sum(s.duration for s in direct)
    m["optimizer.self_s"] = self_total / n_ops if wl.name == "solve-n8" else 0.0
    evals_total = sum(v.get("evals", 0) for v in values)
    m["optimizer.evals"] = first_values.get("evals", 0)
    m["optimizer.evals_per_s"] = evals_total / op_total if evals_total else 0.0

    ens = [s for s in spans if s.name == "simulator.ensemble" and s.phase == "op"]
    ens_ms = [1e3 * s.duration for s in ens]
    amp_cycles = sum(s.work.get("amp_cycles", 0) for s in ens)
    m["simulator.ensemble_calls"] = sum(1 for s in ens if s.op == 0)
    m["simulator.ensemble_ms_p50"] = _percentile(ens_ms, 50)
    m["simulator.ensemble_ms_p90"] = _percentile(ens_ms, 90)
    m["simulator.ns_per_amp_cycle"] = \
        1e9 * sum(s.duration for s in ens) / amp_cycles if amp_cycles else 0.0
    for kind in ("rx", "zz", "probs"):
        m[f"simulator.probe.{kind}_ms"] = probes.get(kind, 0.0)
    m["simulator.first_call_s"] = first_call_s

    for metric, name in SETUP_LAYERS.items():
        m[metric] = sum(s.duration for s in spans
                        if s.name == name and s.phase == "setup") / SETUP_REPS
    sizes = {n: k for k, n in enumerate(getattr(wl, "sizes", ()))}
    for n in workloads.SWEEP_SIZES:
        calls = [s.duration for s in direct if s.name == "scheduler.schedule"
                 and s.work.get("n") == n]
        m[f"scheduler.schedule_s.n{n}"] = statistics.fmean(calls) if calls else 0.0
        k = sizes.get(n)
        m[f"scheduler.depth.n{n}"] = first_values["depth"][k] if k is not None else 0
        m[f"scheduler.swaps.n{n}"] = first_values["swaps"][k] if k is not None else 0

    m["trace.op_s"] = op_total / n_ops
    m["trace.overhead_ratio"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs)
    return m


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    import numpy
    return float(numpy.percentile(values, q))


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (record, result) as printed by main()."""
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[workload](seed % workloads.POOL, smoke)
    refs = None
    if not smoke:
        data = json.loads((HERE / "reference" / f"{workload}.json").read_text())
        refs = data["slots"][str(wl.slot)]
    load_start = os.getloadavg()
    tracer = Tracer() if trace else None
    bench = Bench(wl, refs, seconds, tracer)
    setup = bench.setup(import_reps=0 if trace else 1 if smoke else SETUP_REPS)

    record = {"workload": workload, "seed": seed, "slot": wl.slot,
              "trace": int(trace), "seconds": seconds, "descriptors": wl.descriptors(),
              "setup": setup}
    if trace:
        probes = wl.probes()
        pairs, values, absent = bench.traced_pairs()
        metrics = layer_metrics(wl, tracer, pairs, values,
                                setup["first_call_s"][0], probes)
        metrics["trace.absent_names"] = len(absent)
        record.update(pairs=pairs, absent_names=absent)
    else:
        times = bench.timed_ops()
        op_s = op_seconds(wl, [(j, norm) for j, _, norm in times])
        metrics = {"op_s": op_s, "setup_s": setup_seconds(setup, 1),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        record["ops"] = times
        record["host_seconds"] = {"op_s": op_seconds(wl, [(j, raw) for j, raw, _ in times]),
                                  "setup_s": setup_seconds(setup, 0)}
        record["workload_metrics"] = workload_metrics(wl, op_s)

    record["probe_means_s"] = bench.cal.speeds
    record["fail_frac"] = bench.failed / bench.attempted
    record["errors"] = bench.errors
    record["machine"] = machine_record()
    record["provenance"] = {"git_sha": git_sha(), "src_sha256": source_digest(),
                            "loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    return record, result


def setup_seconds(setup: dict, k: int) -> float:
    """Median import plus median build plus first call; k=0 host, k=1 normalised."""
    imports = [t[k] for t in setup["import_s"]]
    return ((statistics.median(imports) if imports else 0.0)
            + statistics.median(t[k] for t in setup["build_s"]) + setup["first_call_s"][k])


def workload_metrics(wl, op_s) -> dict:
    """The workload's own end-to-end figure under its natural name."""
    if wl.name == "solve-n8":
        return {"solve_s": op_s}
    if wl.name == "schedule-sweep":
        return {"compile_s": op_s}
    return {"realizations_per_s": wl.r / op_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set before numpy loads: a run stays on one core, like the workloads say.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    import_package()

    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(result["metrics"]) != {d["name"] for d in declared}:
        sys.exit(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    result["metrics"] = {d["name"]: {"value": result["metrics"][d["name"]], "unit": d["unit"]}
                         for d in declared}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
