"""Self-test of the benchmark itself, at minimal sizes (about half a minute):

    python3 perfbench/selftest.py

It checks that
  - every workload, untraced and traced, emits exactly the metrics that
    BENCHMARK.json names;
  - the output checks flag corrupted outputs: mean_probs scaled by 1.01, one
    PDPT cycle row permuted, a changed evaluation count;
  - no wrapper stays installed after a traced run, and a traced name that no
    longer exists is skipped and reported;
  - on solve-n8 the traced busy times plus optimizer.self_s add up to
    trace.op_s;
  - the calibrator leaves its probes out of the host seconds and restores the
    alarm signal, also when the timed call raises.
Exits 1 and lists the failures if any check fails.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import signal
import sys
import time

import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def current(dotted: str):
    mod_name, attr = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(mod_name), attr, None)


def smoke_runs(spec: dict) -> None:
    originals = {name: current(name) for name in run.TRACED}
    for w in spec["workloads"]:
        for trace in (False, True):
            _, result = run.run(w["name"], 7, 0.05, trace, smoke=True)
            declared = {d["name"] for d in spec["per_layer" if trace else "end_to_end"]}
            expect(set(result["metrics"]) == declared,
                   f"{w['name']} trace={int(trace)} emits every declared metric")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{w['name']} trace={int(trace)} outputs pass their checks")
            if trace:
                expect(all(current(n) is f for n, f in originals.items()),
                       f"{w['name']}: no wrapper left installed after the traced run")
            if trace and w["name"] == "solve-n8":
                m = result["metrics"]
                parts = sum(m[k] for k in run.BUSY) + m["optimizer.self_s"]
                expect(abs(parts - m["trace.op_s"]) <= 1e-9 * m["trace.op_s"],
                       "solve-n8: busy times plus optimizer.self_s add up to trace.op_s")
                expect(m["optimizer.evals"] > 0 and m["simulator.ensemble_calls"] > 0,
                       "solve-n8: evaluations and ensemble calls are counted")


def corrupted_outputs() -> None:
    import workloads
    from qaoabench.scheduler import parse_pdpt

    ens_wl = workloads.EnsembleN14(0, smoke=True)
    ens_wl.build(None)
    ens = ens_wl.op(0, None)
    refs = {ens_wl.ref_key(0): ens_wl.values(0, ens)}
    expect(ens_wl.check(0, ens, refs) == [], "an unchanged ensemble passes")
    scaled = dataclasses.replace(ens, mean_probs=ens.mean_probs * 1.01)
    expect(ens_wl.check(0, scaled, refs) != [], "mean_probs scaled by 1.01 is flagged")
    nudged = ens.mean_probs.copy()
    nudged[[0, 1]] += (1e-10, -1e-10)
    expect(ens_wl.check(0, dataclasses.replace(ens, mean_probs=nudged), refs) != [],
           "a 1e-10 shift of probability between two states is flagged")

    sweep = workloads.ScheduleSweep(0, smoke=True)
    sweep.build(None)
    out = sweep.op(0, None)
    refs = {sweep.ref_key(0): sweep.values(0, out)}
    expect(sweep.check(0, out, refs) == [], "an unchanged sweep passes")
    n, s, violations, text, _ = out[-1]
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines)
               if not ln.startswith("#") and len(set(ln.split())) > 1 and i > 4)
    tokens = lines[row].split()
    lines[row] = "".join(f"{t:>8}" for t in tokens[1:] + tokens[:1])
    bad_text = "\n".join(lines) + "\n"
    bad = out[:-1] + [(n, s, violations, bad_text,
                       parse_pdpt(bad_text, s.grid, s.n_prep_gates))]
    expect(sweep.check(0, bad, refs) != [], "one PDPT cycle row permuted is flagged")

    solve = workloads.SolveN8(0, smoke=True)
    solve.build(None)
    result, cost = solve.op(0, None)
    refs = {solve.ref_key(0): solve.values(0, (result, cost))}
    expect(solve.check(0, (result, cost), refs) == [], "an unchanged solve passes")
    refs[solve.ref_key(0)]["evals"] += 1
    expect(solve.check(0, (result, cost), refs) != [], "a changed evaluation count is flagged")


def absent_name() -> None:
    from tracing import Tracer
    target = "qaoabench.optimizer.run_noisy_ensemble"
    original = current(target)
    tracer = Tracer()
    names = {target: ("simulator.ensemble", None),
             "qaoabench.optimizer.no_such_name": ("x", None)}
    with tracer.installed(names) as absent:
        wrapped = current(target) is not original
    expect(wrapped and absent == ["qaoabench.optimizer.no_such_name"],
           "an absent traced name is skipped and reported")
    expect(current(target) is original, "the wrapped name is restored")


def calibrator() -> None:
    from calibrate import Calibrator
    previous = signal.getsignal(signal.SIGALRM)
    cal = Calibrator()
    _, raw, scale = cal.timed(lambda: time.sleep(0.35))
    expect(0.34 <= raw < 0.4 and scale > 0.0, "probes are left out of the host seconds")
    try:
        cal.timed(lambda: 1 / 0)
    except ZeroDivisionError:
        pass
    expect(signal.getsignal(signal.SIGALRM) is previous
           and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
           "the calibrator stops its timer and restores the alarm handler")


def main() -> int:
    run.import_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    smoke_runs(spec)
    corrupted_outputs()
    absent_name()
    calibrator()
    if FAILURES:
        print(f"{len(FAILURES)} self-test check(s) failed")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
