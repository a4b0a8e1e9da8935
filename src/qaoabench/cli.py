"""Command-line driver for the benchmarking pipeline.

Subcommands mirror the pipeline stages: gen, reduce, schedule, simulate,
solve, bench, fit, convergence. Every command takes --seed and is fully
deterministic for a fixed seed and configuration; all defaults are the
study's constants (T2 = 100 us, T1 = 200 us, T_G = 10 ns, T_P + T_M = 1 us,
10000 samples per evaluation, 20 restarts, 300-update cap, 384 noise
realizations, 40 instances per size) and can be overridden per flag or via
a key=value config file.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis, costmodel, maxsat
from .circuit import QaoaParams, build_qaoa_circuit, circuit_from_json, circuit_to_json
from .graphs import brute_force_maxcut, cut_values_table, gen_random_3regular, read_graph, write_graph
from .optimizer import InstanceProblem, NmConfig, collect_result, solve_instance
from .scheduler import (choose_grid, emit_pdpt, parse_pdpt, schedule,
                        schedule_from_json, schedule_to_json, validate_schedule)
from .simulator import NoiseParams, convergence_study, run_noisy_ensemble, optima_mask

DEFAULTS = {
    "p": 4,
    "n_instances": 40,
    "n_restarts": 20,
    "n_samples": 10_000,
    "max_updates": 300,
    "stall_factor": 10,
    "reflection": 1.1,
    "expansion": 1.5,
    "contraction": 0.6,
    "shrink": 0.4,
    "t2": 100e-6,
    "t1": 200e-6,
    "t_gate": 10e-9,
    "t_prep_plus_meas": 1e-6,
    "realizations": 384,
    "seed": 1,
}


def load_config(path: str | None) -> dict:
    """key = value lines; '#' comments; values parsed as numbers when possible."""
    if path is None:
        return {}
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS and key != "sizes":
            raise ValueError(f"unknown config key {key!r}")
        out[key] = value
    return out


def _setting(args, config: dict, key: str, cast=float):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return DEFAULTS[key]


def _nm_config(args, config) -> NmConfig:
    return NmConfig(
        reflection=_setting(args, config, "reflection"),
        expansion=_setting(args, config, "expansion"),
        contraction=_setting(args, config, "contraction"),
        shrink=_setting(args, config, "shrink"),
        max_updates=int(_setting(args, config, "max_updates", int)),
        stall_factor=int(_setting(args, config, "stall_factor", int)),
        n_restarts=int(_setting(args, config, "n_restarts", int)),
        n_samples=int(_setting(args, config, "n_samples", int)),
    )


def _noise(args, config) -> NoiseParams | None:
    if getattr(args, "noiseless", False):
        return None
    return NoiseParams(
        t1=_setting(args, config, "t1"),
        t2=_setting(args, config, "t2"),
        t_gate=_setting(args, config, "t_gate"),
    )


def _hardware(args, config) -> costmodel.HardwareTimes:
    return costmodel.HardwareTimes(
        t_prep_plus_meas=_setting(args, config, "t_prep_plus_meas"),
        t_gate=_setting(args, config, "t_gate"),
    )


def _angles(args, p: int) -> QaoaParams:
    if args.gammas is None and args.betas is None:
        return QaoaParams((0.0,) * p, (0.0,) * p)
    if args.gammas is None or args.betas is None:
        raise ValueError("--gammas and --betas must be given together")
    gammas = tuple(float(x) for x in args.gammas.split(","))
    betas = tuple(float(x) for x in args.betas.split(","))
    if len(gammas) != p or len(betas) != p:
        raise ValueError(f"expected {p} comma-separated angles per list")
    return QaoaParams(gammas, betas)


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args, config):
    n = int(args.n)
    seed = int(_setting(args, config, "seed", int))
    g = gen_random_3regular(n, seed)
    _write(args.out, write_graph(g))


def cmd_reduce(args, config):
    g = read_graph(Path(args.graph).read_text())
    formula = maxsat.reduce_to_max2sat(g)
    _write(args.out, maxsat.emit_wcnf(formula))


def cmd_schedule(args, config):
    g = read_graph(Path(args.graph).read_text())
    p = int(_setting(args, config, "p", int))
    seed = int(_setting(args, config, "seed", int))
    circuit = build_qaoa_circuit(g, _angles(args, p))
    grid = choose_grid(g.n)
    sched = schedule(circuit, grid, seed)
    violations = validate_schedule(sched, circuit, grid)
    if violations:
        raise RuntimeError("generated schedule is invalid: " + "; ".join(violations))
    n_swaps = sum(1 for row in sched.table for e in row if e < 0) // 2
    print(f"grid {grid.rows}x{grid.cols}, depth {sched.n_cycles} cycles, "
          f"{n_swaps} SWAPs, schedule valid")
    _write(args.out, emit_pdpt(sched))
    if args.out_circuit:
        _write(args.out_circuit, circuit_to_json(circuit))
    if args.out_json:
        _write(args.out_json, schedule_to_json(sched))


def cmd_simulate(args, config):
    g = read_graph(Path(args.graph).read_text())
    circuit = circuit_from_json(Path(args.circuit).read_text())
    text = Path(args.schedule).read_text()
    sched = schedule_from_json(text) if args.schedule.endswith(".json") else parse_pdpt(text)
    violations = validate_schedule(sched, circuit, sched.grid)
    if violations:
        raise RuntimeError("schedule does not match circuit: " + "; ".join(violations))

    noise = _noise(args, config)
    if noise is None:
        noise = NoiseParams(math.inf, math.inf, _setting(args, config, "t_gate"))
    seed = int(_setting(args, config, "seed", int))
    n_real = int(_setting(args, config, "realizations", int))
    cut_table = cut_values_table(g)
    k_max, optima = brute_force_maxcut(g)
    ens = run_noisy_ensemble(sched, circuit, noise, n_real, seed,
                             cut_table=cut_table,
                             overlap_mask=optima_mask(optima, g.n))
    payload = {
        "n_realizations": ens.n_realizations,
        "master_seed": ens.master_seed,
        "mean_cut": ens.mean_cut,
        "approx_ratio": ens.mean_cut / k_max,
        "overlap": ens.mean_overlap,
        "k_max": k_max,
        "per_realization_cut": [float(v) for v in ens.per_cut],
        "per_realization_overlap": [float(v) for v in ens.per_overlap],
    }
    print(f"mean cut {ens.mean_cut:.4f} (ratio {ens.mean_cut / k_max:.4f}), "
          f"overlap {ens.mean_overlap:.4f} over {n_real} realizations")
    _write(args.out, json.dumps(payload, indent=2) + "\n")


def cmd_solve(args, config):
    g = read_graph(Path(args.graph).read_text())
    p = int(_setting(args, config, "p", int))
    seed = int(_setting(args, config, "seed", int))
    cfg = _nm_config(args, config)
    noise = _noise(args, config)
    n_real = int(_setting(args, config, "realizations", int))
    result = solve_instance(g, p, cfg, args.pipeline, noise, seed, n_real)
    hw = _hardware(args, config)
    cost = costmodel.instance_wall_time(result, result.depth, hw, cfg.n_samples)
    print(f"N={g.n} p={p}: best estimate {result.best_run.best_value:.4f}, "
          f"exact ratio {result.best_exact_ratio:.4f}, overlap {result.overlap:.4f}")
    print(f"total evals {result.total_function_evals}, depth {result.depth}, "
          f"projected wall time {cost.wall_time:.2f} s")
    _write(args.out, result.to_json())


def _bench_restart_task(task):
    (n, p, cfg, pipeline, noise, n_real, inst_seed, restart) = task
    problem = _bench_problem(n, p, cfg, pipeline, noise, n_real, inst_seed)
    rec = problem.run_restart(restart)
    return rec


_PROBLEM_CACHE: dict = {}


def _bench_problem(n, p, cfg, pipeline, noise, n_real, inst_seed) -> InstanceProblem:
    key = (n, p, cfg, pipeline, noise, n_real, inst_seed)
    if key not in _PROBLEM_CACHE:
        g = gen_random_3regular(n, inst_seed)
        _PROBLEM_CACHE[key] = InstanceProblem(g, p, cfg, pipeline, noise,
                                              inst_seed, n_real)
    return _PROBLEM_CACHE[key]


def cmd_bench(args, config):
    sizes_raw = args.sizes if args.sizes is not None else config.get("sizes")
    if sizes_raw is None:
        raise ValueError("bench needs --sizes (comma-separated, e.g. 8,10,12)")
    sizes = [int(s) for s in str(sizes_raw).split(",")]
    p = int(_setting(args, config, "p", int))
    seed = int(_setting(args, config, "seed", int))
    cfg = _nm_config(args, config)
    noise = _noise(args, config)
    n_real = int(_setting(args, config, "realizations", int))
    n_instances = int(_setting(args, config, "n_instances", int))
    hw = _hardware(args, config)
    jobs = args.jobs or 1

    tasks = []
    for n in sizes:
        for inst in range(n_instances):
            inst_seed = int(np.random.SeedSequence([seed, n, inst]).generate_state(1)[0])
            for restart in range(cfg.n_restarts):
                tasks.append((n, p, cfg, args.pipeline, noise, n_real, inst_seed, restart))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_bench_restart_task, tasks, chunksize=1))
    else:
        records = [_bench_restart_task(t) for t in tasks]

    rows = []
    timing_rows = []
    idx = 0
    for n in sizes:
        costs = []
        for inst in range(n_instances):
            inst_seed = int(np.random.SeedSequence([seed, n, inst]).generate_state(1)[0])
            problem = _bench_problem(n, p, cfg, args.pipeline, noise, n_real, inst_seed)
            runs = records[idx:idx + cfg.n_restarts]
            idx += cfg.n_restarts
            result = collect_result(problem, runs)
            costs.append(costmodel.instance_wall_time(result, result.depth, hw,
                                                      cfg.n_samples))
        mean, sdom = costmodel.aggregate(costs)
        rows.append({"n": n, "p": p, "mean_seconds": mean, "sdom_seconds": sdom,
                     "n_instances": n_instances})
        timing_rows.append((n, mean))
        print(f"N={n} p={p}: mean {mean:.3f} s, sdom {sdom:.3f} s "
              f"over {n_instances} instances")
    _write(args.out, costmodel.write_cost_csv(rows))
    if args.out_timing:
        lines = [f"{n},{t:.9g},qaoa-p{p}" for n, t in timing_rows]
        _write(args.out_timing, "\n".join(lines) + "\n")


def cmd_fit(args, config):
    points: dict[str, list[tuple[float, float]]] = {}
    for path in args.input:
        text = Path(path).read_text()
        first = text.splitlines()[0] if text.strip() else ""
        if first.startswith("N,p,mean_seconds"):
            for line in text.splitlines()[1:]:
                n, p, mean, _sdom, _cnt = line.split(",")
                points.setdefault(f"qaoa-p{p}", []).append((float(n), float(mean)))
        else:
            for label, pts in analysis.read_timing_csv(text).items():
                points.setdefault(label, []).extend(pts)

    fits = {label: analysis.fit_exponential(pts) for label, pts in points.items()}
    cross = None
    if args.quantum_label in fits and args.classical_label in fits:
        cross = analysis.crossover(fits[args.quantum_label], fits[args.classical_label])
    for label, fit in sorted(fits.items()):
        print(f"{label}: slope {fit.slope:.6f} per qubit, "
              f"intercept {fit.intercept:.4f}, R^2 {fit.r_squared:.4f}")
    if cross is not None and cross.n_star is not None:
        print(f"crossover at N ~ {cross.n_star:.1f} "
              f"(band window {cross.band_low_cross} .. {cross.band_high_cross})")
    csv_text, json_text = analysis.emit_report(fits, points, cross)
    _write(args.out_csv, csv_text)
    _write(args.out_json, json_text)


def cmd_convergence(args, config):
    p = int(_setting(args, config, "p", int))
    seed = int(_setting(args, config, "seed", int))
    n_real = int(_setting(args, config, "realizations", int))
    t_gate = _setting(args, config, "t_gate")
    if args.graph:
        g = read_graph(Path(args.graph).read_text())
    elif args.n is not None:
        g = gen_random_3regular(int(args.n), seed)
    else:
        raise ValueError("convergence needs --graph or --n")

    if args.gammas is not None:
        params = _angles(args, p)
    else:
        # short noiseless optimization so the plateau sits at a meaningful ratio
        cfg = NmConfig(n_restarts=5, max_updates=60)
        quick = solve_instance(g, p, cfg, "exact", None, seed)
        params = quick.best_run.best_params
        print(f"pre-optimized angles (exact ratio {quick.best_exact_ratio:.4f})")

    circuit = build_qaoa_circuit(g, params)
    grid = choose_grid(g.n)
    sched = schedule(circuit, grid, seed)
    cut_table = cut_values_table(g)
    k_max, _ = brute_force_maxcut(g)
    ratios = [float(r) for r in args.t2_ratios.split(",")]
    seeds = [seed + k for k in range(int(args.n_seeds))]

    lines = ["t2_over_tg,seed,realizations,running_mean_ratio"]
    summary = {}
    for ratio in ratios:
        noise = NoiseParams.from_t2_ratio(ratio, t_gate)
        curves = convergence_study(sched, circuit, noise, n_real, seeds, cut_table, k_max)
        finals = [curve[-1] for curve in curves.values()]
        spread = max(finals) - min(finals)
        summary[ratio] = spread
        for s, curve in curves.items():
            for r, value in enumerate(curve, start=1):
                lines.append(f"{ratio:g},{s},{r},{value:.9f}")
        print(f"T2/T_G={ratio:g}: plateau spread {spread:.5f} across "
              f"{len(seeds)} seeds at R={n_real}")
    _write(args.out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--seed", type=int, help="master RNG seed")
    sub.add_argument("--config", help="key = value config file")


def _add_noise_flags(sub):
    sub.add_argument("--t1", type=float, help="relaxation time, seconds")
    sub.add_argument("--t2", type=float, help="dephasing time, seconds")
    sub.add_argument("--t-gate", dest="t_gate", type=float, help="gate duration, seconds")
    sub.add_argument("--noiseless", action="store_true", help="disable noise")
    sub.add_argument("--realizations", type=int, help="noise realizations per evaluation")


def _add_nm_flags(sub):
    for name in ("reflection", "expansion", "contraction", "shrink"):
        sub.add_argument(f"--{name}", type=float)
    sub.add_argument("--max-updates", dest="max_updates", type=int)
    sub.add_argument("--stall-factor", dest="stall_factor", type=int)
    sub.add_argument("--restarts", dest="n_restarts", type=int)
    sub.add_argument("--samples", dest="n_samples", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoabench",
        description="QAOA-for-Max-Cut wall-clock benchmarking pipeline")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("gen", help="generate a random 3-regular graph file")
    sp.add_argument("--n", required=True, type=int, help="vertex count (even, >= 4)")
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = subs.add_parser("reduce", help="reduce a graph to a Max-2-SAT WCNF file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = subs.add_parser("schedule", help="compile a QAOA circuit onto the grid")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--gammas", help="comma-separated phase angles")
    sp.add_argument("--betas", help="comma-separated mixer angles")
    sp.add_argument("--out", required=True, help="PDPT output path")
    sp.add_argument("--out-circuit", help="circuit JSON output path")
    sp.add_argument("--out-json", help="schedule JSON output path")
    _add_common(sp)
    sp.set_defaults(func=cmd_schedule)

    sp = subs.add_parser("simulate", help="noisy ensemble observables for a schedule")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--schedule", required=True, help="PDPT or schedule JSON path")
    sp.add_argument("--circuit", required=True, help="circuit JSON path")
    sp.add_argument("--out", required=True)
    _add_noise_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("solve", help="full multi-start QAOA on one instance")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--pipeline", choices=("sampled", "exact"), default="sampled")
    sp.add_argument("--out", required=True)
    sp.add_argument("--t-prep-plus-meas", dest="t_prep_plus_meas", type=float)
    _add_nm_flags(sp)
    _add_noise_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("bench", help="sweep sizes, emit the cost CSV")
    sp.add_argument("--sizes", help="comma-separated vertex counts")
    sp.add_argument("--p", type=int)
    sp.add_argument("--instances", dest="n_instances", type=int)
    sp.add_argument("--pipeline", choices=("sampled", "exact"), default="sampled")
    sp.add_argument("--jobs", type=int, help="parallel worker processes")
    sp.add_argument("--out", required=True)
    sp.add_argument("--out-timing", help="also write (N,seconds,label) timing CSV")
    sp.add_argument("--t-prep-plus-meas", dest="t_prep_plus_meas", type=float)
    _add_nm_flags(sp)
    _add_noise_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_bench)

    sp = subs.add_parser("fit", help="fit scaling curves and locate the crossover")
    sp.add_argument("--input", nargs="+", required=True,
                    help="timing CSVs (N,seconds,label) or bench CSVs")
    sp.add_argument("--quantum-label", default="qaoa-p4")
    sp.add_argument("--classical-label", default="classical")
    sp.add_argument("--out-csv", required=True)
    sp.add_argument("--out-json", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = subs.add_parser("convergence", help="running-mean ratio vs realization count")
    sp.add_argument("--graph")
    sp.add_argument("--n", type=int, help="generate an instance of this size")
    sp.add_argument("--p", type=int)
    sp.add_argument("--t2-ratios", default="500,10000",
                    help="comma-separated T2/T_G noise levels")
    sp.add_argument("--n-seeds", default=3, type=int)
    sp.add_argument("--gammas", help="fixed phase angles (else pre-optimize)")
    sp.add_argument("--betas", help="fixed mixer angles")
    sp.add_argument("--out", required=True)
    _add_noise_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        args.func(args, config)
    except Exception as exc:  # CLI boundary: report, do not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
