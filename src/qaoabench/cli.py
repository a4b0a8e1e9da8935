"""Command-line driver for the benchmarking pipeline.

Subcommands mirror the pipeline stages: gen, reduce, schedule, simulate,
solve, bench, fit, convergence. Every command takes --seed and is fully
deterministic for a fixed seed and flags. Settings come from the command
line only. Each flag defaults to the study's constant, taken from the
library where it states one (NmConfig: 10000 samples per evaluation, 20
restarts, 300-update cap; HardwareTimes: T_P + T_M = 1 us, T_G = 10 ns)
and stated here otherwise (T2 = 100 us, T1 = 200 us, p = 4, 384 noise
realizations, 40 instances per size).
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
from .optimizer import NmConfig, solve_instance
from .scheduler import (choose_grid, emit_pdpt, parse_pdpt, schedule,
                        schedule_from_json, schedule_to_json, validate_schedule)
from .simulator import NoiseParams, convergence_study, run_noisy_ensemble, optima_mask


def _nm_config(args) -> NmConfig:
    return NmConfig(max_updates=args.max_updates, n_restarts=args.n_restarts,
                    n_samples=args.n_samples)


def _noise(args) -> NoiseParams | None:
    if args.noiseless:
        return None
    return NoiseParams(t1=args.t1, t2=args.t2, t_gate=args.t_gate)


def _hardware(args) -> costmodel.HardwareTimes:
    return costmodel.HardwareTimes(t_prep_plus_meas=args.t_prep_plus_meas,
                                   t_gate=args.t_gate)


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

def cmd_gen(args):
    g = gen_random_3regular(args.n, args.seed)
    _write(args.out, write_graph(g))


def cmd_reduce(args):
    g = read_graph(Path(args.graph).read_text())
    formula = maxsat.reduce_to_max2sat(g)
    _write(args.out, maxsat.emit_wcnf(formula))


def cmd_schedule(args):
    g = read_graph(Path(args.graph).read_text())
    circuit = build_qaoa_circuit(g, _angles(args, args.p))
    grid = choose_grid(g.n)
    sched = schedule(circuit, grid, args.seed)
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


def cmd_simulate(args):
    g = read_graph(Path(args.graph).read_text())
    circuit = circuit_from_json(Path(args.circuit).read_text())
    text = Path(args.schedule).read_text()
    if args.schedule.endswith(".json"):
        sched = schedule_from_json(text)
    else:
        # PDPT omits the hoisted |+...+> preparation layer, as `schedule` emits it
        sched = parse_pdpt(text, n_prep_gates=circuit.prep_layer_size())
    violations = validate_schedule(sched, circuit, sched.grid)
    if violations:
        raise RuntimeError("schedule does not match circuit: " + "; ".join(violations))

    noise = _noise(args)
    if noise is None:
        noise = NoiseParams(math.inf, math.inf, args.t_gate)
    n_real = args.realizations
    cut_table = cut_values_table(g)
    k_max, optima = brute_force_maxcut(g)
    ens = run_noisy_ensemble(sched, circuit, noise, n_real, args.seed,
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


def cmd_solve(args):
    g = read_graph(Path(args.graph).read_text())
    cfg = _nm_config(args)
    result = solve_instance(g, args.p, cfg, args.pipeline, _noise(args), args.seed,
                            args.realizations)
    cost = costmodel.instance_wall_time(result, result.depth, _hardware(args), cfg.n_samples)
    print(f"N={g.n} p={args.p}: best estimate {result.best_run.best_value:.4f}, "
          f"exact ratio {result.best_exact_ratio:.4f}, overlap {result.overlap:.4f}")
    print(f"total evals {result.total_function_evals}, depth {result.depth}, "
          f"projected wall time {cost.wall_time:.2f} s")
    _write(args.out, result.to_json())


def _bench_instance(task) -> costmodel.InstanceCost:
    n, inst_seed, p, cfg, pipeline, noise, n_real, hw = task
    result = solve_instance(gen_random_3regular(n, inst_seed), p, cfg, pipeline, noise,
                            inst_seed, n_real)
    return costmodel.instance_wall_time(result, result.depth, hw, cfg.n_samples)


def cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",")]
    p, n_instances = args.p, args.n_instances
    cfg, noise, hw = _nm_config(args), _noise(args), _hardware(args)
    tasks = [(n, int(np.random.SeedSequence([args.seed, n, inst]).generate_state(1)[0]),
              p, cfg, args.pipeline, noise, args.realizations, hw)
             for n in sizes for inst in range(n_instances)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            costs = list(pool.map(_bench_instance, tasks))
    else:
        costs = [_bench_instance(t) for t in tasks]

    rows = []
    for k, n in enumerate(sizes):
        mean, sdom = costmodel.aggregate(costs[k * n_instances:(k + 1) * n_instances])
        rows.append({"n": n, "p": p, "mean_seconds": mean, "sdom_seconds": sdom,
                     "n_instances": n_instances})
        print(f"N={n} p={p}: mean {mean:.3f} s, sdom {sdom:.3f} s "
              f"over {n_instances} instances")
    _write(args.out, costmodel.write_cost_csv(rows))
    if args.out_timing:
        lines = [f"{row['n']},{row['mean_seconds']:.9g},qaoa-p{p}" for row in rows]
        _write(args.out_timing, "\n".join(lines) + "\n")


def cmd_fit(args):
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


def cmd_convergence(args):
    p, seed, n_real = args.p, args.seed, args.realizations
    if args.graph:
        g = read_graph(Path(args.graph).read_text())
    elif args.n is not None:
        g = gen_random_3regular(args.n, seed)
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
        noise = NoiseParams.from_t2_ratio(ratio, args.t_gate)
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
    sub.add_argument("--seed", type=int, default=1, help="master RNG seed")


def _add_noise_flags(sub):
    sub.add_argument("--t1", type=float, default=200e-6, help="relaxation time, seconds")
    sub.add_argument("--t2", type=float, default=100e-6, help="dephasing time, seconds")
    sub.add_argument("--t-gate", dest="t_gate", type=float, default=costmodel.DEFAULT_T_GATE,
                     help="gate duration, seconds")
    sub.add_argument("--noiseless", action="store_true", help="disable noise")
    sub.add_argument("--realizations", type=int, default=384,
                     help="noise realizations per evaluation")


def _add_solve_flags(sub):
    nm, hw = NmConfig(), costmodel.HardwareTimes()
    sub.add_argument("--p", type=int, default=4)
    sub.add_argument("--pipeline", choices=("sampled", "exact"), default="sampled")
    sub.add_argument("--max-updates", dest="max_updates", type=int, default=nm.max_updates)
    sub.add_argument("--restarts", dest="n_restarts", type=int, default=nm.n_restarts)
    sub.add_argument("--samples", dest="n_samples", type=int, default=nm.n_samples)
    sub.add_argument("--t-prep-plus-meas", dest="t_prep_plus_meas", type=float,
                     default=hw.t_prep_plus_meas)
    _add_noise_flags(sub)


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
    sp.add_argument("--p", type=int, default=4)
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
    sp.add_argument("--out", required=True)
    _add_solve_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("bench", help="sweep sizes, emit the cost CSV")
    sp.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    sp.add_argument("--instances", dest="n_instances", type=int, default=40)
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes, each solving whole instances")
    sp.add_argument("--out", required=True)
    sp.add_argument("--out-timing", help="also write (N,seconds,label) timing CSV")
    _add_solve_flags(sp)
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
    sp.add_argument("--p", type=int, default=4)
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
        args.func(args)
    except Exception as exc:  # CLI boundary: report, do not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
