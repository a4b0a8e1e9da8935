"""Command-line driver for the benchmarking pipeline.

Subcommands mirror the pipeline stages: gen, reduce, schedule, simulate,
solve, bench, fit, convergence. `schedule` writes the grid schedule as
PDPT text only; `simulate` reads p from that PDPT (each QAOA layer adds
|E| + N gate ids) and rebuilds the circuit from the graph and --gammas/--betas.
The commands that draw random numbers take --seed, and every command is
fully deterministic for a fixed seed and flags. Settings come
from the command line only. Each flag defaults to the study's constant,
taken from the library where it states one (NmConfig: 10000 samples per
evaluation, 20 restarts, 300-update cap; HardwareTimes: T_P + T_M = 1 us,
T_G = 10 ns) and stated here otherwise (T2 = 100 us, p = 4, 384 noise
realizations, 40 instances per size). `simulate`, `solve` and `bench` set
the noise by --t2 alone: T1 is always 2 T2, and `--t2 inf` means no noise.
Without noise every realization is the same, so `solve` and `bench` then
replay one per evaluation, whatever --realizations says; `simulate` still
runs and reports --realizations of them. --t-gate and --t-prep-plus-meas
must be finite and positive, and every count flag at least 1. An error
prints one line and exits with status 1; `qaoabench --debug COMMAND ...`
lets it raise with its traceback instead.

`solve` and `bench` use every usable CPU (optimizer.solve_instances). A
bench makes one list of (instance, restart) tasks over all its sizes, and
the tasks run on one pool of forked worker processes, one per usable CPU,
each pinned to one CPU. The output bytes are the same as one process
running every restart in turn.

BLAS runs single-threaded in every process qaoabench starts (the workers
inherit it), since the package sets the thread-count variables to 1
before numpy loads, keeping a value the user set (see qaoabench/__init__.py).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, costmodel, maxsat
from .circuit import QaoaParams, build_qaoa_circuit
from .graphs import (brute_force_maxcut, cut_values_table, gen_random_3regular, read_graph,
                     require_edge, write_graph)
from .optimizer import (DEFAULT_REALIZATIONS, NmConfig, _derived_seed, solve_instance,
                        solve_instances)
from .scheduler import choose_grid, emit_pdpt, parse_pdpt, schedule, validate_schedule
from .simulator import NoiseParams, convergence_study, optima_mask, run_noisy_ensemble


def _nm_config(args) -> NmConfig:
    return NmConfig(max_updates=args.max_updates, n_restarts=args.n_restarts,
                    n_samples=args.n_samples)


# the dest and flag of every count option; each must be at least 1
_COUNT_FLAGS = {"p": "--p", "max_updates": "--max-updates", "n_restarts": "--restarts",
                "n_samples": "--samples", "realizations": "--realizations",
                "n_instances": "--instances", "n_seeds": "--n-seeds"}


def _check_counts(args) -> None:
    for dest, flag in _COUNT_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


def _csv_list(text: str, flag: str, kind) -> list:
    """The comma-separated items of a list flag, each converted by kind (int or
    float); an item kind rejects fails with a message naming the flag and the item."""
    items = []
    for item in text.split(","):
        try:
            items.append(kind(item))
        except ValueError:
            raise ValueError(f"{flag}: {item!r} in {text!r} is not a valid "
                             f"{kind.__name__}") from None
    return items


def _noise(args) -> NoiseParams:
    return NoiseParams(t1=2.0 * args.t2, t2=args.t2, t_gate=args.t_gate)


def _hardware(args) -> costmodel.HardwareTimes:
    return costmodel.HardwareTimes(t_prep_plus_meas=args.t_prep_plus_meas,
                                   t_gate=args.t_gate)


def _angles(args, p: int) -> QaoaParams:
    if args.gammas is None and args.betas is None:
        return QaoaParams((0.0,) * p, (0.0,) * p)
    if args.gammas is None or args.betas is None:
        raise ValueError("--gammas and --betas must be given together")
    gammas = tuple(_csv_list(args.gammas, "--gammas", float))
    betas = tuple(_csv_list(args.betas, "--betas", float))
    if len(gammas) != p or len(betas) != p:
        raise ValueError(f"expected p={p} comma-separated angles per list")
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
    # the schedule does not depend on the angles, so it is routed at zero angles
    circuit = build_qaoa_circuit(g, QaoaParams((0.0,) * args.p, (0.0,) * args.p))
    grid = choose_grid(g.n)
    sched = schedule(circuit, grid, args.seed)
    violations = validate_schedule(sched, circuit, grid)
    if violations:
        raise RuntimeError("generated schedule is invalid: " + "; ".join(violations))
    print(f"grid {grid.rows}x{grid.cols}, depth {sched.n_cycles} cycles, "
          f"{sched.n_swaps} SWAPs, schedule valid")
    _write(args.out, emit_pdpt(sched))


def cmd_simulate(args):
    g = read_graph(Path(args.graph).read_text())
    require_edge(g)
    # PDPT omits the hoisted |+...+> layer, one H per vertex, as `schedule` emits it
    sched = parse_pdpt(Path(args.schedule).read_text(), n_prep_gates=g.n)
    top_id = max((entry for row in sched.table for entry in row), default=0)
    per_layer = g.n_edges + g.n         # gate ids each QAOA layer adds
    p, rest = divmod(top_id, per_layer) if per_layer else (0, top_id)
    if p == 0 or rest:
        raise ValueError(f"schedule has gate ids up to {top_id}, not a whole number of "
                         f"QAOA layers of {per_layer} gates for this graph")
    circuit = build_qaoa_circuit(g, _angles(args, p))
    violations = validate_schedule(sched, circuit, sched.grid)
    if violations:
        raise RuntimeError("schedule does not match circuit: " + "; ".join(violations))

    n_real = args.realizations
    cut_table = cut_values_table(g)
    k_max, optima = brute_force_maxcut(g)
    ens = run_noisy_ensemble(sched, circuit, _noise(args), n_real, args.seed,
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
    print(f"p={p}: mean cut {ens.mean_cut:.4f} (ratio {ens.mean_cut / k_max:.4f}), "
          f"overlap {ens.mean_overlap:.4f} over {n_real} realizations")
    _write(args.out, json.dumps(payload, indent=2) + "\n")


def cmd_solve(args):
    g = read_graph(Path(args.graph).read_text())
    cfg, hw = _nm_config(args), _hardware(args)
    result = solve_instance(g, args.p, cfg, args.pipeline, _noise(args), args.seed,
                            args.realizations)
    cost = costmodel.instance_wall_time(result, result.depth, hw, cfg.n_samples)
    print(f"N={g.n} p={args.p}: best estimate {result.best_run.best_value:.4f}, "
          f"exact ratio {result.best_exact_ratio:.4f}, overlap {result.overlap:.4f}")
    print(f"total evals {result.total_function_evals}, depth {result.depth}, "
          f"projected wall time {cost.wall_time:.2f} s")
    _write(args.out, result.to_json())


def cmd_bench(args):
    sizes = _csv_list(args.sizes, "--sizes", int)
    p, n_instances = args.p, args.n_instances
    cfg, hw = _nm_config(args), _hardware(args)
    seeds = [(n, _derived_seed(args.seed, n, inst)) for n in sizes for inst in range(n_instances)]
    results = solve_instances([(gen_random_3regular(n, seed), seed) for n, seed in seeds],
                              p, cfg, args.pipeline, _noise(args), args.realizations)
    costs = [costmodel.instance_wall_time(r, r.depth, hw, cfg.n_samples) for r in results]

    rows = []
    for k, n in enumerate(sizes):
        mean, sdom = costmodel.aggregate(costs[k * n_instances:(k + 1) * n_instances])
        rows.append({"n": n, "p": p, "mean_seconds": mean, "sdom_seconds": sdom,
                     "n_instances": n_instances})
        print(f"N={n} p={p}: mean {mean:.3f} s, sdom {sdom:.3f} s "
              f"over {n_instances} instances")
    _write(args.out, costmodel.write_cost_csv(rows))


def cmd_fit(args):
    points: dict[str, list[tuple[float, float]]] = {}
    for path in args.input:
        try:
            found = analysis.read_points(Path(path).read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        for label, pts in found.items():
            points.setdefault(label, []).extend(pts)
    if not points:
        raise ValueError(f"no data points in {', '.join(args.input)}")

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
    # built first, so that a bad level fails before the pre-optimization
    noises = [(ratio, NoiseParams.from_t2_ratio(ratio, args.t_gate))
              for ratio in _csv_list(args.t2_ratios, "--t2-ratios", float)]
    if args.graph:
        g = read_graph(Path(args.graph).read_text())
    elif args.n is not None:
        g = gen_random_3regular(args.n, seed)
    else:
        raise ValueError("convergence needs --graph or --n")
    require_edge(g)

    if args.gammas is not None or args.betas is not None:
        params = _angles(args, p)
    else:
        # short noiseless optimization so the plateau sits at a meaningful ratio
        cfg = NmConfig(n_restarts=5, max_updates=60)
        quick = solve_instance(g, p, cfg, "exact", NoiseParams.noiseless(), seed)
        params = quick.best_run.best_params
        print(f"pre-optimized angles (exact ratio {quick.best_exact_ratio:.4f})")

    circuit = build_qaoa_circuit(g, params)
    grid = choose_grid(g.n)
    sched = schedule(circuit, grid, seed)
    cut_table = cut_values_table(g)
    k_max, _ = brute_force_maxcut(g)
    seeds = [seed + k for k in range(int(args.n_seeds))]

    lines = ["t2_over_tg,seed,realizations,running_mean_ratio"]
    summary = {}
    for ratio, noise in noises:
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


def _add_ensemble_flags(sub):
    sub.add_argument("--t-gate", dest="t_gate", type=float, default=costmodel.DEFAULT_T_GATE,
                     help="gate duration, seconds")
    sub.add_argument("--realizations", type=int, default=DEFAULT_REALIZATIONS,
                     help="noise realizations per evaluation")


def _add_noise_flags(sub):
    sub.add_argument("--t2", type=float, default=100e-6,
                     help="dephasing time, seconds; the relaxation time T1 is 2 T2, "
                          "and inf means no noise")
    _add_ensemble_flags(sub)


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
    parser.add_argument("--debug", action="store_true",
                        help="let an error raise with its full traceback instead of "
                             "printing one line")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("gen", help="generate a random 3-regular graph file")
    sp.add_argument("--n", required=True, type=int, help="vertex count (even, >= 4)")
    sp.add_argument("--out", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = subs.add_parser("reduce", help="reduce a graph to a Max-2-SAT WCNF file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_reduce)

    sp = subs.add_parser("schedule", help="compile a QAOA circuit onto the grid")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--p", type=int, default=4)
    sp.add_argument("--out", required=True, help="PDPT output path")
    _add_common(sp)
    sp.set_defaults(func=cmd_schedule)

    sp = subs.add_parser("simulate", help="noisy ensemble observables for a schedule")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--schedule", required=True, help="PDPT path from `schedule`; sets p")
    sp.add_argument("--gammas", help="comma-separated phase angles (default all 0)")
    sp.add_argument("--betas", help="comma-separated mixer angles (default all 0)")
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

    sp = subs.add_parser("bench", help="sweep sizes, emit the cost CSV; one task list "
                                       "spreads all restarts over one pinned pool")
    sp.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    sp.add_argument("--instances", dest="n_instances", type=int, default=40)
    sp.add_argument("--out", required=True)
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
    sp.set_defaults(func=cmd_fit)

    # no prefix matching, so that --t2 is not taken for --t2-ratios
    sp = subs.add_parser("convergence", help="running-mean ratio vs realization count",
                         allow_abbrev=False)
    sp.add_argument("--graph")
    sp.add_argument("--n", type=int, help="generate an instance of this size")
    sp.add_argument("--p", type=int, default=4)
    sp.add_argument("--t2-ratios", default="500,10000",
                    help="comma-separated T2/T_G noise levels")
    sp.add_argument("--n-seeds", default=3, type=int)
    sp.add_argument("--gammas", help="fixed phase angles (else pre-optimize)")
    sp.add_argument("--betas", help="fixed mixer angles")
    sp.add_argument("--out", required=True)
    _add_ensemble_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        args.func(args)
    except Exception as exc:  # CLI boundary: report, do not traceback
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
