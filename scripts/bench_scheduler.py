"""Measure the scheduler's depth(N), SWAP count and time against a parent checkout.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_scheduler.py --parent ../parent --label NAME

A case is one p in DEPTHS and one N in SIZES: GRAPHS random 3-regular
graphs (graph seeds 0, 1, ...), a QAOA circuit with fixed angles, scheduled
by schedule() on choose_grid(N) with the graph seed as schedule seed and
the default number of tries. `--case P N` schedules one case in this
interpreter and prints each graph's cycles and SWAPs (Schedule.n_swaps) and,
summed over the graphs, the wall seconds and those of the two phases,
summed over the tries: the initial placements (scheduler._initial_placement)
and the routing (scheduler._route), and within the routing the SWAP choice
of the blocked cycles (scheduler._cycle_swaps).

Each of ROUNDS rounds runs every case once on each side, each in a fresh
interpreter that imports qaoabench from that side's checkout, under the
turn rule of scripts/bench_pairs.py. Each side must give the same cycles
and SWAPs in every round. Each run appends its table to the list under the
key "sweep" of BENCH_<label>.json in the repository root: the machine
record, both git SHAs and, per case and side, the cycles and SWAPs, each
round's seconds, and their medians and quartiles.

Benchmark pairs of the `schedule-sweep` workload come from
`scripts/bench_pairs.py schedule-sweep`.

Run nothing else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench_pairs import ROOT, SIDES, add_table, alternate, header, in_checkout, quartiles

SIZES = (16, 24, 50, 80, 128, 192, 256, 384, 512)
GRAPHS = 3
DEPTHS = (1, 2, 4)
ROUNDS = 5


def time_phases(module, names: dict[str, str]) -> dict[str, float]:
    """Wrap module.<name> so that every call adds its seconds to phases[key].

    `schedule` and `_route` look their phases up as module globals at each
    call, so the wrappers time them without a change to the scheduler.
    """
    phases = dict.fromkeys(names.values(), 0.0)

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            phases[key] += time.perf_counter() - t
            return out
        return wrapper

    for name, key in names.items():
        setattr(module, name, timed(getattr(module, name), key))
    return phases


def sweep(p: int, n: int) -> dict:
    """Schedule one case with the qaoabench found on sys.path."""
    from qaoabench import scheduler
    from qaoabench.circuit import QaoaParams, build_qaoa_circuit
    from qaoabench.graphs import gen_random_3regular
    from qaoabench.scheduler import choose_grid, schedule

    phases = time_phases(scheduler, {"_initial_placement": "placement_seconds",
                                     "_route": "route_seconds",
                                     "_cycle_swaps": "swap_seconds"})
    grid = choose_grid(n)
    out = {"grid": [grid.rows, grid.cols], "cycles": [], "swaps": [], "seconds": 0.0}
    for graph_seed in range(GRAPHS):
        g = gen_random_3regular(n, graph_seed)
        c = build_qaoa_circuit(g, QaoaParams((0.3,) * p, (0.7,) * p))
        t = time.perf_counter()
        s = schedule(c, grid, graph_seed)
        out["seconds"] += time.perf_counter() - t
        out["cycles"].append(s.n_cycles)
        out["swaps"].append(s.n_swaps)
    return {**out, **phases}


def case_table(p: int, n: int, runs: dict[str, list[dict]]) -> dict:
    """One case's cycles and SWAPs per graph and timed rounds, per side."""
    table = {"p": p, "n": n, "grid": runs["change"][0]["grid"]}
    for side, rounds in runs.items():
        first = rounds[0]
        if any((out["cycles"], out["swaps"]) != (first["cycles"], first["swaps"])
               for out in rounds):
            raise RuntimeError(f"{side} scheduled p={p} N={n} differently across rounds")
        times = {k: [out[k] for out in rounds] for k in first if k.endswith("seconds")}
        table[side] = {"cycles": first["cycles"], "swaps": first["swaps"], **times,
                       "summary": {name: quartiles(v) for name, v in times.items()}}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--label", help="adds to BENCH_<label>.json")
    parser.add_argument("--case", nargs=2, type=int, metavar=("P", "N"),
                        help="print this interpreter's schedules of one case as JSON and exit")
    args = parser.parse_args(argv)
    if args.case:
        print(json.dumps(sweep(*args.case)))
        return 0
    if args.parent is None or args.label is None:
        parser.error("--parent and --label are required")
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    def run(case, side, i):
        command = [str(Path(__file__).resolve()), "--case", *map(str, case)]
        out = json.loads(in_checkout(sides[side], command))
        print(f"round {i} p={case[0]} N={case[1]:3d} {side}: cycles {out['cycles']}, SWAPs "
              f"{out['swaps']}, {out['seconds']:.2f} s", file=sys.stderr, flush=True)
        return out

    runs = alternate(SIDES, ROUNDS, [(p, n) for p in DEPTHS for n in SIZES], run)
    add_table(args.label, "sweep", {
        **header(sides), "rounds": ROUNDS, "graphs_per_size": GRAPHS,
        "cases": [case_table(p, n, per_side) for (p, n), per_side in runs.items()]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
