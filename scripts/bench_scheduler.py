"""Measure the scheduler's depth(N), SWAP count and time against a parent checkout.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_scheduler.py --parent ../parent --out BENCH_scheduler.json

Depth sweep: for each p in DEPTHS and each N in SIZES, GRAPHS random
3-regular graphs (graph seeds 0, 1, ...), a QAOA circuit with fixed angles,
scheduled by schedule() on choose_grid(N) with the graph seed as schedule
seed and the default number of tries. Each schedule records its cycles,
SWAPs (Schedule.n_swaps) and wall seconds, and beside the total the seconds
spent in its two phases, summed over the tries: the initial placements
(scheduler._initial_placement) and the routing (scheduler._route), and
within the routing the SWAP choice of the blocked cycles
(scheduler._cycle_swaps). Each checkout's sweep runs in a fresh interpreter
that imports qaoabench from that checkout's src/. The
sweep, the machine record and both git SHAs go under the key "sweep" of
the output file; a file that exists keeps its other keys, such as the
tables of scripts/bench_pairs.py.

Benchmark pairs of the `schedule-sweep` workload come from
`scripts/bench_pairs.py schedule-sweep`.

Run nothing else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import ROOT, header

SIZES = (16, 24, 50, 80, 128, 192, 256, 384, 512)
GRAPHS = 3
DEPTHS = (1, 2, 4)


def time_phases(module, names: dict[str, str]) -> dict[str, float]:
    """Wrap module.<name> so that every call adds its seconds to phases[key].

    `schedule` and `_route` look their phases up as module globals at each
    call, so the wrappers time them without a change to the scheduler.
    """
    phases = dict.fromkeys(names.values(), 0.0)

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[key] += time.perf_counter() - t
        return wrapper

    for name, key in names.items():
        setattr(module, name, timed(getattr(module, name), key))
    return phases


def sweep() -> list[dict]:
    """Schedule each sweep case with the qaoabench found on sys.path."""
    from qaoabench import scheduler
    from qaoabench.circuit import QaoaParams, build_qaoa_circuit
    from qaoabench.graphs import gen_random_3regular
    from qaoabench.scheduler import choose_grid, schedule

    phases = time_phases(scheduler, {"_initial_placement": "placement_seconds",
                                     "_route": "route_seconds",
                                     "_cycle_swaps": "swap_seconds"})
    rows = []
    for p in DEPTHS:
        for n in SIZES:
            grid = choose_grid(n)
            for graph_seed in range(GRAPHS):
                g = gen_random_3regular(n, graph_seed)
                c = build_qaoa_circuit(g, QaoaParams((0.3,) * p, (0.7,) * p))
                phases.update(dict.fromkeys(phases, 0.0))
                t = time.perf_counter()
                s = schedule(c, grid, graph_seed)
                seconds = time.perf_counter() - t
                rows.append({"p": p, "n": n, "graph_seed": graph_seed,
                             "grid": [grid.rows, grid.cols], "cycles": s.n_cycles,
                             "swaps": s.n_swaps, "seconds": seconds, **phases})
                print(f"  p={p} N={n:3d} graph {graph_seed}: {s.n_cycles} cycles, "
                      f"{s.n_swaps} SWAPs, {seconds:.2f} s (placement "
                      f"{phases['placement_seconds']:.2f} s, routing "
                      f"{phases['route_seconds']:.2f} s, of it SWAP choice "
                      f"{phases['swap_seconds']:.2f} s)", file=sys.stderr, flush=True)
    return rows


def sweep_in(checkout: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--sweep-only"],
                          cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--sweep-only", action="store_true",
                        help="print this interpreter's sweep as JSON and exit")
    args = parser.parse_args(argv)
    if args.sweep_only:
        print(json.dumps(sweep()))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    table = header(sides)
    table.update(sizes=list(SIZES), graphs_per_size=GRAPHS, p=list(DEPTHS))
    for side, path in sides.items():
        print(f"depth sweep, {side}", file=sys.stderr, flush=True)
        table[side] = sweep_in(path)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["sweep"] = table
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
