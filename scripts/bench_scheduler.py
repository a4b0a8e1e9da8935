"""Measure the scheduler's depth(N), SWAP count and time against a parent checkout.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_scheduler.py --parent ../parent --out BENCH_scheduler.json

Depth sweep: for each N in SIZES, GRAPHS random 3-regular graphs (graph
seeds 0, 1, ...), a p=4 QAOA circuit with fixed angles, scheduled by
schedule() on choose_grid(N) with the graph seed as schedule seed and the
default number of tries. Each schedule records its cycles, SWAPs and wall
seconds. Each checkout's sweep runs in a fresh interpreter that imports
qaoabench from that checkout's src/. The file also keeps the machine record
and both git SHAs.

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

SIZES = (16, 24, 50, 80, 128, 192, 256)
GRAPHS = 3
P = 4


def sweep() -> list[dict]:
    """Schedule each sweep case with the qaoabench found on sys.path."""
    from qaoabench.circuit import QaoaParams, build_qaoa_circuit
    from qaoabench.graphs import gen_random_3regular
    from qaoabench.scheduler import choose_grid, schedule

    rows = []
    for n in SIZES:
        grid = choose_grid(n)
        for graph_seed in range(GRAPHS):
            g = gen_random_3regular(n, graph_seed)
            c = build_qaoa_circuit(g, QaoaParams((0.3,) * P, (0.7,) * P))
            t = time.perf_counter()
            s = schedule(c, grid, graph_seed)
            seconds = time.perf_counter() - t
            # count SWAP ids, which reads the same on code without Schedule.n_swaps
            swaps = len({e for row in s.table for e in row if e < 0})
            rows.append({"n": n, "graph_seed": graph_seed, "grid": [grid.rows, grid.cols],
                         "cycles": s.n_cycles, "swaps": swaps, "seconds": seconds})
            print(f"  N={n:3d} graph {graph_seed}: {s.n_cycles} cycles, {swaps} SWAPs, "
                  f"{seconds:.2f} s", file=sys.stderr, flush=True)
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
    record = header(sides)
    record["sweep"] = {"sizes": list(SIZES), "graphs_per_size": GRAPHS, "p": P}
    for side, path in sides.items():
        print(f"depth sweep, {side}", file=sys.stderr, flush=True)
        record["sweep"][side] = sweep_in(path)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
