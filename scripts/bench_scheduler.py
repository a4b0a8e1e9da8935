"""Measure the scheduler's depth(N), SWAP count and time against a parent checkout.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_scheduler.py --parent ../parent --out BENCH_scheduler.json

Depth sweep: for each N in SIZES, GRAPHS random 3-regular graphs (graph
seeds 0, 1, ...), a p=4 QAOA circuit with fixed angles, scheduled by
schedule() on choose_grid(N) with the graph seed as schedule seed and the
default number of tries. Each schedule records its cycles, SWAPs and wall
seconds. Each checkout's sweep runs in a fresh interpreter that imports
qaoabench from that checkout's src/.

Benchmark pairs: `perfbench/run.py --workload schedule-sweep --seconds 22
--trace 0` runs PAIRS times in each checkout, alternating which side runs
first, with seeds --seed, --seed + 1, ...; both sides of a pair use the same
seed. The file keeps every run's end-to-end metrics and operation counts,
and per metric the median and quartiles of each side and the number of
pairs the change won (lower is better; ties count for neither side).

Run nothing else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 24, 50, 80, 128, 192, 256)
GRAPHS = 3
P = 4
PAIRS = 10
METRICS = ("op_s", "setup_s", "peak_rss_mb")


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


def bench_run(checkout: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "schedule-sweep",
                           "--seed", str(seed), "--seconds", "22", "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    out = {name: result["metrics"][name]["value"] for name in METRICS}
    out.update(attempted=result["attempted"], failed=result["failed"])
    return out


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def git_sha(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=970,
                        help="seed of the first pair; pick seeds not used while writing the change")
    parser.add_argument("--sweep-only", action="store_true",
                        help="print this interpreter's sweep as JSON and exit")
    args = parser.parse_args(argv)
    if args.sweep_only:
        print(json.dumps(sweep()))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import machine_record

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {"schema": 1, "machine": machine_record(),
              "git_sha": {side: git_sha(path) for side, path in sides.items()},
              "sweep": {"sizes": list(SIZES), "graphs_per_size": GRAPHS, "p": P}}
    for side, path in sides.items():
        print(f"depth sweep, {side}", file=sys.stderr, flush=True)
        record["sweep"][side] = sweep_in(path)

    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": args.seed + i, "first": order[0]}
        for side in order:
            pair[side] = bench_run(sides[side], args.seed + i)
        print(f"pair {i}: parent {pair['parent']['op_s']:.3f} s, "
              f"change {pair['change']['op_s']:.3f} s", file=sys.stderr, flush=True)
        pairs.append(pair)
    summary = {}
    for name in METRICS:
        summary[name] = {side: quartiles([p[side][name] for p in pairs]) for side in sides}
        summary[name]["change_wins"] = sum(p["change"][name] < p["parent"][name] for p in pairs)
        summary[name]["pairs"] = len(pairs)
    record["schedule_sweep"] = {"command": "python3 perfbench/run.py --workload schedule-sweep "
                                           "--seed SEED --seconds 22 --trace 0",
                                "pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
