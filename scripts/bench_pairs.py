"""Run benchmark workloads in alternating parent/change pairs and record them.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_pairs.py --parent ../parent --label NAME --seed SEED WORKLOAD [...]

Each of the 10 pairs runs `perfbench/run.py --workload W --seed SEED
--seconds 22 --trace 0` once in each checkout, with seeds SEED, SEED + 1,
..., SEED + 9; both sides of a pair use the same seed. A claim must not
reuse the seeds of an earlier record.

Every bench script here keeps one turn rule (`alternate`): each round runs
every case on every variant, here each workload on both checkouts. The
cases take turns within a round, and the variant order reverses every
other round, so drift of the host's speed spreads over all of them. And
every record is append-only (`add_table`): a run appends its table to the
list under the script's key in BENCH_<label>.json in the repository root
and keeps every other key. This script's key is "pairs".

A table holds the machine record, both git SHAs with the paths under src/,
scripts/, tests/ and perfbench/ that each tree has edited since its commit
(so a table timed on an uncommitted tree says so), every run's end-to-end
metrics and operation counts, and per workload and metric the median and
quartiles of each side and the number of pairs the change won (lower is
better; ties count for neither side). Beside the gated metrics it keeps the
unscaled op_s of each run's record line, `host_seconds.op_s`, with the same
summary: the calibrator's probes run in the benchmark's own process, so
work the program hands to other processes slows the probes and scales op_s
down, and a claim on op_s must show the host-time gain too.

Run nothing else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("op_s", "setup_s", "peak_rss_mb")
HOST_OP_S = "host_seconds.op_s"
PAIRS = 10
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 22 --trace 0"


def alternate(variants, rounds: int, cases, run) -> dict:
    """Call run(case, variant, i) for each case and variant in rounds i = 0, 1, ...

    Within a round the cases take turns in the given order, and each case
    runs the variants in their order, reversed in odd rounds. Returns
    {case: {variant: [run's result in round 0, 1, ...]}}.
    """
    out = {case: {variant: [] for variant in variants} for case in cases}
    for i in range(rounds):
        for case in cases:
            for variant in (variants[::-1] if i % 2 else variants):
                out[case][variant].append(run(case, variant, i))
    return out


def in_checkout(checkout: Path, argv: list[str]) -> str:
    """Run a fresh interpreter with argv in checkout, which imports qaoabench
    from checkout/src; return its standard output."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def add_table(label: str, key: str, table: dict) -> None:
    """Append table to the list under key in BENCH_<label>.json, keeping every
    other key. A table stored bare under key becomes the list's first entry."""
    path = ROOT / f"BENCH_{label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    tables = record.get(key, [])
    record[key] = (tables if isinstance(tables, list) else [tables]) + [table]
    path.write_text(json.dumps(record, indent=1) + "\n")


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def edited_paths(checkout: Path) -> list[str]:
    """Paths under src/, scripts/, tests/ and perfbench/ that differ from HEAD
    or are untracked."""
    out = git(checkout, "status", "--porcelain", "--", "src", "scripts", "tests", "perfbench")
    return [line[3:] for line in out.splitlines()]


def header(sides: dict[str, Path]) -> dict:
    """Schema, machine record, and each side's git SHA and edited_paths."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import machine_record

    return {"schema": 1, "machine": machine_record(),
            "git_sha": {side: git(path, "rev-parse", "HEAD").strip()
                        for side, path in sides.items()},
            "edited_paths": {side: edited_paths(path) for side, path in sides.items()}}


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name in (*METRICS, HOST_OP_S):
        out[name] = {side: quartiles([p[side][name] for p in pairs]) for side in SIDES}
        out[name]["change_wins"] = sum(p["change"][name] < p["parent"][name] for p in pairs)
        out[name]["pairs"] = len(pairs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", help="perfbench workload names")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit to compare with")
    parser.add_argument("--label", required=True, help="adds to BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pick seeds no earlier record used")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    def run(workload, side, i):
        command = COMMAND.replace("WORKLOAD", workload).replace("SEED", str(args.seed + i))
        record_line, result_line = in_checkout(sides[side], command.split()[1:]).splitlines()[-2:]
        result = json.loads(result_line)
        out = {name: result["metrics"][name]["value"] for name in METRICS}
        out[HOST_OP_S] = json.loads(record_line)["record"]["host_seconds"]["op_s"]
        out.update(attempted=result["attempted"], failed=result["failed"])
        print(f"pair {i} {workload} {side}: {out['op_s']:.3f} s (host {out[HOST_OP_S]:.3f} s)",
              file=sys.stderr, flush=True)
        return out

    workloads = {}
    for workload, per_side in alternate(SIDES, PAIRS, args.workloads, run).items():
        pairs = [{"seed": args.seed + i, "first": SIDES[i % 2],
                  **{side: per_side[side][i] for side in SIDES}} for i in range(PAIRS)]
        workloads[workload] = {"pairs": pairs, "summary": summary(pairs)}
    add_table(args.label, "pairs", {**header(sides), "command": COMMAND, "workloads": workloads})
    return 0


if __name__ == "__main__":
    sys.exit(main())
