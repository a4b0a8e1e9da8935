"""Run benchmark workloads in alternating parent/change pairs and record them.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_pairs.py --parent ../parent --label NAME --seed SEED WORKLOAD [...]

Each of the 10 pairs runs `perfbench/run.py --workload W --seed SEED
--seconds 22 --trace 0` once in each checkout, alternating which side runs
first, with seeds SEED, SEED + 1, ..., SEED + 9; both sides of a pair use
the same seed. A claim must not reuse the seeds of an earlier record. The
workloads take turns within each pair index, so drift of the host's speed
spreads over all of them.

BENCH_<label>.json in the repository root keeps the machine record, both
git SHAs with the paths under src/ and scripts/ that each tree has edited
since its commit (so a table timed on an uncommitted tree says so), every
run's end-to-end metrics and operation counts, and per
workload and metric the median and quartiles of each side and the number
of pairs the change won (lower is better; ties count for neither side).
Beside the gated metrics it keeps the unscaled op_s of each run's record
line, `host_seconds.op_s`, with the same summary: the calibrator's probes
run in the benchmark's own process, so work the program hands to other
processes slows the probes and scales op_s down, and a claim on op_s must
show the host-time gain too.
A rerun replaces these and keeps the tables that scripts/bench_blocks.py,
scripts/bench_kernel.py, scripts/bench_restarts.py and
scripts/bench_scheduler.py added to the file.

Run nothing else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("op_s", "setup_s", "peak_rss_mb")
HOST_OP_S = "host_seconds.op_s"
PAIRS = 10
COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 22 --trace 0"


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "22", "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    record_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    out = {name: result["metrics"][name]["value"] for name in METRICS}
    out[HOST_OP_S] = json.loads(record_line)["record"]["host_seconds"]["op_s"]
    out.update(attempted=result["attempted"], failed=result["failed"])
    return out


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def git_sha(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def edited_paths(checkout: Path) -> list[str]:
    """Paths under src/ and scripts/ that differ from HEAD or are untracked."""
    out = subprocess.run(["git", "status", "--porcelain", "--", "src", "scripts"],
                         cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout
    return [line[3:] for line in out.splitlines()]


def header(sides: dict[str, Path]) -> dict:
    """Schema, machine record, and the git SHA of each side with the paths
    under src/ and scripts/ edited since that commit (none on a clean tree)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import machine_record

    return {"schema": 1, "machine": machine_record(),
            "git_sha": {side: git_sha(path) for side, path in sides.items()},
            "edited_paths": {side: edited_paths(path) for side, path in sides.items()}}


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name in (*METRICS, HOST_OP_S):
        out[name] = {side: quartiles([p[side][name] for p in pairs])
                     for side in ("parent", "change")}
        out[name]["change_wins"] = sum(p["change"][name] < p["parent"][name] for p in pairs)
        out[name]["pairs"] = len(pairs)
    return out


def run_pairs(sides: dict[str, Path], workloads: list[str], seed: int) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": seed + i, "first": order[0]}
            for side in order:
                pair[side] = bench_run(sides[side], workload, seed + i)
            print(f"pair {i} {workload}: " + ", ".join(
                f"{side} {pair[side]['op_s']:.3f} s (host {pair[side][HOST_OP_S]:.3f} s)"
                for side in ("parent", "change")), file=sys.stderr, flush=True)
            runs[workload].append(pair)
    return {w: {"pairs": pairs, "summary": summary(pairs)} for w, pairs in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", help="perfbench workload names")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit to compare with")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pick seeds no earlier record used")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update(header(sides), command=COMMAND,
                  workloads=run_pairs(sides, args.workloads, args.seed))
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
