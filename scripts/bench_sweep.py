"""Time `qaoabench bench` sweeps in alternating fresh processes, parent against change.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_sweep.py --parent ../parent --label NAME

Every one of ROUNDS rounds runs `python -m qaoabench.cli bench COMMON CASE
--seed SEED` for each case in CASES once in each checkout, each in a fresh
process that imports qaoabench from its own checkout's src/, under the
turn rule of scripts/bench_pairs.py. Every run must write the same CSV
bytes as the first run of its case. The wall seconds of a run include the
interpreter's start.

Each run appends its table to the list under the key "sweeps" of
BENCH_<label>.json in the repository root: the machine record, both git
SHAs and, per case, the command, every run's seconds and the median and
quartiles of each side.

Run nothing else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, SIDES, add_table, alternate, header, in_checkout, quartiles

ROUNDS = 6
SEED = 5
COMMON = ("--instances", "4", "--p", "2", "--restarts", "5", "--max-updates", "20")
# the first two are the sweeps BENCH_task_list.json already holds
CASES = {
    "pooled": ("--sizes", "8,10,12", "--realizations", "96"),  # batches of 2^19 amplitudes or less
    "mixed": ("--sizes", "8,12", "--realizations", "384"),     # N=12: 1.5 * 2^20 amplitudes
    # no noise: every evaluation replays one realization, and no shots are drawn
    "noiseless": ("--sizes", "8,10,12", "--t2", "inf", "--pipeline", "exact"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit to compare with")
    parser.add_argument("--label", required=True, help="adds to BENCH_<label>.json")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    argvs = {name: [*COMMON, *case, "--seed", str(SEED)] for name, case in CASES.items()}
    csvs: dict[str, str] = {}
    tmp = tempfile.TemporaryDirectory()

    def run(name, side, i):
        out = Path(tmp.name) / f"{side}.csv"
        t = time.perf_counter()
        in_checkout(sides[side], ["-m", "qaoabench.cli", "bench", *argvs[name], "--out", str(out)])
        seconds = time.perf_counter() - t
        text = out.read_text()
        if csvs.setdefault(name, text) != text:
            raise RuntimeError(f"{side} wrote other CSV bytes for {name} in round {i}")
        print(f"round {i} {name} {side}: {seconds:.2f} s", file=sys.stderr, flush=True)
        return seconds

    with tmp:
        runs = alternate(SIDES, ROUNDS, list(CASES), run)
    cases = {name: {"command": " ".join(["bench", *argvs[name]]), "csv": csvs[name],
                    "seconds": seconds,
                    "summary": {side: quartiles(v) for side, v in seconds.items()}}
             for name, seconds in runs.items()}
    add_table(args.label, "sweeps", {**header(sides), "rounds": ROUNDS, "cases": cases})
    return 0


if __name__ == "__main__":
    sys.exit(main())
