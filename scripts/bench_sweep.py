"""Time `qaoabench bench` sweeps in alternating fresh processes, parent against change.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_sweep.py --parent ../parent --label NAME

For each case in CASES, every one of ROUNDS rounds runs
`python -m qaoabench.cli bench COMMON CASE --seed SEED` once in each
checkout, each in a fresh process with PYTHONPATH=src in its own checkout.
The side that goes first alternates from round to round, so drift of the
host's speed spreads over both. Every run must write the same CSV bytes as
the first run of its case. The wall seconds of a run include the
interpreter's start.

BENCH_<label>.json in the repository root gets the machine record, both
git SHAs and, per case, the command, every run's seconds and the median and
quartiles of each side. A sweep the file already holds moves to the end
of its list "earlier", so every sweep is kept.

Run nothing else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, header, quartiles

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
SIDES = ("parent", "change")


def bench_run(checkout: Path, argv: list[str], out: Path) -> tuple[float, str]:
    """Wall seconds of one bench in a fresh process, and the CSV it wrote."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qaoabench.cli", "bench", *argv, "--out", str(out)],
                   cwd=checkout, env=env, stdout=subprocess.DEVNULL, check=True)
    seconds = time.perf_counter() - t
    return seconds, out.read_text()


def time_case(sides: dict[str, Path], case: tuple[str, ...], tmp: Path) -> dict:
    seconds: dict[str, list[float]] = {side: [] for side in SIDES}
    csv = None
    argv = [*COMMON, *case, "--seed", str(SEED)]
    for i in range(ROUNDS):
        for side in SIDES[i % 2:] + SIDES[:i % 2]:
            t, text = bench_run(sides[side], argv, tmp / f"{side}.csv")
            csv = csv or text
            if text != csv:
                raise RuntimeError(f"{side} wrote other CSV bytes in round {i}")
            seconds[side].append(t)
            print(f"round {i} {side}: {t:.2f} s", file=sys.stderr, flush=True)
    return {"command": " ".join(["bench", *argv]),
            "csv": csv, "seconds": seconds,
            "summary": {side: quartiles(v) for side, v in seconds.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit to compare with")
    parser.add_argument("--label", required=True, help="adds to BENCH_<label>.json")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    if "cases" in record:
        record = {"earlier": record.pop("earlier", []) + [record]}
    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: time_case(sides, case, Path(tmp)) for name, case in CASES.items()}
    record.update(header(sides), rounds=ROUNDS, cases=cases)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
