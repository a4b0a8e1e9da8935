"""Time `qaoabench bench` sweeps in alternating fresh processes, parent against change.

Run from the repository root, with a second checkout of the commit to
compare against:

    python3 scripts/bench_sweep.py --parent ../parent --label NAME

For each case in CASES, every one of ROUNDS rounds runs
`python -m qaoabench.cli bench COMMON CASE --seed SEED` once for each of
the case's variants in VARIANTS, each in a fresh process with PYTHONPATH=src
in its own checkout: the parent with `--jobs 1` and with `--jobs 2`, and
this checkout with no extra flag. In the mixed case, this checkout also
runs with optimizer._POOL_MAX_AMPS lowered to 2^19, so that N=12 runs its
restarts in turn on the row-block threads ("change_threaded"); in the
pooled case that variant would run the same path as "change". The variant that goes first rotates from round
to round, so drift of the host's speed spreads over all of them. Every run
must write the same CSV bytes as the first run of its case. The wall
seconds of a run include the interpreter's start.

BENCH_<label>.json in the repository root gets the machine record, both
git SHAs and, per case, the command, every run's seconds and the median and
quartiles of each variant. A sweep the file already holds moves to the end
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
# name -> (flags, variants)
CASES = {
    # every batch within 2^19 amplitudes
    "pooled": (("--sizes", "8,10,12", "--realizations", "96"),
               ("parent_jobs1", "parent_jobs2", "change")),
    # N=12 at R=384 holds 1.5 * 2^20 amplitudes, the largest batch the pool takes
    "mixed": (("--sizes", "8,12", "--realizations", "384"),
              ("parent_jobs1", "parent_jobs2", "change", "change_threaded")),
}
# name -> (side, extra flags, optimizer._POOL_MAX_AMPS or None to keep it)
VARIANTS = {"parent_jobs1": ("parent", ("--jobs", "1"), None),
            "parent_jobs2": ("parent", ("--jobs", "2"), None),
            "change": ("change", (), None),
            "change_threaded": ("change", (), 1 << 19)}
# runs the CLI with the pool bound given as the first argument
RAISED_BOUND = ("import sys; from qaoabench import optimizer; "
                "optimizer._POOL_MAX_AMPS = int(sys.argv[1]); "
                "from qaoabench.cli import main; sys.exit(main(sys.argv[2:]))")


def bench_run(checkout: Path, argv: list[str], bound: int | None,
              out: Path) -> tuple[float, str]:
    """Wall seconds of one bench in a fresh process, and the CSV it wrote."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cli = ["-m", "qaoabench.cli"] if bound is None else ["-c", RAISED_BOUND, str(bound)]
    t = time.perf_counter()
    subprocess.run([sys.executable, *cli, "bench", *argv, "--out", str(out)],
                   cwd=checkout, env=env, stdout=subprocess.DEVNULL, check=True)
    seconds = time.perf_counter() - t
    return seconds, out.read_text()


def time_case(sides: dict[str, Path], case: tuple[str, ...], names: tuple[str, ...],
              tmp: Path) -> dict:
    seconds: dict[str, list[float]] = {name: [] for name in names}
    csv = None
    for i in range(ROUNDS):
        for name in names[i % len(names):] + names[:i % len(names)]:
            side, extra, bound = VARIANTS[name]
            argv = [*COMMON, *case, "--seed", str(SEED), *extra]
            t, text = bench_run(sides[side], argv, bound, tmp / f"{name}.csv")
            csv = csv or text
            if text != csv:
                raise RuntimeError(f"{name} wrote other CSV bytes in round {i}")
            seconds[name].append(t)
            print(f"round {i} {name}: {t:.2f} s", file=sys.stderr, flush=True)
    return {"command": " ".join(["bench", *COMMON, *case, "--seed", str(SEED)]),
            "csv": csv, "seconds": seconds,
            "summary": {name: quartiles(v) for name, v in seconds.items()}}


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
        cases = {name: time_case(sides, case, names, Path(tmp))
                 for name, (case, names) in CASES.items()}
    variants = {name: " ".join([side, *extra] + ([] if bound is None else
                                                 [f"optimizer._POOL_MAX_AMPS={bound}"]))
                for name, (side, extra, bound) in VARIANTS.items()}
    record.update(header(sides), rounds=ROUNDS, variants=variants, cases=cases)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
