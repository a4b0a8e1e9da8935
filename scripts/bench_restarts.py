"""Time one solve_instance call with its restarts on the worker pool and in turn.

Run from the repository root:

    python3 scripts/bench_restarts.py --label NAME

For each case in CASES (N, realizations R), solve_instance runs the
random 3-regular graph with seed 7 at p=2 under paper noise (T1 = 200 us,
T2 = 100 us, T_G = 10 ns), in the sampled pipeline with CONFIG, once with
its restarts on a pinned_pool of one worker per usable CPU ("pool") and
once one after another in this process, where a batch of two or more row
blocks runs them on threads ("serial"), as on one CPU. The two take turns
REPEATS times, each going first in every other repeat, with master seed =
repeat index, and the median and quartiles of the wall seconds are kept.
The serial path is forced by replacing optimizer._restart_workers with a
rule that gives one worker; the record also keeps the row blocks of one
batch and the worker count of the library's own rule.

Each case also records the peak resident set sizes in MB after its runs:
RUSAGE_SELF for this process, which runs the serial restarts and both
paths' final scorings, and RUSAGE_CHILDREN for the largest pool worker.
Both are maxima over the whole run, so CASES ascend in batch size
(R * 2^N) and each case's peaks are its own, or a smaller case's.

Each run appends its table, with the machine record and the git SHA, to the
list under the key "restarts" of BENCH_<label>.json in the repository root,
next to what is already there, so every run is kept.

BLAS runs single-threaded, as importing qaoabench sets it. Run nothing
else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from bench_pairs import ROOT, header, quartiles

sys.path.insert(0, str(ROOT / "src"))
import qaoabench  # noqa: E402  before numpy loads, so that BLAS runs single-threaded

# ascending in R * 2^N amplitudes per batch
CASES = ((8, 96), (8, 192), (8, 384), (10, 384), (12, 96), (14, 32), (12, 192), (12, 384),
         (14, 96), (16, 32), (16, 96))
REPEATS = 5
P = 2
CONFIG = {"n_restarts": 10, "max_updates": 3}  # NmConfig fields; 10000 samples


def _peak_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024     # Linux reports KiB


def time_cases() -> list[dict]:
    from qaoabench import optimizer
    from qaoabench.graphs import gen_random_3regular
    from qaoabench.simulator import NoiseParams, _n_blocks

    config = optimizer.NmConfig(**CONFIG)
    noise = NoiseParams(200e-6, 100e-6, 10e-9)
    paths = {"pool": optimizer._restart_workers, "serial": lambda n_tasks: 1}
    rows = []
    for n, r in CASES:
        g = gen_random_3regular(n, 7)
        seconds: dict[str, list[float]] = {path: [] for path in paths}
        for i in range(REPEATS):
            for path, rule in sorted(paths.items(), reverse=i % 2 == 1):
                optimizer._restart_workers = rule
                t = time.perf_counter()
                optimizer.solve_instance(g, P, config, "sampled", noise, i, r)
                seconds[path].append(time.perf_counter() - t)
        optimizer._restart_workers = paths["pool"]
        row = {"n": n, "realizations": r, "blocks": _n_blocks(r, 1 << n),
               "seconds": {path: quartiles(v) for path, v in seconds.items()},
               "peak_rss_mb": {"self": _peak_mb(resource.RUSAGE_SELF),
                               "worker": _peak_mb(resource.RUSAGE_CHILDREN)}}
        rows.append(row)
        print(f"N={n:2d} R={r}: " + ", ".join(
            f"{path} {row['seconds'][path]['median']:.2f} s" for path in paths)
            + f"; {row['blocks']} block(s); peak RSS self {row['peak_rss_mb']['self']:.0f} MB,"
            f" worker {row['peak_rss_mb']['worker']:.0f} MB", file=sys.stderr, flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="adds to BENCH_<label>.json")
    args = parser.parse_args(argv)

    from qaoabench import optimizer

    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("restarts", []).append(
        {**header({"change": ROOT}), "repeats": REPEATS, "p": P,
         "config": CONFIG, "workers": optimizer._restart_workers(CONFIG["n_restarts"]),
         "cases": time_cases()})
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
