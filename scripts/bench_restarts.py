"""Time one solve_instance call with its restarts on the worker pool and in turn.

Run from the repository root:

    python3 scripts/bench_restarts.py --label NAME

For each case in CASES (N, realizations R), solve_instance runs the
random 3-regular graph with seed 7 at p=2 under paper noise (T1 = 200 us,
T2 = 100 us, T_G = 10 ns), in the sampled pipeline with CONFIG, once with
its restarts on a pinned_pool of one worker per usable CPU ("pool") and
once one after another in this process, where a batch of two or more row
blocks runs them on threads ("serial"). The two take turns REPEATS times,
each going first in every other repeat, with master seed = repeat index,
and the median and quartiles of the wall seconds are kept. The path is
forced by replacing optimizer._POOL_MAX_AMPS, the batch-size bound; the
record also keeps the row blocks of one batch and the worker count the
library's own rule picks. Each run appends its table, with the machine
record and the git SHA, to the list under the key "restarts" of
BENCH_<label>.json in the repository root, next to what is already there,
so every run is kept.

BLAS runs single-threaded, as importing qaoabench sets it. Run nothing
else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench_pairs import ROOT, header, quartiles

sys.path.insert(0, str(ROOT / "src"))
import qaoabench  # noqa: E402  before numpy loads, so that BLAS runs single-threaded

CASES = ((8, 96), (8, 192), (8, 384), (10, 384), (12, 96), (14, 32), (12, 192), (12, 384))
REPEATS = 5
P = 2
CONFIG = {"n_restarts": 10, "max_updates": 3}  # NmConfig fields; 10000 samples


def time_cases() -> list[dict]:
    from qaoabench import optimizer
    from qaoabench.graphs import gen_random_3regular
    from qaoabench.simulator import NoiseParams, _n_blocks

    config = optimizer.NmConfig(**CONFIG)
    bound, noise = optimizer._POOL_MAX_AMPS, NoiseParams(200e-6, 100e-6, 10e-9)
    paths = {"pool": 1 << 62, "serial": -1}   # bounds every batch is under or over
    rows = []
    for n, r in CASES:
        g = gen_random_3regular(n, 7)
        seconds: dict[str, list[float]] = {path: [] for path in paths}
        for i in range(REPEATS):
            for path, path_bound in sorted(paths.items(), reverse=i % 2 == 1):
                optimizer._POOL_MAX_AMPS = path_bound
                t = time.perf_counter()
                optimizer.solve_instance(g, P, config, "sampled", noise, i, r)
                seconds[path].append(time.perf_counter() - t)
        optimizer._POOL_MAX_AMPS = bound
        rule_workers = optimizer._restart_workers(config.n_restarts) if r << n <= bound else 1
        row = {"n": n, "realizations": r, "blocks": _n_blocks(r, 1 << n),
               "rule_workers": rule_workers,
               "seconds": {path: quartiles(v) for path, v in seconds.items()}}
        rows.append(row)
        print(f"N={n:2d} R={r}: " + ", ".join(
            f"{path} {row['seconds'][path]['median']:.2f} s" for path in paths)
            + f"; {row['blocks']} block(s), rule picks {row['rule_workers']} worker(s)",
            file=sys.stderr, flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="adds to BENCH_<label>.json")
    args = parser.parse_args(argv)

    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("restarts", []).append(
        {**header({"change": ROOT}), "repeats": REPEATS, "p": P,
         "config": CONFIG,
         "cases": time_cases()})
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
