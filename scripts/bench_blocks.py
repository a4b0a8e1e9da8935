"""Time one run_noisy_ensemble call per row-block count, to place the block size floor.

Run from the repository root:

    python3 scripts/bench_blocks.py --label NAME

For each case in CASES (N, realizations R, noise), a p=4 QAOA circuit on
the random 3-regular graph with seed 7, fixed angles, scheduled on
choose_grid(N) with seed 3, under the case's noise ("paper": T1 = 200 us,
T2 = 100 us, T_G = 10 ns; or "t2r50": the strong T2/T_G = 50 with T1 = 2 T2,
where most trajectories meet a jump candidate), calls run_noisy_ensemble
with each block count in BLOCKS, in REPEATS rounds under the turn rule of
scripts/bench_pairs.py with seed = round index, and keeps the median and
quartiles of the wall seconds. The block count is forced by
replacing simulator._n_blocks; the record also keeps the count the
library's own rule picks. Each run appends its table, with the machine
record and the git SHA, to the list under the key "blocks" of
BENCH_<label>.json in the repository root.

BLAS runs single-threaded, as importing qaoabench sets it. Run nothing
else on the host meanwhile: every time here is wall time.
"""
from __future__ import annotations

import argparse
import sys
import time

from bench_pairs import ROOT, add_table, alternate, header, quartiles

sys.path.insert(0, str(ROOT / "src"))
import qaoabench  # noqa: E402  before numpy loads, so that BLAS runs single-threaded

CASES = tuple((n, r, "paper") for n, r in (
    (8, 64), (8, 96), (8, 128), (8, 192), (8, 384), (8, 768), (10, 48), (10, 96),
    (10, 192), (10, 384), (12, 48), (12, 96), (14, 32), (16, 96))) \
    + ((10, 96, "t2r50"), (12, 96, "t2r50"))
BLOCKS = (1, 2)
REPEATS = 15


def time_cases() -> list[dict]:
    from qaoabench import simulator
    from qaoabench.circuit import QaoaParams, build_qaoa_circuit
    from qaoabench.graphs import cut_values_table, gen_random_3regular
    from qaoabench.scheduler import choose_grid, schedule

    rule = simulator._n_blocks
    noises = {"paper": simulator.NoiseParams(200e-6, 100e-6, 10e-9),
              "t2r50": simulator.NoiseParams.from_t2_ratio(50.0)}
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))
    inputs = {}
    for n, r, noise_name in CASES:
        g = gen_random_3regular(n, 7)
        c = build_qaoa_circuit(g, params)
        inputs[n, r, noise_name] = schedule(c, choose_grid(n), 3), c, cut_values_table(g)

    def run(case, b, i):
        s, c, cut = inputs[case]
        simulator._n_blocks = lambda *_: b
        t = time.perf_counter()
        simulator.run_noisy_ensemble(s, c, noises[case[2]], case[1], i, cut_table=cut)
        return time.perf_counter() - t

    runs = alternate(BLOCKS, REPEATS, CASES, run)
    simulator._n_blocks = rule
    rows = [{"n": n, "realizations": r, "noise": noise_name,
             "cycles": inputs[n, r, noise_name][0].n_cycles, "rule_blocks": rule(r, 1 << n),
             "seconds": {str(b): quartiles(v) for b, v in seconds.items()}}
            for (n, r, noise_name), seconds in runs.items()]
    for row in rows:
        print(f"N={row['n']:2d} R={row['realizations']} {row['noise']}: " + ", ".join(
            f"{b} block(s) {row['seconds'][str(b)]['median'] * 1e3:.1f} ms" for b in BLOCKS)
            + f"; rule picks {row['rule_blocks']}", file=sys.stderr, flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="adds to BENCH_<label>.json")
    args = parser.parse_args(argv)
    add_table(args.label, "blocks",
              {**header({"change": ROOT}), "repeats": REPEATS, "cases": time_cases()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
