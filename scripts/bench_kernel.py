"""Time the gate kernel per bit in each form, for one gate and for groups of two and
three, and the layout copies, to place their cut-overs and weights, or the random
draws of one noisy evaluation.

Run from the repository root:

    python3 scripts/bench_kernel.py --label NAME [--table kernel|rng]

The kernel table (the default): for each case in CASES (N, realizations R),
a random normalized (R, 2^N) batch with unit-modulus pending factors gets
simulator._apply_group with RX(0.3) on each bit q, in each of its forms,
forced by replacing simulator._group_form. One gate: "matmul" (the short
form: one product per row by g^T (x) I_{2^q}) and "2x2" (the long form: one
2x2 product per pair of runs of 2^q amplitudes); tables recorded while the
simulator had an elementwise in-place form also hold it, as "inplace". The
matmul form is timed only up to 2^q = MATMUL_CAP, since its dense
(2^(q+1))^2 matrix per row grows as 4^q, and the 2x2 form only from 2^q =
PAIR_FLOOR, since below it the product makes one BLAS call per handful of
amplitudes. From GROUP_MIN_N qubits on, groups of k = 2
("pair") and 3 ("triple") RX(0.3) gates on bits q..q+k-1 run as one product
by the Kronecker product of their per-row matrices: "pair-short" and
"triple-short" (one product per row by G^T (x) I_{2^q}, bit 0 included)
while 2^(q+k) <= GROUP_SHORT_CAP, "pair-long" and "triple-long" (one
2^k x 2^k product per block of 2^k runs) from 2^q = GROUP_LONG_FLOOR on;
together they cover the short-run and bit-0 positions, the long runs and
the groups across bits 3/4 and 6/7. The "rotate" form, on the rows of q >=
1, is no gate but the layout change of the cycle loop at a change of
offset: simulator._permute with the cyclic source (c - q) % N, the
transposing copy into the spare that moves bit b of every index to bit
(b + q) % N (tables recorded before it timed the shift-only copy that
_permute replaced). "permute", on the row of q = 0, is the cycle loop's
last copy, simulator._permute by a fixed random permutation of the bits.
simulator._layout_plan weighs a product and a rotation by these times
(simulator._group_cost, _ROTATE_COST).
With 1 block the calling thread applies the kernel CALLS times to the whole
batch; with 2 blocks the batch is split into two row halves, as
simulator._run_blocks splits it, and two threads apply it CALLS times each
to their half at once. The time per call is the wall time over CALLS; it is
taken in REPEATS rounds under the turn rule of scripts/bench_pairs.py, with
the (bit, form) pairs of one batch as its cases, and the median and
quartiles are kept.

The rng table: for each case in RNG_CASES (N, R), the random 3-regular
graph with seed 7 at p=4 under paper noise (T1 = 200 us, T2 = 100 us,
T_G = 10 ns), scheduled with seed 0, gives the cycle count. "draws" times
the noise draws of one run_noisy_ensemble call: "loop" builds one
default_rng([seed, r]) per realization, as the simulator did before its
bulk draws, and "bulk" is streams.draw_noise; "one-stream" draws the
same blocks from one default_rng([seed]) per call, the contract ROADMAP
item 6 weighed, so its numbers differ and only its time is kept.
"estimate" times one sampled estimate of 10000 shots from that instance's
ensemble distribution: "choice" draws them with Generator.choice, as
sample_from_probs did before it sorted its uniforms, and "sorted" is
sample_from_probs; both end in estimate_cut. loop and bulk, and choice and
sorted, must give the same bits. Every call uses a fresh seed; the sides
run in REPEATS rounds under the turn rule, and the median and quartiles of
the time per call are kept.

Each run appends its table, with the machine record and the git SHA, to the
list under the key "kernel" or "rng" of BENCH_<label>.json in the
repository root.

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

CASES = ((8, 96), (12, 96), (14, 32), (16, 96))
RNG_CASES = ((8, 96), (8, 384), (12, 96), (14, 32))
BLOCKS = (1, 2)
MATMUL_CAP = 32
PAIR_FLOOR = 16
GROUP_MIN_N = 12
GROUP_SHORT_CAP = 64
GROUP_LONG_FLOOR = 8
REPEATS = 9

# form -> (gates per product, the form _apply_group is forced into)
GATE_FORMS = {"matmul": (1, "short"), "2x2": (1, "long"),
              "pair-short": (2, "short"), "pair-long": (2, "long"),
              "triple-short": (3, "short"), "triple-long": (3, "long")}


def forms_at(n: int, q: int) -> list[str]:
    """The forms timed on bit q of an n-qubit batch."""
    forms = []
    if 1 << q <= MATMUL_CAP:
        forms.append("matmul")
    if 1 << q >= PAIR_FLOOR:
        forms.append("2x2")
    if n >= GROUP_MIN_N:
        for k, name in ((2, "pair"), (3, "triple")):
            if q + k <= n and 1 << (q + k) <= GROUP_SHORT_CAP:
                forms.append(f"{name}-short")
            if q + k <= n and 1 << q >= GROUP_LONG_FLOOR:
                forms.append(f"{name}-long")
    forms.append("rotate" if q >= 1 else "permute")
    return forms


def time_cases() -> list[dict]:
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor
    from qaoabench import simulator

    u = (np.cos(0.3), -1j * np.sin(0.3), -1j * np.sin(0.3), np.cos(0.3))
    group_form = simulator._group_form
    rows_out = []

    def run(bufs, n, q, f, calls, form, source):
        states, spare = bufs
        k = GATE_FORMS.get(form, (1,))[0]
        cyclic = [(c - q) % n for c in range(n)]
        for _ in range(calls):
            if form == "rotate":
                out = simulator._permute(states, spare, n, cyclic)
            elif form == "permute":
                out = simulator._permute(states, spare, n, source)
            else:
                out = simulator._apply_group(states, n, q, (u,) * k, f[:, :k], spare)
            if out is spare:
                states, spare = spare, states
        bufs[:] = states, spare

    with ThreadPoolExecutor(1) as pool:
        for n, r in CASES:
            rng = np.random.default_rng(n)
            states = rng.standard_normal((r, 1 << n)) + 1j * rng.standard_normal((r, 1 << n))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            spare = states.copy()
            f = np.exp(1j * rng.uniform(-np.pi, np.pi, (r, 3)))
            source = [int(b) for b in rng.permutation(n)]
            calls = max(4, (1 << 21) // (r << n))
            halves = [[states[: r // 2], spare[: r // 2]], [states[r // 2:], spare[r // 2:]]]

            def timed(case, b, i):
                q, form = case
                if form in GATE_FORMS:
                    simulator._group_form = lambda b, k, forced=GATE_FORMS[form][1]: forced
                t = time.perf_counter()
                if b == 1:
                    run([states, spare], n, q, f, calls, form, source)
                else:
                    other = pool.submit(run, halves[1], n, q, f[r // 2:], calls, form, source)
                    run(halves[0], n, q, f[: r // 2], calls, form, source)
                    other.result()
                simulator._group_form = group_form
                return (time.perf_counter() - t) / calls

            cases = [(q, form) for q in range(n) for form in forms_at(n, q)]
            seconds = alternate(BLOCKS, REPEATS, cases, timed)
            for q in range(n):
                forms = forms_at(n, q)
                row = {"n": n, "realizations": r, "qubit": q, "run": 1 << q, "calls": calls,
                       "seconds": {form: {str(b): quartiles(v)
                                          for b, v in seconds[q, form].items()}
                                   for form in forms}}
                rows_out.append(row)
                print(f"N={n:2d} R={r} q={q:2d}: " + "; ".join(
                    f"{form} " + ", ".join(
                        f"{row['seconds'][form][str(b)]['median'] * 1e3:.3f}"
                        for b in BLOCKS) for form in forms) + " ms (1, 2 blocks)",
                    file=sys.stderr, flush=True)
    return rows_out


def time_rng() -> list[dict]:
    import numpy as np
    from qaoabench import simulator, streams
    from qaoabench.circuit import QaoaParams, build_qaoa_circuit
    from qaoabench.graphs import cut_values_table, gen_random_3regular
    from qaoabench.optimizer import NmConfig, estimate_cut
    from qaoabench.scheduler import choose_grid, schedule

    noise = simulator.NoiseParams(200e-6, 100e-6, 10e-9)
    sigma = np.sqrt(noise.dephasing_var(noise.t_gate))
    shots = NmConfig().n_samples
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))

    def loop_draws(seed, shape):
        eps, us = np.zeros(shape), np.empty(shape)
        for r in range(shape[0]):
            rng = np.random.default_rng([seed, r])
            eps[r] = sigma * rng.standard_normal(shape[1:])
            us[r] = rng.random(shape[1:])
        return eps, us

    def bulk_draws(seed, shape):
        eps, us = np.zeros(shape), np.empty(shape)
        streams.draw_noise(eps, us, seed, sigma)
        return eps, us

    def one_stream_draws(seed, shape):
        eps, us = np.zeros(shape), np.empty(shape)
        rng = np.random.default_rng([seed])
        rng.standard_normal(out=eps)
        eps *= sigma
        rng.random(out=us)
        return eps, us

    def choice_estimate(seed, probs, table):
        rng = np.random.default_rng([seed, 2])
        p = probs / probs.sum()
        return estimate_cut(rng.choice(len(p), size=shots, p=p).astype(np.uint32), table)

    def sorted_estimate(seed, probs, table):
        rng = np.random.default_rng([seed, 2])
        return estimate_cut(simulator.sample_from_probs(probs, shots, rng), table)

    sides = {"draws": {"loop": loop_draws, "bulk": bulk_draws, "one-stream": one_stream_draws},
             "estimate": {"choice": choice_estimate, "sorted": sorted_estimate}}
    inputs = {}
    for n, r in RNG_CASES:
        g = gen_random_3regular(n, 7)
        c = build_qaoa_circuit(g, params)
        s = schedule(c, choose_grid(n), 0)
        probs = simulator.run_noisy_ensemble(s, c, noise, r, 0).mean_probs
        inputs[n, r] = s.n_cycles, {"draws": ((r, s.n_cycles, n),),
                                    "estimate": (probs, cut_values_table(g))}
    outs = {}

    def timed(case, variant, i):
        section, side = variant
        calls = max(4, 4096 // case[1])
        t = time.perf_counter()
        for k in range(calls):
            out = sides[section][side](i * calls + k, *inputs[case][1][section])
        seconds = (time.perf_counter() - t) / calls
        if side != "one-stream" and not np.array_equal(outs.setdefault((case, section, i), out),
                                                       out):
            raise RuntimeError(f"{side} gave other bits for {section} at {case} in round {i}")
        return seconds

    variants = tuple((section, side) for section, funcs in sides.items() for side in funcs)
    rows_out = [{"n": n, "realizations": r, "cycles": inputs[n, r][0], "shots": shots,
                 "calls": max(4, 4096 // r),
                 "seconds": {section: {side: quartiles(seconds[section, side]) for side in funcs}
                             for section, funcs in sides.items()}}
                for (n, r), seconds in alternate(variants, REPEATS, RNG_CASES, timed).items()]
    for row in rows_out:
        print(f"N={row['n']:2d} R={row['realizations']:3d}: " + "; ".join(
            f"{section} " + ", ".join(f"{side} {q['median'] * 1e3:.3f} ms"
                                      for side, q in row["seconds"][section].items())
            for section in sides), file=sys.stderr, flush=True)
    return rows_out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="adds to BENCH_<label>.json")
    parser.add_argument("--table", choices=("kernel", "rng"), default="kernel")
    args = parser.parse_args(argv)

    if args.table == "kernel":
        table = {"matmul_cap": MATMUL_CAP, "pair_floor": PAIR_FLOOR,
                 "group_min_n": GROUP_MIN_N, "group_short_cap": GROUP_SHORT_CAP,
                 "group_long_floor": GROUP_LONG_FLOOR, "cases": time_cases()}
    else:
        table = {"cases": time_rng()}
    add_table(args.label, args.table, {**header({"change": ROOT}), "repeats": REPEATS, **table})
    return 0


if __name__ == "__main__":
    sys.exit(main())
