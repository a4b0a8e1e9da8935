"""Realization r's noise stream, default_rng([master_seed, r]), for many r at once.

run_noisy_ensemble gives realization r of an ensemble the random stream of
np.random.default_rng([master_seed, r]). Building one generator per
realization spends most of its time in SeedSequence's hashing, which runs
word by word in numpy's bit_generator module. Here that hashing runs once
for all rows, in uint32 numpy arithmetic, and one PCG64 is set to each
row's seeded state in turn, so the numbers drawn are the same, bit for bit.

The module hides numpy's seeding algorithm from the simulator. Without a
bytecode cache Python compiles each module's source on import, and the
largest module sets the peak memory of that; with these lines in
simulator.py, importing the optimizer peaked 0.2-0.3 MB higher.
"""
from __future__ import annotations

import operator

import numpy as np

# numpy's SeedSequence (numpy/random/bit_generator.pyx): the entropy's uint32 words
# are hashed into a pool of 4 words, mixed pairwise, and hashed again into the output
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128 in numpy's pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed) -> list[int]:
    """The uint32 words SeedSequence makes of an integer seed, lowest first; a
    negative or non-integer seed fails with SeedSequence's error."""
    if isinstance(seed, (float, np.inexact)):
        raise TypeError("seed must be integer")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of count successive SeedSequence hashes, as
    columns: h_k and h_{k+1}, where h_0 = init and h_{k+1} = h_k * mult mod 2^32."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)[:, np.newaxis]
    return h[:-1], h[1:]


def _hash(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> 16)


def seed_states(master_seed: int, rows: int) -> np.ndarray:
    """Row r is SeedSequence([master_seed, r]).generate_state(4, np.uint64), for
    every r < rows at once: numpy's uint32 hashing and mixing, run across rows.
    The constants of successive hashes do not depend on the words hashed, so
    each step hashes a column of pool words against a column of constants."""
    words = _seed_words(master_seed)
    entropy = np.empty((len(words) + 1, rows), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, np.newaxis]
    entropy[-1] = np.arange(rows)
    extra = entropy[_POOL_SIZE:]      # words past the pool mix into every pool word
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + len(extra) * _POOL_SIZE)
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hash(pool, xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k: k + 3], mul[k: k + 3]))
        k += 3
    for word in extra:
        pool = _mix(pool, _hash(word, xor[k: k + _POOL_SIZE], mul[k: k + _POOL_SIZE]))
        k += _POOL_SIZE
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    out = _hash(np.concatenate((pool, pool)), xor, mul)    # the pool, cycled to 8 words
    return np.ascontiguousarray(out.T).view("<u8").astype(np.uint64)


def draw_noise(eps: np.ndarray, us: np.ndarray, master_seed: int, sigma: float) -> None:
    """Fill the (R, n_cycles, n) blocks with realization r's stream of
    default_rng([master_seed, r]): sigma times a Gaussian block (only for sigma
    > 0; eps is left as it is otherwise), then a uniform block. One PCG64 is
    reseeded per row through its state setter, from the seeds seed_states
    derives, by PCG's srandom: inc = 2 * seq + 1, state = (seed + inc) * mult +
    inc mod 2^128."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for r, (s_hi, s_lo, i_hi, i_lo) in enumerate(seed_states(master_seed, len(us)).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg["state"] = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bitgen.state = state
        if sigma > 0:
            gen.standard_normal(out=eps[r])
        gen.random(out=us[r])
    if sigma > 0:
        eps *= sigma
