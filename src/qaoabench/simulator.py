"""State-vector simulation of scheduled circuits with stochastic T1/T2 noise.

States are complex128 arrays whose last axis indexes the 2^n computational
basis states (logical qubit q lives in bit q of the index, except while the
cycle loop of an ensemble has moved the bit layout; see below); leading
axes, when present, are independent noise realizations, so every kernel is
batched.

Noise follows the per-qubit, per-cycle trajectory picture: after each clock
cycle every logical qubit receives one stochastic single-qubit operation of
duration T_G, and averaging final pure states over many realizations
reproduces the density matrix of amplitude damping (rate 1/T1) composed
with pure dephasing (rate 1/T_phi = 1/T2 - 1/(2 T1)). Dephasing is
unraveled as a Z rotation by a Gaussian angle; damping as a jump/no-jump
branch whose jump probability is the exact quantum branching weight, so
the ensemble average matches the channel without time-step error.

Without a jump, a qubit's noise over one cycle is diagonal: the |1>
amplitudes gain e^{i eps} sqrt(1 - p_damp). It commutes with ZZPhase, with
gates on other qubits and with the other qubits' noise, so the ensemble
keeps it pending per (realization, qubit) and folds it into the kernel of
the next RX or H on that qubit (the no-jump evolution of the Monte Carlo
wave-function method; Dalibard, Castin & Molmer, PRL 68, 580, 1992). A jump
is possible only in a qubit-cycle whose uniform draw u is below p_damp,
because it fires at u < p_damp * P(q=1). Only such a candidate qubit-cycle
takes the exact step: P(q=1) is read after the pending factors, this
cycle's no-jump factors of the lower qubits among them, as the per-qubit
step at every cycle sees it, so every branch decision and the random
stream are the same. Only a jump writes the row back, normalized.
ZZPhase gates are diagonal and the same for every realization: their
angles add into one coupling matrix, and one phase vector built from it is
applied in one multiply (gate fusion; qHiPSTER, arXiv:1601.07195; Haner &
Steiger, arXiv:1704.01127). The pending phase needs no flush for a jump:
the jump's amplitudes gain the phase ratio across the jumped qubit, a
scalar times one pending factor per coupled qubit.

An RX or H on the qubit in bit b pairs each amplitude with the one 2^b
away, so a row's amplitudes fall into runs of 2^b that share the value of
bit b. The RX and H gates of one cycle act on different qubits and commute,
so k of them on adjacent bits b..b+k-1 can share one pass as a 2^k x 2^k
product (gate fusion, as in both papers above). _apply_group takes a group
of k <= 3 gates, each with its row's pending factor folded in as g, and
applies the Kronecker product G of their g as BLAS products in one of two
forms, by the block of 2^(b+k) amplitudes that share every other bit, as
Haner & Steiger apply gates to contiguous blocks of amplitudes with small
dense products:
- short blocks (up to 16 amplitudes; one gate on bits 0-3): one product per
  row, the row's (2^(n-b-k), 2^(b+k)) view times G^T (x) I_{2^b};
- long blocks (one gate from bit 4 on, a group from 256 amplitudes on): one
  2^k x 2^k product per block, G times its (2^k, 2^b) view; a group on a
  block of 32-128 has no form.
Both write their result to a spare buffer the size of the batch, which then
swaps roles with the state, so they read and write the batch once, whatever
k. The pending-noise diagonal, the exact step and the probabilities also use
whichever buffer does not hold the state.

So the cycle loop moves the bit layout, as distributed simulators reorder
qubits to keep gates off costly bit positions and to bring gates together
(both papers above): logical qubit q sits in bit bits[q], a map that
_layout_plan fixes from the schedule and the gates' kinds and qubits. It
relabels the qubits once, so that qubits whose gates share cycles sit side by
side (_relabel), and per cycle rotates that labelling, bits[q] = (labels[q] +
offset) % n, by the offset and split into groups that cost least by the
kernel table, rotations included, one plan step per cycle. The start state,
|+...+> or |0...0>, is the same in every layout; each change of layout is one
transposing copy (_permute), at a change of offset and back to q in bit q
before the final flush. The coupling matrix, the pending factors and the draws
stay indexed by logical qubit; the phase vector, the pending diagonal of an
exact step and its P(q=1) are built in the current layout. The plan names each
gate by its position in the circuit's gate list and holds no angle, so it is
built once per schedule and gate structure (_replay_plan keeps the last few),
and each call reads only its own circuit's angles. A noise with no process
runs the same replay, on one row.

The realizations never interact before the final average, so the cycle
loop of a large batch runs on contiguous blocks of rows, one thread per
usable CPU (numpy releases the GIL inside its array loops and BLAS calls);
both simulators above split the amplitude array over the cores of a node
the same way. The circuit alone fixes the cycles where a block flushes
the shared phase, and every block applies the same per-row operations, so
for n >= 2 no row's bits depend on the block count. At n = 1, which the
pipeline never runs, the in-place products of the pending noise run their
inner loops across a block's rows, and numpy rounds a one-element loop's
complex product unlike its vector loop's, so the last bit can depend on the
block size. BLAS should run single-threaded inside the blocks, or its threads
compete with them for the cores: importing the qaoabench package sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless the
user set them, which takes effect if numpy loads later.

Only the N logical qubits are ever simulated. Routing SWAPs relabel the
site -> logical map and never touch amplitudes: they cannot entangle the
algorithm register with pristine ancilla sites, so a machine with M > N
sites costs no more than N qubits. The tests check this claim against a
dense 2^M-site oracle that does apply SWAP unitaries.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Gate, GateKind, LogicalCircuit
from .scheduler import Schedule
from .streams import draw_noise

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class NoiseParams:
    """Relaxation time t1, dephasing time t2, and gate duration t_gate.

    All share one time unit. Physicality requires t2 <= 2 t1; t1 and t2 may
    be infinite, meaning the corresponding process is absent, but the gate
    time must be finite.
    """

    t1: float
    t2: float
    t_gate: float

    def __post_init__(self):
        if not (self.t1 > 0 and self.t2 > 0 and self.t_gate > 0):
            raise ValueError("t1, t2, t_gate must be positive")
        if self.t_gate == math.inf:
            raise ValueError("t_gate must be finite")
        if self.t2 > 2.0 * self.t1 + 1e-12 * self.t1:
            raise ValueError(f"unphysical noise: t2={self.t2} > 2*t1={2 * self.t1}")

    @classmethod
    def noiseless(cls) -> "NoiseParams":
        return cls(math.inf, math.inf, 1.0)    # then no process reads the gate time

    @classmethod
    def from_t2_ratio(cls, t2_over_tg: float, t_gate: float = 10e-9) -> "NoiseParams":
        """Noise level by the T2/T_G ratio, with the default T1 = 2 T2."""
        t2 = t2_over_tg * t_gate
        return cls(2.0 * t2, t2, t_gate)

    def damping_prob(self, dt: float) -> float:
        """Excited-state decay probability over dt: 1 - exp(-dt/t1)."""
        if math.isinf(self.t1):
            return 0.0
        return -math.expm1(-dt / self.t1)

    def dephasing_var(self, dt: float) -> float:
        """Variance of the random Z-rotation angle over dt: 2 dt / t_phi."""
        rate = (0.0 if math.isinf(self.t2) else 1.0 / self.t2) \
            - (0.0 if math.isinf(self.t1) else 0.5 / self.t1)
        if rate <= 0.0:
            return 0.0
        return 2.0 * dt * rate


# ---------------------------------------------------------------------------
# state construction and gate kernels
# ---------------------------------------------------------------------------

def init_zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    return state


def _split1(state: np.ndarray, n: int, q: int):
    """Views (a0, a1) of the amplitudes with bit q equal to 0 / 1."""
    shaped = state.reshape(state.shape[:-1] + (1 << (n - 1 - q), 2, 1 << q))
    return shaped[..., 0, :], shaped[..., 1, :]


def apply_rx(state: np.ndarray, n: int, q: int, beta: float) -> None:
    """exp(-i beta X) on qubit q; beta is the full rotation-generator angle."""
    c, mis = math.cos(beta), -1j * math.sin(beta)      # mis = -i sin(beta)
    a0, a1 = _split1(state, n, q)
    t1 = a1 * mis
    a1 *= c
    a1 += a0 * mis
    a0 *= c
    a0 += t1


def apply_zzphase(state: np.ndarray, n: int, qa: int, qb: int, gamma: float) -> None:
    """exp(-i gamma Z Z / 2): phase -gamma/2 on equal bits, +gamma/2 on unequal."""
    lo, hi = min(qa, qb), max(qa, qb)
    shaped = state.reshape(state.shape[:-1] + (
        1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo))
    ph_eq = complex(math.cos(gamma / 2.0), -math.sin(gamma / 2.0))
    shaped[..., 0, :, 0, :] *= ph_eq
    shaped[..., 1, :, 1, :] *= ph_eq
    shaped[..., 0, :, 1, :] *= ph_eq.conjugate()
    shaped[..., 1, :, 0, :] *= ph_eq.conjugate()


def _gate_matrix(gate: Gate) -> tuple[complex, complex, complex, complex]:
    """Entries (u00, u01, u10, u11) of an H or RX gate."""
    if gate.kind == GateKind.H:
        return (_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)
    c, mis = math.cos(gate.angle), -1j * math.sin(gate.angle)
    return (c, mis, mis, c)


@lru_cache(maxsize=None)
def _group_form(b: int, k: int) -> str | None:
    """The form of _apply_group for k gates on bits b..b+k-1: "long", "short", or
    None where a group has no form.

    It goes by the block of 2^(b+k) amplitudes that share every other bit: the short
    form up to blocks of 16 (one gate on bits 0-3), the long form for one gate from
    bit 4 on and for a group from blocks of 256 on."""
    block = 1 << (b + k)
    if block <= 16:
        return "short"
    return "long" if k == 1 or block >= 256 else None


def _apply_group(states: np.ndarray, n: int, b: int, us, fs: np.ndarray,
                 spare: np.ndarray) -> np.ndarray:
    """Gates us[i] on bits b + i of a (R, 2^n) batch, i < k = len(us), after scaling
    row r's |1> on bit b + i by fs[r, i], with fs riding in the gates'
    coefficients, into spare (C-contiguous, the size of states); returns spare.

    The gates commute, so they act as one product by G_r = g_{k-1} (x) ... (x)
    g_0, g_i = us[i] diag(1, fs[r, i]), in the form _group_form picks. Long:
    G_r multiplies each (2^k, 2^b) block of the 2^k runs of 2^b amplitudes that
    differ only in bits b..b+k-1, one BLAS product per block. Short: each row's
    (2^(n-b-k), 2^(b+k)) view is multiplied by G_r^T (x) I_{2^b}, one BLAS
    product per row."""
    k, run = len(us), 1 << b
    rows, d, g = len(states), 1 << k, None
    for i, (u00, u01, u10, u11) in enumerate(us):     # g = G_r, (rows, 2^k, 2^k)
        gi = np.empty((rows, 2, 2), dtype=np.complex128)    # g_i = us[i] diag(1, fs[r, i])
        gi[:, 0, 0], gi[:, 1, 0], f = u00, u10, fs[:, i]
        np.multiply(f, u01, out=gi[:, 0, 1])
        np.multiply(f, u11, out=gi[:, 1, 1])
        if g is not None:
            gi = (gi[:, :, np.newaxis, :, np.newaxis] * g[:, np.newaxis, :, np.newaxis, :]
                  ).reshape(rows, 2 << i, 2 << i)
        g = gi
    if _group_form(b, k) == "long":
        shape = (rows, -1, d, run)
        np.matmul(g[:, np.newaxis], states.reshape(shape), out=spare.reshape(shape))
    else:
        m = np.zeros((rows, d, run, d, run), dtype=np.complex128)
        diag = np.arange(run)
        m[:, :, diag, :, diag] = g.transpose(0, 2, 1)
        shape = (rows, -1, d * run)
        np.matmul(states.reshape(shape), m.reshape(rows, d * run, d * run),
                  out=spare.reshape(shape))
    return spare


def _permute(states: np.ndarray, spare: np.ndarray, n: int, source) -> np.ndarray:
    """Copy a (R, 2^n) batch into spare with bit c of every new index taken from
    bit source[c] of the old one, and return spare: one transposing copy of the
    rows' (2, ..., 2) views."""
    rows = len(states)
    axes = (0,) + tuple(n - source[n - 1 - i] for i in range(n))
    np.copyto(spare.reshape((rows,) + (2,) * n),
              states.reshape((rows,) + (2,) * n).transpose(axes))
    return spare


# The costs _layout_plan weighs, in units of the median time of one gate's product, from
# the kernel tables of scripts/bench_kernel.py (N, R = 12, 96; 14, 32; 16, 96, on one
# row block and on two at once; medians over those six settings, rounded to about
# 0.05). A product of k gates on bits b..b+k-1 goes by its block of 2^(b+k) amplitudes
# (_group_form). From BENCH_grouped_products.json: in the short form 1.0, 1.1 and 1.5
# on blocks of 4, 8 and 16 for any k (measured 0.99-1.01, 1.08-1.11 and 1.50-1.53); in
# the long form 0.9, 1.0 and 1.25 for k = 1, 2 and 3 on blocks of 2048 and more
# (measured 0.93, 1.02 and 1.24), more on smaller blocks (k = 1, 2, 3: 1.55, 1.64 and
# 1.78 on 256; 1.19, 1.24 and 1.40 on 512; 1.00, 1.13 and 1.28 on 1024); a rotation
# 0.8 (0.81; quartiles 0.69-0.95; timed as a copy by the shift alone, which a _permute
# by a shift matches). From the kernel table of BENCH_one_replay.json, one gate: 1.25 in
# the short form on a block of 2 (measured 1.27), and 6.1, 3.5 and 2.0 in the long form
# on blocks of 32, 64 and 128 (measured 6.12, 3.52 and 1.99; per setting 2.6-3.1,
# 1.7-2.0 and 1.2-1.4 on one row block, 9.1-10.7, 5.0-5.6 and 2.6-2.7 on two).
_SHORT_COST = {2: 1.25, 4: 1.0, 8: 1.1, 16: 1.5}
_LONG_COST = (0.0, 0.9, 1.0, 1.25)
_SMALL_LONG_COST = {32: 5.2, 64: 2.6, 128: 1.1, 256: 0.6, 512: 0.2, 1024: 0.1}
_ROTATE_COST = 0.8


def _group_cost(b: int, k: int) -> float:
    """What _layout_plan weighs one product of k gates on bits b..b+k-1 at."""
    form = _group_form(b, k)
    if form is None:
        return math.inf
    block = 1 << (b + k)
    if form == "short":
        return _SHORT_COST[block]
    return _LONG_COST[k] + _SMALL_LONG_COST.get(block, 0.0)


def _mask_groups(n: int, mask: int) -> tuple[float, tuple[tuple[int, int], ...]]:
    """The cheapest split of the bits set in mask into groups of k <= 3 adjacent
    bits (_group_cost): its cost and its groups (b, k), b ascending.
    A pass over the bits keeps, per bit, the cheapest split of the set bits below
    it that ends there; ties keep the split found first, with fewer groups."""
    best: list[tuple[float, tuple]] = [(0.0, ())] + [(math.inf, ())] * n
    for b in range(n):
        cost, parts = best[b]
        if cost == math.inf:
            continue
        if not mask >> b & 1:
            if cost < best[b + 1][0]:
                best[b + 1] = (cost, parts)
            continue
        for k in range(1, min(3, n - b) + 1):
            if not mask >> (b + k - 1) & 1:
                break
            total = cost + _group_cost(b, k)
            if total < best[b + k][0]:
                best[b + k] = (total, parts + ((b, k),))
    return best[n]


def _relabel(cycles: list[list[int]], n: int) -> list[int]:
    """A fixed position for each logical qubit, from the qubits of each cycle's RX
    and H gates: a greedy chain over how many cycles each pair shares. It starts
    at a qubit of the pair sharing most and grows at the end whose last qubit shares
    most with an unplaced one; ties go to the lower qubit, then to the chain's right
    end. The labels are a permutation of range(n)."""
    shared = [[0] * n for _ in range(n)]
    for qubits in cycles:
        for a in qubits:
            row = shared[a]
            for b in qubits:
                row[b] += 1
    for a in range(n):
        shared[a][a] = -1
    a = max(range(n), key=lambda q: max(shared[q]))
    chain, left = [a], set(range(n)) - {a}
    while left:
        head, tail = shared[chain[0]], shared[chain[-1]]
        q = max(sorted(left), key=lambda q: max(head[q], tail[q]))
        if tail[q] >= head[q]:
            chain.append(q)
        else:
            chain.insert(0, q)
        left.discard(q)
    labels = [0] * n
    for pos, q in enumerate(chain):
        labels[q] = pos
    return labels


def _layout_plan(cycles, structure, n: int):
    """The cycle loop's layouts and gate groups for a schedule's cycles, each the
    positions of its gates in the circuit's gate list (cycle_positions), where gate
    i has structure[i] = (kind, qubits).

    Returns (bits, steps). bits is the starting layout: logical qubit q sits in bit
    bits[q]. steps has one step (zz, layout, products) per cycle: zz is the cycle's
    ZZPhase gates, in order; layout is the move of the batch before the cycle
    (_permute), or None; products are the cycle's RX and H gates in groups, one
    product each (_apply_group), whose qubits sit on adjacent bits, lowest first.
    A cycle without RX or H has (zz, None, ()). Gates are named by position.

    At every n the layout is a fixed relabelling (_relabel) rotated by an offset, q
    in bit (labels[q] + offset) % n. A Viterbi pass over the n offsets, one step per
    cycle with RX or H gates, minimizes the cost of each cycle's gates at its offset
    (_mask_groups) plus _ROTATE_COST per change of offset; the start is free (the
    start state is the same in every layout), ties keep the lower offset. The plan
    depends on the gates' kinds and qubits alone, so every row block moves alike."""
    zz = GateKind.ZZPHASE
    # per cycle, its RX and H gates as {position: qubit}
    ones = [{i: structure[i][1][0] for i in cycle if structure[i][0] is not zz}
            for cycle in cycles]
    labels = _relabel([list(gates.values()) for gates in ones], n)
    full = (1 << n) - 1
    cost = [0.0] * n                    # at offset o after the cycles so far
    moves, splits = [], []              # per cycle with RX or H: each offset's origin; its split
    for gates in filter(None, ones):
        mask = 0
        for q in gates.values():
            mask |= 1 << labels[q]
        split = [_mask_groups(n, (mask << o | mask >> (n - o)) & full) for o in range(n)]
        best = min(range(n), key=cost.__getitem__)
        move = cost[best] + _ROTATE_COST
        moves.append([o if cost[o] <= move else best for o in range(n)])
        cost = [min(cost[o], move) + split[o][0] for o in range(n)]
        splits.append(split)
    offset = min(range(n), key=cost.__getitem__)
    offsets = []
    for came_from in reversed(moves):
        offsets.append(offset)
        offset = came_from[offset]
    start = previous = offset           # the first cycle's offset, 0 without cycles
    chosen = zip(splits, reversed(offsets))
    steps = []
    for cycle, gates in zip(cycles, ones):
        layout, products = None, ()
        if gates:
            split, offset = next(chosen)
            on_bit = {(labels[q] + offset) % n: i for i, q in gates.items()}
            if offset != previous:
                layout = tuple((label + offset) % n for label in labels)
            products = tuple(tuple(on_bit[b + i] for i in range(k)) for b, k in split[offset][1])
            previous = offset
        steps.append((tuple(i for i in cycle if i not in gates), layout, products))
    return tuple((label + start) % n for label in labels), tuple(steps)


def cycle_positions(s: Schedule) -> list[list[int]]:
    """Per clock cycle, the positions in the circuit's gate list of the gates it runs,
    in the order of their first site; routing SWAPs carry no state action (the
    amplitudes are indexed by logical qubit) and are dropped."""
    return [[s.n_prep_gates + entry - 1 for entry in dict.fromkeys(row) if entry > 0]
            for row in s.table]


@lru_cache(maxsize=16)
def _replay_plan(s: Schedule, structure: tuple, n: int) -> tuple:
    """_layout_plan of schedule s for n qubits whose gate i has structure[i] = (kind,
    qubits), kept for later calls: a solve replays one schedule at fresh angles, and
    a caller may take turns over several. A plan is tuples of ints, about 20 kB at N=14."""
    return _layout_plan(cycle_positions(s), structure, n)


class _PendingPhase:
    """ZZPhase gates summed into an upper-triangular coupling matrix j over the logical
    qubits. flush applies them all as one multiply by the phase vector exp(-i theta /
    2), theta(z) = sum_{a<b} j'_ab s_a s_b with s_b = 1 - 2 * (bit b of z), built by
    doubling; j' is j moved into the batch's bit layout bits (logical qubit q in bit
    bits[q]), which move changes and product reads."""

    def __init__(self, bits):
        n = len(bits)
        self.j, self.phase, self.qubits = np.zeros((n, n)), np.empty(1 << n, complex), set()
        self.bits = tuple(bits)

    def add(self, gate: Gate) -> None:
        self.j[min(gate.qubits), max(gate.qubits)] += gate.angle
        self.qubits.update(gate.qubits)

    def move(self, states: np.ndarray, spare: np.ndarray, layout) -> tuple[np.ndarray, np.ndarray]:
        """Copy a (R, 2^n) batch into spare with logical qubit q moved from bit bits[q]
        to bit layout[q] (_permute), which becomes bits; returns (state, spare)."""
        source = [self.bits[q] for q in np.argsort(layout)]    # per new bit, its old one
        self.bits = tuple(layout)
        return _permute(states, spare, len(source), source), states

    def flush(self, states: np.ndarray) -> None:
        if not self.qubits:
            return
        at = np.argsort(self.bits)          # the logical qubit in each bit
        j = (self.j + self.j.T)[np.ix_(at, at)]
        ph, e = self.phase, np.exp(-0.5j * j)[..., None]
        ph[0] = 1.0
        g = np.ones((len(e), 1), complex)   # g[b - k] = exp(-i/2 sum_{a<k} j_ab s_a), low k bits
        for k in range(len(e)):
            np.multiply(ph[: 1 << k], g[0].conj(), out=ph[1 << k: 2 << k])
            ph[: 1 << k] *= g[0]
            g = np.concatenate((g[1:] * e[k, k + 1:], g[1:] * e[k, k + 1:].conj()), axis=1)
        states *= ph
        self.j[:] = 0.0
        self.qubits.clear()

    def product(self, states: np.ndarray, spare: np.ndarray, gates,
                pending: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply RX or H gates whose qubits sit on adjacent bits, lowest first, with
        their qubits' pending noise, as one product into spare (_apply_group), after
        a flush if the phase touches them; returns (state, spare)."""
        qubits = [gate.qubits[0] for gate in gates]
        if not self.qubits.isdisjoint(qubits):
            self.flush(states)
        # the pending columns; a slice, not a gather, for one gate
        cols = slice(qubits[0], qubits[0] + 1) if len(qubits) == 1 else qubits
        out = _apply_group(states, len(self.bits), self.bits[qubits[0]],
                           [_gate_matrix(gate) for gate in gates], pending[:, cols], spare)
        pending[:, cols] = 1.0
        return out, states


def probabilities(state: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """|amplitude|^2 of every entry. Given a C-contiguous complex buffer of at least
    state.size entries, the result and its temporary are views into its two
    halves instead of new arrays."""
    if spare is None:
        probs, imag2 = np.empty(state.shape), np.empty(state.shape)
    else:
        flat = spare.reshape(-1).view(np.float64)
        probs, imag2 = (flat[k * state.size: (k + 1) * state.size].reshape(state.shape)
                        for k in range(2))
    np.square(state.real, out=probs)
    probs += np.square(state.imag, out=imag2)
    return probs


# ---------------------------------------------------------------------------
# scheduled replay with a trajectory ensemble
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryEnsemble:
    """Ensemble results: averaged distribution plus per-realization traces.

    mean_probs is the computational-basis distribution of the averaged
    density matrix (realizations are averaged in fixed order). per_cut and
    per_overlap hold one exact expectation per realization when the caller
    supplied the lookup tables; states are kept only on request.
    n_candidates counts the qubit-cycles whose uniform draw is below p_damp,
    where a jump can fire, and n_jumps the jumps that fired.
    """

    n_realizations: int
    n_qubits: int
    master_seed: int
    mean_probs: np.ndarray
    per_cut: np.ndarray | None = None
    per_overlap: np.ndarray | None = None
    states: np.ndarray | None = None
    n_candidates: int = 0
    n_jumps: int = 0

    @property
    def mean_cut(self) -> float:
        if self.per_cut is None:
            raise ValueError("ensemble was run without a cut table")
        return float(self.per_cut.mean())

    @property
    def mean_overlap(self) -> float:
        if self.per_overlap is None:
            raise ValueError("ensemble was run without an optima mask")
        return float(self.per_overlap.mean())


def _apply_pending_noise(states: np.ndarray, pending: np.ndarray, spare: np.ndarray) -> None:
    """Multiply row r by (x)_q diag(1, pending[r, q]). The diagonal of the low
    n-1 qubits is built by doubling in spare (C-contiguous, >= half of
    states.size); it scales each half of a row, times the top qubit's factor for
    the upper one."""
    rows, n = pending.shape
    half = 1 << (n - 1)
    diag = spare.reshape(-1)[: rows * half].reshape(rows, half)
    diag[:, 0] = 1.0
    for q in range(n - 1):
        np.multiply(diag[:, : 1 << q], pending[:, q: q + 1], out=diag[:, 1 << q: 2 << q])
    states[:, :half] *= diag
    diag *= pending[:, n - 1:]
    states[:, half:] *= diag


def _candidate_steps(states: np.ndarray, pending: np.ndarray, ph: np.ndarray,
                     damp_amp: float, us: np.ndarray, cand: np.ndarray, p_damp: float,
                     j: np.ndarray, bits: tuple[int, ...], spare: np.ndarray) -> int:
    """One cycle's noise on a block with jump candidates (cand = us < p_damp), given
    the cycle's dephasing phases ph, uniform draws us and candidates cand, all
    (rows, n) over the logical qubits, the pending ZZ coupling matrix j and the
    block's layout bits (logical qubit q in bit bits[q]); returns the number of
    jumps.
    Every no-jump factor ph * damp_amp goes into pending. A candidate qubit q sees the
    factors of the qubits below it, as the per-qubit loop does: they are folded
    into pending just before its step. Its rows' P(q=1) comes from a gathered
    copy with their pending factors applied, and only a jump writes a row back.

    The pending phase D is diagonal, so P(q=1) and the no-jump branch commute
    with it, but moving the |1> amplitudes to |0> does not: the moved amplitudes
    gain D(z|q=1) / D(z|q=0) = exp(i sum_b c_b s_b), c_b = j_qb + j_bq, which is
    the scalar exp(i sum_b c_b) times the factor exp(-2i c_b) on each qubit b's
    |1> amplitudes, a pending factor. So D needs no flush here."""
    n = pending.shape[1]
    at = np.argsort(bits)               # the logical qubit in each bit
    step = ph * damp_amp
    todo = np.ones(cand.shape, dtype=bool)      # factors not yet in pending
    jumps = 0
    for q in np.flatnonzero(cand.any(axis=0)):
        rows, b = np.flatnonzero(cand[:, q]), bits[q]
        pend, fold = pending[rows], todo[rows]
        fold[:, q:] = False
        np.multiply(pend, step[rows], out=pend, where=fold)
        todo[rows, : q + 1] = False
        sub = states[rows]
        _apply_pending_noise(sub, pend[:, at], spare)
        probs = probabilities(sub, spare)
        w1 = probs.reshape(len(rows), -1, 2, 1 << b)[:, :, 1].sum(axis=(1, 2))  # |a1|^2
        jump = us[rows, q] < p_damp * (w1 / probs.sum(axis=1))
        stay = ~jump
        # out of place: numpy rounds an in-place complex product of one element
        # differently, and a row's bits must not depend on the rows beside it
        pend[stay, q] = pend[stay, q] * step[rows[stay], q]
        if jump.any():
            k = np.flatnonzero(jump)
            moved = sub[k]
            a0, a1 = _split1(moved, n, b)
            c = j[q] + j[:, q]       # exp(0) is exactly 1 where nothing is pending
            scale = ph[rows[k], q] / np.sqrt(w1[k]) * np.exp(1j * c.sum())
            pend[k] = np.exp(-2j * c)
            np.multiply(a1, scale.reshape(-1, 1, 1), out=a0)
            a1[:] = 0.0
            states[rows[k]] = moved
            jumps += len(k)
        pending[rows] = pend
    np.multiply(pending, step, out=pending, where=todo)
    return jumps


def _run_cycles(block: np.ndarray, spare: np.ndarray, pending: np.ndarray, eps: np.ndarray,
                us: np.ndarray, cand: np.ndarray, plan, gates, p_damp: float) -> int:
    """Every cycle of the schedule on a block of rows, with a spare buffer of the
    block's shape, the rows' pending factors, (rows, n_cycles, n) draws and their
    jump candidates cand (us < p_damp); returns the block's number of jumps. The
    state moves between block and spare as the kernels and copies swap them, and
    ends in block. It starts in the layout of plan (_layout_plan), whose positions
    name gates of the gate list gates. Per cycle it adds the ZZ angles, which act
    on other qubits than the cycle's RX and H, makes the move and the products
    (_PendingPhase), then the noise; one more copy moves logical qubit q back to
    bit q before the final flush. The shared phase is flushed only before a
    product on a qubit it touches and at the end, so at cycles the circuit alone
    fixes, and each row's rounding does not depend on the rows it runs with."""
    n = pending.shape[1]
    damp_amp = math.sqrt(1.0 - p_damp)
    phase, states = _PendingPhase(plan[0]), block
    jumps = 0
    hits = cand.any(axis=(0, 2))        # per cycle: whether any row has a candidate
    for cy, (zz, layout, products) in enumerate(plan[1]):
        for i in zz:
            phase.add(gates[i])
        if layout is not None:
            states, spare = phase.move(states, spare, layout)
        for group in products:
            states, spare = phase.product(states, spare, [gates[i] for i in group], pending)
        ph = np.exp(1j * eps[:, cy])
        if hits[cy]:
            jumps += _candidate_steps(states, pending, ph, damp_amp, us[:, cy], cand[:, cy],
                                      p_damp, phase.j, phase.bits, spare)
        else:
            pending *= ph * damp_amp
    if phase.bits != tuple(range(n)):
        states, spare = phase.move(states, spare, range(n))
    phase.flush(states)
    _apply_pending_noise(states, pending, spare)
    if states is not block:
        block[:] = states
    return jumps


# Amplitudes per chunk: its states take 1 GiB, and its spare as much again.
_CHUNK_AMPS = 1 << 26

# Below this many amplitudes per block a second thread costs more than it saves.
# In the three runs of scripts/bench_blocks.py recorded in BENCH_pr8_threads.json
# (median one-block time over median two-block time), two blocks gave 0.63-0.98x
# at N=8, R=64 and 96, 0.97-1.07x at N=8, R=128 (2 x 16384 amplitudes), 0.98-1.26x
# at N=8, R=192 and 1.13-1.19x at N=10, R=48 (2 x 24576 each), and at least 1.27x
# in every larger case, N=8, R=384 among them.
_MIN_BLOCK_AMPS = 24576


def _n_blocks(rows: int, dim: int) -> int:
    """Row blocks for a chunk: at most one per usable CPU and one per row, and
    none under _MIN_BLOCK_AMPS amplitudes."""
    return max(1, min(len(os.sched_getaffinity(0)), rows, rows * dim // _MIN_BLOCK_AMPS))


def _run_blocks(states: np.ndarray, spare: np.ndarray, eps: np.ndarray, us: np.ndarray,
                cand: np.ndarray, plan, gates, p_damp: float, n_blocks: int) -> int:
    """_run_cycles on n_blocks contiguous row blocks of states and spare: the calling
    thread runs the first, a thread pool the others (numpy releases the GIL in its
    array loops and BLAS calls). Returns the number of jumps in all blocks."""
    rows, n = len(states), eps.shape[2]
    pending = np.ones((rows, n), dtype=np.complex128)
    bounds = [rows * b // n_blocks for b in range(n_blocks + 1)]
    blocks = [(states[lo:hi], spare[lo:hi], pending[lo:hi], eps[lo:hi], us[lo:hi],
               cand[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    if n_blocks == 1:
        return _run_cycles(*blocks[0], plan, gates, p_damp)
    # imported here: it loads logging, 0.65 MB that single-block runs need not hold
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(n_blocks - 1) as pool:
        futures = [pool.submit(_run_cycles, *block, plan, gates, p_damp)
                   for block in blocks[1:]]
        jumps = _run_cycles(*blocks[0], plan, gates, p_damp)
        # result() re-raises a worker's exception here
        return jumps + sum(future.result() for future in futures)


def run_noisy_ensemble(s: Schedule, c: LogicalCircuit, noise: NoiseParams,
                       n_realizations: int, master_seed: int,
                       cut_table: np.ndarray | None = None,
                       overlap_mask: np.ndarray | None = None,
                       keep_states: bool = False) -> TrajectoryEnsemble:
    """Replay the schedule for an ensemble of stochastic noise realizations.

    The replay starts from |+...+> when the schedule hoists the circuit's
    opening H layer (s.n_prep_gates == c.prep_layer_size() > 0) and from
    |0...0> when it hoists nothing; any other n_prep_gates raises ValueError.
    Per cycle, every scheduled gate is applied and then each of the n
    logical qubits receives one noise operation (idle qubits decohere too).
    Realization r consumes the random stream of default_rng([master_seed, r])
    -- a Gaussian block then a uniform block, (n_cycles x n) each; the
    Gaussian block is drawn only when the dephasing variance is positive
    (at T2 = 2 T1 the uniform block starts the stream), and nothing is drawn
    for a noise with no process, which reads no draw. The streams are
    drawn in bulk (streams.draw_noise): the SeedSequence hashing of every
    [master_seed, r] runs at once across r, and one PCG64, set to each row's
    seeded state in turn, draws that row's blocks in place, so the numbers
    are those of the per-realization generators, bit for bit. Every
    realization is drawn before any is simulated, and the shared ZZ phase is
    flushed at cycles the circuit alone fixes. So for n >= 2 (see the module
    docstring) the final states are bitwise the same for every chunk size and
    block count.
    per_cut takes one dot product per row and mean_probs adds the rows in
    realization order, so they are bitwise the same too. Reruns with one
    master seed are bitwise identical.

    The module docstring describes the kernels, the pending noise, the exact
    step of a jump candidate (u < p_damp; _candidate_steps), the row blocks
    (_n_blocks) and the bit layout (_layout_plan), built once per schedule and
    gate structure (_replay_plan). The plan draws nothing, so the streams,
    chunks and blocks are as above, and states are returned in logical order.
    n_candidates and n_jumps count the candidates and the jumps. The rows are
    normalized last, over the whole chunk. BLAS should run
    single-threaded, or its threads compete with the row blocks: importing
    qaoabench sets OPENBLAS_NUM_THREADS (and the OpenMP and MKL counts) to 1
    unless set, but a caller that loads numpy before qaoabench has to set them
    itself.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    n = c.n_qubits
    dim = 1 << n
    if s.n_prep_gates not in (0, c.prep_layer_size()):
        raise ValueError(f"schedule hoists {s.n_prep_gates} gates, not 0 or the opening H layer")
    # |+...+>, as n H gates in turn give it, or |0...0>: the same in every bit layout
    prep = np.full(dim, math.prod([_INV_SQRT2] * n), complex) if s.n_prep_gates \
        else init_zero_state(n)
    plan = _replay_plan(s, tuple((gate.kind, gate.qubits) for gate in c.gates), n)
    n_cycles = len(plan[1])

    var = noise.dephasing_var(noise.t_gate)
    sigma = math.sqrt(var) if var > 0 else 0.0
    p_damp = noise.damping_prob(noise.t_gate)

    # the chunk's buffers are allocated before the draws' many small temporaries
    # (which would otherwise fragment the heap beneath them) and serve every chunk
    chunk_rows = max(1, min(n_realizations, _CHUNK_AMPS // dim))
    chunk_states = np.empty((chunk_rows, dim), dtype=np.complex128)
    chunk_spare = np.empty((chunk_rows, dim), dtype=np.complex128)
    eps = np.zeros((n_realizations, n_cycles, n))
    us = np.zeros((n_realizations, n_cycles, n))
    if sigma > 0 or p_damp > 0:
        draw_noise(eps, us, master_seed, sigma)
    else:       # no process reads a draw; the seed still fails as default_rng's would
        np.random.SeedSequence([master_seed, 0])
    cand = us < p_damp

    sum_probs = np.zeros(dim)
    per_cut = np.empty(n_realizations) if cut_table is not None else None
    cuts = None if cut_table is None else np.asarray(cut_table, dtype=np.float64)
    per_overlap = np.empty(n_realizations) if overlap_mask is not None else None
    all_states = np.empty((n_realizations, dim), dtype=np.complex128) if keep_states else None
    n_jumps = 0

    for start in range(0, n_realizations, chunk_rows):
        stop = min(start + chunk_rows, n_realizations)
        states, spare = chunk_states[: stop - start], chunk_spare[: stop - start]
        states[:] = prep
        n_jumps += _run_blocks(states, spare, eps[start:stop], us[start:stop],
                               cand[start:stop], plan, c.gates, p_damp,
                               _n_blocks(stop - start, dim))

        probs = probabilities(states, spare)
        norms = probs.sum(axis=1, keepdims=True)
        probs /= norms
        for r, row in enumerate(probs, start):  # row by row, so no bit depends on the chunking
            sum_probs += row
            if per_cut is not None:
                per_cut[r] = np.dot(row, cuts)
        if per_overlap is not None:
            per_overlap[start:stop] = probs[:, overlap_mask].sum(axis=1)
        if all_states is not None:
            np.divide(states, np.sqrt(norms), out=all_states[start:stop])

    return TrajectoryEnsemble(n_realizations, n, master_seed, sum_probs / n_realizations,
                              per_cut=per_cut, per_overlap=per_overlap, states=all_states,
                              n_candidates=int(np.count_nonzero(cand)),
                              n_jumps=n_jumps)


# ---------------------------------------------------------------------------
# sampling and the optima mask
# ---------------------------------------------------------------------------

def sample_from_probs(probs: np.ndarray, n_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
    """n_samples basis states (uint32 codes) drawn from probs, normalized to sum 1.

    The draws are those of rng.choice(len(probs), n_samples, p=probs /
    probs.sum()), in ascending order: the same multiset, and rng is left in the
    same state. choice draws n_samples uniforms and looks each up in the CDF
    cumsum(p) / its last entry (sample k where cdf[k-1] <= u < cdf[k]); here the
    uniforms are sorted once, and each state's count is the difference of the
    number of uniforms below successive CDF entries."""
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"probabilities must have a positive finite sum, got {total}")
    if (probs < 0).any():
        raise ValueError("probabilities must be non-negative")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    below = np.sort(rng.random(n_samples)).searchsorted(cdf)
    return np.repeat(np.arange(len(cdf), dtype=np.uint32), np.diff(below, prepend=0))


def optima_mask(optima, n: int) -> np.ndarray:
    mask = np.zeros(1 << n, dtype=bool)
    mask[optima] = True
    return mask


# ---------------------------------------------------------------------------
# convergence diagnostics over the realization count
# ---------------------------------------------------------------------------

def convergence_study(s: Schedule, c: LogicalCircuit, noise: NoiseParams,
                      n_realizations: int, seeds, cut_table: np.ndarray,
                      k_max: int) -> dict[int, np.ndarray]:
    """Running-mean approximation ratio vs realization count, per seed.

    Returns {seed: array of length n_realizations} where entry r-1 is the
    mean over the first r realizations of the per-trajectory expected cut,
    divided by the optimal cut. Convergence is declared when the curves for
    all seeds share a plateau.
    """
    out = {}
    for seed in seeds:
        ens = run_noisy_ensemble(s, c, noise, n_realizations, int(seed),
                                 cut_table=cut_table)
        running = np.cumsum(ens.per_cut) / np.arange(1, n_realizations + 1)
        out[int(seed)] = running / k_max
    return out
