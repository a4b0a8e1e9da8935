"""State-vector simulation of scheduled circuits with stochastic T1/T2 noise.

States are complex128 arrays whose last axis indexes the 2^n computational
basis states (qubit q lives in bit q of the index); leading axes, when
present, are independent noise realizations, so every kernel is batched.

Noise follows the per-qubit, per-cycle trajectory picture: after each clock
cycle every logical qubit receives one stochastic single-qubit operation of
duration T_G, and averaging final pure states over many realizations
reproduces the density matrix of amplitude damping (rate 1/T1) composed
with pure dephasing (rate 1/T_phi = 1/T2 - 1/(2 T1)). Dephasing is
unraveled as a Z rotation by a Gaussian angle; damping as a jump/no-jump
branch whose jump probability is the exact quantum branching weight, so
the ensemble average matches the channel without time-step error.

Only the N logical qubits are ever simulated. Routing SWAPs relabel the
site -> logical map and never touch amplitudes: they cannot entangle the
algorithm register with pristine ancilla sites, so a machine with M > N
sites costs no more than N qubits. The tests check this claim against a
dense 2^M-site oracle that does apply SWAP unitaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, GateKind, LogicalCircuit
from .scheduler import Schedule

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class NoiseParams:
    """Relaxation time t1, dephasing time t2, and gate duration t_gate.

    All share one time unit. Physicality requires t2 <= 2 t1; infinities
    are allowed and mean the corresponding process is absent.
    """

    t1: float
    t2: float
    t_gate: float

    def __post_init__(self):
        if not (self.t1 > 0 and self.t2 > 0 and self.t_gate > 0):
            raise ValueError("t1, t2, t_gate must be positive")
        if self.t2 > 2.0 * self.t1 + 1e-12 * self.t1:
            raise ValueError(f"unphysical noise: t2={self.t2} > 2*t1={2 * self.t1}")

    @classmethod
    def noiseless(cls, t_gate: float = 1.0) -> "NoiseParams":
        return cls(math.inf, math.inf, t_gate)

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

    @property
    def is_noiseless(self) -> bool:
        return math.isinf(self.t1) and math.isinf(self.t2)


# ---------------------------------------------------------------------------
# state construction and gate kernels
# ---------------------------------------------------------------------------

def init_zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    return state


def init_plus_state(n: int) -> np.ndarray:
    return np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)


def _split1(state: np.ndarray, n: int, q: int):
    """Views (a0, a1) of the amplitudes with qubit q equal to 0 / 1."""
    shaped = state.reshape(state.shape[:-1] + (1 << (n - 1 - q), 2, 1 << q))
    return shaped[..., 0, :], shaped[..., 1, :]


def apply_h(state: np.ndarray, n: int, q: int) -> None:
    a0, a1 = _split1(state, n, q)
    t0 = (a0 + a1) * _INV_SQRT2
    a1[...] = (a0 - a1) * _INV_SQRT2
    a0[...] = t0


def apply_rx(state: np.ndarray, n: int, q: int, beta: float) -> None:
    """exp(-i beta X) on qubit q; beta is the full rotation-generator angle."""
    c, s = math.cos(beta), math.sin(beta)
    a0, a1 = _split1(state, n, q)
    t0 = c * a0 - 1j * s * a1
    a1[...] = -1j * s * a0 + c * a1
    a0[...] = t0


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


def apply_swap(state: np.ndarray, n: int, qa: int, qb: int) -> None:
    lo, hi = min(qa, qb), max(qa, qb)
    shaped = state.reshape(state.shape[:-1] + (
        1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo))
    tmp = shaped[..., 0, :, 1, :].copy()
    shaped[..., 0, :, 1, :] = shaped[..., 1, :, 0, :]
    shaped[..., 1, :, 0, :] = tmp


def apply_gate(state: np.ndarray, n: int, gate: Gate) -> None:
    """Apply one gate in place on its own operands."""
    q = gate.qubits
    if gate.kind == GateKind.H:
        apply_h(state, n, q[0])
    elif gate.kind == GateKind.RX:
        apply_rx(state, n, q[0], gate.angle)
    elif gate.kind == GateKind.ZZPHASE:
        apply_zzphase(state, n, q[0], q[1], gate.angle)
    elif gate.kind == GateKind.SWAP:
        apply_swap(state, n, q[0], q[1])
    else:
        raise ValueError(f"unknown gate kind {gate.kind}")


def simulate_logical(c: LogicalCircuit, state: np.ndarray | None = None) -> np.ndarray:
    """Run the gate list in order on |0...0> (or on a provided state)."""
    if state is None:
        state = init_zero_state(c.n_qubits)
    for gate in c.gates:
        apply_gate(state, c.n_qubits, gate)
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return (state.real ** 2 + state.imag ** 2)


# ---------------------------------------------------------------------------
# stochastic noise operations
# ---------------------------------------------------------------------------

def _cycle_noise_qubit(states: np.ndarray, n: int, q: int,
                       eps: np.ndarray, us: np.ndarray, p_damp: float) -> None:
    """Dephase + damp qubit q across a (R, 2^n) batch, in place.

    Dephasing multiplies the |1> amplitudes by e^{i eps} (the Z rotation up
    to a global phase). The jump branch fires when u < p_damp * P(q=1),
    the exact branching weight, and both branches renormalize via the
    closed-form branch norm.
    """
    a0, a1 = _split1(states, n, q)
    ph = np.exp(1j * eps)
    if p_damp > 0.0:
        p1 = np.einsum("rab,rab->r", a1, a1.conj()).real
        jump = (us < p_damp * p1).reshape(-1, 1, 1)
        inv = 1.0 / np.sqrt(np.where(jump[:, 0, 0], p1, 1.0 - p_damp * p1))
        mult_nojump = ph * (math.sqrt(1.0 - p_damp) * inv)
        t0 = np.where(jump, a1 * (ph * inv).reshape(-1, 1, 1), a0 * inv.reshape(-1, 1, 1))
        a1[...] = np.where(jump, 0.0, a1 * mult_nojump.reshape(-1, 1, 1))
        a0[...] = t0
    elif eps.any():
        a1 *= ph.reshape(-1, 1, 1)


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
    """

    n_realizations: int
    n_qubits: int
    master_seed: int
    mean_probs: np.ndarray
    per_cut: np.ndarray | None = None
    per_overlap: np.ndarray | None = None
    states: np.ndarray | None = None

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


def cycle_gate_groups(s: Schedule, c: LogicalCircuit) -> list[list[Gate]]:
    """Circuit gates grouped by clock cycle, SWAP relabelings dropped.

    Amplitudes are indexed by logical qubit, so a valid schedule's gates can
    be applied on their logical operands directly and routing SWAPs carry no
    state action at all.
    """
    groups: list[list[Gate]] = []
    seen: set[int] = set()
    for row in s.table:
        group = []
        for entry in row:
            if entry > 0 and entry not in seen:
                seen.add(entry)
                group.append(c.gates[s.n_prep_gates + entry - 1])
        groups.append(group)
    return groups


def _prep_state(s: Schedule, c: LogicalCircuit) -> np.ndarray:
    state = init_zero_state(c.n_qubits)
    for gate in c.gates[: s.n_prep_gates]:
        apply_gate(state, c.n_qubits, gate)
    return state


def run_noisy_ensemble(s: Schedule, c: LogicalCircuit, noise: NoiseParams,
                       n_realizations: int, master_seed: int,
                       cut_table: np.ndarray | None = None,
                       overlap_mask: np.ndarray | None = None,
                       keep_states: bool = False,
                       chunk_size: int | None = None) -> TrajectoryEnsemble:
    """Replay the schedule for an ensemble of stochastic noise realizations.

    Per cycle, every scheduled gate is applied and then each of the n
    logical qubits receives one noise operation (idle qubits decohere too).
    Realization r consumes the random stream of default_rng([master_seed, r])
    -- a Gaussian block then a uniform block, (n_cycles x n) each; the
    Gaussian block is drawn only when the dephasing variance is positive
    (at T2 = 2 T1 the uniform block starts the stream) -- so results do
    not depend on chunking or execution order. Averages are
    reduced in fixed realization order; reruns with one master seed are
    bitwise identical.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    n = c.n_qubits
    dim = 1 << n
    groups = cycle_gate_groups(s, c)
    n_cycles = len(groups)
    prep = _prep_state(s, c)

    if chunk_size is None:
        chunk_size = max(1, min(n_realizations, (1 << 26) // dim))

    var = noise.dephasing_var(noise.t_gate)
    sigma = math.sqrt(var) if var > 0 else 0.0
    p_damp = noise.damping_prob(noise.t_gate)

    sum_probs = np.zeros(dim)
    per_cut = np.empty(n_realizations) if cut_table is not None else None
    per_overlap = np.empty(n_realizations) if overlap_mask is not None else None
    all_states = np.empty((n_realizations, dim), dtype=np.complex128) if keep_states else None

    for start in range(0, n_realizations, chunk_size):
        stop = min(start + chunk_size, n_realizations)
        r_count = stop - start
        states = np.broadcast_to(prep, (r_count, dim)).copy()

        if noise.is_noiseless:
            eps = us = None
        else:
            eps = np.empty((r_count, n_cycles, n))
            us = np.empty((r_count, n_cycles, n))
            for k in range(r_count):
                rng = np.random.default_rng([master_seed, start + k])
                eps[k] = sigma * rng.standard_normal((n_cycles, n)) if sigma > 0 else 0.0
                us[k] = rng.random((n_cycles, n))

        for cy, group in enumerate(groups):
            for gate in group:
                apply_gate(states, n, gate)
            if eps is not None:
                for q in range(n):
                    _cycle_noise_qubit(states, n, q, eps[:, cy, q], us[:, cy, q], p_damp)

        probs = probabilities(states)
        sum_probs += probs.sum(axis=0)
        if per_cut is not None:
            per_cut[start:stop] = probs @ cut_table
        if per_overlap is not None:
            per_overlap[start:stop] = probs[:, overlap_mask].sum(axis=1)
        if all_states is not None:
            all_states[start:stop] = states

    return TrajectoryEnsemble(
        n_realizations=n_realizations,
        n_qubits=n,
        master_seed=master_seed,
        mean_probs=sum_probs / n_realizations,
        per_cut=per_cut,
        per_overlap=per_overlap,
        states=all_states,
    )


# ---------------------------------------------------------------------------
# sampling and the optima mask
# ---------------------------------------------------------------------------

def sample_from_probs(probs: np.ndarray, n_samples: int,
                      rng: np.random.Generator) -> np.ndarray:
    p = probs / probs.sum()
    return rng.choice(len(p), size=n_samples, p=p).astype(np.uint32)


def optima_mask(optima, n: int) -> np.ndarray:
    mask = np.zeros(1 << n, dtype=bool)
    for a in optima:
        mask[a if isinstance(a, (int, np.integer)) else a.to_int()] = True
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
