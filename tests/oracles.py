"""Independent oracles the tests check the fast implementations against.

Everything here takes the slow, obviously-correct route: dense matrices
built by Kronecker embedding and matrix exponentials, density matrices
evolved by explicit Kraus sums, and plain-python enumeration. None of it
shares code with the simulator's gate kernels, except the all-sites
physical simulation: it reuses apply_gate, because it checks SWAP tracking
and not the kernels.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from qaoabench.circuit import Gate, GateKind
from qaoabench.graphs import Graph
from qaoabench.simulator import apply_gate, apply_swap, init_zero_state

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


def op_on(u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on qubit q (bit q of the basis index)."""
    return np.kron(np.eye(1 << (n - 1 - q)), np.kron(u, np.eye(1 << q)))


def gate_unitary(gate, n: int) -> np.ndarray:
    """Dense unitary of one gate via expm / explicit matrices."""
    q = gate.qubits
    if gate.kind == GateKind.H:
        return op_on(H, q[0], n)
    if gate.kind == GateKind.RX:
        return expm(-1j * gate.angle * op_on(X, q[0], n))
    if gate.kind == GateKind.ZZPHASE:
        zz = op_on(Z, q[0], n) @ op_on(Z, q[1], n)
        return expm(-1j * gate.angle / 2.0 * zz)
    if gate.kind == GateKind.SWAP:
        full = np.eye(1 << n, dtype=complex)
        perm = np.arange(1 << n)
        ma, mb = 1 << q[0], 1 << q[1]
        for z in range(1 << n):
            if bool(z & ma) != bool(z & mb):
                perm[z] = (z ^ ma) ^ mb
        return full[perm]
    raise ValueError(gate.kind)


def dense_qaoa_state(g: Graph, params) -> np.ndarray:
    """|gamma, beta> by multiplying dense expm unitaries onto |0...0>."""
    n = g.n
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for q in range(n):
        state = op_on(H, q, n) @ state
    for l in range(params.p):
        for (i, j) in g.edges:
            zz = op_on(Z, i, n) @ op_on(Z, j, n)
            state = expm(-1j * params.gammas[l] / 2.0 * zz) @ state
        for q in range(n):
            state = expm(-1j * params.betas[l] * op_on(X, q, n)) @ state
    return state


def maxcut_by_python_loop(g: Graph) -> int:
    """Exhaustive Max-Cut without numpy, as an independent cross-check."""
    best = 0
    for z in range(1 << g.n):
        cut = sum(1 for (i, j) in g.edges if ((z >> i) ^ (z >> j)) & 1)
        best = max(best, cut)
    return best


def max2sat_by_python_loop(f) -> int:
    best = 0
    for z in range(1 << f.n_vars):
        sat = 0
        for clause in f.clauses:
            for lit in clause:
                bit = (z >> (abs(lit) - 1)) & 1
                if (bit == 1) if lit > 0 else (bit == 0):
                    sat += 1
                    break
        best = max(best, sat)
    return best


# ---------------------------------------------------------------------------
# channel-level density-matrix oracle
# ---------------------------------------------------------------------------

def noise_kraus(noise, dt: float):
    """Single-qubit Kraus operators: amplitude damping then pure dephasing."""
    p = noise.damping_prob(dt)
    rate_phi = (0.0 if math.isinf(noise.t2) else 1.0 / noise.t2) \
        - (0.0 if math.isinf(noise.t1) else 0.5 / noise.t1)
    lam = math.exp(-dt * rate_phi)
    damp = [np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex),
            np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)]
    deph = [math.sqrt((1.0 + lam) / 2.0) * np.eye(2, dtype=complex),
            math.sqrt((1.0 - lam) / 2.0) * np.diag([1.0, -1.0]).astype(complex)]
    return damp, deph


def density_matrix_oracle(sched, circ, noise) -> np.ndarray:
    """Evolve the exact density matrix: cycle unitaries then per-qubit Kraus.

    Cost is 2^(2n), so keep n at 2 or 3 qubits. Mirrors the trajectory
    simulator's cycle-level noise placement exactly.
    """
    from qaoabench.simulator import cycle_gate_groups

    n = circ.n_qubits
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for gate in circ.gates[: sched.n_prep_gates]:
        psi = gate_unitary(gate, n) @ psi
    rho = np.outer(psi, psi.conj())

    damp, deph = noise_kraus(noise, noise.t_gate)
    for group in cycle_gate_groups(sched, circ):
        for gate in group:
            u = gate_unitary(gate, n)
            rho = u @ rho @ u.conj().T
        for q in range(n):
            for kraus_pair in (damp, deph):
                acc = np.zeros_like(rho)
                for k in kraus_pair:
                    kf = op_on(k, q, n)
                    acc += kf @ rho @ kf.conj().T
                rho = acc
    return rho


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def simulate_schedule_physical(s, c) -> np.ndarray:
    """Noiselessly simulate all grid sites, SWAPs as real unitaries.

    Costs 2^(grid sites) amplitudes, so this is a small-scale oracle only.
    Returns the final logical-register state extracted via the tracked
    site -> logical map; ancilla sites must end in |0> (they always do,
    SWAP being a wire permutation) and are projected out.
    """
    m = s.grid.n_sites
    if m > 24:
        raise ValueError("physical oracle capped at 24 sites")
    state = init_zero_state(m)
    l2p = {q: site for site, q in enumerate(s.placement) if q != -1}

    for gate in c.gates[: s.n_prep_gates]:
        apply_gate(state, m, Gate(gate.kind, tuple(l2p[q] for q in gate.qubits), gate.angle))

    p2l = list(s.placement)
    for row in s.table:
        for entry, sites in _entry_sites(row).items():
            if entry > 0:
                gate = c.gates[s.n_prep_gates + entry - 1]
                apply_gate(state, m, Gate(gate.kind, tuple(sites), gate.angle))
            else:
                u, v = sites
                apply_swap(state, m, u, v)
                p2l[u], p2l[v] = p2l[v], p2l[u]

    final_l2p = [-1] * c.n_qubits
    for site, q in enumerate(p2l):
        if q != -1:
            final_l2p[q] = site

    z = np.arange(1 << c.n_qubits, dtype=np.int64)
    phys_index = np.zeros_like(z)
    for q in range(c.n_qubits):
        phys_index |= ((z >> q) & 1) << final_l2p[q]
    logical = state[phys_index]
    norm = np.linalg.norm(logical)
    if abs(norm - 1.0) > 1e-9:
        raise AssertionError(f"ancilla sites left |0> subspace (norm {norm})")
    return logical


def _entry_sites(row) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for site, entry in enumerate(row):
        if entry != 0:
            out.setdefault(entry, []).append(site)
    return out
