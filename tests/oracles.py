"""Independent oracles the tests check the fast implementations against.

Everything here takes the slow, obviously-correct route: dense matrices
built by Kronecker embedding and matrix exponentials, density matrices
evolved by explicit Kraus sums, and plain-python enumeration. The one-gate
kernels apply_gate, apply_h and apply_swap live here, as the package no
longer calls them, and so does logical_state, the noiseless reference that
runs a circuit's gates in order with them. apply_gate applies each gate on
its own, ZZPhase by apply_zzphase, so the oracles share no ZZ code with
run_noisy_ensemble, which sums ZZPhase gates into one phase vector, and no
single-qubit kernel with its fused RX/H kernel. The per-qubit noise step
_cycle_noise_qubit lives here too: run_noisy_ensemble defers the no-jump
noise and takes the exact step only on the qubit-cycles where a jump can
fire, so it shares no noise code with the per-qubit trajectory reference.
Three oracles use apply_gate: logical_state, the all-sites physical
simulation, because it checks SWAP tracking and not the kernels, and the
per-qubit trajectory reference, because it checks the deferred noise and
the fused kernels of run_noisy_ensemble. pick_swap_rewalk is the scheduler's SWAP pick as it was
before each cycle kept one candidate list: it walks and scores every
candidate afresh for each SWAP. initial_placement_rescan is the scheduler's
placement as it was before it kept its attachments and site costs
incrementally: it rescans every qubit and every free site at each step.
_gates_commute and dependency_edges are the commutation rule and the full
list of ordered gate pairs that circuit.run_predecessors, the scheduler and
validate_schedule are checked against; _swap_gain scores one SWAP.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from qaoabench.circuit import Gate, GateKind, LogicalCircuit
from qaoabench.graphs import Graph
from qaoabench.scheduler import _interaction_weights, _swap_gains
from qaoabench.simulator import (_split1, apply_rx, apply_zzphase, cycle_positions,
                                 init_zero_state, probabilities)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


def apply_h(state: np.ndarray, n: int, q: int) -> None:
    a0, a1 = _split1(state, n, q)
    t0 = (a0 + a1) / math.sqrt(2.0)
    a1[...] = (a0 - a1) / math.sqrt(2.0)
    a0[...] = t0


def apply_swap(state: np.ndarray, n: int, qa: int, qb: int) -> None:
    lo, hi = min(qa, qb), max(qa, qb)
    shaped = state.reshape(state.shape[:-1] + (
        1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo))
    tmp = shaped[..., 0, :, 1, :].copy()
    shaped[..., 0, :, 1, :] = shaped[..., 1, :, 0, :]
    shaped[..., 1, :, 0, :] = tmp


def apply_gate(state: np.ndarray, n: int, gate: Gate) -> None:
    """Apply one gate in place on its own operands, one kernel per gate."""
    q = gate.qubits
    if gate.kind == GateKind.H:
        apply_h(state, n, q[0])
    elif gate.kind == GateKind.RX:
        apply_rx(state, n, q[0], gate.angle)
    elif gate.kind == GateKind.ZZPHASE:
        apply_zzphase(state, n, q[0], q[1], gate.angle)
    else:
        raise ValueError(f"unknown gate kind {gate.kind}")


def logical_state(c: LogicalCircuit, state: np.ndarray | None = None) -> np.ndarray:
    """The circuit's gates in order, one apply_gate each, on |0...0> or on a copy
    of state."""
    out = init_zero_state(c.n_qubits) if state is None else state.copy()
    for gate in c.gates:
        apply_gate(out, c.n_qubits, gate)
    return out


def cycle_gate_groups(s, c: LogicalCircuit) -> list[list[Gate]]:
    """The circuit's gates grouped by clock cycle (simulator.cycle_positions)."""
    return [[c.gates[i] for i in cycle] for cycle in cycle_positions(s)]


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
    raise ValueError(gate.kind)


def swap_unitary(qa: int, qb: int, n: int) -> np.ndarray:
    """Dense SWAP of qubits qa and qb: the permutation matrix of their bits."""
    perm = np.arange(1 << n)
    ma, mb = 1 << qa, 1 << qb
    for z in range(1 << n):
        if bool(z & ma) != bool(z & mb):
            perm[z] = (z ^ ma) ^ mb
    return np.eye(1 << n, dtype=complex)[perm]


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


def logical_depth(c) -> int:
    """Greedy ASAP layer count under qubit exclusivity alone.

    Each gate lands one layer after the latest gate it shares a qubit with,
    ignoring hardware connectivity. Commuting reorders are not exploited:
    this is the plain layered reading of the gate list.
    """
    ready_at = [0] * c.n_qubits
    depth = 0
    for gate in c.gates:
        layer = max(ready_at[q] for q in gate.qubits) + 1
        for q in gate.qubits:
            ready_at[q] = layer
        depth = max(depth, layer)
    return depth


def _gates_commute(a: Gate, b: Gate) -> bool:
    """Whether two gates commute as unitaries.

    Disjoint supports always commute. On shared qubits only the safe cases
    are recognized: diagonal ZZ phases commute with each other, and
    same-axis single-qubit rotations (RX with RX, H with H) commute on the
    same qubit. Everything else is treated as ordered.
    """
    if not set(a.qubits) & set(b.qubits):
        return True
    if a.kind == GateKind.ZZPHASE and b.kind == GateKind.ZZPHASE:
        return True
    if a.kind == b.kind and a.qubits == b.qubits and a.kind in (GateKind.RX, GateKind.H):
        return True
    return False


def dependency_edges(c: LogicalCircuit) -> list[tuple[int, int]]:
    """Pairs (a, b), a < b, where gate b must execute after gate a.

    A dependency is any same-qubit pair that does not commute; commuting
    gates (notably the ZZ phases within one cost layer) may be freely
    reordered by a scheduler. On a shared qubit, two gates of the
    {H, RX, ZZPhase} set commute (_gates_commute) exactly when they are of
    the same kind, so the kinds alone decide each pair.
    """
    by_qubit: dict[int, list[int]] = {}
    for idx, gate in enumerate(c.gates):
        for q in gate.qubits:
            by_qubit.setdefault(q, []).append(idx)
    kinds = [gate.kind for gate in c.gates]
    return sorted({(a, b) for indices in by_qubit.values()
                   for pos_b, b in enumerate(indices) for a in indices[:pos_b]
                   if kinds[a] != kinds[b]})


def _swap_gain(u: int, v: int, index, p2l: list[int], l2p: list[int],
               dist: tuple[tuple[int, ...], ...]) -> float:
    """scheduler._swap_gains of the one pair (u, v)."""
    return _swap_gains(((u, v),), index, p2l, l2p, dist)[0]


def pick_swap_rewalk(blocked, index, alg_gates, p2l, l2p, nbrs, dist, unavailable):
    """Best free adjacent swap by pending-distance reduction; None if no gain.

    Candidates are edges touching an operand site of a blocked gate, visited
    in gate-id order, each from its first-visited end; sites in unavailable
    are neither swapped nor swapped into. Every candidate is scored afresh
    by _swap_gain, and only a gain above the best so far by 1e-9 replaces
    it, so equal reductions resolve toward the lowest gate id.
    """
    best = None
    best_gain = 0.0
    closed = set(unavailable)
    for g in blocked:
        for q in alg_gates[g].qubits:
            s = l2p[q]
            if s in closed:
                continue
            closed.add(s)
            for nb in nbrs[s]:
                if nb in closed:
                    continue
                gain = _swap_gain(s, nb, index, p2l, l2p, dist)
                if gain > best_gain + 1e-9:
                    best_gain = gain
                    best = (s, nb)
    return best


def initial_placement_rescan(n_logical, gates, grid, dist, rng) -> list[int]:
    """Greedy interaction-aware placement; returns site -> logical (-1 unused).

    Qubits are placed in order of interaction weight with already-placed
    qubits, each at the free site minimizing the weighted distance to its
    placed partners. Ties are broken by the seeded rng so distinct seeds
    explore distinct placements. This is the scheduler's placement as it
    was before it kept its bookkeeping incrementally: every step recomputes
    the attachment of every unplaced qubit and the cost of every free site.
    """
    weights = _interaction_weights(gates)
    total = [0] * n_logical
    partners: dict[int, list[tuple[int, int]]] = {q: [] for q in range(n_logical)}
    for (u, v), w in weights.items():
        total[u] += w
        total[v] += w
        partners[u].append((v, w))
        partners[v].append((u, w))

    center = grid.site(grid.rows // 2, grid.cols // 2)
    free = set(range(grid.n_sites))
    site_of = [-1] * n_logical
    placed: list[int] = []

    def pick(options: list[int]) -> int:
        return int(options[rng.integers(len(options))]) if len(options) > 1 else options[0]

    while len(placed) < n_logical:
        unplaced = [q for q in range(n_logical) if site_of[q] == -1]
        attach = {q: sum(w for v, w in partners[q] if site_of[v] != -1) for q in unplaced}
        best_attach = max(attach.values())
        if best_attach > 0:
            cands = [q for q in unplaced if attach[q] == best_attach]
        else:
            # nothing placed yet, or only non-interacting qubits remain
            top = max(total[q] for q in unplaced)
            cands = [q for q in unplaced if total[q] == top]
        q = pick(sorted(cands))

        def cost(site: int) -> int:
            c = sum(w * dist[site][site_of[v]]
                    for v, w in partners[q] if site_of[v] != -1)
            return c if best_attach > 0 else dist[site][center]

        costs = {s: cost(s) for s in free}
        best_cost = min(costs.values())
        site = pick(sorted(s for s, c in costs.items() if c == best_cost))
        site_of[q] = site
        free.discard(site)
        placed.append(q)

    placement = [-1] * grid.n_sites
    for q, s in enumerate(site_of):
        placement[s] = q
    return placement


def plus_state(n: int) -> np.ndarray:
    """|+...+> as a Kronecker product of n single-qubit H|0> states."""
    state = np.ones(1, dtype=complex)
    for _ in range(n):
        state = np.kron(H @ [1.0, 0.0], state)
    return state


def cut_of_code(g: Graph, z: int) -> int:
    """Edges cut by basis code z (bit i colors vertex i), by a python loop."""
    return sum(1 for (i, j) in g.edges if ((z >> i) ^ (z >> j)) & 1)


def maxcut_by_python_loop(g: Graph) -> int:
    """Exhaustive Max-Cut without numpy, as an independent cross-check."""
    return max(cut_of_code(g, z) for z in range(1 << g.n))


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


def _cycle_noise_qubit(states: np.ndarray, n: int, q: int,
                       eps: np.ndarray, us: np.ndarray, p_damp: float) -> None:
    """Dephase + damp qubit q across a (R, 2^n) batch, in place.

    Dephasing multiplies the |1> amplitudes by e^{i eps} (the Z rotation up
    to a global phase). The jump branch fires when u < p_damp * P(q=1),
    the exact branching weight, and both branches renormalize via the
    closed-form branch norm. Rows are scaled in place as if none jumped;
    the few jump rows are then rewritten by index, from their |1>
    amplitudes saved before the scaling.
    """
    a0, a1 = _split1(states, n, q)
    ph = np.exp(1j * eps)
    if p_damp > 0.0:
        p1 = np.einsum("rab,rab->r", a1, a1.conj()).real
        jump = us < p_damp * p1
        inv = 1.0 / np.sqrt(np.where(jump, p1, 1.0 - p_damp * p1))
        rows = np.flatnonzero(jump)
        if rows.size:
            jumped = a1[rows] * (ph[rows] * inv[rows]).reshape(-1, 1, 1)
        a0 *= inv.reshape(-1, 1, 1)
        a1 *= (ph * (math.sqrt(1.0 - p_damp) * inv)).reshape(-1, 1, 1)
        if rows.size:
            a0[rows] = jumped
            a1[rows] = 0.0
    elif eps.any():
        a1 *= ph.reshape(-1, 1, 1)


def per_qubit_trajectories(s, c, noise, n_realizations: int, master_seed: int):
    """Trajectory states by the exact per-qubit noise step at every cycle.

    Every cycle applies its gates, then _cycle_noise_qubit to each qubit in
    order on every row, from the same per-realization draws as
    run_noisy_ensemble; each row is normalized once at the end. Returns the
    (n_realizations, 2^n) states and the number of rows that had at least
    one jump candidate (a qubit-cycle with u < p_damp).
    """
    n = c.n_qubits
    groups = cycle_gate_groups(s, c)
    var = noise.dephasing_var(noise.t_gate)
    sigma = math.sqrt(var) if var > 0 else 0.0
    p_damp = noise.damping_prob(noise.t_gate)

    states = np.tile(init_zero_state(n), (n_realizations, 1))
    for gate in c.gates[: s.n_prep_gates]:
        apply_gate(states, n, gate)
    eps = np.zeros((n_realizations, len(groups), n))
    us = np.empty((n_realizations, len(groups), n))
    for r in range(n_realizations):
        rng = np.random.default_rng([master_seed, r])
        if sigma > 0:
            eps[r] = sigma * rng.standard_normal((len(groups), n))
        us[r] = rng.random((len(groups), n))

    for cy, group in enumerate(groups):
        for gate in group:
            apply_gate(states, n, gate)
        for q in range(n):
            _cycle_noise_qubit(states, n, q, eps[:, cy, q], us[:, cy, q], p_damp)
    states /= np.sqrt(probabilities(states).sum(axis=1, keepdims=True))
    n_candidate_rows = int((us < p_damp).any(axis=(1, 2)).sum())
    return states, n_candidate_rows


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
