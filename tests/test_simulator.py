import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoabench.circuit import Gate, GateKind, LogicalCircuit, QaoaParams, build_qaoa_circuit
from qaoabench.graphs import Graph, brute_force_maxcut, cut_values_table, gen_random_3regular
from qaoabench import simulator, streams
from qaoabench.scheduler import GridTopology, Schedule, choose_grid, schedule, validate_schedule
from qaoabench.simulator import (NoiseParams, _apply_group, _gate_matrix, _n_blocks, _split1,
                                 apply_rx, init_zero_state, optima_mask, probabilities,
                                 run_noisy_ensemble, sample_from_probs)

import oracles
from oracles import (_cycle_noise_qubit, apply_gate, apply_h, apply_swap, cycle_gate_groups,
                     dense_qaoa_state, density_matrix_oracle, gate_unitary, logical_state,
                     per_qubit_trajectories, plus_state, simulate_schedule_physical,
                     swap_unitary, trace_distance)

DEFAULT_NOISE = NoiseParams(t1=200e-6, t2=100e-6, t_gate=10e-9)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(t1=1.0, t2=2.5, t_gate=0.1)     # t2 > 2 t1
    with pytest.raises(ValueError):
        NoiseParams(t1=0.0, t2=1.0, t_gate=0.1)
    with pytest.raises(ValueError):
        NoiseParams(t1=math.nan, t2=1.0, t_gate=0.1)
    # T1 and T2 may be infinite (no process); the gate time must be finite
    NoiseParams(t1=math.inf, t2=math.inf, t_gate=1e-8)
    NoiseParams(t1=math.inf, t2=0.5, t_gate=0.01)
    for bad in (math.nan, 0.0, -1e-8):
        with pytest.raises(ValueError, match="^t1, t2, t_gate must be positive$"):
            NoiseParams(t1=1.0, t2=1.0, t_gate=bad)
    with pytest.raises(ValueError, match="^t_gate must be finite$"):
        NoiseParams(t1=math.inf, t2=math.inf, t_gate=math.inf)
    np_ok = NoiseParams.from_t2_ratio(10000.0)
    assert np_ok.t1 == 2.0 * np_ok.t2
    noiseless = NoiseParams.noiseless()
    assert noiseless.damping_prob(1.0) == 0.0 and noiseless.dephasing_var(1.0) == 0.0


def test_init_states():
    assert np.array_equal(init_zero_state(2), [1, 0, 0, 0])
    for n in (1, 3, 6):
        prep = [Gate(GateKind.H, (q,)) for q in range(n)]
        assert np.allclose(_run_gates(n, prep, init_zero_state(n)), plus_state(n), atol=1e-12)


def _run_gates(n, gates, state):
    """The replay's kernels on a copy of one state, gate by gate in the identity
    layout: ZZPhase into the shared phase, RX and H as one-gate products."""
    phase, out = simulator._PendingPhase(range(n)), state[np.newaxis].copy()
    spare, pending = np.empty_like(out), np.ones((1, n), complex)
    for gate in gates:
        if gate.kind is GateKind.ZZPHASE:
            phase.add(gate)
        else:
            out, spare = phase.product(out, spare, (gate,), pending)
    phase.flush(out)
    return out[0]


def _noiseless_state(s, c):
    """The scheduled replay's state without noise."""
    return run_noisy_ensemble(s, c, NoiseParams.noiseless(), 1, 0, keep_states=True).states[0]


def test_h_involution():
    state = _random_state(4, 1)
    out = _run_gates(4, [Gate(GateKind.H, (2,))] * 2, state)
    assert np.max(np.abs(out - state)) < 1e-12


def test_zzphase_diagonal_action():
    s = _run_gates(2, [Gate(GateKind.ZZPHASE, (0, 1), 0.7)], init_zero_state(2))
    assert np.allclose(s[0], np.exp(-0.35j))
    s = np.zeros(4, complex)
    s[1] = 1.0                                       # |01>: qubit 0 set
    s = _run_gates(2, [Gate(GateKind.ZZPHASE, (0, 1), 0.7)], s)
    assert np.allclose(s[1], np.exp(+0.35j))


def test_gates_match_dense_unitaries():
    rng = np.random.default_rng(7)
    n = 4
    for gate in (Gate(GateKind.H, (1,)),
                 Gate(GateKind.RX, (2,), 0.83),
                 Gate(GateKind.ZZPHASE, (0, 2), 1.91),
                 Gate(GateKind.ZZPHASE, (3, 1), -2.47)):
        state = _random_state(n, rng.integers(1 << 30))
        expected = gate_unitary(gate, n) @ state
        got = _run_gates(n, [gate], state)
        assert np.max(np.abs(got - expected)) < 1e-12, gate
    state = _random_state(n, rng.integers(1 << 30))      # the oracles' SWAP kernel
    got = state.copy()
    apply_swap(got, n, 3, 1)
    assert np.max(np.abs(got - swap_unitary(3, 1, n) @ state)) < 1e-12


def _kernel_case(rng, kind, n, r, q):
    """A random normalized (r, 2^n) batch, pending factors f and a gate on qubit q."""
    states = rng.standard_normal((r, 1 << n)) + 1j * rng.standard_normal((r, 1 << n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    f = np.exp(1j * rng.uniform(-math.pi, math.pi, r)) * np.sqrt(rng.uniform(0.5, 1.0, r))
    gate = Gate(kind, (q,), rng.uniform(-math.pi, math.pi) if kind == GateKind.RX else 0.0)
    return states, f, gate


@pytest.mark.parametrize("kind", [GateKind.H, GateKind.RX])
def test_single_qubit_kernel_folds_pending_factor(kind):
    # the fused kernel equals scaling the |1> amplitudes by f, then the gate; at
    # n = 10 qubits 0-3 take the short form and 4-9 the long form, both into the
    # spare, so the cut-over is crossed
    rng = np.random.default_rng(17)
    n, r = 10, 6
    for q in range(n):
        states, f, gate = _kernel_case(rng, kind, n, r, q)
        expected = states.copy()
        _split1(expected, n, q)[1][...] *= f.reshape(-1, 1, 1)
        if kind == GateKind.RX:
            apply_rx(expected, n, q, gate.angle)
        else:
            apply_h(expected, n, q)
        got, spare = states.copy(), np.empty_like(states)
        out = _apply_group(got, n, q, (_gate_matrix(gate),), f[:, None], spare)
        assert out is spare, q
        assert np.max(np.abs(out - expected)) < 1e-15, q


@pytest.mark.parametrize("kind", [GateKind.H, GateKind.RX])
def test_single_qubit_kernel_rows_independent_of_batch(kind):
    # the row blocks rely on it: a row gets the same bits alone as inside a batch,
    # in either BLAS form (one product per row, or one per block of runs)
    rng = np.random.default_rng(23)
    n, r = 9, 7
    for q in range(n):
        states, f, gate = _kernel_case(rng, kind, n, r, q)
        u = _gate_matrix(gate)
        batch = _apply_group(states.copy(), n, q, (u,), f[:, None], np.empty_like(states))
        for i in range(r):
            row = states[i: i + 1].copy()
            alone = _apply_group(row, n, q, (u,), f[i: i + 1, None], np.empty_like(row))
            assert np.array_equal(alone[0], batch[i]), (q, i)


# (first bit, gates, form): bit 0, the short runs, across bits 3/4, the runs between,
# across bits 6/7 and the long runs, in both product forms wherever their blocks
# stay small enough to build
GROUP_CASES = [(b, k, form) for k in (2, 3) for b in range(11 - k)
               for form in ("short", "long") if form == "long" or 1 << (b + k) <= 64]


@pytest.mark.parametrize("b,k,form", GROUP_CASES)
def test_group_kernel_matches_single_gates(monkeypatch, b, k, form):
    # one product of k gates on bits b..b+k-1 equals the gates one by one, each
    # with its pending factor, in whichever form the rule gives a single gate
    rng = np.random.default_rng(100 * b + k)
    n, r = 11, 5
    states = rng.standard_normal((r, 1 << n)) + 1j * rng.standard_normal((r, 1 << n))
    fs = np.exp(1j * rng.uniform(-math.pi, math.pi, (r, k))) * rng.uniform(0.5, 1.0, (r, k))
    us = [_gate_matrix(Gate(GateKind.RX, (0,), rng.uniform(-math.pi, math.pi))) if i % 2
          else _gate_matrix(Gate(GateKind.H, (0,))) for i in range(k)]
    expected, spare = states.copy(), np.empty_like(states)
    for i in range(k):
        out = _apply_group(expected, n, b + i, us[i:i + 1], fs[:, i:i + 1], spare)
        if out is spare:
            expected, spare = spare, expected
    rule = simulator._group_form
    monkeypatch.setattr(simulator, "_group_form",
                        lambda bb, kk: form if kk > 1 else rule(bb, kk))
    out = _apply_group(states.copy(), n, b, us, fs, spare)
    assert np.max(np.abs(out - expected)) < 1e-14
    # each row gets the same bits alone as in the batch, as the row blocks need
    alone = _apply_group(states[2:3].copy(), n, b, us, fs[2:3], np.empty_like(states[2:3]))
    assert np.array_equal(alone[0], out[2])


def test_group_form_rule():
    # one gate takes the short form on bits 0-3 (blocks 2^(b+1) up to 16 amplitudes)
    # and the long form from bit 4 on; a group takes the short form on blocks 2^(b+k)
    # up to 16 amplitudes and the long form from 256 on
    assert [simulator._group_form(b, 1) for b in range(12)] == ["short"] * 4 + ["long"] * 8
    assert [simulator._group_form(b, 2) for b in range(8)] == \
        ["short"] * 3 + [None] * 3 + ["long"] * 2
    assert [simulator._group_form(b, 3) for b in range(7)] == \
        ["short"] * 2 + [None] * 3 + ["long"] * 2


def test_qaoa_states_match_dense_oracle(k3, k4):
    rng = np.random.default_rng(0)
    for g in (k3, k4):
        for p in (1, 2):
            params = QaoaParams(tuple(rng.uniform(0, 2 * np.pi, p)),
                                tuple(rng.uniform(0, np.pi, p)))
            ours = _noiseless_state(*_scheduled(g, params))
            assert np.max(np.abs(ours - dense_qaoa_state(g, params))) < 1e-10


# ---------------------------------------------------------------------------
# stochastic noise operations
# ---------------------------------------------------------------------------

def test_noiseless_limit_is_identity():
    noise = NoiseParams.noiseless()
    var, p_damp = noise.dephasing_var(1.0), noise.damping_prob(1.0)
    assert var == 0.0 and p_damp == 0.0
    state = _random_state(1, 2)
    out = state[np.newaxis, :].copy()
    _cycle_noise_qubit(out, 1, 0, np.zeros(1), np.random.default_rng(0).random(1), p_damp)
    assert np.allclose(out[0], state)


def test_relaxation_from_excited_state():
    # P(1) after one op of duration T1 must average exp(-1), R = 1e5
    R = 100_000
    rng = np.random.default_rng(42)
    states = np.zeros((R, 2), dtype=complex)
    states[:, 1] = 1.0
    dt = DEFAULT_NOISE.t1
    eps = rng.standard_normal(R) * math.sqrt(DEFAULT_NOISE.dephasing_var(dt))
    us = rng.random(R)
    _cycle_noise_qubit(states, 1, 0, eps, us, DEFAULT_NOISE.damping_prob(dt))
    p1 = np.abs(states[:, 1]) ** 2
    sem = p1.std(ddof=1) / math.sqrt(R)
    assert abs(p1.mean() - math.exp(-1)) < 3 * sem


def test_transverse_decay_from_plus_state():
    # <X> after duration T2 (with T1 = 2 T2) must average exp(-1)
    R = 100_000
    rng = np.random.default_rng(43)
    states = np.full((R, 2), 1 / math.sqrt(2), dtype=complex)
    dt = DEFAULT_NOISE.t2
    eps = rng.standard_normal(R) * math.sqrt(DEFAULT_NOISE.dephasing_var(dt))
    us = rng.random(R)
    _cycle_noise_qubit(states, 1, 0, eps, us, DEFAULT_NOISE.damping_prob(dt))
    x = 2 * (states[:, 0].conj() * states[:, 1]).real
    sem = x.std(ddof=1) / math.sqrt(R)
    assert abs(x.mean() - math.exp(-1)) < 3 * sem


def test_decay_rates_multi_step():
    # composing many short ops reproduces the same analytic curves:
    # <Z> relaxes to +1 at rate 1/T1, |<X>| decays at rate 1/T2
    R, steps = 40_000, 16
    rng = np.random.default_rng(44)
    dt = DEFAULT_NOISE.t1 / steps
    states = np.zeros((R, 2), dtype=complex)
    states[:, 1] = 1.0
    for _ in range(steps):
        eps = rng.standard_normal(R) * math.sqrt(DEFAULT_NOISE.dephasing_var(dt))
        _cycle_noise_qubit(states, 1, 0, eps, rng.random(R),
                           DEFAULT_NOISE.damping_prob(dt))
    p1 = np.abs(states[:, 1]) ** 2
    sem = max(p1.std(ddof=1) / math.sqrt(R), 1e-12)
    assert abs(p1.mean() - math.exp(-1)) < 4 * sem

    states = np.full((R, 2), 1 / math.sqrt(2), dtype=complex)
    dt = DEFAULT_NOISE.t2 / steps
    for _ in range(steps):
        eps = rng.standard_normal(R) * math.sqrt(DEFAULT_NOISE.dephasing_var(dt))
        _cycle_noise_qubit(states, 1, 0, eps, rng.random(R),
                           DEFAULT_NOISE.damping_prob(dt))
    x = 2 * (states[:, 0].conj() * states[:, 1]).real
    sem = x.std(ddof=1) / math.sqrt(R)
    assert abs(x.mean() - math.exp(-1)) < 4 * sem


def test_norm_preserved_under_noise():
    R = 256
    rng = np.random.default_rng(9)
    states = np.tile(_random_state(3, 5), (R, 1))
    for _ in range(50):
        for q in range(3):
            eps = rng.standard_normal(R) * 0.05
            _cycle_noise_qubit(states, 3, q, eps, rng.random(R), 1e-3)
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


# ---------------------------------------------------------------------------
# scheduled ensembles
# ---------------------------------------------------------------------------

def _scheduled(g, params, seed=11):
    c = build_qaoa_circuit(g, params)
    t = choose_grid(g.n)
    s = schedule(c, t, seed)
    assert validate_schedule(s, c, t) == []
    return s, c


def test_noiseless_ensemble_equals_logical(app_b_graph):
    params = QaoaParams((0.7, 1.1), (0.3, 0.9))
    s, c = _scheduled(app_b_graph, params)
    ens = run_noisy_ensemble(s, c, NoiseParams.noiseless(), 5, 0, keep_states=True,
                             cut_table=cut_values_table(app_b_graph))
    psi = logical_state(c)
    assert ens.states.shape == (5, 256)
    for row in ens.states:
        assert np.max(np.abs(row - psi)) < 1e-10
    assert np.max(np.abs(ens.mean_probs - probabilities(psi))) < 1e-12
    assert np.max(np.abs(ens.per_cut - ens.per_cut[0])) < 1e-10


def test_physical_oracle_confirms_swap_tracking(app_b_graph):
    # all 9 grid sites simulated with real SWAP unitaries vs N-qubit path
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))
    s, c = _scheduled(app_b_graph, params)
    fid = abs(np.vdot(simulate_schedule_physical(s, c), _noiseless_state(s, c))) ** 2
    assert fid > 1 - 1e-10


def test_ensemble_memory_footprint(app_b_graph):
    # 8 logical qubits on 9 sites: the ensemble state stays 2^8 wide
    params = QaoaParams((0.4,), (0.2,))
    s, c = _scheduled(app_b_graph, params)
    ens = run_noisy_ensemble(s, c, DEFAULT_NOISE, 4, 0, keep_states=True)
    assert ens.states.shape == (4, 256)
    assert ens.mean_probs.shape == (256,)


def test_two_qubit_ensemble_matches_channel_oracle():
    edge = Graph(2, ((0, 1),))
    params = QaoaParams((0.9, 0.5), (0.4, 1.1))
    c = build_qaoa_circuit(edge, params)
    t = choose_grid(2)
    s = schedule(c, t, 3)
    noise = NoiseParams.from_t2_ratio(20.0)        # strong noise
    rho_oracle = density_matrix_oracle(s, c, noise)

    ens = run_noisy_ensemble(s, c, noise, 384, 123, keep_states=True)
    rho_ens = np.einsum("ri,rj->ij", ens.states, ens.states.conj()) / 384
    assert trace_distance(rho_ens, rho_oracle) < 0.05

    # the channel visibly acts: oracle is far from the noiseless state
    psi = logical_state(c)
    assert trace_distance(rho_oracle, np.outer(psi, psi.conj())) > 0.05


def test_ensemble_bitwise_deterministic(app_b_graph):
    params = QaoaParams((0.7,), (0.4,))
    s, c = _scheduled(app_b_graph, params)
    a = run_noisy_ensemble(s, c, DEFAULT_NOISE, 96, 5)
    b = run_noisy_ensemble(s, c, DEFAULT_NOISE, 96, 5)
    assert np.array_equal(a.mean_probs, b.mean_probs)


def test_realization_streams_independent_of_chunking(app_b_graph, monkeypatch):
    # at T2/T_G = 50 the chunks of 7 rows meet jump candidates at different
    # cycles; the shared phase must still be flushed at the same cycles, and
    # per_cut and mean_probs are reduced row by row in realization order
    params = QaoaParams((0.7,), (0.4,))
    s, c = _scheduled(app_b_graph, params)
    cut = cut_values_table(app_b_graph)
    n = c.n_qubits
    for noise in (DEFAULT_NOISE, NoiseParams.from_t2_ratio(50.0)):
        monkeypatch.setattr(simulator, "_CHUNK_AMPS", 50 << n)
        b = run_noisy_ensemble(s, c, noise, 50, 5, cut_table=cut, keep_states=True)
        for chunk_rows in (1, 7, 11):
            monkeypatch.setattr(simulator, "_CHUNK_AMPS", chunk_rows << n)
            a = run_noisy_ensemble(s, c, noise, 50, 5, cut_table=cut, keep_states=True)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.per_cut, b.per_cut)
            assert np.array_equal(a.mean_probs, b.mean_probs)


# (graph, noise, realizations, chunk rows): one chunk, paper and strong noise, and
# several chunks whose last is short, on the app-B graph (N = 8); two of them on a
# 10-qubit 3-regular graph, whose bits 7-9 take the 2x2 form on 4, 2 and 1 pairs of
# runs per row; and strong noise on a 12-qubit one, whose rotated layout meets jumps
BLOCK_CASES = (("app-b", DEFAULT_NOISE, 32, None),
               ("app-b", NoiseParams.from_t2_ratio(20.0), 50, None),
               ("app-b", NoiseParams.from_t2_ratio(50.0), 50, 11),
               ("n10", DEFAULT_NOISE, 32, None),
               ("n10", NoiseParams.from_t2_ratio(50.0), 24, 7),
               ("n12", NoiseParams.from_t2_ratio(20.0), 24, None))


@pytest.mark.parametrize("graph,noise,n_real,chunk_rows", BLOCK_CASES,
                         ids=["paper", "t2r20", "t2r50-chunked", "n10-paper",
                              "n10-t2r50-chunked", "n12-t2r20"])
def test_row_blocks_are_bitwise_invariant(app_b_graph, monkeypatch, graph, noise, n_real,
                                          chunk_rows):
    # the cycle loop on 1, 2 and 3 row blocks of each chunk gives the same bits
    g = {"app-b": app_b_graph, "n10": gen_random_3regular(10, 4),
         "n12": gen_random_3regular(12, 4)}[graph]
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))
    s, c = _scheduled(g, params)
    cut = cut_values_table(g)
    if chunk_rows is not None:
        monkeypatch.setattr(simulator, "_CHUNK_AMPS", chunk_rows << c.n_qubits)
    runs = []
    for blocks in (1, 2, 3):
        monkeypatch.setattr(simulator, "_n_blocks", lambda rows, dim, b=blocks: min(b, rows))
        runs.append(run_noisy_ensemble(s, c, noise, n_real, 9, cut_table=cut, keep_states=True))
    for ens in runs[1:]:
        assert np.array_equal(ens.states, runs[0].states)
        assert np.array_equal(ens.mean_probs, runs[0].mean_probs)
        assert np.array_equal(ens.per_cut, runs[0].per_cut)


def test_worker_block_error_reaches_caller(app_b_graph, monkeypatch):
    s, c = _scheduled(app_b_graph, QaoaParams((0.7,), (0.4,)))
    run_cycles = simulator._run_cycles

    def failing_in_workers(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker block failed")
        run_cycles(*args)

    monkeypatch.setattr(simulator, "_n_blocks", lambda rows, dim: 2)
    monkeypatch.setattr(simulator, "_run_cycles", failing_in_workers)
    with pytest.raises(RuntimeError, match="worker block failed"):
        run_noisy_ensemble(s, c, DEFAULT_NOISE, 8, 0)


def test_block_rule():
    cpus = len(os.sched_getaffinity(0))
    assert _n_blocks(96, 1 << 8) == 1         # too small to pay for a thread
    assert _n_blocks(1, 1 << 20) == 1         # one row, one block
    assert _n_blocks(128, 1 << 8) == 1
    assert _n_blocks(192, 1 << 8) == min(cpus, 2)
    assert _n_blocks(32, 1 << 14) == min(cpus, 32)


# Deferred no-jump noise against the exact per-qubit step at every cycle:
# (noise, whether rows with a jump candidate must occur at R = 48).
DEFERRAL_CASES = (
    (NoiseParams.from_t2_ratio(20.0), True),
    (NoiseParams.from_t2_ratio(50.0), True),
    (NoiseParams.from_t2_ratio(1e4), False),
    (NoiseParams(t1=1.0, t2=2.0, t_gate=0.01), True),      # T2 = 2 T1: no dephasing
    (NoiseParams(t1=math.inf, t2=0.5, t_gate=0.01), False),  # pure dephasing
)


@pytest.mark.parametrize("noise,strong", DEFERRAL_CASES,
                         ids=["t2r20", "t2r50", "t2r1e4", "t2eq2t1", "dephasing"])
def test_deferred_noise_matches_per_qubit_reference(app_b_graph, noise, strong):
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))
    s, c = _scheduled(app_b_graph, params)
    ens = run_noisy_ensemble(s, c, noise, 48, 31, keep_states=True)
    ref, n_candidate_rows = per_qubit_trajectories(s, c, noise, 48, 31)
    assert np.max(np.abs(ens.states - ref)) < 1e-12
    if strong:
        assert n_candidate_rows >= 10
    elif noise.damping_prob(noise.t_gate) == 0.0:
        assert n_candidate_rows == 0


def test_deferred_noise_reaches_scheduled_h():
    # H gates after the hoisted prefix are not diagonal either: the pending
    # noise of their qubit must be applied before them
    gates = [Gate(GateKind.H, (q,)) for q in range(3)] + [
        Gate(GateKind.ZZPHASE, (0, 1), 0.4), Gate(GateKind.H, (1,)),
        Gate(GateKind.ZZPHASE, (1, 2), 0.9), Gate(GateKind.RX, (0,), 0.3),
        Gate(GateKind.H, (2,))]
    c = LogicalCircuit(3, tuple(gates))
    grid = choose_grid(3)
    s = schedule(c, grid, 1)
    assert validate_schedule(s, c, grid) == []
    noise = NoiseParams(t1=math.inf, t2=0.05, t_gate=0.01)
    ens = run_noisy_ensemble(s, c, noise, 16, 3, keep_states=True)
    ref, _ = per_qubit_trajectories(s, c, noise, 16, 3)
    assert np.max(np.abs(ens.states - ref)) < 1e-12


@st.composite
def _random_circuits(draw):
    """H, RX and ZZPhase in random order on 2-5 qubits, with or without the H prefix."""
    n = draw(st.integers(2, 5))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-math.pi, math.pi)
    gates = [Gate(GateKind.H, (q,)) for q in range(n)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from((GateKind.H, GateKind.RX, GateKind.ZZPHASE)))
        if kind == GateKind.ZZPHASE:
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(Gate(kind, tuple(pair), draw(angle)))
        else:
            gates.append(Gate(kind, (draw(qubit),), draw(angle) if kind == GateKind.RX else 0.0))
    return LogicalCircuit(n, tuple(gates))


# derandomized, so every tier-1 run checks the same cases
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(c=_random_circuits(), strong=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fused_kernels_match_per_qubit_reference(c, strong, seed):
    # the shared ZZ phase is applied before an H or RX on a qubit it touches
    # and at the end, and a jump corrects for it; the pending noise rides in the
    # H and RX kernels, or in one multiply per row at the end or before a jump
    grid = choose_grid(c.n_qubits)
    s = schedule(c, grid, seed)
    assert validate_schedule(s, c, grid) == []
    noise = NoiseParams.from_t2_ratio(20.0) if strong else DEFAULT_NOISE
    ens = run_noisy_ensemble(s, c, noise, 12, seed, keep_states=True)
    ref, _ = per_qubit_trajectories(s, c, noise, 12, seed)
    assert np.max(np.abs(ens.states - ref)) < 1e-12


def _uniform_draws(noise, n_realizations, master_seed, n_cycles, n):
    """The uniform block of each realization's stream, as run_noisy_ensemble draws it."""
    us = np.empty((n_realizations, n_cycles, n))
    for r in range(n_realizations):
        rng = np.random.default_rng([master_seed, r])
        if noise.dephasing_var(noise.t_gate) > 0:
            rng.standard_normal((n_cycles, n))
        us[r] = rng.random((n_cycles, n))
    return us


# Master seeds of one and two entropy words, 2^64 - 1, and two seeds of four words,
# whose entropy, r appended, runs past SeedSequence's pool of four words
STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 3**70)


@pytest.mark.parametrize("master_seed", STREAM_SEEDS)
def test_bulk_draws_match_per_realization_generators(master_seed):
    rows, n_cycles, n = 384, 3, 4
    seeds = streams.seed_states(master_seed, rows)
    # paper noise draws a Gaussian block; at T2 = 2 T1 the uniform block starts the stream
    for noise in (DEFAULT_NOISE, NoiseParams(t1=1.0, t2=2.0, t_gate=0.01)):
        sigma = math.sqrt(noise.dephasing_var(noise.t_gate))
        eps, us = np.zeros((rows, n_cycles, n)), np.empty((rows, n_cycles, n))
        streams.draw_noise(eps, us, master_seed, sigma)
        for r in range(rows):
            ss = np.random.SeedSequence([master_seed, r])
            assert np.array_equal(seeds[r], ss.generate_state(4, np.uint64))
            rng = np.random.default_rng([master_seed, r])
            want = sigma * rng.standard_normal((n_cycles, n)) if sigma > 0 else 0.0
            assert np.array_equal(eps[r], np.broadcast_to(want, (n_cycles, n)))
            assert np.array_equal(us[r], rng.random((n_cycles, n)))
        assert (sigma > 0) == (noise is DEFAULT_NOISE)


@pytest.mark.parametrize("bad", [-1, -2**70, np.int64(-3), 1.5, np.float64(2.0)])
def test_bad_master_seed_fails_as_default_rng_does(app_b_graph, bad):
    with pytest.raises((TypeError, ValueError)) as want:
        np.random.default_rng([bad, 0])
    s, c = _scheduled(app_b_graph, QaoaParams((0.7,), (0.4,)))
    # a noise with no process draws nothing, yet rejects the seed all the same
    for noise in (DEFAULT_NOISE, NoiseParams.noiseless()):
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            run_noisy_ensemble(s, c, noise, 4, bad)


def _coupled_qubits(groups):
    """Per cycle, the qubits with a ZZPhase gate not yet applied after the cycle's
    gates: the shared phase is applied before an H or RX on any qubit it touches."""
    pairs, out = set(), []
    for group in groups:
        for gate in group:
            if gate.kind == GateKind.ZZPHASE:
                pairs.add(gate.qubits)
            elif any(gate.qubits[0] in pair for pair in pairs):
                pairs.clear()
        out.append({q for pair in pairs for q in pair})
    return out


def test_exact_step_on_candidate_qubits_matches_per_qubit_reference(app_b_graph,
                                                                     monkeypatch):
    # strong damping: rows with two or more candidates in one cycle, and jumps on
    # qubits whose ZZ coupling is still pending, where the jump corrects for it
    s, c = _scheduled(app_b_graph, QaoaParams((0.9, 0.2), (0.3, 1.0)))
    noise = NoiseParams.from_t2_ratio(5.0)
    n, n_real, seed = c.n_qubits, 16, 17
    calls, jumps = [], []       # jumps: (cycle, qubit) of each row that jumps

    def recording(states, m, q, eps, us, p_damp):
        _, a1 = _split1(states, m, q)
        p1 = np.einsum("rab,rab->r", a1, a1.conj()).real
        jumps.extend([(len(calls) // m, q)] * int(np.count_nonzero(us < p_damp * p1)))
        calls.append(q)
        _cycle_noise_qubit(states, m, q, eps, us, p_damp)

    monkeypatch.setattr(oracles, "_cycle_noise_qubit", recording)
    ens = run_noisy_ensemble(s, c, noise, n_real, seed, keep_states=True)
    ref, _ = oracles.per_qubit_trajectories(s, c, noise, n_real, seed)
    assert np.max(np.abs(ens.states - ref)) < 1e-12

    candidates = _uniform_draws(noise, n_real, seed, s.n_cycles, n) < noise.damping_prob(
        noise.t_gate)
    assert (candidates.sum(axis=2) >= 2).any()
    coupled = _coupled_qubits(cycle_gate_groups(s, c))
    assert any(q in coupled[cycle] for cycle, q in jumps)
    assert ens.n_jumps == len(jumps)
    assert ens.n_candidates == int(candidates.sum())


@pytest.mark.parametrize("n", [8, 10, 12])
def test_rotated_layout_matches_per_qubit_reference(monkeypatch, n):
    # the cycle loop relabels the qubits, moves the bit layout and applies a cycle's
    # gates in groups; under strong damping, jumps fire while it is moved, and one
    # copy moves every qubit back at the end
    s, c = _scheduled(gen_random_3regular(n, 3), QaoaParams((0.9, 0.2, 1.4, 0.8),
                                                            (0.3, 1.0, 0.5, 0.7)))
    noise = NoiseParams.from_t2_ratio(5.0)
    candidate_steps, steps = simulator._candidate_steps, []     # (layout, jumps)
    apply_group, sizes = simulator._apply_group, []

    def recording(*args):
        jumps = candidate_steps(*args)
        steps.append((args[-2], jumps))
        return jumps

    def counting(states, n_, b, us, fs, spare):
        sizes.append(len(us))
        return apply_group(states, n_, b, us, fs, spare)

    monkeypatch.setattr(simulator, "_candidate_steps", recording)
    monkeypatch.setattr(simulator, "_apply_group", counting)
    ens = run_noisy_ensemble(s, c, noise, 8, 23, keep_states=True)
    ref, _ = per_qubit_trajectories(s, c, noise, 8, 23)
    assert np.max(np.abs(ens.states - ref)) < 1e-12
    assert any(bits != tuple(range(n)) and jumps > 0 for bits, jumps in steps)
    assert ens.n_jumps == sum(jumps for _, jumps in steps)
    assert 2 in sizes and 3 in sizes


def test_permute_moves_every_bit():
    n, rows = 6, 3
    states = np.arange(rows << n, dtype=complex).reshape(rows, 1 << n)
    index = np.arange(1 << n)
    rng = np.random.default_rng(5)
    # every rotation of the bits (bit b to bit (b + k) % n), then random permutations
    sources = [[(c - k) % n for c in range(n)] for k in range(-n, 2 * n)]
    sources += [rng.permutation(n) for _ in range(10)]
    for source in sources:
        out = simulator._permute(states, np.empty_like(states), n, source)
        # bit source[c] of the old index is bit c of the new one
        moved = sum(((index >> source[c]) & 1) << c for c in range(n))
        assert np.array_equal(out[:, moved], states)


def _structure(c):
    """The kind and qubits of each of the circuit's gates, as the plan memo keys them."""
    return tuple((gate.kind, gate.qubits) for gate in c.gates)


def _plan_cost(plan, cycles, gates, n):
    """Replay a plan of the gate list gates, one step per cycle of gate positions:
    check that each step's zz is its cycle's ZZ gates and that its products run
    every RX and H of the cycle once, on adjacent bits with a form, and return the
    cost it was planned at."""
    bits, steps = list(plan[0]), plan[1]
    assert len(steps) == len(cycles)
    cost, seen = 0.0, []
    for cycle, (zz, layout, products) in zip(cycles, steps):
        assert list(zz) == [i for i in cycle if gates[i].kind == GateKind.ZZPHASE]
        if layout is not None:
            assert products
            assert sorted(layout) == list(range(n)) and list(layout) != bits
            # a rotation of the starting layout, which the plan costs as one
            assert len({(a - b) % n for a, b in zip(layout, plan[0])}) == 1
            cost += simulator._ROTATE_COST
            bits = list(layout)
        for group in products:
            assert all(i in cycle and gates[i].kind != GateKind.ZZPHASE for i in group)
            b = bits[gates[group[0]].qubits[0]]
            assert [bits[gates[i].qubits[0]] for i in group] == list(range(b, b + len(group)))
            assert simulator._group_form(b, len(group)) is not None
            cost += simulator._group_cost(b, len(group))
            seen.extend(group)
    assert sorted(seen) == sorted(i for cycle in cycles for i in cycle
                                  if gates[i].kind != GateKind.ZZPHASE)
    return cost


def _ungrouped_cost(groups, n):
    """The cheapest cost of the gates one by one with logical qubit q in bit
    (q + offset) % n, the offset free to change before any gate at _ROTATE_COST."""
    weight = [simulator._group_cost(b, 1) for b in range(n)]
    cost = [0.0] * n
    for group in groups:
        for gate in group:
            if gate.kind != GateKind.ZZPHASE:
                move = min(cost) + simulator._ROTATE_COST
                cost = [min(c, move) + weight[(gate.qubits[0] + o) % n]
                        for o, c in enumerate(cost)]
    return min(cost)


def test_layout_plan():
    # at every n the starting layout is a permutation of the bits and every RX and H
    # runs once, in groups on adjacent bits with a product form. On the pipeline's
    # circuits the grouped plan never costs more than the gates one by one in a
    # rotating layout, except at n = 6: there a cycle with RX or H on five or six
    # qubits has to put one on bit 4 or 5, which only one gate's long form takes, at
    # the highest weights, while the reference rotates before each gate
    for n in range(1, 17):
        gates = ([Gate(GateKind.H, (q,)) for q in range(n)]
                 + [Gate(GateKind.RX, (q,), 0.3) for q in range(0, n, 2)]
                 + [Gate(GateKind.RX, (q,), 0.3) for q in range(n - 1, -1, -3)])
        cut = (n, n + len(range(0, n, 2)), len(gates))
        cycles = [list(range(lo, hi)) for lo, hi in zip((0,) + cut, cut)]
        plan = simulator._layout_plan(cycles, _structure(LogicalCircuit(n, tuple(gates))), n)
        assert sorted(plan[0]) == list(range(n))
        _plan_cost(plan, cycles, gates, n)
    params = QaoaParams((0.3,) * 4, (0.7,) * 4)
    saved = []
    for n in range(4, 17, 2):
        for seed in range(10):
            c = build_qaoa_circuit(gen_random_3regular(n, seed), params)
            s = schedule(c, choose_grid(n), seed)
            cycles = simulator.cycle_positions(s)
            plan = simulator._layout_plan(cycles, _structure(c), n)
            assert sorted(plan[0]) == list(range(n))
            cost = _plan_cost(plan, cycles, c.gates, n)
            if n == 6:
                continue
            ungrouped = _ungrouped_cost(cycle_gate_groups(s, c), n)
            assert cost <= ungrouped
            saved.append(cost / ungrouped)
    assert max(saved) < 0.9


def test_relabel_is_a_permutation():
    # also where no two qubits share a cycle, and for one qubit
    for n in range(1, 5):
        for cycles in ([], [[q] for q in range(n)], [list(range(n))], [[n - 1, 0]]):
            assert sorted(simulator._relabel(cycles, n)) == list(range(n))


def test_keep_states_in_logical_order():
    # a relabelled, grouped noiseless run returns each state with qubit q in bit q; its
    # circuit opens with RX gates in place of the H layer, so nothing is hoisted: the
    # replay starts from |0...0> and runs them in the table
    g = gen_random_3regular(12, 5)
    c = build_qaoa_circuit(g, QaoaParams((0.9, 0.2), (0.3, 1.0)))
    c = LogicalCircuit(12, tuple(Gate(GateKind.RX, (q,), 0.1 * (q + 1)) for q in range(12))
                       + c.gates[12:])
    grid = choose_grid(12)
    s = schedule(c, grid, 11)
    assert validate_schedule(s, c, grid) == [] and s.n_prep_gates == 0
    bits, _ = simulator._replay_plan(s, _structure(c), 12)
    assert list(bits) != list(range(12))
    ens = run_noisy_ensemble(s, c, NoiseParams.noiseless(), 3, 0, keep_states=True)
    expected = logical_state(c)
    for state in ens.states:
        assert np.max(np.abs(state - expected)) < 1e-12


def test_replay_rejects_a_hoisted_prefix_other_than_the_h_layer():
    # the replay starts from |+...+> or |0...0>, so the RX circuit on the H
    # circuit's schedule, which hoists its first 12 gates, is refused
    g = gen_random_3regular(12, 5)
    s, c = _scheduled(g, QaoaParams((0.9, 0.2), (0.3, 1.0)))
    assert s.n_prep_gates == 12
    c = LogicalCircuit(12, tuple(Gate(GateKind.RX, (q,), 0.1 * (q + 1)) for q in range(12))
                       + c.gates[12:])
    with pytest.raises(ValueError, match="^schedule hoists 12 gates, not 0 or the opening "
                                         "H layer$"):
        run_noisy_ensemble(s, c, NoiseParams.noiseless(), 3, 0)


def test_plan_memo_keys_on_the_gate_structure(monkeypatch):
    # one plan per schedule and gate structure: the circuit at other angles reuses
    # it, and a circuit with an H in place of an RX, or a ZZPhase's operands
    # swapped, on the same schedule gets a plan of its own, which replays it right
    g = gen_random_3regular(8, 3)
    s, c = _scheduled(g, QaoaParams((0.9, 0.2), (0.3, 1.0)))
    rx = next(i for i, gate in enumerate(c.gates) if gate.kind == GateKind.RX)
    zz = next(i for i, gate in enumerate(c.gates) if gate.kind == GateKind.ZZPHASE)
    swapped = Gate(GateKind.ZZPHASE, c.gates[zz].qubits[::-1], c.gates[zz].angle)
    other_kind = LogicalCircuit(8, c.gates[:rx] + (Gate(GateKind.H, c.gates[rx].qubits),)
                                + c.gates[rx + 1:])
    other_qubits = LogicalCircuit(8, c.gates[:zz] + (swapped,) + c.gates[zz + 1:])
    simulator._replay_plan.cache_clear()
    layout_plan, calls = simulator._layout_plan, []

    def counting(*args):
        calls.append(args)
        return layout_plan(*args)

    monkeypatch.setattr(simulator, "_layout_plan", counting)
    noise = NoiseParams.from_t2_ratio(20.0)
    for circuit in (c, build_qaoa_circuit(g, QaoaParams((0.4, 1.3), (0.8, 0.1))),
                    other_kind, other_qubits, c):
        ens = run_noisy_ensemble(s, circuit, noise, 6, 2, keep_states=True)
        ref, _ = per_qubit_trajectories(s, circuit, noise, 6, 2)
        assert np.max(np.abs(ens.states - ref)) < 1e-12
    assert len(calls) == 3
    assert [args[1] for args in calls] == [_structure(c), _structure(other_kind),
                                            _structure(other_qubits)]


def test_plan_memo_keeps_outputs_bitwise(app_b_graph):
    # two angle sets on one schedule, each replayed with an empty memo and then
    # one after the other on the memo's plan, give the same bits
    s, a = _scheduled(app_b_graph, QaoaParams((0.9, 0.2), (0.3, 1.0)))
    b = build_qaoa_circuit(app_b_graph, QaoaParams((0.4, 1.3), (0.8, 0.1)))
    cut, noise = cut_values_table(app_b_graph), NoiseParams.from_t2_ratio(20.0)
    cold = []
    for c in (a, b):
        simulator._replay_plan.cache_clear()
        cold.append(run_noisy_ensemble(s, c, noise, 16, 4, cut_table=cut, keep_states=True))
    simulator._replay_plan.cache_clear()
    for c, want in zip((a, b), cold):
        got = run_noisy_ensemble(s, c, noise, 16, 4, cut_table=cut, keep_states=True)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.mean_probs, want.mean_probs)
        assert np.array_equal(got.per_cut, want.per_cut)
    assert simulator._replay_plan.cache_info().hits == 1


def test_flushes_do_not_depend_on_the_draws(app_b_graph, monkeypatch):
    # the exact step needs no flush, so the circuit alone decides when the shared
    # phase is applied
    s, c = _scheduled(app_b_graph, QaoaParams((0.9, 0.2), (0.3, 1.0)))
    flush, counts = simulator._PendingPhase.flush, []

    def counting(self, states):
        counts[-1] += 1
        flush(self, states)

    monkeypatch.setattr(simulator._PendingPhase, "flush", counting)
    runs = []
    for noise in (NoiseParams.from_t2_ratio(20.0), NoiseParams.noiseless()):
        counts.append(0)
        runs.append(run_noisy_ensemble(s, c, noise, 24, 5))
    assert runs[0].n_candidates > 0
    assert counts[0] == counts[1] > 0


def test_candidate_and_jump_counts(app_b_graph):
    s, c = _scheduled(app_b_graph, QaoaParams((0.9, 0.2), (0.3, 1.0)))
    n_real, seed = 40, 8
    noise = NoiseParams.from_t2_ratio(20.0)
    ens = run_noisy_ensemble(s, c, noise, n_real, seed)
    us = _uniform_draws(noise, n_real, seed, s.n_cycles, c.n_qubits)
    assert ens.n_candidates == int(np.count_nonzero(us < noise.damping_prob(noise.t_gate)))
    assert 0 < ens.n_jumps <= ens.n_candidates
    quiet = run_noisy_ensemble(s, c, NoiseParams.noiseless(), n_real, seed)
    assert quiet.n_candidates == quiet.n_jumps == 0


# Frozen outputs of one fixed-seed ensemble: the per-realization RNG stream
# contract and the kernels' rounding must not drift across refactors. At
# T2/T_G = 20 many rows take the damping jump branch. At T2 = 2 T1 the
# dephasing variance is zero, so no Gaussian block is drawn and the uniform
# block starts each realization's stream. The values were recorded from the
# per-qubit cycle loop with each row normalised once at the end.
FROZEN_ENSEMBLES = (
    (DEFAULT_NOISE,
     (0.000317833191537742, 0.0028047610180802853, 0.002823848966318504,
      0.00022479567407671813, 0.0027997355216141306, 0.0053343625207773115,
      0.0002848556740560092, 0.0020619394966974154),
     218.01675466520652),
    (NoiseParams.from_t2_ratio(20.0),
     (0.007313411733979957, 0.005207376308526119, 0.0068266962488906565,
      0.005442968327452358, 0.00937391083557946, 0.004364011185797983,
      0.006438142272996348, 0.0035292978721631336),
     191.42745833597348),
    (NoiseParams(t1=1.0, t2=2.0, t_gate=0.01),
     (0.005247433804696825, 0.0030346198433388615, 0.002835736707286057,
      0.002827752788024757, 0.004556134873185916, 0.004164076887231693,
      0.0028334928288831535, 0.0034467491753710664),
     208.26918876881274),
)


@pytest.mark.parametrize("noise,head,cut_sum", FROZEN_ENSEMBLES,
                         ids=["paper", "t2r20", "t2eq2t1"])
def test_ensemble_outputs_frozen(app_b_graph, noise, head, cut_sum):
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))
    s, c = _scheduled(app_b_graph, params)
    assert s.n_cycles == 30
    ens = run_noisy_ensemble(s, c, noise, 32, 2024, cut_table=cut_values_table(app_b_graph))
    assert np.max(np.abs(ens.mean_probs[:8] - np.array(head))) < 1e-12
    assert abs(ens.per_cut.sum() - cut_sum) < 1e-12


def test_ancilla_sites_do_not_change_observables():
    # 2 logical qubits routed through a third site: simulating only the
    # logical register (SWAP = relabeling) must agree with simulating all
    # M sites with real SWAPs and noise on every site.
    edge = Graph(2, ((0, 1),))
    params = QaoaParams((math.pi / 2,), (3 * math.pi / 8,))   # noiseless cut = 1
    c = build_qaoa_circuit(edge, params)
    grid = GridTopology(1, 3)
    table = ((-1, -1, 0), (0, 1, 1), (0, 2, 3))
    s = Schedule(grid, (0, -1, 1), table, n_prep_gates=2)
    assert validate_schedule(s, c, grid) == []

    noise = NoiseParams.from_t2_ratio(10.0)
    cut_table = cut_values_table(edge)
    R = 20_000
    ens = run_noisy_ensemble(s, c, noise, R, 11, cut_table=cut_table)
    mean_n = ens.per_cut.mean()
    sem_n = ens.per_cut.std(ddof=1) / math.sqrt(R)

    mean_m, sem_m = _all_sites_noisy_cut(s, c, noise, R, master_seed=77)
    assert abs(mean_n - mean_m) < 4 * math.sqrt(sem_n ** 2 + sem_m ** 2)
    # and the noise must actually matter for this to test anything
    noiseless = run_noisy_ensemble(s, c, NoiseParams.noiseless(), 1, 0,
                                   cut_table=cut_table)
    assert abs(noiseless.per_cut[0] - mean_n) > 0.05


def _all_sites_noisy_cut(s, c, noise, n_realizations, master_seed):
    """Oracle: simulate every grid site, SWAPs as unitaries, noise on all sites."""
    m = s.grid.n_sites
    p_damp = noise.damping_prob(noise.t_gate)
    sigma = math.sqrt(noise.dephasing_var(noise.t_gate))
    n_cycles = s.n_cycles

    prep = init_zero_state(m)
    l2p = {q: site for site, q in enumerate(s.placement) if q != -1}
    for gate in c.gates[: s.n_prep_gates]:
        apply_gate(prep, m, Gate(gate.kind, tuple(l2p[q] for q in gate.qubits), gate.angle))
    states = np.tile(prep, (n_realizations, 1))

    eps = np.empty((n_realizations, n_cycles, m))
    us = np.empty((n_realizations, n_cycles, m))
    for r in range(n_realizations):
        rng = np.random.default_rng([master_seed, r])
        eps[r] = sigma * rng.standard_normal((n_cycles, m))
        us[r] = rng.random((n_cycles, m))

    p2l = list(s.placement)
    for cy, row in enumerate(s.table):
        groups: dict[int, list[int]] = {}
        for site, entry in enumerate(row):
            if entry != 0:
                groups.setdefault(entry, []).append(site)
        for entry, sites in groups.items():
            if entry > 0:
                gate = c.gates[s.n_prep_gates + entry - 1]
                apply_gate(states, m, Gate(gate.kind, tuple(sites), gate.angle))
            else:
                apply_swap(states, m, *sites)
                p2l[sites[0]], p2l[sites[1]] = p2l[sites[1]], p2l[sites[0]]
        for q in range(m):
            _cycle_noise_qubit(states, m, q, eps[:, cy, q], us[:, cy, q], p_damp)

    l2p_final = [-1] * c.n_qubits
    for site, q in enumerate(p2l):
        if q != -1:
            l2p_final[q] = site
    z = np.arange(1 << m)
    site_cut = (((z >> l2p_final[0]) ^ (z >> l2p_final[1])) & 1).astype(float)
    per_cut = probabilities(states) @ site_cut
    return per_cut.mean(), per_cut.std(ddof=1) / math.sqrt(n_realizations)


# ---------------------------------------------------------------------------
# measurement and overlap
# ---------------------------------------------------------------------------

def test_measure_samples_basis_state():
    state = init_zero_state(3)
    samples = sample_from_probs(probabilities(state), 100, np.random.default_rng(0))
    assert np.all(samples == 0)


def test_measure_samples_plus_state_counts():
    samples = sample_from_probs(probabilities(plus_state(1)), 10_000,
                                np.random.default_rng(1))
    zeros = int(np.sum(samples == 0))
    assert abs(zeros - 5000) < 4 * 50          # binomial sigma = 50


def test_sampled_cut_matches_exact(k3):
    params = QaoaParams((0.9,), (0.6,))
    state = logical_state(build_qaoa_circuit(k3, params))
    table = cut_values_table(k3)
    exact = float(probabilities(state) @ table)
    samples = sample_from_probs(probabilities(state), 10_000, np.random.default_rng(2))
    cuts = table[samples]
    sem = cuts.std(ddof=1) / math.sqrt(len(cuts))
    assert abs(cuts.mean() - exact) < 4 * sem


def test_overlap_with_optima(k4):
    k_max, optima = brute_force_maxcut(k4)
    mask = optima_mask(optima, 4)
    assert mask.sum() == len(optima)
    assert probabilities(plus_state(4))[mask].sum() == pytest.approx(6 / 16)
    one = np.zeros(16, complex)
    one[optima[0]] = 1.0
    assert probabilities(one)[mask].sum() == pytest.approx(1.0)
    state = _random_state(4, 8)
    assert 0.0 <= probabilities(state)[mask].sum() <= 1.0
