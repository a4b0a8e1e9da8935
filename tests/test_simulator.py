import math

import numpy as np
import pytest

from qaoabench.circuit import Gate, GateKind, QaoaParams, build_qaoa_circuit
from qaoabench.graphs import Graph, brute_force_maxcut, cut_values_table
from qaoabench.scheduler import GridTopology, Schedule, choose_grid, schedule, validate_schedule
from qaoabench.simulator import (NoiseParams, _cycle_noise_qubit, apply_gate,
                                 init_plus_state, init_zero_state, optima_mask,
                                 probabilities, run_noisy_ensemble, sample_from_probs,
                                 simulate_logical)

from oracles import (dense_qaoa_state, density_matrix_oracle, gate_unitary,
                     simulate_schedule_physical, trace_distance)

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
    np_ok = NoiseParams.from_t2_ratio(10000.0)
    assert np_ok.t1 == 2.0 * np_ok.t2
    assert NoiseParams.noiseless().is_noiseless


def test_init_states():
    assert np.allclose(init_plus_state(1), [1 / math.sqrt(2)] * 2)
    assert np.allclose(init_plus_state(2), [0.5] * 4)
    for n in (1, 3, 6):
        assert math.isclose(np.linalg.norm(init_plus_state(n)), 1.0)


def test_h_involution():
    state = _random_state(4, 1)
    out = state.copy()
    for _ in range(2):
        apply_gate(out, 4, Gate(GateKind.H, (2,)))
    assert np.max(np.abs(out - state)) < 1e-12


def test_zzphase_diagonal_action():
    s = init_zero_state(2)
    apply_gate(s, 2, Gate(GateKind.ZZPHASE, (0, 1), 0.7))
    assert np.allclose(s[0], np.exp(-0.35j))
    s = np.zeros(4, complex)
    s[1] = 1.0                                       # |01>: qubit 0 set
    apply_gate(s, 2, Gate(GateKind.ZZPHASE, (0, 1), 0.7))
    assert np.allclose(s[1], np.exp(+0.35j))


def test_gates_match_dense_unitaries():
    rng = np.random.default_rng(7)
    n = 3
    for gate in (Gate(GateKind.H, (1,)),
                 Gate(GateKind.RX, (2,), 0.83),
                 Gate(GateKind.ZZPHASE, (0, 2), 1.91),
                 Gate(GateKind.SWAP, (0, 1))):
        state = _random_state(n, rng.integers(1 << 30))
        expected = gate_unitary(gate, n) @ state
        got = state.copy()
        apply_gate(got, n, gate)
        assert np.max(np.abs(got - expected)) < 1e-12, gate


def test_qaoa_states_match_dense_oracle(k3, k4):
    rng = np.random.default_rng(0)
    for g in (k3, k4):
        for p in (1, 2):
            params = QaoaParams(tuple(rng.uniform(0, 2 * np.pi, p)),
                                tuple(rng.uniform(0, np.pi, p)))
            ours = simulate_logical(build_qaoa_circuit(g, params))
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
    ens = run_noisy_ensemble(s, c, NoiseParams.noiseless(), 1, 0, keep_states=True)
    assert np.max(np.abs(ens.states[0] - simulate_logical(c))) < 1e-10


def test_physical_oracle_confirms_swap_tracking(app_b_graph):
    # all 9 grid sites simulated with real SWAP unitaries vs N-qubit path
    params = QaoaParams((0.9, 0.2, 1.4, 0.8), (0.3, 1.0, 0.5, 0.7))
    s, c = _scheduled(app_b_graph, params)
    fid = abs(np.vdot(simulate_schedule_physical(s, c), simulate_logical(c))) ** 2
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
    psi = simulate_logical(c)
    assert trace_distance(rho_oracle, np.outer(psi, psi.conj())) > 0.05


def test_ensemble_bitwise_deterministic(app_b_graph):
    params = QaoaParams((0.7,), (0.4,))
    s, c = _scheduled(app_b_graph, params)
    a = run_noisy_ensemble(s, c, DEFAULT_NOISE, 96, 5)
    b = run_noisy_ensemble(s, c, DEFAULT_NOISE, 96, 5)
    assert np.array_equal(a.mean_probs, b.mean_probs)


def test_realization_streams_independent_of_chunking(app_b_graph):
    params = QaoaParams((0.7,), (0.4,))
    s, c = _scheduled(app_b_graph, params)
    a = run_noisy_ensemble(s, c, DEFAULT_NOISE, 50, 5, chunk_size=7, keep_states=True)
    b = run_noisy_ensemble(s, c, DEFAULT_NOISE, 50, 5, chunk_size=50, keep_states=True)
    assert np.array_equal(a.states, b.states)


# Frozen outputs of one fixed-seed ensemble: the per-realization RNG stream
# contract and the kernels' rounding must not drift across refactors. At
# T2/T_G = 20 many rows take the damping jump branch. At T2 = 2 T1 the
# dephasing variance is zero, so no Gaussian block is drawn and the uniform
# block starts each realization's stream.
FROZEN_ENSEMBLES = (
    (DEFAULT_NOISE,
     (0.0003178331915377445, 0.0028047610180803066, 0.0028238489663185255,
      0.00022479567407671992, 0.0027997355216141523, 0.005334362520777352,
      0.0002848556740560114, 0.002061939496697432),
     218.0167546652082),
    (NoiseParams.from_t2_ratio(20.0),
     (0.007313411733979993, 0.00520737630852614, 0.006826696248890675,
      0.005442968327452382, 0.00937391083557949, 0.0043640111857979995,
      0.0064381422729963686, 0.0035292978721631523),
     191.42745833597436),
    (NoiseParams(t1=1.0, t2=2.0, t_gate=0.01),
     (0.005247433804696845, 0.0030346198433388663, 0.002835736707286061,
      0.002827752788024762, 0.004556134873185919, 0.00416407688723169,
      0.002833492828883158, 0.0034467491753710712),
     208.26918876881288),
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
                apply_gate(states, m, Gate(GateKind.SWAP, tuple(sites)))
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
    samples = sample_from_probs(probabilities(init_plus_state(1)), 10_000,
                                np.random.default_rng(1))
    zeros = int(np.sum(samples == 0))
    assert abs(zeros - 5000) < 4 * 50          # binomial sigma = 50


def test_sampled_cut_matches_exact(k3):
    params = QaoaParams((0.9,), (0.6,))
    state = simulate_logical(build_qaoa_circuit(k3, params))
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
    assert probabilities(init_plus_state(4))[mask].sum() == pytest.approx(6 / 16)
    one = np.zeros(16, complex)
    one[optima[0].to_int()] = 1.0
    assert probabilities(one)[mask].sum() == pytest.approx(1.0)
    state = _random_state(4, 8)
    assert 0.0 <= probabilities(state)[mask].sum() <= 1.0
