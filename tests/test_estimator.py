import numpy as np
import pytest

from qaoabench.circuit import QaoaParams, build_qaoa_circuit
from qaoabench.estimator import approximation_ratio, estimate_cut, exact_cut_expectation
from qaoabench.graphs import CutAssignment, brute_force_maxcut, cut_value
from qaoabench.simulator import (init_plus_state, probabilities, sample_from_probs,
                                 simulate_logical)

from oracles import dense_qaoa_state, op_on, Z


def test_constant_samples(k3):
    a = CutAssignment((0, 1, 0))
    samples = np.full(50, a.to_int())
    est = estimate_cut(samples, k3)
    assert est.mean_cut == cut_value(k3, a) == 2
    assert est.std_error == 0.0
    assert est.n_samples == 50


def test_uniform_enumeration_mean(k3):
    samples = np.arange(8)                      # each basis state once
    est = estimate_cut(samples, k3)
    assert est.mean_cut == pytest.approx(12 / 8)


def test_sampled_converges_to_exact(k3):
    params = QaoaParams((1.1,), (0.4,))
    state = simulate_logical(build_qaoa_circuit(k3, params))
    exact = exact_cut_expectation(state, k3)
    for n, seed in ((10_000, 0), (100_000, 1)):
        samples = sample_from_probs(probabilities(state), n, np.random.default_rng(seed))
        est = estimate_cut(samples, k3)
        assert abs(est.mean_cut - exact) < 4 * max(est.std_error, 1e-9)


def test_exact_expectation_plus_state(k3, k4):
    assert exact_cut_expectation(init_plus_state(3), k3) == pytest.approx(1.5)
    assert exact_cut_expectation(init_plus_state(4), k4) == pytest.approx(3.0)


def test_exact_expectation_basis_state(k4):
    a = CutAssignment((0, 1, 1, 0))
    state = np.zeros(16, complex)
    state[a.to_int()] = 1.0
    assert exact_cut_expectation(state, k4) == pytest.approx(cut_value(k4, a))


def test_exact_expectation_matches_zz_formula(k3):
    # independent route: <cut> = sum over edges (1 - <Z_i Z_j>)/2 on the
    # dense-oracle state
    params = QaoaParams((0.9,), (0.35,))
    state = dense_qaoa_state(k3, params)
    total = 0.0
    for (i, j) in k3.edges:
        zz = op_on(Z, i, 3) @ op_on(Z, j, 3)
        total += (1.0 - (state.conj() @ (zz @ state)).real) / 2.0
    ours = exact_cut_expectation(simulate_logical(build_qaoa_circuit(k3, params)), k3)
    assert abs(ours - total) < 1e-10


def test_approximation_ratio(k3):
    k_max, optima = brute_force_maxcut(k3)
    state = np.zeros(8, complex)
    state[optima[0].to_int()] = 1.0
    assert approximation_ratio(exact_cut_expectation(state, k3), k3) == pytest.approx(1.0)
    assert approximation_ratio(exact_cut_expectation(init_plus_state(3), k3), k3) \
        == pytest.approx(0.75)


def test_estimate_rejects_empty(k3):
    with pytest.raises(ValueError):
        estimate_cut(np.array([], dtype=np.int64), k3)
