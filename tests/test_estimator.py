import math

import numpy as np
import pytest

from qaoabench.circuit import QaoaParams, build_qaoa_circuit
from qaoabench.graphs import brute_force_maxcut, cut_values_table
from qaoabench.optimizer import estimate_cut
from qaoabench.scheduler import choose_grid, schedule
from qaoabench.simulator import NoiseParams, probabilities, run_noisy_ensemble, sample_from_probs

from oracles import cut_of_code, dense_qaoa_state, logical_state, op_on, plus_state, Z


def test_constant_samples(k3):
    code = 0b010
    samples = np.full(50, code)
    assert estimate_cut(samples, cut_values_table(k3)) == cut_of_code(k3, code) == 2


def test_uniform_enumeration_mean(k3):
    samples = np.arange(8)                      # each basis state once
    assert estimate_cut(samples, cut_values_table(k3)) == pytest.approx(12 / 8)


def test_sampled_converges_to_exact(k3):
    params = QaoaParams((1.1,), (0.4,))
    table = cut_values_table(k3)
    probs = probabilities(logical_state(build_qaoa_circuit(k3, params)))
    exact = float(probs @ table)
    for n, seed in ((10_000, 0), (100_000, 1)):
        samples = sample_from_probs(probs, n, np.random.default_rng(seed))
        sem = table[samples].std(ddof=1) / math.sqrt(n)
        assert abs(estimate_cut(samples, table) - exact) < 4 * max(sem, 1e-9)


def test_exact_expectation_plus_state(k3, k4):
    assert probabilities(plus_state(3)) @ cut_values_table(k3) == pytest.approx(1.5)
    assert probabilities(plus_state(4)) @ cut_values_table(k4) == pytest.approx(3.0)


def test_exact_expectation_basis_state(k4):
    code = 0b0110
    state = np.zeros(16, complex)
    state[code] = 1.0
    assert probabilities(state) @ cut_values_table(k4) == pytest.approx(cut_of_code(k4, code))


def test_exact_expectation_matches_zz_formula(k3):
    # independent route: <cut> = sum over edges (1 - <Z_i Z_j>)/2 on the
    # dense-oracle state
    params = QaoaParams((0.9,), (0.35,))
    state = dense_qaoa_state(k3, params)
    total = 0.0
    for (i, j) in k3.edges:
        zz = op_on(Z, i, 3) @ op_on(Z, j, 3)
        total += (1.0 - (state.conj() @ (zz @ state)).real) / 2.0
    # the package's route: the noiseless scheduled replay's exact expected cut
    c = build_qaoa_circuit(k3, params)
    ens = run_noisy_ensemble(schedule(c, choose_grid(3), 0), c, NoiseParams.noiseless(), 1, 0,
                             cut_table=cut_values_table(k3))
    assert abs(ens.per_cut[0] - total) < 1e-10


def test_approximation_ratio(k3):
    # exact <cut> / k_max, as the solver scores its final state
    k_max, optima = brute_force_maxcut(k3)
    table = cut_values_table(k3)
    state = np.zeros(8, complex)
    state[optima[0]] = 1.0
    assert probabilities(state) @ table / k_max == pytest.approx(1.0)
    assert probabilities(plus_state(3)) @ table / k_max == pytest.approx(0.75)


def test_estimate_rejects_empty(k3):
    with pytest.raises(ValueError):
        estimate_cut(np.array([], dtype=np.int64), cut_values_table(k3))


def _distributions():
    """Unnormalized probabilities: dense and with zero-probability states (the first
    and last among them) at several N, a point mass, and one state."""
    rng = np.random.default_rng(11)
    out = []
    for n in (4, 8, 12):
        dense = rng.random(1 << n) ** 4
        sparse = np.where(rng.random(1 << n) < 0.5, 0.0, dense)
        sparse[[0, -1]] = 0.0
        out += [pytest.param(dense, id=f"n{n}-dense"), pytest.param(sparse, id=f"n{n}-zeros")]
    point = np.zeros(1 << 6)
    point[37] = 2.5
    return out + [pytest.param(point, id="point-mass"),
                  pytest.param(np.array([0.3]), id="one-state")]


@pytest.mark.parametrize("probs", _distributions())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampler_draws_what_choice_draws(probs, seed):
    # the same multiset as Generator.choice, sorted; the same cut estimate bit for
    # bit on an integer table (integer sums are exact); the same generator state after
    table = np.random.default_rng(seed).integers(0, 20, len(probs)).astype(np.uint16)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    samples = sample_from_probs(probs, 10_000, ours)
    want = theirs.choice(len(probs), 10_000, p=probs / probs.sum()).astype(np.uint32)
    assert samples.dtype == np.uint32
    assert np.array_equal(samples, np.sort(want))
    assert estimate_cut(samples, table) == estimate_cut(want, table)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("probs", [np.array([0.5, -0.1, 0.6]), np.array([0.5, np.nan]),
                                   np.zeros(4), np.array([np.inf, 1.0])],
                         ids=["negative", "nan", "zero-sum", "inf"])
def test_sampler_rejects_what_choice_rejects(probs):
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(probs), 10, p=probs / probs.sum())
    with pytest.raises(ValueError, match="probabilities"):
        sample_from_probs(probs, 10, np.random.default_rng(0))


def test_sampler_rejects_a_negative_sum():
    # dividing by the sum would turn these into [1, -0.0], which choice accepts
    with pytest.raises(ValueError, match="positive finite sum"):
        sample_from_probs(np.array([-1.0, 0.0]), 10, np.random.default_rng(0))
