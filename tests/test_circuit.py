import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qaoabench.circuit import (Gate, GateKind, LogicalCircuit, QaoaParams,
                               build_qaoa_circuit, run_predecessors)
from qaoabench.graphs import Graph, gen_random_3regular
from oracles import _gates_commute, dependency_edges, logical_depth, logical_state, plus_state


def test_params_validation():
    with pytest.raises(ValueError):
        QaoaParams((), ())
    with pytest.raises(ValueError):
        QaoaParams((0.1, 0.2), (0.3,))
    with pytest.raises(ValueError):
        QaoaParams((float("nan"),), (0.0,))
    p = QaoaParams.from_vector([0.1, 0.2, 0.3, 0.4])
    assert p.gammas == (0.1, 0.2) and p.betas == (0.3, 0.4)
    assert QaoaParams.from_vector(list(p.gammas) + list(p.betas)) == p


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.ZZPHASE, (2, 2), 0.1)
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (0,), float("inf"))


def test_first_cost_gate_matches_published_order(app_b_graph):
    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.7,), (0.2,)))
    first = c.gates[8]
    assert first.kind == GateKind.ZZPHASE
    assert first.qubits == (7, 6)
    assert first.angle == 0.7


def test_gate_count_formula(app_b_graph):
    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * 4, (0.2,) * 4))
    assert len(c.gates) == 8 + 4 * (12 + 8)
    for n, p, seed in ((6, 1, 0), (8, 3, 1), (10, 2, 2)):
        g = gen_random_3regular(n, seed)
        c = build_qaoa_circuit(g, QaoaParams((0.1,) * p, (0.2,) * p))
        assert len(c.gates) == n + p * (g.n_edges + n)


def test_zero_angles_act_as_h_layer_only(k3):
    c = build_qaoa_circuit(k3, QaoaParams((0.0,), (0.0,)))
    state = logical_state(c)
    assert np.allclose(state, plus_state(3), atol=1e-12)


def test_prep_layer_detection(k3):
    c = build_qaoa_circuit(k3, QaoaParams((0.1,), (0.2,)))
    assert c.prep_layer_size() == 3
    no_prep = LogicalCircuit(2, (Gate(GateKind.RX, (0,), 0.3),))
    assert no_prep.prep_layer_size() == 0


def test_logical_depth_examples(app_b_graph):
    h_layer = LogicalCircuit(4, tuple(Gate(GateKind.H, (q,)) for q in range(4)))
    assert logical_depth(h_layer) == 1

    edge = Graph(2, ((0, 1),))
    c = build_qaoa_circuit(edge, QaoaParams((0.1,), (0.2,)))
    assert logical_depth(c) == 3                  # H, ZZ, RX

    c4 = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * 4, (0.2,) * 4))
    assert logical_depth(c4) == 27                # frozen; <= published 31 rows
    assert logical_depth(c4) <= 31


def test_logical_depth_affine_in_p(app_b_graph):
    depths = []
    for p in range(1, 5):
        c = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * p, (0.2,) * p))
        depths.append(logical_depth(c))
    increments = {b - a for a, b in zip(depths, depths[1:])}
    assert len(increments) == 1


def test_zzphase_symmetric_in_operands(k3):
    a = LogicalCircuit(3, (Gate(GateKind.ZZPHASE, (0, 2), 0.8),))
    b = LogicalCircuit(3, (Gate(GateKind.ZZPHASE, (2, 0), 0.8),))
    rng = np.random.default_rng(3)
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state /= np.linalg.norm(state)
    assert np.allclose(logical_state(a, state), logical_state(b, state), atol=1e-14)


def test_commutation_rules():
    zz_a = Gate(GateKind.ZZPHASE, (0, 1), 0.1)
    zz_b = Gate(GateKind.ZZPHASE, (1, 2), 0.2)
    rx = Gate(GateKind.RX, (1,), 0.3)
    h = Gate(GateKind.H, (5,))
    assert _gates_commute(zz_a, zz_b)             # shared qubit, both diagonal
    assert not _gates_commute(zz_a, rx)
    assert _gates_commute(rx, Gate(GateKind.RX, (1,), 0.9))
    assert _gates_commute(zz_a, h)                # disjoint support


def _gate(kind: GateKind, a: int, b: int) -> Gate:
    return Gate(kind, (a, b) if kind == GateKind.ZZPHASE else (a,), 0.1)


# derandomized: any order of the three kinds, not only the QAOA layering
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), specs=st.lists(
    st.tuples(st.sampled_from(list(GateKind)), st.integers(0, 4), st.integers(1, 4)),
    max_size=24))
@example(n=2, specs=[(GateKind.RX, 0, 1), (GateKind.H, 0, 1),           # H after RX
                     (GateKind.ZZPHASE, 0, 1), (GateKind.ZZPHASE, 1, 3)])  # ZZ twice on 0-1
def test_dependency_edges_equal_all_pairs_commute_rule(n, specs):
    gates = tuple(_gate(kind, a % n, (a + b) % n) for kind, a, b in specs
                  if kind != GateKind.ZZPHASE or b % n)
    c = LogicalCircuit(n, gates)
    expected = [(a, b) for a in range(len(gates)) for b in range(a + 1, len(gates))
                if not _gates_commute(gates[a], gates[b])]
    assert dependency_edges(c) == expected


def _closure(n_gates: int, preds: list[list[int]]) -> set[tuple[int, int]]:
    """Every pair (a, b) with a path a -> ... -> b; each predecessor precedes its gate."""
    ancestors: list[set[int]] = []
    for b in range(n_gates):
        ancestors.append(set().union(*({a} | ancestors[a] for a in preds[b])))
    return {(a, b) for b in range(n_gates) for a in ancestors[b]}


# derandomized: the gate lists of the all-pairs test above
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), specs=st.lists(
    st.tuples(st.sampled_from(list(GateKind)), st.integers(0, 4), st.integers(1, 4)),
    max_size=24))
@example(n=2, specs=[(GateKind.RX, 0, 1), (GateKind.H, 0, 1),
                     (GateKind.ZZPHASE, 0, 1), (GateKind.ZZPHASE, 1, 3)])
def test_run_predecessors_span_dependency_edges(n, specs):
    gates = tuple(_gate(kind, a % n, (a + b) % n) for kind, a, b in specs
                  if kind != GateKind.ZZPHASE or b % n)
    c = LogicalCircuit(n, gates)
    preds = run_predecessors(c)
    edges = dependency_edges(c)
    assert {(a, b) for b, p in enumerate(preds) for a in p} <= set(edges)
    edge_preds: list[list[int]] = [[] for _ in gates]
    for a, b in edges:
        edge_preds[b].append(a)
    assert _closure(len(gates), preds) == _closure(len(gates), edge_preds)


def test_dependency_edges_respect_layers(k3):
    c = build_qaoa_circuit(k3, QaoaParams((0.1, 0.3), (0.2, 0.4)))
    deps = set(dependency_edges(c))
    # H on qubit 0 blocks the first ZZ touching qubit 0 (gate index 3)
    assert (0, 3) in deps
    # layer-1 ZZ gates commute pairwise: no deps among indices 3..5
    assert not any(a in (3, 4, 5) and b in (3, 4, 5) for a, b in deps)
    # mixer on qubit 0 (index 6) depends on both cost gates touching qubit 0
    assert (3, 6) in deps and (5, 6) in deps
