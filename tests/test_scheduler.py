import pytest

from qaoabench.circuit import Gate, GateKind, LogicalCircuit, QaoaParams, build_qaoa_circuit, logical_depth
from qaoabench.graphs import gen_random_3regular
from qaoabench.scheduler import (GridTopology, Schedule, choose_grid, emit_pdpt,
                                 parse_pdpt, schedule, schedule_from_json,
                                 schedule_to_json, validate_schedule)

from conftest import APP_B_PDPT, PUBLISHED_DEPTH


def _swap_count(s: Schedule) -> int:
    return sum(1 for row in s.table for e in row if e < 0) // 2


def test_choose_grid():
    assert choose_grid(8) == GridTopology(3, 3)
    assert choose_grid(9) == GridTopology(3, 3)
    assert choose_grid(10) == GridTopology(4, 4)
    assert choose_grid(1) == GridTopology(1, 1)


def test_grid_adjacency():
    t = GridTopology(3, 3)
    assert t.adjacent(0, 1) and t.adjacent(0, 3)
    assert not t.adjacent(0, 4) and not t.adjacent(2, 3)
    assert t.distance(0, 8) == 4


def test_single_qubit_only_circuit_needs_no_swaps():
    gates = tuple(Gate(GateKind.RX, (q,), 0.1 * (q + 1)) for q in range(4)) \
        + tuple(Gate(GateKind.H, (q,)) for q in range(4))
    c = LogicalCircuit(4, gates)
    s = schedule(c, GridTopology(2, 2), 0)
    assert s.n_cycles == logical_depth(c)
    assert _swap_count(s) == 0


def test_adjacent_two_qubit_gate_first_cycle():
    c = LogicalCircuit(2, (Gate(GateKind.ZZPHASE, (0, 1), 0.5),))
    s = schedule(c, GridTopology(2, 2), 1)
    assert s.n_cycles == 1
    assert _swap_count(s) == 0


def test_generated_schedules_always_valid():
    for n, p, seed in ((6, 1, 0), (6, 2, 5), (8, 4, 1), (10, 2, 7), (12, 1, 3)):
        g = gen_random_3regular(n, seed)
        c = build_qaoa_circuit(g, QaoaParams((0.3,) * p, (0.7,) * p))
        t = choose_grid(n)
        s = schedule(c, t, seed)
        assert validate_schedule(s, c, t) == []


def test_schedule_deterministic(app_b_graph):
    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * 4, (0.2,) * 4))
    assert schedule(c, GridTopology(3, 3), 42) == schedule(c, GridTopology(3, 3), 42)


def test_depth_beats_soft_parity_bar(app_b_graph):
    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * 4, (0.2,) * 4))
    for seed in range(6):
        s = schedule(c, GridTopology(3, 3), seed)
        assert s.n_cycles <= 1.5 * PUBLISHED_DEPTH


def test_depth_monotone_in_p(app_b_graph):
    for seed in (0, 1):
        depths = []
        for p in range(1, 5):
            c = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * p, (0.2,) * p))
            depths.append(schedule(c, GridTopology(3, 3), seed).n_cycles)
        assert all(a <= b for a, b in zip(depths, depths[1:]))


def test_grid_too_small():
    c = LogicalCircuit(5, (Gate(GateKind.H, (0,)),))
    with pytest.raises(ValueError):
        schedule(c, GridTopology(2, 2), 0)


def test_validator_catches_hand_built_violations():
    t = GridTopology(2, 2)
    c = LogicalCircuit(2, (Gate(GateKind.ZZPHASE, (0, 1), 0.5),
                           Gate(GateKind.RX, (0,), 0.3)))
    # exclusivity: gate 1 and gate 2 share site 0 in cycle 0 -- encoded as a
    # site holding gate 2 while gate 1 also claims it is impossible in the
    # matrix layout, so exercise arity and adjacency violations instead
    bad_arity = Schedule(t, (0, 1, -1, -1), ((1, 0, 0, 0), (2, 0, 0, 0)))
    msgs = validate_schedule(bad_arity, c, t)
    assert any("occupies" in m for m in msgs)

    bad_adjacency = Schedule(t, (0, -1, -1, 1), ((1, 0, 0, 1), (0, 2, 0, 0)))
    msgs = validate_schedule(bad_adjacency, c, t)
    assert any("non-adjacent" in m for m in msgs)

    wrong_qubits = Schedule(t, (0, -1, 1, -1), ((1, 1, 0, 0), (0, 0, 2, 0)))
    msgs = validate_schedule(wrong_qubits, c, t)
    assert any("acts on logical" in m for m in msgs)


def test_validator_catches_dependency_inversion():
    t = GridTopology(2, 2)
    c = LogicalCircuit(2, (Gate(GateKind.ZZPHASE, (0, 1), 0.5),
                           Gate(GateKind.RX, (0,), 0.3)))
    # RX (gate 2) scheduled before the non-commuting ZZ (gate 1)
    inverted = Schedule(t, (0, 1, -1, -1), ((2, 0, 0, 0), (1, 1, 0, 0)))
    msgs = validate_schedule(inverted, c, t)
    assert any("does not follow" in m for m in msgs)


def test_validator_catches_swap_bookkeeping_breakage(app_b_graph):
    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * 4, (0.2,) * 4))
    s = parse_pdpt(APP_B_PDPT, n_prep_gates=c.prep_layer_size())
    # drop one SWAP pair: downstream gates act on wrong logical qubits
    table = [list(row) for row in s.table]
    table[1] = [0 if e == -1 else e for e in table[1]]
    broken = Schedule(s.grid, s.placement, tuple(tuple(r) for r in table), s.n_prep_gates)
    msgs = validate_schedule(broken, c, s.grid)
    assert any("acts on logical" in m for m in msgs)


# ---------------------------------------------------------------------------
# PDPT format
# ---------------------------------------------------------------------------

def test_parse_published_pdpt(app_b_graph):
    # the published table omits the H preparation layer, one gate per qubit
    s = parse_pdpt(APP_B_PDPT, n_prep_gates=app_b_graph.n)
    assert s.grid == GridTopology(3, 3)
    assert s.n_cycles == PUBLISHED_DEPTH
    assert s.placement == (3, 6, 4, 0, 1, 7, 5, 2, -1)

    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.1,) * 4, (0.2,) * 4))
    assert validate_schedule(s, c, s.grid) == []
    # read without the hoisted prefix, the ids would name the H gates
    assert validate_schedule(parse_pdpt(APP_B_PDPT), c, s.grid) != []


def test_pdpt_round_trip(app_b_graph):
    s = parse_pdpt(APP_B_PDPT, n_prep_gates=app_b_graph.n)
    assert parse_pdpt(emit_pdpt(s), n_prep_gates=app_b_graph.n) == s
    canonical = emit_pdpt(s)
    assert emit_pdpt(parse_pdpt(canonical, n_prep_gates=app_b_graph.n)) == canonical


def test_emitted_schedule_round_trips(app_b_graph):
    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.4,) * 2, (0.9,) * 2))
    s = schedule(c, GridTopology(3, 3), 3)
    # prep hoisting is not encoded in the text format; the reader supplies it
    rt = parse_pdpt(emit_pdpt(s), n_prep_gates=c.prep_layer_size())
    assert rt == s
    assert validate_schedule(rt, c, s.grid) == []


def test_parse_pdpt_rejects_malformed():
    with pytest.raises(ValueError):
        parse_pdpt("# nothing\n")
    ragged = "0 1 2\n0 1 *\n0 0\n"
    with pytest.raises(ValueError):
        parse_pdpt(ragged)
    with pytest.raises(ValueError):
        parse_pdpt("0 2 1\n0 1 *\n0 0 0\n")          # physical row out of order
    with pytest.raises(ValueError):
        parse_pdpt("0 1 2\n0 1 *\n0 x 0\n")          # unknown token
    with pytest.raises(ValueError):
        parse_pdpt("0 1\n0 1\n0 0\n")                # cannot infer square grid


def test_schedule_json_round_trip(app_b_graph):
    c = build_qaoa_circuit(app_b_graph, QaoaParams((0.4,) * 2, (0.9,) * 2))
    s = schedule(c, GridTopology(3, 3), 3)
    assert schedule_from_json(schedule_to_json(s)) == s
