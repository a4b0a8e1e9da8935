import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoabench.circuit import Gate, GateKind, LogicalCircuit, QaoaParams, build_qaoa_circuit
from qaoabench.graphs import gen_random_3regular
from qaoabench.scheduler import (GridTopology, Schedule, _add_partners, _apply_swap,
                                 _cycle_swaps, _initial_placement, choose_grid,
                                 emit_pdpt, parse_pdpt, schedule, validate_schedule)

from conftest import APP_B_PDPT, PUBLISHED_DEPTH
from oracles import _swap_gain, initial_placement_rescan, logical_depth, pick_swap_rewalk


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
    assert s.n_swaps == 0


def test_adjacent_two_qubit_gate_first_cycle():
    c = LogicalCircuit(2, (Gate(GateKind.ZZPHASE, (0, 1), 0.5),))
    s = schedule(c, GridTopology(2, 2), 1)
    assert s.n_cycles == 1
    assert s.n_swaps == 0


def test_generated_schedules_always_valid():
    for n, p, seed in ((6, 1, 0), (6, 2, 5), (8, 4, 1), (10, 2, 7), (12, 1, 3)):
        g = gen_random_3regular(n, seed)
        c = build_qaoa_circuit(g, QaoaParams((0.3,) * p, (0.7,) * p))
        t = choose_grid(n)
        s = schedule(c, t, seed)
        assert validate_schedule(s, c, t) == []


# SHA-256 over the PDPT text of every case below, in loop order. Routing
# changes that are meant to keep every schedule (tie-breaks included) must
# leave it as it is.
FROZEN_PDPT_SHA256 = "4bbe4442d2971bcccd797ec015fb1e105c3ef83900fdd987f2db0fc05d4d54a0"


def test_schedule_bytes_frozen():
    h = hashlib.sha256()
    for n in (8, 16, 24, 50):
        for p in (1, 4):
            for seed in range(3):
                g = gen_random_3regular(n, seed)
                c = build_qaoa_circuit(g, QaoaParams((0.3,) * p, (0.7,) * p))
                h.update(emit_pdpt(schedule(c, choose_grid(n), seed)).encode())
    assert h.hexdigest() == FROZEN_PDPT_SHA256


# derandomized, so every tier-1 run checks the same 200 cases
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(range(4, 31, 2)), graph_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), p=st.sampled_from((1, 2)),
       extra_side=st.sampled_from((0, 1)))
def test_random_schedules_valid_and_round_trip(n, graph_seed, seed, p, extra_side):
    g = gen_random_3regular(n, graph_seed)
    c = build_qaoa_circuit(g, QaoaParams((0.3,) * p, (0.7,) * p))
    side = choose_grid(n).rows + extra_side
    t = GridTopology(side, side)
    s = schedule(c, t, seed)
    assert validate_schedule(s, c, t) == []
    assert parse_pdpt(emit_pdpt(s), t, s.n_prep_gates) == s


# derandomized; `schedule` and InstanceProblem route a circuit at zero angles
# and replay the table at any others
@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(range(6, 25, 2)), p=st.sampled_from((1, 2, 4)),
       seed=st.integers(0, 2**32 - 1), angle_seed=st.integers(0, 2**32 - 1))
def test_schedule_does_not_depend_on_angles(n, p, seed, angle_seed):
    g = gen_random_3regular(n, seed)
    angles = np.random.default_rng(angle_seed).uniform(-np.pi, np.pi, 2 * p)
    zero = build_qaoa_circuit(g, QaoaParams((0.0,) * p, (0.0,) * p))
    rand = build_qaoa_circuit(g, QaoaParams.from_vector(angles))
    grid = choose_grid(n)
    assert emit_pdpt(schedule(rand, grid, seed)) == emit_pdpt(schedule(zero, grid, seed))


def _pending_distance(index, l2p, dist) -> float:
    """Weighted grid distance of every indexed gate; the index lists each gate twice."""
    return sum(w * dist[l2p[q]][l2p[partner]]
               for q, partners in index.items() for partner, w in partners) / 2


def test_swap_gain_equals_full_recomputation():
    rng = np.random.default_rng(5)
    t = GridTopology(3, 4)
    dist = tuple(tuple(t.distance(a, b) for b in range(t.n_sites)) for a in range(t.n_sites))
    n_qubits = 9
    for _ in range(300):
        p2l = [int(q) for q in rng.permutation(t.n_sites)]
        p2l = [q if q < n_qubits else -1 for q in p2l]
        l2p = [p2l.index(q) for q in range(n_qubits)]
        u = int(rng.integers(t.n_sites))
        v = int(rng.choice(t.neighbors(u)))
        pairs = [rng.choice(n_qubits, 2, replace=False) for _ in range(int(rng.integers(1, 8)))]
        gates = [Gate(GateKind.ZZPHASE, (int(a), int(b))) for a, b in pairs]
        if p2l[u] != -1 and p2l[v] != -1:
            # a gate on both swapped qubits keeps its distance
            gates.append(Gate(GateKind.ZZPHASE, (p2l[u], p2l[v])))
        index = {}
        n_blocked = int(rng.integers(len(gates) + 1))
        _add_partners(index, range(n_blocked), 1.0, gates)
        _add_partners(index, range(n_blocked, len(gates)), 0.5, gates)

        before = _pending_distance(index, l2p, dist)
        gain = _swap_gain(u, v, index, p2l, l2p, dist)
        p2l[u], p2l[v] = p2l[v], p2l[u]
        l2p = [p2l.index(q) for q in range(n_qubits)]
        assert gain == before - _pending_distance(index, l2p, dist)


def _grid_tables(t):
    nbrs = tuple(tuple(t.neighbors(s)) for s in range(t.n_sites))
    dist = tuple(tuple(t.distance(a, b) for b in range(t.n_sites)) for a in range(t.n_sites))
    return nbrs, dist


def _cycle_swaps_against_rewalk(t, p2l, gates, n_blocked, unavailable):
    """Assert that _cycle_swaps picks the SWAPs of pick_swap_rewalk, rerun after each
    SWAP, on gates[:n_blocked] blocked (weight 1) and the rest lookahead (0.5);
    returns the index and the SWAPs."""
    nbrs, dist = _grid_tables(t)
    l2p = [p2l.index(q) for q in range(max(p2l) + 1)]
    blocked = list(range(n_blocked))
    index = {}
    _add_partners(index, blocked, 1.0, gates)
    _add_partners(index, range(n_blocked, len(gates)), 0.5, gates)

    expected = []
    p2l_o, l2p_o, closed = list(p2l), list(l2p), set(unavailable)
    while (move := pick_swap_rewalk(blocked, index, gates, p2l_o, l2p_o, nbrs, dist,
                                    closed)) is not None:
        expected.append(move)
        _apply_swap(*move, p2l_o, l2p_o)
        closed = closed | set(move)
    p2l, l2p = list(p2l), list(l2p)
    assert _cycle_swaps(blocked, index, gates, p2l, l2p, nbrs, dist, set(unavailable)) == expected
    assert (p2l, l2p) == (p2l_o, l2p_o)
    return index, expected


# derandomized: random cycles on small grids, with unused, busy and frozen sites
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 4), cols=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_cycle_swaps_equal_rewalk_oracle(rows, cols, seed):
    rng = np.random.default_rng(seed)
    t = GridTopology(rows, cols)
    n_qubits = int(rng.integers(2, t.n_sites + 1))
    p2l = [q if q < n_qubits else -1 for q in map(int, rng.permutation(t.n_sites))]
    gates = [Gate(GateKind.ZZPHASE, tuple(int(q) for q in rng.choice(n_qubits, 2, replace=False)))
             for _ in range(int(rng.integers(1, 2 * n_qubits + 1)))]
    n_blocked = int(rng.integers(1, len(gates) + 1))
    busy = {int(s) for s in rng.choice(t.n_sites, int(rng.integers(t.n_sites // 2 + 1)),
                                       replace=False)}
    frozen = {int(rng.integers(t.n_sites))} if rng.random() < 0.5 else set()
    _cycle_swaps_against_rewalk(t, p2l, gates, n_blocked, busy | frozen)


def _update_cases(t, p2l, gates, n_blocked, unavailable, index, swaps) -> set[str]:
    """The cases of _cycle_swaps' in-place gain update that the cycle's SWAPs meet.

    A case counts only where it moves the gain of a candidate that is swapped
    later in the cycle, so that a wrong update there would change the SWAPs.
    The candidates are listed as _cycle_swaps lists them.
    """
    nbrs, dist = _grid_tables(t)
    p2l = list(p2l)
    l2p = [p2l.index(q) for q in range(max(p2l) + 1)]
    closed, cands = set(unavailable), []
    for g in range(n_blocked):
        for q in gates[g].qubits:
            if (s := l2p[q]) not in closed:
                closed.add(s)
                cands += [(s, nb) for nb in nbrs[s] if nb not in closed]
    updated: dict[tuple[int, int], set[str]] = {}    # candidate -> cases that moved its gain
    met = set()
    for u, v in swaps:
        met |= updated.pop((u, v), set())
        qu, qv = p2l[u], p2l[v]
        step = {"empty site"} if -1 in (qu, qv) else set()
        if any(partner == qv for partner, _ in index.get(qu, ())):
            step.add("gate on both swapped qubits")
        _apply_swap(u, v, p2l, l2p)
        cands = [c for c in cands if u not in c and v not in c]
        for old, new in ((u, v), (v, u)):
            moves: dict[tuple[int, int], list[tuple[int, float]]] = {}    # (site, w) per cand
            for partner, w in index.get(p2l[new], ()):
                site = l2p[partner]
                for s, nb in cands:
                    if site in (s, nb) and (dist[new][s] - dist[new][nb]) != \
                            (dist[old][s] - dist[old][nb]):
                        moves.setdefault((s, nb), []).append((site, w))
            for cand, hits in moves.items():
                cases = updated.setdefault(cand, set())
                cases |= step
                if {site for site, _ in hits} == set(cand):
                    cases.add("partners at both sites")
                if {site for site, w in hits if w == 1.0} & {site for site, w in hits if w == 0.5}:
                    cases.add("pair blocked and in the lookahead")
    return met


# grid rows and cols, site -> logical qubit (-1 unused), gate pairs (the first
# n_blocked blocked, the rest lookahead), n_blocked and the unavailable sites
FIXED_CYCLES = {
    "gate on both swapped qubits":
        (3, 2, [-1, 2, 0, 1, 3, 4], [(0, 3), (1, 4), (2, 4), (3, 4)], 3, set()),
    "pair blocked and in the lookahead":
        (3, 2, [-1, 2, 3, -1, 0, 1], [(0, 1), (1, 2), (1, 2), (0, 1)], 3, {1}),
    "partners at both sites":
        (3, 2, [-1, 2, 1, -1, 0, 3], [(1, 2), (0, 1), (1, 3)], 2, {1}),
    "empty site":
        (2, 3, [1, -1, 0, -1, -1, 2], [(1, 2), (0, 2), (1, 2)], 2, set()),
}


@pytest.mark.parametrize("case", sorted(FIXED_CYCLES))
def test_cycle_swaps_fixed_cases_equal_rewalk_oracle(case):
    rows, cols, p2l, pairs, n_blocked, unavailable = FIXED_CYCLES[case]
    t = GridTopology(rows, cols)
    gates = [Gate(GateKind.ZZPHASE, pair) for pair in pairs]
    index, swaps = _cycle_swaps_against_rewalk(t, p2l, gates, n_blocked, unavailable)
    assert case in _update_cases(t, p2l, gates, n_blocked, unavailable, index, swaps)


# derandomized: the incremental placement against the rescan, tie-break draws included
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(range(4, 41, 2)), p=st.integers(1, 4),
       graph_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       extra_side=st.sampled_from((0, 1)))
def test_initial_placement_equals_rescan_oracle(n, p, graph_seed, seed, extra_side):
    c = build_qaoa_circuit(gen_random_3regular(n, graph_seed), QaoaParams((0.3,) * p, (0.7,) * p))
    gates = list(c.gates[c.prep_layer_size():])
    side = choose_grid(n).rows
    t = GridTopology(side, side + extra_side)
    dist = tuple(tuple(t.distance(a, b) for b in range(t.n_sites)) for a in range(t.n_sites))
    rng, rng_o = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _initial_placement(n, gates, t, dist, rng) == \
        initial_placement_rescan(n, gates, t, dist, rng_o)
    assert rng.bit_generator.state == rng_o.bit_generator.state


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


def test_grid_too_small_rejected_before_any_try():
    c = LogicalCircuit(5, (Gate(GateKind.H, (0,)),))
    with pytest.raises(ValueError, match="cannot hold"):
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


def test_validator_checks_every_predecessor():
    # the ZZ gate follows RX on qubit 0 but runs before RX on qubit 1, its second
    # predecessor
    t = GridTopology(2, 2)
    c = LogicalCircuit(2, (Gate(GateKind.RX, (0,), 0.3), Gate(GateKind.RX, (1,), 0.4),
                           Gate(GateKind.ZZPHASE, (0, 1), 0.5)))
    late = Schedule(t, (0, 1, -1, -1), ((1, 0, 0, 0), (3, 3, 0, 0), (0, 2, 0, 0)))
    assert validate_schedule(late, c, t) == ["gate 3 (cycle 1) does not follow its "
                                             "dependency 2 (cycle 2)"]


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
    assert s.n_swaps == 34                        # SWAP ids -1..-34
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
    with pytest.raises(ValueError, match="unknown token in PDPT physical index row"):
        parse_pdpt("0 x 2 *\n0 1 2 *\n0 0 0 0\n")
    with pytest.raises(ValueError, match="unknown token in PDPT placement row"):
        parse_pdpt("0 1 2 3\n0 y 1 *\n0 0 0 0\n")
    with pytest.raises(ValueError):
        parse_pdpt("0 1\n0 1\n0 0\n")                # cannot infer square grid
