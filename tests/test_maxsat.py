import numpy as np
import pytest
from hypothesis import given, settings

from qaoabench.graphs import Graph, brute_force_maxcut, gen_random_3regular
from qaoabench.maxsat import CnfFormula, emit_wcnf, reduce_to_max2sat

from conftest import APP_B_MAXCUT, simple_graphs
from oracles import cut_of_code, max2sat_by_python_loop

SINGLE_EDGE = Graph(2, ((0, 1),))


def test_reduction_single_edge():
    f = reduce_to_max2sat(SINGLE_EDGE)
    assert f.n_vars == 2
    assert f.clauses == ((1, 2), (-1, -2))
    assert max2sat_by_python_loop(f) == 2


def test_reduction_k3(k3):
    f = reduce_to_max2sat(k3)
    assert f.n_clauses == 6
    assert max2sat_by_python_loop(f) == 5     # E + k = 3 + 2


def test_reduction_app_b(app_b_graph):
    f = reduce_to_max2sat(app_b_graph)
    assert f.n_vars == 8
    assert f.n_clauses == 24
    assert max2sat_by_python_loop(f) == 12 + APP_B_MAXCUT


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=simple_graphs(max_n=7))
def test_e_plus_k_identity_any_simple_graph(g):
    # the optimum satisfies both clauses of each cut edge and one of each other edge
    assert max2sat_by_python_loop(reduce_to_max2sat(g)) == g.n_edges + brute_force_maxcut(g)[0]


def test_e_plus_k_identity_random_graphs():
    for n in (4, 6, 8, 10, 12):
        for seed in (0, 1, 2, 3):
            g = gen_random_3regular(n, seed)
            k_max, _ = brute_force_maxcut(g)
            assert max2sat_by_python_loop(reduce_to_max2sat(g)) == g.n_edges + k_max


def test_per_edge_clause_semantics():
    # both clauses of an edge satisfied <=> the edge is cut
    g = gen_random_3regular(6, 5)
    f = reduce_to_max2sat(g)
    rng = np.random.default_rng(1)
    for _ in range(25):
        bits = rng.integers(0, 2, g.n)
        satisfied = 0
        for clause in f.clauses:
            satisfied += any(
                bits[abs(lit) - 1] == (1 if lit > 0 else 0) for lit in clause)
        cut = cut_of_code(g, sum(int(b) << i for i, b in enumerate(bits)))
        assert satisfied == g.n_edges + cut  # one per edge always, both iff cut
        assert satisfied >= g.n_edges


def test_wcnf_exact_text():
    assert emit_wcnf(reduce_to_max2sat(SINGLE_EDGE)) == \
        "p wcnf 2 2 3\n1 1 2 0\n1 -1 -2 0\n"


def test_wcnf_header_k3(k3):
    assert emit_wcnf(reduce_to_max2sat(k3)).splitlines()[0] == "p wcnf 3 6 7"


def test_wcnf_round_trip(app_b_graph):
    # the header and one "1 <lits> 0" line per clause, in formula order
    f = reduce_to_max2sat(app_b_graph)
    lines = emit_wcnf(f).splitlines()
    assert lines[0] == "p wcnf 8 24 25"
    assert [tuple(int(t) for t in ln.split()[1:-1]) for ln in lines[1:]] == list(f.clauses)
    assert all(ln.startswith("1 ") and ln.endswith(" 0") for ln in lines[1:])


def test_formula_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, 3),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((0,),))
