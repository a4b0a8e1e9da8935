import numpy as np
import pytest
from hypothesis import given, settings

from qaoabench.graphs import (BRUTE_FORCE_MAX_N, Graph, brute_force_maxcut,
                              cut_values_table, gen_random_3regular, read_graph,
                              write_graph)

from conftest import APP_B_MAXCUT, APP_B_N_OPTIMA, simple_graphs
from oracles import cut_of_code, maxcut_by_python_loop


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(3, ((0, 5),))


def test_generator_n4_is_k4():
    # K4 is the only 3-regular graph on 4 vertices
    for seed in range(5):
        g = gen_random_3regular(4, seed)
        assert sorted(tuple(sorted(e)) for e in g.edges) == \
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_generator_degree_and_count():
    for n in (6, 8, 12, 20):
        for seed in (0, 1, 2):
            g = gen_random_3regular(n, seed)
            assert g.n_edges == 3 * n // 2
            assert np.all(np.bincount(np.ravel(g.edges), minlength=n) == 3)


def test_generator_deterministic():
    assert gen_random_3regular(8, 123) == gen_random_3regular(8, 123)


def test_generator_rejects_bad_n():
    with pytest.raises(ValueError):
        gen_random_3regular(7, 0)
    with pytest.raises(ValueError):
        gen_random_3regular(2, 0)


def test_cut_value_k3(k3):
    assert cut_values_table(k3).tolist() == [0, 2, 2, 2, 2, 2, 2, 0]


def test_cut_flip_symmetry():
    g = gen_random_3regular(10, 4)
    table = cut_values_table(g)
    rng = np.random.default_rng(0)
    for z in rng.integers(0, 1 << g.n, 20):
        assert table[z] == table[z ^ ((1 << g.n) - 1)]
        assert 0 <= table[z] <= 3 * g.n // 2


def test_brute_force_hand_values(k3, k4):
    assert brute_force_maxcut(k3)[0] == 2
    k_max, optima = brute_force_maxcut(k4)
    assert k_max == 4
    assert len(optima) == 6     # all balanced bipartitions of K4


def test_brute_force_app_b(app_b_graph):
    k_max, optima = brute_force_maxcut(app_b_graph)
    assert k_max == APP_B_MAXCUT
    assert len(optima) == APP_B_N_OPTIMA
    assert k_max == maxcut_by_python_loop(app_b_graph)
    # exactly the optimal codes, in ascending order; the count is even by symmetry
    assert [z for z in range(1 << 8) if cut_of_code(app_b_graph, z) == k_max] \
        == optima.tolist()
    assert len(optima) % 2 == 0


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_maxcut(Graph(BRUTE_FORCE_MAX_N + 2, ()))


def test_cut_values_table_matches_direct(app_b_graph):
    table = cut_values_table(app_b_graph)
    assert table.tolist() == [cut_of_code(app_b_graph, z) for z in range(1 << 8)]


def test_graph_text_round_trip(k3):
    text = write_graph(k3)
    assert text == "3 3\n0 1\n1 2\n0 2\n"
    assert read_graph(text) == k3
    g = gen_random_3regular(12, 9)
    assert read_graph(write_graph(g)) == g
    assert write_graph(read_graph(write_graph(g))) == write_graph(g)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(g=simple_graphs(max_n=12))
def test_graph_text_round_trip_random_graphs(g):
    text = write_graph(g)
    assert read_graph(text) == g and write_graph(read_graph(text)) == text


def test_read_graph_rejects_malformed():
    with pytest.raises(ValueError):
        read_graph("")
    with pytest.raises(ValueError):
        read_graph("2 1\n0 1 2\n")
    with pytest.raises(ValueError):
        read_graph("2 2\n0 1\n")
    with pytest.raises(ValueError):
        read_graph("2 1\n0 5\n")
    # a field that is not an integer names its line
    for text, line in (("4 x\n", "header line: '4 x'"), ("4 1\n0 y\n", "edge line: '0 y'"),
                       ("4 1\n0 1.5\n", "edge line: '0 1.5'")):
        with pytest.raises(ValueError, match=f"^malformed {line}$"):
            read_graph(text)


def test_graph_needs_a_vertex():
    for text, n in (("0 0\n", 0), ("-2 0\n", -2)):
        with pytest.raises(ValueError, match=f"at least 1 vertex, got n={n}"):
            read_graph(text)
    assert read_graph("1 0\n") == Graph(1, ())
