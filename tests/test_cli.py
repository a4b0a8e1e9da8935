import json

import pytest

from qaoabench.circuit import circuit_from_json
from qaoabench.cli import main
from qaoabench.graphs import cut_values_table, read_graph
from qaoabench.scheduler import parse_pdpt
from qaoabench.simulator import probabilities, simulate_logical

from conftest import APP_B_PDPT


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_reduce_roundtrip(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run_cli("gen", "--n", 8, "--seed", 3, "--out", gpath) == 0
    g = read_graph(gpath.read_text())
    assert g.n == 8 and g.is_regular(3)

    wpath = tmp_path / "g.wcnf"
    assert run_cli("reduce", "--graph", gpath, "--out", wpath) == 0
    header = wpath.read_text().splitlines()[0]
    assert header == "p wcnf 8 24 25"


def test_reduce_k3_exact(tmp_path, k3):
    gpath = tmp_path / "k3.txt"
    gpath.write_text("3 3\n0 1\n1 2\n0 2\n")
    wpath = tmp_path / "k3.wcnf"
    assert run_cli("reduce", "--graph", gpath, "--out", wpath) == 0
    assert wpath.read_text().splitlines()[0] == "p wcnf 3 6 7"


def test_schedule_then_simulate(tmp_path):
    gpath = tmp_path / "g.txt"
    run_cli("gen", "--n", 6, "--seed", 1, "--out", gpath)
    pdpt = tmp_path / "s.pdpt"
    circ = tmp_path / "c.json"
    assert run_cli("schedule", "--graph", gpath, "--p", 2, "--seed", 2,
                   "--gammas", "0.7,0.3", "--betas", "0.2,0.5",
                   "--out", pdpt, "--out-circuit", circ) == 0
    sched = parse_pdpt(pdpt.read_text())
    assert sched.n_cycles >= 1

    obs = tmp_path / "obs.json"
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt,
                   "--circuit", circ, "--realizations", 16, "--seed", 5,
                   "--out", obs) == 0
    payload = json.loads(obs.read_text())
    assert payload["n_realizations"] == 16
    assert 0.0 <= payload["approx_ratio"] <= 1.0
    assert len(payload["per_realization_cut"]) == 16


def test_simulate_pdpt_matches_logical_noiseless(tmp_path):
    # PDPT text omits the hoisted H layer; simulate must replay the table
    # after it, so a noiseless run reproduces the logical circuit exactly
    gpath = tmp_path / "g.txt"
    run_cli("gen", "--n", 6, "--seed", 1, "--out", gpath)
    pdpt, circ = tmp_path / "s.pdpt", tmp_path / "c.json"
    assert run_cli("schedule", "--graph", gpath, "--p", 2, "--seed", 2,
                   "--gammas", "0.7,0.3", "--betas", "0.2,0.5",
                   "--out", pdpt, "--out-circuit", circ) == 0
    obs = tmp_path / "obs.json"
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt, "--circuit", circ,
                   "--noiseless", "--realizations", 1, "--out", obs) == 0
    g = read_graph(gpath.read_text())
    c = circuit_from_json(circ.read_text())
    exact = float(probabilities(simulate_logical(c)) @ cut_values_table(g))
    assert abs(json.loads(obs.read_text())["mean_cut"] - exact) < 1e-9


def test_solve_small_instance(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    out = tmp_path / "res.json"
    assert run_cli("solve", "--graph", gpath, "--p", 1, "--pipeline", "exact",
                   "--noiseless", "--restarts", 3, "--max-updates", 40,
                   "--seed", 7, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 4 and payload["p"] == 1
    assert payload["best_run"]["best_value"] / payload["k_max"] > 0.85
    assert len(payload["runs"]) == 3


# Fixed-seed bench CSVs; every --jobs value must reproduce them byte for byte.
BENCH_CASES = (
    (("--sizes", "4", "--noiseless", "--max-updates", 15),
     "N,p,mean_seconds,sdom_seconds,n_instances\n4,1,0.0385875,0.0002625,2\n"),
    (("--sizes", "6", "--max-updates", 8, "--realizations", 8),        # paper noise
     "N,p,mean_seconds,sdom_seconds,n_instances\n6,1,0.02104,0.00143,2\n"),
)


def test_bench_deterministic_bytes(tmp_path):
    common = ("bench", "--p", 1, "--instances", 2, "--pipeline", "sampled",
              "--restarts", 2, "--samples", 500, "--seed", 9)
    for case, (args, expected) in enumerate(BENCH_CASES):
        for jobs in (1, 2):
            out = tmp_path / f"case{case}-j{jobs}.csv"
            assert run_cli(*common, *args, "--jobs", jobs, "--out", out) == 0
            assert out.read_text() == expected


def test_fit_with_published_averages_and_synthetic_classical(tmp_path):
    timing = tmp_path / "timing.csv"
    rows = ["N,seconds,label"]
    rows += [f"{n},{t},qaoa-p4" for n, t in
             ((8, 100.6), (10, 102.8), (12, 106.6), (14, 107.5), (16, 113.1), (20, 118.8))]
    rows += [f"{n},{10 ** (0.0409 * n - 6):.8g},classical" for n in range(8, 22, 2)]
    timing.write_text("\n".join(rows) + "\n")
    out_csv, out_json = tmp_path / "report.csv", tmp_path / "report.json"
    assert run_cli("fit", "--input", timing, "--out-csv", out_csv,
                   "--out-json", out_json) == 0
    report = json.loads(out_json.read_text())
    assert report["fits"]["classical"]["slope"] == pytest.approx(0.0409, abs=1e-6)
    assert report["crossover"]["n_star"] is not None


def test_convergence_command(tmp_path):
    out = tmp_path / "conv.csv"
    assert run_cli("convergence", "--n", 6, "--p", 1, "--t2-ratios", "1000",
                   "--n-seeds", 2, "--realizations", 40, "--seed", 4,
                   "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t2_over_tg,seed,realizations,running_mean_ratio"
    assert len(lines) == 1 + 2 * 40


def test_errors_exit_nonzero(tmp_path):
    assert run_cli("gen", "--n", 7, "--out", tmp_path / "x.txt") == 1
    assert run_cli("reduce", "--graph", tmp_path / "missing.txt",
                   "--out", tmp_path / "y.wcnf") == 1


def test_published_pdpt_feeds_simulate(tmp_path, app_b_graph):
    from qaoabench.circuit import QaoaParams, build_qaoa_circuit, circuit_to_json
    from qaoabench.graphs import write_graph

    gpath = tmp_path / "appb.txt"
    gpath.write_text(write_graph(app_b_graph))
    pdpt = tmp_path / "appb.pdpt"
    pdpt.write_text(APP_B_PDPT)
    circ = tmp_path / "appb.json"
    circ.write_text(circuit_to_json(
        build_qaoa_circuit(app_b_graph, QaoaParams((0.4,) * 4, (0.3,) * 4))))
    obs = tmp_path / "obs.json"
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt,
                   "--circuit", circ, "--realizations", 8, "--seed", 0,
                   "--out", obs) == 0
    assert 0.0 < json.loads(obs.read_text())["mean_cut"] <= 12.0
