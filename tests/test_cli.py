import argparse
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qaoabench
from qaoabench.circuit import QaoaParams, build_qaoa_circuit
from qaoabench import optimizer
from qaoabench.cli import build_parser, main
from qaoabench.graphs import brute_force_maxcut, cut_values_table, read_graph
from qaoabench.scheduler import Schedule, emit_pdpt, parse_pdpt
from qaoabench.simulator import NoiseParams, optima_mask, probabilities, run_noisy_ensemble

from conftest import APP_B_PDPT
from oracles import logical_state


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_reduce_roundtrip(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run_cli("gen", "--n", 8, "--seed", 3, "--out", gpath) == 0
    g = read_graph(gpath.read_text())
    assert g.n == 8 and np.all(np.bincount(np.ravel(g.edges), minlength=8) == 3)

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
    assert run_cli("schedule", "--graph", gpath, "--p", 2, "--seed", 2, "--out", pdpt) == 0
    sched = parse_pdpt(pdpt.read_text())
    assert sched.n_cycles >= 1

    obs = tmp_path / "obs.json"
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt,
                   "--gammas", "0.7,0.3", "--betas", "0.2,0.5", "--realizations", 16,
                   "--seed", 5, "--out", obs) == 0
    payload = json.loads(obs.read_text())
    assert payload["n_realizations"] == 16
    assert 0.0 <= payload["approx_ratio"] <= 1.0
    assert len(payload["per_realization_cut"]) == 16


def test_simulate_pdpt_matches_logical_noiseless(tmp_path):
    # PDPT text omits the hoisted H layer; simulate must replay the table
    # after it, so a noiseless run reproduces the logical circuit exactly
    gpath = tmp_path / "g.txt"
    run_cli("gen", "--n", 6, "--seed", 1, "--out", gpath)
    pdpt = tmp_path / "s.pdpt"
    assert run_cli("schedule", "--graph", gpath, "--p", 2, "--seed", 2, "--out", pdpt) == 0
    obs = tmp_path / "obs.json"
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt,
                   "--gammas", "0.7,0.3", "--betas", "0.2,0.5", "--t2", "inf",
                   "--realizations", 1, "--out", obs) == 0
    g = read_graph(gpath.read_text())
    c = build_qaoa_circuit(g, QaoaParams((0.7, 0.3), (0.2, 0.5)))
    exact = float(probabilities(logical_state(c)) @ cut_values_table(g))
    assert abs(json.loads(obs.read_text())["mean_cut"] - exact) < 1e-9


def test_simulate_rejects_graph_of_another_circuit(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli("gen", "--n", 6, "--seed", 1, "--out", gpath)
    pdpt = tmp_path / "s.pdpt"
    assert run_cli("schedule", "--graph", gpath, "--p", 1, "--seed", 2, "--out", pdpt) == 0
    bigger, other = tmp_path / "g8.txt", tmp_path / "other6.txt"
    run_cli("gen", "--n", 8, "--seed", 1, "--out", bigger)
    run_cli("gen", "--n", 6, "--seed", 4, "--out", other)
    assert read_graph(other.read_text()).edges != read_graph(gpath.read_text()).edges
    capsys.readouterr()
    # the 15 gate ids of the 6-vertex p=1 table are no whole number of the
    # 8-vertex graph's 20-gate layers
    for graph, message in ((bigger, "not a whole number of QAOA layers of 20 gates"),
                           (other, "schedule does not match")):
        obs = tmp_path / "obs.json"
        assert run_cli("simulate", "--graph", graph, "--schedule", pdpt,
                       "--gammas", 0.4, "--betas", 0.3, "--realizations", 4,
                       "--out", obs) == 1
        assert message in capsys.readouterr().err
        assert not obs.exists()


def _p1_schedule(tmp_path):
    """A 6-vertex graph (9 edges) and its p=1 PDPT: gate ids 1..15."""
    gpath, pdpt = tmp_path / "g.txt", tmp_path / "s.pdpt"
    run_cli("gen", "--n", 6, "--seed", 1, "--out", gpath)
    assert run_cli("schedule", "--graph", gpath, "--p", 1, "--seed", 2, "--out", pdpt) == 0
    return gpath, pdpt


def test_simulate_reads_p_from_the_schedule(tmp_path):
    gpath, pdpt = _p1_schedule(tmp_path)
    obs = tmp_path / "obs.json"
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt, "--gammas", 0.4,
                   "--betas", 0.3, "--realizations", 8, "--seed", 5, "--out", obs) == 0
    # the same run at p=1 through the library, with the CLI's default noise
    g = read_graph(gpath.read_text())
    c = build_qaoa_circuit(g, QaoaParams((0.4,), (0.3,)))
    sched = parse_pdpt(pdpt.read_text(), n_prep_gates=c.prep_layer_size())
    k_max, optima = brute_force_maxcut(g)
    ens = run_noisy_ensemble(sched, c, NoiseParams(200e-6, 100e-6, 10e-9), 8, 5,
                             cut_table=cut_values_table(g),
                             overlap_mask=optima_mask(optima, g.n))
    payload = json.loads(obs.read_text())
    assert payload["mean_cut"] == ens.mean_cut and payload["k_max"] == k_max
    assert payload["overlap"] == ens.mean_overlap
    assert payload["per_realization_cut"] == ens.per_cut.tolist()


def test_simulate_angle_count_names_the_derived_p(tmp_path, capsys):
    gpath, pdpt = _p1_schedule(tmp_path)
    obs = tmp_path / "obs.json"
    capsys.readouterr()
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt, "--gammas", "0.4,0.1",
                   "--betas", "0.3,0.2", "--realizations", 4, "--out", obs) == 1
    assert "expected p=1 comma-separated angles" in capsys.readouterr().err
    assert not obs.exists()


def test_simulate_rejects_a_partial_layer(tmp_path, capsys):
    gpath, pdpt = _p1_schedule(tmp_path)
    sched = parse_pdpt(pdpt.read_text())
    obs = tmp_path / "obs.json"
    # drop gate 15, then every gate id
    for top, keep in ((14, lambda e: e != 15), (0, lambda e: e <= 0)):
        table = tuple(tuple(e if keep(e) else 0 for e in row) for row in sched.table)
        pdpt.write_text(emit_pdpt(Schedule(sched.grid, sched.placement, table)))
        capsys.readouterr()
        assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt,
                       "--realizations", 4, "--out", obs) == 1
        err = capsys.readouterr().err
        assert (f"gate ids up to {top}, not a whole number of QAOA layers of 15 gates"
                in err and err.count("\n") == 1)
        assert not obs.exists()


def test_solve_small_instance(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    out = tmp_path / "res.json"
    assert run_cli("solve", "--graph", gpath, "--p", 1, "--pipeline", "exact",
                   "--t2", "inf", "--restarts", 3, "--max-updates", 40,
                   "--seed", 7, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 4 and payload["p"] == 1
    assert payload["best_run"]["best_value"] / payload["k_max"] > 0.85
    assert len(payload["runs"]) == 3


# Fixed-seed bench CSVs, which the pool and a run of every restart in turn
# must reproduce byte for byte.
BENCH_COMMON = ("bench", "--p", 1, "--instances", 2, "--pipeline", "sampled",
                "--restarts", 2, "--samples", 500, "--seed", 9)
BENCH_CASES = (
    (("--sizes", "4", "--t2", "inf", "--max-updates", 15),
     "N,p,mean_seconds,sdom_seconds,n_instances\n4,1,0.0385875,0.0002625,2\n"),
    (("--sizes", "6", "--max-updates", 8, "--realizations", 8),        # paper noise
     "N,p,mean_seconds,sdom_seconds,n_instances\n6,1,0.02104,0.00143,2\n"),
    # two sizes, whose batches hold 8 * 2^4 and 8 * 2^6 amplitudes
    (("--sizes", "4,6", "--max-updates", 8, "--realizations", 8),
     "N,p,mean_seconds,sdom_seconds,n_instances\n"
     "4,1,0.019425,0.000525,2\n6,1,0.02104,0.00143,2\n"),
)


def test_bench_deterministic_bytes(tmp_path):
    for case, (args, expected) in enumerate(BENCH_CASES):
        out = tmp_path / f"case{case}.csv"
        assert run_cli(*BENCH_COMMON, *args, "--out", out) == 0
        assert out.read_text() == expected


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_bench_pools_every_instance_largest_first(tmp_path, monkeypatch):
    # every instance is built once, in instance order, before the pool, which
    # takes all restarts of both sizes, largest N first
    pooled, events = [], []

    class RecordingPool:
        def map(self, fn, problems, restarts):
            events.append("pool")
            pooled.extend((problem.g.n, r) for problem, r in zip(problems, restarts))
            return map(fn, problems, restarts)

    def recording_init(self, g, *rest):
        events.append(g.n)
        init(self, g, *rest)

    init = optimizer.InstanceProblem.__init__
    monkeypatch.setattr(optimizer.InstanceProblem, "__init__", recording_init)
    monkeypatch.setattr(optimizer, "pinned_pool",
                        lambda n_workers: contextlib.nullcontext(RecordingPool()))
    args, expected = BENCH_CASES[2]
    out = tmp_path / "bench.csv"
    assert run_cli(*BENCH_COMMON, *args, "--out", out) == 0
    assert out.read_text() == expected
    assert pooled == [(6, 0), (6, 1)] * 2 + [(4, 0), (4, 1)] * 2
    assert events == [4, 4, 6, 6, "pool"]


def test_fit_reads_bench_csv(tmp_path):
    bench = tmp_path / "bench.csv"
    assert run_cli("bench", "--sizes", "4,6,8", "--p", 1, "--instances", 2,
                   "--pipeline", "exact", "--t2", "inf", "--restarts", 1,
                   "--max-updates", 5, "--seed", 3, "--out", bench) == 0
    timing = tmp_path / "classical.csv"
    timing.write_text("".join(f"{n},{10 ** (0.04 * n - 6):.8g},classical\n"
                              for n in (4, 6, 8, 10)))
    out_csv, out_json = tmp_path / "report.csv", tmp_path / "report.json"
    assert run_cli("fit", "--input", bench, timing, "--quantum-label", "qaoa-p1",
                   "--out-csv", out_csv, "--out-json", out_json) == 0
    report = json.loads(out_json.read_text())
    assert report["fits"]["qaoa-p1"]["n_points"] == 3
    assert report["fits"]["classical"]["n_points"] == 4
    assert "fit,qaoa-p1," in out_csv.read_text()


BENCH_HEADER = "N,p,mean_seconds,sdom_seconds,n_instances\n"
BENCH_ROWS = "".join(f"{n},1,{0.1 * n:g},0.01,2\n" for n in (4, 6, 8))


def test_fit_skips_blank_lines(tmp_path):
    bench = tmp_path / "bench.csv"
    bench.write_text("\n" + BENCH_HEADER + "\n" + BENCH_ROWS.replace("\n", "\n\n"))
    out_json = tmp_path / "report.json"
    assert run_cli("fit", "--input", bench, "--out-csv", tmp_path / "report.csv",
                   "--out-json", out_json) == 0
    assert json.loads(out_json.read_text())["fits"]["qaoa-p1"]["n_points"] == 3


@pytest.mark.parametrize("text,message", [
    (BENCH_HEADER + BENCH_ROWS + "10,1,0.5,0.01\n", "row 5: a bench row has 5 fields, got 4"),
    (BENCH_HEADER + "4,1,x,0.01,2\n" + BENCH_ROWS, "row 2: N '4' and seconds 'x' must be numbers"),
    ("N,seconds,label\n8,1.5,classical\n10,x,classical\n",
     "row 3: N '10' and seconds 'x' must be numbers"),
    ("N,seconds,label\n8,1.5,c\n1O,2.0,c\n12,2.5,c\n14,3.1,c\n",
     "row 3: N '1O' and seconds '2.0' must be numbers"),
    ("1O,2.0,c\n12,2.5,c\n14,3.1,c\n16,3.9,c\n",
     "row 1: N '1O' and seconds '2.0' must be numbers"),
    ("8\n", "row 1: a timing row needs at least N and seconds"),
    ("", "no data points in "),
    (BENCH_HEADER, "no data points in "),
], ids=["bench-short-row", "bench-seconds", "timing-seconds", "timing-typo",
        "timing-first-row-typo", "timing-short-row", "empty", "header-only"])
def test_fit_rejects_bad_input_in_one_line(tmp_path, capsys, text, message):
    # each error names the file, and the row where there is one
    path = tmp_path / "input.csv"
    path.write_text(text)
    out_csv = tmp_path / "report.csv"
    assert run_cli("fit", "--input", path, "--out-csv", out_csv,
                   "--out-json", tmp_path / "report.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and message in err
    assert not out_csv.exists()


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


def test_convergence_rejects_noise_flags_it_ignores(tmp_path):
    # noise comes from --t2-ratios and --t-gate only
    for flag in (("--noiseless",), ("--t1", 1.0), ("--t2", 1.0)):
        with pytest.raises(SystemExit) as exc:
            run_cli("convergence", "--n", 6, "--p", 1, "--gammas", 0.5, "--betas", 0.3,
                    "--t2-ratios", 1000, *flag, "--out", tmp_path / "conv.csv")
        assert exc.value.code == 2


def test_convergence_rejects_a_lone_angle_list(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    for flag in ("--betas", "--gammas"):
        assert run_cli("convergence", "--n", 6, "--p", 1, flag, 0.3, "--t2-ratios", 1000,
                       "--n-seeds", 1, "--realizations", 4, "--out", out) == 1
        assert "--gammas and --betas must be given together" in capsys.readouterr().err
    assert not out.exists()


def test_errors_exit_nonzero(tmp_path, capsys):
    assert run_cli("gen", "--n", 7, "--out", tmp_path / "x.txt") == 1
    assert run_cli("reduce", "--graph", tmp_path / "missing.txt",
                   "--out", tmp_path / "y.wcnf") == 1
    # a count below 1 fails before any work, naming its flag; the noiseless
    # solve checks R too, though it replays one realization whatever R is
    k4 = tmp_path / "k4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    capsys.readouterr()
    for flag, argv in (("--n-seeds", ("convergence", "--n", 6, "--p", 1, "--t2-ratios", 1000,
                                      "--realizations", 4, "--n-seeds", 0)),
                       ("--instances", ("bench", "--sizes", 4, "--p", 1, "--restarts", 1,
                                        "--max-updates", 1, "--instances", 0)),
                       ("--realizations", ("solve", "--graph", k4, "--p", 1, "--t2", "inf",
                                           "--restarts", 1, "--max-updates", 1,
                                           "--realizations", 0)),
                       ("--p", ("schedule", "--graph", k4, "--p", 0)),
                       ("--restarts", ("solve", "--graph", k4, "--p", 1, "--restarts", -1))):
        out = tmp_path / "count.out"
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be at least 1, got ") and err.count("\n") == 1
        assert not out.exists()
    # the JSON artifact flags are gone: PDPT is the one schedule file, and
    # simulate rebuilds the circuit from the graph and the angles
    g, pdpt, js = tmp_path / "g.txt", tmp_path / "s.pdpt", tmp_path / "x.json"
    # so are flags no command reads: reduce and fit draw no random numbers, and
    # simulate takes p from the schedule
    for argv in (("schedule", "--graph", g, "--out", pdpt, "--out-json", js),
                 ("schedule", "--graph", g, "--out", pdpt, "--out-circuit", js),
                 ("simulate", "--graph", g, "--schedule", pdpt, "--circuit", js,
                  "--out", tmp_path / "obs.json"),
                 ("reduce", "--graph", g, "--out", tmp_path / "g.wcnf", "--seed", 1),
                 ("fit", "--input", js, "--out-csv", tmp_path / "r.csv",
                  "--out-json", tmp_path / "r.json", "--seed", 1),
                 ("simulate", "--graph", g, "--schedule", pdpt, "--p", 1,
                  "--out", tmp_path / "obs.json")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
    # a schedule JSON, as the old `schedule --out-json` wrote it, is not PDPT
    run_cli("gen", "--n", 6, "--seed", 1, "--out", g)
    old = {"grid": {"rows": 3, "cols": 3}, "placement": [0, 1, 2, 3, 4, 5, -1, -1, -1],
           "n_prep_gates": 6, "table": [[0] * 9]}
    js.write_text(json.dumps(old, indent=2) + "\n")
    capsys.readouterr()
    assert run_cli("simulate", "--graph", g, "--schedule", js,
                   "--out", tmp_path / "obs.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "PDPT" in err and err.count("\n") == 1
    assert not (tmp_path / "obs.json").exists()


def test_reduce_rejects_a_graph_without_vertices(tmp_path, capsys):
    for header, n in (("0 0", 0), ("-2 0", -2)):
        gpath, wpath = tmp_path / "g.txt", tmp_path / "g.wcnf"
        gpath.write_text(header + "\n")
        capsys.readouterr()
        assert run_cli("reduce", "--graph", gpath, "--out", wpath) == 1
        assert capsys.readouterr().err == f"error: a graph needs at least 1 vertex, got n={n}\n"
        assert not wpath.exists()


def test_max_cut_needs_an_edge(tmp_path, capsys):
    # an edgeless graph fails before anything divides by its maximum cut, 0
    out = tmp_path / "out.json"
    for n in (1, 3):
        gpath = tmp_path / "g.txt"
        gpath.write_text(f"{n} 0\n")
        for argv in (("solve", "--graph", gpath, "--p", 1, "--t2", "inf", "--restarts", 1,
                      "--max-updates", 2, "--samples", 10),
                     ("simulate", "--graph", gpath, "--schedule", tmp_path / "s.pdpt"),
                     ("convergence", "--graph", gpath, "--p", 1, "--gammas", 0.1,
                      "--betas", 0.2, "--realizations", 2)):
            capsys.readouterr()
            assert run_cli(*argv, "--out", out) == 1
            assert capsys.readouterr().err == (
                f"error: Max-Cut needs at least one edge; the graph has none (n={n})\n")
            assert not out.exists()


def test_list_flags_name_the_flag_and_the_bad_item(tmp_path, capsys):
    gpath, pdpt = _p1_schedule(tmp_path)
    out = tmp_path / "out"
    for argv, flag, text, item, kind in (
            (("bench", "--sizes", "4,,6", "--p", 1, "--instances", 1), "--sizes", "4,,6", "",
             "int"),
            (("bench", "--sizes", "4.5", "--p", 1, "--instances", 1), "--sizes", "4.5", "4.5",
             "int"),
            (("convergence", "--n", 6, "--p", 1, "--t2-ratios", "1e3,x"), "--t2-ratios",
             "1e3,x", "x", "float"),
            (("convergence", "--n", 6, "--p", 1, "--t2-ratios", ""), "--t2-ratios", "", "",
             "float"),
            (("simulate", "--graph", gpath, "--schedule", pdpt, "--gammas", "0.1,",
              "--betas", 0.2), "--gammas", "0.1,", "", "float"),
            (("convergence", "--n", 6, "--p", 1, "--gammas", 0.1, "--betas", "0.2.3"),
             "--betas", "0.2.3", "0.2.3", "float")):
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {flag}: {item!r} in {text!r} is not a valid {kind}\n")
        assert not out.exists()


def test_gate_time_checked_without_noise(tmp_path, capsys):
    # --t2 inf turns the noise off and still builds a NoiseParams, which checks T_G:
    # positive, and finite, or every cut would be NaN
    gpath, pdpt = _p1_schedule(tmp_path)
    obs = tmp_path / "obs.json"
    capsys.readouterr()
    for t_gate, message in ((-1, "t1, t2, t_gate must be positive"),
                            ("inf", "t_gate must be finite")):
        assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt, "--t2", "inf",
                       "--t-gate", t_gate, "--realizations", 2, "--out", obs) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not obs.exists()


def test_times_checked_before_the_solve(tmp_path, capsys, monkeypatch):
    # a NaN or infinite time fails in one line before any restart runs, in solve
    # and in bench, rather than printing a NaN wall time or writing it to the CSV,
    # and so does a bad noise level in convergence, before its pre-optimization
    gpath = tmp_path / "g.txt"
    run_cli("gen", "--n", 4, "--seed", 1, "--out", gpath)
    for name in ("solve_instance", "solve_instances"):         # any solve would raise
        monkeypatch.setattr(f"qaoabench.cli.{name}", None)
    out = tmp_path / "out"
    capsys.readouterr()
    for flag, value in (("--t-prep-plus-meas", "nan"), ("--t-prep-plus-meas", "inf"),
                        ("--t-gate", "nan")):
        for argv in (("solve", "--graph", gpath), ("bench", "--sizes", 4)):
            assert run_cli(*argv, "--p", 1, flag, value, "--out", out) == 1
            name = flag[2:].replace("-", "_")
            assert capsys.readouterr().err == f"error: {name} must be finite and positive, " \
                                              f"got {value}\n"
            assert not out.exists()
    for flag, value, message in (("--t-gate", "inf", "t_gate must be finite"),
                                 ("--t2-ratios", "500,-5", "t1, t2, t_gate must be positive")):
        assert run_cli("convergence", "--graph", gpath, "--p", 1, flag, value,
                       "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_cli_surface(capsys):
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    options = {name: [opt for action in sp._actions for opt in action.option_strings
                      if opt not in ("-h", "--help")]
               for name, sp in subs.choices.items()}
    assert sum(len(opts) for opts in options.values()) == 59
    # one task list spreads a bench's restarts over the CPUs; no flag picks the workers
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bench", "--sizes", "4", "--out", "o", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    for name, opts in options.items():
        assert "--t1" not in opts and "--noiseless" not in opts, name
    # the noise is --t2 alone: T1 = 2 T2 and --t2 inf turns it off
    required = {"simulate": ("--graph", "g", "--schedule", "s", "--out", "o"),
                "solve": ("--graph", "g", "--out", "o"),
                "bench": ("--sizes", "4", "--out", "o")}
    for name, argv in required.items():
        assert "--t2" in options[name]
        assert build_parser().parse_args([name, *argv, "--t2", "inf"]).t2 == float("inf")
        for flag in (("--t1", "2e-4"), ("--noiseless",)):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([name, *argv, *flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_debug_reraises_errors(tmp_path, capsys):
    argv = ("gen", "--n", 7, "--out", tmp_path / "x.txt")
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "even n >= 4" in err and "Traceback" not in err
    with pytest.raises(ValueError, match="even n >= 4"):
        run_cli("--debug", *argv)


def test_published_pdpt_feeds_simulate(tmp_path, app_b_graph):
    from qaoabench.graphs import write_graph

    gpath = tmp_path / "appb.txt"
    gpath.write_text(write_graph(app_b_graph))
    pdpt = tmp_path / "appb.pdpt"
    pdpt.write_text(APP_B_PDPT)
    obs = tmp_path / "obs.json"
    assert run_cli("simulate", "--graph", gpath, "--schedule", pdpt,
                   "--gammas", "0.4,0.4,0.4,0.4", "--betas", "0.3,0.3,0.3,0.3",
                   "--realizations", 8, "--seed", 0, "--out", obs) == 0
    assert 0.0 < json.loads(obs.read_text())["mean_cut"] <= 12.0


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_cli_import_makes_blas_single_threaded(preset, expected):
    # a fresh interpreter: importing the CLI sets the BLAS thread count to 1 before
    # numpy loads (BLAS reads it only then), and keeps a value the user set; a
    # meta path finder records the variables at the moment numpy is first looked up
    src = str(Path(qaoabench.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append([os.environ.get(v) for v in\n"
        "                         ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')])\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import qaoabench.cli\n"
        "print(*seen[0])\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == [expected, "1"]


def test_stage_imports_leave_out_scipy_stats():
    # a fresh interpreter: importing the solver and the CLI must not pull in
    # scipy.stats, which costs about a second and 70 MB
    src = str(Path(qaoabench.__file__).resolve().parents[1])
    code = ("import sys, qaoabench.optimizer, qaoabench.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"
