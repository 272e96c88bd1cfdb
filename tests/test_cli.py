import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy

import specden
from specden import (
    DensityEstimate,
    DiscreteSpectrum,
    discretize_optimal,
    generate_graph,
    idealized_kpm,
    jackson_coefficients,
    moments_from_spectrum,
    w1_density_vs_spectrum,
)
from specden import cli
from specden.cli import SEARCH_FRACTIONS, main
from specden.moments import MomentVector


@pytest.fixture()
def small_graph(tmp_path):
    graph, truth = generate_graph("clique-plus-matching", n=40)
    gpath = tmp_path / "graph.txt"
    tpath = tmp_path / "truth.txt"
    from specden import save_graph

    save_graph(graph, gpath)
    truth.save_text(tpath)
    return gpath, tpath, truth


def test_graph_gen_and_estimate_pipeline(tmp_path):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    assert main(["graph-gen", "--kind", "hairy-clique", "-n", "20",
                 "--output", str(gpath), "--truth-output", str(spath)]) == 0
    assert gpath.exists() and spath.exists()

    dpath = tmp_path / "density.json"
    assert main(["estimate", str(gpath), "--method", "hutchinson", "--degree", "16",
                 "--ell", "2", "--seed", "7", "--output", str(dpath)]) == 0
    density = DensityEstimate.from_json(dpath.read_text())
    assert density.degree == 16

    manifest = json.loads((tmp_path / "density.json.manifest.json").read_text())
    assert manifest["oracle_calls"] == 16 * 2 // 2  # exact matvecs: N/2 per probe
    assert manifest["config"]["method"] == "hutchinson"
    assert manifest["seeds"]["seed"] == 7

    rpath = tmp_path / "report.json"
    assert main(["eval", "--density", str(dpath), "--truth", str(spath),
                 "--disc-eps", "0.05", "--output", str(rpath)]) == 0
    report = json.loads(rpath.read_text())
    assert 0.0 <= report["w1_density_vs_truth"] <= 2.0
    assert 0.0 <= report["w1_discretized_vs_truth"] <= 2.0


def test_estimate_is_byte_deterministic(small_graph, tmp_path):
    gpath, _, _ = small_graph
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["estimate", str(gpath), "--method", "hutchinson", "--degree", "12",
                     "--ell", "2", "--seed", "3", "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_exact_method(small_graph, tmp_path):
    gpath, tpath, truth = small_graph
    dpath = tmp_path / "exact.json"
    assert main(["estimate", str(gpath), "--method", "exact", "--degree", "16",
                 "--output", str(dpath)]) == 0
    density = DensityEstimate.from_json(dpath.read_text())
    assert density.metadata["construction"] == "idealized"
    manifest = json.loads((tmp_path / "exact.json.manifest.json").read_text())
    assert manifest["oracle_calls"] == 40 * 16 // 2  # N/2 per basis column


def test_estimate_exact_method_on_dense_input(tmp_path):
    # dense text is held densely and takes one eigensolve with no oracle
    # calls; Matrix Market is held as CSR and takes the N/2-per-column sweep
    diagonal = [0.5, -0.25, 0.75]
    dense, mm = tmp_path / "m.txt", tmp_path / "m.mtx"
    np.savetxt(dense, np.diag(diagonal))
    mm.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n"
                  + "".join(f"{i} {i} {v}\n" for i, v in enumerate(diagonal, start=1)))
    calls, coefficients = {}, {}
    for path in (dense, mm):
        out = tmp_path / f"{path.suffix[1:]}.json"
        assert main(["estimate", str(path), "--method", "exact", "--degree", "16",
                     "--output", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        calls[path.suffix] = manifest["oracle_calls"]
        coefficients[path.suffix] = DensityEstimate.from_json(out.read_text()).series.coefficients
    assert calls == {".txt": 0, ".mtx": 3 * 16 // 2}
    np.testing.assert_allclose(coefficients[".txt"], coefficients[".mtx"], rtol=0, atol=1e-12)


def _fresh_interpreter(*args, cwd=None):
    """Run ``python *args`` in a new process that imports this checkout's specden."""
    src = str(Path(specden.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    done = _fresh_interpreter("-m", "specden", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: specden")


# Runs the CLI on its arguments (none: only imports specden), then prints
# which of scipy's sparse modules the process loaded as its last line.
LOADED_SPARSE_MODULES = """
import json, sys
import specden
if sys.argv[1:]:
    from specden.cli import main
    assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in ("scipy.io", "scipy.sparse") if m in sys.modules)))
"""


@pytest.fixture()
def start_up_inputs(tmp_path):
    """A small dense text matrix, its density and spectrum, a graph and a
    Matrix Market file, written in this process."""
    dense = np.array([[0.5, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 0.1]])
    np.savetxt(tmp_path / "m.txt", dense)
    DiscreteSpectrum(np.linalg.eigvalsh(dense)).save_text(tmp_path / "m_spectrum.txt")
    assert main(["estimate", str(tmp_path / "m.txt"), "--method", "exact", "--degree", "8",
                 "--output", str(tmp_path / "m_density.json")]) == 0
    from specden import save_graph

    save_graph(generate_graph("hypercube", bits=3)[0], tmp_path / "g.txt")
    (tmp_path / "m.mtx").write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                                    "2 2 2\n1 1 0.5\n2 2 -0.25\n")
    return tmp_path


@pytest.mark.parametrize("argv, loads", [
    ([], []),
    (["eval", "--density", "m_density.json", "--truth", "m_spectrum.txt"], []),
    (["discretize", "--density", "m_density.json", "-n", "3", "--method", "optimal",
      "--output", "eigs.txt"], []),
    (["estimate", "m.txt", "--method", "exact", "--degree", "8", "--output", "e.json"], []),
    (["estimate", "m.txt", "--method", "hutchinson", "--degree", "8", "--output", "h.json"],
     []),
    # positive controls: a sparse build loads scipy.sparse, an .mtx read scipy.io
    (["graph-gen", "--kind", "hypercube", "--bits", "3", "--output", "gen.txt"],
     ["scipy.sparse"]),
    (["estimate", "g.txt", "--method", "hutchinson", "--degree", "8", "--output", "g.json"],
     ["scipy.sparse"]),
    (["estimate", "m.mtx", "--method", "exact", "--degree", "8", "--output", "mm.json"],
     ["scipy.io", "scipy.sparse"]),
], ids=["import", "eval", "discretize-optimal", "dense-exact", "dense-hutchinson",
        "graph-gen", "graph-estimate", "mtx-estimate"])
def test_scipy_sparse_loads_only_with_a_sparse_input(argv, loads, start_up_inputs):
    # dense inputs, eval and discretize build no sparse matrix, so a fresh
    # process that runs one of them never pays for importing scipy.sparse
    done = _fresh_interpreter("-c", LOADED_SPARSE_MODULES, *argv, cwd=start_up_inputs)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == loads


def test_estimate_graph_amv_with_tuned_budget(small_graph, tmp_path, monkeypatch):
    gpath, tpath, truth = small_graph
    dpath = tmp_path / "amv.json"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["estimate", str(gpath), "--method", "graph-amv", "--degree", "12",
                 "--ell", "2", "--seed", "1", "--samples-per-matvec", "400",
                 "--output", str(dpath)]) == 0
    manifest = json.loads((tmp_path / "amv.json.manifest.json").read_text())
    assert manifest["oracle_calls"] == 12 * 2
    assert manifest["entries_touched"] > 0
    assert manifest["config"]["samples_per_matvec"] == 400
    # the BLAS thread count moves the last bits of summed products
    assert manifest["environment"] == {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}


def test_moments_command(small_graph, tmp_path):
    gpath, _, _ = small_graph
    mpath = tmp_path / "moments.json"
    assert main(["moments", str(gpath), "--method", "hutchinson", "--degree", "8",
                 "--ell", "3", "--seed", "11", "--output", str(mpath)]) == 0
    mv = MomentVector.from_json(mpath.read_text())
    assert mv.degree == 8 and mv.ell == 3 and mv.provenance == "hutchinson"


def test_moments_manifest_matches_estimate(small_graph, tmp_path):
    gpath, _, _ = small_graph
    flags = ["--method", "graph-amv", "--degree", "8", "--ell", "2", "--seed", "4",
             "--samples-per-matvec", "60"]
    manifests = {}
    for command in ("estimate", "moments"):
        out = tmp_path / f"{command}.json"
        assert main([command, str(gpath), *flags, "--output", str(out)]) == 0
        manifests[command] = json.loads((tmp_path / f"{command}.json.manifest.json").read_text())
    est, mom = manifests["estimate"], manifests["moments"]
    assert (est["command"], mom["command"]) == ("estimate", "moments")
    assert mom["outputs"] == {"moments": str(tmp_path / "moments.json")}
    for key in ("config", "seeds", "inputs", "oracle_calls", "entries_touched"):
        assert mom[key] == est[key], key
    assert mom["oracle_calls"] == 8 * 2


def test_discretize_command(small_graph, tmp_path):
    gpath, tpath, truth = small_graph
    dpath = tmp_path / "d.json"
    main(["estimate", str(gpath), "--method", "exact", "--degree", "16",
          "--output", str(dpath)])
    spath = tmp_path / "eigs.txt"
    assert main(["discretize", "--density", str(dpath), "-n", "40",
                 "--method", "greedy", "--eps", "0.1", "--output", str(spath)]) == 0
    assert DiscreteSpectrum.load_text(spath).n == 40
    jpath = tmp_path / "eigs.json"
    assert main(["discretize", "--density", str(dpath), "-n", "10",
                 "--method", "optimal", "--output", str(jpath)]) == 0
    assert DiscreteSpectrum.from_json(jpath.read_text()).n == 10


def test_eval_csv_report_matches_json(small_graph, tmp_path):
    gpath, tpath, _ = small_graph
    dpath = tmp_path / "d.json"
    main(["estimate", str(gpath), "--method", "exact", "--degree", "16",
          "--output", str(dpath)])
    flags = ["eval", "--density", str(dpath), "--truth", str(tpath), "--disc-eps", "0.05"]
    assert main(flags + ["--output", str(tmp_path / "report.json")]) == 0
    assert main(flags + ["--output", str(tmp_path / "report.csv")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    header, *rows = (tmp_path / "report.csv").read_text().splitlines()
    assert header == "metric,value"
    values = dict(row.split(",") for row in rows)
    assert values.keys() == {"w1_density_vs_truth", "w1_discretized_vs_truth"}
    for metric, value in values.items():
        assert float(value) == report[metric]


class TestExitCodes:
    def test_missing_input_is_2(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.txt"), "--degree", "8",
                     "--output", str(tmp_path / "o.json")]) == 2

    def test_malformed_graph_is_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        out = tmp_path / "o.json"
        # a self loop, and a weighted edge list whose weights would be dropped
        for text in ("5 1\n1 1\n", "3 2\n1 2 5\n2 3 7\n"):
            bad.write_text(text)
            assert main(["estimate", str(bad), "--format", "graph", "--degree", "8",
                         "--output", str(out)]) == 2
            assert not out.exists()

    def test_amv_on_matrix_is_3(self, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("0.5 0.0\n0.0 -0.5\n")
        assert main(["estimate", str(mat), "--method", "graph-amv", "--degree", "8",
                     "--output", str(tmp_path / "o.json")]) == 3

    def test_missing_degree_is_3(self, small_graph, tmp_path):
        gpath, _, _ = small_graph
        assert main(["estimate", str(gpath), "--output", str(tmp_path / "o.json")]) == 3

    def test_bad_degree_is_3(self, small_graph, tmp_path):
        gpath, _, _ = small_graph
        assert main(["estimate", str(gpath), "--degree", "10",
                     "--output", str(tmp_path / "o.json")]) == 3

    def test_unnormalized_matrix_is_3(self, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("3.0 0.0\n0.0 -1.0\n")
        assert main(["estimate", str(mat), "--degree", "8",
                     "--output", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("budget_flags", [[]], ids=["neither"])
    def test_amv_needs_exactly_one_budget_flag(self, budget_flags, small_graph,
                                               tmp_path, capsys):
        gpath, _, _ = small_graph
        out = tmp_path / "o.json"
        assert main(["estimate", str(gpath), "--method", "graph-amv", "--degree", "8",
                     *budget_flags, "--output", str(out)]) == 3
        assert not out.exists()
        assert "--samples-per-matvec" in capsys.readouterr().err

    def test_exact_method_on_out_of_range_matrix_is_3(self, tmp_path):
        # the spectral-norm check refuses it before the eigensolve would
        mat = tmp_path / "m.txt"
        mat.write_text("1.5 0.0\n0.0 0.5\n")
        out = tmp_path / "o.json"
        assert main(["estimate", str(mat), "--method", "exact", "--degree", "8",
                     "--output", str(out)]) == 3
        assert not out.exists()

    def test_greedy_without_eps_is_3(self, small_graph, tmp_path):
        gpath, _, _ = small_graph
        dpath = tmp_path / "d.json"
        main(["estimate", str(gpath), "--method", "exact", "--degree", "8",
              "--output", str(dpath)])
        assert main(["discretize", "--density", str(dpath), "-n", "5",
                     "--method", "greedy", "--output", str(tmp_path / "s.txt")]) == 3

    @pytest.mark.parametrize("argv", [
        ["experiment-table1", "--seeds", "0", "--output", "{out}"],
        ["experiment-table1", "--seeds", "1", "--samples-per-matvec", "0",
         "--output", "{out}"],
        ["experiment-table1", "--seed", "-1", "--seeds", "1", "--samples-per-matvec", "100",
         "--output", "{out}"],
        ["estimate", "{graph}", "--method", "graph-amv", "--degree", "8",
         "--samples-per-matvec", "0", "--output", "{out}"],
        ["estimate", "{graph}", "--degree", "8", "--seed", "-1", "--output", "{out}"],
        ["eval", "--density", "{density}", "--truth", "{truth}", "--disc-eps", "2"],
        ["discretize", "--density", "{density}", "-n", "0", "--eps", "0.1",
         "--output", "{out}"],
    ], ids=["seeds", "table1-samples-per-matvec", "table1-seed", "samples-per-matvec",
            "estimate-seed", "disc-eps", "discretize-n"])
    def test_bad_count_is_3(self, argv, small_graph, tmp_path):
        gpath, tpath, _ = small_graph
        dpath = tmp_path / "d.json"
        main(["estimate", str(gpath), "--method", "exact", "--degree", "8",
              "--output", str(dpath)])
        out = tmp_path / "out"
        paths = {"graph": gpath, "truth": tpath, "density": dpath, "out": out}
        assert main([arg.format(**paths) for arg in argv]) == 3
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["estimate", "{graph}", "--eps", "0"],
        ["estimate", "{graph}", "--method", "hutchinson", "--degree", "8",
         "--samples-per-matvec", "60"],
        ["moments", "{graph}", "--method", "exact", "--degree", "8",
         "--samples-per-matvec", "60"],
        ["estimate", "{graph}", "--degree", "8", "--auto-scale"],
    ], ids=["eps-zero", "hutchinson-samples-per-matvec", "moments-exact-samples-per-matvec",
            "graph-auto-scale"])
    def test_bad_accuracy_flag_is_3(self, argv, small_graph, tmp_path, capsys):
        gpath, _, _ = small_graph
        paths = {"graph": gpath}
        out = tmp_path / "o.json"
        assert main([arg.format(**paths) for arg in argv] + ["--output", str(out)]) == 3
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_graph_gen_unknown_kind_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["graph-gen", "--kind", "from-file", "--output", str(tmp_path / "g.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--disc-eps", "0.01"], ["--grid-points", "64"]],
                             ids=["disc-eps", "grid-points"])
    def test_table1_fixed_setting_is_a_usage_error(self, flags, tmp_path, capsys):
        # table1 scores at greedy eps TABLE1_DISC_EPS and plots 512-point curves
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["experiment-table1", "--seeds", "1", *flags, "--output", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert flags[0] in capsys.readouterr().err

    def test_eval_grid_points_is_a_usage_error(self, small_graph, tmp_path):
        # the W1 score has no resolution to set: its crossings are CDF roots
        _, tpath, _ = small_graph
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--density", str(tmp_path / "d.json"), "--truth", str(tpath),
                  "--grid-points", "10000"])
        assert exc.value.code == 2

    def test_eps_with_degree_is_a_usage_error(self, small_graph, tmp_path, capsys):
        # the degree would win, and the manifest would record an eps the run
        # did not use
        gpath, _, _ = small_graph
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(gpath), "--eps", "0.5", "--degree", "8",
                  "--output", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["estimate", "{binary}", "--degree", "8", "--output", "{out}"], 2),
        (["eval", "--density", "{density}", "--truth", "{dir}"], 2),
        (["eval", "--density", "{density}", "--truth", "{binary}"], 2),
        (["estimate", "{missing}", "--degree", "8", "--output", "{out}"], 2),
        (["estimate", "{graph}", "--degree", "10", "--output", "{out}"], 3),
    ], ids=["estimate-not-utf8", "eval-truth-directory", "eval-truth-not-utf8",
            "missing-input", "bad-degree"])
    def test_process_exit_code_without_traceback(self, argv, code, small_graph, tmp_path):
        gpath, _, _ = small_graph
        dpath = tmp_path / "d.json"
        assert main(["estimate", str(gpath), "--method", "exact", "--degree", "8",
                     "--output", str(dpath)]) == 0
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe\x00\x81 not text\n")
        (tmp_path / "dir").mkdir()
        out = tmp_path / "o.json"
        paths = {"binary": binary, "density": dpath, "dir": tmp_path / "dir",
                 "missing": tmp_path / "nope.txt", "graph": gpath, "out": out}
        done = _fresh_interpreter("-m", "specden", *[arg.format(**paths) for arg in argv])
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("input error:" if code == 2 else "config error:")
        assert not out.exists()

    def test_hypercube_zero_bits_is_3(self, tmp_path):
        assert main(["graph-gen", "--kind", "hypercube", "--bits", "0",
                     "--output", str(tmp_path / "g.txt")]) == 3

    @pytest.mark.parametrize("flags", [
        ["--eps-mv", "0.5"], ["--delta", "0.1"], ["--ell", "auto"],
    ], ids=["eps-mv", "delta", "ell-auto"])
    def test_retired_accuracy_flag_is_a_usage_error(self, flags, small_graph, tmp_path,
                                                    capsys):
        # the worst-case boosted sampler and the theory repetition count
        # never ran on an input this CLI accepts
        gpath, _, _ = small_graph
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(gpath), "--method", "exact", "--degree", "8", *flags,
                  "--output", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert flags[0] in capsys.readouterr().err


def test_auto_scale_records_factor(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("3.0 0.0\n0.0 -1.0\n")
    out = tmp_path / "o.json"
    assert main(["estimate", str(mat), "--degree", "8", "--auto-scale",
                 "--output", str(out)]) == 0
    manifest = json.loads((tmp_path / "o.json.manifest.json").read_text())
    factor = manifest["config"]["scale_factor"]
    assert factor == pytest.approx(1.0 / (3.0 * 1.05), rel=1e-4)


def test_density_vs_own_optimal_discretization():
    # a fine quantile discretization of a density nearly reproduces it
    rng = np.random.default_rng(77)
    mv = moments_from_spectrum(rng.uniform(-1, 1, 60), 40)
    q = idealized_kpm(mv, jackson_coefficients(40))
    own = discretize_optimal(q, 10_000)
    assert w1_density_vs_spectrum(q, own) <= 2e-4


def test_matrix_market_estimate(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n"
        "1 1 0.5\n"
        "2 2 -0.25\n"
        "3 3 0.75\n")
    out = tmp_path / "o.json"
    assert main(["estimate", str(path), "--method", "exact", "--degree", "8",
                 "--output", str(out)]) == 0
    q = DensityEstimate.from_json(out.read_text())
    assert q.integrate(-1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("on_par_from", [0, 1, None], ids=["first", "second", "never"])
def test_budget_search_probes_below_the_cap_only(on_par_from, monkeypatch):
    # a stub run scores 0 from the on-par budget on and 1 below it
    graph, truth = generate_graph("clique-plus-matching", n=40)
    budgets = [math.ceil(frac * graph.nnz) for frac in SEARCH_FRACTIONS]
    probed = []

    def run(graph, truth, coeffs, t, seed, spent):
        probed.append(t)
        spent["calls"] += 7
        spent["entries"] += 5
        on_par = on_par_from is not None and t >= budgets[on_par_from]
        return 0.0 if on_par else 1.0, 5 / 7, None

    monkeypatch.setattr(cli, "_approx_run", run)
    spent = Counter()
    chosen = cli._tune_samples(graph, truth, jackson_coefficients(8), 0, 0.01, spent)
    steps = len(SEARCH_FRACTIONS) - 1 if on_par_from is None else on_par_from + 1
    assert chosen == budgets[-1 if on_par_from is None else on_par_from]
    assert probed == [t for t in budgets[:steps] for _ in range(2)]
    assert spent == {"calls": 7 * 2 * steps, "entries": 5 * 2 * steps}


def test_experiment_table1_fixed_budget(tmp_path):
    # --samples-per-matvec skips the budget search on every graph
    out = tmp_path / "table1"
    assert main(["experiment-table1", "--seeds", "1", "--samples-per-matvec", "2000",
                 "--output", str(out)]) == 0
    rows = json.loads((out / "table1.json").read_text())
    assert len(rows) == len(cli.TABLE1_GRAPHS)
    assert all(row["samples_per_matvec"] == 2000 for row in rows.values())
