"""Golden record: outputs that a change must not move unless it says so.

``tests/golden/`` holds:

- ``table1.json``: ``experiment-table1 --seed 0 --seeds 5`` (the session
  fixture ``table1``) and its manifest's oracle calls and entries touched.
- ``table1_plots/``: the 15 plot CSVs of that run, as written: per graph, the
  three density curves, the eigenvalue histogram and the moment curves.
- ``hc14_session.json``: a CLI session on the 14-bit hypercube, the commands
  of the ``estimate-hc14`` benchmark workload at seed 0. It holds both
  densities (``estimate --method hutchinson``, and ``--method graph-amv`` at
  ``--samples-per-matvec 211026``, 0.92 nnz), their manifests' counts and
  both ``eval`` reports.
- ``hc14_optimal.txt``: ``discretize --method optimal`` of that session's
  Hutchinson density, one value per line.

Integers, strings and flags must match exactly, and so must CSV headers and
row counts. Floats are compared at
``FLOAT_ATOL``, and each test prints its largest deviation. A change that
moves an output on purpose rewrites the record with
``OPENBLAS_NUM_THREADS=1 python tests/test_golden.py``, the BLAS setting CI
and the benchmark run with, and names every moved field in CHANGES.md.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from specden.cli import main

from conftest import run_table1

GOLDEN = Path(__file__).resolve().parent / "golden"
PLOTS = GOLDEN / "table1_plots"
#: The Hutchinson sweeps take BLAS ``dot``, whose kernel can round differently
#: on another CPU or with another thread count (two threads here move the
#: hypercube-14 coefficients by ~1e-15 and the optimal discretization by ~6e-12).
#: One flipped rounding can move a greedy-discretized value by
#: one 0.005 cell, which moves a W1 by 0.005/n: 5e-6 on the n = 1000 graphs,
#: less on the others. A changed random stream moves these W1 values by 1e-3
#: or more, and a changed entry count moves a per-call mean by 1e-3 or more.
FLOAT_ATOL = 1e-5
HC14_BUDGET = 211026  # ceil(0.92 nnz), the budget table1's search picks at seed 0


def _largest_deviation(expected, actual, where="") -> float:
    """Largest float deviation between two JSON values; anything that is not
    a float must be equal."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and expected.keys() == actual.keys(), where
        return max((_largest_deviation(expected[k], actual[k], f"{where}.{k}")
                    for k in expected), default=0.0)
    if isinstance(expected, list):
        assert isinstance(actual, list) and len(expected) == len(actual), where
        return max((_largest_deviation(e, a, f"{where}[{i}]")
                    for i, (e, a) in enumerate(zip(expected, actual))), default=0.0)
    if isinstance(expected, float):
        assert isinstance(actual, float), (where, actual)
        return abs(expected - actual)
    assert type(expected) is type(actual) and expected == actual, (where, expected, actual)
    return 0.0


def _check(name, expected, actual):
    deviation = _largest_deviation(expected, actual, name)
    print(f"\n[golden {name}] largest float deviation {deviation:.3g} "
          f"(tolerance {FLOAT_ATOL:g})")
    assert deviation <= FLOAT_ATOL, (name, deviation)


def _manifest_counts(path):
    manifest = json.loads(Path(path).read_text())
    return {key: manifest[key] for key in ("oracle_calls", "entries_touched")}


def table1_record(results, out_dir):
    return {"table1": results, "manifest": _manifest_counts(out_dir / "manifest.json")}


def _read_csv(path):
    """A CSV's header and its rows, each cell an int when it reads as one
    and a float otherwise."""
    header, *lines = Path(path).read_text().splitlines()
    rows = [[int(cell) if cell.lstrip("-").isdigit() else float(cell)
             for cell in line.split(",")] for line in lines]
    return {"header": header, "rows": rows}


def hc14_session(work):
    """Run the hypercube-14 session in ``work``. Returns (record, optimal
    discretization values)."""
    work = Path(work)
    graph, truth = work / "hc14.txt", work / "hc14_spectrum.txt"

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("graph-gen", "--kind", "hypercube", "--bits", 14, "--output", graph,
        "--truth-output", truth)
    record = {}
    common = ("--degree", 80, "--ell", 2, "--seed", 0)
    for method, extra in (("hutchinson", ()),
                          ("graph-amv", ("--samples-per-matvec", HC14_BUDGET))):
        density = work / f"{method}.json"
        report = work / f"eval_{method}.json"
        run("estimate", graph, "--method", method, *common, *extra, "--output", density)
        run("eval", "--density", density, "--truth", truth, "--output", report)
        evaluation = json.loads(report.read_text())
        record[method] = {
            "density": json.loads(density.read_text()),
            "manifest": _manifest_counts(f"{density}.manifest.json"),
            # the paths of the inputs are the run's own
            "eval": {k: v for k, v in evaluation.items() if k not in ("density", "truth")},
        }
    optimal = work / "optimal.txt"
    run("discretize", "--density", work / "hutchinson.json", "-n", 16384,
        "--method", "optimal", "--output", optimal)
    return record, np.loadtxt(optimal)


@pytest.fixture(scope="module")
def hc14(tmp_path_factory):
    return hc14_session(tmp_path_factory.mktemp("hc14"))


def test_table1(table1):
    results, _, out_dir = table1
    expected = json.loads((GOLDEN / "table1.json").read_text())
    _check("table1", expected, table1_record(results, out_dir))


def test_table1_plots(table1):
    _, _, out_dir = table1
    names = sorted(path.name for path in PLOTS.glob("*.csv"))
    assert len(names) == 15
    assert sorted(path.name for path in out_dir.glob("*.csv") if path.name != "table1.csv") == names
    _check("table1_plots", {name: _read_csv(PLOTS / name) for name in names},
           {name: _read_csv(out_dir / name) for name in names})


def test_hc14_session(hc14):
    record, _ = hc14
    expected = json.loads((GOLDEN / "hc14_session.json").read_text())
    _check("hc14_session", expected, record)


def test_hc14_optimal_discretization(hc14):
    _, values = hc14
    expected = np.loadtxt(GOLDEN / "hc14_optimal.txt")
    assert values.shape == expected.shape
    _check("hc14_optimal", expected.tolist(), values.tolist())


def write_record():
    """Rewrite ``tests/golden/`` from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "table1").mkdir()
        results, _ = run_table1(tmp / "table1")
        (tmp / "hc14").mkdir()
        record, values = hc14_session(tmp / "hc14")
        (GOLDEN / "table1.json").write_text(
            json.dumps(table1_record(results, tmp / "table1"), indent=1) + "\n")
        shutil.rmtree(PLOTS, ignore_errors=True)
        PLOTS.mkdir()
        for path in (tmp / "table1").glob("*.csv"):
            if path.name != "table1.csv":
                shutil.copy(path, PLOTS)
    (GOLDEN / "hc14_session.json").write_text(json.dumps(record, indent=1) + "\n")
    (GOLDEN / "hc14_optimal.txt").write_text("\n".join(map(repr, values.tolist())) + "\n")


if __name__ == "__main__":
    write_record()
