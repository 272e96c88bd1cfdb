"""The benchmark's three workloads: their inputs, one operation, and its gate.

Each workload makes its inputs from the run seed in ``setup``. The runner
times ``op`` as one operation's latency and then calls ``check`` on what it
returned, which applies the workload's correctness gate and extracts the
accuracy values. Library functions are always reached through their module
(``spectrum.dense_eigenvalues``), so the probe's hooks see every call.

Operation ``i`` of a run with seed ``s`` uses the seed ``s + 7919 * i``, so the
first operation of a run is the one the seed names. Every run completes at
least a workload's ``scored_ops`` operations, and its accuracy and count
metrics come from those alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specden import cli, density, graphs, jackson, moments, oracles, spectrum
from specden.moments import MomentVector

OP_SEED_STRIDE = 7919
DISC_EPS = 0.005  # the greedy grid that table1 and ``eval`` score with


def op_seed(seed: int, index: int) -> int:
    return seed + OP_SEED_STRIDE * index


@dataclass
class Outcome:
    """One checked operation: gate verdict, accuracy values, stage latencies."""

    ok: bool
    reason: str = ""
    accuracy: dict = field(default_factory=dict)  # metric name -> values
    stages: dict = field(default_factory=dict)  # metric name -> latencies (s)
    manifest: dict = field(default_factory=dict)  # what the run's manifests record
    approx_misses: int = 0  # table1 graphs whose approx median exceeds 0.12


def run_cli(argv) -> tuple[int, str]:
    """One in-process ``specden`` command; returns (exit code, its stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse exits on a malformed command line
        code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def random_spectrum_matrix(n: int, rng: np.random.Generator) -> oracles.SymmetricMatrix:
    """Uniform spectrum on [-1, 1] conjugated by a QR-random orthogonal basis."""
    lam = np.sort(rng.uniform(-1.0, 1.0, n))
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return oracles.SymmetricMatrix.from_dense((basis * lam) @ basis.T)


def _timed(sink: list, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    sink.append(time.perf_counter() - start)
    return out


def _warm_up_graph_path() -> None:
    """First calls of the sparse and sampled matvec paths on a small graph."""
    graph, truth = graphs.generate_graph("hypercube", bits=6)
    mv = moments.hutchinson_moments(graphs.exact_graph_oracle(graph), 8, 1, 0)
    q = density.full_kpm(mv, jackson.jackson_coefficients(8))
    spectrum.w1_discrete(spectrum.discretize_greedy(q, truth.n, 0.05), truth)
    graphs.sampled_matvec(graph, np.ones(graph.n), 64, 0)


# ---------------------------------------------------------------------------

PAPER_IDEALIZED = {"cliquePlusMatching": 0.042, "hairyClique": 0.045, "hypercube": 0.029}
TABLE1_SEEDS = 5
TABLE1_PLOTS = ("density_idealized.csv", "eig_histogram.csv", "moments.csv")


class Table1:
    """One in-process ``specden experiment-table1 --seeds 5 --seed <seed>``.

    Why: the paper's headline experiment, with the budget doubling search.
    ``graphs.sampled_matvec`` does most of the work and the search alone about
    42%. It never calls ``dense_eigenvalues`` or ``discretize_optimal``.
    """

    name = "table1"
    # Each operation's budget search ends at a seed-dependent budget, so one
    # operation took 18-34 s between seeds; a run pools two searches.
    scored_ops = 2

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.out = work / "table1"
        _warm_up_graph_path()

    def op(self, index: int):
        code, _ = run_cli(["experiment-table1", "--seeds", TABLE1_SEEDS,
                           "--seed", op_seed(self.seed, index), "--output", self.out])
        return code

    def check(self, code, facts) -> Outcome:
        """The acceptance suite's criterion-9 gates, at this operation's seed,
        except ``approx_w1_median <= 0.12``, which is counted, not gated: the
        sampled column is randomized at an empirically tuned budget and misses
        0.12 at some seeds (hairyClique 0.1236 at seed 4)."""
        if code != 0:
            return Outcome(False, f"experiment-table1 exited with {code}")
        results = json.loads((self.out / "table1.json").read_text())
        manifest = json.loads((self.out / "manifest.json").read_text())
        problems = []
        for label, paper in PAPER_IDEALIZED.items():
            row = results[label]
            if abs(row["idealized_w1"] - paper) > 0.02:
                problems.append(f"{label} idealized {row['idealized_w1']:.4f} vs paper {paper}")
            if row["hutchinson_w1_median"] > 0.12:
                problems.append(f"{label} hutchinson {row['hutchinson_w1_median']:.4f} > 0.12")
            if row["entries_fraction_of_nnz"] >= 1.0:
                problems.append(f"{label} touches {row['entries_fraction_of_nnz']:.3f} of nnz")
            problems += [f"missing {label}_{s}" for s in TABLE1_PLOTS
                         if not (self.out / f"{label}_{s}").exists()]
        hist = (self.out / "hypercube_eig_histogram.csv").read_text().splitlines()
        masses = np.array([[float(v) for v in line.split(",")[2:]] for line in hist[1:]])
        if not np.allclose(masses.sum(axis=0), 1.0, atol=1e-9):
            problems.append("hypercube histogram masses do not sum to 1")

        # The exact Hutchinson calls do the same work at every seed on every
        # graph; they run graph by graph, seed by seed. estimate_s is one
        # seed's estimates of all three graphs: hypercube-14's calls alone
        # varied by ~20% between runs, the two n=1000 graphs' by ~4%.
        hutch = [s for s, _ in facts.stage_s["moments.hutchinson_moments"]]
        per_seed = [sum(hutch[k::TABLE1_SEEDS]) for k in range(TABLE1_SEEDS)]
        # The other stage latencies and the approximate column's W1 come from
        # the largest graph (hypercube-14) at its largest budget: its search
        # runs the same fractions at every seed, so these calls do the same
        # work, while the other graphs' budgets change with the seed.
        big = max(n for n, _, _ in facts.approx_runs)
        top = max(t for n, t, _ in facts.approx_runs if n == big)

        def on_big(stage, budget=None):
            return [s for s, (n, t) in facts.stage_s[stage]
                    if n == big and (budget is None or t == budget)]

        # Means, not medians: a greedy call on hypercube-14 takes either about
        # 0.006 or 0.010 s, and a median jumps between the two.
        greedy = statistics.fmean(on_big("spectrum.discretize_greedy"))
        return Outcome(
            ok=not problems,
            reason="; ".join(problems),
            accuracy={
                "w1_idealized_dev_max": [max(abs(results[k]["idealized_w1"] - v)
                                             for k, v in PAPER_IDEALIZED.items())],
                "w1_hutchinson_max": [max(r["hutchinson_w1_median"]
                                          for r in results.values())],
                "w1_approx_p50": [w for n, t, w in facts.approx_runs if n == big and t == top],
                "w1_over_eps_max": [max(r["idealized_w1"] * r["degree"] / 18.0
                                        for r in results.values())],
            },
            stages={
                "estimate_s": per_seed,
                "estimate_amv_s": on_big("moments.approx_hutchinson_moments", top),
                "discretize_s": [greedy],
                "eval_s": [greedy + statistics.fmean(on_big("spectrum.w1_discrete"))],
            },
            manifest={"oracle_calls": manifest["oracle_calls"],
                      "entries_touched": manifest["entries_touched"]},
            approx_misses=sum(r["approx_w1_median"] > 0.12 for r in results.values()),
        )


# ---------------------------------------------------------------------------

COHORT_N = 200
COHORT_POOL = 8
COHORT_LEVELS = ((0.1, 180), (0.05, 360))  # (eps, degree 18/eps)
COHORT_STOCHASTIC_DEGREE = 180
COHORT_ELL = 2
# The W1 of one ell=2 estimate varies by ~40% between probe draws; pooling
# many per operation keeps a run's median steady.
COHORT_ESTIMATES = 24


class Cohort:
    """Random dense n=200 matrices with uniform spectra (criteria 2 and 8).

    Why: the dense eigensolver is most of an operation today; after it moves to
    LAPACK the weight moves to ``exact_moments`` and W1 scoring. No graph, no
    sampler, no budget search.
    """

    name = "cohort"
    scored_ops = 4  # matrices 0-3 of the pool

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pool = [random_spectrum_matrix(COHORT_N, rng) for _ in range(COHORT_POOL)]
        spectrum.dense_eigenvalues(np.diag([0.3, -0.2, 0.1]))
        small = random_spectrum_matrix(8, rng)
        mv = moments.exact_moments(oracles.exact_oracle(small), 8)
        q = density.idealized_kpm(mv, jackson.jackson_coefficients(8))
        spectrum.w1_density_vs_spectrum(q, spectrum.dense_eigenvalues(small))

    def op(self, index: int):
        """Criteria 2 and 8 on one matrix, then Hutchinson estimates and
        approximate-oracle estimates (noise 1/(2N^2) per call, same probes) of
        the same matrix at the first eps level."""
        matrix = self.pool[index % COHORT_POOL]
        seed = op_seed(self.seed, index)
        stages = defaultdict(list)
        truth = spectrum.dense_eigenvalues(matrix)

        start = time.perf_counter()
        top = max(degree for _, degree in COHORT_LEVELS)
        full = moments.exact_moments(oracles.exact_oracle(matrix), top)
        ideal = {}
        for eps, degree in COHORT_LEVELS:
            mv = full if degree == top else MomentVector(
                degree=degree, values=full.values[:degree], provenance="exact")
            ideal[eps] = density.idealized_kpm(mv, jackson.jackson_coefficients(degree))
        stages["estimate_s"].append(time.perf_counter() - start)

        start = time.perf_counter()
        w1 = {eps: spectrum.w1_density_vs_spectrum(q, truth) for eps, q in ideal.items()}
        stages["eval_s"].append(time.perf_counter() - start)
        w1_greedy = {eps: spectrum.w1_discrete(
            spectrum.discretize_greedy(q, COHORT_N, eps), truth) for eps, q in ideal.items()}

        # Stochastic estimates are scored like table1's columns: greedy
        # discretization on a fine grid, then W1 against the true spectrum.
        degree = COHORT_STOCHASTIC_DEGREE
        coeffs = jackson.jackson_coefficients(degree)
        w1_hutch, w1_approx = [], []
        for k in range(COHORT_ESTIMATES):
            probes = seed * COHORT_ESTIMATES + k
            hutch = density.full_kpm(moments.hutchinson_moments(
                oracles.exact_oracle(matrix), degree, COHORT_ELL, probes), coeffs)
            start = time.perf_counter()
            noisy = oracles.noisy_oracle(matrix, 0.5 / degree**2, "random-direction", probes)
            approx = density.full_kpm(moments.approx_hutchinson_moments(
                noisy, degree, COHORT_ELL, probes), coeffs)
            stages["estimate_amv_s"].append(time.perf_counter() - start)
            for q, sink in ((hutch, w1_hutch), (approx, w1_approx)):
                recovered = _timed(stages["discretize_s"], spectrum.discretize_greedy,
                                   q, COHORT_N, DISC_EPS)
                sink.append(spectrum.w1_discrete(recovered, truth))
        return w1, w1_greedy, w1_hutch, w1_approx, dict(stages)

    def check(self, result, facts) -> Outcome:
        """Criterion 2 (W1 <= eps) and criterion 8 (greedy W1 <= 3 eps)."""
        w1, w1_greedy, w1_hutch, w1_approx, stages = result
        problems = [f"eps={eps}: W1 {w1[eps]:.4g} > eps" for eps in w1 if w1[eps] > eps]
        problems += [f"eps={eps}: greedy W1 {w1_greedy[eps]:.4g} > 3 eps"
                     for eps in w1_greedy if w1_greedy[eps] > 3.0 * eps]
        return Outcome(
            ok=not problems,
            reason="; ".join(problems),
            accuracy={
                "w1_idealized_dev_max": [max(w1_greedy.values())],
                "w1_hutchinson_max": w1_hutch,
                "w1_approx_p50": w1_approx,
                "w1_over_eps_max": [max(w1[eps] / eps for eps in w1)],
            },
            stages=stages,
        )


# ---------------------------------------------------------------------------

HC14_BITS = 14
HC14_DEGREE = 80
HC14_BUDGET_FRACTION = 0.92  # the budget table1's search picks for this graph at seed 0
HC14_PAPER_IDEALIZED = PAPER_IDEALIZED["hypercube"]


class EstimateHC14:
    """One CLI user session on the 14-bit hypercube edge list.

    Why: the same layers used differently. The sampler runs at a fixed budget
    with no search, W1 runs on 15 distinct eigenvalues instead of 200, the
    optimal discretizer dominates, and every command loads the graph.
    """

    name = "estimate-hc14"
    scored_ops = 4

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.graph = work / "hc14.txt"
        self.truth = work / "hc14_spectrum.txt"
        code, _ = run_cli(["graph-gen", "--kind", "hypercube", "--bits", HC14_BITS,
                           "--output", self.graph, "--truth-output", self.truth])
        if code != 0:
            raise RuntimeError(f"graph-gen exited with {code}")
        with open(self.graph) as fh:
            edges = int(fh.readline().split()[1])
        self.budget = math.ceil(HC14_BUDGET_FRACTION * 2 * edges)
        # the session has no idealized density; this is its reference
        truth = spectrum.DiscreteSpectrum.load_text(self.truth)
        ideal = density.idealized_kpm(moments.moments_from_spectrum(truth.values, HC14_DEGREE),
                                      jackson.jackson_coefficients(HC14_DEGREE))
        recovered = spectrum.discretize_greedy(ideal, truth.n, DISC_EPS)
        self.ideal_dev = abs(spectrum.w1_discrete(recovered, truth) - HC14_PAPER_IDEALIZED)
        self.n = truth.n
        _warm_up_graph_path()
        spectrum.discretize_optimal(ideal, 16)

    def _paths(self):
        w = self.work
        return {k: w / f"{k}.{ext}" for k, ext in (
            ("hutch", "json"), ("amv", "json"), ("eval_hutch", "json"),
            ("eval_amv", "json"), ("eigs", "txt"))}

    def op(self, index: int):
        p = self._paths()
        for path in p.values():
            path.unlink(missing_ok=True)
        seed = op_seed(self.seed, index)
        common = ["--degree", HC14_DEGREE, "--ell", 2, "--seed", seed]
        steps = (
            ("estimate_s", ["estimate", self.graph, "--method", "hutchinson", *common,
                            "--output", p["hutch"]]),
            ("estimate_amv_s", ["estimate", self.graph, "--method", "graph-amv", *common,
                                "--samples-per-matvec", self.budget, "--output", p["amv"]]),
            ("eval_s", ["eval", "--density", p["hutch"], "--truth", self.truth,
                        "--output", p["eval_hutch"]]),
            ("eval_s", ["eval", "--density", p["amv"], "--truth", self.truth,
                        "--output", p["eval_amv"]]),
            ("discretize_s", ["discretize", "--density", p["hutch"], "-n", self.n,
                              "--method", "optimal", "--output", p["eigs"]]),
        )
        stages = defaultdict(list)
        codes = []
        for stage, argv in steps:
            start = time.perf_counter()
            code, _ = run_cli(argv)
            stages[stage].append(time.perf_counter() - start)
            codes.append(code)
            if code != 0:
                break
        return codes, dict(stages)

    def check(self, result, facts) -> Outcome:
        """Exit codes 0, outputs that parse, and n values written."""
        codes, stages = result
        if codes != [0] * 5:
            return Outcome(False, f"exit codes {codes}")
        p = self._paths()
        manifest = {"oracle_calls": 0, "entries_touched": 0}
        for key in ("hutch", "amv"):
            density.DensityEstimate.from_json(p[key].read_text())
            record = json.loads(Path(f"{p[key]}.manifest.json").read_text())
            for field_name in manifest:
                manifest[field_name] += record[field_name]
        scores = {}
        for key in ("eval_hutch", "eval_amv"):
            report = json.loads(p[key].read_text())
            scores[key] = report["w1_discretized_vs_truth"]
            if report["n"] != self.n or not all(
                    math.isfinite(report[k]) for k in ("w1_density_vs_truth",
                                                       "w1_discretized_vs_truth")):
                return Outcome(False, f"{key}: malformed report {report}")
        eigs = np.loadtxt(p["eigs"], ndmin=1)
        if eigs.size != self.n or not np.all(np.abs(eigs) <= 1.0):
            return Outcome(False, f"discretize wrote {eigs.size} values, expected {self.n}")
        eps = 18.0 / HC14_DEGREE
        return Outcome(
            ok=True,
            accuracy={
                "w1_idealized_dev_max": [self.ideal_dev],
                "w1_hutchinson_max": [scores["eval_hutch"]],
                "w1_approx_p50": [scores["eval_amv"]],
                "w1_over_eps_max": [max(scores.values()) / eps],
            },
            stages=stages,
            manifest=manifest,
        )


WORKLOADS = {w.name: w for w in (Table1, Cohort, EstimateHC14)}
