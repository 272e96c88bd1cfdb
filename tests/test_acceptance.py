"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Heavy artifacts (the random-matrix cohort, the three-graph
experiment) are built once per session and shared.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from specden import (
    ChebyshevSeries,
    cheb_weighted_integral,
    check_density,
    dense_eigenvalues,
    discretize_greedy,
    exact_moments,
    exact_oracle,
    full_kpm,
    generate_graph,
    idealized_kpm,
    jackson_coefficients,
    noisy_oracle,
    perturbed_moments,
    sampled_matvec,
    series_eval,
    w1_density_vs_spectrum,
    w1_discrete,
)
from specden.chebyshev import NORM_0, NORM_K, series_weighted_integral
from specden.cli import SEARCH_FRACTIONS
from specden.moments import MomentVector, _sweep_products, rademacher

from conftest import quad_weighted_integral, random_spectrum_matrix


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared cohort for criteria 2, 3, 8

COHORT_SIZE = 10
COHORT_N = 200
EPS_LEVELS = (0.1, 0.05)  # degrees 180 and 360


@dataclass
class CohortEntry:
    truth: object
    moments_by_degree: dict
    density_by_eps: dict
    w1_by_eps: dict


@pytest.fixture(scope="session")
def cohort():
    """Ten random symmetric matrices with spectra uniform in [-1, 1]."""
    t_start = time.perf_counter()
    entries = []
    top_degree = max(4 * math.ceil(18.0 / (4.0 * eps)) for eps in EPS_LEVELS)
    for i in range(COHORT_SIZE):
        matrix, _ = random_spectrum_matrix(COHORT_N, seed=1000 + i)
        truth = dense_eigenvalues(matrix)
        full = exact_moments(exact_oracle(matrix), top_degree)
        moments = {top_degree: full}
        density = {}
        w1 = {}
        for eps in EPS_LEVELS:
            degree = 4 * math.ceil(18.0 / (4.0 * eps))
            if degree not in moments:
                moments[degree] = MomentVector(
                    degree=degree, values=full.values[:degree], provenance="exact")
            q = idealized_kpm(moments[degree], jackson_coefficients(degree))
            density[eps] = q
            w1[eps] = w1_density_vs_spectrum(q, truth)
        entries.append(CohortEntry(truth, moments, density, w1))
    return entries, time.perf_counter() - t_start


def test_criterion_1_jackson_bound():
    """Fact-2 rate on |x| at the stated degrees, inside one second."""
    import scipy.integrate

    t_start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 10_000)
    target = np.abs(grid)
    worst = {}
    for degree in (8, 16, 32, 64):
        coeffs = np.empty(degree + 1)
        for k in range(degree + 1):
            norm = NORM_0 if k == 0 else NORM_K
            coeffs[k], _ = scipy.integrate.quad(
                lambda th: abs(math.cos(th)) * norm * math.cos(k * th),
                0.0, math.pi, epsabs=1e-11, limit=100)
        damped = ChebyshevSeries(jackson_coefficients(degree).ratios * coeffs)
        err = np.abs(series_eval(damped, grid) - target).max()
        worst[degree] = err
        assert err <= 18.0 / degree, (degree, err)
    elapsed = time.perf_counter() - t_start
    _report(1, elapsed < 1.0,
            f"sup errors {({d: round(e, 4) for d, e in worst.items()})} "
            f"all within 18/N; runtime {elapsed:.2f}s < 1s")


def test_criterion_2_idealized_kpm(cohort):
    entries, build_seconds = cohort
    worst = {eps: 0.0 for eps in EPS_LEVELS}
    for entry in entries:
        for eps in EPS_LEVELS:
            worst[eps] = max(worst[eps], entry.w1_by_eps[eps])
            assert entry.w1_by_eps[eps] <= eps
    _report(2, build_seconds < 30.0,
            f"worst W1 {({e: round(v, 4) for e, v in worst.items()})} within eps "
            f"on {COHORT_SIZE} matrices (n={COHORT_N}); build time "
            f"{build_seconds:.1f}s < 30s")


def test_criterion_3_full_kpm_robustness(cohort):
    entries, _ = cohort
    worst = 0.0
    rng = np.random.default_rng(2024)
    for entry in entries:
        for eps in EPS_LEVELS:
            degree = 4 * math.ceil(18.0 / (4.0 * eps))
            exact = entry.moments_by_degree[degree]
            adversarial = (np.ones(degree),
                           rng.integers(0, 2, degree) * 2.0 - 1.0)
            for signs in adversarial:
                bad = perturbed_moments(exact, 1.0 / degree**2, signs=signs)
                q = full_kpm(bad, jackson_coefficients(degree))
                check_density(q)  # non-negative grid + a_0 pinned to 1e-12
                w1 = w1_density_vs_spectrum(q, entry.truth)
                worst = max(worst, w1 * degree / 36.0)
                assert w1 <= 2.0 * 18.0 / degree
    _report(3, True,
            f"perturbed densities valid; worst W1 = {worst:.3f} of the 2*(18/N) budget")


def test_criterion_4_hutchinson_unbiasedness():
    n, degree = 8, 16
    matrix, _ = random_spectrum_matrix(n, seed=4242)
    oracle = exact_oracle(matrix)
    acc = np.zeros(degree)
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        acc += _sweep_products(oracle, np.array(signs), degree)
    average = NORM_K / (n * 2**n) * acc
    exact = exact_moments(exact_oracle(matrix), degree)
    gap = np.abs(average - exact.values).max()
    _report(4, gap <= 1e-12,
            f"full 2^{n} Rademacher enumeration matches exact moments to {gap:.2e}")


def test_criterion_5_recurrence_stability():
    degree = 64
    violations = 0
    worst_ratio = 0.0
    checks = 0
    for i in range(50):
        matrix, _ = random_spectrum_matrix(64, seed=5000 + i)
        exact = exact_oracle(matrix)
        g = rademacher(64, seed=(91, i))
        exact_products = _sweep_products(exact, g, degree)
        norm_sq = float(g @ g)
        for eps_mv in (1e-2, 1e-4):
            for mode in ("random-direction", "adversarial-sign"):
                noisy = noisy_oracle(matrix, eps_mv, mode, seed=(17, i))
                approx_products = _sweep_products(noisy, g, degree)
                ks = np.arange(1, degree + 1)
                bounds = 2.0 * eps_mv * (ks + 1.0) ** 2 * norm_sq
                gaps = np.abs(approx_products - exact_products)
                violations += int(np.sum(gaps > bounds))
                worst_ratio = max(worst_ratio, float((gaps / bounds).max()))
                checks += degree
    _report(5, violations == 0,
            f"{checks} measurements, zero violations of the quadratic bound "
            f"(worst gap/bound ratio {worst_ratio:.3f})")


def test_criterion_6_sampling_variance():
    from specden import graph_from_edges

    graphs = {
        "K2": graph_from_edges([0], [1], 2),
        "star8": graph_from_edges(np.zeros(8, dtype=int), np.arange(1, 9), 9),
        "hypercube8": generate_graph("hypercube", bits=8)[0],
    }
    trials = 10_000
    summary = []
    for tag, (label, graph) in enumerate(graphs.items()):
        rng = np.random.default_rng(600 + tag)
        y = rng.standard_normal(graph.n)
        truth = graph.norm_adjacency @ y
        pred_unit = graph.n * float(y @ y) - float(truth @ truth)
        for t in (10, 100, 1000):
            sq = np.empty(trials)
            for i in range(trials):
                out = sampled_matvec(graph, y, t, seed=(tag, t, i)).output
                diff = truth - out
                sq[i] = float(diff @ diff)
            se = sq.std(ddof=1) / math.sqrt(trials)
            z_score = (sq.mean() - pred_unit / t) / se
            summary.append(f"{label}/t={t}: z={z_score:+.2f}")
            assert abs(z_score) <= 3.0, (label, t, z_score)
    _report(6, True, "; ".join(summary))


def test_criterion_7_sublinear_accounting():
    from specden import graph_from_edges

    # the stated 10^4-iteration budget is a 4-sigma check on these graphs
    test_graphs = {
        "K2": graph_from_edges([0], [1], 2),
        "star8": graph_from_edges(np.zeros(8, dtype=int), np.arange(1, 9), 9),
        "hypercube8": generate_graph("hypercube", bits=8)[0],
    }
    rates = {}
    for tag, (label, graph) in enumerate(test_graphs.items()):
        report = sampled_matvec(graph, np.ones(graph.n), t=10_000, seed=(7, tag))
        rates[label] = report.entries_touched / report.samples
        assert abs(rates[label] - 1.0) <= 0.1, (label, rates[label])
    # the experiment graphs have heavy-tailed per-iteration cost (one clique
    # column is worth ~n/2 entries), so the same tolerance needs a
    # variance-matched budget to be a sound 3-sigma check
    experiment_graphs = {
        "cliquePlusMatching": generate_graph("clique-plus-matching", n=1000)[0],
        "hairyClique": generate_graph("hairy-clique", n=1000)[0],
        "hypercube14": generate_graph("hypercube", bits=14)[0],
    }
    for tag, (label, graph) in enumerate(experiment_graphs.items()):
        p = np.array([
            np.sum(1.0 / graph.degrees[graph.indices[graph.indptr[i]:graph.indptr[i + 1]]]) / (graph.n * graph.degrees[i])
            for i in range(graph.n)])
        per_iter_var = float(np.dot(graph.degrees.astype(float) ** 2, p)) - 1.0
        budget = max(10_000, math.ceil(per_iter_var * (3.0 / 0.1) ** 2))
        report = sampled_matvec(graph, np.ones(graph.n), t=budget, seed=(8, tag))
        rates[label] = report.entries_touched / report.samples
        assert abs(rates[label] - 1.0) <= 0.1, (label, rates[label], budget)
    _report(7, True,
            "entries per iteration " + ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))


def test_criterion_8_discretization(cohort):
    entries, _ = cohort
    worst = 0.0
    for entry in entries:
        for eps in EPS_LEVELS:
            recovered = discretize_greedy(entry.density_by_eps[eps], COHORT_N, eps)
            err = w1_discrete(recovered, entry.truth)
            worst = max(worst, err / (3.0 * eps))
            assert err <= 3.0 * eps
    _report(8, True,
            f"greedy recovery within 3*eps on all runs (worst at {worst:.2f} of budget)")


def test_criterion_9_table1_reproduction(table1):
    results, elapsed, out_dir = table1
    paper_idealized = {"cliquePlusMatching": 0.042, "hairyClique": 0.045,
                       "hypercube": 0.029}
    lines = []
    ok = elapsed < 600.0
    for label, target in paper_idealized.items():
        row = results[label]
        ideal = row["idealized_w1"]
        hutch = row["hutchinson_w1_median"]
        approx = row["approx_w1_median"]
        fraction = row["entries_fraction_of_nnz"]
        lines.append(f"{label}: ideal {100 * ideal:.1f}% (paper {100 * target:.1f}%), "
                     f"hutch {100 * hutch:.1f}%, approx {100 * approx:.1f}%, "
                     f"entries {100 * fraction:.0f}% of nnz")
        ok &= abs(ideal - target) <= 0.02
        ok &= hutch <= 0.12
        ok &= approx <= 0.12
        ok &= fraction < 1.0
    # plot-data side products exist
    for label in paper_idealized:
        for suffix in ("density_idealized.csv", "eig_histogram.csv", "moments.csv"):
            assert (out_dir / f"{label}_{suffix}").exists()
    hist = (out_dir / "hypercube_eig_histogram.csv").read_text().splitlines()
    masses = np.array([[float(v) for v in line.split(",")[2:]] for line in hist[1:]])
    assert np.allclose(masses.sum(axis=0), 1.0, atol=1e-9)
    _report(9, ok, "; ".join(lines) + f"; runtime {elapsed:.0f}s < 600s")


def test_table1_manifest_counts_search_probes(table1):
    """The manifest's oracle calls include the budget search's probe runs."""
    results, _, out_dir = table1
    manifest = json.loads((out_dir / "manifest.json").read_text())
    seeds = manifest["config"]["seeds"]
    expected = 0
    for row in results.values():
        per_run = row["ell"] * row["degree"]  # sampled: one call per probe per degree
        # the search probes each budget below the cap and returns the cap unprobed
        budgets = [math.ceil(frac * row["nnz"]) for frac in SEARCH_FRACTIONS[:-1]]
        chosen = row["samples_per_matvec"]
        steps = budgets.index(chosen) + 1 if chosen in budgets else len(budgets)
        # exact-matvec Hutchinson doubles (N/2 calls per probe), then the
        # approx runs per seed, plus two probe runs per search step
        expected += seeds * per_run // 2 + seeds * per_run + 2 * steps * per_run
    assert manifest["oracle_calls"] == expected


def test_criterion_10_closed_form_integral():
    # the per-k closed form, and the series sum that densities run, on the
    # unit series Tbar_k = NORM T_k
    rng = np.random.default_rng(10)
    count = 0
    worst = 0.0
    while count < 200:
        k = int(rng.integers(0, 101))
        a, b = np.sort(rng.uniform(-1.0 + 1e-6, 1.0 - 1e-6, 2))
        if b - a < 1e-4:
            continue
        quad = quad_weighted_integral(k, a, b)
        unit = ChebyshevSeries(np.eye(k + 1)[k])
        norm = NORM_0 if k == 0 else NORM_K
        for gap in (abs(cheb_weighted_integral(k, a, b) - quad),
                    abs(series_weighted_integral(unit, a, b) - norm * quad)):
            worst = max(worst, gap)
            assert gap <= 1e-10, (k, a, b, gap)
        count += 1
    # the printed form in the source derivation would give 1 here; the
    # corrected antiderivative gives 0, matching quadrature
    k2_value = cheb_weighted_integral(2, 0.0, 1.0)
    assert abs(k2_value) <= 1e-14
    _report(10, True,
            f"200 random integrals, per k and as a series, agree with quadrature "
            f"(worst {worst:.2e}); "
            f"k=2 on [0,1] -> {k2_value:.1e}")
