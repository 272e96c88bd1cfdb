import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from specden import (
    DensityEstimate,
    DiscreteSpectrum,
    boosted_graph_oracle,
    dense_eigenvalues,
    exact_graph_oracle,
    exact_normalized_matvec,
    generate_graph,
    graph_from_edges,
    idealized_kpm,
    jackson_coefficients,
    laplacian_reflect,
    load_graph,
    moments_from_spectrum,
    sampled_matvec,
    save_graph,
    w1_density_vs_spectrum,
    w1_discrete,
)


def k2():
    return graph_from_edges([0], [1], 2)


def path3():
    return graph_from_edges([0, 1], [1, 2], 3)


def star(leaves):
    return graph_from_edges(np.zeros(leaves, dtype=int), np.arange(1, leaves + 1), leaves + 1)


class TestGraphAccess:
    def test_degrees_and_symmetry(self):
        g = path3()
        assert g.degrees.tolist() == [1, 2, 1]
        for i in range(g.n):
            for j in g.neighbors(i):
                assert i in g.neighbors(j)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            graph_from_edges([0], [0], 2)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            graph_from_edges([0], [1], 3)

    def test_duplicate_edges_collapse(self):
        g = graph_from_edges([0, 1, 0], [1, 0, 1], 2)
        assert g.edge_count == 1
        assert g.degrees.tolist() == [1, 1]

    def test_inverse_degree_identity_exact(self):
        # sum_i sum_{j in N(i)} 1/d_j == n, in exact rational arithmetic
        for g in (k2(), path3(), star(8), generate_graph("hypercube", bits=4)[0],
                  generate_graph("clique-plus-matching", n=16)[0],
                  generate_graph("hairy-clique", n=12)[0]):
            total = Fraction(0)
            for i in range(g.n):
                for j in g.neighbors(i):
                    total += Fraction(1, int(g.degrees[j]))
            assert total == g.n

    def test_file_round_trip(self, tmp_path):
        g = generate_graph("hairy-clique", n=12)[0]
        path = tmp_path / "g.txt"
        save_graph(g, path)
        back = load_graph(path)
        assert back.n == g.n and back.edge_count == g.edge_count
        np.testing.assert_array_equal(back.indptr, g.indptr)
        np.testing.assert_array_equal(back.indices, g.indices)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        with pytest.raises(ValueError):
            load_graph(path)

    def test_coupon_collector_enumeration(self):
        g = star(6)
        g.has_list_access = False
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(np.sort(g.neighbors(0, rng=rng)), np.arange(1, 7))
        with pytest.raises(ValueError):
            g.neighbors(0)  # rng required without list access


class TestExactMatvec:
    def test_k2_swap(self):
        np.testing.assert_allclose(
            exact_normalized_matvec(k2(), np.array([1.0, 0.0])), [0.0, 1.0])

    def test_star_center_indicator(self):
        g = star(4)
        y = np.zeros(5)
        y[0] = 1.0
        out = exact_normalized_matvec(g, y)
        np.testing.assert_allclose(out[1:], 1.0 / math.sqrt(4.0), atol=1e-15)
        assert out[0] == 0.0

    def test_regular_graph_fixes_ones(self):
        g, _ = generate_graph("hypercube", bits=5)
        ones = np.ones(g.n)
        np.testing.assert_allclose(exact_normalized_matvec(g, ones), ones, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            exact_normalized_matvec(k2(), np.ones(3))


class TestGenerators:
    def test_clique_plus_matching_truth(self):
        graph, truth = generate_graph("clique-plus-matching", n=16)
        jac = dense_eigenvalues(graph.norm_adjacency.toarray())
        np.testing.assert_allclose(truth.values, jac.values, atol=1e-10)
        # eigenvalue multiplicities: n/4 + 1 at +1, n/4 at -1
        assert np.sum(np.isclose(truth.values, 1.0)) == 5
        assert np.sum(np.isclose(truth.values, -1.0)) == 4

    def test_hairy_clique_truth(self):
        graph, truth = generate_graph("hairy-clique", n=12)
        jac = dense_eigenvalues(graph.norm_adjacency.toarray())
        np.testing.assert_allclose(truth.values, jac.values, atol=1e-10)

    def test_hypercube_truth(self):
        graph, truth = generate_graph("hypercube", bits=4)
        jac = dense_eigenvalues(graph.norm_adjacency.toarray())
        np.testing.assert_allclose(truth.values, jac.values, atol=1e-10)
        assert graph.degrees.tolist() == [4] * 16

    def test_paper_scale_multiplicities(self):
        _, truth = generate_graph("clique-plus-matching", n=1000)
        assert np.sum(np.isclose(truth.values, 1.0)) == 251
        assert np.sum(np.isclose(truth.values, -1.0)) == 250
        assert np.sum(np.isclose(truth.values, -1.0 / 499.0)) == 499

    def test_hairy_structure(self):
        _, truth = generate_graph("hairy-clique", n=1000)
        near_zero = np.abs(truth.values) <= 0.1
        assert near_zero.sum() == 1000 - 1  # all but the top eigenvalue
        assert np.sum(truth.values > 0.01) <= 500

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_graph("clique-plus-matching", n=10)
        with pytest.raises(ValueError):
            generate_graph("hairy-clique", n=7)
        with pytest.raises(ValueError):
            generate_graph("hypercube", bits=0)
        with pytest.raises(ValueError):
            generate_graph("petersen", n=10)


class TestSampledMatvec:
    def test_k2_outcomes_enumerable(self):
        g = k2()
        y = np.array([1.0, 0.0])
        seen = set()
        for seed in range(200):
            rep = sampled_matvec(g, y, t=1, seed=seed)
            seen.add(tuple(np.round(rep.output, 12)))
        # K2 always accepts; single-iteration outputs are (1/p_0) y_0 col_0 or 0*col_1
        assert seen == {(0.0, 2.0), (0.0, 0.0)}

    def test_k2_mean_matches_exact(self):
        g = k2()
        y = np.array([1.0, 0.0])
        trials = 100_000
        acc = np.zeros(2)
        for seed in range(200):
            rep = sampled_matvec(g, y, t=trials // 200, seed=(5, seed))
            acc += rep.output
        mean = acc / 200
        # per-iteration variance is 1, so 3 sigma over 1e5 samples is ~0.01
        np.testing.assert_allclose(mean, [0.0, 1.0], atol=3.0 / math.sqrt(trials))

    def test_path3_acceptance_frequencies(self):
        g = path3()
        y = np.array([0.3, -0.2, 0.9])
        rep = sampled_matvec(g, y, t=200_000, seed=9, track_counts=True)
        freq = rep.accepted_counts / rep.samples
        expected = np.array([1 / 6, 1 / 3, 1 / 6])  # p_i per iteration
        np.testing.assert_allclose(freq, expected, atol=5e-3)

    def test_unbiased_on_path3(self):
        g = path3()
        y = np.array([0.3, -0.2, 0.9])
        truth = exact_normalized_matvec(g, y)
        rep = sampled_matvec(g, y, t=400_000, seed=3)
        np.testing.assert_allclose(rep.output, truth, atol=0.02)

    def test_deterministic(self):
        g = star(8)
        y = np.random.default_rng(0).standard_normal(9)
        a = sampled_matvec(g, y, t=500, seed=42)
        b = sampled_matvec(g, y, t=500, seed=42)
        np.testing.assert_array_equal(a.output, b.output)
        assert a.entries_touched == b.entries_touched

    def test_entries_accounting(self):
        g = star(8)
        y = np.ones(9)
        rep = sampled_matvec(g, y, t=5000, seed=1, track_counts=True)
        assert rep.entries_touched == int(np.dot(rep.accepted_counts, g.degrees))
        assert rep.accepted == int(rep.accepted_counts.sum())

    @pytest.mark.parametrize("make,label", [(k2, "k2"), (lambda: star(8), "star8")])
    def test_variance_formula(self, make, label):
        g = make()
        rng = np.random.default_rng(11)
        y = rng.standard_normal(g.n)
        truth = exact_normalized_matvec(g, y)
        pred_unit = g.n * float(y @ y) - float(truth @ truth)
        for t in (10, 100):
            sq = np.array([
                float(((truth - sampled_matvec(g, y, t, seed=(t, i)).output) ** 2).sum())
                for i in range(2000)
            ])
            se = sq.std(ddof=1) / math.sqrt(sq.size)
            assert abs(sq.mean() - pred_unit / t) <= 3 * se, (label, t)

    def test_mean_entries_per_iteration_is_one(self):
        for g in (k2(), star(8), generate_graph("hypercube", bits=8)[0]):
            rep = sampled_matvec(g, np.ones(g.n), t=10_000, seed=7)
            assert rep.entries_touched / rep.samples == pytest.approx(1.0, abs=0.1)

    def test_acceptance_chi_square_star8(self):
        g = star(8)
        t = 100_000
        rep = sampled_matvec(g, np.ones(9), t=t, seed=23, track_counts=True)
        p = np.array([
            sum(1.0 / g.degrees[j] for j in g.neighbors(i)) / (g.n * g.degrees[i])
            for i in range(g.n)
        ])
        observed = np.append(rep.accepted_counts, t - rep.accepted)
        expected = np.append(t * p, t * (1.0 - p.sum()))
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue >= 0.001

    def test_without_list_access_still_unbiased(self):
        g = star(5)
        g.has_list_access = False
        y = np.random.default_rng(2).standard_normal(6)
        truth = exact_normalized_matvec(g, y)
        acc = np.zeros(6)
        for seed in range(400):
            acc += sampled_matvec(g, y, t=100, seed=(1, seed)).output
        np.testing.assert_allclose(acc / 400, truth, atol=0.05)

    @pytest.mark.parametrize("make", [
        lambda: star(8),
        lambda: generate_graph("hypercube", bits=8)[0],
        lambda: generate_graph("hairy-clique", n=1000)[0],
    ], ids=["star8", "hypercube8", "hairyClique1000"])
    def test_column_probabilities_match_per_vertex_formula(self, make):
        g = make()
        p = np.array([
            np.sum(1.0 / g.degrees[g.neighbors(i)]) / (g.n * g.degrees[i])
            for i in range(g.n)])
        np.testing.assert_allclose(g.column_probabilities, p, rtol=0, atol=1e-15)
        assert g.column_probabilities is g.column_probabilities  # once per graph

    def test_list_access_does_not_change_the_output(self):
        for g in (star(8), generate_graph("hypercube", bits=8)[0]):
            y = np.random.default_rng(4).standard_normal(g.n)
            listed = sampled_matvec(g, y, t=3000, seed=12)
            g.has_list_access = False
            sampled = sampled_matvec(g, y, t=3000, seed=12)
            np.testing.assert_array_equal(listed.output, sampled.output)
            assert listed.entries_touched == sampled.entries_touched

    def test_hypercube14_time_gate(self):
        # the budget table1's search picks on this graph at seed 0
        g, _ = generate_graph("hypercube", bits=14)
        y = np.random.default_rng(14).standard_normal(g.n)
        t = math.ceil(0.92 * g.nnz)
        sampled_matvec(g, y, t, seed=0)  # first call computes the graph's p
        times = []
        for seed in range(20):
            start = time.perf_counter()
            sampled_matvec(g, y, t, seed=seed)
            times.append(time.perf_counter() - start)
        assert statistics.median(times) < 0.006, times


class TestBoostedOracle:
    def test_single_repetition_degenerates(self):
        g = k2()
        oracle = boosted_graph_oracle(g, eps_mv=0.5, delta=0.49, repetitions=1,
                                      samples=64, seed=3)
        y = np.array([1.0, 0.5])
        out = oracle.apply(y)
        direct = sampled_matvec(g, y, t=64, seed=(3, 0, 0)).output
        np.testing.assert_array_equal(out, direct)
        assert oracle.stats["repetitions"] == 1

    def test_k2_accuracy_monte_carlo(self):
        g = k2()
        oracle = boosted_graph_oracle(g, eps_mv=0.5, delta=0.05, seed=0)
        y = np.array([1.0, 0.0])
        truth = exact_normalized_matvec(g, y)
        failures = sum(
            np.linalg.norm(oracle.apply(y) - truth) > 0.5 * np.linalg.norm(y)
            for _ in range(200))
        assert failures / 200 <= 0.05

    def test_hypercube_accuracy(self):
        g, _ = generate_graph("hypercube", bits=8)
        eps = 0.6
        oracle = boosted_graph_oracle(g, eps_mv=eps, delta=0.05, seed=4)
        rng = np.random.default_rng(8)
        failures = 0
        calls = 30
        for _ in range(calls):
            y = rng.standard_normal(g.n)
            y /= np.linalg.norm(y)
            z = oracle.apply(y)
            if np.linalg.norm(z - exact_normalized_matvec(g, y)) > eps:
                failures += 1
        assert failures / calls <= 0.05
        assert oracle.calls == calls

    def test_schedule_from_delta(self):
        g = k2()
        oracle = boosted_graph_oracle(g, eps_mv=0.5, delta=0.05, seed=0)
        assert oracle.stats["repetitions"] == math.ceil(8 * math.log(1 / 0.05))
        assert oracle.stats["samples_budget"] == math.ceil(48 * 2 / 0.25)

    def test_parameter_validation(self):
        g = k2()
        for eps, delta in ((0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValueError):
                boosted_graph_oracle(g, eps_mv=eps, delta=delta)


class TestLaplacianReflect:
    def test_spectrum_shift(self):
        s = DiscreteSpectrum(np.array([-1.0, 0.0, 1.0]))
        reflected = laplacian_reflect(s)
        np.testing.assert_array_equal(reflected.values, [0.0, 1.0, 2.0])
        assert reflected.support == (0.0, 2.0)

    def test_spectrum_remap_is_negation(self):
        s = DiscreteSpectrum(np.array([-0.5, 0.25]))
        reflected = laplacian_reflect(s, remap=True)
        np.testing.assert_array_equal(reflected.values, [-0.25, 0.5])

    def test_involution(self):
        mv = moments_from_spectrum(np.linspace(-0.8, 0.9, 7), 12)
        q = idealized_kpm(mv, jackson_coefficients(12))
        twice = laplacian_reflect(laplacian_reflect(q))
        np.testing.assert_array_equal(twice.series.coefficients, q.series.coefficients)

    def test_density_reflection_pointwise(self):
        mv = moments_from_spectrum(np.array([-0.7, 0.2, 0.5]), 16)
        q = idealized_kpm(mv, jackson_coefficients(16))
        reflected = laplacian_reflect(q, remap=True)
        xs = np.linspace(-0.95, 0.95, 101)
        np.testing.assert_allclose(reflected.evaluate(xs), q.evaluate(-xs), atol=1e-12)

    def test_w1_score_invariant(self):
        # distance(adjacency estimate, adjacency truth) equals
        # distance(reflected estimate, reflected truth)
        graph, truth = generate_graph("hairy-clique", n=20)
        mv = moments_from_spectrum(truth.values, 16)
        q = idealized_kpm(mv, jackson_coefficients(16))
        base = w1_density_vs_spectrum(q, truth)
        mirrored = w1_density_vs_spectrum(laplacian_reflect(q, remap=True),
                                          laplacian_reflect(truth, remap=True))
        assert abs(base - mirrored) <= 1e-9

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            laplacian_reflect(np.zeros(3))
