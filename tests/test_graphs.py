import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from specden import (
    DiscreteSpectrum,
    GraphAccess,
    dense_eigenvalues,
    exact_graph_oracle,
    generate_graph,
    graph_from_edges,
    idealized_kpm,
    jackson_coefficients,
    laplacian_reflect,
    load_graph,
    moments_from_spectrum,
    sampled_graph_oracle,
    sampled_matvec,
    save_graph,
    w1_density_vs_spectrum,
)


#: median sampled matvec over median exact product on hypercube-14, 0.92 nnz
SAMPLED_OVER_EXACT_BOUND = 2.65


def neighbors(g, i):
    """All neighbors of i, read from the adjacency list."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def k2():
    return graph_from_edges([0], [1], 2)


def cycle(n):
    return graph_from_edges(np.arange(n), (np.arange(n) + 1) % n, n)


def path3():
    return graph_from_edges([0, 1], [1, 2], 3)


def star(leaves):
    return graph_from_edges(np.zeros(leaves, dtype=int), np.arange(1, leaves + 1), leaves + 1)


class TestGraphAccess:
    def test_degrees_and_symmetry(self):
        g = path3()
        assert g.degrees.tolist() == [1, 2, 1]
        for i in range(g.n):
            for j in neighbors(g, i):
                assert i in neighbors(g, j)

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
        # a triple and a reversed duplicate build the clean graph's CSR arrays
        clean = graph_from_edges([0, 1, 2], [1, 2, 3], 4)
        messy = graph_from_edges([0, 1, 0, 2, 1, 0, 3], [1, 2, 1, 3, 2, 1, 2], 4)
        for name in ("indptr", "indices", "degrees"):
            np.testing.assert_array_equal(getattr(messy, name), getattr(clean, name))
        np.testing.assert_array_equal(messy.norm_adjacency.data, clean.norm_adjacency.data)

    def test_inverse_degree_identity_exact(self):
        # sum_i sum_{j in N(i)} 1/d_j == n, in exact rational arithmetic
        for g in (k2(), path3(), star(8), generate_graph("hypercube", bits=4)[0],
                  generate_graph("clique-plus-matching", n=16)[0],
                  generate_graph("hairy-clique", n=12)[0]):
            total = Fraction(0)
            for i in range(g.n):
                for j in neighbors(g, i):
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

    @pytest.mark.parametrize("kind, size", [
        ("clique-plus-matching", {"n": 16}), ("hairy-clique", {"n": 12}),
        ("hypercube", {"bits": 5})], ids=["clique-plus-matching", "hairy-clique", "hypercube"])
    def test_save_load_save_is_byte_identical(self, tmp_path, kind, size):
        g = generate_graph(kind, **size)[0]
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_graph(g, first)
        save_graph(load_graph(first), second)
        assert second.read_bytes() == first.read_bytes()
        # the format: header, then each edge once as 'i j' with i < j, by row
        expected = [f"{g.n} {g.edge_count}"] + [
            f"{i + 1} {j + 1}" for i in range(g.n) for j in neighbors(g, i) if i < j]
        assert first.read_text() == "\n".join(expected) + "\n"

    def test_duplicate_and_reversed_pairs_save_once(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("4 6\n1 2\n2 1\n3 4\n1 2\n4 3\n2 3\n")
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_graph(load_graph(raw), first)
        save_graph(load_graph(first), second)
        assert first.read_text() == "4 3\n1 2\n2 3\n3 4\n"
        assert second.read_bytes() == first.read_bytes()

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        with pytest.raises(ValueError):
            load_graph(path)

    @pytest.mark.parametrize("text", [
        "3 2\n1 2 5\n2 3 7\n",  # weighted: the weights must not be dropped silently
        "3 2\n1\n2\n",
        "3 2\n1 2\n2 3 7\n",
        "3 2\n1 2\n2 3.5\n",
    ], ids=["three-columns", "one-column", "ragged", "non-integer"])
    def test_load_rejects_rows_that_are_not_two_integers(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_graph(path)


class TestExactMatvec:
    def test_k2_swap(self):
        np.testing.assert_allclose(
            exact_graph_oracle(k2()).apply(np.array([1.0, 0.0])), [0.0, 1.0])

    def test_star_center_indicator(self):
        g = star(4)
        y = np.zeros(5)
        y[0] = 1.0
        out = exact_graph_oracle(g).apply(y)
        np.testing.assert_allclose(out[1:], 1.0 / math.sqrt(4.0), atol=1e-15)
        assert out[0] == 0.0

    def test_regular_graph_fixes_ones(self):
        g, _ = generate_graph("hypercube", bits=5)
        ones = np.ones(g.n)
        np.testing.assert_allclose(exact_graph_oracle(g).apply(ones), ones, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            exact_graph_oracle(k2()).apply(np.ones(3))


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
        rep = sampled_matvec(g, y, t=200_000, seed=9)
        freq = rep.accepted_counts / rep.samples
        expected = np.array([1 / 6, 1 / 3, 1 / 6])  # p_i per iteration
        np.testing.assert_allclose(freq, expected, atol=5e-3)

    def test_unbiased_on_path3(self):
        g = path3()
        y = np.array([0.3, -0.2, 0.9])
        truth = g.norm_adjacency @ y
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
        # star8 accepts at least n columns (multinomial), hairyClique1000 and
        # hypercube10 fewer (alias table; uniform columns on the regular graph)
        hairy, _ = generate_graph("hairy-clique", n=1000)
        cube, _ = generate_graph("hypercube", bits=10)
        for g, t, alias_path in ((star(8), 5000, False), (hairy, 2000, True),
                                 (cube, 5000, True)):
            rep = sampled_matvec(g, np.ones(g.n), t=t, seed=1)
            assert (rep.accepted < g.n) == alias_path
            assert rep.entries_touched == int(np.dot(rep.accepted_counts, g.degrees))
            assert rep.accepted == int(rep.accepted_counts.sum())

    @pytest.mark.parametrize("make, fractions", [
        (k2, (0.5, 3.0)),
        (lambda: cycle(50), (0.5, 0.92, 3.0)),
        (lambda: generate_graph("hypercube", bits=10)[0], (1 / 16, 0.92, 2.0)),
        (lambda: generate_graph("hypercube", bits=14)[0], (1 / 16, 0.92, 2.0)),
    ], ids=["k2", "cycle50", "hypercube10", "hypercube14"])
    def test_regular_graph_draw_matches_alias_draw(self, monkeypatch, make, fractions):
        g = make()
        y = np.random.default_rng(g.n).standard_normal(g.n)
        runs = [(max(1, math.ceil(frac * g.nnz)), seed)
                for frac in fractions for seed in (0, 7, (3, 1, 0), (5, 2))]
        uniform = [sampled_matvec(g, y, t, seed) for t, seed in runs]
        assert g.regular
        assert {rep.accepted < g.n for rep in uniform} == {True, False}
        assert "column_alias_table" not in vars(g)
        # the alias table of a regular graph keeps every draw
        monkeypatch.setattr(GraphAccess, "regular", property(lambda self: False))
        for (t, seed), rep in zip(runs, uniform):
            alias = sampled_matvec(g, y, t, seed)
            np.testing.assert_array_equal(rep.output, alias.output)
            np.testing.assert_array_equal(rep.accepted_counts, alias.accepted_counts)
            assert (rep.entries_touched, rep.accepted) == (alias.entries_touched, alias.accepted)
        assert np.all(g.column_alias_table[0] == 1.0)

    @pytest.mark.parametrize("make,label", [(k2, "k2"), (lambda: star(8), "star8")])
    def test_variance_formula(self, make, label):
        g = make()
        rng = np.random.default_rng(11)
        y = rng.standard_normal(g.n)
        truth = g.norm_adjacency @ y
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
        rep = sampled_matvec(g, np.ones(9), t=t, seed=23)
        p = np.array([
            sum(1.0 / g.degrees[j] for j in neighbors(g, i)) / (g.n * g.degrees[i])
            for i in range(g.n)
        ])
        observed = np.append(rep.accepted_counts, t - rep.accepted)
        expected = np.append(t * p, t * (1.0 - p.sum()))
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue >= 0.001

    def test_acceptance_chi_square_alias_hairy_clique(self):
        # sum p ~ 0.003 here, so every call accepts fewer than n columns and
        # draws them from the alias table; star8 above covers the multinomial
        g, _ = generate_graph("hairy-clique", n=1000)
        assert not g.regular
        t = math.ceil(0.92 * g.nnz)
        observed = np.zeros(g.n, dtype=np.int64)
        for seed in range(200):
            rep = sampled_matvec(g, np.ones(g.n), t=t, seed=(31, seed))
            assert rep.accepted < g.n
            observed += rep.accepted_counts
        p = g.column_probabilities
        expected = observed.sum() * p / p.sum()
        assert scipy.stats.chisquare(observed, expected).pvalue >= 0.001
        # pooled by degree (hairs vs clique), a shift of a few percent shows
        _, group = np.unique(g.degrees, return_inverse=True)
        assert scipy.stats.chisquare(np.bincount(group, weights=observed),
                                     np.bincount(group, weights=expected)).pvalue >= 0.001

    @pytest.mark.parametrize("make", [
        lambda: star(8),
        lambda: generate_graph("hypercube", bits=8)[0],
        lambda: generate_graph("hairy-clique", n=1000)[0],
    ], ids=["star8", "hypercube8", "hairyClique1000"])
    def test_column_probabilities_match_per_vertex_formula(self, make):
        g = make()
        p = np.array([
            np.sum(1.0 / g.degrees[neighbors(g, i)]) / (g.n * g.degrees[i])
            for i in range(g.n)])
        np.testing.assert_allclose(g.column_probabilities, p, rtol=0, atol=1e-15)
        assert g.column_probabilities is g.column_probabilities  # once per graph
        prob, alias = g.column_alias_table
        drawn = (prob + np.bincount(alias, weights=1.0 - prob, minlength=g.n)) / g.n
        np.testing.assert_allclose(drawn, p / p.sum(), rtol=0, atol=1e-15)
        assert g.column_alias_table is g.column_alias_table

    def test_hypercube14_time_gate(self):
        # the budget table1's search picks on this graph at seed 0, timed
        # against the same graph's exact sparse product, interleaved, so that
        # the host's speed cancels out of the ratio
        g, _ = generate_graph("hypercube", bits=14)
        y = np.random.default_rng(14).standard_normal(g.n)
        t = math.ceil(0.92 * g.nnz)
        sampled_matvec(g, y, t, seed=0)  # first call builds the graph's p
        sampled, exact = [], []
        for seed in range(20):
            start = time.perf_counter()
            sampled_matvec(g, y, t, seed=seed)
            sampled.append(time.perf_counter() - start)
            start = time.perf_counter()
            g.norm_adjacency @ y
            exact.append(time.perf_counter() - start)
        ratio = statistics.median(sampled) / statistics.median(exact)
        assert ratio < SAMPLED_OVER_EXACT_BOUND, (ratio, sampled, exact)


class TestSampledOracle:
    def test_one_sampler_run_per_call(self):
        g = k2()
        oracle = sampled_graph_oracle(g, samples=64, seed=3)
        y = np.array([1.0, 0.5])
        out = oracle.apply(y)
        report = sampled_matvec(g, y, t=64, seed=(3, 0, 0))
        np.testing.assert_array_equal(out, report.output)
        assert oracle.stats == {"entries_touched": report.entries_touched,
                                "samples_budget": 64}

    def test_declares_rms_level(self):
        g, _ = generate_graph("hypercube", bits=10)
        assert sampled_graph_oracle(g, samples=9000).error_bound == math.sqrt(1024 / 9000)

    def test_budget_validation(self):
        for samples in (0, -1):
            with pytest.raises(ValueError):
                sampled_graph_oracle(k2(), samples=samples)


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

    def test_reflected_spectrum_json_round_trip(self):
        reflected = laplacian_reflect(DiscreteSpectrum(np.array([-1.0, 0.0, 1.0])))
        back = DiscreteSpectrum.from_json(reflected.to_json())
        np.testing.assert_array_equal(back.values, [0.0, 1.0, 2.0])
        assert back.support == (0.0, 2.0)

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
