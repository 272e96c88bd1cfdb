"""Command-line harness: estimation, evaluation, discretization, graph
generation, and the three-graph experiment reproduction.

All file I/O and run configuration lives here. Every estimation run writes a
manifest next to its output; identical manifest inputs reproduce identical
numerical outputs because every random choice flows from the recorded seed.

Exit codes: 0 success; 2 for a missing, unreadable or malformed input file
or a command line argparse rejects; 3 for any flag or input property the CLI
or the library refuses. Each is decided in one place: ``_read_input`` turns
every failure to read a file into an InputError, and ``main`` sends an
InputError to 2 and a ConfigError or a library ``ValueError`` to 3.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

import numpy as np
import scipy

from . import __version__
from .density import DensityEstimate, export_plot_data, full_kpm, idealized_kpm
from .graphs import (
    GRAPH_KINDS,
    exact_graph_oracle,
    generate_graph,
    load_graph,
    sampled_graph_oracle,
    save_graph,
)
from .jackson import _check_degree, degree_for_accuracy, jackson_coefficients
from .moments import (
    MomentVector,
    approx_hutchinson_moments,
    exact_moments,
    hutchinson_moments,
    moments_from_spectrum,
)
from .oracles import (
    SymmetricMatrix,
    estimate_spectral_norm,
    exact_oracle,
    load_dense_text,
    load_matrix_market,
    scale_to_unit_norm,
)
from .spectrum import (
    DiscreteSpectrum,
    discretize_greedy,
    discretize_optimal,
    w1_density_vs_spectrum,
    w1_discrete,
)

logger = logging.getLogger(__name__)


class InputError(Exception):
    """Unreadable or malformed input; exit code 2."""


class ConfigError(Exception):
    """Invalid configuration or flag combination; exit code 3."""


def _environment() -> dict:
    """The numerics a run used. The BLAS thread count changes the last bits
    of summed products, so it is recorded as set (None when unset)."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


@dataclass
class RunManifest:
    """Reproducibility record written beside every run's output."""

    command: str
    config: dict
    seeds: dict
    inputs: dict
    outputs: dict
    timing_seconds: float = 0.0
    oracle_calls: int = 0
    entries_touched: int = 0
    environment: dict = field(default_factory=_environment)

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n")


# ---------------------------------------------------------------------------
# input loading

def _read_input(path_str: str, what: str, parse):
    """``parse(path)`` of the named file. A missing file, or any exception
    from ``parse`` (a directory, bytes that are not UTF-8, malformed
    contents), is an InputError."""
    path = Path(path_str)
    if not path.exists():
        raise InputError(f"{what} file {path} does not exist")
    try:
        return parse(path)
    except Exception as exc:
        raise InputError(f"failed to read {what} {path}: {exc}") from exc


def _sniff_format(path: Path) -> str:
    if path.suffix == ".mtx":
        return "mm"
    with open(path) as fh:
        first = fh.readline()
    if first.startswith("%%MatrixMarket"):
        return "mm"
    tokens = first.split()
    if len(tokens) == 2:
        try:
            int(tokens[0]), int(tokens[1])
            return "graph"
        except ValueError:
            pass
    return "dense"


def _load_input(path: Path, fmt: str):
    """Returns ('graph', GraphAccess) or ('matrix', SymmetricMatrix)."""
    if fmt == "auto":
        fmt = _sniff_format(path)
    if fmt == "graph":
        return "graph", load_graph(path)
    if fmt == "mm":
        return "matrix", load_matrix_market(path)
    return "matrix", load_dense_text(path)


def _load_truth_spectrum(path: Path) -> DiscreteSpectrum:
    text = path.read_text()
    if text.lstrip().startswith("{"):
        return DiscreteSpectrum.from_json(text)
    return DiscreteSpectrum.load_text(path)


def _load_density(path: Path) -> DensityEstimate:
    return DensityEstimate.from_json(path.read_text())


def _resolve_degree(args) -> int:
    if args.degree is not None:
        _check_degree(args.degree)
        return args.degree
    if args.eps is not None:
        return degree_for_accuracy(args.eps)
    raise ConfigError("one of --eps or --degree is required")


# ---------------------------------------------------------------------------
# estimate / moments

def _compute_moments(args, kind: str, loaded) -> tuple[MomentVector, dict]:
    """Shared moment-estimation core for the estimate and moments commands."""
    if (args.samples_per_matvec is not None) != (args.method == "graph-amv"):
        raise ConfigError("--samples-per-matvec is required by method graph-amv and "
                          f"read by no other method; method {args.method}")
    if args.auto_scale and kind == "graph":
        raise ConfigError("--auto-scale rescales a matrix input; a graph's normalized "
                          "adjacency has norm 1 already")
    degree = _resolve_degree(args)
    info: dict = {"degree": degree, "method": args.method, "scale_factor": None}
    if args.ell < 1:
        raise ConfigError("--ell must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")

    if kind == "matrix":
        matrix: SymmetricMatrix = loaded
        if args.auto_scale:
            matrix, factor = scale_to_unit_norm(matrix, seed=args.seed)
            info["scale_factor"] = factor
            logger.info("auto-scaled input by %.6g", factor)
        else:
            nu = estimate_spectral_norm(matrix, iterations=60, seed=args.seed)
            if nu > 1.0 + 1e-9:
                raise ConfigError(
                    f"spectral norm estimate {nu:.4g} exceeds 1; rerun with --auto-scale")
        loaded = matrix

    if args.method in ("exact", "hutchinson"):
        oracle = exact_graph_oracle(loaded) if kind == "graph" else exact_oracle(loaded)
        if args.method == "hutchinson":
            moments = hutchinson_moments(oracle, degree, args.ell, args.seed)
        else:
            moments = exact_moments(oracle, degree)
    else:  # graph-amv
        if kind != "graph":
            raise ConfigError("method graph-amv needs a graph input, not a matrix")
        oracle = sampled_graph_oracle(loaded, args.samples_per_matvec, seed=args.seed)
        moments = approx_hutchinson_moments(oracle, degree, args.ell, args.seed)

    info["oracle_calls"] = oracle.calls
    info["entries_touched"] = int(oracle.stats.get("entries_touched", 0))
    return moments, info


def _write_estimation_manifest(args, kind: str, info: dict, product: str,
                               t_start: float) -> None:
    """The manifest of an ``estimate`` or ``moments`` run, beside its output."""
    out = str(Path(args.output))
    RunManifest(
        command=args.command,
        config={"method": args.method, "degree": info["degree"], "eps": args.eps,
                "ell": args.ell, "samples_per_matvec": args.samples_per_matvec,
                "auto_scale": args.auto_scale, "scale_factor": info["scale_factor"]},
        seeds={"seed": args.seed},
        inputs={"path": args.input, "kind": kind},
        outputs={product: out},
        timing_seconds=time.perf_counter() - t_start,
        oracle_calls=info["oracle_calls"],
        entries_touched=info["entries_touched"],
    ).write(out + ".manifest.json")
    print(f"wrote {out} ({info['oracle_calls']} oracle calls)")


def cmd_estimate(args) -> int:
    t_start = time.perf_counter()
    kind, loaded = _read_input(args.input, "input", lambda path: _load_input(path, args.format))
    moments, info = _compute_moments(args, kind, loaded)
    coeffs = jackson_coefficients(info["degree"])
    if args.method == "exact":
        density = idealized_kpm(moments, coeffs)
    else:
        density = full_kpm(moments, coeffs)
    Path(args.output).write_text(density.to_json() + "\n")
    _write_estimation_manifest(args, kind, info, "density", t_start)
    return 0


def cmd_moments(args) -> int:
    t_start = time.perf_counter()
    kind, loaded = _read_input(args.input, "input", lambda path: _load_input(path, args.format))
    moments, info = _compute_moments(args, kind, loaded)
    Path(args.output).write_text(moments.to_json() + "\n")
    _write_estimation_manifest(args, kind, info, "moments", t_start)
    return 0


# ---------------------------------------------------------------------------
# eval / discretize / graph-gen

def cmd_eval(args) -> int:
    q = _read_input(args.density, "density", _load_density)
    truth = _read_input(args.truth, "spectrum", _load_truth_spectrum)
    w1_continuous = w1_density_vs_spectrum(q, truth)
    recovered = discretize_greedy(q, truth.n, args.disc_eps)
    w1_discretized = w1_discrete(recovered, truth)
    report = {
        "density": args.density,
        "truth": args.truth,
        "n": truth.n,
        "w1_density_vs_truth": w1_continuous,
        "w1_discretized_vs_truth": w1_discretized,
        "disc_eps": args.disc_eps,
    }
    text = json.dumps(report, indent=2)
    if args.output:
        out = Path(args.output)
        if out.suffix == ".csv":
            out.write_text("metric,value\n"
                           f"w1_density_vs_truth,{w1_continuous!r}\n"
                           f"w1_discretized_vs_truth,{w1_discretized!r}\n")
        else:
            out.write_text(text + "\n")
    print(text)
    return 0


def cmd_discretize(args) -> int:
    q = _read_input(args.density, "density", _load_density)
    if args.method == "greedy" and args.eps is None:
        raise ConfigError("greedy discretization needs --eps")
    if args.method == "greedy":
        spectrum = discretize_greedy(q, args.n, args.eps)
    else:
        spectrum = discretize_optimal(q, args.n)
    out = Path(args.output)
    if out.suffix == ".json":
        out.write_text(spectrum.to_json() + "\n")
    else:
        spectrum.save_text(out)
    print(f"wrote {out} ({spectrum.n} values)")
    return 0


def cmd_graph_gen(args) -> int:
    if args.kind == "hypercube":
        if args.bits is None:
            raise ConfigError("hypercube needs --bits")
        size = {"bits": args.bits}
    else:
        if args.n is None:
            raise ConfigError(f"{args.kind} needs -n")
        size = {"n": args.n}
    graph, truth = generate_graph(args.kind, **size)
    save_graph(graph, args.output)
    print(f"wrote {args.output} (n={graph.n}, m={graph.edge_count})")
    if args.truth_output:
        truth.save_text(args.truth_output)
        print(f"wrote {args.truth_output}")
    return 0


# ---------------------------------------------------------------------------
# experiment: three graphs x three methods

TABLE1_GRAPHS = (
    # (label, kind, size kwargs, degree)
    ("cliquePlusMatching", "clique-plus-matching", {"n": 1000}, 40),
    ("hairyClique", "hairy-clique", {"n": 1000}, 40),
    ("hypercube", "hypercube", {"bits": 14}, 80),
)
TABLE1_ELL = 2
TABLE1_DISC_EPS = 0.005  # greedy grid step every column is scored at
HISTOGRAM_BINS = 11
SEARCH_FRACTIONS = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 0.92)


def _scored_run(oracle, estimate, truth, coeffs, seed, spent):
    """One stochastic run: moments from ``estimate`` through ``oracle``, the
    shifted-rescaled density, its greedy discretization and its W1 to the
    truth. The oracle's calls and entries touched are added to ``spent``.

    Returns (w1, entries touched per oracle call, (density, moments, recovered)).
    """
    moments = estimate(oracle, coeffs.degree, TABLE1_ELL, seed)
    density = full_kpm(moments, coeffs)
    recovered = discretize_greedy(density, truth.n, TABLE1_DISC_EPS)
    entries = oracle.stats.get("entries_touched", 0)
    spent["calls"] += oracle.calls
    spent["entries"] += entries
    return w1_discrete(recovered, truth), entries / oracle.calls, (density, moments, recovered)


def _approx_run(graph, truth, coeffs, t, seed, spent):
    """One approximate-Hutchinson run through the sampled oracle at budget ``t``."""
    return _scored_run(sampled_graph_oracle(graph, t, seed=seed), approx_hutchinson_moments,
                       truth, coeffs, seed, spent)


def _tune_samples(graph, truth, coeffs, base_seed, hutch_median, spent):
    """Doubling search over the per-matvec budget, capped below nnz.

    Doubles t until the probe median is on par with exact-matvec Hutchinson
    (within 30%, or 2 points absolute); the cap keeps the touched-entry
    fraction under one even when parity is out of reach. The cap is returned
    whatever its probes would score, so it is never probed. The probe runs
    add their cost to ``spent``.
    """
    target = max(1.3 * hutch_median, hutch_median + 0.02)
    for frac in SEARCH_FRACTIONS[:-1]:
        t = math.ceil(frac * graph.nnz)
        probe = [_approx_run(graph, truth, coeffs, t, (base_seed, 999_331, s), spent)[0]
                 for s in range(2)]
        if median(probe) <= target:
            return t
    return math.ceil(SEARCH_FRACTIONS[-1] * graph.nnz)


def _seed_runs(run, seeds):
    """``run(seed)`` at every seed, in order: the W1 and entries per call of
    each run, and the first run's (density, moments, recovered) for the plots."""
    runs = [run(seed) for seed in seeds]
    return [w1 for w1, _, _ in runs], [entries for _, entries, _ in runs], runs[0][2]


def cmd_experiment_table1(args) -> int:
    t_start = time.perf_counter()
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.samples_per_matvec is not None and args.samples_per_matvec < 1:
        raise ConfigError("--samples-per-matvec must be >= 1")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [args.seed + 1000 * s for s in range(args.seeds)]
    results = {}
    spent = Counter()  # oracle calls and entries of every run, search probes included

    for label, kind, size_kwargs, degree in TABLE1_GRAPHS:
        graph, truth = generate_graph(kind, **size_kwargs)
        coeffs = jackson_coefficients(degree)
        exact = moments_from_spectrum(truth.values, degree)

        # idealized: deterministic baseline from exact moments
        ideal_density = idealized_kpm(exact, coeffs)
        ideal_rec = discretize_greedy(ideal_density, truth.n, TABLE1_DISC_EPS)
        ideal_w1 = w1_discrete(ideal_rec, truth)
        plots = {"idealized": (ideal_density, exact, ideal_rec)}

        # Hutchinson with exact matvecs, then approximate Hutchinson through
        # the sampled oracle at a searched or given budget
        hutch_w1, _, plots["hutchinson"] = _seed_runs(
            lambda seed: _scored_run(exact_graph_oracle(graph), hutchinson_moments,
                                     truth, coeffs, seed, spent), seeds)
        if args.samples_per_matvec is not None:
            t_budget = args.samples_per_matvec
        else:
            t_budget = _tune_samples(graph, truth, coeffs, args.seed, median(hutch_w1), spent)
        approx_w1, approx_entries, plots["approx"] = _seed_runs(
            lambda seed: _approx_run(graph, truth, coeffs, t_budget, seed, spent), seeds)

        mean_entries_per_matvec = float(np.mean(approx_entries))
        results[label] = {
            "n": graph.n,
            "nnz": graph.nnz,
            "degree": degree,
            "ell": TABLE1_ELL,
            "idealized_w1": ideal_w1,
            "hutchinson_w1_per_seed": hutch_w1,
            "hutchinson_w1_median": median(hutch_w1),
            "approx_w1_per_seed": approx_w1,
            "approx_w1_median": median(approx_w1),
            "samples_per_matvec": t_budget,
            "entries_per_matvec": mean_entries_per_matvec,
            "entries_fraction_of_nnz": mean_entries_per_matvec / graph.nnz,
            "entries_fraction_of_dense": mean_entries_per_matvec / graph.n**2,
        }

        # plot data: density curves, eigenvalue histograms over HISTOGRAM_BINS
        # equal cells of [-1, 1] as mass fractions, moment curves
        for name, (density, _, _) in plots.items():
            _write_csv(out_dir / f"{label}_density_{name}.csv",
                       dict(zip(("x", "q"), export_plot_data(density))))
        edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
        spectra = {"true": truth, **{name: recovered for name, (_, _, recovered) in plots.items()}}
        _write_csv(out_dir / f"{label}_eig_histogram.csv", {
            "bin_lo": edges[:-1],
            "bin_hi": edges[1:],
            **{name: np.histogram(s.values, bins=edges)[0] / s.n for name, s in spectra.items()},
        })
        taus = {"exact": exact.values,
                "hutchinson": plots["hutchinson"][1].values,
                "approx": plots["approx"][1].values}
        ratios = coeffs.ratios[1:]
        _write_csv(out_dir / f"{label}_moments.csv", {
            "k": np.arange(1, degree + 1),
            "jackson_ratio": ratios,
            **{f"tau_{name}": tau for name, tau in taus.items()},
            **{f"damped_{name}": ratios * tau for name, tau in taus.items()},
        })

    (out_dir / "table1.json").write_text(json.dumps(results, indent=2) + "\n")
    with open(out_dir / "table1.csv", "w") as fh:
        fh.write("graph,idealized,hutchinson_median,approx_median,"
                 "entries_fraction_of_nnz,entries_fraction_of_dense\n")
        for label, row in results.items():
            fh.write(f"{label},{row['idealized_w1']:.6f},"
                     f"{row['hutchinson_w1_median']:.6f},{row['approx_w1_median']:.6f},"
                     f"{row['entries_fraction_of_nnz']:.6f},"
                     f"{row['entries_fraction_of_dense']:.8f}\n")
    manifest = RunManifest(
        command="experiment-table1",
        config={"seeds": args.seeds, "samples_per_matvec": args.samples_per_matvec},
        seeds={"seed": args.seed, "per_run": seeds},
        inputs={"graphs": [g[0] for g in TABLE1_GRAPHS]},
        outputs={"dir": str(out_dir)},
        timing_seconds=time.perf_counter() - t_start,
        oracle_calls=spent["calls"],
        entries_touched=spent["entries"],
    )
    manifest.write(out_dir / "manifest.json")
    for label, row in results.items():
        print(f"{label:22s} idealized {100 * row['idealized_w1']:5.2f}%  "
              f"hutchinson {100 * row['hutchinson_w1_median']:5.2f}%  "
              f"approx {100 * row['approx_w1_median']:5.2f}%  "
              f"entries {100 * row['entries_fraction_of_nnz']:5.1f}% of nnz")
    return 0


def _write_csv(path, columns: dict) -> None:
    """A header line of the column names, then one row per entry of the
    equal-length columns, each value the ``repr`` of its Python scalar."""
    rows = zip(*(np.asarray(values).tolist() for values in columns.values()))
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# argument parsing

def _add_estimation_flags(sub):
    sub.add_argument("--method", choices=("exact", "hutchinson", "graph-amv"),
                     default="hutchinson")
    accuracy = sub.add_mutually_exclusive_group()
    accuracy.add_argument("--eps", type=float, default=None,
                          help="target Wasserstein accuracy (sets the degree)")
    accuracy.add_argument("--degree", type=int, default=None,
                          help="Chebyshev degree N (multiple of 4)")
    sub.add_argument("--ell", type=int, default=2,
                     help="Hutchinson repetitions (probe vectors)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples-per-matvec", type=int, default=None,
                     help="tuned per-call sampling budget, required by graph-amv "
                          "(one sampler run per matvec)")
    sub.add_argument("--auto-scale", action="store_true",
                     help="rescale a matrix input by its estimated spectral norm")
    sub.add_argument("--format", choices=("auto", "mm", "dense", "graph"),
                     default="auto")
    sub.add_argument("--output", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specden",
        description="Spectral density estimation via the Jackson-damped "
                    "kernel polynomial method.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="estimate a spectral density")
    est.add_argument("input")
    _add_estimation_flags(est)
    est.set_defaults(func=cmd_estimate)

    mom = subs.add_parser("moments", help="estimate Chebyshev moments only")
    mom.add_argument("input")
    _add_estimation_flags(mom)
    mom.set_defaults(func=cmd_moments)

    ev = subs.add_parser("eval", help="score a density against a true spectrum")
    ev.add_argument("--density", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--disc-eps", type=float, default=0.005,
                    help="grid step for the greedy discretization score")
    ev.add_argument("--output", default=None)
    ev.set_defaults(func=cmd_eval)

    disc = subs.add_parser("discretize", help="extract n approximate eigenvalues")
    disc.add_argument("--density", required=True)
    disc.add_argument("-n", type=int, required=True)
    disc.add_argument("--method", choices=("greedy", "optimal"), default="greedy")
    disc.add_argument("--eps", type=float, default=None,
                      help="grid step (greedy method)")
    disc.add_argument("--output", required=True)
    disc.set_defaults(func=cmd_discretize)

    gen = subs.add_parser("graph-gen", help="generate a named test graph")
    gen.add_argument("--kind", choices=GRAPH_KINDS, required=True)
    gen.add_argument("-n", type=int, default=None)
    gen.add_argument("--bits", type=int, default=None)
    gen.add_argument("--output", required=True)
    gen.add_argument("--truth-output", default=None,
                     help="also write the exact spectrum when known")
    gen.set_defaults(func=cmd_graph_gen)

    exp = subs.add_parser("experiment-table1",
                          help="reproduce the three-graph comparison")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--seeds", type=int, default=5,
                     help="number of seeds for the stochastic methods")
    exp.add_argument("--samples-per-matvec", type=int, default=None,
                     help="fixed sampling budget (skips the doubling search)")
    exp.add_argument("--output", required=True, help="output directory")
    exp.set_defaults(func=cmd_experiment_table1)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:  # a library function refuses an argument
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
