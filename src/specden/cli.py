"""Command-line harness: estimation, evaluation, discretization, graph
generation, and the three-graph experiment reproduction.

All file I/O and run configuration lives here. Every estimation run writes a
manifest next to its output; identical manifest inputs reproduce identical
numerical outputs because every random choice flows from the recorded seed.

Exit codes: 0 success, 2 input error (unreadable or malformed files),
3 configuration error (invalid flag combinations or unmet preconditions).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np

from . import __version__
from .density import DensityEstimate, full_kpm, idealized_kpm, write_plot_csv
from .graphs import (
    GRAPH_KINDS,
    GraphAccess,
    boosted_graph_oracle,
    exact_graph_oracle,
    generate_graph,
    load_graph,
    save_graph,
)
from .jackson import degree_for_accuracy, jackson_coefficients
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
    extra: dict = field(default_factory=dict)

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n")


# ---------------------------------------------------------------------------
# input loading

def _sniff_format(path: Path) -> str:
    if path.suffix == ".mtx":
        return "mm"
    try:
        with open(path) as fh:
            first = fh.readline()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
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


def _load_input(path_str: str, fmt: str):
    """Returns ('graph', GraphAccess) or ('matrix', SymmetricMatrix)."""
    path = Path(path_str)
    if not path.exists():
        raise InputError(f"input file {path} does not exist")
    if fmt == "auto":
        fmt = _sniff_format(path)
    try:
        if fmt == "graph":
            return "graph", load_graph(path)
        if fmt == "mm":
            return "matrix", load_matrix_market(path)
        if fmt == "dense":
            return "matrix", load_dense_text(path)
    except InputError:
        raise
    except Exception as exc:
        raise InputError(f"failed to parse {path} as {fmt}: {exc}") from exc
    raise ConfigError(f"unknown input format {fmt!r}")


def _load_truth_spectrum(path_str: str) -> DiscreteSpectrum:
    path = Path(path_str)
    if not path.exists():
        raise InputError(f"spectrum file {path} does not exist")
    text = path.read_text()
    try:
        if text.lstrip().startswith("{"):
            return DiscreteSpectrum.from_json(text)
        return DiscreteSpectrum(np.loadtxt(path, dtype=float, ndmin=1))
    except Exception as exc:
        raise InputError(f"failed to parse spectrum {path}: {exc}") from exc


def _resolve_degree(args) -> int:
    if args.degree is not None:
        if args.degree < 4 or args.degree % 4 != 0:
            raise ConfigError(f"--degree must be a positive multiple of 4, got {args.degree}")
        return args.degree
    if args.eps is not None:
        return degree_for_accuracy(args.eps)
    raise ConfigError("one of --eps or --degree is required")


def _resolve_ell(args) -> int:
    if args.ell == "auto":
        return 0  # resolved later from the config formula
    try:
        ell = int(args.ell)
    except ValueError:
        raise ConfigError(f"--ell must be an integer or 'auto', got {args.ell!r}")
    if ell < 1:
        raise ConfigError("--ell must be >= 1")
    return ell


# ---------------------------------------------------------------------------
# estimate / moments

def _compute_moments(args, kind: str, loaded) -> tuple[MomentVector, dict]:
    """Shared moment-estimation core for the estimate and moments commands."""
    degree = _resolve_degree(args)
    info: dict = {"degree": degree, "method": args.method, "scale_factor": None}
    ell = _resolve_ell(args)

    if kind == "graph":
        graph: GraphAccess = loaded
        n = graph.n
    else:
        matrix: SymmetricMatrix = loaded
        n = matrix.dimension
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

    if ell == 0:
        from .moments import EstimationConfig

        cfg = EstimationConfig(eps=args.eps or 18.0 / degree, delta=args.delta,
                               degree=degree)
        ell = cfg.default_ell(n)
        logger.info("ell=auto resolved to %d", ell)
    info["ell"] = ell

    if args.method == "exact":
        oracle = exact_graph_oracle(loaded) if kind == "graph" else exact_oracle(loaded)
        try:
            moments = exact_moments(oracle, degree)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif args.method == "hutchinson":
        oracle = exact_graph_oracle(loaded) if kind == "graph" else exact_oracle(loaded)
        moments = hutchinson_moments(oracle, degree, ell, args.seed)
    elif args.method == "graph-amv":
        if kind != "graph":
            raise ConfigError("method graph-amv needs a graph input, not a matrix")
        eps_mv = args.eps_mv if args.eps_mv is not None else 1.0 / (4.0 * degree**4)
        info["eps_mv"] = eps_mv
        if args.samples_per_matvec is not None:
            oracle = boosted_graph_oracle(loaded, eps_mv, args.delta,
                                          repetitions=1,
                                          samples=args.samples_per_matvec,
                                          seed=args.seed)
        else:
            budget = math.ceil(48.0 * n / eps_mv**2)
            if budget > 10**8:
                raise ConfigError(
                    f"worst-case sampling budget t={budget:.3g} per matvec is impractical; "
                    "pass --samples-per-matvec (tuned) or a larger --eps-mv")
            oracle = boosted_graph_oracle(loaded, eps_mv, args.delta, seed=args.seed)
        moments = approx_hutchinson_moments(oracle, degree, ell, args.seed)
    else:
        raise ConfigError(f"unknown method {args.method!r}")

    info["oracle_calls"] = oracle.calls
    info["entries_touched"] = int(oracle.stats.get("entries_touched", 0))
    return moments, info


def cmd_estimate(args) -> int:
    t_start = time.perf_counter()
    kind, loaded = _load_input(args.input, args.format)
    moments, info = _compute_moments(args, kind, loaded)
    coeffs = jackson_coefficients(info["degree"])
    if args.method == "exact":
        density = idealized_kpm(moments, coeffs)
    else:
        density = full_kpm(moments, coeffs)
    out = Path(args.output)
    out.write_text(density.to_json() + "\n")
    manifest = RunManifest(
        command="estimate",
        config={"method": args.method, "degree": info["degree"], "eps": args.eps,
                "ell": info["ell"], "eps_mv": info.get("eps_mv"), "delta": args.delta,
                "samples_per_matvec": args.samples_per_matvec,
                "auto_scale": args.auto_scale, "scale_factor": info["scale_factor"]},
        seeds={"seed": args.seed},
        inputs={"path": args.input, "kind": kind},
        outputs={"density": str(out)},
        timing_seconds=time.perf_counter() - t_start,
        oracle_calls=info["oracle_calls"],
        entries_touched=info["entries_touched"],
    )
    manifest.write(str(out) + ".manifest.json")
    print(f"wrote {out} ({info['oracle_calls']} oracle calls)")
    return 0


def cmd_moments(args) -> int:
    t_start = time.perf_counter()
    kind, loaded = _load_input(args.input, args.format)
    moments, info = _compute_moments(args, kind, loaded)
    out = Path(args.output)
    out.write_text(moments.to_json() + "\n")
    manifest = RunManifest(
        command="moments",
        config={"method": args.method, "degree": info["degree"], "eps": args.eps,
                "ell": info["ell"], "eps_mv": info.get("eps_mv"), "delta": args.delta,
                "samples_per_matvec": args.samples_per_matvec,
                "auto_scale": args.auto_scale, "scale_factor": info["scale_factor"]},
        seeds={"seed": args.seed},
        inputs={"path": args.input, "kind": kind},
        outputs={"moments": str(out)},
        timing_seconds=time.perf_counter() - t_start,
        oracle_calls=info["oracle_calls"],
        entries_touched=info["entries_touched"],
    )
    manifest.write(str(out) + ".manifest.json")
    print(f"wrote {out} ({info['oracle_calls']} oracle calls)")
    return 0


# ---------------------------------------------------------------------------
# eval / discretize / graph-gen

def _load_density(path_str: str) -> DensityEstimate:
    path = Path(path_str)
    if not path.exists():
        raise InputError(f"density file {path} does not exist")
    try:
        return DensityEstimate.from_json(path.read_text())
    except Exception as exc:
        raise InputError(f"failed to parse density {path}: {exc}") from exc


def cmd_eval(args) -> int:
    q = _load_density(args.density)
    truth = _load_truth_spectrum(args.truth)
    w1_continuous = w1_density_vs_spectrum(q, truth, resolution=args.grid_points)
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
    q = _load_density(args.density)
    if args.method == "greedy":
        if args.eps is None:
            raise ConfigError("greedy discretization needs --eps")
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
    if args.kind == "from-file":
        raise ConfigError("graph-gen generates synthetic kinds; from-file is for estimate")
    if args.kind == "hypercube":
        if args.bits is None:
            raise ConfigError("hypercube needs --bits")
        graph, truth = generate_graph("hypercube", bits=args.bits)
    else:
        if args.n is None:
            raise ConfigError(f"{args.kind} needs -n")
        try:
            graph, truth = generate_graph(args.kind, n=args.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    save_graph(graph, args.output)
    print(f"wrote {args.output} (n={graph.n}, m={graph.edge_count})")
    if args.truth_output and truth is not None:
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
SEARCH_FRACTIONS = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 0.92)


def _approx_run(graph, truth, degree, t, seed, disc_eps):
    """One tuned approximate-Hutchinson run.

    Returns (w1, entries_touched, oracle_calls, density, moments).
    """
    oracle = boosted_graph_oracle(graph, eps_mv=0.5, delta=0.49, repetitions=1,
                                  samples=t, seed=seed)
    moments = approx_hutchinson_moments(oracle, degree, TABLE1_ELL, seed)
    density = full_kpm(moments, jackson_coefficients(degree))
    recovered = discretize_greedy(density, truth.n, disc_eps)
    return (w1_discrete(recovered, truth), oracle.stats["entries_touched"],
            oracle.calls, density, moments)


def _tune_samples(graph, truth, degree, disc_eps, base_seed, hutch_median, spent):
    """Doubling search over the per-matvec budget, capped below nnz.

    Doubles t until the probe median is on par with exact-matvec Hutchinson
    (within 30%, or 2 points absolute); the cap keeps the touched-entry
    fraction under one even when parity is out of reach. The probe runs'
    oracle calls and entries touched are added to ``spent``.
    """
    target = max(1.3 * hutch_median, hutch_median + 0.02)
    chosen = None
    for frac in SEARCH_FRACTIONS:
        t = math.ceil(frac * graph.nnz)
        probe = []
        for s in range(2):
            w1, entries, calls, _, _ = _approx_run(
                graph, truth, degree, t, (base_seed, 999_331, s), disc_eps)
            spent["calls"] += calls
            spent["entries"] += entries
            probe.append(w1)
        chosen = t
        if median(probe) <= target:
            break
    return chosen


def cmd_experiment_table1(args) -> int:
    t_start = time.perf_counter()
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    disc_eps = args.disc_eps
    seeds = [args.seed + 1000 * s for s in range(args.seeds)]
    results = {}
    spent = Counter()  # oracle calls and entries of every run, search probes included

    for label, kind, size_kwargs, degree in TABLE1_GRAPHS:
        graph, truth = generate_graph(kind, **size_kwargs)
        coeffs = jackson_coefficients(degree)
        exact = moments_from_spectrum(truth.values, degree)

        # idealized: deterministic baseline from exact moments
        ideal_density = idealized_kpm(exact, coeffs)
        ideal_rec = discretize_greedy(ideal_density, truth.n, disc_eps)
        ideal_w1 = w1_discrete(ideal_rec, truth)

        # Hutchinson with exact matvecs
        hutch_w1 = []
        hutch_density = None
        hutch_moment_vec = None
        for seed in seeds:
            oracle = exact_graph_oracle(graph)
            mom = hutchinson_moments(oracle, degree, TABLE1_ELL, seed)
            spent["calls"] += oracle.calls
            density = full_kpm(mom, coeffs)
            if hutch_density is None:
                hutch_density, hutch_moment_vec = density, mom
            rec = discretize_greedy(density, truth.n, disc_eps)
            hutch_w1.append(w1_discrete(rec, truth))

        # approximate Hutchinson through the sampled oracle
        if args.samples_per_matvec is not None:
            t_budget = args.samples_per_matvec
        else:
            t_budget = _tune_samples(graph, truth, degree, disc_eps, args.seed,
                                     median(hutch_w1), spent)
        approx_w1 = []
        approx_entries = []
        approx_density = None
        approx_moment_vec = None
        for seed in seeds:
            w1, entries, calls, density, mom = _approx_run(
                graph, truth, degree, t_budget, seed, disc_eps)
            spent["calls"] += calls
            spent["entries"] += entries
            approx_w1.append(w1)
            approx_entries.append(entries / calls)
            if approx_density is None:
                approx_density, approx_moment_vec = density, mom

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

        # plot data: density curves, eigenvalue histograms, moment curves
        for name, density in (("idealized", ideal_density),
                              ("hutchinson", hutch_density),
                              ("approx", approx_density)):
            write_plot_csv(out_dir / f"{label}_density_{name}.csv", density,
                           grid_points=args.grid_points)
        _write_histogram_csv(out_dir / f"{label}_eig_histogram.csv", truth, {
            "idealized": ideal_rec,
            "hutchinson": discretize_greedy(hutch_density, truth.n, disc_eps),
            "approx": discretize_greedy(approx_density, truth.n, disc_eps),
        })
        _write_moments_csv(out_dir / f"{label}_moments.csv", coeffs, exact,
                           hutch_moment_vec, approx_moment_vec)

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
        config={"seeds": args.seeds, "disc_eps": disc_eps,
                "samples_per_matvec": args.samples_per_matvec,
                "grid_points": args.grid_points},
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


def _write_histogram_csv(path, truth: DiscreteSpectrum, recovered: dict,
                         bins: int = 11) -> None:
    """Eigenvalue histograms over `bins` equal cells of [-1, 1], as mass fractions."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    columns = {"true": truth, **recovered}
    masses = {}
    for name, spectrum in columns.items():
        hist, _ = np.histogram(spectrum.values, bins=edges)
        masses[name] = hist / spectrum.n
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi," + ",".join(masses) + "\n")
        for b in range(bins):
            row = ",".join(repr(float(masses[name][b])) for name in masses)
            fh.write(f"{float(edges[b])!r},{float(edges[b + 1])!r},{row}\n")


def _write_moments_csv(path, coeffs, exact: MomentVector,
                       hutch: Optional[MomentVector],
                       approx: Optional[MomentVector]) -> None:
    """Moment curves and their damped counterparts (figure analogues)."""
    ratios = coeffs.ratios
    with open(path, "w") as fh:
        fh.write("k,jackson_ratio,tau_exact,tau_hutchinson,tau_approx,"
                 "damped_exact,damped_hutchinson,damped_approx\n")
        for k in range(1, exact.degree + 1):
            te = float(exact.values[k - 1])
            th = float(hutch.values[k - 1]) if hutch is not None else float("nan")
            ta = float(approx.values[k - 1]) if approx is not None else float("nan")
            r = float(ratios[k])
            fh.write(f"{k},{r!r},{te!r},{th!r},{ta!r},"
                     f"{r * te!r},{r * th!r},{r * ta!r}\n")


# ---------------------------------------------------------------------------
# argument parsing

def _add_estimation_flags(sub):
    sub.add_argument("--method", choices=("exact", "hutchinson", "graph-amv"),
                     default="hutchinson")
    sub.add_argument("--eps", type=float, default=None,
                     help="target Wasserstein accuracy (sets the degree)")
    sub.add_argument("--degree", type=int, default=None,
                     help="Chebyshev degree N (multiple of 4); overrides --eps")
    sub.add_argument("--ell", default="2",
                     help="Hutchinson repetitions, or 'auto' for the theory formula")
    sub.add_argument("--eps-mv", type=float, default=None,
                     help="oracle accuracy for graph-amv (default 1/(4 N^4))")
    sub.add_argument("--delta", type=float, default=0.05, help="failure probability")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples-per-matvec", type=int, default=None,
                     help="tuned per-call sampling budget for graph-amv "
                          "(single sampler run per matvec)")
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
    ev.add_argument("--grid-points", type=int, default=10_000,
                    help="bisection resolution for the CDF-distance score")
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
    exp.add_argument("--disc-eps", type=float, default=0.005)
    exp.add_argument("--samples-per-matvec", type=int, default=None,
                     help="fixed sampling budget (skips the doubling search)")
    exp.add_argument("--grid-points", type=int, default=512)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
