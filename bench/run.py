"""specden benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

Each run is a closed loop with one caller in one process: it starts the next
operation only after the previous one returned, until ``--seconds`` have
passed (at least one operation). Every operation's output is checked by its
workload's gate; an exception, a nonzero exit code or a missed gate counts as
a failed operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS always runs single-threaded. On the 2-core machine this was tuned on,
threaded OpenBLAS sometimes spent ~1 s starting its threads inside the first
operation, and a busy second core slowed a single-threaded loop on the first
by 15-25%. The run also pins itself, and the set-up processes it starts, to
the lowest-numbered CPU it may use: unpinned, a fixed Hutchinson loop there
ran at 0.033-0.035 or 0.040-0.043 s a call depending on the core it landed
on; pinned to the first core, at 0.034-0.036 s in seven of eight processes.

Timings come from every operation of a run. Accuracy and count metrics come
from the workload's first ``scored_ops`` operations only, which every run
completes, so they repeat exactly at a fixed seed however fast the code is.

``--trace 0`` reports the end-to-end metrics, measured with only the counting
hooks installed. ``--trace 1`` runs the same operations twice, first with the
counting hooks for half of ``--seconds`` and then with a span on every layer
call, and reports the per-layer metrics of the traced pass together with the
tracing overhead; the spans go to ``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("table1", "cohort", "estimate-hc14")
SETUP_REPEATS = 5  # this process plus four fresh ones
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Record:
    latency: float
    outcome: object
    facts: object
    densities: int
    invalid: int
    poly_min: float


def set_up(name: str, seed: int, root: Path, work: Path):
    """Import the library and the benchmark, install the counting hooks and
    make the workload's inputs. Returns (workload, probe)."""
    sys.path.insert(0, str(root / "src"))
    import specden.cli  # noqa: F401  (loads all eight layer modules)

    import probe
    import workloads

    hooks = probe.Probe()
    hooks.install(tracing=False)
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, work)
    return workload, hooks


def run_ops(workload, hooks, seconds=None, count=None, traced=False, min_ops=None):
    """The closed loop: ``count`` operations, or as many as start within
    ``seconds`` but at least ``min_ops`` (default: the workload's scored ones).
    Returns (records, wall seconds of the timed section)."""
    import workloads

    if min_ops is None:
        min_ops = workload.scored_ops
    records = []
    start = time.perf_counter()
    index = 0
    while (index < count) if count is not None else (
            index < min_ops or time.perf_counter() - start < seconds):
        hooks.begin_op(index)
        root = hooks.open_span("op") if traced else None
        t0 = time.perf_counter()
        try:
            raw, error = workload.op(index), None
        except Exception as exc:  # a failed operation is counted, not fatal
            raw, error = None, exc
        latency = time.perf_counter() - t0
        if traced:
            hooks.close_span(root)
        facts = hooks.end_op()
        if error is None:
            try:
                outcome = workload.check(raw, facts)
            except Exception as exc:
                error = exc
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            outcome = workloads.Outcome(False, f"{type(error).__name__}: {error}")
        elif not outcome.ok:
            print(f"bench: operation {index} missed its gate: {outcome.reason}",
                  file=sys.stderr)
        produced, invalid, poly_min = facts.density_validity()
        facts.densities.clear()
        records.append(Record(latency, outcome, facts, produced, invalid, poly_min))
        index += 1
    return records, time.perf_counter() - start


def tail(latencies):
    """The highest listed percentile with at least ten samples beyond it,
    or the maximum when there are too few samples. Returns (value, label)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{pct:g} of {n}"
    return ordered[-1], f"max of {n} (fewer than 11 samples)"


def _median_of(records, pick):
    values = [v for r in records for v in pick(r)]
    return statistics.median(values) if values else math.nan


def entries_fraction(facts) -> float:
    """Entries touched per sampled matvec / nnz, worst graph; an operation with
    only exact calls touches every stored entry per call, which is 1."""
    fractions = [entries / calls / nnz
                 for nnz, (calls, entries) in facts.sampled_by_nnz.items()]
    return max(fractions) if fractions else 1.0


def end_to_end(records, wall, setup_samples, scored_ops):
    """Timings over every operation; accuracy and counts over the first
    ``scored_ops``, the same operations in every run at a given seed."""
    scored = records[:scored_ops]
    ok = sum(r.outcome.ok for r in scored)
    densities = sum(r.densities for r in scored)
    invalid = sum(r.invalid for r in scored)
    tail_value, tail_label = tail([r.latency for r in records])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall / len(records), "s/op"),
        "op_p50_s": (statistics.median(r.latency for r in records), "s"),
        "op_tail_s": (tail_value, "s"),
        "ok_ops_ratio": (ok / len(scored), "ratio"),
        "valid_density_ratio": ((densities - invalid) / densities if densities else 1.0,
                                "ratio"),
        "oracle_calls": (statistics.fmean(r.facts.counts["oracle_calls"] for r in scored),
                         "calls/op"),
        "entries_fraction_of_nnz": (statistics.median(entries_fraction(r.facts)
                                                      for r in scored), "ratio"),
    }
    for name, unit in (("w1_idealized_dev_max", "W1"), ("w1_hutchinson_max", "W1"),
                       ("w1_approx_p50", "W1"), ("w1_over_eps_max", "ratio")):
        metrics[name] = (_median_of(scored, lambda r: r.outcome.accuracy.get(name, [])),
                         unit)
    for name in ("estimate_s", "estimate_amv_s", "eval_s", "discretize_s"):
        metrics[name] = (_median_of(records, lambda r: r.outcome.stages.get(name, [])), "s")
    manifest_calls = statistics.fmean(r.outcome.manifest.get("oracle_calls", 0)
                                      for r in scored)
    misses = sum(r.outcome.approx_misses for r in scored)
    passed = sum(r.outcome.ok for r in records)
    notes = (f"{len(records)} ops, {passed} passed their gate, the first {len(scored)} "
             f"scored; op_tail_s is the {tail_label}; "
             f"approx medians above criterion 9's 0.12: {misses}; "
             f"setup samples {[round(s, 3) for s in setup_samples]}; "
             f"densities invalid {invalid}/{densities}; oracle calls counted "
             f"{metrics['oracle_calls'][0]:.0f}/op, manifests record {manifest_calls:.0f}/op")
    return metrics, notes


def per_layer(records, wall, untraced_wall, spans):
    """Per-layer metrics of the traced pass, per operation unless noted."""
    import probe

    ops = len(records)
    totals = probe.span_totals(spans)
    latency = sum(r.latency for r in records)

    def span(name, key):
        return totals[name][key] / ops if name in totals else 0.0

    def count(key):
        return sum(r.facts.counts[key] for r in records) / ops

    def layer_self(layer):
        return sum(v["self_s"] for k, v in totals.items()
                   if k.startswith(layer + ".")) / ops

    def share(name):
        return totals[name]["s"] / latency if name in totals else 0.0

    sampled = totals.get("graphs.sampled_matvec", {"durations": []})["durations"]
    hutch_probes = sum(r.facts.counts["hutchinson_probes"] for r in records)
    budgets = [b for r in records for b in r.facts.budgets]
    densities = sum(r.densities for r in records)
    m = {
        "graphs.sampled_matvec.calls": (span("graphs.sampled_matvec", "calls"), "calls/op"),
        "graphs.sampled_matvec.self_s": (span("graphs.sampled_matvec", "self_s"), "s/op"),
        "graphs.sampled_matvec.p50_ms": (1e3 * statistics.median(sampled) if sampled else 0.0,
                                         "ms/call"),
        "graphs.sampled_matvec.samples": (count("samples"), "count/op"),
        "graphs.sampled_matvec.accept_ratio": (
            count("accepted") / count("samples") if count("samples") else 0.0, "ratio"),
        "graphs.sampled_matvec.entries_touched": (count("sampled_entries"), "count/op"),
        "graphs.sampled_matvec.share": (share("graphs.sampled_matvec"), "ratio"),
        "graphs.exact_normalized_matvec.calls": (
            span("graphs.exact_normalized_matvec", "calls"), "calls/op"),
        "graphs.exact_normalized_matvec.self_s": (
            span("graphs.exact_normalized_matvec", "self_s"), "s/op"),
        "graphs.load_graph.s": (span("graphs.load_graph", "s"), "s/op"),
        "graphs.generate_graph.s": (span("graphs.generate_graph", "s"), "s/op"),
        "graphs.save_graph.s": (span("graphs.save_graph", "s"), "s/op"),
        "graphs.self_s": (layer_self("graphs"), "s/op"),
        "oracles.apply.calls": (span("oracles.apply", "calls"), "calls/op"),
        "oracles.apply_block.cols": (count("apply_block_cols"), "count/op"),
        "oracles.apply_block.self_s": (span("oracles.apply_block", "self_s"), "s/op"),
        "oracles.flagged_calls": (count("flagged_calls"), "calls/op"),
        "oracles.self_s": (layer_self("oracles"), "s/op"),
        "moments.hutchinson_moments.s": (span("moments.hutchinson_moments", "s"), "s/op"),
        "moments.hutchinson_moments.per_probe_s": (
            totals["moments.hutchinson_moments"]["s"] / hutch_probes if hutch_probes else 0.0,
            "s/probe"),
        "moments.approx_hutchinson_moments.s": (
            span("moments.approx_hutchinson_moments", "s"), "s/op"),
        "moments.exact_moments.s": (span("moments.exact_moments", "s"), "s/op"),
        "moments.moments_from_spectrum.s": (span("moments.moments_from_spectrum", "s"), "s/op"),
        "moments.self_s": (layer_self("moments"), "s/op"),
        "moments.bound_violations": (count("bound_violations"), "count/op"),
        "moments.max_abs_tau": (max(r.facts.max_abs_tau for r in records), "1"),
        "jackson.jackson_coefficients.s": (span("jackson.jackson_coefficients", "s"), "s/op"),
        "jackson.self_s": (layer_self("jackson"), "s/op"),
        "density.full_kpm.s": (span("density.full_kpm", "s"), "s/op"),
        "density.idealized_kpm.s": (span("density.idealized_kpm", "s"), "s/op"),
        "density.poly_min": (min(r.poly_min for r in records), "1"),
        "density.invalid_ratio": (
            sum(r.invalid for r in records) / densities if densities else 0.0, "ratio"),
        "density.self_s": (layer_self("density"), "s/op"),
        "chebyshev.series_weighted_cdf.calls": (
            span("chebyshev.series_weighted_cdf", "calls"), "calls/op"),
        "chebyshev.series_weighted_cdf.points": (count("cdf_points"), "count/op"),
        "chebyshev.series_weighted_cdf.self_s": (
            span("chebyshev.series_weighted_cdf", "self_s"), "s/op"),
        "chebyshev.series_weighted_first_moment.calls": (
            span("chebyshev.series_weighted_first_moment", "calls"), "calls/op"),
        "chebyshev.series_weighted_first_moment.self_s": (
            span("chebyshev.series_weighted_first_moment", "self_s"), "s/op"),
        "chebyshev.self_s": (layer_self("chebyshev"), "s/op"),
        "spectrum.dense_eigenvalues.s": (span("spectrum.dense_eigenvalues", "s"), "s/op"),
        "spectrum.dense_eigenvalues.share": (share("spectrum.dense_eigenvalues"), "ratio"),
        "spectrum.discretize_optimal.self_s": (
            span("spectrum.discretize_optimal", "self_s"), "s/op"),
        "spectrum.discretize_optimal.share": (share("spectrum.discretize_optimal"), "ratio"),
        "spectrum.w1_density_vs_spectrum.self_s": (
            span("spectrum.w1_density_vs_spectrum", "self_s"), "s/op"),
        "spectrum.discretize_greedy.calls": (span("spectrum.discretize_greedy", "calls"),
                                             "calls/op"),
        "spectrum.discretize_greedy.self_s": (
            span("spectrum.discretize_greedy", "self_s"), "s/op"),
        "spectrum.w1_discrete.s": (span("spectrum.w1_discrete", "s"), "s/op"),
        "spectrum.self_s": (layer_self("spectrum"), "s/op"),
        "cli.tune_samples.s": (span("cli.tune_samples", "s"), "s/op"),
        "cli.tune_samples.share": (share("cli.tune_samples"), "ratio"),
        "cli.tune_samples.oracle_calls": (count("tune_oracle_calls"), "calls/op"),
        "cli.tune_samples.budget": (statistics.fmean(budgets) if budgets else 0.0, "samples"),
        "cli.load_input.s": (span("cli.load_input", "s"), "s/op"),
        "cli.self_s": (layer_self("cli"), "s/op"),
        "cli.manifest_oracle_calls": (
            statistics.fmean(r.outcome.manifest.get("oracle_calls", 0) for r in records),
            "calls/op"),
        "cli.manifest_entries_touched": (
            statistics.fmean(r.outcome.manifest.get("entries_touched", 0) for r in records),
            "count/op"),
        "oracles.calls_counted": (count("oracle_calls"), "calls/op"),
        "cli.approx_median_misses": (
            sum(r.outcome.approx_misses for r in records) / ops, "count/op"),
        "trace.spans": (len(spans) / ops, "count/op"),
        "trace.wall_s": (wall / ops, "s/op"),
        "trace.overhead_s": (wall / ops - untraced_wall, "s/op"),
    }
    notes = f"{ops} traced ops; untraced wall {untraced_wall:.4f} s/op"
    return m, notes


def machine_facts() -> str:
    import numpy as np

    try:
        blas = "{name} {version}".format(
            **np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "BLAS unknown"
    numba = "numba" if importlib.util.find_spec("numba") else "no numba"
    pinned = (f", pinned to CPU {min(os.sched_getaffinity(0))}"
              if hasattr(os, "sched_getaffinity") else "")
    return (f"{os.cpu_count()} cores, python {platform.python_version()}, "
            f"numpy {np.__version__}, {blas} with OPENBLAS_NUM_THREADS="
            f"{os.environ['OPENBLAS_NUM_THREADS']}, {numba}{pinned}")


def setup_in_fresh_process(args) -> float:
    """One more set-up, measured in a fresh interpreter by ``--setup-only``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (used internally)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "specden" / "__init__.py").is_file():
        print("bench: src/specden not found; run from the root of a specden checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload, hooks = set_up(args.workload, args.seed, root, work)
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            untraced, untraced_wall = run_ops(workload, hooks, seconds=args.seconds / 2,
                                              min_ops=1)
            hooks.install(tracing=True)
            traced, wall = run_ops(workload, hooks, count=len(untraced), traced=True)
            hooks.uninstall()
            metrics, notes = per_layer(traced, wall, untraced_wall / len(untraced),
                                       hooks.spans)
            trace_dir = root / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            import probe
            probe.write_spans(hooks.spans, trace_dir / f"{args.workload}-seed{args.seed}.csv")
            records = untraced + traced
        else:
            records, wall = run_ops(workload, hooks, seconds=args.seconds)
            hooks.uninstall()
            setup_samples = [setup_s] + [setup_in_fresh_process(args)
                                         for _ in range(SETUP_REPEATS - 1)]
            metrics, notes = end_to_end(records, wall, setup_samples, workload.scored_ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    failed = sum(not r.outcome.ok for r in records)
    print(f"bench: {args.workload} seed {args.seed}: {notes}")
    print(f"bench: machine: {machine_facts()}")
    for name, (value, unit) in metrics.items():
        print(f"bench:   {name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
