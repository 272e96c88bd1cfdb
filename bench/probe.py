"""Outside-in instrumentation of the specden layers.

Every hook is installed from here by replacing a function in each module that
binds it, so nothing under ``src/`` changes. That replacement has to reach
every binding: ``cli`` and ``density`` import layer functions by name, and
``boosted_graph_oracle`` looks ``sampled_matvec`` up in the globals of
``graphs``, so patching only the defining module would miss the hot paths.

Two levels of hooks:

* counting hooks, installed in every run: oracle calls (the budget search's
  included), sampled-matvec samples and entries, the moment vectors and
  densities the library returns, the W1 of each approximate table1 run, and
  the latency and work size of the four stage functions that table1 runs
  inside the CLI;
* spans, installed only when tracing: one span per call of every public
  function of the eight layer modules, plus a few private helpers whose cost
  the per-layer metrics name. Spans are kept in memory and written out when
  the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("graphs", "oracles", "moments", "jackson", "density", "chebyshev",
          "spectrum", "cli")
PRIVATE_SPANS = {"cli": ("_tune_samples", "_load_input", "_approx_run",
                         "_compute_moments")}
METHOD_SPANS = {"oracles": ("MatvecOracle", ("apply", "apply_block"))}
MOMENT_PRODUCERS = ("hutchinson_moments", "approx_hutchinson_moments",
                    "exact_moments", "moments_from_spectrum")
DENSITY_PRODUCERS = ("full_kpm", "idealized_kpm")
STAGE_TIMERS = ("hutchinson_moments", "approx_hutchinson_moments",
                "discretize_greedy", "w1_discrete")

#: sqrt(2/pi) scales T_k to the normalized Tbar_k, so |tau_k| <= NORM_K holds
#: for every normalized moment when ||A|| <= 1
NORM_K = math.sqrt(2.0 / math.pi)
NORM_0 = 1.0 / math.sqrt(math.pi)
TAU_BOUND = NORM_K * (1 + 1e-9)
#: Chebyshev-Lobatto grid on which the polynomial part of a density is checked
VALIDITY_GRID = np.cos(np.pi * np.arange(2001) / 2000)
POLY_TOL = -1e-10


def polynomial_minimum(density) -> float:
    """Minimum of ``sum_k a_k Tbar_k`` on the grid, by numpy's Clenshaw sum.

    Independent of the library's own evaluator, which is traced.
    """
    coeffs = density.series.coefficients * NORM_K
    coeffs[0] = density.series.coefficients[0] * NORM_0
    return float(np.polynomial.chebyshev.chebval(VALIDITY_GRID, coeffs).min())


class OpFacts:
    """What the counting hooks saw during one operation."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.sampled_by_nnz = defaultdict(lambda: [0, 0])  # nnz -> [calls, entries]
        self.stage_s = defaultdict(list)
        self.densities = []  # (moments break the bound, density)
        self.approx_runs = []  # (graph n, budget t, W1) of each cli._approx_run
        self.boosted = []
        self.budgets = []
        self.max_abs_tau = 0.0

    def density_validity(self):
        """(produced, invalid, worst polynomial minimum) over the op's densities."""
        invalid = 0
        worst = math.inf
        for bad_moments, density in self.densities:
            low = polynomial_minimum(density)
            worst = min(worst, low)
            invalid += bad_moments or low < POLY_TOL
        return len(self.densities), invalid, worst


# ---------------------------------------------------------------------------
# counting callbacks: (probe, args, result, (apply calls, oracle calls) before)

def _count_apply(probe, args, out, before):
    probe.facts.counts["apply_calls"] += 1
    probe.facts.counts["oracle_calls"] += 1


def _count_apply_block(probe, args, out, before):
    cols = args[1].shape[1]
    probe.facts.counts["apply_block_cols"] += cols
    if probe.facts.counts["apply_calls"] == before[0]:
        # the block took the matmul path: no per-column apply was counted
        probe.facts.counts["oracle_calls"] += cols


def _count_sampled(probe, args, report, before):
    c = probe.facts.counts
    c["samples"] += report.samples
    c["accepted"] += report.accepted
    c["sampled_entries"] += report.entries_touched
    slot = probe.facts.sampled_by_nnz[args[0].nnz]
    slot[0] += 1
    slot[1] += report.entries_touched


def _keep_boosted(probe, args, oracle, before):
    probe.facts.boosted.append(oracle)


def _count_moments(probe, args, mv, before):
    mags = np.abs(mv.values)
    probe.facts.counts["bound_violations"] += int(np.count_nonzero(mags > TAU_BOUND))
    probe.facts.max_abs_tau = max(probe.facts.max_abs_tau, float(mags.max()))


def _count_hutchinson(probe, args, mv, before):
    _count_moments(probe, args, mv, before)
    probe.facts.counts["hutchinson_probes"] += args[2]


def _keep_density(probe, args, density, before):
    bad = bool(np.any(np.abs(args[0].values) > TAU_BOUND))
    probe.facts.densities.append((bad, density))


def _keep_approx_run(probe, args, out, before):
    graph, truth, degree, t = args[:4]
    probe.facts.approx_runs.append((graph.n, t, out[0]))


def _count_tune(probe, args, budget, before):
    probe.facts.budgets.append(budget)
    probe.facts.counts["tune_oracle_calls"] += probe.facts.counts["oracle_calls"] - before[1]


def _count_cdf_points(probe, args, out, before):
    probe.facts.counts["cdf_points"] += np.size(args[1])


COUNTERS = {
    ("oracles", "MatvecOracle.apply"): _count_apply,
    ("oracles", "MatvecOracle.apply_block"): _count_apply_block,
    ("graphs", "sampled_matvec"): _count_sampled,
    ("graphs", "boosted_graph_oracle"): _keep_boosted,
    ("cli", "_tune_samples"): _count_tune,
    ("cli", "_approx_run"): _keep_approx_run,
    ("chebyshev", "series_weighted_cdf"): _count_cdf_points,
    **{("moments", name): _count_moments for name in MOMENT_PRODUCERS},
    ("moments", "hutchinson_moments"): _count_hutchinson,
    **{("density", name): _keep_density for name in DENSITY_PRODUCERS},
}


def _work_size(args):
    """What sets a stage call's cost: (dimension, sampling budget) for the
    moment estimators, (n, 0) for greedy discretization and W1 scoring."""
    first = args[0]
    if hasattr(first, "dimension"):  # a MatvecOracle
        return first.dimension, first.stats.get("samples_budget", 0)
    if hasattr(first, "n"):  # w1_discrete(DiscreteSpectrum, ...)
        return first.n, 0
    return args[1], 0  # discretize_greedy(q, n, eps)


def span_name(layer: str, qualname: str) -> str:
    """``cli._tune_samples`` -> ``cli.tune_samples``; methods drop the class."""
    return f"{layer}.{qualname.rsplit('.', 1)[-1].lstrip('_')}"


class Probe:
    """Counting hooks and, when tracing, spans at every layer boundary."""

    def __init__(self):
        self.recording = False
        self.tracing = False
        self.facts = OpFacts()
        self.op_id = -1
        self.spans = []  # [op, name, start, end, parent index]
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self, tracing: bool) -> None:
        """(Re)install the hooks; ``tracing`` adds a span to every layer call."""
        self.uninstall()
        self.tracing = tracing
        for layer in LAYERS:
            module = sys.modules[f"specden.{layer}"]
            for qualname, owner, attr, fn in self._targets(layer, module):
                key = (layer, qualname)
                counter = COUNTERS.get(key)
                stage = layer in ("moments", "spectrum") and attr in STAGE_TIMERS
                if not (tracing or counter or stage):
                    continue
                hooked = self._wrap(span_name(layer, qualname), fn, counter, stage)
                if owner is None:
                    self._rebind(fn, hooked)
                else:
                    self._patched.append((owner, attr, fn))
                    setattr(owner, attr, hooked)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    @staticmethod
    def _targets(layer, module):
        private = PRIVATE_SPANS.get(layer, ())
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and (not attr.startswith("_") or attr in private)):
                yield attr, None, attr, fn
        if layer in METHOD_SPANS:
            cls_name, methods = METHOD_SPANS[layer]
            cls = getattr(module, cls_name)
            for attr in methods:
                yield f"{cls_name}.{attr}", cls, attr, vars(cls)[attr]

    def _rebind(self, fn, hooked) -> None:
        """Replace ``fn`` in every specden module that binds it."""
        for name, module in list(sys.modules.items()):
            if name != "specden" and not name.startswith("specden."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, hooked)

    def _wrap(self, name, fn, counter, stage):
        probe = self
        tracing = self.tracing

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if not probe.recording:
                return fn(*args, **kwargs)
            counts = probe.facts.counts
            before = (counts["apply_calls"], counts["oracle_calls"])
            if tracing:
                index = probe.open_span(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                if tracing:
                    probe.close_span(index)
            if stage:
                probe.facts.stage_s[name].append((time.perf_counter() - start,
                                                  _work_size(args)))
            if counter is not None:
                counter(probe, args, out, before)
            return out

        return hooked

    # -- spans and operations ----------------------------------------------

    def open_span(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op_id, name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.facts = OpFacts()
        self.op_id = op_id
        self.recording = True

    def end_op(self) -> OpFacts:
        self.recording = False
        facts = self.facts
        facts.counts["flagged_calls"] = sum(o.stats["flagged_calls"] for o in facts.boosted)
        facts.boosted.clear()
        return facts


def span_totals(spans):
    """Per span name: calls, total seconds, self seconds and call durations.

    Self time is a span's duration minus the part its child spans cover;
    spans nest strictly because the benchmark runs one caller on one thread.
    """
    child = [0.0] * len(spans)
    for op, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
    for (op, name, start, end, parent), inner in zip(spans, child):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - inner
        entry["durations"].append(end - start)
    return totals


def write_spans(spans, path) -> None:
    """One CSV line per span; times in seconds from the first span's start."""
    origin = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("op,name,start_s,end_s,parent\n")
        for op, name, start, end, parent in spans:
            fh.write(f"{op},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
