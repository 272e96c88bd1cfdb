"""Undirected-graph access model, sublinear sampled matvec, and graph generators.

Graphs are unweighted and simple. The access model supports three primitives:
uniform vertex sampling in O(1), uniform neighbor sampling in O(1), and
neighbor enumeration in O(d_i). The sampled matvec approximates the
normalized adjacency product ``Abar y`` with ``Abar = D^{-1/2} A D^{-1/2}``
by accept/reject column sampling; each loop iteration touches one matrix
entry in expectation, which is what makes the oracle sublinear.

The simulator does not run that loop one iteration at a time. It draws the
per-column counts of all t iterations at once from their exact joint
distribution, a multinomial over the per-iteration column probabilities
``p``, which it computes once per graph. That one-time O(nnz) pass and the
final sparse product are the simulator's own work; the reported cost
(``entries_touched``) stays the access model's, one column read of d_i
entries per accepted iteration.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse

from .density import DensityEstimate
from .chebyshev import ChebyshevSeries
from .oracles import MatvecOracle
from .spectrum import DiscreteSpectrum

logger = logging.getLogger(__name__)

GRAPH_KINDS = ("clique-plus-matching", "hairy-clique", "hypercube", "from-file")


@dataclass
class GraphAccess:
    """Adjacency-list view of a simple undirected graph.

    ``indices[indptr[i]:indptr[i+1]]`` lists the neighbors of vertex i.
    ``has_list_access=False`` simulates the weaker access model where
    enumeration is only available through repeated neighbor sampling; it
    changes how ``neighbors`` enumerates, not what ``sampled_matvec`` returns.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    norm_adjacency: scipy.sparse.csr_matrix
    has_list_access: bool = True

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the (normalized) adjacency: twice the edge count."""
        return int(self.indices.size)

    @property
    def edge_count(self) -> int:
        return self.nnz // 2

    @cached_property
    def column_probabilities(self) -> np.ndarray:
        """p_i = (1/(n d_i)) sum_{j in N(i)} 1/d_j: the probability that one
        accept/reject iteration of the sampled matvec accepts column i."""
        inv_deg = 1.0 / self.degrees
        col_sums = np.add.reduceat(inv_deg[self.indices], self.indptr[:-1])
        p = col_sums / (self.n * self.degrees)
        p.flags.writeable = False  # shared by every call on this graph
        return p

    def degree(self, i: int) -> int:
        return int(self.degrees[i])

    def neighbors(self, i: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """All neighbors of i: direct list read, or coupon-collector sampling
        when list access is unavailable (expected O(d_i log d_i) samples)."""
        if self.has_list_access:
            return self.indices[self.indptr[i]:self.indptr[i + 1]]
        if rng is None:
            raise ValueError("neighbor enumeration by sampling needs an rng")
        d = self.degree(i)
        row = self.indices[self.indptr[i]:self.indptr[i + 1]]
        seen: set[int] = set()
        while len(seen) < d:
            seen.add(int(row[rng.integers(0, d)]))
        return np.fromiter(sorted(seen), dtype=np.int64, count=d)

    def sample_vertex(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.n))

    def sample_neighbor(self, i: int, rng: np.random.Generator) -> int:
        d = self.degree(i)
        return int(self.indices[self.indptr[i] + rng.integers(0, d)])


def _edges_to_graph(us: np.ndarray, vs: np.ndarray, n: int,
                    dedupe: bool = True) -> GraphAccess:
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.size == 0:
        raise ValueError("graph has no edges")
    if np.any(us == vs):
        raise ValueError("self-loops are not allowed")
    if us.min() < 0 or vs.min() < 0 or us.max() >= n or vs.max() >= n:
        raise ValueError("edge endpoint outside [0, n)")
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    if dedupe:
        keys = np.unique(lo * np.int64(n) + hi)
        lo, hi = keys // n, keys % n
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    adj = scipy.sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n, n))
    degrees = np.diff(adj.indptr).astype(np.int64)
    if np.any(degrees == 0):
        bad = int(np.flatnonzero(degrees == 0)[0])
        raise ValueError(f"isolated vertex {bad}: every vertex needs degree >= 1")
    inv_sqrt_d = 1.0 / np.sqrt(degrees.astype(float))
    norm = adj.copy()
    norm.data = inv_sqrt_d[norm.indices] * np.repeat(inv_sqrt_d, degrees)
    return GraphAccess(
        n=n,
        indptr=adj.indptr.astype(np.int64),
        indices=adj.indices.astype(np.int64),
        degrees=degrees,
        norm_adjacency=norm,
    )


def exact_normalized_matvec(graph: GraphAccess, y: np.ndarray) -> np.ndarray:
    """z_i = sum_{j in N(i)} y_j / sqrt(d_i d_j), computed exactly."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] != graph.n:
        raise ValueError(f"dimension mismatch: graph has {graph.n} vertices")
    return graph.norm_adjacency @ y


def exact_graph_oracle(graph: GraphAccess) -> MatvecOracle:
    from .oracles import SymmetricMatrix

    return MatvecOracle(
        dimension=graph.n,
        apply_fn=lambda y: exact_normalized_matvec(graph, y),
        error_bound=0.0,
        cost_model="sparse O(nnz) per call",
        matrix=SymmetricMatrix(sparse=graph.norm_adjacency, norm_bound=1.0),
    )


@dataclass
class SampledMatvecReport:
    """One sampled matvec: output plus its cost accounting.

    ``entries_touched`` is the access model's cost: the d_i entries of column
    i read once per accepted iteration, ``sum_i counts_i d_i``.
    ``accepted_counts`` (per-vertex acceptance tallies) is populated only on
    request; distribution tests use it to check the acceptance probabilities.
    """

    output: np.ndarray
    entries_touched: int
    samples: int
    accepted: int
    accepted_counts: Optional[np.ndarray] = None


def sampled_matvec(graph: GraphAccess, y: np.ndarray, t: int, seed,
                   track_counts: bool = False) -> SampledMatvecReport:
    """Accept/reject column-sampled estimate of ``Abar y`` with budget t.

    Each iteration of the access model's loop samples a vertex, then a
    neighbor i, and accepts with probability 1/d_i, so column i is used with
    probability ``p_i = (1/(n d_i)) sum_{j in N(i)} 1/d_j`` and the output is
    ``(1/t) sum over accepted columns of y_i Abar^i / p_i``.

    The t iterations are independent, so their per-column counts are exactly
    ``Multinomial(t, [p_1, ..., p_n, 1 - sum p])``, the last cell being the
    rejections; the simulator draws the counts from that distribution in one
    call and returns ``Abar (counts * y / p) / t``. Computing ``p`` once per
    graph (``GraphAccess.column_probabilities``) and the sparse product are
    the simulator's own work, not the access model's.

    ``entries_touched = sum_i counts_i d_i`` is the access model's cost: one
    read of column i's d_i entries per accepted iteration. Without list access
    (``has_list_access=False``) enumerating a column takes an expected
    O(d_i log d_i) neighbor samples instead (``GraphAccess.neighbors``); that
    overhead is not included in ``entries_touched``.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    y = np.asarray(y, dtype=float)
    n = graph.n
    if y.shape[0] != n:
        raise ValueError(f"dimension mismatch: graph has {n} vertices")
    p = graph.column_probabilities
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(t, np.append(p, max(0.0, 1.0 - p.sum())))[:n]
    output = graph.norm_adjacency @ (counts * y / p) / t
    return SampledMatvecReport(
        output=output,
        entries_touched=int(np.dot(counts, graph.degrees)),
        samples=t,
        accepted=int(counts.sum()),
        accepted_counts=counts if track_counts else None,
    )


def boosted_graph_oracle(graph: GraphAccess, eps_mv: float, delta: float,
                         boost_constant: float = 8.0,
                         repetitions: Optional[int] = None,
                         samples: Optional[int] = None,
                         seed=0) -> MatvecOracle:
    """Median-style boosting of the sampled matvec into an oracle contract.

    Runs the sampler r = ceil(c log(1/delta)) times with budget
    t = ceil(48 n / eps_mv^2) and returns the first candidate agreeing with a
    strict majority within radius (eps_mv/2)||y||. With probability >= 1-delta
    the result satisfies ``||z - Abar y|| <= eps_mv ||y||``. Candidate order is
    repetition-index order; the guarantee does not depend on it. If no
    candidate reaches a majority (probability <= delta) the most-agreeing one
    is returned and the call is flagged in ``stats``.

    ``repetitions``/``samples`` override the schedule; repetitions=1
    degenerates to a single sampler call, the practical configuration when t
    is tuned empirically instead of set by the worst-case formula.
    """
    if not 0.0 < eps_mv < 1.0:
        raise ValueError("eps_mv must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    r = repetitions if repetitions is not None else max(
        1, math.ceil(boost_constant * math.log(1.0 / delta)))
    t = samples if samples is not None else math.ceil(48.0 * graph.n / eps_mv**2)
    stats = {"entries_touched": 0, "samples_budget": t, "repetitions": r,
             "flagged_calls": 0, "matvec_calls": 0}
    lock = threading.Lock()
    counter = {"i": 0}

    def apply_fn(y):
        with lock:
            idx = counter["i"]
            counter["i"] += 1
        reports = [sampled_matvec(graph, y, t, seed=(seed, idx, rep))
                   for rep in range(r)]
        with lock:
            stats["entries_touched"] += sum(rep.entries_touched for rep in reports)
            stats["matvec_calls"] += 1
        if r == 1:
            return reports[0].output
        candidates = [rep.output for rep in reports]
        radius = 0.5 * eps_mv * float(np.linalg.norm(y))
        needed = r // 2 + 1
        best_idx, best_agree = 0, -1
        for i, z_i in enumerate(candidates):
            agree = sum(
                1 for z_j in candidates
                if float(np.linalg.norm(z_i - z_j)) <= radius)
            if agree >= needed:
                return z_i
            if agree > best_agree:
                best_idx, best_agree = i, agree
        with lock:
            stats["flagged_calls"] += 1
        logger.warning("boosted oracle call %d found no majority candidate "
                       "(best agreement %d of %d)", idx, best_agree, r)
        return candidates[best_idx]

    return MatvecOracle(
        dimension=graph.n,
        apply_fn=apply_fn,
        error_bound=eps_mv,
        cost_model=f"expected O(t) with t={t}, r={r} repetitions per call",
        stats=stats,
    )


# ---------------------------------------------------------------------------
# generators with closed-form ground-truth spectra


def _clique_plus_matching(n: int):
    if n % 4 != 0 or n < 4:
        raise ValueError("clique-plus-matching needs n >= 4 divisible by 4")
    c = n // 2
    ii, jj = np.triu_indices(c, k=1)
    us = np.concatenate([ii, np.arange(c, n, 2)])
    vs = np.concatenate([jj, np.arange(c + 1, n, 2)])
    spectrum = np.concatenate([
        [1.0],
        np.full(c - 1, -1.0 / (c - 1)),
        np.full(n // 4, 1.0),
        np.full(n // 4, -1.0),
    ])
    return us, vs, spectrum


def _hairy_clique(n: int):
    if n % 2 != 0 or n < 4:
        raise ValueError("hairy-clique needs even n >= 4")
    c = n // 2
    ii, jj = np.triu_indices(c, k=1)
    us = np.concatenate([ii, np.arange(c)])
    vs = np.concatenate([jj, np.arange(c, n)])
    # pair sectors: (symmetric) eigenvalues 1 and -1/c; (anti) c-1 copies each of
    # the roots of x^2 + x/c - 1/c
    root = math.sqrt(1.0 / c**2 + 4.0 / c)
    lam_plus = 0.5 * (-1.0 / c + root)
    lam_minus = 0.5 * (-1.0 / c - root)
    spectrum = np.concatenate([
        [1.0, -1.0 / c],
        np.full(c - 1, lam_plus),
        np.full(c - 1, lam_minus),
    ])
    return us, vs, spectrum


def _hypercube(bits: int):
    if bits < 1:
        raise ValueError("hypercube needs bits >= 1")
    n = 1 << bits
    verts = np.arange(n, dtype=np.int64)
    us = np.concatenate([verts] * bits)
    vs = np.concatenate([verts ^ (1 << b) for b in range(bits)])
    keep = us < vs
    spectrum = np.concatenate([
        np.full(math.comb(bits, j), (bits - 2 * j) / bits) for j in range(bits + 1)
    ])
    return us[keep], vs[keep], spectrum


def generate_graph(kind: str, n: Optional[int] = None, bits: Optional[int] = None,
                   path=None) -> tuple[GraphAccess, Optional[DiscreteSpectrum]]:
    """Build a named test graph together with its exact spectrum when known."""
    if kind == "clique-plus-matching":
        us, vs, spec = _clique_plus_matching(int(n))
        return _edges_to_graph(us, vs, int(n)), DiscreteSpectrum(spec)
    if kind == "hairy-clique":
        us, vs, spec = _hairy_clique(int(n))
        return _edges_to_graph(us, vs, int(n)), DiscreteSpectrum(spec)
    if kind == "hypercube":
        us, vs, spec = _hypercube(int(bits))
        return _edges_to_graph(us, vs, 1 << int(bits)), DiscreteSpectrum(spec)
    if kind == "from-file":
        return load_graph(path), None
    raise ValueError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")


def graph_from_edges(us, vs, n: int) -> GraphAccess:
    """Public constructor from 0-indexed edge arrays (deduplicated)."""
    return _edges_to_graph(np.asarray(us), np.asarray(vs), n)


def save_graph(graph: GraphAccess, path) -> None:
    """Write the 'n m' + one-edge-per-line (1-indexed) format."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.edge_count}\n")
        for i in range(graph.n):
            for j in graph.indices[graph.indptr[i]:graph.indptr[i + 1]]:
                if i < j:
                    fh.write(f"{i + 1} {j + 1}\n")


def load_graph(path) -> GraphAccess:
    """Read the 'n m' + edge-list format; duplicate edges collapse silently."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: first line must be 'n m'")
        n, m = int(header[0]), int(header[1])
        data = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: no edges")
    if data.shape[0] != m:
        raise ValueError(f"{path}: header declares {m} edges, found {data.shape[0]}")
    us, vs = data[:, 0] - 1, data[:, 1] - 1
    return _edges_to_graph(us, vs, n)


def laplacian_reflect(obj, remap: bool = False):
    """Map a normalized-adjacency object to its normalized-Laplacian twin.

    Spectra map by ``lambda -> 1 - lambda`` onto [0, 2], or by pure negation
    onto [-1, 1] when ``remap`` is set (the affine placement is then implicit).
    Densities reflect exactly in coefficient space, a_k -> (-1)^k a_k, because
    the weight is symmetric under x -> -x; the +1 shift that finishes the
    Laplacian map is recorded in metadata instead of resampling the series.
    Applying the reflection twice is the identity.
    """
    if isinstance(obj, DiscreteSpectrum):
        if remap:
            return DiscreteSpectrum(-obj.values, support=obj.support)
        lo, hi = obj.support
        return DiscreteSpectrum(1.0 - obj.values, support=(1.0 - hi, 1.0 - lo))
    if isinstance(obj, DensityEstimate):
        coeffs = obj.series.coefficients.copy()
        coeffs[1::2] *= -1.0
        meta = dict(obj.metadata)
        shift = meta.get("laplacian_shift", 0.0)
        meta["laplacian_shift"] = 0.0 if remap else (1.0 if shift == 0.0 else 0.0)
        return DensityEstimate(series=ChebyshevSeries(coeffs), metadata=meta)
    raise TypeError(f"cannot reflect object of type {type(obj).__name__}")
