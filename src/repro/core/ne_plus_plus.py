"""NE++: memory-efficient neighborhood expansion (paper Section 3.2).

NE++ is the in-memory phase of HEP.  It differs from baseline NE
(:mod:`repro.partition.ne`) in exactly the ways the paper describes:

**Pruned graph representation** (Section 3.2.1).  The CSR stores no
adjacency lists for high-degree vertices (``d(v) > tau * mean``); edges
between two high-degree vertices were diverted to an external buffer at
build time.  High-degree vertices are never expanded into the core set —
they are treated as *a priori* members of every secondary set: the
moment a low-degree vertex ``x`` enters the expansion region, each of its
pruned-CSR edges ``(x, u)`` to a high-degree ``u`` is assigned to the
current partition and ``u`` is marked replicated there.

**Lazy edge removal** (Section 3.2.2, Theorem 3.1).  No per-edge
"assigned" bookkeeping exists.  Instead, a clean-up pass after each
partition removes, from the adjacency lists of vertices that *remain in
the secondary set*, the entries pointing into ``C ∪ S_i`` — precisely
the edges that were assigned to ``p_i`` and could otherwise be seen again
by a later partition.  Vertices moved to the core are never visited
again (Theorem 3.1), so their lists are left untouched.

**Sequential-scan initialization** (Section 3.2.3).  Seed search walks
vertex ids once; every rejected vertex is rejected for a permanent
reason (cored, high-degree, or empty adjacency), so the scan never
revisits.

**Adapted capacity bound**: partitions are filled to
``|E \\ E_h2h| / k`` so in-memory edges spread evenly, leaving headroom
for the streamed h2h edges.

**Last partition by linear sweep** (Algorithm 3): remaining low/low
edges are assigned from the left-hand (out-list) side; remaining
low/high edges from the low vertex's in-list.  The split out/in index
arrays exist for exactly this single-owner rule.

The run returns everything HEP's streaming phase needs: the per-edge
assignment (h2h edges still unassigned), the secondary-set matrix (the
replica state), and partition loads.

**Data layout.**  The expansion runs as one scalar kernel: the core and
secondary walks, the edge assignment and the seed search are inlined
into a single loop whose state indexes to plain Python ints, never to
numpy scalars.

* The masks are bytes: ``high`` (immutable), ``in_core``, and one
  ``k * n`` bytearray of secondary sets whose row ``i`` is the memoryview
  slice ``[i*n, (i+1)*n)``.  The result's ``(k, n)`` bool matrix is that
  buffer through ``np.frombuffer``, with no copy.
* ``loads`` is a list; the loop keeps the current partition's load in a
  local.  ``parts`` stays an int32 array (4 bytes per edge), written
  through a memoryview.
* The CSR is read through memoryviews of its arrays; each walk turns a
  vertex's valid windows into one list of neighbours and one of edge
  ids.
* The heap is :class:`~repro._ds.IndexedMinHeap`, whose decrement is a
  single frame.
* Clean-up is one call per partition: a vectorised stable compaction
  of all the members' lists
  (:meth:`~repro.graph.csr.CsrGraph.remove_marked`).

``tests/test_ne_plus_plus_kernel.py`` holds the kernel to a per-vertex
oracle: same assignment, secondary sets, loads, statistics, walk trace
and CSR windows, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._ds import IndexedMinHeap
from repro.errors import ConfigurationError
from repro.graph.csr import CsrGraph, ExternalEdges
from repro.graph.edgelist import Graph
from repro.graph.pruned import high_degree_mask
from repro.partition.base import (
    PartitionAssignment,
    Partitioner,
    capacity_bound,
)

__all__ = [
    "NePlusPlusResult",
    "NePlusPlusStats",
    "run_ne_plus_plus",
    "run_ne_plus_plus_on_csr",
    "NePlusPlusPartitioner",
]

#: tau value that disables pruning entirely (pure in-memory NE++)
TAU_UNPRUNED = float("inf")


@dataclass
class NePlusPlusStats:
    """Counters the paper's Figures 5 and 7 are built from."""

    initial_column_entries: int = 0
    cleanup_removed_entries: int = 0
    num_seeds: int = 0
    num_cored: int = 0
    spilled_edges: int = 0
    core_degrees: list[int] = field(default_factory=list)
    secondary_end_degrees: list[int] = field(default_factory=list)

    @property
    def cleanup_removed_fraction(self) -> float:
        """Fraction of column entries removed by clean-up (Figure 7)."""
        if self.initial_column_entries == 0:
            return 0.0
        return self.cleanup_removed_entries / self.initial_column_entries


@dataclass
class NePlusPlusResult:
    """Output of the in-memory phase, ready for the streaming hand-over.

    ``graph`` is ``None`` when the phase ran on a chunk-built CSR
    (:func:`run_ne_plus_plus_on_csr`): the out-of-core pipeline never
    materializes a full :class:`Graph`, and the h2h edges then live in a
    spill file rather than in :attr:`h2h`.
    """

    graph: Graph | None
    k: int
    tau: float
    parts: np.ndarray              # (m,) int32; h2h edges remain -1
    secondary: np.ndarray          # (k, n) bool: the S_i replica bitsets
    loads: np.ndarray              # (k,) int64 edge loads after phase one
    high_mask: np.ndarray          # (n,) bool
    h2h: ExternalEdges
    stats: NePlusPlusStats
    num_inmemory_edges: int        # the CSR's edges: everything but h2h

    def to_assignment(self) -> PartitionAssignment:
        """Assignment view (only complete when there are no h2h edges)."""
        if self.graph is None:
            raise ConfigurationError(
                "NE++ ran without an in-memory Graph; build the assignment "
                "through the out-of-core pipeline instead"
            )
        return PartitionAssignment(self.graph, self.k, self.parts)


def run_ne_plus_plus(
    graph: Graph,
    k: int,
    tau: float = TAU_UNPRUNED,
    record_degrees: bool = False,
    trace_walk: Callable[[int], None] | None = None,
    seed_order: str = "sequential",
    seed: int = 0,
) -> NePlusPlusResult:
    """Run the NE++ in-memory phase.

    Parameters
    ----------
    graph, k:
        Input graph and number of partitions.
    tau:
        Degree threshold factor.  ``inf`` disables pruning (no h2h edges).
    record_degrees:
        Collect the Figure 5 degree histories (small overhead).
    trace_walk:
        Optional callback invoked with a vertex id every time that
        vertex's adjacency list is walked — the memory-access feed for the
        paging simulator (Table 6).
    seed_order:
        ``"sequential"`` — the paper's Section 3.2.3 optimization (scan
        ids once, never revisit); ``"random"`` — the reference NE's
        randomized selection, kept as an ablation (still scanned without
        replacement so it terminates).
    """
    if np.isinf(tau):
        high = np.zeros(graph.num_vertices, dtype=bool)
    else:
        high = high_degree_mask(graph, tau)
    csr = CsrGraph.build(graph, high_mask=high)
    return run_ne_plus_plus_on_csr(
        csr,
        k,
        tau=tau,
        record_degrees=record_degrees,
        trace_walk=trace_walk,
        seed_order=seed_order,
        seed=seed,
        graph=graph,
    )


def run_ne_plus_plus_on_csr(
    csr: CsrGraph,
    k: int,
    tau: float = TAU_UNPRUNED,
    record_degrees: bool = False,
    trace_walk: Callable[[int], None] | None = None,
    seed_order: str = "sequential",
    seed: int = 0,
    graph: Graph | None = None,
) -> NePlusPlusResult:
    """Run NE++ on a prebuilt (possibly chunk-built) CSR.

    This is the out-of-core entry point: :mod:`repro.stream` assembles the
    pruned CSR from bounded chunks (diverting h2h edges to a spill file)
    and hands it here without ever constructing the full edge array.  The
    CSR carries everything the phase needs — true degrees, the high-degree
    mask and the total edge count.
    """
    if k < 2:
        raise ConfigurationError(f"NE++ requires k >= 2, got {k}")
    if seed_order not in ("sequential", "random"):
        raise ConfigurationError(f"unknown seed_order {seed_order!r}")
    run = _NePlusPlusRun(
        graph, csr, k, tau, record_degrees, trace_walk, seed_order, seed
    )
    return run.execute()


def _csr_views(csr: CsrGraph) -> tuple[memoryview, ...]:
    """``col, eid, out_start, out_size, in_start, in_size`` as memoryviews.

    They index to Python ints without numpy scalar boxing, and share the
    arrays, so they see the clean-up's in-place compaction.
    """
    return tuple(
        memoryview(a)
        for a in (csr.col, csr.eid, csr.out_start, csr.out_size,
                  csr.in_start, csr.in_size)
    )


class _NePlusPlusRun:
    """One NE++ run over ``csr``: the expansion kernel, clean-up, sweep.

    The state lives in Python-level buffers that index to plain ints
    (see the module docstring); only the clean-up is vectorised.
    """

    def __init__(
        self,
        graph: Graph | None,
        csr: CsrGraph,
        k: int,
        tau: float,
        record_degrees: bool,
        trace_walk: Callable[[int], None] | None,
        seed_order: str = "sequential",
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.csr = csr
        self.k = k
        self.tau = tau
        n = self.n = csr.num_vertices
        self.m_inmem = csr.num_csr_edges
        # Adapted capacity bound: only in-memory edges count here.
        self.capacity = capacity_bound(max(self.m_inmem, 1), k)
        self.parts = np.full(csr.num_edges_total, -1, dtype=np.int32)
        self.loads = [0] * k
        self.high = np.asarray(csr.high_mask, dtype=bool).tobytes()
        self.in_core = bytearray(n)
        # Row i of the (k, n) secondary matrix is bytes [i*n, (i+1)*n).
        self.secondary_bytes = bytearray(k * n)
        view = memoryview(self.secondary_bytes)
        self.rows = [view[i * n : (i + 1) * n] for i in range(k)]
        if seed_order == "sequential":
            self.seed_sequence = range(n)
        else:
            self.seed_sequence = memoryview(
                np.random.default_rng(seed).permutation(n)
            )
        self.record_degrees = record_degrees
        self.trace_walk = trace_walk
        self.stats = NePlusPlusStats(initial_column_entries=int(csr.col.size))

    # -- driver ------------------------------------------------------------

    def execute(self) -> NePlusPlusResult:
        """Algorithm 1 for partitions ``0 .. k-2``, then Algorithm 3."""
        csr = self.csr
        k, n, last = self.k, self.n, self.k - 1
        capacity, m_inmem = self.capacity, self.m_inmem
        high, in_core, rows, loads = self.high, self.in_core, self.rows, self.loads
        parts = memoryview(self.parts)
        trace = self.trace_walk
        record = self.record_degrees
        degrees = csr.degrees.tolist() if record else None
        stats = self.stats
        core_degrees = stats.core_degrees
        col, eid, out_start, out_size, in_start, in_size = _csr_views(csr)
        seeds = self.seed_sequence
        heap = IndexedMinHeap()
        push, pop_min, decrement = heap.push, heap.pop_min, heap.decrement
        cursor = 0
        assigned = num_seeds = num_cored = spilled = 0
        secondary = np.frombuffer(self.secondary_bytes, dtype=bool).reshape(k, n)
        in_core_mask = np.frombuffer(in_core, dtype=bool)
        low_mask = ~csr.high_mask
        current = 0
        for i in range(last):
            current = i
            heap.clear()
            sec = rows[i]
            # Loads of later partitions may already hold spilled edges.
            load = loads[i]
            exhausted = False
            while load < capacity and assigned < m_inmem:
                if heap:
                    v = pop_min()[0]
                    fresh = False
                else:
                    # Sequential-scan seed search (Section 3.2.3).  Every
                    # rejection is permanent, so the cursor never rewinds:
                    # cored and high-degree are immutable, valid window
                    # sizes only shrink, and spill-marked vertices (in
                    # S_i without a walk) leave their edges to a later
                    # partition or the final sweep.
                    while cursor < n:
                        v = seeds[cursor]
                        cursor += 1
                        if in_core[v] or high[v] or sec[v]:
                            continue
                        if out_size[v] + in_size[v]:
                            break
                    else:
                        exhausted = True
                        break
                    num_seeds += 1
                    fresh = True
                # Core v.  A seed enters the region right now, so its
                # edges into the region are assigned here; a vertex cored
                # from the heap had them assigned when the later endpoint
                # entered C ∪ S_i (Algorithm 1's invariant), so its walk
                # assigns nothing and only expands.
                in_core[v] = 1
                num_cored += 1
                if record:
                    core_degrees.append(degrees[v])
                if trace is not None:
                    trace(v)
                if fresh:
                    sec[v] = 1
                # One list per walk; the out and in windows are adjacent
                # until a clean-up shrinks the out window.
                s, t = out_start[v], in_start[v]
                end, mid = t + in_size[v], s + out_size[v]
                if mid == t:
                    nbrs, eids = col[s:end].tolist(), eid[s:end].tolist()
                else:
                    nbrs = col[s:mid].tolist() + col[t:end].tolist()
                    eids = eid[s:mid].tolist() + eid[t:end].tolist()
                for w, e in zip(nbrs, eids):
                    hw = high[w]
                    if hw or in_core[w] or sec[w]:
                        if not fresh:
                            continue
                        if load < capacity:
                            parts[e] = i
                            load += 1
                        else:
                            # Spill-over: endpoints become replicas of the
                            # receiving partition.  One expansion step can
                            # overshoot more than a partition's headroom,
                            # so cascade forward.
                            j = i + 1
                            while j < last and loads[j] >= capacity:
                                j += 1
                            rows[j][v] = 1
                            rows[j][w] = 1
                            spilled += 1
                            parts[e] = j
                            loads[j] += 1
                        assigned += 1
                        if hw:
                            # A-priori secondary membership of high-degree
                            # vertices.
                            sec[w] = 1
                        elif w in heap:
                            decrement(w)
                        continue
                    # w joins the secondary set: walk it, assign its
                    # edges into the region, push it with d_ext.
                    sec[w] = 1
                    if trace is not None:
                        trace(w)
                    s, t = out_start[w], in_start[w]
                    end, mid = t + in_size[w], s + out_size[w]
                    if mid == t:
                        w_nbrs = col[s:end].tolist()
                        w_eids = eid[s:end].tolist()
                    else:
                        w_nbrs = col[s:mid].tolist() + col[t:end].tolist()
                        w_eids = eid[s:mid].tolist() + eid[t:end].tolist()
                    dext = 0
                    for x, e in zip(w_nbrs, w_eids):
                        hx = high[x]
                        if hx or in_core[x] or sec[x]:
                            if load < capacity:
                                parts[e] = i
                                load += 1
                            else:
                                j = i + 1
                                while j < last and loads[j] >= capacity:
                                    j += 1
                                rows[j][w] = 1
                                rows[j][x] = 1
                                spilled += 1
                                parts[e] = j
                                loads[j] += 1
                            assigned += 1
                            if hx:
                                sec[x] = 1
                            elif x in heap:
                                decrement(x)
                        else:
                            dext += 1
                    push(w, dext)
            loads[i] = load
            # Lazy edge removal (Algorithm 2) on the vertices that remain
            # in the secondary set: the only lists a later partition walks.
            members = np.flatnonzero(secondary[i] & ~in_core_mask & low_mask)
            if record:
                stats.secondary_end_degrees.extend(csr.degrees[members].tolist())
            if trace is not None:
                for v in members.tolist():
                    trace(v)
            stats.cleanup_removed_entries += csr.remove_marked(
                members, in_core_mask | secondary[i]
            )
            if exhausted or assigned >= m_inmem:
                break
        stats.num_seeds = num_seeds
        stats.num_cored = num_cored
        stats.spilled_edges = spilled
        self._final_sweep(min(current + 1, last))
        return NePlusPlusResult(
            graph=self.graph,
            k=k,
            tau=self.tau,
            parts=self.parts,
            secondary=secondary,
            loads=np.array(loads, dtype=np.int64),
            high_mask=csr.high_mask,
            h2h=csr.h2h_edges,
            stats=stats,
            num_inmemory_edges=m_inmem,
        )

    # -- last partition (Algorithm 3) ---------------------------------------------

    def _final_sweep(self, i: int) -> None:
        """Assign every remaining in-memory edge, filling partitions from
        ``i`` onward under the capacity bound.

        The expansion loop filled partitions ``0 .. i-1``; the sweep builds
        the next one (normally the last).  If expansion ended early
        because the seed scan was exhausted, nothing remains and the sweep
        is a no-op.
        """
        csr = self.csr
        k, capacity = self.k, self.capacity
        high, in_core, rows, loads = self.high, self.in_core, self.rows, self.loads
        parts = memoryview(self.parts)
        trace = self.trace_walk
        col, eid, out_start, out_size, in_start, in_size = _csr_views(csr)
        sec = rows[i]
        for v in range(self.n):
            if in_core[v] or high[v]:
                continue
            s, num_out = out_start[v], out_size[v]
            t, num_in = in_start[v], in_size[v]
            if not num_out and not num_in:
                continue
            if trace is not None:
                trace(v)
            # Low/low and low/high out-edges: assigned from the left side.
            out_end, in_end = s + num_out, t + num_in
            for w, e in zip(col[s:out_end].tolist(), eid[s:out_end].tolist()):
                parts[e] = i
                sec[w] = 1
            placed = num_out
            # In-edges are assigned here only when the source is pruned.
            for w, e in zip(col[t:in_end].tolist(), eid[t:in_end].tolist()):
                if high[w]:
                    parts[e] = i
                    sec[w] = 1
                    placed += 1
            if placed:
                sec[v] = 1
                loads[i] += placed
            if loads[i] >= capacity and i + 1 < k:
                i += 1
                sec = rows[i]


class NePlusPlusPartitioner(Partitioner):
    """Standalone NE++ (unpruned): the paper's drop-in replacement for NE.

    With the default ``tau = inf`` there are no h2h edges, so the
    in-memory phase assigns every edge and this is a complete
    partitioner.  A finite ``tau`` makes sense only inside HEP (use
    :class:`repro.core.hep.HepPartitioner`).
    """

    def __init__(self, record_degrees: bool = False) -> None:
        self.record_degrees = record_degrees
        self.last_stats: NePlusPlusStats | None = None
        self.name = "NE++"

    def partition(self, graph: Graph, k: int) -> PartitionAssignment:
        """Run NE++ alone (h2h edges placed by the fallback rule)."""
        self._require_k(graph, k)
        result = run_ne_plus_plus(
            graph, k, tau=TAU_UNPRUNED, record_degrees=self.record_degrees
        )
        self.last_stats = result.stats
        return result.to_assignment()
