"""DNE: Distributed Neighbor Expansion, simulated in process.

Hanai et al. (VLDB'19) run one neighborhood expansion *per partition in
parallel* across a cluster, with partitions racing to claim edges.  The
paper's evaluation observes two consequences of that concurrency, both of
which this in-process simulation retains:

* the replication factor degrades relative to sequential NE, because the
  k greedy frontiers compete for the same low-degree regions instead of
  carving them one at a time;
* edge balance can degrade (the paper reports ``alpha`` up to ~1.4),
  because frontiers grow at different speeds.

The simulation interleaves the k expansions round-robin; each round a
partition cores its best boundary vertex and claims every unclaimed
edge incident to the expansion region.  Actual message passing, which
does not change the assignment semantics, is not simulated.
"""

from __future__ import annotations

import numpy as np

from repro._ds import IndexedMinHeap
from repro.graph.csr import CsrGraph
from repro.graph.edgelist import Graph
from repro.partition.base import PartitionAssignment, Partitioner, capacity_bound

__all__ = ["DnePartitioner"]


class DnePartitioner(Partitioner):
    """Simulated distributed neighbor expansion.

    Parameters
    ----------
    alpha:
        Soft balance bound; expansion stops at ``alpha * |E| / k`` per
        partition (DNE's balance factor, default 1.05 per Appendix A).
    seed:
        Seed for the initial frontier placement.
    """

    def __init__(self, alpha: float = 1.05, seed: int = 0) -> None:
        self.alpha = alpha
        self.seed = seed
        self.name = "DNE"

    def partition(self, graph: Graph, k: int) -> PartitionAssignment:
        """Run the distributed-NE simulation and collect its assignment."""
        self._require_k(graph, k)
        run = _DneRun(graph, k, self.alpha, self.seed)
        return PartitionAssignment(graph, k, run.execute())


class _DneRun:
    def __init__(self, graph: Graph, k: int, alpha: float, seed: int) -> None:
        self.graph = graph
        self.k = k
        self.csr = CsrGraph.build(graph)
        self.n = graph.num_vertices
        self.m = graph.num_edges
        self.capacity = capacity_bound(self.m, k, alpha)
        self.parts = np.full(self.m, -1, dtype=np.int32)
        self.loads = np.zeros(k, dtype=np.int64)
        self.claimed = np.zeros(self.m, dtype=bool)
        #: vertex ownership: which partition cored it (-1 = none)
        self.core_owner = np.full(self.n, -1, dtype=np.int32)
        #: per-partition membership of the expansion region (core+boundary)
        self.region = np.zeros((k, self.n), dtype=bool)
        self.heaps = [IndexedMinHeap() for _ in range(k)]
        self.rng = np.random.default_rng(seed)
        self.seed_order = self.rng.permutation(self.n)
        self.seed_cursor = 0
        self.assigned_total = 0

    def execute(self) -> np.ndarray:
        active = list(range(self.k))
        while active and self.assigned_total < self.m:
            still_active = []
            for p in active:
                if self.loads[p] >= self.capacity:
                    continue
                if self._step(p):
                    still_active.append(p)
            active = still_active
        self._assign_leftovers()
        return self.parts

    # -- one expansion round for partition p --------------------------------------

    def _step(self, p: int) -> bool:
        heap = self.heaps[p]
        while heap:
            v, _ = heap.pop_min()
            if self.core_owner[v] >= 0:
                continue  # lost the race to another partition
            self._move_to_core(v, p)
            return True
        seed = self._next_seed()
        if seed is None:
            return False
        self._enter_region(seed, p)
        self._move_to_core(seed, p)
        return True

    def _next_seed(self) -> int | None:
        while self.seed_cursor < self.n:
            v = int(self.seed_order[self.seed_cursor])
            self.seed_cursor += 1
            if self.core_owner[v] >= 0:
                continue
            if self.csr.valid_degree(v) == 0:
                continue
            return v
        return None

    def _move_to_core(self, v: int, p: int) -> None:
        self.core_owner[v] = p
        region = self.region[p]
        nbrs, eids = self.csr.adjacency(v)
        for w, eid in zip(nbrs.tolist(), eids.tolist()):
            if self.claimed[eid]:
                continue
            if not region[w]:
                self._enter_region(w, p)
        # region now covers all of v's unclaimed neighbors; claim the edges
        nbrs, eids = self.csr.adjacency(v)
        for w, eid in zip(nbrs.tolist(), eids.tolist()):
            if not self.claimed[eid]:
                self._claim(eid, p)

    def _enter_region(self, v: int, p: int) -> None:
        region = self.region[p]
        region[v] = True
        # Claim edges from v into the existing region (both endpoints in).
        nbrs, eids = self.csr.adjacency(v)
        dext = 0
        heap = self.heaps[p]
        for w, eid in zip(nbrs.tolist(), eids.tolist()):
            if self.claimed[eid]:
                continue
            if region[w]:
                self._claim(eid, p)
                if w in heap:
                    heap.decrement(w)
            else:
                dext += 1
        if self.core_owner[v] < 0:
            heap.push_or_update(v, dext)

    def _claim(self, eid: int, p: int) -> None:
        self.claimed[eid] = True
        self.parts[eid] = p
        self.loads[p] += 1
        self.assigned_total += 1

    def _assign_leftovers(self) -> None:
        """Edges no frontier reached: send each to the least-loaded
        partition covering one of its endpoints (or overall)."""
        edges = self.graph.edges
        for e in np.flatnonzero(self.parts < 0).tolist():
            u, v = int(edges[e, 0]), int(edges[e, 1])
            candidates = np.flatnonzero(self.region[:, u] | self.region[:, v])
            if candidates.size == 0:
                p = int(np.argmin(self.loads))
            else:
                p = int(candidates[np.argmin(self.loads[candidates])])
            self.parts[e] = p
            self.loads[p] += 1
            self.region[p, u] = True
            self.region[p, v] = True
