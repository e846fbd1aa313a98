"""ADWISE: window-based streaming edge partitioning (simplified).

Mayer et al. (ICDCS'18) buffer a *window* of edges and repeatedly assign
the globally best ``(edge, partition)`` pair instead of being forced to
place edges in arrival order.  The full system adapts its window size to
a run-time budget; this reproduction keeps the algorithmic core — choose
the best edge in the window, assign, refill — with a fixed window size
and lazy re-scoring:

* every edge in the window caches its best score and best partition,
* each round the cached maximum is re-scored (scores only *decay* as
  loads grow and replicas appear elsewhere, so a stale cache is an upper
  bound); if the re-score confirms it is still the maximum it is
  assigned, otherwise the cache is updated and the selection repeats.

This keeps the ``O(window)`` re-scoring off the common path while
preserving the quality benefit the paper attributes to ADWISE: avoiding
uninformed early assignments.  The run-time-budget controller of the
original system is out of scope.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.graph.edgelist import Graph
from repro.partition.base import PartitionAssignment, Partitioner, capacity_bound
from repro.partition.scoring import hdrf_scores
from repro.partition.state import StreamingState

__all__ = ["AdwisePartitioner"]


class AdwisePartitioner(Partitioner):
    """Window-based streaming baseline.

    Parameters
    ----------
    window:
        Number of buffered edges considered for each placement.  Window 1
        degenerates to HDRF-ordered streaming.
    lam, eps:
        HDRF scoring parameters (ADWISE uses an HDRF-family score).
    """

    def __init__(
        self,
        window: int = 64,
        lam: float = 1.1,
        eps: float = 1.0,
        alpha: float = 1.0,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.lam = lam
        self.eps = eps
        self.alpha = alpha
        self.name = "ADWISE"

    def partition(self, graph: Graph, k: int) -> PartitionAssignment:
        """Stream the edges through the adaptive-window ADWISE scorer."""
        self._require_k(graph, k)
        capacity = capacity_bound(graph.num_edges, k, self.alpha)
        state = StreamingState.fresh(graph, k, capacity, use_exact_degrees=True)
        assignment = PartitionAssignment.empty(graph, k)
        edges = graph.edges
        m = graph.num_edges

        window_eids: list[int] = []
        best_score = {}
        best_part = {}
        cursor = 0

        def rescore(e: int) -> None:
            """Re-evaluate the best achievable score of every buffered edge."""
            u, v = int(edges[e, 0]), int(edges[e, 1])
            scores = hdrf_scores(state, u, v, lam=self.lam, eps=self.eps)
            p = int(np.argmax(scores))
            best_score[e] = float(scores[p])
            best_part[e] = p

        # Fill the initial window.
        while cursor < m and len(window_eids) < self.window:
            window_eids.append(cursor)
            rescore(cursor)
            cursor += 1

        while window_eids:
            # Lazy selection: re-score the cached max until it is stable.
            while True:
                idx = max(range(len(window_eids)), key=lambda i: best_score[window_eids[i]])
                e = window_eids[idx]
                cached = best_score[e]
                rescore(e)
                if best_score[e] >= cached - 1e-12 or len(window_eids) == 1:
                    break
                # Cache decayed: another edge may now lead; repeat.
                stale_max = max(best_score[w] for w in window_eids)
                if best_score[e] >= stale_max - 1e-12:
                    break
            p = best_part[e]
            if best_score[e] == -np.inf:
                raise CapacityError("ADWISE: all partitions at capacity")
            u, v = int(edges[e, 0]), int(edges[e, 1])
            state.place(u, v, p)
            assignment.parts[e] = p
            window_eids.pop(idx)
            del best_score[e], best_part[e]
            if cursor < m:
                window_eids.append(cursor)
                rescore(cursor)
                cursor += 1
        return assignment
