"""HDRF: High-Degree Replicated First streaming partitioning.

Petroni et al. (CIKM'15); the strongest stateful streaming baseline in
the paper and the scoring function HEP uses for its streaming phase.
The partitioner passes once over the edge stream and sends each edge to
the partition with the highest :func:`~repro.partition.scoring.hdrf_scores`
value — replicating high-degree vertices first, since they are likely to
be replicated anyway.

Two degree modes:

* ``exact_degrees=False`` — the original setting: degrees are *partial*
  counts accumulated while streaming.
* ``exact_degrees=True`` — degrees known upfront (HEP's streaming phase
  has them from graph building).

Every sequential HDRF path — this class, HEP's phase two in memory and
out of core, the out-of-core HDRF driver and the buffered window's
commit step — runs :func:`hdrf_stream`.  It scores on Python scalars,
not one numpy vector per edge: per block of edges, the touched
vertices' replica columns become int bitmasks and the loads a list, and
each edge's ``k`` scores repeat the float operations of ``hdrf_scores``
in the same order, so every placement equals ``np.argmax`` over that
vector.  The per-edge cost is a Python loop over the ``k`` partitions:
far below a dozen numpy dispatches at small ``k``, but it grows with
``k`` where the vector's cost barely does (on the OK stand-in the two
cross between k=64 and k=128).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.graph.edgelist import Graph
from repro.partition.base import PartitionAssignment, Partitioner, capacity_bound
from repro.partition.scoring import NEG_INF
from repro.partition.state import StreamingState

__all__ = ["HdrfPartitioner", "hdrf_stream"]

#: edges per block: the kernel's Python objects (vertex bitmasks, degrees,
#: placements) cover one block at a time, never O(m) or O(n)
_BLOCK_EDGES = 4096
#: blocks of at most this many edges (the buffered window's commits) read
#: and write the state element-wise, which beats the fixed price of the
#: bulk numpy calls
_SMALL_BLOCK = 16
#: a bool column's bytes -> its ASCII binary digits
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def hdrf_stream(
    state: StreamingState,
    edges: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
    lam: float = 1.1,
    eps: float = 1.0,
) -> None:
    """Stream ``edges`` through HDRF scoring, writing assignments in place.

    This is Algorithm 4 of the paper.  It mutates ``state`` and fills
    ``parts_out[eids[i]]`` for every streamed edge, which lets HEP run it
    over just the h2h edge file with pre-seeded (informed) state.

    Each edge gets exactly the placement of
    :func:`~repro.partition.scoring.hdrf_scores` + ``np.argmax`` (same
    float operations in the same order, lowest index wins ties), scored
    on Python scalars a block of edges at a time.  If no partition has
    room, the state is written back up to the edge that raised
    :class:`~repro.errors.CapacityError`.
    """
    if not (math.isfinite(lam) and math.isfinite(eps) and eps > 0):
        raise ConfigurationError(
            f"HDRF needs a finite lam and a finite eps > 0, got lam={lam}, "
            f"eps={eps}"
        )
    block = _BLOCK_EDGES
    for lo in range(0, edges.shape[0], block):
        _hdrf_block(
            state, edges[lo:lo + block], eids[lo:lo + block], parts_out, lam, eps
        )


def _hdrf_block(
    state: StreamingState,
    edges: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
    lam: float,
    eps: float,
) -> None:
    """:func:`hdrf_stream` over one block, state written back at the end."""
    flat = edges.ravel().tolist()
    small = len(flat) <= 2 * _SMALL_BLOCK
    masks, degrees = _gather(state, list(set(flat)), small)
    partial = state.partial_degrees
    capacity = state.capacity
    loads = state.loads.tolist()
    stale = True  # every partition's C_BAL needs recomputing
    placed: list[int] = []
    pairs = iter(flat)
    try:
        for u, v in zip(pairs, pairs):
            if stale:
                maxload = max(loads)
                minload = min(loads)
                denom = eps + maxload - minload
                # C_BAL per partition; -inf marks a closed one, as in
                # hdrf_scores.
                bal = [
                    lam * (maxload - load) / denom if load < capacity else NEG_INF
                    for load in loads
                ]
                stale = False
            if partial:
                degrees[u] += 1
                degrees[v] += 1
            du = degrees[u]
            dv = degrees[v]
            total = du + dv
            theta_u = du / total if total else 0.5
            cu = 2.0 - theta_u
            cv = 2.0 - (1.0 - theta_u)
            mu = masks[u]
            mv = masks[v]
            both = mu | mv
            best = NEG_INF
            bp = -1
            for p, score in enumerate(bal):
                if both >> p & 1:
                    score = (
                        (cu if mu >> p & 1 else 0.0) + (cv if mv >> p & 1 else 0.0)
                    ) + score
                if score > best:
                    best = score
                    bp = p
            if bp < 0:
                raise CapacityError(
                    "HDRF: all partitions at capacity "
                    f"(capacity={capacity}, loads={loads})"
                )
            placed.append(bp)
            bit = 1 << bp
            masks[u] = mu | bit
            masks[v] = masks[v] | bit
            load = loads[bp] + 1
            loads[bp] = load
            if load > maxload or (load - 1 == minload and min(loads) > minload):
                stale = True  # the max or min load moved
            elif load < capacity:
                bal[bp] = lam * (maxload - load) / denom
            else:
                bal[bp] = NEG_INF
    finally:
        _write_back(
            state, small, flat, edges, eids, parts_out, placed, loads, degrees
        )


def _gather(
    state: StreamingState, verts: list[int], small: bool
) -> tuple[dict[int, int], dict[int, int]]:
    """Bitmask (bit p <=> replica on p) and degree of each of ``verts``."""
    replicas = state.replicas
    if small:
        # Each column, partition k-1 first, read as a binary numeral.
        rows = replicas[::-1]
        degree = state.degrees.item
        masks = {
            v: int(rows[:, v].tobytes().translate(_BINARY_DIGITS), 2)
            for v in verts
        }
        return masks, {v: degree(v) for v in verts}
    # The packed columns, read as little-endian 64-bit words.
    k = state.k
    words = np.zeros((len(verts), -(-k // 64) * 8), dtype=np.uint8)
    words[:, :(k + 7) // 8] = np.packbits(
        replicas.take(verts, axis=1), axis=0, bitorder="little"
    ).T
    words = words.view("<u8")
    bitmasks = words[:, 0].tolist()
    for j in range(1, words.shape[1]):
        bitmasks = [
            mask | word << 64 * j
            for mask, word in zip(bitmasks, words[:, j].tolist())
        ]
    degrees = state.degrees.take(verts).tolist()
    return dict(zip(verts, bitmasks)), dict(zip(verts, degrees))


def _write_back(
    state: StreamingState,
    small: bool,
    flat: list[int],
    edges: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
    placed: list[int],
    loads: list[int],
    degrees: dict[int, int],
) -> None:
    """Store the first ``len(placed)`` placements of a block in the arrays."""
    done = len(placed)
    if small:
        replicas = state.replicas
        state_loads = state.loads
        pairs = iter(flat)
        for p, u, v, eid in zip(placed, pairs, pairs, eids[:done].tolist()):
            replicas[p, u] = True
            replicas[p, v] = True
            parts_out[eid] = p
            state_loads[p] = loads[p]
        if state.partial_degrees:
            state_degrees = state.degrees
            for v, degree in degrees.items():
                state_degrees[v] = degree
        return
    chosen = np.array(placed, dtype=np.intp)
    state.replicas[chosen[:, None], edges[:done]] = True
    parts_out.put(eids[:done], chosen)
    state.loads[:] = loads
    if state.partial_degrees:
        state.degrees.put(list(degrees), list(degrees.values()))


class HdrfPartitioner(Partitioner):
    """Standalone HDRF baseline (paper Appendix A: ``lambda = 1.1``)."""

    def __init__(
        self,
        lam: float = 1.1,
        eps: float = 1.0,
        alpha: float = 1.0,
        exact_degrees: bool = False,
        shuffle: bool = False,
        seed: int = 0,
    ) -> None:
        self.lam = lam
        self.eps = eps
        self.alpha = alpha
        self.exact_degrees = exact_degrees
        self.shuffle = shuffle
        self.seed = seed
        self.name = "HDRF"

    def partition(self, graph: Graph, k: int) -> PartitionAssignment:
        """Stream every edge through HDRF scoring (Algorithm 4)."""
        self._require_k(graph, k)
        capacity = capacity_bound(graph.num_edges, k, self.alpha)
        state = StreamingState.fresh(
            graph, k, capacity, use_exact_degrees=self.exact_degrees
        )
        assignment = PartitionAssignment.empty(graph, k)
        order = np.arange(graph.num_edges)
        if self.shuffle:
            np.random.default_rng(self.seed).shuffle(order)
            edges = graph.edges[order]
        else:
            edges = graph.edges  # natural order: no O(m) copy
        hdrf_stream(
            state,
            edges,
            order,
            assignment.parts,
            lam=self.lam,
            eps=self.eps,
        )
        return assignment
