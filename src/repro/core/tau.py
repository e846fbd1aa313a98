"""Choosing ``tau`` to satisfy a memory budget (paper Section 4.4).

The dominant data structure of HEP is the pruned column array, whose
size for a given ``tau`` is the cumulative adjacency size of the
low-degree vertices.  That quantity is a pure function of the degree
distribution, so it can be *pre-computed* for a grid of ``tau`` values
without building any CSR — the paper measures this precomputation at
seconds-to-minutes even on billion-edge graphs (Table 2) and recommends
picking the **maximum** ``tau`` whose projected footprint stays under
the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.memory_model import hep_memory_bytes
from repro.errors import ConfigurationError
from repro.graph.edgelist import Graph

__all__ = [
    "TauProfile",
    "precompute_profile",
    "select_tau",
    "select_from_footprints",
    "DEFAULT_TAU_GRID",
]

#: log-spaced grid covering the paper's range (HEP-1 .. HEP-100) and beyond
DEFAULT_TAU_GRID: tuple[float, ...] = (
    0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0,
    15.0, 25.0, 50.0, 75.0, 100.0, 250.0, 1000.0,
)


@dataclass(frozen=True)
class TauProfile:
    """Projected HEP memory footprint for each candidate ``tau``."""

    taus: tuple[float, ...]
    bytes_per_tau: tuple[int, ...]
    precompute_seconds: float

    def rows(self) -> list[dict[str, object]]:
        """Tabular per-tau footprints for the CLI/experiment tables."""
        return [
            {"tau": t, "bytes": b, "MiB": round(b / 2**20, 3)}
            for t, b in zip(self.taus, self.bytes_per_tau)
        ]


def precompute_profile(
    graph: Graph,
    k: int,
    taus: tuple[float, ...] = DEFAULT_TAU_GRID,
    id_bytes: int = 4,
) -> TauProfile:
    """Project HEP's memory footprint over a grid of ``tau`` values.

    This is the measured pre-computation of Table 2: one degree-array
    pass per candidate (vectorized here), no graph rebuilding.
    """
    if not taus:
        raise ConfigurationError("tau grid must not be empty")
    start = time.perf_counter()
    footprints = tuple(
        hep_memory_bytes(graph, tau, k, id_bytes=id_bytes) for tau in taus
    )
    elapsed = time.perf_counter() - start
    return TauProfile(tuple(taus), footprints, elapsed)


def select_tau(
    graph: Graph,
    memory_budget_bytes: int,
    k: int,
    taus: tuple[float, ...] = DEFAULT_TAU_GRID,
    id_bytes: int = 4,
) -> tuple[float, int]:
    """Largest grid ``tau`` whose projected footprint fits the budget.

    Returns ``(tau, projected_bytes)``.  Raises
    :class:`ConfigurationError` when even the smallest candidate exceeds
    the budget (the machine is too small for this graph at any setting —
    the paper's answer would be pure streaming).
    """
    profile = precompute_profile(graph, k, taus, id_bytes=id_bytes)
    return select_from_footprints(
        profile.taus, profile.bytes_per_tau, memory_budget_bytes
    )


def select_from_footprints(
    taus: tuple[float, ...] | list[float],
    footprints: tuple[int, ...] | list[int],
    memory_budget_bytes: int,
) -> tuple[float, int]:
    """The grid-selection rule shared with the out-of-core pipeline.

    The out-of-core ``select_tau`` stage (:mod:`repro.runtime.stages`)
    computes footprints from chunk-counted column entries and must pick
    identically to :func:`select_tau` — both funnel through here.
    """
    best: tuple[float, int] | None = None
    for tau, footprint in zip(taus, footprints):
        if footprint <= memory_budget_bytes:
            if best is None or tau > best[0]:
                best = (tau, footprint)
    if best is None:
        smallest = min(footprints)
        raise ConfigurationError(
            f"no tau on the grid fits {memory_budget_bytes:,} bytes "
            f"(minimum projected footprint is {smallest:,} bytes)"
        )
    return best


def h2h_edge_fraction_curve(
    graph: Graph, taus: tuple[float, ...] = DEFAULT_TAU_GRID
) -> list[tuple[float, float]]:
    """``(tau, fraction of edges streamed)`` pairs — the knob's response
    curve (Figure 9's edge-type ratios, swept)."""
    from repro.graph.pruned import split_edges

    return [(tau, split_edges(graph, tau).h2h_fraction()) for tau in taus]
