"""The result of a runtime partitioning job.

:class:`PartitionResult` is what :func:`~repro.runtime.api.run_job`
returns for every pipeline and executor: it carries the assignment
handle, the quality metrics, the HEP phase breakdown and worker report
when the pipeline produced them, the provenance (``job_hash``,
``cache_hit``, ``stages_executed``), and the trace path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hep import HepPhaseBreakdown
from repro.runtime.spec import JobSpec

__all__ = ["PartitionResult"]


@dataclass
class PartitionResult:
    """Everything one runtime job can report, pipeline-independent."""

    spec: JobSpec
    algorithm: str             # result-facing name (e.g. HDRF, HEP, HDRF-mw2)
    parts: np.ndarray          # (m,) int32 per-edge partition ids
    k: int
    num_vertices: int
    num_edges: int
    chunk_size: int
    loads: np.ndarray          # (k,) final per-partition edge counts
    replication_factor: float
    edge_balance: float
    runtime_s: float
    passes: int = 1
    tau: float | None = None
    breakdown: HepPhaseBreakdown | None = None
    spill_bytes: int = 0
    buffer_size: int | None = None
    projected_memory_bytes: int | None = None
    report: object | None = None      # MultiWorkerReport when BSP ran
    job_hash: str = ""
    cache_hit: bool = False
    stages_executed: tuple[str, ...] = ()
    trace_path: str | None = None

    @property
    def num_unassigned(self) -> int:
        """Number of edges left without a partition (should be zero)."""
        return int((self.parts < 0).sum())

    def to_assignment(self, graph):
        """Attach the parts to an in-memory Graph (tests/analysis only)."""
        from repro.partition.base import PartitionAssignment

        return PartitionAssignment(graph, self.k, self.parts)
