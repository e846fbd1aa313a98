"""Figure 8: replication factor / run-time / memory for HEP vs 7 baselines.

The headline evaluation: HEP-{100,10,1} against ADWISE, HDRF, DBH, SNE,
NE, DNE and METIS over the dataset sweep and k in {4, 32(, 128, 256)}.
Replication factor and run-time are measured; memory is the Section 4.2
analytic model.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    dataset_list,
    full_mode,
    k_values,
    load_dataset,
    run_partitioner,
)
from repro.experiments.paper_reference import FIGURE8_ANCHORS, SHAPES

__all__ = ["run", "DEFAULT_PARTITIONERS"]

DEFAULT_PARTITIONERS = (
    "HEP-100",
    "HEP-10",
    "HEP-1",
    "ADWISE",
    "HDRF",
    "DBH",
    "SNE",
    "NE",
    "DNE",
    "METIS",
)

_DEFAULT_GRAPHS = ("OK", "IT")
_FULL_GRAPHS = ("OK", "IT", "TW", "FR", "UK", "GSH", "WDC")


def run(
    graphs: tuple[str, ...] | None = None,
    partitioners: tuple[str, ...] = DEFAULT_PARTITIONERS,
    ks: tuple[int, ...] | None = None,
) -> ExperimentResult:
    names = list(graphs) if graphs else dataset_list(_DEFAULT_GRAPHS, _FULL_GRAPHS)
    k_list = list(ks) if ks else k_values()
    rows: list[dict[str, object]] = []
    for graph_name in names:
        graph = load_dataset(graph_name)
        for k in k_list:
            for partitioner in partitioners:
                report = run_partitioner(partitioner, graph, k)
                rows.append(report.row())
    result = ExperimentResult(
        experiment_id="figure8",
        title="Partitioning quality / run-time / memory sweep",
        rows=rows,
        paper_shape=SHAPES["figure8"],
    )
    _annotate_orderings(result)
    if not full_mode():
        result.notes.append(
            "default sweep trimmed to OK/IT at k in {4,32}; set"
            " REPRO_BENCH_FULL=1 for the paper's full grid"
        )
    for (graph, k), anchors in FIGURE8_ANCHORS.items():
        result.notes.append(f"paper anchors {graph}@k={k}: {anchors}")
    return result


def _annotate_orderings(result: ExperimentResult) -> None:
    """Check the figure's headline orderings on the measured rows."""
    index: dict[tuple[str, int, str], dict[str, object]] = {
        (str(r["graph"]), int(r["k"]), str(r["partitioner"])): r
        for r in result.rows
    }
    graphs = {str(r["graph"]) for r in result.rows}
    ks = {int(r["k"]) for r in result.rows}
    for graph in sorted(graphs):
        for k in sorted(ks):
            def rf(name: str) -> float | None:
                row = index.get((graph, k, name))
                return float(row["RF"]) if row else None

            ne, hep100, hep1, hdrf, dbh = (
                rf("NE"), rf("HEP-100"), rf("HEP-1"), rf("HDRF"), rf("DBH"))
            if None in (ne, hep100, hep1, hdrf):
                continue
            quality_chain = ne <= hep100 * 1.1 and hep100 <= hep1 * 1.1 and hep1 <= max(hdrf, dbh or hdrf)
            mem100 = index[(graph, k, "HEP-100")].get("mem_MiB")
            mem1 = index[(graph, k, "HEP-1")].get("mem_MiB")
            mem_ne = index.get((graph, k, "NE"), {}).get("mem_MiB")
            mem_chain = (
                mem1 is not None and mem100 is not None and mem_ne is not None
                and float(mem1) <= float(mem100) <= float(mem_ne)
            )
            result.notes.append(
                f"{graph}@k={k}: RF chain NE<=HEP-100<=HEP-1<=streaming holds="
                f"{quality_chain}; memory chain HEP-1<=HEP-100<=NE holds={mem_chain}"
            )
