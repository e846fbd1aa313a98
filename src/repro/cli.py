"""Command-line interface: ``python -m repro`` / ``hep-partition``.

Subcommands mirror the workflows a user of the original C++ system has:

* ``partition`` — partition an edge-list file (or a named stand-in
  dataset) and write one partition id per edge; HEP and every
  streaming baseline run through the chunked pipeline, so binary edge
  files are never fully loaded (text edge lists are loaded and
  canonicalized first), and only the methods without a streaming form
  (NE, METIS, ...) load the graph,
* ``scan``      — the counting/metrics passes alone: stream statistics
  and, with ``--parts``, replication factor and balance for a saved
  assignment,
* ``compare``   — run several partitioners on one graph side by side,
* ``select-tau`` — pick the largest tau fitting a memory budget (§4.4),
* ``extsort``   — rewrite an edge file in degree order with bounded
  memory (external merge sort),
* ``trace``     — inspect a ``--trace`` JSONL file (``trace summarize``
  prints the per-phase time/memory/counter breakdown),
* ``experiment`` — regenerate one of the paper's tables/figures,
* ``datasets``  — list the Table 3 stand-ins or export one to disk.

``partition``, ``scan`` and ``extsort`` accept ``--trace FILE`` to
record a structured span trace of the run (:mod:`repro.obs`); tracing
never changes results, only observes them.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from repro.core import precompute_profile, select_tau
from repro.errors import ReproError
from repro.experiments import REGISTRY
from repro.experiments.common import PARTITIONER_FACTORIES, run_partitioner
from repro.graph import datasets, read_binary_edgelist, read_text_edgelist
from repro.graph.edgelist import Graph
from repro.metrics import (
    edge_balance,
    format_table,
    replication_factor,
    vertex_balance,
)
from repro.obs.summary import format_summary, read_trace
from repro.obs.tracer import MEMORY_MODES, tracing
from repro.stream.extsort import EXTSORT_ORDERS
from repro.stream.reader import DEFAULT_CHUNK_SIZE

__all__ = ["main", "build_parser"]


def _graph_name(source: str) -> str:
    """A source's graph name: the dataset's, else the file stem."""
    if source.upper() in datasets.available():
        return source.upper()
    return Path(source).stem


def _load_graph(source: str) -> Graph:
    """Dataset name, text/binary edge list, or shard manifest.

    The graph is canonical: self-loops and duplicate edges are dropped
    (:meth:`Graph.from_edges`).
    """
    if source.upper() in datasets.available():
        return datasets.load(source)
    path = Path(source)
    if not path.exists():
        raise ReproError(
            f"{source!r} is neither a dataset name "
            f"({', '.join(datasets.available())}) nor a file"
        )
    from repro.stream.shard import ShardedEdgeSource, is_manifest_path

    name = _graph_name(source)
    if is_manifest_path(path):
        src = ShardedEdgeSource(path)
        pairs = [chunk.pairs for chunk in src]
        edges = (
            np.vstack(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
        )
        return Graph.from_edges(edges, num_vertices=src.num_vertices,
                                name=name)
    from repro.stream.reader import BINARY_SUFFIXES, require_edge_format

    if path.suffix in BINARY_SUFFIXES:
        require_edge_format(path, "binary")
        return read_binary_edgelist(path, name=name)
    require_edge_format(path, "text")
    return read_text_edgelist(path, name=name)


def _job_source(source: str) -> str | Graph:
    """What a streamed method reads: a text edge list is loaded with
    :func:`_load_graph`; any other source streams as it is.

    External edge lists come as text and often hold self-loops and
    duplicate edges, which the chunked readers do not drop (they
    require canonical input), so a text file is canonicalized in memory
    as the in-memory methods do.  Binary edge files and shard manifests
    (what ``datasets --export`` and ``extsort`` write) and dataset
    names stream without loading.
    """
    path = Path(source)
    if source.upper() in datasets.available() or not path.is_file():
        return source
    from repro.stream.reader import BINARY_SUFFIXES
    from repro.stream.shard import is_manifest_path

    if is_manifest_path(path) or path.suffix in BINARY_SUFFIXES:
        return source
    return _load_graph(source)


def _cmd_partition(args: argparse.Namespace) -> int:
    if args.method.lower() == "help":
        from repro.runtime.registry import algorithm_catalog

        print(algorithm_catalog())
        return 0
    if _is_streamed(args.method):
        return _partition_streamed(args)
    return _partition_in_memory(args)


def _is_streamed(method: str) -> bool:
    """HEP, ``HEP-<tau>`` and the registered streaming algorithms run
    through :func:`repro.runtime.api.run_job`; the rest load the graph."""
    from repro.runtime.registry import algorithm_names

    name = method.upper()
    return (
        name == "HEP" or name.startswith("HEP-")
        or name in {algo.upper() for algo in algorithm_names()}
    )


def _job_spec_from_args(args: argparse.Namespace, source):
    """Lower the ``partition`` flag set to a runtime JobSpec over
    ``source`` (:func:`_job_source`).

    Only the CLI's own rules live here; which knobs a job may combine
    is :func:`~repro.runtime.api.validate_spec`'s to decide.  A
    ``HEP-<tau>`` name runs as HEP with that tau.
    """
    from repro.runtime.spec import make_job

    if args.passes is not None and args.method.lower() != "restreaming":
        raise ReproError("--passes applies only to the Restreaming method")
    if args.batch is not None and args.workers is None:
        raise ReproError("--batch sizes the per-worker superstep; it "
                         "requires --workers")
    algo, tau = args.method, args.tau
    if algo.upper().startswith("HEP-"):
        if tau is not None:
            raise ReproError(f"{algo} carries its own tau; drop --tau "
                             f"or run --algo HEP --tau X")
        try:
            algo, tau = "HEP", float(algo.split("-", 1)[1])
        except ValueError:
            raise ReproError(f"{args.method!r} is not HEP-<tau>") from None
    if tau is not None and args.memory_budget is not None:
        raise ReproError("a fixed tau (--tau or HEP-<tau>) and "
                         "--memory-budget conflict: the budget exists to "
                         "select tau (drop one of them)")
    # Unset flags are None: make_job's defaults apply.
    options = {name: getattr(args, name)
               for name in ("chunk_size", "prefetch", "mmap", "workers",
                            "batch")
               if getattr(args, name) is not None}
    return make_job(
        algo, source, args.k,
        algo_params={} if args.passes is None else {"passes": args.passes},
        tau=tau,
        memory_budget=args.memory_budget,
        buffer_size=args.buffer_size,
        spill_dir=args.spill_dir,
        spill_compression=args.spill_compression,
        **options,
    )


def _partition_streamed(args: argparse.Namespace) -> int:
    """Run the flag set as one :func:`~repro.runtime.api.run_job` job
    and print its report.

    Binary edge files are streamed in chunks and never fully loaded;
    HEP plans the budgeted two-phase pipeline, a streaming algorithm
    the three-stage one, and ``--workers N`` runs the streaming phase
    on BSP worker processes.
    """
    from repro.runtime.api import run_job
    from repro.runtime.store import ArtifactStore

    source = _job_source(args.graph)
    spec = _job_spec_from_args(args, source)
    store = None if args.cache is None else ArtifactStore(args.cache)
    result = run_job(spec, source=source, store=store)
    name = result.algorithm if result.tau is None else f"HEP-{result.tau:g}"
    shape = f", {spec.workers} worker processes" if spec.workers else ""
    print(f"partitioner        : {name} (out-of-core{shape})")
    print(f"source             : {args.graph} "
          f"(n={result.num_vertices:,} m={result.num_edges:,})")
    print(f"chunk size         : {result.chunk_size:,} edges")
    if spec.input.prefetch:
        print(f"prefetch depth     : {spec.input.prefetch} chunks")
    if result.buffer_size:
        print(f"buffer size        : {result.buffer_size:,} edges")
    if result.projected_memory_bytes is not None:
        print(f"memory budget      : {spec.memory_budget:,} bytes "
              f"(projected {result.projected_memory_bytes:,})")
    if result.breakdown is not None:
        print(f"h2h edges spilled  : {result.breakdown.num_h2h_edges:,} "
              f"({result.spill_bytes:,} bytes on disk"
              + (f", {spec.spill_compression}" if spec.spill_compression
                 else "")
              + ")")
    if result.passes > 1:
        print(f"stream passes      : {result.passes}")
    _print_worker_report(result.report)
    if store is not None:
        outcome = "hit" if result.cache_hit else "miss (stored)"
        print(f"cache              : {outcome} job {result.job_hash[:12]} "
              f"in {store.root}")
    print(f"replication factor : {result.replication_factor:.4f}")
    print(f"edge balance alpha : {result.edge_balance:.4f}")
    print(f"run-time           : {result.runtime_s:.3f}s")
    _write_outputs(args, result.parts, result.k, result.num_vertices,
                   source if isinstance(source, Graph) else None)
    return 0


def _print_worker_report(report) -> None:
    """Superstep summary of a multi-worker run."""
    if report is None:
        return
    print(f"bsp schedule       : {report.workers} workers x batch "
          f"{report.batch} = {report.supersteps:,} supersteps "
          f"({report.slow_supersteps} near capacity)")
    timings = report.timings
    if timings is None:
        return
    print(f"worker busy        : max {timings.max_busy_s:.3f}s, "
          f"mean {timings.mean_busy_s:.3f}s "
          f"(skew {timings.skew:.2f}x)")
    print(f"coordinator        : recv wait {timings.coordinator_recv_s:.3f}s, "
          f"merge {timings.coordinator_merge_s:.3f}s, "
          f"send {timings.coordinator_send_s:.3f}s")


#: partition flags only the streamed methods read (each defaults to None)
_STREAMED_FLAGS = (
    "chunk_size", "tau", "memory_budget", "buffer_size", "spill_dir",
    "spill_compression", "prefetch", "mmap", "passes", "workers", "batch",
    "cache",
)


def _partition_in_memory(args: argparse.Namespace) -> int:
    """The methods without a streaming form (NE, NE++, SNE, DNE, METIS,
    ADWISE, Random): load the graph, partition it, report."""
    from repro.experiments.common import make_partitioner

    try:
        partitioner = make_partitioner(args.method)
    except KeyError as exc:
        raise ReproError(exc.args[0]) from None
    given = [
        f"--{name.replace('_', '-')}"
        for name in _STREAMED_FLAGS
        if getattr(args, name) is not None
    ]
    if given:
        raise ReproError(
            f"{', '.join(given)}: streamed methods only (HEP or a streaming "
            f"algorithm, `--algo help`); {partitioner.name} partitions the "
            f"graph in memory"
        )
    graph = _load_graph(args.graph)
    start = time.perf_counter()
    assignment = partitioner.partition(graph, args.k)
    elapsed = time.perf_counter() - start
    print(f"partitioner        : {partitioner.name}")
    print(f"graph              : {graph!r}")
    print(f"replication factor : {replication_factor(assignment):.4f}")
    print(f"edge balance alpha : {edge_balance(assignment):.4f}")
    print(f"vertex balance     : {vertex_balance(assignment):.4f}")
    print(f"run-time           : {elapsed:.3f}s")
    _write_outputs(args, assignment.parts, args.k, graph.num_vertices, graph)
    return 0


def _write_outputs(args, parts, k: int, num_vertices: int,
                   graph: Graph | None = None) -> None:
    """``--output`` (ids + ``.meta.json`` sidecar) and ``--shards-dir``.

    A streamed binary or manifest source is never loaded; ``--shards-dir``
    alone loads it, and refuses a file whose duplicate edges the stream
    kept (the parts would not line up with the graph's edges).
    """
    if args.shards_dir and graph is None:
        graph = _load_graph(args.graph)
        if graph.num_edges != len(parts):
            raise ReproError(
                f"--shards-dir: {args.graph} streamed {len(parts):,} edges "
                f"but holds {graph.num_edges:,} distinct ones; a streamed "
                f"binary edge file or manifest must be canonical (no "
                f"duplicate edges)"
            )
    if args.output:
        from repro.graph.partition_io import write_parts

        write_parts(parts, args.output, k=k, num_vertices=num_vertices,
                    graph_name=_graph_name(args.graph))
        print(f"assignment written : {args.output} (+ .meta.json sidecar)")
    if args.shards_dir:
        from repro.graph.partition_io import write_partition_edgelists
        from repro.partition.base import PartitionAssignment

        paths = write_partition_edgelists(
            PartitionAssignment(graph, k, parts), args.shards_dir
        )
        print(f"shards written     : {len(paths)} binary edge lists in "
              f"{args.shards_dir}")


def _cmd_scan(args: argparse.Namespace) -> int:
    """Counting/metrics passes alone: stream stats, optionally quality.

    The counting pass reports ``n``, ``m`` and degree statistics for
    any edge source.  With ``--parts`` (a per-edge partition-id file as
    written by ``partition --output``), the metrics pass additionally
    reports replication factor and edge balance.
    """
    from repro.stream import open_edge_source, scan_source

    parts = None
    if args.parts is not None:
        # Read before the counting pass: a bad file fails without a sweep.
        parts = _read_parts(args.parts)
        if args.k is not None:
            k = args.k
        elif parts.size:
            k = int(max(parts.max(), 0)) + 1
        else:
            raise ReproError(
                "cannot infer k from an empty assignment; pass --k"
            )
    opened = open_edge_source(args.graph, args.chunk_size)
    stats = scan_source(opened)
    print(f"source             : {opened.describe()}")
    print(f"universe           : n={stats.num_vertices:,} "
          f"m={stats.num_edges:,}")
    max_degree = int(stats.degrees.max()) if stats.num_vertices else 0
    isolated = int((stats.degrees == 0).sum())
    print(f"degrees            : mean {stats.mean_degree:.3f}, "
          f"max {max_degree:,}, isolated {isolated:,}")
    print("scan passes        : sequential")
    if parts is None:
        return 0
    from repro.metrics import streamed_quality_report

    report = streamed_quality_report(
        args.graph,
        parts,
        k,
        chunk_size=args.chunk_size,
        memory_budget=args.memory_budget,
        stats=stats,  # the counting pass above; don't sweep twice
    )
    print(f"assignment         : {args.parts} (k={k})")
    print(f"replication factor : {report.replication_factor:.4f}")
    print(f"edge balance alpha : {report.edge_balance:.4f}")
    print(f"unassigned edges   : {report.num_unassigned:,}")
    return 0


def _read_parts(path: str) -> np.ndarray:
    """A per-edge partition-id file (one integer per line) as int64."""
    try:
        with warnings.catch_warnings():
            # An empty file is an empty assignment, not a warning.
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, dtype=np.int64, ndmin=1)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ReproError(
            f"{path}: not a partition-id file (one integer per line): {exc}"
        ) from None


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    rows = []
    for name in args.partitioners:
        report = run_partitioner(name, graph, args.k)
        rows.append(report.row())
    print(format_table(rows, title=f"{graph.name or args.graph} at k={args.k}"))
    return 0


def _cmd_select_tau(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    budget = int(args.budget_kib * 1024)
    profile = precompute_profile(graph, args.k)
    print(format_table(profile.rows(), title="projected HEP footprint per tau"))
    tau, projected = select_tau(graph, budget, args.k)
    print(f"\nbudget {budget:,} bytes -> tau={tau:g} "
          f"(projected {projected:,} bytes)")
    return 0


def _cmd_extsort(args: argparse.Namespace) -> int:
    """External-sort an edge stream into a degree-ordered edge file.

    With ``--shards K`` the sorted stream lands pre-sharded: a manifest
    plus K shard files the concurrent reader consumes directly.
    """
    from repro.stream import external_sort_edges

    if args.compress is not None and args.shards is None:
        raise ReproError("--compress requires --shards (only the sharded "
                         "format carries zlib frames)")
    result = external_sort_edges(
        args.graph, args.output, order=args.order,
        chunk_size=args.chunk_size, num_shards=args.shards,
        compression=args.compress,
    )
    print(f"sorted             : {args.graph} -> {result.path}")
    print(f"order              : {result.order}")
    print(f"edges              : {result.num_edges:,} "
          f"(universe n={result.num_vertices:,})")
    print(f"sort runs          : {result.num_runs} "
          f"({result.run_bytes:,} temp bytes)")
    if result.num_shards:
        print(f"shards             : {result.num_shards}"
              + (f" ({result.compression} frames)"
                 if result.compression else ""))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a ``--trace`` JSONL file written by a previous run.

    ``trace summarize FILE`` aggregates the spans into a per-phase
    time/memory/counter breakdown table (see docs/observability.md for
    the format and the span taxonomy).
    """
    records = read_trace(args.file)
    print(format_summary(records))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: partitioning as a service (see docs/serve.md).

    Runs the asyncio service until SIGTERM/SIGINT and drains
    gracefully: queued jobs cancel, a running job stops at its next
    stage boundary, warm pools shut down, shared segments unlink.  With
    ``--self-test SOURCE`` the service instead starts on an ephemeral
    port, exercises itself end to end over HTTP (submit twice → one
    execution + a dedup hit, progress events, lookups), and exits.
    """
    import asyncio

    if args.self_test is not None:
        from repro.serve.selftest import run_self_test

        return asyncio.run(run_self_test(
            args.self_test, args.cache, algo=args.algo, k=args.k,
            workers=args.workers,
        ))
    from repro.serve.app import serve_forever

    return asyncio.run(serve_forever(
        args.cache, host=args.host, port=args.port,
        queue_size=args.queue_size, lru=args.artifact_lru,
    ))


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id not in REGISTRY:
        print(f"unknown experiment {args.id!r}; available: {', '.join(REGISTRY)}")
        return 2
    result = REGISTRY[args.id]()
    print(result.format())
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.export:
        from repro.graph.edgelist import write_binary_edgelist, write_text_edgelist

        graph = datasets.load(args.export)
        if args.format == "sharded":
            from repro.stream.shard import write_sharded_edges

            output = args.output or f"{args.export.upper()}.manifest.json"
            manifest = write_sharded_edges(
                graph, output, num_shards=args.shards,
                compression=args.compress,
            )
            print(f"exported {graph!r}")
            print(f"  -> {manifest.path} ({manifest.num_shards} shards"
                  + (f", {args.compress}" if args.compress else "")
                  + f", {manifest.total_bytes():,} bytes)")
            return 0
        if args.compress is not None:
            raise ReproError("--compress applies to --format sharded only")
        suffix = ".bin" if args.format == "binary" else ".txt"
        output = args.output or f"{args.export.upper()}{suffix}"
        if args.format == "binary":
            nbytes = write_binary_edgelist(graph, output)
        else:
            write_text_edgelist(graph, output)
            nbytes = Path(output).stat().st_size
        print(f"exported {graph!r}")
        print(f"  -> {output} ({args.format}, {nbytes:,} bytes)")
        return 0
    rows = []
    for name in datasets.available():
        spec = datasets.DATASETS[name]
        rows.append(
            {
                "name": name,
                "type": spec.kind,
                "paper_|V|": spec.paper_vertices,
                "paper_|E|": spec.paper_edges,
                "stand-in": spec.description,
            }
        )
    print(format_table(rows, title="Table 3 stand-in datasets"))
    return 0


def _trace_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--trace`` flag group shared by run commands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", default=None, metavar="FILE",
                        help="record a structured span trace (JSONL) of "
                             "this run; inspect it with `repro trace "
                             "summarize`")
    parent.add_argument("--trace-memory", choices=MEMORY_MODES, default=None,
                        help="additionally probe per-span memory deltas "
                             "(tracemalloc: allocation-exact, slower; "
                             "rss: process RSS, cheap; requires --trace)")
    return parent


def _source_parent(graph_help: str, chunk_help: str,
                   chunk_default: int | None = DEFAULT_CHUNK_SIZE,
                   ) -> argparse.ArgumentParser:
    """Parent parser: the edge-source flag group (positional + chunking)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("graph", help=graph_help)
    parent.add_argument("--chunk-size", type=int, default=chunk_default,
                        help=chunk_help)
    return parent


def _budget_parent(budget_help: str) -> argparse.ArgumentParser:
    """Parent parser: the ``--memory-budget`` flag group."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--memory-budget", type=int, default=None,
                        metavar="BYTES", help=budget_help)
    return parent


def _partition_parents() -> list[argparse.ArgumentParser]:
    """The shared flag groups ``partition`` and ``job describe`` use."""
    return [
        _source_parent(
            "dataset name or edge-list file",
            f"edges per I/O chunk of a streamed method "
            f"(default {DEFAULT_CHUNK_SIZE})",
            chunk_default=None,
        ),
        _budget_parent(
            "byte budget for HEP's in-memory structures; "
            "selects tau from the §4.4 grid (conflicts with --tau)"
        ),
    ]


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    """The algorithm/pipeline flags ``partition`` and ``job describe`` share."""
    p.add_argument("--k", type=int, default=32, help="number of partitions")
    p.add_argument("--method", "--algo", dest="method", default="HEP",
                   help=f"HEP, HEP-<tau> or one of "
                        f"{', '.join(PARTITIONER_FACTORIES)}; HEP and the "
                        "registered streaming algorithms (`--algo help`) "
                        "stream the edge file, the rest load it")
    p.add_argument("--tau", type=float, default=None,
                   help="HEP degree threshold factor (default 10.0)")
    p.add_argument("--buffer-size", type=int, default=None,
                   help="buffered-scoring window for the streaming phase")
    p.add_argument("--spill-dir", default=None,
                   help="directory for the h2h spill file (default: temp dir)")
    p.add_argument("--spill-compression", choices=("zlib",), default=None,
                   help="compress the h2h spill file (zlib frames)")
    p.add_argument("--prefetch", type=int, default=None, metavar="DEPTH",
                   help="background-prefetch this many decoded chunks "
                        "ahead of the consumer (default 0 = off)")
    p.add_argument("--mmap", action="store_true", default=None,
                   help="serve chunks zero-copy from an np.memmap "
                        "(uncompressed binary edge files)")
    p.add_argument("--passes", type=int, default=None,
                   help="stream passes for --algo Restreaming (default 3)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="partition with N worker processes, one per shard "
                        "assignment (--algo HEP or HDRF)")
    p.add_argument("--batch", type=int, default=None, metavar="B",
                   help="edges each worker scores per BSP superstep "
                        "(default 8; requires --workers)")


def _cmd_job_describe(args: argparse.Namespace) -> int:
    """``repro job describe``: canonical JSON + content hash of a spec.

    Prints exactly what the runtime would hash and cache-key for this
    flag set — the canonical one-line JSON, the sha256 content hash,
    and the stage pipeline the planner would run.
    """
    from repro.runtime.api import validate_spec
    from repro.runtime.plan import plan_job

    spec = _job_spec_from_args(args, _job_source(args.graph))
    validate_spec(spec)
    print(spec.canonical_json())
    print(f"content hash       : {spec.content_hash()}")
    print(f"pipeline           : {plan_job(spec).describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid Edge Partitioner (SIGMOD'21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a graph's edges",
                       parents=[*_partition_parents(), _trace_parent()])
    _add_partition_flags(p)
    p.add_argument("--output", help="write per-edge partition ids here")
    p.add_argument("--shards-dir", help="write one binary edge list per partition")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="content-addressed result cache: identical "
                        "streamed jobs are served from DIR without "
                        "recomputing (keyed by job hash + input digest)")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser(
        "job",
        help="inspect runtime job specs (spec -> plan -> executor layer)",
    )
    job_sub = p.add_subparsers(dest="job_command", required=True)
    p2 = job_sub.add_parser(
        "describe",
        help="print a spec's canonical JSON, content hash, and stage plan",
        parents=_partition_parents(),
    )
    _add_partition_flags(p2)
    p2.set_defaults(func=_cmd_job_describe)

    p = sub.add_parser(
        "scan",
        help="counting/metrics passes alone: stream stats and "
             "(with --parts) assignment quality, out of core",
        parents=[
            _source_parent(
                "dataset name or edge-list file/manifest",
                "edges per I/O chunk for every pass",
            ),
            _budget_parent(
                "byte bound for the metrics cover; larger covers "
                "fall back to column-blocked sweeps"
            ),
            _trace_parent(),
        ],
    )
    p.add_argument("--parts", default=None, metavar="FILE",
                   help="per-edge partition-id file (one id per line, as "
                        "written by partition --output) to score")
    p.add_argument("--k", type=int, default=None,
                   help="partition count for --parts (default: max id + 1)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("compare", help="run several partitioners side by side")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=32)
    p.add_argument(
        "--partitioners",
        nargs="+",
        default=["HEP-100", "HEP-10", "HEP-1", "HDRF", "DBH", "NE"],
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("select-tau", help="pick tau for a memory budget (§4.4)")
    p.add_argument("graph")
    p.add_argument("--budget-kib", type=float, required=True)
    p.add_argument("--k", type=int, default=32)
    p.set_defaults(func=_cmd_select_tau)

    p = sub.add_parser(
        "extsort",
        help="rewrite an edge file in degree order with bounded memory",
        parents=[
            _source_parent(
                "dataset name or edge-list file",
                "edges per in-memory sort run",
            ),
            _trace_parent(),
        ],
    )
    p.add_argument("output", help="binary edge-list file to write")
    p.add_argument("--order", choices=EXTSORT_ORDERS, default="degree",
                   help="ordering to realize (degree-derived keys only)")
    p.add_argument("--shards", type=int, default=None, metavar="K",
                   help="split the sorted stream into K shard files plus "
                        "a manifest (output becomes <out>.manifest.json)")
    p.add_argument("--compress", choices=("zlib",), default=None,
                   help="zlib-framed shard files (requires --shards)")
    p.set_defaults(func=_cmd_extsort)

    p = sub.add_parser(
        "trace",
        help="inspect a --trace JSONL file from a previous run",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p2 = trace_sub.add_parser(
        "summarize",
        help="per-phase time/memory/counter breakdown of a trace",
    )
    p2.add_argument("file", help="trace JSONL file written by --trace")
    p2.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="partitioning as a service: submit/poll/lookup over HTTP",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (default 8642; 0 = ephemeral)")
    p.add_argument("--cache", default="serve-cache", metavar="DIR",
                   help="artifact-store root completed jobs land in "
                        "(default serve-cache)")
    p.add_argument("--queue-size", type=int, default=16, metavar="N",
                   help="max pending jobs before submits get 503")
    p.add_argument("--artifact-lru", type=int, default=4, metavar="N",
                   help="attached artifacts kept hot for lookups")
    p.add_argument("--self-test", default=None, metavar="SOURCE",
                   help="start on an ephemeral port, exercise the "
                        "service end to end against SOURCE, and exit")
    p.add_argument("--algo", default="HDRF",
                   help="self-test algorithm (default HDRF)")
    p.add_argument("--k", type=int, default=8,
                   help="self-test partition count (default 8)")
    p.add_argument("--workers", type=int, default=2,
                   help="self-test worker processes (default 2)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", help=f"one of: {', '.join(REGISTRY)}")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "datasets", help="list the Table 3 stand-ins or export one to disk"
    )
    p.add_argument("--export", metavar="NAME", default=None,
                   help="write the named stand-in as an on-disk edge file")
    p.add_argument("--format", choices=("text", "binary", "sharded"),
                   default="binary",
                   help="edge-file format for --export")
    p.add_argument("--output", default=None,
                   help="output path for --export "
                        "(default: <NAME>.bin/.txt/.manifest.json)")
    p.add_argument("--shards", type=int, default=4, metavar="K",
                   help="shard count for --format sharded")
    p.add_argument("--compress", choices=("zlib",), default=None,
                   help="zlib-framed shard files (--format sharded only)")
    p.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; ``--trace`` wraps the whole run."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path is None:
            if getattr(args, "trace_memory", None) is not None:
                raise ReproError("--trace-memory requires --trace")
            rc = args.func(args)
        else:
            with tracing(trace_path, memory=args.trace_memory) as tracer:
                rc = args.func(args)
                spans = tracer.num_spans
            print(f"trace written      : {trace_path} ({spans} spans; "
                  f"`repro trace summarize {trace_path}`)")
        sys.stdout.flush()
        return rc
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (`repro trace summarize t.jsonl |
        # head`): drop the rest of the output, as a tool stopped by SIGPIPE
        # would, so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
