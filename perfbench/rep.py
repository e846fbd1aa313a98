"""One timed repetition, in a fresh process: ``python3 rep.py CONFIG.json``.

The process measures, in order:

* ``setup_s``: the import of ``repro.runtime``,
* ``partition_s``: the wall time of :func:`repro.runtime.run_job`, with
  the CPU seconds of this process plus its worker children and the peak
  RSS of this process plus its largest worker,
* ``cache_hit_ms``: the median of ``CACHE_HITS`` identical ``run_job``
  calls answered by an :class:`~repro.runtime.ArtifactStore` that holds
  the result,
* lookup latencies: ``edge``/``vertex``/``quality`` point lookups on
  the stored result through :class:`repro.serve.ArtifactCache`.

It writes ``rep.json`` and ``parts.npy`` into the config's ``out``
directory; the parent checks them.  Nothing here is traced.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: kinds of point lookup; each lookup draws one uniformly
LOOKUP_MIX = ("edge", "edge", "vertex", "vertex", "quality")
#: store hits timed per repetition; one 2 ms hit is too short to time alone
CACHE_HITS = 5


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def build_spec(runtime, source: str, job: dict):
    """A :class:`~repro.runtime.JobSpec` from a serve-style job payload."""
    options = dict(job)
    algo = options.pop("algo")
    k = options.pop("k")
    return runtime.make_job(algo, source, k, **options)


def lookup_latencies(artifact, count: int, seed: int, num_edges: int):
    """Time ``count`` point lookups on an attached artifact, in ms.

    Returns ``(latencies_ms, edge_mismatches)``; ``edge_mismatches``
    counts edge answers that differ from the artifact's parts array.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, len(LOOKUP_MIX), size=count)
    edges = rng.integers(0, num_edges, size=count)
    vertices = rng.integers(0, artifact.num_vertices, size=count)
    expected = artifact.parts
    latencies = []
    mismatches = 0
    clock = time.perf_counter
    for i in range(count):
        kind = LOOKUP_MIX[kinds[i]]
        start = clock()
        if kind == "edge":
            answer = artifact.edge_part(int(edges[i]))
        elif kind == "vertex":
            answer = artifact.vertex_parts(int(vertices[i]))
        else:
            answer = artifact.quality()
        latencies.append((clock() - start) * 1e3)
        if kind == "edge" and answer != int(expected[edges[i]]):
            mismatches += 1
    return latencies, mismatches


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    out = Path(cfg["out"])
    sys.path.insert(0, cfg["src"])

    start = time.perf_counter()
    import repro.runtime as runtime
    setup_s = time.perf_counter() - start

    import multiprocessing

    import numpy as np

    spec = build_spec(runtime, cfg["source"], cfg["job"])
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    result = runtime.run_job(spec)
    partition_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    leftover_children = len(multiprocessing.active_children())

    store = runtime.ArtifactStore(cfg["store"])
    digest = runtime.input_digest(spec, cfg["source"])
    key = store.cache_key(spec, digest)
    store.put(key, result, digest)
    hit_ms, hits_ok = [], True
    for _ in range(CACHE_HITS):
        start = time.perf_counter()
        hit = runtime.run_job(spec, store=store)
        hit_ms.append((time.perf_counter() - start) * 1e3)
        hits_ok &= hit.cache_hit and np.array_equal(hit.parts, result.parts)

    from repro.serve import ArtifactCache

    artifact = ArtifactCache(store).attach(key)
    artifact.vertex_parts(0)  # builds the vertex cover once, untimed
    latencies, mismatches = lookup_latencies(
        artifact, cfg["lookups"], cfg["seed"], result.num_edges
    )

    np.save(out / "parts.npy", result.parts)
    doc = {
        "setup_s": setup_s,
        "partition_s": partition_s,
        "cpu_s": (_cpu(self1) - _cpu(self0)) + (_cpu(kids1) - _cpu(kids0)),
        # ru_maxrss is KiB on Linux; the children's figure is the largest child
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "coordinator_rss_mb": self1.ru_maxrss / 1024.0,
        "largest_worker_rss_mb": kids1.ru_maxrss / 1024.0,
        "cache_hit_ms": statistics.median(hit_ms),
        "cache_hit_ok": bool(hits_ok),
        "lookup_ms": latencies,
        "lookup_edge_mismatches": mismatches,
        "leftover_children": leftover_children,
        "num_edges": result.num_edges,
        "loads": [int(x) for x in result.loads],
        "replication_factor": result.replication_factor,
        "edge_balance": result.edge_balance,
        "tau": result.tau,
        "projected_memory_bytes": result.projected_memory_bytes,
        "num_h2h_edges": (
            result.breakdown.num_h2h_edges if result.breakdown else None
        ),
        "spill_bytes": result.spill_bytes,
        "stages": list(result.stages_executed),
    }
    (out / "rep.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
