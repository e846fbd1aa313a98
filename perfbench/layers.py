"""Traced run, in a fresh process: ``python3 layers.py CONFIG.json``.

Spans are opened from the benchmark's own code, around calls into each
layer's public functions; nothing under ``src/`` is changed.  The
module wraps, for the duration of this process only:

* every stage in :data:`repro.runtime.STAGE_REGISTRY` (the plan's
  top-level layers: ``count``, ``select_tau``, ``split``, ``phase_one``,
  ``stream``, ``metrics``),
* the kernels those stages call: ``CsrGraph.from_arrays`` (graph.csr),
  ``run_ne_plus_plus_on_csr`` (core.ne_plus_plus), ``hdrf_stream``
  (partition.hdrf), ``run_bsp_shared`` (stream.workers), and the warm
  pool's ``start``/``shutdown`` (stream.workers / parallel.shm).

Each wrapper opens ``repro.obs.get_tracer().span(name)``.  A traced job
runs under a collect-mode :class:`repro.obs.Tracer`, so the records
also hold the program's own spans (``partition``, ``select_tau``,
``split_pass``, ``phase_one``, ``stream_pass``, ``count_pass``,
``metrics_pass``, pool and worker spans); the untraced baseline runs
under the default ``NULL_TRACER``.  ``obs.overhead_ratio`` is therefore
the program's tracer plus the wrappers against the no-op tracer.

The workload's own job runs once to capture the first NE++ and HDRF
call arguments (untimed), then ``OVERHEAD_PAIRS`` times untraced (the
overhead baseline) and traced, in alternating order so that neither
side always runs second; the last traced run supplies the own job's
spans.  Two reference jobs then run traced on the
same manifest: sequential informed HDRF (the base of
``bsp.speedup_vs_seq``, and the ``hdrf`` layer when the own job streams
no h2h edge) and 2-worker HDRF (the BSP, pool and worker layers).
Kernel rates that no plan stage exposes in the coordinator (reader
sweep, the BSP batch scorer, store and artifact calls) and allocation
peaks (tracemalloc, which slows the code it watches several-fold, over
the captured calls) are timed by direct calls after the runs.
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from rep import build_spec

#: edges of the captured first hdrf_stream call replayed under tracemalloc
HDRF_ALLOC_EDGES = 8192
#: point lookups per kind in the artifact probe
PROBE_LOOKUPS = 2000
#: untraced/traced pairs of the own job; obs.overhead_ratio is the median
#: ratio, since one pair moves with the host by more than the overhead
OVERHEAD_PAIRS = 5
#: names of the spans the wrappers open (the program's spans are others)
LAYER_SPANS: set[str] = set()
#: first-call argument copies for the allocation probes; a dict only
#: during the capture run, so no timed run pays for the copies
_captured: dict | None = None


# -- span records ------------------------------------------------------------


def _layer_parent(records: dict[int, dict], record: dict) -> int | None:
    """Id of the nearest enclosing wrapper span of ``record``, if any."""
    parent = record.get("parent")
    while parent is not None:
        above = records.get(parent)
        if above is None:
            return None
        if above["name"] in LAYER_SPANS:
            return parent
        parent = above.get("parent")
    return None


def layer_spans(records: list[dict]) -> list[dict]:
    """The wrapper spans of a drained trace, each with its ``layer_parent``."""
    by_id = {r["id"]: r for r in records}
    return [
        {**r, "layer_parent": _layer_parent(by_id, r)}
        for r in records if r["name"] in LAYER_SPANS
    ]


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s["dur_s"] for s in spans if s["name"] == name)


def counted(spans: list[dict], name: str, counter: str) -> float:
    """Summed ``counter`` over every span called ``name``."""
    return sum(s["counters"].get(counter, 0) for s in spans if s["name"] == name)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: duration minus the part its nested layer spans cover."""
    nested: dict[int, float] = {}
    for s in spans:
        if s["layer_parent"] is not None:
            nested[s["layer_parent"]] = nested.get(s["layer_parent"], 0.0) + s["dur_s"]
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["dur_s"] - nested.get(s["id"], 0.0)
    return out


def top_level(spans: list[dict]) -> float:
    """Summed duration of the layer spans no other layer span encloses."""
    return sum(s["dur_s"] for s in spans if s["layer_parent"] is None)


def program_totals(records: list[dict]) -> dict[str, float]:
    """Per name, summed duration of the program's own spans (workers' too)."""
    out: dict[str, float] = {}
    for r in records:
        if r["name"] not in LAYER_SPANS:
            out[r["name"]] = out.get(r["name"], 0.0) + r["dur_s"]
    return out


# -- instrumentation ---------------------------------------------------------


def _spanned(name: str, fn, on_call=None):
    """``fn`` wrapped in a span; ``on_call(span, args, kwargs)`` runs first."""
    from repro.obs import get_tracer

    LAYER_SPANS.add(name)

    def wrapper(*args, **kwargs):
        with get_tracer().span(name) as span:
            if on_call is not None:
                on_call(span, args, kwargs)
            return fn(*args, **kwargs)

    return wrapper


def _wrap(owner, attr: str, name: str, on_call=None, as_static=False):
    """Replace ``owner.attr`` by a span-opening wrapper; returns the original."""
    original = getattr(owner, attr)
    wrapper = _spanned(name, original, on_call)
    setattr(owner, attr, staticmethod(wrapper) if as_static else wrapper)
    return original


def _capture_ne_pp(span, args, kwargs) -> None:
    if _captured is not None and "ne_pp" not in _captured:
        csr, k = args[0], args[1]
        _captured["ne_pp"] = (copy.deepcopy(csr), k, kwargs.get("tau"))


def _count_hdrf(span, args, kwargs) -> None:
    state, pairs, eids, parts = args[:4]
    span.add("edges", len(pairs))
    if _captured is not None and "hdrf" not in _captured and len(pairs):
        _captured["hdrf"] = (
            copy.deepcopy(state),
            pairs[:HDRF_ALLOC_EDGES].copy(),
            eids[:HDRF_ALLOC_EDGES].copy(),
            len(parts),
            kwargs.get("lam", 1.1),
            kwargs.get("eps", 1.0),
        )


def install() -> dict:
    """Wrap the stage registry and the kernels; returns the originals."""
    import repro.runtime.stages as stages
    import repro.stream.buffered as buffered
    import repro.stream.driver as driver
    import repro.stream.workers as workers
    from repro.graph.csr import CsrGraph
    from repro.runtime.plan import STAGE_REGISTRY, Stage

    for name, stage in list(STAGE_REGISTRY.items()):
        STAGE_REGISTRY[name] = Stage(
            name, _spanned(f"stage.{name}", stage.fn), stage.provides
        )
    originals = {
        "ne_pp": _wrap(stages, "run_ne_plus_plus_on_csr", "ne_pp", _capture_ne_pp),
        "hdrf": _wrap(buffered, "hdrf_stream", "hdrf", _count_hdrf),
    }
    _wrap(driver, "hdrf_stream", "hdrf", _count_hdrf)
    _wrap(CsrGraph, "from_arrays", "csr.build", as_static=True)
    _wrap(workers, "run_bsp_shared", "bsp")
    _wrap(workers.PersistentWorkerPool, "start", "pool.spawn")
    _wrap(workers.PersistentWorkerPool, "shutdown", "pool.shutdown")
    return originals


# -- probes ------------------------------------------------------------------


def _median_ms(fn, repeat: int = 3) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def probe_reader(source: str, chunk_size: int):
    """Full sweeps of the manifest; ``(edges_per_s, pairs)``."""
    import numpy as np

    from repro.stream.reader import open_edge_source

    rates = []
    for _ in range(3):
        blocks = []
        start = time.perf_counter()
        for chunk in open_edge_source(source, chunk_size):
            blocks.append(chunk.pairs)
        elapsed = time.perf_counter() - start
        pairs = np.concatenate(blocks)
        rates.append(len(pairs) / elapsed)
    return statistics.median(rates), pairs


def probe_batch_score(pairs, k: int, batch: int) -> float:
    """The BSP workers' batch scorer over every edge, ``batch`` at a time."""
    import numpy as np

    from repro.parallel.kernel import FusedBatchScorer

    n = int(pairs.max()) + 1
    degrees = np.bincount(pairs.ravel(), minlength=n).astype(np.int64)
    replicas = np.zeros((k, n), dtype=bool)
    loads = np.zeros(k, dtype=np.int64)
    scorer = FusedBatchScorer(k, batch, 1.1, 1.0)
    us = pairs[:, 0]
    vs = pairs[:, 1]
    start = time.perf_counter()
    for lo in range(0, len(pairs), batch):
        scores = scorer.scores(replicas, loads, degrees, us[lo:lo + batch],
                               vs[lo:lo + batch])
        best = scores.argmax(axis=1)
        replicas[best, us[lo:lo + batch]] = True
        replicas[best, vs[lo:lo + batch]] = True
        np.add.at(loads, best, 1)
    return len(pairs) / (time.perf_counter() - start)


def probe_store(runtime, spec, source: str, result, out: Path):
    """Input digest, store put and get on a result; ``(metrics, store, key)``."""
    digest = runtime.input_digest(spec, source)
    stores = [runtime.ArtifactStore(out / f"probe-store-{i}") for i in range(3)]
    key = stores[0].cache_key(spec, digest)
    puts = []
    for store in stores:
        start = time.perf_counter()
        store.put(key, result, digest)
        puts.append((time.perf_counter() - start) * 1e3)
    metrics = {
        "runtime.input_digest_ms": _median_ms(
            lambda: runtime.input_digest(spec, source)
        ),
        "store.put_ms": statistics.median(puts),
        "store.get_ms": _median_ms(lambda: stores[0].get(key, spec)),
    }
    return metrics, stores[0], key


def probe_artifact(store, key: str, seed: int) -> dict:
    """Attach, cover build and point lookups through ``ArtifactCache``."""
    import numpy as np

    from repro.serve import ArtifactCache

    attach_ms, cover_s = [], []
    for _ in range(3):
        cache = ArtifactCache(store)
        start = time.perf_counter()
        artifact = cache.attach(key)
        attach_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        artifact.vertex_parts(0)
        cover_s.append(time.perf_counter() - start)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, artifact.num_edges, size=PROBE_LOOKUPS).tolist()
    vertices = rng.integers(0, artifact.num_vertices, size=PROBE_LOOKUPS).tolist()
    clock = time.perf_counter
    edge_us, vertex_us = [], []
    for eid, vertex in zip(edges, vertices):
        start = clock()
        artifact.edge_part(eid)
        edge_us.append((clock() - start) * 1e6)
        start = clock()
        artifact.vertex_parts(vertex)
        vertex_us.append((clock() - start) * 1e6)
    return {
        "serve.attach_ms": statistics.median(attach_ms),
        "serve.cover_build_s": statistics.median(cover_s),
        "serve.edge_lookup_us": statistics.median(edge_us),
        "serve.vertex_lookup_us": statistics.median(vertex_us),
    }


def probe_alloc(captured: dict, originals: dict) -> dict:
    """tracemalloc peaks of the captured NE++ and HDRF calls, replayed."""
    import numpy as np

    out = {}
    csr, k, tau = captured["ne_pp"]
    tracemalloc.start()
    originals["ne_pp"](csr, k, tau=tau)
    out["ne_pp.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    state, pairs, eids, m, lam, eps = captured["hdrf"]
    parts = np.full(m, -1, dtype=np.int32)
    tracemalloc.start()
    originals["hdrf"](state, pairs, eids, parts, lam=lam, eps=eps)
    out["hdrf.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return out


# -- the traced run ----------------------------------------------------------


def capture(runtime, specs) -> dict:
    """Run ``specs`` untimed until the NE++ and HDRF calls are captured."""
    global _captured
    _captured = {}
    try:
        for spec in specs:
            runtime.run_job(spec)
            if {"ne_pp", "hdrf"} <= set(_captured):
                break
        return _captured
    finally:
        _captured = None


def timed_run(runtime, spec, traced: bool):
    """``(result, wall seconds, drained records)`` of one ``run_job``.

    Traced runs install a collect-mode :class:`repro.obs.Tracer`; the
    untraced run keeps the default no-op tracer.
    """
    from repro.obs import NULL_TRACER, Tracer, set_tracer

    tracer = Tracer(None) if traced else NULL_TRACER
    set_tracer(tracer)
    try:
        start = time.perf_counter()
        result = runtime.run_job(spec)
        wall = time.perf_counter() - start
    finally:
        set_tracer(NULL_TRACER)
    return result, wall, tracer.drain()


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    out = Path(cfg["out"])
    sys.path.insert(0, cfg["src"])
    import numpy as np

    import repro.runtime as runtime

    originals = install()
    source = cfg["source"]
    own_spec = build_spec(runtime, source, cfg["own"])
    seq_spec = build_spec(runtime, source, cfg["seq"])
    bsp_spec = build_spec(runtime, source, cfg["bsp"])

    captured = capture(runtime, [own_spec, seq_spec])
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        for traced in (pair % 2 == 1, pair % 2 == 0):
            if traced:
                own, wall_own, own_records = timed_run(runtime, own_spec, True)
            else:
                _, wall_untraced, _ = timed_run(runtime, own_spec, False)
        ratios.append(wall_own / wall_untraced)
    _, wall_seq, seq_records = timed_run(runtime, seq_spec, traced=True)
    bsp, wall_bsp, bsp_records = timed_run(runtime, bsp_spec, traced=True)
    own_spans = layer_spans(own_records)
    seq_spans = layer_spans(seq_records)
    bsp_spans = layer_spans(bsp_records)

    hdrf_source = "own" if counted(own_spans, "hdrf", "edges") else "seq"
    hdrf_spans = own_spans if hdrf_source == "own" else seq_spans

    reader_rate, pairs = probe_reader(source, own_spec.chunk_size)
    metrics = {
        "reader.edges_per_s": reader_rate,
        "count.s": total(own_spans, "stage.count"),
        "metrics.s": total(own_spans, "stage.metrics"),
        "select_tau.s": total(own_spans, "stage.select_tau"),
        "select_tau.tau": float(own.tau),
        "select_tau.projected_bytes": float(own.projected_memory_bytes),
        "split.s": self_times(own_spans).get("stage.split", 0.0),
        "split.h2h_edges": float(own.breakdown.num_h2h_edges),
        "split.spill_bytes": float(own.spill_bytes),
        "csr.build_s": total(own_spans, "csr.build"),
        "ne_pp.s": total(own_spans, "ne_pp"),
        "hdrf.s": total(hdrf_spans, "hdrf"),
        "batch_score.edges_per_s": probe_batch_score(
            pairs, own_spec.k, bsp.spec.batch
        ),
        "pool.spawn_s": total(bsp_spans, "pool.spawn"),
        "obs.overhead_ratio": statistics.median(ratios),
        "trace.coverage": top_level(own_spans) / wall_own,
    }
    metrics["ne_pp.edges_per_s"] = (
        own.breakdown.num_inmemory_edges / metrics["ne_pp.s"]
    )
    metrics["hdrf.edges_per_s"] = (
        counted(hdrf_spans, "hdrf", "edges") / metrics["hdrf.s"]
    )
    timings = bsp.report.timings
    metrics.update({
        "bsp.supersteps": float(bsp.report.supersteps),
        "bsp.worker_busy_s": timings.mean_busy_s,
        "bsp.worker_wait_s": statistics.mean(timings.wait_s),
        "bsp.coord_recv_s": timings.coordinator_recv_s,
        "bsp.coord_merge_s": timings.coordinator_merge_s,
        "bsp.busy_ratio": timings.mean_busy_s / total(bsp_spans, "bsp"),
        "bsp.speedup_vs_seq": wall_seq / wall_bsp,
    })
    store_metrics, store, key = probe_store(runtime, own_spec, source, own, out)
    metrics.update(store_metrics)
    metrics.update(probe_artifact(store, key, cfg["seed"]))
    metrics.update(probe_alloc(captured, originals))

    np.save(out / "parts.npy", own.parts)
    doc = {
        "metrics": metrics,
        "own": {
            "loads": [int(x) for x in own.loads],
            "replication_factor": own.replication_factor,
            "edge_balance": own.edge_balance,
            "tau": own.tau,
        },
        "layer_source": {
            "count/metrics/select_tau/split/csr/ne_pp": "own",
            "hdrf": hdrf_source,
            "pool/bsp": "2-worker HDRF",
        },
        "overhead_ratios": ratios,
        "top_level_over_untraced_wall": top_level(own_spans) / wall_untraced,
        "span_records": {
            "own": len(own_records), "seq": len(seq_records),
            "bsp_2w": len(bsp_records),
        },
        "walls_s": {
            "own_untraced": wall_untraced, "own_traced": wall_own,
            "seq_informed_hdrf": wall_seq, "bsp_2w": wall_bsp,
        },
        "self_time_s": {
            "own": self_times(own_spans),
            "seq": self_times(seq_spans),
            "bsp_2w": self_times(bsp_spans),
        },
        # the program's own spans over the same traced runs, to cross-check
        # the stage shares the wrappers measured
        "program_span_s": {
            "own": program_totals(own_records),
            "seq": program_totals(seq_records),
            "bsp_2w": program_totals(bsp_records),
        },
    }
    (out / "trace.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
