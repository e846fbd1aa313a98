"""Tests for the repro.runtime layer: specs, hashing, plans, and cache.

The load-bearing properties:

* :meth:`~repro.runtime.spec.JobSpec.content_hash` is *stable* — a
  golden hash pins the canonical form, because silently changing it
  would orphan every existing artifact-store entry,
* hashing is insensitive to spelling (kwarg order, elided defaults,
  algo case) but sensitive to anything that can change the assignment
  (budget, workers, batch, k, chunk size),
* a second :func:`~repro.runtime.api.run_job` of an identical spec is
  served from the :class:`~repro.runtime.store.ArtifactStore`
  bit-identically, with **zero** partitioning stages executed —
  asserted both on the result and on the trace span tree.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.graph import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.obs import Tracer, set_tracer
from repro.runtime import (
    PIPELINES,
    SPEC_VERSION,
    ArtifactStore,
    InputSpec,
    JobSpec,
    algorithm_names,
    create_algorithm,
    input_digest,
    make_job,
    plan_job,
    register_streaming_algorithm,
    run_job,
    validate_spec,
)

#: pins the canonical hash of ``make_job("HDRF", "OK", 4)``.  If this
#: assertion ever fails, the canonical form changed meaning: bump
#: SPEC_VERSION (which re-keys every cache entry) instead of editing
#: the constant.
GOLDEN_HDRF_HASH = (
    "1ce533bcff1a976e6ce180742eaa6a0f0accc16b187258b1d1443fce6e4fee44"
)
#: the same pin for a HEP spec, ``make_job("HEP", "OK", 8, tau=1.0)``
GOLDEN_HEP_HASH = (
    "133d7acf965946d4edfc027793941d96a2c41b162b27c5bc5d34e04c9e8691ba"
)


@pytest.fixture(scope="module")
def graph():
    return chung_lu(300, mean_degree=6, exponent=2.2, seed=11, name="rt")


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "rt.bin"
    write_binary_edgelist(graph, path)
    return path


def _traced_run(spec, **kwargs):
    """Run a job under a collect-mode tracer; return (result, spans)."""
    tracer = Tracer(None)
    previous = set_tracer(tracer)
    try:
        result = run_job(spec, **kwargs)
    finally:
        set_tracer(previous)
    return result, tracer.drain()


class TestContentHash:
    def test_golden_hash_is_stable(self):
        assert make_job("HDRF", "OK", 4).content_hash() == GOLDEN_HDRF_HASH

    def test_golden_hep_hash_is_stable(self):
        spec = make_job("HEP", "OK", 8, tau=1.0)
        assert spec.content_hash() == GOLDEN_HEP_HASH

    def test_spec_has_no_job_level_seed(self):
        """The reader's ``seed`` lives on the input, hashed once."""
        spec = make_job("HDRF", "OK", 4, order="random", seed=3)
        assert "seed" not in spec.to_dict()
        assert "seed" not in spec.semantic_dict()
        assert spec.semantic_dict()["input"]["seed"] == 3
        assert spec.semantic_dict()["version"] == SPEC_VERSION == 2
        reseeded = make_job("HDRF", "OK", 4, order="random", seed=4)
        assert reseeded.content_hash() != spec.content_hash()

    def test_algo_case_does_not_split_the_hash(self):
        assert make_job("hdrf", "OK", 4).content_hash() == GOLDEN_HDRF_HASH

    def test_kwarg_order_is_canonicalized(self):
        a = make_job("HDRF", "OK", 4, algo_params=(("lam", 2.0), ("eps", 0.5)))
        b = make_job("HDRF", "OK", 4, algo_params=(("eps", 0.5), ("lam", 2.0)))
        assert a.canonical_json() == b.canonical_json()
        assert a.content_hash() == b.content_hash()

    def test_explicit_defaults_equal_elided_defaults(self):
        explicit = make_job("HDRF", "OK", 4,
                            algo_params={"eps": 1.0, "lam": 1.1})
        assert explicit.content_hash() == GOLDEN_HDRF_HASH

    def test_semantic_knobs_split_the_hash(self):
        base = make_job("HEP", "OK", 4, memory_budget=1_000_000)
        distinct = {
            base.content_hash(),
            make_job("HEP", "OK", 4, memory_budget=2_000_000).content_hash(),
            make_job("HEP", "OK", 8, memory_budget=1_000_000).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     workers=2).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     workers=4).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     workers=2, batch=16).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     chunk_size=512).content_hash(),
        }
        assert len(distinct) == 7

    def test_io_and_scan_knobs_do_not_split_the_hash(self, tmp_path):
        base = make_job("HDRF", "OK", 4)
        for variant in (
            make_job("HDRF", "OK", 4, prefetch=4),
            make_job("HDRF", "OK", 4, mmap=True),
            make_job("HDRF", "OK", 4, spill_dir=str(tmp_path)),
            make_job("HDRF", "OK", 4, trace_path="t.jsonl"),
        ):
            assert variant.content_hash() == base.content_hash()

    def test_input_path_is_not_hashed(self, edge_file):
        a = make_job("HDRF", edge_file, 4)
        b = dataclasses.replace(
            a, input=dataclasses.replace(a.input, path="elsewhere.bin")
        )
        assert a.content_hash() == b.content_hash()

    def test_canonical_json_is_sorted_and_total(self):
        spec = make_job("HEP", "OK", 4, tau=2.0)
        payload = json.loads(spec.canonical_json())
        assert list(payload) == sorted(payload)
        assert payload["algo"] == "HEP" and payload["tau"] == 2.0

    def test_spec_is_frozen(self):
        spec = make_job("HDRF", "OK", 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k = 8


class TestPlanner:
    def test_hep_plan_has_six_stages(self):
        plan = plan_job(make_job("HEP", "OK", 4))
        assert [s.name for s in plan.stages] == [
            "count", "select_tau", "split", "phase_one", "stream", "metrics",
        ]

    def test_streaming_plan_has_three_stages(self):
        plan = plan_job(make_job("Greedy", "OK", 4))
        assert [s.name for s in plan.stages] == ["count", "stream", "metrics"]
        assert plan.describe() == "count -> stream -> metrics"

    def test_pipelines_registry_covers_both_kinds(self):
        assert set(PIPELINES) == {"hep", "stream"}


class TestValidateSpec:
    """One ConfigurationError per job the pipeline cannot run as asked."""

    @pytest.mark.parametrize("knobs", [
        {"tau": 1.0},
        {"memory_budget": 100_000},
        {"tau": 1.0, "buffer_size": 8, "spill_compression": "zlib"},
        {"spill_dir": "spills"},
    ])
    def test_hep_only_knobs_on_a_streaming_job(self, edge_file, knobs):
        spec = make_job("HDRF", edge_file, 4, **knobs)
        with pytest.raises(ConfigurationError, match="HEP-only"):
            validate_spec(spec)
        with pytest.raises(ConfigurationError, match="HEP-only"):
            run_job(spec)

    def test_hep_only_knobs_are_fine_on_hep(self, edge_file):
        validate_spec(make_job(
            "HEP", edge_file, 4, tau=1.0, buffer_size=8,
            spill_compression="zlib",
        ))

    @pytest.mark.parametrize("algo", ["DBH", "Greedy", "Grid", "Restreaming"])
    def test_workers_need_hep_or_hdrf(self, edge_file, algo):
        with pytest.raises(ConfigurationError, match="HEP or HDRF"):
            validate_spec(make_job(algo, edge_file, 4, workers=2, batch=8))

    def test_multi_worker_hdrf_needs_a_file(self, graph):
        spec = make_job("HDRF", graph, 4, workers=2)
        with pytest.raises(ConfigurationError, match="on disk"):
            validate_spec(spec)
        with pytest.raises(ConfigurationError, match="on disk"):
            run_job(spec, source=graph)

    def test_negative_prefetch(self, edge_file):
        with pytest.raises(ConfigurationError, match="prefetch"):
            validate_spec(make_job("HDRF", edge_file, 4, prefetch=-1))

    def test_batch_needs_workers(self, edge_file):
        """An in-process job has no superstep; a batch would split the
        cache for the same parts."""
        with pytest.raises(ConfigurationError, match="workers=0"):
            validate_spec(make_job("HDRF", edge_file, 4, batch=16))
        validate_spec(make_job("HDRF", edge_file, 4, workers=0))

    def test_mmap_needs_a_file(self, graph):
        with pytest.raises(ConfigurationError, match="mmap"):
            validate_spec(make_job("HDRF", graph, 4, mmap=True))
        with pytest.raises(ConfigurationError, match="mmap"):
            validate_spec(make_job("HEP", "OK", 4, mmap=True))


class TestRegistry:
    def test_builtin_algorithms_are_discoverable(self):
        names = algorithm_names()
        for name in ("HDRF", "Greedy", "DBH", "Grid", "Restreaming"):
            assert name in names

    def test_create_is_case_insensitive(self):
        algo = create_algorithm("hdrf", lam=1.5)
        assert algo.name == "HDRF"
        assert algo.lam == 1.5

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ConfigurationError):
            register_streaming_algorithm("hdrf")(object)


class TestArtifactCache:
    def test_second_run_is_a_bit_identical_cache_hit(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HDRF", edge_file, 8, chunk_size=256)

        cold, cold_spans = _traced_run(spec, store=store)
        assert not cold.cache_hit
        assert cold.stages_executed == ("count", "stream", "metrics")
        assert (store.hits, store.misses) == (0, 1)

        warm, warm_spans = _traced_run(spec, store=store)
        assert warm.cache_hit
        # Zero partitioning stages executed, also visible in the trace:
        # only the root span and the cache_hit marker, no pipeline spans.
        assert warm.stages_executed == ()
        assert {s["name"] for s in warm_spans} == {"partition", "cache_hit"}
        assert (store.hits, store.misses) == (1, 1)

        assert np.array_equal(warm.parts, cold.parts)
        assert np.array_equal(warm.loads, cold.loads)
        assert warm.replication_factor == cold.replication_factor
        assert warm.edge_balance == cold.edge_balance
        assert warm.job_hash == spec.content_hash()

    def test_cold_run_records_pipeline_spans(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HDRF", edge_file, 8, chunk_size=256)
        _, spans = _traced_run(spec, store=store)
        names = {s["name"] for s in spans}
        assert {"count_pass", "stream_pass", "metrics_pass"} <= names

    def test_hep_cache_round_trips_tau_and_breakdown(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HEP", edge_file, 4, tau=1.0, chunk_size=256)
        cold = run_job(spec, store=store)
        warm = run_job(spec, store=store)
        assert warm.cache_hit
        assert warm.tau == cold.tau
        assert warm.breakdown == cold.breakdown
        assert np.array_equal(warm.parts, cold.parts)

    def test_renaming_the_input_keeps_the_entry(
        self, graph, edge_file, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        run_job(make_job("HDRF", edge_file, 8, chunk_size=256), store=store)
        renamed = tmp_path / "renamed.bin"
        renamed.write_bytes(edge_file.read_bytes())
        warm = run_job(
            make_job("HDRF", renamed, 8, chunk_size=256), store=store
        )
        assert warm.cache_hit and store.hits == 1

    def test_changing_input_bytes_misses(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_job(make_job("HDRF", edge_file, 8, chunk_size=256), store=store)
        other = chung_lu(300, mean_degree=6, exponent=2.2, seed=12, name="rt2")
        other_file = tmp_path / "other.bin"
        write_binary_edgelist(other, other_file)
        spec = make_job("HDRF", other_file, 8, chunk_size=256)
        result = run_job(spec, store=store)
        assert not result.cache_hit and store.misses == 2
        assert input_digest(spec, other_file) != input_digest(
            make_job("HDRF", edge_file, 8, chunk_size=256), edge_file
        )

    def test_multi_worker_cache_round_trips_the_report(
        self, graph, tmp_path
    ):
        from repro.stream import write_sharded_edges

        manifest = tmp_path / "rt.manifest.json"
        write_sharded_edges(graph, manifest, num_shards=2)
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HDRF", manifest, 8, workers=2, chunk_size=256)
        cold = run_job(spec, store=store)
        warm = run_job(spec, store=store)
        assert warm.cache_hit
        assert warm.report.supersteps == cold.report.supersteps
        assert np.array_equal(warm.parts, cold.parts)

    def test_opaque_sources_are_never_cached(self, edge_file, tmp_path):
        from repro.stream import open_edge_source

        store = ArtifactStore(tmp_path / "cache")
        spec = JobSpec(
            algo="HDRF", k=8,
            input=InputSpec.from_source(
                open_edge_source(edge_file, 256), chunk_size=256
            ),
        )
        assert not spec.cacheable()
        result = run_job(spec, source=edge_file, store=store)
        assert not result.cache_hit
        assert (store.hits, store.misses) == (0, 0)


class TestExecutorPools:
    def test_worker_pool_follows_the_spec(self, edge_file, monkeypatch):
        """A worker run's pool takes mp_context/timeout from the spec."""
        from repro.stream.workers import PersistentWorkerPool

        started = []
        original = PersistentWorkerPool.start

        def recording_start(pool):
            started.append((pool.workers, pool.mp_context, pool.timeout))
            return original(pool)

        monkeypatch.setattr(PersistentWorkerPool, "start", recording_start)
        spawned = run_job(make_job(
            "HEP", edge_file, 4, tau=2.0, chunk_size=256,
            workers=2, mp_context="spawn", timeout=45.0,
        ))
        assert started == [(2, "spawn", 45.0)]
        default = run_job(make_job(
            "HEP", edge_file, 4, tau=2.0, chunk_size=256, workers=2,
        ))
        assert np.array_equal(spawned.parts, default.parts)
        assert spawned.replication_factor == default.replication_factor
        assert spawned.edge_balance == default.edge_balance


class TestJobCli:
    def test_job_describe_prints_canonical_json_and_hash(self, capsys):
        rc = main(["job", "describe", "OK", "--k", "4", "--method", "HDRF"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["algo"] == "HDRF" and payload["k"] == 4
        assert GOLDEN_HDRF_HASH in out
        assert "count -> stream -> metrics" in out

    def test_algo_help_lists_the_registry(self, capsys):
        rc = main(["partition", "OK", "--algo", "help"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("HEP", "HDRF", "Restreaming"):
            assert name in out

    def test_cache_requires_out_of_core(self, edge_file, tmp_path, capsys):
        """Only streamed (out-of-core) methods produce cacheable jobs."""
        rc = main(
            ["partition", str(edge_file), "--k", "2", "--method", "NE",
             "--cache", str(tmp_path / "c")]
        )
        assert rc == 1
        assert "--cache: streamed methods only" in capsys.readouterr().err

    def test_cli_cache_hit_on_second_run(self, edge_file, tmp_path, capsys):
        argv = ["partition", str(edge_file), "--k", "4",
                "--method", "HDRF", "--cache", str(tmp_path / "c")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache              : miss (stored)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache              : hit" in second
