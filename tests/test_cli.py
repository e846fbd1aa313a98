"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.obs.tracer import TRACE_VERSION, Tracer
from repro.graph import Graph, write_binary_edgelist, write_text_edgelist


@pytest.fixture()
def small_graph_file(tmp_path):
    g = Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (4, 0), (4, 1)],
        num_vertices=5,
    )
    path = tmp_path / "g.txt"
    write_text_edgelist(g, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "OK"])
        assert args.k == 32 and args.method == "HEP"
        assert args.tau is None  # resolved to 10.0 on the HEP paths

    def test_tau_rejected_for_non_hep(self, small_graph_file, capsys):
        for algo, message in (("HDRF", "HEP-only knob(s) tau"),
                              ("NE", "--tau: streamed methods only")):
            rc = main(
                ["partition", str(small_graph_file), "--k", "2",
                 "--algo", algo, "--tau", "2.0"]
            )
            assert rc == 1
            assert message in capsys.readouterr().err


class TestPartitionCommand:
    def test_partition_text_file(self, small_graph_file, capsys):
        rc = main(["partition", str(small_graph_file), "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replication factor" in out

    def test_partition_binary_file(self, tmp_path, capsys):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 3)], num_vertices=4)
        path = tmp_path / "g.bin"
        write_binary_edgelist(g, path)
        rc = main(["partition", str(path), "--k", "2", "--method", "DBH"])
        assert rc == 0

    def test_partition_writes_output(self, small_graph_file, tmp_path, capsys):
        out_file = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--output", str(out_file)]
        )
        assert rc == 0
        parts = np.loadtxt(out_file, dtype=int)
        assert parts.shape == (8,)
        assert set(parts.tolist()) <= {0, 1}

    def test_partition_dataset_name(self, capsys):
        rc = main(["partition", "LJ", "--k", "4", "--method", "DBH"])
        assert rc == 0

    def test_unknown_graph_errors(self, capsys):
        rc = main(["partition", "nonexistent-thing", "--k", "2"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_compare(self, small_graph_file, capsys):
        rc = main(
            ["compare", str(small_graph_file), "--k", "2",
             "--partitioners", "DBH", "HDRF"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "DBH" in out and "HDRF" in out

    def test_select_tau(self, capsys):
        rc = main(["select-tau", "LJ", "--budget-kib", "100000", "--k", "4"])
        assert rc == 0
        assert "tau=" in capsys.readouterr().out

    def test_datasets(self, capsys):
        rc = main(["datasets"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("LJ", "OK", "TW", "WDC"):
            assert name in out

    def test_experiment_unknown(self, capsys):
        rc = main(["experiment", "figure99"])
        assert rc == 2

    def test_experiment_table3(self, capsys):
        rc = main(["experiment", "table3"])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out


class TestOutOfCore:
    def test_partition_out_of_core_file(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--tau", "1.0", "--chunk-size", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "out-of-core" in out
        assert "replication factor" in out

    def test_partition_out_of_core_matches_in_memory(
        self, small_graph_file, tmp_path, capsys
    ):
        """The streamed CLI run equals the in-memory HEP reference."""
        from repro.core import HepPartitioner
        from repro.graph import read_text_edgelist

        ooc = tmp_path / "b.txt"
        assert main(
            ["partition", str(small_graph_file), "--k", "2", "--tau", "1.0",
             "--chunk-size", "2", "--output", str(ooc)]
        ) == 0
        graph = read_text_edgelist(small_graph_file)
        expected = HepPartitioner(tau=1.0).partition(graph, 2).parts
        assert np.array_equal(np.loadtxt(ooc, dtype=int), expected)
        meta = json.loads(Path(f"{ooc}.meta.json").read_text())
        assert meta == {"k": 2, "num_edges": 8, "num_vertices": 5,
                        "graph_name": "g"}

    def test_partition_memory_budget(self, capsys):
        rc = main(
            ["partition", "LJ", "--k", "4", "--memory-budget", "1000000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory budget" in out

    def test_out_of_core_buffer_and_spill_dir(
        self, small_graph_file, tmp_path, capsys
    ):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--tau", "0.5", "--buffer-size", "4",
             "--spill-dir", str(tmp_path / "spill")]
        )
        assert rc == 0
        assert "buffer size" in capsys.readouterr().out

    def test_hep_tau_spelling_runs_as_hep(
        self, small_graph_file, tmp_path, capsys
    ):
        """``--algo HEP-<tau>`` is ``--algo HEP --tau <tau>``."""
        spelled = tmp_path / "spelled.txt"
        flagged = tmp_path / "flagged.txt"
        assert main(["partition", str(small_graph_file), "--k", "2",
                     "--algo", "HEP-1", "--output", str(spelled)]) == 0
        assert "HEP-1 (out-of-core)" in capsys.readouterr().out
        assert main(["partition", str(small_graph_file), "--k", "2",
                     "--tau", "1", "--output", str(flagged)]) == 0
        assert spelled.read_bytes() == flagged.read_bytes()
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--algo", "HEP-1", "--tau", "2"])
        assert rc == 1
        assert "carries its own tau" in capsys.readouterr().err

    def test_out_of_core_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "OK", "--out-of-core"])

    def test_out_of_core_rejects_non_streaming_methods(
        self, small_graph_file, tmp_path, capsys
    ):
        """In-memory-only algorithms (NE, METIS, ...) reject every
        streamed-only flag in one error."""
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--method", "NE",
             "--buffer-size", "4", "--spill-dir", str(tmp_path / "spill")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--buffer-size, --spill-dir: streamed methods only" in err


class TestOutOfCoreBaselines:
    """`partition --algo <name>` streams any baseline out of core."""

    @pytest.mark.parametrize("algo", ["HDRF", "greedy", "DBH", "Grid"])
    def test_each_baseline_runs(self, small_graph_file, capsys, algo):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--algo", algo, "--chunk-size", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "out-of-core" in out and "replication factor" in out

    def test_restreaming_with_passes_and_prefetch(
        self, small_graph_file, capsys
    ):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--algo", "restreaming", "--passes", "2", "--prefetch", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream passes      : 2" in out
        assert "prefetch depth" in out

    def test_baseline_matches_in_memory(self, small_graph_file, tmp_path):
        """Each streamed baseline equals its in-memory partitioner."""
        from repro.experiments.common import make_partitioner
        from repro.graph import read_text_edgelist

        graph = read_text_edgelist(small_graph_file)
        for algo in ("HDRF", "Greedy", "DBH", "Grid", "Restreaming"):
            ooc = tmp_path / f"{algo}.txt"
            assert main(
                ["partition", str(small_graph_file), "--k", "2",
                 "--algo", algo, "--chunk-size", "2", "--output", str(ooc)]
            ) == 0
            expected = make_partitioner(algo).partition(graph, 2).parts
            assert np.array_equal(np.loadtxt(ooc, dtype=int), expected)

    def test_budget_rejected_for_baselines(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--algo", "DBH", "--memory-budget", "100000"]
        )
        assert rc == 1
        assert "tau" in capsys.readouterr().err

    def test_spill_flags_rejected_for_baselines(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--algo", "HDRF", "--spill-compression", "zlib"]
        )
        assert rc == 1
        assert "spill" in capsys.readouterr().err

    def test_hep_spill_compression_and_prefetch(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--tau", "0.5", "--spill-compression", "zlib", "--prefetch", "2"]
        )
        assert rc == 0
        assert "zlib" in capsys.readouterr().out

    def test_prefetch_requires_out_of_core(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--method", "NE",
             "--prefetch", "2"]
        )
        assert rc == 1
        assert "--prefetch: streamed methods only" in capsys.readouterr().err

    def test_negative_prefetch_rejected(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--prefetch", "-2"]
        )
        assert rc == 1
        assert ">= 0" in capsys.readouterr().err


class TestExtsortCommand:
    def test_extsort_then_partition(self, tmp_path, capsys):
        src = tmp_path / "wi.bin"
        out = tmp_path / "wi-degree.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        rc = main(["extsort", str(src), str(out), "--order", "degree",
                   "--chunk-size", "1000"])
        assert rc == 0
        assert "sort runs" in capsys.readouterr().out
        assert out.exists() and out.stat().st_size == src.stat().st_size
        assert main(["partition", str(out), "--k", "4", "--algo", "HDRF"]) == 0

    def test_extsort_unknown_source(self, capsys):
        rc = main(["extsort", "missing-thing", "out.bin"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_extsort_in_place_rejected(self, tmp_path, capsys):
        src = tmp_path / "g.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        size = src.stat().st_size
        rc = main(["extsort", str(src), str(src), "--order", "natural"])
        assert rc == 1
        assert src.stat().st_size == size


class TestShardedCli:
    """datasets --format sharded, extsort --shards, partition --mmap."""

    def test_sharded_export_then_partition(self, tmp_path, capsys):
        manifest = tmp_path / "lj.manifest.json"
        rc = main(["datasets", "--export", "LJ", "--format", "sharded",
                   "--shards", "3", "--output", str(manifest)])
        assert rc == 0
        assert "3 shards" in capsys.readouterr().out
        assert main(["partition", str(manifest), "--k", "4",
                     "--algo", "HDRF"]) == 0
        # The manifest also feeds the in-memory path.
        assert main(["partition", str(manifest), "--k", "4",
                     "--method", "NE"]) == 0

    def test_sharded_export_compressed(self, tmp_path, capsys):
        manifest = tmp_path / "lj.manifest.json"
        rc = main(["datasets", "--export", "LJ", "--format", "sharded",
                   "--shards", "2", "--compress", "zlib",
                   "--output", str(manifest)])
        assert rc == 0
        assert "zlib" in capsys.readouterr().out
        assert main(["partition", str(manifest), "--k", "4",
                     "--tau", "1.0"]) == 0

    def test_compress_requires_sharded_format(self, capsys):
        rc = main(["datasets", "--export", "LJ", "--format", "binary",
                   "--compress", "zlib"])
        assert rc == 1
        assert "sharded" in capsys.readouterr().err

    def test_extsort_sharded_output(self, tmp_path, capsys):
        src = tmp_path / "lj.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        manifest = tmp_path / "deg.manifest.json"
        rc = main(["extsort", str(src), str(manifest), "--order", "degree",
                   "--shards", "4", "--compress", "zlib"])
        assert rc == 0
        assert "shards" in capsys.readouterr().out
        assert main(["partition", str(manifest), "--k", "4",
                     "--algo", "Greedy"]) == 0

    def test_extsort_compress_requires_shards(self, tmp_path, capsys):
        src = tmp_path / "lj.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        rc = main(["extsort", str(src), str(tmp_path / "x.bin"),
                   "--compress", "zlib"])
        assert rc == 1
        assert "--shards" in capsys.readouterr().err

    def test_mmap_partition(self, tmp_path, capsys):
        src = tmp_path / "lj.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        rc = main(["partition", str(src), "--k", "4",
                   "--algo", "HDRF", "--mmap"])
        assert rc == 0
        assert "replication factor" in capsys.readouterr().out

    def test_mmap_requires_out_of_core(self, small_graph_file, capsys):
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--method", "NE", "--mmap"])
        assert rc == 1
        assert "--mmap: streamed methods only" in capsys.readouterr().err

    def test_text_named_edges_errors(self, tmp_path, capsys):
        """Regression: a text edge list named *.edges used to be parsed
        as binary and silently partition garbage."""
        path = tmp_path / "snap.edges"
        path.write_text("0 1\n1 2\n2 0\n")
        rc = main(["partition", str(path), "--k", "2", "--algo", "HDRF"])
        assert rc == 1
        assert "text" in capsys.readouterr().err


class TestInMemoryRestreaming:
    def test_passes_honored_in_memory(self, small_graph_file, capsys):
        """Regression: --passes must reach the Restreaming partitioner."""
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--method", "Restreaming", "--passes", "5"]
        )
        assert rc == 0
        assert "ReHDRF-5" in capsys.readouterr().out

    def test_passes_rejected_for_other_methods(self, small_graph_file, capsys):
        """Regression: --passes must not be silently dropped elsewhere."""
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--algo", "HDRF", "--passes", "5"]
        )
        assert rc == 1
        assert "Restreaming" in capsys.readouterr().err


class TestDatasetsExport:
    def test_export_binary_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "lj.bin"
        rc = main(["datasets", "--export", "LJ", "--format", "binary",
                   "--output", str(out)])
        assert rc == 0
        from repro.graph import datasets, read_binary_edgelist

        expected = datasets.load("LJ")
        got = read_binary_edgelist(out)
        assert np.array_equal(got.edges, expected.edges)

    def test_export_text_feeds_out_of_core(self, tmp_path, capsys):
        out = tmp_path / "lj.txt"
        assert main(["datasets", "--export", "LJ", "--format", "text",
                     "--output", str(out)]) == 0
        rc = main(["partition", str(out), "--k", "4", "--tau", "1.0"])
        assert rc == 0

    def test_export_unknown_dataset_errors(self, capsys):
        rc = main(["datasets", "--export", "NOPE"])
        assert rc == 1

    def test_memory_budget_requires_out_of_core(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--method", "NE",
             "--memory-budget", "1000000"]
        )
        assert rc == 1
        assert "--memory-budget: streamed methods only" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("algo", ["HEP", "HDRF"])
    def test_shards_dir_from_a_streamed_method(
        self, small_graph_file, tmp_path, capsys, algo
    ):
        """A streamed run loads the graph only to cut it into shards."""
        from repro.graph import read_binary_edgelist, read_text_edgelist

        shards = tmp_path / "shards"
        out = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--algo", algo,
             "--output", str(out), "--shards-dir", str(shards)]
        )
        assert rc == 0
        assert "shards written     : 2" in capsys.readouterr().out
        graph = read_text_edgelist(small_graph_file)
        parts = np.loadtxt(out, dtype=int)
        for p in range(2):
            shard = read_binary_edgelist(shards / f"part-{p:05d}.bin")
            assert np.array_equal(shard.edges, graph.edges[parts == p])

    def test_in_memory_hep_accepts_stream_params(
        self, small_graph_file, tmp_path, capsys
    ):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--tau", "0.5",
             "--buffer-size", "4", "--spill-dir", str(tmp_path / "spill")]
        )
        assert rc == 0

    def test_stream_params_rejected_for_non_hep(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--method", "DBH", "--buffer-size", "4"]
        )
        assert rc == 1
        assert "HEP" in capsys.readouterr().err


#: a text edge list as external ones come: a self-loop, a duplicate and
#: a reversed duplicate among the 8 edges of ``small_graph_file``
NON_CANONICAL_TEXT = (
    "0 1\n1 2\n2 2\n2 1\n2 3\n3 0\n0 2\n1 3\n0 1\n4 0\n4 1\n"
)


class TestNonCanonicalInput:
    """Every method reads a text file as the canonical graph
    (:meth:`Graph.from_edges`); streamed binary files must be canonical."""

    @pytest.fixture()
    def messy_text(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_text(NON_CANONICAL_TEXT)
        return path

    @pytest.mark.parametrize("algo", [
        "HEP", "HEP-1", "HDRF", "Greedy", "DBH", "Grid", "Restreaming", "NE",
    ])
    def test_text_file_is_canonicalized(
        self, messy_text, tmp_path, capsys, algo
    ):
        from repro.core import HepPartitioner
        from repro.experiments.common import make_partitioner
        from repro.graph import read_text_edgelist

        out = tmp_path / "parts.txt"
        assert main(["partition", str(messy_text), "--k", "2",
                     "--algo", algo, "--output", str(out)]) == 0
        graph = read_text_edgelist(messy_text)
        assert graph.num_edges == 8
        reference = (HepPartitioner() if algo == "HEP"
                     else make_partitioner(algo))
        expected = reference.partition(graph, 2).parts
        assert np.array_equal(np.loadtxt(out, dtype=int), expected)
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        assert meta["num_edges"] == 8 and meta["graph_name"] == "messy"

    def test_binary_self_loop_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "loop.bin"
        np.array([[0, 1], [1, 1], [2, 3]], dtype="<u4").tofile(path)
        rc = main(["partition", str(path), "--k", "2"])
        assert rc == 1
        assert "self-loop" in capsys.readouterr().err

    def test_shards_dir_from_a_streamed_binary(
        self, small_graph_file, tmp_path, capsys
    ):
        from repro.graph import read_binary_edgelist, read_text_edgelist

        graph = read_text_edgelist(small_graph_file)
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        shards = tmp_path / "shards"
        out = tmp_path / "parts.txt"
        assert main(["partition", str(path), "--k", "2", "--algo", "DBH",
                     "--output", str(out), "--shards-dir", str(shards)]) == 0
        parts = np.loadtxt(out, dtype=int)
        for p in range(2):
            shard = read_binary_edgelist(shards / f"part-{p:05d}.bin")
            assert np.array_equal(shard.edges, graph.edges[parts == p])

    def test_shards_dir_refuses_duplicate_binary_edges(
        self, tmp_path, capsys
    ):
        """The stream keeps a duplicate the loaded graph drops, so the
        parts cannot be cut into shards."""
        path = tmp_path / "dup.bin"
        np.array([[0, 1], [1, 2], [2, 1], [2, 3]], dtype="<u4").tofile(path)
        shards = tmp_path / "shards"
        rc = main(["partition", str(path), "--k", "2", "--algo", "HDRF",
                   "--shards-dir", str(shards)])
        assert rc == 1
        assert "4 edges but holds 3 distinct" in capsys.readouterr().err
        assert not shards.exists()

    def test_mmap_on_a_text_file_is_an_error(self, small_graph_file, capsys):
        rc = main(["partition", str(small_graph_file), "--k", "2", "--mmap"])
        assert rc == 1
        assert "mmap" in capsys.readouterr().err

    def test_batch_without_worker_processes(self, small_graph_file, capsys):
        """``--workers 0`` runs in process, where a batch means nothing."""
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--algo", "HDRF", "--workers", "0", "--batch", "16"])
        assert rc == 1
        assert "workers=0" in capsys.readouterr().err

    def test_chunk_size_is_a_streamed_flag(self, small_graph_file, capsys):
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--algo", "NE", "--chunk-size", "4"])
        assert rc == 1
        assert "--chunk-size: streamed methods only" in (
            capsys.readouterr().err
        )


@pytest.mark.slow
class TestMultiWorkerCli:
    @pytest.fixture()
    def sharded_manifest(self, tmp_path):
        from repro.graph.generators import chung_lu
        from repro.stream import write_sharded_edges

        g = chung_lu(200, mean_degree=6, exponent=2.2, seed=3, name="cli")
        return write_sharded_edges(
            g, tmp_path / "cli.manifest.json", num_shards=4
        )

    @pytest.fixture()
    def binary_file(self, tmp_path):
        from repro.graph.generators import chung_lu

        g = chung_lu(200, mean_degree=6, exponent=2.2, seed=3, name="cli")
        path = tmp_path / "cli.bin"
        write_binary_edgelist(g, path)
        return path

    def test_workers_hdrf_on_manifest(self, sharded_manifest, capsys):
        rc = main(
            ["partition", str(sharded_manifest.path), "--k", "4",
             "--algo", "HDRF", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HDRF-mw2" in out
        assert "2 worker processes" in out
        assert "bsp schedule" in out

    def test_workers_hep_on_binary(self, binary_file, capsys):
        rc = main(
            ["partition", str(binary_file), "--k", "4",
             "--workers", "2", "--batch", "16", "--tau", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HEP-1" in out and "2 worker processes" in out

    def test_workers_writes_assignment(self, sharded_manifest, tmp_path, capsys):
        out_path = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(sharded_manifest.path), "--k", "4",
             "--algo", "HDRF", "--workers", "2",
             "--output", str(out_path)]
        )
        assert rc == 0
        parts = np.loadtxt(out_path, dtype=np.int64)
        assert parts.shape[0] == sharded_manifest.num_edges
        assert parts.min() >= 0 and parts.max() < 4

    def test_workers_requires_out_of_core(self, binary_file, capsys):
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--method", "METIS", "--workers", "2"])
        assert rc == 1
        assert "--workers: streamed methods only" in capsys.readouterr().err

    def test_batch_requires_workers(self, binary_file, capsys):
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--batch", "8"])
        assert rc == 1
        assert "--batch" in capsys.readouterr().err

    def test_workers_rejects_other_algos(self, binary_file, capsys):
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--algo", "DBH", "--workers", "2"])
        assert rc == 1
        assert "HEP or HDRF" in capsys.readouterr().err

    def test_workers_hdrf_rejects_hep_only_flags(self, binary_file, capsys):
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--algo", "HDRF", "--workers", "2",
                   "--memory-budget", "100000"])
        assert rc == 1
        assert "HEP-only" in capsys.readouterr().err

    def test_workers_matches_no_workers_oracle(self, sharded_manifest, tmp_path, capsys):
        """CLI multi-worker output equals the in-process BSP schedule."""
        from repro.parallel import bsp_hdrf_stream
        from repro.partition.base import capacity_bound
        from repro.partition.state import StreamingState
        from repro.stream import ShardedEdgeSource, plan_worker_segments
        from repro.stream.scan import scan_source

        out_path = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(sharded_manifest.path), "--k", "4",
             "--algo", "HDRF", "--workers", "4",
             "--batch", "4", "--output", str(out_path)]
        )
        assert rc == 0
        got = np.loadtxt(out_path, dtype=np.int64)
        src = ShardedEdgeSource(sharded_manifest)
        stats = scan_source(src)
        edges = np.vstack([c.pairs for c in src])
        _, streams, _, _ = plan_worker_segments(sharded_manifest.path, 4)
        state = StreamingState(
            stats.num_vertices, 4,
            capacity_bound(stats.num_edges, 4, 1.0),
            exact_degrees=stats.degrees,
        )
        oracle = np.full(stats.num_edges, -1, dtype=np.int32)
        bsp_hdrf_stream(
            state, edges, np.arange(stats.num_edges), oracle, 4,
            batch=4, streams=streams,
        )
        assert np.array_equal(got, oracle)


class TestScanCommand:
    @pytest.fixture()
    def binary_graph(self, tmp_path):
        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (4, 0), (4, 1)],
            num_vertices=6,
        )
        path = tmp_path / "g.bin"
        write_binary_edgelist(g, path)
        return g, path

    def test_scan_stats_only(self, binary_graph, capsys):
        g, path = binary_graph
        rc = main(["scan", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"m={g.num_edges:,}" in out
        assert "sequential" in out

    def test_scan_with_parts(self, binary_graph, tmp_path, capsys):
        g, path = binary_graph
        parts_file = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(path), "--k", "2", "--algo", "HDRF",
             "--output", str(parts_file)]
        )
        assert rc == 0
        partition_out = capsys.readouterr().out
        rc = main(["scan", str(path), "--parts", str(parts_file), "--k", "2"])
        assert rc == 0
        scan_out = capsys.readouterr().out
        # The scan's quality lines must reproduce the partition report's.
        for line in partition_out.splitlines():
            if "replication factor" in line or "edge balance" in line:
                assert line in scan_out
        assert "unassigned edges   : 0" in scan_out

    def test_scan_budgeted_default_k(self, binary_graph, tmp_path, capsys):
        g, path = binary_graph
        parts_file = tmp_path / "parts.txt"
        np.savetxt(parts_file, np.zeros(g.num_edges, dtype=np.int64), fmt="%d")
        rc = main(
            ["scan", str(path), "--parts", str(parts_file),
             "--memory-budget", "64"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # k defaults to max id + 1 = 1; every covered vertex once.
        assert "(k=1)" in out
        assert "replication factor : 1.0000" in out

    def test_scan_empty_parts_needs_k(self, binary_graph, tmp_path, capsys):
        _, path = binary_graph
        parts_file = tmp_path / "empty.txt"
        parts_file.write_text("")
        rc = main(["scan", str(path), "--parts", str(parts_file)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "cannot infer k from an empty assignment; pass --k" in err
        assert "Traceback" not in err

    def test_scan_missing_parts_file(self, binary_graph, tmp_path, capsys):
        _, path = binary_graph
        missing = tmp_path / "missing.txt"
        rc = main(["scan", str(path), "--parts", str(missing), "--k", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert str(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["x", "1.7"])
    def test_scan_bad_parts_entry_names_file(
        self, binary_graph, tmp_path, capsys, bad
    ):
        g, path = binary_graph
        parts_file = tmp_path / "bad.txt"
        lines = ["0"] * g.num_edges
        lines[3] = bad
        parts_file.write_text("\n".join(lines) + "\n")
        rc = main(["scan", str(path), "--parts", str(parts_file), "--k", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(parts_file) in err
        assert "Traceback" not in err


class TestTraceFlags:
    def test_partition_trace_then_summarize(
        self, small_graph_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.trace.jsonl"
        parts_a = tmp_path / "a.txt"
        parts_b = tmp_path / "b.txt"
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--output", str(parts_a),
                   "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        assert trace.exists()

        rc = main(["trace", "summarize", str(trace)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "phase attribution" in summary
        assert "partition" in summary

        # Tracing never changes the assignment.
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--output", str(parts_b)])
        assert rc == 0
        capsys.readouterr()
        np.testing.assert_array_equal(
            np.loadtxt(parts_a, dtype=np.int64),
            np.loadtxt(parts_b, dtype=np.int64),
        )

    def test_scan_trace_with_memory_probe(
        self, small_graph_file, tmp_path, capsys
    ):
        trace = tmp_path / "scan.trace.jsonl"
        rc = main(["scan", str(small_graph_file),
                   "--trace", str(trace), "--trace-memory", "rss"])
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        assert "mem_delta" in capsys.readouterr().out

    def test_trace_memory_requires_trace(self, small_graph_file, capsys):
        rc = main(["scan", str(small_graph_file), "--trace-memory", "rss"])
        assert rc == 1
        assert "--trace-memory requires --trace" in capsys.readouterr().err

    def test_summarize_into_a_closed_pipe_exits_cleanly(self, tmp_path):
        """``repro trace summarize t.jsonl | head -1`` exits 0, no traceback."""
        tracer = Tracer(None)
        for i in range(20_000):  # a summary far larger than a pipe buffer
            with tracer.span(f"span_{i}"):
                pass
        header = {"type": "trace", "version": TRACE_VERSION, "memory": None}
        trace = tmp_path / "wide.trace.jsonl"
        trace.write_text(
            "".join(json.dumps(r) + "\n" for r in [header, *tracer.drain()]),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "summarize", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"trace: 20000 spans")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert b"Traceback" not in err and b"BrokenPipe" not in err

    def test_summarize_rejects_non_trace_file(self, small_graph_file, capsys):
        rc = main(["trace", "summarize", str(small_graph_file)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
