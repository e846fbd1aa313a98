"""Out-of-core streaming baselines: streamed ≡ in-memory per baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, PartitioningError
from repro.graph import generators, write_binary_edgelist, write_text_edgelist
from repro.metrics import assert_valid
from repro.obs import Tracer, set_tracer
from repro.partition import (
    DbhPartitioner,
    GreedyPartitioner,
    GridPartitioner,
    HdrfPartitioner,
    RestreamingHdrfPartitioner,
)
from repro.runtime.registry import algorithm_names, create_algorithm
from jobs import run_ooc
from strategies import graphs

#: (algo name, equivalent in-memory partitioner factory, job knobs)
_CASES = [
    ("HDRF", lambda: HdrfPartitioner(), {}),
    ("Greedy", lambda: GreedyPartitioner(), {}),
    ("DBH", lambda: DbhPartitioner(), {}),
    ("Grid", lambda: GridPartitioner(), {}),
    (
        "Restreaming",
        lambda: RestreamingHdrfPartitioner(passes=2),
        {"algo_params": {"passes": 2}},
    ),
]


@pytest.fixture(scope="module")
def skewed_graph():
    return generators.chung_lu(500, mean_degree=7, exponent=2.1, seed=23)


class TestEquivalence:
    """Acceptance: every baseline is bit-identical streamed vs in-memory."""

    @pytest.mark.parametrize("name,make_inmem,kwargs", _CASES)
    @settings(max_examples=15, deadline=None)
    @given(
        graph=graphs(min_edges=2, max_edges=60, max_vertices=16),
        chunk_size=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_property_identical_parts(
        self, graph, chunk_size, k, name, make_inmem, kwargs
    ):
        expected = make_inmem().partition(graph, k)
        result = run_ooc(name, graph, k, chunk_size=chunk_size, **kwargs)
        assert np.array_equal(result.parts, expected.parts)

    @pytest.mark.parametrize("name,make_inmem,kwargs", _CASES)
    def test_binary_file_identical(
        self, skewed_graph, tmp_path, name, make_inmem, kwargs
    ):
        path = tmp_path / "g.bin"
        write_binary_edgelist(skewed_graph, path)
        expected = make_inmem().partition(skewed_graph, 5)
        result = run_ooc(name, path, 5, chunk_size=173, **kwargs)
        assert np.array_equal(result.parts, expected.parts)
        assert result.replication_factor == pytest.approx(
            expected.replication_factor()
        )
        assert result.edge_balance == pytest.approx(expected.balance())

    def test_text_file_identical(self, skewed_graph, tmp_path):
        path = tmp_path / "g.txt"
        write_text_edgelist(skewed_graph, path)
        expected = HdrfPartitioner().partition(skewed_graph, 4)
        result = run_ooc("HDRF", path, 4, chunk_size=64)
        assert np.array_equal(result.parts, expected.parts)

    def test_prefetch_does_not_change_results(self, skewed_graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(skewed_graph, path)
        for name, _, kwargs in _CASES:
            plain = run_ooc(name, path, 4, chunk_size=97, **kwargs)
            prefetched = run_ooc(
                name, path, 4, chunk_size=97, prefetch=3, **kwargs
            )
            assert np.array_equal(plain.parts, prefetched.parts), name


class TestResult:
    def test_result_fields_and_validity(self, skewed_graph):
        result = run_ooc("Greedy", skewed_graph, 4, chunk_size=50)
        assert result.algorithm == "Greedy"
        assert result.num_unassigned == 0
        assert result.num_edges == skewed_graph.num_edges
        assert result.loads.sum() == skewed_graph.num_edges
        assert_valid(result.to_assignment(skewed_graph))

    def test_restreaming_reports_passes(self, skewed_graph):
        result = run_ooc(
            "Restreaming", skewed_graph, 3, chunk_size=64,
            algo_params={"passes": 2},
        )
        assert result.passes == 2
        assert result.algorithm == "ReHDRF-2"

    def test_driver_name(self, skewed_graph):
        """The run's root span names it ``<algo>-ooc``."""
        tracer = Tracer(None)
        previous = set_tracer(tracer)
        try:
            run_ooc("DBH", skewed_graph, 4)
        finally:
            set_tracer(previous)
        roots = [s for s in tracer.drain() if s["parent"] is None]
        assert [s["attrs"]["algo"] for s in roots] == ["DBH-ooc"]


class TestConfiguration:
    def test_case_insensitive_lookup(self):
        for spelled in ("hdrf", "HDRF", "Hdrf"):
            assert create_algorithm(spelled).name == "HDRF"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown streaming"):
            run_ooc("NE", "missing.bin", 2)

    def test_registry_covers_paper_baselines(self):
        assert set(algorithm_names()) >= {
            "HDRF", "Greedy", "DBH", "Grid", "Restreaming"
        }

    def test_k_too_small(self, skewed_graph):
        with pytest.raises(ConfigurationError):
            run_ooc("HDRF", skewed_graph, 1)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(PartitioningError):
            run_ooc("HDRF", path, 2)

    def test_bad_passes(self):
        with pytest.raises(ConfigurationError, match="passes must be >= 1"):
            run_ooc("Restreaming", "missing.bin", 2, algo_params={"passes": 0})
