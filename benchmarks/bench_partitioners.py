"""Micro-benchmarks of the individual partitioners on the OK stand-in.

Unlike the artifact benches (single-shot experiment regenerations),
these run multiple rounds so pytest-benchmark's statistics are
meaningful — the comparative timing table is the pure-Python analogue of
the paper's run-time panels.
"""

import numpy as np
import pytest

from repro.core.hep import phase_two_capacity
from repro.core.ne_plus_plus import run_ne_plus_plus, run_ne_plus_plus_on_csr
from repro.experiments.common import make_partitioner
from repro.graph import CsrGraph, datasets, high_degree_mask
from repro.partition import StreamingState, capacity_bound, hdrf_stream
from repro.stream.buffered import stream_chunks_through_hdrf

_K = 32
_NAMES = ("DBH", "Grid", "HDRF", "HEP-100", "HEP-10", "HEP-1", "NE", "NE++", "SNE")


@pytest.fixture(scope="module")
def ok_graph():
    return datasets.load("OK")


@pytest.mark.parametrize("name", _NAMES)
def bench_partitioner(benchmark, ok_graph, name):
    partitioner = make_partitioner(name)
    assignment = benchmark.pedantic(
        partitioner.partition, args=(ok_graph, _K), rounds=2, iterations=1,
        warmup_rounds=0,
    )
    assert assignment.num_unassigned == 0


def bench_hdrf_stream(benchmark, ok_graph):
    """The HDRF kernel alone: every edge, in one call, from fresh state."""
    m = ok_graph.num_edges

    def run():
        state = StreamingState.fresh(ok_graph, _K, capacity_bound(m, _K))
        parts = np.full(m, -1, dtype=np.int64)
        hdrf_stream(state, ok_graph.edges, np.arange(m), parts)
        return parts

    parts = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    assert (parts >= 0).all()


@pytest.mark.parametrize(
    "tau", [float("inf"), 1000.0], ids=["unpruned", "hep_tau1000"]
)
def bench_ne_plus_plus(benchmark, ok_graph, tau):
    """The NE++ kernel alone, on a fresh CSR each round: standalone NE++
    (unpruned) and HEP's phase one at tau=1000 (pruned CSR)."""
    if np.isinf(tau):
        high = np.zeros(ok_graph.num_vertices, dtype=bool)
    else:
        high = high_degree_mask(ok_graph, tau)

    def setup():
        return (CsrGraph.build(ok_graph, high_mask=high), _K), {"tau": tau}

    result = benchmark.pedantic(
        run_ne_plus_plus_on_csr, setup=setup, rounds=2, iterations=1,
        warmup_rounds=0,
    )
    assert int((result.parts >= 0).sum()) == result.num_inmemory_edges


@pytest.fixture(scope="module")
def ok_phase_one(ok_graph):
    """HEP (tau=1) phase one on OK: what the buffered phase two starts from."""
    return run_ne_plus_plus(ok_graph, _K, tau=1.0)


@pytest.mark.parametrize("buffer_size", [2, 16, 256])
def bench_buffered_hdrf_stream(
    benchmark, ok_graph, ok_phase_one, buffer_size
):
    """HEP (tau=1) phase two committed through the buffered window.

    Each round streams the h2h edges from fresh informed state.  Each
    commit is half the window in one ``hdrf_stream`` call, so
    ``buffer_size=2`` is the kernel's per-call overhead, one edge a call.
    """
    phase_one = ok_phase_one
    h2h = phase_one.h2h
    capacity = phase_two_capacity(
        ok_graph.num_edges, _K, 1.0, phase_one.loads
    )

    def setup():
        state = StreamingState.informed(
            ok_graph, _K, capacity,
            replicas=phase_one.secondary, loads=phase_one.loads,
        )
        chunks = [(h2h.pairs, h2h.eids)]
        return (state, chunks, phase_one.parts.copy()), {
            "buffer_size": buffer_size
        }

    def run(state, chunks, parts, buffer_size):
        stream_chunks_through_hdrf(
            state, chunks, parts, buffer_size=buffer_size
        )
        return parts

    parts = benchmark.pedantic(
        run, setup=setup, rounds=2, iterations=1, warmup_rounds=0
    )
    assert (parts >= 0).all()


def bench_csr_build(benchmark, ok_graph):
    from repro.graph import CsrGraph

    csr = benchmark.pedantic(
        CsrGraph.build, args=(ok_graph,), rounds=3, iterations=1
    )
    assert csr.col.size == 2 * ok_graph.num_edges


def bench_tau_precompute(benchmark, ok_graph):
    from repro.core import precompute_profile

    profile = benchmark.pedantic(
        precompute_profile, args=(ok_graph, _K), rounds=3, iterations=1
    )
    assert len(profile.bytes_per_tau) > 0
