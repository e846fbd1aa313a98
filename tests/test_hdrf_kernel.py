"""The HDRF streaming kernel against a frozen per-edge oracle.

Every other bit-identity suite compares two paths that both end in
:func:`~repro.partition.hdrf.hdrf_stream`, so a kernel that changed its
results would move both sides together.  This module pins the kernel
itself, two ways:

* :func:`reference_hdrf_stream` is Algorithm 4 written the obvious way —
  one :func:`~repro.partition.scoring.hdrf_scores` vector and one
  ``np.argmax`` per edge.  A Hypothesis differential test requires the
  kernel to leave the same ``parts_out``, loads, replicas and degrees as
  the oracle, and to raise the same :class:`CapacityError` at the same
  edge, across k on both sides of 64, partial and exact degrees,
  pre-seeded (informed) state, a binding capacity, multi-chunk calls,
  block sizes that split a call, and both ways the kernel reads and
  writes the state arrays (element-wise for small blocks, bulk else).
* sha256 digests of the ``parts`` of HDRF, in-memory HEP and
  out-of-core HEP on fixed generated graphs, recorded with the per-edge
  kernel; any drift in assignments fails them.
"""

from __future__ import annotations

import copy
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hep import HepPartitioner
from repro.errors import CapacityError, ConfigurationError
from repro.graph.generators import chung_lu
from repro.graph import write_binary_edgelist
from repro.partition import hdrf
from repro.partition.base import capacity_bound
from repro.partition.hdrf import HdrfPartitioner, hdrf_stream
from repro.partition.scoring import hdrf_scores
from repro.partition.state import StreamingState
from repro.runtime import make_job, run_job
from strategies import graphs


def reference_hdrf_stream(
    state: StreamingState,
    edges: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
    lam: float = 1.1,
    eps: float = 1.0,
) -> None:
    """Algorithm 4, one numpy score vector per edge (the frozen oracle)."""
    for i in range(edges.shape[0]):
        u = int(edges[i, 0])
        v = int(edges[i, 1])
        state.observe_edge(u, v)
        scores = hdrf_scores(state, u, v, lam=lam, eps=eps)
        p = int(np.argmax(scores))
        if scores[p] == -np.inf:
            raise CapacityError(
                "HDRF: all partitions at capacity "
                f"(capacity={state.capacity}, loads={state.loads.tolist()})"
            )
        state.place(u, v, p)
        parts_out[eids[i]] = p


def _run(stream, state, chunks, num_edges, lam, eps):
    """Stream ``chunks`` through ``stream``; ``(parts, error message)``."""
    parts = np.full(num_edges, -1, dtype=np.int64)
    for pairs, eids in chunks:
        try:
            stream(state, pairs, eids, parts, lam=lam, eps=eps)
        except CapacityError as exc:
            return parts, str(exc)
    return parts, None


@st.composite
def kernel_cases(draw):
    """A graph, a stream order, a chunking and a (possibly seeded) state."""
    graph = draw(graphs(min_edges=1, max_edges=60, max_vertices=24))
    m, n = graph.num_edges, graph.num_vertices
    k = draw(st.sampled_from([2, 8, 63, 64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    order = rng.permutation(m)
    edges = graph.edges[order]
    capacity = capacity_bound(m, k, draw(st.sampled_from([1.0, 1.5])))
    exact = draw(st.booleans())
    state = StreamingState(
        n, k, capacity, exact_degrees=graph.degrees if exact else None
    )
    if draw(st.booleans()):
        # Informed hand-over: seeded replicas and loads, some partitions
        # already closed, so the capacity mask binds and may run out.
        density = draw(st.sampled_from([0.1, 0.5]))
        state.replicas = rng.random((k, n)) < density
        state.loads = rng.integers(0, capacity + 1, size=k).astype(np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=3)))
    bounds = [0, *cuts, m]
    chunks = [
        (edges[lo:hi], order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    lam, eps = draw(st.sampled_from([(1.1, 1.0), (0.5, 0.25), (3.0, 2.0)]))
    # Block sizes that split a call, and small-block cutoffs that send
    # every block through the element-wise or the bulk state access.
    block = draw(st.sampled_from([1, 3, 4096]))
    small = draw(st.sampled_from([0, 16, 4096]))
    return state, chunks, m, lam, eps, block, small


class TestOracle:
    @settings(max_examples=300)
    @given(case=kernel_cases())
    def test_kernel_matches_the_per_edge_oracle(self, case):
        state, chunks, m, lam, eps, block, small = case
        expected = copy.deepcopy(state)
        want_parts, want_error = _run(
            reference_hdrf_stream, expected, chunks, m, lam, eps
        )
        with mock.patch.multiple(hdrf, _BLOCK_EDGES=block, _SMALL_BLOCK=small):
            got_parts, got_error = _run(hdrf_stream, state, chunks, m, lam, eps)
        assert got_error == want_error
        np.testing.assert_array_equal(got_parts, want_parts)
        np.testing.assert_array_equal(state.loads, expected.loads)
        np.testing.assert_array_equal(state.replicas, expected.replicas)
        np.testing.assert_array_equal(state.degrees, expected.degrees)

    @pytest.mark.parametrize("small", [0, 4096])
    @pytest.mark.parametrize("k, room", [(8, 40), (65, 4)])
    def test_capacity_error_midway_through_a_later_block(self, k, room, small):
        graph = chung_lu(400, mean_degree=6, exponent=2.2, seed=3)
        m = graph.num_edges
        capacity = capacity_bound(m, k)
        states = []
        for _ in range(2):
            state = StreamingState.fresh(graph, k, capacity)
            state.loads[:] = capacity - room  # k * room edges fit in all
            states.append(state)
        eids = np.arange(m)
        want_parts, want_error = _run(
            reference_hdrf_stream, states[0], [(graph.edges, eids)], m, 1.1, 1.0
        )
        with mock.patch.multiple(hdrf, _BLOCK_EDGES=100, _SMALL_BLOCK=small):
            got_parts, got_error = _run(
                hdrf_stream, states[1], [(graph.edges, eids)], m, 1.1, 1.0
            )
        assert want_error is not None and got_error == want_error
        assert int((want_parts >= 0).sum()) == k * room
        np.testing.assert_array_equal(got_parts, want_parts)
        for name in ("loads", "replicas", "degrees"):
            np.testing.assert_array_equal(
                getattr(states[1], name), getattr(states[0], name)
            )

    @pytest.mark.parametrize("lam, eps", [(1.1, 0.0), (1.1, -1.0),
                                          (float("nan"), 1.0)])
    def test_rejects_non_finite_lam_and_non_positive_eps(self, lam, eps):
        graph = chung_lu(50, mean_degree=3, seed=1)
        state = StreamingState.fresh(graph, 4, graph.num_edges)
        parts = np.full(graph.num_edges, -1, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            hdrf_stream(state, graph.edges, np.arange(graph.num_edges), parts,
                        lam=lam, eps=eps)


# -- golden digests --------------------------------------------------------------

#: sha256 of the int64 ``parts`` bytes, recorded with the per-edge kernel
GOLDEN_PARTS = {
    "hdrf_partial": (
        "f261bc7a802670a5e68d8cddc45008eac9b84d6a30c64b57fcc53ca6279c8deb"
    ),
    "hdrf_exact": (
        "f408626add7f9e505ade3a81457248f2b433423c13573d1c26bbfd3c19da385e"
    ),
    "hdrf_partial_k65_shuffled": (
        "59f991fe7fb4bb64fd7c564a27b7ac66ffd8836294f7cd1c5354f97f11cfbd4e"
    ),
    "hep_tau1": (
        "620884c2c43ae1d89d2040874e053ec5c82418b1bb27b550fa4929d7e0afd160"
    ),
    "hep_tau1_buffered": (
        "84437a28895270321b1f7b128c392721ae2e95bf808429e7eade8ef38438046f"
    ),
    "run_job_hep_tau1": (
        "620884c2c43ae1d89d2040874e053ec5c82418b1bb27b550fa4929d7e0afd160"
    ),
}


@pytest.fixture(scope="module")
def golden_graph():
    return chung_lu(1500, mean_degree=8, exponent=2.2, seed=5, name="golden")


def _golden_parts(case: str, graph, tmp_path) -> np.ndarray:
    if case == "hdrf_partial":
        return HdrfPartitioner().partition(graph, 8).parts
    if case == "hdrf_exact":
        return HdrfPartitioner(exact_degrees=True).partition(graph, 8).parts
    if case == "hdrf_partial_k65_shuffled":
        return HdrfPartitioner(shuffle=True, seed=3).partition(graph, 65).parts
    if case == "hep_tau1":
        return HepPartitioner(tau=1.0).partition(graph, 8).parts
    path = tmp_path / "golden.bin"
    write_binary_edgelist(graph, path)
    if case == "hep_tau1_buffered":
        return run_job(make_job("HEP", path, 8, tau=1.0, buffer_size=16)).parts
    return run_job(make_job("HEP", path, 8, tau=1.0, chunk_size=256)).parts


def _digest(parts: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(parts, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_PARTS))
def test_golden_parts_digest(case, golden_graph, tmp_path):
    parts = _golden_parts(case, golden_graph, tmp_path)
    assert _digest(parts) == GOLDEN_PARTS[case]
