"""The NE++ expansion kernel against a frozen per-vertex oracle.

:func:`~repro.core.ne_plus_plus.run_ne_plus_plus_on_csr` runs NE++ as one
scalar kernel: inlined core/secondary walks over bytearray masks and
memoryviews of the CSR, and one vectorised clean-up per partition.  This
module pins it two ways:

* :class:`ReferenceNePlusPlus` is Algorithm 1-3 written the obvious way —
  one method per step, numpy masks, per-vertex clean-up with the
  per-vertex compaction frozen here too.  A Hypothesis differential test
  requires the kernel to leave the same ``parts``, secondary sets, loads,
  statistics and walk trace (the feed of the Table 6 paging simulator)
  as the oracle, and the same CSR windows after the run.  Both sides use
  :class:`~repro._ds.IndexedMinHeap`, whose own differential test
  (``tests/test_ds_indexed_heap.py``) pins it against the swap-based heap.
* sha256 digests of NE++, in-memory HEP and ``run_job`` HEP on a fixed
  generated graph, recorded with the per-vertex code; any drift in
  assignments or replica state fails them.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.stages as stages
from repro._ds import IndexedMinHeap
from repro.core.hep import HepPartitioner
from repro.core.ne_plus_plus import (
    NePlusPlusStats,
    run_ne_plus_plus,
    run_ne_plus_plus_on_csr,
)
from repro.graph import write_binary_edgelist
from repro.graph.csr import CsrGraph
from repro.graph.generators import chung_lu
from repro.graph.pruned import high_degree_mask
from repro.partition.base import capacity_bound
from repro.runtime import make_job, run_job
from strategies import graphs, power_law_graphs

TAUS = (float("inf"), 1000.0, 1.5, 1.0, 0.5)


def _remove_marked_one(csr: CsrGraph, v: int, marked: np.ndarray) -> int:
    """Per-vertex stable compaction (the clean-up's frozen inner step)."""
    removed = 0
    for start_arr, size_arr in (
        (csr.out_start, csr.out_size),
        (csr.in_start, csr.in_size),
    ):
        s = start_arr[v]
        size = size_arr[v]
        if size == 0:
            continue
        window = slice(s, s + size)
        entries = csr.col[window]
        keep = ~marked[entries]
        kept = int(keep.sum())
        if kept != size:
            csr.col[s : s + kept] = entries[keep]
            csr.eid[s : s + kept] = csr.eid[window][keep]
            size_arr[v] = kept
            removed += size - kept
    return removed


class ReferenceNePlusPlus:
    """NE++ one step per method, numpy state (the frozen oracle)."""

    def __init__(self, csr, k, record_degrees, trace_walk, seed_order, seed):
        self.csr = csr
        self.k = k
        self.n = csr.num_vertices
        self.degrees = csr.degrees
        self.high = csr.high_mask
        self.m_inmem = csr.num_csr_edges
        self.capacity = capacity_bound(max(self.m_inmem, 1), k)
        self.parts = np.full(csr.num_edges_total, -1, dtype=np.int32)
        self.loads = np.zeros(k, dtype=np.int64)
        self.in_core = np.zeros(self.n, dtype=bool)
        self.secondary = np.zeros((k, self.n), dtype=bool)
        self.heap = IndexedMinHeap()
        self.current = 0
        self.seed_cursor = 0
        if seed_order == "sequential":
            self.seed_sequence = np.arange(self.n, dtype=np.int64)
        else:
            self.seed_sequence = np.random.default_rng(seed).permutation(self.n)
        self.assigned_inmem = 0
        self.record_degrees = record_degrees
        self.trace_walk = trace_walk
        self.stats = NePlusPlusStats(initial_column_entries=int(csr.col.size))

    def execute(self):
        last = self.k - 1
        for i in range(last):
            self.current = i
            self.heap.clear()
            exhausted = not self._expand_partition()
            if self.record_degrees:
                members = np.flatnonzero(
                    self.secondary[i] & ~self.in_core & ~self.high
                )
                self.stats.secondary_end_degrees.extend(
                    self.degrees[members].tolist()
                )
            self._cleanup(i)
            if exhausted or self.assigned_inmem >= self.m_inmem:
                break
        self._final_sweep()
        return self

    def _expand_partition(self):
        i = self.current
        while self.loads[i] < self.capacity and self.assigned_inmem < self.m_inmem:
            if self.heap:
                v, _ = self.heap.pop_min()
                self._move_to_core(v)
            elif not self._initialize():
                return False
        return True

    def _initialize(self):
        csr = self.csr
        sec = self.secondary[self.current]
        while self.seed_cursor < self.n:
            v = int(self.seed_sequence[self.seed_cursor])
            self.seed_cursor += 1
            if self.in_core[v] or self.high[v] or sec[v]:
                continue
            if csr.out_size[v] + csr.in_size[v] == 0:
                continue
            self.stats.num_seeds += 1
            self._move_to_core(v, fresh=True)
            return True
        return False

    def _move_to_core(self, v, fresh=False):
        i = self.current
        sec = self.secondary[i]
        self.in_core[v] = True
        if fresh:
            sec[v] = True
        self.stats.num_cored += 1
        if self.record_degrees:
            self.stats.core_degrees.append(int(self.degrees[v]))
        if self.trace_walk is not None:
            self.trace_walk(v)
        nbrs, eids = self.csr.adjacency(v)
        for w, eid in zip(nbrs.tolist(), eids.tolist()):
            if self.high[w]:
                if fresh:
                    self._assign(eid, v, w)
                    sec[w] = True
            elif self.in_core[w] or sec[w]:
                if fresh:
                    self._assign(eid, v, w)
                    if w in self.heap:
                        self.heap.decrement(w)
            else:
                self._move_to_secondary(w)

    def _move_to_secondary(self, v):
        sec = self.secondary[self.current]
        sec[v] = True
        if self.trace_walk is not None:
            self.trace_walk(v)
        dext = 0
        nbrs, eids = self.csr.adjacency(v)
        for w, eid in zip(nbrs.tolist(), eids.tolist()):
            if self.high[w]:
                self._assign(eid, v, w)
                sec[w] = True
            elif self.in_core[w] or sec[w]:
                self._assign(eid, v, w)
                if w in self.heap:
                    self.heap.decrement(w)
            else:
                dext += 1
        self.heap.push(v, dext)

    def _assign(self, eid, u, w):
        i = self.current
        if self.loads[i] >= self.capacity and i + 1 < self.k:
            while self.loads[i] >= self.capacity and i + 1 < self.k:
                i += 1
            self.secondary[i, u] = True
            self.secondary[i, w] = True
            self.stats.spilled_edges += 1
        self.parts[eid] = i
        self.loads[i] += 1
        self.assigned_inmem += 1

    def _cleanup(self, i):
        region = self.in_core | self.secondary[i]
        members = np.flatnonzero(self.secondary[i] & ~self.in_core & ~self.high)
        removed = 0
        for v in members.tolist():
            if self.trace_walk is not None:
                self.trace_walk(v)
            removed += _remove_marked_one(self.csr, v, region)
        self.stats.cleanup_removed_entries += removed

    def _final_sweep(self):
        i = min(self.current + 1, self.k - 1)
        csr = self.csr
        for v in range(self.n):
            if self.in_core[v] or self.high[v]:
                continue
            out_n, out_e = csr.out_view(v)
            in_n, in_e = csr.in_view(v)
            if out_e.size == 0 and in_e.size == 0:
                continue
            if self.trace_walk is not None:
                self.trace_walk(v)
            touched = False
            sec = self.secondary[i]
            for w, eid in zip(out_n.tolist(), out_e.tolist()):
                self.parts[eid] = i
                self.loads[i] += 1
                sec[w] = True
                touched = True
            for w, eid in zip(in_n.tolist(), in_e.tolist()):
                if self.high[w]:
                    self.parts[eid] = i
                    self.loads[i] += 1
                    sec[w] = True
                    touched = True
            if touched:
                sec[v] = True
            if self.loads[i] >= self.capacity and i + 1 < self.k:
                i = i + 1


def _pruned_csr(graph, tau: float) -> CsrGraph:
    if np.isinf(tau):
        return CsrGraph.build(graph)
    return CsrGraph.build(graph, high_mask=high_degree_mask(graph, tau))


def _valid_windows(csr: CsrGraph) -> list[list[int]]:
    windows = []
    for v in range(csr.num_vertices):
        out_n, out_e = csr.out_view(v)
        in_n, in_e = csr.in_view(v)
        windows.append([*out_n.tolist(), *out_e.tolist(),
                        *in_n.tolist(), *in_e.tolist()])
    return windows


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        graph=st.one_of(graphs(), power_law_graphs()),
        k=st.integers(2, 33),
        tau=st.sampled_from(TAUS),
        seed_order=st.sampled_from(["sequential", "random"]),
        seed=st.integers(0, 2**16),
    )
    def test_kernel_matches_the_per_vertex_oracle(
        self, graph, k, tau, seed_order, seed
    ):
        want_csr = _pruned_csr(graph, tau)
        got_csr = copy.deepcopy(want_csr)
        want_walks, got_walks = [], []
        want = ReferenceNePlusPlus(
            want_csr, k, True, want_walks.append, seed_order, seed
        ).execute()
        got = run_ne_plus_plus_on_csr(
            got_csr, k, tau=tau, record_degrees=True,
            trace_walk=got_walks.append, seed_order=seed_order, seed=seed,
        )
        np.testing.assert_array_equal(got.parts, want.parts)
        assert got.parts.dtype == np.int32
        np.testing.assert_array_equal(got.secondary, want.secondary)
        assert got.secondary.shape == (k, graph.num_vertices)
        np.testing.assert_array_equal(got.loads, want.loads)
        assert dataclasses.asdict(got.stats) == dataclasses.asdict(want.stats)
        assert got_walks == want_walks
        np.testing.assert_array_equal(got_csr.out_size, want_csr.out_size)
        np.testing.assert_array_equal(got_csr.in_size, want_csr.in_size)
        assert _valid_windows(got_csr) == _valid_windows(want_csr)
        assert got.num_inmemory_edges == want_csr.num_csr_edges

    def test_secondary_is_a_writable_bool_matrix(self):
        graph = chung_lu(200, mean_degree=4, exponent=2.2, seed=1)
        result = run_ne_plus_plus(graph, 4, tau=1.0)
        assert result.secondary.dtype == bool
        assert result.secondary.flags.writeable
        result.secondary[0, 0] = True  # informed HDRF updates it in place


# -- golden digests --------------------------------------------------------------

#: sha256 of the int64 ``parts`` (bool ``secondary``) bytes, recorded with
#: the per-vertex code
GOLDEN = {
    "ne_pp_inf": (
        "322b365392fca5ea51779e73e7d607770e2f259ce896a6f00ecb5fd1d8aea428"
    ),
    "ne_pp_inf_secondary": (
        "b024a0fffbae60423aab885c0b16a8c66dc023119ea7425e5f92a6bb297414ce"
    ),
    "ne_pp_tau1": (
        "ab0988edb4d7d42625bdf3bd8a28b0a73d121de21af4ade49b81379afe253c57"
    ),
    "ne_pp_tau1_secondary": (
        "a255c0c91b1bf3c54d71023d4b72d117798a09f78609f8c2ae3ce9091ff6e9a5"
    ),
    "ne_pp_tau1.5_k32_random": (
        "16a30449404b6e2d8c6f12a060c11de43f1955e7f1ae28bcb49e9573f6af006f"
    ),
    "hep_tau1000": (
        "322b365392fca5ea51779e73e7d607770e2f259ce896a6f00ecb5fd1d8aea428"
    ),
    "run_job_hep_tau1000": (
        "322b365392fca5ea51779e73e7d607770e2f259ce896a6f00ecb5fd1d8aea428"
    ),
}


@pytest.fixture(scope="module")
def golden_graph():
    return chung_lu(1500, mean_degree=8, exponent=2.2, seed=5, name="golden")


@pytest.fixture
def golden_path(golden_graph, tmp_path):
    path = tmp_path / "golden.bin"
    write_binary_edgelist(golden_graph, path)
    return path


def _golden_bytes(case: str, graph, path) -> bytes:
    if case.startswith("ne_pp_"):
        name = case.removesuffix("_secondary")
        if name == "ne_pp_inf":
            result = run_ne_plus_plus(graph, 8)
        elif name == "ne_pp_tau1":
            result = run_ne_plus_plus(graph, 8, tau=1.0)
        else:
            result = run_ne_plus_plus(
                graph, 32, tau=1.5, seed_order="random", seed=3
            )
        if case.endswith("_secondary"):
            return np.asarray(result.secondary, dtype=bool).tobytes()
        parts = result.parts
    elif case == "hep_tau1000":
        parts = HepPartitioner(tau=1000.0).partition(graph, 8).parts
    else:
        job = make_job("HEP", path, 8, tau=1000.0, chunk_size=256)
        parts = run_job(job).parts
    return np.asarray(parts, dtype=np.int64).tobytes()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(case, golden_graph, golden_path):
    digest = hashlib.sha256(_golden_bytes(case, golden_graph, golden_path))
    assert digest.hexdigest() == GOLDEN[case]


def test_num_inmemory_edges_on_a_chunk_built_csr(golden_graph, golden_path):
    """On the out-of-core path the h2h edges live in the spill, not in
    ``h2h``; the count must still exclude them."""
    captured = []

    def spy(*args, **kwargs):
        captured.append(run_ne_plus_plus_on_csr(*args, **kwargs))
        return captured[-1]

    with mock.patch.object(stages, "run_ne_plus_plus_on_csr", spy):
        result = run_job(make_job("HEP", golden_path, 8, tau=1.0))
    (phase_one,) = captured
    assert phase_one.h2h.num_edges == 0
    assert phase_one.num_inmemory_edges == result.breakdown.num_inmemory_edges
    assert phase_one.num_inmemory_edges < golden_graph.num_edges
    in_memory = run_ne_plus_plus(golden_graph, 8, tau=1.0)
    assert in_memory.num_inmemory_edges == phase_one.num_inmemory_edges
