"""Stateful property test: the CSR under arbitrary removal sequences.

A hypothesis rule-based state machine drives the two removal paths
(the clean-up's ``remove_marked``, on one vertex or on many at once, and
NE's ``remove_edge_entry``)
against a dict-of-sets reference model, checking after every step that
valid adjacency, edge-id pairing and window invariants all hold.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.graph import CsrGraph, Graph
from repro.graph.generators import erdos_renyi


class CsrRemovalMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 100))
    def setup(self, seed):
        self.graph = erdos_renyi(12, 30, seed=seed)
        self.csr = CsrGraph.build(self.graph)
        # Reference model: per vertex, the set of (neighbor, eid) entries.
        self.model: dict[int, set[tuple[int, int]]] = {
            v: set() for v in range(self.graph.num_vertices)
        }
        for e, (u, v) in enumerate(self.graph.edges.tolist()):
            self.model[u].add((v, e))
            self.model[v].add((u, e))

    @rule(data=st.data())
    def remove_marked(self, data):
        n = self.graph.num_vertices
        v = data.draw(st.integers(0, n - 1), label="vertex")
        flags = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="marked"
        )
        marked = np.asarray(flags, dtype=bool)
        removed = self.csr.remove_marked(v, marked)
        expected = {(w, e) for (w, e) in self.model[v] if marked[w]}
        assert removed == len(expected)
        self.model[v] -= expected

    @rule(data=st.data())
    def remove_marked_many(self, data):
        n = self.graph.num_vertices
        vertices = data.draw(
            st.lists(st.integers(0, n - 1), max_size=2 * n), label="vertices"
        )
        flags = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="marked"
        )
        marked = np.asarray(flags, dtype=bool)
        removed = self.csr.remove_marked(np.asarray(vertices, dtype=np.int64), marked)
        # Per-vertex semantics in order: a repeated vertex removes nothing
        # the second time.
        expected = 0
        for v in dict.fromkeys(vertices):
            hits = {(w, e) for (w, e) in self.model[v] if marked[w]}
            expected += len(hits)
            self.model[v] -= hits
        assert removed == expected

    @rule(data=st.data())
    def remove_single_entry(self, data):
        n = self.graph.num_vertices
        v = data.draw(st.integers(0, n - 1), label="vertex")
        if self.model[v]:
            w, e = sorted(self.model[v])[0]
            assert self.csr.remove_edge_entry(v, w, e)
            self.model[v].discard((w, e))
        else:
            assert not self.csr.remove_edge_entry(v, 0, 0)

    @invariant()
    def csr_matches_model(self):
        if not hasattr(self, "csr"):
            return
        for v in range(self.graph.num_vertices):
            out_n, out_e = self.csr.out_view(v)
            in_n, in_e = self.csr.in_view(v)
            entries = set(zip(out_n.tolist(), out_e.tolist())) | set(
                zip(in_n.tolist(), in_e.tolist())
            )
            assert entries == self.model[v], f"vertex {v}"

    @invariant()
    def windows_stay_bounded(self):
        if not hasattr(self, "csr"):
            return
        self.csr.check_invariants()


TestCsrRemoval = CsrRemovalMachine.TestCase
TestCsrRemoval.settings = settings(max_examples=25, stateful_step_count=30,
                                   deadline=None)
