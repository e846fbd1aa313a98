"""Shared pieces of the benchmark: paths, inputs, checks, statistics.

Everything here runs in the benchmark's own (untimed) parent process
or is imported by the child processes it starts.  Inputs are generated
from the ``--seed`` argument and written to disk before any timed
process starts, so the program under test only ever receives files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

#: partitions per job (the paper's default k)
K = 8
#: the WI stand-in's R-MAT recipe (repro.graph.datasets._wi), seed varied
WI_RECIPE = {"edge_factor": 10, "a": 0.57, "b": 0.19, "c": 0.19}
#: 2**13 vertices: the WI stand-in at scale 1 (n = 8,192, m ~ 68k)
DEFAULT_BITS = 13
NUM_SHARDS = 4
#: tau the hep_tight budget selects, and the next grid point above it
TIGHT_TAU, NEXT_TAU = 1.0, 1.5
#: largest tau on repro.core.tau.DEFAULT_TAU_GRID (the hep_roomy pick)
ROOMY_TAU = 1000.0
#: hep_tight must stream at least this share of its edges as h2h
MIN_TIGHT_H2H_SHARE = 0.5
#: timed repetitions per run, whatever --seconds says
MIN_REPS = 3


def require_source_tree() -> None:
    """Exit non-zero, printing nothing on stdout, without ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no source tree at {SRC}/repro; run from a full "
            "checkout of the repository\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(work: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts.

    ``TMPDIR`` points into the run's work directory so temporary files
    (spill segments, worker scratch) stay inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    env.pop("REPRO_SCALE", None)
    return env


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    """Median of a non-empty sequence, as a float."""
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


# -- failure accounting ------------------------------------------------------


@dataclass
class Tally:
    """Counts attempted/failed operations and remembers what failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Record one checked operation; ``ok=False`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def bulk(self, attempted: int, failed: int, what: str) -> None:
        """Record ``attempted`` operations of which ``failed`` failed."""
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed and len(self.failures) < 50:
            self.failures.append(f"{what}: {failed} of {attempted} failed")


# -- provenance --------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD's sha read from ``.git`` inside the checkout, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` (path + bytes): the code's identity."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp() -> dict:
    """Machine and code provenance recorded with every result."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "loadavg_before": list(os.getloadavg()),
    }


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """One seed's generated graph, its manifest, and derived budgets."""

    graph: object
    manifest: str
    bits: int
    seed: int
    tight_budget: int
    roomy_budget: int
    projections: dict

    @property
    def num_edges(self) -> int:
        """Edges after generation (duplicates and self-loops dropped)."""
        return int(self.graph.num_edges)

    def shape(self) -> dict:
        """n, m, max degree and the §4.2 projections, for the report."""
        degrees = self.graph.degrees
        return {
            "recipe": "WI R-MAT",
            "scale_bits": self.bits,
            "seed": self.seed,
            "n": int(self.graph.num_vertices),
            "m": self.num_edges,
            "max_degree": int(degrees.max()),
            "k": K,
            "shards": NUM_SHARDS,
            "projected_bytes": {
                f"tau={tau:g}": value for tau, value in self.projections.items()
            },
            "tight_budget": self.tight_budget,
            "roomy_budget": self.roomy_budget,
        }


def make_inputs(work: Path, seed: int, bits: int) -> Inputs:
    """Generate the seed's graph and export it as a 4-shard manifest.

    The HEP budgets come from the §4.2 projection of this very graph:
    ``tight`` sits halfway between the projections at tau=1.0 and
    tau=1.5 (so tau=1.0 is selected whatever the seed), ``roomy`` equals
    the projection at the largest grid tau.
    """
    from repro.core.memory_model import hep_memory_bytes
    from repro.graph.generators import rmat
    from repro.stream.shard import write_sharded_edges

    graph = rmat(scale=bits, seed=seed, name=f"wi-rmat-{seed}", **WI_RECIPE)
    manifest = work / "graph.manifest.json"
    write_sharded_edges(graph, manifest, num_shards=NUM_SHARDS)
    projections = {
        tau: int(hep_memory_bytes(graph, tau, K))
        for tau in (TIGHT_TAU, NEXT_TAU, ROOMY_TAU)
    }
    return Inputs(
        graph=graph,
        manifest=str(manifest),
        bits=bits,
        seed=seed,
        tight_budget=(projections[TIGHT_TAU] + projections[NEXT_TAU]) // 2,
        roomy_budget=projections[ROOMY_TAU],
        projections=projections,
    )


def h2h_edges(graph, tau: float) -> int:
    """High/high edges at ``tau``, counted from the graph directly."""
    from repro.graph.pruned import split_edges

    return int(split_edges(graph, tau).num_h2h_edges)


# -- output checks -----------------------------------------------------------


def check_assignment(tally: Tally, graph, parts, loads, rf: float,
                     balance: float, where: str) -> None:
    """Every edge placed once in [0, k), loads within capacity, metrics exact.

    Replication factor and edge balance are recomputed by
    :mod:`repro.metrics` over the generated graph and must equal the
    values the program reported.
    """
    import numpy as np

    from repro.metrics import edge_balance, replication_factor
    from repro.partition.base import PartitionAssignment, capacity_bound

    m = graph.num_edges
    parts = np.asarray(parts)
    if not tally.check(parts.shape == (m,), f"{where}: one part per edge"):
        return
    if not tally.check(
        bool(parts.min() >= 0 and parts.max() < K),
        f"{where}: every edge assigned to a partition in [0, {K})",
    ):
        return
    counts = np.bincount(parts, minlength=K)
    tally.check(
        np.array_equal(counts, np.asarray(loads)),
        f"{where}: reported loads match the assignment",
    )
    tally.check(
        int(counts.max()) <= capacity_bound(m, K, 1.0),
        f"{where}: loads within capacity",
    )
    assignment = PartitionAssignment(graph, K, parts)
    tally.check(
        math.isclose(replication_factor(assignment), rf, rel_tol=1e-12),
        f"{where}: replication factor recomputes to the reported value",
    )
    tally.check(
        math.isclose(edge_balance(assignment), balance, rel_tol=1e-12),
        f"{where}: edge balance recomputes to the reported value",
    )


def check_in_memory_hep(tally: Tally, graph, parts, tau: float) -> None:
    """Out-of-core HEP at ``tau`` must equal in-memory HEP bit for bit."""
    import numpy as np

    from repro.core.hep import HepPartitioner

    expected = HepPartitioner(tau=tau).partition(graph, K).parts
    tally.check(
        np.array_equal(np.asarray(parts), expected),
        f"HEP at tau={tau:g} is bit-identical to in-memory HEP",
    )


# -- leaks -------------------------------------------------------------------


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments currently present."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` still exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


# -- child processes ---------------------------------------------------------


def run_child(args: list[str], work: Path, timeout: float) -> int:
    """Run a benchmark child to completion; its exit status.

    On timeout the child is killed and reaped.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], env=child_env(work), cwd=str(ROOT),
        stdout=subprocess.DEVNULL,
    )
    return reap(proc, timeout)


def reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc``, killing it after ``timeout`` s; its exit code."""
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        return proc.wait()


def read_json(path: Path):
    """Load one JSON document."""
    with open(path) as handle:
        return json.load(handle)


def metric_units() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    spec = read_json(BENCHMARK_JSON)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )
