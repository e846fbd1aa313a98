"""The repository's benchmark: two HEP workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are WI-recipe R-MAT graphs generated from ``--seed``
and exported as a 4-shard manifest before any timed process starts):

* ``hep_tight``  sequential HEP, budget just above the §4.2 projection at
  tau=1.0: most edges spill as h2h and informed HDRF does most work,
* ``hep_roomy``  sequential HEP, budget at the projection of the largest
  grid tau: NE++ and the CSR build do the work, no edge spills.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics of a separate traced run (see ``layers.py``),
which also times 2-worker HDRF on the same manifest for the BSP, pool
and worker layers, and a cold job on a ``repro serve`` process for the
service's queue hand-off.  The last stdout line is the result object;
the line before it holds the details (provenance stamp, input shape,
per-repetition values, failures).  Exit status is non-zero only when
the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import tempfile
import time
from pathlib import Path

import common
from common import (
    HERE, K, MIN_REPS, ROOMY_TAU, SRC, TIGHT_TAU, WORK_ROOT, Tally,
)

#: serve-style job payloads of the workloads
BATCH_JOBS = {
    "hep_tight": lambda inputs, work: {
        "algo": "HEP", "k": K, "memory_budget": inputs.tight_budget,
        "spill_dir": str(work),
    },
    "hep_roomy": lambda inputs, work: {
        "algo": "HEP", "k": K, "memory_budget": inputs.roomy_budget,
        "spill_dir": str(work),
    },
}
EXPECTED_TAU = {"hep_tight": TIGHT_TAU, "hep_roomy": ROOMY_TAU}
WORKLOADS = tuple(BATCH_JOBS)
#: sequential informed HDRF: the reference of bsp.speedup_vs_seq
SEQ_JOB = {"algo": "HDRF", "k": K, "algo_params": {"exact_degrees": True}}
#: the traced run's BSP job.  The batch (BSP edges per worker per
#: superstep) is 32, not the default 8: at 8 a run is dominated by
#: per-superstep process wake-ups, whose run-to-run spread on a 2-vCPU
#: VM exceeded 50% of the median.
BSP_JOB = {"algo": "HDRF", "k": K, "workers": 2, "batch": 32}
LOOKUPS_PER_REP = 2000
#: a run, set-up included, must end well inside 180 s
RUN_BUDGET_S = 165.0


def _remaining(deadline: float) -> float:
    return max(5.0, deadline - time.monotonic())


# -- timed repetitions -------------------------------------------------------


def check_shape(name: str, inputs, tau, h2h, tally: Tally) -> dict:
    """Fail the workload if it stopped exercising the layer it was chosen for."""
    m = inputs.num_edges
    tally.check(tau == EXPECTED_TAU[name], f"{name}: budget selects tau={EXPECTED_TAU[name]:g}")
    tally.check(
        h2h == common.h2h_edges(inputs.graph, tau),
        f"{name}: spilled h2h edges match the graph's split at tau={tau:g}",
    )
    if name == "hep_tight":
        tally.check(
            h2h / m >= common.MIN_TIGHT_H2H_SHARE,
            f"hep_tight streams >= {common.MIN_TIGHT_H2H_SHARE:.0%} of edges as h2h",
        )
    else:
        tally.check(h2h == 0, "hep_roomy streams no h2h edge")
    return {"selected_tau": tau, "h2h_edges": h2h, "h2h_share": h2h / m}


def check_rep(name: str, inputs, doc: dict, parts, tally: Tally,
              first: bool) -> dict:
    """Output checks on one timed repetition; returns shape facts."""
    common.check_assignment(
        tally, inputs.graph, parts, doc["loads"], doc["replication_factor"],
        doc["edge_balance"], name,
    )
    tally.check(doc["cache_hit_ok"], f"{name}: store hit returns the same assignment")
    tally.bulk(
        len(doc["lookup_ms"]), doc["lookup_edge_mismatches"],
        f"{name}: edge lookups match the assignment",
    )
    tally.check(doc["leftover_children"] == 0, f"{name}: no worker outlives run_job")
    shape = check_shape(name, inputs, doc["tau"], doc["num_h2h_edges"], tally)
    if first:
        common.check_in_memory_hep(tally, inputs.graph, parts, doc["tau"])
    return shape


def run_batch(name: str, inputs, work: Path, seconds: float, tally: Tally,
              deadline: float) -> tuple[dict, dict]:
    """Timed repetitions, each in a fresh process, for ``seconds``."""
    import numpy as np

    job = BATCH_JOBS[name](inputs, work)
    # Untimed warm-up: byte-compiles the package so imports are steady.
    common.run_child(["-c", "import repro.runtime, repro.serve"], work, 120.0)
    reps, shape = [], {}
    lookup_samples = 0
    begin = time.monotonic()
    index = 0
    while index < MIN_REPS or time.monotonic() - begin < seconds:
        if reps and time.monotonic() > deadline - 45.0:
            break
        rep_dir = work / f"rep-{index}"
        rep_dir.mkdir()
        cfg = rep_dir / "config.json"
        cfg.write_text(json.dumps({
            "src": str(SRC), "source": inputs.manifest, "job": job,
            "store": str(rep_dir / "store"), "out": str(rep_dir),
            "lookups": LOOKUPS_PER_REP, "seed": inputs.seed * 1000 + index,
        }))
        status = common.run_child(
            [str(HERE / "rep.py"), str(cfg)], work, _remaining(deadline)
        )
        index += 1
        if not tally.check(status == 0, f"{name}: repetition exits 0 (got {status})"):
            continue
        doc = common.read_json(rep_dir / "rep.json")
        parts = np.load(rep_dir / "parts.npy")
        shape = check_rep(name, inputs, doc, parts, tally, first=not reps) or shape
        latencies = doc.pop("lookup_ms")
        lookup_samples += len(latencies)
        doc["lookup_p50_ms"] = common.percentile(latencies, 50)
        doc["lookup_p99_ms"] = common.percentile(latencies, 99)
        reps.append(doc)
        shutil.rmtree(rep_dir)
    if not reps:
        raise RuntimeError(f"{name}: no repetition finished")

    def med(key):
        return common.median([doc[key] for doc in reps])

    metrics = {
        key: med(key) for key in (
            "setup_s", "partition_s", "cpu_s", "peak_rss_mb",
            "cache_hit_ms", "replication_factor", "edge_balance",
            "lookup_p50_ms", "lookup_p99_ms",
        )
    }
    metrics["edges_per_s"] = inputs.num_edges / metrics["partition_s"]
    details = {
        "shape": shape,
        "repetitions": reps,
        "lookup_samples": lookup_samples,
        "peak_rss_vs_projection": (
            {"projected_mb": reps[0]["projected_memory_bytes"] / 2**20,
             "peak_rss_mb": metrics["peak_rss_mb"]}
            if reps[0]["projected_memory_bytes"] else None
        ),
    }
    return metrics, details


# -- traced runs -------------------------------------------------------------


def run_traced(name: str, inputs, work: Path, tally: Tally,
               deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics: ``layers.py`` in a fresh process, then the
    workload's job submitted cold to an idle ``repro serve`` for its
    queue wait."""
    import numpy as np

    import served

    job = BATCH_JOBS[name](inputs, work)
    out = work / "layers"
    out.mkdir()
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "src": str(SRC), "source": inputs.manifest, "own": job,
        "seq": SEQ_JOB, "bsp": BSP_JOB, "out": str(out), "seed": inputs.seed,
    }))
    status = common.run_child(
        [str(HERE / "layers.py"), str(cfg)], work, _remaining(deadline)
    )
    if not tally.check(status == 0, f"traced run exits 0 (got {status})"):
        raise RuntimeError("traced run failed")
    doc = common.read_json(out / "trace.json")
    parts = np.load(out / "parts.npy")
    own = doc.pop("own")
    common.check_assignment(
        tally, inputs.graph, parts, own["loads"], own["replication_factor"],
        own["edge_balance"], f"{name} (traced)",
    )
    tally.check(own["tau"] == EXPECTED_TAU[name], f"{name}: traced run selects tau")
    common.check_in_memory_hep(tally, inputs.graph, parts, own["tau"])
    metrics = doc.pop("metrics")
    metrics["serve.queue_wait_s"] = served.queue_wait_probe(
        work, inputs.manifest, job, tally, parts
    )
    return metrics, doc


# -- entry point -------------------------------------------------------------


def render(values: dict, units: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the names in ``units``."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    out = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale-bits", type=int, default=common.DEFAULT_BITS,
        help="log2 vertex count of the generated graph (smoke tests shrink it)",
    )
    args = parser.parse_args(argv)
    common.require_source_tree()
    end_to_end, per_layer = common.metric_units()
    deadline = time.monotonic() + RUN_BUDGET_S

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT
    ))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        stamp = common.stamp()
        shm_before = common.shm_segments()
        inputs = common.make_inputs(work, args.seed, args.scale_bits)
        tally = Tally()
        if args.trace:
            values, details = run_traced(
                args.workload, inputs, work, tally, deadline
            )
        else:
            values, details = run_batch(
                args.workload, inputs, work, args.seconds, tally, deadline
            )
        leaked = sorted(common.shm_segments() - shm_before)
        tally.check(not leaked, f"no leaked shared-memory segments {leaked}")
        metrics = render(values, per_layer if args.trace else end_to_end)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    details.update({
        "workload": args.workload, "trace": args.trace, "stamp": stamp,
        "input": inputs.shape(),
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
    })
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
