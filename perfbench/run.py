"""Layered request-path benchmark for the hierarchical-query program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pqe-sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``pqe-sweep`` — 2 HTTP clients POST 16-value binding sweeps of PQE to a
  child ``repro serve --http`` over a Zipf-skewed 32k-fact TID;
* ``whatif`` — 2 HTTP clients POST Shapley + Banzhaf of one fact plus a
  bag-set repair plan at a fresh budget, on a 2k-fact set database; once
  every fact was asked, a new server takes the next round;
* ``cold-load`` — in-process: decode a 16k-fact TID, open a ``Server``,
  answer one PQE, close.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of 9
launches around the timed phase, start to first answer), ``ops_per_s``,
``latency_p50_ms`` and ``latency_p90_ms`` (each taken per window of 20
ops and averaged over the run) and ``rss_mb``.  ``--trace 1`` runs the
workload twice, untraced then traced (flight recorder, /metrics deltas,
client spans), times each layer's public functions in-process, and prints
the per-layer metrics.  The last line of standard output is the result
object; the line before it records the environment.  Exits non-zero,
printing no result, when the program's sources are missing.  All three
workloads in one go::

    for w in pqe-sweep whatif cold-load; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "http.memo_hit_rtt_ms": "ms",
    "http.connections_per_op": "conn/op",
    "http.bytes_per_query": "B/query",
    "serve.memo_hit_submit_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.server_total_ms": "ms",
    "serve.fused_width": "queries/batch",
    "serve.coalesced_share": "ratio",
    "engine.memo_hit_us": "us",
    "engine.memo_hit_share": "ratio",
    "engine.evaluations_per_op": "evals/op",
    "engine.annotation_builds_per_op": "builds/op",
    "engine.shapley_value_ms": "ms",
    "engine.maximize_ms": "ms",
    "problems.shapley_psi_ms": "ms",
    "problems.facts_ms": "ms",
    "db.decode_ms": "ms",
    "db.annotate_ms": "ms",
    "db.view_build_ms": "ms",
    "db.view_rebuild_ms": "ms",
    "db.annotated_mb": "MiB",
    "core.compile_ms": "ms",
    "core.execute_ms": "ms",
    "core.fused_ms_per_query": "ms",
    "core.fused_fallback_share": "ratio",
    "core.shapley_run_ms": "ms",
    "core.bagset_run_ms": "ms",
    "core.exec_busy_ms_per_op": "ms",
    "core.step_project_ms_per_op": "ms",
    "core.step_merge_ms_per_op": "ms",
    "core.array_share": "ratio",
    "obs.trace_overhead_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pqe-sweep", "whatif", "cold-load"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: |D| ≈ 600 inputs for the harness self-check")
    return parser.parse_args(argv)


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = result.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sample(deltas: dict, name: str, **labels) -> float:
    return deltas.get((name, tuple(sorted(labels.items()))), 0.0)


def _family_sum(deltas: dict, name: str) -> float:
    return sum(value for (key, _labels), value in deltas.items() if key == name)


def phase_metrics(traced, untraced) -> dict:
    """Per-layer metrics of one traced phase (and its untraced twin)."""
    deltas = traced.deltas
    ops = traced.attempted
    good = traced.attempted - traced.failed

    def p50_ms(field):
        values = [entry[field] for entry in traced.traces if entry.get(field) is not None]
        return 1e3 * statistics.median(values) if values else 0.0

    executions = _family_sum(deltas, "repro_tier_executions_total")
    return {
        "http.connections_per_op": _ratio(traced.connections, ops),
        "http.bytes_per_query": _ratio(traced.response_bytes, traced.queries),
        "serve.queue_wait_ms": p50_ms("queue_wait_s"),
        "serve.server_total_ms": p50_ms("total_s"),
        "serve.fused_width": _ratio(
            _sample(deltas, "repro_session_fused_queries_total"),
            _sample(deltas, "repro_session_fused_batches_total"),
        ),
        "serve.coalesced_share": _ratio(
            _sample(deltas, "repro_scheduler_events_total", event="coalesced"),
            _sample(deltas, "repro_scheduler_events_total", event="submitted"),
        ),
        "engine.memo_hit_share": _ratio(
            _sample(deltas, "repro_memo_hits_total"),
            _sample(deltas, "repro_memo_hits_total")
            + _sample(deltas, "repro_memo_misses_total"),
        ),
        "engine.evaluations_per_op": _ratio(
            _sample(deltas, "repro_session_evaluations_total"), good
        ),
        "engine.annotation_builds_per_op": _ratio(
            _sample(deltas, "repro_annotation_builds_total"), good
        ),
        # Every plan evaluation of pqe-sweep is a bound (fusable) query;
        # the other workloads issue none, so their share reads 0.
        "core.fused_fallback_share": _ratio(
            _sample(deltas, "repro_fused_events_total", event="serial_fallbacks"),
            _sample(deltas, "repro_session_evaluations_total"),
        ),
        "core.exec_busy_ms_per_op": 1e3 * _ratio(
            _family_sum(deltas, "repro_plan_execution_seconds_sum"), good
        ),
        "core.step_project_ms_per_op": 1e3 * _ratio(
            _sample(deltas, "repro_plan_step_seconds_sum", rule="project"), good
        ),
        "core.step_merge_ms_per_op": 1e3 * _ratio(
            _sample(deltas, "repro_plan_step_seconds_sum", rule="merge"), good
        ),
        "core.array_share": _ratio(
            _sample(deltas, "repro_tier_executions_total", tier="array"),
            executions,
        ),
        "obs.trace_overhead_share": 1.0 - _ratio(
            traced.ops_per_s, untraced.ops_per_s
        ),
    }


def measure(args, run) -> tuple[dict, int, int]:
    """Run the workload; returns (metrics with units, attempted, failed)."""
    from workloads import WORKLOADS

    data = run.generate(args.workload, "data")
    workload = WORKLOADS[args.workload](run, data)
    if not args.trace:
        phase, metrics = workload.measure()
        return _with_units(metrics, END_TO_END_UNITS), phase.attempted, phase.failed

    import probes

    half = args.seconds / 2
    untraced = workload.measure_untraced(half)
    traced = workload.measure_traced(half)
    metrics = phase_metrics(traced, untraced)
    spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    for name, ms in traced.spans.write(spans_path, traced.attempted).items():
        print(f"span self time {name}: {ms:.3f} ms/op", file=sys.stderr)

    tid = data if args.workload != "whatif" else run.generate("cold-load", "tid")
    metrics.update(probes.tid_probes((tid / "tid.json").read_bytes(), args.seed))
    metrics.update(probes.http_probe(ROOT, tid / "server.json", run.work / "logs"))
    shapley = data if args.workload == "whatif" else run.generate("whatif", "whatif")
    metrics.update(probes.whatif_probes(
        json.loads((shapley / "server.json").read_text()), args.seed
    ))
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return _with_units(metrics, PER_LAYER_UNITS), attempted, failed


def _with_units(metrics: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        name: {"value": float(metrics[name]), "unit": units[name]}
        for name in units
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so every child server is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Run

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = Run(ROOT, args.seed, args.seconds, args.scale, run_dir)
    try:
        env = environment(args)
        metrics, attempted, failed = measure(args, run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
