"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tax-greedy --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
the median traced pass. Workloads, metrics and checks are described in
``perfbench/README.md``. The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record (diagnostics, per-pass figures, checks).
"""

import time

T0 = time.perf_counter()  # before any other import: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: set-up samples per run, each in a fresh process (import included)
SETUP_SAMPLES = 5
#: how far a traced pass's root span may differ from its measured wall
#: time (the span opens and closes just inside the timer)
SPAN_TOLERANCE_S = 0.002
#: per child process; keeps a run well inside its 180 s limit
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "repair_s": "s", "repair_cpu_s": "s",
    "throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB", "repair_cost": "cost",
}
PER_LAYER_UNITS = {
    **dict.fromkeys((
        "dataset.load_s", "index.join_s", "graph.build_s", "single.mis_s",
        "single.greedy_s", "multi.combine_s", "multi.greedy_s",
        "multi.tree_build_s", "multi.tree_search_s", "exec.self_s",
        "serve.fit_s", "serve.repair_record_s", "trace.repair_s",
        "unattributed_s"), "s"),
    **dict.fromkeys((
        "index.examined_ratio", "index.verify_ratio", "distances.hit_rate",
        "serve.examined_fraction", "trace.overhead_ratio"), "ratio"),
    "serve.queue_wait_ms": "ms",
    "serve.batch_mean_size": "requests",
}


def _child(args, role: str) -> str:
    command = [sys.executable, str(Path(__file__).resolve()), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: {role} process failed "
                         f"(exit {done.returncode})")
    return done.stdout


def _workdir(args) -> Path:
    return WORK / f"{args.workload}-seed{args.seed}"


def _workload(name: str):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    return WORKLOADS[name]


def _versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tax-greedy", "hosp-exact", "serve-absorb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "generate", "setup"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    if args.role == "generate":
        workdir = _workdir(args)
        workdir.mkdir(parents=True, exist_ok=True)
        _workload(args.workload).generate(args.seed, workdir)
        return 0
    if args.role == "setup":
        workload = _workload(args.workload)
        workdir = _workdir(args)
        meta = json.loads((workdir / "meta.json").read_text())
        import repro.api  # noqa: F401  (part of set-up)

        workload.setup(workdir, meta)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    return run(args)


def run(args) -> int:
    load_before = os.getloadavg()
    workdir = _workdir(args)
    _child(args, "generate")
    setup_samples = [json.loads(_child(args, "setup"))["setup_s"]
                     for _ in range(SETUP_SAMPLES)]

    workload = _workload(args.workload)
    meta = json.loads((workdir / "meta.json").read_text())
    from spans import Recorder, instrumented

    load_recorder = Recorder()
    import repro.api  # noqa: F401

    if args.trace:
        with instrumented(load_recorder):
            workload.setup(workdir, meta)
    else:
        workload.setup(workdir, meta)
    from repro.obs.report import dataset_fingerprint

    fingerprint_ok = [dataset_fingerprint(r) for r in workload.relations] \
        == meta["fingerprints"]
    workload.load_requests(workdir)

    passes, traced = [], []
    first = None
    identical = True
    started = time.perf_counter()
    while True:
        done = len(passes) + len(traced)
        recorder = Recorder() if args.trace and done % 2 == 1 else None
        if recorder is None:
            outcome = workload.run_pass()
        else:
            with instrumented(recorder):
                outcome = workload.run_pass(recorder)
            outcome["recorder"] = recorder
        if first is None:
            first = outcome
        else:
            identical &= _same_output(first, outcome)
            outcome.pop("results", None)
            outcome.pop("replies", None)
        (traced if recorder is not None else passes).append(outcome)
        elapsed = time.perf_counter() - started
        done += 1
        enough = not args.trace or traced
        if enough and elapsed + elapsed / done > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check(first, args.seed)
    checks["dataset_fingerprint_matches"] = fingerprint_ok
    checks["passes_identical"] = identical
    correct = bool(checks["ok"] and fingerprint_ok and identical)
    every = passes + traced
    attempted = sum(p["operations"] for p in every)
    failed = sum(p["failed"] for p in every)

    repair_s = statistics.median(p["wall_s"] for p in passes)
    repair_cpu_s = statistics.median(p["cpu_s"] for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **_versions(),
        "input": meta,
        "setup_samples_s": setup_samples,
        "passes": [_summary(p) for p in passes],
        "traced_passes": [_summary(p) for p in traced],
        "wall_cpu_gap_s": repair_s - repair_cpu_s,
        "output_hash": first.get("output_hash"),
        "checks": checks,
    }

    if args.trace:
        metrics, counters, spans = _per_layer(workload, traced, repair_s,
                                              load_recorder)
        # information only: the self times partition the root by construction
        checks["layer_sum_error_s"] = metrics.pop("layer_sum_error_s")
        problems = [f"traced pass {n}: {problem}"
                    for n, outcome in enumerate(traced)
                    for problem in _span_problems(outcome)]
        checks["span_problems"] = problems[:20]
        correct = correct and not problems
        record["counters"] = counters
        (workdir / "trace.json").write_text(json.dumps(
            {"spans": spans, "counters": counters}, default=str))
    else:
        metrics = _end_to_end(passes, first, setup_samples,
                              repair_s, repair_cpu_s, peak_rss_mb)
    record["metrics"] = metrics
    (workdir / "record.json").write_text(json.dumps(record, default=str, indent=1))
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _same_output(first: dict, other: dict) -> bool:
    if "output_hash" in first:
        return first["output_hash"] == other["output_hash"]
    return first["replies"] == other["replies"]


def _summary(outcome: dict) -> dict:
    keep = ("wall_s", "cpu_s", "items", "operations", "failed", "warnings",
            "cost", "latency_p50_ms", "latency_p99_ms", "latency_samples")
    return {k: outcome[k] for k in keep if k in outcome}


def _end_to_end(passes, first, setup_samples, repair_s,
                repair_cpu_s, peak_rss_mb) -> dict:
    if "latency_p50_ms" in first:
        # one sample per served request; median over passes
        p50 = statistics.median(p["latency_p50_ms"] for p in passes)
        p99 = statistics.median(p["latency_p99_ms"] for p in passes)
    else:
        # a batch caller makes one request per pass, so each per-pass
        # quantile is that pass: both restate repair_s in ms
        p50 = p99 = 1000 * repair_s
    values = {
        "setup_s": statistics.median(setup_samples),
        "repair_s": repair_s,
        "repair_cpu_s": repair_cpu_s,
        "throughput_rps": first["items"] / repair_s,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb,
        "repair_cost": first["cost"],
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def _root(spans) -> int:
    return next(i for i, s in enumerate(spans) if s[0] in ("repair", "stream"))


def _span_problems(outcome: dict) -> list:
    """Check one traced pass's span tree against its measured wall time."""
    from spans import span_problems

    spans = outcome["recorder"].spans
    if sum(s[0] in ("repair", "stream") for s in spans) != 1:
        return ["not exactly one root span"]
    wall_s = outcome["wall_s"]
    return span_problems(spans, _root(spans), wall_s,
                         tolerance_s=max(SPAN_TOLERANCE_S, 0.001 * wall_s))


def _per_layer(workload, traced, untraced_repair_s, load_recorder):
    """Per-layer metrics of the median traced pass (by wall time)."""
    from spans import attr_total, durations, self_times

    ordered = sorted(traced, key=lambda p: p["wall_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    recorder = chosen["recorder"]
    spans = recorder.spans
    root = _root(spans)
    layers = self_times(spans, root)
    root_s = spans[root][2] - spans[root][1]
    parts = chosen["stats"]

    def stat(name):
        return sum(part.get(name, 0) or 0 for part in parts)

    def ratio(num, den):
        return num / den if den else 0.0

    examined, possible = stat("pairs_examined"), stat("possible_pairs")
    hits, misses = stat("cache_hits"), stat("cache_misses")
    values = {
        "dataset.load_s": durations(load_recorder.spans, "dataset"),
        "dataset.dict_entries": sum(r.dict_stats()["dictionary_entries"]
                                    for r in workload.relations),
        "index.join_s": layers.get("index", 0.0),
        "index.possible_pairs": possible,
        "index.pairs_examined": examined,
        "index.pairs_verified": stat("pairs_verified"),
        "index.examined_ratio": ratio(examined, possible),
        "index.verify_ratio": ratio(stat("pairs_verified"), examined),
        "index.kernel_calls": stat("kernel_calls"),
        "index.distinct_pairs_examined": stat("distinct_pairs_examined"),
        "distances.cache_hits": hits,
        "distances.cache_misses": misses,
        "distances.hit_rate": ratio(hits, hits + misses),
        "graph.build_s": layers.get("graph", 0.0),
        "graph.vertices": attr_total(spans, root, "graph", "vertices"),
        "graph.edges": attr_total(spans, root, "graph", "edges"),
        "single.mis_s": layers.get("single.mis", 0.0),
        "single.greedy_s": layers.get("single.greedy", 0.0),
        "single.nodes_expanded": stat("search_nodes_expanded"),
        "single.bound_hits": stat("search_bound_hits"),
        "single.dominance_prunes": stat("search_dominance_prunes"),
        "single.sets_enumerated": attr_total(spans, root, "single.mis", "sets"),
        "multi.combine_s": layers.get("multi.combine", 0.0),
        "multi.greedy_s": layers.get("multi.greedy", 0.0),
        "multi.combinations_scored": stat("combinations_scored"),
        "multi.combinations_pruned": stat("combinations_pruned"),
        "multi.tree_build_s": layers.get("multi.tree_build", 0.0),
        "multi.tree_search_s": layers.get("multi.tree_search", 0.0),
        "multi.tree_nodes_visited": stat("target_tree_nodes_visited"),
        "multi.tree_edist_hits": stat("target_tree_edist_hits"),
        "exec.self_s": layers.get("exec", 0.0),
        "exec.components": stat("fd_components"),
        "exec.degraded_components": sum(len(part.get("degraded_components", ()))
                                        for part in parts),
        "serve.fit_s": durations(spans, "serve.fit"),
        "serve.queue_wait_ms": stat("queue_wait_mean_ms"),
        "serve.repair_record_s": layers.get("serve.repair_record", 0.0),
        "serve.batch_mean_size": stat("serve_batch_mean_size"),
        "serve.elements_examined": stat("serve_elements_examined"),
        "serve.examined_fraction": ratio(stat("serve_elements_examined"),
                                         stat("serve_elements_total")),
        "serve.index_rebuilds": stat("serve_index_rebuilds"),
        "serve.records_absorbed": stat("serve_records_absorbed"),
        "serve.records_repaired": stat("serve_records_repaired"),
        "trace.repair_s": root_s,
        "trace.overhead_ratio": (statistics.median(p["wall_s"] for p in traced)
                                 / untraced_repair_s - 1.0),
        "unattributed_s": layers.get("unattributed", 0.0),
    }
    metrics = {name: {"value": value, "unit": PER_LAYER_UNITS.get(name, "count")}
               for name, value in values.items()}
    metrics["layer_sum_error_s"] = sum(layers.values()) - root_s
    spans = {"setup": load_recorder.export(), "traced_pass": recorder.export()}
    return metrics, parts, spans


if __name__ == "__main__":
    sys.exit(main())
