"""Command-line interface: repair a CSV against declared FDs.

Usage::

    python -m repro data.csv --fd "zip -> city, state" --fd "id -> name" \
        --output cleaned.csv

    python -m repro data.csv --fd "zip -> city" --algorithm exact-s \
        --tau 0.4 --numeric score --report

    python -m repro data.csv --fd "zip -> city" --trace --report run.json

    python -m repro serve reference.csv --fd "zip -> city" --port 8765

``--trace`` records the run through the observability layer
(``docs/observability.md``) and prints a phase-timing table;
``--report PATH`` writes the structured JSON run report (implies
``--trace``). A bare ``--report`` keeps its historical meaning — print
every cell edit (also available as ``--edits``).

``repro serve`` fits a model on the reference CSV and starts the
repair-as-a-service HTTP endpoint (``docs/serving.md``): ``POST
/repair`` with ``{"record": {...}}``, ``GET /stats`` for latency
quantiles and cache counters.

Exit status is 0 on success, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.constraints import FD
from repro.core.engine import ALGORITHMS, Repairer
from repro.core.distances import Weights
from repro.dataset.csvio import read_csv, write_csv
from repro.exec import RepairConfig
from repro.index.simjoin import DEFAULT_JOIN, STRATEGIES
from repro.obs import format_phase_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fault-tolerant, cost-based data repairing "
            "(Hao et al., ICDE 2017)."
        ),
    )
    parser.add_argument("input", type=Path, help="CSV file to repair")
    parser.add_argument(
        "--fd",
        action="append",
        dest="fds",
        metavar="SPEC",
        required=True,
        help='an FD, e.g. "zip -> city, state"; repeatable',
    )
    parser.add_argument(
        "--output",
        "-o",
        type=Path,
        default=None,
        help="where to write the repaired CSV (default: <input>.repaired.csv)",
    )
    parser.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="greedy-m",
        help="repair algorithm (default: greedy-m)",
    )
    parser.add_argument(
        "--tau",
        type=float,
        default=None,
        help="one threshold for every FD (default: derived from the data)",
    )
    parser.add_argument(
        "--lhs-weight",
        type=float,
        default=0.5,
        help="w_l of the projection distance; w_r = 1 - w_l (default 0.5)",
    )
    parser.add_argument(
        "--numeric",
        action="append",
        default=[],
        metavar="COLUMN",
        help="treat COLUMN as numeric (Euclidean distance); repeatable",
    )
    parser.add_argument(
        "--join-strategy",
        choices=list(STRATEGIES),
        default=DEFAULT_JOIN,
        help=(
            "FT-violation detection strategy; sets "
            f"RepairConfig.join_strategy (default: {DEFAULT_JOIN} — "
            "numpy-batched blocking; naive is the unfiltered reference "
            "scan and returns identical violations)"
        ),
    )
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the component-sharded executor; "
            "-1 = one per CPU (default 1 = serial; output is identical "
            "for every value)"
        ),
    )
    parser.add_argument(
        "--component-budget",
        type=int,
        default=None,
        metavar="PATTERNS",
        help=(
            "degrade exact algorithms to their greedy counterpart on "
            "components with more than PATTERNS violation-graph patterns"
        ),
    )
    parser.add_argument(
        "--split-threshold",
        type=int,
        default=None,
        metavar="PATTERNS",
        help=(
            "split the exact-s search of dominant components with at "
            "least PATTERNS violation-graph patterns into subtree tasks "
            "shared across the pool (requires n-jobs > 1; default: never "
            "split; output is identical either way)"
        ),
    )
    parser.add_argument(
        "--detectors",
        default=None,
        metavar="NAMES",
        help=(
            "comma-separated error detectors to run ahead of repair, "
            "e.g. 'fd,null,regex,outlier' (registry names; see "
            "docs/scenarios.md). Verdicts are advisory: they annotate "
            "the violation graph and the stats, never the repair"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-component execution statistics",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record the run through the observability layer and print "
            "a phase-timing table"
        ),
    )
    parser.add_argument(
        "--report",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help=(
            "with PATH: write the structured JSON run report there "
            "(implies --trace); bare: print every cell edit (legacy "
            "spelling of --edits)"
        ),
    )
    parser.add_argument(
        "--edits",
        action="store_true",
        help="print every cell edit",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="detect and report, but write nothing",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Fit a repair model on a reference CSV and serve per-record "
            "repairs over HTTP (repair-as-a-service)."
        ),
    )
    parser.add_argument(
        "input", type=Path, help="reference CSV to fit the model on"
    )
    parser.add_argument(
        "--fd",
        action="append",
        dest="fds",
        metavar="SPEC",
        required=True,
        help='an FD, e.g. "zip -> city, state"; repeatable',
    )
    parser.add_argument(
        "--tau",
        type=float,
        default=None,
        help="one threshold for every FD (default: derived from the data)",
    )
    parser.add_argument(
        "--lhs-weight",
        type=float,
        default=0.5,
        help="w_l of the projection distance; w_r = 1 - w_l (default 0.5)",
    )
    parser.add_argument(
        "--numeric",
        action="append",
        default=[],
        metavar="COLUMN",
        help="treat COLUMN as numeric (Euclidean distance); repeatable",
    )
    parser.add_argument(
        "--absorb",
        action="store_true",
        help=(
            "absorb consistent unseen records into the model instead of "
            "forcing them onto fitted targets"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8765, help="bind port (default 8765)"
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=64,
        metavar="N",
        help="max requests per micro-batch (default 64)",
    )
    parser.add_argument(
        "--batch-timeout",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="max seconds a micro-batch waits to fill (default 0.002)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=2048,
        metavar="N",
        help="request queue bound; beyond it requests get 503 (default 2048)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=8,
        metavar="N",
        help="LRU model-cache capacity (default 8)",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro serve`` (fit + listen until interrupted)."""
    from repro.serve import RepairService, ServeConfig, run_server

    parser = build_serve_parser()
    args = parser.parse_args(argv)

    try:
        fds: List[FD] = [FD.parse(spec) for spec in args.fds]
    except ValueError as exc:
        parser.error(str(exc))
    if not 0.0 <= args.lhs_weight <= 1.0:
        parser.error("--lhs-weight must be in [0, 1]")

    try:
        relation = read_csv(args.input, numeric=args.numeric)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            batch_size=args.batch_size,
            batch_timeout=args.batch_timeout,
            queue_limit=args.queue_limit,
            cache_capacity=args.cache_capacity,
        )
    except ValueError as exc:
        parser.error(str(exc))

    service = RepairService(config)
    print(f"{args.input}: fitting on {len(relation)} rows, {len(fds)} FD(s)")
    start = time.perf_counter()
    try:
        key = service.fit(
            relation,
            fds,
            thresholds=args.tau,
            weights=Weights(
                args.lhs_weight, round(1.0 - args.lhs_weight, 12)
            ),
            absorb=args.absorb,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"model {key} fitted in {time.perf_counter() - start:.2f}s")
    run_server(service)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        fds: List[FD] = [FD.parse(spec) for spec in args.fds]
    except ValueError as exc:
        parser.error(str(exc))

    if not 0.0 <= args.lhs_weight <= 1.0:
        parser.error("--lhs-weight must be in [0, 1]")

    try:
        relation = read_csv(args.input, numeric=args.numeric)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report_path: Optional[Path] = (
        Path(args.report) if isinstance(args.report, str) else None
    )
    print_edits = args.edits or args.report is True
    trace = args.trace or report_path is not None

    detectors = (
        tuple(
            name.strip()
            for name in args.detectors.split(",")
            if name.strip()
        )
        if args.detectors
        else None
    )
    try:
        config = RepairConfig(
            algorithm=args.algorithm,
            weights=Weights(
                args.lhs_weight, round(1.0 - args.lhs_weight, 12)
            ),
            thresholds=args.tau,
            join_strategy=args.join_strategy,
            fallback="greedy",
            n_jobs=args.n_jobs,
            component_budget=args.component_budget,
            split_threshold=args.split_threshold,
            trace=trace,
            detectors=detectors or None,
        )
    except ValueError as exc:
        parser.error(str(exc))
    repairer = Repairer(fds, config=config)
    try:
        thresholds = repairer.resolve_thresholds(relation)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{args.input}: {len(relation)} rows, {len(fds)} FD(s)")
    for fd in fds:
        print(f"  {fd}: tau = {thresholds[fd]:.3f}")

    start = time.perf_counter()
    result = repairer.repair(relation)
    seconds = time.perf_counter() - start
    print(f"{result.summary()} in {seconds:.2f}s")

    if args.stats:
        describe = getattr(result.stats, "describe", None)
        if describe is not None:
            print(f"execution: {describe()}")
        flagged = result.stats.get("detector_cells_flagged")
        if flagged:
            print("detectors:")
            for name, count in sorted(flagged.items()):
                print(f"  {name}: {count} cell(s) flagged")
        for phase, secs in sorted(result.timings.items()):
            print(f"  {phase}: {secs:.3f}s")
        pruning = getattr(result.stats, "pruning", None)
        if pruning:
            print(f"detection ({args.join_strategy}):")
            for key, value in pruning.items():
                print(f"  {key}: {value}")
            reduction = getattr(result.stats, "reduction_ratio", None)
            if reduction:
                print(f"  reduction_ratio: {reduction:.3f}")
        for comp in result.stats.get("components", ()):
            flag = " [degraded]" if comp.get("degraded") else ""
            print(
                f"  component {comp['index']}: "
                f"{', '.join(comp['fds'])} via {comp['algorithm']} "
                f"({comp['patterns']} pattern(s), "
                f"{comp['seconds']:.3f}s){flag}"
            )

    if print_edits:
        for edit in result.edits:
            print(f"  {edit}")

    if trace:
        report = result.run_report
        if args.trace and report is not None:
            print("phase timings:")
            print(format_phase_table(report))
        if report_path is not None and report is not None:
            report_path.write_text(report.to_json(indent=2) + "\n")
            print(f"run report written to {report_path}")

    if args.dry_run:
        print("(dry run: nothing written)")
        return 0

    output = args.output or args.input.with_suffix(".repaired.csv")
    write_csv(result.relation, output)
    print(f"repaired data written to {output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
