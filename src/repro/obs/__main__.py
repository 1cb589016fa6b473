"""CLI: ``python -m repro.obs report trace.jsonl [--metrics snap.json] [--json]``.

Renders the phase breakdown (and, with pipeline device tracks, stage
occupancy) from a ``Tracer.to_jsonl`` trace, plus the Fig-15-style
phase×op table when a metrics snapshot from a profiled run is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from .metrics import load_snapshot
from .report import phase_op_table, phase_totals, report_text, stage_occupancy
from .trace import iter_spans, load_jsonl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="phase / op breakdown of a run")
    report.add_argument(
        "trace", nargs="?", help="JSONL trace file (Tracer.to_jsonl)"
    )
    report.add_argument(
        "--metrics", help="metrics snapshot JSON (for the phase×op table)"
    )
    report.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    opts = parser.parse_args(argv)

    spans = load_jsonl(opts.trace) if opts.trace else None
    snapshot = load_snapshot(opts.metrics) if opts.metrics else None
    if spans is None and snapshot is None:
        parser.error("give a trace file and/or --metrics")

    if opts.json:
        payload = {}
        if spans is not None:
            spans = list(iter_spans(spans))
            payload["phase_totals"] = phase_totals(spans)
            payload["stage_occupancy"] = {
                str(track): row for track, row in stage_occupancy(spans).items()
            }
        if snapshot is not None:
            payload["phase_op"] = phase_op_table(snapshot)
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(report_text(spans, snapshot) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
