"""Reports over traces and metric snapshots (Fig-15-style breakdowns).

Pure functions from spans / snapshots to plain dicts plus text
renderers, shared by ``python -m repro.obs report``, the examples and
the tests.  The phase×op table mirrors the source paper's Fig. 15: for
each training phase, where did the backend time go per op?
"""

from __future__ import annotations

from .trace import iter_spans


def phase_totals(spans) -> dict[str, float]:
    """Exclusive (self) seconds per phase tag on the host track (0).

    A span's self time is its duration less that of the spans directly
    inside it, so the rows add up to the outermost spans' total — on a
    traced fit, the ``engine.fit`` span.  Device tracks run on another
    clock and are :func:`stage_occupancy`'s."""
    host = [span for span in iter_spans(spans) if span.track == 0]
    host.sort(key=lambda span: (span.start, -span.end))
    totals: dict[str, float] = {}
    enclosing: list = []
    for span in host:
        while enclosing and enclosing[-1].end <= span.start:
            enclosing.pop()
        if enclosing:
            totals[enclosing[-1].phase] -= span.duration
        totals[span.phase] = totals.get(span.phase, 0.0) + span.duration
        enclosing.append(span)
    return totals


def phase_op_table(snapshot: dict) -> dict[str, dict[str, dict[str, float]]]:
    """``{phase: {op: {"calls", "seconds"}}}`` from a metrics snapshot
    holding the profiler's ``repro_backend_op_*`` counters."""
    table: dict[str, dict[str, dict[str, float]]] = {}

    def _fold(metric: str, field: str) -> None:
        entry = snapshot.get(metric)
        if not entry:
            return
        for label, value in entry["series"].items():
            parts = dict(part.split("=", 1) for part in label.split(",") if "=" in part)
            phase, op = parts.get("phase", "untagged"), parts.get("op", "?")
            cell = table.setdefault(phase, {}).setdefault(
                op, {"calls": 0.0, "seconds": 0.0}
            )
            cell[field] += value

    _fold("repro_backend_op_calls", "calls")
    _fold("repro_backend_op_seconds", "seconds")
    return table


def render_phase_op_table(table: dict) -> str:
    """ASCII phase×op breakdown, ops sorted by descending seconds."""
    lines = []
    for phase in sorted(table):
        ops = table[phase]
        phase_seconds = sum(cell["seconds"] for cell in ops.values())
        lines.append(f"phase {phase or 'untagged'} — {phase_seconds:.4f}s backend time")
        for op, cell in sorted(
            ops.items(), key=lambda item: -item[1]["seconds"]
        ):
            share = (
                cell["seconds"] / phase_seconds * 100 if phase_seconds > 0 else 0.0
            )
            lines.append(
                f"  {op:<28s} {cell['seconds']:>10.4f}s "
                f"{share:>5.1f}%  ({int(cell['calls'])} calls)"
            )
    return "\n".join(lines) if lines else "no profiled ops (profiler not attached?)"


def render_phase_totals(totals: dict[str, float]) -> str:
    grand = sum(totals.values())
    lines = [f"self time by phase — {grand:.4f}s total"]
    for phase, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        share = seconds / grand * 100 if grand > 0 else 0.0
        lines.append(f"  {phase or 'untagged':<18s} {seconds:>10.4f}s {share:>5.1f}%")
    return "\n".join(lines)


def stage_occupancy(spans) -> dict[int, dict[str, float]]:
    """Per-device busy time and bubble share, from the device tracks
    (track ``d + 1`` is pipeline device ``d``; the host track is not a
    device).

    For each device: ``busy`` is summed span time, ``window`` is its
    first-start-to-last-end window, ``occupancy`` their ratio and
    ``bubble`` the idle remainder — the quantity the Fig-20 pipeline
    argument is about (GP streams exist to fill bubbles).
    """
    windows: dict[int, list[float]] = {}
    busy: dict[int, float] = {}
    for span in iter_spans(spans):
        if span.track == 0:
            continue
        device = span.track - 1
        window = windows.get(device)
        if window is None:
            windows[device] = [span.start, span.end]
        else:
            window[0] = min(window[0], span.start)
            window[1] = max(window[1], span.end)
        busy[device] = busy.get(device, 0.0) + span.duration
    out = {}
    for device, (start, end) in sorted(windows.items()):
        window_s = end - start
        occupancy = busy[device] / window_s if window_s > 0 else 1.0
        out[device] = {
            "busy": busy[device],
            "window": window_s,
            "occupancy": occupancy,
            "bubble": max(0.0, window_s - busy[device]),
        }
    return out


def render_stage_occupancy(occupancy: dict[int, dict[str, float]]) -> str:
    lines = ["stage occupancy (busy / window, bubble = idle)"]
    for device, row in occupancy.items():
        lines.append(
            f"  device {device}: {row['occupancy'] * 100:5.1f}% busy "
            f"({row['busy']:.4f}s of {row['window']:.4f}s, "
            f"bubble {row['bubble']:.4f}s)"
        )
    return "\n".join(lines)


def report_text(spans=None, snapshot: dict = None) -> str:
    """The full ``python -m repro.obs report`` body for whatever inputs
    are available."""
    sections = []
    if spans is not None:
        spans = list(iter_spans(spans))
        if spans:
            sections.append(render_phase_totals(phase_totals(spans)))
            occupancy = stage_occupancy(spans)
            if occupancy:
                sections.append(render_stage_occupancy(occupancy))
    if snapshot is not None:
        table = phase_op_table(snapshot)
        if table:
            sections.append(render_phase_op_table(table))
    return "\n\n".join(sections) if sections else "nothing to report"
