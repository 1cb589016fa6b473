"""Metrics registry: counters, histograms and pulled gauges with label sets.

Naming follows ``repro_<subsystem>_<name>`` (enforced by a regex, for
pushed and pulled series alike) so a snapshot is self-describing:
``repro_dist_grad_wire_bytes``, ``repro_backend_pool_hits``,
``repro_engine_batches``.

A count has one owner.  Subsystems that already keep their own plain
integers (``CommStats``, ``WorkspacePool``, ``ThroughputTimer``, fold
caches, native dispatch, the adaptive schedule) are *pulled*: each
exposes ``metrics() -> [(name, kind, value, labels), ...]``,
:meth:`MetricsRegistry.attach` registers the object weakly, and
:meth:`MetricsRegistry.snapshot` asks it at that moment.  The registry
holds no copy, so "snapshot comm counters equal ``CommStats`` exactly"
is true by construction and a mid-epoch snapshot is current.  Counts
with no other home (``ProfilingBackend``'s op counters) are *pushed*
into :class:`Counter` / :class:`Histogram` instruments the registry
does own.

Semantics:

* counter — monotone totals; ``merge`` sums across ranks.
* gauge (pulled rows only) — a point-in-time level; ``merge`` keeps the
  first rank's value (rank-local level, e.g. outstanding buffers).
* histogram — fixed-bucket counts + sum/count; ``merge`` sums.

``snapshot()`` returns a plain nested dict (JSON-ready), ``delta()``
subtracts an earlier snapshot (gauges pass through), and
``merge_snapshots`` folds per-rank snapshots into cluster totals with
the same per-type rules — so a W=2 run merged equals one serial run's
accounting when the underlying work is identical.

Like ``trace``, this module imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

import json
import re
import weakref
from typing import Iterable, Mapping, Optional, Sequence

_NAME_RE = re.compile(r"^repro_[a-z0-9]+(_[a-z0-9]+)+$")

#: Default histogram buckets — powers of 4 from 1µs to ~4s, a decent
#: spread for op/step latencies in seconds.
DEFAULT_BUCKETS = tuple(4.0**e for e in range(-10, 2))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} does not match repro_<subsystem>_<name> "
            "(lowercase, underscore-separated, at least three segments "
            "counting the repro_ prefix)"
        )
    return name


def _label_key(labels: Optional[Mapping[str, object]]) -> tuple:
    """Canonical hashable key for a label set (sorted (k, str(v)) pairs)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared per-name state: a dict of label-key -> series."""

    kind = "abstract"

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._series: dict[tuple, object] = {}

    def _snap_value(self, value):
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "series": {
                _format_labels(key): self._snap_value(value)
                for key, value in sorted(self._series.items())
            },
        }


def _format_labels(key: tuple) -> str:
    """Stable string form of a label key: ``""`` or ``k=v,k2=v2``."""
    return ",".join(f"{k}={v}" for k, v in key)


class Counter(_Instrument):
    """Monotone total: ``inc`` is the only way to move it."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0)

    def total(self) -> float:
        return sum(self._series.values())

    def _snap_value(self, value):
        return value


class Histogram(_Instrument):
    """Fixed-bucket histogram with sum and count per label set."""

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self._series[key] = series
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        series["counts"][idx] += 1
        series["sum"] += value
        series["count"] += 1

    def sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series["sum"] if series else 0.0

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series["count"] if series else 0

    def _snap_value(self, value):
        return {
            "counts": list(value["counts"]),
            "sum": value["sum"],
            "count": value["count"],
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named instrument store with snapshot/delta/merge semantics.

    ``counter``/``histogram`` are get-or-create: repeated
    calls with the same name return the same instrument, so callers can
    look instruments up without threading references.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        # (id(owner), extra label key) -> owner, weakly; see attach().
        self._owners = weakref.WeakValueDictionary()

    def _get_or_create(self, cls, name: str, **kwargs):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, **kwargs)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"requested {cls.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(Counter, name)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, buckets=buckets)

    def clear(self) -> None:
        self._instruments = {}
        self._owners.clear()

    def attach(self, owner, **labels) -> None:
        """Read ``owner.metrics()`` at every :meth:`snapshot` from now on.

        ``metrics()`` returns ``(name, kind, value, labels)`` rows with
        ``kind`` ``"counter"`` or ``"gauge"``; ``labels`` given here join
        every row (how one pass's fold cache is told from another's).
        The owner is held weakly — its series leave the snapshot when it
        dies, and attaching never keeps an engine alive — and attaching
        it again under the same labels changes nothing.
        """
        if not callable(getattr(owner, "metrics", None)):
            raise TypeError(f"{owner!r} has no metrics() to read")
        self._owners[id(owner), _label_key(labels)] = owner

    # -- snapshot / delta ------------------------------------------------
    def snapshot(self) -> dict:
        """Plain nested dict: ``{name: {"kind": ..., "series": {...}}}``
        — the pushed instruments plus every attached, still-alive
        owner's rows as of this call, folded in by
        :func:`merge_snapshots`' rules (kind conflicts raise, two owners
        reporting one counter series sum, the first gauge wins)."""
        parts = [{name: inst.snapshot() for name, inst in self._instruments.items()}]
        for (_, extra), owner in list(self._owners.items()):
            for name, kind, value, labels in owner.metrics():
                if kind not in ("counter", "gauge"):
                    raise ValueError(
                        f"{name}: pulled metrics are counters or gauges, got {kind!r}"
                    )
                label = _format_labels(_label_key({**labels, **dict(extra)}))
                parts.append(
                    {_check_name(name): {"kind": kind, "series": {label: value}}}
                )
        return dict(sorted(merge_snapshots(parts).items()))

    @staticmethod
    def delta(later: dict, earlier: dict) -> dict:
        """``later - earlier`` per series; counters/histograms subtract,
        gauges pass through ``later`` unchanged."""
        out = {}
        for name, entry in later.items():
            kind = entry["kind"]
            base = earlier.get(name, {"series": {}})
            series_out = {}
            for label, value in entry["series"].items():
                prev = base["series"].get(label)
                if kind == "gauge" or prev is None:
                    series_out[label] = value
                elif kind == "histogram":
                    series_out[label] = {
                        "counts": [
                            a - b
                            for a, b in zip(value["counts"], prev["counts"])
                        ],
                        "sum": value["sum"] - prev["sum"],
                        "count": value["count"] - prev["count"],
                        "buckets": list(value["buckets"]),
                    }
                else:
                    series_out[label] = value - prev
            out[name] = {"kind": kind, "series": series_out}
        return out


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-rank snapshots into cluster totals.

    Counters and histograms sum element-wise; gauges keep the first
    rank's value (rank-local levels do not aggregate meaningfully — a
    merged "outstanding buffers" total would describe no real process).
    """
    merged: dict = {}
    for snap in snapshots:
        for name, entry in snap.items():
            kind = entry["kind"]
            target = merged.setdefault(name, {"kind": kind, "series": {}})
            if target["kind"] != kind:
                raise TypeError(
                    f"metric {name!r} has conflicting kinds: "
                    f"{target['kind']} vs {kind}"
                )
            for label, value in entry["series"].items():
                existing = target["series"].get(label)
                if existing is None:
                    target["series"][label] = (
                        dict(value) if isinstance(value, dict) else value
                    )
                elif kind == "gauge":
                    pass  # first rank wins
                elif kind == "histogram":
                    existing["counts"] = [
                        a + b for a, b in zip(existing["counts"], value["counts"])
                    ]
                    existing["sum"] += value["sum"]
                    existing["count"] += value["count"]
                else:
                    target["series"][label] = existing + value
    return merged


def dump_snapshot(snapshot: dict, path) -> None:
    """Write ``snapshot`` as strict JSON (a NaN / infinite value raises
    instead of emitting a token other parsers reject)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, allow_nan=False)


def load_snapshot(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry (callbacks and the profiler default to it)."""
    return _registry


def set_registry(new: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install a fresh global registry (``None`` -> new empty one);
    returns the previous registry (tests swap and restore)."""
    global _registry
    previous = _registry
    _registry = new if new is not None else MetricsRegistry()
    return previous
