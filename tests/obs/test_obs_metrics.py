"""Metrics registry semantics: naming, labels, pull, snapshot/delta/merge.

The cross-rank merge rules (counters/histograms sum, gauges keep the
first rank) are what make "W=2 rank-merge equals serial accounting" a
provable invariant in the integration tests.
"""

import pytest

from repro import obs


class TestNaming:
    def test_valid_names_accepted(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_dist_grad_wire_bytes")
        reg.histogram("repro_engine_batch_seconds")

    @pytest.mark.parametrize(
        "bad",
        ["grad_bytes", "repro_bytes", "repro-dist-bytes", "repro_Dist_bytes", ""],
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError, match="repro_<subsystem>_<name>"):
            obs.MetricsRegistry().counter(bad)

    def test_kind_conflict_rejected(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_dist_sync_bytes")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("repro_dist_sync_bytes")


class TestCounter:
    def test_inc_and_labels(self):
        counter = obs.MetricsRegistry().counter("repro_engine_batches_total")
        counter.inc(phase="bp")
        counter.inc(2, phase="bp")
        counter.inc(phase="gp")
        assert counter.value(phase="bp") == 3
        assert counter.value(phase="gp") == 1
        assert counter.total() == 4

    def test_label_order_is_canonical(self):
        counter = obs.MetricsRegistry().counter("repro_backend_dispatch_total")
        counter.inc(op="conv", path="native")
        counter.inc(path="native", op="conv")
        assert counter.value(op="conv", path="native") == 2

    def test_monotone(self):
        counter = obs.MetricsRegistry().counter("repro_engine_batches_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_inc_keeps_integer_totals_exact(self):
        counter = obs.MetricsRegistry().counter("repro_dist_sync_bytes")
        counter.inc(17_000)
        counter.inc(123)
        assert counter.value() == 17_123
        assert isinstance(counter.value(), int)


class TestHistogram:
    def test_histogram_buckets(self):
        hist = obs.MetricsRegistry().histogram(
            "repro_engine_batch_seconds", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 3.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(3.55)
        snap = hist.snapshot()["series"][""]
        assert snap["counts"] == [1, 1, 1]  # ≤0.1, ≤1.0, overflow


class TestSnapshotDelta:
    def test_delta_subtracts_counters_passes_gauges(self):
        reg = obs.MetricsRegistry()
        counter = reg.counter("repro_dist_sync_bytes")
        gauge = _Owner([("repro_backend_pool_outstanding", "gauge", 4, {})])
        reg.attach(gauge)
        hist = reg.histogram("repro_engine_batch_seconds", buckets=(1.0,))
        counter.inc(10)
        hist.observe(0.5)
        first = reg.snapshot()
        counter.inc(7)
        gauge.rows = [("repro_backend_pool_outstanding", "gauge", 9, {})]
        hist.observe(2.0)
        delta = obs.MetricsRegistry.delta(reg.snapshot(), first)
        assert delta["repro_dist_sync_bytes"]["series"][""] == 7
        assert delta["repro_backend_pool_outstanding"]["series"][""] == 9
        hrow = delta["repro_engine_batch_seconds"]["series"][""]
        assert hrow["count"] == 1 and hrow["counts"] == [0, 1]

    def test_snapshot_is_json_safe_plain_data(self, tmp_path):
        reg = obs.MetricsRegistry()
        reg.counter("repro_dist_sync_bytes").inc(3, phase="bp")
        path = tmp_path / "snap.json"
        obs.dump_snapshot(reg.snapshot(), path)
        assert obs.load_snapshot(path) == reg.snapshot()


class _Owner:
    """Anything with ``metrics()`` — the whole pull contract."""

    def __init__(self, rows):
        self.rows = rows

    def metrics(self):
        return list(self.rows)


class TestAttach:
    def test_owner_is_read_when_the_snapshot_is_taken(self):
        reg = obs.MetricsRegistry()
        owner = _Owner([("repro_dist_sync_bytes", "counter", 3, {})])
        reg.attach(owner)
        first = reg.snapshot()
        owner.rows = [("repro_dist_sync_bytes", "counter", 10, {})]
        assert first["repro_dist_sync_bytes"]["series"][""] == 3
        later = reg.snapshot()
        assert later["repro_dist_sync_bytes"] == {"kind": "counter", "series": {"": 10}}
        # A window is a delta the reader takes.
        delta = obs.MetricsRegistry.delta(later, first)
        assert delta["repro_dist_sync_bytes"]["series"][""] == 7

    def test_attach_labels_join_the_owners(self):
        reg = obs.MetricsRegistry()
        rows = [("repro_passes_fold_hits", "counter", 2, {"op": "conv"})]
        reg.attach(_Owner(rows), pass_name="a")
        keep = _Owner(rows)
        reg.attach(keep, pass_name="b")
        # The first owner was never referenced again: only "b" is alive.
        assert reg.snapshot()["repro_passes_fold_hits"]["series"] == {
            "op=conv,pass_name=b": 2
        }

    def test_same_series_from_two_owners_sums_and_joins_pushed(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_engine_batches").inc(1, phase="bp")
        owners = [
            _Owner([("repro_engine_batches", "counter", n, {"phase": "bp"})])
            for n in (2, 4)
        ]
        for owner in owners:
            reg.attach(owner)
            reg.attach(owner)  # re-attaching replaces, never double counts
        assert reg.snapshot()["repro_engine_batches"]["series"]["phase=bp"] == 7

    def test_pulled_gauge_reads_the_owners_latest_row(self):
        reg = obs.MetricsRegistry()
        owner = _Owner([("repro_backend_pool_outstanding", "gauge", 5, {})])
        reg.attach(owner)
        owner.rows = [("repro_backend_pool_outstanding", "gauge", 2, {})]
        assert reg.snapshot()["repro_backend_pool_outstanding"] == {
            "kind": "gauge", "series": {"": 2}
        }

    def test_same_gauge_series_from_two_owners_keeps_the_first(self):
        reg = obs.MetricsRegistry()
        owners = [
            _Owner([("repro_backend_pool_outstanding", "gauge", level, {})])
            for level in (3, 8)
        ]
        for owner in owners:
            reg.attach(owner)
        assert reg.snapshot()["repro_backend_pool_outstanding"]["series"][""] == 3

    def test_kind_conflict_and_bad_rows_rejected(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_dist_sync_bytes").inc()
        clash = _Owner([("repro_dist_sync_bytes", "gauge", 1, {})])
        reg.attach(clash)
        with pytest.raises(TypeError, match="conflicting kinds"):
            reg.snapshot()
        for rows, error in (
            ([("sync_bytes", "counter", 1, {})], "repro_<subsystem>_<name>"),
            ([("repro_dist_sync_bytes", "histogram", 1, {})], "counters or gauges"),
        ):
            reg = obs.MetricsRegistry()
            owner = _Owner(rows)
            reg.attach(owner)
            with pytest.raises(ValueError, match=error):
                reg.snapshot()
        with pytest.raises(TypeError, match="no metrics"):
            obs.MetricsRegistry().attach(object())

    def test_owner_is_held_weakly_and_clear_detaches(self):
        reg = obs.MetricsRegistry()
        owner = _Owner([("repro_dist_sync_bytes", "counter", 3, {})])
        reg.attach(owner)
        assert reg.snapshot()
        del owner
        assert reg.snapshot() == {}
        owner = _Owner([("repro_dist_sync_bytes", "counter", 3, {})])
        reg.attach(owner)
        reg.clear()
        assert reg.snapshot() == {}


class TestMerge:
    def test_rank_merge_equals_serial_accounting(self):
        """Two ranks each doing half the work merge to the serial total."""
        serial = obs.MetricsRegistry()
        ranks = [obs.MetricsRegistry() for _ in range(2)]
        for step in range(10):
            serial.counter("repro_dist_grad_wire_bytes").inc(100, phase="bp")
            serial.histogram(
                "repro_engine_batch_seconds", buckets=(1.0,)
            ).observe(0.5)
            rank = ranks[step % 2]
            rank.counter("repro_dist_grad_wire_bytes").inc(100, phase="bp")
            rank.histogram(
                "repro_engine_batch_seconds", buckets=(1.0,)
            ).observe(0.5)
        merged = obs.merge_snapshots([r.snapshot() for r in ranks])
        assert merged == serial.snapshot()

    def test_gauges_keep_first_rank(self):
        ranks = [obs.MetricsRegistry() for _ in range(2)]
        owners = [
            _Owner([("repro_backend_pool_outstanding", "gauge", level, {})])
            for level in (1, 7)
        ]
        for rank, owner in zip(ranks, owners):
            rank.attach(owner)
        merged = obs.merge_snapshots([r.snapshot() for r in ranks])
        assert merged["repro_backend_pool_outstanding"]["series"][""] == 1

    def test_kind_conflict_across_ranks_rejected(self):
        a = obs.MetricsRegistry()
        b = obs.MetricsRegistry()
        a.counter("repro_dist_sync_bytes").inc()
        owner = _Owner([("repro_dist_sync_bytes", "gauge", 1, {})])
        b.attach(owner)
        with pytest.raises(TypeError, match="conflicting kinds"):
            obs.merge_snapshots([a.snapshot(), b.snapshot()])


class TestGlobalRegistry:
    def test_set_registry_swaps_and_restores(self):
        fresh = obs.MetricsRegistry()
        previous = obs.set_registry(fresh)
        try:
            assert obs.registry() is fresh
        finally:
            obs.set_registry(previous)
        assert obs.registry() is previous
