"""Unit tests for the observability layer.

The registry's exactness contracts (thread-exact counters, bucket-wise
histogram merges), the Prometheus text rendering, JSON hygiene for
status payloads, structured logging's two formats, the no-op mode, and
the `metrics` wire op + client-minted trace ids over a real served
socket.  The cross-tier trace propagation (client -> router ->
replica) lives in ``tests/integration/test_cluster_e2e.py``.
"""

import json
import logging
import threading

import pytest

from repro.api import Profiler
from repro.bench.reporting import percentiles
from repro.obs.prometheus import mangle, render_prometheus
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    json_sanitize,
    merge_snapshots,
    mint_trace_id,
    null_registry,
    resolve_registry,
)
from repro.obs.structlog import configure_logging, log_event
from repro.server import ProfileClient, ServerThread


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.inc(3)
        assert reg.counter("a.b") is c
        assert reg.counter("a.b").value == 3

    def test_kind_conflict_is_a_hard_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_snapshot_is_sorted_and_sectioned(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc()
        reg.counter("a.count").inc(2)
        reg.gauge("depth").set(7)
        reg.histogram("lat", bounds=(1.0, 10.0)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["gauges"] == {"depth": 7}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_detail_false_skips_buckets_and_percentiles(self):
        reg = MetricsRegistry()
        reg.histogram("lat", bounds=(1.0,)).observe(2.0)
        h = reg.snapshot(detail=False)["histograms"]["lat"]
        assert "buckets" not in h and "percentiles" not in h
        assert h["count"] == 1 and h["sum"] == 2.0

    def test_resolve_registry_knob(self):
        reg = MetricsRegistry()
        assert resolve_registry(reg) is reg
        assert resolve_registry(False) is null_registry
        assert resolve_registry(None).enabled in (True, False)
        with pytest.raises(ValueError, match="obs must be"):
            resolve_registry("yes")

    def test_mint_trace_id_is_16_hex_and_unique(self):
        ids = {mint_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


class TestCounterThreadExactness:
    def test_concurrent_increments_are_exact(self):
        c = Counter("hits")
        threads, per_thread = 8, 10_000
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                c.inc()

        ts = [threading.Thread(target=work) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert c.value == threads * per_thread


class TestHistogram:
    def test_percentiles_agree_with_bench_reporting(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        samples = [float(v) for v in range(1, 101)]
        for v in samples:
            h.observe(v)
        assert h.percentiles() == percentiles(samples, (50, 95, 99))
        snap = h.snapshot()
        assert snap["percentiles"]["p99"] == percentiles(samples)[99]

    def test_bucket_counts_partition_the_observations(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 50.0):
            h.observe(v)
        # bisect_left: <=1.0 -> slot 0, (1.0, 10.0] -> slot 1, rest
        # overflow.  Exactly one slot per observation.
        assert sum(h.counts) == h.count == 4
        assert h.vmin == 0.5 and h.vmax == 50.0

    def test_reservoir_keeps_the_recent_window(self):
        h = Histogram("lat", bounds=(1.0,), sample_cap=4)
        for v in range(10):
            h.observe(float(v))
        assert len(h.samples) == 4
        assert h.count == 10
        assert set(h.samples) <= {float(v) for v in range(10)}

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="bucket bounds"):
            Histogram("lat", bounds=())


class TestMergeSnapshots:
    def test_counters_add_gauges_add_histograms_fold(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        a.gauge("depth").set(5)
        b.gauge("depth").set(2)
        for reg, values in ((a, (0.5, 2.0)), (b, (20.0,))):
            h = reg.histogram("lat", bounds=(1.0, 10.0))
            for v in values:
                h.observe(v)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["n"] == 7
        assert merged["gauges"]["depth"] == 7
        h = merged["histograms"]["lat"]
        assert h["count"] == 3
        assert h["min"] == 0.5 and h["max"] == 20.0
        # Bucket-wise: one <=1.0, one <=10.0, one overflow.
        assert [n for _b, n in h["buckets"]] == [1, 1, 1]

    def test_merge_matches_per_worker_registries(self):
        # Separate processes count privately; whoever collects the
        # snapshots folds them exactly.
        workers = [MetricsRegistry() for _ in range(4)]
        for i, reg in enumerate(workers):
            reg.counter("events").inc(10 * (i + 1))
        merged = merge_snapshots(reg.snapshot() for reg in workers)
        assert merged["counters"]["events"] == 10 + 20 + 30 + 40

    def test_empty_snapshots_are_ignored(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        assert merge_snapshots([{}, reg.snapshot(), {}])["counters"] == {
            "n": 1
        }


class TestNullMode:
    def test_null_instruments_are_shared_noops(self):
        reg = NullRegistry()
        assert not reg.enabled
        assert reg.counter("a") is reg.counter("b")
        reg.counter("a").inc(5)
        reg.gauge("g").set(9)
        reg.histogram("h").observe(1.0)
        reg.spans.record("stage", trace="t")
        assert reg.counter("a").value == 0
        assert reg.snapshot() == {}
        assert reg.spans.snapshot() == []

    def test_facade_obs_false_snapshot_is_empty(self):
        with Profiler.open(100, backend="flat", obs=False) as p:
            p.ingest([(1, 2), (3, 1)])
            assert p.metrics_snapshot() == {}
        # Zero registry allocations per ingest: the null registry
        # never materializes instruments, so its instrument table is
        # empty after the whole facade lifecycle counted into it.
        assert null_registry._instruments == {}
        assert len(null_registry.spans) == 0

    def test_facade_obs_registry_counts_ingest(self):
        reg = MetricsRegistry()
        with Profiler.open(100, backend="flat", obs=reg) as p:
            p.ingest([(1, 2), (3, 1)])
            snap = p.metrics_snapshot()
        assert snap["counters"]["profiler.ingest.batches"] == 1
        assert snap["counters"]["profiler.ingest.events"] == 2


class TestApproxErrorGauges:
    def test_observed_error_state_is_scrapeable(self):
        reg = MetricsRegistry()
        with Profiler.open(
            backend="approx", keys="hashable", counters=8, obs=reg
        ) as p:
            p.ingest([(f"k{i}", 1) for i in range(100)])
            snap = p.metrics_snapshot()
        gauges = snap["gauges"]
        assert gauges["approx.countmin.error_bound"] >= 0
        assert gauges["approx.countmin.eps_estimate"] >= 0
        # 100 distinct keys over 8 monitors: evictions must have
        # inflated some estimate.
        assert gauges["approx.spacesaving.max_overcount"] > 0


class TestPrometheusRender:
    def test_mangle(self):
        assert mangle("server.ingest.events") == "repro_server_ingest_events"
        assert mangle("2pc.commits") == "repro__2pc_commits"

    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("server.ingest.events").inc(5)
        reg.gauge("server.queue.depth").set(3)
        h = reg.histogram("lat_ms", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        text = render_prometheus(reg.snapshot(), labels={"tier": "server"})
        lines = text.splitlines()
        assert "# TYPE repro_server_ingest_events_total counter" in lines
        assert (
            'repro_server_ingest_events_total{tier="server"} 5' in lines
        )
        assert 'repro_server_queue_depth{tier="server"} 3' in lines
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'repro_lat_ms_bucket{tier="server",le="1"} 1' in lines
        assert 'repro_lat_ms_bucket{tier="server",le="10"} 2' in lines
        assert 'repro_lat_ms_bucket{tier="server",le="+Inf"} 3' in lines
        assert 'repro_lat_ms_count{tier="server"} 3' in lines
        assert text.endswith("\n")

    def test_empty_snapshot_is_a_valid_scrape(self):
        assert render_prometheus({}) == ""


class TestJsonSanitize:
    def test_numpy_scalars_become_native(self):
        np = pytest.importorskip("numpy")
        out = json_sanitize(
            {"seq": np.int64(7), "lag": np.float64(0.5), "ok": True}
        )
        assert out == {"lag": 0.5, "ok": True, "seq": 7}
        assert type(out["seq"]) is int and type(out["lag"]) is float

    def test_keys_sorted_and_containers_normalized(self):
        out = json_sanitize({"b": (1, 2), "a": {3, 1}})
        assert list(out) == ["a", "b"]
        assert out == {"a": [1, 3], "b": [1, 2]}
        json.dumps(out)  # strictly serializable


class TestStructuredLogging:
    def _capture(self, log_format):
        import io

        stream = io.StringIO()
        logger = configure_logging(log_format, stream=stream)
        return logging.getLogger("repro.server"), stream, logger

    def test_plain_format_is_the_bare_message(self):
        log, stream, _ = self._capture("plain")
        log_event(log, "listening on 127.0.0.1:7421", event="listening")
        assert stream.getvalue() == "listening on 127.0.0.1:7421\n"

    def test_json_format_is_sorted_objects_with_fields(self):
        log, stream, _ = self._capture("json")
        log_event(log, "drained: 3 batches", event="drained", batches=3)
        doc = json.loads(stream.getvalue())
        assert doc["msg"] == "drained: 3 batches"
        assert doc["event"] == "drained" and doc["batches"] == 3
        assert list(doc) == sorted(doc)

    def test_reconfigure_never_stacks_handlers(self):
        _, _, root = self._capture("plain")
        for _ in range(3):
            root = configure_logging("json")
        assert len(root.handlers) == 1
        configure_logging("plain")  # leave the tree in default shape

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown log format"):
            configure_logging("yaml")


class TestServedMetricsAndTrace:
    @pytest.fixture()
    def served(self):
        reg = MetricsRegistry()
        prof = Profiler.open(1000, backend="flat", obs=reg)
        with ServerThread(prof, obs=reg) as server:
            yield server

    def test_metrics_wire_op_returns_the_registry(self, served):
        with ProfileClient(served.host, served.port) as client:
            client.ingest([(1, 2), (2, 1)])
            snap = client.metrics()
        assert snap["metrics"]["counters"]["server.ingest.batches"] >= 1
        assert snap["metrics"]["counters"]["server.ingest.events"] >= 2
        json.dumps(snap)  # wire payloads are strictly JSON-clean

    def test_client_minted_trace_id_stamps_spans(self, served):
        with ProfileClient(served.host, served.port, trace=True) as client:
            trace = client.trace
            assert trace and len(trace) == 16
            client.ingest([(5, 3)])
            spans = client.metrics()["spans"]
        named = {s["name"] for s in spans if s.get("trace") == trace}
        assert "server.hello" in named
        assert "server.queue_wait" in named

    def test_explicit_trace_id_passes_through(self, served):
        with ProfileClient(
            served.host, served.port, trace="feedfacecafebeef"
        ) as client:
            assert client.trace == "feedfacecafebeef"
            client.ingest([(1, 1)])
            spans = client.metrics()["spans"]
        assert any(s.get("trace") == "feedfacecafebeef" for s in spans)

    def test_untraced_client_has_no_trace(self, served):
        with ProfileClient(served.host, served.port) as client:
            assert client.trace is None
            client.ingest([(1, 1)])

    def test_noop_server_answers_metrics_empty(self):
        prof = Profiler.open(100, backend="flat", obs=False)
        with ServerThread(prof, obs=False) as server:
            with ProfileClient(server.host, server.port) as client:
                client.ingest([(1, 1)])
                snap = client.metrics()
        assert snap["metrics"] == {}
        assert snap["spans"] == []
