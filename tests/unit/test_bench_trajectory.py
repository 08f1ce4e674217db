"""Unit tests for the perf-trajectory runner's non-timing machinery.

The timers themselves run for seconds (exercised by the CI bench-smoke
job and ``benchmarks/``); here we pin the artifact schema, the ratio
extraction, and the regression-gate arithmetic on fabricated payloads.
"""

import json

import pytest

from repro.bench.trajectory import (
    SCALES,
    TRAJECTORY_VERSION,
    check_regressions,
    main,
)


def payload(single=2.0, batch=4.5, obs=1.0):
    def stream_entry(speedup):
        return {
            "sprofile_eps": 2e6,
            "flat_eps": 2e6 * speedup,
            "speedup": speedup,
        }

    return {
        "version": TRAJECTORY_VERSION,
        "scale": "full",
        "rounds": 1,
        "python": "3.11",
        "paths": {
            "single_event_mode": {
                "workload": "fig-3 (fabricated)",
                "streams": {
                    "stream1": stream_entry(single),
                    "stream2": stream_entry(single),
                },
                "geomean_speedup": single,
            },
            "batch_ingest": {
                "workload": "batch (fabricated)",
                "sprofile_eps": 7e6,
                "flat_eps": 7e6 * batch,
                "array_eps": 7e6 * batch * 2.5,
                "speedup": batch,
                "array_speedup": 2.5,
            },
            "obs": {
                "workload": "obs (fabricated)",
                "obs_on_eps": 5e6 * obs,
                "obs_off_eps": 5e6,
                "overhead": obs,
            },
        },
    }


class TestCheckRegressions:
    def test_identical_payloads_pass(self):
        assert check_regressions(payload(), payload()) == []

    def test_small_drift_within_tolerance_passes(self):
        current = payload(single=1.6)  # 20% below the 2.0 baseline
        assert check_regressions(current, payload(), 0.30) == []

    def test_big_drop_fails_with_named_key(self):
        current = payload(batch=2.0)  # >50% below the 4.5 baseline
        problems = check_regressions(current, payload(), 0.30)
        assert len(problems) == 1
        assert "batch_ingest.speedup" in problems[0]

    def test_per_stream_ratios_are_gated(self):
        current = payload()
        current["paths"]["single_event_mode"]["streams"]["stream2"][
            "speedup"
        ] = 0.9
        problems = check_regressions(current, payload(), 0.30)
        assert any("stream2" in p for p in problems)

    def test_keys_missing_from_baseline_are_ignored(self):
        base = payload()
        del base["paths"]["obs"]
        current = payload(obs=0.1)
        assert check_regressions(current, base, 0.30) == []

    def test_improvements_never_fail(self):
        assert check_regressions(payload(single=9.9), payload()) == []

    def test_cross_scale_runs_are_never_compared(self):
        """Ratios shift with workload size; a quick run gated against
        a full-scale-only baseline must compare nothing rather than
        eat scale drift out of the tolerance."""
        current = payload(single=0.1, batch=0.1, obs=0.1)
        current["scale"] = "quick"
        assert check_regressions(current, payload(), 0.30) == []

    def test_both_scale_baseline_gates_matching_scale(self):
        quick_base = payload()
        quick_base["scale"] = "quick"
        both = payload()
        both["scale"] = "both"
        both["quick"] = quick_base
        good = payload()
        good["scale"] = "quick"
        assert check_regressions(good, both, 0.30) == []
        bad = payload(batch=1.0)
        bad["scale"] = "quick"
        problems = check_regressions(bad, both, 0.30)
        assert len(problems) == 1
        assert "quick.batch_ingest.speedup" in problems[0]

    def test_array_engine_ratio_is_gated(self):
        base = payload()
        base["paths"]["batch_ingest"]["array_speedup"] = 2.5
        bad = payload()
        bad["paths"]["batch_ingest"]["array_speedup"] = 1.2
        problems = check_regressions(bad, base, 0.30)
        assert len(problems) == 1
        assert "full.batch_ingest.array.speedup" in problems[0]


class TestScales:
    def test_both_scales_define_the_same_knobs(self):
        assert set(SCALES) == {"full", "quick"}
        assert set(SCALES["full"]) == set(SCALES["quick"])

    def test_quick_is_smaller(self):
        assert SCALES["quick"]["single_n"] < SCALES["full"]["single_n"]
        assert (
            SCALES["quick"]["batch_count"] < SCALES["full"]["batch_count"]
        )


class TestCliCheckPath:
    def test_missing_baseline_warns_but_passes(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.bench.trajectory.run_trajectory",
            lambda scale, **kw: payload(),
        )
        out = tmp_path / "out.json"
        code = main(
            [
                "--quick",
                "--out",
                str(out),
                "--check",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 0
        assert "first run" in capsys.readouterr().err
        assert json.loads(out.read_text())["version"] == TRAJECTORY_VERSION

    def test_regression_fails_unless_warn_only(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.bench.trajectory.run_trajectory",
            lambda scale, **kw: payload(batch=1.0),
        )
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(payload()))
        out = tmp_path / "out.json"
        args = ["--out", str(out), "--check", str(baseline)]
        assert main(args) == 1
        assert "REGRESSION" in capsys.readouterr().err
        assert main(args + ["--warn-only"]) == 0

    def test_gate_reads_the_baseline_before_writing_out(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--out`` on the ``--check`` path (both default to
        ``BENCH_core.json``) must not gate the run against itself, and
        the baseline stays byte-identical whether the gate fails or
        passes."""
        monkeypatch.setattr(
            "repro.bench.trajectory.run_trajectory",
            lambda scale, **kw: payload(batch=1.0),
        )
        baseline = tmp_path / "BENCH_core.json"
        baseline.write_text(json.dumps(payload()))
        before = baseline.read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["--check", "BENCH_core.json"]) == 1
        assert "REGRESSION" in capsys.readouterr().err
        assert baseline.read_bytes() == before

        # A passing run is not the baseline either: a quick-only
        # payload must not replace a committed one.
        monkeypatch.setattr(
            "repro.bench.trajectory.run_trajectory",
            lambda scale, **kw: payload(batch=9.0),
        )
        assert main(["--quick", "--check", "BENCH_core.json"]) == 0
        captured = capsys.readouterr()
        assert "regression gate passed" in captured.out
        assert "kept it" in captured.err
        assert baseline.read_bytes() == before

    def test_clean_run_reports_gate_passed(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.bench.trajectory.run_trajectory",
            lambda scale, **kw: payload(),
        )
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(payload()))
        code = main(
            ["--out", str(tmp_path / "o.json"), "--check", str(baseline)]
        )
        assert code == 0
        assert "gate passed" in capsys.readouterr().out


class TestCommittedArtifact:
    def test_repo_baseline_is_valid_and_meets_targets(self):
        """The committed BENCH_core.json parses, matches the schema,
        and records the tentpole's acceptance ratios."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        artifact = root / "BENCH_core.json"
        assert artifact.exists(), "BENCH_core.json must be committed"
        data = json.loads(artifact.read_text())
        assert data["version"] == TRAJECTORY_VERSION
        # Committed as a combined payload so CI's quick runs gate
        # against same-scale ratios.
        assert data["scale"] == "both"
        assert data["quick"]["scale"] == "quick"
        paths = data["paths"]
        single = paths["single_event_mode"]
        # Floor at 1.6, not the headline "~2x": regenerating the
        # artifact across sessions measures 1.7-2.06 — the shared box
        # drifts between host phases where the flat loop tops out near
        # 4.4M ev/s and phases near 3.8M while SProfile holds ~2.2M
        # (verified code-identical across sessions by interleaving
        # checkouts).  The ratio-to-ratio CI gate with 30% tolerance
        # is the real regression tripwire; this floor only keeps the
        # committed artifact from drifting away from the documented
        # 1.7-2x claim.
        assert single["geomean_speedup"] >= 1.6
        assert paths["batch_ingest"]["speedup"] >= 4.0
        for stream in ("stream1", "stream2", "stream3"):
            assert single["streams"][stream]["flat_eps"] > 0
        # The array engine's in-place dense rebuild against the list
        # engine — a same-core win the committed artifact must keep
        # showing at both scales.
        for section in (paths, data["quick"]["paths"]):
            batch = section["batch_ingest"]
            assert batch["array_eps"] > 0
            assert batch["array_speedup"] > 1.0


def serve_path(speedups, binary_speedups=None):
    """Fabricated serve entry: {client count -> speedup}."""
    top = str(max(int(c) for c in speedups))
    clients = {
        str(c): {
            "unbatched_eps": 10e3,
            "batched_eps": 10e3 * s,
            "speedup": s,
            "unbatched_p50_ms": 5.0,
            "unbatched_p99_ms": 9.0,
            "batched_p50_ms": 2.0,
            "batched_p99_ms": 4.0,
        }
        for c, s in speedups.items()
    }
    for c, s in (binary_speedups or {}).items():
        clients[str(c)].update(
            {
                "codec_json_eps": 300e3,
                "binary_eps": 300e3 * s,
                "binary_speedup": s,
                "binary_p50_ms": 1.0,
                "binary_p99_ms": 2.0,
            }
        )
    return {
        "workload": "serve (fabricated)",
        "events": 6400,
        "wire_batch": 64,
        "batch_max": 512,
        "clients": clients,
        "speedup": speedups[int(top)],
    }


class TestServeGate:
    """The serve path gates per client count, never via the headline."""

    def test_per_client_keys_gate(self):
        base = payload()
        base["paths"]["serve"] = serve_path({1: 8.0, 4: 7.0, 16: 6.0})
        bad = payload()
        bad["paths"]["serve"] = serve_path({1: 8.0, 4: 2.0, 16: 6.0})
        problems = check_regressions(bad, base, 0.30)
        assert len(problems) == 1
        assert "serve.c4" in problems[0]

    def test_binary_codec_ratio_gates_per_client_count(self):
        base = payload()
        base["paths"]["serve"] = serve_path(
            {1: 8.0, 16: 6.0}, {1: 9.0, 16: 9.0}
        )
        bad = payload()
        bad["paths"]["serve"] = serve_path(
            {1: 8.0, 16: 6.0}, {1: 9.0, 16: 3.0}
        )
        problems = check_regressions(bad, base, 0.30)
        assert len(problems) == 1
        assert "serve.binary.c16" in problems[0]

    def test_json_only_payload_never_gates_binary_keys(self):
        # A payload without binary entries (an older artifact) must
        # skip the binary key family, not fail it.
        base = payload()
        base["paths"]["serve"] = serve_path(
            {1: 8.0, 16: 6.0}, {1: 9.0, 16: 9.0}
        )
        current = payload()
        current["paths"]["serve"] = serve_path({1: 8.0, 16: 6.0})
        assert check_regressions(current, base, 0.30) == []

    def test_headline_speedup_is_not_a_gate_key(self):
        from repro.bench.trajectory import _speedup_entries

        entries = dict(
            _speedup_entries(
                {
                    "scale": "full",
                    "paths": {"serve": serve_path({1: 8.0, 16: 6.0})},
                }
            )
        )
        assert "full.serve.c1.speedup" in entries
        assert "full.serve.c16.speedup" in entries
        assert "full.serve.speedup" not in entries

    def test_serve_scale_knobs_exist_at_both_scales(self):
        for scale in ("full", "quick"):
            cfg = SCALES[scale]
            assert cfg["serve_clients"] == (1, 4, 16)
            assert cfg["serve_batch_max"] == 512
            assert cfg["serve_events"] % 16 == 0
            assert cfg["serve_codec_events"] % 16 == 0
            # Bulk-transfer frames: the codec duel needs every client
            # shipping multiple full frames even at 16 clients.
            assert cfg["serve_codec_events"] >= 16 * 2 * cfg["serve_codec_wire"]


class TestCommittedServeArtifact:
    def test_repo_baseline_meets_the_serving_bar(self):
        """The committed artifact must show micro-batching (batch-max
        512) sustaining >= 3x unbatched one-event-per-frame ingestion
        at 16 concurrent clients, at both scales, with ack-latency
        percentiles recorded."""
        import json as json_mod
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        data = json_mod.loads((root / "BENCH_core.json").read_text())
        for section in (data["paths"], data["quick"]["paths"]):
            serve = section["serve"]
            assert serve["batch_max"] == 512
            assert set(serve["clients"]) == {"1", "4", "16"}
            assert serve["clients"]["16"]["speedup"] >= 3.0
            assert serve["speedup"] == serve["clients"]["16"]["speedup"]
            for entry in serve["clients"].values():
                assert entry["unbatched_eps"] > 0
                assert entry["batched_eps"] > entry["unbatched_eps"]
                for key in (
                    "unbatched_p50_ms",
                    "unbatched_p99_ms",
                    "batched_p50_ms",
                    "batched_p99_ms",
                ):
                    assert entry[key] > 0

    def test_repo_baseline_meets_the_binary_codec_bar(self):
        """The committed artifact must show the binary codec beating
        JSON by >= 3x events/sec at 16 clients (both scales), measured
        at identical bulk-transfer batching knobs."""
        import json as json_mod
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        data = json_mod.loads((root / "BENCH_core.json").read_text())
        for section in (data["paths"], data["quick"]["paths"]):
            serve = section["serve"]
            assert serve["codec_wire"] >= 1024
            assert serve["binary_speedup"] >= 3.0
            top = serve["clients"]["16"]
            assert top["binary_speedup"] >= 3.0
            assert top["binary_eps"] > top["codec_json_eps"] > 0
            for entry in serve["clients"].values():
                assert entry["binary_speedup"] > 1.0
                assert entry["binary_p50_ms"] > 0
                assert entry["binary_p99_ms"] > 0


def cluster_path(cpus, speedups, failover=None):
    """Fabricated cluster entry: {replica count -> speedup}."""
    max_r = max(int(r) for r in speedups)
    out = {
        "workload": "cluster (fabricated)",
        "events": 16384,
        "wire_batch": 1024,
        "batch_max": 1024,
        "snapshot_every": 8,
        "codec": "binary",
        "cpus": cpus,
        "max_replicas": max_r,
        "direct_eps": 2e6,
        "replicas": {
            str(r): {"eps": 2e6 * s, "speedup": s}
            for r, s in speedups.items()
        },
        "speedup": speedups[max_r],
    }
    if failover is not None:
        promotion, migration = failover
        out["failover"] = {
            "workload": "failover (fabricated)",
            "prime_events": 8192,
            "promotion_ms": 50.0,
            "cold_restore_ms": 50.0 * promotion,
            "promotion_speed": promotion,
            "steady_eps": 150e3,
            "migrating_eps": 150e3 * migration,
            "migration_overhead": migration,
        }
    return out


class TestClusterGate:
    """Cluster ratios gate per replica count, within the core budget."""

    def test_replica_ratios_within_cpu_budget_are_gated(self):
        base = payload()
        base["paths"]["cluster"] = cluster_path(
            4, {1: 0.5, 2: 0.8, 4: 1.4}
        )
        bad = payload()
        bad["paths"]["cluster"] = cluster_path(
            4, {1: 0.5, 2: 0.2, 4: 1.4}
        )
        problems = check_regressions(bad, base, 0.30)
        assert len(problems) == 1
        assert "cluster.r2" in problems[0]

    def test_replica_ratios_beyond_cpu_budget_are_ignored(self):
        """A 1-core box hosting 4 replica subprocesses measures
        scheduling overhead, not replication — its r2/r4 ratios must
        not gate anything."""
        base = payload()
        base["paths"]["cluster"] = cluster_path(
            4, {1: 0.5, 2: 0.8, 4: 1.4}
        )
        current = payload()
        current["paths"]["cluster"] = cluster_path(
            1, {1: 0.5, 2: 0.1, 4: 0.05}
        )
        assert check_regressions(current, base, 0.30) == []

    def test_headline_speedup_is_not_a_gate_key(self):
        from repro.bench.trajectory import _speedup_entries

        entries = dict(
            _speedup_entries(
                {
                    "scale": "full",
                    "paths": {
                        "cluster": cluster_path(
                            2, {1: 0.5, 2: 0.8, 4: 1.4}
                        )
                    },
                }
            )
        )
        assert "full.cluster.r1.speedup" in entries
        assert "full.cluster.r2.speedup" in entries
        assert "full.cluster.r4.speedup" not in entries
        assert "full.cluster.speedup" not in entries

    def test_failover_ratios_are_gated(self):
        base = payload()
        base["paths"]["cluster"] = cluster_path(
            4, {1: 0.5, 2: 0.8, 4: 1.4}, failover=(1.2, 0.4)
        )
        slow_promote = payload()
        slow_promote["paths"]["cluster"] = cluster_path(
            4, {1: 0.5, 2: 0.8, 4: 1.4}, failover=(0.4, 0.4)
        )
        problems = check_regressions(slow_promote, base, 0.30)
        assert len(problems) == 1
        assert "cluster.failover.promotion_speed" in problems[0]

        slow_migrate = payload()
        slow_migrate["paths"]["cluster"] = cluster_path(
            4, {1: 0.5, 2: 0.8, 4: 1.4}, failover=(1.2, 0.1)
        )
        problems = check_regressions(slow_migrate, base, 0.30)
        assert len(problems) == 1
        assert "cluster.failover.migration_overhead" in problems[0]

    def test_failover_ratios_gate_even_on_one_core(self):
        """promotion_speed and migration_overhead are self-normalizing
        (same box runs both legs), so unlike the r2/r4 throughput
        ratios they gate without cpu scoping."""
        base = payload()
        base["paths"]["cluster"] = cluster_path(
            4, {1: 0.5, 2: 0.8, 4: 1.4}, failover=(1.2, 0.4)
        )
        current = payload()
        current["paths"]["cluster"] = cluster_path(
            1, {1: 0.5, 2: 0.8, 4: 1.4}, failover=(0.3, 0.4)
        )
        problems = check_regressions(current, base, 0.30)
        assert len(problems) == 1
        assert "cluster.failover.promotion_speed" in problems[0]

    def test_payload_without_failover_yields_no_failover_keys(self):
        from repro.bench.trajectory import _speedup_entries

        entries = dict(
            _speedup_entries(
                {
                    "scale": "full",
                    "paths": {
                        "cluster": cluster_path(
                            2, {1: 0.5, 2: 0.8, 4: 1.4}
                        )
                    },
                }
            )
        )
        assert not any("failover" in key for key in entries)

    def test_cluster_scale_knobs_exist_at_both_scales(self):
        for scale in ("full", "quick"):
            cfg = SCALES[scale]
            assert cfg["cluster_m"] >= cfg["cluster_wire"]
            assert cfg["cluster_events"] % cfg["cluster_wire"] == 0
            # The timed stream must cross several snapshot cycles so
            # the steady-state recovery-machinery price is measured.
            frames = cfg["cluster_events"] // cfg["cluster_wire"]
            assert frames >= 2 * cfg["cluster_snapshot_every"]


class TestCommittedClusterArtifact:
    def test_repo_baseline_records_the_replicated_tier(self):
        """The committed artifact carries the cluster path at both
        scales: router + 1/2/4 replicas vs direct serve, with the
        machine's core count scoping what the gate may compare."""
        import json as json_mod
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        data = json_mod.loads((root / "BENCH_core.json").read_text())
        for section in (data["paths"], data["quick"]["paths"]):
            clu = section["cluster"]
            assert clu["cpus"] >= 1
            assert set(clu["replicas"]) == {"1", "2", "4"}
            assert clu["direct_eps"] > 0
            assert clu["snapshot_every"] >= 1
            for entry in clu["replicas"].values():
                assert entry["eps"] > 0
                assert entry["speedup"] > 0
            assert (
                clu["speedup"]
                == clu["replicas"][str(clu["max_replicas"])]["speedup"]
            )

    def test_repo_baseline_config_matches_the_scales(self):
        """The committed artifact was measured with today's knobs: its
        recorded config has exactly the keys ``SCALES`` defines (no
        knob a past version had and this one lost, like linger)."""
        import json as json_mod
        from pathlib import Path

        from repro.bench.trajectory import SCALES

        root = Path(__file__).resolve().parents[2]
        data = json_mod.loads((root / "BENCH_core.json").read_text())
        # The knobs of the retired sharded_batch and fused_plan paths
        # stay in the committed artifact until it is next regenerated;
        # no other past knob may.
        retired = {"shard_m", "shards", "plan_n", "plan_m", "plan_reps"}
        assert set(data["config"]) - retired == set(SCALES["full"])
        assert set(data["quick"]["config"]) - retired == set(
            SCALES["quick"]
        )

    def test_repo_baseline_records_failover(self):
        """Both scales carry the failover block: promotion downtime
        against a cold restore of the same state, plus the
        double-write migration duel, with migration always costing
        something (steady > migrating throughput)."""
        import json as json_mod
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        data = json_mod.loads((root / "BENCH_core.json").read_text())
        for section in (data["paths"], data["quick"]["paths"]):
            failover = section["cluster"]["failover"]
            assert failover["prime_events"] >= 1
            assert failover["promotion_ms"] > 0
            assert failover["cold_restore_ms"] > 0
            speed = failover["cold_restore_ms"] / failover["promotion_ms"]
            assert abs(failover["promotion_speed"] - speed) < 1e-6
            assert failover["steady_eps"] > failover["migrating_eps"] > 0
            assert 0 < failover["migration_overhead"] < 1
            ratio = failover["migrating_eps"] / failover["steady_eps"]
            assert abs(failover["migration_overhead"] - ratio) < 1e-6
