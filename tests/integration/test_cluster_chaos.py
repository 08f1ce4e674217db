"""Chaos integration tests: real processes, real signals, real disk.

The acceptance gates of the hardened tier:

- ``python -m repro.cluster --journal-dir`` SIGKILLed mid-stream (with
  a replica SIGKILL and scheduled delays thrown in) must lose zero
  acknowledged events: a cold process on the same directories recovers
  to a state bit-identical to a directly driven facade fed some
  send-order prefix containing every acked batch, then drains cleanly.
- A SIGSTOP-frozen replica under ``--replica-timeout`` fails only its
  own partitions — typed, retryable, within the deadline — while the
  other partitions keep ingesting; SIGCONT heals it and the journal
  replay delivers the batches acked while it was dark.
- A scheduled in-process router crash (``--faults ...:crash``) exits
  the CLI with code 1 instead of serving a corpse.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import ModeResult, Profiler, Query
from repro.errors import ReplicaUnavailableError
from repro.server import AsyncProfileClient, ProfileClient

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn_cluster(tmp_path, boot, *extra, capacity=300, replicas=2):
    """Boot ``python -m repro.cluster`` and wait for its port."""
    port_file = tmp_path / f"router-{boot}.port"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cluster",
            "--capacity",
            str(capacity),
            "--replicas",
            str(replicas),
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--workdir",
            str(tmp_path / "replicas"),
            "--snapshot-every",
            "8",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=subprocess_env(),
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text())
        if proc.poll() is not None:
            raise AssertionError(
                f"cluster died at startup:\n{proc.stdout.read()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("cluster never wrote its port file")


def replica_pid(tmp_path, p):
    return int((tmp_path / "replicas" / f"replica-{p}.pid").read_text())


def cluster_status(port):
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cluster",
            "--status",
            "--port",
            str(port),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout)


class TestRouterSigkill:
    M = 300

    def test_sigkill_mid_stream_loses_no_acked_event(self, tmp_path):
        """The chaos smoke: delays scheduled, one replica SIGKILLed,
        then the router SIGKILLed with batches in flight; a cold boot
        on the same WAL recovers every acked event and drains clean."""
        wal = tmp_path / "wal"
        proc, port = spawn_cluster(
            tmp_path,
            1,
            "--journal-dir",
            str(wal),
            "--faults",
            "router.fanout:6:delay:0.02,router.acks:14:delay:0.02",
        )
        acked_batches = []
        pipelined = []
        statuses = []
        try:
            async def drive():
                client = await AsyncProfileClient.connect(port=port)
                try:
                    # Phase 1: awaited batches — definitely acked.
                    for i in range(10):
                        batch = [
                            ((i * 17 + j) % self.M, 1 + (j % 3))
                            for j in range(12)
                        ]
                        await client.ingest(batch)
                        acked_batches.append(batch)
                    # Kill a replica mid-stream: inline recovery (plus
                    # the scheduled delays) keeps acks flowing.
                    os.kill(replica_pid(tmp_path, 0), signal.SIGKILL)
                    # Phase 2: pipelined batches racing the router kill.
                    futures = []
                    for i in range(30):
                        batch = [
                            ((500 + i * 13 + j) % self.M, 1 + (j % 2))
                            for j in range(10)
                        ]
                        pipelined.append(batch)
                        futures.append(
                            await client.ingest(batch, wait=False)
                        )
                    os.kill(proc.pid, signal.SIGKILL)
                    return await asyncio.gather(
                        *futures, return_exceptions=True
                    )
                finally:
                    client.abort()

            results = asyncio.run(drive())
            proc.wait(30)
            for result in results:
                if isinstance(result, BaseException):
                    assert isinstance(result, ConnectionError), result
                    statuses.append(None)
                else:
                    statuses.append(result["applied"])
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)

        # Acks are pipeline-ordered: the definite outcomes must form a
        # prefix of the sends.
        acked = len(statuses)
        for i, status in enumerate(statuses):
            if status is None:
                acked = i
                break
        assert all(s is None for s in statuses[acked:]), statuses

        # Cold boot on the same directories: WAL recovery + stale
        # replica cleanup.
        proc2, port2 = spawn_cluster(
            tmp_path, 2, "--journal-dir", str(wal)
        )
        try:
            with ProfileClient("127.0.0.1", port2) as client:
                state = client.checkpoint()
                total = client.evaluate(Query.total()).values[0]
            restored = Profiler.from_state(state)
            try:
                frequencies = restored.frequencies()
            finally:
                restored.close()
        finally:
            proc2.send_signal(signal.SIGTERM)
            out2, _ = proc2.communicate(timeout=60)
        assert proc2.returncode == 0, out2
        assert "drained:" in out2

        # Zero acked loss: the recovered state is exactly the facade
        # fed the acked prefix plus some run of the in-flight suffix.
        for k in range(acked, len(pipelined) + 1):
            reference = Profiler.open(self.M, backend="flat")
            try:
                for batch in acked_batches:
                    reference.ingest(batch)
                for batch, status in zip(pipelined[:k], statuses[:k]):
                    applied = reference.ingest(batch)
                    if status is not None:
                        assert applied == status
                if reference.frequencies() == frequencies:
                    assert total == reference.evaluate(
                        Query.total()
                    ).values[0]
                    return
            finally:
                reference.close()
        raise AssertionError(
            f"recovered state matches no prefix >= acked={acked} "
            f"(statuses={statuses})"
        )


class TestFrozenReplica:
    def test_sigstop_fails_only_its_partitions(self, tmp_path):
        proc, port = spawn_cluster(
            tmp_path,
            1,
            "--replica-timeout",
            "0.5",
            "--degraded-reads",
        )
        frozen = None
        try:
            with ProfileClient("127.0.0.1", port) as client:
                assert client.ingest([(0, 1), (1, 1)]) == 2
                frozen = replica_pid(tmp_path, 1)
                os.kill(frozen, signal.SIGSTOP)

                # First batch for the dark partition: the delivery
                # blows the deadline, trips the breaker — but it was
                # journaled first, so it is still acked (lag, not
                # loss).
                started = time.monotonic()
                assert client.ingest([(1, 1)]) == 1
                assert time.monotonic() - started < 5.0

                # From now on its partitions fail fast and typed …
                started = time.monotonic()
                with pytest.raises(ReplicaUnavailableError) as exc:
                    client.ingest([(3, 2)])
                assert time.monotonic() - started < 0.5
                assert exc.value.retryable

                # … while the live partition keeps ingesting at speed.
                started = time.monotonic()
                assert client.ingest([(0, 1), (2, 1)]) == 2
                assert time.monotonic() - started < 0.5

                # --status reports the journal depth/lag of the dark
                # partition and the open breaker.
                info = cluster_status(port)
                dark = info["replicas"][1]
                assert dark["breaker"] == "open"
                assert dark["journal_lag"] >= 1
                assert "journal_depth" in dark
                assert info["replicas"][0]["breaker"] == "closed"

                # Degraded aggregate reads answer from live partitions,
                # marked partial: the dashboard's kinds answer exactly
                # as a profile holding only partition 0's objects (the
                # 150 even ids; 0 at frequency 2, 2 at frequency 1).
                result = client.evaluate(Query.total())
                assert result.partial is True
                dashboard = (
                    Query.total(),
                    Query.mode(),
                    Query.top_k(10),
                    Query.histogram(),
                    Query.quantile(0.5),
                    Query.quantile(0.99),
                    Query.support(0),
                )
                result = client.evaluate(*dashboard)
                assert result.partial is True
                with Profiler.open(150, backend="flat") as live:
                    live.ingest([(0, 2), (1, 1)])  # local id = x // 2
                    expected = live.evaluate(*dashboard)
                for query in dashboard:
                    value, ref = result[query], expected[query]
                    if query.kind == "mode":
                        assert value == ModeResult(2, 1, 0)
                        assert ref == ModeResult(2, 1, 0)
                    elif query.kind == "top_k":
                        assert [e.frequency for e in value] == [
                            e.frequency for e in ref
                        ]
                        assert [e.obj % 2 for e in value] == [0] * 10
                        assert value[:2] == [(0, 2), (2, 1)]
                    else:
                        assert value == ref, query

                # SIGCONT: after the breaker cooldown the next touch
                # probes, heals, and the replay delivers the batch
                # acked while frozen.
                os.kill(frozen, signal.SIGCONT)
                frozen = None
                deadline = time.monotonic() + 30
                while True:
                    try:
                        client.ingest([(1, 1)])
                        break
                    except ReplicaUnavailableError:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.3)
                result = client.evaluate(
                    Query.frequency(1), Query.total()
                )
                # (1,+1) at boot, (1,+1) acked while frozen, (1,+1)
                # after healing; the fast-failed (3,+2) never counted.
                assert result.values[0] == 3
                assert result.values[1] == 6
                assert result.partial is False
        finally:
            if frozen is not None:
                os.kill(frozen, signal.SIGCONT)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained:" in out


class TestScheduledCrashExit:
    def test_faults_crash_exits_nonzero(self, tmp_path):
        proc, port = spawn_cluster(
            tmp_path,
            1,
            "--journal-dir",
            str(tmp_path / "wal"),
            "--faults",
            "router.acks:2:crash",
        )
        try:
            with ProfileClient("127.0.0.1", port) as client:
                with pytest.raises(ConnectionError):
                    for i in range(20):
                        client.ingest([(i % 300, 1)])
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)
        assert proc.returncode == 1, out
        assert "router crashed (scheduled fault)" in out
        assert "fault schedule armed" in out
