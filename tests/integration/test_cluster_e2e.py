"""End-to-end cluster tests: real replica processes, real SIGKILL.

The kill-one-replica gate: three ``python -m repro.serve`` replica
subprocesses behind an in-process router, sustained ingest, one
replica SIGKILLed mid-stream and respawned by the supervisor; after
drain the merged cluster state must be bit-identical to a directly
driven facade fed the same events in ack order.  Plus the whole-tier
CLI: ``python -m repro.cluster`` spawns everything, serves, answers
``--status``, drains on SIGTERM and exits 0.
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

from repro.api import Profiler, Query
from repro.cluster import ClusterRouter, ReplicaSupervisor
from repro.server import AsyncProfileClient, ProfileClient

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def clean_pythonpath(monkeypatch):
    monkeypatch.setenv(
        "PYTHONPATH", SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    )


class TestKillOneReplica:
    M = 400
    REPLICAS = 3

    def test_sigkill_mid_stream_recovers_without_loss(
        self, tmp_path, clean_pythonpath
    ):
        asyncio.run(self._scenario(tmp_path))

    async def _scenario(self, tmp_path):
        supervisor = ReplicaSupervisor(
            self.M,
            self.REPLICAS,
            workdir=tmp_path,
            backend="flat",
        )
        await supervisor.start()
        victim_pid = supervisor.pid(1)
        try:
            router = ClusterRouter(
                self.M,
                supervisor=supervisor,
                snapshot_every=8,
                port=0,
                batch_max=16,
            )
            await router.start()
            client = await AsyncProfileClient.connect(
                router.host, router.port
            )
            sent = []

            async def feed(rounds, start):
                for i in range(rounds):
                    batch = [
                        ((start + i * 7 + j) % self.M, 1 + (j % 3))
                        for j in range(25)
                    ]
                    # Pipelined: many batches in flight across the kill.
                    futures = [
                        await client.ingest(batch, wait=False)
                    ]
                    sent.append(batch)
                    for future in futures:
                        await future

            await feed(20, 0)
            supervisor.kill(1, signal.SIGKILL)
            await feed(30, 101)  # straight through the crash window
            state = await client.checkpoint()
            health = await client.health()
            await client.aclose()
            await router.stop()
        finally:
            supervisor.stop()

        # The victim really died and really came back.
        assert supervisor.respawns >= 1
        assert supervisor.pid(1) != victim_pid
        assert router.cluster_stats["recoveries"] >= 1
        assert all(r["connected"] for r in health["replicas"])

        # Zero acknowledged-event loss: bit-identical to one facade
        # fed the same batches in ack order.
        reference = Profiler.open(self.M, backend="flat")
        try:
            for batch in sent:
                reference.ingest(batch)
            restored = Profiler.from_state(state)
            try:
                assert restored.frequencies() == reference.frequencies()
            finally:
                restored.close()
        finally:
            reference.close()

    def test_pid_and_port_files_published(self, tmp_path, clean_pythonpath):
        async def scenario():
            supervisor = ReplicaSupervisor(
                30, 2, workdir=tmp_path, backend="flat"
            )
            await supervisor.start()
            try:
                for p in range(2):
                    port = int(supervisor.port_file(p).read_text())
                    pid = int(supervisor.pid_file(p).read_text())
                    assert (supervisor._host, port) == (
                        supervisor.endpoints[p]
                    )
                    assert pid == supervisor.pid(p)
            finally:
                supervisor.stop()

        asyncio.run(scenario())


class TestTracePropagation:
    """A client-minted trace id travels client -> router -> replica."""

    M = 100
    REPLICAS = 2

    def test_trace_id_reaches_router_and_replica_spans(
        self, tmp_path, clean_pythonpath
    ):
        asyncio.run(self._scenario(tmp_path))

    async def _scenario(self, tmp_path):
        supervisor = ReplicaSupervisor(
            self.M, self.REPLICAS, workdir=tmp_path, backend="flat"
        )
        await supervisor.start()
        try:
            router = ClusterRouter(
                self.M,
                supervisor=supervisor,
                port=0,
                batch_max=16,
            )
            await router.start()
            client = await AsyncProfileClient.connect(
                router.host, router.port, trace=True
            )
            trace = client.trace
            assert trace and len(trace) == 16
            # Touch every partition so the mark fans out to each.
            await client.ingest([(k, 1) for k in range(self.M)])

            # The router stamps its flush span and forwards the trace
            # marks only *after* acking the client (tracing stays off
            # the ack latency path), so poll rather than assert once.
            flush_span = None
            for _ in range(100):
                spans = (await client.metrics())["spans"]
                flush_span = next(
                    (
                        s
                        for s in spans
                        if s["name"] == "router.flush"
                        and s.get("trace") == trace
                    ),
                    None,
                )
                if flush_span is not None:
                    break
                await asyncio.sleep(0.05)
            assert flush_span is not None, "router.flush span never landed"
            assert flush_span["partitions"] == list(
                range(self.REPLICAS)
            )
            assert flush_span.get("ms", 0) >= 0

            # Each replica's own flight recorder carries the client's
            # id, delivered via the forwarded trace mark.
            for p in range(self.REPLICAS):
                host, port = supervisor.endpoints[p]
                replica = await AsyncProfileClient.connect(host, port)
                try:
                    marked = None
                    for _ in range(100):
                        spans = (await replica.metrics())["spans"]
                        marked = next(
                            (
                                s
                                for s in spans
                                if s["name"] == "server.trace_mark"
                                and s.get("trace") == trace
                            ),
                            None,
                        )
                        if marked is not None:
                            break
                        await asyncio.sleep(0.05)
                    assert marked is not None, (
                        f"replica {p} never saw trace {trace}"
                    )
                    assert marked["source"] == "router"
                finally:
                    await replica.aclose()
            await client.aclose()
            await router.stop()
        finally:
            supervisor.stop()


class TestClusterCli:
    def spawn_cluster(self, tmp_path, *extra):
        port_file = tmp_path / "router.port"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster",
                "--capacity",
                "300",
                "--replicas",
                "2",
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

    def test_serve_status_sigterm_drain(self, tmp_path):
        proc, port = self.spawn_cluster(tmp_path)
        try:
            with ProfileClient("127.0.0.1", port) as client:
                assert client.hello["backend"] == "cluster"
                assert client.ingest({7: 3, 2: 1, 299: 2}) == 6
                assert client.frequency(299) == 2
                assert client.mode().frequency == 3
                state = client.checkpoint()
            restored = Profiler.from_state(state)
            try:
                assert restored.frequency(7) == 3
                assert restored.frequency(299) == 2
            finally:
                restored.close()

            status = subprocess.run(
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
            assert status.returncode == 0, status.stdout + status.stderr
            info = json.loads(status.stdout)
            assert info["role"] == "router"
            assert info["partitions"] == 2
            assert len(info["replicas"]) == 2
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "cluster listening on" in out
        assert "draining" in out
        assert "drained:" in out

    def test_kill_one_replica_under_cli(self, tmp_path):
        """The CI smoke, as a test: SIGKILL a replica of a live CLI
        tier mid-stream; the tier keeps serving, recovers, drains 0."""
        proc, port = self.spawn_cluster(tmp_path)
        try:
            with ProfileClient("127.0.0.1", port) as client:
                for i in range(10):
                    client.ingest([(j % 300, 1) for j in range(i, i + 40)])
                victim = int(
                    (tmp_path / "replicas" / "replica-0.pid").read_text()
                )
                os.kill(victim, signal.SIGKILL)
                for i in range(10, 25):
                    client.ingest([(j % 300, 1) for j in range(i, i + 40)])
                total = client.evaluate(Query.total()).values[0]
                assert total == 25 * 40
                info = client.health()
            assert all(r["connected"] for r in info["replicas"])
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "recoveries" in out and "drained:" in out
