"""End-to-end serving-stack tests: real process, real sockets.

Covers what the unit tests cannot: the ``python -m repro.serve`` CLI
as a subprocess (port file handshake, SIGTERM graceful drain, exit
code 0), the quickstart example against an external server, and the
checkpoint-download parity matrix across every checkpointable backend
row of ``docs/api.md`` — including the ``approx`` row this PR adds.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Profiler, Query
from repro.server import ProfileClient, ServerThread

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")


def spawn_server(tmp_path, *extra_args):
    port_file = tmp_path / "port.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            "0",
            "--port-file",
            str(port_file),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text())
        if proc.poll() is not None:
            raise AssertionError(
                f"server died at startup:\n{proc.stdout.read()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("server never wrote its port file")


class TestServeCli:
    def test_serve_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, port = spawn_server(tmp_path, "--capacity", "500")
        try:
            with ProfileClient("127.0.0.1", port) as client:
                assert client.ingest({7: 3, 2: 1}) == 4
                assert client.mode().example == 7
                state = client.checkpoint()
            assert Profiler.from_state(state).frequency(7) == 3
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "draining" in out
        assert "drained:" in out

    def test_quickstart_example_against_external_server(self, tmp_path):
        proc, port = spawn_server(tmp_path, "--capacity", "10000")
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get(
                "PYTHONPATH", ""
            )
            env["REPRO_SERVER_PORT"] = str(port)
            example = subprocess.run(
                [
                    sys.executable,
                    str(REPO_ROOT / "examples" / "quickstart_server.py"),
                ],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )
            assert example.returncode == 0, example.stdout + example.stderr
            assert "checkpoint restored locally" in example.stdout
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out


#: Every checkpointable backend row served + downloaded + restored.
BACKEND_ROWS = [
    pytest.param(
        lambda: Profiler.open(40, backend="flat"), [(3, 5), (7, 2)],
        id="flat",
    ),
    pytest.param(
        lambda: Profiler.open(40, backend="exact"), [(3, 5), (7, 2)],
        id="exact",
    ),
    pytest.param(
        lambda: Profiler.open(40, backend="sharded", shards=3),
        [(3, 5), (7, 2)],
        id="sharded",
    ),
    pytest.param(
        lambda: Profiler.open(40, backend="flat", array_engine=True),
        [(3, 5), (7, 2)],
        id="flat-array",
    ),
    pytest.param(
        lambda: Profiler.open(keys="hashable"),
        [("ada", 5), ("bob", 2)],
        id="exact-hashable",
    ),
    pytest.param(
        lambda: Profiler.open(8, backend="flat", keys="hashable"),
        [("ada", 5), ("bob", 2)],
        id="flat-interned",
    ),
    pytest.param(
        lambda: Profiler.open(backend="approx", counters=16),
        [("ada", 5), ("bob", 2)],
        id="approx",
    ),
]


class TestCheckpointDownloadMatrix:
    @pytest.mark.parametrize("codec", ["json", "auto"])
    @pytest.mark.parametrize("make_profiler,events", BACKEND_ROWS)
    def test_wire_checkpoint_restores_identically(
        self, make_profiler, events, codec
    ):
        profiler = make_profiler()
        with ServerThread(profiler) as server:
            with ProfileClient(
                server.host, server.port, codec=codec
            ) as client:
                offered = "binary" in (client.hello.get("codecs") or [])
                if codec == "auto" and offered:
                    # Where the server offers binary, auto negotiates
                    # it; the checkpoint must ride it identically.
                    assert client.codec == "binary"
                client.ingest(events)
                state = json.loads(json.dumps(client.checkpoint()))
                mode = client.mode()
                top = client.top_k(2)
        restored = Profiler.from_state(state)
        try:
            for key, count in events:
                assert restored.frequency(key) == count
            assert restored.mode().frequency == mode.frequency
            assert [e.frequency for e in restored.top_k(2)] == [
                e.frequency for e in top
            ]
        finally:
            restored.close()

    @pytest.mark.parametrize("codec", ["json", "auto"])
    @pytest.mark.parametrize("make_profiler,events", BACKEND_ROWS)
    def test_wire_restore_round_trip(self, make_profiler, events, codec):
        """Download from server A, upload into server B over the wire:
        the restored service answers like the original."""
        profiler = make_profiler()
        with ServerThread(profiler) as server:
            with ProfileClient(
                server.host, server.port, codec=codec
            ) as client:
                client.ingest(events)
                state = client.checkpoint()
                mode = client.mode()
        target = make_profiler()
        with ServerThread(target) as server:
            with ProfileClient(
                server.host, server.port, codec=codec
            ) as client:
                client.restore(state)
                for key, count in events:
                    assert client.frequency(key) == count
                assert client.mode().frequency == mode.frequency
                # The restored state keeps serving ingest.
                key0, count0 = events[0]
                assert client.ingest([(key0, 1)]) == 1
                assert client.frequency(key0) == count0 + 1
