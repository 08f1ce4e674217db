"""The replica zygote: every replica is a fork of one pre-imported process.

- The cluster CLI forks its zygote while it has one OS thread, and a
  replica's parent is that zygote.
- A process with a second thread execs ``python -m repro.cluster.zygote``
  instead and never calls ``os.fork`` itself; so does a supervisor built
  in process (here: under pytest.ini's ``error::DeprecationWarning``,
  which turns Python 3.12's fork-with-threads warning into a failure).
- The zygote reports exit codes: a replica that cannot bind names its
  code in the supervisor's error, an exit is matched to its spawn in
  stream order (a reused pid never swallows a new child's exit), and
  once the zygote is gone an orphaned zombie still reads as exited.
- A cancelled boot still records the replica it forked, so ``stop()``
  reaps it.
- A router SIGKILL ends the zygote but not its replicas; the next
  supervisor's pid-file sweep removes them.
- Respawns and rescale generations fork from the same zygote, and each
  spawn lands one ``cluster.replica.boot_ms`` sample.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import ClusterRouter, ReplicaSupervisor
from repro.cluster.zygote import Zygote
from repro.obs.registry import MetricsRegistry, set_default_registry

SRC = str(Path(__file__).resolve().parents[2] / "src")

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)

#: Runs ``python -m repro.cluster ARGS`` with ``os.fork`` wrapped so
#: every fork appends "<forking pid> <its OS threads>" to LOG.
FORK_SPY = """
import os, runpy, sys

log = sys.argv[1]
real_fork = os.fork


def fork():
    with open("/proc/self/status") as fh:
        threads = next(l.split()[1] for l in fh if l.startswith("Threads:"))
    me = os.getpid()
    pid = real_fork()
    if pid:
        with open(log, "a") as fh:
            fh.write(f"{me} {threads}\\n")
    return pid


os.fork = fork
sys.argv = ["repro.cluster", *sys.argv[2:]]
runpy.run_module("repro.cluster", run_name="__main__", alter_sys=True)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def clean_pythonpath(monkeypatch):
    monkeypatch.setenv(
        "PYTHONPATH", SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    )


def _ppid(pid: int) -> int:
    with open(f"/proc/{pid}/stat", "rb") as fh:
        return int(fh.read().rsplit(b")", 1)[1].split()[1])


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except FileNotFoundError:
        return False


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _read_pid(path: Path) -> int:
    return int(path.read_text())


def _boot_cli(tmp_path, *, fork_log=None):
    work = tmp_path / "work"
    port_file = tmp_path / "router.port"
    args = [
        "--capacity", "100", "--replicas", "2", "--port", "0",
        "--port-file", str(port_file), "--workdir", str(work),
    ]
    if fork_log is None:
        cmd = [sys.executable, "-m", "repro.cluster", *args]
    else:
        cmd = [sys.executable, "-c", FORK_SPY, str(fork_log), *args]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_env(),
    )
    ok = _wait_until(
        lambda: port_file.exists() or proc.poll() is not None, 60.0
    )
    if not ok or proc.poll() is not None:
        proc.kill()
        raise AssertionError(f"cluster CLI did not boot ({proc.poll()})")
    return proc, int(port_file.read_text()), work


def _stop_cli(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    assert proc.wait(30) == 0


class TestCliZygote:
    def test_cli_forks_with_one_thread_and_replicas_fork_from_it(
        self, tmp_path
    ):
        fork_log = tmp_path / "forks.log"
        proc, port, work = _boot_cli(tmp_path, fork_log=fork_log)
        try:
            zygote = _read_pid(work / "zygote.pid")
            replicas = [
                _read_pid(work / f"replica-{p}.pid") for p in range(2)
            ]
            assert _ppid(zygote) == proc.pid
            assert [_ppid(r) for r in replicas] == [zygote, zygote]
            forks = [
                tuple(map(int, line.split()))
                for line in fork_log.read_text().splitlines()
            ]
            # One fork in the CLI (the zygote), one per replica in the
            # zygote, each from a process with exactly one OS thread.
            assert sorted(forks) == sorted(
                [(proc.pid, 1), (zygote, 1), (zygote, 1)]
            )
            status = subprocess.run(
                [sys.executable, "-m", "repro.cluster", "--status",
                 "--port", str(port)],
                capture_output=True, text=True, timeout=60, env=_env(),
            )
            assert status.returncode == 0, status.stderr
            boot = json.loads(status.stdout)["metrics"]["histograms"][
                "cluster.replica.boot_ms"
            ]
            assert boot["count"] == 2
        finally:
            _stop_cli(proc)
        assert _wait_until(lambda: not _alive(zygote))

    def test_router_sigkill_ends_zygote_not_replicas(
        self, tmp_path, clean_pythonpath
    ):
        proc, _, work = _boot_cli(tmp_path)
        zygote = _read_pid(work / "zygote.pid")
        replicas = [_read_pid(work / f"replica-{p}.pid") for p in range(2)]
        proc.kill()
        proc.wait(10)
        try:
            # EOF on its channel: the zygote exits, the replicas stay.
            assert _wait_until(lambda: not _alive(zygote))
            assert all(map(_alive, replicas))
            # The next supervisor on the workdir sweeps them by pid file.
            sup = ReplicaSupervisor(100, 2, workdir=work, backend="flat")
            try:
                asyncio.run(sup.start())
                assert _wait_until(
                    lambda: not any(map(_alive, replicas))
                )
                assert [sup.pid(p) for p in range(2)] != replicas
            finally:
                sup.stop()
        finally:
            for pid in replicas:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestExecFallback:
    def test_second_thread_gets_an_execd_zygote(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked a process with two threads")

        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            monkeypatch.setattr(os, "fork", no_fork)
            zygote = Zygote.start()
        finally:
            stop.set()
            worker.join(5)
        assert not worker.is_alive()
        try:
            assert _ppid(zygote.pid) == os.getpid()
            cmdline = Path(f"/proc/{zygote.pid}/cmdline").read_bytes()
            assert b"repro.cluster.zygote" in cmdline
        finally:
            zygote.close()
        assert not _alive(zygote.pid)


#: Makes this process a child subreaper (as a container's PID 1 is),
#: execs a zygote, forks one replica, SIGKILLs the zygote and then the
#: replica: the orphan zombie is this process's to reap.
SUBREAPER = """
import ctypes, os, signal, sys, tempfile, time
from repro.cluster.zygote import Zygote

assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
zygote = Zygote.exec()
log = os.path.join(tempfile.mkdtemp(), "replica.log")
proc = zygote.spawn(
    ["--capacity", "10", "--port", "0", "--backend", "flat"], log, 30.0
)
os.kill(zygote.pid, signal.SIGKILL)
while zygote.alive:
    time.sleep(0.01)
assert proc.poll() is None
proc.kill()
print(proc.wait(10), os.path.exists(f"/proc/{proc.pid}"))
zygote.close()
"""


class TestExitCodes:
    def test_every_immediate_exit_reports_its_code(self, tmp_path):
        """Children that exit at once reuse pids and can exit in the
        batch that carries their own spawn reply; each still reports
        its own code (argparse's 2)."""
        zygote = Zygote.exec()
        try:
            for i in range(30):
                proc = zygote.spawn(
                    ["--no-such-flag"], str(tmp_path / "bad.log"), 30.0
                )
                if i % 2:
                    time.sleep(0.05)  # let the exit land with the reply
                assert proc.wait(10) == 2
                assert proc.poll() == 2
        finally:
            zygote.close()

    def test_exits_are_matched_to_spawns_in_stream_order(self):
        """Played by hand on the channel: an exit that precedes a
        spawn reply for the same pid is a reused pid's, one that
        follows it (in the same read) is the new child's."""
        pid = 2**22 + 7  # above any pid_max: no process has it
        parent, child = socket.socketpair()
        zygote = Zygote(12345, parent)
        try:
            child.sendall(
                json.dumps({"pid": pid}).encode() + b"\n"
                + json.dumps({"exit": pid, "code": 2}).encode() + b"\n"
            )
            assert zygote.spawn(["x"], "log", 5.0).poll() == 2
            child.sendall(
                json.dumps({"exit": pid, "code": 0}).encode() + b"\n"
                + json.dumps({"pid": pid}).encode() + b"\n"
            )
            assert zygote.spawn(["x"], "log", 5.0).poll() is None
        finally:
            child.close()
            zygote.close()

    def test_an_orphaned_zombie_reads_as_exited(self, clean_pythonpath):
        out = subprocess.run(
            [sys.executable, "-c", SUBREAPER],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [str(-signal.SIGKILL), "False"]


class TestSupervisorZygote:
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_respawn_and_generation_fork_from_the_zygote(
        self, tmp_path, clean_pythonpath, monkeypatch
    ):
        def no_fork():
            raise AssertionError("an in-process supervisor forked")

        monkeypatch.setattr(os, "fork", no_fork)
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        sup = ReplicaSupervisor(50, 2, workdir=tmp_path, backend="flat")

        async def scenario():
            await sup.start()
            zygote = _read_pid(tmp_path / "zygote.pid")
            assert [_ppid(sup.pid(p)) for p in range(2)] == [zygote] * 2
            router = ClusterRouter(50, supervisor=sup, port=0)
            await router.start()
            try:
                old = sup.pid(0)
                sup.kill(0)
                assert await asyncio.to_thread(
                    _wait_until, lambda: not sup.alive(0)
                )
                assert sup._procs[0].returncode == -signal.SIGKILL
                await sup.ensure_replica(0)
                assert sup.pid(0) != old
                assert _ppid(sup.pid(0)) == zygote
                endpoints = await sup.spawn_generation(3)
                assert len(endpoints) == 3
                staged = [proc.pid for proc in sup._staged["procs"]]
                assert [_ppid(pid) for pid in staged] == [zygote] * 3
                await sup.commit_generation()
                assert [sup.pid(p) for p in range(3)] == staged
                boot = router.metrics_snapshot()["histograms"][
                    "cluster.replica.boot_ms"
                ]
                assert boot["count"] == 2 + 1 + 3
            finally:
                await router.stop()
            return zygote

        try:
            zygote = asyncio.run(scenario())
        finally:
            sup.stop()
            set_default_registry(previous)
        assert not _alive(zygote)

    def test_a_cancelled_boot_leaves_no_replica(
        self, tmp_path, clean_pythonpath
    ):
        """The first spawn waits off the loop for an exec'd zygote to
        import; cancelling the boot meanwhile still records the replica
        it forks, so ``stop()`` reaps it."""
        sup = ReplicaSupervisor(10, 1, workdir=tmp_path, backend="flat")

        async def scenario():
            boot = asyncio.ensure_future(sup.start())
            await asyncio.sleep(0.05)
            assert not boot.done()
            boot.cancel()
            with pytest.raises(asyncio.CancelledError):
                await boot
            sup.stop()  # as a router's shutdown does, on the loop

        try:
            asyncio.run(scenario())
        finally:
            sup.stop()
        assert not _alive(_read_pid(tmp_path / "replica-0.pid"))

    def test_a_dead_zygote_is_replaced(self, tmp_path, clean_pythonpath):
        """SIGKILL the zygote: its replicas keep serving, a replica that
        then dies still reads as dead, and the respawn forks from a
        freshly exec'd zygote."""
        sup = ReplicaSupervisor(20, 2, workdir=tmp_path, backend="flat")

        async def scenario():
            await sup.start()
            first = _read_pid(tmp_path / "zygote.pid")
            os.kill(first, signal.SIGKILL)
            assert await asyncio.to_thread(
                _wait_until, lambda: not _alive(first)
            )
            assert sup.alive(0) and sup.alive(1)
            sup.kill(0)
            assert await asyncio.to_thread(
                _wait_until, lambda: not sup.alive(0)
            )
            await sup.ensure_replica(0)
            second = _read_pid(tmp_path / "zygote.pid")
            assert second != first
            assert _ppid(sup.pid(0)) == second
            return sup.pid(1), second

        try:
            orphan, second = asyncio.run(scenario())
        finally:
            sup.stop()
        assert _wait_until(lambda: not _alive(orphan))
        assert not _alive(second)

    def test_bind_failure_surfaces_the_exit_code(
        self, tmp_path, clean_pythonpath
    ):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            sup = ReplicaSupervisor(
                10, 1, workdir=tmp_path, backend="flat",
                serve_args=["--port", str(busy.getsockname()[1])],
            )
            try:
                with pytest.raises(
                    RuntimeError, match=r"replica 0 exited with code 1 "
                    r"before binding"
                ):
                    asyncio.run(sup.start())
            finally:
                sup.stop()
        assert "address already in use" in (
            tmp_path / "replica-0.log"
        ).read_text()
