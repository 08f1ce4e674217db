"""Launch, observe and tear down the deployed tier for one run.

The tier is started only through its command line, with deployment
settings and nothing else:

    python -m repro.cluster --capacity M --replicas 2 --journal-dir W
        --workdir D --port 0 --port-file P
    python -m repro.cluster --capacity M --replicas 2 --journal-dir W
        --workdir D2 --port 0 --port-file P2 --standby

Every tier lives in a fresh directory of its own (workdir + WAL dir)
inside the checkout.  :meth:`Tier.close` stops the standby first (so it
never promotes over a router that is merely shutting down), then the
router, then any replica its pid files name, and raises if a single
process of the tier outlives it.

The benchmark also supervises the standby the way an init system
would: a standby that exits is started again on the same WAL, and the
restarts are counted and reported rather than failing the run.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPLICAS = 2
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class TierError(RuntimeError):
    """The tier failed to start, or a process of it failed to stop."""


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    # The state letter follows the parenthesised command name.
    return stat[stat.rindex(b")") + 2 : stat.rindex(b")") + 3] != b"Z"


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used (from /proc)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    # Fields 14 and 15 of stat(5) are utime and stime; the split above
    # starts at field 3.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MiB (VmHWM)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise TierError(f"no VmHWM for pid {pid}")


def _wait_for(predicate, timeout: float, what: str, proc=None) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        if proc is not None and proc.poll() is not None:
            raise TierError(f"{what}: process exited with {proc.returncode}")
        if time.perf_counter() > deadline:
            raise TierError(f"{what}: not ready after {timeout:g} s")
        time.sleep(0.005)


class Tier:
    """One router + 2 replicas + a warm standby on a fresh WAL."""

    def __init__(self, root: Path, capacity: int) -> None:
        self.capacity = capacity
        self._src = root / "src"
        tmp = root / ".perfbench-tmp"
        tmp.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="tier-", dir=tmp))
        self._router = None
        self._standby = None
        self._standbys: list[subprocess.Popen] = []
        self._replica_pids: list[int] = []
        self._stop_watch = threading.Event()
        self._watcher: threading.Thread | None = None
        self.standby_restarts = 0
        self.port = 0
        self.router_ready_s = 0.0
        self.standby_ready_s = 0.0

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, name: str, extra: list[str]) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self._src)
        cmd = [
            sys.executable, "-m", "repro.cluster",
            "--capacity", str(self.capacity),
            "--replicas", str(REPLICAS),
            "--journal-dir", str(self.dir / "wal"),
            "--port", "0",
            *extra,
        ]
        with open(self.dir / f"{name}.log", "ab") as log:
            # A session of its own: a Ctrl-C at the terminal reaches the
            # benchmark, whose cleanup then stops the tier in order.
            return subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, cwd=self.dir, env=env,
                start_new_session=True,
            )

    def start(self) -> float:
        """Start the tier; return seconds until it serves and the standby
        follows the WAL."""
        t0 = time.perf_counter()
        port_file = self.dir / "router.port"
        self._router = self._spawn("router", [
            "--workdir", str(self.dir / "work"),
            "--port-file", str(port_file),
        ])
        _wait_for(port_file.exists, 60.0, "router", self._router)
        self.port = int(port_file.read_text())
        t1 = time.perf_counter()
        self._replica_pids = [
            int((self.dir / "work" / f"replica-{p}.pid").read_text())
            for p in range(REPLICAS)
        ]
        log = self.dir / "standby.log"
        self._spawn_standby()
        _wait_for(
            lambda: log.exists() and b"standby following" in log.read_bytes(),
            60.0, "standby", self._standby,
        )
        t2 = time.perf_counter()
        self.router_ready_s = t1 - t0
        self.standby_ready_s = t2 - t1
        self._watcher = threading.Thread(target=self._watch, daemon=True)
        self._watcher.start()
        return t2 - t0

    def _spawn_standby(self) -> None:
        self._standby = self._spawn("standby", [
            "--workdir", str(self.dir / "standby-work"),
            "--port-file", str(self.dir / "standby.port"),
            "--standby",
        ])
        self._standbys.append(self._standby)

    def _watch(self) -> None:
        while not self._stop_watch.wait(0.05):
            if self._standby.poll() is not None:
                self.standby_restarts += 1
                print(f"  standby exited with {self._standby.returncode}; "
                      f"restarted (see standby.log)", flush=True)
                self._spawn_standby()

    def close(self) -> None:
        """Stop standby, router and replicas; raise if any survives."""
        self._stop_watch.set()
        if self._watcher is not None:
            self._watcher.join()
        procs = [*self._standbys, *([self._router] if self._router else [])]
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        if not self._replica_pids:
            self._replica_pids = self._read_pids()
        deadline = time.perf_counter() + 10.0
        while any(map(_alive, self._replica_pids)):
            if time.perf_counter() > deadline:
                break
            time.sleep(0.01)
        stray = [pid for pid in self._replica_pids if _alive(pid)]
        # Each CLI process leads its own process group, which holds the
        # replicas it spawned: whatever is left there is killed.
        for proc in procs:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        time.sleep(0.05)
        left = [pid for pid in self.pids() if _alive(pid)]
        self._router = self._standby = None
        shutil.rmtree(self.dir, ignore_errors=True)
        if stray or left:
            raise TierError(
                f"tier processes outlived the run: {stray + left}"
            )

    def _read_pids(self) -> list[int]:
        pids = []
        for path in sorted((self.dir / "work").glob("replica-*.pid")):
            with contextlib.suppress(ValueError):
                pids.append(int(path.read_text()))
        return pids

    def __enter__(self) -> "Tier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observation ---------------------------------------------------

    def pids(self) -> list[int]:
        out = [p.pid for p in self._standbys]
        if self._router is not None:
            out.append(self._router.pid)
        return out + self._replica_pids

    def role_pids(self) -> dict[str, list[int]]:
        return {
            "router": [self._router.pid],
            "replica": list(self._replica_pids),
            "standby": [self._standby.pid],
        }

    def replica_ports(self) -> list[int]:
        return [
            int((self.dir / "work" / f"replica-{p}.port").read_text())
            for p in range(REPLICAS)
        ]

    def cpu(self) -> dict[str, dict[int, float]]:
        """CPU seconds used so far, per role and pid."""
        return {
            role: {pid: cpu_seconds(pid) for pid in pids}
            for role, pids in self.role_pids().items()
        }

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of router, replicas and standby."""
        return sum(
            vm_hwm_mb(pid) for pids in self.role_pids().values()
            for pid in pids
        )

    def check_running(self) -> None:
        if self._router.poll() is not None:
            log = (self.dir / "router.log").read_text(errors="replace")
            raise TierError(
                f"router exited with {self._router.returncode}; its log "
                f"ends:\n{log[-3000:]}"
            )


def cpu_used(start: dict, end: dict, role: str) -> float:
    """CPU seconds ``role`` used between two :meth:`Tier.cpu` readings
    (a process started in between counts from zero)."""
    return sum(t - start[role].get(pid, 0.0) for pid, t in end[role].items())
