"""Replica zygote: fork pre-imported replicas instead of booting them.

A replica is ``repro.server.cli.main(argv)`` in a process of its own.
Booting that as ``python -m repro.serve`` pays an interpreter start and
a fresh import of NumPy and the serving stack for every replica — at
tier boot, on every crash respawn, for every rescale generation and at
standby promotion.  A **zygote** pays it once: it is a process that has
already imported everything a replica runs, and that forks one child
per spawn request.  Each child points stdin at ``/dev/null`` and
stdout/stderr at its replica log, then runs the serve CLI; boot takes
milliseconds instead of an interpreter start.

:meth:`Zygote.start` makes the zygote.  It forks the calling process
when ``os.fork`` exists and the process has exactly one OS thread
(forking a process with other threads can copy a lock some thread
holds, and Python 3.12 warns about it); the cluster CLI calls it after
its imports and before ``asyncio.run``, so the zygote shares the
router's imported pages and holds no socket or WAL file.  Everywhere
else — a second thread (BLAS threads included), no ``os.fork`` — it
execs ``python -m repro.cluster.zygote`` once instead, which imports
the stack and then serves the same protocol.  :meth:`Zygote.exec`
forces that branch; a supervisor built in a test, a benchmark or an
embedding process, whose state the fork would copy, uses it.

The zygote talks to its parent over one Unix socket pair, one JSON
object per line.  The parent sends ``{"argv": [...], "log": PATH}``;
the zygote answers ``{"pid": N}`` (or ``{"error": TEXT}``) and later
reports ``{"exit": N, "code": C}`` when it reaps that child, ``C`` a
:class:`subprocess.Popen` style return code.  On EOF from its parent
the zygote exits and leaves its replicas running: a router killed with
SIGKILL orphans them exactly as it orphaned ``python -m repro.serve``
children, and the next supervisor's pid-file sweep removes them.

A forked replica inherits its parent's command line, so
``/proc/<pid>/cmdline`` names the cluster CLI, not ``repro.serve``:
pid files stay the way to find replicas.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import deque

__all__ = ["ReplicaProcess", "Zygote"]

#: Seconds :meth:`Zygote.close` waits for the zygote to exit on EOF
#: before it kills it.
_CLOSE_TIMEOUT = 10.0


def _os_threads() -> int | None:
    """This process's OS thread count, or ``None`` where it is unknown."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _exit_code(code) -> int:
    """The process exit status ``sys.exit(code)`` would produce."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    print(code, file=sys.stderr)
    return 1


def _send(sock: socket.socket, msg: dict) -> None:
    sock.sendall(json.dumps(msg).encode() + b"\n")


# ----------------------------------------------------------------------
# zygote side
# ----------------------------------------------------------------------


def _run_replica(argv: list[str], log: str, close_fds) -> None:
    """The body of a forked child: become a replica, never return."""
    code = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        for fd in close_fds:
            os.close(fd)
        devnull = os.open(os.devnull, os.O_RDONLY)
        os.dup2(devnull, 0)
        os.close(devnull)
        out = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(out, 1)
        os.dup2(out, 2)
        os.close(out)
        from repro.server.cli import main

        code = _exit_code(main(argv))
    except SystemExit as exc:
        code = _exit_code(exc.code)
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def serve(sock: socket.socket) -> None:
    """The zygote's loop: fork one replica per request, report every
    exit, return on EOF from the parent."""
    # A terminal Ctrl-C reaches the whole process group; the router
    # decides what the tier does with it, and the zygote outlives it
    # until the router closes the channel.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    # Freeze what is imported so far: the children's collector then
    # never writes to (and so never copies) the shared pages.
    gc.freeze()
    buf = b""
    try:
        while True:
            readable, _, _ = select.select([sock, wake_r], [], [])
            if wake_r in readable:
                while True:
                    try:
                        if not os.read(wake_r, 512):
                            break
                    except BlockingIOError:
                        break
            while True:
                try:
                    pid, status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid == 0:
                    break
                _send(sock, {"exit": pid,
                             "code": os.waitstatus_to_exitcode(status)})
            if sock not in readable:
                continue
            data = sock.recv(65536)
            if not data:
                return
            buf += data
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                req = json.loads(line)
                sys.stdout.flush()
                sys.stderr.flush()
                try:
                    pid = os.fork()
                except OSError as exc:
                    _send(sock, {"error": f"fork failed: {exc}"})
                    continue
                if pid == 0:
                    _run_replica(
                        req["argv"], req["log"],
                        (sock.fileno(), wake_r, wake_w),
                    )
                _send(sock, {"pid": pid})
    except (BrokenPipeError, ConnectionResetError):
        return  # the parent died mid-report: same as EOF


def _main(argv: list[str]) -> int:
    """``python -m repro.cluster.zygote FD``: serve on inherited ``FD``."""
    sock = socket.socket(fileno=int(argv[0]))
    # Pre-import what every replica runs, then serve.
    import repro.server.cli  # noqa: F401

    serve(sock)
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class ReplicaProcess:
    """A :class:`subprocess.Popen`-shaped handle on a zygote's child.

    The zygote, not this process, is the replica's parent, so the exit
    code arrives over the zygote's channel; ``poll``/``wait`` read it
    from there.  Where the platform has pidfds the handle holds one on
    the replica: signals go through it (never to a recycled pid), and
    once the zygote is gone it still tells an exited replica (a zombie
    included) from a live one.
    """

    def __init__(
        self, zygote: "Zygote", pid: int, args: list[str], started: float
    ) -> None:
        self.args = args
        self.pid = pid
        self.returncode: int | None = None
        #: ``time.monotonic()`` when the spawn was requested.
        self.started = started
        self._zygote = zygote
        self._pidfd: int | None = None
        if hasattr(os, "pidfd_open"):
            try:
                self._pidfd = os.pidfd_open(pid)
            except OSError:  # already reaped: its exit is on the channel
                pass

    def poll(self) -> int | None:
        if self.returncode is None:
            code = self._zygote._returncode(self.pid)
            if code is None and not self._zygote.alive:
                code = self._orphan_returncode()
            self.returncode = code
        return self.returncode

    def __del__(self, _close=os.close) -> None:
        # Closed only here, never while another thread may poll or
        # signal through it.
        if self._pidfd is not None:
            _close(self._pidfd)

    def _orphan_returncode(self) -> int | None:
        """The exit status of a replica its dead zygote cannot report:
        ``None`` while it runs, its code when this process is the one
        that reaps it (a PID 1 or subreaper CLI), else ``-SIGKILL``."""
        if self._pidfd is None:
            try:
                os.kill(self.pid, 0)
            except (ProcessLookupError, PermissionError):
                return -signal.SIGKILL  # gone, or recycled by another user
            return None
        if not select.select([self._pidfd], [], [], 0)[0]:
            return None
        try:
            info = os.waitid(
                os.P_PIDFD, self._pidfd, os.WEXITED | os.WNOHANG
            )
        except OSError:  # not this process's child: someone else reaps
            info = None
        if info is None:
            return -signal.SIGKILL
        if info.si_code == os.CLD_EXITED:
            return info.si_status
        return -info.si_status

    def wait(self, timeout: float | None = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.poll() is None:
            if deadline is None:
                slice_s = 0.1
            else:
                slice_s = deadline - time.monotonic()
                if slice_s <= 0:
                    raise subprocess.TimeoutExpired(self.args, timeout)
            self._zygote._wait_readable(min(slice_s, 0.1))
        return self.returncode

    def send_signal(self, sig: int) -> None:
        # Checked first so a reaped (possibly recycled) pid is never hit.
        if self.poll() is None:
            try:
                if self._pidfd is not None:
                    signal.pidfd_send_signal(self._pidfd, sig)
                else:
                    os.kill(self.pid, sig)
            except ProcessLookupError:
                pass

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Zygote:
    """The parent's end of a zygote: spawn replicas, learn their exits.

    Thread-safe: the event loop polls handles while a worker thread
    reaps a retired tier.
    """

    def __init__(
        self,
        pid: int,
        sock: socket.socket,
        proc: subprocess.Popen | None = None,
    ) -> None:
        self.pid = pid
        self._sock = sock
        self._proc = proc  # exec'd zygotes; a forked one is waitpid'd
        self._lock = threading.Lock()
        self._spawn_lock = threading.Lock()
        self._buf = b""
        self._exits: dict[int, int] = {}
        self._replies: deque[dict] = deque()
        self._eof = False
        self._closed = False

    @classmethod
    def start(cls) -> "Zygote":
        """Fork a zygote from this process if it has one OS thread,
        else exec one (see the module docstring)."""
        if hasattr(os, "fork") and _os_threads() == 1:
            return cls._fork()
        return cls.exec()

    @classmethod
    def _fork(cls) -> "Zygote":
        parent, child = socket.socketpair()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                parent.close()
                devnull = os.open(os.devnull, os.O_RDONLY)
                os.dup2(devnull, 0)
                os.close(devnull)
                serve(child)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        child.close()
        return cls(pid, parent)

    @classmethod
    def exec(cls, python: str = sys.executable) -> "Zygote":
        """Start ``python -m repro.cluster.zygote`` as a new process."""
        parent, child = socket.socketpair()
        env = dict(os.environ)
        # The zygote forks every replica, so it must stay at one OS
        # thread; the tier does no BLAS work.
        env["OPENBLAS_NUM_THREADS"] = "1"
        try:
            proc = subprocess.Popen(
                [python, "-m", "repro.cluster.zygote", str(child.fileno())],
                pass_fds=(child.fileno(),),
                stdin=subprocess.DEVNULL,
                env=env,
            )
        except BaseException:
            parent.close()
            raise
        finally:
            child.close()
        return cls(proc.pid, parent, proc)

    @property
    def alive(self) -> bool:
        """False once the zygote closed its end (it exited)."""
        self._drain()
        return not (self._eof or self._closed)

    # -- channel -------------------------------------------------------

    def _drain(self) -> None:
        """Consume every message the zygote has sent so far."""
        with self._lock:
            if self._closed:
                return
            sock = self._sock
            while not self._eof and select.select([sock], [], [], 0)[0]:
                try:
                    data = sock.recv(65536)
                except OSError:
                    data = b""
                if not data:
                    self._eof = True
                    break
                self._buf += data
            lines = self._buf.split(b"\n")
            self._buf = lines.pop()
            for line in lines:
                msg = json.loads(line)
                if "exit" in msg:
                    self._exits[msg["exit"]] = msg["code"]
                    continue
                # The zygote reaps (and reports) before it forks, so an
                # exit already recorded for this pid is a reaped
                # child's whose pid the kernel reused; the new child's
                # own exit can only follow this reply.
                self._exits.pop(msg.get("pid"), None)
                self._replies.append(msg)

    def _wait_readable(self, timeout: float) -> None:
        """Block up to ``timeout`` s for the zygote's next message."""
        if self._eof or self._closed:
            time.sleep(timeout)
            return
        try:
            select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):  # closed under us by close()
            time.sleep(timeout)

    def _returncode(self, pid: int) -> int | None:
        """The exit code the zygote reported for ``pid``, if any."""
        self._drain()
        return self._exits.get(pid)

    # -- API -----------------------------------------------------------

    def spawn(
        self, argv: list[str], log: str, boot_timeout: float
    ) -> ReplicaProcess:
        """Fork one replica running ``repro.server.cli.main(argv)``
        with stdout/stderr appended to ``log``.

        Waits for the zygote's answer until ``boot_timeout`` s after
        the request, the handle's ``started``: a caller that bounds the
        replica's boot by ``started + boot_timeout`` bounds this wait
        too.
        """
        started = time.monotonic()
        with self._spawn_lock:
            if self._closed:
                raise RuntimeError("zygote is closed")
            try:
                _send(self._sock, {"argv": list(argv), "log": str(log)})
            except OSError as exc:
                raise RuntimeError(
                    f"zygote {self.pid} is gone: {exc}"
                ) from None
            deadline = started + boot_timeout
            while True:
                self._drain()
                if self._replies:
                    reply = self._replies.popleft()
                    break
                if self._eof:
                    raise RuntimeError(
                        f"zygote {self.pid} exited during a spawn"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"zygote {self.pid} did not answer a spawn "
                        f"within {boot_timeout:g}s"
                    )
                self._wait_readable(min(remaining, 0.1))
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return ReplicaProcess(self, reply["pid"], list(argv), started)

    def close(self) -> None:
        """Close the channel (the zygote exits on EOF) and reap it.

        Replicas still running keep running; stop them first.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._sock.close()
        if self._proc is not None:
            try:
                self._proc.wait(_CLOSE_TIMEOUT)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            return
        deadline = time.monotonic() + _CLOSE_TIMEOUT
        while True:
            try:
                pid, _ = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:
                return
            if pid:
                return
            if time.monotonic() > deadline:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                return
            time.sleep(0.005)


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
