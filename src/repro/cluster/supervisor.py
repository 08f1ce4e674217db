"""Replica process lifecycle: spawn, watch, respawn.

:class:`ReplicaSupervisor` turns the serve CLI (``python -m
repro.serve``'s ``main``) into the cluster's replica tier: one process
per partition, forked from a pre-imported
:class:`~repro.cluster.zygote.Zygote` (the cluster CLI hands one in;
otherwise the supervisor execs its own on first use), each serving a
dense non-strict profiler of exactly its partition capacity, each
publishing its bound port through an atomically written port file
(``--port-file``; tmp + rename, so a polling supervisor never reads a
half-written number) and its pid through a pid file (so external
chaos — a CI kill gate, an operator — can target a replica without
asking the supervisor).  The zygote's pid is published as
``zygote.pid`` in the same directory.  A forked replica's
``/proc/<pid>/cmdline`` is its zygote's, so the pid files are the
way to find replicas.

The router drives recovery through one duck-typed method:
``await ensure_replica(p)`` returns the partition's current endpoint,
respawning the process first if it has died.  The supervisor never
watches proactively — the router notices a dead replica the instant a
send fails, and whoever notices calls ``ensure_replica``.

Live rescaling runs through **generations**: ``spawn_generation(n)``
boots a complete second replica tier (files named
``replica-g{gen}-{p}.*`` so the current tier's files — which external
chaos targets by name — never move) next to the serving one,
``commit_generation()`` adopts it and retires the old tier, and
``abort_generation()`` tears the staged tier down without a trace.
``reconfigure(n, generation)`` is the boot-time variant: a router
recovering a WAL whose committed layout disagrees with the configured
replica count calls it to rebuild the tier at the durable shape before
serving.

Respawning is rationed: more than ``max_respawn_burst`` respawns of
the *same* partition inside ``respawn_window`` seconds means the
replica is crash-looping — a bad binary, an OOM treadmill, a poisoned
snapshot — and blindly respawning forever converts a config problem
into an invisible availability problem.  The supervisor escalates to a
**sticky** terminal state instead: every further ``ensure_replica``
raises :class:`~repro.errors.ClusterUnhealthyError` (non-retryable)
and the router shuts the tier down rather than keep accepting batches
it cannot deliver.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.cluster.zygote import ReplicaProcess, Zygote
from repro.errors import CapacityError, ClusterUnhealthyError
from repro.obs.registry import get_registry
from repro.obs.structlog import log_event
from repro.testing.faults import fault_point_sync

__all__ = ["ReplicaSupervisor"]

_log = logging.getLogger("repro.cluster.supervisor")


def _partition_capacity(m: int, p: int, n: int) -> int:
    return (m - p + n - 1) // n


class ReplicaSupervisor:
    """Manage ``n_replicas`` replica processes for one universe.

    Parameters
    ----------
    capacity:
        Global universe size ``m``; replica ``p`` serves
        ``(m - p + n - 1) // n`` ids.
    n_replicas:
        Partition count.
    workdir:
        Directory for port files, pid files and per-replica logs.
    backend:
        Facade backend each replica opens (default ``auto``; use
        ``flat``/``exact`` — the cluster checkpoint assembles only
        single-profile replica states).
    codec:
        ``--codec`` forwarded to every replica (``binary`` offers the
        negotiated binary frame codec; ``json`` forces JSON).
    serve_args:
        Extra ``python -m repro.serve`` flags appended verbatim
        (e.g. ``["--batch-max", "2048"]``).
    boot_timeout:
        Seconds to wait for a (re)spawned replica's port file.
    python:
        Interpreter of the zygote the supervisor execs when it was
        given none.
    zygote:
        The :class:`~repro.cluster.zygote.Zygote` every replica is
        forked from; its owner closes it.  ``None`` (the default):
        the supervisor execs one on first spawn and closes it in
        :meth:`stop`.
    max_respawn_burst / respawn_window:
        The crash-loop escalation threshold: strictly more than
        ``max_respawn_burst`` respawns of one partition within
        ``respawn_window`` seconds marks the cluster unhealthy —
        terminally (see the module docstring).
    """

    def __init__(
        self,
        capacity: int,
        n_replicas: int,
        *,
        workdir: str | Path,
        host: str = "127.0.0.1",
        backend: str = "auto",
        codec: str = "binary",
        serve_args: list[str] | None = None,
        boot_timeout: float = 30.0,
        python: str = sys.executable,
        max_respawn_burst: int = 5,
        respawn_window: float = 30.0,
        zygote: Zygote | None = None,
    ) -> None:
        if n_replicas < 1:
            raise CapacityError(
                f"n_replicas must be >= 1, got {n_replicas}"
            )
        if capacity < n_replicas:
            raise CapacityError(
                f"capacity {capacity} cannot spread over {n_replicas} "
                f"replicas"
            )
        self._capacity = capacity
        self._n = n_replicas
        self._workdir = Path(workdir)
        self._host = host
        self._backend = backend
        self._codec = codec
        self._serve_args = list(serve_args or ())
        self._boot_timeout = boot_timeout
        self._python = python
        if max_respawn_burst < 1:
            raise CapacityError(
                f"max_respawn_burst must be >= 1, got {max_respawn_burst}"
            )
        self._max_burst = max_respawn_burst
        self._window = respawn_window
        self._zygote = zygote
        self._own_zygote = False
        self._zygote_lock = threading.Lock()
        self._procs: list[ReplicaProcess | None] = [None] * n_replicas
        self._ports: list[int | None] = [None] * n_replicas
        self._respawn_times: list[list[float]] = [
            [] for _ in range(n_replicas)
        ]
        self._unhealthy: str | None = None
        self._generation = 0
        self._staged: dict | None = None
        self.respawns = 0

    # -- paths ---------------------------------------------------------

    def _path(self, kind: str, p: int, gen: int) -> Path:
        """Per-replica file path; generation 0 keeps the legacy names.

        The bare ``replica-{p}.*`` names are load-bearing: external
        chaos (the CI kill gate, operators) targets replicas by pid
        file without asking the supervisor, so the serving tier's
        files never move.  Staged/rescaled generations get the
        ``replica-g{gen}-{p}.*`` prefix instead.
        """
        stem = f"replica-{p}" if gen == 0 else f"replica-g{gen}-{p}"
        return self._workdir / f"{stem}.{kind}"

    def port_file(self, p: int) -> Path:
        return self._path("port", p, self._generation)

    def pid_file(self, p: int) -> Path:
        return self._path("pid", p, self._generation)

    def log_file(self, p: int) -> Path:
        return self._path("log", p, self._generation)

    # -- lifecycle -----------------------------------------------------

    @property
    def n_replicas(self) -> int:
        return self._n

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        """Current ``(host, port)`` per partition (after :meth:`start`)."""
        if any(port is None for port in self._ports):
            raise RuntimeError("supervisor not started")
        return [(self._host, port) for port in self._ports]

    async def start(self) -> "ReplicaSupervisor":
        """Spawn every replica and wait until all ports are published."""
        self._workdir.mkdir(parents=True, exist_ok=True)
        for p in range(self._n):
            await self._off_loop(self._spawn, p)
        for p in range(self._n):
            self._ports[p] = await self._wait_port(p)
        return self

    def _ready_zygote(self) -> Zygote:
        """The zygote to fork from: the given one while it lives, else
        one this supervisor execs (and owns)."""
        if self._zygote is None or not self._zygote.alive:
            if self._own_zygote:
                self._zygote.close()
            self._zygote = Zygote.exec(self._python)
            self._own_zygote = True
        return self._zygote

    def _launch(self, p: int, n: int, gen: int) -> ReplicaProcess:
        """Fork one replica for partition ``p`` of an ``n``-way
        generation-``gen`` tier and publish its pid file.

        Callers on the event loop run it (or :meth:`_spawn`) through
        :meth:`_off_loop`: the zygote's answer takes a fork round trip,
        and an exec'd zygote answers only once it has imported the
        serving stack.
        """
        fault_point_sync("supervisor.spawn")
        port_file = self._path("port", p, gen)
        port_file.unlink(missing_ok=True)
        argv = [
            "--capacity",
            str(_partition_capacity(self._capacity, p, n)),
            "--backend",
            self._backend,
            "--host",
            self._host,
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--codec",
            self._codec,
            "--role",
            "replica",
            "--partition",
            f"{p}/{n}",
            *self._serve_args,
        ]
        with self._zygote_lock:
            zygote = self._ready_zygote()
        proc = zygote.spawn(
            argv, str(self._path("log", p, gen)), self._boot_timeout
        )
        (self._workdir / "zygote.pid").write_text(f"{zygote.pid}\n")
        self._path("pid", p, gen).write_text(f"{proc.pid}\n")
        log_event(
            _log, f"replica {p} spawned (pid {proc.pid})",
            event="replica_spawn", partition=p, generation=gen,
            pid=proc.pid,
        )
        get_registry().counter("cluster.replica.spawns").inc()
        return proc

    @staticmethod
    async def _off_loop(fn, *args) -> None:
        """Run ``fn(*args)`` in a worker thread.  A cancelled caller
        still waits for it, so a replica it forks is always recorded
        where :meth:`stop` finds it."""
        call = asyncio.ensure_future(asyncio.to_thread(fn, *args))
        try:
            await asyncio.shield(call)
        except asyncio.CancelledError:
            await asyncio.wait({call})
            call.exception()  # read, so a spawn error is not reported as lost
            raise

    def _spawn(self, p: int) -> None:
        self._kill_stale(self.pid_file(p), self._procs[p])
        self._procs[p] = self._launch(p, self._n, self._generation)

    def _kill_stale(
        self, pid_path: Path, own: ReplicaProcess | None
    ) -> None:
        """Kill a leftover replica from a dead supervisor, by pid file.

        A router SIGKILL orphans its replicas: a *new* supervisor in
        the same workdir has no Popen handle on them, but their pid
        files survive.  Spawning a second replica for the same
        partition next to a live orphan would split the partition's
        state, so the stale pid is killed first.  Only pids this
        supervisor does not own are touched, and only best-effort (the
        pid may be long dead or recycled — ESRCH/EPERM are fine).
        """
        try:
            stale = int(pid_path.read_text().strip())
        except (FileNotFoundError, ValueError):
            return
        if own is not None and own.pid == stale:
            return
        try:
            os.kill(stale, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

    async def _await_port(
        self, proc: ReplicaProcess, port_file: Path, label: str
    ) -> int:
        """Poll for a replica's (atomically written) port file; record
        its boot time, spawn request to published port."""
        deadline = proc.started + self._boot_timeout
        log_hint = port_file.with_suffix(".log")
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"{label} exited with code {proc.returncode} "
                    f"before binding (see {log_hint})"
                )
            try:
                text = port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.strip():
                get_registry().histogram("cluster.replica.boot_ms").observe(
                    (time.monotonic() - proc.started) * 1e3
                )
                return int(text.strip())
            await asyncio.sleep(0.005)
        raise RuntimeError(
            f"{label} did not publish a port within "
            f"{self._boot_timeout:g}s (see {log_hint})"
        )

    async def _wait_port(self, p: int) -> int:
        return await self._await_port(
            self._procs[p], self.port_file(p), f"replica {p}"
        )

    def alive(self, p: int) -> bool:
        proc = self._procs[p]
        return proc is not None and proc.poll() is None

    def pid(self, p: int) -> int:
        proc = self._procs[p]
        if proc is None:
            raise RuntimeError(f"replica {p} was never spawned")
        return proc.pid

    async def ensure_replica(self, p: int) -> tuple[str, int]:
        """The router's recovery hook: endpoint of a live replica ``p``.

        A dead process is respawned (fresh, empty — the router restores
        the snapshot and replays the journal on top) and its new port
        awaited.  A live process just returns its current endpoint —
        the caller's connection failure may have been transient.
        """
        if not 0 <= p < self._n:
            raise CapacityError(
                f"partition {p} out of range [0, {self._n})"
            )
        if self._unhealthy is not None:
            raise ClusterUnhealthyError(self._unhealthy)
        if not self.alive(p):
            self._note_respawn(p)
            self.respawns += 1
            get_registry().counter("cluster.replica.respawns").inc()
            log_event(
                _log, f"replica {p} died; respawning",
                event="replica_respawn", partition=p,
                respawns=self.respawns,
            )
            await self._off_loop(self._spawn, p)
            self._ports[p] = await self._wait_port(p)
        return (self._host, self._ports[p])

    def _note_respawn(self, p: int) -> None:
        """Record one respawn of ``p``; escalate on a storm.

        Sticky on purpose: once a partition crash-loops past the
        threshold, the answer is an operator (or a test teardown), not
        respawn attempt number fifty — so the unhealthy verdict never
        resets by itself.
        """
        now = time.monotonic()
        times = self._respawn_times[p]
        times.append(now)
        cutoff = now - self._window
        while times and times[0] < cutoff:
            times.pop(0)
        if len(times) > self._max_burst:
            self._unhealthy = (
                f"replica {p} respawned {len(times)} times within "
                f"{self._window:g}s (limit {self._max_burst}); the "
                f"partition is crash-looping and the cluster is "
                f"terminally unhealthy"
            )
            _log.error(
                self._unhealthy,
                extra={
                    "fields": {
                        "event": "cluster_unhealthy",
                        "partition": p,
                        "respawns_in_window": len(times),
                    }
                },
            )
            get_registry().counter("cluster.escalations").inc()
            raise ClusterUnhealthyError(self._unhealthy)

    @property
    def unhealthy(self) -> str | None:
        """The sticky escalation verdict (``None`` while healthy)."""
        return self._unhealthy

    @property
    def generation(self) -> int:
        """The serving tier's generation (0 until a rescale commits)."""
        return self._generation

    def kill(self, p: int, sig: int = signal.SIGKILL) -> None:
        """Send ``sig`` to replica ``p`` (the chaos hook for tests)."""
        os.kill(self.pid(p), sig)

    # -- generations (live rescale) ------------------------------------

    async def spawn_generation(self, n_new: int) -> list[tuple[str, int]]:
        """Boot a complete staged tier of ``n_new`` replicas.

        The staged generation serves nothing until
        :meth:`commit_generation` adopts it; the current tier keeps
        running untouched.  Returns the staged endpoints.  A boot
        failure tears down whatever partially spawned and re-raises —
        staging is all-or-nothing.
        """
        if self._unhealthy is not None:
            raise ClusterUnhealthyError(self._unhealthy)
        if self._staged is not None:
            raise RuntimeError(
                "a staged generation is already in flight"
            )
        if n_new < 1:
            raise CapacityError(f"n_new must be >= 1, got {n_new}")
        if self._capacity < n_new:
            raise CapacityError(
                f"capacity {self._capacity} cannot spread over "
                f"{n_new} replicas"
            )
        gen = self._generation + 1
        procs: list[ReplicaProcess] = []
        try:
            for q in range(n_new):
                self._kill_stale(self._path("pid", q, gen), None)
                await self._off_loop(
                    lambda q: procs.append(self._launch(q, n_new, gen)), q
                )
            ports = []
            for q, proc in enumerate(procs):
                ports.append(
                    await self._await_port(
                        proc,
                        self._path("port", q, gen),
                        f"replica g{gen}-{q}",
                    )
                )
        except BaseException:
            self._stop_procs(procs, timeout=5.0)
            raise
        self._staged = {
            "generation": gen,
            "n": n_new,
            "procs": procs,
            "ports": ports,
        }
        return [(self._host, port) for port in ports]

    async def commit_generation(self) -> None:
        """Adopt the staged tier as the serving one; retire the old.

        The swap is instantaneous (list assignments); only the old
        tier's SIGTERM + reap runs off-loop, after the staged tier is
        already serving.
        """
        staged = self._staged
        if staged is None:
            raise RuntimeError("no staged generation to commit")
        old = [proc for proc in self._procs if proc is not None]
        self._staged = None
        self._generation = staged["generation"]
        self._n = staged["n"]
        self._procs = list(staged["procs"])
        self._ports = list(staged["ports"])
        self._respawn_times = [[] for _ in range(self._n)]
        await asyncio.to_thread(self._stop_procs, old, 10.0)

    async def abort_generation(self) -> None:
        """Tear down a staged tier that will never serve (idempotent)."""
        staged = self._staged
        if staged is None:
            return
        self._staged = None
        await asyncio.to_thread(
            self._stop_procs, staged["procs"], 5.0
        )

    async def reconfigure(
        self, n: int, generation: int
    ) -> list[tuple[str, int]]:
        """Rebuild the tier at a recovered WAL layout, before serving.

        The boot-time path: the router found a committed rescale in
        its WAL and the configured replica count is stale.  The
        freshly started (empty) tier is stopped and respawned at the
        durable shape — nothing has been restored into it yet, so no
        state moves.
        """
        if n < 1:
            raise CapacityError(f"n must be >= 1, got {n}")
        if self._capacity < n:
            raise CapacityError(
                f"capacity {self._capacity} cannot spread over {n} "
                f"replicas"
            )
        old = [proc for proc in self._procs if proc is not None]
        await asyncio.to_thread(self._stop_procs, old, 10.0)
        self._generation = generation
        self._n = n
        self._procs = [None] * n
        self._ports = [None] * n
        self._respawn_times = [[] for _ in range(n)]
        for p in range(n):
            await self._off_loop(self._spawn, p)
        for p in range(n):
            self._ports[p] = await self._wait_port(p)
        return self.endpoints

    # -- teardown ------------------------------------------------------

    @staticmethod
    def _stop_procs(procs, timeout: float = 10.0) -> None:
        """SIGTERM the given processes and reap them."""
        for proc in procs:
            if proc is None or proc.poll() is not None:
                continue
            try:
                proc.terminate()
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for proc in procs:
            if proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(5.0)

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM every live replica — staged tier included — and
        reap them, then close the zygote this supervisor execs
        (idempotent)."""
        staged = self._staged
        self._staged = None
        procs = list(self._procs)
        if staged is not None:
            procs.extend(staged["procs"])
        self._stop_procs(procs, timeout)
        with self._zygote_lock:
            if self._own_zygote:
                self._zygote.close()
                self._zygote = None
                self._own_zygote = False

    async def __aenter__(self) -> "ReplicaSupervisor":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        self.stop()
