"""An in-process replica tier for driving a :class:`ClusterRouter`.

:class:`InProcessSupervisor` duck-types the supervisor calls the
router makes (``endpoints``, ``ensure_replica`` and the rescale
generation hooks) with real :class:`~repro.server.service.ProfileServer`
replicas on loopback, all on the caller's event loop — no subprocess,
so tests can reach into a replica (pause its reads, swap its request
reader) and crash it deterministically.

Not imported by :mod:`repro.testing` itself: this module pulls in the
server stack, which the fault hooks threaded through that stack must
not.
"""

from __future__ import annotations

from repro.api.facade import Profiler
from repro.cluster import partition_capacity
from repro.server.service import ProfileServer


class InProcessSupervisor:
    """The replica tier as in-process servers on this event loop.

    ``cells[p]`` is partition ``p``'s ``(server, profiler)``.  A replica
    that is no longer serving (stopped, or :meth:`crash`-ed) is
    respawned empty by :meth:`ensure_replica`, as a process supervisor
    would; the router's restore + replay then rebuilds it.
    """

    def __init__(self, m: int, n_parts: int) -> None:
        self.m = m
        self.n = n_parts
        self.cells: list = [None] * n_parts
        self.staged = None
        self.generation = 0
        self.respawns = 0

    async def start(self) -> "InProcessSupervisor":
        for p in range(self.n):
            self.cells[p] = await self._spawn(p, self.n)
        return self

    async def _spawn(self, p: int, n: int):
        profiler = Profiler.open(
            partition_capacity(self.m, p, n), backend="flat"
        )
        server = ProfileServer(
            profiler, port=0, role="replica", partition=(p, n)
        )
        await server.start()
        return (server, profiler)

    @property
    def servers(self) -> list[ProfileServer]:
        return [srv for srv, _ in self.cells]

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        return [(srv.host, srv.port) for srv, _ in self.cells]

    async def ensure_replica(self, p: int) -> tuple[str, int]:
        server, _profiler = self.cells[p]
        if server._server is None or not server._server.is_serving():
            self.respawns += 1
            self.cells[p] = await self._spawn(p, self.n)
            server, _profiler = self.cells[p]
        return (server.host, server.port)

    async def crash(self, p: int) -> None:
        """What SIGKILL leaves: aborted sockets, no drain, state gone."""
        server, profiler = self.cells[p]
        server._server.close()
        for task in list(server._reader_tasks):
            task.cancel()
        if server._flusher is not None:
            server._flusher.cancel()
        for conn in list(server._conns):
            conn.writer.transport.abort()
        profiler.close()

    # -- rescale generations --------------------------------------------

    async def spawn_generation(self, n_new: int) -> list[tuple[str, int]]:
        assert self.staged is None, "one staged generation at a time"
        cells = [await self._spawn(q, n_new) for q in range(n_new)]
        self.staged = (n_new, cells)
        return [(srv.host, srv.port) for srv, _ in cells]

    async def commit_generation(self) -> None:
        n_new, cells = self.staged
        self.staged = None
        old = self.cells
        self.n = n_new
        self.cells = cells
        self.generation += 1
        await self._stop_cells(old)

    async def abort_generation(self) -> None:
        if self.staged is None:
            return
        _n, cells = self.staged
        self.staged = None
        await self._stop_cells(cells)

    @staticmethod
    async def _stop_cells(cells) -> None:
        for server, profiler in cells:
            try:
                await server.stop()
            except Exception:  # noqa: BLE001 - crashed cells
                pass
            profiler.close()

    async def stop(self) -> None:
        cells = list(self.cells)
        if self.staged is not None:
            cells.extend(self.staged[1])
        await self._stop_cells(cells)
