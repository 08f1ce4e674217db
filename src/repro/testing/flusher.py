"""Hold a server's flusher busy, so tests can build a flush on purpose.

:class:`~repro.server.service.ProfileServer` group-commits: each
flush takes whatever queued while the previous one ran.  Tests that
need several wire batches in *one* flush (cross-batch admission,
rejection isolation, barriers, drain) queue them while the flusher is
held:

.. code-block:: python

    async with hold_flusher(server, queued=2):
        f_a = await a.ingest([(4, -1)], wait=False)
        f_b = await b.ingest([(4, +1)], wait=False)
    # both batches leave in one flush

The hold is a plug item in the server's own pipeline, so nothing it
does shows up in the server's counters.  Works for
:class:`~repro.cluster.router.ClusterRouter` too; run it on the
server's event loop.
"""

from __future__ import annotations

import asyncio
import contextlib

__all__ = ["hold_flusher"]


@contextlib.asynccontextmanager
async def hold_flusher(server, *, queued: int = 0, timeout: float = 10.0):
    """Keep ``server``'s flusher parked for the body of the block.

    On exit, wait until at least ``queued`` pipeline items sit behind
    the plug (the readers enqueue asynchronously), then release it:
    the flusher's next round takes them together, up to ``batch_max``
    events.  Raises :class:`TimeoutError` if they never arrive.
    """
    # Imported here: the serving stack imports repro.testing for its
    # fault points, so a module-level import would be circular.
    from repro.server.service import _Item

    held = asyncio.Event()
    release = asyncio.Event()
    plug = _Item("hold", None, None)
    execute = server._execute

    async def parked(item):
        if item is not plug:
            await execute(item)
            return
        held.set()
        await release.wait()

    server._execute = parked
    try:
        await server._queue.put(plug)
        await asyncio.wait_for(held.wait(), timeout)
        yield
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while server._queue.qsize() < queued:
            if loop.time() > deadline:
                raise TimeoutError(
                    f"only {server._queue.qsize()} of {queued} items "
                    f"queued behind the held flusher"
                )
            await asyncio.sleep(0.001)
    finally:
        release.set()
        del server._execute
