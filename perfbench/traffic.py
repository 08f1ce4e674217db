"""Load generators for the deployed tier (``tier_bulk``, ``tier_live``).

Both drive the router from this process over at most two connections
of the public :class:`~repro.server.client.AsyncProfileClient`: one
sends ingest frames, the other the dashboard.

- closed loop (``tier_bulk``): a fixed number of frames in flight; the
  next frame leaves when an ack frees a slot.  Ack latency is timed
  from the send.
- open loop (``tier_live``): frames leave on a fixed schedule whatever
  the tier does.  Ack latency is timed from each frame's due time, so
  a stall also charges the frames queued behind it.

The dashboard is always an open loop at a fixed rate, timed from the
due time.  How late the generator itself ran is recorded for both
loops: a run whose generator fell behind is invalid.

After the window every outstanding ack is awaited and the final
dashboard plus ``total`` is compared with a numpy reference built from
the acked frames.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter, process_time

import numpy as np

from repro.api.plan import Query
from repro.server.client import AsyncProfileClient

from perfbench.workloads import DASHBOARD, Frames, check_dashboard


#: Seconds of load before the measured window opens.
WARMUP_S = 2.0


@dataclass
class Load:
    """How one workload loads the tier."""

    closed_inflight: int = 0  # > 0: closed loop with this many in flight
    frame_rate: float = 0.0  # open loop: frames per second
    query_rate: float = 5.0  # dashboards per second


@dataclass
class Window:
    """Raw samples of one measured window."""

    acked: np.ndarray  # times each frame was acked
    ack_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    window_events: int = 0  # of the frames sent in the window
    window_span: float = 0.0  # window start -> last of those acks
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    submit_s: list = field(default_factory=list)  # traced only
    sent: list = field(default_factory=list)  # frame indices sent in window
    loadgen_cpu_s: float = 0.0

    @property
    def ingest_eps(self) -> float:
        """Events of the frames sent in the window per second, from the
        window's start until the last of them was acked."""
        return self.window_events / self.window_span


async def drive(port: int, frames: Frames, load: Load, seconds: float,
                *, on_window=None, traced: bool = False) -> Window:
    """Run warm-up + window against the router on ``port``.

    ``on_window(edge)`` is called at the window's start (``"start"``)
    and end (``"end"``) — the hook the caller reads process CPU with.
    """
    loop = asyncio.get_running_loop()
    ingest = await AsyncProfileClient.connect(port=port)
    query = await AsyncProfileClient.connect(port=port)
    n_frames = len(frames)
    win = Window(np.zeros(n_frames, dtype=np.int64))
    t_begin = perf_counter()
    w0 = t_begin + WARMUP_S
    w1 = w0 + seconds
    pending: set = set()
    slots = asyncio.Semaphore(max(load.closed_inflight, 1))

    def on_ack(idx: int, t_ref: float, fut) -> None:
        now = perf_counter()
        pending.discard(fut)
        if load.closed_inflight:
            slots.release()
        if fut.cancelled() or fut.exception() is not None:
            win.failed += 1
            if not fut.cancelled():
                win.errors.append(repr(fut.exception()))
            return
        win.acked[idx] += 1
        if w0 <= t_ref < w1:
            win.ack_s.append(now - t_ref)
            win.window_events += frames.frame
            win.window_span = max(win.window_span, now - w0)

    async def send(i: int, t_ref: float) -> None:
        idx = i % n_frames
        t0 = perf_counter()
        try:
            fut = await ingest.ingest(frames[idx], wait=False)
        except (ConnectionError, OSError) as exc:
            win.failed += 1
            win.errors.append(repr(exc))
            if load.closed_inflight:
                slots.release()
            return
        if traced:
            win.submit_s.append(perf_counter() - t0)
        if w0 <= t_ref < w1:
            win.attempted += 1
            if traced:
                win.sent.append(idx)
        pending.add(fut)
        fut.add_done_callback(partial(on_ack, idx, t_ref))

    async def closed_loop() -> None:
        i = 0
        while perf_counter() < w1:
            await slots.acquire()
            await send(i, perf_counter())
            i += 1

    async def scheduled(rate: float, fire) -> None:
        k = 0
        while True:
            due = t_begin + k / rate
            if due >= w1:
                return
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late = perf_counter() - due
            if due >= w0:
                win.late_s.append(late)
            await fire(k, due)
            k += 1

    query_tasks: set = set()

    async def one_query(due: float) -> None:
        try:
            await query.evaluate(*DASHBOARD)
        except Exception as exc:  # a refused query counts as failed
            if due >= w0:
                win.failed += 1
                win.errors.append(repr(exc))
            return
        if due >= w0:
            win.query_s.append(perf_counter() - due)

    async def query_due(k: int, due: float) -> None:
        if due >= w0:
            win.attempted += 1
        task = loop.create_task(one_query(due))
        query_tasks.add(task)
        task.add_done_callback(query_tasks.discard)

    async def edges() -> None:
        await asyncio.sleep(max(0.0, w0 - perf_counter()))
        if on_window is not None:
            on_window("start")
        win.loadgen_cpu_s = -process_time()
        await asyncio.sleep(max(0.0, w1 - perf_counter()))
        win.loadgen_cpu_s += process_time()
        if on_window is not None:
            on_window("end")

    try:
        feeder = (
            closed_loop() if load.closed_inflight
            else scheduled(load.frame_rate, send)
        )
        await asyncio.gather(
            feeder, scheduled(load.query_rate, query_due), edges()
        )
        if pending:
            await asyncio.wait(list(pending), timeout=60.0)
        if query_tasks:
            await asyncio.wait(list(query_tasks), timeout=60.0)
        if pending or query_tasks:
            raise TimeoutError("acks still outstanding 60 s after the window")
        final = await query.evaluate(*DASHBOARD, Query.total())
        counts = frames.reference(win.acked)
        bad = check_dashboard(final.values, counts, final.values[6])
        win.attempted += 1
        if bad:
            win.failed += 1
            win.errors.extend(bad)
    finally:
        await ingest.aclose()
        await query.aclose()
    return win

