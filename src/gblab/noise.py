"""Standard normals for bridge batches: drawn inline, or ahead in a helper process.

A bridge batch fills every tile-step's noise from a _RowStreams: the
generators of its row groups, each filling its rows in row order.  Large
batches hand those generators to a persistent helper process instead.  The
helper is forked on first use, blocks on a pipe between batches and exits
when the pipe reaches EOF (the owner closes it at exit, or dies).  It makes
the same fill calls in the same order (by step, then tile, then row group)
into a shared-memory ring of tile-sized slots, one slot per tile-step, and
the stepping copies each tile's normals out of its slot.  At the end of the
batch the helper's final generator states are copied into the caller's
generators.  A draw depends only on a generator's state and the calls made
on it, never on the process that makes them (Philox is counter-based, and
any other bit generator's state is copied whole), so every number, path and
report is bitwise the one an inline batch gives.

Within a batch the two processes wait for each other by spinning on two
int64 counters in the ring (slots produced and consumed): a semaphore wake-up
cost 0.4-0.55 ms on a 2-CPU VM, longer than drawing a slot.  Between batches
the helper blocks on its pipe and the owner never waits on the ring.  Every
wait is bounded and checks that the helper is alive; a helper that dies or
stalls is killed, and the batch redraws what it has consumed inline and goes
on inline, so a lost helper changes no number either.

Drawing stays inline for batches below HELPER_MIN_NORMALS normals, for tiles
whose slot does not fit the ring, in processes that can use only one CPU or
run other Python threads (fork is unsafe there), in multiprocessing workers
(a `workers > 1` pool already keeps every CPU busy), and where os.fork or the
x86 store order the counters rely on is missing.  A process forked from the
helper's owner never uses the owner's ring (the owner's pid is checked).
"""

from __future__ import annotations

import atexit
import contextlib
import mmap
import os
import pickle
import select
import signal
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

# A batch of P paths and `steps` steps needs P * n * (steps - 1) normals.
# From this many on it draws through the helper.  Handing a batch over costs
# about 1.7 ms (a 20-path, 40-step disk batch: 5.7 ms through the helper,
# 4.1 ms inline), against 27 ms to draw 1e6 Philox normals inline; so the
# handshake stays under a tenth of the draw it overlaps, and the many small
# batches of the tests keep drawing inline.
HELPER_MIN_NORMALS = 1_000_000
# The slot area of the ring: 4-8 tile slots on the benchmarks.  More slots ride
# out longer scheduling gaps, but every slot the stepping reads stays in its
# resident set (1 MiB added about 1.5 MB to the benchmarks' peak RSS).
RING_BYTES = 768 << 10
WAIT_S = 10.0             # the longest wait for the helper before drawing inline
_HEADER = 64              # bytes before the slots: the counters, one cache line
_PRODUCED, _CONSUMED, _CANCEL = 0, 1, 2


@dataclass(frozen=True)
class _RowStreams:
    """Generators that own consecutive row groups: gens[i] fills rows bounds[i]:bounds[i + 1]."""

    gens: tuple
    bounds: tuple

    def tile(self, rows: slice) -> "_RowStreams":
        """The groups' parts inside a row tile, with rows counted from the tile's start."""
        parts = [(g, max(a, rows.start), min(b, rows.stop))
                 for g, a, b in zip(self.gens, self.bounds, self.bounds[1:])]
        parts = [(g, a - rows.start, b - rows.start) for g, a, b in parts if a < b]
        return _RowStreams(tuple(g for g, _, _ in parts),
                           (0,) + tuple(b for _, _, b in parts))

    def fill(self, xi):
        """Fill the rows of xi with standard normals, group by group in row order."""
        for gen, a, b in zip(self.gens, self.bounds, self.bounds[1:]):
            gen.standard_normal(out=xi[a:b])


@contextlib.contextmanager
def batch_noise(tiles, n: int, steps: int):
    """The noise sources of one batch: one per tile, each with fill(xi).

    tiles are the _RowStreams of the batch's row tiles; every step fills
    them in order, steps times, with (rows, n) arrays.  The sources are the
    tiles themselves (inline), or one reader of the helper's ring that hands
    out the slots in that order.  On exit the tiles' generators stand where
    the inline fills would have left them, also after an exception.
    """
    rows = [t.bounds[-1] for t in tiles]
    large = sum(rows) * n * steps >= HELPER_MIN_NORMALS and 8 * max(rows) * n <= RING_BYTES
    # one batch at a time uses the helper; a batch of another thread draws inline
    if not (large and _IN_USE.acquire(blocking=False)):
        yield list(tiles)
        return
    ring = None
    try:
        helper = _helper()
        ring = None if helper is None else _RingReader(helper, tiles, n, steps * len(tiles))
        yield list(tiles) if ring is None else [ring] * len(tiles)
    finally:
        if ring is not None:
            ring.close()
        _IN_USE.release()


class _RingReader:
    """One batch's slots, read in fill order; falls back to inline fills if the helper is lost."""

    def __init__(self, helper, tiles, n, count):
        self.helper = helper
        self.tiles = tiles
        self.n = n
        self.count = count
        self.done = 0
        self.gens = list({id(g): g for t in tiles for g in t.gens}.values())
        self.slot = max(t.bounds[-1] for t in tiles) * n
        self.slots = max(1, min(count, helper.data.size // self.slot))
        if not helper.start((self.gens, tiles, n, count, self.slot, self.slots)):
            self._drop()

    def fill(self, xi):
        j = self.done
        if self.helper is not None and (self.helper.counters[_PRODUCED] > j or self._wait(j)):
            start = (j % self.slots) * self.slot
            np.copyto(xi, self.helper.data[start:start + xi.size].reshape(xi.shape))
            self.helper.counters[_CONSUMED] = j + 1
        else:
            self.tiles[j % len(self.tiles)].fill(xi)
        self.done = j + 1

    def _wait(self, j):
        """Spin until slot j is produced; False (now inline) if the helper died or stalled."""
        counters = self.helper.counters
        deadline = time.monotonic() + WAIT_S
        spins = 0
        while counters[_PRODUCED] <= j:
            spins += 1
            if spins % 1024 == 0 and (time.monotonic() > deadline or not self.helper.alive()):
                self._drop()
                return False
            os.sched_yield()  # a helper that shares this CPU runs at once
        return True

    def close(self):
        """Take the helper's final generator states, or redraw the consumed fills inline."""
        if self.helper is None:
            return
        if self.done < self.count:
            self.helper.counters[_CANCEL] = 1
        reply = self.helper.reply()
        if reply is _LOST:
            self._drop()
        elif self.done == self.count:
            for gen, state in zip(self.gens, reply):
                gen.bit_generator.state = state
        else:
            self._replay()

    def _drop(self):
        """Give up the helper: the caller's generators catch up on the fills consumed so far."""
        _discard(self.helper)
        self.helper = None
        self._replay()

    def _replay(self):
        scratch = np.empty(self.slot)
        for j in range(self.done):
            tile = self.tiles[j % len(self.tiles)]
            tile.fill(scratch[:tile.bounds[-1] * self.n].reshape(-1, self.n))


class _Helper:
    """The forked helper process, its two pipes (jobs in, replies out) and its ring."""

    def __init__(self):
        self.owner = os.getpid()
        self.ring = mmap.mmap(-1, _HEADER + RING_BYTES)
        self.counters = memoryview(self.ring).cast("q")
        self.data = np.frombuffer(self.ring, dtype=float, offset=_HEADER)
        jobs_in, self.jobs = os.pipe()
        self.replies, replies_out = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the helper
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # interrupts are the owner's
                self.close_pipes()
                _serve(jobs_in, replies_out, self.counters, self.data, self.owner)
            finally:
                os._exit(0)
        os.close(jobs_in)
        os.close(replies_out)

    def start(self, job) -> bool:
        """Reset the counters and send a batch; the helper is idle on its pipe."""
        self.counters[_PRODUCED] = self.counters[_CONSUMED] = self.counters[_CANCEL] = 0
        try:
            _send(self.jobs, job)
        except OSError:
            return False
        return True

    def alive(self) -> bool:
        try:
            return os.waitpid(self.pid, os.WNOHANG)[0] == 0
        except ChildProcessError:
            return False

    def reply(self):
        """The helper's reply to the current batch, or _LOST if it died or stalled."""
        deadline = time.monotonic() + WAIT_S
        while not select.select([self.replies], [], [], 0.05)[0]:
            if time.monotonic() > deadline or not self.alive():
                return _LOST
        try:
            return _receive(self.replies)
        except (EOFError, OSError):
            return _LOST

    def close_pipes(self):
        for fd in (self.jobs, self.replies):
            with contextlib.suppress(OSError):
                os.close(fd)

    def stop(self, kill=False):
        """Close the pipes (the helper exits at EOF) and reap the helper, killing it if told to or stuck."""
        self.close_pipes()
        deadline = time.monotonic() + WAIT_S
        while True:
            if kill or time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(self.pid, signal.SIGKILL)
                kill = False
            try:
                if os.waitpid(self.pid, os.WNOHANG)[0]:
                    return
            except ChildProcessError:
                return
            time.sleep(0.001)


def _send(fd, obj):
    """Write obj to a pipe as a length-prefixed pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    data = memoryview(len(data).to_bytes(8, "little") + data)
    while data:
        data = data[os.write(fd, data):]


def _receive(fd):
    """Read one length-prefixed pickle from a pipe; EOFError if the writer closed it."""
    def read(size):
        chunks = []
        while size:
            chunk = os.read(fd, size)
            if not chunk:
                raise EOFError
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    return pickle.loads(read(int.from_bytes(read(8), "little")))


def _serve(jobs, replies, counters, data, owner):
    """The helper's loop: one reply per batch until the jobs pipe reaches EOF."""
    while True:
        try:
            job = _receive(jobs)
        except EOFError:
            return
        _send(replies, _produce(counters, data, owner, *job))


def _produce(counters, data, owner, gens, tiles, n, count, slot, slots):
    """Fill the batch's slots in fill order; the final generator states, or None if cancelled."""
    for j in range(count):
        while j - counters[_CONSUMED] >= slots:  # the ring is full
            if counters[_CANCEL] or os.getppid() != owner:
                return None
            os.sched_yield()
        tile = tiles[j % len(tiles)]
        start = (j % slots) * slot
        tile.fill(data[start:start + tile.bounds[-1] * n].reshape(-1, n))
        counters[_PRODUCED] = j + 1
    return [g.bit_generator.state for g in gens]


_HELPER = None
_IN_USE = threading.Lock()
_LOST = object()  # the reply of a helper that died or stalled


def _helper():
    """The process's helper, forked now if needed; None where drawing stays inline."""
    global _HELPER
    if _HELPER is not None and _HELPER.owner != os.getpid():
        _HELPER.close_pipes()  # inherited through a fork: the ring is the parent's
        _HELPER = None
    if _HELPER is not None and not _HELPER.alive():
        _discard(_HELPER)
    if _HELPER is None and _can_fork_helper():
        try:
            _HELPER = _Helper()
        except OSError:
            return None
    return _HELPER


def _discard(helper):
    global _HELPER
    helper.stop(kill=True)
    if _HELPER is helper:
        _HELPER = None


def _can_fork_helper() -> bool:
    if not hasattr(os, "fork") or os.uname().machine.lower() not in ("x86_64", "amd64"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2 or threading.active_count() > 1:
        return False
    mp = sys.modules.get("multiprocessing")
    return mp is None or mp.parent_process() is None


def _stop_at_exit():
    if _HELPER is not None and _HELPER.owner == os.getpid():
        _HELPER.stop()


atexit.register(_stop_at_exit)
