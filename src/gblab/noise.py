"""Standard normals for bridge batches, drawn inline or ahead in a helper process, and the
helper's jobs.

A bridge batch fills every tile-step's noise from a _RowStreams: the
generators of its row groups, each filling its rows in row order.  Paired
streams fill antithetic pairs: each group draws half its rows' normals, and
rows 2j and 2j + 1 of the group take draw j and its negation.  The pairing
lives in _RowStreams.fill alone, so inline fills, the helper's slots and the
fallback's replay all give the same pairs; a slot still holds one tile's
rows in row order.  Large
batches hand those generators to a persistent helper process instead.  The
helper is forked on first use, blocks on a pipe between batches and exits
when the pipe reaches EOF (the owner closes it at exit, or dies).  It makes
the same fill calls in the same order (by step, then tile, then row group)
into a shared-memory ring of tile-sized slots, one slot per tile-step, and
the stepping copies each tile's normals out of its slot.  The slots hold
float64 draws, as every fill does, and the copy rounds them to the walk
precision of the array it fills (float32 on a flat ball's walks), so the
same seed draws the same numbers in either precision.  At the end of the
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
on inline, so a lost helper changes no number either.  A wait for a reply
that an exception cuts short kills the helper too, because its reply, left
unread, would answer the next job.

Drawing stays inline for batches that draw fewer than HELPER_MIN_NORMALS
normals (a paired batch draws half its rows' normals), for tiles whose slot
does not fit the ring, in processes that can use only one CPU or run other
Python threads (fork is unsafe there), and where os.fork or the x86 store
order the counters rely on is missing.  A process forked from the
helper's owner never uses the owner's ring (the owner's pid is checked).

The helper runs one kind of job (_Job, sent through helper_job): a task and
its arguments, whose reply is the task's value and the end states of the
generators it drew from, or None when it failed or was cancelled.  The
ring is the task _produce, whose value is None.  The other task, _step,
steps a batch's trailing row groups with the generators those groups own:
it runs a function with every draw inline and counts its steps in the
produced counter.  Until the reply is read the caller never touches the
job's generators, which reach the helper in the caller's states, so a step
job's value is bitwise the one the caller gets by running the function
itself; the caller does so when the helper is lost, meets an error or
cannot be sent the job.  The wait for a reply gives up after WAIT_S
without a step or a slot.  Between jobs the helper blocks on its pipe; it
holds _IN_USE for good, so it never splits or rings a batch of its own.
One batch at a time uses the helper, with one job.
"""

from __future__ import annotations

import atexit
import contextlib
import mmap
import os
import pickle
import select
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

# A batch of P paths and `steps` steps draws P * n * (steps - 1) normals
# (P * n * steps for free walks), half as many when its rows are antithetic
# pairs.  From this many drawn normals on it draws through the helper.
# Handing a batch over costs about 1.7 ms (a 20-path, 40-step disk batch:
# 5.7 ms through the helper, 4.1 ms inline), against 27 ms to draw 1e6 Philox
# normals inline; so the handshake stays under a tenth of the draw it
# overlaps, and the many small batches of the tests keep drawing inline.
HELPER_MIN_NORMALS = 1_000_000
# The slot area of the ring: 4-8 tile slots on the benchmarks.  More slots ride
# out longer scheduling gaps, but every slot the stepping reads stays in its
# resident set (1 MiB added about 1.5 MB to the benchmarks' peak RSS).
RING_BYTES = 768 << 10
WAIT_S = 10.0             # the longest wait for the helper's next slot or step
_HEADER = 64              # bytes before the slots: the counters, one cache line
_PRODUCED, _CONSUMED, _CANCEL = 0, 1, 2


@dataclass(frozen=True)
class _RowStreams:
    """Generators that own consecutive row groups: gens[i] fills rows bounds[i]:bounds[i + 1].

    With paired set, every bound is even and each group is filled with
    antithetic pairs (see fill).
    """

    gens: tuple
    bounds: tuple
    paired: bool = False

    def normals(self, n: int, steps: int) -> int:
        """The normals its rows draw in `steps` fills of n columns: half as many when paired."""
        return self.bounds[-1] // (2 if self.paired else 1) * n * steps

    def tile(self, rows: slice) -> "_RowStreams":
        """The groups' parts inside a row tile, with rows counted from the tile's start."""
        if self.paired and (rows.start % 2 or rows.stop % 2):
            raise ValueError(f"a tile of rows {rows.start}:{rows.stop} splits an antithetic pair")
        parts = [(g, max(a, rows.start), min(b, rows.stop))
                 for g, a, b in zip(self.gens, self.bounds, self.bounds[1:])]
        parts = [(g, a - rows.start, b - rows.start) for g, a, b in parts if a < b]
        return _RowStreams(tuple(g for g, _, _ in parts),
                           (0,) + tuple(b for _, _, b in parts), self.paired)

    def fill(self, xi):
        """Fill the rows of xi with standard normals, group by group in row order.

        Paired, a group of r rows draws r / 2 rows of normals, and its rows
        2j and 2j + 1 hold draw j and -(draw j): the groups draw in row order
        into the upper half of xi, and _spread_pairs moves the draws down.
        The draws are float64: an xi of another precision takes them rounded,
        through a float64 scratch array.
        """
        if xi.dtype != np.float64:
            scratch = np.empty(xi.shape)
            self.fill(scratch)
            np.copyto(xi, scratch)
            return
        if not self.paired:
            for gen, a, b in zip(self.gens, self.bounds, self.bounds[1:]):
                gen.standard_normal(out=xi[a:b])
            return
        half = xi.shape[0] // 2
        for gen, a, b in zip(self.gens, self.bounds, self.bounds[1:]):
            gen.standard_normal(out=xi[half + a // 2:half + b // 2])
        _spread_pairs(xi)


def _spread_pairs(xi):
    """Move draw j from row half + j of xi to row 2j, and its negation to row 2j + 1, in place.

    The draws move in blocks from the first: block [lo, hi) lands on rows
    [2 lo, 2 hi), below its own draws (2 hi <= half + lo) and so below every
    draw still to move, which keeps each copy free of overlap and of
    temporaries; the last draw, in the last row, moves alone.  The copies
    move whole rows (one void item each), several times faster than
    strided float copies of a few columns.
    """
    half = xi.shape[0] // 2
    rows = xi.view(np.dtype((np.void, xi.itemsize * xi.shape[1]))).reshape(-1)
    lo = 0
    while lo < half - 1:
        hi = (half + lo) // 2
        draws = xi[half + lo:half + hi]
        rows[2 * lo:2 * hi:2] = rows[half + lo:half + hi]
        np.negative(draws, out=draws)
        rows[2 * lo + 1:2 * hi:2] = rows[half + lo:half + hi]
        lo = hi
    rows[-2] = rows[-1]
    np.negative(xi[-1], out=xi[-1])


@contextlib.contextmanager
def batch_noise(streams: _RowStreams, tiles, n: int, steps: int):
    """The noise sources of one batch: one per row tile, each with fill(xi).

    streams fill the batch's rows and tiles are the row slices of its tiles;
    every step fills the tiles in order, steps times, with (rows, n) arrays.
    The sources are the tiles' parts of streams (inline), or one reader of
    the helper's ring that hands out the slots in that order.  On exit the
    generators stand where inline fills leave them, also after an exception.
    """
    parts = [streams.tile(rows) for rows in tiles]
    count = steps * len(parts)
    slot = max(part.bounds[-1] for part in parts) * n
    # tiles whose slot does not fit the ring draw inline
    drawn = streams.normals(n, steps) if 8 * slot <= RING_BYTES else 0
    with helper_job(_produce, (parts, n, count, slot), streams.gens, drawn) as job:
        if job is None or job.helper is None:
            yield parts
            return
        ring = _RingReader(job, parts, n, count, slot)
        try:
            yield [ring] * len(parts)
        finally:
            ring.close()


class _RingReader:
    """The slots of one batch's _produce job, read in fill order; inline once the helper is lost."""

    def __init__(self, job, tiles, n, count, slot):
        self.job = job
        self.tiles = tiles
        self.n = n
        self.count = count
        self.done = 0
        self.slot = slot
        self.slots = _ring_slots(job.helper.data, slot, count)

    def fill(self, xi):
        j = self.done
        helper = self.job.helper
        if helper is not None and (helper.counters[_PRODUCED] > j or self._wait(j)):
            start = (j % self.slots) * self.slot
            np.copyto(xi, helper.data[start:start + xi.size].reshape(xi.shape))  # rounds to xi
            helper.counters[_CONSUMED] = j + 1
        else:
            self.tiles[j % len(self.tiles)].fill(xi)
        self.done = j + 1

    def _wait(self, j):
        """Spin until slot j is produced; False (now inline) if the helper died or stalled."""
        helper = self.job.helper
        deadline = time.monotonic() + WAIT_S
        spins = 0
        while helper.counters[_PRODUCED] <= j:
            spins += 1
            if spins % 1024 == 0 and (time.monotonic() > deadline or not helper.alive()):
                _discard(helper)  # its reply is never read
                self.job.helper = None
                self._replay()
                return False
            os.sched_yield()  # a helper that shares this CPU runs at once
        return True

    def close(self):
        """Take the helper's final generator states, or redraw the consumed fills inline."""
        if self.job.helper is not None:  # else it was lost, and the fills consumed redrawn then
            if self.done < self.count:  # an exception cut the batch short
                self.job.cancel()  # the helper's end states are ahead of the fills consumed
            self.job.result(self._replay)

    def _replay(self):
        scratch = np.empty(self.slot)
        for j in range(self.done):
            tile = self.tiles[j % len(self.tiles)]
            tile.fill(scratch[:tile.bounds[-1] * self.n].reshape(-1, self.n))


@contextlib.contextmanager
def helper_job(task, args, gens, normals: int):
    """A _Job that runs task(counters, data, owner, *args) in the helper, or None.

    The task draws only from the generators gens, and normals is what the
    whole batch draws.  Yields None, and the work stays with the caller,
    for batches under HELPER_MIN_NORMALS normals, while another batch uses
    the helper and where no helper can run.  This is the one place that
    claims the helper: one batch at a time uses it, and a batch of another
    thread gets None.  On exit a job whose reply was never read is
    cancelled, and its gens stay where they were.
    """
    if normals < HELPER_MIN_NORMALS or not _IN_USE.acquire(blocking=False):
        yield None
        return
    try:
        helper = _helper()
        job = None if helper is None else _Job(helper, task, args, gens)
        try:
            yield job
        finally:
            if job is not None:
                job.cancel()
    finally:
        _IN_USE.release()


class _Job:
    """One job sent to the helper, with the generators gens that its task draws from.

    helper is None once the reply is read, and when the helper was lost or
    never got the job.
    """

    def __init__(self, helper, task, args, gens):
        self.gens = gens
        try:
            sent = helper.start((task, args, gens, np.geterr()))
        except (pickle.PicklingError, AttributeError, TypeError):
            sent = False  # a model that cannot be pickled, a local class say, steps here
        self.helper = helper if sent else None

    def result(self, fallback):
        """The task's value, with gens at the helper's end states; or fallback() run here.

        fallback runs on the untouched gens when the task failed or was
        cancelled, or the helper is lost or never got the job.
        """
        reply = self._reply()
        if reply is None:
            return fallback()
        value, states = reply
        for gen, state in zip(self.gens, states):
            gen.bit_generator.state = state
        return value

    def cancel(self):
        """Cancel a job whose reply was never read, and read it; gens stay as they are."""
        if self.helper is not None:
            self.helper.counters[_CANCEL] = 1
            self._reply()

    def _reply(self):
        """The helper's reply, read once; None if the task failed or was cancelled, or no helper."""
        helper, self.helper = self.helper, None
        return None if helper is None else helper.reply()


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
        """Send a job to the idle helper, counters reset; False, and the helper discarded, if lost."""
        self.counters[_PRODUCED] = self.counters[_CONSUMED] = self.counters[_CANCEL] = 0
        try:
            _send(self.jobs, job)
        except OSError:
            _discard(self)
            return False
        return True

    def alive(self) -> bool:
        try:
            return os.waitpid(self.pid, os.WNOHANG)[0] == 0
        except ChildProcessError:
            return False

    def reply(self):
        """The helper's reply to the current job; None, and the helper discarded, if it died or stalled.

        It stalls when the produced counter stands still for WAIT_S.  A wait
        cut short by an exception (an interrupt, say) discards the helper
        too, whose unread reply would otherwise answer the next job.
        """
        produced = self.counters[_PRODUCED]
        deadline = time.monotonic() + WAIT_S
        try:
            while not select.select([self.replies], [], [], 0.05)[0]:
                if self.counters[_PRODUCED] != produced:
                    produced = self.counters[_PRODUCED]
                    deadline = time.monotonic() + WAIT_S
                elif time.monotonic() > deadline or not self.alive():
                    raise TimeoutError
            return _receive(self.replies)
        except (EOFError, OSError):  # TimeoutError is an OSError
            _discard(self)
            return None
        except BaseException:
            _discard(self)
            raise

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
    """The helper's loop: one reply per job, (value, gens' end states) or None, until EOF."""
    _IN_USE.acquire(blocking=False)  # the helper's own batches draw inline and never split
    while True:
        try:
            task, args, gens, errors = _receive(jobs)
        except EOFError:
            return
        try:
            with np.errstate(**errors):
                reply = task(counters, data, owner, *args), [g.bit_generator.state for g in gens]
        except Exception:  # cancelled, or an error the caller meets when it runs the job itself
            reply = None
        _send(replies, reply)


class _Cancelled(Exception):
    """The owner cancelled the job, or is gone."""


def _check_cancel(counters, owner):
    if counters[_CANCEL] or os.getppid() != owner:
        raise _Cancelled


def _ring_slots(data, slot: int, count: int) -> int:
    """How many of a batch's count tile slots, of slot floats each, the ring data holds."""
    return max(1, min(count, data.size // slot))


def _produce(counters, data, owner, tiles, n, count, slot):
    """Fill the batch's slots in fill order, waiting while the ring is full."""
    slots = _ring_slots(data, slot, count)
    for j in range(count):
        while j - counters[_CONSUMED] >= slots:
            _check_cancel(counters, owner)
            os.sched_yield()
        tile = tiles[j % len(tiles)]
        start = (j % slots) * slot
        tile.fill(data[start:start + tile.bounds[-1] * n].reshape(-1, n))
        counters[_PRODUCED] = j + 1


def _step(counters, data, owner, work, args):
    """work(*args), its steps counted in the produced counter; stops between steps if cancelled."""
    def progress(k, rows, state, info):
        counters[_PRODUCED] = k + 1
        _check_cancel(counters, owner)

    return work(*args, on_step=progress)


_HELPER = None
_IN_USE = threading.Lock()


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
    return (cpus or 1) >= 2 and threading.active_count() == 1


def _stop_at_exit():
    if _HELPER is not None and _HELPER.owner == os.getpid():
        _HELPER.stop()


atexit.register(_stop_at_exit)
