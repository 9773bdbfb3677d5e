"""Standard normals for bridge batches, drawn inline or ahead in a helper process, and the
helper's step jobs.

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

The helper takes a second kind of job, a step job (helper_job): a function
and its arguments, here the stepping of a batch's trailing row groups with
the generators those groups own.  It runs the function with every draw
inline, counts its steps in the produced counter and replies with the value
and the generators' end states, which are copied into the caller's
generators; until then the caller never touches them.  The job draws only
from those generators, which reach the helper in the caller's states, so its
value is bitwise the one the caller gets by running the function itself;
the caller does so when the helper is lost, meets an error or cannot be
sent the job.  The wait for the reply gives up after WAIT_S without a step.
Between jobs the helper blocks on its pipe; it holds _IN_USE for good, so
it never splits or rings a batch of its own.  One batch at a time uses the
helper, with either kind of job.
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
def batch_noise(tiles, n: int, steps: int):
    """The noise sources of one batch: one per tile, each with fill(xi).

    tiles are the _RowStreams of the batch's row tiles; every step fills
    them in order, steps times, with (rows, n) arrays.  The sources are the
    tiles themselves (inline), or one reader of the helper's ring that hands
    out the slots in that order.  On exit the tiles' generators stand where
    the inline fills would have left them, also after an exception.
    """
    rows = [t.bounds[-1] for t in tiles]
    drawn = sum(r // 2 if t.paired else r for r, t in zip(rows, tiles)) * n * steps
    large = drawn >= HELPER_MIN_NORMALS and 8 * max(rows) * n <= RING_BYTES
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
        try:
            if ring is not None:
                ring.close()
        finally:
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
        if not helper.start((_produce, (self.gens, tiles, n, count, self.slot, self.slots))):
            self._drop()

    def fill(self, xi):
        j = self.done
        if self.helper is not None and (self.helper.counters[_PRODUCED] > j or self._wait(j)):
            start = (j % self.slots) * self.slot
            np.copyto(xi, self.helper.data[start:start + xi.size].reshape(xi.shape))  # rounds to xi
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


@contextlib.contextmanager
def helper_job(work, args, gens, normals: int):
    """Run work(*args, on_step=...) in the helper while the caller goes on with its own rows.

    work steps rows whose draws all come from the generators gens, and
    normals is what the whole batch draws.  Yields a function that returns
    work(*args): the helper's value, with the generators' end states copied
    into gens; or, when the helper is lost or meets an error or the job
    cannot be pickled, the value of work(*args) run inline on the untouched
    gens.  Yields None, and the job stays with the caller, for batches under
    HELPER_MIN_NORMALS normals, while another batch uses the helper and
    where no helper can run.  If the caller raises before taking the value,
    the job is cancelled and gens stay at their start.
    """
    if normals < HELPER_MIN_NORMALS or not _IN_USE.acquire(blocking=False):
        yield None
        return
    job = None
    try:
        helper = _helper()
        if helper is not None:
            job = _StepJob(helper, work, args, gens)
        yield None if job is None else job.result
    finally:
        try:
            if job is not None:
                job.close()
        finally:
            _IN_USE.release()


class _StepJob:
    """One step job sent to the helper; run inline if the helper is lost."""

    def __init__(self, helper, work, args, gens):
        self.helper = helper
        self.work = work
        self.args = args
        self.gens = gens
        try:
            sent = helper.start((_step, (work, args, gens, np.geterr())))
        except (pickle.PicklingError, AttributeError, TypeError):
            sent = None  # a model that cannot be pickled, a local class say, steps here
        if not sent:
            self.helper = None
            if sent is False:
                _discard(helper)

    def result(self):
        reply = self._reply()
        if reply is None:
            return self.work(*self.args)
        value, states = reply
        for gen, state in zip(self.gens, states):
            gen.bit_generator.state = state
        return value

    def _reply(self):
        """The helper's reply, read once; None if it failed, was cancelled or the helper is lost."""
        helper, self.helper = self.helper, None
        if helper is None:
            return None
        reply = helper.reply()
        if reply is _LOST:
            _discard(helper)
            return None
        return reply

    def close(self):
        """Cancel a job whose value was never taken, and read its reply."""
        if self.helper is not None:
            self.helper.counters[_CANCEL] = 1
            self._reply()


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
        """Reset the counters and send a job, (function, arguments); the helper is idle on its pipe."""
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
        """The helper's reply to the current job, or _LOST if it died or stalled.

        It stalls when the produced counter stands still for WAIT_S.  A wait
        cut short by an exception (an interrupt, say) discards the helper,
        whose unread reply would otherwise answer the next job.
        """
        produced = self.counters[_PRODUCED]
        deadline = time.monotonic() + WAIT_S
        try:
            while not select.select([self.replies], [], [], 0.05)[0]:
                if self.counters[_PRODUCED] != produced:
                    produced = self.counters[_PRODUCED]
                    deadline = time.monotonic() + WAIT_S
                elif time.monotonic() > deadline or not self.alive():
                    return _LOST
            return _receive(self.replies)
        except (EOFError, OSError):
            return _LOST
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
    """The helper's loop: one reply per job until the jobs pipe reaches EOF."""
    _IN_USE.acquire(blocking=False)  # the helper's own batches draw inline and never split
    while True:
        try:
            task, args = _receive(jobs)
        except EOFError:
            return
        _send(replies, task(counters, data, owner, *args))


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


class _Cancelled(Exception):
    """The owner cancelled a step job, or is gone."""


def _step(counters, data, owner, work, args, gens, errors):
    """Run a step job: (its value, the generators' end states), or None if it failed or was cancelled."""
    def progress(k, rows, state, info):
        counters[_PRODUCED] = k + 1
        if counters[_CANCEL] or os.getppid() != owner:
            raise _Cancelled

    try:
        with np.errstate(**errors):
            value = work(*args, on_step=progress)
    except Exception:  # the caller runs the job itself and meets the error there
        return None
    return value, [g.bit_generator.state for g in gens]


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
    return (cpus or 1) >= 2 and threading.active_count() == 1


def _stop_at_exit():
    if _HELPER is not None and _HELPER.owner == os.getpid():
        _HELPER.stop()


atexit.register(_stop_at_exit)
