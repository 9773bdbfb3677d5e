"""The noise helper process: bitwise-equal batches and its life cycle.

Every test here makes bridge batches draw or step through the helper (the
size threshold is patched to 0) and compares them with the same batch drawn
and stepped inline: paths, supertraces and the caller's generators' final
states must match bit for bit, also when the helper is killed, stalls,
fails, or the batch raises part way.
"""

import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gblab import geometry as geo
from gblab import noise
from gblab import stochastic as st

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(not noise._can_fork_helper(),
                                reason="this process cannot fork a noise helper")


def disk():
    return geo.model_catalog("ball", dimension=2)


def anchors(model, count, seed):
    rng = np.random.default_rng(seed)
    k = count // 2
    return np.concatenate([model.sample_volume(rng, count - k), model.sample_collar(rng, k, 0.1)])


def state_bytes(gen):
    return pickle.dumps(gen.bit_generator.state)


def assert_same(a, b):
    """Every BridgeBatch field of a and b is equal bit for bit, and so are their supertraces."""
    for field in dataclasses.fields(st.BridgeBatch):
        assert_same_value(getattr(a, field.name), getattr(b, field.name), field.name)
    assert np.array_equal(a.supertraces(), b.supertraces())


def assert_same_value(x, y, name):
    if isinstance(x, dict):
        assert x.keys() == y.keys(), name
        for key, value in x.items():
            assert_same_value(value, y[key], f"{name}[{key}]")
    elif isinstance(x, np.ndarray):
        assert isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y), name
    else:
        assert x is y or x == y, name


def run(model, x, rng, through_helper, steps=30, pinned=True, paired=False):
    """One batch drawn inline or through the helper; (batch, the generators)."""
    gens = [rng()] if callable(rng) else [r() for r in rng]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "HELPER_MIN_NORMALS", 0 if through_helper else 10**18)
        batch = st.simulate_bridges(model, x, 0.05, steps, gens if len(gens) > 1 else gens[0],
                                    pinned=pinned, paired=paired)
    return batch, gens


@pytest.fixture
def small_ring(monkeypatch):
    """A fresh helper whose ring holds only a few slots, so it must wait for the stepping."""
    if noise._HELPER is not None:
        noise._discard(noise._HELPER)
    monkeypatch.setattr(noise, "RING_BYTES", 4 * 8 * 2 * 20)  # four 20-row disk slots
    yield
    if noise._HELPER is not None:
        noise._discard(noise._HELPER)


class TestGeneratorStates:
    @pytest.mark.parametrize("make", [
        lambda: st.RngStream(401, 3).generator(),
        lambda: np.random.default_rng(409),
    ], ids=["philox", "pcg64"])
    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    def test_caller_generator_ends_like_inline(self, make, pinned):
        # a free walk draws on every step, a bridge on all but its snap; a
        # helper asked for the wrong count would stall and be dropped
        model = disk()
        x = anchors(model, 64, 419)
        inline, (g_inline,) = run(model, x, make, False, pinned=pinned)
        helped, (g_helped,) = run(model, x, make, True, pinned=pinned)
        assert noise._HELPER is not None and noise._HELPER.alive()
        assert_same(helped, inline)
        assert state_bytes(g_helped) == state_bytes(g_inline)
        assert np.array_equal(g_helped.standard_normal(9), g_inline.standard_normal(9))

    def test_grouped_streams_end_like_inline(self, monkeypatch):
        # four groups over tiles of 24 rows, so groups straddle tiles
        monkeypatch.setattr(st, "TILE_ROWS", 24)
        model = disk()
        x = anchors(model, 80, 421)
        makes = [lambda j=j: st.RngStream(431, j).generator() for j in range(4)]
        inline, g_inline = run(model, x, makes, False)
        helped, g_helped = run(model, x, makes, True)
        assert_same(helped, inline)
        assert [state_bytes(g) for g in g_helped] == [state_bytes(g) for g in g_inline]

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    def test_paired_groups_end_like_inline(self, pinned, monkeypatch):
        # four 20-row groups of antithetic pairs over 14-row tiles (cut on
        # even rows: 12, 26, 40, ...), so groups straddle tiles
        monkeypatch.setattr(st, "TILE_ROWS", 14)
        model = disk()
        x = anchors(model, 80, 425)
        makes = [lambda j=j: st.RngStream(433, j).generator() for j in range(4)]
        inline, g_inline = run(model, x, makes, False, pinned=pinned, paired=True)
        helped, g_helped = run(model, x, makes, True, pinned=pinned, paired=True)
        assert_same(helped, inline)
        assert [state_bytes(g) for g in g_helped] == [state_bytes(g) for g in g_inline]


class TestLifecycle:
    def test_threshold_keeps_small_batches_inline(self, monkeypatch):
        real = noise._RingReader
        made = []
        monkeypatch.setattr(noise, "_RingReader", lambda *args: made.append(1) or real(*args))
        model = disk()
        x = anchors(model, 1000, 449)
        # 1 000 rows x 2 x 499 normals are just under the threshold, x 500 reach it
        assert x.shape[0] * 2 * 499 < noise.HELPER_MIN_NORMALS <= x.shape[0] * 2 * 500
        inline = st.simulate_bridges(model, x, 0.05, 500, st.RngStream(1))
        assert made == []
        st.simulate_bridges(model, x, 0.05, 501, st.RngStream(1))
        assert made == [1]
        with monkeypatch.context() as patch:
            patch.setattr(noise, "HELPER_MIN_NORMALS", 0)
            assert_same(st.simulate_bridges(model, x, 0.05, 500, st.RngStream(1)), inline)

    def test_threshold_counts_the_normals_a_paired_batch_draws(self, monkeypatch):
        real = noise._RingReader
        made = []
        monkeypatch.setattr(noise, "_RingReader", lambda *args: made.append(1) or real(*args))
        model = disk()
        x = anchors(model, 1000, 449)
        # 1 000 paired rows draw 500 x 2 normals per step: x 999 steps they
        # are just under the threshold (though their rows hold twice that),
        # x 1 000 they reach it
        assert 500 * 2 * 999 < noise.HELPER_MIN_NORMALS <= 500 * 2 * 1000
        inline = st.simulate_bridges(model, x, 0.05, 1000, st.RngStream(1), paired=True)
        assert made == []
        st.simulate_bridges(model, x, 0.05, 1001, st.RngStream(1), paired=True)
        assert made == [1]
        with monkeypatch.context() as patch:
            patch.setattr(noise, "HELPER_MIN_NORMALS", 0)
            assert_same(st.simulate_bridges(model, x, 0.05, 1000, st.RngStream(1), paired=True),
                        inline)

    def test_forked_child_never_uses_the_parents_ring(self):
        model = disk()
        x = anchors(model, 30, 457)
        run(model, x, lambda: st.RngStream(461).generator(), True)
        parent_helper = noise._HELPER
        assert parent_helper is not None
        pid = os.fork()
        if pid == 0:  # the child: a batch of its own, then report through the exit code
            code = 1
            try:
                helped, _ = run(model, x, lambda: st.RngStream(463).generator(), True)
                inline, _ = run(model, x, lambda: st.RngStream(463).generator(), False)
                assert_same(helped, inline)
                mine = noise._HELPER
                code = 0 if mine is not None and mine.pid != parent_helper.pid else 2
            finally:
                noise._stop_at_exit()
                os._exit(code)
        assert wait_bounded(pid, 60.0) == 0
        # the parent's helper kept its ring and still serves the parent
        assert noise._HELPER is parent_helper and parent_helper.alive()
        helped, _ = run(model, x, lambda: st.RngStream(467).generator(), True)
        inline, _ = run(model, x, lambda: st.RngStream(467).generator(), False)
        assert_same(helped, inline)
        assert noise._HELPER is parent_helper

    def test_helper_killed_between_batches(self):
        model = disk()
        x = anchors(model, 40, 479)
        run(model, x, lambda: st.RngStream(487).generator(), True)
        killed = noise._HELPER.pid
        os.kill(killed, signal.SIGKILL)
        time.sleep(0.05)
        started = time.monotonic()
        helped, g_helped = run(model, x, lambda: st.RngStream(491).generator(), True)
        assert time.monotonic() - started < 5.0
        inline, g_inline = run(model, x, lambda: st.RngStream(491).generator(), False)
        assert_same(helped, inline)
        assert state_bytes(g_helped[0]) == state_bytes(g_inline[0])
        # a new helper, or none if this batch found the old one dying and drew inline
        assert noise._HELPER is None or noise._HELPER.pid != killed

    @pytest.mark.parametrize("how", ["kill", "stop"])
    def test_helper_lost_mid_batch(self, how, small_ring, monkeypatch):
        self.lose_helper_mid_batch(how, False, monkeypatch)

    def test_paired_helper_lost_mid_batch(self, small_ring, monkeypatch):
        # the replay redraws the consumed fills as pairs too
        self.lose_helper_mid_batch("kill", True, monkeypatch)

    @staticmethod
    def lose_helper_mid_batch(how, paired, monkeypatch):
        # the ring holds 4 of the batch's 29 x 2 slots, so the stepping
        # overtakes the helper; it is lost at the 7th tile-step
        monkeypatch.setattr(noise, "WAIT_S", 0.5)
        monkeypatch.setattr(st, "TILE_ROWS", 20)
        model = disk()
        x = anchors(model, 40, 499)
        inline, g_inline = run(model, x, lambda: st.RngStream(503).generator(), False,
                               paired=paired)
        step = st.step_bridge
        calls = []

        def losing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 7:
                os.kill(noise._HELPER.pid, signal.SIGKILL if how == "kill" else signal.SIGSTOP)
            return step(*args, **kwargs)

        monkeypatch.setattr(st, "step_bridge", losing)
        lost = None
        started = time.monotonic()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "HELPER_MIN_NORMALS", 0)
            gen = st.RngStream(503).generator()
            lost = noise._helper().pid
            helped = st.simulate_bridges(model, x, 0.05, 30, gen, paired=paired)
        assert time.monotonic() - started < 5.0
        assert_same(helped, inline)
        assert state_bytes(gen) == state_bytes(g_inline[0])
        assert noise._HELPER is None or noise._HELPER.pid != lost
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(lost, 0)

    def test_exception_mid_batch_leaves_the_ring_consistent(self, small_ring, monkeypatch):
        monkeypatch.setattr(st, "TILE_ROWS", 20)
        model = disk()
        x = anchors(model, 40, 509)
        reflect = type(model).reflect
        calls = []

        def failing(self, *args):
            calls.append(1)
            if len(calls) == 5:
                raise FloatingPointError("injected")
            return reflect(self, *args)

        ends = []
        for through_helper in (False, True):
            calls.clear()
            gen = st.RngStream(521).generator()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(type(model), "reflect", failing)
                patch.setattr(noise, "HELPER_MIN_NORMALS", 0 if through_helper else 10**18)
                with pytest.raises(FloatingPointError):
                    st.simulate_bridges(model, x, 0.05, 30, gen)
            ends.append(state_bytes(gen))
        # the caller's generator stands where the inline batch left it
        assert ends[1] == ends[0]
        helper = noise._HELPER
        assert helper is not None and helper.alive()
        # the next batch resets the counters and draws every slot again
        helped, g_helped = run(model, x, lambda: st.RngStream(523).generator(), True)
        inline, g_inline = run(model, x, lambda: st.RngStream(523).generator(), False)
        assert_same(helped, inline)
        assert state_bytes(g_helped[0]) == state_bytes(g_inline[0])
        assert noise._HELPER is helper
        assert helper.counters[noise._PRODUCED] == helper.counters[noise._CONSUMED] == 29 * 2

    @pytest.mark.parametrize("name, cancelled", [("disk", False), ("hemisphere2", False),
                                                 ("hemisphere2", True)],
                             ids=["ring", "split", "split-cancelled"])
    def test_interrupt_while_waiting_for_a_reply(self, name, cancelled, monkeypatch):
        # an unread reply would answer the next job: the helper is discarded,
        # and the batch lock released; cancelled, the caller's rows raise
        # first and the interrupt cuts the wait for the cancelled job's reply
        model = disk() if name == "disk" else SPLIT_MODELS[name]()
        x = anchors(model, sum(SIZES), 727)
        whole = grouped(model, x, 733)
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)
        interrupted = noise._helper()
        select = noise.select.select

        def interrupting(*args):
            raise KeyboardInterrupt

        def failing(*args, **kwargs):
            raise FloatingPointError("injected")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise.select, "select", interrupting)
            if cancelled:
                patch.setattr(st, "step_bridge", failing)
            with pytest.raises(KeyboardInterrupt):
                grouped(model, x, 739)
        assert noise.select.select is select and not noise._IN_USE.locked()
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(interrupted.pid, 0)
        helped = grouped(model, x, 733)
        TestSplitBatches.assert_equal(helped, whole)

    def test_concurrent_batches_from_threads(self):
        # one batch at a time uses the helper; the others draw inline meanwhile
        model = disk()
        x = anchors(model, 200, 541)
        run(model, x, lambda: st.RngStream(1).generator(), True)  # a live helper
        expected = [run(model, x, lambda s=s: st.RngStream(547, s).generator(), False)[0]
                    for s in range(3)]
        results = [None] * 3

        def work(s):
            results[s] = st.simulate_bridges(model, x, 0.05, 30, st.RngStream(547, s))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "HELPER_MIN_NORMALS", 0)
            threads = [threading.Thread(target=work, args=(s,)) for s in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert_same(got, want)

    def test_no_helper_left_after_exit(self):
        script = (
            "import numpy as np\n"
            "from gblab import geometry as geo, noise, stochastic as st\n"
            "noise.HELPER_MIN_NORMALS = 0\n"
            "model = geo.model_catalog('ball', dimension=2)\n"
            "x = np.zeros((20, 2))\n"
            "st.simulate_bridges(model, x, 0.05, 20, st.RngStream(1))\n"
            "print(noise._HELPER.pid, flush=True)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        pid = int(done.stdout.split()[-1])
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# frame-carrying models, whose grouped batches the helper steps in part
SPLIT_MODELS = {
    "hemisphere2": lambda: geo.model_catalog("hemisphere", dimension=2),
    "cap3-aperture1": lambda: geo.SphereCap(3, aperture=1.0),
    "sphere-ball-2-1": lambda: geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
}
# uneven groups, the shape of local_limit_check's allocated depth nodes: the
# cut nearest row 42 falls after the second group, at row 54
SIZES = [4, 50, 2, 28]


def grouped(model, x, seed, t=0.05, steps=30, sizes=SIZES, **kwargs):
    """One batch of len(sizes) row groups on streams of their own; (batch, the generators)."""
    gens = [st.RngStream(seed, j).generator() for j in range(len(sizes))]
    return st.simulate_bridges(model, x, t, steps, gens, group_rows=sizes, **kwargs), gens


@pytest.fixture
def replies(monkeypatch):
    """The replies the helper sends this process, in order."""
    seen = []
    reply = noise._Helper.reply
    monkeypatch.setattr(noise._Helper, "reply", lambda self: seen.append(reply(self)) or seen[-1])
    return seen


@pytest.fixture
def step_jobs(monkeypatch):
    """Counts the step jobs (_step tasks) batches send to the helper."""
    made = []
    job = noise._Job

    def counting(helper, task, *args):
        if task is noise._step:
            made.append(1)
        return job(helper, task, *args)

    monkeypatch.setattr(noise, "_Job", counting)
    return made


class FailsInTheHelper(geo.SphereCap):
    """A hemisphere whose reflection raises in every process but the one that made it."""

    def __init__(self, owner):
        super().__init__(2)
        self.owner = owner

    def reflect(self, *args):
        if os.getpid() != self.owner:
            raise FloatingPointError("injected in the helper")
        return super().reflect(*args)


class TestSplitBatches:
    """Batches whose trailing row groups the helper steps, against the one-process batch."""

    @staticmethod
    def split_and_whole(model, x, seed, replies, **kwargs):
        """(split batch, its generators), (one-process batch, its generators); checks the split ran."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "HELPER_MIN_NORMALS", 10**18)
            whole = grouped(model, x, seed, **kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "HELPER_MIN_NORMALS", 0)
            split = grouped(model, x, seed, **kwargs)
        # one reply, the helper's value and its generators' end states
        assert len(replies) == 1 and isinstance(replies[0], tuple)
        assert noise._HELPER.counters[noise._PRODUCED] == kwargs.get("steps", 30)
        return split, whole

    @staticmethod
    def assert_equal(split, whole):
        (a, gens_a), (b, gens_b) = split, whole
        assert b.contacts.sum() > 0
        assert_same(a, b)
        assert [state_bytes(g) for g in gens_a] == [state_bytes(g) for g in gens_b]

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    @pytest.mark.parametrize("paired", [False, True], ids=["independent", "paired"])
    @pytest.mark.parametrize("tile_rows", [st.TILE_ROWS, 9, 5])
    @pytest.mark.parametrize("name", list(SPLIT_MODELS))
    def test_bitwise_equal_to_one_process(self, name, tile_rows, paired, pinned, replies,
                                          monkeypatch):
        # 9 and 5 rows cut the groups anywhere, so tiles straddle the split
        monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
        model = SPLIT_MODELS[name]()
        x = anchors(model, sum(SIZES), 601)
        self.assert_equal(*self.split_and_whole(model, x, 607, replies, pinned=pinned,
                                                paired=paired))

    @pytest.mark.parametrize("name", list(SPLIT_MODELS))
    def test_per_row_lifetimes(self, name, replies, monkeypatch):
        # the pilots of local_limit_check: the nodes of several lifetimes in one batch
        monkeypatch.setattr(st, "TILE_ROWS", 9)
        model = SPLIT_MODELS[name]()
        x = anchors(model, sum(SIZES), 613)
        t = np.repeat([0.08, 0.05, 0.05, 0.02], SIZES)
        split, whole = self.split_and_whole(model, x, 617, replies, t=t)
        self.assert_equal(split, whole)
        assert np.array_equal(split[0].t, t)

    @pytest.mark.parametrize("how", ["kill", "stop"])
    def test_helper_lost_during_a_step_job(self, how, monkeypatch):
        # the helper dies, or stalls and is killed, just after it is sent the
        # job: the caller steps the trailing groups itself on its own generators
        monkeypatch.setattr(noise, "WAIT_S", 0.5)
        model = SPLIT_MODELS["hemisphere2"]()
        x = anchors(model, sum(SIZES), 619)
        whole = grouped(model, x, 631)
        start = noise._Helper.start
        lost = []

        def losing(self, job):
            sent = start(self, job)
            lost.append(self.pid)
            os.kill(self.pid, signal.SIGKILL if how == "kill" else signal.SIGSTOP)
            return sent

        monkeypatch.setattr(noise._Helper, "start", losing)
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)
        started = time.monotonic()
        split = grouped(model, x, 631)
        assert time.monotonic() - started < 5.0
        assert len(lost) == 1
        self.assert_equal(split, whole)
        assert noise._HELPER is None or noise._HELPER.pid != lost[0]
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(lost[0], 0)

    def test_helper_that_fails_leaves_the_job_to_the_caller(self, replies, monkeypatch):
        # the helper meets an error the caller does not: it replies None, stays
        # up, and the caller steps the trailing groups itself
        model = FailsInTheHelper(os.getpid())
        x = anchors(model, sum(SIZES), 641)
        whole = grouped(model, x, 643)
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)
        helper = noise._helper()
        split = grouped(model, x, 643)
        assert replies == [None]
        self.assert_equal(split, whole)
        assert noise._HELPER is helper and helper.alive()

    def test_model_that_cannot_be_pickled_steps_in_one_process(self, replies, monkeypatch):
        class LocalCap(geo.SphereCap):  # a local class: pickle cannot find it by name
            pass

        model = LocalCap(2)
        x = anchors(model, sum(SIZES), 649)
        whole = grouped(model, x, 651)
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)
        helper = noise._helper()
        split = grouped(model, x, 651)
        assert replies == []
        self.assert_equal(split, whole)
        assert noise._HELPER is helper and helper.alive()

    def test_exception_in_the_callers_rows_cancels_the_job(self, monkeypatch):
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)
        model = SPLIT_MODELS["hemisphere2"]()
        x = anchors(model, sum(SIZES), 647)
        helper = noise._helper()  # forked before reflect fails in this process
        reflect = type(model).reflect
        calls = []

        def failing(self, *args):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("injected")
            return reflect(self, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(type(model), "reflect", failing)
            with pytest.raises(FloatingPointError):
                grouped(model, x, 653, steps=200)
        # the helper stopped between steps and still serves; the next batch is whole
        assert noise._HELPER is helper and helper.alive()
        assert helper.counters[noise._CANCEL] == 1
        split = grouped(model, x, 659)
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 10**18)
        self.assert_equal(split, grouped(model, x, 659))
        assert noise._HELPER is helper

    def test_trailing_generators_stay_at_their_start_after_an_exception(self, monkeypatch):
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)
        model = SPLIT_MODELS["hemisphere2"]()
        x = anchors(model, sum(SIZES), 661)
        noise._helper()
        gens = [st.RngStream(673, j).generator() for j in range(len(SIZES))]

        def failing(*args, **kwargs):
            raise FloatingPointError("injected")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(st, "step_bridge", failing)
            with pytest.raises(FloatingPointError):
                st.simulate_bridges(model, x, 0.05, 30, gens, group_rows=SIZES)
        fresh = [st.RngStream(673, j).generator() for j in range(len(SIZES))]
        assert [state_bytes(g) for g in gens[2:]] == [state_bytes(g) for g in fresh[2:]]

    def test_which_batches_split(self, step_jobs, monkeypatch):
        monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)
        hemisphere = SPLIT_MODELS["hemisphere2"]()
        x = anchors(hemisphere, sum(SIZES), 677)
        grouped(hemisphere, x, 683)
        assert step_jobs == [1]
        # flat batches keep the ring
        flat = disk()
        grouped(flat, anchors(flat, sum(SIZES), 677), 683)
        # one row group
        st.simulate_bridges(hemisphere, x, 0.05, 30, st.RngStream(683))
        # an on_step hook
        grouped(hemisphere, x, 683, on_step=lambda *args: None)
        assert step_jobs == [1]

    def test_threshold_keeps_small_batches_in_one_process(self, step_jobs):
        # 1 000 hemisphere rows draw 1 000 x 2 normals per step: x 499 steps
        # they are just under the threshold, x 500 they reach it
        model = SPLIT_MODELS["hemisphere2"]()
        x = anchors(model, 1000, 691)
        assert 1000 * 2 * 499 < noise.HELPER_MIN_NORMALS <= 1000 * 2 * 500
        gens = [st.RngStream(701, j).generator() for j in range(2)]
        st.simulate_bridges(model, x, 0.05, 500, gens)
        assert step_jobs == []
        st.simulate_bridges(model, x, 0.05, 501, gens)
        assert step_jobs == [1]

    def test_cut_at_the_group_boundary_nearest_the_middle_row(self):
        # SIZES bound their groups at rows 4, 54 and 56; row 54 is nearest row 42
        gens = [st.RngStream(719, j) for j in range(len(SIZES))]
        assert st._half_cut(st._row_streams(gens, sum(SIZES), group_rows=SIZES)) == 54
        assert st._half_cut(st._row_streams(st.RngStream(719), sum(SIZES))) is None


def wait_bounded(pid, seconds):
    """The exit code of a child process; kill it and fail if it outlives the bound."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"child {pid} did not finish within {seconds} s")
