"""The noise helper process: bitwise-equal batches and its life cycle.

Every test here makes bridge batches draw through the helper (the size
threshold is patched to 0) and compares them with the same batch drawn
inline: paths, supertraces and the caller's generators' final states must
match bit for bit, also when the helper is killed, stalls, or the batch
raises part way.
"""

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
    for field in ("lam", "contacts", "alive"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(a.supertraces(), b.supertraces())


def run(model, x, rng, through_helper, steps=30):
    """One batch drawn inline or through the helper; (batch, the generators)."""
    gens = [rng()] if callable(rng) else [r() for r in rng]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "HELPER_MIN_NORMALS", 0 if through_helper else 10**18)
        batch = st.simulate_bridges(model, x, 0.05, steps, gens if len(gens) > 1 else gens[0])
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
    def test_caller_generator_ends_like_inline(self, make):
        model = disk()
        x = anchors(model, 64, 419)
        inline, (g_inline,) = run(model, x, make, False)
        helped, (g_helped,) = run(model, x, make, True)
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

    def test_one_generator_for_several_groups(self):
        # the same generator object owns two groups: it draws for both, in row order
        model = disk()
        x = anchors(model, 40, 433)
        outcomes = []
        for through_helper in (False, True):
            gen = st.RngStream(439).generator()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(noise, "HELPER_MIN_NORMALS", 0 if through_helper else 10**18)
                batch = st.simulate_bridges(model, x, 0.05, 20, [gen, gen])
            outcomes.append((batch, state_bytes(gen)))
        assert_same(outcomes[1][0], outcomes[0][0])
        assert outcomes[1][1] == outcomes[0][1]


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
        # the ring holds 4 of the batch's 29 x 2 slots, so the stepping
        # overtakes the helper; it is lost at the 7th tile-step
        monkeypatch.setattr(noise, "WAIT_S", 0.5)
        monkeypatch.setattr(st, "TILE_ROWS", 20)
        model = disk()
        x = anchors(model, 40, 499)
        inline, g_inline = run(model, x, lambda: st.RngStream(503).generator(), False)
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
            helped = st.simulate_bridges(model, x, 0.05, 30, gen)
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
