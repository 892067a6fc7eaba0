"""Tests of the benchmark's own arithmetic: tail percentiles, span self time, open-loop accounting.

These run no workload; ``python3 -m pytest perfbench -q`` takes well under a second.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import types

import pytest

from perfbench import core, loadgen


# --------------------------------------------------------------------------- #
# Percentile with ten samples beyond it
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n, expected_pct", [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                                             (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, expected_pct):
    values = list(range(1, n + 1))
    pct, value = core.tail(values)
    assert pct == expected_pct
    beyond = sum(1 for v in values if v > value)
    assert beyond >= core.MIN_BEYOND


def test_tail_needs_twenty_samples():
    assert core.tail(list(range(19))) is None
    assert core.tail([]) is None


def test_tail_value_is_the_nearest_rank_sample():
    values = [float(v) for v in range(100, 0, -1)]  # unsorted input
    assert core.tail(values) == (90.0, 90.0)
    assert core.nearest_rank(sorted(values), 50.0) == (50.0, 50)


def test_median():
    assert core.median([3, 1, 2]) == 2
    assert core.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        core.median([])


def test_iqm_drops_a_quarter_at_each_end():
    assert core.iqm([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]) == pytest.approx(3.5)
    assert core.iqm([2.0, 9.0, 4.0]) == pytest.approx(5.0)  # fewer than 4: plain mean
    # Two modes: the median jumps with one sample, the interquartile mean moves smoothly.
    low, high = [3.0] * 4 + [3.5] * 3, [3.0] * 3 + [3.5] * 4
    assert core.median(high) - core.median(low) == pytest.approx(0.5)
    assert core.iqm(high) - core.iqm(low) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        core.iqm([])


# --------------------------------------------------------------------------- #
# Spans and self time
# --------------------------------------------------------------------------- #
def _span(sid, name, start, end, parent=None):
    return core.Span(sid, name, start, end, parent, "op")


def test_union_length_merges_overlaps():
    assert core.union_length([(1, 3), (2, 5), (7, 8)]) == 5
    assert core.union_length([]) == 0


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        _span(1, "job", 0.0, 10.0),
        _span(2, "a", 1.0, 3.0, parent=1),
        _span(3, "b", 2.0, 5.0, parent=1),    # overlaps a: counted once
        _span(4, "c", 8.0, 12.0, parent=1),   # runs past the parent: clipped
        _span(5, "d", 1.5, 2.5, parent=2),    # grandchild: only reduces a
    ]
    own = core.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)


def test_tracer_wrap_records_nested_spans_and_unwraps():
    class Layer:
        def work(self, x):
            return x + 1

        @staticmethod
        def helper(x):
            return x * 2

    module = types.SimpleNamespace(fn=lambda x: Layer().work(x))
    original_work, original_fn = vars(Layer)["work"], module.fn
    tracer = core.Tracer(True)
    tracer.wrap(module, "fn", "outer")
    tracer.wrap(Layer, "work", "inner")
    tracer.wrap(Layer, "helper", "static")
    with tracer.span("top", op="req-1"):
        assert module.fn(1) == 2
        assert Layer.helper(3) == 6
    tracer.unwrap_all()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["top"].id
    assert {s.op for s in tracer.spans} == {"req-1"}
    assert vars(Layer)["work"] is original_work and module.fn is original_fn
    assert isinstance(vars(Layer)["helper"], staticmethod)
    assert module.fn(1) == 2 and len(tracer.spans) == 4


def test_tracer_wrap_of_inherited_method_is_removed_on_unwrap():
    class Base:
        def __iter__(self):
            return iter([1, 2, 3])

    class Child(Base):
        pass

    tracer = core.Tracer(True)
    tracer.wrap_iter(Child, "__iter__", "next")
    assert list(Child()) == [1, 2, 3]
    tracer.unwrap_all()
    assert "__iter__" not in vars(Child)
    assert len(tracer.named("next")) == 4  # three items and the final StopIteration


def test_disabled_tracer_patches_and_records_nothing():
    class Layer:
        def work(self):
            return 1

    original = Layer.work
    tracer = core.Tracer(False)
    tracer.wrap(Layer, "work", "inner")
    with tracer.span("top"):
        Layer().work()
    assert Layer.work is original and tracer.spans == []


# --------------------------------------------------------------------------- #
# Open-loop due-time accounting
# --------------------------------------------------------------------------- #
class FakeClock:
    """Time advances only when the generator sleeps or a request is served."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


def test_open_loop_times_latency_from_due_time():
    clock = FakeClock()

    def make_sender(_k):
        def send(_i):
            clock.t += 0.030  # each request takes 30 ms
            return 200, None
        return send, lambda: None

    # 50 req/s on one connection: a request is due every 20 ms but takes 30,
    # so request i waits 10 ms longer than request i - 1 for the connection.
    offsets = loadgen.schedule(50.0, 0.2)
    records = loadgen.run_open_loop(make_sender, offsets, connections=1, abandon_after_s=10.0,
                                    clock=clock, sleep=clock.sleep)
    assert [r.index for r in records] == list(range(10))
    for i, r in enumerate(records):
        assert r.latency == pytest.approx(0.030 + 0.010 * i)
        assert r.sent - r.due == pytest.approx(0.010 * i)
        assert r.lag == pytest.approx(0.0)
    stats = loadgen.summarize(records, 50.0, limit_ms=1000.0, lag_limit_ms=5.0)
    assert stats.backlog_growing and not stats.passed
    assert stats.p50_ms == pytest.approx(30.0 + 10.0 * 4.5)


def test_open_loop_abandons_once_waits_pass_the_limit():
    clock = FakeClock()

    def make_sender(_k):
        def send(_i):
            clock.t += 0.100
            return 200, None
        return send, lambda: None

    records = loadgen.run_open_loop(make_sender, loadgen.schedule(100.0, 0.2), connections=1,
                                    abandon_after_s=0.25, clock=clock, sleep=clock.sleep)
    stats = loadgen.summarize(records, 100.0, limit_ms=1000.0, lag_limit_ms=5.0)
    # Request i is sent at 0.1 * i against a due time of 0.01 * i: the wait
    # first exceeds 0.25 s at i = 3, so requests 3.. are abandoned.
    assert stats.sent == 3 and stats.abandoned == 17 and not stats.passed


def test_summarize_counts_outcomes_and_generator_lag():
    def rec(i, status, lag=0.0):
        due = 0.05 * i
        return loadgen.Record(i, due, due, due + lag, due + lag + 0.01, status)

    records = [rec(i, 200) for i in range(30)] + [rec(30, 503), rec(31, 504), rec(32, 0)]
    stats = loadgen.summarize(records, 20.0, limit_ms=50.0, lag_limit_ms=5.0)
    assert (stats.ok, stats.shed, stats.expired, stats.failed) == (30, 1, 1, 1)
    assert stats.generator_valid and not stats.backlog_growing
    assert stats.p50_ms == pytest.approx(10.0)
    assert not stats.passed  # failures fail the rung

    late = [rec(i, 200, lag=0.02 if i % 2 else 0.0) for i in range(40)]
    stats = loadgen.summarize(late, 20.0, limit_ms=50.0, lag_limit_ms=5.0)
    assert not stats.generator_valid and stats.lag_ms == pytest.approx(20.0)

    clean = [rec(i, 200) for i in range(40)]
    stats = loadgen.summarize(clean, 20.0, limit_ms=50.0, lag_limit_ms=5.0)
    assert stats.passed and stats.achieved_rps == pytest.approx(20.0)


def test_flat_latency_step_is_not_a_backlog():
    assert not loadgen.growing_backlog([0.0] * 20)
    assert loadgen.growing_backlog([float(i * 5) for i in range(20)])
    assert not loadgen.growing_backlog([100.0] * 3)


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
_STOP_CHILDREN_SCRIPT = textwrap.dedent("""
    import os, subprocess, sys
    from multiprocessing import resource_tracker
    from perfbench import core

    core.become_subreaper()
    resource_tracker.ensure_running()
    sleep = [sys.executable, "-c", "import time; time.sleep(60)"]
    child = subprocess.Popen(sleep)
    # The middle process exits at once, orphaning its child onto this one.
    subprocess.run([sys.executable, "-c", f"import subprocess; subprocess.Popen({sleep!r})"], check=True)
    signalled = core.stop_children(grace_s=0.2)
    print(len(signalled), child.pid in signalled, len(core._children(os.getpid())))
""")


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc child lists")
def test_stop_children_stops_tracker_child_and_orphan():
    # Runs in a fresh interpreter: stopping this process's resource tracker
    # would unlink shared memory that other tests still use.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-c", _STOP_CHILDREN_SCRIPT], cwd=root,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "True", "0"]
