"""Open-loop load generation with due-time accounting.

Requests follow a fixed arrival schedule (evenly spaced at the offered
rate) whatever the server does, so a slow server faces a growing queue
rather than fewer requests.  At most ``connections`` requests are in
flight; a request that finds every connection busy waits for one, and that
wait counts in its latency, because latency is timed from the request's
due time.  The generator's own lateness -- time between the moment a
request could have been sent (due, and a connection free) and the moment
it was -- is recorded separately: when it is large, the client, not the
server, fell behind and the rung is invalid.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .core import median, tail

#: HTTP status recorded for a request never sent because its rung was abandoned.
ABANDONED = -1
#: HTTP status recorded for a transport error (connection reset, timeout).
TRANSPORT_ERROR = 0


@dataclass
class Record:
    """One scheduled request and what happened to it (all times in seconds)."""

    index: int
    due: float
    free_at: float
    sent: float
    done: float
    status: int
    body: dict | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Generator lateness: send time minus the earliest moment it could have been sent."""
        return self.sent - max(self.due, self.free_at)


def schedule(rate: float, duration_s: float) -> list[float]:
    """Due-time offsets of an evenly spaced open-loop schedule (at least one request)."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    count = max(1, int(round(rate * duration_s)))
    return [i / rate for i in range(count)]


def run_open_loop(make_sender, offsets: list[float], connections: int = 2,
                  abandon_after_s: float = 1.0, clock=time.perf_counter,
                  sleep=time.sleep) -> list[Record]:
    """Issue requests on the ``offsets`` schedule over ``connections`` threads.

    ``make_sender(k)`` returns ``(send, close)`` for connection ``k``;
    ``send(i)`` performs request ``i`` and returns ``(status, body)``.  Once
    any request would be sent more than ``abandon_after_s`` after its due
    time, the rung is overloaded beyond measurement: every request not yet
    sent is recorded as abandoned, which bounds the rung's wall time.
    """
    if connections < 1:
        raise ValueError("connections must be >= 1")
    start = clock() + 0.005
    records: list[Record] = []
    lock = threading.Lock()
    state = {"next": 0, "abandoned": False}
    errors: list[BaseException] = []

    def worker(k: int) -> None:
        send, close = make_sender(k)
        try:
            while True:
                with lock:
                    i = state["next"]
                    state["next"] += 1
                    abandoned = state["abandoned"]
                if i >= len(offsets):
                    return
                due = start + offsets[i]
                free_at = clock()
                if not abandoned and due > free_at:
                    sleep(due - free_at)
                sent = clock()
                if abandoned or sent - due > abandon_after_s:
                    with lock:
                        state["abandoned"] = True
                        records.append(Record(i, due, free_at, sent, sent, ABANDONED))
                    continue
                status, body = send(i)
                done = clock()
                with lock:
                    records.append(Record(i, due, free_at, sent, done, status, body))
        except BaseException as exc:  # surfaced to the caller after join
            errors.append(exc)
            raise
        finally:
            close()

    threads = [threading.Thread(target=worker, args=(k,), name=f"loadgen-{k}", daemon=True)
               for k in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    records.sort(key=lambda r: r.index)
    return records


@dataclass
class RungStats:
    """Outcome of one offered rate."""

    rate: float
    scheduled: int
    sent: int = 0
    ok: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    abandoned: int = 0
    latencies_ms: list = field(default_factory=list)
    p50_ms: float = 0.0
    tail_pct: float = 100.0
    tail_ms: float = 0.0
    lag_ms: float = 0.0
    backlog_growing: bool = False
    achieved_rps: float = 0.0
    generator_valid: bool = True
    passed: bool = False

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "latencies_ms"}
        return {k: round(v, 4) if isinstance(v, float) else v for k, v in out.items()}


def growing_backlog(waits_ms: list[float]) -> bool:
    """True when requests at the end of a rung waited clearly longer to be sent than at its start.

    ``waits_ms`` are send times minus due times in schedule order.  With a
    bounded number of connections, a backlog queues in the client, so a
    growing wait is what an overloaded server looks like from here; a
    latency that rises once and stays flat is not a backlog.
    """
    if len(waits_ms) < 8:
        return False
    q = len(waits_ms) // 4
    return median(waits_ms[-q:]) - median(waits_ms[:q]) > 20.0


def summarize(records: list[Record], rate: float, limit_ms: float,
              lag_limit_ms: float) -> RungStats:
    """Count outcomes, latencies and generator lateness of one rung, and judge it.

    A rung passes when the generator kept up, nothing failed or was
    abandoned, the backlog did not grow, and the tail latency (highest
    percentile with ten samples beyond it, else the maximum) meets
    ``limit_ms``.
    """
    stats = RungStats(rate=rate, scheduled=len(records))
    ok_records = []
    for r in records:
        if r.status == ABANDONED:
            stats.abandoned += 1
            continue
        stats.sent += 1
        if r.status == 200:
            stats.ok += 1
            ok_records.append(r)
        elif r.status == 503:
            stats.shed += 1
        elif r.status == 504:
            stats.expired += 1
        else:
            stats.failed += 1
    sent = [r for r in records if r.status != ABANDONED]
    stats.latencies_ms = [r.latency * 1e3 for r in ok_records]
    if stats.latencies_ms:
        stats.p50_ms = median(stats.latencies_ms)
        tl = tail(stats.latencies_ms)
        stats.tail_pct, stats.tail_ms = tl if tl is not None else (100.0, max(stats.latencies_ms))
    if sent:
        lags = [r.lag * 1e3 for r in sent]
        tl = tail(lags)
        stats.lag_ms = tl[1] if tl is not None else max(lags)
        stats.generator_valid = stats.lag_ms <= lag_limit_ms
    stats.backlog_growing = growing_backlog([(r.sent - r.due) * 1e3 for r in sent])
    if len(ok_records) >= 2:
        first = min(r.done for r in ok_records)
        last = max(r.done for r in ok_records)
        if last > first:
            stats.achieved_rps = (len(ok_records) - 1) / (last - first)
    stats.passed = (
        stats.generator_valid and stats.ok > 0 and stats.ok == stats.scheduled
        and not stats.backlog_growing and stats.tail_ms <= limit_ms
    )
    return stats
