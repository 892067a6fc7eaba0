"""Measurement helpers shared by every workload: percentiles, spans, memory, provenance.

Nothing here imports the program under test, so the helpers (and their
tests) stay valid whatever the program's modules look like.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


# --------------------------------------------------------------------------- #
# Order statistics
# --------------------------------------------------------------------------- #
def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair for even lengths)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def iqm(values) -> float:
    """Interquartile mean: the mean left after dropping the fastest and slowest quarter.

    Steadier than the median when operation times cluster in two modes
    (the median jumps between them), and still blind to the rare slow
    outlier a mean would absorb.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("iqm of an empty sequence")
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def nearest_rank(ordered: list, p: float) -> tuple[float, int]:
    """The ``p``-th percentile of sorted ``ordered`` by the nearest-rank rule.

    Returns ``(value, beyond)``: the sample at rank ``ceil(p/100 * n)`` and
    how many samples rank after it.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, math.ceil(round(p / 100.0 * n, 9)))  # round: 99.9% of 10000 is 9990, not 9990.000000000002
    return float(ordered[rank - 1]), n - rank


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` at the highest percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    beyond it (fewer than 20 samples).
    """
    ordered = sorted(values)
    if not ordered:
        return None
    best = None
    for p in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            best = (p, value)
    return best


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed interval: ``op`` is shared by every span of one operation or request."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            parent = by_id[s.parent]
            start, end = max(s.start, parent.start), min(s.end, parent.end)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    return {s.id: s.duration - union_length(children.get(s.id, [])) for s in spans}


class Tracer:
    """Records spans in memory; a disabled tracer records nothing and patches nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Time the ``with`` body as a child of the innermost open span of this thread."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        sp = Span(next(self._ids), name, time.perf_counter(), 0.0,
                  parent.id if parent is not None else None, op)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def add(self, name: str, start: float, end: float, parent: Span | None = None,
            op: str | None = None) -> Span:
        """Record a span timed elsewhere (e.g. by a load-generator thread)."""
        if op is None and parent is not None:
            op = parent.op
        sp = Span(next(self._ids), name, start, end, parent.id if parent is not None else None, op)
        if self.enabled:
            with self._lock:
                self.spans.append(sp)
        return sp

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a wrapper that records a span per call.

        Undone by :meth:`unwrap_all`.  Applies only to calls made in this
        process: forked workers inherit the wrapper, but their spans die
        with them, so layers that run in workers are traced in a separate
        in-process pass.
        """
        if not self.enabled:
            return
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a method returning an iterator: one span per ``next``."""
        if not self.enabled:
            return
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                with tracer.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        raw = vars(owner).get(attr, _INHERITED)
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap` / :meth:`wrap_iter`, newest first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms_by_name(self) -> dict[str, float]:
        """Total self time in milliseconds, summed per span name."""
        own = self_times(self.spans)
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + own[s.id] * 1e3
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line (times relative to the first span)."""
        origin = min((s.start for s in self.spans), default=0.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "start_ms": round((s.start - origin) * 1e3, 4),
                    "end_ms": round((s.end - origin) * 1e3, 4),
                }) + "\n")


#: A tracer that records nothing, for the untraced phases of a traced run.
NO_TRACE = Tracer(False)

#: Marker: the wrapped attribute was inherited, so unwrapping deletes the override.
_INHERITED = object()


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #
def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
    except OSError:
        pass
    return kids


def tree_pss_kb(root: int) -> int:
    """Proportional set size (kB) summed over ``root`` and all of its descendants.

    PSS splits each shared page among the processes mapping it, so forked
    workers and shared-memory segments are counted once in the sum, where
    summing RSS would count them once per process.
    """
    total, todo, seen = 0, [root], set()
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        seen.add(pid)
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
        todo.extend(_children(pid))
    return total


class PeakMemory:
    """Background sampler of a process tree's memory (summed PSS); ``peak_mb`` is the highest sum seen."""

    def __init__(self, root: int, interval_s: float = 0.05) -> None:
        self.root = root
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="peak-rss", daemon=True)

    def _run(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, tree_pss_kb(self.root))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, tree_pss_kb(self.root))

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
#: prctl option that makes orphaned descendants re-parent to the caller (Linux).
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so a process whose parent exits first is still reaped here."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _wait_children(seconds: float) -> list[int]:
    """Reap exited children until none is left or ``seconds`` pass; returns the live ones."""
    deadline = time.monotonic() + seconds
    while True:
        _reap_exited()
        live = _children(os.getpid())
        if not live or time.monotonic() >= deadline:
            return live
        time.sleep(0.02)


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Stop every child process and wait for each to end; returns the pids that needed a signal.

    multiprocessing's resource tracker outlives the workers it watches: it
    exits only on EOF from its pipe, which would come after this process
    had gone, leaving it behind.  It is stopped and waited for first.
    Children still running after ``grace_s`` get SIGTERM, then SIGKILL.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    multiprocessing.active_children()
    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError):
        pass
    signalled: list[int] = []
    live = _wait_children(grace_s)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in live:
            try:
                os.kill(pid, sig)
                signalled.append(pid)
            except ProcessLookupError:
                pass
        live = _wait_children(2.0)
    return sorted(set(signalled))


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #
def _openblas_info() -> dict:
    """Vendor, version and per-process thread count of the BLAS numpy loaded.

    Reads numpy's bundled OpenBLAS through ``ctypes`` without changing its
    settings.
    """
    import numpy as np

    info: dict = {"vendor": None, "version": None, "threads": None, "library": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({path for path in (line.split()[-1] for line in fh)
                       if "openblas" in os.path.basename(path).lower() and ".so" in path})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def _src_digest(src_dir: str) -> str:
    """SHA-256 over the program's Python sources (identifies code without git)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git work tree (e.g. an exported copy)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_times() -> list[int]:
    """Aggregate CPU time counters (jiffies) from ``/proc/stat``: user .. steal."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def host_noise(before: list[int], after: list[int]) -> dict:
    """Share of host CPU time stolen by the hypervisor, and busy share, between two ``cpu_times``."""
    delta = [b - a for a, b in zip(before, after)]
    total = max(1, sum(delta))
    idle = delta[3] + delta[4]
    return {"steal_frac": round(delta[7] / total, 4), "busy_frac": round(1 - idle / total, 4)}


def provenance(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Where and how a result was measured."""
    import numpy as np

    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(os.path.join(root, "src")),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": _openblas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k in env_keys or k.startswith("REPRO_")},
    }


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run measured; ``run.py`` turns it into the result line."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: end-to-end metrics by name (untraced runs)
    end_to_end: dict = field(default_factory=dict)
    #: per-layer metrics by name (traced runs)
    per_layer: dict = field(default_factory=dict)
    #: human-readable extras printed before the result line (units in the key)
    info: dict = field(default_factory=dict)
    #: failed output checks, one line each
    mismatches: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Record one output check; a failed check makes the whole run incorrect."""
        if not ok:
            self.correct = False
            self.mismatches.append(what)


def log(message: str) -> None:
    """Progress line on stderr (stdout is reserved for results)."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
