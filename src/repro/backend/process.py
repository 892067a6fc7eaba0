"""The fork backend: persistent worker processes + shared-memory everything.

What made the old per-call fork pool *slower* than a single process was
per-call overhead that scaled with model and output size: every call forked
a fresh pool, every worker re-compiled plans from scratch, and every
result batch (~16 MB of probability maps per scene) was pickled back
through a pipe.  This backend removes all three costs structurally:

* **Workers are persistent.**  Forked once, they keep their attached models
  and compiled plans across calls; steady-state prediction re-runs warm
  arena plans.
* **Weights live in one shared segment** (:mod:`repro.backend.store`).
  Publishing pickles nothing to workers but a tiny spec; workers alias the
  parent's weight copy read-only and bind the pre-packed GEMM operands
  directly, so plan compilation in a worker never re-packs a kernel.
* **Batches travel by shared arena, not pipe.**  ``predict_stack`` writes
  the tile stack into a shared input segment once, task messages carry only
  ``(start, stop)`` span indices, and each worker's plan softmaxes straight
  into the shared output arena (``plan.run(out=…)``).  The I/O segment pair
  is cached per ``(key, stack shape)`` and reused across scenes, so the
  steady state allocates nothing and concatenates nothing.

Workers that fail are handled, not propagated: a dead pipe or a dispatch
that blows its per-op timeout (``dispatch_timeout_s``, env
``REPRO_DISPATCH_TIMEOUT_S``) kills the worker, and the idempotent predict
ops are retried on another worker with capped exponential backoff — a
prediction span writes only its own slice of the shared output arena, so
re-running it is safe.  A background watchdog heartbeats idle workers
(``heartbeat_interval_s``, env ``REPRO_HEARTBEAT_S``) and respawns hung or
dead ones — with their models republished from the store — before the next
dispatch ever lands on them.  Only after retries exhaust does the caller
see a :class:`BackendError`.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import current_trace_id, record as _trace_record
from ..reliability import Deadline, RetryPolicy, fault_point
from .base import Backend, BackendError, ModelHandle, _default_chunk_size
from .store import (
    SharedModelStore,
    attach_model,
    attach_segment,
    close_segment,
    create_segment,
    ndarray_view,
)

__all__ = ["ProcessBackend", "WorkerLost"]

#: Environment overrides for the reliability knobs (CI's chaos arm tightens
#: them; ``<= 0`` disables the mechanism).
DISPATCH_TIMEOUT_ENV_VAR = "REPRO_DISPATCH_TIMEOUT_S"
HEARTBEAT_ENV_VAR = "REPRO_HEARTBEAT_S"

_DEFAULT_DISPATCH_TIMEOUT_S = 30.0
_DEFAULT_HEARTBEAT_S = 2.0
_PING_TIMEOUT_S = 5.0


class WorkerLost(BackendError):
    """A worker crashed or hung mid-dispatch (retryable for predict ops)."""


def _env_float(var: str, default: float) -> float:
    raw = os.environ.get(var, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _openblas_threads(cap: int | None = None) -> int | None:
    """Largest OpenBLAS thread pool in this process, each first lowered to ``cap``.

    OpenBLAS sizes its pool to every core and a forked worker inherits it, so
    N workers on N cores ran N² GEMM threads that preempted one another.
    Never raises a count (a user-set ``OPENBLAS_NUM_THREADS`` holds).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "libscipy_openblas" in line})
    except OSError:  # pragma: no cover - non-Linux
        return None
    counts = []
    for path in paths:  # numpy's ILP64 build, plus scipy's LP64 one once scipy is loaded
        lib = ctypes.CDLL(path)
        suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        if cap is not None and get() > cap:
            getattr(lib, "scipy_openblas_set_num_threads" + suffix)(ctypes.c_int(cap))
        counts.append(get())
    return max(counts, default=None)


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _worker_get_view(segments: dict, name: str, shape, dtype, writeable: bool):
    cached = segments.get(name)
    if cached is None:
        shm = attach_segment(name)
        cached = (shm, ndarray_view(shm, tuple(shape), dtype=dtype, writeable=writeable))
        segments[name] = cached
    return cached[1]


def _worker_reply_meta(compute_ms: float, trace_id=None) -> dict:
    """Reply metadata for one timed predict op: compute time, trace echo,
    and whatever metric deltas accumulated in this worker since its last
    reply — the piggyback channel that keeps the metrics hot path free of
    cross-process locks."""
    meta = {"compute_ms": compute_ms, "pid": os.getpid()}
    if trace_id is not None:
        meta["trace_id"] = trace_id
    drained = get_registry().drain()
    if drained:
        meta["metrics"] = drained
    return meta


def _worker_main(conn, siblings=(), blas_threads: int | None = None) -> None:
    """Blocking request loop of one backend worker (runs in the child)."""
    _openblas_threads(blas_threads)
    # Forked children inherit the parent's end of every *earlier* worker's
    # pipe.  Close them, or a sibling holding the fd open keeps recv() from
    # ever seeing EOF after the parent dies — orphan workers that pin the
    # shared-memory segments (and the resource tracker) forever.
    for sibling in siblings:
        try:
            sibling.close()
        except OSError:  # pragma: no cover - already closed
            pass
    # The fork cloned the parent's metrics registry cells (copy-on-write);
    # zero them or every parent count accumulated before the fork would be
    # double-reported by this worker's first drained delta.
    get_registry().reset()
    models: dict = {}  # key -> AttachedModel
    segments: dict = {}  # segment name -> (SharedMemory, ndarray view)
    hist_compute = get_registry().histogram(
        "repro_backend_compute_ms",
        "Model compute time per predict dispatch",
        ("backend",),
    )
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            try:
                if op == "stop":
                    conn.send(("ok", None))
                    break
                if op == "publish":
                    spec = msg[1]
                    old = models.pop(spec.key, None)
                    if old is not None:
                        old.close()
                    models[spec.key] = attach_model(spec)
                    conn.send(("ok", None))
                elif op == "release":
                    old = models.pop(msg[1], None)
                    if old is not None:
                        old.close()
                    conn.send(("ok", None))
                elif op == "predict_span":
                    (key, in_name, in_shape, in_dtype, out_name, out_shape,
                     start, stop, trace_id) = msg[1:]
                    entry = models[key]
                    fault_point("worker_crash")
                    fault_point("worker_hang")
                    src = _worker_get_view(segments, in_name, in_shape,
                                           np.dtype(in_dtype), writeable=False)
                    dst = _worker_get_view(segments, out_name, out_shape,
                                           np.float32, writeable=True)
                    t0 = time.perf_counter()
                    entry.predict(src[start:stop], out=dst[start:stop])
                    compute_ms = (time.perf_counter() - t0) * 1e3
                    hist_compute.observe(compute_ms, backend="fork")
                    conn.send(("ok", None, _worker_reply_meta(compute_ms, trace_id)))
                elif op == "predict_batch":
                    key, batch, trace_id = msg[1:]
                    fault_point("worker_crash")
                    fault_point("worker_hang")
                    t0 = time.perf_counter()
                    result = models[key].predict(batch)
                    compute_ms = (time.perf_counter() - t0) * 1e3
                    hist_compute.observe(compute_ms, backend="fork")
                    conn.send(("ok", result, _worker_reply_meta(compute_ms, trace_id)))
                elif op == "ping":
                    conn.send(("ok", os.getpid()))
                elif op == "warm":
                    key, shape = msg[1:]
                    models[key].warm(shape)
                    conn.send(("ok", None))
                elif op == "map_chunk":
                    fn, chunk = msg[1:]
                    conn.send(("ok", [fn(item) for item in chunk]))
                elif op == "drop_segments":
                    for name in msg[1]:
                        cached = segments.pop(name, None)
                        if cached is not None:
                            close_segment(cached[0])
                    conn.send(("ok", None))
                else:
                    conn.send(("err", f"unknown backend op {op!r}"))
            except Exception as exc:  # report, keep serving
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        for attached in models.values():
            attached.close()
        for shm, _view in segments.values():
            close_segment(shm)
        conn.close()


class _Worker:
    """Parent-side handle of one worker process (pipe + in-use lock)."""

    def __init__(self, ctx, siblings: Sequence = (), blas_threads: int | None = None) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        # The child closes every parent-side end it inherited at fork time —
        # its own *and* the earlier workers' — so the pipes EOF when the
        # parent actually dies (see _worker_main).
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, tuple(siblings) + (self.conn,), blas_threads),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.dead = False
        #: metadata of the most recent 3-tuple reply (trace-id echo, pid,
        #: compute time) — observability peek, not part of the data path
        self.last_meta: dict | None = None

    def call(self, *msg, timeout: float | None = None):
        """One request/response round trip; a broken pipe marks the worker dead.

        ``timeout`` bounds the wait for the reply: a worker that does not
        answer in time is presumed hung, killed on the spot (its model state
        is all re-creatable from the shared store) and reported as
        :class:`WorkerLost` so idempotent ops can retry elsewhere.

        Timed ops reply ``("ok", payload, meta)``: the worker-measured
        compute time lands in this thread's trace collector (if one is
        active), and any piggybacked metric deltas merge into the parent
        registry here — on the thread that already owns the reply, never
        under a shared lock on the worker side.
        """
        try:
            self.conn.send(msg)
            if timeout is not None and not self.conn.poll(timeout):
                self.kill()
                raise WorkerLost(
                    f"backend worker (pid {self.process.pid}) hung during {msg[0]!r} "
                    f"(no reply within {timeout:.1f}s); killed"
                )
            reply = self.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            self.dead = True
            raise WorkerLost(
                f"backend worker (pid {self.process.pid}) died during {msg[0]!r}: {exc!r}"
            ) from exc
        status, payload = reply[0], reply[1]
        meta = reply[2] if len(reply) > 2 else None
        if status != "ok":
            raise BackendError(f"backend worker task {msg[0]!r} failed: {payload}")
        if meta is not None:
            self.last_meta = meta
            drained = meta.get("metrics")
            if drained:
                get_registry().merge(drained)
            compute_ms = meta.get("compute_ms")
            if compute_ms is not None:
                _trace_record("compute_ms", compute_ms)
        return payload

    def kill(self) -> None:
        """Hard-kill the worker (SIGKILL); used for hung processes."""
        self.dead = True
        if self.process.is_alive():
            self.process.kill()
        self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def stop(self, timeout: float = 2.0) -> None:
        if not self.dead and self.process.is_alive():
            try:
                self.conn.send(("stop",))
                # A hung worker never acknowledges; poll instead of a blind
                # recv() so shutdown cannot wedge behind it.
                if self.conn.poll(timeout):
                    self.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _IOSegments:
    """A reusable shared input/output arena pair for one (key, stack shape)."""

    def __init__(self, stack_shape, stack_dtype, out_shape) -> None:
        dtype = np.dtype(stack_dtype)
        self.in_shm = create_segment(int(np.prod(stack_shape, dtype=np.int64)) * dtype.itemsize)
        self.out_shm = create_segment(int(np.prod(out_shape, dtype=np.int64)) * 4)
        self.in_view = ndarray_view(self.in_shm, tuple(stack_shape), dtype=dtype)
        self.out_view = ndarray_view(self.out_shm, tuple(out_shape), dtype=np.float32)
        self.in_dtype = dtype.str

    @property
    def names(self) -> tuple[str, str]:
        return (self.in_shm.name, self.out_shm.name)

    def destroy(self) -> None:
        self.in_view = None
        self.out_view = None
        close_segment(self.in_shm, unlink=True)
        close_segment(self.out_shm, unlink=True)


# ---------------------------------------------------------------------- #
# Parent-side backend
# ---------------------------------------------------------------------- #
class ProcessBackend(Backend):
    """Persistent fork workers attached to the shared-memory model store."""

    name = "fork"

    def __init__(self, num_workers: int = 2, start_method: str = "fork", *,
                 dispatch_timeout_s: float | None = None,
                 heartbeat_interval_s: float | None = None,
                 retry: RetryPolicy | None = None) -> None:
        super().__init__(num_workers=num_workers)
        if start_method not in mp.get_all_start_methods():
            raise ValueError(f"start method {start_method!r} is not available on this platform")
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method
        if dispatch_timeout_s is None:
            dispatch_timeout_s = _env_float(DISPATCH_TIMEOUT_ENV_VAR,
                                            _DEFAULT_DISPATCH_TIMEOUT_S)
        if heartbeat_interval_s is None:
            heartbeat_interval_s = _env_float(HEARTBEAT_ENV_VAR, _DEFAULT_HEARTBEAT_S)
        #: per-dispatch reply deadline for predict ops; <= 0 disables
        self.dispatch_timeout_s = dispatch_timeout_s if dispatch_timeout_s > 0 else None
        #: idle-worker heartbeat period; <= 0 disables the watchdog
        self.heartbeat_interval_s = heartbeat_interval_s if heartbeat_interval_s > 0 else None
        self.retry = retry if retry is not None else RetryPolicy()
        self._store = SharedModelStore()
        self._handles: dict[object, ModelHandle] = {}
        self._workers: list[_Worker] = []
        # LIFO free-list: sequential spans stick to the most recently used
        # (cache-hot) worker instead of round-robining every span onto a
        # worker whose arena has gone cold; concurrent dispatch still fans
        # out because busy workers are simply absent from the stack.
        self._free: queue.LifoQueue[int] = queue.LifoQueue()
        self._dispatcher: ThreadPoolExecutor | None = None
        self._io: dict[tuple, _IOSegments] = {}
        self._io_lock = threading.Lock()
        self._busy = 0
        self._busy_lock = threading.Lock()
        self._respawns = 0
        self._retries = 0
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        self._blas_threads: int | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _start(self) -> None:
        # Start the resource tracker *before* forking so every worker
        # inherits the parent's tracker fd.  Otherwise each worker's first
        # shared-memory attach lazily spawns a private tracker whose cache
        # never sees the parent's unlink — leak warnings at worker exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        # In-flight dispatch is capped at the cores actually available, and
        # the cores are split between the in-flight workers' BLAS pools:
        # oversubscribed forwards evict each other's caches (each plan's
        # working set is tens of MB).  All workers stay up and warm either
        # way; the cap only bounds concurrency.
        cpus = _cpu_count()
        inflight = max(1, min(self.num_workers, cpus))
        self._blas_threads = max(1, cpus // inflight)
        self._workers = []
        for _ in range(self.num_workers):
            self._workers.append(
                _Worker(self._ctx, [w.conn for w in self._workers], self._blas_threads)
            )
        for index in range(self.num_workers):
            self._free.put(index)
        self._dispatcher = ThreadPoolExecutor(
            max_workers=inflight, thread_name_prefix="repro-backend-dispatch"
        )
        if self.heartbeat_interval_s is not None:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-backend-watchdog", daemon=True
            )
            self._watchdog.start()

    def _close(self) -> None:
        # Watchdog first, or it would respawn the workers being stopped.
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2 * _PING_TIMEOUT_S)
            self._watchdog = None
        if self._dispatcher is not None:
            self._dispatcher.shutdown(wait=True)
            self._dispatcher = None
        for worker in self._workers:
            worker.stop()
        self._workers = []
        with self._io_lock:
            segments = list(self._io.values())
            self._io.clear()
        for seg in segments:
            seg.destroy()
        self._store.close()
        self._handles.clear()

    # ------------------------------------------------------------------ #
    # Worker checkout / dispatch
    # ------------------------------------------------------------------ #
    def _checkout(self) -> int:
        index = self._free.get()
        worker = self._workers[index]
        if worker.dead or not worker.process.is_alive():
            self._respawn(index)
        return index

    def _respawn(self, index: int) -> None:
        """Replace a dead worker and republish every stored model into it."""
        old = self._workers[index]
        try:
            old.stop(timeout=0.5)
        except Exception:  # pragma: no cover - defensive
            pass
        siblings = [w.conn for i, w in enumerate(self._workers) if i != index]
        worker = _Worker(self._ctx, siblings, self._blas_threads)
        self._workers[index] = worker
        self._respawns += 1
        for spec in self._store.specs():
            worker.call("publish", spec)

    def _watchdog_loop(self) -> None:
        """Heartbeat idle workers; kill and respawn any that fail to answer.

        Only *free* workers are pinged — a busy worker is covered by its
        dispatch timeout, and checking out through the free-list means the
        watchdog can never race a dispatcher for the same worker.
        """
        while not self._watchdog_stop.wait(self.heartbeat_interval_s):
            indices = []
            while True:
                try:
                    indices.append(self._free.get_nowait())
                except queue.Empty:
                    break
            for index in indices:
                if self._watchdog_stop.is_set():
                    self._free.put(index)
                    continue
                worker = self._workers[index]
                try:
                    if worker.dead or not worker.process.is_alive():
                        self._respawn(index)
                    else:
                        worker.call("ping", timeout=_PING_TIMEOUT_S)
                except BackendError:
                    try:
                        self._respawn(index)
                    except Exception:  # pragma: no cover - defensive
                        pass
                finally:
                    self._free.put(index)

    def _call(self, *msg, timeout: float | None = None):
        """Run one request on any free worker (blocks while all are busy)."""
        self._ensure_open()
        index = self._checkout()
        with self._busy_lock:
            self._busy += 1
        try:
            return self._workers[index].call(*msg, timeout=timeout)
        finally:
            with self._busy_lock:
                self._busy -= 1
            self._free.put(index)
        # A worker that died inside call() goes back on the free queue dead;
        # the next checkout respawns it with the store's models republished.

    def _predict_call(self, *msg, deadline: Deadline | None = None):
        """A `_call` that survives worker loss: kill, respawn, retry, backoff.

        Predict ops are idempotent (a span writes only its own output
        slice), so a lost worker just means the op runs again elsewhere.
        Worker-side *errors* (``("err", …)`` replies) are not retried — the
        worker is healthy and the failure is deterministic.  The deadline is
        checked before every attempt so expired work never dispatches.
        """
        attempt = 0
        while True:
            if deadline is not None:
                deadline.check("backend dispatch")
            try:
                return self._call(*msg, timeout=self.dispatch_timeout_s)
            except WorkerLost:
                if attempt >= self.retry.max_retries:
                    raise
                with self._busy_lock:
                    self._retries += 1
                self.retry.sleep(attempt, deadline)
                attempt += 1

    def _broadcast(self, *msg) -> None:
        """Send one request to every live worker (best-effort, e.g. drops).

        All sends go out before any reply is collected, so broadcast work
        (attaching a published model, warming a plan) runs concurrently
        across the worker processes instead of one worker at a time.
        """
        indices = [self._checkout() for _ in self._workers]
        sent = []
        try:
            for index in indices:
                worker = self._workers[index]
                try:
                    worker.conn.send(msg)
                    sent.append(index)
                except (OSError, BrokenPipeError):
                    worker.dead = True
            for index in sent:
                worker = self._workers[index]
                try:
                    worker.conn.recv()
                except (EOFError, OSError):
                    worker.dead = True
        finally:
            for index in indices:
                self._free.put(index)

    # ------------------------------------------------------------------ #
    # Generic dispatch
    # ------------------------------------------------------------------ #
    def map(self, fn: Callable, items: Sequence, chunk_size: int | None = None) -> list:
        self._ensure_open()
        items = list(items)
        if not items:
            return []
        if chunk_size is None:
            chunk_size = _default_chunk_size(len(items), self.num_workers)
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        self._count_task(len(chunks))
        futures = [self._dispatcher.submit(self._call, "map_chunk", fn, chunk)
                   for chunk in chunks]
        results = []
        for future in futures:
            results.extend(future.result())
        return results

    # ------------------------------------------------------------------ #
    # Model store
    # ------------------------------------------------------------------ #
    def publish_model(self, key, model, cloud_filter=None, *, engine=None,
                      plan_cache_size: int = 8, warm_shapes: Sequence[tuple[int, ...]] = ()) -> ModelHandle:
        self._ensure_open()
        if engine is not None:
            plan_cache_size = engine.max_plans
        spec = self._store.publish(
            key, model, cloud_filter,
            plan_cache_size=plan_cache_size, warm_shapes=warm_shapes,
        )
        self._drop_io(key)
        self._broadcast("publish", spec)
        config = model.config
        handle = ModelHandle(key=key, num_classes=int(config.num_classes),
                             in_channels=int(config.in_channels))
        self._handles[key] = handle
        return handle

    def release_model(self, key) -> None:
        if key not in self._store:
            return
        self._drop_io(key)
        self._broadcast("release", key)
        self._store.release(key)
        self._handles.pop(key, None)

    def has_model(self, key) -> bool:
        return key in self._store

    def _drop_io(self, key) -> None:
        with self._io_lock:
            dropped = [k for k in self._io if k[0] == key]
            segments = [self._io.pop(k) for k in dropped]
        if segments:
            names = [name for seg in segments for name in seg.names]
            self._broadcast("drop_segments", names)
            for seg in segments:
                seg.destroy()

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, key, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        self._ensure_open()
        if key not in self._store:
            raise KeyError(key)
        self._count_task()
        # The trace id crosses the pipe with the batch and comes back echoed
        # in reply meta: the worker's compute time is attributed to *this*
        # request's collector, and the round trip itself is testable.
        return self._predict_call("predict_batch", key, np.ascontiguousarray(batch),
                                  current_trace_id(), deadline=deadline)

    def _io_for(self, key, stack: np.ndarray) -> tuple[_IOSegments, bool]:
        handle = self._handles[key]
        h, w = stack.shape[1:3]
        out_shape = (stack.shape[0], handle.num_classes, h, w)
        cache_key = (key, stack.shape, stack.dtype.str)
        created = False
        with self._io_lock:
            seg = self._io.get(cache_key)
            if seg is None:
                seg = _IOSegments(stack.shape, stack.dtype, out_shape)
                self._io[cache_key] = seg
                created = True
        return seg, created

    def predict_stack(self, key, stack: np.ndarray, batch_size: int,
                      copy: bool = True, deadline: Deadline | None = None) -> np.ndarray:
        """Zero-pickle stack prediction through the shared I/O arenas.

        With ``copy=False`` the returned array is the shared output arena
        itself — valid until the next call for the same key and stack shape.
        """
        self._ensure_open()
        if key not in self._store:
            raise KeyError(key)
        if deadline is not None:
            deadline.check("backend predict_stack")
        stack = np.asarray(stack)
        if stack.shape[0] == 0:
            handle = self._handles[key]
            return np.zeros((0, handle.num_classes) + stack.shape[1:3], dtype=np.float32)
        seg, created = self._io_for(key, stack)
        seg.in_view[...] = stack
        spans = [(start, min(start + batch_size, stack.shape[0]))
                 for start in range(0, stack.shape[0], batch_size)]
        if created:
            # First sight of this stack shape: bring every worker's plan(s)
            # fully hot (compiled *and* first-touched) before real spans are
            # dispatched, so no span — this call's or a later one's — lands
            # on a cold plan.
            for shape in sorted({(stop - start,) + stack.shape[1:] for start, stop in spans},
                                reverse=True):
                self._broadcast("warm", key, shape)
        self._count_task(len(spans))
        in_name, out_name = seg.names
        # Capture the trace id here, in the caller's thread — the dispatcher
        # threads running the spans have no collector of their own.
        trace_id = current_trace_id()
        submit = self._dispatcher.submit
        futures = [
            submit(
                lambda s=start, e=stop: self._predict_call(
                    "predict_span", key,
                    in_name, seg.in_view.shape, seg.in_dtype,
                    out_name, seg.out_view.shape, s, e, trace_id,
                    deadline=deadline,
                )
            )
            for start, stop in spans
        ]
        # Drain every span before raising, so no in-flight worker is still
        # writing into the shared arena when the caller sees the failure.
        errors = []
        for future in futures:
            try:
                future.result()
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return np.array(seg.out_view) if copy else seg.out_view

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _busy_workers(self) -> int:
        with self._busy_lock:
            return self._busy

    def _model_keys(self) -> list:
        return self._store.keys()

    def occupancy(self) -> dict:
        info = super().occupancy()
        info["start_method"] = self.start_method
        info["alive_workers"] = sum(
            1 for w in self._workers if not w.dead and w.process.is_alive()
        )
        info["worker_pids"] = [
            w.process.pid for w in self._workers if not w.dead and w.process.is_alive()
        ]
        info["respawns"] = self._respawns
        with self._busy_lock:
            info["dispatch_retries"] = self._retries
        info["dispatch_timeout_s"] = self.dispatch_timeout_s
        info["heartbeat_interval_s"] = self.heartbeat_interval_s
        with self._io_lock:
            info["io_segments"] = 2 * len(self._io)
        return info
