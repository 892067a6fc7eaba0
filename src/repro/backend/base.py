"""The execution-backend seam: one abstraction every fan-out layer dispatches through.

Four subsystems used to hand-roll their own parallelism — the auto-label
fork pool (``parallel/pool.py``), the map-reduce executors
(``mapreduce/executors.py``), the scene-inference fan-out
(``unet/inference.py``) and the serving micro-batchers
(``serving/batching.py`` / ``serving/service.py``).  Each re-pickled model
weights and re-compiled inference plans per task, which made multi-process
inference *slower* than a single process.

A :class:`Backend` (in the shape of Ludwig's ``Backend`` abstraction) owns:

* **worker lifecycle** — ``start`` / ``close``, crash detection and respawn;
* **generic task dispatch** — :meth:`Backend.map`, the ordered chunked map
  that the auto-label pool and map-reduce executors adapt onto;
* **a model store** — :meth:`Backend.publish_model` installs a model (and
  its compiled-plan engine) once per backend, after which
  :meth:`Backend.predict` / :meth:`Backend.predict_stack` run batches
  against the warm copy.  The fork backend's store lives in
  ``multiprocessing.shared_memory`` (see :mod:`repro.backend.store`), so N
  worker processes attach to one physical copy of the weights and pre-packed
  plan GEMM operands instead of each re-pickling and re-packing them.

Backends are *behaviour-preserving*: a batch predicted under ``serial``,
``thread`` and ``fork`` produces bit-identical probability maps, because
every backend ultimately executes the same
:func:`repro.unet.inference.predict_batch_probabilities` seam.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..obs.metrics import Histogram, get_registry
from ..obs.trace import record as _trace_record
from ..reliability import Deadline

__all__ = [
    "Backend",
    "BackendError",
    "ModelHandle",
    "available_backends",
    "record_compute",
    "resolve_backend_name",
    "make_backend",
]

#: Environment variable overriding how ``"auto"`` resolves (CI matrixes the
#: tier-1 suite over it: ``REPRO_BACKEND=serial|thread|fork``).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendError(RuntimeError):
    """A backend worker failed (crashed, closed, or rejected a task)."""


_compute_hist: Histogram | None = None


def record_compute(backend_name: str, compute_ms: float) -> None:
    """Report one predict's model-execution time.

    Feeds both sinks at once: the thread-local trace collector (so a traced
    request's span breakdown separates compute from dispatch overhead) and
    the per-backend compute histogram.  Each backend calls this with the
    time measured *where the model actually ran* — inline (serial), in the
    pool thread (thread), or inside the worker process (fork, echoed back in
    reply metadata).
    """
    global _compute_hist
    _trace_record("compute_ms", compute_ms)
    if _compute_hist is None:
        _compute_hist = get_registry().histogram(
            "repro_backend_compute_ms",
            "Model compute time per predict dispatch",
            ("backend",),
        )
    _compute_hist.observe(compute_ms, backend=backend_name)


@dataclass(frozen=True)
class ModelHandle:
    """Parent-side description of one published model."""

    key: object
    num_classes: int
    in_channels: int


def _default_chunk_size(num_items: int, num_workers: int, chunks_per_worker: int = 4) -> int:
    """Chunk size giving each worker a few sizable chunks (load balance vs overhead)."""
    if num_items <= 0:
        return 1
    return max(1, -(-num_items // (num_workers * chunks_per_worker)))


def _available_cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class Backend(ABC):
    """Common lifecycle + dispatch + model-store interface of all backends."""

    #: registry name ("serial" / "thread" / "fork")
    name: str = "?"

    def __init__(self, num_workers: int = 1) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self._started = False
        self._closed = False
        self._tasks_dispatched = 0
        self._lock = threading.Lock()
        self._m_tasks = get_registry().counter(
            "repro_backend_tasks_total",
            "Tasks dispatched through the execution-backend seam",
            ("backend",),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Backend":
        """Bring workers up (idempotent; every dispatch path calls it lazily)."""
        with self._lock:
            if self._closed:
                raise BackendError(f"{self.name} backend is closed")
            if not self._started:
                self._start()
                self._started = True
        return self

    def close(self) -> None:
        """Tear workers down and release every published model (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            self._close()

    def _start(self) -> None:  # pragma: no cover - trivial default
        """Backend-specific startup (workers, pools); called once under lock."""

    def _close(self) -> None:  # pragma: no cover - trivial default
        """Backend-specific teardown; called at most once."""

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    def __enter__(self) -> "Backend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendError(f"{self.name} backend is closed")
        self.start()

    def _count_task(self, n: int = 1) -> None:
        with self._lock:
            self._tasks_dispatched += n
        self._m_tasks.inc(n, backend=self.name)

    # ------------------------------------------------------------------ #
    # Generic dispatch
    # ------------------------------------------------------------------ #
    @abstractmethod
    def map(self, fn: Callable, items: Sequence, chunk_size: int | None = None) -> list:
        """Apply ``fn`` to every item, preserving order.

        ``chunk_size`` groups items per task message (default: a few chunks
        per worker).  ``fn`` must be picklable for process backends.
        """

    # ------------------------------------------------------------------ #
    # Model store
    # ------------------------------------------------------------------ #
    @abstractmethod
    def publish_model(
        self,
        key,
        model,
        cloud_filter=None,
        *,
        engine=None,
        plan_cache_size: int = 8,
        warm_shapes: Sequence[tuple[int, ...]] = (),
    ) -> ModelHandle:
        """Install ``model`` under ``key`` so workers can serve predictions.

        ``cloud_filter`` is applied to every batch before prediction (pass
        ``None`` to skip filtering).  ``engine`` lets in-process backends
        reuse an already-compiled :class:`~repro.unet.compiled.CompiledUNet`
        instead of building a duplicate plan cache; process backends ignore
        it (their workers bind shared pre-packed weights instead).
        ``warm_shapes`` pre-compiles plans for the given input shapes so the
        first prediction does not pay compilation.
        """

    @abstractmethod
    def release_model(self, key) -> None:
        """Forget ``key`` and free its store resources (no-op when absent)."""

    @abstractmethod
    def has_model(self, key) -> bool:
        """Whether ``key`` is currently published."""

    @abstractmethod
    def predict(self, key, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """Probability maps ``(N, K, H, W)`` for one ``(N, H, W, 3)`` batch.

        ``deadline`` bounds the wait: every backend checks it *before*
        computing (expired work raises
        :class:`~repro.reliability.DeadlineExceeded` instead of burning a
        worker on a result nobody is waiting for).
        """

    def predict_stack(
        self, key, stack: np.ndarray, batch_size: int, copy: bool = True,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Predict a whole ``(N, H, W, 3)`` stack in ``batch_size`` batches.

        Returns the concatenated ``(N, K, H, W)`` probability maps.  With
        ``copy=False`` a backend may return a reusable internal buffer that
        is only valid until the next ``predict_stack`` call for the same key
        and shape — callers must consume (or copy) it before dispatching
        again.  ``deadline`` is re-checked before every batch, so an expired
        request stops dispatching mid-stack.
        """
        self._ensure_open()
        outputs = []
        for start in range(0, stack.shape[0], batch_size):
            if deadline is not None:
                deadline.check("backend predict_stack")
            outputs.append(self.predict(key, stack[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def occupancy(self) -> dict:
        """Live occupancy counters for ``/stats`` (workers, models, tasks)."""
        return {
            "backend": self.name,
            "workers": self.num_workers,
            "busy_workers": self._busy_workers(),
            "running": self.running,
            "models": [str(key) for key in self._model_keys()],
            "tasks_dispatched": self._tasks_dispatched,
        }

    def _busy_workers(self) -> int:
        return 0

    def _model_keys(self) -> list:
        return []


# ---------------------------------------------------------------------- #
# In-process model entries (shared by the serial and thread backends)
# ---------------------------------------------------------------------- #
class LocalModelEntry:
    """One published model held in-process: model + filter + compiled engine."""

    __slots__ = ("model", "cloud_filter", "engine", "handle")

    def __init__(self, key, model, cloud_filter, engine, plan_cache_size, warm_shapes):
        from ..unet.compiled import CompiledUNet

        self.model = model
        self.cloud_filter = cloud_filter
        self.engine = engine if engine is not None else CompiledUNet(model, max_plans=plan_cache_size)
        for shape in warm_shapes:
            self.engine.warm(tuple(int(d) for d in shape))
        self.handle = ModelHandle(key=key, num_classes=int(model.config.num_classes),
                                  in_channels=int(model.config.in_channels))

    def predict(self, batch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        from ..unet.inference import predict_batch_probabilities

        return predict_batch_probabilities(
            batch, self.model, self.cloud_filter, engine=self.engine, out=out
        )


# ---------------------------------------------------------------------- #
# Registry / resolution
# ---------------------------------------------------------------------- #
def _fork_available() -> bool:
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


def available_backends() -> tuple[str, ...]:
    """Backend names usable on this platform."""
    names = ["serial", "thread"]
    if _fork_available():
        names.append("fork")
    return tuple(names)


def resolve_backend_name(name: str | None, num_workers: int = 1) -> str:
    """Resolve a backend spec (possibly ``"auto"``/``None``) to a concrete name.

    ``auto`` honours the ``REPRO_BACKEND`` environment variable first (the CI
    matrix knob), then picks ``fork`` when more than one worker was requested
    and the platform supports it, and falls back to ``serial`` otherwise.
    An explicit name is validated against the platform (``fork`` on a
    fork-less platform fails here, at config time, not deep inside a worker).
    """
    if name in (None, "", "auto"):
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        if env:
            name = env
        else:
            return "fork" if num_workers > 1 and _fork_available() else "serial"
    name = str(name).lower()
    valid = ("serial", "thread", "fork")
    if name not in valid:
        raise ValueError(f"unknown backend {name!r}; expected one of {valid} or 'auto'")
    if name == "fork" and not _fork_available():
        raise ValueError("backend 'fork' is not available on this platform "
                         "(no fork start method); use 'serial' or 'thread'")
    return name


def make_backend(name: str | None = "auto", num_workers: int | None = None, **kwargs) -> Backend:
    """Build a backend by name (``"auto"`` resolves via :func:`resolve_backend_name`)."""
    from .process import ProcessBackend
    from .serial import SerialBackend
    from .thread import ThreadBackend

    if num_workers is None:
        num_workers = _available_cpu_count()
    resolved = resolve_backend_name(name, num_workers)
    if resolved == "serial":
        return SerialBackend()
    if resolved == "thread":
        return ThreadBackend(num_workers=num_workers, **kwargs)
    return ProcessBackend(num_workers=num_workers, **kwargs)
