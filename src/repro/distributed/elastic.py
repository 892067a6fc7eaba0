"""Elastic fault-tolerant data-parallel training over real forked workers.

:class:`ElasticTrainer` is the training-side counterpart of the fork
serving backend: persistent forked worker processes, weights published
through one shared-memory segment (the :mod:`repro.backend.store` idiom),
gradients exchanged through a shared micro-shard arena, and every
cross-process wait bounded by a deadline so a dead or hung worker can
never wedge a step.

Two properties drive the design:

**Elastic bit-identity.**  A p-dependent reduction order would make the
update depend on how many workers happen to be alive, so losing a worker
would fork the training trajectory.  Instead the global batch is split
into a *fixed* number ``M`` of micro-shards (independent of the live
worker count) and the reduction is a deterministic left-fold over slots
``0..M-1``: live workers own contiguous runs of slots, and the parent
walks them in rank order, each folding its run — in slot order — into a
shared float64 accumulator.  The fold therefore performs the exact same
float operations for *any* worker count, which is what lets the ring
shrink (or grow back) mid-epoch while producing bit-identical weights.
Dropout masks are reseeded per ``(seed, step, micro-shard)`` so they too
are assignment-independent.

**Crash-safe exact resume.**  Periodic checkpoints are written atomically
(temp file + ``os.replace``) and capture — besides model and optimiser —
the epoch/step cursor and the :class:`~repro.data.loader.BatchLoader` RNG
state at the *start* of the current epoch.  Resume restores that state and
replays (draws and discards) the first ``step_in_epoch`` batches, which
re-consumes the shuffle permutation and every augmentation draw exactly,
so a run SIGKILLed at an arbitrary step and resumed with ``--resume``
reproduces the uninterrupted run bit-for-bit.  Corrupt archives (torn
writes, ``ckpt_corrupt_write`` injections) surface as
:class:`~repro.nn.serialization.CheckpointError` and resume falls back to
the next-newest checkpoint, mirroring the serving registry's quarantine.

Failure handling in a step: every reply and every fold hop has a
``poll`` deadline; a worker that misses it (or EOFs) is killed, the ring
is rebuilt with the survivors (``RingBroken`` carries the rank), the
batch is re-sharded over them and the *same* step re-runs — nothing is
lost, and determinism makes the re-computation identical.  Below-target
fleets are topped back up at step boundaries (elastic grow).
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import re
import time

import numpy as np

from ..backend.store import (
    SharedArrayField,
    attach_segment,
    close_segment,
    create_segment,
    ndarray_view,
)
from ..data.loader import BatchLoader
from ..nn import Adam, CategoricalCrossEntropy, save_checkpoint
from ..nn import load_checkpoint as _load_checkpoint
from ..nn.layers import Dropout
from ..nn.serialization import CheckpointError
from ..obs.metrics import get_registry
from ..reliability import fault_point
from ..unet.model import UNet, UNetConfig
from ..unet.trainer import EpochStats, TrainingHistory

__all__ = ["ElasticTrainer", "ElasticTrainingError", "RingBroken", "latest_checkpoints"]

_ALIGN = 64

#: Default per-reply / per-fold-hop deadline (seconds).
_DEFAULT_STEP_TIMEOUT_S = 60.0

_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")


class ElasticTrainingError(RuntimeError):
    """Elastic training cannot make progress (e.g. every worker died)."""


class RingBroken(RuntimeError):
    """A worker died or stalled past its deadline during a step or fold.

    ``rank`` identifies the worker that stopped responding — the trainer
    evicts exactly that rank and re-runs the step on the survivors.
    """

    def __init__(self, rank: int, message: str | None = None) -> None:
        super().__init__(message or f"ring all-reduce broken at rank {rank}")
        self.rank = int(rank)


def latest_checkpoints(directory: str | os.PathLike) -> list[str]:
    """``ckpt-*.npz`` paths in ``directory``, newest (highest step) first."""
    directory = str(directory)
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _CKPT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(found, reverse=True)]


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _reseed_dropouts(dropouts: list[Dropout], seed: int, step: int, slot: int) -> None:
    """Make dropout a pure function of (seed, step, micro-shard).

    Reseeding per micro-shard — never per worker — keeps the masks
    identical no matter which worker a shard lands on, which is required
    for re-dispatching shards after an eviction to be bit-exact.
    """
    for index, drop in enumerate(dropouts):
        drop._rng = np.random.default_rng([seed, step, slot, index])


def _elastic_worker_main(conn, config, seed, weight_segment, weight_fields,
                         grad_segment, num_shards, flat_size, acc_offset,
                         siblings=()) -> None:
    """Blocking request loop of one elastic training worker (runs in the child)."""
    # Same fd hygiene as the backend workers: close inherited parent-side
    # pipe ends so every pipe EOFs when the parent actually dies.
    for sibling in siblings:
        try:
            sibling.close()
        except OSError:  # pragma: no cover - already closed
            pass
    # Zero the forked copy of the metrics registry; deltas piggyback on
    # replies and merge into the parent (the PR 8 protocol).
    get_registry().reset()

    model = UNet(config)
    loss_fn = CategoricalCrossEntropy()
    dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
    params = model.named_parameters()

    weight_shm = attach_segment(weight_segment)
    grad_shm = attach_segment(grad_segment)
    weight_views = [
        (params[fld.name], ndarray_view(weight_shm, fld.shape, fld.offset, writeable=False))
        for fld in weight_fields
    ]
    slot_views = [
        ndarray_view(grad_shm, (flat_size,), offset=m * flat_size * 4)
        for m in range(num_shards)
    ]
    acc_view = ndarray_view(grad_shm, (flat_size,), offset=acc_offset, dtype=np.float64)

    hist_compute = get_registry().histogram(
        "repro_train_shard_compute_ms",
        "Forward+backward time per micro-shard in an elastic worker",
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
                if op == "step":
                    step_idx, shards = msg[1], msg[2]
                    fault_point("trainer_worker_crash")
                    for param, view in weight_views:
                        param.value[...] = view
                    model.train()
                    losses = {}
                    for slot, x, y in shards:
                        t0 = time.perf_counter()
                        _reseed_dropouts(dropouts, seed, step_idx, slot)
                        model.zero_grad()
                        logits = model.forward(x)
                        losses[slot] = float(loss_fn.forward(logits, y))
                        model.backward(loss_fn.backward(), need_input_grad=False)
                        flat = slot_views[slot]
                        offset = 0
                        for param, _view in weight_views:
                            size = param.grad.size
                            flat[offset:offset + size] = param.grad.ravel()
                            offset += size
                        hist_compute.observe((time.perf_counter() - t0) * 1e3)
                    conn.send(("ok", losses, _reply_meta()))
                elif op == "fold":
                    _step_idx, slots, init = msg[1], msg[2], msg[3]
                    fault_point("allreduce_stall")
                    if init:
                        acc_view[...] = 0.0
                    for slot in slots:
                        acc_view += slot_views[slot]
                    conn.send(("ok", None, _reply_meta()))
                elif op == "ping":
                    conn.send(("ok", os.getpid()))
                else:
                    conn.send(("err", f"unknown elastic op {op!r}"))
            except Exception as exc:  # report, keep serving
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        acc_view = None
        slot_views = None
        weight_views = None
        close_segment(weight_shm)
        close_segment(grad_shm)
        conn.close()


def _reply_meta() -> dict:
    meta = {"pid": os.getpid()}
    drained = get_registry().drain()
    if drained:
        meta["metrics"] = drained
    return meta


class _ElasticWorker:
    """Parent-side handle of one elastic worker (pipe + liveness flag)."""

    def __init__(self, ctx, rank: int, spawn_args, siblings=()) -> None:
        self.rank = rank
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_elastic_worker_main,
            args=(child_conn,) + tuple(spawn_args) + (tuple(siblings) + (self.conn,),),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.dead = False

    def send(self, *msg) -> None:
        try:
            self.conn.send(msg)
        except (OSError, BrokenPipeError) as exc:
            self.kill()
            raise RingBroken(self.rank, f"worker rank {self.rank} pipe broken: {exc!r}") from exc

    def recv(self, timeout: float):
        """One reply with a deadline; silence or EOF evicts the worker."""
        try:
            if not self.conn.poll(timeout):
                self.kill()
                raise RingBroken(
                    self.rank,
                    f"worker rank {self.rank} (pid {self.process.pid}) missed its "
                    f"{timeout:.1f}s reply deadline; killed",
                )
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.kill()
            raise RingBroken(
                self.rank, f"worker rank {self.rank} died: {exc!r}"
            ) from exc
        status, payload = reply[0], reply[1]
        meta = reply[2] if len(reply) > 2 else None
        if meta is not None:
            drained = meta.get("metrics")
            if drained:
                get_registry().merge(drained)
        if status != "ok":
            raise ElasticTrainingError(f"elastic worker rank {self.rank} failed: {payload}")
        return payload

    def kill(self) -> None:
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
                if self.conn.poll(timeout):
                    self.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# ---------------------------------------------------------------------- #
# Parent-side trainer
# ---------------------------------------------------------------------- #
class ElasticTrainer:
    """Synchronous data-parallel training that survives worker loss.

    Parameters
    ----------
    num_workers:
        Target fleet size.  The fleet may shrink below this when workers
        die mid-step and grows back at step boundaries (``auto_respawn``).
    micro_shards:
        Fixed micro-shard count ``M`` (defaults to ``num_workers``).  The
        update trajectory depends on ``M`` and the data — never on the
        live worker count — so runs with different fleets but equal ``M``
        are bit-identical.
    step_timeout_s:
        Per-reply / per-fold-hop deadline; a worker silent past it is
        evicted and the step re-runs on the survivors.
    checkpoint_dir / checkpoint_every:
        When set, write an atomic ``ckpt-{step:08d}.npz`` every
        ``checkpoint_every`` global steps (and at every epoch end).
    keep_checkpoints:
        Retain at most this many newest checkpoints.
    auto_respawn:
        Top the fleet back up to ``num_workers`` at step boundaries.
    """

    def __init__(
        self,
        num_workers: int = 2,
        config: UNetConfig | None = None,
        learning_rate: float = 1e-3,
        micro_shards: int | None = None,
        seed: int = 0,
        step_timeout_s: float = _DEFAULT_STEP_TIMEOUT_S,
        checkpoint_dir: str | os.PathLike | None = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 3,
        auto_respawn: bool = True,
        start_method: str = "fork",
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if micro_shards is not None and micro_shards < 1:
            raise ValueError("micro_shards must be >= 1")
        if start_method not in mp.get_all_start_methods():
            raise ValueError(f"start method {start_method!r} is not available")
        if start_method != "fork":
            raise ValueError("ElasticTrainer requires the fork start method "
                             "(workers inherit fault budgets and pipe ends)")
        self.num_workers = int(num_workers)
        self.micro_shards = int(micro_shards) if micro_shards is not None else self.num_workers
        self.config = config if config is not None else UNetConfig()
        self.seed = int(seed)
        self.step_timeout_s = float(step_timeout_s)
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)
        self.checkpoint_every = int(checkpoint_every)
        self.keep_checkpoints = int(keep_checkpoints)
        self.auto_respawn = bool(auto_respawn)
        self._ctx = mp.get_context(start_method)

        self.master = UNet(self.config)
        # Replace after construction to train with another optimiser; it must
        # be built over ``self.master.parameters()``.
        self.optimizer = Adam(self.master.parameters(), lr=learning_rate)
        self.history = TrainingHistory()
        self.global_step = 0
        self.ring_rebuilds = 0
        self.worker_respawns = 0
        self.resumes = 0

        self._params = list(self.master.named_parameters().items())
        self._flat_size = int(sum(p.value.size for _name, p in self._params))
        self._weight_shm = None
        self._grad_shm = None
        self._weight_fields: list[SharedArrayField] = []
        self._acc_offset = 0
        self._workers: dict[int, _ElasticWorker] = {}
        self._next_rank = 0
        self._started = False

        registry = get_registry()
        self._m_step_ms = registry.histogram(
            "repro_train_step_ms", "Wall time of one elastic training step")
        self._m_allreduce_ms = registry.histogram(
            "repro_train_allreduce_ms", "Wall time of the gradient fold (all-reduce) per step")
        self._m_allreduce_bytes = registry.counter(
            "repro_train_allreduce_bytes_total", "Gradient bytes folded across workers")
        self._m_rebuilds = registry.counter(
            "repro_train_ring_rebuilds_total", "Ring rebuilds after worker eviction")
        self._m_respawns = registry.counter(
            "repro_train_worker_respawns_total", "Elastic workers respawned (grow)")
        self._m_resumes = registry.counter(
            "repro_train_resumes_total", "Training runs resumed from a checkpoint")
        self._m_checkpoints = registry.counter(
            "repro_train_checkpoints_total", "Checkpoints written")
        self._m_workers = registry.gauge(
            "repro_train_workers", "Live elastic training workers")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ElasticTrainer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Lay out the shared segments and fork the worker fleet."""
        if self._started:
            return
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        offset = 0
        fields = []
        for name, param in self._params:
            offset = _aligned(offset)
            fields.append(SharedArrayField(name, tuple(param.value.shape), offset))
            offset += param.value.size * 4
        self._weight_fields = fields
        self._weight_shm = create_segment(max(offset, 1))
        self._acc_offset = _aligned(self.micro_shards * self._flat_size * 4)
        self._grad_shm = create_segment(self._acc_offset + self._flat_size * 8)
        self._publish_weights()
        self._workers = {}
        for _ in range(self.num_workers):
            self._spawn_worker()
        self._started = True
        self._m_workers.set(float(len(self._workers)))

    def close(self) -> None:
        """Stop the fleet and unlink the shared segments."""
        for worker in self._workers.values():
            worker.stop()
        self._workers = {}
        if self._weight_shm is not None:
            close_segment(self._weight_shm, unlink=True)
            self._weight_shm = None
        if self._grad_shm is not None:
            close_segment(self._grad_shm, unlink=True)
            self._grad_shm = None
        self._started = False
        self._m_workers.set(0.0)

    def _spawn_args(self):
        return (
            self.config,
            self.seed,
            self._weight_shm.name,
            tuple(self._weight_fields),
            self._grad_shm.name,
            self.micro_shards,
            self._flat_size,
            self._acc_offset,
        )

    def _spawn_worker(self) -> _ElasticWorker:
        rank = self._next_rank
        self._next_rank += 1
        worker = _ElasticWorker(
            self._ctx, rank, self._spawn_args(),
            siblings=[w.conn for w in self._workers.values()],
        )
        self._workers[rank] = worker
        return worker

    @property
    def live_workers(self) -> int:
        return sum(1 for w in self._workers.values()
                   if not w.dead and w.process.is_alive())

    def ping(self) -> dict[int, int]:
        """Heartbeat every live worker; evict the silent (watchdog probe)."""
        pids = {}
        for rank in list(self._workers):
            worker = self._workers[rank]
            try:
                worker.send("ping")
                pids[rank] = worker.recv(self.step_timeout_s)
            except RingBroken:
                self._evict(rank)
        return pids

    # ------------------------------------------------------------------ #
    # Ring membership
    # ------------------------------------------------------------------ #
    def _evict(self, rank: int) -> None:
        worker = self._workers.pop(rank, None)
        if worker is not None:
            worker.kill()
        self._m_workers.set(float(len(self._workers)))

    def _ensure_fleet(self) -> None:
        """Step-boundary grow: evict the silently dead, top back up to target."""
        for rank in list(self._workers):
            worker = self._workers[rank]
            if worker.dead or not worker.process.is_alive():
                self._evict(rank)
        if not self.auto_respawn:
            return
        while len(self._workers) < self.num_workers:
            self._spawn_worker()
            self.worker_respawns += 1
            self._m_respawns.inc()
        self._m_workers.set(float(len(self._workers)))

    def _publish_weights(self) -> None:
        for fld, (_name, param) in zip(self._weight_fields, self._params):
            ndarray_view(self._weight_shm, fld.shape, fld.offset)[...] = param.value

    # ------------------------------------------------------------------ #
    # One step
    # ------------------------------------------------------------------ #
    def _shard_batch(self, x: np.ndarray, y: np.ndarray):
        per = x.shape[0] // self.micro_shards
        if per == 0:
            return None
        return [
            (m, x[m * per:(m + 1) * per], y[m * per:(m + 1) * per])
            for m in range(self.micro_shards)
        ]

    def train_step(self, x: np.ndarray, y: np.ndarray) -> float | None:
        """One synchronous step over a global batch (``None`` if too small).

        Survives any number of mid-step worker deaths: each eviction
        rebuilds the ring, re-shards onto the survivors and re-runs the
        step — determinism makes the retry bit-identical, so no batch is
        ever lost or double-counted.
        """
        if not self._started:
            self.start()
        shards = self._shard_batch(x, y)
        if shards is None:
            return None
        t_step = time.perf_counter()
        self._ensure_fleet()
        while True:
            ranks = sorted(
                rank for rank, w in self._workers.items() if not w.dead
            )
            if not ranks:
                raise ElasticTrainingError(
                    f"no live workers left at step {self.global_step}"
                )
            assignment = self._assign(ranks)
            try:
                losses = self._compute_phase(shards, assignment)
                fold_t0 = time.perf_counter()
                self._fold_phase(assignment)
                self._m_allreduce_ms.observe((time.perf_counter() - fold_t0) * 1e3)
                self._m_allreduce_bytes.inc(float(self.micro_shards * self._flat_size * 4))
                break
            except RingBroken as exc:
                self._evict(exc.rank)
                self.ring_rebuilds += 1
                self._m_rebuilds.inc()
        self._apply_update()
        self.global_step += 1
        self._m_step_ms.observe((time.perf_counter() - t_step) * 1e3)
        return float(np.mean([losses[m] for m in range(self.micro_shards)]))

    def _assign(self, ranks: list[int]) -> list[tuple[int, list[int]]]:
        """Contiguous micro-shard runs per live rank (rank order = slot order)."""
        splits = np.array_split(np.arange(self.micro_shards), len(ranks))
        return [(rank, [int(s) for s in split])
                for rank, split in zip(ranks, splits)]

    def _compute_phase(self, shards, assignment) -> dict[int, float]:
        # Send everything first so the shard computations overlap, then
        # collect with per-reply deadlines.  A failure still drains every
        # reply that was solicited before raising, so a retry never reads
        # a stale reply from the previous attempt.
        sent: list[int] = []
        failure: RingBroken | None = None
        for rank, slots in assignment:
            try:
                self._workers[rank].send(
                    "step", self.global_step, [shards[m] for m in slots]
                )
                sent.append(rank)
            except RingBroken as exc:
                failure = failure or exc
        losses: dict[int, float] = {}
        for rank in sent:
            if self._workers[rank].dead:
                continue
            try:
                losses.update(self._workers[rank].recv(self.step_timeout_s))
            except RingBroken as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return losses

    def _fold_phase(self, assignment) -> None:
        """Chain-fold the micro-shard slots into the shared accumulator.

        The token walks the live ranks in order; each worker folds its
        contiguous slot run in index order, so the accumulation order is
        always slots ``0..M-1`` — independent of the fleet that runs it.
        """
        first = True
        for rank, slots in assignment:
            if not slots:
                continue
            worker = self._workers[rank]
            worker.send("fold", self.global_step, slots, first)
            worker.recv(self.step_timeout_s)
            first = False

    def _apply_update(self) -> None:
        acc = ndarray_view(self._grad_shm, (self._flat_size,),
                           offset=self._acc_offset, dtype=np.float64)
        offset = 0
        inv = 1.0 / self.micro_shards
        for _name, param in self._params:
            size = param.value.size
            param.grad[...] = (acc[offset:offset + size] * inv).astype(
                np.float32
            ).reshape(param.value.shape)
            offset += size
        self.optimizer.step()
        self._publish_weights()

    # ------------------------------------------------------------------ #
    # Checkpointing / resume
    # ------------------------------------------------------------------ #
    def _checkpoint_path(self) -> str:
        return os.path.join(self.checkpoint_dir, f"ckpt-{self.global_step:08d}.npz")

    def _save_checkpoint(self, epoch: int, step_in_epoch: int,
                         epoch_rng_state: dict, epoch_losses: list[float],
                         epoch_images: int) -> str:
        extra = {
            "epoch": epoch,
            "step_in_epoch": step_in_epoch,
            "global_step": self.global_step,
            "epoch_rng_state": epoch_rng_state,
            "epoch_losses": [float(v) for v in epoch_losses],
            "epoch_images": int(epoch_images),
            "completed_losses": [float(v) for v in self.history.losses],
            "micro_shards": self.micro_shards,
            "seed": self.seed,
        }
        path = save_checkpoint(
            self.master, self.optimizer, self._checkpoint_path(),
            metadata={"kind": "elastic-trainer"}, extra_state=extra,
        )
        self._m_checkpoints.inc()
        for old in latest_checkpoints(self.checkpoint_dir)[self.keep_checkpoints:]:
            try:
                os.unlink(old)
            except OSError:  # pragma: no cover - already gone
                pass
        return path

    def _load_latest(self) -> dict | None:
        """Newest loadable checkpoint's extra state; skips corrupt archives."""
        for path in latest_checkpoints(self.checkpoint_dir):
            try:
                return _load_checkpoint(self.master, self.optimizer, path)
            except CheckpointError:
                continue
        return None

    # ------------------------------------------------------------------ #
    # Epoch / fit loops
    # ------------------------------------------------------------------ #
    def fit(self, loader: BatchLoader, epochs: int = 1, resume: bool = False,
            verbose: bool = False) -> TrainingHistory:
        """Train for ``epochs`` passes; the loader's batch size is the global batch.

        With ``resume=True`` (and a ``checkpoint_dir``), pick up from the
        newest readable checkpoint: restore model/optimiser, rewind the
        loader RNG to the interrupted epoch's start and replay the already
        -trained batches so the data trajectory continues bit-exactly.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self._started:
            self.start()
        start_epoch = 0
        skip_steps = 0
        initial_losses: list[float] = []
        initial_images = 0
        if resume and self.checkpoint_dir:
            extra = self._load_latest()
            if extra:
                self.global_step = int(extra["global_step"])
                start_epoch = int(extra["epoch"])
                skip_steps = int(extra["step_in_epoch"])
                initial_losses = [float(v) for v in extra["epoch_losses"]]
                initial_images = int(extra["epoch_images"])
                loader.set_rng_state(extra["epoch_rng_state"])
                self.history = TrainingHistory()
                for e, loss in enumerate(extra["completed_losses"]):
                    self.history.append(EpochStats(
                        epoch=e, loss=float(loss), time_s=0.0, images_per_s=0.0))
                self.resumes += 1
                self._m_resumes.inc()
                self._publish_weights()
        for epoch in range(start_epoch, epochs):
            replay = skip_steps if epoch == start_epoch else 0
            losses = list(initial_losses) if epoch == start_epoch else []
            images = initial_images if epoch == start_epoch else 0
            stats = self._run_epoch(loader, epoch, replay, losses, images)
            self.history.append(stats)
            if verbose:  # pragma: no cover - console output
                print(f"[elastic x{self.live_workers}] epoch {epoch + 1}/{epochs} "
                      f"loss={stats.loss:.4f} time={stats.time_s:.2f}s")
        return self.history

    def _run_epoch(self, loader: BatchLoader, epoch: int, replay: int,
                   losses: list[float], images: int) -> EpochStats:
        # The loader RNG state *before* the permutation draw is what a
        # mid-epoch checkpoint must carry: restoring it and replaying the
        # first N batches re-consumes permutation + augmentation draws
        # exactly, which is the whole bit-exact-resume trick.
        epoch_rng_state = loader.rng_state()
        # Epoch-boundary heartbeat: busy workers are covered by per-reply
        # deadlines; this catches ones that wedged while idle.
        self.ping()
        start = time.perf_counter()
        step_in_epoch = 0
        for x, y in loader:
            step_in_epoch += 1
            if step_in_epoch <= replay:
                continue
            loss = self.train_step(x, y)
            if loss is None:
                continue
            losses.append(loss)
            # _shard_batch drops the remainder past a multiple of micro_shards.
            images += x.shape[0] // self.micro_shards * self.micro_shards
            if (self.checkpoint_dir and self.checkpoint_every > 0
                    and self.global_step % self.checkpoint_every == 0):
                self._save_checkpoint(epoch, step_in_epoch, epoch_rng_state,
                                      losses, images)
        elapsed = time.perf_counter() - start
        stats = EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            time_s=elapsed,
            images_per_s=images / elapsed if elapsed > 0 else 0.0,
        )
        if self.checkpoint_dir:
            # Epoch-boundary checkpoint: cursor at the *next* epoch's start.
            self.history.append(stats)
            try:
                self._save_checkpoint(epoch + 1, 0, loader.rng_state(), [], 0)
            finally:
                self.history.epochs.pop()
        return stats

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def weights_digest(self) -> str:
        """SHA-256 over every parameter, in name order (bit-parity probe)."""
        digest = hashlib.sha256()
        for name, param in self._params:
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(param.value).tobytes())
        return digest.hexdigest()

    def stats(self) -> dict:
        """Counters the CLI reports and the CI smoke asserts on."""
        return {
            "global_step": self.global_step,
            "live_workers": self.live_workers,
            "target_workers": self.num_workers,
            "micro_shards": self.micro_shards,
            "ring_rebuilds": self.ring_rebuilds,
            "worker_respawns": self.worker_respawns,
            "resumes": self.resumes,
            "weights_digest": self.weights_digest(),
        }


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN
