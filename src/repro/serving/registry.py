"""Model registry: name/version → checkpoint archive → warm classifier.

The registry is the serving subsystem's source of truth for *which* model
answers a request.  It maps ``(name, version)`` pairs to ``.npz`` archives
(either ``save_weights`` weight files or full ``save_checkpoint`` training
checkpoints), lazily builds a :class:`~repro.unet.UNet` from the
``unet_config`` block embedded in the archive metadata, and keeps the loaded
:class:`~repro.unet.SceneClassifier` warm so repeated requests never pay the
cold-start cost again.

Two registration styles coexist:

* **directory-backed** — ``ModelRegistry("registry/")`` scans
  ``registry/<name>/<version>.npz`` (version stems are integers, a leading
  ``v`` is allowed).  Re-scanning happens on every unversioned lookup, so
  dropping ``<name>/3.npz`` next to a served ``<name>/2.npz`` hot-swaps the
  model without restarting the service.
* **explicit** — ``registry.register(name, version, path)`` for archives
  living anywhere.

``publish`` is the write side: it saves a model (optionally with its
optimiser state) into the registry layout with enough embedded metadata to
reload it from the archive alone.
"""

from __future__ import annotations

import logging
import os
import re
import threading
from dataclasses import asdict, dataclass, field

from ..nn.optimizers import Optimizer
from ..obs.metrics import get_registry
from ..reliability import CircuitBreaker
from ..nn.serialization import (
    CheckpointError,
    load_model_state,
    read_metadata,
    save_checkpoint,
    save_weights,
)
from ..unet import InferenceConfig, SceneClassifier, UNet, UNetConfig

__all__ = ["ModelRecord", "ModelRegistry"]

_VERSION_RE = re.compile(r"^v?(\d+)\.npz$")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelRecord:
    """One registered model version."""

    name: str
    version: int
    path: str

    def metadata(self) -> dict:
        return read_metadata(self.path)


@dataclass
class _WarmEntry:
    record: ModelRecord
    classifier: SceneClassifier
    #: Set exactly once, under the registry lock, by whichever retirement
    #: path (version hot-swap or LRU cap) gets there first — the flag is
    #: what makes racing retirements idempotent.
    retired: bool = False


def _unet_from_metadata(record: ModelRecord, metadata: dict) -> UNet:
    config_dict = metadata.get("unet_config")
    if config_dict is None:
        raise CheckpointError(
            f"archive {record.path!r} has no 'unet_config' metadata; re-save it with "
            "ModelRegistry.publish (or save_weights/save_checkpoint with metadata=...) "
            "so the registry can rebuild the model"
        )
    try:
        config = UNetConfig(**config_dict)
    except TypeError as exc:
        raise CheckpointError(f"invalid 'unet_config' metadata in {record.path!r}: {exc}") from exc
    return UNet(config)


@dataclass
class ModelRegistry:
    """Thread-safe lazy-loading model store with hot-swap on version bump.

    ``inference`` overrides the per-archive inference settings for every
    model (the service's ``--inference-config`` flag); when it is ``None``
    each archive's embedded ``inference`` metadata is used, falling back to
    :class:`InferenceConfig` defaults.

    ``max_warm`` bounds how many warm classifiers (each holding model
    weights plus compiled inference plans) stay resident: the least recently
    served entry is retired once the cap is exceeded.  Retirement — whether
    by the LRU cap or by a version hot-swap — notifies every listener added
    with :meth:`add_evict_listener`, so the serving layer can close the
    retired model's micro-batcher and drop its plans.
    """

    root: str | None = None
    inference: InferenceConfig | None = None
    max_warm: int | None = None
    #: consecutive failures before a model's circuit breaker opens
    breaker_failure_threshold: int = 5
    #: seconds an open breaker waits before letting a probe request through
    breaker_reset_s: float = 30.0
    _records: dict[str, dict[int, ModelRecord]] = field(default_factory=dict, repr=False)
    _explicit: dict[str, dict[int, ModelRecord]] = field(default_factory=dict, repr=False)
    _warm: dict[tuple[str, int], _WarmEntry] = field(default_factory=dict, repr=False)
    _evict_listeners: list = field(default_factory=list, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    #: corrupt archives quarantined as {path: mtime_ns}; a rewritten file
    #: (different mtime) gets retried on the next lookup
    _quarantined: dict[str, int] = field(default_factory=dict, repr=False)
    _breakers: dict[tuple[str, int], CircuitBreaker] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.max_warm is not None and self.max_warm < 1:
            raise ValueError("max_warm must be >= 1 (or None for unbounded)")
        if self.root is not None:
            self.root = str(self.root)
            self.scan()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, version: int, path: str | os.PathLike) -> ModelRecord:
        """Register one archive explicitly (no directory layout required)."""
        version = int(version)
        if version < 1:
            raise ValueError("model version must be >= 1")
        path = str(path)
        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path = path + ".npz"
        if not os.path.exists(path):
            raise FileNotFoundError(f"model archive not found: {path!r}")
        record = ModelRecord(name=name, version=version, path=path)
        with self._lock:
            self._explicit.setdefault(name, {})[version] = record
            self._records.setdefault(name, {})[version] = record
        return record

    def scan(self) -> None:
        """Re-read the registry directory, picking up new models and versions."""
        if self.root is None:
            return
        found: dict[str, dict[int, ModelRecord]] = {}
        if os.path.isdir(self.root):
            for name in sorted(os.listdir(self.root)):
                model_dir = os.path.join(self.root, name)
                if not os.path.isdir(model_dir):
                    continue
                for entry in sorted(os.listdir(model_dir)):
                    match = _VERSION_RE.match(entry)
                    if match:
                        version = int(match.group(1))
                        found.setdefault(name, {})[version] = ModelRecord(
                            name=name, version=version, path=os.path.join(model_dir, entry)
                        )
        with self._lock:
            # Explicitly registered records (outside the root layout) survive a scan.
            for name, versions in self._explicit.items():
                for version, record in versions.items():
                    found.setdefault(name, {}).setdefault(version, record)
            self._records = found

    def publish(
        self,
        name: str,
        version: int,
        model: UNet,
        optimizer: Optimizer | None = None,
        inference: InferenceConfig | None = None,
        extra_metadata: dict | None = None,
    ) -> ModelRecord:
        """Save ``model`` into the registry layout and register it.

        With ``optimizer`` the archive is a full training checkpoint (exact
        resume *and* serving from one file); without it, weights only.  The
        archive embeds the model's ``UNetConfig`` plus optional inference
        settings, so :meth:`classifier` can rebuild everything from the file.
        """
        if self.root is None:
            raise ValueError("publish requires a directory-backed registry (root=...)")
        version = int(version)
        if version < 1:
            raise ValueError("model version must be >= 1")
        metadata = dict(extra_metadata or {})
        metadata["unet_config"] = asdict(model.config)
        if inference is not None:
            metadata["inference"] = inference.to_dict()
        path = os.path.join(self.root, name, f"{version}.npz")
        if optimizer is not None:
            save_checkpoint(model, optimizer, path, metadata=metadata)
        else:
            save_weights(model, path, metadata=metadata)
        return self.register(name, version, path)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def models(self) -> dict[str, list[int]]:
        """``{name: sorted versions}`` of everything currently registered."""
        self.scan()
        with self._lock:
            return {name: sorted(versions) for name, versions in sorted(self._records.items())}

    def latest_version(self, name: str) -> int:
        return max(self._versions_of(name))

    def record(self, name: str, version: int | None = None) -> ModelRecord:
        """The :class:`ModelRecord` for ``name`` (latest version when omitted).

        Unversioned lookups re-scan the registry directory so version bumps
        are noticed (the hot-swap contract); pinned lookups answer from the
        known records and only fall back to a scan on a miss.
        """
        if version is None:
            return self._records_snapshot(name, rescan=True).popitem()[1]
        version = int(version)
        with self._lock:
            record = self._records.get(name, {}).get(version)
        if record is not None:
            return record
        versions = self._records_snapshot(name, rescan=True)
        if version not in versions:
            raise KeyError(
                f"model {name!r} has no version {version}; available: {sorted(versions)}"
            )
        return versions[version]

    def _versions_of(self, name: str) -> list[int]:
        return sorted(self._records_snapshot(name, rescan=True))

    def _records_snapshot(self, name: str, rescan: bool) -> dict[int, ModelRecord]:
        """``{version: record}`` for ``name``, sorted ascending by version."""
        if rescan:
            self.scan()
        with self._lock:
            versions = self._records.get(name)
            if not versions:
                raise KeyError(
                    f"unknown model {name!r}; registered models: {sorted(self._records)}"
                )
            return dict(sorted(versions.items()))

    # ------------------------------------------------------------------ #
    # Warm classifiers
    # ------------------------------------------------------------------ #
    def add_evict_listener(self, listener) -> None:
        """Register ``listener((name, version))`` called after a warm entry retires."""
        with self._lock:
            self._evict_listeners.append(listener)

    def remove_evict_listener(self, listener) -> None:
        """Forget a listener added with :meth:`add_evict_listener` (no-op if absent)."""
        with self._lock:
            if listener in self._evict_listeners:
                self._evict_listeners.remove(listener)

    def classifier(self, name: str, version: int | None = None) -> SceneClassifier:
        """A warm :class:`SceneClassifier` for ``name``/``version``.

        The first call for a version loads the archive (model weights +
        embedded configs) and pre-compiles the inference plan for the
        configured serving tile shape; later calls return the same warm
        instance.  An unversioned lookup tracks the latest registered
        version, so bumping the version in the registry directory hot-swaps
        what gets served.  Serving a version retires warm instances of older
        versions of the same model (a pinned older version is reloaded on
        demand), and ``max_warm`` retires the least recently served entries
        beyond the cap.

        An unversioned lookup *degrades gracefully*: when the newest archive
        is corrupt or half-written (a bad publish mid-rescan), it is
        quarantined with a warning and the next-newest serviceable version
        keeps serving — a broken rollout must not take down a model that was
        healthy a moment ago.  The quarantine is keyed on the file's mtime,
        so re-publishing the archive gets it retried.  Pinned-version lookups
        still raise :class:`CheckpointError`, since the caller asked for that
        exact file.
        """
        if version is not None:
            return self._classifier_for(self.record(name, version))
        candidates = self._records_snapshot(name, rescan=True)
        last_error: Exception | None = None
        for _version, record in sorted(candidates.items(), reverse=True):
            if self._is_quarantined(record):
                continue
            try:
                return self._classifier_for(record)
            except CheckpointError as exc:
                last_error = exc
                self._quarantine(record, exc)
        if last_error is not None:
            raise last_error
        raise CheckpointError(
            f"every registered version of model {name!r} is quarantined as corrupt: "
            f"{sorted(candidates)}"
        )

    def _classifier_for(self, record: ModelRecord) -> SceneClassifier:
        """Warm (or return the warm) classifier for one resolved record."""
        key = (record.name, record.version)
        with self._lock:
            entry = self._warm.get(key)
        if entry is None:
            # Load outside the lock: a slow archive read must not stall
            # lookups of models that are already warm.
            loaded = self._load(record)
            with self._lock:
                entry = self._warm.setdefault(key, _WarmEntry(record=record, classifier=loaded))
        evicted: list[tuple[tuple[str, int], _WarmEntry]] = []
        with self._lock:
            # LRU bookkeeping: re-insert the served key at the back.
            if key in self._warm:
                self._warm[key] = self._warm.pop(key)
            for other in [k for k in self._warm if k[0] == record.name and k[1] < record.version]:
                self._claim_retirement(other, evicted)
            if self.max_warm is not None:
                while len(self._warm) > self.max_warm:
                    old_key = next(iter(self._warm))
                    if old_key == key:  # never evict the entry being served
                        self._warm[key] = self._warm.pop(key)
                        continue
                    self._claim_retirement(old_key, evicted)
            listeners = list(self._evict_listeners)
        for evicted_key, evicted_entry in evicted:
            self._finish_retirement(evicted_key, evicted_entry, listeners)
        return entry.classifier

    # ------------------------------------------------------------------ #
    # Corrupt-archive quarantine
    # ------------------------------------------------------------------ #
    def _quarantine(self, record: ModelRecord, error: Exception) -> None:
        try:
            mtime = os.stat(record.path).st_mtime_ns
        except OSError:
            mtime = -1
        with self._lock:
            self._quarantined[record.path] = mtime
        get_registry().counter(
            "repro_model_quarantined_total",
            "Corrupt model archives quarantined by the registry",
        ).inc()
        logger.warning(
            "quarantining corrupt archive %r (model %r version %s): %s; "
            "falling back to an earlier serviceable version",
            record.path, record.name, record.version, error,
        )

    def _is_quarantined(self, record: ModelRecord) -> bool:
        with self._lock:
            marked = self._quarantined.get(record.path)
        if marked is None:
            return False
        try:
            mtime = os.stat(record.path).st_mtime_ns
        except OSError:
            return True  # vanished: nothing to retry yet
        if mtime != marked:
            # Rewritten since it was quarantined — give it another chance.
            with self._lock:
                self._quarantined.pop(record.path, None)
            return False
        return True

    def quarantined_paths(self) -> list[str]:
        """Archive paths currently quarantined as corrupt (observability)."""
        with self._lock:
            return sorted(self._quarantined)

    # ------------------------------------------------------------------ #
    # Circuit breakers
    # ------------------------------------------------------------------ #
    def breaker(self, name: str, version: int) -> CircuitBreaker:
        """The per-``(name, version)`` circuit breaker (created on first use)."""
        key = (name, int(version))
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_failure_threshold,
                    reset_timeout_s=self.breaker_reset_s,
                )
                self._breakers[key] = breaker
            return breaker

    def breakers(self) -> dict[tuple[str, int], CircuitBreaker]:
        """Snapshot of every breaker created so far (``/stats``)."""
        with self._lock:
            return dict(self._breakers)

    def close(self) -> None:
        """Retire every warm classifier (backends shut down, shm released)."""
        with self._lock:
            entries = list(self._warm.items())
            self._warm.clear()
            for _key, entry in entries:
                entry.retired = True
            listeners = list(self._evict_listeners)
        for key, entry in entries:
            self._finish_retirement(key, entry, listeners)

    def _claim_retirement(
        self, key: tuple[str, int], claimed: list[tuple[tuple[str, int], _WarmEntry]]
    ) -> None:
        """Claim ``key``'s warm entry for retirement.  Must hold ``_lock``.

        Exactly one caller wins the claim: the entry is removed from the warm
        map and its ``retired`` flag flipped atomically under the lock, so a
        hot-swap and an LRU eviction racing over the same key cannot both
        notify listeners (which used to double-close the retired batcher).
        """
        entry = self._warm.pop(key, None)
        if entry is not None and not entry.retired:
            entry.retired = True
            claimed.append((key, entry))

    def _finish_retirement(self, key: tuple[str, int], entry: _WarmEntry, listeners: list) -> None:
        """Release a claimed entry's resources and notify listeners (outside the lock)."""
        entry.classifier.close()  # shut the backend down, release shared weights
        for listener in listeners:
            listener(key)

    def warm_classifier(self, name: str, version: int) -> SceneClassifier | None:
        """The warm classifier for ``(name, version)`` — or ``None`` — without
        loading, LRU re-ordering, or any other side effect (observability peek)."""
        with self._lock:
            entry = self._warm.get((name, int(version)))
        return None if entry is None else entry.classifier

    def loaded_versions(self, name: str | None = None) -> list[tuple[str, int]]:
        """The (name, version) pairs currently held warm."""
        with self._lock:
            keys = sorted(self._warm)
        return [k for k in keys if name is None or k[0] == name]

    def warm_count(self) -> int:
        """Number of classifiers currently held warm."""
        with self._lock:
            return len(self._warm)

    def _load(self, record: ModelRecord) -> SceneClassifier:
        get_registry().counter(
            "repro_model_loads_total",
            "Model archives loaded into warm classifiers",
            ("model",),
        ).inc(model=record.name)
        metadata = record.metadata()
        model = _unet_from_metadata(record, metadata)
        try:
            model.load_state_dict(load_model_state(record.path))
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"archive {record.path!r} does not match its declared unet_config: {exc}"
            ) from exc
        model.eval()
        if self.inference is not None:
            inference = self.inference
        elif "inference" in metadata:
            inference = InferenceConfig.from_dict(metadata["inference"])
        else:
            inference = InferenceConfig()
        classifier = SceneClassifier(model=model, config=inference)
        # Warm-up: compile the single-tile serving plan now so the first
        # request does not pay plan compilation.  Serving traffic at other
        # batch shapes compiles lazily.
        classifier.warm_plans(batch_sizes=(1,))
        # Bring the execution backend up too: a non-serial config publishes
        # the packed weights into the backend's (shared-memory) model store
        # here, at warm-up — retirement releases them again.
        _ = classifier.backend
        return classifier
