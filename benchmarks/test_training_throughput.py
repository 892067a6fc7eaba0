"""Training-step throughput — cache-lean offset-GEMM engine vs the seed path.

The seed repo trained through an im2col convolution that pinned the full
``(N*out_h*out_w, C*k*k)`` unrolled matrix per layer, a max-pool that cached
a full-resolution boolean mask plus a tie-count tensor, a loss that upcast
every logit batch to float64, float64 dropout draws, and an Adam step that
allocated fresh temporaries per parameter.  This benchmark reconstructs that
exact path (im2col/mask engines plus faithful replicas of the seed loss,
dropout, ReLU and Adam below) and races it against the current engine on a
depth-3 U-Net train step, reporting img/s and the bytes each layer type pins
between forward and backward.  Results land in
``BENCH_training_throughput.json``.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.data import BatchLoader
from repro.distributed import DGXTrainingModel, ElasticTrainer
from repro.nn import Adam, CategoricalCrossEntropy, Conv2D, MaxPool2D, workspace_nbytes
from repro.nn.layers import Dropout, ReLU, UpSample2D
from repro.obs import get_registry
from repro.unet import UNet, UNetConfig
from repro.unet.trainer import UNetTrainer

from conftest import BENCH_SMOKE, print_rows, update_bench_json, write_bench_json

DEPTH = 3
BASE_CHANNELS = 16
TILE = 32 if BENCH_SMOKE else 64
BATCH = 4 if BENCH_SMOKE else 8
ROUNDS = 2 if BENCH_SMOKE else 8
MIN_CACHE_RATIO = 4.0


# --------------------------------------------------------------------------- #
# Faithful replicas of the seed training path (v0 git tree), swapped into the
# reference model so the race measures the seed step, not a hybrid.
# --------------------------------------------------------------------------- #
def seed_softmax(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    exp = np.exp(z)
    return (exp / exp.sum(axis=axis, keepdims=True)).astype(np.float32)


class SeedCategoricalCrossEntropy(CategoricalCrossEntropy):
    """Seed loss: float64 softmax, open-mesh fancy indexing, dense onehot."""

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float32)
        n, _, h, w = logits.shape
        target_idx = np.asarray(targets).astype(np.intp)
        probs = seed_softmax(logits, axis=1)
        n_idx = np.arange(n)[:, None, None]
        h_idx = np.arange(h)[None, :, None]
        w_idx = np.arange(w)[None, None, :]
        picked = np.clip(probs[n_idx, target_idx, h_idx, w_idx], 1e-12, 1.0)
        weights = np.ones_like(picked, dtype=np.float32)
        self._cache = (probs, target_idx, weights)
        return float(-(weights * np.log(picked)).sum() / weights.sum())

    def backward(self) -> np.ndarray:
        probs, target_idx, weights = self._cache
        n, _, h, w = probs.shape
        onehot = np.zeros_like(probs)
        n_idx = np.arange(n)[:, None, None]
        h_idx = np.arange(h)[None, :, None]
        w_idx = np.arange(w)[None, None, :]
        onehot[n_idx, target_idx, h_idx, w_idx] = 1.0
        grad = (probs - onehot) * weights[:, None, :, :]
        return (grad / weights.sum()).astype(np.float32)


class SeedReLU(ReLU):
    """Seed ReLU: extra float32 cast copy on the backward pass."""

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, 0.0).astype(np.float32)


class SeedDropout(Dropout):
    """Seed dropout: float64 uniforms, bool compare, cast, divide."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.uniform(size=x.shape) < keep).astype(np.float32) / keep
        return x * self._mask


class SeedUpSample2D(UpSample2D):
    """Seed up-sampling: two chained ``repeat`` materialisations."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._input_shape = x.shape
        return x.repeat(self.factor, axis=2).repeat(self.factor, axis=3)


class SeedAdam(Adam):
    """Seed Adam: fresh temporaries for every moment update and step."""

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SeedTrainer(UNetTrainer):
    """Seed train step: always back-propagates all the way to the input tensor
    (the seed had no way to skip the unused first-layer input gradient)."""

    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        self.model.train()
        logits = self.model.forward(x)
        loss = self.loss_fn.forward(logits, y)
        self.optimizer.zero_grad()
        self.model.backward(self.loss_fn.backward(), need_input_grad=True)
        self.optimizer.step()
        return loss


def build_trainer(seed_path: bool, dropout: float = 0.1) -> UNetTrainer:
    model = UNet(UNetConfig(depth=DEPTH, base_channels=BASE_CHANNELS, dropout=dropout, seed=3))
    if seed_path:
        for module in model.modules():
            if isinstance(module, Conv2D):
                module.engine = "im2col"
            elif isinstance(module, MaxPool2D):
                module.engine = "mask"
            elif isinstance(module, ReLU):
                module.__class__ = SeedReLU
            elif isinstance(module, Dropout):
                module.__class__ = SeedDropout
            elif isinstance(module, UpSample2D):
                module.__class__ = SeedUpSample2D
    optimizer_cls = SeedAdam if seed_path else Adam
    trainer_cls = SeedTrainer if seed_path else UNetTrainer
    trainer = trainer_cls(model=model, optimizer=optimizer_cls(model.parameters(), lr=1e-3))
    if seed_path:
        trainer.loss_fn = SeedCategoricalCrossEntropy()
    return trainer


def layer_cache_bytes(model: UNet) -> dict[str, int]:
    """Bytes pinned per layer type after a forward/backward pair."""
    totals: dict[str, int] = {}
    for module in model.modules():
        name = type(module).__name__.replace("Seed", "")
        totals[name] = totals.get(name, 0) + module.cache_nbytes(recurse=False)
    return {name: size for name, size in totals.items() if size}


@pytest.mark.benchmark(group="training")
def test_training_throughput_fast_vs_seed_path():
    """The offset-GEMM training step must beat the seed im2col step >= 2x in
    img/s while pinning >= 4x fewer bytes in Conv2D and MaxPool2D caches."""
    rng = np.random.default_rng(42)
    x = rng.random((BATCH, 3, TILE, TILE), dtype=np.float32)
    y = rng.integers(0, 3, size=(BATCH, TILE, TILE))

    trainers = {"seed": build_trainer(seed_path=True), "fast": build_trainer(seed_path=False)}
    losses = {name: trainer.train_step(x, y) for name, trainer in trainers.items()}  # warmup
    caches = {name: layer_cache_bytes(trainer.model) for name, trainer in trainers.items()}

    # Interleave the timed rounds so machine noise hits both paths equally,
    # and score each path by its best round.
    best = {name: float("inf") for name in trainers}
    for _ in range(ROUNDS):
        for name, trainer in trainers.items():
            start = time.perf_counter()
            losses[name] = trainer.train_step(x, y)
            best[name] = min(best[name], time.perf_counter() - start)

    img_s = {name: BATCH / elapsed for name, elapsed in best.items()}
    speedup = img_s["fast"] / img_s["seed"]
    conv_ratio = caches["seed"]["Conv2D"] / caches["fast"]["Conv2D"]
    pool_ratio = caches["seed"]["MaxPool2D"] / caches["fast"]["MaxPool2D"]

    rows = [
        {"path": name, "step_ms": round(best[name] * 1000, 1), "img_per_s": round(img_s[name], 2),
         "conv_cache_mb": round(caches[name]["Conv2D"] / 1e6, 2),
         "pool_cache_mb": round(caches[name]["MaxPool2D"] / 1e6, 3),
         "total_cache_mb": round(sum(caches[name].values()) / 1e6, 2)}
        for name in ("seed", "fast")
    ]
    print_rows(
        f"U-Net train step (depth {DEPTH}, {BASE_CHANNELS} base ch, batch {BATCH} of {TILE}x{TILE}): "
        f"speedup {speedup:.2f}x, conv cache /{conv_ratio:.1f}, pool cache /{pool_ratio:.1f}",
        rows,
    )
    write_bench_json("training_throughput", {
        "config": {"depth": DEPTH, "base_channels": BASE_CHANNELS, "tile": TILE,
                   "batch": BATCH, "rounds": ROUNDS, "smoke": BENCH_SMOKE},
        "img_per_s": {name: round(value, 3) for name, value in img_s.items()},
        "step_seconds": {name: round(value, 5) for name, value in best.items()},
        "speedup": round(speedup, 3),
        "cached_bytes_per_layer": caches,
        "cache_reduction": {"Conv2D": round(conv_ratio, 2), "MaxPool2D": round(pool_ratio, 2)},
        "shared_workspace_bytes": workspace_nbytes(),
        "loss": {name: round(value, 5) for name, value in losses.items()},
    })

    assert conv_ratio >= MIN_CACHE_RATIO, f"Conv2D cache only dropped {conv_ratio:.2f}x"
    assert pool_ratio >= MIN_CACHE_RATIO, f"MaxPool2D cache only dropped {pool_ratio:.2f}x"
    # Shared CI runners are too noisy to gate on a timing ratio — the smoke
    # run only records the numbers; the full-scale run enforces the 2x gate.
    if not BENCH_SMOKE:
        assert speedup >= 2.0, (
            f"fast path reached {img_s['fast']:.2f} img/s vs seed {img_s['seed']:.2f} img/s "
            f"({speedup:.2f}x < 2.0x)"
        )


@pytest.mark.benchmark(group="training")
def test_training_step_equivalence_fast_vs_seed_path():
    """With dropout disabled both paths are the same function: per-step losses
    must track to float32 GEMM-order noise across several optimisation steps."""
    rng = np.random.default_rng(7)
    x = rng.random((2, 3, TILE, TILE), dtype=np.float32)
    y = rng.integers(0, 3, size=(2, TILE, TILE))
    seed_tr = build_trainer(seed_path=True, dropout=0.0)
    fast_tr = build_trainer(seed_path=False, dropout=0.0)
    for step in range(3):
        loss_seed = seed_tr.train_step(x, y)
        loss_fast = fast_tr.train_step(x, y)
        assert loss_fast == pytest.approx(loss_seed, abs=1e-4), f"diverged at step {step}"


# --------------------------------------------------------------------------- #
# Elastic-trainer epochs vs the DGX performance model
# --------------------------------------------------------------------------- #
PERFMODEL_ROUNDS = 2 if BENCH_SMOKE else 4
PERFMODEL_IMAGES = 16
PERFMODEL_TILE = 32
PERFMODEL_BATCH_PER_WORKER = 4


def _fold_totals() -> tuple[float, float]:
    """Cumulative (fold ms, folded bytes) from the trainer's telemetry."""
    registry = get_registry()
    return (registry.get("repro_train_allreduce_ms").snapshot()["sum"],
            registry.get("repro_train_allreduce_bytes_total").value())


@pytest.mark.benchmark(group="training")
@pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="fork start method unavailable")
def test_allreduce_cost_matches_perfmodel():
    """Calibrate the DGX model from a measured 1-worker ElasticTrainer epoch
    (its communication term from the fold's measured bytes/s), predict the
    2-worker epoch at the same per-worker batch (the paper's sweep), and
    validate against a measured 2-worker epoch.  The measured/predicted
    ratio lands in BENCH_training_throughput.json."""
    rng = np.random.default_rng(11)
    tiles = rng.integers(0, 256, size=(PERFMODEL_IMAGES, PERFMODEL_TILE, PERFMODEL_TILE, 3), dtype=np.uint8)
    labels = rng.integers(0, 3, size=(PERFMODEL_IMAGES, PERFMODEL_TILE, PERFMODEL_TILE))
    config = UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=3)
    fleets = (1, 2)
    trainers = {p: ElasticTrainer(num_workers=p, config=config, seed=0) for p in fleets}
    loaders = {p: BatchLoader(tiles, labels, batch_size=PERFMODEL_BATCH_PER_WORKER * p,
                              shuffle=False, drop_last=True) for p in fleets}
    epoch_s: dict[int, list[float]] = {p: [] for p in fleets}
    fold_ms = {p: 0.0 for p in fleets}
    fold_bytes = {p: 0.0 for p in fleets}
    try:
        # Round 0 warms every worker up; the timed rounds interleave fleets.
        for round_idx in range(PERFMODEL_ROUNDS + 1):
            for p, trainer in trainers.items():
                ms0, bytes0 = _fold_totals()
                stats = trainer.fit(loaders[p], epochs=1).epochs[-1]
                ms1, bytes1 = _fold_totals()
                if round_idx:
                    epoch_s[p].append(stats.time_s)
                    fold_ms[p] += ms1 - ms0
                    fold_bytes[p] += bytes1 - bytes0
    finally:
        for trainer in trainers.values():
            trainer.close()

    measured = {p: float(np.median(times)) for p, times in epoch_s.items()}
    overrides = {}
    if fold_ms[1] > 0:  # telemetry can be switched off with REPRO_METRICS=off
        overrides["interconnect_gb_per_s"] = fold_bytes[1] / (fold_ms[1] / 1e3) / 1e9
    model = DGXTrainingModel.calibrated_from_measurement(
        measured_epoch_time=measured[1],
        images_per_epoch=PERFMODEL_IMAGES,
        model_parameters=trainers[1].master.num_parameters(),
        epochs=1,
        per_worker_batch_size=PERFMODEL_BATCH_PER_WORKER,
        **overrides,
    )
    predicted = model.epoch_time(2)
    ratio = measured[2] / predicted
    steps = {p: PERFMODEL_IMAGES // (PERFMODEL_BATCH_PER_WORKER * p) * PERFMODEL_ROUNDS for p in fleets}

    print_rows(
        f"elastic-trainer epoch vs perf model ({PERFMODEL_IMAGES} tiles of {PERFMODEL_TILE}px, "
        f"{PERFMODEL_BATCH_PER_WORKER} per worker, median of {PERFMODEL_ROUNDS} epochs)",
        [{"workers": 1, "measured_s": round(measured[1], 4),
          "fold_ms_per_step": round(fold_ms[1] / steps[1], 3)},
         {"workers": 2, "measured_s": round(measured[2], 4), "predicted_s": round(predicted, 4),
          "fold_ms_per_step": round(fold_ms[2] / steps[2], 3),
          "measured_over_predicted": round(ratio, 3)}],
    )
    update_bench_json("training_throughput", "allreduce_perfmodel", {
        "trainer": "ElasticTrainer",
        "images_per_epoch": PERFMODEL_IMAGES,
        "tile": PERFMODEL_TILE,
        "per_worker_batch": PERFMODEL_BATCH_PER_WORKER,
        "rounds": PERFMODEL_ROUNDS,
        "smoke": BENCH_SMOKE,
        "calibration": {
            "p1_epoch_s": round(measured[1], 5),
            "p1_fold_ms_per_step": round(fold_ms[1] / steps[1], 4),
            "effective_bandwidth_gb_per_s": round(model.interconnect_gb_per_s, 4),
        },
        "p2_fold_ms_per_step": round(fold_ms[2] / steps[2], 4),
        "p2_measured_s": round(measured[2], 5),
        "p2_predicted_s": round(predicted, 5),
        "measured_over_predicted": round(ratio, 3),
    })

    # Process scheduling and BLAS-thread noise dominate at this scale, so the
    # gate is deliberately loose: the model must be right to within an order
    # of magnitude, which still catches a broken cost formula outright.
    assert predicted > 0
    if not BENCH_SMOKE:
        assert 0.05 <= ratio <= 20.0, (
            f"perf model off by more than an order of magnitude: measured "
            f"{measured[2]:.3f} s vs predicted {predicted:.3f} s"
        )
