"""Workload ``serve``: a ``repro-seaice serve`` subprocess driven open-loop over HTTP.

The benchmark publishes a depth-3 / 16-channel U-Net into a registry
directory (archive setting: 32-px tiles; backend and worker count left to
the program's defaults, which predict in the server process) and starts
``python -m repro.cli serve`` on it.  It then
sends single 32-px JSON tiles to ``/predict`` over at most two keep-alive
connections from this one process, as an open loop: first at a reference
rate well below today's knee, then up a ladder of fixed rates until a rung
fails.  The wire, queueing and micro-batching dominate; compute is a small
share of each request.

End-to-end: ``op_ms`` is the interquartile mean latency at the reference
rate and ``mpx_s`` the tile megapixels per second that latency gives one
connection.  The goodput -- the completion rate at the highest rung whose
tail meets ``TAIL_LIMIT_MS`` with no failures and no growing backlog -- is
an ``info`` line: it moves in whole rungs, and the throughput of a
saturated server moves with the host's CPU steal, so neither is steady.
"""

from __future__ import annotations

import http.client
import importlib
import json
import os
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from . import inputs, loadgen
from .core import Outcome, PeakMemory, iqm, log, median

TILE = 32
#: distinct tiles requests cycle through (cut from one 256-px scene)
POOL_SCENE = 256
DEPTH, CHANNELS = 3, 16
CONNECTIONS = 2
#: reference rate (requests/s), well below the knee (26-37 req/s on 2 CPUs), where
#: queueing is light and the latency does not swing with small host slowdowns
REF_RATE = 10.0
#: offered rates tried above the reference rate, lowest first (steps of 1.6x)
LADDER = (16.0, 25.0, 40.0, 64.0, 100.0, 160.0, 256.0)
#: share of --seconds spent at the reference rate; each ladder rung gets RUNG_SHARE
REF_SHARE = 0.5
RUNG_SHARE = 0.08
#: reference rungs tried before a lagging generator makes the run invalid
REF_ATTEMPTS = 2
#: a rung passes only if its tail latency stays within this limit
TAIL_LIMIT_MS = 150.0
#: generator lateness above this (at the tail percentile) invalidates a rung
LAG_LIMIT_MS = 10.0
#: a rung stops sending once a request would go out this late (bounds an overloaded rung's time)
ABANDON_AFTER_S = 1.0
#: responses whose class maps are checked against the in-process reference
CHECK_SAMPLE = 200
SETUP_REPS = 3
READY_TIMEOUT_S = 60.0


class Server:
    """One ``repro.cli serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, registry_dir: str, log_path: str) -> None:
        env = dict(os.environ)
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--registry", registry_dir,
             "--port", "0", "--quiet"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        lines: queue.Queue = queue.Queue()
        threading.Thread(target=lambda: lines.put(self.proc.stdout.readline()), daemon=True).start()
        try:
            line = lines.get(timeout=READY_TIMEOUT_S)
        except queue.Empty:
            self.stop()
            raise RuntimeError("serve did not print its ready line") from None
        if not line:
            self.stop()
            raise RuntimeError(f"serve exited before it was ready (see {log_path})")
        self.port = int(json.loads(line)["port"])

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def get(self, path: str) -> dict:
        conn = self.connection()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """Graceful drain (SIGTERM), escalating to SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, dict | None]:
    try:
        conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
    except (OSError, http.client.HTTPException):
        conn.close()  # reconnects on the next request
        return loadgen.TRANSPORT_ERROR, None
    try:
        return resp.status, json.loads(data)
    except ValueError:
        return resp.status, None


def _rung(server: Server, bodies: list[bytes], rate: float, duration_s: float) -> list:
    def make_sender(_k):
        conn = server.connection()
        return (lambda i: _post(conn, bodies[i % len(bodies)])), conn.close

    return loadgen.run_open_loop(make_sender, loadgen.schedule(rate, duration_s),
                                 connections=CONNECTIONS, abandon_after_s=ABANDON_AFTER_S)


def _post_once(server: Server, body: bytes) -> int:
    conn = server.connection()
    try:
        return _post(conn, body)[0]
    finally:
        conn.close()


def _warm_pair(server: Server, body: bytes, attempts: int = 5) -> None:
    """Send concurrent pairs until the server has run a batch of two.

    Two connections put at most two requests in flight, so batch shapes 1
    and 2 are all the timed phase can use; warming both here keeps a plan
    compile (and its arena) out of the timed phase and makes peak memory
    independent of whether two requests happened to coalesce.
    """
    for _ in range(attempts):
        statuses: list = []
        threads = [threading.Thread(target=lambda: statuses.append(_post_once(server, body))) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if statuses != [200, 200]:
            raise RuntimeError(f"warm-up /predict answered {statuses}")
        if next(iter(server.get("/stats")["batchers"].values()))["max_batch_size"] >= 2:
            return


def _start(root, registry_dir, log_path, body) -> tuple[Server, float]:
    """Start a server, wait for its ready line and first 200, and warm both batch shapes.

    Returns the server and the elapsed time.
    """
    t0 = time.perf_counter()
    server = Server(root, registry_dir, log_path)
    try:
        status = _post_once(server, body)
        if status != 200:
            raise RuntimeError(f"first /predict answered {status}")
        _warm_pair(server, body)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def run(root: str, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    unet = importlib.import_module("repro.unet")
    serving = importlib.import_module("repro.serving")
    nn = importlib.import_module("repro.nn")
    cloudshadow = importlib.import_module("repro.cloudshadow")
    pool = inputs.tiles(seed, 1, POOL_SCENE, TILE)
    bodies = [json.dumps({"tile": t.tolist()}).encode() for t in pool]
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as registry_dir:
        registry = serving.ModelRegistry(registry_dir)
        record = registry.publish(
            "seaice", 1, unet.UNet(unet.UNetConfig(depth=DEPTH, base_channels=CHANNELS, seed=seed)),
            inference=unet.InferenceConfig(tile_size=TILE),
        )
        # Reference: the published archive, loaded back, through the eval forward.
        model = unet.UNet(unet.UNetConfig(depth=DEPTH, base_channels=CHANNELS, seed=seed + 1))
        model.load_state_dict(nn.load_model_state(record.path))
        model.eval()
        filt = cloudshadow.CloudShadowFilter()
        refs = [unet.predict_batch_probabilities(t[None], model=model, cloud_filter=filt)[0].argmax(axis=0)
                for t in pool]
        out.info["input_gen_s"] = time.perf_counter() - t0
        log(f"serve: {len(pool)} distinct {TILE}px tiles, reference rate {REF_RATE:g} req/s")

        log_path = os.path.join(work, f"serve-{seed}.log")
        setups, server = [], None
        for _ in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server, setup_s = _start(root, registry_dir, log_path, bodies[0])
            setups.append(setup_s)
        try:
            with PeakMemory(server.proc.pid) as mem:
                _measure(out, tracer, server, bodies, refs, seconds)
        finally:
            server.stop()
    out.end_to_end["setup_s"] = median(setups)
    out.end_to_end["peak_rss_mb"] = mem.peak_mb
    return out


def _check(out: Outcome, records, refs, checked: list) -> None:
    for r in records:
        if len(checked) >= CHECK_SAMPLE:
            return
        if r.status == 200 and r.body is not None:
            ok = np.array_equal(np.asarray(r.body["class_map"]), refs[r.index % len(refs)])
            checked.append(ok)
            out.check(ok, f"serve request {r.index}: class_map differs from in-process predict_batch_probabilities")


def _count(out: Outcome, stats: loadgen.RungStats) -> None:
    out.attempted += stats.sent
    out.failed += stats.sent - stats.ok


def _measure(out: Outcome, tracer, server: Server, bodies, refs, seconds: float) -> None:
    checked: list = []
    stats_before = server.get("/stats")
    ref_s = seconds / 2 if tracer.enabled else REF_SHARE * seconds
    for attempt in range(1, REF_ATTEMPTS + 1):
        records = _rung(server, bodies, REF_RATE, ref_s)
        ref = loadgen.summarize(records, REF_RATE, TAIL_LIMIT_MS, LAG_LIMIT_MS)
        _count(out, ref)
        _check(out, records, refs, checked)
        if ref.generator_valid:
            break
        # The rung measured the client, not the server: discard it.
        log(f"serve: generator fell behind at the reference rate (lag {ref.lag_ms:.1f} ms), attempt {attempt}")
        if attempt == REF_ATTEMPTS:
            raise RuntimeError(f"load generator fell behind at the reference rate (lag {ref.lag_ms:.1f} ms)")
    out.info["serve_ref_attempts"] = attempt
    rungs = [ref]
    if tracer.enabled:
        traced_records = _rung(server, bodies, REF_RATE, ref_s)
        traced = loadgen.summarize(traced_records, REF_RATE, TAIL_LIMIT_MS, LAG_LIMIT_MS)
        _count(out, traced)
        _check(out, traced_records, refs, checked)
        _per_layer(out, tracer, server, stats_before, traced_records, traced, ref)
    else:
        # The ladder runs even when a hiccup failed the reference rung; it
        # stops at its own first failing rung.
        while len(rungs) <= len(LADDER) and (len(rungs) == 1 or rungs[-1].passed):
            rate = LADDER[len(rungs) - 1]
            records = _rung(server, bodies, rate, RUNG_SHARE * seconds)
            rung = loadgen.summarize(records, rate, TAIL_LIMIT_MS, LAG_LIMIT_MS)
            _count(out, rung)
            _check(out, records, refs, checked)
            rungs.append(rung)
            if not rung.generator_valid:
                log(f"serve: generator fell behind at {rate:g} req/s; the ladder stops there")
                break
    out.check(len(checked) >= min(CHECK_SAMPLE, ref.ok), "serve: too few responses checked")
    out.info.update({
        "serve_p50_ms": ref.p50_ms,
        "serve_tail_ms": ref.tail_ms,
        "serve_tail_pct": ref.tail_pct,
        "serve_tail_limit_ms": TAIL_LIMIT_MS,
        "serve_gen_lag_ms": ref.lag_ms,
        "responses_checked": len(checked),
    })
    for rung in rungs:
        out.info[f"rung {rung.rate:g} req/s"] = json.dumps(rung.to_dict(), sort_keys=True)
    if tracer.enabled:
        out.per_layer["serve.tail_ms"] = ref.tail_ms
        return
    passing = [r for r in rungs if r.passed]
    out.info["serve_goodput_rps"] = passing[-1].achieved_rps if passing else 0.0
    op_s = iqm(ref.latencies_ms) / 1e3
    out.end_to_end.update({
        "mpx_s": TILE * TILE / 1e6 / op_s,
        "op_ms": op_s * 1e3,
    })


def _per_layer(out, tracer, server, stats_before, records, traced, untraced) -> None:
    """Per-request spans and the server's own stage breakdown at the reference rate."""
    stages = {k: [] for k in ("resolve_ms", "queue_wait_ms", "batch_assembly_ms",
                              "dispatch_ms", "compute_ms", "stitch_ms")}
    wire = []
    for r in records:
        if r.status != 200 or r.body is None:
            continue
        op = f"req-{r.index}"
        top = tracer.add("serve.request", r.due, r.done, op=op)
        tracer.add("serve.client_wait", r.due, r.sent, parent=top)
        http_span = tracer.add("serve.http", r.sent, r.done, parent=top)
        timings = r.body.get("stage_timings", {})
        elapsed_ms = float(r.body.get("elapsed_ms", 0.0))
        server_start = r.sent + ((r.done - r.sent) - elapsed_ms / 1e3) / 2
        tracer.add("serve.server", server_start, server_start + elapsed_ms / 1e3, parent=http_span)
        wire.append((r.done - r.sent) * 1e3 - elapsed_ms)
        for key in stages:
            stages[key].append(float(timings.get(key) or 0.0))
    stats = server.get("/stats")

    def delta(key: str) -> float:
        def pick(payload: dict) -> float:
            return next(iter(payload["batchers"].values()), {}).get(key, 0)
        return pick(stats) - pick(stats_before)

    batches = max(1, delta("batches"))
    out.info["caveat serve.dispatch_compute_ms"] = (
        "on the serial backend stage_timings.compute_ms is 0 and the compute time sits in dispatch_ms, "
        "so the metric is their sum")
    out.per_layer.update({
        "serve.wire_ms": median(wire),
        "serve.queue_wait_ms": median(stages["queue_wait_ms"]),
        "serve.batch_assembly_ms": median(stages["batch_assembly_ms"]),
        # On the serial backend compute_ms is 0 and the compute sits in
        # dispatch_ms; the sum is comparable across backends.
        "serve.dispatch_compute_ms": median([a + b for a, b in zip(stages["dispatch_ms"], stages["compute_ms"])]),
        "serve.stitch_ms": median(stages["stitch_ms"]),
        "serve.resolve_ms": median(stages["resolve_ms"]),
        "serve.batch_size_mean": delta("requests") / batches,
        "serve.shed": float(delta("shed")),
        "serve.expired": float(stats["reliability"]["expired_requests"] - stats_before["reliability"]["expired_requests"]),
        "serve.gen_lag_ms": traced.lag_ms,
        "trace.overhead_frac": iqm(traced.latencies_ms) / iqm(untraced.latencies_ms) - 1.0,
    })
