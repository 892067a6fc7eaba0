"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload autolabel --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around the program's public calls, writes them to
``.perfbench/trace-<workload>-<seed>.jsonl`` and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.  Stdout
carries a provenance line, one line per metric with its unit, and last a
JSON result line.  The exit code is 1 when an output check failed and 2
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("autolabel", "scene", "train", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _metrics(spec: dict, names: list[str], values: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for name in names:
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: program sources not found at {src}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path[:0] = [src, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    from perfbench import core

    core.become_subreaper()
    try:
        return _run(args, spec, core)
    finally:
        leftover = core.stop_children()
        if leftover:
            print(f"perfbench: stopped child processes left running: {leftover}", file=sys.stderr)


def _run(args, spec: dict, core) -> int:
    workload = importlib.import_module(f"perfbench.wl_{args.workload}")
    tracer = core.Tracer(bool(args.trace))
    cpu_before = core.cpu_times()
    outcome = workload.run(ROOT, args.seed, args.seconds, tracer)
    noise = core.host_noise(cpu_before, core.cpu_times())
    attempted = max(1, outcome.attempted)
    outcome.info["failed_frac"] = outcome.failed / attempted

    prov = core.provenance(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    prov["host"] = noise
    print("provenance " + json.dumps(prov, sort_keys=True))
    for key, value in sorted(outcome.info.items()):
        print(f"info {key} = {value:.6g}" if isinstance(value, float) else f"info {key} = {value}")
    for line in outcome.mismatches:
        print(f"MISMATCH {line}")

    if args.trace:
        outcome.per_layer["failed_frac"] = outcome.failed / attempted
        path = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.dump(path)
        print(f"info spans = {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        metrics = _metrics(spec, [m["name"] for m in spec["per_layer"]], outcome.per_layer)
    else:
        metrics = _metrics(spec, [m["name"] for m in spec["end_to_end"]], outcome.end_to_end)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": attempted,
        "failed": int(outcome.failed),
        "metrics": metrics,
    }), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
