"""Record the benchmark's baseline into perfbench/baseline.json.

    python3 -m perfbench.record --seeds 1-10 [--seconds 35]

Runs every workload untraced once per seed and traced on the first two
seeds, each in its own process as ``perfbench.run``, then writes:

* the machine: CPU count and the Python, numpy and scipy versions;
* per workload, each end-to-end metric's value per seed, median and
  quartile spread (the distance between the first and third quartile
  as a share of the median);
* each traced run's per-layer metrics, each layer's self time and share
  of the traced test time, the tracing overhead, and whether the layer
  predicted to dominate does;
* the input fingerprint of every seed run, which ``perfbench.run``
  checks before it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np
import scipy

from . import ROOT
from .run import BASELINE
from .workloads import WORKLOADS

# per layer: the metrics whose sum is the layer's self time in a test
LAYERS = {
    "models": ("models.s",),
    "mle": ("mle.fit_s",),
    "enumeration": ("enumeration.s", "enumeration.exact_p_s"),
    "encode": ("encode.s",),
    "moves": ("moves.s",),
    "sampling": ("sampling.self_s",),
    "walk": ("walk.self_s",),
}

# the layer time each workload was chosen to be dominated by, with the
# share of the traced test time predicted for it
PREDICTED = {
    "walk-4x4": (("walk.self_s",), 0.75),
    "exact-n3f": (("enumeration.s", "sampling.first_call_s"), 0.70),
    "sat-external": (("sampling.self_s",), 0.85),
}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def run_output(workload: str, seed: int, trace: int, seconds: float) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return proc.stdout


def parse(stdout: str) -> tuple[str, dict]:
    fingerprint = re.search(r"fingerprint: (\w+)", stdout).group(1)
    result = json.loads([line for line in stdout.splitlines() if line.startswith("{")][-1])
    return fingerprint, result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "iqr_share": (q3 - q1) / med}


def traced_summary(workload: str, metrics: dict) -> dict:
    test_s = metrics["trace.test_s"]
    layers = {name: sum(metrics[m] for m in parts) for name, parts in LAYERS.items()}
    parts, predicted = PREDICTED[workload]
    share = sum(metrics[m] for m in parts) / test_s
    return {
        "per_layer": metrics,
        "self_s": layers,
        "share_of_test_s": {name: s / test_s for name, s in layers.items()},
        "tracing_overhead_s": metrics["trace.overhead_s"],
        "prediction": {
            "metrics": list(parts),
            "predicted_share_at_least": predicted,
            "measured_share": share,
            "met": share >= predicted,
            "shortfall": max(0.0, predicted - share),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.record", description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "run_seconds": args.seconds,
        },
        "workloads": {},
        "fingerprints": {},
    }
    for name in WORKLOADS:
        runs = {}
        for seed in seeds:
            fingerprint, result = parse(run_output(name, seed, 0, args.seconds))
            out["fingerprints"].setdefault(name, {})[str(seed)] = fingerprint
            runs[seed] = result
        metrics = {m: [runs[s]["metrics"][m]["value"] for s in seeds] for m in runs[seeds[0]]["metrics"]}
        traced = {}
        for seed in seeds[:2]:
            _, result = parse(run_output(name, seed, 1, args.seconds))
            layer = {m: v["value"] for m, v in result["metrics"].items()}
            traced[str(seed)] = dict(traced_summary(name, layer), correct=result["correct"],
                                     attempted=result["attempted"], failed=result["failed"])
        out["workloads"][name] = {
            "seeds": seeds,
            "failed": sum(r["failed"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "end_to_end": {m: dict(spread(v), values=v) for m, v in metrics.items()},
            "traced": traced,
        }
    with open(BASELINE, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
