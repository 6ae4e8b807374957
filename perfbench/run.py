"""AOVLIS benchmark: one seeded workload set, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload library_ingest --seed 1 --seconds 30 --trace 0

Workloads (see ``common.WORKLOADS`` for why each exists): ``wire_ingest``,
``library_ingest`` and ``drift_update``.  Each run generates its inputs from
``--seed``, stands the system up (timed as ``setup_s``), warms it up, then
measures for ``--seconds`` in three alternating pairs of phases: a closed
loop (throughput, 40 % of each pair) and an open loop of seeded Poisson
sends at the workload's fixed offered rate (latency, from each segment's
scheduled send time to the moment its detection is returned to the caller or
received by the wire reader).
The outputs are then checked; any violation prints ``"correct": false`` and
exits 1.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` repeats the run with spans recorded around each layer's public functions
and prints the per-layer metrics instead.  The last line of standard output
is the result object, the line before it the sample counts and checks, and
the first line the run's provenance.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import math
import platform
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cpu_jiffies():
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def provenance(args, workload) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "blas_threads": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "offered_rate_seg_per_s": workload.offered_rate,
        "latency": (
            "scheduled send time -> detection returned (library) or received "
            "by the wire reader; failed or missing segments count as infinite"
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no AOVLIS sources under {ROOT / 'src'}; run from a repository checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import common

    workload = common.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; options: {sorted(common.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    print(json.dumps({"provenance": provenance(args, workload)}), flush=True)

    jiffies_before = cpu_jiffies()
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=False)
    try:
        inputs = common.Inputs(args.seed)
        if workload.wire:
            import wire

            outcome = wire.run(workload, inputs, args.seed, args.seconds, bool(args.trace), work_dir)
        else:
            import library

            outcome = library.run(workload, inputs, args.seed, args.seconds, bool(args.trace), work_dir)
    except common.CheckFailed as error:
        print(f"perfbench: correctness violation: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = dict(outcome["window"]["layers"])
        metrics["runtime.publish_stall_ms"] = (
            1e3 * common.median(outcome["stalls"]) if outcome["stalls"] else 0.0
        )
        metrics["generator.lag_ms_p99"] = 1e3 * common.percentile(outcome["lags"], 99)
        metrics["trace.throughput_seg_per_s"] = common.median(outcome["rates"])
        declared = spec["per_layer"]
    else:
        latencies = outcome["latencies"]
        metrics = {
            "setup_s": common.median(outcome["setup"]),
            "throughput_seg_per_s": common.median(outcome["rates"]),
            "latency_p50_ms": 1e3 * common.windowed_percentile(latencies, 50),
            "latency_p99_ms": 1e3 * common.windowed_percentile(latencies, 99),
            "delivered_fraction": 1.0 - outcome["failed"] / outcome["attempted"],
            "peak_rss_mb": outcome["peak_rss_mb"],
            "detection_auroc": outcome["auroc"],
        }
        declared = spec["end_to_end"]
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(
            f"benchmark emits {sorted(metrics)} but BENCHMARK.json declares {sorted(names)}"
        )
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is {value}")
    jiffies_after = cpu_jiffies()
    steal = None
    if jiffies_before and jiffies_after and jiffies_after[1] > jiffies_before[1]:
        # CPU time the hypervisor gave to other guests: a noisy neighbour
        # shows here, not in the program.
        steal = (jiffies_after[0] - jiffies_before[0]) / (jiffies_after[1] - jiffies_before[1])
    print(
        json.dumps({"cpu_steal_fraction": steal, "samples": {
            "throughput_windows": len(outcome["rates"]),
            "latency_segments": len(outcome["latencies"]),
            "latency_windows": max(1, len(outcome["latencies"]) // common.LATENCY_WINDOW),
            "throughput_window_rates": [round(rate, 1) for rate in outcome["rates"]],
            "latency_window_p50_p99_ms": [
                [round(1e3 * common.percentile(window, q), 2) for q in (50, 99)]
                for window in common.latency_windows(outcome["latencies"])
            ],
            "setup_repeats": len(outcome["setup"]),
        }, "checks": outcome["checks"]})
    )
    result = {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
