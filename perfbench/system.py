"""The system under test: set-up, measurement window and per-layer metrics.

One :class:`System` owns the runtime a workload drives (and, for
``wire_ingest``, its HTTP server).  The library workloads use it in the
benchmark's own process; ``wire_ingest`` uses it in a child process (see
``wire_server.py``) so that the load generator's interpreter lock is not the
server's.
"""

from __future__ import annotations

import gc
import resource
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import Runtime
from repro.features.pipeline import StreamFeatures

import common
from spans import Tracer, thread_cpu

ROLES = ("ingest", "http_post", "http_poll")
"""Threads of the system under test: the thread that calls
``Runtime.ingest_many`` (the caller in the library workloads, the batcher in
``wire_ingest``) and the two HTTP handler threads of ``wire_ingest``."""


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _per(amount: float, denominator: float, scale: float = 1.0) -> float:
    return scale * amount / denominator if denominator else 0.0


class System:
    def __init__(
        self,
        workload: common.Workload,
        train: StreamFeatures,
        work_dir: Path,
        trace: bool,
    ) -> None:
        self.workload = workload
        self.train = train
        self.work_dir = work_dir
        self.tracer = Tracer() if trace else None
        self.runtime: Optional[Runtime] = None
        self.server = None
        self.peak_rss_mb = 0.0
        self._window: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    def setup(self) -> List[float]:
        """Stand the system up ``SETUP_REPEATS`` times; keep the last.

        Each repeat times config → fitted runtime (training, calibration, WAL
        open) → bound socket (``wire_ingest``).
        """
        seconds = []
        for repeat in range(common.SETUP_REPEATS):
            if self.runtime is not None:
                self.runtime.close()
                # A closed runtime sits in reference cycles; collect it so
                # that the repeats do not add up in peak_rss_mb.
                self.runtime = self.server = None
                gc.collect()
            directory = self.work_dir / f"store-{repeat}"
            started = time.perf_counter()
            config = common.runtime_config(self.workload, self.train, directory)
            runtime = Runtime.from_config(config).fit(self.train)
            server = runtime.serve() if self.workload.wire else None
            seconds.append(time.perf_counter() - started)
            self.runtime, self.server = runtime, server
        for repeat in range(common.SETUP_REPEATS - 1):
            shutil.rmtree(self.work_dir / f"store-{repeat}", ignore_errors=True)
        if self.tracer is not None:
            self.tracer.install()
        return seconds

    # ------------------------------------------------------------------ #
    def _sample(self) -> Dict[str, object]:
        runtime = self.runtime
        shard = runtime.load_stats()[0]
        durability = runtime.durability_stats()
        wal = (durability.get("wal") or {}) if durability["enabled"] else {}
        checkpoints = (durability.get("checkpoints") or {}) if durability["enabled"] else {}
        admission = self.server.admission.stats() if self.server is not None else {}
        return {
            "wall": time.perf_counter(),
            "cpu": thread_cpu(),
            "scored": shard.segments_scored,
            "batches": shard.batches,
            "wal_records": wal.get("records_appended", 0),
            "wal_bytes": wal.get("bytes_appended", 0),
            "fsyncs": wal.get("fsyncs", 0),
            "full": checkpoints.get("written_full", 0),
            "delta": checkpoints.get("written_delta", 0),
            "rejected": admission.get("rejected", 0),
            "high_watermark": admission.get("high_watermark", 0),
        }

    def begin(self) -> None:
        """Open the measurement window (and start tracing).

        Records ``peak_rss_mb`` here, after set-up and warm-up, which are the
        same work on every run.  The runtime keeps every detection for
        polling, so its resident set keeps growing in the window with the
        number of segments scored; a high-water mark taken later would move
        with throughput rather than with the memory the system needs.
        """
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._window = {"begin": self._sample()}
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.active = True

    def end(self) -> Dict[str, object]:
        """Close the window; returns counters (and layer aggregates if traced)."""
        if self.tracer is not None:
            self.tracer.active = False
        begin, end = self._window["begin"], self._sample()
        shard = self.runtime.load_stats()[0]
        window = {
            "seconds": end["wall"] - begin["wall"],
            "scored": end["scored"] - begin["scored"],
            "batches": end["batches"] - begin["batches"],
            "queue_wait_ms_p50": shard.latency_p50_ms,
            "queue_wait_ms_p99": shard.latency_p99_ms,
        }
        for key in ("wal_records", "wal_bytes", "fsyncs", "full", "delta", "rejected"):
            window[key] = end[key] - begin[key]
        window["high_watermark"] = end["high_watermark"]
        if self.tracer is not None:
            window["layers"] = self._layers(window, begin["cpu"], end["cpu"])
        return window

    # ------------------------------------------------------------------ #
    def _roles(self) -> Dict[str, int]:
        tracer = self.tracer
        if not self.workload.wire:
            return {"ingest": threading.main_thread().ident}
        roles = {}
        for thread in threading.enumerate():
            keys = tracer.keys(thread.ident)
            if thread.name == "repro-ingest-batcher":
                roles["ingest"] = thread.ident
            elif "server.handle_ingest" in keys:
                roles["http_post"] = thread.ident
            elif "server.handle_detections" in keys:
                roles["http_poll"] = thread.ident
        return roles

    def _layers(self, window, cpu_begin, cpu_end) -> Dict[str, float]:
        tracer = self.tracer
        stat = tracer.stat
        submitted = tracer.counters["runtime.ingest_many.segments"]
        scored = window["scored"]
        ingest = stat("runtime.ingest_many")
        forward = stat("core.forward")
        polls = stat("server.handle_detections")
        model = self.runtime.registry.latest().model
        q = common.SEQUENCE_LENGTH
        mean_batch = _per(tracer.counters["core.forward.sequences"], forward.count)
        # Bytes one forward call moves, computed from tensor sizes (float64):
        # every weight once, plus each sequence's q-window in and its
        # reconstructions and hidden states out.
        d1, d2 = model.action_dim, model.interaction_dim
        h1, h2 = model.action_hidden, model.interaction_hidden
        weights = 4 * h1 * (h1 + h2 + d1 + 1) + 4 * h2 * (h1 + h2 + d2 + 1)
        weights += h1 * d1 + d1 + h2 * d2 + d2
        moved = 8 * (weights + mean_batch * (q * (d1 + d2) + d1 + d2 + h1 + h2))
        durations = tracer.durations
        checkpoints = stat("durability.checkpoint")
        layers = {
            "server.parse_ingest.us_per_seg": _per(stat("server.parse_ingest").wall_self, submitted, 1e6),
            "server.handle_ingest.us_per_seg": _per(stat("server.handle_ingest").wall_self, submitted, 1e6),
            "server.admission.wait_ms_p50": 1e3 * common.median(tracer.admission_waits)
            if tracer.admission_waits
            else 0.0,
            "server.admission.rejected": float(window["rejected"]),
            "server.admission.high_watermark": float(window["high_watermark"]),
            "server.detections.ms_per_poll": _per(polls.cpu, polls.count, 1e3),
            "runtime.ingest_many.us_per_seg": _per(ingest.wall_self, submitted, 1e6),
            "runtime.ingest_many.segs_per_call": _per(submitted, ingest.count),
            "durability.wal_append.us_per_seg": _per(stat("durability.wal_append").wall_self, submitted, 1e6),
            "durability.wal.fsyncs": float(window["fsyncs"]),
            "durability.wal.bytes_per_seg": _per(window["wal_bytes"], window["wal_records"]),
            "durability.checkpoint.ms_p50": 1e3 * common.median(durations["durability.checkpoint"])
            if checkpoints.count
            else 0.0,
            "durability.checkpoint.bytes": _per(
                tracer.counters["durability.checkpoint.bytes"], checkpoints.count
            ),
            "durability.checkpoint.full": float(window["full"]),
            "durability.checkpoint.delta": float(window["delta"]),
            "serving.submit_many.us_per_seg": _per(stat("serving.submit_many").wall_self, submitted, 1e6),
            "serving.session_window.us_per_seg": _per(
                stat("serving.session_window").wall_self, submitted, 1e6
            ),
            "serving.assemble.us_per_seg": _per(stat("serving.assemble").wall_self, scored, 1e6),
            "serving.batch_size_mean": _per(scored, window["batches"]),
            "serving.batch_occupancy": _per(scored, window["batches"] * self.workload.batch_size),
            "serving.queue_wait_ms_p50": window["queue_wait_ms_p50"],
            "serving.queue_wait_ms_p99": window["queue_wait_ms_p99"],
            "serving.registry_publish.ms": 1e3 * _mean(durations["update/serving.registry_publish"]),
            "core.forward.us_per_seg": _per(forward.wall_self, scored, 1e6),
            "core.forward.calls": float(forward.count),
            "core.forward.flop_per_seg": float(model.flops_per_sequence(q)),
            "core.forward.bytes_per_call": moved if forward.count else 0.0,
            "core.score.us_per_seg": _per(stat("core.score").wall_self, scored, 1e6),
            "core.drift_similarity.ms": 1e3 * _mean(durations["core.drift_similarity"]),
            "core.train_incremental.ms_per_update": 1e3
            * _mean(durations["update/core.train_incremental"]),
            "core.merge.ms": 1e3 * _mean(durations["update/core.merge"]),
            "core.recalibrate.ms": 1e3 * _mean(durations["update/core.recalibrate"]),
            "core.updates": float(stat("core.update").count),
        }
        roles = self._roles()
        busy_total = 0.0
        for role in ROLES:
            ident = roles.get(role)
            busy = 0.0
            if ident is not None:
                if self.workload.wire:
                    busy = cpu_end.get(ident, 0.0) - cpu_begin.get(ident, 0.0)
                else:
                    busy = tracer.top_cpu.get(ident, 0.0)
            named = tracer.named_cpu(ident) if ident is not None else 0.0
            busy_total += busy
            layers[f"thread.{role}.busy_fraction"] = _per(busy, window["seconds"])
            layers[f"thread.{role}.unattributed_fraction"] = _per(max(0.0, busy - named), busy)
        layers["trace.overhead_fraction"] = _per(tracer.spans * tracer.span_cost, busy_total)
        return layers

    # ------------------------------------------------------------------ #
    def close(self) -> float:
        """Shut down; returns the peak resident set in MB recorded by :meth:`begin`."""
        if self.tracer is not None:
            self.tracer.uninstall()
        if self.runtime is not None:
            self.runtime.close()
        return self.peak_rss_mb
