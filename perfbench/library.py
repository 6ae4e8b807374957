"""In-process drivers: ``library_ingest`` and ``drift_update``.

Segment ``n`` of the run goes to stream ``n % streams`` as that stream's
segment ``n // streams``, so every stream advances one segment per round and
the runtime's per-stream ``segment_index`` equals ``n // streams``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

from repro.server.wire import detection_to_json

import common
from system import System

_perf = time.perf_counter

POLL_SECONDS = 0.001
"""Between sends, the open loop polls the runtime at least this often, so a
partial batch flushes within a millisecond of its deadline, as the server's
batcher thread flushes within its poll interval.  Polling only at send times
would add up to a whole send gap to drift_update's latencies."""


class LibraryDriver:
    def __init__(self, workload: common.Workload, inputs: common.Inputs, system: System, seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        self.runtime = system.runtime
        self.arrivals = common.Arrivals(workload.offered_rate, seed)
        self.streams = workload.streams
        self.next = 0
        self.received: Dict[Tuple[int, int], dict] = {}
        self.arrived: Dict[Tuple[int, int], float] = {}
        self.batch_levels: List[List[float]] = []
        self.stalls: List[float] = []
        self.lags: List[float] = []
        self.due: Dict[Tuple[int, int], float] = {}
        self.measured_from = 0
        self.publishes_at_eval = None
        self.eval_batches = 0

    def key(self, n: int) -> Tuple[int, int]:
        return n % self.streams, n // self.streams

    def _take(self, detections, stamp: float) -> None:
        for detection in detections:
            key = (int(detection.stream_id[1:]), detection.segment_index)
            if key in self.received:
                raise common.CheckFailed(f"segment {key} detected twice")
            self.received[key] = detection_to_json(detection)
            self.arrived[key] = stamp

    def _call(self, method, *args) -> int:
        version = self.runtime.model_version
        started = _perf()
        detections = method(*args)
        stamp = _perf()
        if self.runtime.model_version != version:
            self.stalls.append(stamp - started)
        self._take(detections, stamp)
        return len(detections)

    def ingest(self, count: int) -> int:
        first = self.next
        self.next += count
        submissions = [self.inputs.submission(*self.key(n)) for n in range(first, self.next)]
        if self.workload.updates and first >= self.streams * common.SEQUENCE_LENGTH:
            # The expected-publish check replays the leading calls (warm-up
            # and the first closed loop, all whole batches) from these levels.
            self.batch_levels.append([submission[3] for submission in submissions])
        return self._call(self.runtime.ingest_many, submissions)

    # ------------------------------------------------------------------ #
    def warm_up(self) -> int:
        """Fill every q-window, then score whole rounds until caches are warm."""
        batch, streams = self.workload.batch_size, self.streams
        for _ in range(common.SEQUENCE_LENGTH * streams // batch):
            self.ingest(batch)
        rounds = max(1, math.ceil(4 * batch / streams))
        for _ in range(rounds * streams // batch):
            self.ingest(batch)
        if self.workload.updates:
            # The first publish also writes the store's first (full)
            # checkpoint: one-off set-up work, like cold caches.
            while self.runtime.model_version < 2:
                self.ingest(batch)
        scored = self.runtime.stats.segments_scored
        expected = self.next - streams * common.SEQUENCE_LENGTH
        if scored != expected:
            raise common.CheckFailed(
                f"warm-up scored {scored} segments, expected submitted - streams*q = {expected}"
            )
        self.measured_from = self.next
        return scored

    def closed_loop(self, seconds: float, first: bool) -> List[float]:
        """Whole batches back to back; returns the phase's window rates.

        Windows are ``WINDOW_SECONDS`` long, except on drift_update: there a
        window is one compaction cycle (the publishes from one full
        checkpoint to the next).  The first phase starts on a cycle boundary
        (warm-up ends on one); a later phase's windows start at its first
        boundary, and every phase stops on one.  The first phase also runs
        until the quality-check prefix is scored.
        """
        batch = self.workload.batch_size
        eval_end = self.measured_from + self.workload.eval_segments
        started = _perf()
        bounds = [started] if first or not self.workload.updates else []
        stamps: List[Tuple[float, int]] = []
        while True:
            version = self.runtime.model_version
            scored = self.ingest(batch)
            stamp = _perf()
            stamps.append((stamp, scored))
            if self.publishes_at_eval is None and self.next >= eval_end:
                self.publishes_at_eval = self.runtime.model_version - 1
                self.eval_batches = (eval_end - self.streams * common.SEQUENCE_LENGTH) // batch
            boundary = not self.workload.updates
            if self.workload.updates and self.runtime.model_version != version:
                # The first checkpoint (version 2) is full, so full ones land
                # on every FULL_EVERY-th version after it.
                boundary = (self.runtime.model_version - 2) % common.FULL_EVERY == 0
                if boundary:
                    bounds.append(stamp)
            whole = not self.workload.updates or len(bounds) >= 2
            if boundary and whole and self.publishes_at_eval is not None and stamp - started >= seconds:
                break
        if not self.workload.updates:
            bounds = common.time_windows(started, stamp)
        return common.window_rates(stamps, bounds)

    def open_loop(self, seconds: float) -> None:
        """Offer segments at the arrivals' send times, recording each one's due time."""
        first = self.next
        started = _perf()
        deadline = started + seconds
        scheduled = started + self.arrivals.gap()
        sent = 0
        while scheduled < deadline:
            now = _perf()
            ready = 0
            while scheduled <= now and scheduled < deadline:
                self.due[self.key(first + sent + ready)] = scheduled
                self.lags.append(now - scheduled)
                ready += 1
                scheduled += self.arrivals.gap()
            if ready:
                self.ingest(ready)
                sent += ready
                continue
            self._call(self.runtime.poll)
            wait = min(scheduled - _perf(), POLL_SECONDS)
            if wait > 0:
                time.sleep(wait)
        # Let the last partial batch reach its flush deadline.
        pending = [self.key(first + j) for j in range(sent)]
        limit = _perf() + 1.0
        while any(key not in self.received for key in reversed(pending)) and _perf() < limit:
            self._call(self.runtime.poll)
            time.sleep(POLL_SECONDS)

    def finish(self) -> None:
        self._call(self.runtime.drain)


def run(workload: common.Workload, inputs: common.Inputs, seed: int, seconds: float, trace: bool, work_dir) -> dict:
    system = System(workload, inputs.train, work_dir, trace)
    setup = system.setup()
    driver = LibraryDriver(workload, inputs, system, seed)
    try:
        driver.warm_up()
        system.begin()
        rates = common.run_phases(seconds, driver.closed_loop, driver.open_loop)
        window = system.end()
        driver.finish()

        q, streams = common.SEQUENCE_LENGTH, workload.streams
        scored = system.runtime.stats.segments_scored
        if scored != driver.next - streams * q:
            raise common.CheckFailed(
                f"scored {scored} segments, expected submitted - streams*q = "
                f"{driver.next - streams * q}"
            )
        summary = common.summarize(
            workload,
            inputs,
            expected=[driver.key(n) for n in range(streams * q, driver.next)],
            measured=[driver.key(n) for n in range(driver.measured_from, driver.next)],
            received=driver.received,
            arrived=driver.arrived,
            due=driver.due,
        )
        checks = {}
        if workload.updates:
            expected_publishes = common.expected_publishes(
                driver.batch_levels[: driver.eval_batches], common.UPDATE.buffer_size
            )
            if driver.publishes_at_eval != expected_publishes:
                raise common.CheckFailed(
                    f"{driver.publishes_at_eval} versions published over the eval "
                    f"prefix, expected {expected_publishes}"
                )
            checks["publishes"] = expected_publishes
            written = system.runtime.durability_stats()["checkpoints"]
            versions = system.runtime.model_version
            if written["written_full"] != 1 + (versions - 2) // common.FULL_EVERY:
                raise RuntimeError(
                    f"{written['written_full']} full checkpoints for {versions - 1} "
                    "publishes: the compaction cycle is not the one the windows assume"
                )
        sample = common.pick_sample(summary.pop("detections"), system.runtime.registry.versions(), seed)
        checks.update(common.recompute(system.runtime, sample, common.sample_windows(inputs, sample)))
    finally:
        peak_rss = system.close()
    return {
        **summary,
        "setup": setup,
        "rates": rates,
        "peak_rss_mb": peak_rss,
        "checks": checks,
        "window": window,
        "stalls": driver.stalls,
        "lags": driver.lags,
    }
