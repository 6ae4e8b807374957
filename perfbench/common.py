"""Shared inputs, configuration, statistics and correctness checks.

Every workload draws its inputs from :class:`Inputs` and its runtime from
:func:`runtime_config`, so the three workloads share one model shape (the
paper's: d1 = 400, d2 = 26, h1 = 128, h2 = 32, q = 9) and one input
generator.  The runtime only ever sees the generated feature arrays.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import Runtime, RuntimeConfig
from repro.evaluation.metrics import auroc
from repro.features.pipeline import FeaturePipeline, StreamFeatures
from repro.streams.datasets import dataset_profile
from repro.streams.generator import SocialStreamGenerator
from repro.utils.config import (
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServerConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

SEQUENCE_LENGTH = 9
ACTION_HIDDEN = 128
INTERACTION_HIDDEN = 32
TRAIN_SECONDS = 420.0
POOL_SECONDS = 600.0
TRAIN_EPOCHS = 3
SETUP_REPEATS = 5
BATCH_DELAY_MS = 25.0
"""Flush deadline of partial micro-batches, so open-loop load never strands
a segment in an under-filled batch."""

WINDOW_SECONDS = 1.0
"""Closed-loop throughput is the median over windows of this length, except
on drift_update, whose windows are whole compaction cycles."""

LATENCY_WINDOW = 1000
"""Open-loop segments (in schedule order) per latency window."""

CLOSED_LOOP_SHARE = 0.4
"""Share of each closed/open phase pair spent in the closed loop; the open
loop gets the rest."""

MIN_OPEN_LOOP_SECONDS = 1.0
"""An open-loop phase lasts at least this long, even after a closed loop
that ran over its pair's share."""

PHASES = 3
"""Closed- and open-loop phases alternate this many times, so that both
kinds of window are spread over the whole run rather than over one part of
it: a machine that slows down for a few seconds then moves both figures a
little instead of one a lot."""

CORPUS_SEED = 0
"""Seed of the training and pool streams.  The corpus is fixed because, at
this training budget, AUROC over corpora drawn per seed spread by 24-40 %
(quartile distance over median); the run's seed varies the traffic."""

MAX_STREAMS = 1024
RECHECK_SAMPLES = 24
RECHECK_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is recorded in BENCHMARK.json."""

    name: str
    streams: int
    batch_size: int
    offered_rate: float
    """Open-loop offered load in segments per second: a constant, about half
    the closed-loop throughput measured when the benchmark was defined."""
    eval_segments: int
    """Post-warm-up segments (in submission order) whose detections give the
    AUROC and, on drift_update, the checked publish count; the closed-loop
    phase always scores at least this many, in the same batches every run."""
    wire: bool = False
    durable: bool = False
    updates: bool = False
    segments_per_request: int = 8
    closed_loop_outstanding: int = 512
    """Wire closed loop: segments posted but not yet read back, at most."""


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="wire_ingest",
            streams=64,
            batch_size=64,
            offered_rate=700.0,
            eval_segments=4096,
            wire=True,
            durable=True,
        ),
        Workload(
            name="library_ingest",
            streams=1024,
            batch_size=64,
            offered_rate=1800.0,
            eval_segments=4096,
        ),
        Workload(
            name="drift_update",
            streams=16,
            batch_size=16,
            offered_rate=120.0,
            eval_segments=2048,
            durable=True,
            updates=True,
        ),
    )
}

# drift_update's pinned update plane: every full buffer retrains (Eq. 17's
# cosine is at most 1, so a 1.01 threshold always fires), and the buffer,
# epochs, retained versions and drift history are fixed so that checkpoint and
# drift-check cost do not grow with run length.
UPDATE = UpdateConfig(
    buffer_size=128, drift_threshold=1.01, update_epochs=2, merge_weight=0.5
)
MAX_VERSIONS = 4
MAX_HISTORY = 1024
FULL_EVERY = 2
"""Every second checkpoint is a full (compacting) one.  Each publish
checkpoints, so one compaction cycle is two publishes: short enough that
every measured window holds several whole cycles."""


def stream_name(stream: int) -> str:
    return f"s{stream:04d}"


class Inputs:
    """A fixed INF-profile corpus, replayed by every stream from seeded offsets.

    The corpus is one training stream, which fits the model, and one pool
    stream.  Both come from ``CORPUS_SEED``, so every run serves the same
    model on the same segments.  The run's seed draws each stream's offset
    into the pool: segment ``k`` of stream ``i`` is pool row
    ``(offset[i] + k) % pool_size``.  So 1,024 streams cost one pool to
    generate, and the seed decides which segments meet in each batch.
    """

    def __init__(self, seed: int) -> None:
        generator = SocialStreamGenerator(dataset_profile("INF"), seed=CORPUS_SEED)
        pipeline = FeaturePipeline()
        self.train = pipeline.extract(
            generator.generate(TRAIN_SECONDS, name="train", seed=CORPUS_SEED * 1000 + 1)
        )
        pool = pipeline.extract(
            generator.generate(POOL_SECONDS, name="pool", seed=CORPUS_SEED * 1000 + 2)
        )
        self.action = np.ascontiguousarray(pool.action, dtype=np.float64)
        self.interaction = np.ascontiguousarray(pool.interaction, dtype=np.float64)
        self.level = np.asarray(pool.normalised_interaction, dtype=np.float64)
        self.labels = np.asarray(pool.labels, dtype=np.int64)
        self.pool_size = len(self.action)
        rng = np.random.default_rng([seed, 0x5EED])
        self.offsets = rng.integers(0, self.pool_size, size=MAX_STREAMS)

    def row(self, stream: int, index: int) -> int:
        return int((self.offsets[stream] + index) % self.pool_size)

    def submission(self, stream: int, index: int) -> tuple:
        row = self.row(stream, index)
        return (
            stream_name(stream),
            self.action[row],
            self.interaction[row],
            float(self.level[row]),
        )

    def window(self, stream: int, index: int):
        """The q-window that predicts segment ``index`` and its targets."""
        rows = [self.row(stream, k) for k in range(index - SEQUENCE_LENGTH, index)]
        target = self.row(stream, index)
        return (
            self.action[rows],
            self.interaction[rows],
            self.action[target],
            self.interaction[target],
        )


class Arrivals:
    """Open-loop send times: a Poisson process at ``rate`` per second, drawn
    from the run's seed.

    Gaps are exponential rather than fixed.  With a fixed gap every send
    lands at the same offset inside the micro-batch flush deadline, so
    latencies bunch at multiples of the gap; drift_update's median then
    jumped from run to run between two bunches a whole gap apart.
    """

    def __init__(self, rate: float, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 0xA771])
        self._mean_gap = 1.0 / rate

    def gap(self) -> float:
        """Seconds from one send to the next."""
        return float(self._rng.exponential(self._mean_gap))


def runtime_config(
    workload: Workload, train: StreamFeatures, directory: Optional[Path] = None
) -> RuntimeConfig:
    durability = DurabilityConfig()
    if workload.durable:
        durability = DurabilityConfig(
            directory=str(directory),
            wal=True,
            wal_fsync_every=1,
            checkpoint_every_updates=1 if workload.updates else None,
            full_every=FULL_EVERY,
        )
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=train.action_dim,
            interaction_dim=train.interaction_dim,
            action_hidden=ACTION_HIDDEN,
            interaction_hidden=INTERACTION_HIDDEN,
            backend="numpy",
            precision="float64",
        ),
        training=TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=32, checkpoint_every=1),
        serving=ServingConfig(
            max_batch_size=workload.batch_size,
            max_batch_delay_ms=BATCH_DELAY_MS,
            num_shards=1,
        ),
        update=UPDATE,
        executor=ExecutorConfig(mode="serial"),
        server=ServerConfig(port=0, poll_interval_ms=5.0, max_pending=4096),
        durability=durability,
        sequence_length=SEQUENCE_LENGTH,
        enable_updates=workload.updates,
        max_versions=MAX_VERSIONS if workload.updates else None,
        max_history=MAX_HISTORY if workload.updates else None,
    )


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed segments) count."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[rank])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def latency_windows(latencies: Sequence[float]) -> List[Sequence[float]]:
    """Consecutive ``LATENCY_WINDOW``-segment windows (a short remainder joins
    the last window)."""
    starts = list(range(0, max(1, len(latencies) - LATENCY_WINDOW + 1), LATENCY_WINDOW))
    bounds = starts[1:] + [len(latencies)]
    return [latencies[a:b] for a, b in zip(starts, bounds)]


def windowed_percentile(latencies: Sequence[float], q: float) -> float:
    """Median over :func:`latency_windows` of each window's ``q``-th percentile.

    A window of 1,000 keeps at least ten samples beyond its 99th percentile,
    and the median over windows keeps one stall from deciding the figure.
    """
    return median([percentile(window, q) for window in latency_windows(latencies)])


def window_rates(stamps: Sequence[Tuple[float, int]], bounds: Sequence[float]) -> List[float]:
    """Events per second in each window between consecutive ``bounds``.

    ``stamps`` holds ``(time, events)`` pairs; events outside the windows
    are ignored.
    """
    counts = [0] * (len(bounds) - 1)
    for stamp, events in stamps:
        slot = bisect.bisect_right(bounds, stamp) - 1
        if 0 <= slot < len(counts):
            counts[slot] += events
    return [count / (end - start) for count, start, end in zip(counts, bounds, bounds[1:])]


def time_windows(start: float, end: float) -> List[float]:
    """Bounds of as many equal windows of about ``WINDOW_SECONDS`` as fit."""
    windows = max(1, int(round((end - start) / WINDOW_SECONDS)))
    return [start + (end - start) * k / windows for k in range(windows + 1)]


def run_phases(
    seconds: float,
    closed_loop: Callable[[float, bool], List[float]],
    open_loop: Callable[[float], None],
) -> List[float]:
    """Alternate ``PHASES`` closed- and open-loop phases over ``seconds``.

    Each phase pair gets an equal share of the time still left, so a closed
    loop that overruns its budget (the first one runs until the
    quality-check prefix is scored) shortens the phases after it.  Returns
    the closed loops' window rates.
    """
    deadline = time.perf_counter() + seconds
    rates: List[float] = []
    for phase in range(PHASES):
        started = time.perf_counter()
        share = (deadline - started) / (PHASES - phase)
        rates += closed_loop(max(WINDOW_SECONDS, share * CLOSED_LOOP_SHARE), phase == 0)
        open_loop(max(MIN_OPEN_LOOP_SECONDS, started + share - time.perf_counter()))
    return rates


def detection_auroc(inputs: "Inputs", keys: Sequence[Tuple[int, int]], received: Dict) -> float:
    """AUROC of served scores against the simulator's labels, once per pool row.

    ``keys`` are ``(stream, index)`` in submission order; a pool row met
    again (another stream replaying it) counts only at its first detection,
    so the figure is the model's AUROC on the rows covered, whichever
    streams happened to carry them.
    """
    seen = set()
    labels, scores = [], []
    for stream, index in keys:
        row = inputs.row(stream, index)
        if row in seen:
            continue
        seen.add(row)
        labels.append(int(inputs.labels[row]))
        scores.append(received[(stream, index)]["score"])
    return float(auroc(np.asarray(labels, dtype=np.int64), np.asarray(scores, dtype=np.float64)))


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
class CheckFailed(Exception):
    """A correctness violation: the run reports ``correct: false``."""


def summarize(
    workload: Workload,
    inputs: Inputs,
    *,
    expected: Sequence[tuple],
    measured: Sequence[tuple],
    received: Dict[tuple, dict],
    arrived: Dict[tuple, float],
    due: Dict[tuple, float],
) -> Dict[str, object]:
    """Failures, open-loop latencies and AUROC of one run's detections.

    ``expected`` are the ``(stream, index)`` keys that must have exactly one
    detection, ``measured`` the post-warm-up keys in submission order and
    ``due`` the open-loop keys with their scheduled send times.  A measured
    key with no detection (refused, or never scored) is a failure.  Duplicates
    are rejected where detections are collected (a key seen twice raises
    there); a detection for a key never submitted raises here.
    """
    expected_set = set(expected)
    stray = [key for key in received if key not in expected_set]
    if stray:
        raise CheckFailed(f"detections for segments never submitted: {stray[:5]}")
    eval_keys = measured[: workload.eval_segments]
    if len(eval_keys) < workload.eval_segments or any(key not in received for key in eval_keys):
        raise RuntimeError("the closed loop did not score the quality-check prefix")
    return {
        "attempted": len(measured),
        "failed": sum(1 for key in measured if key not in received),
        "latencies": [
            arrived[key] - scheduled if key in arrived else math.inf
            for key, scheduled in due.items()
        ],
        "auroc": detection_auroc(inputs, eval_keys, received),
        "detections": [received[key] for key in measured if key in received],
    }


def pick_sample(detections: Sequence[dict], retained: Sequence[int], seed: int) -> List[dict]:
    """A seeded sample of detections whose model version is still retained.

    Detections of versions the registry has evicted (``max_versions``) cannot
    be recomputed and are not eligible.
    """
    retained = set(retained)
    eligible = [d for d in detections if d["model_version"] in retained]
    if not eligible:
        raise CheckFailed("no detection of a retained model version to recheck")
    rng = np.random.default_rng([seed, 0xC4EC])
    picks = rng.choice(len(eligible), size=min(RECHECK_SAMPLES, len(eligible)), replace=False)
    return [eligible[int(pick)] for pick in sorted(picks)]


def sample_windows(inputs: Inputs, sample: Sequence[dict]) -> Dict[str, np.ndarray]:
    """The q-windows and targets of ``sample``, stacked per field."""
    windows = [
        inputs.window(int(d["stream"][1:]), d["segment_index"]) for d in sample
    ]
    return {
        name: np.stack([window[position] for window in windows])
        for position, name in enumerate(
            ("action_window", "interaction_window", "action_target", "interaction_target")
        )
    }


def recompute(runtime: Runtime, sample: Sequence[dict], windows: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Re-score each sampled detection offline and compare with what was served.

    Each detection is recomputed from ``registry.get(model_version)`` on the
    same q-window, one sequence at a time, and must match the served score,
    both errors and the decision within ``RECHECK_TOLERANCE``.
    """
    worst = 0.0
    for position, detection in enumerate(sample):
        snapshot = runtime.registry.get(detection["model_version"])
        predicted_action, predicted_interaction, _, _ = snapshot.model.predict_full(
            windows["action_window"][position : position + 1],
            windows["interaction_window"][position : position + 1],
        )
        result = snapshot.detector.score_predictions(
            np.array([detection["segment_index"]]),
            windows["action_target"][position : position + 1],
            windows["interaction_target"][position : position + 1],
            predicted_action,
            predicted_interaction,
        )
        for field, value in (
            ("score", result.scores[0]),
            ("action_error", result.action_errors[0]),
            ("interaction_error", result.interaction_errors[0]),
        ):
            error = abs(float(value) - detection[field])
            worst = max(worst, error)
            if not error <= RECHECK_TOLERANCE:
                raise CheckFailed(
                    f"{detection['stream']}#{detection['segment_index']} "
                    f"v{detection['model_version']}: {field} {detection[field]!r} "
                    f"served, {float(value)!r} recomputed"
                )
        if bool(result.is_anomaly[0]) != detection["is_anomaly"]:
            raise CheckFailed(
                f"{detection['stream']}#{detection['segment_index']}: decision differs"
            )
    return {
        "rechecked": len(sample),
        "versions": len({d["model_version"] for d in sample}),
        "max_error": worst,
    }


def expected_publishes(levels_by_batch: Sequence[Sequence[float]], buffer_size: int) -> int:
    """Publishes the pinned update plane must make over the given batches.

    Mirrors the drift monitor's rule (paper Sec. IV-D): a segment is buffered
    as presumed normal when its interaction level is below the running mean
    of all levels observed before its batch; every ``buffer_size`` buffered
    segments run one drift check, and the pinned threshold makes every check
    retrain and publish.
    """
    total = 0.0
    count = 0
    buffered = 0
    publishes = 0
    for levels in levels_by_batch:
        threshold = total / count if count else math.inf
        for level in levels:
            total += level
            count += 1
            if level < threshold:
                buffered += 1
            if buffered >= buffer_size:
                publishes += 1
                buffered = 0
    return publishes
