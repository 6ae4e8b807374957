"""The serving projection cache: each segment is input-projected once.

Every scored batch must equal, bitwise, ``registry.get(v).model.predict_full``
plus detector scoring on the batch's raw windows — whether the batch reused
cached projected rows (warm), projected whole windows (cold start, publish,
checkpoint restore, WAL recovery) or mixed both (several consecutive
segments of one stream in one batch).  Each case also checks how many rows
the batch actually projected, so a silent fallback to the full window fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
import pytest

from repro import Runtime, RuntimeConfig
from repro.serving.microbatch import MicroBatcher, ProjectionRing, ScoreRequest
from repro.serving.service import ScoringService, StreamDetection, StreamSession
from repro.utils.config import (
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

Q = 5
BATCH = 8
STREAMS = 8


@pytest.fixture(scope="module")
def config(tiny_features) -> RuntimeConfig:
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=tiny_features.action_dim,
            interaction_dim=tiny_features.interaction_dim,
            action_hidden=12,
            interaction_hidden=6,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(max_batch_size=BATCH, num_shards=1),
        update=UpdateConfig(buffer_size=30, drift_threshold=0.9999, update_epochs=2),
        executor=ExecutorConfig(mode="serial"),
        enable_updates=False,
        sequence_length=Q,
    )


@pytest.fixture(scope="module")
def fitted(config, tiny_features, tmp_path_factory):
    """A checkpoint of one fitted runtime; each test restores a fresh copy."""
    runtime = Runtime.from_config(config).fit(tiny_features)
    directory = runtime.checkpoint(tmp_path_factory.mktemp("projection") / "base")
    runtime.close()
    return directory


def make_streams(config, *, streams=STREAMS, segments=40, seed=5):
    rng = np.random.default_rng(seed)
    model = config.model
    return {
        f"cam-{index}": (
            rng.random((segments, model.action_dim)),
            rng.random((segments, model.interaction_dim)),
            rng.random(segments),
        )
        for index in range(streams)
    }


def round_robin(runtime, streams, start, stop) -> List[StreamDetection]:
    """Segment ``start..stop`` of every stream, one ``ingest_many`` per round."""
    detections = []
    for position in range(start, stop):
        detections.extend(
            runtime.ingest_many(
                [
                    (name, action[position], interaction[position], float(levels[position]))
                    for name, (action, interaction, levels) in streams.items()
                ]
            )
        )
    return detections


@dataclass
class Batch:
    requests: List[ScoreRequest]
    detections: List[StreamDetection]
    hidden: np.ndarray
    projected_rows: Optional[int]
    """Rows the batch's forward projected (``None``: the raw-window path)."""


class BatchLog:
    """Records every scored batch of every :class:`ScoringService`."""

    def __init__(self, monkeypatch) -> None:
        self.batches: List[Batch] = []
        assemble = MicroBatcher.assemble
        observe = ScoringService._observe_hidden
        score = ScoringService._score_requests
        state = {}

        def recording_assemble(requests, projection=None):
            inputs = assemble(requests, projection)
            state["projected"] = None if projection is None else len(inputs[0].pending)
            return inputs

        def recording_observe(service, requests, hidden, version):
            state["observed"] = (np.array(hidden), state["projected"])
            return observe(service, requests, hidden, version)

        def recording_score(service, requests, batch_arrival=None):
            detections = score(service, requests, batch_arrival)
            hidden, projected = state["observed"]
            self.batches.append(Batch(list(requests), detections, hidden, projected))
            return detections

        monkeypatch.setattr(MicroBatcher, "assemble", staticmethod(recording_assemble))
        monkeypatch.setattr(ScoringService, "_observe_hidden", recording_observe)
        monkeypatch.setattr(ScoringService, "_score_requests", recording_score)

    def projected_rows(self) -> List[Optional[int]]:
        return [batch.projected_rows for batch in self.batches]

    def assert_match_registry(self, registry) -> None:
        """Every batch equals predict_full + scoring on its raw windows, bitwise."""
        assert self.batches, "no batch was scored"
        for batch in self.batches:
            versions = {detection.model_version for detection in batch.detections}
            assert len(versions) == 1
            snapshot = registry.get(versions.pop())
            requests = batch.requests
            predicted_action, predicted_interaction, hidden, _ = snapshot.model.predict_full(
                np.stack([np.stack(r.action_history) for r in requests]),
                np.stack([np.stack(r.interaction_history) for r in requests]),
            )
            result = snapshot.detector.score_predictions(
                np.array([r.segment_index for r in requests]),
                np.stack([r.action_target for r in requests]),
                np.stack([r.interaction_target for r in requests]),
                predicted_action,
                predicted_interaction,
            )
            np.testing.assert_array_equal(batch.hidden, hidden)
            detections = batch.detections
            assert [d.score for d in detections] == result.scores.tolist()
            assert [d.action_error for d in detections] == result.action_errors.tolist()
            assert [d.interaction_error for d in detections] == result.interaction_errors.tolist()
            assert [d.is_anomaly for d in detections] == result.is_anomaly.tolist()


def perturbed(model):
    """A copy of ``model`` whose influencer input weights differ."""
    copy = model.snapshot()
    cell = copy.lstm_influencer
    cell.w_input.data = cell.w_input.data * 1.01
    return copy


class TestParityMatrix:
    def test_cold_start_projects_whole_windows(self, fitted, config, monkeypatch):
        runtime = Runtime.from_checkpoint(fitted)
        log = BatchLog(monkeypatch)
        round_robin(runtime, make_streams(config), 0, Q + 1)
        # Filling the windows scores nothing; the first batch is all cold.
        assert log.projected_rows() == [BATCH * Q]
        log.assert_match_registry(runtime.registry)

    def test_warm_steady_state_projects_only_newest_rows(self, fitted, config, monkeypatch):
        runtime = Runtime.from_checkpoint(fitted)
        log = BatchLog(monkeypatch)
        round_robin(runtime, make_streams(config), 0, Q + 6)
        assert log.projected_rows() == [BATCH * Q] + [BATCH] * 5
        log.assert_match_registry(runtime.registry)

    def test_consecutive_segments_of_one_stream_in_one_batch(self, fitted, config, monkeypatch):
        """The wire shape: each call carries the next 8 segments of one stream."""
        runtime = Runtime.from_checkpoint(fitted)
        streams = make_streams(config, streams=2, segments=Q + 5 * BATCH)
        for name, (action, interaction, levels) in streams.items():
            runtime.ingest_many(
                [(name, action[k], interaction[k], float(levels[k])) for k in range(Q)]
            )
        log = BatchLog(monkeypatch)
        for first in range(Q, Q + 5 * BATCH, BATCH):
            for name, (action, interaction, levels) in streams.items():
                runtime.ingest_many(
                    [
                        (name, action[k], interaction[k], float(levels[k]))
                        for k in range(first, first + BATCH)
                    ]
                )
        # Each call is one batch.  Later requests also need the rows that
        # earlier requests of the same batch are projecting: 1 + 2 + 3 + 4
        # rows, then whole windows once the ring holds none of theirs.
        warm = 1 + 2 + 3 + 4 + (BATCH - 4) * Q
        assert log.projected_rows() == [BATCH * Q] * 2 + [warm] * 8
        log.assert_match_registry(runtime.registry)

    def test_publish_between_batches(self, fitted, config, monkeypatch):
        runtime = Runtime.from_checkpoint(fitted)
        streams = make_streams(config)
        log = BatchLog(monkeypatch)
        round_robin(runtime, streams, 0, Q + 2)
        runtime.registry.publish(perturbed(runtime.model), runtime.anomaly_threshold)
        detections = round_robin(runtime, streams, Q + 2, Q + 4)
        assert {d.model_version for d in detections} == {2}
        # Rows projected under version 1 are never reused by version 2.
        assert log.projected_rows() == [BATCH * Q, BATCH, BATCH * Q, BATCH]
        log.assert_match_registry(runtime.registry)

    def test_after_checkpoint_restore(self, fitted, config, monkeypatch, tmp_path):
        original = Runtime.from_checkpoint(fitted)
        streams = make_streams(config)
        round_robin(original, streams, 0, Q + 3)
        # Leave requests queued, so restored pending requests are scored too.
        tick = [(name, a[Q + 3], b[Q + 3], float(c[Q + 3])) for name, (a, b, c) in streams.items()]
        original.ingest_many(tick[:3])
        restored = Runtime.from_checkpoint(original.checkpoint(tmp_path / "ckpt"))
        log = BatchLog(monkeypatch)
        ours = original.ingest_many(tick[3:]) + round_robin(original, streams, Q + 4, Q + 7)
        log.batches.clear()
        theirs = restored.ingest_many(tick[3:]) + round_robin(restored, streams, Q + 4, Q + 7)
        assert ours == theirs
        # The restored runtime starts with empty caches: whole windows first.
        assert log.projected_rows() == [BATCH * Q, BATCH, BATCH, BATCH]
        log.assert_match_registry(restored.registry)

    def test_after_wal_recovery(self, config, tiny_features, monkeypatch, tmp_path):
        durable = replace(config, durability=DurabilityConfig(directory=str(tmp_path / "dur")))
        victim = Runtime.from_config(durable).fit(tiny_features)
        streams = make_streams(config)
        round_robin(victim, streams, 0, Q + 2)
        victim.checkpoint()
        round_robin(victim, streams, Q + 2, Q + 4)  # logged, not checkpointed
        victim.close()

        log = BatchLog(monkeypatch)
        recovered = Runtime.recover(tmp_path / "dur")
        round_robin(recovered, streams, Q + 4, Q + 6)
        # Replay re-scores the logged rounds from empty caches.
        assert log.projected_rows() == [BATCH * Q, BATCH, BATCH, BATCH]
        log.assert_match_registry(recovered.registry)
        recovered.close()

    def test_small_batches_use_the_raw_windows(self, fitted, config, monkeypatch):
        """Under eight rows a batch is projected whole, exactly like predict_full."""
        runtime = Runtime.from_checkpoint(fitted)
        streams = make_streams(config, streams=1)
        log = BatchLog(monkeypatch)
        round_robin(runtime, streams, 0, Q + 1)
        runtime.drain()
        assert log.projected_rows() == [None]
        log.assert_match_registry(runtime.registry)


class TestProjectionRing:
    def test_held_counts_leading_rows_of_the_pinned_version(self):
        ring = ProjectionRing()
        assert ring.held(1, 10, Q) == 0
        window = np.arange(Q * 4, dtype=np.float64).reshape(Q, 4)
        ring.store(1, 10, window, window[:, :2])
        assert ring.held(1, 11, Q) == Q - 1  # the steady state
        assert ring.held(1, 12, Q) == Q - 2  # one request further ahead
        assert ring.held(1, 10 + Q + 1, Q) == 0  # nothing of it left
        assert ring.held(2, 11, Q) == 0  # another version
        assert ring.held(1, 9, Q) == 0  # an older window

    def test_store_rotates_windows_into_slots(self):
        ring = ProjectionRing()
        rows = np.arange(20 * 3, dtype=np.float64).reshape(20, 3)
        ring.store(1, 7, rows[2:7], rows[2:7, :1])  # segments 2..6, cold
        ring.store(1, 8, rows[3:8], rows[3:8, :1])  # only segment 7 is new
        for segment in range(3, 8):
            np.testing.assert_array_equal(ring.action[segment % Q], rows[segment])
            np.testing.assert_array_equal(ring.interaction[segment % Q], rows[segment, :1])

    def test_sessions_pass_rows_without_copying(self):
        session = StreamSession("s", sequence_length=2)
        rows = np.random.default_rng(0).random((3, 4))
        session.make_request(rows[0], rows[0, :2], 0.1)
        session.make_request(rows[1], rows[1, :2], 0.1)
        request = session.make_request(rows[2], rows[2, :2], 0.1)
        assert request.projection is session.projection
        assert all(np.shares_memory(row, rows) for row in request.action_history)
        owned = request.materialized()
        assert owned.projection is None
        assert not np.shares_memory(owned.action_history, rows)
        np.testing.assert_array_equal(owned.action_history, rows[:2])


class TestIngestValidation:
    def test_non_durable_ingest_rejects_a_malformed_row(self, tiny_features):
        """One overlong row must not poison the batches of other streams."""
        config = RuntimeConfig(
            model=ModelConfig(
                action_dim=tiny_features.action_dim,
                interaction_dim=tiny_features.interaction_dim,
                action_hidden=8,
                interaction_hidden=4,
            ),
            training=TrainingConfig(epochs=1, batch_size=16, checkpoint_every=1, seed=0),
            serving=ServingConfig(max_batch_size=4, num_shards=1),
            executor=ExecutorConfig(mode="serial"),
            enable_updates=False,
            sequence_length=3,
        )
        runtime = Runtime.from_config(config).fit(tiny_features)
        streams = make_streams(config, streams=4, segments=8)
        round_robin(runtime, streams, 0, 4)
        action, interaction, _ = streams["cam-0"]
        bad = np.append(action[4], 0.5)
        with pytest.raises(ValueError, match="action_feature"):
            runtime.ingest("cam-0", bad, interaction[4])
        with pytest.raises(ValueError, match="action_feature"):
            runtime.ingest_many([("cam-0", bad, interaction[4])])
        detections = round_robin(runtime, streams, 4, 8)
        assert {d.stream_id for d in detections} == set(streams)
        assert len(detections) == 4 * 4
        runtime.close()
