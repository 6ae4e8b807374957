"""Cross-stream micro-batching of scoring requests.

Serving many concurrent live streams one segment at a time wastes the fused
inference engine: a single ``(1, q, d)`` forward is dominated by fixed
per-call overhead, while a ``(64, q, d)`` forward costs barely more than a
``(8, q, d)`` one.  The :class:`MicroBatcher` therefore collects
:class:`ScoreRequest` objects from *any* number of streams into one FIFO
queue and releases them in batches of up to ``max_batch_size`` — the classic
micro-batching scheduler of neural serving systems, including the optional
wall-clock flush deadline (``max_delay_seconds``) that bounds tail latency
when fan-in is too low to fill batches (see
:class:`~repro.serving.service.ScoringService`).

Assembly comes in two forms.  The raw form stacks each request's raw
``q``-window, for consumers that need contiguous windows (the process
executor, reduced-precision models, the update plane's training batch).
The projected form serves the project-once rule: it collects which rows of
each stream's :class:`ProjectionRing` a window can reuse under the pinned
model version and the raw rows the ring lacks (normally the window's newest
row); the forward's projection step copies the one and projects the other.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.fused import ProjectedWindows

__all__ = ["QueueFull", "ProjectionRing", "ScoreRequest", "MicroBatcher"]

Window = Union[np.ndarray, Sequence[np.ndarray]]


@lru_cache(maxsize=None)
def _rotations(steps: int) -> np.ndarray:
    """Row ``s`` lists the ring slots of a window starting at slot ``s``."""
    return (np.arange(steps)[:, None] + np.arange(steps)[None, :]) % steps


class ProjectionRing:
    """One stream's projected input rows: the serving projection cache.

    ``action`` / ``interaction`` hold ``x_t · W_in + b`` of each cell for the
    stream's last ``q`` segments, ``(q, 4H1)`` / ``(q, 4H2)``, with segment
    ``k`` in slot ``k % q``.  The rows are tagged with the model version that
    produced them and cover segments ``[end - q, end)``.  They are derived
    state: never checkpointed or logged, and a ring of another version (or
    none at all) just means the window is projected again from raw rows.
    Read and written only under the owning shard's scoring lock.
    """

    __slots__ = ("action", "interaction", "version", "end")

    def __init__(self) -> None:
        self.action: Optional[np.ndarray] = None
        self.interaction: Optional[np.ndarray] = None
        self.version: Optional[int] = None
        self.end = 0

    def held(self, version: int, segment_index: int, steps: int) -> int:
        """How many leading rows of request ``segment_index``'s window are held.

        The window covers segments ``[segment_index - q, segment_index)``;
        only rows stored by earlier requests count, so at most ``q - 1``.
        """
        if self.version != version or self.end >= segment_index:
            return 0
        return max(0, self.end - segment_index + steps)

    def store(
        self,
        version: int,
        segment_index: int,
        action_window: np.ndarray,
        interaction_window: np.ndarray,
    ) -> None:
        """Keep the projected windows of request ``segment_index``."""
        steps = len(action_window)
        held = self.held(version, segment_index, steps)
        if held == steps - 1:
            # The steady state: only the window's newest row is new.
            slot = (segment_index - 1) % steps
            self.action[slot] = action_window[-1]
            self.interaction[slot] = interaction_window[-1]
        else:
            if self.action is None or self.action.shape != action_window.shape:
                self.action = np.empty_like(action_window)
                self.interaction = np.empty_like(interaction_window)
                held = 0
            slots = _rotations(steps)[segment_index % steps, held:]
            self.action[slots] = action_window[held:]
            self.interaction[slots] = interaction_window[held:]
        self.version = version
        self.end = segment_index


class QueueFull(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the queue bound is reached.

    Carries the bound so admission layers can surface it; catching this and
    shedding the request (rather than blocking the ingest thread) is the
    back-pressure contract of the bounded queue.
    """

    def __init__(self, max_pending: int) -> None:
        super().__init__(f"micro-batch queue is full ({max_pending} pending requests)")
        self.max_pending = max_pending


@dataclass(frozen=True)
class ScoreRequest:
    """One segment of one stream, ready to be scored.

    Attributes
    ----------
    stream_id:
        Identifier of the originating stream (routing key for the response).
    segment_index:
        Index of the predicted segment within its stream.
    action_history / interaction_history:
        ``(q, d1)`` / ``(q, d2)`` history windows feeding the CLSTM: arrays,
        or the ``q`` row arrays themselves, which is what sessions pass so
        that a request copies nothing.  :meth:`materialized` stacks them.
    action_target / interaction_target:
        True features of the incoming segment (the reconstruction targets).
    interaction_level:
        Normalised audience-interaction level of the incoming segment; the
        drift monitor buffers presumed-normal segments below a threshold of
        this quantity (Section IV-D).  ``nan`` disables drift tracking for
        the segment.
    projection:
        The stream's :class:`ProjectionRing`, or ``None`` for requests that
        no live session owns (restored from a checkpoint, built by hand).
    """

    stream_id: str
    segment_index: int
    action_history: Window
    interaction_history: Window
    action_target: np.ndarray
    interaction_target: np.ndarray
    interaction_level: float = float("nan")
    projection: Optional[ProjectionRing] = field(default=None, repr=False, compare=False)

    def materialized(self) -> "ScoreRequest":
        """This request with contiguous ``(q, d)`` windows and no cache link.

        For consumers that keep a request beyond its batch (the drift sample
        buffer, checkpoints): they must own their windows.
        """
        return dataclasses.replace(
            self,
            action_history=np.stack(self.action_history),
            interaction_history=np.stack(self.interaction_history),
            projection=None,
        )


class MicroBatcher:
    """FIFO queue that coalesces requests from many streams into batches.

    Two flush conditions are supported: the count-based :meth:`ready` (a
    full batch is waiting) and, when ``max_delay_seconds`` is set, the
    wall-clock :meth:`expired` deadline — the oldest queued request has
    waited at least ``max_delay_seconds``.  The deadline bounds tail latency
    at low stream fan-in, where a full batch may take arbitrarily long to
    accumulate.  Time is supplied by the caller (``now``), so services can
    use a monotonic clock in production and a manual clock in tests.
    """

    def __init__(
        self,
        max_batch_size: int = 64,
        max_delay_seconds: Optional[float] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_delay_seconds is not None and max_delay_seconds < 0:
            raise ValueError("max_delay_seconds must be non-negative when set")
        if max_pending is not None and max_pending < max_batch_size:
            raise ValueError("max_pending must be at least max_batch_size when set")
        self.max_batch_size = max_batch_size
        self.max_delay_seconds = max_delay_seconds
        self.max_pending = max_pending
        self._queue: Deque[ScoreRequest] = deque()
        self._arrivals: Deque[Optional[float]] = deque()
        self.submitted = 0
        self.batches_drained = 0

    def __len__(self) -> int:
        return len(self._queue)

    def submit(self, request: ScoreRequest, now: Optional[float] = None) -> None:
        """Enqueue one request (order of arrival is preserved).

        ``now`` stamps the arrival for deadline accounting; deadline-less
        callers can omit it.

        Raises :class:`QueueFull` when ``max_pending`` is set and already
        reached — the request is *not* enqueued; shed it or retry later.
        """
        if self.max_pending is not None and len(self._queue) >= self.max_pending:
            raise QueueFull(self.max_pending)
        self._queue.append(request)
        self._arrivals.append(now)
        self.submitted += 1

    def ready(self) -> bool:
        """Whether a full batch is waiting."""
        return len(self._queue) >= self.max_batch_size

    def oldest_arrival(self) -> Optional[float]:
        """Arrival stamp of the queue head (None when idle or unstamped)."""
        return self._arrivals[0] if self._arrivals else None

    def expired(self, now: float) -> bool:
        """Whether the head request has outlived the flush deadline."""
        if self.max_delay_seconds is None or not self._queue:
            return False
        oldest = self._arrivals[0]
        if oldest is None:
            return False
        return (now - oldest) >= self.max_delay_seconds

    def pending(self) -> List[ScoreRequest]:
        """The queued requests in arrival order, without draining them.

        The checkpoint path persists these so a restored service re-queues
        exactly the requests that were waiting when the checkpoint was taken
        (arrival stamps are re-issued at restore time).
        """
        return list(self._queue)

    def drain(self) -> List[ScoreRequest]:
        """Pop up to ``max_batch_size`` requests (empty list when idle)."""
        batch: List[ScoreRequest] = []
        while self._queue and len(batch) < self.max_batch_size:
            batch.append(self._queue.popleft())
            self._arrivals.popleft()
        if batch:
            self.batches_drained += 1
        return batch

    @staticmethod
    def assemble(
        requests: List[ScoreRequest],
        projection: Optional[Tuple[int, Tuple[int, int]]] = None,
    ) -> Tuple[object, object, np.ndarray, np.ndarray, np.ndarray]:
        """Stack a request list into the arrays the batched scorer consumes.

        Returns ``(action_sequences, interaction_sequences, action_targets,
        interaction_targets, segment_indices)`` with leading dimension
        ``len(requests)``.

        ``projection`` selects the projected form: ``(version, (W1, W2))``
        with the pinned model version and its two projection widths.  The
        two sequence entries are then :class:`~repro.nn.fused.ProjectedWindows`
        for ``predict_full(..., projected=True)``: the ring rows each window
        can reuse and the raw rows it still needs projected.  Otherwise
        they are the stacked raw ``(B, q, d)`` windows.
        """
        if not requests:
            raise ValueError("cannot assemble an empty batch")
        if projection is None:
            action, interaction = _stack_windows(requests)
        else:
            action, interaction = _gather_projected(requests, *projection)
        return (
            action,
            interaction,
            np.stack([r.action_target for r in requests], axis=0),
            np.stack([r.interaction_target for r in requests], axis=0),
            np.array([r.segment_index for r in requests], dtype=np.int64),
        )


def _stack_windows(requests: List[ScoreRequest]) -> Tuple[np.ndarray, np.ndarray]:
    """The raw ``(B, q, d1)`` / ``(B, q, d2)`` windows, one copy of each row."""
    count, steps = len(requests), len(requests[0].action_history)
    action = np.stack([row for r in requests for row in r.action_history])
    interaction = np.stack([row for r in requests for row in r.interaction_history])
    return action.reshape(count, steps, -1), interaction.reshape(count, steps, -1)


def _gather_projected(
    requests: List[ScoreRequest], version: int, widths: Tuple[int, int]
) -> Tuple[ProjectedWindows, ProjectedWindows]:
    """Each window's ring rows to reuse, plus the raw rows still to project."""
    action_width, interaction_width = widths
    count, steps = len(requests), len(requests[0].action_history)
    rotations = _rotations(steps)
    action_gathers: List[tuple] = []
    interaction_gathers: List[tuple] = []
    pending: List[int] = []
    action_rows: List[np.ndarray] = []
    interaction_rows: List[np.ndarray] = []
    for position, request in enumerate(requests):
        ring = request.projection
        held = 0 if ring is None else ring.held(version, request.segment_index, steps)
        if held:
            slots = rotations[request.segment_index % steps]
            action_gathers.append((position, ring.action, slots))
            interaction_gathers.append((position, ring.interaction, slots))
        first = position * steps
        pending.extend(range(first + held, first + steps))
        action_rows.extend(request.action_history[held:])
        interaction_rows.extend(request.interaction_history[held:])
    pending_index = np.array(pending, dtype=np.intp)
    return (
        ProjectedWindows(
            np.empty((count, steps, action_width)),
            action_gathers,
            pending_index,
            np.stack(action_rows),
        ),
        ProjectedWindows(
            np.empty((count, steps, interaction_width)),
            interaction_gathers,
            pending_index,
            np.stack(interaction_rows),
        ),
    )
