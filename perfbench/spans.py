"""Span tracing from outside the program, for the traced (per-layer) run.

The tracer wraps each layer's public entry points (see :data:`LAYER_CALLS`)
on their class or module, so nothing under ``src/`` changes.  Each wrapped
call is one span: wall and thread-CPU time at entry and exit, and the span
that encloses it on the same thread.  A span's *self* time is its duration
minus the durations of its child spans.  Spans are folded into per-thread
tables as they close, so memory stays constant however long a run is.

Spans opened inside ``UpdatePlane.handle_trigger`` are keyed ``update/<name>``
so that, for example, the forward passes of a re-calibration are not counted
as scoring-path forwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter
_cpu = time.thread_time

UPDATE_SCOPE = "core.update"

# (module, owner attribute or None for a module-level function, function, key)
LAYER_CALLS = (
    ("repro.server.app", None, "parse_ingest", "server.parse_ingest"),
    ("repro.server.app", "RuntimeServer", "handle_ingest", "server.handle_ingest"),
    ("repro.server.app", "RuntimeServer", "handle_detections", "server.handle_detections"),
    ("repro.server.admission", "AdmissionController", "offer", "server.admission.offer"),
    ("repro.server.admission", "AdmissionController", "take", "server.admission.take"),
    ("repro.server.handlers", "RuntimeRequestHandler", "handle_one_request", "server.http"),
    ("repro.runtime", "Runtime", "ingest_many", "runtime.ingest_many"),
    ("repro.runtime", "Runtime", "poll", "runtime.poll"),
    ("repro.durability.wal", "WriteAheadLog", "append", "durability.wal_append"),
    ("repro.runtime", "Runtime", "checkpoint", "durability.checkpoint"),
    ("repro.serving.sharding", "ShardedScoringService", "submit_many", "serving.submit_many"),
    ("repro.serving.service", "StreamSession", "make_request", "serving.session_window"),
    ("repro.serving.microbatch", "MicroBatcher", "assemble", "serving.assemble"),
    ("repro.serving.registry", "ModelRegistry", "publish", "serving.registry_publish"),
    ("repro.core.clstm", "CLSTM", "predict_full", "core.forward"),
    ("repro.core.detector", "AnomalyDetector", "score_predictions", "core.score"),
    ("repro.serving.service", None, "hidden_set_similarity", "core.drift_similarity"),
    ("repro.serving.maintenance", None, "train_incremental", "core.train_incremental"),
    ("repro.serving.maintenance", None, "merge_models", "core.merge"),
    ("repro.core.detector", "AnomalyDetector", "recalibrate", "core.recalibrate"),
    ("repro.serving.maintenance", "UpdatePlane", "handle_trigger", UPDATE_SCOPE),
)

DISTRIBUTIONS = {
    "durability.checkpoint",
    "update/serving.registry_publish",
    "core.drift_similarity",
    "update/core.train_incremental",
    "update/core.merge",
    "update/core.recalibrate",
}
"""Keys whose every inclusive duration is kept (for medians)."""


class _Stat:
    __slots__ = ("count", "wall_self", "cpu", "cpu_self")

    def __init__(self) -> None:
        self.count = 0
        self.wall_self = 0.0
        self.cpu = 0.0
        self.cpu_self = 0.0


class Tracer:
    """Collects spans and counters while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.tables: Dict[int, Dict[str, _Stat]] = {}
        self.top_cpu: Dict[int, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)
        self.admission_waits: List[float] = []
        self._offered: Dict[int, float] = {}
        self._patches: list = []
        self.span_cost = self._calibrate()

    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self.tables[threading.get_ident()] = local.table
            return local.stack, local.table

    def wrap(self, func: Callable, key: str, hook: Optional[Callable] = None) -> Callable:
        """``func`` recording one span per call while active.

        ``hook(args, result)`` runs after the span has closed.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack, table = tracer._state()
            name = key
            if stack and (stack[-1][0] == UPDATE_SCOPE or stack[-1][0].startswith("update/")):
                name = "update/" + key
            frame = [name, _perf(), _cpu(), 0.0, 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                cpu = _cpu() - frame[2]
                wall = _perf() - frame[1]
                stack.pop()
                stat = table.get(name)
                if stat is None:
                    stat = table[name] = _Stat()
                stat.count += 1
                stat.wall_self += wall - frame[3]
                stat.cpu += cpu
                stat.cpu_self += cpu - frame[4]
                if stack:
                    parent = stack[-1]
                    parent[3] += wall
                    parent[4] += cpu
                else:
                    tracer.top_cpu[threading.get_ident()] += cpu
                if name in DISTRIBUTIONS:
                    tracer.durations[name].append(wall)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _calibrate(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call (wrapped no-op minus bare no-op)."""

        def noop():
            return None

        traced = self.wrap(noop, "calibration")
        self.active = True
        try:
            best = float("inf")
            for _ in range(3):
                started = _perf()
                for _ in range(calls):
                    traced()
                wrapped = _perf() - started
                started = _perf()
                for _ in range(calls):
                    noop()
                best = min(best, (wrapped - (_perf() - started)) / calls)
        finally:
            self.active = False
        self.reset()
        return max(best, 0.0)

    def reset(self) -> None:
        for table in self.tables.values():
            table.clear()
        self.top_cpu.clear()
        self.durations.clear()
        self.counters.clear()
        self.admission_waits.clear()
        self._offered.clear()

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_CALLS`."""
        hooks = {
            "runtime.ingest_many": self._count_submissions,
            "core.forward": self._count_forward,
            "durability.checkpoint": self._checkpoint_bytes,
            "server.admission.offer": self._offered_items,
            "server.admission.take": self._taken_items,
        }
        for module_name, owner_name, attr, key in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, staticmethod):
                replacement = staticmethod(self.wrap(static.__func__, key, hooks.get(key)))
            else:
                replacement = self.wrap(getattr(owner, attr), key, hooks.get(key))
            self._patches.append((owner, attr, static))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks ---------------------------------------------------------- #
    def _count_submissions(self, args, result) -> None:
        self.counters["runtime.ingest_many.segments"] += len(args[1])

    def _count_forward(self, args, result) -> None:
        self.counters["core.forward.sequences"] += len(args[1])

    def _checkpoint_bytes(self, args, result) -> None:
        directory = Path(result)
        self.counters["durability.checkpoint.bytes"] += sum(
            path.stat().st_size for path in directory.iterdir() if path.is_file()
        )

    def _offered_items(self, args, result) -> None:
        if result[0]:
            now = _perf()
            for item in args[1]:
                self._offered[id(item)] = now

    def _taken_items(self, args, result) -> None:
        now = _perf()
        for item in result:
            offered = self._offered.pop(id(item), None)
            if offered is not None:
                self.admission_waits.append(now - offered)

    # ------------------------------------------------------------------ #
    def stat(self, key: str) -> _Stat:
        """Totals of ``key`` over every thread."""
        total = _Stat()
        for table in self.tables.values():
            stat = table.get(key)
            if stat is not None:
                total.count += stat.count
                total.wall_self += stat.wall_self
                total.cpu += stat.cpu
                total.cpu_self += stat.cpu_self
        return total

    @property
    def spans(self) -> int:
        """Spans recorded since the last reset, on every thread."""
        return sum(stat.count for table in self.tables.values() for stat in table.values())

    def named_cpu(self, ident: int) -> float:
        """CPU self time of every span recorded on thread ``ident``."""
        return sum(stat.cpu_self for stat in self.tables.get(ident, {}).values())

    def keys(self, ident: int) -> set:
        return set(self.tables.get(ident, {}))


def thread_cpu() -> Dict[int, float]:
    """CPU seconds consumed so far by every live thread of this process."""
    sample = {}
    for thread in threading.enumerate():
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            sample[thread.ident] = time.clock_gettime(clock)
        except (OSError, TypeError):
            continue
    return sample
