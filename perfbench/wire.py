"""``wire_ingest``: HTTP load generator against the server child process.

Two threads and two keep-alive connections: the caller's thread posts
8-segment ingest requests, and a reader thread long-polls
``GET /v1/detections`` for the stream of the oldest segment still waiting,
from that stream's cursor.  Segment ``n`` of the run goes to stream
``n % streams`` as that stream's segment ``n // streams``; request ``r``
carries segments ``8r .. 8r + 7``.
"""

from __future__ import annotations

import http.client
import json
import math
import select
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

import common

_perf = time.perf_counter
HERE = Path(__file__).resolve().parent
REPLY_TIMEOUT = 120.0
DRAIN_TIMEOUT = 10.0
LONG_POLL_MS = 1000


class Child:
    """The server process and its line-oriented JSON protocol."""

    def __init__(self, workload: common.Workload, work_dir: Path, trace: bool) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-B",
                str(HERE / "wire_server.py"),
                "--workload",
                workload.name,
                "--work",
                str(work_dir),
                "--trace",
                str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def receive(self) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], REPLY_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("wire server child exited or stopped answering")
        return json.loads(line)

    def call(self, op: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.process.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class WireClient:
    def __init__(self, workload: common.Workload, inputs: common.Inputs, port: int, seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        self.port = port
        self.arrivals = common.Arrivals(workload.offered_rate / workload.segments_per_request, seed)
        self.streams = workload.streams
        # Each pool row's JSON fields, serialised once (floats round-trip
        # exactly through repr); a request body only joins them.
        self.fields = [
            '"action": %s, "interaction": %s, "level": %s'
            % (
                json.dumps(inputs.action[row].tolist()),
                json.dumps(inputs.interaction[row].tolist()),
                json.dumps(float(inputs.level[row])),
            )
            for row in range(inputs.pool_size)
        ]
        self.next = 0
        self.state = threading.Condition()
        self.waiting: deque = deque()
        self.due: Dict[Tuple[int, int], float] = {}
        self.received: Dict[Tuple[int, int], dict] = {}
        self.arrived: Dict[Tuple[int, int], float] = {}
        self.outstanding = 0
        self.refused: Set[Tuple[int, int]] = set()
        self.receipts: List[Tuple[float, int]] = []
        self.lags: List[float] = []
        self.error: Optional[BaseException] = None
        self.stopping = False
        self.measured_from = 0
        self.poster = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.reader = threading.Thread(target=self._read_loop, name="perfbench-reader")
        self.reader.start()

    def key(self, n: int) -> Tuple[int, int]:
        """``(stream, segment_index)`` of the run's ``n``-th posted segment."""
        per_request = self.workload.segments_per_request
        request, position = divmod(n, per_request)
        rounds, stream = divmod(request, self.streams)
        return stream, rounds * per_request + position

    # -- posting (caller's thread) --------------------------------------- #
    def post(self, scheduled: Optional[float] = None) -> None:
        per_request = self.workload.segments_per_request
        keys = [self.key(n) for n in range(self.next, self.next + per_request)]
        self.next += per_request
        body = '{"segments": [%s]}' % ", ".join(
            '{"stream": "%s", %s}' % (common.stream_name(stream), self.fields[self.inputs.row(stream, index)])
            for stream, index in keys
        )
        scored = [key for key in keys if key[1] >= common.SEQUENCE_LENGTH]
        with self.state:
            for key in scored:
                self.waiting.append(key)
                if scheduled is not None:
                    self.due[key] = scheduled
            self.outstanding += len(scored)
            self.state.notify_all()
        if scheduled is not None:
            self.lags.append(_perf() - scheduled)
        self.poster.request(
            "POST", "/v1/ingest", body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self.poster.getresponse()
        response.read()
        if response.status != 202:
            with self.state:
                self.refused.update(scored)
                self.outstanding -= len(scored)
                self.state.notify_all()

    def _wait(self, predicate, timeout: float) -> bool:
        with self.state:
            ok = self.state.wait_for(lambda: predicate() or self.error is not None, timeout)
        if isinstance(self.error, common.CheckFailed):
            raise self.error
        if self.error is not None:
            raise RuntimeError("wire reader failed") from self.error
        return ok

    def settle(self, timeout: float = DRAIN_TIMEOUT) -> bool:
        """Wait until every accepted segment has been read back."""
        return self._wait(lambda: self.outstanding == 0, timeout)

    # -- reading (reader thread) ----------------------------------------- #
    def _read_loop(self) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        cursors = [0] * self.streams
        try:
            while True:
                with self.state:
                    while True:
                        while self.waiting and (
                            self.waiting[0] in self.received or self.waiting[0] in self.refused
                        ):
                            self.waiting.popleft()
                        if self.waiting or self.stopping:
                            break
                        self.state.wait(0.05)
                    if not self.waiting:
                        return
                    stream = self.waiting[0][0]
                connection.request(
                    "GET",
                    f"/v1/detections?stream={common.stream_name(stream)}"
                    f"&start={cursors[stream]}&wait_ms={LONG_POLL_MS}",
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                stamp = _perf()
                if response.status != 200:
                    raise RuntimeError(f"detections poll returned {response.status}: {payload}")
                rows = payload["detections"]
                cursors[stream] = payload["next"]
                with self.state:
                    for row in rows:
                        key = (stream, int(row["segment_index"]))
                        if key in self.received:
                            raise common.CheckFailed(f"segment {key} detected twice")
                        self.received[key] = row
                        self.arrived[key] = stamp
                    self.outstanding -= len(rows)
                    if rows:
                        self.receipts.append((stamp, len(rows)))
                    self.state.notify_all()
        except BaseException as error:  # surfaced to the caller's thread by _wait
            with self.state:
                self.error = error
                self.state.notify_all()
        finally:
            connection.close()

    def close(self) -> None:
        if self.stopping:
            return
        with self.state:
            self.stopping = True
            self.waiting.clear()
            self.state.notify_all()
        self.reader.join(timeout=LONG_POLL_MS / 1000 + 5)
        self.poster.close()

    # -- phases ---------------------------------------------------------- #
    def warm_up(self) -> None:
        """Fill every q-window, then score whole batches until caches are warm."""
        per_round = self.streams * self.workload.segments_per_request
        fill = per_round * math.ceil(common.SEQUENCE_LENGTH / self.workload.segments_per_request)
        while self.next < fill + 4 * self.workload.batch_size:
            self.post()
        if not self.settle():
            raise RuntimeError("warm-up detections never arrived")
        self.measured_from = self.next

    def closed_loop(self, seconds: float, first: bool) -> List[float]:
        """Post whenever fewer than ``closed_loop_outstanding`` segments wait;
        returns the phase's window rates of segments read back.

        ``first`` is not needed here: every phase starts with nothing
        outstanding, because the phase before it settled.
        """
        limit = self.workload.closed_loop_outstanding - self.workload.segments_per_request
        started = _perf()
        receipts = len(self.receipts)
        while _perf() - started < seconds:
            self._wait(lambda: self.outstanding <= limit, REPLY_TIMEOUT)
            self.post()
        ended = _perf()
        self.settle()
        return common.window_rates(self.receipts[receipts:], common.time_windows(started, ended))

    def open_loop(self, seconds: float) -> None:
        """Post requests at the arrivals' send times, late ones as soon as possible."""
        started = _perf()
        scheduled = started + self.arrivals.gap()
        while scheduled - started < seconds:
            wait = scheduled - _perf()
            if wait > 0:
                time.sleep(wait)
            self.post(scheduled)
            scheduled += self.arrivals.gap()
        self.settle()


def run(workload: common.Workload, inputs: common.Inputs, seed: int, seconds: float, trace: bool, work_dir) -> dict:
    train = inputs.train
    np.savez(
        work_dir / "train.npz",
        action=train.action,
        interaction=train.interaction,
        labels=train.labels,
        normalised_interaction=train.normalised_interaction,
    )
    child = Child(workload, work_dir, trace)
    client = None
    try:
        ready = child.receive()
        client = WireClient(workload, inputs, ready["port"], seed)
        client.warm_up()
        child.call("begin")
        rates = common.run_phases(seconds, client.closed_loop, client.open_loop)
        ended = child.call("end")
        client.close()

        q = common.SEQUENCE_LENGTH
        posted = [client.key(n) for n in range(client.next)]
        accepted = [key for key in posted if key[1] >= q and key not in client.refused]
        if ended["scored"] != len(accepted):
            raise common.CheckFailed(
                f"server scored {ended['scored']} segments, expected accepted - "
                f"streams*q = {len(accepted)}"
            )
        summary = common.summarize(
            workload,
            inputs,
            expected=accepted,
            measured=posted[client.measured_from :],
            received=client.received,
            arrived=client.arrived,
            due=client.due,
        )
        sample = common.pick_sample(summary.pop("detections"), ended["versions"], seed)
        windows_path = work_dir / "recheck.npz"
        np.savez(windows_path, **common.sample_windows(inputs, sample))
        checked = child.call("check", sample=sample, windows=str(windows_path))
        if "error" in checked:
            raise common.CheckFailed(checked["error"])
        stopped = child.call("stop")
        child.process.wait(timeout=REPLY_TIMEOUT)
    finally:
        if client is not None:
            client.close()
        child.close()
    return {
        **summary,
        "setup": ready["setup"],
        "rates": rates,
        "peak_rss_mb": stopped["peak_rss_mb"],
        "checks": checked["result"],
        "window": ended["window"],
        "stalls": [],
        "lags": client.lags,
    }
