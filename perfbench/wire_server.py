"""Child process of ``wire_ingest``: the HTTP server under test.

Started by ``wire.py`` with the training features in ``<work>/train.npz``.
It stands the server up (timing each set-up), prints one JSON line per
event on standard output and obeys one JSON command per line on standard
input: ``begin`` / ``end`` (measurement window), ``check`` (recompute a
sample of detections), ``stop``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.features.pipeline import StreamFeatures  # noqa: E402

import common  # noqa: E402
from system import System  # noqa: E402


def send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    work = Path(args.work)
    with np.load(work / "train.npz") as data:
        train = StreamFeatures(
            name="train",
            action=data["action"],
            interaction=data["interaction"],
            labels=data["labels"],
            normalised_interaction=data["normalised_interaction"],
        )
    system = System(common.WORKLOADS[args.workload], train, work, bool(args.trace))
    setup = system.setup()
    send({"event": "ready", "port": system.server.port, "setup": setup})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "begin":
                system.begin()
                send({"event": "begun"})
            elif op == "end":
                window = system.end()
                send(
                    {
                        "event": "ended",
                        "window": window,
                        "scored": system.runtime.stats.segments_scored,
                        "versions": system.runtime.registry.versions(),
                    }
                )
            elif op == "check":
                with np.load(command["windows"]) as data:
                    windows = {name: data[name] for name in data.files}
                try:
                    send({"event": "checked", "result": common.recompute(system.runtime, command["sample"], windows)})
                except common.CheckFailed as error:
                    send({"event": "checked", "error": str(error)})
            elif op == "stop":
                break
    finally:
        peak = system.close()
    send({"event": "stopped", "peak_rss_mb": peak})
    return 0


if __name__ == "__main__":
    sys.exit(main())
