"""One fresh `coforget run` process, timed or traced from outside the package.

    python3 child.py --src SRC --marks MARKS.json [--trace] [--setup-only] -- <coforget run args>

The process imports coforget from SRC, wraps a few of its public calls, runs
`coforget.cli.main(["run", ...])` and writes what it saw to MARKS.json.

Untraced, only once-per-run and once-per-epoch calls are wrapped:
`traffic_stream` (its return marks the end of set-up), `run_epoch` and
`run_simulation`. With --trace every public function and method of every
module is wrapped and the per-name span totals are written as well.
--setup-only stops the run where set-up ends.

Marks are read from CLOCK_MONOTONIC, which is shared by every process on the
host, so the parent can measure from the instant it started this process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import asdict

from spans import Tracer, public_callables

MODULES = (
    "core",
    "decay",
    "relevance",
    "voting",
    "consensus",
    "transport",
    "store",
    "workload",
    "epoch",
    "cli",
)


def mark() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(Exception):
    """Raised from the traffic_stream hook to stop a --setup-only run."""


class Recorder:
    """Hooks that collect marks, epoch times and layer counters during one run."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.marks: dict[str, float] = {}
        self.epoch_s: list[float] = []
        self.store = None
        self.net = None
        self.epoch_interactions = 0
        self.snapshot_bytes = 0
        self.accesses = 0
        self.arrivals = 0
        self.rounds = {"deliveries": 0, "dropped": 0, "undelivered": 0, "timeouts": 0, "virtual_s": 0.0}

    def hooks(self) -> dict:
        return {
            "workload.traffic_stream": self.on_traffic_stream,
            "epoch.run_epoch": self.on_run_epoch,
            "epoch.run_simulation": self.on_run_simulation,
            "store.MemoryStore.commit": self.on_commit,
            "workload.step_interaction": self.on_step,
            "workload.make_arrivals": self.on_arrivals,
            "consensus.run_round": self.on_round,
        }

    def on_traffic_stream(self, args, result, elapsed):
        self.marks["setup_end"] = mark()
        if self.setup_only:
            raise SetupDone

    def on_run_epoch(self, args, result, elapsed):
        self.epoch_s.append(elapsed)
        self.store, self.net = args[0], args[4]
        self.epoch_interactions = args[3].epoch_interactions

    def on_run_simulation(self, args, result, elapsed):
        self.marks["sim_end"] = mark()

    def on_commit(self, args, result, elapsed):
        path = args[0].snapshot_path
        if path is not None:
            self.snapshot_bytes += os.path.getsize(path)

    def on_step(self, args, result, elapsed):
        self.accesses += len(result.access_ids)

    def on_arrivals(self, args, result, elapsed):
        self.arrivals += len(result)

    def on_round(self, args, result, elapsed):
        self.rounds["deliveries"] += result.deliveries
        self.rounds["dropped"] += result.dropped
        self.rounds["undelivered"] += result.undelivered
        self.rounds["timeouts"] += not result.decided
        self.rounds["virtual_s"] += result.elapsed_virtual_s

    def counters(self) -> dict:
        out: dict = {
            "epoch_interactions": self.epoch_interactions,
            "snapshot_bytes": self.snapshot_bytes,
            "accesses": self.accesses,
            "arrivals": self.arrivals,
            "rounds": self.rounds,
        }
        if self.store is not None:
            store = self.store
            out["store"] = {
                "hits": store.hits,
                "misses": store.misses,
                "flushes": store.size_flushes + store.time_flushes + store.forced_flushes,
                "upserts": store.index.upsert_calls,
            }
        if self.net is not None:
            out["net"] = {"delivered": self.net.delivered, "dropped": self.net.dropped}
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("run_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    run_args = args.run_args[1:] if args.run_args[:1] == ["--"] else args.run_args

    sys.path.insert(0, args.src)
    package = importlib.import_module("coforget")
    modules = {name: importlib.import_module(f"coforget.{name}") for name in MODULES}

    recorder = Recorder(args.setup_only)
    tracer = Tracer()
    tracer.hooks.update(recorder.hooks())
    if args.trace:
        targets: dict = {}
        for name, module in modules.items():
            targets.update(public_callables(name, module))
    else:
        targets = {
            "workload.traffic_stream": (modules["workload"], "traffic_stream"),
            "epoch.run_epoch": (modules["epoch"], "run_epoch"),
            "epoch.run_simulation": (modules["epoch"], "run_simulation"),
        }
    tracer.install({"coforget": package, **modules}, targets)

    try:
        code = modules["cli"].main(["run", *run_args])
    except SetupDone:
        code = 0
    recorder.marks["run_end"] = mark()

    result = {
        "exit_code": code,
        "marks": recorder.marks,
        "epoch_s": recorder.epoch_s,
        "counters": recorder.counters(),
    }
    if args.trace:
        result["spans"] = {name: asdict(s) for name, s in tracer.stats.items() if s.calls}
    with open(args.marks, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
