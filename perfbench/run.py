"""Benchmark of the `coforget run` path on three workloads.

    python3 perfbench/run.py --workload long_horizon --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. Each measured run is a fresh, single-threaded
`coforget run` process (perfbench/child.py) with BLAS and OpenMP capped at
THREAD_CAP threads, started one after another: a closed loop with one client,
because the simulator waits on itself. Messages between agents carry the
simulator's virtual 1-5 ms latency, so wall time is CPU work only.

--trace 0 repeats full runs while the next one should still end within
--seconds (at least MIN_REPEATS) and reports the end-to-end metrics. --trace 1 makes one untraced
and one traced run and reports per-layer metrics from the traced one. Every run
is checked (checks.py); the repeats of one invocation must have byte-identical
outputs. The last line of stdout is the JSON result; the line before it holds
the details (fingerprints, summary figures, environment). perfbench/README.md
documents the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import SUMMARY_FIGURES, RunCheck, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPEATS = 4
MIN_SETUPS = 5
# A child still running when its invocation has used this much time is killed.
INVOCATION_BUDGET_S = 170.0
# Tail percentiles, per mille; the tail metric uses the highest one that
# leaves TAIL_BEYOND of a workload's epochs above it.
TAIL_LADDER = (999, 995, 990, 980, 950, 900, 800, 750, 500)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """A scenario preset, the epochs per run, and the map from --seed to the run seed."""

    scenario: str
    epochs: int
    seed_stride: int
    seed_offset: int

    def seed(self, n: int) -> int:
        return self.seed_stride * n + self.seed_offset


# byzantine_f1 picks the fault kind by seed parity, so long_horizon always gets
# an even seed (silent planner-2) and forget_storm an odd one (equivocating).
WORKLOADS = {
    "long_horizon": Workload("byzantine_f1", 100, 2, 0),
    "forget_storm": Workload("byzantine_f1", 100, 2, 1),
    "hot_reads": Workload("cache_profile", 60, 1, 0),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "epoch_ms_p50": "ms",
    "epoch_ms_tail": "ms",
    "memories_scored_per_s": "1/s",
    "decisions_per_s": "1/s",
    "interactions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "consensus_decided_share": "ratio",
}

PER_LAYER = {
    "workload.corpus_s": "s",
    "workload.traffic_s": "s",
    "workload.accesses": "count",
    "workload.arrivals": "count",
    "store.gets": "count",
    "store.get_s": "s",
    "store.hit_rate": "ratio",
    "store.flushes": "count",
    "store.upserts": "count",
    "store.scan_s": "s",
    "store.commit_s": "s",
    "store.snapshot_bytes": "bytes",
    "store.put_s": "s",
    "store.delete_s": "s",
    "decay.calls": "count",
    "decay.s": "s",
    "relevance.calls": "count",
    "relevance.s": "s",
    "relevance.memo_hit_ratio": "ratio",
    "voting.calls": "count",
    "voting.s": "s",
    "voting.proposal_ratio": "ratio",
    "epoch.self_s": "s",
    "transport.propose_calls": "count",
    "transport.propose_s": "s",
    "transport.msgs_submitted": "count",
    "transport.msgs_delivered": "count",
    "transport.msgs_dropped": "count",
    "transport.net_s": "s",
    "transport.fault_s": "s",
    "transport.self_s": "s",
    "consensus.rounds": "count",
    "consensus.round_self_s": "s",
    "consensus.finalize_s": "s",
    "consensus.self_s": "s",
    "consensus.msgs_per_round": "count",
    "consensus.dropped_per_round": "count",
    "consensus.undelivered_per_round": "count",
    "consensus.timeouts": "count",
    "consensus.virtual_ms_per_round": "ms",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def clock() -> float:
    """CLOCK_MONOTONIC, the clock child.py stamps its marks with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail_permille(samples: int) -> int:
    """The highest ladder percentile with at least TAIL_BEYOND samples above it."""
    for permille in TAIL_LADDER:
        rank = -(-permille * samples // 1000)
        if samples - rank >= TAIL_BEYOND:
            return permille
    raise ValueError(f"{samples} samples leave no percentile with {TAIL_BEYOND} beyond it")


def percentile(values: list[float], permille: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-permille * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


@dataclass
class ChildRun:
    """One child process: what it reported, how its outputs checked, its peak RSS."""

    exit_code: int
    setup_s: float = math.nan
    run_s: float = math.nan
    traffic_s: float = math.nan
    write_s: float = math.nan
    rss_mb: float = math.nan
    epoch_s: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    check: RunCheck = field(default_factory=RunCheck)

    @property
    def proposed(self) -> int:
        return int(self.check.total("proposed")) if self.check.rows else 0


def run_child(
    name: str, seed: int, deadline: float, *, trace: bool = False, setup_only: bool = False
) -> ChildRun:
    """Start one child, wait for it (killing it at `deadline`), and check what it wrote."""
    workload = WORKLOADS[name]
    out_dir = WORK / "run"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    marks_path = out_dir / "marks.json"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--src",
        str(SRC),
        "--marks",
        str(marks_path),
        *(["--trace"] if trace else []),
        *(["--setup-only"] if setup_only else []),
        "--",
        "--scenario",
        workload.scenario,
        "--config",
        str(HERE / "workloads" / f"{name}.cfg"),
        "--epochs",
        str(workload.epochs),
        "--seed",
        str(seed),
        "--out",
        str(out_dir),
    ]
    env = {**os.environ, **{var: str(THREAD_CAP) for var in THREAD_VARS}, "PYTHONHASHSEED": "0"}
    with open(out_dir / "child.log", "wb") as log:
        start = clock()
        proc = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = ChildRun(exit_code=proc.returncode, rss_mb=usage.ru_maxrss / 1024.0)
    if child.exit_code != 0 or not marks_path.is_file():
        log_tail = (out_dir / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        child.check.problems.append(f"child exited with {child.exit_code}: {log_tail}")
        return child

    report = json.loads(marks_path.read_text(encoding="utf-8"))
    marks = report["marks"]
    child.setup_s = marks["setup_end"] - start
    child.run_s = marks["run_end"] - start
    child.counters = report["counters"]
    child.spans = report.get("spans", {})
    if not setup_only:
        child.epoch_s = report["epoch_s"]
        child.traffic_s = marks["sim_end"] - marks["setup_end"] - sum(child.epoch_s)
        child.write_s = marks["run_end"] - marks["sim_end"]
        child.check = check_outputs(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return child


def flag_fingerprint_mismatches(children: list[ChildRun]) -> None:
    """Every run of one invocation must write byte-identical outputs."""
    reference = children[0].check.fingerprint
    for i, child in enumerate(children[1:], start=1):
        differing = sorted(k for k in reference if child.check.fingerprint.get(k) != reference[k])
        if differing:
            child.check.problems.append(f"run {i} outputs differ from run 0 in {differing}")


def end_to_end(children: list[ChildRun], setups: list[float], name: str) -> tuple[dict, dict]:
    """Medians over repeats; epoch percentiles over the workload's distinct epochs.

    Each epoch index gets the median of its durations across repeats, so a
    slow stretch in one repeat does not move the tail.
    """
    workload = WORKLOADS[name]
    per_epoch = [statistics.median(c.epoch_s[i] for c in children) for i in range(workload.epochs)]
    permille = tail_permille(workload.epochs)
    decided = children[0].check.total("consensus_reached")
    proposed = children[0].proposed
    interactions = workload.epochs * children[0].counters["epoch_interactions"]

    def per_run(rate) -> float:
        return statistics.median(rate(c) for c in children)

    values = {
        "setup_s": statistics.median(setups),
        "run_s": per_run(lambda c: c.run_s),
        "epoch_ms_p50": statistics.median(per_epoch) * 1000.0,
        "epoch_ms_tail": percentile(per_epoch, permille) * 1000.0,
        "memories_scored_per_s": per_run(lambda c: c.check.total("memories_start") / sum(c.epoch_s)),
        "decisions_per_s": per_run(lambda c: decided / sum(c.epoch_s)),
        "interactions_per_s": per_run(lambda c: interactions / c.traffic_s),
        "peak_rss_mb": per_run(lambda c: c.rss_mb),
        "consensus_decided_share": decided / proposed,
    }
    detail = {
        "runs": len(children),
        "setup_samples": len(setups),
        "epochs_per_run": workload.epochs,
        "epoch_tail_percentile": permille / 10.0,
        "consensus_timeout_share": 1.0 - decided / proposed,
        "write_s_median": per_run(lambda c: c.write_s),
        "run_s_all": [c.run_s for c in children],
        "setup_s_all": setups,
    }
    return values, detail


def per_layer(traced: ChildRun, plain: ChildRun) -> tuple[dict, dict]:
    spans = traced.spans

    def total(*names: str) -> float:
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def self_time(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def calls(*names: str) -> int:
        return sum(spans[n]["calls"] for n in names if n in spans)

    def module(prefix: str) -> list[str]:
        return [n for n in spans if n.startswith(prefix + ".")]

    counters = traced.counters
    store = counters["store"]
    rounds = counters["rounds"]
    n_rounds = calls("consensus.run_round")
    scored = traced.check.total("memories_start")
    net = ("transport.SimulatedNetwork.submit", "transport.SimulatedNetwork.poll", "transport.SimulatedNetwork.drain")
    values = {
        "workload.corpus_s": total("workload.generate_initial"),
        "workload.traffic_s": self_time(
            "workload.step_interaction", "workload.make_arrivals", "workload.ZipfSampler.sample"
        ),
        "workload.accesses": counters["accesses"],
        "workload.arrivals": counters["arrivals"],
        "store.gets": calls("store.MemoryStore.get"),
        "store.get_s": total("store.MemoryStore.get"),
        "store.hit_rate": store["hits"] / max(store["hits"] + store["misses"], 1),
        "store.flushes": store["flushes"],
        "store.upserts": store["upserts"],
        "store.scan_s": total("store.MemoryStore.scan_t_last"),
        "store.commit_s": total("store.MemoryStore.commit"),
        "store.snapshot_bytes": counters["snapshot_bytes"],
        "store.put_s": total("store.MemoryStore.put"),
        "store.delete_s": total("store.MemoryStore.delete"),
        "decay.calls": calls("decay.decay_score"),
        "decay.s": total("decay.decay_score"),
        "relevance.calls": calls("relevance.relevance"),
        "relevance.s": total("relevance.relevance"),
        "relevance.memo_hit_ratio": 1.0 - calls("relevance.relevance") / scored,
        "voting.calls": calls(*module("voting")),
        "voting.s": self_time(*module("voting")),
        "voting.proposal_ratio": traced.check.total("proposed") / scored,
        "epoch.self_s": self_time("epoch.run_epoch"),
        "transport.propose_calls": calls("transport.propose_forgetting"),
        "transport.propose_s": total("transport.propose_forgetting"),
        "transport.msgs_submitted": calls("transport.SimulatedNetwork.submit"),
        "transport.msgs_delivered": counters["net"]["delivered"],
        "transport.msgs_dropped": counters["net"]["dropped"],
        "transport.net_s": self_time(*net),
        "transport.fault_s": total("transport.resolve_behavior"),
        "transport.self_s": self_time(*module("transport")),
        "consensus.rounds": n_rounds,
        "consensus.round_self_s": self_time("consensus.run_round"),
        "consensus.finalize_s": total("consensus.finalize"),
        "consensus.self_s": self_time(*module("consensus")),
        "consensus.msgs_per_round": rounds["deliveries"] / max(n_rounds, 1),
        "consensus.dropped_per_round": rounds["dropped"] / max(n_rounds, 1),
        "consensus.undelivered_per_round": rounds["undelivered"] / max(n_rounds, 1),
        "consensus.timeouts": rounds["timeouts"],
        "consensus.virtual_ms_per_round": rounds["virtual_s"] * 1000.0 / max(n_rounds, 1),
        "cli.write_s": total("cli.cmd_run") - total("epoch.run_simulation"),
        "cli.output_bytes": traced.check.output_bytes,
        "trace.overhead_s": traced.run_s - plain.run_s,
        "trace.coverage": sum(s["self_s"] for s in spans.values()) / traced.run_s,
    }
    run_s = traced.run_s
    shares = {
        "scoring": values["epoch.self_s"] + values["decay.s"] + values["voting.s"],
        "relevance": values["relevance.s"],
        "consensus_transport": values["consensus.self_s"] + values["transport.self_s"],
        "store_get_traffic": values["store.get_s"] + values["workload.traffic_s"],
        "snapshot_commit": values["store.commit_s"],
        "output_write": values["cli.write_s"],
    }
    detail = {
        "traced_run_s": run_s,
        "untraced_run_s": plain.run_s,
        "shares": {k: v / run_s for k, v in shares.items()},
        "self_s_by_module": {
            prefix: self_time(*module(prefix))
            for prefix in sorted({n.split(".", 1)[0] for n in spans})
        },
    }
    return values, detail


def environment() -> dict:
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "coforget").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_thread_cap": THREAD_CAP,
        "machine": platform.machine(),
    }


def bench(name: str, seed_arg: int, seconds: float, trace: bool) -> dict:
    """One invocation on one workload; returns the result plus its details."""
    seed = WORKLOADS[name].seed(seed_arg)
    deadline = clock() + INVOCATION_BUDGET_S
    warm = run_child(name, seed, deadline, setup_only=True)  # compiles bytecode; not measured
    if warm.exit_code != 0:
        raise RuntimeError(f"{name}: set-up failed: {warm.check.problems}")

    if trace:
        plain = run_child(name, seed, deadline)
        traced = run_child(name, seed, deadline, trace=True)
        children = [plain, traced]
    else:
        children = []
        # Start another run only while it should end within --seconds, judging
        # by the slowest run so far.
        began = clock()
        slowest = 0.0
        while len(children) < MIN_REPEATS or clock() - began + slowest <= seconds:
            started = clock()
            children.append(run_child(name, seed, deadline))
            slowest = max(slowest, clock() - started)

    flag_fingerprint_mismatches(children)
    problems = [p for c in children for p in c.check.problems]
    # An operation is one consensus instance; a run that fails a check fails
    # all of its instances.
    attempted = sum(max(c.proposed, 1) for c in children)
    failed = sum(max(c.proposed, 1) for c in children if c.check.problems)
    detail: dict = {
        "workload": name,
        "seed": seed_arg,
        "workload_seed": seed,
        "trace": int(trace),
        "problems": problems[:20],
        "fingerprint": children[0].check.fingerprint,
        "summary": {k: children[0].check.summary.get(k) for k in SUMMARY_FIGURES},
        "environment": environment(),
    }
    metrics: dict = {}
    if all(c.exit_code == 0 and c.check.rows for c in children):
        if trace:
            values, extra = per_layer(traced, plain)
            units = PER_LAYER
            detail["environment"]["trace_overhead_s"] = values["trace.overhead_s"]
        else:
            setups = [c.setup_s for c in children]
            while len(setups) < MIN_SETUPS:
                probe = run_child(name, seed, deadline, setup_only=True)
                if probe.exit_code != 0:
                    raise RuntimeError(f"{name}: set-up failed: {probe.check.problems}")
                setups.append(probe.setup_s)
            values, extra = end_to_end(children, setups, name)
            units = END_TO_END
        detail.update(extra)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {
        "result": {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics},
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coforget" / "__init__.py").is_file():
        print(f"perfbench: no coforget sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = bench(name, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "run", ignore_errors=True)

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name, outcome in outcomes.items():
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for metric, entry in outcome["result"]["metrics"].items():
            print(f"{name:14s} {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
        for problem in outcome["detail"]["problems"]:
            print(f"{name}: FAILED CHECK: {problem}")

    if len(names) == 1:
        outcome = outcomes[names[0]]
        print(json.dumps(outcome["detail"], sort_keys=True))
        print(json.dumps(outcome["result"]))
    else:
        results = [o["result"] for o in outcomes.values()]
        combined = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": entry
                for name, o in outcomes.items()
                for metric, entry in o["result"]["metrics"].items()
            },
        }
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
