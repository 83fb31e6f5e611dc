"""Command-line entry point: validate configs, run scenarios, emit reports.

    coforget run --scenario byzantine_f1 --epochs 100 --seed 7 --out results/
    coforget validate my-run.cfg

Each run writes report.json (the run summary and baseline footprints),
epochs.csv (one row of numeric columns per epoch), audit.jsonl (one line per
per-memory consensus record) and metadata.csv (the store's final persisted
snapshot), so each epoch row and audit entry has one home. The summary's
pbft_success_rate is the share of epochs.csv rows with consensus_failed == 0.
Identical config and seed produce byte-identical outputs. Exit codes: 0
success, 2 config error (argparse usage errors included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .core import (
    ConfigError,
    FaultKind,
    FaultProfile,
    ProtocolConfig,
    _typed_items,
    config_violations,
    parse_config_text,
    spec_from_items,
    validate_roster,
)
from .epoch import EpochReport, SimulationResult, run_simulation
from .transport import NetworkConfig
from .workload import WorkloadSpec, default_agents, horizon_problem

SCENARIOS = ("baseline_no_faults", "byzantine_f1", "cache_profile", "custom")

# byzantine_f1 models a lossy network alongside the faulty agent. The
# per-epoch pbft_success_rate this rate gives falls with proposal volume:
# 0.93 on the default workload at seed 0 (about 12 rounds per epoch), 0.55
# on perfbench's forget_storm (about 74).
BYZANTINE_DROP_PROB = 0.0065

# cache_profile steepens access skew so the hot set fits the 100-item cache.
CACHE_PROFILE_SKEW = 1.3

_FAULTY_AGENT = "planner-2"


def _read_config_file(path: Path) -> dict:
    """Parse a UTF-8 config file; a leading byte order mark is dropped."""
    try:
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {path} (byte {exc.start})") from None
    return parse_config_text(text)


def _split_namespaces(items: dict) -> tuple[dict, dict, dict]:
    """Bare keys configure the protocol; workload./network. feed those specs."""
    protocol: dict = {}
    workload: dict = {}
    network: dict = {}
    for key, value in items.items():
        if key.startswith("workload."):
            workload[key[len("workload.") :]] = value
        elif key.startswith("network."):
            network[key[len("network.") :]] = value
        elif "." in key:
            raise ConfigError(f"unknown config namespace in key {key!r}")
        else:
            protocol[key] = value
    return protocol, workload, network


def _compose_run(
    scenario: str,
    seed: int,
    file_items: tuple[dict, dict, dict],
    epochs: int,
) -> tuple[ProtocolConfig, WorkloadSpec, NetworkConfig, tuple]:
    """Scenario preset, overlaid by the config file, stamped with the run seed.

    The run seed wins over any seed keys in the file so --seeds sweeps stay
    meaningful; everything else in the file overrides the preset. Every
    problem with the result, the fault bound on the scenario's roster and
    the clock horizon of an `epochs`-epoch run included, is raised in one
    ConfigError, one problem per line, in the file's key order whatever the
    preset.
    """
    protocol, workload, network = (dict(items) for items in file_items)
    faults: dict[str, FaultProfile] = {}
    if scenario == "byzantine_f1":
        kind = FaultKind.SILENT_HALF if seed % 2 == 0 else FaultKind.EQUIVOCATE_HALF
        faults[_FAULTY_AGENT] = FaultProfile(kind=kind, coin_seed=seed)
        network.setdefault("drop_prob", BYZANTINE_DROP_PROB)
    elif scenario == "cache_profile":
        workload.setdefault("access_skew", CACHE_PROFILE_SKEW)
    workload["seed"] = seed
    network["seed"] = seed

    # The protocol's range checks and fault bound judge its well-typed keys.
    typed, problems = _typed_items(ProtocolConfig, protocol)
    rejected = protocol.keys() - typed.keys()
    cfg = ProtocolConfig(**typed)
    problems.extend(message for _, message in config_violations(cfg, rejected))

    def build(make, *args):
        try:
            return make(*args)
        except ConfigError as exc:
            problems.append(str(exc))
            return None

    agents = default_agents(faults)
    build(validate_roster, cfg, agents)
    spec = build(spec_from_items, WorkloadSpec, workload, "workload.")
    net_cfg = build(spec_from_items, NetworkConfig, network, "network.")
    # The horizons are judged only once the workload and epoch_interactions
    # are valid; a rejected network config is judged at 0 ms, which cannot overflow.
    judged = spec is not None and "epoch_interactions" not in rejected and cfg.epoch_interactions >= 1
    latency_max_ms = net_cfg.latency_max_ms if net_cfg is not None else 0.0
    if judged and (problem := horizon_problem(spec, cfg.epoch_interactions, epochs, latency_max_ms)):
        problems.append(problem)
    if problems:
        raise ConfigError("\n".join(problems))
    return cfg, spec, net_cfg, agents


def _write_outputs(out_dir: Path, scenario: str, seed: int, epochs: int, result: SimulationResult) -> None:
    report = {
        "scenario": scenario,
        "seed": seed,
        "epochs_requested": epochs,
        "summary": vars(result.summary),
        "baseline_footprints": result.baseline_footprints,
    }
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    numeric_columns = [f.name for f in dataclasses.fields(EpochReport) if f.name != "per_memory_audit"]
    with open(out_dir / "epochs.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(numeric_columns)
        for r in result.reports:
            writer.writerow([getattr(r, column) for column in numeric_columns])

    with open(out_dir / "audit.jsonl", "w", encoding="utf-8") as handle:
        for r in result.reports:
            for entry in r.per_memory_audit:
                line = {"epoch_index": r.epoch_index, **vars(entry), "votes": dict(entry.votes)}
                handle.write(json.dumps(line, sort_keys=True) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.seeds is not None and args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if args.scenario == "custom" and args.config is None:
        raise ConfigError("scenario 'custom' requires --config")
    file_items = _split_namespaces(_read_config_file(args.config)) if args.config else ({}, {}, {})

    for seed in range(args.seed, args.seed + (args.seeds or 1)):
        _run_seed(args, seed, file_items, args.out / f"seed-{seed}" if args.seeds else args.out)
    return 0


def _run_seed(args: argparse.Namespace, seed: int, file_items: tuple[dict, dict, dict], out_dir: Path) -> None:
    """Run one seed and write its outputs.

    The run's result lives only in this frame, so a sweep frees each seed's
    history before the next seed starts.
    """
    cfg, spec, net_cfg, agents = _compose_run(args.scenario, seed, file_items, args.epochs)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_simulation(
        cfg,
        spec,
        args.epochs,
        agents=agents,
        net_cfg=net_cfg,
        snapshot_path=out_dir / "metadata.csv",
    )
    _write_outputs(out_dir, args.scenario, seed, args.epochs, result)
    summary = result.summary
    print(
        f"scenario={args.scenario} seed={seed} epochs={args.epochs} "
        f"footprint_reduction={summary.footprint_reduction:.4f} "
        f"pbft_success={summary.pbft_success_rate:.4f} "
        f"cache_hit_rate={summary.cache_hit_rate:.4f} -> {out_dir}"
    )


def cmd_validate(args: argparse.Namespace) -> int:
    """Check a file the way `run --scenario custom` does, listing every problem.

    With no epoch count, the clock horizon is checked for one epoch.
    """
    file_items = _split_namespaces(_read_config_file(args.config))
    try:
        _compose_run("custom", 0, file_items, 1)
    except ConfigError as exc:
        print(exc)
        return 2
    print(f"config valid: {args.config}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coforget",
        description="Deterministic simulator for consensus-gated collective forgetting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation scenario and write reports")
    run.add_argument("--scenario", choices=SCENARIOS, default="baseline_no_faults")
    run.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    run.add_argument("--epochs", type=int, default=100)
    run.add_argument("--seed", type=int, default=0, help="run seed; overrides seed keys in the config file")
    run.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="K",
        help="run K seeds (seed..seed+K-1), one sibling output directory each",
    )
    run.add_argument("--out", type=Path, default=Path("coforget-out"))

    validate = sub.add_parser("validate", help="check a config file and list every violation")
    validate.add_argument("config", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
