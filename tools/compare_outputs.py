"""Check that a revision and the working tree write byte-identical outputs.

    python tools/compare_outputs.py --parent HEAD~1
    python tools/compare_outputs.py --parent main --seed 0 1 2 4242

REV's `src/` is exported with `git archive` into a temporary directory, so
neither `.git` nor the working tree changes. For each workload in
perfbench/run.py's WORKLOADS and each --seed n, `python -m coforget run` runs
with the workload's preset, perfbench/workloads/<name>.cfg, its epoch count and
its run seed for n, once with REV's `src/` and once with the working tree's
`src/` on PYTHONPATH. The four output files are compared by perfbench/checks.py's
fingerprint. Each file that differs is printed. Exit codes: 0 every file
identical, 1 a file differs or a run failed, 2 REV is not a commit.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Load perfbench's modules without leaving bytecode under perfbench/.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py imports checks by its bare name; dataclasses resolve their module through sys.modules.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
WORKLOADS = _load("run").WORKLOADS


def export_src(rev: str, dest: Path) -> Path:
    """Extract REV's src/ under dest with `git archive REV src | tar -x`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return dest / "src"


def run_workload(src: Path, name: str, seed: int, out_dir: Path) -> str | None:
    """Run one workload with `src` on the path; return None or the failure's stderr."""
    workload = WORKLOADS[name]
    command = [
        sys.executable,
        "-m",
        "coforget",
        "run",
        "--scenario",
        workload.scenario,
        "--config",
        str(PERFBENCH / "workloads" / f"{name}.cfg"),
        "--epochs",
        str(workload.epochs),
        "--seed",
        str(seed),
        "--out",
        str(out_dir),
    ]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else proc.stderr.strip() or f"exit code {proc.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="the revision to compare against")
    parser.add_argument("--seed", type=int, nargs="+", default=[0], help="perfbench --seed values (default 0)")
    args = parser.parse_args(argv)

    verify = ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{args.parent}^{{commit}}"]
    if subprocess.run(verify, capture_output=True).returncode != 0:
        print(f"not a commit: {args.parent}", file=sys.stderr)
        return 2

    start = time.monotonic()
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        trees = {"parent": export_src(args.parent, work), "tree": ROOT / "src"}
        for name in WORKLOADS:
            for n in args.seed:
                seed = WORKLOADS[name].seed(n)
                label = f"{name} --seed {n} (run seed {seed})"
                prints = {}
                for side, src in trees.items():
                    out_dir = work / side / f"{name}-{n}"
                    if failure := run_workload(src, name, seed, out_dir):
                        print(f"{label}: {side} run failed: {failure}")
                        break
                    prints[side] = checks.fingerprint(out_dir)
                else:
                    changed = [f for f in checks.OUTPUT_FILES if prints["parent"][f] != prints["tree"][f]]
                    for file_name in changed:
                        print(f"{label}: {file_name} differs")
                    if not changed:
                        print(f"{label}: identical")
                        continue
                differing += 1
    verdict = "identical" if differing == 0 else f"{differing} differing or failed"
    print(f"{len(WORKLOADS) * len(args.seed)} workload runs {verdict} in {time.monotonic() - start:.1f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
