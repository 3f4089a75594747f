"""topoprobe benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in its own single-threaded
process (BLAS and OpenMP pinned to one thread), after several set-up-only
processes that sample set-up time. The report names every metric with its
unit, the correctness checks and the provenance; the last line of standard
output is the JSON result. The exit code is 0 when every check passed, 1 when
one failed and 2 when the benchmark could not run at all (for example in a
directory without the package sources).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole command ends within this, including set-up samples

THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _worker(args, tag: str, deadline: float, setup_only: bool = False) -> dict:
    RUN_DIR.mkdir(exist_ok=True)
    result = RUN_DIR / f"result-{args.workload}-{tag}-{os.getpid()}.json"
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(RUN_DIR / f"work-{args.workload}-{tag}-{os.getpid()}"),
        "--result", str(result),
    ]
    if args.trace:
        command += ["--spans", str(RUN_DIR / f"spans-{args.workload}.jsonl")]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    env = {**os.environ, **THREADS, "PYTHONHASHSEED": "0"}
    remaining = max(deadline - time.monotonic(), 1.0)
    # stdout goes to stderr so that the last line of our own stdout stays the result
    completed = subprocess.run(command, env=env, stdout=sys.stderr, timeout=remaining)
    if completed.returncode != 0:
        raise RuntimeError(f"worker exited with code {completed.returncode}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def _report(args, result, setup_samples):
    print(f"topoprobe benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' smoke' if args.smoke else ''}")
    for key, value in result["provenance"].items():
        print(f"  {key}: {value}")
    counts = {name: len(values) for name, values in result["samples"].items()}
    print(f"rounds: {result['rounds']}; samples per metric: {counts}")
    if setup_samples:
        print(f"setup samples (s): {[round(x, 4) for x in setup_samples]}")
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {spec.UNITS[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ops_frac':<44} {failed / attempted:>16.6g} {spec.UNITS['failed_ops_frac']} "
          f"({failed} failed of {attempted} attempted)")
    for label, count in result["errors"].items():
        print(f"  failed x{count}: {label}")
    print("checks:")
    for name, verdict in result["checks"].items():
        print(f"  {name:<44} {verdict}")


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "topoprobe" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    try:
        setup_samples = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setup_samples.append(_worker(args, f"setup{k}", deadline, setup_only=True)["setup_s"])
        result = _worker(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    metrics = result["metrics"]
    if not args.trace:
        setup_samples.append(result["setup_s"])
        metrics = {"setup_s": statistics.median(setup_samples), **metrics}
    result["metrics"] = metrics
    result["setup_samples"] = setup_samples
    saved = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps(result))
    _report(args, result, setup_samples)
    names = [m[0] for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": spec.UNITS[name]} for name in names},
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
