"""One workload in its own process: set up, run rounds for a fixed time, check, report.

Started by ``run.py``; writes its result as JSON to ``--result``. With
``--setup-only`` it stops after set-up, so the parent can take several set-up
samples. Set-up time counts from the top of this file: importing numpy and the
package, warming the model cache and generating the inputs.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory, removed at exit")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Round(NamedTuple):
    seconds: float
    lo: int  # the round's spans are tracer.spans[lo:hi]
    hi: int
    produced: object  # workloads.Produced
    traced: bool


def _round(workloads, inputs, ops, checks, fractions, index, tracer=None) -> Round:
    """One timed round, then its checks, untimed."""
    round_dir = inputs.work / f"round-{index}"
    out = workloads.RoundOutput()
    if tracer is not None:
        tracer.install()
        ops.tracer = tracer
    lo = len(tracer.spans) if tracer else 0
    try:
        began = time.perf_counter()
        workloads.run_round(inputs, ops, index, out, round_dir)
        elapsed = time.perf_counter() - began
    finally:
        if tracer is not None:
            tracer.uninstall()
            ops.tracer = None
    hi = len(tracer.spans) if tracer else 0
    produced = workloads.check_round(inputs, out, checks, fractions, first=index == 0)
    shutil.rmtree(round_dir, ignore_errors=True)
    return Round(elapsed, lo, hi, produced, tracer is not None)


def _run_rounds(workloads, inputs, ops, checks, fractions, seconds, tracer=None):
    """A warm-up round, then rounds until ``seconds`` have passed; at least one.

    The warm-up round fills caches and memory pools, and its checks rerun every
    command; its timings are dropped. With a tracer, every other round is
    traced, so that traced and untraced rounds sample the same stretch of the
    host's speed.
    """
    _round(workloads, inputs, ops, checks, fractions, 0)
    ops.samples.clear()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        index = len(rounds) + 1
        traced = tracer if index % 2 == 0 else None
        rounds.append(_round(workloads, inputs, ops, checks, fractions, index, traced))
    return rounds


def _end_to_end(ops, rounds, probes):
    samples = ops.samples
    median = statistics.median
    trajectory_ms = median(samples["trajectory_ms"])
    return {
        "run_s": median(r.seconds for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": (ops.attempted - ops.failed) / ops.attempted,
        # the median trajectory's rate: a ratio of totals follows the host's bursts
        "probes_per_s": probes / trajectory_ms * 1e3,
        "trajectory_ms.p50": trajectory_ms,
        "trajectory_ms.p90": statistics.quantiles(samples["trajectory_ms"], n=10, method="inclusive")[-1],
        "interfere_s": median(samples["interfere_s"]),
        "twisted_s": median(samples["twisted_s"]),
        "small_cmds_s": median(samples["small_cmds_s"]),
        "certify_small_s": median(samples["certify_small_s"]),
        "certify_large_s": median(samples["certify_large_s"]),
    }


def _layer_metrics(tracer, lo, hi, produced):
    """Per-layer numbers of one traced round."""
    p = tracer.profile(lo, hi)
    stream = "interferometer.simulate_stream"
    trials = p.calls["gates.sample_twisted"]
    cli_self = p.layer_self("cli")
    return {
        "interferometer.simulate_stream.self_s": p.self_time[stream],
        "interferometer.ns_per_probe": p.total[stream] / p.counts[stream] * 1e9,
        "interferometer.p_factor.calls": p.calls["interferometer.p_factor"],
        "interferometer.asymptotic_measure.self_s": p.self_time["interferometer.asymptotic_measure"],
        "interferometer.outcome_distribution.self_s": p.self_time["interferometer.outcome_distribution"],
        "interferometer.self_s": p.layer_self("interferometer"),
        "model.build_model.calls": p.calls["model.build_model"],
        "model.build_model.self_s": p.self_time["model.build_model"],
        "model.verify_consistency.self_s": p.self_time["model.verify_consistency"],
        "model.load_model.self_s": p.self_time["model.load_model"],
        "model.axiom_instances": p.counts["model.verify_consistency"],
        "model.ns_per_axiom_instance":
            p.total["model.verify_consistency"] / p.counts["model.verify_consistency"] * 1e9,
        "surgery.twisted_operator.calls": p.calls["surgery.twisted_operator"],
        "surgery.twisted_operator.calls_per_trial":
            tracer.calls_within(lo, hi, "surgery.twisted_operator", "gates.sample_twisted") / trials,
        "surgery.modular_matrices.self_s": p.self_time["surgery.modular_matrices"],
        "surgery.self_s": p.layer_self("surgery"),
        "gates.sample_twisted.calls": trials,
        "gates.us_per_twisted_trial": p.total["gates.sample_twisted"] / trials * 1e6,
        "gates.self_s": p.layer_self("gates"),
        "rng.generator.calls": p.calls["rng.generator"],
        "rng.generator.self_s": p.self_time["rng.generator"],
        "cli.self_s": cli_self,
        "cli.artifact_bytes": produced.artifact_bytes,
        "cli.jsonl_records": produced.jsonl_records,
        "cli.artifact_mb_per_s": produced.artifact_bytes / 1e6 / cli_self,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    work = Path(args.work)
    try:
        import workloads

        inputs = workloads.setup(args.workload, args.seed, args.smoke, work)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
            return 0
        import numpy as np
        import topoprobe
        from checks import Checks, check_bands
        from run import THREADS
        from tracer import Tracer

        ops = workloads.Operations()
        checks = Checks()
        fractions = []
        if args.trace:
            tracer = Tracer()
            rounds = _run_rounds(workloads, inputs, ops, checks, fractions, args.seconds, tracer)
            traced = [r for r in rounds if r.traced]
            per_round = [_layer_metrics(tracer, r.lo, r.hi, r.produced) for r in traced]
            metrics = {name: statistics.median_low(r[name] for r in per_round) for name in per_round[0]}
            metrics["trace.overhead_frac"] = (
                statistics.median(r.seconds for r in traced)
                / statistics.median(r.seconds for r in rounds if not r.traced)
                - 1.0
            )
            if args.spans:
                tracer.write(args.spans)
        else:
            rounds = _run_rounds(workloads, inputs, ops, checks, fractions, args.seconds)
            metrics = _end_to_end(ops, rounds, inputs.sizes.probes)
        check_bands(checks, fractions)

        result = {
            "setup_s": setup_s,
            "metrics": metrics,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "errors": dict(ops.errors),
            "checks": checks.results,
            "correct": checks.passed,
            "rounds": len(rounds),
            "samples": dict(ops.samples),
            "round_s": [r.seconds for r in rounds],
            "provenance": {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "sizes": dataclasses.asdict(inputs.sizes),
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "topoprobe": topoprobe.__version__,
                "machine": platform.machine(),
                "threads": {name: os.environ.get(name) for name in THREADS},
            },
        }
        Path(args.result).write_text(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
