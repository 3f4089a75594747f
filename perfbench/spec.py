"""Names, units and bounds of the benchmark, and the BENCHMARK.json they make.

This table is the single source for the metric names: the worker emits
exactly these, the smoke test checks them, and

    python3 perfbench/spec.py > BENCHMARK.json

regenerates the file at the root of the repository.
"""

from __future__ import annotations

import json
import sys

RUN_SECONDS = 30

# Every workload runs the same operation list (probe streams, in-process CLI
# invocations, model certification with surgery) at sizes that make one layer
# dominate, so that every metric below has samples on every workload.
WORKLOADS = (
    ("stream", "long detuned Ising probe streams (1200 probes) dominate; the interferometer "
               "layer does nearly all the work and outcome_distribution overflows"),
    ("cli", "in-process CLI: a 500-trial, 40-probe interfere (about 2 MB of JSONL), a 1000-trial "
            "twisted run and the small commands; output, gates and surgery dominate"),
    ("model", "certification of generated Z_N^(p) theories up to N=11 plus the small packaged "
              "theories and surgery on each; the n^6 and n^4 axiom loops dominate"),
)

# name, unit, better, bound (share of the parent's median it may worsen by).
# Medians of many samples still moved 3-25% between 30-second runs on a shared
# 2-vCPU VM, with the host's load (README.md, "Baseline"), so timings get 0.24
# and set-up, whose samples move most, gets the largest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ops_frac", "ratio", "higher", 0.05),
    ("probes_per_s", "1/s", "higher", 0.24),
    ("trajectory_ms.p50", "ms", "lower", 0.24),
    ("interfere_s", "s", "lower", 0.24),
    ("twisted_s", "s", "lower", 0.24),
    ("small_cmds_s", "s", "lower", 0.24),
    ("certify_small_s", "s", "lower", 0.24),
    ("certify_large_s", "s", "lower", 0.24),
)

# Printed in the report but not part of the result line: the 90th percentile
# of trajectory time follows the host's bursts of contention (its run-to-run
# spread reached 0.58 of its median), and the failed share is 0 on two of the
# three workloads; ok_ops_frac carries the same count.
INFORMATIONAL = (
    ("trajectory_ms.p90", "ms"),
    ("failed_ops_frac", "ratio"),
)

# name, unit, better
PER_LAYER = (
    ("interferometer.simulate_stream.self_s", "s", "lower"),
    ("interferometer.ns_per_probe", "ns", "lower"),
    ("interferometer.p_factor.calls", "count", "lower"),
    ("interferometer.asymptotic_measure.self_s", "s", "lower"),
    ("interferometer.outcome_distribution.self_s", "s", "lower"),
    ("interferometer.self_s", "s", "lower"),
    ("model.build_model.calls", "count", "lower"),
    ("model.build_model.self_s", "s", "lower"),
    ("model.verify_consistency.self_s", "s", "lower"),
    ("model.load_model.self_s", "s", "lower"),
    ("model.axiom_instances", "count", "higher"),
    ("model.ns_per_axiom_instance", "ns", "lower"),
    ("surgery.twisted_operator.calls", "count", "lower"),
    ("surgery.twisted_operator.calls_per_trial", "ratio", "lower"),
    ("surgery.modular_matrices.self_s", "s", "lower"),
    ("surgery.self_s", "s", "lower"),
    ("gates.sample_twisted.calls", "count", "lower"),
    ("gates.us_per_twisted_trial", "us", "lower"),
    ("gates.self_s", "s", "lower"),
    ("rng.generator.calls", "count", "lower"),
    ("rng.generator.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("cli.jsonl_records", "count", "higher"),
    ("cli.artifact_mb_per_s", "MB/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + INFORMATIONAL}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
