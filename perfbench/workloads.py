"""Workload sizes, seeded inputs, and the fixed operation list of one round.

A round runs three blocks in order, each through the package's public
functions and nothing else:

- streams: seeded ``simulate_stream`` trajectories of a detuned Ising qubit,
  each classified by its collapsed charge class, then ``asymptotic_measure``
  and ``outcome_distribution`` at the same stream length;
- command line: ``cli.main`` in process, each invocation into a fresh
  directory: ``interfere``, ``twisted``, then passes of ``validate``,
  ``protocol``, ``sweep`` and ``dump``;
- models: Ising, Fibonacci and Semion build+verify passes, then the
  generated Z_N^(p) theories, then surgery (``modular_matrices``,
  ``twisted_operator`` and ``omega_vector`` for every core, and
  ``loop_around_line``) on every certified theory.

Every workload runs all three blocks; its ``Sizes`` decide which one
dominates. The package only ever sees inputs generated here from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np

import checks as ref
from topoprobe import cli, gates, interferometer, rng, surgery
from topoprobe import model as anyons


@dataclass(frozen=True)
class Sizes:
    trajectories: int  # simulate_stream calls per round
    probes: int  # probes per stream; at 1100 or more outcome_distribution overflows
    interfere: tuple[int, int]  # (probes, trials) of the round's interfere invocation
    twisted_trials: int  # trials of the round's twisted invocation
    small_cmd_passes: int  # validate + protocol + sweep + dump, repeated
    small_model_passes: int  # Ising, Fibonacci and Semion build+verify, repeated
    zn: tuple[int, ...]  # odd N of the generated Z_N^(p) theories, largest last


SIZES = {
    "stream": Sizes(16, 1200, (20, 40), 50, 1, 1, (3,)),
    "cli": Sizes(16, 200, (40, 500), 1000, 3, 1, (3,)),
    "model": Sizes(16, 200, (20, 40), 50, 1, 3, (3, 5, 7, 9, 11)),
}

# The smoke test's sizes: the same operation list with few repetitions. The
# stream workload keeps its long streams, so its overflow still shows.
SMOKE_SIZES = {
    "stream": Sizes(2, 1200, (5, 4), 10, 1, 1, (3,)),
    "cli": Sizes(2, 50, (10, 20), 40, 1, 1, (3,)),
    "model": Sizes(2, 50, (5, 4), 10, 1, 1, (3, 5)),
}

DETUNING = math.pi / 3  # theta_I; class transmissions 0.75 (I) and 0.25 (psi)
SIGMA = 1
QUBIT_LABELS = ((0, 0, 0), (2, 2, 0))  # (I, I; I) and (psi, psi; I)
SWEEP_ARGS = ["--param", "delta", "--from", "0", "--to", "3.14159", "--steps", "25"]
SMALL_COMMANDS = (
    ["validate", "--model", "fibonacci"],
    ["protocol"],
    ["sweep", *SWEEP_ARGS],
    ["dump", "--model", "fibonacci"],
)


def ising_description() -> dict:
    """The Ising theory in the model-file schema, with theta_sigma = e^{i pi/8}."""
    h = math.pi / 8
    r = 1.0 / math.sqrt(2.0)
    pairs = {("I", "I"): ["I"], ("I", "sigma"): ["sigma"], ("I", "psi"): ["psi"],
             ("sigma", "sigma"): ["I", "psi"], ("sigma", "psi"): ["sigma"], ("psi", "psi"): ["I"]}
    fusion = []
    for (a, b), products in pairs.items():
        for c in products:
            fusion.append([a, b, c])
            if a != b:
                fusion.append([b, a, c])
    return {
        "charges": ["I", "sigma", "psi"],
        "fusion": fusion,
        "F": [
            ["sigma", "sigma", "sigma", "sigma", "I", "I", r, 0.0],
            ["sigma", "sigma", "sigma", "sigma", "I", "psi", r, 0.0],
            ["sigma", "sigma", "sigma", "sigma", "psi", "I", r, 0.0],
            ["sigma", "sigma", "sigma", "sigma", "psi", "psi", -r, 0.0],
            ["sigma", "psi", "sigma", "psi", "sigma", "sigma", -1.0, 0.0],
            ["psi", "sigma", "psi", "sigma", "sigma", "sigma", -1.0, 0.0],
        ],
        "R": [
            ["sigma", "sigma", "I", math.cos(h), -math.sin(h)],
            ["sigma", "sigma", "psi", math.cos(3 * h), math.sin(3 * h)],
            ["sigma", "psi", "sigma", 0.0, -1.0],
            ["psi", "sigma", "sigma", 0.0, -1.0],
            ["psi", "psi", "I", -1.0, 0.0],
        ],
        "twists": [["I", 1.0, 0.0], ["sigma", math.cos(h), math.sin(h)], ["psi", -1.0, 0.0]],
    }


def zn_description(n: int, p: int) -> dict:
    """Z_N^(p): F = 1, R(a, b) = e^{2 pi i p ab/N}, theta_a = e^{2 pi i p a^2/N}."""
    names = [str(a) for a in range(n)]

    def phase(x):
        angle = 2 * math.pi * p * x / n
        return [math.cos(angle), math.sin(angle)]

    return {
        "charges": names,
        "fusion": [[names[a], names[b], names[(a + b) % n]] for a in range(n) for b in range(n)],
        "R": [[names[a], names[b], names[(a + b) % n], *phase(a * b)] for a in range(n) for b in range(n)],
        "twists": [[names[a], *phase(a * a)] for a in range(n)],
    }


@dataclass
class Inputs:
    sizes: Sizes
    work: Path
    model: anyons.AnyonModel
    rho: interferometer.AnyonicDensityMatrix
    config: interferometer.InterferometerConfig
    stream_seed: int
    cli_seed: int
    interfere_config: Path
    twisted_config: Path
    twisted_rho: np.ndarray
    ising_description: dict
    zn: list[tuple[int, int, dict]]
    packaged: dict[str, Path]


def setup(workload: str, seed: int, smoke: bool, work: Path) -> Inputs:
    """Warm the package's model cache and generate every input from ``seed``."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    model = anyons.ising()  # the package caches its built-in theory; warm it here
    rnd = random.Random(seed)
    rho = interferometer.density_matrix(model, QUBIT_LABELS, np.full((2, 2), 0.5))
    config = interferometer.InterferometerConfig(probe=SIGMA, theta_I=DETUNING)

    work.mkdir(parents=True, exist_ok=True)
    probes, trials = sizes.interfere
    interfere_config = work / "interfere.json"
    interfere_config.write_text(json.dumps({"theta_I": DETUNING, "probes": probes, "trials": trials}))
    # Real amplitudes (cos a, sin a) with a <= pi/8 give the twisted vacuum outcome a
    # probability between 0.75 and 0.85, far enough from 1/2 that a sampler
    # ignoring the state fails the histogram check.
    angle = rnd.uniform(0.0, math.pi / 8)
    amplitudes = [math.cos(angle), math.sin(angle)]
    twisted_config = work / "twisted.json"
    twisted_config.write_text(json.dumps({"initial_state": {"amplitudes": amplitudes}}))

    zn = []
    for n in sizes.zn:
        p = rnd.choice([q for q in range(1, n) if math.gcd(q, n) == 1])
        zn.append((n, p, zn_description(n, p)))
    models = resources.files("topoprobe") / "models"
    return Inputs(
        sizes=sizes,
        work=work,
        model=model,
        rho=rho,
        config=config,
        stream_seed=rnd.getrandbits(64),
        cli_seed=rnd.getrandbits(62),
        interfere_config=interfere_config,
        twisted_config=twisted_config,
        twisted_rho=np.outer(amplitudes, amplitudes).astype(complex),
        ising_description=ising_description(),
        zn=zn,
        packaged={name: Path(str(models / f"{name}.json")) for name in ("fibonacci", "semion")},
    )


class Operations:
    """Counts attempted and failed operations and keeps their timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.samples = defaultdict(list)
        self.tracer = None

    def call(self, label, fn, *args, ok=None):
        """Run one operation; a raised exception or a result ``ok`` rejects is a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as err:
            self.failed += 1
            self.errors[f"{label}: {type(err).__name__}: {err}"] += 1
            return None, perf_counter() - start
        seconds = perf_counter() - start
        if ok is not None and not ok(result):
            self.failed += 1
            self.errors[f"{label}: returned {result!r}"] += 1
        return result, seconds


@dataclass
class RoundOutput:
    trajectories: list = field(default_factory=list)  # (trajectory, collapsed class transmission)
    asymptotic: list | None = None
    distribution: dict | None = None
    invocations: list = field(default_factory=list)  # (argv, out_dir, exit code)
    models: list = field(default_factory=list)  # (name, model or None, (N, p) or None, ModularMatrices)


def run_round(inputs: Inputs, ops: Operations, index: int, out: RoundOutput, round_dir: Path):
    _stream_block(inputs, ops, index, out)
    _cli_block(inputs, ops, index, out, round_dir)
    _model_block(inputs, ops, out)


def _stream_block(inputs, ops, index, out):
    sizes, model, rho, config = inputs.sizes, inputs.model, inputs.rho, inputs.config
    partition, _ = ops.call(
        "equivalence_classes", interferometer.equivalence_classes, model, config.probe, config
    )
    for i in range(sizes.trajectories):
        seed = rng.derive_trial_seed(inputs.stream_seed, index * sizes.trajectories + i)
        trajectory, seconds = ops.call(
            "simulate_stream", interferometer.simulate_stream, model, rho, config, sizes.probes, seed
        )
        if trajectory is None:
            continue
        ops.samples["trajectory_ms"].append(seconds * 1e3)
        if partition is not None:
            weights = [trajectory.final_state.charge_weight(k.members) for k in partition.classes]
            out.trajectories.append((trajectory, partition.classes[int(np.argmax(weights))].transmission))
    out.asymptotic, _ = ops.call("asymptotic_measure", interferometer.asymptotic_measure, model, rho, config)
    out.distribution, _ = ops.call(
        "outcome_distribution", interferometer.outcome_distribution, model, rho, config, sizes.probes
    )


def invoke(ops: Operations, argv: list[str], out_dir: Path) -> tuple[int | None, float]:
    """``cli.main`` in process with its console output discarded; exit code and seconds."""
    argv = [*argv, "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return ops.call(f"cli {argv[0]}", cli.main, argv, ok=lambda code: code == 0)


def _cli_block(inputs, ops, index, out, round_dir):
    sizes = inputs.sizes
    seed = str(inputs.cli_seed + index)
    commands = [
        ("interfere_s", ["interfere", "--config", str(inputs.interfere_config), "--seed", seed]),
        ("twisted_s", ["twisted", "--config", str(inputs.twisted_config),
                       "--trials", str(sizes.twisted_trials), "--seed", seed]),
    ]
    for metric, argv in commands:
        out_dir = round_dir / argv[0]
        code, seconds = invoke(ops, argv, out_dir)
        ops.samples[metric].append(seconds)
        out.invocations.append((argv, out_dir, code))
    for k in range(sizes.small_cmd_passes):
        total = 0.0
        for argv in SMALL_COMMANDS:
            out_dir = round_dir / f"{argv[0]}-{k}"
            code, seconds = invoke(ops, argv, out_dir)
            total += seconds
            out.invocations.append((argv, out_dir, code))
        ops.samples["small_cmds_s"].append(total)


def _model_block(inputs, ops, out):
    certified = []
    for _ in range(inputs.sizes.small_model_passes):
        ising, t_ising = ops.call("build_model ising", anyons.build_model, inputs.ising_description)
        fib, t_fib = ops.call("load_model fibonacci", anyons.load_model, inputs.packaged["fibonacci"])
        semion, t_semion = ops.call("load_model semion", anyons.load_model, inputs.packaged["semion"])
        ops.samples["certify_small_s"].append(t_ising + t_fib + t_semion)
    certified += [("ising", ising, None), ("fibonacci", fib, None), ("semion", semion, None)]
    for n, p, description in inputs.zn:
        theory, seconds = ops.call(f"build_model z{n}", anyons.build_model, description)
        certified.append((f"z{n}", theory, (n, p)))
        if n == inputs.zn[-1][0]:
            ops.samples["certify_large_s"].append(seconds)
    for name, theory, params in certified:
        if theory is None:
            out.models.append((name, None, params, None))
            continue
        matrices, _ = ops.call("modular_matrices", surgery.modular_matrices, theory)
        for core in range(theory.n_charges):
            ops.call("twisted_operator", surgery.twisted_operator, theory, core)
            omega, _ = ops.call("omega_vector", surgery.omega_vector, theory, core)
            ops.call("loop_around_line", surgery.loop_around_line, theory, omega, core)
        out.models.append((name, theory, params, matrices))


# ---------------------------------------------------------------------------
# checks on one round's outputs, run after the round's timed part


@dataclass
class Produced:
    artifact_bytes: int = 0
    jsonl_records: int = 0


def check_round(inputs: Inputs, out: RoundOutput, checks: ref.Checks, fractions: list,
                first: bool) -> Produced:
    """Check one round's outputs; the first round also reruns every command and
    verifies every certified theory again."""
    sizes, model, config = inputs.sizes, inputs.model, inputs.config
    rho0 = np.asarray(inputs.rho.matrix)
    factors = ref.factor_table(model, QUBIT_LABELS, config)

    for trajectory, transmission in out.trajectories:
        ref.check_trajectory(checks, trajectory, rho0, factors, sizes.probes)
        fractions.append((trajectory.fraction, transmission, sizes.probes))
    if out.asymptotic is None:
        checks.record("stream.asymptotic_measure", False, "asymptotic_measure failed")
    else:
        ref.check_asymptotic(checks, out.asymptotic, model, rho0, QUBIT_LABELS, config.probe)
    if out.distribution is None:
        checks.skip(
            "stream.outcome_distribution",
            f"outcome_distribution failed at n_probes={sizes.probes}; counted as a failed operation",
        )
    else:
        reference = ref.binomial_mixture(rho0, QUBIT_LABELS, factors, sizes.probes)
        ref.check_distribution(checks, out.distribution, reference)

    produced = Produced()
    p_vacuum = gates.twisted_measure(gates.QubitDensity(inputs.twisted_rho), "I")[0]
    transmissions = {
        model.charge_name(a): factors[i, i][0].real for i, (a, _, _) in enumerate(QUBIT_LABELS)
    }
    for argv, out_dir, code in out.invocations:
        subcommand = argv[0]
        checks.record(f"cli.{subcommand}.exit_code", code == 0, f"exit code {code}")
        files = ref.artifact_bytes(out_dir)
        produced.artifact_bytes += sum(len(data) for data in files.values())
        ref.check_artifact_set(checks, subcommand, files)
        if subcommand == "interfere":
            probes, trials = sizes.interfere
            produced.jsonl_records += ref.check_interfere_counts(checks, files, probes, trials)
            fractions += ref.summary_fractions(files, transmissions)
        elif subcommand == "twisted":
            ref.check_twisted_band(checks, files, p_vacuum)
        if first:
            rerun_dir = out_dir.with_name(out_dir.name + "-rerun")
            invoke(Operations(), argv, rerun_dir)
            ref.check_rerun(checks, subcommand, files, ref.artifact_bytes(rerun_dir))

    for name, theory, params, matrices in out.models:
        if theory is None:
            checks.record(f"model.{name}.report_passes", False, "build or load failed")
        elif first:
            report = anyons.verify_consistency(theory)
            ref.check_report(checks, name, report)
            if name == "ising":
                ref.check_ising_residuals(checks, report)
                if matrices is not None:
                    ref.check_sigma_decoupling(checks, matrices.b)
            if params is not None and matrices is not None:
                ref.check_zn_s(checks, *params, matrices.s)
    return produced

