"""Command-line front end for seeded, reproducible interferometry runs.

Subcommands
-----------
validate   build a model and report its axiom residuals (exit 0 pass, 1 fail)
interfere  seeded probe-stream trajectories, summary table, collapse law
twisted    doubly twisted measurement statistics and magic-state fidelity
protocol   phase-gate table with first-principles residuals
sweep      per-class transmission over a scalar parameter grid
dump       S, T, B and the twisted loop operators as JSON

Configuration merges three layers: documented defaults, then a JSON config
file (--config), then command-line flags. Identical (config, seed) inputs
produce byte-identical artifacts; nothing timestamped is ever written, and
every number in an artifact is a library call result passed through
unchanged. On failure, files created by the failing run are removed.

Exit codes: 0 success, 1 validation failure, 2 usage or configuration
error, 3 numeric error (conditioning on an impossible outcome, or
degenerate tuning).
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import rng
from .errors import (
    ConsistencyViolation,
    DegenerateTuning,
    ForbiddenConnectingCharge,
    InvalidCore,
    MissingVacuum,
    NonAbelianSlide,
    NonMultiplicityFree,
    ParseError,
    UnitarityViolation,
    UnsupportedBasisChange,
    ZeroProbability,
)
from .gates import (
    OUTCOMES,
    QubitDensity,
    magic_state,
    protocol_check,
    protocol_residual,
    protocol_unitary,
    sample_twisted,
    state_fidelity,
    synthesize_magic_state,
    twisted_measure,
)
from .interferometer import (
    AnyonicDensityMatrix,
    InterferometerConfig,
    asymptotic_measure,
    density_matrix,
    equivalence_classes,
    simulate_stream,
)
from .model import AnyonModel, ising, load_model, verify_consistency
from .surgery import modular_matrices, twisted_operator

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_SWEEP_PARAMS = ("delta", "theta_I", "theta_II")
_ALLOWED_TWISTS = ((0, 0), (0, 2))

_CONFIG_KEYS = {
    "model", "t1", "r1", "t2", "r2", "theta_I", "theta_II", "probe",
    "twists", "probes", "trials", "seed", "out", "initial_state",
    "param", "from", "to", "steps",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters shared by all subcommands."""

    model_source: str = "ising"
    t1: complex = _INV_SQRT2
    r1: complex = _INV_SQRT2
    t2: complex = _INV_SQRT2
    r2: complex = _INV_SQRT2
    theta_I: float = 0.0
    theta_II: float = 0.0
    probe_name: str = "sigma"
    twists: tuple[int, int] = (0, 0)
    n_probes: int = 100
    trials: int = 1
    seed: int = 0
    out_dir: str | None = None
    initial_state: Mapping | None = None
    sweep_param: str | None = None
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_steps: int = 0


# ---------------------------------------------------------------------------
# configuration parsing


def _parse_amplitude(value, field):
    try:
        if isinstance(value, (int, float)):
            return complex(value)
        if (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)
        ):
            return complex(value[0], value[1])
    except OverflowError:
        raise ParseError(f"config field {field!r}: number out of range") from None
    raise ParseError(f"config field {field!r}: expected a number or [re, im] pair")


def _parse_int(value, field, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"config field {field!r}: expected an integer")
    if minimum is not None and value < minimum:
        raise ParseError(f"config field {field!r}: must be at least {minimum}")
    return value


def _parse_float(value, field):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"config field {field!r}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"config field {field!r}: expected a finite number")
    return number


def _parse_twists(value, field="twists"):
    if isinstance(value, str):
        parts = value.split(",")
        if len(parts) != 2:
            raise ParseError(f"config field {field!r}: expected 'l,r'")
        try:
            value = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"config field {field!r}: expected 'l,r' with integers") from None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(f"config field {field!r}: expected a pair [l, r]")
    pair = tuple(_parse_int(x, field) for x in value)
    if pair not in _ALLOWED_TWISTS:
        raise ParseError(
            f"config field {field!r}: twist pair {pair} is not supported; "
            "use [0, 0] (untwisted) or [0, 2] (doubly twisted right arm)"
        )
    return pair


def _parse_initial_state(value, field="initial_state"):
    if not isinstance(value, dict):
        raise ParseError(f"config field {field!r}: expected an object")
    keys = set(value) - {"charges"}
    if keys not in ({"amplitudes"}, {"diagonal"}):
        raise ParseError(
            f"config field {field!r}: expected exactly one of 'amplitudes' or 'diagonal'"
        )
    parsed = {}
    if "amplitudes" in value:
        amplitudes = value["amplitudes"]
        if not (isinstance(amplitudes, list) and len(amplitudes) == 2):
            raise ParseError(f"config field {field!r}: 'amplitudes' needs two entries")
        parsed["amplitudes"] = tuple(
            _parse_amplitude(x, f"{field}.amplitudes") for x in amplitudes
        )
    else:
        diagonal = value["diagonal"]
        if not (isinstance(diagonal, list) and len(diagonal) == 2):
            raise ParseError(f"config field {field!r}: 'diagonal' needs two entries")
        parsed["diagonal"] = tuple(_parse_float(x, f"{field}.diagonal") for x in diagonal)
    if "charges" in value:
        charges = value["charges"]
        if not (
            isinstance(charges, list)
            and len(charges) == 2
            and all(isinstance(x, str) for x in charges)
        ):
            raise ParseError(f"config field {field!r}: 'charges' needs two charge names")
        parsed["charges"] = tuple(charges)
    return parsed


def parse_config(path: str | None, overrides: Mapping | None = None) -> RunConfig:
    """Merge defaults, an optional JSON config file, and flag overrides.

    Raises ParseError (with the offending line or field) for malformed
    input and UnitarityViolation when a splitter's amplitudes do not
    satisfy |t|^2 + |r|^2 = 1.
    """
    merged: dict = {}
    if path is not None:
        config_path = Path(path)
        if not config_path.is_file():
            raise ParseError(f"config file {path} does not exist")
        try:
            data = json.loads(config_path.read_text())
        except json.JSONDecodeError as err:
            raise ParseError(
                f"{path}: line {err.lineno} column {err.colno}: {err.msg}"
            ) from None
        if not isinstance(data, dict):
            raise ParseError(f"{path}: top level must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ParseError(f"{path}: unknown config field {sorted(unknown)[0]!r}")
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    run = RunConfig()
    if "model" in merged:
        if not isinstance(merged["model"], str):
            raise ParseError("config field 'model': expected a string")
        run = replace(run, model_source=merged["model"])
    for field in ("t1", "r1", "t2", "r2"):
        if field in merged:
            run = replace(run, **{field: _parse_amplitude(merged[field], field)})
    for field in ("theta_I", "theta_II"):
        if field in merged:
            run = replace(run, **{field: _parse_float(merged[field], field)})
    if "probe" in merged:
        if not isinstance(merged["probe"], str):
            raise ParseError("config field 'probe': expected a charge name")
        run = replace(run, probe_name=merged["probe"])
    if "twists" in merged:
        run = replace(run, twists=_parse_twists(merged["twists"]))
    if "probes" in merged:
        run = replace(run, n_probes=_parse_int(merged["probes"], "probes", minimum=0))
    if "trials" in merged:
        run = replace(run, trials=_parse_int(merged["trials"], "trials", minimum=1))
    if "seed" in merged:
        run = replace(run, seed=_parse_int(merged["seed"], "seed") % 2**64)
    if "out" in merged:
        if not isinstance(merged["out"], str):
            raise ParseError("config field 'out': expected a directory path")
        run = replace(run, out_dir=merged["out"])
    if "initial_state" in merged:
        run = replace(run, initial_state=_parse_initial_state(merged["initial_state"]))
    if "param" in merged:
        if merged["param"] not in _SWEEP_PARAMS:
            raise ParseError(
                f"config field 'param': must be one of {', '.join(_SWEEP_PARAMS)}"
            )
        run = replace(run, sweep_param=merged["param"])
    if "from" in merged:
        run = replace(run, sweep_start=_parse_float(merged["from"], "from"))
    if "to" in merged:
        run = replace(run, sweep_stop=_parse_float(merged["to"], "to"))
    if "steps" in merged:
        run = replace(run, sweep_steps=_parse_int(merged["steps"], "steps", minimum=1))

    for label, t, r in (("1", run.t1, run.r1), ("2", run.t2, run.r2)):
        gap = abs(abs(t) ** 2 + abs(r) ** 2 - 1.0)
        if not (gap <= 1e-9):
            raise UnitarityViolation(
                f"splitter {label}: |t{label}|^2 + |r{label}|^2 deviates from 1 by {gap:.3e}"
            )
    if (
        run.model_source != "ising"
        and run.model_source not in _packaged_models()
        and not Path(run.model_source).is_file()
    ):
        raise ParseError(
            f"unknown model {run.model_source!r}: not a builtin name, "
            "a packaged model, or an existing file"
        )
    return run


def _packaged_models() -> tuple[str, ...]:
    root = importlib.resources.files(__package__) / "models"
    return tuple(sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json")))


def _resolve_model(source: str) -> AnyonModel:
    if source == "ising":
        return ising()
    path = Path(source)
    if path.is_file():
        return load_model(path)
    packaged = importlib.resources.files(__package__) / "models" / f"{source}.json"
    with importlib.resources.as_file(packaged) as real_path:
        return load_model(real_path)


def _interferometer_config(model: AnyonModel, run: RunConfig) -> InterferometerConfig:
    try:
        probe = model.charge_index(run.probe_name)
    except ValueError as err:
        raise ParseError(str(err)) from None
    return InterferometerConfig(
        probe=probe,
        t1=run.t1,
        r1=run.r1,
        t2=run.t2,
        r2=run.r2,
        theta_I=run.theta_I,
        theta_II=run.theta_II,
        twists=(0, 0),
    )


def _qubit_matrix(run: RunConfig) -> np.ndarray:
    state = run.initial_state or {"amplitudes": (complex(_INV_SQRT2), complex(_INV_SQRT2))}
    if "amplitudes" in state:
        vector = np.array(state["amplitudes"], dtype=complex)
        norm = float(np.linalg.norm(vector))
        if norm < 1e-12:
            raise ParseError("config field 'initial_state': amplitudes cannot all vanish")
        vector = vector / norm
        return np.outer(vector, vector.conj())
    weights = np.array(state["diagonal"], dtype=float)
    total = float(np.sum(weights))
    if total < 1e-12 or np.any(weights < 0):
        raise ParseError("config field 'initial_state': diagonal weights must be nonnegative and sum above 0")
    return np.diag(weights / total).astype(complex)


def _initial_density(model: AnyonModel, run: RunConfig) -> AnyonicDensityMatrix:
    state = run.initial_state or {}
    names = state.get("charges", (model.charge_name(0), model.charge_name(model.n_charges - 1)))
    try:
        pair = tuple(model.charge_index(name) for name in names)
    except ValueError as err:
        raise ParseError(str(err)) from None
    labels = tuple((c, c, 0) for c in pair)
    try:
        return density_matrix(model, labels, _qubit_matrix(run))
    except ValueError as err:
        raise ParseError(f"initial state is invalid: {err}") from None


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.complexfloating,)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(x) for x in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    return value


def _state_payload(state: AnyonicDensityMatrix, model: AnyonModel):
    return {
        "labels": [
            [model.charge_name(a), model.charge_name(c), model.charge_name(f)]
            for a, c, f in state.labels
        ],
        "matrix": _jsonable(state.matrix),
    }


class _ArtifactWriter:
    """Write-or-rollback helper: files created here vanish if the run fails."""

    def __init__(self, out_dir: str | None):
        self.root = Path(out_dir or ".")
        self.created: list[Path] = []

    def _prepare(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / name
        self.created.append(path)
        return path

    def write_json(self, name: str, payload) -> Path:
        path = self._prepare(name)
        path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
        return path

    def write_jsonl(self, name: str, records) -> Path:
        """One record per line; records hold only plain JSON types (no numpy)."""
        path = self._prepare(name)
        lines = [json.dumps(record, sort_keys=True) for record in records]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def write_csv(self, name: str, header, rows) -> Path:
        path = self._prepare(name)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    def rollback(self):
        for path in self.created:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# subcommands


def _class_name(model: AnyonModel, members) -> str:
    return "+".join(model.charge_name(a) for a in members)


def _run_validate(run: RunConfig, writer: _ArtifactWriter) -> int:
    try:
        model = _resolve_model(run.model_source)
    except ConsistencyViolation as err:
        print(f"model {run.model_source}: FAIL")
        if err.report is not None:
            print(err.report.summary())
        print(f"error: {err}")
        return 1
    report = verify_consistency(model)
    print(report.summary())
    family, worst = report.worst()
    verdict = "PASS" if report.passed else "FAIL"
    print(f"model {run.model_source}: {verdict} (worst family {family}, max residual {worst:.3e})")
    if run.out_dir is not None:
        writer.write_json(
            "validation.json",
            {
                "model": run.model_source,
                "passed": report.passed,
                "tolerance": report.tolerance,
                "families": {
                    name: {
                        "max_residual": fam.max_residual,
                        "checked": fam.checked,
                        "failures": [list(f) for f in fam.failures],
                    }
                    for name, fam in report.families.items()
                },
            },
        )
    return 0 if report.passed else 1


def _run_interfere(run: RunConfig, writer: _ArtifactWriter) -> int:
    if run.twists == (0, 2):
        return _run_twisted(run, writer)
    model = _resolve_model(run.model_source)
    config = _interferometer_config(model, run)
    rho = _initial_density(model, run)
    collapse_table = asymptotic_measure(model, rho, config)
    partition = equivalence_classes(model, config.probe, config)

    records = []
    summary_rows = []
    for trial in range(run.trials):
        trial_seed = rng.derive_trial_seed(run.seed, trial)
        trajectory = simulate_stream(model, rho, config, run.n_probes, trial_seed)
        for k, (outcome, p_s, coherence) in enumerate(
            zip(trajectory.outcomes, trajectory.probabilities, trajectory.coherences),
            start=1,
        ):
            records.append(
                {"trial": trial, "k": k, "s": outcome.value, "p_s": p_s, "coherence": coherence}
            )
        weights = [
            trajectory.final_state.charge_weight(kappa.members)
            for kappa in partition.classes
        ]
        collapsed = partition.classes[int(np.argmax(weights))]
        summary_rows.append(
            [
                trial,
                trial_seed,
                trajectory.n_transmitted,
                run.n_probes,
                trajectory.fraction,
                _class_name(model, collapsed.members),
            ]
        )

    writer.write_jsonl("trajectories.jsonl", records)
    writer.write_csv(
        "summary.csv",
        ["trial", "seed", "n", "N", "fraction", "collapsed_class"],
        summary_rows,
    )
    writer.write_json(
        "asymptotic.json",
        [
            {
                "probability": weight,
                "charge_class": _class_name(model, _members_of(fixed, partition)),
                "state": _state_payload(fixed, model),
            }
            for weight, fixed in collapse_table
        ],
    )
    print(
        f"interfere: model={run.model_source} probe={run.probe_name} "
        f"trials={run.trials} probes={run.n_probes} seed={run.seed}"
    )
    print(f"wrote trajectories.jsonl, summary.csv, asymptotic.json in {writer.root}")
    return 0


def _members_of(fixed: AnyonicDensityMatrix, partition) -> tuple:
    # The fixed state carries weight in exactly one class; find it.
    for kappa in partition.classes:
        if fixed.charge_weight(kappa.members) > 0.5:
            return kappa.members
    return ()


def _run_twisted(run: RunConfig, writer: _ArtifactWriter) -> int:
    if run.model_source != "ising":
        raise ParseError("the twisted measurement path is defined for the ising model")
    rho = QubitDensity(_qubit_matrix(run))

    counts = {name: 0 for name in OUTCOMES}
    for trial in range(run.trials):
        outcome, _ = sample_twisted(rho, rng.derive_trial_seed(run.seed, trial))
        counts[outcome] += 1

    posts = {}
    for name in OUTCOMES:
        try:
            probability, post = twisted_measure(rho, name)
            posts[name] = {"probability": probability, "state": _jsonable(post.matrix)}
        except ZeroProbability:
            posts[name] = {"probability": 0.0, "state": None}

    fidelities = {
        name: state_fidelity(synthesize_magic_state(name), magic_state(name).vector())
        for name in OUTCOMES
    }

    writer.write_json(
        "twisted.json",
        {
            "initial": _jsonable(rho.matrix),
            "trials": run.trials,
            "seed": run.seed,
            "histogram": counts,
            "conditioned": posts,
            "magic_state_fidelity": fidelities,
        },
    )
    print(f"twisted: trials={run.trials} seed={run.seed} histogram={counts}")
    print(
        "magic-state fidelities: "
        + ", ".join(f"{name}={fidelities[name]:.12f}" for name in OUTCOMES)
    )
    print(f"wrote twisted.json in {writer.root}")
    return 0


def _run_protocol(run: RunConfig, writer: _ArtifactWriter) -> int:
    b = modular_matrices(ising()).b
    table = []
    for a in OUTCOMES:
        for alpha in OUTCOMES:
            unitary = protocol_unitary(a, alpha)
            check = protocol_check(a, alpha)
            residual = protocol_residual(a, alpha)
            table.append(
                {
                    "a": a,
                    "alpha": alpha,
                    "unitary": _jsonable(unitary),
                    "first_principles_diagonal": _jsonable(list(check)),
                    "residual": residual,
                }
            )
            print(f"U(a={a}, alpha={alpha}): residual {residual:.3e}")
    payload = {
        "table": table,
        "sigma_decoupling": {
            "B_sigma_I": _jsonable(complex(b[1, 0])),
            "B_sigma_psi": _jsonable(complex(b[1, 2])),
        },
    }
    writer.write_json("protocol.json", payload)
    print(f"wrote protocol.json in {writer.root}")
    return 0


def _run_sweep(run: RunConfig, writer: _ArtifactWriter) -> int:
    if run.sweep_param is None:
        raise ParseError("sweep needs --param (one of " + ", ".join(_SWEEP_PARAMS) + ")")
    if run.sweep_steps < 1:
        raise ParseError("sweep needs --steps of at least 1")
    model = _resolve_model(run.model_source)
    rho = _initial_density(model, run)
    grid = np.linspace(run.sweep_start, run.sweep_stop, run.sweep_steps)
    rows = []
    for value in grid:
        value = float(value)
        if run.sweep_param == "delta":
            varied = replace(run, theta_I=value, theta_II=0.0)
        else:
            varied = replace(run, **{run.sweep_param: value})
        config = _interferometer_config(model, varied)
        partition = equivalence_classes(model, config.probe, config)
        for kappa in partition.classes:
            rows.append(
                [
                    run.sweep_param,
                    value,
                    _class_name(model, kappa.members),
                    kappa.transmission,
                    rho.charge_weight(kappa.members),
                ]
            )
    writer.write_csv(
        "sweep.csv",
        ["param", "value", "charge_class", "transmission", "initial_weight"],
        rows,
    )
    print(f"sweep: {run.sweep_param} over [{run.sweep_start}, {run.sweep_stop}] in {run.sweep_steps} steps")
    print(f"wrote sweep.csv ({len(rows)} rows) in {writer.root}")
    return 0


def _run_dump(run: RunConfig, writer: _ArtifactWriter) -> int:
    model = _resolve_model(run.model_source)
    matrices = modular_matrices(model)
    payload = {
        "charges": list(model.charges),
        "S": _jsonable(matrices.s),
        "T": _jsonable(matrices.t),
        "B": _jsonable(matrices.b),
        "twisted_operators": {
            model.charge_name(core): _jsonable(twisted_operator(model, core).entries)
            for core in range(model.n_charges)
        },
    }
    writer.write_json("matrices.json", payload)
    print(f"wrote matrices.json in {writer.root}")
    return 0


_SUBCOMMANDS = {
    "validate": _run_validate,
    "interfere": _run_interfere,
    "twisted": _run_twisted,
    "protocol": _run_protocol,
    "sweep": _run_sweep,
    "dump": _run_dump,
}


def execute(run: RunConfig, subcommand: str) -> int:
    """Run one subcommand; returns its exit code, raising domain errors.

    Artifacts written by a failing run are removed before the error
    propagates, so output directories never hold partial results.
    """
    try:
        handler = _SUBCOMMANDS[subcommand]
    except KeyError:
        raise ParseError(f"unknown subcommand {subcommand!r}") from None
    writer = _ArtifactWriter(run.out_dir)
    try:
        return handler(run, writer)
    except BaseException:
        writer.rollback()
        raise


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoprobe",
        description="anyonic interferometry: model checks, probe streams, twisted gates",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("validate", "check a model's defining axioms"),
        ("interfere", "run seeded probe-stream trajectories"),
        ("twisted", "doubly twisted measurement statistics"),
        ("protocol", "phase-gate table and residuals"),
        ("sweep", "per-class transmission over a parameter grid"),
        ("dump", "modular and twisted-loop matrices as JSON"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--model", help="builtin name, packaged model, or JSON file")
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--probes", type=int, help="probes per trajectory")
        sub.add_argument("--trials", type=int, help="number of trajectories")
        sub.add_argument("--seed", type=int, help="base seed (64-bit)")
        sub.add_argument("--out", help="output directory")
        sub.add_argument("--twists", help="arm twist counts 'l,r'")
        if name == "sweep":
            sub.add_argument("--param", help="one of " + ", ".join(_SWEEP_PARAMS))
            sub.add_argument("--from", dest="sweep_from", type=float, help="grid start")
            sub.add_argument("--to", dest="sweep_to", type=float, help="grid end")
            sub.add_argument("--steps", type=int, help="grid point count")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    overrides = {
        "model": args.model,
        "probes": args.probes,
        "trials": args.trials,
        "seed": args.seed,
        "out": args.out,
        "twists": args.twists,
    }
    if args.subcommand == "sweep":
        overrides["param"] = args.param
        overrides["from"] = args.sweep_from
        overrides["to"] = args.sweep_to
        overrides["steps"] = args.steps
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = parse_config(args.config, _flag_overrides(args))
        return execute(run, args.subcommand)
    except (MissingVacuum, NonMultiplicityFree, ConsistencyViolation) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ZeroProbability, DegenerateTuning) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (
        ParseError,
        UnitarityViolation,
        UnsupportedBasisChange,
        ForbiddenConnectingCharge,
        NonAbelianSlide,
        InvalidCore,
        ValueError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
