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
unchanged. A failed run leaves the output directory as it found it.

Exit codes: 0 success, 1 validation failure, 2 usage or configuration
error, 3 numeric error (conditioning on an impossible outcome, or
degenerate tuning).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import dataclasses
import importlib.resources
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import rng
from .errors import ConsistencyViolation, ParseError, TopoprobeError, ZeroProbability
from .gates import (
    OUTCOMES,
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
    _INV_SQRT2,
    _ZERO_TOLERANCE,
    AnyonicDensityMatrix,
    InterferometerConfig,
    _require_unitary_splitters,
    asymptotic_measure,
    density_matrix,
    equivalence_classes,
    simulate_stream,
)
from .model import AnyonModel, ising, load_model, verify_consistency
from .surgery import modular_matrices, twisted_operator

_SWEEP_PARAMS = ("delta", "theta_I", "theta_II")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters shared by all subcommands."""

    model_source: str = "ising"
    t1: complex = InterferometerConfig.t1
    r1: complex = InterferometerConfig.r1
    t2: complex = InterferometerConfig.t2
    r2: complex = InterferometerConfig.r2
    theta_I: float = 0.0
    theta_II: float = 0.0
    probe_name: str = "sigma"
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_amplitude(value, field):
    if _is_number(value):
        value = (value, 0)
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))):
        raise ParseError(f"config field {field!r}: expected a number or [re, im] pair")
    try:
        number = complex(value[0], value[1])
    except OverflowError:
        raise ParseError(f"config field {field!r}: number out of range") from None
    if not cmath.isfinite(number):
        raise ParseError(f"config field {field!r}: expected a finite number")
    return number


def _parse_int(value, field, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"config field {field!r}: expected an integer")
    if minimum is not None and value < minimum:
        raise ParseError(f"config field {field!r}: must be at least {minimum}")
    return value


def _parse_float(value, field):
    if not _is_number(value):
        raise ParseError(f"config field {field!r}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"config field {field!r}: expected a finite number")
    return number


def _parse_initial_state(value, field="initial_state"):
    if not isinstance(value, dict):
        raise ParseError(f"config field {field!r}: expected an object")
    keys = set(value) - {"charges"}
    if keys not in ({"amplitudes"}, {"diagonal"}):
        raise ParseError(
            f"config field {field!r}: expected exactly one of 'amplitudes' or 'diagonal'"
        )
    (kind,) = keys
    entries = value[kind]
    if not (isinstance(entries, list) and len(entries) == 2):
        raise ParseError(f"config field {field!r}: {kind!r} needs two entries")
    parse = _parse_amplitude if kind == "amplitudes" else _parse_float
    parsed = {kind: tuple(parse(x, f"{field}.{kind}") for x in entries)}
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


def _parse_string(value, field, expected):
    if not isinstance(value, str):
        raise ParseError(f"config field {field!r}: expected {expected}")
    return value


def _parse_param(value, field):
    if value not in _SWEEP_PARAMS:
        raise ParseError(f"config field {field!r}: must be one of {', '.join(_SWEEP_PARAMS)}")
    return value


# Config key, RunConfig field, parser, extra parser arguments; parse_config
# walks this order, so the first malformed key in it is the one reported.
_CONFIG_TABLE = (
    ("model", "model_source", _parse_string, "a string"),
    ("t1", "t1", _parse_amplitude),
    ("r1", "r1", _parse_amplitude),
    ("t2", "t2", _parse_amplitude),
    ("r2", "r2", _parse_amplitude),
    ("theta_I", "theta_I", _parse_float),
    ("theta_II", "theta_II", _parse_float),
    ("probe", "probe_name", _parse_string, "a charge name"),
    ("probes", "n_probes", _parse_int, 0),
    ("trials", "trials", _parse_int, 1),
    ("seed", "seed", lambda value, field: _parse_int(value, field) % 2**64),
    ("out", "out_dir", _parse_string, "a directory path"),
    ("initial_state", "initial_state", _parse_initial_state),
    ("param", "sweep_param", _parse_param),
    ("from", "sweep_start", _parse_float),
    ("to", "sweep_stop", _parse_float),
    ("steps", "sweep_steps", _parse_int, 1),
)


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
        unknown = set(data) - {key for key, *_ in _CONFIG_TABLE}
        if unknown:
            raise ParseError(f"{path}: unknown config field {sorted(unknown)[0]!r}")
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    run = RunConfig(**{
        name: parse(merged[key], key, *args)
        for key, name, parse, *args in _CONFIG_TABLE
        if key in merged
    })
    _require_unitary_splitters(run.t1, run.r1, run.t2, run.r2)
    _model_file(run.model_source)
    return run


def _model_file(source: str):
    """File of a model source (a path first, then a packaged name); None for the builtin Ising."""
    if source == "ising":
        return None
    path = Path(source)
    if not path.is_file():
        path = importlib.resources.files(__package__) / "models" / f"{source}.json"
        if not path.is_file():
            raise ParseError(
                f"unknown model {source!r}: not a builtin name, a packaged model, or an existing file"
            )
    return path


def _resolve_model(source: str) -> AnyonModel:
    path = _model_file(source)
    if path is None:
        return ising()
    with importlib.resources.as_file(path) as real_path:
        return load_model(real_path)


# RunConfig fields that InterferometerConfig takes under the same name.
_SETUP_FIELDS = ("t1", "r1", "t2", "r2", "theta_I", "theta_II")


def _interferometer_config(model: AnyonModel, run: RunConfig) -> InterferometerConfig:
    probe = model.charge_index(run.probe_name)
    return InterferometerConfig(probe=probe, **{name: getattr(run, name) for name in _SETUP_FIELDS})


def _rescaled(values: np.ndarray, size) -> tuple[np.ndarray, float]:
    """values and size(values), divided first by the largest component when size overflows."""
    with np.errstate(over="ignore"):
        total = float(size(values))
    if math.isinf(total):
        values = values / np.abs(values.view(float)).max()
        total = float(size(values))
    return values, total


def _initial_state(run: RunConfig, model: AnyonModel) -> AnyonicDensityMatrix:
    """Configured initial state on two of the model's charge lines, the first and last by default."""
    state = run.initial_state or {"amplitudes": (_INV_SQRT2, _INV_SQRT2)}
    names = state.get("charges", (model.charge_name(0), model.charge_name(model.n_charges - 1)))
    labels = tuple((c, c, 0) for c in map(model.charge_index, names))
    if "amplitudes" in state:
        vector, norm = _rescaled(np.array(state["amplitudes"], dtype=complex), np.linalg.norm)
        if norm < _ZERO_TOLERANCE:
            raise ParseError("config field 'initial_state': amplitudes cannot all vanish")
        vector = vector / norm
        matrix = np.outer(vector, vector.conj())
    else:
        weights, total = _rescaled(np.array(state["diagonal"], dtype=float), np.sum)
        if total < _ZERO_TOLERANCE or np.any(weights < 0):
            raise ParseError("config field 'initial_state': diagonal weights must be nonnegative and sum above 0")
        matrix = np.diag(weights / total).astype(complex)
    try:
        return density_matrix(model, labels, matrix)
    except ValueError as err:
        raise ParseError(f"initial state is invalid: {err}") from None


# ---------------------------------------------------------------------------
# serialization helpers


def _json_default(value):
    """Encode what json cannot: complex numbers as [re, im], numpy arrays and scalars."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


class _ArtifactWriter:
    """Artifacts go to temporary names until :meth:`commit`; a rollback leaves the directory as it was."""

    def __init__(self, out_dir: str | None):
        self.root = Path(out_dir or ".")
        self.pending: list[tuple[Path, Path]] = []  # (temporary, final)
        self.made_dirs: list[Path] = []  # deepest first

    def _prepare(self, name: str) -> Path:
        self.made_dirs += [d for d in (self.root, *self.root.parents) if not d.exists()]
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f".{name}.partial"
        self.pending.append((path, self.root / name))
        return path

    def write_json(self, name: str, payload):
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
        self._prepare(name).write_text(text + "\n")

    def write_jsonl(self, name: str, records):
        """One record per line; records hold only plain JSON types (no numpy)."""
        lines = [json.dumps(record, sort_keys=True, allow_nan=False) for record in records]
        self._prepare(name).write_text("\n".join(lines) + ("\n" if lines else ""))

    def write_csv(self, name: str, header, rows):
        with self._prepare(name).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)

    def commit(self):
        for temporary, final in self.pending:
            os.replace(temporary, final)

    def rollback(self):
        for temporary, _ in self.pending:
            temporary.unlink(missing_ok=True)
        for directory in self.made_dirs:
            with contextlib.suppress(OSError):  # kept when something else wrote into it
                directory.rmdir()


# ---------------------------------------------------------------------------
# subcommands


def _class_name(model: AnyonModel, members) -> str:
    return "+".join(model.charge_name(a) for a in members)


def _class_of(model: AnyonModel, state: AnyonicDensityMatrix, partition) -> str:
    """Name of the charge class that holds most of the state's population."""
    weights = [state.charge_weight(kappa.members) for kappa in partition.classes]
    return _class_name(model, partition.classes[int(np.argmax(weights))].members)


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
                "families": {name: dataclasses.asdict(fam) for name, fam in report.families.items()},
            },
        )
    return 0 if report.passed else 1


def _run_interfere(run: RunConfig, writer: _ArtifactWriter) -> int:
    model = _resolve_model(run.model_source)
    config = _interferometer_config(model, run)
    rho = _initial_state(run, model)
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
        summary_rows.append(
            [
                trial,
                trial_seed,
                trajectory.n_transmitted,
                run.n_probes,
                trajectory.fraction,
                _class_of(model, trajectory.final_state, partition),
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
                "charge_class": _class_of(model, fixed, partition),
                "state": {
                    "labels": [[model.charge_name(x) for x in label] for label in fixed.labels],
                    "matrix": fixed.matrix,
                },
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


def _require_ising(run: RunConfig) -> None:
    if run.model_source != "ising":
        raise ParseError("the twisted measurement path is defined for the ising model")


def _run_twisted(run: RunConfig, writer: _ArtifactWriter) -> int:
    _require_ising(run)
    rho = _initial_state(run, ising())

    counts = {name: 0 for name in OUTCOMES}
    for trial in range(run.trials):
        outcome, _ = sample_twisted(rho, rng.derive_trial_seed(run.seed, trial))
        counts[outcome] += 1

    posts = {}
    for name in OUTCOMES:
        try:
            probability, post = twisted_measure(rho, name)
            posts[name] = {"probability": probability, "state": post.matrix}
        except ZeroProbability:
            posts[name] = {"probability": 0.0, "state": None}

    fidelities = {
        name: state_fidelity(synthesize_magic_state(name), magic_state(name).vector())
        for name in OUTCOMES
    }

    writer.write_json(
        "twisted.json",
        {
            "initial": rho.matrix,
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
    _require_ising(run)
    b = ising().b_matrix
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
                    "unitary": unitary,
                    "first_principles_diagonal": check,
                    "residual": residual,
                }
            )
            print(f"U(a={a}, alpha={alpha}): residual {residual:.3e}")
    payload = {
        "table": table,
        "sigma_decoupling": {
            "B_sigma_I": b[1, 0],
            "B_sigma_psi": b[1, 2],
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
    if not math.isfinite(run.sweep_stop - run.sweep_start):
        raise ParseError("sweep range is too wide: --to minus --from overflows")
    model = _resolve_model(run.model_source)
    rho = _initial_state(run, model)
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
        "S": matrices.s,
        "T": matrices.t,
        "B": matrices.b,
        "twisted_operators": {
            model.charge_name(core): twisted_operator(model, core).entries
            for core in range(model.n_charges)
        },
    }
    writer.write_json("matrices.json", payload)
    print(f"wrote matrices.json in {writer.root}")
    return 0


# Flags besides --model, --config and --out, by config key: value type and help.
_FLAGS = {
    "probes": (int, "probes per trajectory"),
    "trials": (int, "number of trajectories"),
    "seed": (int, "base seed (64-bit)"),
    "param": (str, "one of " + ", ".join(_SWEEP_PARAMS)),
    "from": (float, "grid start"),
    "to": (float, "grid end"),
    "steps": (int, "grid point count"),
}

# Subcommand: handler, help, and the _FLAGS it reads.
_SUBCOMMANDS = {
    "validate": (_run_validate, "check a model's defining axioms", ()),
    "interfere": (_run_interfere, "run seeded probe-stream trajectories", ("probes", "trials", "seed")),
    "twisted": (_run_twisted, "doubly twisted measurement statistics", ("trials", "seed")),
    "protocol": (_run_protocol, "phase-gate table and residuals", ()),
    "sweep": (_run_sweep, "per-class transmission over a parameter grid", ("param", "from", "to", "steps")),
    "dump": (_run_dump, "modular and twisted-loop matrices as JSON", ()),
}


def execute(run: RunConfig, subcommand: str) -> int:
    """Run one subcommand; returns its exit code, raising domain errors.

    Artifacts take their names only after the handler returns, so a failing
    run leaves no partial results and keeps an earlier run's files.
    """
    try:
        handler = _SUBCOMMANDS[subcommand][0]
    except KeyError:
        raise ParseError(f"unknown subcommand {subcommand!r}") from None
    writer = _ArtifactWriter(run.out_dir)
    try:
        code = handler(run, writer)
        writer.commit()
        return code
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
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--model", help="builtin name, packaged model, or JSON file")
        sub.add_argument("--config", help="JSON config file")
        for key in flags:
            kind, flag_help = _FLAGS[key]
            sub.add_argument(f"--{key}", type=kind, help=flag_help)
        sub.add_argument("--out", help="output directory")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    """Flag values by config key; None for flags unset or absent from the subcommand."""
    return {key: getattr(args, key, None) for key, *_ in _CONFIG_TABLE}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = parse_config(args.config, _flag_overrides(args))
        return execute(run, args.subcommand)
    except (TopoprobeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return getattr(err, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
