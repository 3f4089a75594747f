"""Every numeric config key and flag at the edges of the float range and outside its domain.

Each example draws a few config entries (as JSON text, so ``1e400`` reaches
the parser as inf) and a few flags, runs the subcommand that reads them,
and compares the exit status with the documented domain of each input:

- splitter amplitudes are finite and each splitter has |t|^2 + |r|^2 = 1;
- the path phases and their difference are finite;
- ``probes`` is an integer of at least 0, ``trials`` and ``steps`` of at
  least 1, ``seed`` any integer;
- the sweep bounds and their difference are finite, and every grid point
  leaves a finite phase difference;
- initial amplitudes are finite and not all zero; diagonal weights are
  finite, nonnegative and not all zero.

A refused input exits 2 and leaves no output directory; an accepted one
exits 0 and writes no NaN or infinity.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoprobe.cli import main

EDGES = ["1e308", "-1e308", "1e400", "-1e400"]
AMPLITUDES = [*EDGES, "0", "-1", "0.6", "0.8", "[0, 1]", "[1e308, 0]", "[0, -1e308]"]
PHASES = [*EDGES, "0", "1.5", "-2"]
CONFIG_VALUES = {
    "t1": AMPLITUDES, "r1": AMPLITUDES, "t2": AMPLITUDES, "r2": AMPLITUDES,
    "theta_I": PHASES, "theta_II": PHASES,
    "probes": [*EDGES, "-1", "0", "3", "1.5"],
    "trials": [*EDGES, "-1", "0", "2", "1.5"],
    "seed": [*EDGES, "-1", "0", "1180591620717411303424", "1.5"],
    "from": PHASES, "to": PHASES,
    "steps": [*EDGES, "-1", "0", "3", "1.5"],
    "initial_state": [
        '{"amplitudes": [1e308, 1e308]}', '{"amplitudes": [[1e308, -1e308], 0]}',
        '{"amplitudes": [1e400, 1]}', '{"amplitudes": [0, 0]}', '{"amplitudes": [0.6, [0, 0.8]]}',
        '{"diagonal": [1e308, 1e308]}', '{"diagonal": [-1e308, 1]}', '{"diagonal": [1e400, 0]}',
        '{"diagonal": [0, 0]}', '{"diagonal": [0.3, 0.7]}',
    ],
}
FLAG_VALUES = ["1e308", "-1e308", "1e400", "nan", "-1", "0", "3", "1.5"]
FLAG_TYPES = {"probes": int, "trials": int, "seed": int, "steps": int, "from": float, "to": float}

# Config keys and flags each subcommand reads.
READS = {
    "interfere": (["t1", "r1", "t2", "r2", "theta_I", "theta_II", "probes", "trials", "seed", "initial_state"],
                  ["probes", "trials", "seed"]),
    "sweep": (["t1", "r1", "theta_I", "theta_II", "from", "to", "steps", "initial_state"],
              ["from", "to", "steps"]),
    "twisted": (["trials", "seed", "initial_state"], ["trials", "seed"]),
}
# Small runs unless a drawn value replaces them.
BASE = {"interfere": {"probes": 2}, "sweep": {"param": "delta", "steps": 2}, "twisted": {"trials": 3}}
DEFAULT = 1.0 / math.sqrt(2.0)


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value):
    return _number(value) and math.isfinite(value)


def _amplitude(value):
    """complex, or None outside the domain."""
    if _number(value):
        value = [value, 0]
    if isinstance(value, list) and all(map(_finite, value)):
        return complex(*value)
    return None


def _unitary(t, r):
    return t is not None and r is not None and abs(abs(t) * abs(t) + abs(r) * abs(r) - 1.0) <= 1e-9


def _integer(value, minimum):
    return isinstance(value, int) and value >= minimum


def _phase_difference_finite(theta_I, theta_II):
    return math.isfinite(theta_I - theta_II)


def _state_valid(state):
    if "amplitudes" in state:
        pair = [_amplitude(x) for x in state["amplitudes"]]
        return None not in pair and any(pair)
    weights = state["diagonal"]
    return all(map(_finite, weights)) and min(weights) >= 0 and any(weights)


def _accepted(subcommand, merged):
    """Whether the documented domain admits this merged configuration."""
    t1, r1, t2, r2 = (_amplitude(merged.get(key, DEFAULT)) for key in ("t1", "r1", "t2", "r2"))
    if not (_unitary(t1, r1) and _unitary(t2, r2)):
        return False
    theta_I, theta_II = merged.get("theta_I", 0.0), merged.get("theta_II", 0.0)
    if not (_finite(theta_I) and _finite(theta_II)):
        return False
    if not all(_integer(merged.get(key, 1), minimum) for key, minimum in (("probes", 0), ("trials", 1))):
        return False
    if not isinstance(merged.get("seed", 0), int):
        return False
    if "initial_state" in merged and not _state_valid(merged["initial_state"]):
        return False
    if subcommand != "sweep":
        return _phase_difference_finite(theta_I, theta_II)
    start, stop, steps = merged.get("from", 0.0), merged.get("to", 0.0), merged["steps"]
    if not (_finite(start) and _finite(stop) and _integer(steps, 1) and math.isfinite(stop - start)):
        return False
    # the grid runs from start to stop, so its end points bound every phase difference on it
    phases = {
        "delta": lambda value: (value, 0.0),
        "theta_I": lambda value: (value, theta_II),
        "theta_II": lambda value: (theta_I, value),
    }[merged["param"]]
    return all(_phase_difference_finite(*phases(value)) for value in ([start] if steps == 1 else [start, stop]))


def _artifacts_are_finite(out):
    for path in out.iterdir():
        if path.suffix == ".csv":
            for cell in (cell for row in csv.reader(path.open()) for cell in row):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), path
        else:
            for line in path.read_text().splitlines() if path.suffix == ".jsonl" else [path.read_text()]:
                json.loads(line, parse_constant=lambda name: pytest.fail(f"{path.name} holds {name}"))


def _run(subcommand, config_text, flags):
    """Exit status of one in-process run, and whether its output directory exists afterwards."""
    with tempfile.TemporaryDirectory() as root:
        config = Path(root) / "config.json"
        config.write_text(config_text)
        out = Path(root) / "out"
        argv = [subcommand, "--config", str(config), *(f"--{key}={value}" for key, value in flags), "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as stopped:  # argparse refuses a flag value its type cannot convert
                code = stopped.code
        if code == 0:
            _artifacts_are_finite(out)
        return code, out.exists()


def _draws(subcommand):
    keys, flag_keys = READS[subcommand]
    entries = st.lists(st.sampled_from([(k, v) for k in keys for v in CONFIG_VALUES[k]]), max_size=3)
    flags = st.lists(st.sampled_from([(k, v) for k in flag_keys for v in FLAG_VALUES]), max_size=2)
    params = st.sampled_from(["delta", "theta_I", "theta_II"]) if subcommand == "sweep" else st.none()
    return st.tuples(entries, flags, params)


def _check(subcommand, draw):
    entries, flags, param = draw
    texts = {key: json.dumps(value) for key, value in BASE[subcommand].items()}
    if param is not None:
        texts["param"] = json.dumps(param)
    texts.update(entries)
    config_text = "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in texts.items()) + "}"
    merged = json.loads(config_text)
    converted = True
    for key, value in flags:
        try:
            merged[key] = FLAG_TYPES[key](value)
        except ValueError:
            converted = False
    code, left_output = _run(subcommand, config_text, flags)
    expected = 0 if converted and _accepted(subcommand, merged) else 2
    assert code == expected, (config_text, flags)
    assert left_output == (code == 0), (config_text, flags)


@settings(max_examples=150)
@given(draw=_draws("interfere"))
@example(draw=([("theta_I", "1e308"), ("theta_II", "-1e308")], [], None))  # finite phases, infinite difference
def test_interfere_inputs_give_their_documented_exit_code(draw):
    _check("interfere", draw)


@settings(max_examples=150)
@given(draw=_draws("sweep"))
@example(draw=([("from", "-1e308")], [("to", "1e308")], "delta"))  # the grid width overflows
@example(draw=([("to", "1e308"), ("theta_II", "-1e308")], [("from", "1e308")], "theta_I"))
def test_sweep_inputs_give_their_documented_exit_code(draw):
    _check("sweep", draw)


@settings(max_examples=100)
@given(draw=_draws("twisted"))
def test_twisted_inputs_give_their_documented_exit_code(draw):
    _check("twisted", draw)
