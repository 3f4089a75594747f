"""Configuration merging, subcommand artifacts, and exit codes."""

import argparse
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import oracles
from topoprobe import ParseError, TopoprobeError, UnitarityViolation, cli, errors, interferometer, ising
from topoprobe.cli import RunConfig, main, parse_config
from topoprobe.cli import _CONFIG_TABLE, _ArtifactWriter, _build_parser, _flag_overrides
from topoprobe.model import _ising_description


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# configuration


def test_defaults_are_the_symmetric_interferometer():
    run = parse_config(None)
    assert run == RunConfig()
    inv = 1.0 / math.sqrt(2.0)
    assert run.t1 == pytest.approx(inv)
    assert run.n_probes == 100 and run.trials == 1 and run.seed == 0
    assert run.probe_name == "sigma"


def test_flags_override_the_config_file(tmp_path):
    path = write_config(tmp_path, {"probes": 5, "seed": 9, "trials": 2})
    run = parse_config(path, {"probes": 7, "trials": None})
    assert run.n_probes == 7
    assert run.seed == 9
    assert run.trials == 2


def test_amplitudes_accept_complex_pairs(tmp_path):
    path = write_config(tmp_path, {
        "t1": [0.6, 0.0], "r1": [0.0, 0.8],
        "theta_I": 0.25, "theta_II": -0.5,
    })
    run = parse_config(path)
    assert run.t1 == pytest.approx(0.6)
    assert run.r1 == pytest.approx(0.8j)
    assert run.theta_I == 0.25 and run.theta_II == -0.5


def test_negative_seed_wraps_to_64_bits(tmp_path):
    path = write_config(tmp_path, {"seed": -1})
    assert parse_config(path).seed == 2**64 - 1


@pytest.mark.parametrize("payload, fragment", [
    ({"probes": -1}, "probes"),
    ({"trials": 0}, "trials"),
    ({"seed": 1.5}, "seed"),
    ({"t1": "big"}, "t1"),
    ({"theta_I": "quarter"}, "theta_I"),
    ({"probe": 7}, "probe"),
    # twists is no config key: the twisted measurement has its own subcommand
    ({"twists": [0, 0]}, "unknown config field 'twists'"),
    ({"twists": [0, 2]}, "twists"),
    ({"twists": "0,2"}, "twists"),
    ({"model": 3}, "model"),
    ({"out": 3}, "out"),
    ({"param": "phase"}, "param"),
    ({"steps": 0}, "steps"),
    ({"mystery": 1}, "mystery"),
    ({"initial_state": {"amplitudes": [1, 0], "diagonal": [1, 0]}}, "exactly one"),
    ({"initial_state": {"diagonal": [0.2, 0.3, 0.5]}}, "two entries"),
    ({"initial_state": {"amplitudes": [1, 0], "charges": ["I", 2]}}, "charge names"),
    ({"initial_state": []}, "object"),
    ({"from": math.nan}, "finite"),
    ({"to": math.inf}, "finite"),
    ({"to": 10**400}, "finite"),
    ({"t1": True, "r1": False}, "expected a number or"),
    ({"r2": [True, 0]}, "expected a number or"),
    ({"initial_state": {"amplitudes": [True, False]}}, "expected a number or"),
])
def test_malformed_config_fields_are_parse_errors(tmp_path, payload, fragment):
    path = write_config(tmp_path, payload)
    with pytest.raises(ParseError, match=fragment):
        parse_config(path)


def test_config_syntax_errors_carry_the_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"probes": \n oops}')
    with pytest.raises(ParseError, match="line 2"):
        parse_config(str(path))
    with pytest.raises(ParseError, match="does not exist"):
        parse_config(str(tmp_path / "absent.json"))
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(ParseError, match="top level"):
        parse_config(str(scalar))


def test_nonunitary_splitters_fail_fast(tmp_path):
    path = write_config(tmp_path, {"t1": 1.0, "r1": 1.0})
    with pytest.raises(UnitarityViolation, match="splitter 1"):
        parse_config(path)


@pytest.mark.parametrize("payload", [
    {"t1": math.nan},
    {"r2": [0.5, math.inf]},
    {"theta_I": math.nan},
    {"theta_II": -math.inf},
    {"theta_I": 10**400},
    {"t2": 10**400},
    {"t1": 1e200},
    {"initial_state": {"amplitudes": [math.nan, 1.0]}},
    {"initial_state": {"amplitudes": [[1.0, math.inf], 1.0]}},
    {"initial_state": {"amplitudes": [1.0, -math.inf]}},
])
def test_nonfinite_config_values_exit_2(tmp_path, capsys, payload):
    path = write_config(tmp_path, payload)
    out = tmp_path / "artifacts"
    code = main(["interfere", "--config", path, "--probes", "5", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("amplitudes", [[math.nan, 1.0], [[1.0, math.inf], 1.0]])
def test_nonfinite_amplitudes_exit_2_on_the_twisted_path(tmp_path, capsys, amplitudes):
    path = write_config(tmp_path, {"initial_state": {"amplitudes": amplitudes}})
    out = tmp_path / "artifacts"
    assert main(["twisted", "--config", path, "--out", str(out)]) == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", [key for key, *_ in _CONFIG_TABLE])
def test_every_config_key_refuses_nonfinite_values(tmp_path, monkeypatch, capsys, key, value):
    # no --out flag, so a run that got through would write into the working directory
    path = write_config(tmp_path, {key: value})
    monkeypatch.chdir(tmp_path)
    assert main(["interfere", "--config", path]) == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_unknown_model_is_rejected_at_parse_time(tmp_path):
    path = write_config(tmp_path, {"model": "heisenberg"})
    with pytest.raises(ParseError, match="heisenberg"):
        parse_config(path)


def test_every_run_field_has_exactly_one_config_key():
    fields = sorted(name for _, name, *_ in _CONFIG_TABLE)
    assert fields == sorted(f.name for f in dataclasses.fields(RunConfig))
    keys = {key for key, *_ in _CONFIG_TABLE}
    assert len(keys) == len(_CONFIG_TABLE)
    for argv in (["interfere"], ["sweep"]):
        assert set(_flag_overrides(_build_parser().parse_args(argv))) <= keys


def _flag_slots():
    """Option strings per subcommand, without -h/--help."""
    (subcommands,) = (a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.items()
    }


def test_flags_are_registered_only_where_they_are_read():
    slots = _flag_slots()
    common = {"--model", "--config", "--out"}
    assert slots == {
        "validate": common,
        "interfere": common | {"--probes", "--trials", "--seed"},
        "twisted": common | {"--trials", "--seed"},
        "protocol": common,
        "sweep": common | {"--param", "--from", "--to", "--steps"},
        "dump": common,
    }
    assert sum(map(len, slots.values())) == 27
    assert len(_CONFIG_TABLE) == 17  # every config key is still accepted by every subcommand


@pytest.mark.parametrize("argv", [
    ["validate", "--trials", "5"], ["dump", "--seed", "4"], ["twisted", "--probes", "5"],
    ["protocol", "--seed", "1"], ["sweep", "--param", "delta", "--steps", "2", "--trials", "2"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as stopped:
        main(argv)
    assert stopped.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_builtin_model_passes(capsys, tmp_path):
    out = tmp_path / "artifacts"
    code = main(["validate", "--model", "ising", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    payload = json.loads((out / "validation.json").read_text())
    assert payload["passed"] is True
    assert set(payload["families"]) == {
        "pentagon", "hexagon", "s_unitarity", "monodromy", "twist_vacuum", "f_unitarity",
    }
    assert payload["families"]["pentagon"]["checked"] == 136
    assert payload["families"]["f_unitarity"]["checked"] == 33


def test_validate_packaged_models(capsys):
    for name in ("fibonacci", "semion"):
        assert main(["validate", "--model", name]) == 0
        assert "PASS" in capsys.readouterr().out


def test_validate_rejects_an_inconsistent_model(capsys, tmp_path):
    description = {
        "charges": ["I", "s"],
        "fusion": [["I", "I", "I"], ["I", "s", "s"], ["s", "I", "s"], ["s", "s", "I"]],
        "F": [["s", "s", "s", "s", "I", "I", -1.0, 0.0]],
        "R": [["s", "s", "I", 0.0, 1.0]],
        "twists": [["s", 0.0, -1.0]],
    }
    path = tmp_path / "wrongtwist.json"
    path.write_text(json.dumps(description))
    code = main(["validate", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


def test_validate_reports_missing_files_as_usage_errors(capsys):
    assert main(["validate", "--model", "nosuchmodel"]) == 2
    assert "nosuchmodel" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# interfere


def interfere_args(out, extra=()):
    return ["interfere", "--probes", "10", "--trials", "3", "--seed", "42",
            "--out", str(out), *extra]


def test_interfere_writes_the_three_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    config = write_config(tmp_path, {"initial_state": {"diagonal": [0.3, 0.7]}})
    code = main(interfere_args(out, ["--config", config]))
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        "trajectories.jsonl", "summary.csv", "asymptotic.json",
    }

    lines = (out / "trajectories.jsonl").read_text().splitlines()
    assert len(lines) == 30
    first = json.loads(lines[0])
    assert set(first) == {"trial", "k", "s", "p_s", "coherence"}
    assert first["trial"] == 0 and first["k"] == 1
    assert first["s"] in ("transmitted", "reflected")

    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "trial,seed,n,N,fraction,collapsed_class"
    assert len(rows) == 4
    trial0 = rows[1].split(",")
    assert int(trial0[1]) == oracles.derive_trial_seed(42, 0)
    # transmissions are 0 and 1 exactly here, so every run saturates
    assert float(trial0[4]) in (0.0, 1.0)
    assert trial0[5] in ("I", "psi")

    table = json.loads((out / "asymptotic.json").read_text())
    weights = sorted(entry["probability"] for entry in table)
    assert weights == pytest.approx([0.3, 0.7], abs=1e-12)
    classes = {entry["charge_class"] for entry in table}
    assert classes == {"I", "psi"}
    for entry in table:
        matrix = entry["state"]["matrix"]
        assert len(matrix) == 2 and len(matrix[0]) == 2
        assert matrix[0][0] in ([0.0, 0.0], [1.0, 0.0])


def test_interfere_artifacts_are_byte_identical(tmp_path):
    config = write_config(tmp_path, {"theta_I": math.pi / 3.0})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(interfere_args(out_a, ["--config", config])) == 0
    assert main(interfere_args(out_b, ["--config", config])) == 0
    for name in ("trajectories.jsonl", "summary.csv", "asymptotic.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_interfere_seed_changes_the_outcomes(tmp_path):
    config = write_config(tmp_path, {"theta_I": math.pi / 3.0})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, seed in ((out_a, "1"), (out_b, "2")):
        code = main(["interfere", "--probes", "25", "--config", config,
                     "--out", str(out), "--seed", seed])
        assert code == 0
    assert ((out_a / "trajectories.jsonl").read_text()
            != (out_b / "trajectories.jsonl").read_text())


def test_factor_table_is_built_once_per_run(tmp_path, monkeypatch):
    calls = {}
    counted = interferometer.p_factor

    def counting(*args):
        calls[trials] += 1
        return counted(*args)

    monkeypatch.setattr(interferometer, "p_factor", counting)
    for trials in (1, 50):
        calls[trials] = 0
        code = main(["interfere", "--probes", "40", "--trials", str(trials),
                     "--out", str(tmp_path / str(trials))])
        assert code == 0
    assert calls[50] <= calls[1] <= 14


def test_degenerate_tuning_exits_without_artifacts(tmp_path, capsys):
    out = tmp_path / "nothing"
    config = write_config(tmp_path, {"theta_I": math.pi / 2.0})
    code = main(interfere_args(out, ["--config", config]))
    assert code == 3
    assert "share transmission" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_unknown_probe_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, {"probe": "tau"})
    code = main(interfere_args(tmp_path / "x", ["--config", config]))
    assert code == 2
    assert "tau" in capsys.readouterr().err


def test_unsupported_twists_are_a_usage_error(tmp_path, monkeypatch, capsys):
    # the twisted measurement is reached only through the twisted subcommand
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"twists": [0, 2]})
    assert main(["interfere", "--config", path]) == 2
    assert "unknown config field 'twists'" in capsys.readouterr().err
    for subcommand in ("interfere", "twisted", "sweep"):
        with pytest.raises(SystemExit) as exit_info:
            main([subcommand, "--twists", "0,2"])
        assert exit_info.value.code == 2
        assert "--twists" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# ---------------------------------------------------------------------------
# twisted and protocol


def test_twisted_histogram_and_fidelities(tmp_path):
    out = tmp_path / "tw"
    config = write_config(tmp_path, {"initial_state": {"amplitudes": [1, 0]}})
    code = main(["twisted", "--trials", "64", "--seed", "11", "--out", str(out),
                 "--config", config])
    assert code == 0
    payload = json.loads((out / "twisted.json").read_text())
    histogram = payload["histogram"]
    assert histogram["I"] + histogram["psi"] == 64
    assert histogram["I"] > histogram["psi"]
    for name in ("I", "psi"):
        assert payload["magic_state_fidelity"][name] == pytest.approx(1.0, abs=1e-12)
    conditioned = payload["conditioned"]["I"]
    assert conditioned["probability"] == pytest.approx(
        math.cos(math.pi / 8.0) ** 2, abs=1e-12)
    assert conditioned["state"][0][0] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_twisted_requires_the_ising_model(capsys):
    assert main(["twisted", "--model", "fibonacci"]) == 2
    assert "ising" in capsys.readouterr().err


def test_protocol_refuses_a_non_ising_model_like_twisted(tmp_path, capsys):
    messages = []
    for subcommand in ("twisted", "protocol"):
        out = tmp_path / subcommand
        assert main([subcommand, "--model", "fibonacci", "--out", str(out)]) == 2
        messages.append(capsys.readouterr().err)
        assert not out.exists()
    assert messages == ["error: the twisted measurement path is defined for the ising model\n"] * 2


@pytest.mark.parametrize("charges, message", [
    (["sigma", "sigma"], "error: initial state is invalid: duplicate basis labels\n"),
    (["I", "sigma"], "I/psi qubit"),
    (["psi", "I"], "I/psi qubit"),
], ids=["duplicate", "sigma", "swapped"])
def test_twisted_reads_the_initial_state_charges(tmp_path, capsys, charges, message):
    path = write_config(tmp_path, {"initial_state": {"amplitudes": [1, 1], "charges": charges}})
    out = tmp_path / "run"
    assert main(["twisted", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_twisted_with_the_default_charges_named_runs_the_default(tmp_path):
    named = write_config(tmp_path, {"initial_state": {"amplitudes": [1, 1], "charges": ["I", "psi"]}})
    plain = write_config(tmp_path, {"initial_state": {"amplitudes": [1, 1]}}, name="plain.json")
    for name, path in (("named", named), ("plain", plain)):
        assert main(["twisted", "--config", path, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "named" / "twisted.json").read_bytes() == (
        tmp_path / "plain" / "twisted.json").read_bytes()


@pytest.mark.parametrize("state, reference", [
    ({"amplitudes": [1e200, 1]}, {"amplitudes": [1, 0]}),
    ({"amplitudes": [[1e308, 1e308], 0]}, {"amplitudes": [[1, 1], 0]}),
    ({"diagonal": [1e308, 1e308]}, {"diagonal": [1, 1]}),
])
@pytest.mark.parametrize("subcommand", ["interfere", "twisted"])
def test_huge_initial_weights_are_rescaled_not_refused(tmp_path, capsys, subcommand, state, reference):
    # the plain norm or sum of these overflows; the run must neither warn nor see a zero state
    path = write_config(tmp_path, {"initial_state": state})
    probes = ["--probes", "5"] if subcommand == "interfere" else []
    assert main([subcommand, "--config", path, *probes, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
    expected = write_config(tmp_path, {"initial_state": reference}, name="reference.json")
    built, wanted = (cli._initial_state(parse_config(p), ising()).matrix for p in (path, expected))
    assert np.max(np.abs(built - wanted)) <= 1e-15


@pytest.mark.parametrize("subcommand, builder", [
    ("interfere", "density_matrix"), ("sweep", "density_matrix"), ("twisted", "density_matrix"),
])
def test_an_invalid_initial_state_reads_alike_on_every_subcommand(tmp_path, monkeypatch, capsys,
                                                                    subcommand, builder):
    def refuse(*args):
        raise ValueError("refused")

    monkeypatch.setattr(cli, builder, refuse)
    argv = [subcommand, "--param", "delta", "--steps", "2"] if subcommand == "sweep" else [subcommand]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: initial state is invalid: refused\n"
    assert not (tmp_path / "run").exists()


def test_protocol_table(tmp_path, capsys):
    out = tmp_path / "proto"
    code = main(["protocol", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("residual") >= 4
    payload = json.loads((out / "protocol.json").read_text())
    assert len(payload["table"]) == 4
    for entry in payload["table"]:
        assert entry["residual"] < 1e-12
    decoupling = payload["sigma_decoupling"]
    assert decoupling["B_sigma_I"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert decoupling["B_sigma_psi"] == pytest.approx([0.0, 0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# sweep and dump


def test_sweep_grid_and_rows(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--param", "delta", "--from", "0", "--to",
                 str(math.pi), "--steps", "5", "--out", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "param,value,charge_class,transmission,initial_weight"
    assert len(rows) == 1 + 5 * 3
    first = rows[1].split(",")
    assert first[0] == "delta" and float(first[1]) == 0.0
    by_class = {row.split(",")[2]: float(row.split(",")[3]) for row in rows[1:4]}
    assert by_class["I"] == pytest.approx(1.0, abs=1e-12)
    assert by_class["sigma"] == pytest.approx(0.5, abs=1e-12)
    assert by_class["psi"] == pytest.approx(0.0, abs=1e-12)
    # at delta = pi the vacuum and fermion transmissions have traded places
    last = {row.split(",")[2]: float(row.split(",")[3]) for row in rows[-3:]}
    assert last["I"] == pytest.approx(0.0, abs=1e-12)
    assert last["psi"] == pytest.approx(1.0, abs=1e-12)


def test_sweep_requires_param_and_steps(capsys):
    assert main(["sweep", "--steps", "3"]) == 2
    assert "param" in capsys.readouterr().err
    assert main(["sweep", "--param", "delta"]) == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, payload", [
    ("interfere", {"theta_I": 1e308, "theta_II": -1e308}),
    ("sweep", {"param": "theta_I", "from": 1e308, "to": 1e308, "steps": 2, "theta_II": -1e308}),
], ids=["interfere", "sweep"])
def test_an_infinite_phase_difference_exits_2_without_files(tmp_path, capsys, subcommand, payload):
    # unchecked, interfere would fail only at the JSON writer and sweep would write nan into sweep.csv
    out = tmp_path / "run"
    assert main([subcommand, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert "their difference, must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_range_whose_width_overflows_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["sweep", "--param", "delta", "--from=-1e308", "--to", "1e308", "--steps", "3"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "sweep range" in capsys.readouterr().err
    assert not out.exists()


def test_dump_matrices(tmp_path):
    out = tmp_path / "dump"
    assert main(["dump", "--out", str(out)]) == 0
    payload = json.loads((out / "matrices.json").read_text())
    assert payload["charges"] == ["I", "sigma", "psi"]
    s = np.array([[complex(re, im) for re, im in row] for row in payload["S"]])
    assert np.max(np.abs(s - oracles.printed_ising_s())) < 1e-12
    b = np.array([[complex(re, im) for re, im in row] for row in payload["B"]])
    assert np.max(np.abs(b - oracles.ising_b_matrix())) < 1e-12
    ops = payload["twisted_operators"]
    assert set(ops) == {"I", "sigma", "psi"}
    vac = [complex(re, im) for re, im in ops["I"]]
    assert vac[0] == pytest.approx(1.0 + np.exp(1j * math.pi / 4.0), abs=1e-12)


def test_dump_works_for_loaded_models(tmp_path):
    out = tmp_path / "fib"
    assert main(["dump", "--model", "fibonacci", "--out", str(out)]) == 0
    payload = json.loads((out / "matrices.json").read_text())
    assert payload["charges"] == ["I", "tau"]


# ---------------------------------------------------------------------------
# plumbing


@pytest.mark.parametrize("write", [
    lambda writer: writer.write_json("a.json", {"x": math.nan}),
    lambda writer: writer.write_jsonl("a.jsonl", [{"x": 1.0}, {"x": math.inf}]),
], ids=["json", "jsonl"])
def test_json_writers_refuse_nonfinite_numbers(tmp_path, write):
    with pytest.raises(ValueError, match="JSON compliant"):
        write(_ArtifactWriter(str(tmp_path)))


@pytest.fixture
def nan_asymptotic(monkeypatch):
    exact = cli.asymptotic_measure
    monkeypatch.setattr(
        cli, "asymptotic_measure",
        lambda *args: [(math.nan, fixed) for _, fixed in exact(*args)],
    )


def test_a_nan_artifact_rolls_back_the_run(tmp_path, nan_asymptotic, capsys):
    out = tmp_path / "run"
    assert main(interfere_args(out)) == 2
    assert "JSON compliant" in capsys.readouterr().err
    # trajectories.jsonl and summary.csv were written before asymptotic.json failed;
    # the output directory the run created goes too
    assert not out.exists()


def test_a_rollback_keeps_an_existing_output_directory(tmp_path, nan_asymptotic, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert main(interfere_args(out)) == 2
    assert "JSON compliant" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"


def test_a_failed_rerun_keeps_the_earlier_runs_artifacts(tmp_path, request, capsys):
    out = tmp_path / "run"
    assert main(interfere_args(out)) == 0
    earlier = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(earlier) == ["asymptotic.json", "summary.csv", "trajectories.jsonl"]
    request.getfixturevalue("nan_asymptotic")
    # another seed, so a rerun that rewrote trajectories.jsonl or summary.csv would change their bytes
    assert main(interfere_args(out, ["--seed", "43"])) == 2
    assert "JSON compliant" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier


def _error_classes():
    return [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, TopoprobeError) and value is not TopoprobeError
    ]


# Exit status per error kind, as the README documents it.
_DOCUMENTED_EXIT = {
    "MissingVacuum": 1, "NonMultiplicityFree": 1, "ConsistencyViolation": 1,
    "ZeroProbability": 3, "DegenerateTuning": 3,
}


@pytest.mark.parametrize("error", [*_error_classes(), ValueError], ids=lambda error: error.__name__)
def test_each_error_kind_maps_to_its_documented_exit_code(monkeypatch, capsys, error):
    def failing(run, subcommand):
        raise error("injected failure")

    monkeypatch.setattr(cli, "execute", failing)
    assert main(["protocol"]) == _DOCUMENTED_EXIT.get(error.__name__, 2)
    assert capsys.readouterr().err == "error: injected failure\n"


def test_an_unlisted_error_kind_is_a_usage_error(monkeypatch, capsys):
    class Unforeseen(TopoprobeError):
        pass

    def failing(run, subcommand):
        raise Unforeseen("new kind")

    monkeypatch.setattr(cli, "execute", failing)
    assert main(["protocol"]) == 2
    assert capsys.readouterr().err == "error: new kind\n"


@pytest.mark.parametrize("s_rows", [[[[1.0]]], [[0.7, 0.0], [0.7, 0.0]], [[[1.0, 0.0]]]])
def test_a_malformed_s_matrix_is_a_usage_error(tmp_path, capsys, s_rows):
    description = oracles.model_description(oracles.semion_data())
    path = tmp_path / "semion_s.json"
    path.write_text(json.dumps(dict(description, S=s_rows)))
    assert main(["validate", "--model", str(path)]) == 2
    assert f"S matrix {s_rows!r} is not 2x2 [re, im] pairs" in capsys.readouterr().err


def test_a_singular_s_fails_validation_not_the_inversion(tmp_path, capsys):
    # Z_2 with trivial braiding has S = [[1, 1], [1, 1]] / sqrt 2; B = S T^2 S^-1 is never formed for it
    path = tmp_path / "z2_bosons.json"
    path.write_text(json.dumps(oracles.model_description(oracles.zn_data(2, 0))))
    assert main(["validate", "--model", str(path)]) == 1
    assert "model fails the s_unitarity family" in capsys.readouterr().out


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["R"][0].__setitem__(3, "x"), "R table entry ('x', "),
    (lambda d: d.update(S=[[[[1.0, 2.0], 0.0]] + [[1.0, 0.0]] * 2] * 3),
     "S matrix entry ([1.0, 2.0], 0.0) is not numeric"),
], ids=["R", "S"])
def test_a_non_numeric_table_value_is_a_usage_error(tmp_path, capsys, mutate, message):
    description = _ising_description()
    mutate(description)
    path = tmp_path / "non_numeric.json"
    path.write_text(json.dumps(description))
    assert main(["validate", "--model", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_a_huge_twist_fails_validation_without_numpy_warnings(tmp_path, capsys):
    description = _ising_description()
    description["twists"][1] = ["sigma", 1e200, 0.0]
    path = tmp_path / "huge_twist.json"
    path.write_text(json.dumps(description))
    assert main(["validate", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert "error: model fails the s_unitarity family (max residual nan)" in captured.out
    assert captured.err == ""


def test_a_short_dims_row_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "short_dims.json"
    path.write_text(json.dumps({"charges": ["I"], "fusion": [["I", "I", "I"]], "dims": [["I"]]}))
    assert main(["validate", "--model", str(path)]) == 2
    assert "dims entry ['I'] is not [charge, value]" in capsys.readouterr().err


def test_failed_runs_leave_no_partial_files(tmp_path):
    writer = _ArtifactWriter(str(tmp_path / "partial"))
    writer.write_json("a.json", {"x": 1})
    writer.write_csv("b.csv", ["h"], [[1]])
    # both are written, under temporary names until the commit
    assert sorted(p.name for p in (tmp_path / "partial").iterdir()) == [".a.json.partial", ".b.csv.partial"]
    writer.rollback()
    assert not (tmp_path / "partial").exists()


def test_entry_point_runs_in_a_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "topoprobe.cli", "validate", "--model", "semion"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_artifact_numbers_round_trip_as_plain_json(tmp_path):
    out = tmp_path / "tw"
    assert main(["twisted", "--out", str(out)]) == 0
    text = (out / "twisted.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    payload = json.loads(text)
    assert isinstance(payload["histogram"]["I"], int)
