"""The package names the benchmark in ``perfbench/`` reaches still resolve and still bind.

The benchmark calls into the package in three ways: attribute access on
imported modules (``interferometer.simulate_stream(...)`` or through
``ops.call(label, fn, *args)``), traced-function names such as
``"gates.sample_twisted"``, and command lines for ``cli.main``. A rename,
a changed signature or a dropped flag breaks a benchmark run only after
it starts; these checks read ``perfbench/*.py`` statically and fail first.
The traced benchmark also divides by the number of ``sample_twisted`` and
``simulate_stream`` calls, so one check counts those calls per trial.
"""

import ast
import inspect
from pathlib import Path

import pytest

import topoprobe
from topoprobe import cli, gates, interferometer

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = ("model", "interferometer", "surgery", "gates", "rng", "cli")

pytestmark = pytest.mark.skipif(not BENCH.is_dir(), reason="no perfbench directory next to the tests")


def _sources():
    return {path.name: ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))}


def _module_aliases(tree):
    """Local name -> topoprobe module, from ``from topoprobe import x [as y]``."""
    return {
        alias.asname or alias.name: getattr(topoprobe, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "topoprobe"
        for alias in node.names
    }


def _package_attribute(node, aliases):
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
        return aliases[node.value.id], node.attr
    return None


def _call_sites():
    """(file, line, function, positional count or None, keyword names) of each package call."""
    for name, tree in _sources().items():
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target, args, keywords = _package_attribute(node.func, aliases), node.args, node.keywords
            if target is None and isinstance(node.func, ast.Attribute) and node.func.attr == "call" and len(args) > 1:
                # Operations.call(label, fn, *args, ok=...) runs fn(*args)
                target, args, keywords = _package_attribute(args[1], aliases), args[2:], []
            if target is None:
                continue
            module, attr = target
            positional = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
            yield name, node.lineno, getattr(module, attr), positional, [k.arg for k in keywords]


def test_every_package_attribute_the_bench_reads_exists():
    missing = []
    for name, tree in _sources().items():
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            module, attr = _package_attribute(node, aliases) or (None, None)
            if module is not None and not hasattr(module, attr):
                missing.append(f"{name}:{node.lineno} {module.__name__}.{attr}")
    assert missing == []


def test_every_bench_call_binds_to_the_current_signature():
    sites = list(_call_sites())
    assert len(sites) >= 15
    for name, line, fn, positional, keywords in sites:
        signature = inspect.signature(fn)
        if positional is None:
            continue
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as err:
            pytest.fail(f"{name}:{line} {fn.__qualname__}{signature}: {err}")


def _traced_names():
    """Strings the bench uses as traced-function names: subscripts, calls_within arguments, tracer _COUNTS keys."""
    names = set()
    for tree in _sources().values():
        constants = {
            node.targets[0].id: node.value.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(tree):
            candidates = []
            if isinstance(node, ast.Subscript):
                candidates = [node.slice]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "calls_within":
                candidates = node.args
            elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_COUNTS":
                candidates = node.value.keys
            for value in candidates:
                text = constants.get(value.id) if isinstance(value, ast.Name) else getattr(value, "value", None)
                if isinstance(text, str) and text.split(".")[0] in LAYERS and text.count(".") == 1:
                    names.add(text)
    return names


def test_every_traced_name_is_a_function_of_its_layer():
    names = _traced_names()
    assert {"gates.sample_twisted", "interferometer.simulate_stream", "interferometer.p_factor"} <= names
    for name in names:
        layer, attr = name.split(".")
        module = getattr(topoprobe, layer)
        fn = getattr(module, attr, None)
        # the tracer wraps only plain functions defined in the layer itself
        assert callable(fn) and not isinstance(fn, type), name
        assert fn.__module__ == module.__name__, name


def _command_lines():
    """Flags per subcommand in every list literal that starts with a subcommand name."""
    for tree in _sources().values():
        lists = {
            node.targets[0].id: node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
            and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant)):
                continue
            if node.elts[0].value not in cli._SUBCOMMANDS:
                continue
            elements = []
            for element in node.elts[1:]:
                if isinstance(element, ast.Starred) and isinstance(element.value, ast.Name):
                    elements += lists[element.value.id].elts
                else:
                    elements.append(element)
            flags = [e.value for e in elements if isinstance(e, ast.Constant) and str(e.value).startswith("--")]
            yield node.elts[0].value, flags


def test_every_bench_command_line_uses_registered_flags():
    parser = cli._build_parser()
    commands = list(_command_lines())
    assert {subcommand for subcommand, _ in commands} >= {"interfere", "twisted", "sweep", "dump"}
    for subcommand, flags in commands:
        values = [token for flag in [*flags, "--out"] for token in (flag, "0")]
        parser.parse_args([subcommand, *values])  # an unknown flag exits 2 here


@pytest.mark.parametrize("argv, traced, trials", [
    (["twisted", "--trials", "3"], "sample_twisted", 3),
    (["interfere", "--trials", "4", "--probes", "2"], "simulate_stream", 4),
])
def test_each_trial_makes_one_traced_call(tmp_path, monkeypatch, capsys, argv, traced, trials):
    # the traced benchmark divides by these call counts to get per-trial and per-probe figures
    calls = []
    exact = getattr(cli, traced)
    monkeypatch.setattr(cli, traced, lambda *args: calls.append(args) or exact(*args))
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == trials


# Signatures the benchmark depends on, pinned by parameter name.
PINNED = {
    gates.QubitDensity: ["matrix"],
    gates.twisted_measure: ["rho", "outcome"],
    gates.sample_twisted: ["rho", "seed"],
    interferometer.simulate_stream: ["model", "rho", "config", "n_probes", "seed"],
    interferometer.p_factor: ["model", "a", "a_prime", "e", "config", "s"],
    interferometer.asymptotic_measure: ["model", "rho", "config"],
    interferometer.outcome_distribution: ["model", "rho", "config", "n_probes"],
    cli.main: ["argv"],
}


@pytest.mark.parametrize("fn", PINNED, ids=lambda fn: fn.__qualname__)
def test_bench_entry_point_signatures_are_pinned(fn):
    assert list(inspect.signature(fn).parameters) == PINNED[fn]


def test_public_api_is_pinned():
    assert sorted(topoprobe.__all__) == [
        "AnyonModel", "AnyonicDensityMatrix", "ChargeClass", "ConsistencyReport",
        "ConsistencyViolation", "DegenerateTuning", "DiagonalLoopOperator", "EquivalenceClass",
        "ForbiddenConnectingCharge", "InterferometerConfig", "InvalidCore", "MissingVacuum",
        "ModularMatrices", "NonAbelianSlide", "NonMultiplicityFree", "ParseError", "ProbeOutcome",
        "ProbeTrajectory", "QubitDensity", "QubitState", "TopoprobeError", "TorusVector",
        "UnitarityViolation", "UnsupportedBasisChange", "ZeroProbability", "align_global_phase",
        "apply_probe", "asymptotic_measure", "build_model", "clifford_library", "density_matrix",
        "equivalence_classes", "fixed_state", "ising", "load_model", "loop_around_line",
        "magic_state", "modular_matrices", "monodromy", "omega_vector", "outcome_distribution",
        "p_factor", "protocol_check", "protocol_residual", "protocol_unitary", "sample_twisted",
        "simulate_stream", "slide_omega", "solid_torus_operator", "state_fidelity",
        "synthesize_magic_state", "tau_operator", "twisted_measure", "twisted_operator",
        "verify_consistency",
    ]
    assert all(hasattr(topoprobe, name) for name in topoprobe.__all__)
