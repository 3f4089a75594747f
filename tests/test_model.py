"""Model construction, axiom checking, and the built-in theories."""

import cmath
import copy
import dataclasses
import json
import math
from types import MappingProxyType

import numpy as np
import pytest

import oracles
from topoprobe import (
    ConsistencyViolation,
    MissingVacuum,
    NonMultiplicityFree,
    ParseError,
    build_model,
    ising,
    load_model,
    monodromy,
    verify_consistency,
)
from topoprobe.model import _ising_description


def indexed(model, names):
    return tuple(model.charge_index(n) for n in names)


# ---------------------------------------------------------------------------
# the certified Ising theory


def test_ising_passes_every_axiom_family():
    report = verify_consistency(ising(), tolerance=1e-12)
    assert report.passed
    assert set(report.families) == {
        "pentagon", "hexagon", "s_unitarity", "monodromy", "twist_vacuum", "f_unitarity",
    }
    # instance counts pin the enumeration domain of each family
    counts = {name: fam.checked for name, fam in report.families.items()}
    assert counts == {
        "pentagon": 136, "hexagon": 85, "s_unitarity": 4,
        "monodromy": 2, "twist_vacuum": 16, "f_unitarity": 33,
    }
    name, residual = report.worst()
    assert residual < 1e-12
    assert "ok" in report.summary()


def test_ising_symbols_match_reference():
    model = ising()
    data = oracles.ising_data()
    f_ref, r_ref = oracles.complete_symbols(data)
    assert model.charges == data["names"]
    for key, value in f_ref.items():
        assert model.f(*indexed(model, key)) == pytest.approx(value, abs=1e-15)
    for key, value in r_ref.items():
        assert model.r(*indexed(model, key)) == pytest.approx(value, abs=1e-15)
    for name, value in data["twists"].items():
        assert model.twists[model.charge_index(name)] == pytest.approx(value, abs=1e-15)
    for name, value in data["dims"].items():
        assert model.dims[model.charge_index(name)] == pytest.approx(value, abs=1e-12)
    assert model.total_dim == pytest.approx(2.0, abs=1e-12)
    assert model.dual == (0, 1, 2)


def test_ising_modular_matrices():
    model = ising()
    assert np.max(np.abs(model.s_matrix - oracles.printed_ising_s())) < 1e-15
    assert np.max(np.abs(np.diag(model.t_matrix) - model.twists)) == 0.0
    # ratios of S entries land on exact small integers for this theory
    expected_m = np.array([[1, 1, 1], [1, 0, -1], [1, -1, 1]], dtype=complex)
    assert np.array_equal(model.monodromy, expected_m)


def test_disallowed_symbol_lookups_return_zero():
    model = ising()
    sigma = model.charge_index("sigma")
    assert model.f(0, 0, 0, 0, 0, sigma) == 0j
    assert model.r(sigma, sigma, sigma) == 0j
    assert model.allows(sigma, sigma, 0)
    assert not model.allows(sigma, sigma, sigma)
    assert model.fusion_outcomes(sigma, sigma) == (0, 2)


def test_monodromy_helper_values():
    model = ising()
    sigma, psi = model.charge_index("sigma"), model.charge_index("psi")
    assert monodromy(model, sigma, psi) == pytest.approx(-1.0, abs=1e-15)
    assert monodromy(model, psi, psi) == pytest.approx(1.0, abs=1e-15)
    assert monodromy(model, sigma, sigma) == pytest.approx(0.0, abs=1e-15)


def test_model_arrays_are_frozen():
    model = ising()
    with pytest.raises(ValueError):
        model.fusion[0, 0, 0] = 0
    with pytest.raises(ValueError):
        model.s_matrix[0, 0] = 0.0
    with pytest.raises(TypeError):
        model.f_symbols[(0, 0, 0, 0, 0, 0)] = 2.0


# ---------------------------------------------------------------------------
# loaded theories


def test_fibonacci_matches_reference(fibonacci):
    data = oracles.fibonacci_data()
    f_ref, r_ref = oracles.complete_symbols(data)
    assert fibonacci.charges == data["names"]
    for key, value in f_ref.items():
        assert fibonacci.f(*indexed(fibonacci, key)) == pytest.approx(value, abs=1e-12)
    for key, value in r_ref.items():
        assert fibonacci.r(*indexed(fibonacci, key)) == pytest.approx(value, abs=1e-12)
    tau = fibonacci.charge_index("tau")
    assert fibonacci.dims[tau] == pytest.approx(oracles.PHI, abs=1e-12)
    assert fibonacci.twists[tau] == pytest.approx(data["twists"]["tau"], abs=1e-12)
    assert np.max(np.abs(fibonacci.s_matrix - oracles.ribbon_s(data))) < 1e-12


def test_semion_matches_reference(semion):
    data = oracles.semion_data()
    s = semion.charge_index("s")
    assert semion.twists[s] == pytest.approx(1j, abs=1e-12)
    assert semion.f(s, s, s, s, 0, 0) == pytest.approx(-1.0, abs=1e-12)
    assert semion.r(s, s, 0) == pytest.approx(1j, abs=1e-12)
    assert monodromy(semion, s, s) == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(semion.monodromy - oracles.monodromy_matrix(data))) < 1e-12


@pytest.mark.parametrize("theory", ["ising", "fibonacci", "semion"])
def test_structural_invariants_hold(theory, request):
    model = ising() if theory == "ising" else request.getfixturevalue(theory)
    n = model.n_charges
    assert verify_consistency(model).passed
    for a in range(n):
        assert model.dual[model.dual[a]] == a
        for b in range(n):
            # the outcome table behind the lookups is the fusion array, read another way
            assert model.fusion_outcomes(a, b) == tuple(np.flatnonzero(model.fusion[a, b]))
            assert [model.allows(a, b, c) for c in range(n)] == list(model.fusion[a, b] == 1)
            fused = sum(model.dims[c] for c in model.fusion_outcomes(a, b))
            assert fused == pytest.approx(model.dims[a] * model.dims[b], abs=1e-9)
            # monodromy is a weight-one average of phases, so it sits in the disk
            assert abs(model.monodromy[a, b]) <= 1.0 + 1e-12
    assert np.max(np.abs(model.monodromy - model.monodromy.T)) < 1e-12
    identity = np.eye(n)
    assert np.max(np.abs(model.s_matrix @ model.s_matrix.conj().T - identity)) < 1e-9


# ---------------------------------------------------------------------------
# defect detection


def test_sign_flipped_recoupling_fails_pentagon():
    description = _ising_description()
    broken = copy.deepcopy(description)
    broken["F"][0][6] = -broken["F"][0][6]
    with pytest.raises(ConsistencyViolation) as err:
        build_model(broken)
    report = err.value.report
    assert report is not None and not report.passed
    assert report.families["pentagon"].max_residual > 1.0
    assert report.families["pentagon"].failures

    data = oracles.ising_data()
    data["f"] = dict(data["f"])
    key = ("sigma", "sigma", "sigma", "sigma", "I", "I")
    data["f"][key] = -data["f"][key]
    expected, _ = oracles.pentagon_residuals(data)
    assert report.families["pentagon"].max_residual == pytest.approx(expected, abs=1e-12)


def test_wrong_twist_fails_braiding_family():
    broken = _ising_description()
    broken["twists"][1] = ["sigma", 1.0, 0.0]
    with pytest.raises(ConsistencyViolation) as err:
        build_model(broken)
    report = err.value.report
    assert report is not None

    data = oracles.ising_data()
    data["twists"] = dict(data["twists"], sigma=1.0 + 0j)
    expected = oracles.twist_relation_residuals(data)
    assert expected == pytest.approx(2.0 * math.sin(math.pi / 16.0), abs=1e-12)
    assert report.families["hexagon"].max_residual == pytest.approx(expected, abs=1e-12)


def test_nonfinite_declared_dimension_is_rejected():
    description = _ising_description()
    description["dims"] = [["sigma", math.nan]]
    with pytest.raises(ConsistencyViolation, match="dimension"):
        build_model(description)


def test_nonfinite_table_file_is_a_parse_error(tmp_path):
    description = _ising_description()
    description["twists"][1][2] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(description))
    with pytest.raises(ParseError, match="finite"):
        load_model(path)


@pytest.mark.parametrize("poison", ["F", "twists"])
def test_nan_residuals_fail_certification(poison):
    model = ising()
    if poison == "F":
        key = indexed(model, ("sigma", "sigma", "sigma", "sigma", "I", "I"))
        symbols = dict(model.f_symbols)
        symbols[key] = complex(math.nan, 0.0)
        model = dataclasses.replace(model, f_symbols=MappingProxyType(symbols))
    else:
        twists = np.array(model.twists)
        twists[model.charge_index("sigma")] = math.nan
        model = dataclasses.replace(model, twists=twists)
    with np.errstate(invalid="ignore"):  # NaN arithmetic is the point here
        report = verify_consistency(model)
    assert not report.passed
    family, residual = report.worst()
    assert math.isnan(residual)
    assert report.families[family].failures
    assert "FAIL" in report.summary()


def test_non_unitary_gauge_fails_only_f_unitarity():
    # u(1,1;2) = 2 is a gauge transform: pentagon and hexagon still hold, but
    # the F blocks it rescales by 2 and by 1/2 are no longer unitary
    data = oracles.zn_data(3, 1)
    data["f"] = oracles.gauge_f(data, {("1", "1", "2"): 2.0})
    assert set(data["f"].values()) - {1.0} == {0.5, 2.0}
    with pytest.raises(ConsistencyViolation, match="f_unitarity") as err:
        build_model(oracles.model_description(data))
    report = err.value.report
    failing = [name for name, fam in report.families.items() if not fam.max_residual < 1e-12]
    assert failing == ["f_unitarity"]
    assert report.families["f_unitarity"].max_residual == 3.0  # |2|^2 - 1


def test_non_associative_fusion_gives_non_square_f_blocks():
    description = {
        "charges": ["I", "x", "y"],
        "fusion": [
            ["I", "I", "I"], ["I", "x", "x"], ["I", "y", "y"], ["x", "I", "x"], ["y", "I", "y"],
            ["x", "y", "I"], ["y", "x", "I"], ["x", "x", "x"], ["y", "y", "y"],
        ],
    }
    with pytest.raises(ConsistencyViolation) as err:
        build_model(description)
    family = err.value.report.families["f_unitarity"]
    assert family.max_residual == 1.0
    assert family.failures[0][0] == "F(x,x,y;I) is 1x0, not square"


def test_empty_description_is_rejected():
    with pytest.raises(MissingVacuum):
        build_model({})


def test_broken_vacuum_fusion_is_rejected():
    with pytest.raises(MissingVacuum):
        build_model({"charges": ["I", "psi"], "fusion": [["psi", "psi", "I"]]})


def test_repeated_fusion_triple_is_rejected():
    description = _ising_description()
    description["fusion"].append(["psi", "psi", "I"])
    with pytest.raises(NonMultiplicityFree):
        build_model(description)


def test_charge_without_unique_conjugate_is_rejected():
    description = {
        "charges": ["I", "a", "b"],
        "fusion": [
            ["I", "I", "I"], ["I", "a", "a"], ["I", "b", "b"],
            ["a", "I", "a"], ["b", "I", "b"],
            ["a", "a", "I"], ["a", "b", "I"], ["b", "a", "I"], ["b", "b", "I"],
        ],
    }
    with pytest.raises(ConsistencyViolation, match="exactly one conjugate"):
        build_model(description)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["fusion"].append(["I", "ghost", "I"]), "unknown charge"),
    (lambda d: d["fusion"].append(["I", "I"]), "not a charge triple"),
    (lambda d: d["F"].append(["I", "I", "I", "I", "I", "psi", 1.0, 0.0]), "not allowed"),
    (lambda d: d["F"].append(["I", "I", "I", "I", "I", 1.0, 0.0]), "F entry"),
    (lambda d: d["R"].append(["sigma", "sigma", "sigma", 1.0, 0.0]), "not allowed"),
    (lambda d: d["R"].append(["sigma", "sigma", 1.0, 0.0]), "R entry"),
    (lambda d: d["twists"].append(["psi", -1.0]), "twist entry"),
    (lambda d: d.update(dims=[["sigma"]]), "dims entry"),
    (lambda d: d.update(dims=[["sigma", 1.0, 0.0]]), "dims entry"),
    (lambda d: d.update(charges=["I", "sigma", "psi", "I"]), "duplicate charge"),
    (lambda d: d["F"][0].__setitem__(6, math.nan), "finite"),
    (lambda d: d["R"][0].__setitem__(4, math.inf), "finite"),
    (lambda d: d["R"][0].__setitem__(3, 10**400), "finite"),
    (lambda d: d["twists"][1].__setitem__(1, math.nan), "finite"),
    (lambda d: d.update(S=[[[math.nan, 0.0]] * 3] * 3), "finite"),
])
def test_malformed_descriptions_raise_value_errors(mutate, message):
    description = _ising_description()
    mutate(description)
    with pytest.raises(ValueError, match=message):
        build_model(description)


def test_declared_dimension_mismatch_is_rejected():
    description = _ising_description()
    description["dims"] = [["sigma", 1.0]]
    with pytest.raises(ConsistencyViolation, match="dimension"):
        build_model(description)


def test_declared_s_matrix_mismatch_is_rejected():
    description = _ising_description()
    description["S"] = [
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    ]
    with pytest.raises(ConsistencyViolation, match="S matrix"):
        build_model(description)


def test_consistent_declared_tables_are_accepted():
    description = _ising_description()
    description["dims"] = [["I", 1.0], ["sigma", math.sqrt(2.0)], ["psi", 1.0]]
    s = oracles.printed_ising_s()
    description["S"] = [[[v.real, v.imag] for v in row] for row in s]
    model = build_model(description)
    assert verify_consistency(model).passed


# ---------------------------------------------------------------------------
# generated Z_N^(p) theories


@pytest.mark.parametrize("n, p", [(3, 1), (5, 2), (7, 3), (11, 2)])
def test_zn_instance_counts_follow_closed_forms(n, p):
    model = build_model(oracles.model_description(oracles.zn_data(n, p)))
    report = verify_consistency(model, tolerance=1e-12)
    assert report.passed
    counts = {name: fam.checked for name, fam in report.families.items()}
    assert counts["pentagon"] == n**4
    # both hexagons per (a, b, c), a twist relation per charge, a modulus check per R
    assert counts["hexagon"] == 2 * n**3 + n**2 + n
    assert counts["f_unitarity"] == n**3


def labelled_charges(label):
    return dict(item.split("=") for item in label.split()[1:])


def test_zn_hexagon_residuals_match_the_oracle():
    data = oracles.zn_data(5, 2)
    report = verify_consistency(build_model(oracles.model_description(data)))
    assert report.families["pentagon"].max_residual == 0.0  # F = 1: every instance is 1 - 1
    expected, _ = oracles.hexagon_residuals(data)
    assert report.families["hexagon"].max_residual == pytest.approx(expected, abs=1e-12)

    perturbed = dict(data, r=dict(data["r"]))
    perturbed["r"][("1", "2", "3")] *= cmath.exp(0.3j)
    with pytest.raises(ConsistencyViolation, match="hexagon") as err:
        build_model(oracles.model_description(perturbed))
    hexagon = err.value.report.families["hexagon"]
    expected, _ = oracles.hexagon_residuals(perturbed)
    assert expected > 0.1
    assert hexagon.max_residual == pytest.approx(expected, abs=1e-12)
    f, r = oracles.complete_symbols(perturbed)
    assert hexagon.failures
    for label, residual in hexagon.failures:
        charges = labelled_charges(label)
        conj = label.startswith("hexagon(R-inverse)")
        instance = [charges[x] for x in "abcdeg"]
        assert oracles.hexagon_instance(f, r, data["names"], conj, *instance) == pytest.approx(
            residual, abs=1e-15
        )


def test_corrupted_recoupling_failures_name_their_instances():
    # the oracle's n^10 pentagon sweep is quick only for the smallest theories
    data = oracles.zn_data(3, 1)
    key = ("1", "1", "2", "1", "2", "0")
    data["f"] = {key: cmath.exp(0.5j)}
    with pytest.raises(ConsistencyViolation) as err:
        build_model(oracles.model_description(data))
    pentagon = err.value.report.families["pentagon"]
    expected, _ = oracles.pentagon_residuals(data)
    assert expected > 0.1
    assert pentagon.max_residual == pytest.approx(expected, abs=1e-12)

    f, _ = oracles.complete_symbols(data)
    names = data["names"]
    assert pentagon.failures
    for label, residual in pentagon.failures:
        charges = labelled_charges(label)
        a, b, c, d, e, ff, g, j, k = instance = [charges[x] for x in "abcdefgjk"]
        assert oracles.pentagon_instance(f, names, *instance) == pytest.approx(residual, abs=1e-15)
        assert residual > 0.1
        factors = {(ff, c, d, e, g, j), (a, b, j, e, ff, k)}
        for h in names:
            factors |= {(a, b, c, g, ff, h), (a, h, d, e, g, k), (b, c, d, k, h, j)}
        assert key in factors


# ---------------------------------------------------------------------------
# file loading


def test_load_reports_json_syntax_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"charges": ["I",\n "oops"')
    with pytest.raises(ParseError, match="line"):
        load_model(path)


def test_load_rejects_non_object_top_level(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="top level"):
        load_model(path)


def test_load_wraps_description_errors_with_path(tmp_path):
    path = tmp_path / "badcharge.json"
    path.write_text(json.dumps({
        "charges": ["I", "x"],
        "fusion": [["I", "I", "I"], ["I", "x", "x"], ["x", "I", "x"],
                   ["x", "ghost", "I"]],
    }))
    with pytest.raises(ParseError, match="badcharge"):
        load_model(path)


def test_load_round_trips_the_builtin_theory(tmp_path):
    path = tmp_path / "ising.json"
    path.write_text(json.dumps(_ising_description()))
    model = load_model(path)
    assert np.max(np.abs(model.s_matrix - ising().s_matrix)) == 0.0
    assert model.charges == ising().charges
