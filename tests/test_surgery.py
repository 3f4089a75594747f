"""Loop insertions, modular combinations, and solid-torus operators."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from topoprobe import (
    InvalidCore,
    NonAbelianSlide,
    build_model,
    ising,
    loop_around_line,
    modular_matrices,
    omega_vector,
    slide_omega,
    solid_torus_operator,
    tau_operator,
    twisted_operator,
)
from topoprobe.surgery import DiagonalLoopOperator, TorusVector

OMEGA8 = cmath.exp(1j * math.pi / 4)


# ---------------------------------------------------------------------------
# omega loops


def test_vacuum_omega_coefficients():
    w = omega_vector(ising(), 0)
    expected = np.array([0.25, math.sqrt(2.0) / 4.0, 0.25])
    assert np.max(np.abs(w - expected)) < 1e-15


def test_omega_loop_projects_on_its_charge():
    model = ising()
    for a in range(model.n_charges):
        w = omega_vector(model, a)
        for c in range(model.n_charges):
            value = loop_around_line(model, w, c)
            assert value == pytest.approx(1.0 if a == c else 0.0, abs=1e-15)


def test_omega_loops_resolve_fibonacci_charges(fibonacci):
    for a in range(fibonacci.n_charges):
        w = omega_vector(fibonacci, a)
        for c in range(fibonacci.n_charges):
            expected = 1.0 if a == c else 0.0
            assert loop_around_line(fibonacci, w, c) == pytest.approx(expected, abs=1e-12)


def test_bare_loop_value_is_s_ratio():
    model = ising()
    sigma, psi = 1, 2
    assert loop_around_line(model, sigma, psi) == pytest.approx(-math.sqrt(2.0), abs=1e-15)
    assert loop_around_line(model, psi, sigma) == pytest.approx(-1.0, abs=1e-15)
    assert loop_around_line(model, 0, psi) == pytest.approx(1.0, abs=1e-15)
    # linearity: a sum of bare loops evaluates term by term
    combo = np.array([1.0, 2.0, 3.0], dtype=complex)
    direct = sum(combo[x] * loop_around_line(model, x, sigma) for x in range(3))
    assert loop_around_line(model, combo, sigma) == pytest.approx(direct, abs=1e-12)


def test_loop_vector_must_cover_every_charge():
    with pytest.raises(ValueError, match="one coefficient per charge"):
        loop_around_line(ising(), np.array([1.0, 2.0]), 0)


# ---------------------------------------------------------------------------
# sliding across abelian lines


def test_slide_across_fermion_relabels_omega():
    model = ising()
    assert slide_omega(model, 0, 2) == 2
    assert slide_omega(model, 2, 2) == 0
    assert slide_omega(model, 1, 2) == 1


def test_slide_across_vacuum_is_identity():
    model = ising()
    for a in range(model.n_charges):
        assert slide_omega(model, a, 0) == a


def test_slide_across_nonabelian_line_is_refused():
    with pytest.raises(NonAbelianSlide, match="sigma"):
        slide_omega(ising(), 0, 1)


def test_slide_across_nonabelian_fibonacci_line_is_refused(fibonacci):
    tau = fibonacci.charge_index("tau")
    with pytest.raises(NonAbelianSlide):
        slide_omega(fibonacci, 0, tau)


def test_semion_slide_matches_fusion(semion):
    s = semion.charge_index("s")
    assert slide_omega(semion, s, s) == 0
    assert slide_omega(semion, 0, s) == s


def test_slide_witness_identity_holds_directly():
    # the certified move relies on S_{a x b, x} = M_{b, x} S_{a, x}
    model = ising()
    s, m = model.s_matrix, model.monodromy
    for a in range(3):
        fused = model.fusion_outcomes(a, 2)[0]
        assert np.max(np.abs(s[fused] - m[2] * s[a])) < 1e-15


# ---------------------------------------------------------------------------
# twist loops and modular combinations


def test_double_twist_loop_entries():
    op = tau_operator(ising(), 2)
    expected = np.array([1.0, OMEGA8, 1.0])
    assert op.basis == "twisted"
    assert np.max(np.abs(op.entries - expected)) < 1e-15
    assert np.max(np.abs(op.matrix() - np.diag(expected))) < 1e-15


@given(st.integers(min_value=-6, max_value=6))
def test_twist_loops_invert_pairwise(m):
    model = ising()
    forward = tau_operator(model, m).entries
    backward = tau_operator(model, -m).entries
    assert np.max(np.abs(forward * backward - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(forward) - 1.0)) < 1e-12


def test_modular_combination_matches_reference():
    bundle = modular_matrices(ising())
    assert np.max(np.abs(bundle.s - oracles.printed_ising_s())) < 1e-15
    assert np.max(np.abs(bundle.b - oracles.ising_b_matrix())) < 1e-12
    half = 0.5 * (1.0 + OMEGA8)
    other = 0.5 * (1.0 - OMEGA8)
    expected = np.array([
        [half, 0.0, other],
        [0.0, 1.0, 0.0],
        [other, 0.0, half],
    ])
    assert np.max(np.abs(bundle.b - expected)) < 1e-12


def test_modular_combination_is_a_conjugation(fibonacci):
    for model in (ising(), fibonacci):
        bundle = modular_matrices(model)
        rebuilt = bundle.s @ bundle.t @ bundle.t @ np.linalg.inv(bundle.s)
        assert np.max(np.abs(bundle.b - rebuilt)) < 1e-12


# ---------------------------------------------------------------------------
# solid tori


def test_longitudinal_torus_is_the_identity_channel():
    model = ising()
    torus, op = solid_torus_operator(model, "longitudinal", 0)
    assert torus.basis == "longitudinal"
    assert np.max(np.abs(torus.coefficients - model.dims / model.total_dim)) < 1e-15
    assert np.max(np.abs(op.entries - 1.0)) < 1e-12


def test_longitudinal_torus_rejects_a_core_line():
    with pytest.raises(InvalidCore, match="sigma"):
        solid_torus_operator(ising(), "longitudinal", 1)
    with pytest.raises(InvalidCore):
        solid_torus_operator(ising(), "longitudinal", 2)


def test_meridional_vacuum_torus_projects():
    torus, op = solid_torus_operator(ising(), "meridional", 0)
    assert np.max(np.abs(torus.coefficients - np.array([1.0, 0.0, 0.0]))) == 0.0
    assert np.max(np.abs(op.entries - np.array([2.0, 0.0, 0.0]))) < 1e-15


def test_meridional_torus_with_charged_core():
    _, op = solid_torus_operator(ising(), "meridional", 1)
    assert np.max(np.abs(op.entries - np.array([0.0, math.sqrt(2.0), 0.0]))) < 1e-15


def test_twisted_torus_states_match_reference():
    model = ising()
    v_l, v_m, v_t, v_t_prime = oracles.torus_vectors()
    long_t, _ = solid_torus_operator(model, "longitudinal", 0)
    meri_t, _ = solid_torus_operator(model, "meridional", 0)
    twist_t, _ = solid_torus_operator(model, "twisted", 0)
    twist_psi, _ = solid_torus_operator(model, "twisted", 2)
    assert np.max(np.abs(long_t.coefficients - v_l)) < 1e-15
    assert np.max(np.abs(meri_t.coefficients - v_m)) < 1e-15
    assert np.max(np.abs(twist_t.coefficients - v_t)) < 1e-12
    assert np.max(np.abs(twist_psi.coefficients - v_t_prime)) < 1e-12


def test_twisted_torus_operator_entries():
    _, op_i = solid_torus_operator(ising(), "twisted", 0)
    _, op_psi = solid_torus_operator(ising(), "twisted", 2)
    expected_i = np.array([1.0 + OMEGA8, 0.0, 1.0 - OMEGA8])
    expected_psi = np.array([1.0 - OMEGA8, 0.0, 1.0 + OMEGA8])
    assert np.max(np.abs(op_i.entries - expected_i)) < 1e-12
    assert np.max(np.abs(op_psi.entries - expected_psi)) < 1e-12


def test_unknown_boundary_presentation_is_rejected():
    with pytest.raises(ValueError, match="boundary"):
        solid_torus_operator(ising(), "diagonal", 0)


# ---------------------------------------------------------------------------
# the twisted operator shortcut


def test_twisted_operator_agrees_with_torus_construction():
    model = ising()
    for core in range(model.n_charges):
        direct = twisted_operator(model, core)
        _, via_torus = solid_torus_operator(model, "twisted", core)
        assert np.max(np.abs(direct.entries - via_torus.entries)) < 1e-12
        assert direct.basis == "twisted"


@pytest.mark.parametrize("name", ["ising", "fibonacci", "semion", "z3", "z5"])
def test_every_twisted_route_reads_the_one_b_matrix(name, fibonacci, semion):
    # one computation of B per model: the operator, the torus and the modular bundle agree bit for bit
    models = {"ising": ising(), "fibonacci": fibonacci, "semion": semion}
    model = models.get(name) or build_model(oracles.model_description(oracles.zn_data(int(name[1:]), 1)))
    for core in range(model.n_charges):
        direct = twisted_operator(model, core).entries
        assert np.array_equal(direct, solid_torus_operator(model, "twisted", core)[1].entries)
        assert np.array_equal(direct, modular_matrices(model).b[:, core] / model.s_matrix[0])


def test_twisted_operator_halves_are_the_channel_kraus_pair():
    entries_i = twisted_operator(ising(), 0).entries
    entries_psi = twisted_operator(ising(), 2).entries
    assert np.max(np.abs(0.5 * entries_i[[0, 2]] - np.diag(oracles.twisted_kraus(True)))) < 1e-12
    assert np.max(np.abs(0.5 * entries_psi[[0, 2]] - np.diag(oracles.twisted_kraus(False)))) < 1e-12


def test_operator_containers_validate_their_shape():
    model = ising()
    with pytest.raises(ValueError, match="basis"):
        DiagonalLoopOperator(model=model, basis="radial", entries=np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="per charge"):
        DiagonalLoopOperator(model=model, basis="twisted", entries=np.ones(2, dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        TorusVector(model=model, basis="twisted",
                    coefficients=np.array([np.nan, 0.0, 0.0], dtype=complex))
