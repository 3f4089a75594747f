"""Twisted measurement, magic states, and the phase-gate protocol."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from topoprobe import (
    ProtocolOutcome,
    QubitDensity,
    QubitState,
    ZeroProbability,
    align_global_phase,
    clifford_library,
    embed_qubit,
    magic_state,
    protocol_check,
    protocol_residual,
    protocol_unitary,
    sample_twisted,
    state_fidelity,
    synthesize_magic_state,
    twisted_measure,
)
from topoprobe.gates import _kraus

COS8 = math.cos(math.pi / 8.0)
SIN8 = math.sin(math.pi / 8.0)

KET0 = QubitDensity(np.diag([1.0, 0.0]))
PLUS = QubitDensity(np.full((2, 2), 0.5, dtype=complex))


def bloch(x, y, z):
    scale = max(1.0, math.sqrt(x * x + y * y + z * z))
    x, y, z = x / scale, y / scale, z / scale
    return QubitDensity(0.5 * np.array([[1.0 + z, x - 1j * y],
                                        [x + 1j * y, 1.0 - z]]))


unit_interval = st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# qubit containers


def test_pure_states_normalize_themselves():
    state = QubitState((3.0, 4.0j))
    assert state.amplitudes == pytest.approx((0.6, 0.8j))
    rho = state.density()
    assert np.trace(rho.matrix) == pytest.approx(1.0)
    assert rho.matrix[0, 1] == pytest.approx(-0.48j)


def test_zero_vector_is_not_a_state():
    with pytest.raises(ValueError, match="zero vector"):
        QubitState((0.0, 0.0))


@pytest.mark.parametrize("matrix, message", [
    (np.eye(3) / 3.0, "2x2"),
    (np.array([[0.5, 0.4], [0.1, 0.5]]), "Hermitian"),
    (np.eye(2), "unit trace"),
    (np.array([[0.9, 0.5], [0.5, 0.1]]), "positive semidefinite"),
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "Hermitian"),
    (np.array([[0.5, math.nan], [math.nan, 0.5]]), "Hermitian"),
    (np.array([[math.inf, 0.0], [0.0, 1.0]]), "Hermitian"),
    (np.array([[0.5, complex(0.0, math.inf)], [complex(0.0, -math.inf), 0.5]]), "Hermitian"),
])
def test_invalid_qubit_densities_are_rejected(matrix, message):
    with pytest.raises(ValueError, match=message):
        QubitDensity(matrix)


def test_embedding_lands_on_the_interferometer_basis():
    lifted = embed_qubit(PLUS)
    assert lifted.labels == ((0, 0, 0), (2, 2, 0))
    assert np.max(np.abs(lifted.matrix - PLUS.matrix)) == 0.0
    # raw arrays are validated on the way in
    same = embed_qubit([[0.5, 0.5], [0.5, 0.5]])
    assert np.max(np.abs(same.matrix - PLUS.matrix)) == 0.0
    with pytest.raises(ValueError, match="Hermitian"):
        embed_qubit([[0.5, 0.4], [0.1, 0.5]])


# ---------------------------------------------------------------------------
# twisted measurement


def test_vacuum_outcome_probability_on_basis_states():
    pr, post = twisted_measure(KET0, "I")
    assert pr == pytest.approx(COS8 ** 2, abs=1e-15)
    assert pr == pytest.approx(0.8535533905932737, abs=1e-15)
    assert np.max(np.abs(post.matrix - KET0.matrix)) < 1e-12
    pr_psi, post_psi = twisted_measure(KET0, "psi")
    assert pr_psi == pytest.approx(SIN8 ** 2, abs=1e-15)
    assert np.max(np.abs(post_psi.matrix - KET0.matrix)) < 1e-12


def test_coherent_state_gains_the_imaginary_cross_term():
    pr, post = twisted_measure(PLUS, "I")
    assert pr == pytest.approx(0.5, abs=1e-12)
    assert post.matrix[0, 1] == pytest.approx(1j * COS8 * SIN8, abs=1e-12)
    assert post.matrix[1, 0] == pytest.approx(-1j * COS8 * SIN8, abs=1e-12)
    pr_psi, post_psi = twisted_measure(PLUS, "psi")
    assert pr_psi == pytest.approx(0.5, abs=1e-12)
    assert post_psi.matrix[0, 1] == pytest.approx(-1j * COS8 * SIN8, abs=1e-12)


def test_measurement_matches_closed_form_reference():
    rho = QubitDensity(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
    for outcome, vacuum in (("I", True), ("psi", False)):
        pr_ref, post_ref = oracles.twisted_closed_form(rho.matrix, vacuum)
        pr, post = twisted_measure(rho, outcome)
        assert pr == pytest.approx(pr_ref, abs=1e-12)
        assert np.max(np.abs(post.matrix - post_ref)) < 1e-12


def test_twisted_kraus_operators_are_shared_read_only():
    kraus = _kraus("I")
    assert _kraus("I") is kraus
    with pytest.raises(ValueError):
        kraus[0, 0] = 0.0


def test_sigma_outcome_is_impossible():
    with pytest.raises(ValueError, match="sigma outcome is impossible"):
        twisted_measure(KET0, "sigma")


@given(x=unit_interval, y=unit_interval, z=unit_interval)
def test_outcome_probabilities_form_a_measurement(x, y, z):
    rho = bloch(x, y, z)
    pr_i, post_i = twisted_measure(rho, "I")
    pr_psi, post_psi = twisted_measure(rho, "psi")
    assert pr_i + pr_psi == pytest.approx(1.0, abs=1e-12)
    assert min(pr_i, pr_psi) >= SIN8 ** 2 - 1e-9
    for post in (post_i, post_psi):
        assert np.trace(post.matrix) == pytest.approx(1.0, abs=1e-12)
    ref_pr, ref_post = oracles.twisted_closed_form(rho.matrix, True)
    assert pr_i == pytest.approx(ref_pr, abs=1e-12)
    assert np.max(np.abs(post_i.matrix - ref_post)) < 1e-10


def test_sampling_is_seed_deterministic():
    outcome_a, post_a = sample_twisted(PLUS, seed=5)
    outcome_b, post_b = sample_twisted(PLUS, seed=5)
    assert outcome_a == outcome_b
    assert np.array_equal(post_a.matrix, post_b.matrix)
    assert outcome_a in ("I", "psi")
    _, conditioned = twisted_measure(PLUS, outcome_a)
    assert np.max(np.abs(post_a.matrix - conditioned.matrix)) == 0.0


def test_sampling_reaches_both_outcomes():
    seen = {sample_twisted(PLUS, seed=s)[0] for s in range(32)}
    assert seen == {"I", "psi"}


def test_sampled_frequencies_track_the_probability():
    hits = sum(1 for s in range(400) if sample_twisted(KET0, seed=s)[0] == "I")
    assert abs(hits / 400.0 - COS8 ** 2) < 0.06


# ---------------------------------------------------------------------------
# magic states


def test_magic_states_are_orthonormal():
    m_i = magic_state("I")
    m_psi = magic_state("psi")
    assert m_i.amplitudes == pytest.approx((COS8, -1j * SIN8), abs=1e-15)
    assert m_psi.amplitudes == pytest.approx((SIN8, 1j * COS8), abs=1e-15)
    assert state_fidelity(m_i.vector(), m_psi.vector()) == pytest.approx(0.0, abs=1e-15)


def test_synthesis_reproduces_the_magic_states():
    for outcome in ("I", "psi"):
        vector = synthesize_magic_state(outcome)
        target = magic_state(outcome).vector()
        assert state_fidelity(vector, target) > 1.0 - 1e-12
        gap = np.max(np.abs(align_global_phase(vector) - align_global_phase(target)))
        assert gap < 1e-12


def test_vacuum_synthesis_frozen_amplitudes():
    omega = cmath.exp(1j * math.pi / 4.0)
    vector = synthesize_magic_state("I")
    assert vector[0] == pytest.approx(0.5 * (1.0 + omega), abs=1e-12)
    assert vector[1] == pytest.approx(0.5 * (1.0 - omega), abs=1e-12)


def test_vacuum_synthesis_is_a_clifford_rotation_of_plus():
    lib = clifford_library()
    target = lib["H"] @ lib["R"](math.pi / 4.0) @ lib["H"] @ np.array([1.0, 0.0])
    vector = synthesize_magic_state("I")
    gap = np.max(np.abs(align_global_phase(vector) - align_global_phase(target)))
    assert gap < 1e-12


def test_clifford_library_algebra():
    lib = clifford_library()
    eye = np.eye(2)
    assert np.max(np.abs(lib["H"] @ lib["H"] - eye)) < 1e-15
    assert np.max(np.abs(lib["sigma_x"] @ lib["sigma_x"] - eye)) < 1e-15
    assert np.max(np.abs(lib["Pi_0"] + lib["Pi_1"] - eye)) == 0.0
    assert np.max(np.abs(lib["Pi_0"] @ lib["Pi_1"])) == 0.0
    flipped = lib["H"] @ lib["R"](math.pi) @ lib["H"]
    assert np.max(np.abs(flipped - lib["sigma_x"])) < 1e-15
    assert np.max(np.abs(lib["R"](0.3) @ lib["R"](-0.3) - eye)) < 1e-15


def test_phase_alignment_handles_leading_zeros():
    vector = np.array([0.0, 1j])
    aligned = align_global_phase(vector)
    assert aligned[1] == pytest.approx(1.0)
    assert np.array_equal(align_global_phase(np.zeros(2, dtype=complex)),
                          np.zeros(2, dtype=complex))


# ---------------------------------------------------------------------------
# the adaptive protocol


def test_protocol_gate_depends_only_on_the_fusion_outcome():
    quarter = np.diag([1.0, np.exp(-1j * math.pi / 4.0)])
    three_quarter = np.diag([1.0, np.exp(-3j * math.pi / 4.0)])
    for a in ("I", "psi"):
        assert np.max(np.abs(protocol_unitary(a, "I") - quarter)) < 1e-15
        assert np.max(np.abs(protocol_unitary(a, "psi") - three_quarter)) < 1e-15


def test_protocol_rejects_unknown_outcomes():
    with pytest.raises(ValueError):
        protocol_unitary("sigma", "I")
    with pytest.raises(ValueError):
        protocol_check("I", "tau")
    with pytest.raises(ValueError):
        ProtocolOutcome(a="x", alpha="I")
    assert ProtocolOutcome(a="I", alpha="psi").alpha == "psi"


def test_protocol_check_matches_reference_branch_sum():
    for a_bit, a in enumerate(("I", "psi")):
        for alpha_bit, alpha in enumerate(("I", "psi")):
            u_ref = oracles.protocol_u(a_bit, alpha_bit, corrected=True)
            u = protocol_check(a, alpha)
            assert u[0] == pytest.approx(u_ref[0], abs=1e-12)
            assert u[1] == pytest.approx(u_ref[1], abs=1e-12)


def test_protocol_check_frozen_values():
    u_i, u_psi = protocol_check("I", "I")
    assert u_i == pytest.approx(COS8 + 1j * SIN8, abs=1e-12)
    assert u_psi == pytest.approx(COS8 - 1j * SIN8, abs=1e-12)
    ratio = u_psi / u_i
    assert ratio == pytest.approx(cmath.exp(-1j * math.pi / 4.0), abs=1e-12)
    u_i, u_psi = protocol_check("I", "psi")
    assert u_psi / u_i == pytest.approx(cmath.exp(-3j * math.pi / 4.0), abs=1e-12)


def test_every_outcome_pair_realizes_its_gate():
    for a in ("I", "psi"):
        for alpha in ("I", "psi"):
            assert protocol_residual(a, alpha) < 1e-12
            diagonal = np.array(protocol_check(a, alpha))
            assert np.max(np.abs(np.abs(diagonal) - 1.0)) < 1e-12


def test_mixed_outcomes_need_the_linking_sign():
    # dropping the outcome-dependent linking sign breaks exactly the
    # mixed-outcome pairs, which is why the branch sum carries (-1)^{aq}
    for a_bit, alpha_bit in ((0, 1), (1, 0)):
        u_wrong = np.array(oracles.protocol_u(a_bit, alpha_bit, corrected=False))
        expected = np.diagonal(protocol_unitary("I" if a_bit == 0 else "psi",
                                                "I" if alpha_bit == 0 else "psi"))
        gap = np.max(np.abs(align_global_phase(u_wrong) - align_global_phase(expected)))
        assert gap > 0.5
    for a_bit, alpha_bit in ((0, 0), (1, 1)):
        u_same = np.array(oracles.protocol_u(a_bit, alpha_bit, corrected=False))
        u_corrected = np.array(oracles.protocol_u(a_bit, alpha_bit, corrected=True))
        assert np.max(np.abs(u_same - u_corrected)) < 1e-15
