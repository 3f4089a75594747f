"""Twisted measurement, magic states, and the phase-gate protocol."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import test_golden
from topoprobe import (
    AnyonicDensityMatrix,
    QubitDensity,
    QubitState,
    ZeroProbability,
    align_global_phase,
    build_model,
    clifford_library,
    density_matrix,
    ising,
    magic_state,
    protocol_check,
    protocol_residual,
    protocol_unitary,
    sample_twisted,
    state_fidelity,
    synthesize_magic_state,
    twisted_measure,
    twisted_operator,
)
from topoprobe import rng
from topoprobe.cli import _initial_state, parse_config
from topoprobe.gates import _kraus
from topoprobe.model import _ising_description

COS8 = math.cos(math.pi / 8.0)
SIN8 = math.sin(math.pi / 8.0)

I, PSI = 0, 2
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
    (np.eye(3) / 3.0, "shape"),  # density_matrix: "matrix shape must match the label count"
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
    # the qubit is an interferometer state on the Ising labels (I, I; I), (psi, psi; I)
    assert isinstance(PLUS, AnyonicDensityMatrix)
    assert QubitDensity(PLUS.matrix).model is ising()
    assert PLUS.labels == ((0, 0, 0), (2, 2, 0))
    same = density_matrix(ising(), PLUS.labels, [[0.5, 0.5], [0.5, 0.5]])
    assert np.array_equal(same.matrix, PLUS.matrix)
    # raw arrays are validated on the way in
    with pytest.raises(ValueError, match="Hermitian"):
        QubitDensity([[0.5, 0.4], [0.1, 0.5]])


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


def kraus_diagonals(model=None, charges=(I, PSI)):
    """Half of each outcome's twisted loop operator at the I and psi lines, in outcome order."""
    model = ising() if model is None else model
    return [0.5 * twisted_operator(model, core).entries[list(charges)] for core in charges]


def test_twisted_kraus_operators_are_shared_read_only():
    factors = _kraus(ising(), KET0.labels)
    assert _kraus(ising(), KET0.labels) is factors
    assert factors.shape == (2, 2, 2)  # one entrywise factor matrix per outcome
    with pytest.raises(ValueError):
        factors[0, 0, 0] = 0.0


@pytest.mark.parametrize("reordered", [False, True], ids=["ising", "reordered"])
def test_the_kraus_factors_are_k_k_dagger_with_the_draw_weights_on_the_diagonal(reordered):
    model, charges = (_reordered_ising(), (0, 1)) if reordered else (ising(), (I, PSI))
    labels = tuple((a, a, 0) for a in charges)
    factors = _kraus(model, labels)
    for f, k in zip(factors, kraus_diagonals(model, charges)):
        # bit for bit the weights sample_twisted draws with
        assert np.diagonal(f).tobytes() == (np.abs(k) ** 2).astype(complex).tobytes()
        assert np.max(np.abs(f - np.outer(k, k.conj()))) <= 1e-16


def _assert_matches_kraus_product(rho):
    for outcome, kraus in zip(("I", "psi"), kraus_diagonals()):
        probability, updated = oracles.kraus_product(np.diag(kraus), rho.matrix)
        pr, post = twisted_measure(rho, outcome)
        # the entrywise rule multiplies rho_ij by k_i conj(k_j), the matrix product k_i rho_ij by conj(k_j)
        assert abs(pr - probability) <= 1e-15
        assert np.max(np.abs(post.matrix - updated / probability)) <= 1e-15
        assert post.labels == rho.labels


@pytest.mark.parametrize("case", ["twisted-default", "twisted-complex"])
def test_entrywise_update_is_the_kraus_product_on_the_golden_states(case):
    payload = test_golden.CASES[case][1] or {}
    run = parse_config(None, {"initial_state": payload.get("initial_state")})
    _assert_matches_kraus_product(_initial_state(run, ising()))


@settings(max_examples=200)
@given(st.lists(st.tuples(unit_interval, unit_interval, unit_interval), min_size=10, max_size=10))
def test_entrywise_update_is_the_kraus_product(points):
    # ten Bloch vectors per example: 2,000 drawn states at a tenth of the per-example overhead
    for point in points:
        _assert_matches_kraus_product(bloch(*point))


def test_sampled_outcome_is_the_stream_draw():
    states = [KET0, PLUS, QubitDensity(np.diag([0.0, 1.0])), bloch(0.3, -0.5, 0.2), bloch(0.0, 0.7, -0.7)]
    for seed in range(2000):
        rho = states[seed % len(states)]
        u = rng.generator(seed).random()
        probability, _ = oracles.kraus_product(np.diag(kraus_diagonals()[0]), rho.matrix)
        outcome, post = sample_twisted(rho, seed)
        assert outcome == ("I" if u < probability else "psi")
        assert post.matrix.tobytes() == twisted_measure(rho, outcome)[1].matrix.tobytes()


@pytest.mark.parametrize("labels", [((0, 0, 0), (1, 1, 0)), ((2, 2, 0), (0, 0, 0))])
def test_twisted_measurement_refuses_other_labels(labels):
    rho = density_matrix(ising(), labels, np.diag([0.5, 0.5]))
    for measure in (lambda: twisted_measure(rho, "I"), lambda: sample_twisted(rho, 0)):
        with pytest.raises(ValueError, match="I/psi qubit"):
            measure()


def _reordered_ising():
    # the Ising theory with its charges listed as I, psi, sigma
    description = _ising_description()
    description["charges"] = ["I", "psi", "sigma"]
    return build_model(description)


def test_twisted_measurement_refuses_another_theorys_labels():
    # on this ordering the Ising qubit's label indices name the (I, sigma) pair
    rho = density_matrix(_reordered_ising(), KET0.labels, np.diag([0.5, 0.5]))
    for measure in (lambda: twisted_measure(rho, "I"), lambda: sample_twisted(rho, 0)):
        with pytest.raises(ValueError, match="I/psi qubit"):
            measure()


def test_the_kraus_pair_comes_from_the_states_own_model():
    rebuilt = build_model(_ising_description())
    reordered = _reordered_ising()
    for seed, state in enumerate([KET0, PLUS, bloch(0.3, -0.5, 0.2), bloch(0.0, 0.7, -0.7)]):
        twin = density_matrix(rebuilt, state.labels, state.matrix)
        for outcome in ("I", "psi"):
            probability, post = twisted_measure(state, outcome)
            twin_probability, twin_post = twisted_measure(twin, outcome)
            assert twin_probability == probability and np.array_equal(twin_post.matrix, post.matrix)
            assert twin_post.model is rebuilt
            # the same qubit on the reordered theory's own I/psi labels
            moved = density_matrix(reordered, ((0, 0, 0), (1, 1, 0)), state.matrix)
            moved_probability, moved_post = twisted_measure(moved, outcome)
            assert moved_probability == pytest.approx(probability, abs=1e-15)
            assert np.max(np.abs(moved_post.matrix - post.matrix)) < 1e-14
        outcome, post = sample_twisted(state, seed)
        twin_outcome, twin_post = sample_twisted(twin, seed)
        assert twin_outcome == outcome and np.array_equal(twin_post.matrix, post.matrix)


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
