"""Single-probe channel, probe streams, charge classes, and asymptotics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from topoprobe import (
    AnyonicDensityMatrix,
    DegenerateTuning,
    ForbiddenConnectingCharge,
    InterferometerConfig,
    ProbeOutcome,
    UnitarityViolation,
    UnsupportedBasisChange,
    ZeroProbability,
    apply_probe,
    asymptotic_measure,
    density_matrix,
    equivalence_classes,
    fixed_state,
    ising,
    outcome_distribution,
    p_factor,
    simulate_stream,
)

I, SIGMA, PSI = 0, 1, 2
QUBIT_LABELS = ((I, I, I), (PSI, PSI, I))


def qubit_state(r00, r11, r01=0.0):
    matrix = np.array([[r00, r01], [np.conjugate(r01), r11]], dtype=complex)
    return density_matrix(ising(), QUBIT_LABELS, matrix)


def sigma_config(delta=0.0):
    return InterferometerConfig(probe=SIGMA, theta_I=delta)


angles = st.floats(min_value=0.0, max_value=2.0 * math.pi,
                   allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# configuration


def test_default_config_is_the_symmetric_splitter():
    config = InterferometerConfig(probe=SIGMA)
    inv = 1.0 / math.sqrt(2.0)
    assert (config.t1, config.r1, config.t2, config.r2) == (inv, inv, inv, inv)
    assert config.delta == 0.0


def test_nonunitary_splitter_is_rejected():
    with pytest.raises(UnitarityViolation, match="splitter 1"):
        InterferometerConfig(probe=SIGMA, t1=0.9, r1=0.9)
    with pytest.raises(UnitarityViolation, match="splitter 2"):
        InterferometerConfig(probe=SIGMA, t2=1.0, r2=0.5)


@pytest.mark.parametrize("field", ["t1", "r1", "t2", "r2"])
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, complex(0.5, math.nan), 1e200, complex(1e308, 1e308)]
)
def test_nonfinite_splitter_amplitudes_are_rejected(field, value):
    with pytest.raises(UnitarityViolation, match="not unitary"):
        InterferometerConfig(probe=SIGMA, **{field: value})


@pytest.mark.parametrize("field", ["theta_I", "theta_II"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_path_phases_are_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        InterferometerConfig(probe=SIGMA, **{field: value})


def test_outcome_enum_serialization_labels():
    assert ProbeOutcome.TRANSMITTED.value == "transmitted"
    assert ProbeOutcome.REFLECTED.value == "reflected"


# ---------------------------------------------------------------------------
# single-probe factors


def test_factors_match_reference_at_fixed_tuning():
    data = oracles.ising_data()
    cfg = oracles.symmetric_config(delta=math.pi / 3.0)
    expected = oracles.qubit_p_matrices(data, cfg)
    config = sigma_config(delta=math.pi / 3.0)
    for outcome, key in ((ProbeOutcome.TRANSMITTED, "transmitted"),
                         (ProbeOutcome.REFLECTED, "reflected")):
        d0 = p_factor(ising(), I, I, I, config, outcome)
        d1 = p_factor(ising(), PSI, PSI, I, config, outcome)
        off = p_factor(ising(), I, PSI, PSI, config, outcome)
        for got, want in zip((d0, d1, off), expected[key]):
            assert got == pytest.approx(want, abs=1e-14)


def test_frozen_factor_values_at_delta_pi_third():
    config = sigma_config(delta=math.pi / 3.0)
    t = ProbeOutcome.TRANSMITTED
    r = ProbeOutcome.REFLECTED
    assert p_factor(ising(), I, I, I, config, t) == pytest.approx(0.75, abs=1e-12)
    assert p_factor(ising(), PSI, PSI, I, config, t) == pytest.approx(0.25, abs=1e-12)
    assert p_factor(ising(), I, PSI, PSI, config, t) == pytest.approx(
        0.43301270189221913j, abs=1e-12)
    assert p_factor(ising(), I, PSI, PSI, config, r) == pytest.approx(
        -0.43301270189221913j, abs=1e-12)
    bare = p_factor(ising(), SIGMA, SIGMA, I, config, t)
    assert bare == pytest.approx(0.5, abs=1e-12)


def test_unconnected_charge_pair_is_rejected():
    config = sigma_config()
    with pytest.raises(ForbiddenConnectingCharge, match="sigma"):
        p_factor(ising(), I, I, SIGMA, config, ProbeOutcome.TRANSMITTED)


@given(chi1=angles, phi1=angles, chi2=angles, phi2=angles, delta=angles,
       probe=st.sampled_from([I, SIGMA, PSI]),
       triple=st.sampled_from([
           (a, a2, e) for a in range(3) for a2 in range(3) for e in range(3)
       ]))
def test_factors_match_reference_everywhere(chi1, phi1, chi2, phi2, delta, probe, triple):
    data = oracles.ising_data()
    names = data["names"]
    a, a2, e = triple
    t1 = math.cos(chi1) * np.exp(1j * phi1)
    r1 = complex(math.sin(chi1))
    t2 = math.cos(chi2) * np.exp(1j * phi2)
    r2 = complex(math.sin(chi2))
    config = InterferometerConfig(probe=probe, t1=t1, r1=r1, t2=t2, r2=r2,
                                  theta_I=delta)
    model = ising()
    if not model.allows(a, model.dual[a2], e):
        with pytest.raises(ForbiddenConnectingCharge):
            p_factor(model, a, a2, e, config, ProbeOutcome.TRANSMITTED)
        return
    for outcome, flag in ((ProbeOutcome.TRANSMITTED, True),
                          (ProbeOutcome.REFLECTED, False)):
        got = p_factor(model, a, a2, e, config, outcome)
        want = oracles.p_factor_direct(
            data, names[a], names[a2], names[e], names[probe],
            t1, r1, t2, r2, delta, 0.0, transmitted=flag)
        assert got == pytest.approx(want, abs=1e-12)
    # the two outcomes exhaust the probe: their sum is state-independent
    total = (p_factor(model, a, a2, e, config, ProbeOutcome.TRANSMITTED)
             + p_factor(model, a, a2, e, config, ProbeOutcome.REFLECTED))
    closed = abs(t1) ** 2 * model.monodromy[e, probe] + abs(r1) ** 2
    assert total == pytest.approx(closed, abs=1e-12)
    if a == a2 and e == I:
        assert total == pytest.approx(1.0, abs=1e-12)


def test_diagonal_factors_are_probabilities():
    for delta in (0.0, 0.4, math.pi / 3.0, 2.9):
        config = sigma_config(delta=delta)
        for a in range(3):
            for outcome in ProbeOutcome:
                value = p_factor(ising(), a, a, I, config, outcome)
                assert abs(value.imag) < 1e-14
                assert -1e-12 <= value.real <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# state validation


def test_density_matrix_accepts_the_plus_state():
    rho = qubit_state(0.5, 0.5, 0.5)
    assert rho.diagonal() == pytest.approx([0.5, 0.5])
    assert rho.coherence() == pytest.approx(1.0)
    assert rho.charge_weight({I}) == pytest.approx(0.5)
    assert rho.charge_weight({I, PSI}) == pytest.approx(1.0)


@pytest.mark.parametrize("labels, matrix, message", [
    (((I, I, I), (I, I, I)), np.eye(2) / 2.0, "duplicate"),
    (((I, PSI, I),), np.eye(1), "not fusion-allowed"),
    (((I, I, 7),), np.eye(1), "outside the model"),
    (QUBIT_LABELS, np.array([[0.5, 0.3], [0.1, 0.5]]), "Hermitian"),
    (QUBIT_LABELS, np.eye(2), "unit trace"),
    (QUBIT_LABELS, np.array([[0.9, 0.5], [0.5, 0.1]]), "positive semidefinite"),
    (QUBIT_LABELS, np.eye(3) / 3.0, "shape"),
    (QUBIT_LABELS, np.array([[math.nan, 0.0], [0.0, 1.0]]), "Hermitian"),
    (QUBIT_LABELS, np.array([[0.5, math.nan], [math.nan, 0.5]]), "Hermitian"),
    (QUBIT_LABELS, np.array([[math.inf, 0.0], [0.0, 1.0]]), "Hermitian"),
    (QUBIT_LABELS, np.array([[0.5, math.inf], [math.inf, 0.5]]), "Hermitian"),
    (QUBIT_LABELS, np.array([[1.0, 0.0], [0.0, -math.inf]]), "Hermitian"),
])
def test_invalid_states_are_rejected(labels, matrix, message):
    with pytest.raises(ValueError, match=message):
        density_matrix(ising(), labels, matrix)


def test_states_cannot_couple_different_total_charges():
    labels = ((SIGMA, I, SIGMA), (SIGMA, PSI, SIGMA), (PSI, PSI, I))
    matrix = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    with pytest.raises(ValueError, match="superselection"):
        density_matrix(ising(), labels, matrix)
    # the same entries restricted to one total charge are fine
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = 0.5
    rho = density_matrix(ising(), labels, block)
    assert rho.charge_weight({SIGMA}) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# conditioning on one probe


def test_probe_collapse_of_a_classical_mixture():
    rho = qubit_state(0.3, 0.7)
    config = sigma_config()
    pr_t, post_t = apply_probe(ising(), rho, config, ProbeOutcome.TRANSMITTED)
    assert pr_t == pytest.approx(0.3, abs=1e-12)
    assert np.max(np.abs(post_t.matrix - np.diag([1.0, 0.0]))) < 1e-12
    pr_r, post_r = apply_probe(ising(), rho, config, ProbeOutcome.REFLECTED)
    assert pr_r == pytest.approx(0.7, abs=1e-12)
    assert np.max(np.abs(post_r.matrix - np.diag([0.0, 1.0]))) < 1e-12


def test_conditioned_sequence_matches_reference():
    data = oracles.ising_data()
    cfg = oracles.symmetric_config(delta=math.pi / 3.0)
    outcomes = ["transmitted", "reflected", "transmitted"]
    probs_ref, final_ref = oracles.conditioned_qubit_run(
        data, cfg, (0.5, 0.5, 0.5), outcomes)

    rho = qubit_state(0.5, 0.5, 0.5)
    config = sigma_config(delta=math.pi / 3.0)
    probs = []
    for tag in outcomes:
        outcome = ProbeOutcome(tag)
        pr, rho = apply_probe(ising(), rho, config, outcome)
        probs.append(pr)
    assert probs == pytest.approx(probs_ref, abs=1e-12)
    assert rho.matrix[0, 0] == pytest.approx(final_ref[0], abs=1e-12)
    assert rho.matrix[1, 1] == pytest.approx(final_ref[1], abs=1e-12)
    assert rho.matrix[0, 1] == pytest.approx(final_ref[2], abs=1e-12)
    # frozen endpoint of that sequence
    assert probs == pytest.approx([0.5, 0.375, 0.5], abs=1e-12)
    assert rho.matrix[0, 1] == pytest.approx(0.4330127018922194j, abs=1e-12)


def test_conditioning_on_an_impossible_outcome_fails():
    rho = qubit_state(0.0, 1.0)
    with pytest.raises(ZeroProbability, match="transmitted"):
        apply_probe(ising(), rho, sigma_config(), ProbeOutcome.TRANSMITTED)


def test_fermion_probe_cannot_see_the_qubit():
    # monodromy with the fermion is 1 on the whole qubit sector, so the
    # state passes through unchanged for either outcome
    rho = qubit_state(0.5, 0.5, 0.5)
    config = InterferometerConfig(probe=PSI, theta_I=0.7)
    pr, post = apply_probe(ising(), rho, config, ProbeOutcome.TRANSMITTED)
    assert np.max(np.abs(post.matrix - rho.matrix)) < 1e-15
    assert 0.0 < pr <= 1.0


SIGMA_PAIR = ((SIGMA, SIGMA, I),)


@pytest.mark.parametrize("run", [
    pytest.param(lambda rho: apply_probe(ising(), rho, sigma_config(), ProbeOutcome.TRANSMITTED),
                 id="apply_probe"),
    pytest.param(lambda rho: simulate_stream(ising(), rho, sigma_config(), 5, seed=0),
                 id="simulate_stream"),
    pytest.param(lambda rho: asymptotic_measure(ising(), rho, sigma_config()),
                 id="asymptotic_measure"),
    pytest.param(lambda rho: outcome_distribution(ising(), rho, sigma_config(), 5),
                 id="outcome_distribution"),
])
def test_sigma_diagonal_pair_needs_an_unsupported_recoupling(run):
    rho = density_matrix(ising(), SIGMA_PAIR, np.eye(1, dtype=complex))
    with pytest.raises(UnsupportedBasisChange, match="recoupling"):
        run(rho)


def test_bare_sigma_target_transmits_evenly():
    labels = ((SIGMA, I, SIGMA),)
    rho = density_matrix(ising(), labels, np.eye(1, dtype=complex))
    pr, post = apply_probe(ising(), rho, sigma_config(), ProbeOutcome.TRANSMITTED)
    assert pr == pytest.approx(0.5, abs=1e-12)
    assert post.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# streams


def test_streams_are_reproducible():
    rho = qubit_state(0.5, 0.5, 0.5)
    config = sigma_config(delta=math.pi / 3.0)
    first = simulate_stream(ising(), rho, config, 40, seed=11)
    second = simulate_stream(ising(), rho, config, 40, seed=11)
    assert first.outcomes == second.outcomes
    assert first.probabilities == second.probabilities
    assert np.array_equal(first.final_state.matrix, second.final_state.matrix)
    other = simulate_stream(ising(), rho, config, 40, seed=12)
    assert first.outcomes != other.outcomes


def test_stream_bookkeeping_is_consistent():
    rho = qubit_state(0.5, 0.5, 0.5)
    config = sigma_config(delta=math.pi / 3.0)
    run = simulate_stream(ising(), rho, config, 60, seed=3, keep_states=True)
    assert len(run.outcomes) == len(run.probabilities) == len(run.coherences) == 60
    assert run.states is not None and len(run.states) == 60
    counted = sum(1 for s in run.outcomes if s is ProbeOutcome.TRANSMITTED)
    assert run.n_transmitted == counted
    assert run.fraction == pytest.approx(counted / 60.0)
    assert all(0.0 < p <= 1.0 for p in run.probabilities)
    assert np.array_equal(run.states[-1].matrix, run.final_state.matrix)
    assert run.coherences[-1] == run.final_state.coherence()


def test_long_stream_collapses_the_qubit():
    rho = qubit_state(0.5, 0.5, 0.5)
    config = sigma_config(delta=math.pi / 3.0)
    run = simulate_stream(ising(), rho, config, 200, seed=7)
    assert run.final_state.coherence() < 1e-3
    weights = run.final_state.diagonal()
    assert max(weights) > 0.999


def test_stream_leaves_an_eigenstate_alone():
    rho = qubit_state(0.0, 1.0)
    config = sigma_config(delta=math.pi / 3.0)
    run = simulate_stream(ising(), rho, config, 50, seed=1)
    assert np.max(np.abs(run.final_state.matrix - rho.matrix)) < 1e-12
    # every probe hits the same Bernoulli probability for a sharp charge
    expected = {0.25, 0.75}
    assert {round(p, 12) for p in run.probabilities} <= expected


def test_empty_and_negative_streams():
    rho = qubit_state(0.5, 0.5)
    run = simulate_stream(ising(), rho, sigma_config(), 0, seed=0)
    assert run.outcomes == () and run.fraction == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_stream(ising(), rho, sigma_config(), -1, seed=0)


# ---------------------------------------------------------------------------
# classes, fixed states, and the collapse measure


def test_sigma_probe_separates_all_ising_charges():
    partition = equivalence_classes(ising(), SIGMA, sigma_config())
    members = sorted(tuple(k.members) for k in partition.classes)
    assert members == [(I,), (SIGMA,), (PSI,)]
    transmission = {k.members[0]: k.transmission for k in partition.classes}
    assert transmission[I] == pytest.approx(1.0, abs=1e-12)
    assert transmission[SIGMA] == pytest.approx(0.5, abs=1e-12)
    assert transmission[PSI] == pytest.approx(0.0, abs=1e-12)


def test_fermion_probe_conflates_vacuum_and_fermion():
    config = InterferometerConfig(probe=PSI)
    partition = equivalence_classes(ising(), PSI, config)
    members = sorted(tuple(k.members) for k in partition.classes)
    assert members == [(I, PSI), (SIGMA,)]


def test_fixed_states_of_the_qubit():
    rho = qubit_state(0.3, 0.7, 0.2)
    config = sigma_config(delta=math.pi / 3.0)
    partition = equivalence_classes(ising(), SIGMA, config)
    by_member = {k.members: k for k in partition.classes}
    vac = fixed_state(ising(), rho, by_member[(I,)])
    assert np.max(np.abs(vac.matrix - np.diag([1.0, 0.0]))) < 1e-12
    ferm = fixed_state(ising(), rho, by_member[(PSI,)])
    assert np.max(np.abs(ferm.matrix - np.diag([0.0, 1.0]))) < 1e-12
    with pytest.raises(ZeroProbability, match="sigma"):
        fixed_state(ising(), rho, by_member[(SIGMA,)])


def test_fixed_state_leaves_an_ambiguous_diagonal_alone():
    # fixed_state decoheres off-diagonal entries only, so the one-label
    # sigma pair, whose diagonal has no unique connecting charge, passes
    rho = density_matrix(ising(), SIGMA_PAIR, np.eye(1, dtype=complex))
    partition = equivalence_classes(ising(), SIGMA, sigma_config())
    kappa = next(k for k in partition.classes if k.members == (SIGMA,))
    assert np.array_equal(fixed_state(ising(), rho, kappa).matrix, rho.matrix)


def test_fixed_state_keeps_probe_blind_coherence():
    # collapse onto {I, psi} under a fermion probe: the connecting charge
    # also has monodromy 1 with the probe, so the off-diagonal survives
    rho = qubit_state(0.5, 0.5, 0.5)
    config = InterferometerConfig(probe=PSI)
    partition = equivalence_classes(ising(), PSI, config)
    kappa = next(k for k in partition.classes if k.members == (I, PSI))
    fixed = fixed_state(ising(), rho, kappa)
    assert np.max(np.abs(fixed.matrix - rho.matrix)) < 1e-12


def test_collapse_measure_weights_and_endpoints():
    rho = qubit_state(0.3, 0.7, 0.1)
    config = sigma_config(delta=math.pi / 3.0)
    table = asymptotic_measure(ising(), rho, config)
    assert len(table) == 2
    weights = sorted(w for w, _ in table)
    assert weights == pytest.approx([0.3, 0.7], abs=1e-12)
    for weight, state in table:
        assert state.coherence() == 0.0
        assert max(state.diagonal()) == pytest.approx(1.0, abs=1e-12)


def test_balanced_tuning_cannot_be_resolved():
    rho = qubit_state(0.5, 0.5)
    config = sigma_config(delta=math.pi / 2.0)
    with pytest.raises(DegenerateTuning, match="share transmission"):
        asymptotic_measure(ising(), rho, config)


def test_count_distribution_matches_reference():
    rho = qubit_state(0.3, 0.7)
    config = sigma_config()
    dist = outcome_distribution(ising(), rho, config, 2)
    assert dist[0] == pytest.approx(0.7, abs=1e-12)
    assert dist[1] == pytest.approx(0.0, abs=1e-12)
    assert dist[2] == pytest.approx(0.3, abs=1e-12)

    config = sigma_config(delta=math.pi / 3.0)
    rho = qubit_state(0.5, 0.5, 0.5)
    dist = outcome_distribution(ising(), rho, config, 7)
    reference = oracles.binomial_mixture([0.5, 0.5], [0.75, 0.25], 7)
    for n in range(8):
        assert dist[n] == pytest.approx(reference[n], abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


@given(n=st.integers(min_value=0, max_value=40),
       weight=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_count_distribution_is_normalized(n, weight):
    rho = qubit_state(weight, 1.0 - weight)
    dist = outcome_distribution(ising(), rho, sigma_config(delta=1.0), n)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(value >= -1e-15 for value in dist.values())


# ---------------------------------------------------------------------------
# the stream engine against the single-probe channel and exact arithmetic


def _semion_qubit(semion):
    matrix = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, 0.6]], dtype=complex)
    return density_matrix(semion, ((0, 0, 0), (1, 1, 0)), matrix)


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


@pytest.mark.parametrize("case", ["detuned", "symmetric", "eigenstate", "semion"])
def test_kept_states_match_chained_single_probes(case, semion):
    # long enough that the stream is evaluated in more than one chunk
    model, n_probes = ising(), 1100
    if case == "detuned":
        rho, config = qubit_state(0.5, 0.5, 0.5), sigma_config(delta=math.pi / 3.0)
    elif case == "symmetric":
        # transmissions 1 and 0: the first probe collapses the state and
        # every later draw takes a deterministic branch
        rho, config = qubit_state(0.5, 0.5, 0.5), sigma_config()
    elif case == "eigenstate":
        rho, config = qubit_state(1.0, 0.0), sigma_config(delta=math.pi / 3.0)
    else:
        model, rho = semion, _semion_qubit(semion)
        config = InterferometerConfig(probe=1, theta_I=0.9)
    run = simulate_stream(model, rho, config, n_probes, seed=5, keep_states=True)
    assert len(run.states) == n_probes
    state = rho
    for k, outcome in enumerate(run.outcomes):
        probability, state = apply_probe(model, state, config, outcome)
        assert run.probabilities[k] == pytest.approx(probability, abs=1e-12)
        assert _relative_gap(run.states[k].matrix, state.matrix) <= 1e-12
        assert run.coherences[k] == run.states[k].coherence()
    assert np.array_equal(run.final_state.matrix, run.states[-1].matrix)
    if case == "symmetric":
        assert len(set(run.outcomes[1:])) == 1
        assert set(run.probabilities[1:]) == {1.0}
    if case == "eigenstate":
        assert run.final_state.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert run.coherences == (0.0,) * n_probes


def test_stream_probabilities_match_exact_arithmetic():
    model, config = ising(), sigma_config(delta=math.pi / 3.0)
    run = simulate_stream(model, qubit_state(0.5, 0.5, 0.5), config, 300, seed=9)
    transmit = [Fraction(p_factor(model, a, a, I, config, ProbeOutcome.TRANSMITTED).real)
                for a in (I, PSI)]
    reflect = [Fraction(p_factor(model, a, a, I, config, ProbeOutcome.REFLECTED).real)
               for a in (I, PSI)]
    populations = [Fraction(1, 2), Fraction(1, 2)]
    for outcome, p_s in zip(run.outcomes, run.probabilities):
        pr_t = sum(p * t for p, t in zip(populations, transmit))
        factors = transmit if outcome is ProbeOutcome.TRANSMITTED else reflect
        exact = pr_t if outcome is ProbeOutcome.TRANSMITTED else 1 - pr_t
        assert abs(p_s - float(exact)) <= 1e-14
        populations = [p * f for p, f in zip(populations, factors)]
        total = sum(populations)
        populations = [p / total for p in populations]


def test_long_detuned_stream_keeps_the_channel_invariants():
    model, config = ising(), sigma_config(delta=math.pi / 3.0)
    n_probes = 20_000
    run = simulate_stream(model, qubit_state(0.5, 0.5, 0.5), config, n_probes, seed=21)
    assert all(0.0 < p <= 1.0 for p in run.probabilities)
    final = run.final_state
    collapsed = I if final.charge_weight({I}) > 0.5 else PSI
    transmission = p_factor(model, collapsed, collapsed, I, config,
                            ProbeOutcome.TRANSMITTED).real
    # past the first thousand probes the minority class weight is far below
    # double precision, so p_s is the class transmission or its complement
    for outcome, p_s in list(zip(run.outcomes, run.probabilities))[1000:]:
        want = transmission if outcome is ProbeOutcome.TRANSMITTED else 1.0 - transmission
        assert abs(p_s - want) <= 1e-13
    assert abs(np.trace(final.matrix) - 1.0) <= 1e-12
    assert np.max(np.abs(final.matrix - final.matrix.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(final.matrix)) >= -1e-12
