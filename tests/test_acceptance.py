"""Acceptance suite: the eleven gating checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each criterion is independent; tolerances and runtime budgets are
asserted inside the criterion that owns them.
"""

import cmath
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

import oracles
from topoprobe import (
    InterferometerConfig,
    ProbeOutcome,
    QubitDensity,
    align_global_phase,
    apply_probe,
    asymptotic_measure,
    clifford_library,
    density_matrix,
    equivalence_classes,
    ising,
    loop_around_line,
    magic_state,
    modular_matrices,
    omega_vector,
    outcome_distribution,
    p_factor,
    protocol_residual,
    rng,
    simulate_stream,
    solid_torus_operator,
    state_fidelity,
    synthesize_magic_state,
    twisted_measure,
    twisted_operator,
    verify_consistency,
)

I, SIGMA, PSI = 0, 1, 2
QUBIT_LABELS = ((I, I, I), (PSI, PSI, I))
OMEGA = cmath.exp(1j * math.pi / 4.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL {description}")
        raise
    print(f"criterion {number:02d}: PASS {description}")


def qubit(r00, r11, r01=0.0):
    matrix = np.array([[r00, r01], [np.conjugate(r01), r11]], dtype=complex)
    return density_matrix(ising(), QUBIT_LABELS, matrix)


def test_criterion_01_ising_self_consistency():
    with criterion(1, "Ising axioms: pentagon/hexagon < 1e-12, integer "
                      "monodromy table, unitary S, built in under 1 s"):
        ising.cache_clear()
        start = time.monotonic()
        model = ising()
        report = verify_consistency(model, tolerance=1e-12)
        elapsed = time.monotonic() - start
        assert report.families["pentagon"].max_residual < 1e-12
        assert report.families["hexagon"].max_residual < 1e-12
        expected_m = np.array([[1, 1, 1], [1, 0, -1], [1, -1, 1]], dtype=complex)
        assert np.array_equal(model.monodromy, expected_m)
        s = model.s_matrix
        assert np.max(np.abs(s @ s.conj().T - np.eye(3))) < 1e-12
        assert elapsed < 1.0


def test_criterion_02_modular_transform():
    with criterion(2, "S T^2 S^-1 matches the closed-form double-twist matrix; "
                      "S squares to the identity"):
        bundle = modular_matrices(ising())
        half, other = 0.5 * (1.0 + OMEGA), 0.5 * (1.0 - OMEGA)
        printed = np.array([
            [half, 0.0, other],
            [0.0, 1.0, 0.0],
            [other, 0.0, half],
        ])
        assert np.max(np.abs(bundle.b - printed)) < 1e-12
        assert np.max(np.abs(bundle.s @ bundle.s - np.eye(3))) < 1e-12


def test_criterion_03_torus_tensors():
    with criterion(3, "solid-torus states and induced diagonal operators for "
                      "all four boundary presentations"):
        model = ising()
        s2 = math.sqrt(2.0)
        cases = [
            ("longitudinal", I, [0.5, s2 / 2.0, 0.5], [1.0, 1.0, 1.0]),
            ("meridional", I, [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]),
            ("twisted", I,
             [0.5 * (1 + OMEGA), 0.0, 0.5 * (1 - OMEGA)],
             [1 + OMEGA, 0.0, 1 - OMEGA]),
            ("twisted", PSI,
             [0.5 * (1 - OMEGA), 0.0, 0.5 * (1 + OMEGA)],
             [1 - OMEGA, 0.0, 1 + OMEGA]),
        ]
        for boundary, core, vector, entries in cases:
            torus, op = solid_torus_operator(model, boundary, core)
            assert np.max(np.abs(torus.coefficients - np.array(vector))) < 1e-12
            assert np.max(np.abs(op.entries - np.array(entries))) < 1e-12


def test_criterion_04_omega_calculus():
    with criterion(4, "omega projector identity, abelian slide witness, and "
                      "vacuum-loop cancellation of charged lines"):
        model = ising()
        s, m = model.s_matrix, model.monodromy
        for a in range(3):
            w = omega_vector(model, a)
            for c in range(3):
                value = sum(w[x] * s[c, x] / s[I, c] for x in range(3))
                assert abs(value - (1.0 if a == c else 0.0)) < 1e-12
        for a in range(3):
            fused = model.fusion_outcomes(a, PSI)[0]
            for x in range(3):
                assert abs(s[fused, x] - m[PSI, x] * s[a, x]) < 1e-12
        w0 = omega_vector(model, I)
        for c in range(3):
            expected = 1.0 if c == I else 0.0
            assert abs(loop_around_line(model, w0, c) - expected) < 1e-12


def test_criterion_05_untwisted_asymptotics():
    with criterion(5, "tuned interferometer: sharp transmissions (1, 1/2, 0), "
                      "two-class collapse measure, exact N=2 count statistics"):
        model = ising()
        config = InterferometerConfig(probe=SIGMA)
        transmitted = ProbeOutcome.TRANSMITTED
        assert abs(p_factor(model, I, I, I, config, transmitted) - 1.0) < 1e-12
        assert abs(p_factor(model, PSI, PSI, I, config, transmitted)) < 1e-12
        assert abs(p_factor(model, SIGMA, SIGMA, I, config, transmitted) - 0.5) < 1e-12

        r00, r11 = 0.3, 0.7
        rho = qubit(r00, r11)
        table = asymptotic_measure(model, rho, config)
        assert len(table) == 2
        by_weight = {round(w, 12): fixed for w, fixed in table}
        assert set(by_weight) == {r00, r11}
        assert np.max(np.abs(by_weight[r00].matrix - np.diag([1.0, 0.0]))) < 1e-12
        assert np.max(np.abs(by_weight[r11].matrix - np.diag([0.0, 1.0]))) < 1e-12

        dist = outcome_distribution(model, rho, config, 2)
        # the vacuum class transmits every probe, the fermion class none
        assert abs(dist[2] - r00) < 1e-12
        assert abs(dist[1]) < 1e-12
        assert abs(dist[0] - r11) < 1e-12


def test_criterion_06_exponential_collapse():
    with criterion(6, "detuned collapse: median residual coherence < 1e-3 at "
                      "N=50, fractions in the 3-sigma band >= 99% at N=1000"):
        start = time.monotonic()
        model = ising()
        config = InterferometerConfig(probe=SIGMA, theta_I=math.pi / 3.0)
        transmitted = ProbeOutcome.TRANSMITTED
        assert abs(p_factor(model, I, I, I, config, transmitted) - 0.75) < 1e-12
        assert abs(p_factor(model, PSI, PSI, I, config, transmitted) - 0.25) < 1e-12

        rho = qubit(0.5, 0.5, 0.5)
        coherences = []
        for trial in range(100):
            run = simulate_stream(model, rho, config, 50, seed=rng.derive_trial_seed(2024, trial))
            coherences.append(run.final_state.coherence())
        assert statistics.median(coherences) < 1e-3

        transmission = {I: 0.75, PSI: 0.25}
        n_probes, trials = 1000, 1000
        in_band = 0
        for trial in range(trials):
            run = simulate_stream(
                model, rho, config, n_probes, seed=rng.derive_trial_seed(77, trial)
            )
            weights = {
                a: run.final_state.charge_weight({a}) for a in (I, PSI)
            }
            collapsed = max(weights, key=weights.get)
            p = transmission[collapsed]
            band = 3.0 * math.sqrt(p * (1.0 - p) / n_probes)
            if abs(run.fraction - p) <= band:
                in_band += 1
        assert in_band >= 0.99 * trials
        assert time.monotonic() - start < 30.0


def test_criterion_07_probe_blindness():
    with criterion(7, "fermion probe: classes {I, psi} and {sigma}; qubit "
                      "states ride through any probe stream unchanged"):
        model = ising()
        config = InterferometerConfig(probe=PSI, theta_I=0.9)
        partition = equivalence_classes(model, PSI, config)
        members = sorted(tuple(k.members) for k in partition.classes)
        assert members == [(I, PSI), (SIGMA,)]

        for r00, r11, r01 in ((0.5, 0.5, 0.5), (0.3, 0.7, 0.2 + 0.1j)):
            rho = qubit(r00, r11, r01)
            for seed in (0, 5):
                for k in range(1, 41):
                    state = simulate_stream(model, rho, config, k, seed).final_state
                    assert np.max(np.abs(state.matrix - rho.matrix)) < 1e-12
            for outcome in ProbeOutcome:
                _, post = apply_probe(model, rho, config, outcome)
                assert np.max(np.abs(post.matrix - rho.matrix)) < 1e-12


def test_criterion_08_twisted_measurement():
    with criterion(8, "doubly twisted channel: outcome weights cos/sin^2(pi/8), "
                      "conditioned states, Kraus vs closed form, completeness"):
        cos2 = math.cos(math.pi / 8.0) ** 2
        ket0 = QubitDensity(np.diag([1.0, 0.0]))
        pr_i, _ = twisted_measure(ket0, "I")
        pr_psi, _ = twisted_measure(ket0, "psi")
        assert abs(pr_i - cos2) < 1e-12
        assert abs(pr_psi - (1.0 - cos2)) < 1e-12

        generic = QubitDensity(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
        for outcome, vacuum in (("I", True), ("psi", False)):
            pr_ref, post_ref = oracles.twisted_closed_form(generic.matrix, vacuum)
            pr, post = twisted_measure(generic, outcome)
            assert abs(pr - pr_ref) < 1e-12
            assert np.max(np.abs(post.matrix - post_ref)) < 1e-12

        kraus = {
            name: 0.5 * np.diag(twisted_operator(ising(), core).entries[[0, 2]])
            for name, core in (("I", I), ("psi", PSI))
        }
        completeness = sum(k.conj().T @ k for k in kraus.values())
        assert np.max(np.abs(completeness - np.eye(2))) <= 1e-15


def test_criterion_09_magic_states():
    with criterion(9, "twisted outcomes on H|0> land on the two phase-gate "
                      "magic states with unit fidelity"):
        targets = {
            "I": np.array([math.cos(math.pi / 8.0), -1j * math.sin(math.pi / 8.0)]),
            "psi": np.array([math.sin(math.pi / 8.0), 1j * math.cos(math.pi / 8.0)]),
        }
        for outcome, target in targets.items():
            produced = synthesize_magic_state(outcome)
            assert state_fidelity(produced, target) > 1.0 - 1e-12
            declared = magic_state(outcome).vector()
            assert np.max(np.abs(declared - target)) < 1e-12


def test_criterion_10_protocol():
    with criterion(10, "all four outcome pairs realize their diagonal gate to "
                       "1e-12; the double-twist matrix decouples the sigma row"):
        for a in ("I", "psi"):
            for alpha in ("I", "psi"):
                assert protocol_residual(a, alpha) < 1e-12
        b = modular_matrices(ising()).b
        assert abs(b[SIGMA, I]) < 1e-12
        assert abs(b[SIGMA, PSI]) < 1e-12


def test_criterion_11_channel_axioms():
    with criterion(11, "1000 random densities and tunings: unit total "
                       "probability, trace one, positivity, order independence"):
        start = time.monotonic()
        model = ising()
        gen = rng.generator(424242)
        tolerance = 1e-10
        outcomes = (ProbeOutcome.TRANSMITTED, ProbeOutcome.REFLECTED)
        for _ in range(1000):
            direction = gen.normal(size=3)
            direction /= np.linalg.norm(direction)
            x, y, z = gen.random() ** (1.0 / 3.0) * direction
            rho = qubit(0.5 * (1.0 + z), 0.5 * (1.0 - z), 0.5 * (x - 1j * y))
            chi1, phi1, chi2, phi2, delta = gen.random(5) * (2.0 * math.pi)
            config = InterferometerConfig(
                probe=SIGMA,
                t1=math.cos(chi1) * cmath.exp(1j * phi1),
                r1=math.sin(chi1),
                t2=math.cos(chi2) * cmath.exp(1j * phi2),
                r2=math.sin(chi2),
                theta_I=delta,
            )
            factor = {
                s: np.array([
                    float(np.real(p_factor(model, a, a, I, config, s)))
                    for a, _, _ in QUBIT_LABELS
                ])
                for s in outcomes
            }

            def prob(state, s):
                return float(state.diagonal() @ factor[s])

            assert abs(prob(rho, outcomes[0]) + prob(rho, outcomes[1]) - 1.0) < tolerance

            posts = {}
            for s in outcomes:
                if prob(rho, s) < 1e-6:
                    continue
                pr, post = apply_probe(model, rho, config, s)
                assert abs(float(np.real(np.trace(post.matrix))) - 1.0) < tolerance
                assert float(np.min(np.linalg.eigvalsh(post.matrix))) > -tolerance
                posts[s] = (pr, post)
            if len(posts) < 2:
                continue

            # outcome order must not matter across two conditioned probes
            pr_t, post_t = posts[outcomes[0]]
            pr_r, post_r = posts[outcomes[1]]
            if prob(post_t, outcomes[1]) < 1e-6 or prob(post_r, outcomes[0]) < 1e-6:
                continue
            pr_tr, end_tr = apply_probe(model, post_t, config, outcomes[1])
            pr_rt, end_rt = apply_probe(model, post_r, config, outcomes[0])
            assert abs(pr_t * pr_tr - pr_r * pr_rt) < tolerance
            assert np.max(np.abs(end_tr.matrix - end_rt.matrix)) < tolerance
        assert time.monotonic() - start < 10.0
