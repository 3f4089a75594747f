"""Correctness checks with references independent of the package's own algorithms.

Each check records "pass", "FAIL: ..." or "skipped: ..." under its name in a
``Checks`` table; a name checked many times keeps its first failure. The
references use only the public entry points named in their docstrings.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from topoprobe import interferometer

# Files each subcommand documents as its artifact set.
ARTIFACTS = {
    "interfere": {"trajectories.jsonl", "summary.csv", "asymptotic.json"},
    "twisted": {"twisted.json"},
    "validate": {"validation.json"},
    "protocol": {"protocol.json"},
    "sweep": {"sweep.csv"},
    "dump": {"matrices.json"},
}

STREAM_RELATIVE_TOLERANCE = 1e-9
BAND_SHARE = 0.99
BAND_SIGMAS = 3.0
TWISTED_SIGMAS = 4.0
ISING_RESIDUAL = 1e-12
MATRIX_TOLERANCE = 1e-12
DISTRIBUTION_TOLERANCE = 1e-9


class Checks:
    def __init__(self):
        self.results: dict[str, str] = {}

    def record(self, name: str, ok: bool, detail: str = ""):
        if self.results.get(name, "pass").startswith("FAIL"):
            return
        self.results[name] = "pass" if ok else f"FAIL: {detail}"

    def skip(self, name: str, why: str):
        if name not in self.results:
            self.results[name] = f"skipped: {why}"

    @property
    def passed(self) -> bool:
        return not any(v.startswith("FAIL") for v in self.results.values())


# ---------------------------------------------------------------------------
# interferometer


def _connecting_charge(model, ket, bra):
    (a, c, _), (a2, c2, _) = ket, bra
    left = set(np.nonzero(model.fusion[a, model.dual[a2]])[0])
    right = set(np.nonzero(model.fusion[c, model.dual[c2]])[0])
    (e,) = left & right
    return int(e)


def factor_table(model, labels, config):
    """Per-entry transmitted and reflected factors from ``interferometer.p_factor``."""
    n = len(labels)
    table = {}
    for i in range(n):
        for j in range(n):
            if labels[i][2] != labels[j][2]:
                continue
            e = _connecting_charge(model, labels[i], labels[j])
            table[i, j] = tuple(
                complex(interferometer.p_factor(model, labels[i][0], labels[j][0], e, config, s))
                for s in (interferometer.ProbeOutcome.TRANSMITTED, interferometer.ProbeOutcome.REFLECTED)
            )
    return table


def _log(z: complex, power: int) -> complex:
    if power == 0:
        return 0j
    return -math.inf if z == 0 else power * cmath.log(z)


def closed_form_state(rho0: np.ndarray, table, n_transmitted: int, n_probes: int) -> np.ndarray:
    """rho0 * Pt^n * Pr^(N-n) entrywise, normalized by its trace, in log space.

    Log space keeps 0.25^1200-sized factors from underflowing before the
    normalization.
    """
    size = rho0.shape[0]
    logs = np.full((size, size), -np.inf, dtype=complex)
    for (i, j), (pt, pr) in table.items():
        if rho0[i, j] == 0:
            continue
        logs[i, j] = (
            cmath.log(rho0[i, j])
            + _log(pt, n_transmitted)
            + _log(pr, n_probes - n_transmitted)
        )
    top = max(logs[i, i].real for i in range(size))
    state = np.where(np.isfinite(logs.real), np.exp(logs - top), 0)
    return state / np.trace(state).real


def check_trajectory(checks: Checks, trajectory, rho0, table, n_probes: int):
    reference = closed_form_state(rho0, table, trajectory.n_transmitted, n_probes)
    gap = float(np.max(np.abs(trajectory.final_state.matrix - reference)))
    scale = float(np.max(np.abs(reference)))
    checks.record(
        "stream.final_state_closed_form",
        gap <= STREAM_RELATIVE_TOLERANCE * scale,
        f"seed {trajectory.seed}: max gap {gap:.3e} against scale {scale:.3e}",
    )
    probabilities = np.asarray(trajectory.probabilities)
    checks.record(
        "stream.p_s_in_unit_interval",
        bool(np.all(probabilities > 0.0) and np.all(probabilities <= 1.0)),
        f"seed {trajectory.seed}: p_s range [{probabilities.min()!r}, {probabilities.max()!r}]",
    )


def check_bands(checks: Checks, fractions):
    """``fractions`` holds (transmitted fraction, class transmission, probes) per trajectory.

    The share is taken over every trajectory of the run, the benchmark's own
    streams and the interfere trials: a correct simulation puts about 0.27% of
    fractions outside 3 sigma, and only a pool of hundreds keeps that chance
    share reliably under the 1% allowance.
    """
    if not fractions:
        return
    inside = sum(
        abs(fraction - p) <= BAND_SIGMAS * math.sqrt(p * (1.0 - p) / n)
        for fraction, p, n in fractions
    )
    share = inside / len(fractions)
    checks.record(
        "stream.fraction_in_class_band",
        share >= BAND_SHARE,
        f"{inside} of {len(fractions)} fractions inside the {BAND_SIGMAS:g} sigma band",
    )


def summary_fractions(files, transmissions) -> list:
    """(fraction, class transmission, probes) of each interfere trial, from summary.csv."""
    rows = list(csv.DictReader(io.StringIO(files["summary.csv"].decode())))
    return [
        (int(row["n"]) / int(row["N"]), transmissions[row["collapsed_class"].split("+")[0]], int(row["N"]))
        for row in rows
    ]


def binomial_mixture(rho0, labels, table, n_probes: int) -> np.ndarray:
    """Transmitted-count law: populations times binomials, evaluated with lgamma."""
    counts = np.arange(n_probes + 1)
    log_comb = (
        math.lgamma(n_probes + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(n_probes - k + 1) for k in counts])
    )
    law = np.zeros(n_probes + 1)
    for i in range(len(labels)):
        weight = float(rho0[i, i].real)
        p = float(table[i, i][0].real)
        if weight == 0.0:
            continue
        with np.errstate(divide="ignore"):
            terms = log_comb + counts * np.log(p) + (n_probes - counts) * np.log1p(-p)
        law += weight * np.exp(terms)
    return law


def check_distribution(checks: Checks, distribution, reference: np.ndarray):
    values = np.array([distribution[k] for k in range(len(reference))])
    gap = float(np.max(np.abs(values - reference)))
    checks.record(
        "stream.outcome_distribution",
        len(distribution) == len(reference) and gap <= DISTRIBUTION_TOLERANCE,
        f"max gap {gap:.3e} from the lgamma binomial mixture",
    )


def _collapse_law(model, rho0, labels, probe):
    """Labels grouped by their monodromy with the probe; each group's weight and limit state."""
    groups: dict[tuple, list[int]] = {}
    for i, (a, _, _) in enumerate(labels):
        m = complex(model.monodromy[a, probe])
        groups.setdefault((round(m.real, 9), round(m.imag, 9)), []).append(i)
    law = []
    for members in groups.values():
        weight = float(sum(rho0[i, i].real for i in members))
        if weight <= MATRIX_TOLERANCE:
            continue
        keep = np.zeros(len(labels), dtype=bool)
        keep[members] = True
        state = np.where(np.outer(keep, keep), rho0, 0) / weight
        for i in members:
            for j in members:
                e = _connecting_charge(model, labels[i], labels[j])
                if abs(model.monodromy[e, probe] - 1.0) > 1e-9:
                    state[i, j] = 0
        law.append((weight, state))
    return law


def check_asymptotic(checks: Checks, table, model, rho0, labels, probe):
    """Collapse law: weight of each class, limit state without probe-visible coherence."""
    expected = _collapse_law(model, rho0, labels, probe)
    ok = len(table) == len(expected) and all(
        any(
            abs(weight - w) <= MATRIX_TOLERANCE
            and float(np.max(np.abs(fixed.matrix - state))) <= MATRIX_TOLERANCE
            for w, state in expected
        )
        for weight, fixed in table
    )
    checks.record("stream.asymptotic_measure", ok, "collapse weights or fixed states differ")


# ---------------------------------------------------------------------------
# command line


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}


def check_artifact_set(checks: Checks, subcommand: str, files: dict[str, bytes]):
    checks.record(
        f"cli.{subcommand}.artifacts",
        set(files) == ARTIFACTS[subcommand],
        f"wrote {sorted(files)}",
    )


def check_interfere_counts(checks: Checks, files, probes: int, trials: int):
    lines = files.get("trajectories.jsonl", b"").count(b"\n")
    rows = files.get("summary.csv", b"").count(b"\n") - 1
    checks.record(
        "cli.interfere.counts",
        lines == probes * trials and rows == trials,
        f"{lines} jsonl lines and {rows} summary rows for {trials} x {probes}",
    )
    return lines


def check_twisted_band(checks: Checks, files, p_vacuum: float):
    payload = json.loads(files["twisted.json"])
    trials = payload["trials"]
    count = payload["histogram"]["I"]
    sigma = math.sqrt(trials * p_vacuum * (1.0 - p_vacuum))
    checks.record(
        "cli.twisted.histogram_band",
        abs(count - trials * p_vacuum) <= TWISTED_SIGMAS * sigma
        and sum(payload["histogram"].values()) == trials,
        f"{count} vacuum outcomes in {trials} trials, expected {trials * p_vacuum:.1f}",
    )


def check_rerun(checks: Checks, subcommand: str, first, second):
    checks.record(f"cli.{subcommand}.byte_identical_rerun", first == second, "artifacts differ")


# ---------------------------------------------------------------------------
# models and surgery


def check_report(checks: Checks, name: str, report):
    checks.record(f"model.{name}.report_passes", report.passed, report.summary())


def check_ising_residuals(checks: Checks, report):
    worst = max(f.max_residual for f in report.families.values())
    checks.record("model.ising.residuals", worst < ISING_RESIDUAL, f"worst residual {worst:.3e}")


def zn_s_matrix(n: int, p: int) -> np.ndarray:
    a = np.arange(n)
    return np.exp(-4j * np.pi * p * np.outer(a, a) / n) / math.sqrt(n)


def check_zn_s(checks: Checks, n: int, p: int, s: np.ndarray):
    gap = float(np.max(np.abs(s - zn_s_matrix(n, p))))
    checks.record(f"model.z{n}.s_matrix", gap <= MATRIX_TOLERANCE, f"p={p}: max gap {gap:.3e}")


def check_sigma_decoupling(checks: Checks, b: np.ndarray):
    leak = max(abs(b[1, 0]), abs(b[1, 2]))
    checks.record(
        "model.ising.sigma_row_decoupled",
        leak <= MATRIX_TOLERANCE and abs(b[1, 1]) > 0.5,
        f"|B_sigma,I|, |B_sigma,psi| up to {leak:.3e}, |B_sigma,sigma| = {abs(b[1, 1]):.3e}",
    )
