"""Mach-Zehnder interferometry as a quantum channel on anyonic states.

A probe charge b enters a two-path interferometer enclosing a target region
A whose collective charge may be entangled with its complement C. Each
probe is detected in one of two outputs; conditioning on the outcome
updates the target state entrywise through monodromy-weighted factors, and
a long probe stream collapses the target onto a class of charges the probe
cannot tell apart. This module implements the single-probe channel, seeded
probe streams, outcome statistics, the probe's charge equivalence classes,
and the asymptotic fixed states.

States live in a basis labeled (a, c, f): collective charge a in the probed
region, c in the complement, total charge f. Off-diagonal entries are
supported only when the connecting charge between the bra and ket labels is
unique; the general recoupling move needed beyond that sector is out of
scope and reported as UnsupportedBasisChange.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng
from .errors import (
    DegenerateTuning,
    ForbiddenConnectingCharge,
    UnitarityViolation,
    UnsupportedBasisChange,
    ZeroProbability,
)
from .model import VACUUM, AnyonModel, Charge

_ZERO_TOLERANCE = 1e-12
_CLASS_TOLERANCE = 1e-9
_UNITARITY_TOLERANCE = 1e-9
_STREAM_CHUNK = 1024  # probes per closed-form evaluation
_AMBIGUOUS = -2  # connecting-charge table entry with several candidates

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class ProbeOutcome(enum.Enum):
    """Detector that fired for one probe."""

    TRANSMITTED = "transmitted"
    REFLECTED = "reflected"


def _require_unitary_splitters(t1, r1, t2, r2):
    """Raise UnitarityViolation unless |t|^2 + |r|^2 = 1 for both splitters."""
    for label, t, r in (("1", t1, r1), ("2", t2, r2)):
        # huge amplitudes make these products inf, where float ** would raise OverflowError
        gap = abs(abs(t) * abs(t) + abs(r) * abs(r) - 1.0)
        if not (gap <= _UNITARITY_TOLERANCE):
            raise UnitarityViolation(
                f"splitter {label} is not unitary: |t{label}|^2 + |r{label}|^2 "
                f"deviates from 1 by {gap:.3e}"
            )


@dataclass(frozen=True)
class InterferometerConfig:
    """Beam-splitter amplitudes, path phases, and probe charge of one setup.

    Defaults give the symmetric untwisted interferometer: both splitters
    50/50 with real amplitudes and no path-phase difference. Twisted arms
    make a different measurement, built from surgery in :mod:`.gates`.
    """

    probe: Charge
    t1: complex = _INV_SQRT2
    r1: complex = _INV_SQRT2
    t2: complex = _INV_SQRT2
    r2: complex = _INV_SQRT2
    theta_I: float = 0.0
    theta_II: float = 0.0

    def __post_init__(self):
        _require_unitary_splitters(self.t1, self.r1, self.t2, self.r2)
        if not (math.isfinite(self.theta_I) and math.isfinite(self.theta_II)):
            raise ValueError("path phases theta_I and theta_II must be finite")

    @property
    def delta(self) -> float:
        """Relative phase between the two paths."""
        return self.theta_I - self.theta_II


@dataclass(frozen=True, eq=False)
class AnyonicDensityMatrix:
    """Density matrix of a probed region entangled with its complement.

    ``labels[i]`` is the basis triple (a, c, f) of row/column i. Direct
    construction trusts its inputs (used on hot paths where validity is
    preserved by the update rule); build states from outside through
    :func:`density_matrix`, which checks hermiticity, trace, positivity,
    fusion consistency of the labels, and charge superselection.
    """

    model: AnyonModel
    labels: tuple[tuple[Charge, Charge, Charge], ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "labels", tuple(tuple(int(x) for x in lab) for lab in self.labels)
        )
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.shape != (len(self.labels), len(self.labels)):
            raise ValueError("matrix shape must match the label count")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrix))

    def coherence(self) -> float:
        """Largest off-diagonal magnitude relative to the largest population."""
        return float(_coherence(self.matrix))

    def charge_weight(self, charges) -> float:
        """Total population carried by labels whose probed charge is listed."""
        wanted = set(charges)
        diag = self.diagonal()
        return float(sum(diag[i] for i, (a, _, _) in enumerate(self.labels) if a in wanted))


def _coherence(matrices: np.ndarray) -> np.ndarray:
    """Largest off-diagonal magnitude over the largest population, per matrix of a stack."""
    size = matrices.shape[-1]
    off = np.abs(matrices)
    off[..., range(size), range(size)] = 0.0
    peak = np.max(off, axis=(-2, -1))
    top = np.max(np.real(np.diagonal(matrices, axis1=-2, axis2=-1)), axis=-1)
    return np.divide(peak, top, out=np.zeros_like(peak), where=top > 0.0)


def _require_density(matrix: np.ndarray, kind: str) -> None:
    """Raise ValueError unless matrix is Hermitian, unit-trace and PSD; a NaN or inf entry never passes."""
    with np.errstate(invalid="ignore"):
        asymmetry = float(np.abs(matrix - matrix.conj().T).max())
    if not asymmetry <= _CLASS_TOLERANCE:
        raise ValueError(f"{kind} must be Hermitian")
    if not abs(complex(matrix.trace()) - 1.0) <= _CLASS_TOLERANCE:
        raise ValueError(f"{kind} must have unit trace")
    if not float(np.linalg.eigvalsh(matrix)[0]) >= -_CLASS_TOLERANCE:  # eigenvalues ascend
        raise ValueError(f"{kind} must be positive semidefinite")


def density_matrix(
    model: AnyonModel,
    labels: Sequence[tuple[Charge, Charge, Charge]],
    matrix,
) -> AnyonicDensityMatrix:
    """Validated construction of an :class:`AnyonicDensityMatrix`.

    Checks that each label (a, c, f) is fusion-allowed (f in a x c), that
    the matrix is Hermitian, unit-trace, positive semidefinite, and that no
    entry couples different total charges.
    """
    rho = AnyonicDensityMatrix(model=model, labels=labels, matrix=matrix)
    labels, matrix = rho.labels, rho.matrix
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate basis labels")
    n_charges = model.n_charges
    for a, c, f in labels:
        if not all(0 <= x < n_charges for x in (a, c, f)):
            raise ValueError(f"label {(a, c, f)} uses charges outside the model")
        if not model.allows(a, c, f):
            raise ValueError(
                f"label ({model.charge_name(a)}, {model.charge_name(c)}, "
                f"{model.charge_name(f)}) is not fusion-allowed"
            )
    _require_density(matrix, "density matrix")
    for i, (_, _, fi) in enumerate(labels):
        for j, (_, _, fj) in enumerate(labels):
            if fi != fj and abs(matrix[i, j]) > _ZERO_TOLERANCE:
                raise ValueError(
                    "superselection violated: entry couples total charges "
                    f"{model.charge_name(fi)} and {model.charge_name(fj)}"
                )
    return rho


# ---------------------------------------------------------------------------
# single-probe channel


def p_factor(
    model: AnyonModel,
    a: Charge,
    a_prime: Charge,
    e: Charge,
    config: InterferometerConfig,
    s: ProbeOutcome,
) -> complex:
    """Entrywise update factor of one probe for a bra/ket charge pair.

    ``e`` is the connecting charge between the ket label a and the bra
    label a'; it must appear in a x conj(a'). Diagonal factors (a = a',
    e = vacuum) are the outcome probabilities for a sharp charge a.
    """
    if not model.allows(a, model.dual[a_prime], e):
        raise ForbiddenConnectingCharge(
            f"{model.charge_name(e)} does not connect {model.charge_name(a)} "
            f"to {model.charge_name(a_prime)}"
        )
    m = model.monodromy
    b = config.probe
    t1, r1, t2, r2 = (complex(x) for x in (config.t1, config.r1, config.t2, config.r2))
    phase = cmath.exp(1j * config.delta)
    cross_ket = t1 * r1.conjugate() * r2.conjugate() * t2.conjugate() * phase * m[a, b]
    cross_bra = t1.conjugate() * r1 * t2 * r2 * phase.conjugate() * m[a_prime, b].conjugate()
    if s is ProbeOutcome.TRANSMITTED:
        return (
            abs(t1) ** 2 * abs(r2) ** 2 * m[e, b]
            + cross_ket
            + cross_bra
            + abs(r1) ** 2 * abs(t2) ** 2
        )
    return (
        abs(t1) ** 2 * abs(t2) ** 2 * m[e, b]
        - cross_ket
        - cross_bra
        + abs(r1) ** 2 * abs(r2) ** 2
    )


@functools.lru_cache(maxsize=64)
def _connecting_charges(model, labels):
    """Read-only table of the charge linking ket label i to bra label j.

    Candidates must be absorbable on both the probed side and the
    complement side. An entry is -1 when there is none (or the total
    charges differ) and _AMBIGUOUS when there are several.
    """
    table = np.full((len(labels), len(labels)), -1)
    for i, (a, c, f) in enumerate(labels):
        for j, (a2, c2, f2) in enumerate(labels):
            candidates = set(model.fusion_outcomes(a, model.dual[a2])) & set(
                model.fusion_outcomes(c, model.dual[c2])
            )
            if f == f2 and candidates:
                table[i, j] = candidates.pop() if len(candidates) == 1 else _AMBIGUOUS
    table.flags.writeable = False
    return table


def _require_supported(model, rho, populated=None):
    """Raise UnsupportedBasisChange if a populated entry has no unique connecting charge.

    ``populated`` defaults to the entries of rho above the zero tolerance.
    """
    if populated is None:
        populated = np.abs(rho.matrix) > _ZERO_TOLERANCE
    hits = np.argwhere((_connecting_charges(model, rho.labels) == _AMBIGUOUS) & populated)
    if len(hits):
        ket, bra = ("({}, {}; {})".format(*map(model.charge_name, rho.labels[k])) for k in hits[0])
        raise UnsupportedBasisChange(
            f"no unique connecting charge between {ket} and {bra}; "
            "the populated entry would need a recoupling move this package does not model"
        )


@functools.lru_cache(maxsize=64)
def _factors(model, labels, config):
    """Read-only per-entry probe factors (P_t, P_r) over a label basis.

    Entries without a unique connecting charge get factor 0; callers check
    with :func:`_require_supported` that the state does not populate them.
    """
    charges = _connecting_charges(model, labels)
    p_t = np.zeros(charges.shape, dtype=complex)
    p_r = np.zeros(charges.shape, dtype=complex)
    for i, j in np.argwhere(charges >= 0):
        a, a2, e = labels[i][0], labels[j][0], int(charges[i, j])
        p_t[i, j] = p_factor(model, a, a2, e, config, ProbeOutcome.TRANSMITTED)
        p_r[i, j] = p_factor(model, a, a2, e, config, ProbeOutcome.REFLECTED)
    p_t.flags.writeable = p_r.flags.writeable = False
    return p_t, p_r


def apply_probe(
    model: AnyonModel,
    rho: AnyonicDensityMatrix,
    config: InterferometerConfig,
    s: ProbeOutcome,
) -> tuple[float, AnyonicDensityMatrix]:
    """Send one probe through and condition on detector outcome s.

    Returns the outcome probability and the conditioned state. The
    probability depends on the populations only; conditioning rescales
    every entry by its outcome factor.
    """
    _require_supported(model, rho)
    p_t, p_r = _factors(model, rho.labels, config)
    factors = p_t if s is ProbeOutcome.TRANSMITTED else p_r
    probability = float(np.real(np.sum(rho.diagonal() * np.diagonal(factors))))
    if probability < _ZERO_TOLERANCE:
        raise ZeroProbability(
            f"outcome {s.value} has probability {probability:.3e}; "
            "conditioning on it is not meaningful"
        )
    post = AnyonicDensityMatrix(
        model=model, labels=rho.labels, matrix=rho.matrix * factors / probability
    )
    return probability, post


# ---------------------------------------------------------------------------
# probe streams


@dataclass(frozen=True, eq=False)
class ProbeTrajectory:
    """One seeded run of N probes conditioned on its own outcomes.

    ``probabilities[k]`` is the probability the observed outcome k had
    given the state at that moment; ``coherences[k]`` is the conditioned
    state's coherence right after probe k. ``states`` is populated only
    when state retention was requested.
    """

    seed: int
    outcomes: tuple[ProbeOutcome, ...]
    probabilities: tuple[float, ...]
    coherences: tuple[float, ...]
    final_state: AnyonicDensityMatrix
    states: tuple[AnyonicDensityMatrix, ...] | None = None
    n_transmitted: int = field(init=False, default=0)
    fraction: float = field(init=False, default=0.0)

    def __post_init__(self):
        n = self.outcomes.count(ProbeOutcome.TRANSMITTED)
        object.__setattr__(self, "n_transmitted", n)
        total = len(self.outcomes)
        object.__setattr__(self, "fraction", n / total if total else 0.0)


def _conditioned_states(rho0, p_t, p_r, n_t, n_r) -> np.ndarray:
    """States rho0 * p_t**n * p_r**r / trace, entrywise, one per row of counts (n, r).

    Log space keeps long streams from underflowing. An entry whose initial
    value, or any factor applied to it, is exactly zero stays zero.
    """
    n_t, n_r = n_t[:, None, None], n_r[:, None, None]
    logs, phases = 0.0, 0.0
    for values, count in ((rho0, 1), (p_t, n_t), (p_r, n_r)):
        magnitude = np.abs(values)
        logs = logs + count * np.log(np.where(magnitude > 0.0, magnitude, 1.0))
        logs = np.where((magnitude == 0.0) & (count > 0), -np.inf, logs)
        phases = phases + count * np.angle(values)
    populations = np.diagonal(logs, axis1=1, axis2=2)
    top = np.max(populations, axis=1)
    log_trace = top + np.log(np.sum(np.exp(populations - top[:, None]), axis=1))
    return np.exp(logs - log_trace[:, None, None]) * np.exp(1j * phases)


def simulate_stream(
    model: AnyonModel,
    rho: AnyonicDensityMatrix,
    config: InterferometerConfig,
    n_probes: int,
    seed: int,
    keep_states: bool = False,
) -> ProbeTrajectory:
    """Run a seeded stream of identical probes, conditioning after each.

    Outcomes are drawn from the running conditional probabilities with a
    counter-based generator, so equal (seed, inputs) give bit-identical
    trajectories. The per-entry factors do not depend on the state, so the
    only sequential work is one Bernoulli draw per probe on the populations,
    renormalized by their sum. After k probes with n transmitted the state
    is rho0 * p_t**n * p_r**(k - n) / trace entrywise; coherences, kept
    states and the final state come from that closed form, in log space.
    """
    if n_probes < 0:
        raise ValueError("probe count must be nonnegative")
    _require_supported(model, rho)
    p_t, p_r = _factors(model, rho.labels, config)
    diag_t, diag_r = (np.real(np.diagonal(p)).tolist() for p in (p_t, p_r))
    populations = np.real(np.diagonal(rho.matrix)).tolist()
    transmitted, probabilities = [], []
    for u in rng.generator(seed).random(n_probes).tolist():
        pr_t = sum(map(operator.mul, populations, diag_t))
        pr_t = 0.0 if pr_t < 0.0 else 1.0 if pr_t > 1.0 else pr_t
        # near-certain outcomes are taken deterministically, the rest drawn
        hit = pr_t >= _ZERO_TOLERANCE and (1.0 - pr_t < _ZERO_TOLERANCE or u < pr_t)
        transmitted.append(hit)
        probabilities.append(pr_t if hit else 1.0 - pr_t)
        populations = list(map(operator.mul, populations, diag_t if hit else diag_r))
        trace = sum(populations)
        populations = [p / trace for p in populations]
    n_t = np.cumsum(np.array(transmitted, dtype=np.int64))
    n_r = np.arange(1, n_probes + 1) - n_t
    coherences, states, matrix = [], [], rho.matrix
    for rows in (slice(k, k + _STREAM_CHUNK) for k in range(0, n_probes, _STREAM_CHUNK)):
        chunk = _conditioned_states(rho.matrix, p_t, p_r, n_t[rows], n_r[rows])
        coherences.extend(_coherence(chunk).tolist())
        if keep_states:
            states.extend(AnyonicDensityMatrix(model=model, labels=rho.labels, matrix=m) for m in chunk)
        matrix = chunk[-1]
    outcomes = (ProbeOutcome.REFLECTED, ProbeOutcome.TRANSMITTED)
    return ProbeTrajectory(
        seed=int(seed),
        outcomes=tuple(map(outcomes.__getitem__, transmitted)),
        probabilities=tuple(probabilities),
        coherences=tuple(coherences),
        final_state=AnyonicDensityMatrix(model=model, labels=rho.labels, matrix=matrix),
        states=tuple(states) if keep_states else None,
    )


# ---------------------------------------------------------------------------
# probe-visible charge classes and asymptotics


@dataclass(frozen=True)
class ChargeClass:
    """Charges a given probe cannot distinguish, with their transmission."""

    probe: Charge
    members: tuple[Charge, ...]
    transmission: float


@dataclass(frozen=True)
class EquivalenceClass:
    """Partition of all charges by what the probe's monodromy resolves."""

    probe: Charge
    classes: tuple[ChargeClass, ...]


def equivalence_classes(
    model: AnyonModel, b: Charge, config: InterferometerConfig
) -> EquivalenceClass:
    """Group charges indistinguishable to probe b, with per-class transmission.

    Charges a, a' fall together exactly when their monodromies with b
    agree; the class transmission is the diagonal probe factor of any
    member under ``config``.
    """
    groups: list[list[Charge]] = []
    for a in range(model.n_charges):
        value = model.monodromy[a, b]
        for group in groups:
            if abs(model.monodromy[group[0], b] - value) <= _CLASS_TOLERANCE:
                group.append(a)
                break
        else:
            groups.append([a])
    classes = []
    for group in groups:
        p = p_factor(model, group[0], group[0], VACUUM, config, ProbeOutcome.TRANSMITTED)
        classes.append(
            ChargeClass(probe=b, members=tuple(group), transmission=float(p.real))
        )
    return EquivalenceClass(probe=b, classes=tuple(classes))


def fixed_state(
    model: AnyonModel, rho: AnyonicDensityMatrix, kappa: ChargeClass
) -> AnyonicDensityMatrix:
    """Limit state after infinitely many probes, given collapse onto a class.

    Projects onto probed charges in the class, renormalizes, then removes
    every entry whose connecting charge the probe can detect (monodromy
    with the probe differing from 1).
    """
    members = set(kappa.members)
    keep = np.array([lab[0] in members for lab in rho.labels])
    matrix = np.array(rho.matrix, dtype=complex)
    matrix[~keep, :] = 0.0
    matrix[:, ~keep] = 0.0
    weight = float(np.real(np.trace(matrix)))
    if weight < _ZERO_TOLERANCE:
        raise ZeroProbability(
            "state carries no weight on class "
            f"{{{', '.join(model.charge_name(a) for a in kappa.members)}}}"
        )
    matrix /= weight
    charges = _connecting_charges(model, rho.labels)
    populated = (matrix != 0) & ~np.eye(len(rho.labels), dtype=bool)
    _require_supported(model, rho, populated)
    blind = (charges >= 0) & (np.abs(model.monodromy[charges, kappa.probe] - 1.0) <= _CLASS_TOLERANCE)
    matrix[populated & ~blind] = 0.0
    return AnyonicDensityMatrix(model=model, labels=rho.labels, matrix=matrix)


def asymptotic_measure(
    model: AnyonModel, rho: AnyonicDensityMatrix, config: InterferometerConfig
) -> list[tuple[float, AnyonicDensityMatrix]]:
    """Long-stream collapse law: (probability, fixed state) per charge class.

    Requires generic tuning: two classes sharing a transmission value would
    be indistinguishable in outcome statistics, so that raises
    DegenerateTuning rather than returning an ill-defined table.
    """
    partition = equivalence_classes(model, config.probe, config)
    for i, first in enumerate(partition.classes):
        for second in partition.classes[i + 1:]:
            if abs(first.transmission - second.transmission) < _CLASS_TOLERANCE:
                raise DegenerateTuning(
                    "classes {"
                    + ", ".join(model.charge_name(a) for a in first.members)
                    + "} and {"
                    + ", ".join(model.charge_name(a) for a in second.members)
                    + f"}} share transmission {first.transmission!r}; "
                    "outcome statistics cannot separate them"
                )
    _require_supported(model, rho)
    table = []
    for kappa in partition.classes:
        weight = rho.charge_weight(kappa.members)
        if weight < _ZERO_TOLERANCE:
            continue
        table.append((weight, fixed_state(model, rho, kappa)))
    return table


def outcome_distribution(
    model: AnyonModel, rho: AnyonicDensityMatrix, config: InterferometerConfig, n_probes: int
) -> dict[int, float]:
    """Probability of each transmitted count over a stream of n_probes.

    A mixture of binomials, one per charge class, weighted by the state's
    population of that class.
    """
    if n_probes < 0:
        raise ValueError("probe count must be nonnegative")
    _require_supported(model, rho)
    partition = equivalence_classes(model, config.probe, config)
    distribution = {n: 0.0 for n in range(n_probes + 1)}
    for kappa in partition.classes:
        weight = rho.charge_weight(kappa.members)
        if weight < _ZERO_TOLERANCE:
            continue
        p = min(max(kappa.transmission, 0.0), 1.0)
        for n in range(n_probes + 1):
            distribution[n] += (
                weight * math.comb(n_probes, n) * p**n * (1.0 - p) ** (n_probes - n)
            )
    return distribution
