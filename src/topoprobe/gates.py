"""Twisted interferometry on the Ising topological qubit.

The qubit lives in the fusion channel of grouped sigma anyons: basis state
0 is the vacuum channel, basis state 1 the fermion channel. Running the
interferometer probe through a doubly twisted path measures the qubit in a
rotated basis; the two outcomes produce the phase-gate magic states, and a
short adaptive protocol turns one run into a diagonal pi/8-phase gate up to
Clifford corrections. Everything here is specific to the Ising theory and
is derived from the loop operators in :mod:`.surgery`.

Measurement outcomes are charge names: "I" (vacuum) or "psi" (fermion). A
sigma outcome cannot occur; the twisted loop operator has no weight there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .errors import ZeroProbability
from .interferometer import _ZERO_TOLERANCE, AnyonicDensityMatrix, _condition, _draw, density_matrix
from .model import ising
from .surgery import twisted_operator

OUTCOMES = ("I", "psi")  # charge names, vacuum first

_QUBIT_LABELS = ((0, 0, 0), (2, 2, 0))
_QUBIT_NAMES = (("I", "I", "I"), ("psi", "psi", "I"))


def _outcome_bit(outcome: str) -> int:
    try:
        return OUTCOMES.index(outcome)
    except ValueError:
        raise ValueError(
            f"outcome must be one of {OUTCOMES}, got {outcome!r}; "
            "a sigma outcome is impossible here"
        ) from None


@dataclass(frozen=True)
class QubitState:
    """Pure qubit state over the (vacuum, fermion) fusion-channel basis."""

    amplitudes: tuple[complex, complex]

    def __post_init__(self):
        pair = tuple(complex(x) for x in self.amplitudes)
        norm = math.sqrt(abs(pair[0]) ** 2 + abs(pair[1]) ** 2)
        if norm < _ZERO_TOLERANCE:
            raise ValueError("qubit state cannot be the zero vector")
        object.__setattr__(self, "amplitudes", (pair[0] / norm, pair[1] / norm))

    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def density(self) -> AnyonicDensityMatrix:
        v = self.vector()
        return QubitDensity(np.outer(v, v.conj()))


def QubitDensity(matrix) -> AnyonicDensityMatrix:
    """Validated qubit state, an interferometer state on the labels (I, I; I) and (psi, psi; I)."""
    return density_matrix(ising(), _QUBIT_LABELS, matrix)


# ---------------------------------------------------------------------------
# twisted measurement


@lru_cache(maxsize=64)
def _kraus(model, labels) -> np.ndarray:
    """Per outcome, the read-only entrywise factors k k^dagger on the labels (I, I; I), (psi, psi; I).

    k is half the outcome's twisted loop operator; the diagonal is exactly |k|^2, the draw weights.
    """
    if tuple(tuple(map(model.charge_name, label)) for label in labels) != _QUBIT_NAMES:
        raise ValueError("the twisted measurement acts on the I/psi qubit, labels (I, I; I) and (psi, psi; I)")
    charges = [a for a, _, _ in labels]  # the I and psi lines, in outcome order
    kraus = 0.5 * np.array([twisted_operator(model, core).entries[charges] for core in charges])
    factors = kraus[:, :, None] * kraus.conj()[:, None, :]
    factors[:, [0, 1], [0, 1]] = np.abs(kraus) ** 2
    factors.flags.writeable = False
    return factors


def twisted_measure(rho: AnyonicDensityMatrix, outcome: str) -> tuple[float, AnyonicDensityMatrix]:
    """Measure through the doubly twisted interferometer, given the outcome.

    Returns the outcome probability and the conditioned qubit state. The
    Kraus operator K is half the twisted loop operator of the state's own
    model on the qubit charges, and diagonal: the update is the probe's rule.
    """
    return _condition(rho, _kraus(rho.model, rho.labels)[_outcome_bit(outcome)], outcome)


def sample_twisted(rho: AnyonicDensityMatrix, seed: int) -> tuple[str, AnyonicDensityMatrix]:
    """One twisted outcome, drawn as a one-probe stream with vacuum as transmitted, and its conditioned state."""
    factors = _kraus(rho.model, rho.labels)
    weights = np.real(np.diagonal(factors, axis1=1, axis2=2)).tolist()  # diagonals of K^dagger K
    (vacuum,), _ = _draw(np.real(np.diagonal(rho.matrix)).tolist(), *weights, [rng.generator(seed).random()])
    bit = 0 if vacuum else 1
    return OUTCOMES[bit], _condition(rho, factors[bit], OUTCOMES[bit])[1]


# ---------------------------------------------------------------------------
# magic states and the phase-gate protocol


def magic_state(outcome: str) -> QubitState:
    """Phase-gate magic state produced by the given twisted outcome."""
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    if _outcome_bit(outcome) == 0:
        return QubitState((c, -1j * s))
    return QubitState((s, 1j * c))


def synthesize_magic_state(outcome: str) -> np.ndarray:
    """Magic state the long way: twisted loop operator applied to H|0>.

    Returns the normalized vector with whatever global phase the synthesis
    produces; compare with :func:`magic_state` through
    :func:`align_global_phase` or a fidelity.
    """
    hadamard = clifford_library()["H"]
    charges = [a for a, _, _ in _QUBIT_LABELS]
    k = 0.5 * twisted_operator(ising(), charges[_outcome_bit(outcome)]).entries[charges]
    vector = (k[:, None] * hadamard) @ np.array([1.0, 0.0], dtype=complex)
    norm = float(np.linalg.norm(vector))
    if norm < _ZERO_TOLERANCE:
        raise ZeroProbability(f"twisted outcome {outcome} annihilates H|0>")
    return vector / norm


def state_fidelity(u, v) -> float:
    """|<u|v>|^2 for unit vectors; insensitive to global phases."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(abs(np.vdot(u, v)) ** 2)


def align_global_phase(values, tolerance: float = _ZERO_TOLERANCE) -> np.ndarray:
    """Rotate a vector so its first nonzero entry is positive real.

    Canonical representative for comparisons that should ignore a global
    phase; the all-zero vector is returned unchanged.
    """
    values = np.array(values, dtype=complex)
    flat = values.reshape(-1)
    for entry in flat:
        if abs(entry) > tolerance:
            return values * (entry.conjugate() / abs(entry))
    return values


def clifford_library() -> dict:
    """The fixed single-qubit operators the protocol composes with.

    "H" is the Hadamard, "R" maps an angle to the diagonal phase gate
    diag(1, e^{i angle}), "sigma_x" the bit flip, "Pi_0"/"Pi_1" the basis
    projectors.
    """
    return {
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
        "R": lambda angle: np.diag([1.0, np.exp(1j * angle)]).astype(complex),
        "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
        "Pi_0": np.diag([1.0, 0.0]).astype(complex),
        "Pi_1": np.diag([0.0, 1.0]).astype(complex),
    }


def protocol_unitary(a: str, alpha: str) -> np.ndarray:
    """Diagonal gate the protocol applies for outcome pair (a, alpha).

    Depends only on the fusion outcome alpha: vacuum gives
    diag(1, e^{-i pi/4}), fermion gives diag(1, e^{-3 i pi/4}). Combined
    with its own inverse-free Clifford corrections this is the pi/8-phase
    gate up to phases obtainable by braiding.
    """
    _outcome_bit(a)
    angle = -math.pi / 4 if _outcome_bit(alpha) == 0 else -3 * math.pi / 4
    return np.diag([1.0, np.exp(1j * angle)]).astype(complex)


def protocol_check(a: str, alpha: str) -> tuple[complex, complex]:
    """First-principles diagonal of the protocol gate for outcomes (a, alpha).

    Sums the two fusion-tree branches with their measurement coefficients,
    braiding phases, and linking signs; the linking sign of the outcome-a
    loop around the qubit charge line q contributes (-1)^{aq}. The result
    should match :func:`protocol_unitary` up to one global phase.
    """
    model = ising()
    a_bit = _outcome_bit(a)
    alpha_bit = _outcome_bit(alpha)
    sigma = model.charge_index("sigma")
    braid_alpha = model.r(model.charge_index(alpha), sigma, sigma)
    twist_sigma = complex(model.twists[sigma])
    cos8, sin8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
    diagonal = []
    for q in (0, 1):
        braid_q = model.r(sigma, sigma, model.charge_index(OUTCOMES[q]))
        total = 0j
        for z in (0, 1):
            coefficient = cos8 if z == a_bit else 1j * sin8
            sign = -1.0 if (z * q + z * alpha_bit + z + a_bit * q) % 2 else 1.0
            total += coefficient * sign * twist_sigma * braid_alpha / braid_q
        diagonal.append(total)
    return diagonal[0], diagonal[1]


def protocol_residual(a: str, alpha: str) -> float:
    """Phase-insensitive gap between protocol_check and protocol_unitary."""
    expected = align_global_phase(np.diagonal(protocol_unitary(a, alpha)))
    computed = align_global_phase(np.array(protocol_check(a, alpha)))
    return float(np.max(np.abs(computed - expected)))
