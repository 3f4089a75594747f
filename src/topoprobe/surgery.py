"""Loop calculus on the torus: omega loops, twist loops, boundary operators.

Every surgery argument this package relies on reduces to small matrix
identities in the modular data. An omega loop projects the lines threading
it onto a definite collective charge, a tau loop applies Dehn twists to
those lines, and a solid torus with a prescribed core line induces a
diagonal operator on the charge lines crossing its boundary. All of it is
evaluated in closed form from the S and T matrices; no 3-manifold data
structure exists here.

Operators are diagonal in the loop-charge basis and returned with the
boundary presentation that produced them ("longitudinal", "meridional" or
"twisted") recorded on the object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyViolation, InvalidCore, NonAbelianSlide
from .model import VACUUM, AnyonModel, Charge

_BASES = ("longitudinal", "meridional", "twisted")

_ABELIAN_TOLERANCE = 1e-9
_WITNESS_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class DiagonalLoopOperator:
    """Operator acting charge-diagonally on the lines through a loop.

    ``entries[c]`` multiplies a charge-c line.
    """

    model: AnyonModel
    basis: str
    entries: np.ndarray

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis tag {self.basis!r}")
        if len(self.entries) != self.model.n_charges:
            raise ValueError("operator needs one entry per charge")
        self.entries.flags.writeable = False

    def matrix(self) -> np.ndarray:
        return np.diag(self.entries)


@dataclass(frozen=True, eq=False)
class TorusVector:
    """State of a solid torus, expanded over charge lines along its core."""

    model: AnyonModel
    basis: str
    coefficients: np.ndarray

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis tag {self.basis!r}")
        if len(self.coefficients) != self.model.n_charges:
            raise ValueError("vector needs one coefficient per charge")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("vector coefficients must be finite")
        self.coefficients.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ModularMatrices:
    """The S and T matrices together with B = S T^2 S^{-1}."""

    s: np.ndarray
    t: np.ndarray
    b: np.ndarray


def omega_vector(model: AnyonModel, a: Charge) -> np.ndarray:
    """Expansion of the charge-a projector loop over bare charge loops.

    The returned coefficients w satisfy: inserting sum_x w[x] (x-loop)
    around a bundle of lines projects the bundle onto collective charge a.
    """
    s = model.s_matrix
    return np.asarray(s[VACUUM, a] * s[a].conj())


def loop_around_line(model: AnyonModel, loop, line: Charge) -> complex:
    """Value of a loop encircling a single charge line, relative to the bare line.

    ``loop`` is either a charge (a bare x-loop, worth S_{cx}/S_{0c} around a
    c-line) or a coefficient vector over charge loops such as
    :func:`omega_vector` output (evaluated linearly; an omega_a loop gives
    delta_{a,c}).
    """
    s = model.s_matrix
    per_charge = s[line] / s[VACUUM, line]
    if np.isscalar(loop) or isinstance(loop, (int, np.integer)):
        return complex(per_charge[int(loop)])
    coefficients = np.asarray(loop, dtype=complex)
    if coefficients.shape != (model.n_charges,):
        raise ValueError("loop must be a charge or one coefficient per charge")
    return complex(coefficients @ per_charge)


def slide_omega(model: AnyonModel, a: Charge, b: Charge) -> Charge:
    """Slide an omega_a loop across an abelian b-line, returning the new label.

    Only a line of quantum dimension 1 can be absorbed this way; the result
    is the unique fusion product a x b. The move is certified by checking
    S_{a x b, x} = M_{b,x} S_{a,x} for every x before returning.
    """
    if model.dims[b] > 1.0 + _ABELIAN_TOLERANCE:
        raise NonAbelianSlide(
            f"cannot slide across a {model.charge_name(b)} line "
            f"(quantum dimension {model.dims[b]!r} exceeds 1)"
        )
    outcomes = model.fusion_outcomes(a, b)
    if len(outcomes) != 1:
        raise ConsistencyViolation(
            f"{model.charge_name(a)} x {model.charge_name(b)} is not a single charge "
            "despite the line being abelian"
        )
    fused = outcomes[0]
    s = model.s_matrix
    witness = float(np.max(np.abs(s[fused] - model.monodromy[b] * s[a])))
    if witness > _WITNESS_TOLERANCE:
        raise ConsistencyViolation(
            f"slide witness fails for a={model.charge_name(a)}, "
            f"b={model.charge_name(b)}: max residual {witness:.3e}"
        )
    return fused


def tau_operator(model: AnyonModel, m: int) -> DiagonalLoopOperator:
    """Loop applying m Dehn twists to the lines through it: entries theta_c^m."""
    entries = model.twists ** int(m)
    return DiagonalLoopOperator(model=model, basis="twisted", entries=entries)


def modular_matrices(model: AnyonModel) -> ModularMatrices:
    """S, T, and the combination B = S T^2 S^{-1} for the model."""
    return ModularMatrices(s=model.s_matrix, t=np.diag(model.twists), b=model.b_matrix)


def solid_torus_operator(
    model: AnyonModel, boundary: str, core: Charge
) -> tuple[TorusVector, DiagonalLoopOperator]:
    """State and induced diagonal operator of a solid torus with a core line.

    ``boundary`` selects the presentation: "longitudinal" is the plain
    gluing torus (core must be the vacuum; the operator is the identity),
    "meridional" carries a charge-``core`` loop linking every line through
    the torus, and "twisted" is the meridional torus after the double-twist
    regluing B = S T^2 S^{-1}.
    """
    if boundary not in _BASES:
        raise ValueError(f"unknown boundary presentation {boundary!r}")
    n = model.n_charges
    if boundary == "longitudinal":
        if core != VACUUM:
            raise InvalidCore(
                "a longitudinal solid torus carries no core line; got "
                f"{model.charge_name(core)}"
            )
        vector = (model.dims / model.total_dim).astype(complex)
    elif boundary == "twisted":
        vector = model.b_matrix[:, core]  # B applied to the charge-core line, read off as a column
    else:
        vector = np.zeros(n, dtype=complex)
        vector[core] = 1.0
    torus = TorusVector(model=model, basis=boundary, coefficients=vector)
    # Gluing normalization: a bare charge-c line contributes S_{0c}, so the
    # induced per-line factor is the coefficient divided by that weight.
    operator = DiagonalLoopOperator(model=model, basis=boundary, entries=vector / model.s_matrix[VACUUM])
    return torus, operator


def twisted_operator(model: AnyonModel, core: Charge) -> DiagonalLoopOperator:
    """Diagonal operator of a twisted torus holding a charge-``core`` Wilson line.

    The operator of ``solid_torus_operator(model, "twisted", core)``: the
    column of the model's B = S T^2 S^{-1} at ``core``, normalized per line.
    """
    return solid_torus_operator(model, "twisted", core)[1]
