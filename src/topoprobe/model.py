"""Anyon theory data and axiom verification.

An anyon theory is described by its fusion rules, the recoupling (F) and
braiding (R) coefficients, and the topological twists. This module builds
immutable :class:`AnyonModel` instances from such descriptions, derives
quantum dimensions and the modular matrices, and checks the defining axioms
by explicit enumeration of every equation instance: pentagon, hexagon,
unitarity of S and of every F(a, b, c; d) block, and the structural rules.
The enumeration, the completion of F included, walks one table of fusion
outcomes built with the model, so it visits only index tuples the fusion
rules admit; a failing instance's label is formatted only when it fails. The
Ising theory is built in; other small theories load from JSON files and are
certified by the same checker.

Conventions. Charges are integers indexing ``model.charges``; index 0 is the
vacuum. ``F(a, b, c; d)[e, f]`` reassociates the fusion tree
``(a b) c -> d`` with intermediate ``a b -> e`` into ``a (b c) -> d`` with
intermediate ``b c -> f``. ``R(a, b; c)`` is the phase for exchanging ``a``
past ``b`` in channel ``c``. Unlisted F/R entries are 1 where the fusion
rules allow them and absent otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    ConsistencyViolation,
    MissingVacuum,
    NonMultiplicityFree,
    ParseError,
)

Charge = int

VACUUM: Charge = 0
DEFAULT_TOLERANCE = 1e-9

_MAX_RECORDED_FAILURES = 25


@dataclass(frozen=True, eq=False)
class AnyonModel:
    """Complete data of a multiplicity-free anyon theory.

    Instances are immutable after construction and safe to share between
    threads; every operation in this package treats them as read-only.

    Attributes
    ----------
    charges : tuple of str
        Charge names in basis order; index 0 is the vacuum.
    dual : tuple of int
        Conjugate charge of each charge.
    fusion : ndarray, shape (n, n, n), values in {0, 1}
        ``fusion[a, b, c]`` is the multiplicity of ``c`` in ``a x b``.
    outcomes : tuple of tuples of tuple of int
        ``outcomes[a][b]`` lists the charges in ``a x b`` in basis order; the
        same table as ``fusion``, in the form the lookups and loops read.
    f_symbols : mapping (a, b, c, d, e, f) -> complex
        Recoupling coefficients over all fusion-allowed index tuples.
    r_symbols : mapping (a, b, c) -> complex
        Braiding phases over all fusion-allowed channels.
    twists : ndarray of complex
        Topological spins theta_a, unit modulus, theta_0 = 1.
    dims : ndarray of float
        Quantum dimensions d_a >= 1.
    total_dim : float
        D with D^2 = sum_a d_a^2.
    s_matrix, t_matrix, monodromy : ndarray of complex
        Modular S, diagonal T with entries theta_a, and the monodromy
        matrix M_ab = S_ab S_00 / (S_0a S_0b).
    """

    charges: tuple[str, ...]
    dual: tuple[Charge, ...]
    fusion: np.ndarray
    outcomes: tuple[tuple[tuple[Charge, ...], ...], ...]
    f_symbols: Mapping[tuple[Charge, Charge, Charge, Charge, Charge, Charge], complex]
    r_symbols: Mapping[tuple[Charge, Charge, Charge], complex]
    twists: np.ndarray
    dims: np.ndarray
    total_dim: float
    s_matrix: np.ndarray
    t_matrix: np.ndarray
    monodromy: np.ndarray

    def __post_init__(self):
        for name in ("fusion", "twists", "dims", "s_matrix", "t_matrix", "monodromy"):
            getattr(self, name).flags.writeable = False

    @property
    def n_charges(self) -> int:
        return len(self.charges)

    def charge_index(self, name: str) -> Charge:
        try:
            return self.charges.index(name)
        except ValueError:
            raise ValueError(f"model has no charge named {name!r}") from None

    def charge_name(self, charge: Charge) -> str:
        return self.charges[charge]

    def allows(self, a: Charge, b: Charge, c: Charge) -> bool:
        """Whether c appears in the fusion product a x b."""
        return c in self.outcomes[a][b]

    def fusion_outcomes(self, a: Charge, b: Charge) -> tuple[Charge, ...]:
        """Charges appearing in a x b, in basis order."""
        return self.outcomes[a][b]

    def f(self, a, b, c, d, e, f) -> complex:
        """F(a, b, c; d)[e, f], or 0 when the fusion rules forbid the tuple."""
        return self.f_symbols.get((a, b, c, d, e, f), 0j)

    def r(self, a, b, c) -> complex:
        """R(a, b; c), or 0 when c is not in a x b."""
        return self.r_symbols.get((a, b, c), 0j)


# ---------------------------------------------------------------------------
# consistency checking


@dataclass(frozen=True)
class FamilyResult:
    """Outcome of one axiom family: worst residual and failing instances."""

    max_residual: float
    checked: int
    failures: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-family residuals from :func:`verify_consistency`."""

    tolerance: float
    families: Mapping[str, FamilyResult]

    @property
    def passed(self) -> bool:
        return all(f.max_residual < self.tolerance for f in self.families.values())

    def worst(self) -> tuple[str, float]:
        """Family name and residual of the largest deviation found."""
        def severity(name):
            residual = self.families[name].max_residual
            return math.isnan(residual), residual

        name = max(self.families, key=severity)
        return name, self.families[name].max_residual

    def summary(self) -> str:
        lines = []
        for name, fam in self.families.items():
            status = "ok" if fam.max_residual < self.tolerance else "FAIL"
            lines.append(
                f"{name:>12}: max residual {fam.max_residual:.3e} "
                f"over {fam.checked} instances [{status}]"
            )
            for label, residual in fam.failures[:3]:
                lines.append(f"{'':>14}{label}: {residual:.3e}")
        return "\n".join(lines)


class _FamilyAccumulator:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.max_residual = 0.0
        self.checked = 0
        self.failures = []

    def count(self, residual):
        """Count one instance; True when it fails and there is room to record it.

        A NaN residual fails and stays the family's worst. The hot loops call
        this and format their label only on True.
        """
        self.checked += 1
        if not (math.isnan(self.max_residual) or residual <= self.max_residual):
            self.max_residual = residual
        return not (residual < self.tolerance) and len(self.failures) < _MAX_RECORDED_FAILURES

    def add(self, label, residual):
        """Record one instance whose label is already at hand."""
        if self.count(residual):
            self.failures.append((label, residual))

    def result(self):
        return FamilyResult(self.max_residual, self.checked, tuple(self.failures))


def _f_blocks(outcomes):
    """Admissible F tuples grouped into blocks, in lexicographic order.

    Yields ``((a, b, c, d), es, fs)`` for every d reachable from (a b) c or
    a (b c): ``es`` are the e in a x b with d in e x c, ``fs`` the f in b x c
    with d in a x f. Admissibility factorizes over e and f, so the admissible
    tuples of F(a, b, c; d) are exactly ``es x fs``; only the fusion table is
    read, never the n^6 tuple space.
    """
    every = range(len(outcomes))
    for a in every:
        row_a = outcomes[a]
        for b in every:
            ab, row_b = row_a[b], outcomes[b]
            for c in every:
                es_by_d, fs_by_d = {}, {}
                for e in ab:
                    for d in outcomes[e][c]:
                        es_by_d.setdefault(d, []).append(e)
                for f in row_b[c]:
                    for d in row_a[f]:
                        fs_by_d.setdefault(d, []).append(f)
                for d in sorted(es_by_d.keys() | fs_by_d.keys()):
                    yield (a, b, c, d), es_by_d.get(d, []), fs_by_d.get(d, [])


def _check_pentagon(model: AnyonModel, tolerance: float) -> FamilyResult:
    acc = _FamilyAccumulator(tolerance)
    count, failures = acc.count, acc.failures
    nm = model.charges
    out = model.outcomes
    f_get = model.f_symbols.get
    every = range(model.n_charges)
    for a in every:
        for b in every:
            ab, bc_row = out[a][b], out[b]
            for c in every:
                bc = bc_row[c]
                for d in every:
                    cd = out[c][d]
                    for f in ab:
                        for g in out[f][c]:
                            for j in cd:
                                for k in out[b][j]:
                                    ak = out[a][k]
                                    for e in out[g][d]:
                                        if e not in ak:
                                            continue
                                        # F keys on the left need not be admissible: .get gives 0
                                        lhs = (
                                            f_get((f, c, d, e, g, j), 0j)
                                            * f_get((a, b, j, e, f, k), 0j)
                                        )
                                        rhs = 0
                                        for h in bc:
                                            rhs += (
                                                f_get((a, b, c, g, f, h), 0j)
                                                * f_get((a, h, d, e, g, k), 0j)
                                                * f_get((b, c, d, k, h, j), 0j)
                                            )
                                        residual = abs(lhs - rhs)
                                        if count(residual):
                                            failures.append((
                                                f"pentagon a={nm[a]} b={nm[b]} c={nm[c]} d={nm[d]} "
                                                f"e={nm[e]} f={nm[f]} g={nm[g]} j={nm[j]} k={nm[k]}",
                                                residual,
                                            ))
    return acc.result()


def _check_hexagon(model: AnyonModel, tolerance: float) -> FamilyResult:
    acc = _FamilyAccumulator(tolerance)
    count, failures = acc.count, acc.failures
    nm = model.charges
    out = model.outcomes
    f_get = model.f_symbols.get
    every = range(model.n_charges)
    inverse = {key: value.conjugate() for key, value in model.r_symbols.items()}
    for tag, braid in (("R", model.r_symbols.get), ("R-inverse", inverse.get)):
        for a in every:
            for b in every:
                ab = out[a][b]
                for c in every:
                    ca, cb = out[c][a], out[c][b]
                    for e in ca:
                        for g in cb:
                            ag = out[a][g]
                            for d in out[e][b]:
                                if d not in ag:
                                    continue
                                lhs = (
                                    braid((c, a, e), 0j)
                                    * f_get((a, c, b, d, e, g), 0j)
                                    * braid((c, b, g), 0j)
                                )
                                rhs = 0
                                for f in ab:
                                    rhs += (
                                        f_get((c, a, b, d, e, f), 0j)
                                        * braid((c, f, d), 0j)
                                        * f_get((a, b, c, d, f, g), 0j)
                                    )
                                residual = abs(lhs - rhs)
                                if count(residual):
                                    failures.append((
                                        f"hexagon({tag}) a={nm[a]} b={nm[b]} c={nm[c]} "
                                        f"d={nm[d]} e={nm[e]} g={nm[g]}",
                                        residual,
                                    ))
    # The twists are tied to the braiding: theta_a d_a = sum_c N^c_{aa} d_c R(a,a;c).
    for a in every:
        total = sum(model.dims[c] * model.r(a, a, c) for c in out[a][a])
        residual = abs(total / model.dims[a] - model.twists[a])
        acc.add(f"twist-from-braiding {nm[a]}", residual)
    for (a, b, c), value in model.r_symbols.items():
        acc.add(f"unit-modulus R({nm[a]},{nm[b]};{nm[c]})", abs(abs(value) - 1.0))
    return acc.result()


def _check_f_unitarity(model: AnyonModel, tolerance: float) -> FamilyResult:
    """Every F(a, b, c; d) block is square and unitary: max |F F^dagger - I|."""
    acc = _FamilyAccumulator(tolerance)
    nm = model.charges
    f_get = model.f_symbols.get
    for (a, b, c, d), es, fs in _f_blocks(model.outcomes):
        if len(es) != len(fs):
            acc.add(f"F({nm[a]},{nm[b]},{nm[c]};{nm[d]}) is {len(es)}x{len(fs)}, not square", 1.0)
            continue
        rows = [[f_get((a, b, c, d, e, f), 0j) for f in fs] for e in es]
        residual = 0.0
        for i, row_i in enumerate(rows):
            for j, row_j in enumerate(rows):
                gram = sum(x * y.conjugate() for x, y in zip(row_i, row_j))
                gap = abs(gram - float(i == j))
                if math.isnan(gap) or gap > residual:
                    residual = gap
        if acc.count(residual):
            acc.failures.append((f"F({nm[a]},{nm[b]},{nm[c]};{nm[d]}) unitary", residual))
    return acc.result()


def _ribbon_s(outcomes, dual, dims, twists, total_dim):
    n = len(dims)
    s = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            acc = sum(dims[c] * twists[c] for c in outcomes[dual[a]][b])
            s[a, b] = acc / (twists[a] * twists[b] * total_dim)
    return s


def _check_s_unitarity(model: AnyonModel, tolerance: float) -> FamilyResult:
    acc = _FamilyAccumulator(tolerance)
    s = model.s_matrix
    n = model.n_charges
    acc.add("S unitary", float(np.max(np.abs(s @ s.conj().T - np.eye(n)))))
    acc.add("S symmetric", float(np.max(np.abs(s - s.T))))
    acc.add("first row d_a / D", float(np.max(np.abs(s[0] - model.dims / model.total_dim))))
    ribbon = _ribbon_s(model.outcomes, model.dual, model.dims, model.twists, model.total_dim)
    acc.add("ribbon recomputation", float(np.max(np.abs(s - ribbon))))
    return acc.result()


def _check_monodromy(model: AnyonModel, tolerance: float) -> FamilyResult:
    acc = _FamilyAccumulator(tolerance)
    s = model.s_matrix
    recomputed = s * s[0, 0] / np.outer(s[0], s[0])
    acc.add("M from S", float(np.max(np.abs(model.monodromy - recomputed))))
    acc.add("M symmetric", float(np.max(np.abs(model.monodromy - model.monodromy.T))))
    return acc.result()


def _check_twist_vacuum(model: AnyonModel, tolerance: float) -> FamilyResult:
    acc = _FamilyAccumulator(tolerance)
    nm = model.charges
    n = model.n_charges
    fusion = model.fusion
    eye = np.eye(n)
    acc.add("vacuum twist", abs(model.twists[VACUUM] - 1.0))
    for a in range(n):
        acc.add(f"unit-modulus twist {nm[a]}", abs(abs(model.twists[a]) - 1.0))
    acc.add("vacuum fuses left", float(np.max(np.abs(fusion[VACUUM] - eye))))
    acc.add("vacuum fuses right", float(np.max(np.abs(fusion[:, VACUUM] - eye))))
    for a in range(n):
        acc.add(
            f"conjugate of {nm[a]} unique",
            float(abs(np.sum(fusion[a, :, VACUUM]) - 1)),
        )
        acc.add(
            f"conjugate involution {nm[a]}",
            0.0 if model.dual[model.dual[a]] == a else 1.0,
        )
    acc.add("fusion commutes", float(np.max(np.abs(fusion - fusion.transpose(1, 0, 2)))))
    nf = fusion.astype(float)
    associator = np.einsum("abe,ecd->abcd", nf, nf) - np.einsum("bcf,afd->abcd", nf, nf)
    acc.add("fusion associative", float(np.max(np.abs(associator))))
    product_dims = np.einsum("abc,c->ab", nf, model.dims)
    acc.add("dimensions multiplicative", float(np.max(np.abs(np.outer(model.dims, model.dims) - product_dims))))
    acc.add(
        "dimensions from S",
        float(np.max(np.abs(model.dims - (model.s_matrix[0] / model.s_matrix[0, 0]).real))),
    )
    return acc.result()


def verify_consistency(model: AnyonModel, tolerance: float = DEFAULT_TOLERANCE) -> ConsistencyReport:
    """Check every axiom instance of a model and report residuals by family.

    Families: pentagon (recoupling), hexagon (braiding, including the
    twist-from-braiding relation), s_unitarity, monodromy, the twist/vacuum
    structural constraints, and f_unitarity (every F(a, b, c; d) block square
    and unitary). The model passes when every family's worst residual is below
    ``tolerance``.
    """
    families = {
        "pentagon": _check_pentagon(model, tolerance),
        "hexagon": _check_hexagon(model, tolerance),
        "s_unitarity": _check_s_unitarity(model, tolerance),
        "monodromy": _check_monodromy(model, tolerance),
        "twist_vacuum": _check_twist_vacuum(model, tolerance),
        "f_unitarity": _check_f_unitarity(model, tolerance),
    }
    return ConsistencyReport(tolerance=tolerance, families=MappingProxyType(families))


# ---------------------------------------------------------------------------
# model construction


def _as_complex(re, im, where):
    try:
        re, im = float(re), float(im)
    except OverflowError:
        re = im = math.inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"{where} entry ({re!r}, {im!r}) is not finite")
    return complex(re, im)


def build_model(description: Mapping) -> AnyonModel:
    """Build and certify a model from a name-keyed description.

    The description uses the same schema as the JSON model files: ``charges``
    (names, vacuum first), ``fusion`` (triples ``[a, b, c]`` with multiplicity
    one), ``F`` (``[a, b, c, d, e, f, re, im]``), ``R`` (``[a, b, c, re, im]``)
    and ``twists`` (``[a, re, im]``); optional ``dims`` (``[a, value]``) and
    ``S`` (matrix of ``[re, im]`` pairs) entries are cross-checked against the
    derived values instead of replacing them.

    Raises MissingVacuum or NonMultiplicityFree for structural defects and
    ConsistencyViolation (with the failing instances) when the supplied data
    does not satisfy the axioms.
    """
    charges = tuple(str(name) for name in description.get("charges", ()))
    if not charges:
        raise MissingVacuum("model description lists no charges; index 0 must be the vacuum")
    if len(set(charges)) != len(charges):
        raise ValueError("duplicate charge names in model description")
    n = len(charges)
    index = {name: i for i, name in enumerate(charges)}

    def look(name, where):
        try:
            return index[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown charge {name!r} in {where}") from None

    def read(key, noun, shape):
        """Entries of one [*charges, re, im] table by charge-index tuple; shape names the row."""
        arity, table = shape.count(",") - 1, {}
        for entry in description.get(key, ()):
            if len(entry) != arity + 2:
                raise ValueError(f"{noun} entry {entry!r} is not {shape}")
            labels = tuple(look(name, f"{noun} table") for name in entry[:arity])
            table[labels] = _as_complex(*entry[arity:], f"{noun} table")
        return table

    def complete(provided, keys, noun):
        """Symbols over every fusion-allowed key, 1 where not provided; no provided key may be left."""
        symbols = {key: provided.pop(key, 1.0 + 0j) for key in keys}
        if provided:
            names = ", ".join(charges[i] for i in next(iter(provided)))
            raise ValueError(f"{noun} entry ({names}) is not allowed by the fusion rules")
        return symbols

    fusion = np.zeros((n, n, n), dtype=np.uint8)
    seen = set()
    for row in description.get("fusion", ()):
        if len(row) != 3:
            raise ValueError(f"fusion entry {row!r} is not a charge triple")
        triple = tuple(look(name, "fusion table") for name in row)
        if triple in seen:
            raise NonMultiplicityFree(
                "fusion multiplicity above 1 for "
                f"{row[0]} x {row[1]} -> {row[2]} (triple listed twice)"
            )
        seen.add(triple)
        fusion[triple] = 1

    eye = np.eye(n, dtype=np.uint8)
    if not (np.array_equal(fusion[VACUUM], eye) and np.array_equal(fusion[:, VACUUM], eye)):
        raise MissingVacuum(
            f"charge 0 ({charges[0]!r}) does not fuse as the vacuum: "
            "0 x a = a and a x 0 = a must hold for every a"
        )

    outcomes = tuple(
        tuple(tuple(int(c) for c in np.flatnonzero(fusion[a, b])) for b in range(n))
        for a in range(n)
    )

    dual = []
    for a in range(n):
        partners = np.nonzero(fusion[a, :, VACUUM])[0]
        if len(partners) != 1:
            raise ConsistencyViolation(
                f"charge {charges[a]} must have exactly one conjugate; "
                f"found {[charges[int(b)] for b in partners]}"
            )
        dual.append(int(partners[0]))
    dual = tuple(dual)

    dims = np.empty(n, dtype=float)
    for a in range(n):
        dims[a] = float(np.max(np.abs(np.linalg.eigvals(fusion[a].astype(float)))))
    for entry in description.get("dims", ()):
        if len(entry) != 2:
            raise ValueError(f"dims entry {entry!r} is not [charge, value]")
        a = look(entry[0], "dims table")
        if not (abs(dims[a] - float(entry[1])) <= DEFAULT_TOLERANCE):
            raise ConsistencyViolation(
                f"declared dimension of {charges[a]} ({entry[1]}) disagrees with the "
                f"fusion-derived value {dims[a]!r}"
            )
    total_dim = float(math.sqrt(np.sum(dims**2)))

    twists = np.ones(n, dtype=complex)
    for (a,), value in read("twists", "twist", "[charge, re, im]").items():
        twists[a] = value
    provided_f = read("F", "F", "[a, b, c, d, e, f, re, im]")
    provided_r = read("R", "R", "[a, b, c, re, im]")
    f_keys = ((*abcd, e, f) for abcd, es, fs in _f_blocks(outcomes) for e in es for f in fs)
    f_symbols = complete(provided_f, f_keys, "F")
    r_keys = ((a, b, c) for a in range(n) for b in range(n) for c in outcomes[a][b])
    r_symbols = complete(provided_r, r_keys, "R")

    s_matrix = _ribbon_s(outcomes, dual, dims, twists, total_dim)
    if "S" in description:
        supplied = np.array(
            [[_as_complex(*pair, "S matrix") for pair in row] for row in description["S"]],
            dtype=complex,
        )
        gap = float(np.max(np.abs(supplied - s_matrix)))
        if not (gap <= DEFAULT_TOLERANCE):
            raise ConsistencyViolation(
                f"supplied S matrix disagrees with the twist-derived one (max gap {gap:.3e})"
            )

    model = AnyonModel(
        charges=charges,
        dual=dual,
        fusion=fusion,
        outcomes=outcomes,
        f_symbols=MappingProxyType(f_symbols),
        r_symbols=MappingProxyType(r_symbols),
        twists=twists,
        dims=dims,
        total_dim=total_dim,
        s_matrix=s_matrix,
        t_matrix=np.diag(twists),
        monodromy=s_matrix * s_matrix[0, 0] / np.outer(s_matrix[0], s_matrix[0]),
    )
    report = verify_consistency(model)
    if not report.passed:
        family, residual = report.worst()
        offender = ""
        failures = report.families[family].failures
        if failures:
            offender = f"; first failing instance: {failures[0][0]}"
        raise ConsistencyViolation(
            f"model fails the {family} family (max residual {residual:.3e}){offender}",
            report=report,
        )
    return model


def load_model(path) -> AnyonModel:
    """Read a JSON model file and build the certified model it describes."""
    text = Path(path).read_text()
    try:
        description = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno} column {err.colno}: {err.msg}") from None
    if not isinstance(description, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    try:
        return build_model(description)
    except (ValueError, TypeError) as err:
        raise ParseError(f"{path}: {err}") from None


def monodromy(model: AnyonModel, a: Charge, b: Charge) -> complex:
    """Full counterclockwise encircling phase of charge a around charge b."""
    return complex(model.monodromy[a, b])


def _ising_description():
    h = math.pi / 8
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "charges": ["I", "sigma", "psi"],
        "fusion": [
            ["I", "I", "I"], ["I", "sigma", "sigma"], ["I", "psi", "psi"],
            ["sigma", "I", "sigma"], ["psi", "I", "psi"],
            ["sigma", "sigma", "I"], ["sigma", "sigma", "psi"],
            ["sigma", "psi", "sigma"], ["psi", "sigma", "sigma"],
            ["psi", "psi", "I"],
        ],
        "F": [
            ["sigma", "sigma", "sigma", "sigma", "I", "I", inv_sqrt2, 0.0],
            ["sigma", "sigma", "sigma", "sigma", "I", "psi", inv_sqrt2, 0.0],
            ["sigma", "sigma", "sigma", "sigma", "psi", "I", inv_sqrt2, 0.0],
            ["sigma", "sigma", "sigma", "sigma", "psi", "psi", -inv_sqrt2, 0.0],
            ["sigma", "psi", "sigma", "psi", "sigma", "sigma", -1.0, 0.0],
            ["psi", "sigma", "psi", "sigma", "sigma", "sigma", -1.0, 0.0],
        ],
        "R": [
            ["sigma", "sigma", "I", math.cos(h), -math.sin(h)],
            ["sigma", "sigma", "psi", math.cos(3 * h), math.sin(3 * h)],
            ["sigma", "psi", "sigma", 0.0, -1.0],
            ["psi", "sigma", "sigma", 0.0, -1.0],
            ["psi", "psi", "I", -1.0, 0.0],
        ],
        "twists": [
            ["I", 1.0, 0.0],
            ["sigma", math.cos(h), math.sin(h)],
            ["psi", -1.0, 0.0],
        ],
    }


@lru_cache(maxsize=1)
def ising() -> AnyonModel:
    """The Ising theory (I, sigma, psi) with theta_sigma = e^{i pi/8}."""
    return build_model(_ising_description())
