"""Independent reference computations backing the test suite.

Everything in this module is written directly from the defining equations on
plain dicts keyed by charge name, with no imports from the package under
test. Tests freeze numbers produced here and also compare package output
against these routines at runtime, so the two implementations audit each
other.
"""

import cmath
import math
import random

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# raw theory data


def ising_data():
    """Ising theory in the (I, sigma, psi) ordering, theta_sigma = e^{i pi/8}."""
    s2 = math.sqrt(2.0)
    names = ("I", "sigma", "psi")
    fusion = set()
    for x in names:
        fusion.add(("I", x, x))
        fusion.add((x, "I", x))
    fusion.update({
        ("sigma", "sigma", "I"), ("sigma", "sigma", "psi"),
        ("sigma", "psi", "sigma"), ("psi", "sigma", "sigma"),
        ("psi", "psi", "I"),
    })
    f = {
        ("sigma", "sigma", "sigma", "sigma", "I", "I"): 1 / s2,
        ("sigma", "sigma", "sigma", "sigma", "I", "psi"): 1 / s2,
        ("sigma", "sigma", "sigma", "sigma", "psi", "I"): 1 / s2,
        ("sigma", "sigma", "sigma", "sigma", "psi", "psi"): -1 / s2,
        ("sigma", "psi", "sigma", "psi", "sigma", "sigma"): -1.0,
        ("psi", "sigma", "psi", "sigma", "sigma", "sigma"): -1.0,
    }
    r = {
        ("sigma", "sigma", "I"): cmath.exp(-1j * math.pi / 8),
        ("sigma", "sigma", "psi"): cmath.exp(3j * math.pi / 8),
        ("sigma", "psi", "sigma"): -1j,
        ("psi", "sigma", "sigma"): -1j,
        ("psi", "psi", "I"): -1.0,
    }
    twists = {"I": 1.0 + 0j, "sigma": cmath.exp(1j * math.pi / 8), "psi": -1.0 + 0j}
    dims = {"I": 1.0, "sigma": s2, "psi": 1.0}
    return dict(names=names, fusion=fusion, f=f, r=r, twists=twists, dims=dims)


def fibonacci_data():
    """Fibonacci theory (I, tau) with the right-handed braiding convention."""
    names = ("I", "tau")
    fusion = set()
    for x in names:
        fusion.add(("I", x, x))
        fusion.add((x, "I", x))
    fusion.update({("tau", "tau", "I"), ("tau", "tau", "tau")})
    sp = math.sqrt(PHI)
    f = {
        ("tau", "tau", "tau", "tau", "I", "I"): 1 / PHI,
        ("tau", "tau", "tau", "tau", "I", "tau"): 1 / sp,
        ("tau", "tau", "tau", "tau", "tau", "I"): 1 / sp,
        ("tau", "tau", "tau", "tau", "tau", "tau"): -1 / PHI,
    }
    r = {
        ("tau", "tau", "I"): cmath.exp(-4j * math.pi / 5),
        ("tau", "tau", "tau"): cmath.exp(3j * math.pi / 5),
    }
    twists = {"I": 1.0 + 0j, "tau": cmath.exp(4j * math.pi / 5)}
    dims = {"I": 1.0, "tau": PHI}
    return dict(names=names, fusion=fusion, f=f, r=r, twists=twists, dims=dims)


def semion_data():
    """Semion theory (I, s): a single abelian anyon with topological spin i."""
    names = ("I", "s")
    fusion = set()
    for x in names:
        fusion.add(("I", x, x))
        fusion.add((x, "I", x))
    fusion.add(("s", "s", "I"))
    f = {("s", "s", "s", "s", "I", "I"): -1.0}
    r = {("s", "s", "I"): 1j}
    twists = {"I": 1.0 + 0j, "s": 1j}
    dims = {"I": 1.0, "s": 1.0}
    return dict(names=names, fusion=fusion, f=f, r=r, twists=twists, dims=dims)


def zn_data(n, p):
    """Z_N^(p): a x b = a + b mod N, F = 1, R(a, b; a+b) = e^{2 pi i p ab/N}.

    theta_a = e^{2 pi i p a^2/N}; modular for odd N and p a unit mod N.
    """
    names = tuple(str(a) for a in range(n))

    def phase(x):
        return cmath.exp(2j * math.pi * (p * x % n) / n)

    fusion = {(names[a], names[b], names[(a + b) % n]) for a in range(n) for b in range(n)}
    r = {(names[a], names[b], names[(a + b) % n]): phase(a * b) for a in range(n) for b in range(n)}
    twists = {names[a]: phase(a * a) for a in range(n)}
    dims = {x: 1.0 for x in names}
    return dict(names=names, fusion=fusion, f={}, r=r, twists=twists, dims=dims)


def gauge_f(data, u):
    """Completed F symbols after rescaling the fusion vertices by u(a, b; c).

    F(a,b,c;d)[e,f] picks up u(a,b;e) u(e,c;d) / (u(b,c;f) u(a,f;d)); vertices
    missing from u keep weight 1. R(a,b;c) picks up u(b,a;c) / u(a,b;c), so a
    symmetric u leaves the braiding unchanged.
    """
    f, _ = complete_symbols(data)

    def w(a, b, c):
        return u.get((a, b, c), 1.0)

    return {
        (a, b, c, d, e, ff): value * w(a, b, e) * w(e, c, d) / (w(b, c, ff) * w(a, ff, d))
        for (a, b, c, d, e, ff), value in f.items()
    }


def model_description(data):
    """The package's model-description schema for oracle theory data."""
    return {
        "charges": list(data["names"]),
        "fusion": [list(triple) for triple in sorted(data["fusion"])],
        "F": [[*key, complex(v).real, complex(v).imag] for key, v in data["f"].items()],
        "R": [[*key, complex(v).real, complex(v).imag] for key, v in data["r"].items()],
        "twists": [[x, complex(v).real, complex(v).imag] for x, v in data["twists"].items()],
    }


# ---------------------------------------------------------------------------
# symbol completion and axiom residuals


def allowed(data, a, b, c):
    return (a, b, c) in data["fusion"]


def outcomes(data, a, b):
    return [c for c in data["names"] if allowed(data, a, b, c)]


def dual(data, a):
    partners = [b for b in data["names"] if allowed(data, a, b, "I")]
    assert len(partners) == 1, (a, partners)
    return partners[0]


def complete_symbols(data):
    """Fill unlisted F/R entries: 1 where the fusion rules allow, absent else."""
    names = data["names"]
    f = {}
    for a in names:
        for b in names:
            for c in names:
                for d in names:
                    for e in names:
                        for ff in names:
                            if (allowed(data, a, b, e) and allowed(data, e, c, d)
                                    and allowed(data, b, c, ff) and allowed(data, a, ff, d)):
                                key = (a, b, c, d, e, ff)
                                f[key] = complex(data["f"].get(key, 1.0))
    r = {}
    for a in names:
        for b in names:
            for c in names:
                if allowed(data, a, b, c):
                    key = (a, b, c)
                    r[key] = complex(data["r"].get(key, 1.0))
    return f, r


def pentagon_residuals(data):
    """Max deviation and worst instance of the five-term recoupling identity.

    Convention: F(a,b,c;d)[e,f] reassociates ((a b) c -> d with a b -> e)
    into (a (b c) -> d with b c -> f).
    """
    f, _ = complete_symbols(data)
    names = data["names"]
    worst = 0.0
    worst_key = None
    for a in names:
        for b in names:
            for c in names:
                for d in names:
                    for e in names:
                        for ff in names:
                            for g in names:
                                for j in names:
                                    for k in names:
                                        resid = pentagon_instance(f, names, a, b, c, d, e, ff, g, j, k)
                                        if resid > worst:
                                            worst = resid
                                            worst_key = (a, b, c, d, e, ff, g, j, k)
    return worst, worst_key


def pentagon_instance(f, names, a, b, c, d, e, ff, g, j, k):
    """|lhs - rhs| of one pentagon instance over completed F symbols."""
    lhs = f.get((ff, c, d, e, g, j), 0.0) * f.get((a, b, j, e, ff, k), 0.0)
    rhs = 0.0
    for h in names:
        rhs += (f.get((a, b, c, g, ff, h), 0.0)
                * f.get((a, h, d, e, g, k), 0.0)
                * f.get((b, c, d, k, h, j), 0.0))
    return abs(lhs - rhs)


def hexagon_instance(f, r, names, conj, a, b, c, d, e, g):
    """|lhs - rhs| of one hexagon instance (conj: the R-inverse hexagon)."""
    def rr(key):
        val = r.get(key, 0.0)
        return val.conjugate() if conj else val
    lhs = rr((c, a, e)) * f.get((a, c, b, d, e, g), 0.0) * rr((c, b, g))
    rhs = 0.0
    for ff in names:
        rhs += f.get((c, a, b, d, e, ff), 0.0) * rr((c, ff, d)) * f.get((a, b, c, d, ff, g), 0.0)
    return abs(lhs - rhs)


def hexagon_residuals(data):
    """Max deviation of both braiding hexagons (R and conjugated R)."""
    f, r = complete_symbols(data)
    names = data["names"]
    worst = 0.0
    worst_key = None
    for conj in (False, True):
        for a in names:
            for b in names:
                for c in names:
                    for d in names:
                        for e in names:
                            for g in names:
                                resid = hexagon_instance(f, r, names, conj, a, b, c, d, e, g)
                                if resid > worst:
                                    worst = resid
                                    worst_key = (conj, a, b, c, d, e, g)
    return worst, worst_key


def twist_relation_residuals(data):
    """Max deviation of theta_a d_a = sum_c N^c_{aa} d_c R(a,a;c)."""
    _, r = complete_symbols(data)
    worst = 0.0
    for a in data["names"]:
        total = 0.0
        for c in outcomes(data, a, a):
            total += data["dims"][c] * r[(a, a, c)]
        worst = max(worst, abs(total / data["dims"][a] - data["twists"][a]))
    return worst


def ribbon_s(data):
    """S matrix from twists and fusion: S_ab = D^-1 sum_c N^c_{abar b} d_c t_c/(t_a t_b)."""
    names = data["names"]
    dims = data["dims"]
    tw = data["twists"]
    total = math.sqrt(sum(dims[a] ** 2 for a in names))
    s = np.zeros((len(names), len(names)), dtype=complex)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            acc = 0.0
            for c in outcomes(data, dual(data, a), b):
                acc += dims[c] * tw[c] / (tw[a] * tw[b])
            s[i, j] = acc / total
    return s


def monodromy_matrix(data):
    s = ribbon_s(data)
    m = np.empty_like(s)
    for i in range(s.shape[0]):
        for j in range(s.shape[0]):
            m[i, j] = s[i, j] * s[0, 0] / (s[0, i] * s[0, j])
    return m


# ---------------------------------------------------------------------------
# interferometer quantities, straight from the transmitted/reflected factors


def p_factor_direct(data, a, a_prime, e, b, t1, r1, t2, r2, th1, th2, transmitted):
    m = monodromy_matrix(data)
    ix = {name: k for k, name in enumerate(data["names"])}
    m_eb = m[ix[e], ix[b]]
    m_ab = m[ix[a], ix[b]]
    m_a_prime_b = m[ix[a_prime], ix[b]]
    phase = cmath.exp(1j * (th1 - th2))
    cross1 = t1 * r1.conjugate() * r2.conjugate() * t2.conjugate() * phase * m_ab
    cross2 = t1.conjugate() * r1 * t2 * r2 * phase.conjugate() * m_a_prime_b.conjugate()
    if transmitted:
        return (abs(t1) ** 2 * abs(r2) ** 2 * m_eb + cross1 + cross2
                + abs(r1) ** 2 * abs(t2) ** 2)
    return (abs(t1) ** 2 * abs(t2) ** 2 * m_eb - cross1 - cross2
            + abs(r1) ** 2 * abs(r2) ** 2)


def symmetric_config(delta=0.0):
    inv = 1 / math.sqrt(2.0)
    return dict(t1=complex(inv), r1=complex(inv), t2=complex(inv), r2=complex(inv),
                th1=delta, th2=0.0)


def qubit_p_matrices(data, cfg, probe="sigma"):
    """Per-entry update factors for the two-level (I, psi) target, both outcomes.

    Entry order: [0] = vacuum diagonal, [1] = fermion diagonal, with the
    off-diagonal pair connected through the fermion line.
    """
    args = (cfg["t1"], cfg["r1"], cfg["t2"], cfg["r2"], cfg["th1"], cfg["th2"])
    out = {}
    for s, flag in (("transmitted", True), ("reflected", False)):
        diag0 = p_factor_direct(data, "I", "I", "I", probe, *args, transmitted=flag)
        diag1 = p_factor_direct(data, "psi", "psi", "I", probe, *args, transmitted=flag)
        off = p_factor_direct(data, "I", "psi", "psi", probe, *args, transmitted=flag)
        out[s] = (diag0, diag1, off)
    return out


def conditioned_qubit_run(data, cfg, rho, outcome_list, probe="sigma"):
    """Feed a fixed outcome sequence through the two-level update.

    rho is (rho00, rho11, rho01). Returns the per-step outcome probabilities
    and the final state. Deterministic, no sampling.
    """
    mats = qubit_p_matrices(data, cfg, probe)
    r00, r11, r01 = rho
    probs = []
    for s in outcome_list:
        d0, d1, off = mats[s]
        pr = (r00 * d0 + r11 * d1).real
        probs.append(pr)
        r00 = r00 * d0.real / pr
        r11 = r11 * d1.real / pr
        r01 = r01 * off / pr
    return probs, (r00, r11, r01)


def sampled_qubit_run(data, cfg, rho, n, seed, probe="sigma"):
    """Sample an outcome chain with the stdlib RNG (statistics checks only)."""
    mats = qubit_p_matrices(data, cfg, probe)
    rng = random.Random(seed)
    r00, r11, r01 = rho
    transmitted = 0
    for _ in range(n):
        d0t, d1t, offt = mats["transmitted"]
        pr_t = min(max((r00 * d0t + r11 * d1t).real, 0.0), 1.0)
        if rng.random() < pr_t:
            d0, d1, off = mats["transmitted"]
            pr = pr_t
            transmitted += 1
        else:
            d0, d1, off = mats["reflected"]
            pr = 1.0 - pr_t
        r00 = r00 * d0.real / pr
        r11 = r11 * d1.real / pr
        r01 = r01 * off / pr
    coherence = abs(r01) / max(r00, r11)
    return transmitted, coherence, (r00, r11, r01)


def binomial_mixture(weights, ps, n):
    """Outcome-count distribution for a mixture of binomials."""
    dist = {}
    for k in range(n + 1):
        total = 0.0
        for w, p in zip(weights, ps):
            total += w * math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        dist[k] = total
    return dist


# ---------------------------------------------------------------------------
# torus tensors and the two-level twisted channel


def printed_ising_s():
    s2 = math.sqrt(2.0)
    return 0.5 * np.array([[1, s2, 1], [s2, 0, -s2], [1, -s2, 1]], dtype=complex)


def ising_b_matrix():
    s = printed_ising_s()
    t = np.diag([1.0, cmath.exp(1j * math.pi / 8), -1.0])
    return s @ (t @ t) @ np.linalg.inv(s)


def torus_vectors():
    s = printed_ising_s()
    b = ising_b_matrix()
    v_l = np.array([0.5, math.sqrt(2.0) / 2.0, 0.5], dtype=complex)
    v_m = np.array([1.0, 0.0, 0.0], dtype=complex)
    v_t = b @ v_m
    v_t_prime = b @ np.array([0.0, 0.0, 1.0], dtype=complex)
    return v_l, v_m, v_t, v_t_prime


def twisted_kraus(core_is_vacuum):
    w = cmath.exp(1j * math.pi / 4)
    if core_is_vacuum:
        return np.diag([0.5 * (1 + w), 0.5 * (1 - w)])
    return np.diag([0.5 * (1 - w), 0.5 * (1 + w)])


def twisted_closed_form(rho, vacuum_outcome):
    """Probability and post-state of the double-twist channel, closed form."""
    c = math.cos(math.pi / 8)
    s = math.sin(math.pi / 8)
    r00, r01 = rho[0, 0], rho[0, 1]
    r10, r11 = rho[1, 0], rho[1, 1]
    if vacuum_outcome:
        pr = (c * c * r00 + s * s * r11).real
        post = np.array([[c * c * r00, 1j * c * s * r01],
                         [-1j * c * s * r10, s * s * r11]]) / pr
    else:
        pr = (s * s * r00 + c * c * r11).real
        post = np.array([[s * s * r00, -1j * c * s * r01],
                         [1j * c * s * r10, c * c * r11]]) / pr
    return pr, post


# ---------------------------------------------------------------------------
# phase-gate protocol evaluation


def protocol_u(a, alpha, corrected=True):
    """Diagonal pair (u_I, u_psi) of the protocol operator, by direct sum.

    a and alpha are 0 (vacuum) or 1 (fermion). The sign exponent's last term
    is a*q when corrected and the alternative alpha*q reading otherwise; the
    alternative fails to reproduce a diagonal gate whenever a != alpha.
    """
    c = math.cos(math.pi / 8)
    s = math.sin(math.pi / 8)
    r_alpha_sigma = 1.0 if alpha == 0 else -1j
    r_sigma_sigma = (cmath.exp(-1j * math.pi / 8), cmath.exp(3j * math.pi / 8))
    u = []
    for q in (0, 1):
        total = 0.0
        for z in (0, 1):
            coeff = c if z == a else 1j * s
            last = a * q if corrected else alpha * q
            sign = (-1.0) ** ((z * q + z * alpha + z + last) % 2)
            total += (coeff * sign * cmath.exp(1j * math.pi / 8)
                      * r_alpha_sigma / r_sigma_sigma[q])
        u.append(total)
    return u[0], u[1]


def normalize_phase(values):
    """Rotate the first entry of nonneglible magnitude to the positive real axis."""
    vec = np.asarray(values, dtype=complex)
    for v in vec:
        if abs(v) > 1e-12:
            return vec * (abs(v) / v)
    return vec


# ---------------------------------------------------------------------------
# seed derivation (duplicated here so tests pin the documented formula)


def splitmix64(x):
    mask = (1 << 64) - 1
    x = x & mask
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
    return x ^ (x >> 31)


def derive_trial_seed(seed, trial):
    mask = (1 << 64) - 1
    return splitmix64((seed + (trial + 1) * 0x9E3779B97F4A7C15) & mask)
