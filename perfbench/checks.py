"""Reference values and output checks for the covpom benchmark.

Every reference here is a closed form, or a property that the exact
mathematics guarantees, computed with numpy and the standard library only.
Nothing in this module imports covpom, so a fault in the program cannot
hide in its own reference.  Each checker returns nothing when the output is
within tolerance and raises ``Mismatch`` otherwise.

Conventions follow the program's documented ones: a Gaussian state is
(2a/pi)^(1/4) exp(-(a+ib)(x-c)^2 + i p0 x), Fock states are Hermite
functions, W(q, p) translates by q in position and p in momentum, and
complex numbers in JSON are [re, im] pairs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

# 2 * Phi^-1(3/4): the shortest interval holding half the mass of N(0, 1).
GAMMA_PER_SIGMA = 2.0 * NormalDist().inv_cdf(0.75)
RESOLUTION_BOUND = 3.0 - 2.0 * math.sqrt(2.0)


class Mismatch(Exception):
    """An output left the tolerance of its reference."""


def close(name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise Mismatch(f"{name}: got {got!r}, want {want!r} within {tol:g}")


def require(name: str, ok: bool, detail: str = "") -> None:
    if not ok:
        raise Mismatch(f"{name} {detail}".rstrip())


# --- CLI reports -------------------------------------------------------------


def report_check(report: dict, name: str) -> dict:
    for entry in report["checks"]:
        if entry["name"] == name:
            return entry
    raise Mismatch(f"report has no check named {name!r}")


def require_all_pass(report: dict) -> None:
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    require("report checks", not failed, f"failed: {failed}")


# --- states on the line ------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    mean_q: float
    var_q: float
    mean_p: float
    var_p: float


def state_moments(spec: dict) -> Moments:
    """Position and momentum means and variances of a state description.

    A mixture's variance follows the law of total variance over its
    components, which holds whether or not the components are orthogonal.
    """
    kind = spec["kind"]
    if kind == "gaussian":
        a = float(spec.get("a", 0.5))
        b = float(spec.get("b", 0.0))
        return Moments(
            float(spec.get("center", 0.0)), 1.0 / (4.0 * a),
            float(spec.get("momentum", 0.0)), (a * a + b * b) / a,
        )
    if kind == "fock":
        v = (2 * int(spec["k"]) + 1) / 2.0
        return Moments(0.0, v, 0.0, v)
    if kind == "mixture":
        weights = np.array([float(c["weight"]) for c in spec["components"]])
        weights = weights / weights.sum()
        parts = [state_moments(c["state"]) for c in spec["components"]]
        mq = sum(w * m.mean_q for w, m in zip(weights, parts))
        mp = sum(w * m.mean_p for w, m in zip(weights, parts))
        vq = sum(w * (m.var_q + m.mean_q**2) for w, m in zip(weights, parts)) - mq**2
        vp = sum(w * (m.var_p + m.mean_p**2) for w, m in zip(weights, parts)) - mp**2
        return Moments(mq, vq, mp, vp)
    raise ValueError(f"unknown state kind {kind!r}")


def _sampled_variance(density: dict) -> float:
    values = np.asarray(density["values"], dtype=float)
    x = float(density["x0"]) + float(density["dx"]) * np.arange(values.size)
    mass = values.sum()
    mean = (x * values).sum() / mass
    return float(((x - mean) ** 2 * values).sum() / mass)


def check_margins(report: dict, margins_doc: dict, t_spec: dict, rtol: float = 1e-8) -> None:
    """Margins of G_T: their variances are those of T in each variable."""
    require_all_pass(report)
    m = state_moments(t_spec)
    var_q = _sampled_variance(margins_doc["position"]["density"])
    var_p = _sampled_variance(margins_doc["momentum"]["density"])
    close("position margin variance", var_q, m.var_q, rtol * m.var_q)
    close("momentum margin variance", var_p, m.var_p, rtol * m.var_p)
    product = report_check(report, "variance-product-bound")["value"]
    want = m.var_q * m.var_p
    close("reported margin variance product", product, want, rtol * want)


def check_uncertainty(
    report: dict, s_spec: dict, t_spec: dict, dx: float, dp: float, rtol: float = 1e-8
) -> None:
    """Variance and resolution products of the margins of a Gaussian G_T.

    Variances add under convolution, so the outcome variances are those of
    S plus those of T.  A Gaussian margin of standard deviation sigma has
    limit of resolution 2 Phi^-1(3/4) sigma, which the program finds to
    within one step of the grid it samples the margin on.
    """
    require_all_pass(report)
    s = state_moments(s_spec)
    t = state_moments(t_spec)
    want = (s.var_q + t.var_q) * (s.var_p + t.var_p)
    got = report_check(report, "variance-product")["value"]
    close("variance product", got, want, rtol * want)
    require("variance product >= 1", got >= 1.0 - 1e-12, f"(got {got!r})")
    g_q = GAMMA_PER_SIGMA * math.sqrt(t.var_q)
    g_p = GAMMA_PER_SIGMA * math.sqrt(t.var_p)
    got = report_check(report, "resolution-product")["value"]
    close("resolution product", got, g_q * g_p, dx * g_p + dp * g_q + dx * dp)
    require("resolution product >= 3 - 2 sqrt 2", got >= RESOLUTION_BOUND, f"(got {got!r})")


# --- confidence measures -----------------------------------------------------


def measure_gamma(spec: dict) -> float:
    """Limit of resolution: the shortest interval holding more than half."""
    kind = spec["kind"]
    if kind == "gaussian":
        return GAMMA_PER_SIGMA * float(spec.get("sigma", 1.0))
    if kind == "uniform":
        return (float(spec["hi"]) - float(spec["lo"])) / 2.0
    if kind == "point":
        return 0.0
    raise ValueError(f"unknown measure kind {kind!r}")


def check_gamma(report: dict, m_spec: dict, dx: float) -> None:
    require_all_pass(report)
    got = report_check(report, "gamma-finite")["value"]
    close("gamma", got, measure_gamma(m_spec), dx)


def check_distribution(report: dict, rows: list, psi_spec: dict, m_spec: dict, dx: float) -> None:
    """Smeared position statistics of a Gaussian state: a Gaussian law.

    The outcome is x + t with x ~ |psi|^2 = N(c, 1/(4a)) and t ~ N(m, s^2),
    so every cell probability is a difference of normal distribution values.
    The program integrates the sampled measure density with Simpson weights,
    so its error falls as (dx/s)^4; the measured constant is below 0.011 at
    n = 1024 and 2048 for s in [0.4, 1.6], and the tolerance allows 0.03.
    """
    require_all_pass(report)
    mom = state_moments(psi_spec)
    sigma = float(m_spec.get("sigma", 1.0))
    law = NormalDist(mom.mean_q + float(m_spec.get("mean", 0.0)),
                     math.sqrt(mom.var_q + sigma**2))
    atol = 0.03 * (dx / sigma) ** 4 + 1e-12
    require("distribution rows", len(rows) > 0)
    for lo, hi, p in rows:
        want = law.cdf(hi) - law.cdf(lo)
        close(f"probability of [{lo}, {hi})", p, want, atol)


def read_csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [tuple(float(v) for v in row) for row in reader]


def check_sharpness(report: dict, m_spec: dict) -> None:
    """Only a point measure is sharp, and both routes of the test agree."""
    entry = report_check(report, "sharpness-routes-agree")
    require("sharpness routes agree", entry["pass"])
    want = m_spec["kind"] == "point"
    require("sharpness", entry["value"] is want, f"got {entry['value']!r}, want {want!r}")


def check_compare(report: dict, sigma_first: float, sigma_second: float) -> None:
    """The wider Gaussian's transform has the smaller support: it ranks below."""
    got = report_check(report, "distinction-order")["value"]
    want = "first below second" if sigma_first > sigma_second else "first above second"
    require("distinction order", got == want, f"got {got!r}, want {want!r}")


# --- phase-space cells ---------------------------------------------------------


def fock_weights(spec: dict) -> dict:
    """Fock-basis weights {k: w} of a ground state, Fock state or mixture.

    A Gaussian counts as a (displaced) ground state only with a = 1/2, b = 0.
    """
    kind = spec["kind"]
    if kind == "gaussian":
        if float(spec.get("a", 0.5)) != 0.5 or float(spec.get("b", 0.0)) != 0.0:
            raise ValueError("only the coherent Gaussian a = 1/2, b = 0 is a ground state")
        return {0: 1.0}
    if kind == "fock":
        return {int(spec["k"]): 1.0}
    total = sum(float(c["weight"]) for c in spec["components"])
    out: dict = {}
    for comp in spec["components"]:
        for k, w in fock_weights(comp["state"]).items():
            out[k] = out.get(k, 0.0) + w * float(comp["weight"]) / total
    return out


@lru_cache(maxsize=64)
def cell_norm_reference(weights: tuple, h: float, nmax: int = 80, order: int = 64) -> float:
    """||G_T([-h, h]^2)|| for T = sum_k w_k |k><k|, in the Fock basis.

    G_T(Z) = (1/2pi) integral over Z of D(z) T D(z)* dq dp with
    z = (q + ip)/sqrt 2, and D(z)|k> = (a^dagger - conj z)^k |z> / sqrt(k!).
    The integral is a tensor Gauss-Legendre sum of order ``order`` in a
    Fock basis truncated at ``nmax`` levels, both far past convergence for
    h <= 3 and k <= 4.  Covariance makes the norm independent of where the
    square and T sit, so this one value covers every placement.
    """
    nodes, wts = np.polynomial.legendre.leggauss(order)
    q = h * nodes
    qq, pp = np.meshgrid(q, q, indexing="ij")
    weight = np.outer(h * wts, h * wts).ravel()
    z = ((qq + 1j * pp) / math.sqrt(2.0)).ravel()
    coh = np.empty((z.size, nmax), dtype=complex)
    coh[:, 0] = np.exp(-np.abs(z) ** 2 / 2)
    for n in range(1, nmax):
        coh[:, n] = coh[:, n - 1] * z / math.sqrt(n)
    sqrt_n = np.sqrt(np.arange(1, nmax))
    effect = np.zeros((nmax, nmax), dtype=complex)
    for k, w in weights:
        vec = coh
        for j in range(1, k + 1):
            raised = np.zeros_like(vec)
            raised[:, 1:] = vec[:, :-1] * sqrt_n
            vec = (raised - np.conj(z)[:, None] * vec) / math.sqrt(j)
        effect += w * (vec.T * weight) @ vec.conj()
    effect /= 2 * math.pi
    return float(np.linalg.eigvalsh(effect)[-1])


def check_cell_norm(report: dict, t_spec: dict, h: float, atol: float = 1e-9) -> float:
    """Cell norm against its Fock-basis reference; the ground state also
    against the closed-form bracket erf(h/sqrt 2)^2 <= norm <= 1 - exp(-h^2)."""
    got = report_check(report, "bounded-cell-norm")["value"]
    require_all_pass(report)
    weights = tuple(sorted(fock_weights(t_spec).items()))
    close("cell norm", got, cell_norm_reference(weights, h), atol)
    require("cell norm in (0, 1)", 0.0 < got < 1.0, f"(got {got!r})")
    if weights == ((0, 1.0),):
        lo = math.erf(h / math.sqrt(2.0)) ** 2
        hi = 1.0 - math.exp(-h * h)
        require("cell norm bracket", lo - 1e-12 <= got <= hi + 1e-12,
                f"{lo!r} <= {got!r} <= {hi!r}")
    return got


def check_nested_norms(smaller: float, larger: float) -> None:
    """Effects grow with the cell, so their norms grow on nested squares."""
    require("norm grows on nested squares", larger > smaller, f"({smaller!r} !< {larger!r})")


def check_roi(report: dict, bound: float = 1e-3) -> None:
    got = report_check(report, "resolution-of-identity")["value"]
    require("resolution-of-identity defect", got <= bound, f"{got!r} > {bound!r}")
    require_all_pass(report)


def check_density(
    report: dict, rows: list, t_spec: dict, t_shift: tuple, probe: tuple, atol: float = 1e-9
) -> None:
    """Husimi-type density of a coherent probe at (q0, p0):

        h(q, p) = sum_k w_k exp(-r^2/2) (r^2/2)^k / k! / 2pi,
        r^2 = (q + qT - q0)^2 + (p + pT - p0)^2,

    for T = sum_k w_k |k><k| displaced to (qT, pT).
    """
    require_all_pass(report)
    weights = fock_weights(t_spec)
    arr = np.asarray(rows, dtype=float)
    require("density rows", arr.ndim == 2 and arr.shape[1] == 3 and len(arr) > 0)
    r2 = (arr[:, 0] + t_shift[0] - probe[0]) ** 2 + (arr[:, 1] + t_shift[1] - probe[1]) ** 2
    want = sum(
        w * np.exp(-r2 / 2) * (r2 / 2) ** k / math.factorial(k) for k, w in weights.items()
    ) / (2 * math.pi)
    err = np.abs(arr[:, 2] - want)
    worst = int(np.argmax(err))
    close(f"density at {tuple(arr[worst, :2])}", arr[worst, 2], want[worst], atol)


# --- written POMs --------------------------------------------------------------


def load_pom(path: str):
    """Decode a written POM with json and numpy only: (labels, effects)."""
    with open(path) as fh:
        doc = json.load(fh)
    labels = [tuple(o["cell"]["value"]) for o in doc["outcomes"]]
    effects = []
    for eff in doc["effects"]:
        dim = int(eff["op"]["dim"])
        pairs = np.asarray(eff["op"]["entries"], dtype=float)
        effects.append((pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim))
    return labels, effects


def check_pom_effects(effects: list, trace_each: float, tol: float = 1e-9) -> None:
    """Hermitian, positive, summing to the identity, with equal traces."""
    dim = effects[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for i, e in enumerate(effects):
        close(f"effect {i} hermiticity defect", float(np.abs(e - e.conj().T).max()), 0.0, tol)
        low = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T))[0])
        require(f"effect {i} positive", low >= -tol, f"(lowest eigenvalue {low!r})")
        close(f"effect {i} trace", complex(np.trace(e)).real, trace_each, tol)
        total += e
    close("effects sum to identity", float(np.abs(total - np.eye(dim)).max()), 0.0, tol)


def _pairing(x, g, moduli) -> complex:
    return complex(np.exp(2j * np.pi * sum(xi * gi / m for xi, gi, m in zip(x, g, moduli))))


def check_abelian_pom(
    labels: list, effects: list, moduli: tuple, sub_elements: list,
    basis_chars: list, samples: list, tol: float = 1e-9,
) -> None:
    """A covariant POM on G/H: axioms, traces dim/|G/H| and
    U(g) E(c) U(g)* = E(g + c) with U(g) = diag(<x, g>) over the basis."""
    dim = effects[0].shape[0]
    require("one effect per coset", len(effects) * len(sub_elements) == math.prod(moduli))
    check_pom_effects(effects, dim / len(effects), tol)
    index = {tuple(c): i for i, c in enumerate(labels)}
    for g in samples:
        u = np.array([_pairing(x, g, moduli) for x in basis_chars])
        phases = np.outer(u, u.conj())
        for c, e in zip(labels, effects):
            moved = min(
                tuple((ci + gi + hi) % m for ci, gi, hi, m in zip(c, g, h, moduli))
                for h in sub_elements
            )
            defect = float(np.abs(e * phases - effects[index[moved]]).max())
            close(f"covariance at g={tuple(g)}, c={tuple(c)}", defect, 0.0, tol)


def weyl_matrix(d: int, a: int, b: int) -> np.ndarray:
    """Z^b X^a with X the cyclic shift |j> -> |j + a> and Z the clock."""
    shift = np.roll(np.eye(d), a, axis=0)
    return np.diag(np.exp(2j * np.pi * b * np.arange(d) / d)) @ shift


def check_finite_weyl(labels: list, effects: list, t_op: np.ndarray, samples: list,
                      tol: float = 1e-9) -> None:
    """E(a, b) = W T W* / d, axioms, traces 1/d and W(g) E(c) W(g)* = E(g + c)."""
    d = t_op.shape[0]
    require("d^2 effects", len(effects) == d * d)
    check_pom_effects(effects, 1.0 / d, tol)
    index = {tuple(c): i for i, c in enumerate(labels)}
    for (a, b), e in zip(labels, effects):
        w = weyl_matrix(d, a, b)
        close(f"effect ({a},{b})", float(np.abs(e - w @ t_op @ w.conj().T / d).max()), 0.0, tol)
    for g in samples:
        w = weyl_matrix(d, *g)
        for c, e in zip(labels, effects):
            target = effects[index[((c[0] + g[0]) % d, (c[1] + g[1]) % d)]]
            defect = float(np.abs(w @ e @ w.conj().T - target).max())
            close(f"covariance at g={tuple(g)}, c={tuple(c)}", defect, 0.0, tol)


def interval_coefficient(n: int, lo: float, hi: float) -> complex:
    """(1/2pi) integral over [lo, hi) of exp(i n theta)."""
    if n == 0:
        return complex((hi - lo) / (2 * math.pi))
    return (np.exp(1j * n * hi) - np.exp(1j * n * lo)) / (2j * math.pi * n)


def check_phase_pom(report: dict, effects: list, cells: int, tol: float = 1e-12) -> None:
    """Canonical phase effects have entries c_{j-k}(lo, hi) on 2 pi k / K cells."""
    require_all_pass(report)
    require("one effect per cell", len(effects) == cells)
    dim = effects[0].shape[0]
    diff = np.subtract.outer(np.arange(dim), np.arange(dim))
    bounds = np.linspace(0.0, 2 * math.pi, cells + 1)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        want = np.vectorize(lambda n: interval_coefficient(int(n), lo, hi))(diff)
        close(f"phase effect {i} entries", float(np.abs(effects[i] - want).max()), 0.0, tol)
    check_pom_effects(effects, dim / cells, 1e-9)


def check_axioms_report(report: dict, tol: float) -> None:
    """A report whose POM checks passed with defects inside the tolerance."""
    require_all_pass(report)
    for entry in report["checks"]:
        if entry["name"] in ("pom-axioms", "normalization", "positivity", "covariance"):
            require(f"{entry['name']} defect", abs(entry["value"]) <= tol,
                    f"{entry['value']!r} > {tol!r}")


def check_unitary(mat: np.ndarray, tol: float = 1e-9) -> None:
    require("square", mat.ndim == 2 and mat.shape[0] == mat.shape[1], f"shape {mat.shape}")
    defect = float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max())
    close("unitarity defect", defect, 0.0, tol)


def check_projection(mat: np.ndarray, rank: int, tol: float = 1e-9) -> None:
    close("hermiticity defect", float(np.abs(mat - mat.conj().T).max()), 0.0, tol)
    close("idempotence defect", float(np.abs(mat @ mat - mat).max()), 0.0, tol)
    close("trace", complex(np.trace(mat)).real, float(rank), tol)
