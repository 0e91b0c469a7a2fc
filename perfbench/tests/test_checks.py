"""Each checker accepts its reference and rejects it perturbed past tolerance.

The references here are built independently of the checkers where the
mathematics allows: hand-evaluated closed forms, brute-force quadrature and
explicitly assembled matrices.
"""

import json
import math
from statistics import NormalDist

import numpy as np
import pytest

import checks
from checks import Mismatch


def report(**values):
    return {"checks": [{"name": k, "pass": True, "value": v} for k, v in values.items()]}


def gaussian_density(mean, var, x0=-20.0, n=2048, length=40.0):
    dx = length / n
    x = x0 + dx * np.arange(n)
    return {"x0": x0, "dx": dx,
            "values": list(np.exp(-(x - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var))}


GAUSS = {"kind": "gaussian", "a": 0.8, "b": 0.4, "center": 1.0, "momentum": -0.5}


def test_state_moments_closed_forms():
    m = checks.state_moments(GAUSS)
    assert m.var_q == pytest.approx(1 / 3.2) and m.var_p == pytest.approx((0.64 + 0.16) / 0.8)
    assert checks.state_moments({"kind": "fock", "k": 3}).var_q == 3.5
    # two Gaussians at -/+0.5 with a = 1/2: 1/(4a) + c^2 = 0.75
    pair = {"kind": "mixture", "components": [
        {"weight": 1, "state": {"kind": "gaussian", "a": 0.5, "center": c}} for c in (-0.5, 0.5)]}
    assert checks.state_moments(pair).var_q == pytest.approx(0.75)


def test_margins():
    m = checks.state_moments(GAUSS)
    doc = {"position": {"density": gaussian_density(-1.0, m.var_q)},
           "momentum": {"density": gaussian_density(0.5, m.var_p)}}
    checks.check_margins(report(**{"variance-product-bound": m.var_q * m.var_p}), doc, GAUSS)
    with pytest.raises(Mismatch):
        checks.check_margins(report(**{"variance-product-bound": m.var_q * m.var_p * (1 + 1e-6)}),
                             doc, GAUSS)
    doc["position"] = {"density": gaussian_density(-1.0, m.var_q * (1 + 1e-6))}
    with pytest.raises(Mismatch):
        checks.check_margins(report(**{"variance-product-bound": m.var_q * m.var_p}), doc, GAUSS)


def test_uncertainty():
    s = {"kind": "fock", "k": 1}
    t = {"kind": "gaussian", "a": 0.5, "b": 0.0}
    var = (1.5 + 0.5) * (1.5 + 0.5)
    z = NormalDist().inv_cdf(0.75)
    res = (2 * z * math.sqrt(0.5)) ** 2
    dx, dp = 40 / 1024, 2 * math.pi / 40
    ok = report(**{"variance-product": var, "resolution-product": res})
    checks.check_uncertainty(ok, s, t, dx, dp)
    for bad in (report(**{"variance-product": var * (1 + 1e-6), "resolution-product": res}),
                report(**{"variance-product": var, "resolution-product": res + 4 * dp})):
        with pytest.raises(Mismatch):
            checks.check_uncertainty(bad, s, t, dx, dp)


def test_gamma_within_one_grid_step():
    dx = 40 / 4096
    sigma = 0.7
    want = 2 * NormalDist().inv_cdf(0.75) * sigma  # 1.34898 sigma
    assert want == pytest.approx(1.348979500 * sigma)
    m = {"kind": "gaussian", "sigma": sigma}
    checks.check_gamma(report(**{"gamma-finite": want + 0.5 * dx}), m, dx)
    with pytest.raises(Mismatch):
        checks.check_gamma(report(**{"gamma-finite": want + 2 * dx}), m, dx)
    uniform = {"kind": "uniform", "lo": -1.0, "hi": 2.0}
    checks.check_gamma(report(**{"gamma-finite": 1.5}), uniform, dx)
    with pytest.raises(Mismatch):
        checks.check_gamma(report(**{"gamma-finite": 1.5 - 2 * dx}), uniform, dx)


def test_distribution():
    psi = {"kind": "gaussian", "a": 0.5, "center": 0.25}
    m = {"kind": "gaussian", "mean": -0.25, "sigma": math.sqrt(0.5)}
    # x + t ~ N(0, 1/2 + 1/2) = N(0, 1)
    rows = [(-math.inf, 0.0, 0.5), (0.0, 1.0, 0.3413447460685429), (1.0, math.inf, 0.15865525393145707)]
    dx = 40 / 2048
    checks.check_distribution(report(), rows, psi, m, dx)
    rows[1] = (0.0, 1.0, 0.3413447460685429 + 1e-6)
    with pytest.raises(Mismatch):
        checks.check_distribution(report(), rows, psi, m, dx)


def test_sharpness_and_compare():
    checks.check_sharpness(report(**{"sharpness-routes-agree": True}), {"kind": "point", "t": 0})
    with pytest.raises(Mismatch):
        checks.check_sharpness(report(**{"sharpness-routes-agree": True}),
                               {"kind": "gaussian", "sigma": 1})
    checks.check_compare(report(**{"distinction-order": "first below second"}), 1.5, 0.5)
    with pytest.raises(Mismatch):
        checks.check_compare(report(**{"distinction-order": "first below second"}), 0.5, 1.5)


# Norms of G_T([-h, h]^2) for the ground state, as printed by acceptance gate 10.
GATE_10_NORMS = {0.5: 0.146631584, 1.5: 0.751196470, 2.5: 0.976936253}


@pytest.mark.parametrize("h", sorted(GATE_10_NORMS))
def test_cell_norm_reference_and_bracket(h):
    ref = checks.cell_norm_reference(((0, 1.0),), h)
    assert ref == pytest.approx(GATE_10_NORMS[h], abs=1e-9)
    assert math.erf(h / math.sqrt(2)) ** 2 <= ref <= 1 - math.exp(-h * h)
    ground = {"kind": "gaussian", "a": 0.5, "center": 1.0, "momentum": -0.5}
    checks.check_cell_norm(report(**{"bounded-cell-norm": ref}), ground, h)
    with pytest.raises(Mismatch):
        checks.check_cell_norm(report(**{"bounded-cell-norm": ref * (1 + 1e-6)}), ground, h)


def test_cell_norm_reference_for_a_fock_state_by_brute_force():
    # G_T(Z) for T = |1><1| in a Fock basis from explicit displaced number
    # states <m|D(z)|1> = sqrt(1/m!) e^{-|z|^2/2} z^{m-1} (m - |z|^2), by a
    # midpoint rule on a fine grid.
    h, nmax, pts = 0.5, 30, 400
    q = -h + (np.arange(pts) + 0.5) * (2 * h / pts)
    qq, pp = np.meshgrid(q, q, indexing="ij")
    z = ((qq + 1j * pp) / math.sqrt(2)).ravel()
    m = np.arange(nmax)
    fact = np.array([math.factorial(k) for k in m], dtype=float)
    zm1 = np.where(m[None, :] >= 1, z[:, None] ** np.maximum(m - 1, 0)[None, :], 0.0)
    vec = np.exp(-np.abs(z) ** 2 / 2)[:, None] / np.sqrt(fact)[None, :] * (
        m[None, :] * zm1 - np.conj(z)[:, None] * z[:, None] ** m[None, :])
    g = (vec.T * (2 * h / pts) ** 2) @ vec.conj() / (2 * math.pi)
    brute = np.linalg.eigvalsh(g)[-1]
    assert checks.cell_norm_reference(((1, 1.0),), h) == pytest.approx(brute, rel=1e-4)


def test_cell_norm_fock_mixture_and_nesting():
    mix = {"kind": "mixture", "components": [
        {"weight": 0.6, "state": {"kind": "fock", "k": 0}},
        {"weight": 0.4, "state": {"kind": "fock", "k": 2}}]}
    small = checks.cell_norm_reference(((0, 0.6), (2, 0.4)), 0.5)
    large = checks.cell_norm_reference(((0, 0.6), (2, 0.4)), 1.5)
    assert checks.check_cell_norm(report(**{"bounded-cell-norm": large}), mix, 1.5) == large
    with pytest.raises(Mismatch):
        checks.check_cell_norm(report(**{"bounded-cell-norm": large * (1 + 1e-6)}), mix, 1.5)
    checks.check_nested_norms(small, large)
    with pytest.raises(Mismatch):
        checks.check_nested_norms(large, small)


def test_roi():
    checks.check_roi(report(**{"resolution-of-identity": 2e-4}))
    with pytest.raises(Mismatch):
        checks.check_roi(report(**{"resolution-of-identity": 2e-3}))


def test_density_of_a_coherent_probe():
    # ground state T displaced by (1, 0), probe at (0, 1): at (q, p) = (0, 0),
    # r^2 = 1 + 1, so h = exp(-1) / 2pi.
    ground = {"kind": "gaussian", "a": 0.5, "center": 1.0}
    rows = [(0.0, 0.0, math.exp(-1) / (2 * math.pi)), (-1.0, 1.0, 1 / (2 * math.pi))]
    checks.check_density(report(), rows, ground, (1.0, 0.0), (0.0, 1.0))
    rows[0] = (0.0, 0.0, math.exp(-1) / (2 * math.pi) * (1 + 1e-6))
    with pytest.raises(Mismatch):
        checks.check_density(report(), rows, ground, (1.0, 0.0), (0.0, 1.0))


def write_pom(path, labels, effects):
    doc = {"space_tag": "test", "outcomes": [
        {"label": str(c), "cell": {"kind": "point", "value": list(c)}} for c in labels],
        "effects": [{"op": {"dim": e.shape[0],
                            "entries": [[z.real, z.imag] for z in e.ravel()]}} for e in effects]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def z4_pom():
    """The sharp-phase-like covariant POM on Z_4 with H = {0}: E_c = v_c v_c*,
    v_c[x] = exp(2 pi i x c / 4) / 2, over all four characters."""
    x = np.arange(4)
    labels = [(c,) for c in range(4)]
    effects = [np.outer(v, v.conj()) for v in (np.exp(2j * np.pi * x * c / 4) / 2 for c in range(4))]
    return labels, effects


def test_abelian_pom_round_trip(tmp_path):
    labels, effects = z4_pom()
    path = tmp_path / "pom.json"
    write_pom(path, labels, effects)
    got_labels, got = checks.load_pom(str(path))
    basis = [(x,) for x in range(4)]
    checks.check_abelian_pom(got_labels, got, (4,), [(0,)], basis, [(1,), (3,)])
    scaled = [e.copy() for e in effects]
    scaled[2] = scaled[2] * (1 + 1e-6)
    write_pom(path, labels, scaled)
    with pytest.raises(Mismatch):
        checks.check_abelian_pom(*checks.load_pom(str(path)), (4,), [(0,)], basis, [(1,)])
    swapped = [effects[1], effects[0], effects[2], effects[3]]
    with pytest.raises(Mismatch):
        checks.check_abelian_pom(labels, swapped, (4,), [(0,)], basis, [(1,)])


def test_finite_weyl():
    d = 3
    rng = np.random.default_rng(0)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    t_op = np.outer(v, v.conj()) / np.vdot(v, v).real
    shift = lambda a: np.array([[1.0 if i == (j + a) % d else 0.0 for j in range(d)] for i in range(d)])
    clock = lambda b: np.diag([np.exp(2j * np.pi * b * j / d) for j in range(d)])
    labels = [(a, b) for a in range(d) for b in range(d)]
    effects = [clock(b) @ shift(a) @ t_op @ (clock(b) @ shift(a)).conj().T / d for a, b in labels]
    checks.check_finite_weyl(labels, effects, t_op, [(1, 2), (2, 0)])
    effects[4] = effects[4] * (1 + 1e-6)
    with pytest.raises(Mismatch):
        checks.check_finite_weyl(labels, effects, t_op, [(1, 2)])


def test_phase_entries():
    dim, cells = 4, 3
    bounds = np.linspace(0, 2 * math.pi, cells + 1)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    effects = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        theta = lo + (hi - lo) * (nodes + 1) / 2
        w = weights * (hi - lo) / 2 / (2 * math.pi)
        effects.append(np.array([[np.sum(w * np.exp(1j * (j - k) * theta)) for k in range(dim)]
                                 for j in range(dim)]))
    checks.check_phase_pom(report(), effects, cells)
    effects[1][0, 1] += 1e-9
    with pytest.raises(Mismatch):
        checks.check_phase_pom(report(), effects, cells)


def test_unitary_and_projection():
    n = 8
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    checks.check_unitary(dft)
    with pytest.raises(Mismatch):
        checks.check_unitary(dft * (1 + 1e-6))
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(n, 3)))
    proj = q @ q.T
    checks.check_projection(proj, 3)
    with pytest.raises(Mismatch):
        checks.check_projection(proj * (1 + 1e-6), 3)


def test_failed_report_check_is_a_mismatch():
    failing = {"checks": [{"name": "pom-axioms", "pass": False, "value": 1e-3}]}
    with pytest.raises(Mismatch):
        checks.check_axioms_report(failing, 1e-10)
    with pytest.raises(Mismatch):
        checks.check_axioms_report(report(**{"pom-axioms": 1e-6}), 1e-10)
