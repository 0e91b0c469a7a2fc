"""The phase-space kernel against the tensor-quadrature loops it replaced.

``phasespace`` integrates p exactly (a Toeplitz symbol) and only q by a
composite Gauss-Legendre rule.  The oracles below are the former loops: a
tensor Gauss-Legendre sum over q and p, one translate and one n x n update
per q-node.  They share the q-rule, so the kernel must match them to rounding
wherever their p-rule has converged.  The cell norm and the identity-resolution
Gram run on a support cut of the grid; they are checked against the full-grid
effect, every cut the code picks against its bound, the bound itself on random
positive matrices, and the norm against the wider cut it replaced, kept in
``oracles``.  The last section checks
the factored plane-wave tables and the real cell block against the direct forms
kept in ``oracles``.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.signal import fftconvolve

from covpom import phasespace
from covpom.cli import _parse_state
from covpom.grids import symmetric_grid
from covpom.hilbert import RectCell, make_state
from covpom.phasespace import (
    SUPPORT_TOL,
    _exp_i_outer,
    _gl_rule,
    _support,
    gaussian_wavefunction,
    hermite_wavefunction,
    phase_space_cell_norm,
    phase_space_density,
    phase_space_effect,
    resolution_of_identity_defect,
)
from covpom.posmom import grid_wavefunctions
from oracles import complex_symbol_block, full_grid_roi_gram, wide_cut_cell_norm

HALF_WIDTH = 8.0
N_MODES = 4
TOL = 1e-12


# --- the former quadrature loops ---------------------------------------------


def gl_panels(lo, hi, order, max_panel):
    xs, ws = leggauss(order)
    n_panels = max(1, int(np.ceil((hi - lo) / max_panel)))
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def smooth_translate(values, grid, q):
    k = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * k * q))


def oracle_effect(t_state, cell, grid, order=16, max_panel=2.0, p_panel=None):
    """Tensor Gauss-Legendre sum; ``p_panel`` (default ``max_panel``) for p."""
    q_nodes, q_w = gl_panels(cell.q_lo, cell.q_hi, order, max_panel)
    p_nodes, p_w = gl_panels(cell.p_lo, cell.p_hi, order, p_panel or max_panel)
    x = grid.positions()
    acc = np.zeros((grid.n, grid.n), dtype=complex)
    for q, wq in zip(q_nodes, q_w):
        phase = np.exp(1j * np.outer(x - q / 2, p_nodes))
        for wn, phi in zip(*grid_wavefunctions(t_state, grid)):
            cols = smooth_translate(phi, grid, q)[:, None] * phase
            acc += (cols * (wq * wn * p_w)) @ cols.conj().T
    return acc * grid.dx / (2 * np.pi)


def oracle_roi_gram(t_state, grid, half_width, n_test, order=16, max_panel=2.0):
    herm = np.stack([hermite_wavefunction(grid, k) for k in range(n_test)])
    q_nodes, q_w = gl_panels(-half_width, half_width, order, max_panel)
    p_nodes, p_w = gl_panels(-half_width, half_width, order, max_panel)
    x = grid.positions()
    m = np.zeros((n_test, n_test), dtype=complex)
    for q, wq in zip(q_nodes, q_w):
        phase = np.exp(1j * np.outer(x - q / 2, p_nodes))
        for wn, phi in zip(*grid_wavefunctions(t_state, grid)):
            a = (herm.conj() * smooth_translate(phi, grid, q)[None, :]) @ phase * grid.dx
            m += (a * (wq * wn * p_w)) @ a.conj().T
    return m / (2 * np.pi)


def oracle_density(t_state, s_state, qs, ps, grid):
    sw, sv = grid_wavefunctions(s_state, grid)
    x = grid.positions()
    out = np.zeros((qs.size, ps.size))
    for iq, q in enumerate(qs):
        phase = np.exp(1j * np.outer(x - q / 2, ps))
        for wn, phi in zip(*grid_wavefunctions(t_state, grid)):
            shifted = smooth_translate(phi, grid, q)
            overlaps = (sv.conj() * shifted[None, :]) @ phase * grid.dx
            out[iq] += wn * (sw @ (np.abs(overlaps) ** 2))
    return out / (2 * np.pi)


def oracle_leakage(t_state, s_state, grid, q_window, p_window):
    """The union bound with scipy's fftconvolve, as first written."""

    def outside(density, axis, window, step):
        inside = density[(axis >= window[0]) & (axis <= window[1])].sum() * step
        return max(density.sum() * step - inside, 0.0)

    tw, tv = grid_wavefunctions(t_state, grid)
    sw, sv = grid_wavefunctions(s_state, grid)
    x, p = grid.positions(), grid.momenta()
    e_t = (tw[:, None] * np.abs(np.roll(tv[:, ::-1], 1, axis=1)) ** 2).sum(axis=0)
    mu_s = (sw[:, None] * np.abs(sv) ** 2).sum(axis=0)
    conv_q = fftconvolve(mu_s, e_t) * grid.dx
    leak_q = outside(conv_q, np.linspace(2 * x[0], 2 * x[-1], conv_q.size), q_window, grid.dx)
    tv_hat = np.stack([grid.to_momentum(v) for v in tv])
    sv_hat = np.stack([grid.to_momentum(v) for v in sv])
    f_t = (tw[:, None] * np.abs(np.roll(tv_hat[:, ::-1], 1, axis=1)) ** 2).sum(axis=0)
    mu_s_hat = (sw[:, None] * np.abs(sv_hat) ** 2).sum(axis=0)
    conv_p = fftconvolve(mu_s_hat, f_t) * grid.dp
    leak_p = outside(conv_p, np.linspace(2 * p[0], 2 * p[-1], conv_p.size), p_window, grid.dp)
    return leak_q + leak_p


@contextmanager
def recorded_supports():
    """Every (i0, i1) that phasespace picks while the block runs."""
    cuts = []

    def record(mass, budget):
        cuts.append(_support(mass, budget))
        return cuts[-1]

    with mock.patch.object(phasespace, "_support", record):
        yield cuts


def norm_cut_bound(diagonal, i0, i1):
    """tr Z for Z = G_(I^c I^c), I = [i0, i1), which bounds ||G|| - ||G_II||."""
    return diagonal[:i0].sum() + diagonal[i1:].sum()


# --- strategies ----------------------------------------------------------------


def low_mode_state(grid, coefficients, weights):
    """Mixture of normalised combinations of the first Hermite functions."""
    modes = [hermite_wavefunction(grid, k) for k in range(N_MODES)]
    pairs = []
    for w, coeff in zip(weights, coefficients):
        pairs.append((w, sum(c * m for c, m in zip(coeff, modes))))
    return make_state(pairs)


@st.composite
def states(draw, max_rank=3, half_width=HALF_WIDTH):
    n = draw(st.sampled_from([64, 128, 256]))
    grid = symmetric_grid(n, half_width)
    rank = draw(st.integers(1, max_rank))
    parts = st.floats(-1.0, 1.0)
    coefficients = [
        np.array([complex(draw(parts), draw(parts)) + (k == 0) for k in range(N_MODES)])
        for _ in range(rank)
    ]
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(rank)]
    return grid, low_mode_state(grid, coefficients, weights)


@st.composite
def intervals(draw, lo, hi, max_width):
    width = draw(st.floats(0.1, max_width))
    start = draw(st.floats(lo, hi - width))
    return start, start + width


# --- properties ------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(case=states(), data=st.data())
def test_effect_and_norm_match_quadrature_oracle(case, data):
    # Cells anywhere in the window: near its edges the periodic translates
    # wrap, |x - x'| reaches the window length, and the oracle's p-rule needs
    # panels of 0.5 to converge there (with 2.0 it was off by up to 1.8e-10).
    grid, t = case
    p_max = min(np.pi / grid.dx, HALF_WIDTH)
    q_lo, q_hi = data.draw(intervals(-HALF_WIDTH, HALF_WIDTH - grid.dx, 4.0))
    p_lo, p_hi = data.draw(intervals(-p_max, p_max, 4.0))
    cell = RectCell(q_lo, q_hi, p_lo, p_hi)
    expected = oracle_effect(t, cell, grid, p_panel=0.5)
    got = phase_space_effect(t, cell, grid)
    assert np.linalg.norm(got - expected, 2) <= TOL
    top = np.linalg.eigvalsh(expected).max()
    assert abs(phase_space_cell_norm(t, cell, grid) - top) <= TOL


@settings(max_examples=10, deadline=None)
@given(case=states(), half_width=st.floats(2.0, 6.0), n_test=st.integers(2, 8))
def test_roi_gram_matches_quadrature_oracle(case, half_width, n_test):
    grid, t = case
    expected = oracle_roi_gram(t, grid, half_width, n_test)
    got = resolution_of_identity_defect(t, grid, half_width=half_width, n_test=n_test)
    assert np.abs(got.gram - expected).max() <= TOL
    assert got.defect == pytest.approx(np.linalg.norm(expected - np.eye(n_test), 2), abs=TOL)


@settings(max_examples=15, deadline=None)
@given(case=states(), s_rank=st.integers(1, 2), data=st.data())
def test_density_matches_per_q_oracle(case, s_rank, data):
    grid, t = case
    coefficients = [np.exp(1j * np.arange(N_MODES) * (k + 1)) for k in range(s_rank)]
    s = low_mode_state(grid, coefficients, [1.0] * s_rank)
    coords = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6)
    qs = np.array(data.draw(coords))
    ps = np.array(data.draw(coords))
    expected = oracle_density(t, s, qs, ps, grid)
    got = phase_space_density(t, s, qs, ps, grid)
    assert np.abs(got.values - expected).max() <= TOL
    window_q, window_p = (qs.min(), qs.max()), (ps.min(), ps.max())
    leak = oracle_leakage(t, s, grid, window_q, window_p)
    assert got.leakage_bound == pytest.approx(leak, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(case=states(half_width=2 * HALF_WIDTH), data=st.data())
def test_cut_norm_matches_dense_eigvalsh(case, data):
    # On the wider window central cells are cut; a third of the cells touch
    # an end, where the translates wrap round and put mass at both ends.
    grid, t = case
    half_width = grid.length / 2
    p_max = min(np.pi / grid.dx, HALF_WIDTH)
    q_lo, q_hi = data.draw(intervals(-half_width, half_width, 4.0))
    edge = data.draw(st.sampled_from(["none", "low", "high"]))
    if edge == "low":
        q_lo, q_hi = -half_width, q_hi - q_lo - half_width
    elif edge == "high":
        q_lo, q_hi = half_width - (q_hi - q_lo), half_width
    cell = RectCell(q_lo, q_hi, *data.draw(intervals(-p_max, p_max, 4.0)))
    effect = phase_space_effect(t, cell, grid)
    with recorded_supports() as cuts:
        norm = phase_space_cell_norm(t, cell, grid)
    assert abs(norm - np.linalg.eigvalsh(effect).max()) <= TOL
    [(i0, i1)] = cuts
    assert norm_cut_bound(np.diag(effect).real, i0, i1) <= SUPPORT_TOL


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 40),
    decay=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cut_lowers_the_top_eigenvalue_by_at_most_tr_z(dim, decay, seed, data):
    # G = X X* of any rank, rows scaled down away from a random centre so that
    # some cuts leave little mass outside, where the bound is tight
    rank = data.draw(st.integers(1, dim))
    i0 = data.draw(st.integers(0, dim - 1))
    i1 = data.draw(st.integers(i0 + 1, dim))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    x *= np.exp(-decay * np.abs(np.arange(dim) - rng.uniform(0, dim)))[:, None]
    g = x @ x.conj().T
    outside = np.r_[:i0, i1:dim]
    z = g[np.ix_(outside, outside)]
    top = np.linalg.eigvalsh(g)[-1]
    top_a = np.linalg.eigvalsh(g[i0:i1, i0:i1])[-1]
    top_z = np.linalg.eigvalsh(z)[-1] if outside.size else 0.0
    slack = 1e-12 * top
    assert -slack <= top - top_a <= top_z + slack
    assert top_z <= np.trace(z).real + slack


@st.composite
def cli_states(draw, grid):
    """A Gaussian with the CLI's a, b, center and momentum, or a Fock mixture of rank 1-3."""
    if draw(st.booleans()):
        spec = {
            "kind": "gaussian", "a": draw(st.floats(0.2, 2.0)), "b": draw(st.floats(-1.0, 1.0)),
            "center": draw(st.floats(-3.0, 3.0)), "momentum": draw(st.floats(-3.0, 3.0)),
        }
    else:
        levels = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
        spec = {"kind": "mixture", "components": [
            {"weight": draw(st.floats(0.1, 1.0)), "state": {"kind": "fock", "k": k}}
            for k in levels
        ]}
    return _parse_state(spec, grid)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([256, 512, 1024]), h=st.floats(0.25, 3.0), data=st.data())
def test_cut_norm_matches_wide_cut_oracle(n, h, data):
    # off-centre cells, and cells at a window edge, where the translates wrap round
    grid = symmetric_grid(n, 16.0)
    t = data.draw(cli_states(grid))
    q0, p0 = data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(-3.0, 3.0))
    edge = data.draw(st.sampled_from(["none", "low", "high"]))
    q_lo, q_hi = {"none": (q0 - h, q0 + h), "low": (-16.0, 2 * h - 16.0),
                  "high": (16.0 - 2 * h, 16.0)}[edge]
    cell = RectCell(q_lo, q_hi, p0 - h, p0 + h)
    with recorded_supports() as cuts:
        norm = phase_space_cell_norm(t, cell, grid)
    expected, (j0, j1) = wide_cut_cell_norm(t, cell, grid)
    assert abs(norm - expected) <= SUPPORT_TOL
    [(i0, i1)] = cuts
    assert i1 - i0 <= j1 - j0


# --- fixed cases -------------------------------------------------------------------


def test_default_rule_matches_oracle_away_from_edges():
    # The former loops with their own p-rule (panels of 2.0), unchanged.
    grid = symmetric_grid(256, 12.0)
    t = make_state([(1.0, gaussian_wavefunction(grid))])
    for half in (0.5, 2.5, 5.0):
        cell = RectCell(-half, half, -half, half)
        expected = oracle_effect(t, cell, grid)
        got = phase_space_effect(t, cell, grid)
        assert np.linalg.norm(got - expected, 2) <= TOL


@pytest.mark.parametrize("order", [2, 12, 16, 40])
def test_cached_rule_equals_fresh_leggauss(order):
    xs, ws = _gl_rule(order)
    assert _gl_rule(order)[0] is xs
    fresh = leggauss(order)
    np.testing.assert_array_equal(xs, fresh[0])
    np.testing.assert_array_equal(ws, fresh[1])
    assert not xs.flags.writeable and not ws.flags.writeable


def test_gate_10_norms_unchanged():
    grid = symmetric_grid(512, 16.0)
    t = make_state([(1.0, gaussian_wavefunction(grid))])
    printed = {0.5: 0.146631584, 1.5: 0.751196470, 2.5: 0.976936253, 5.0: 0.999999631}
    for half, value in printed.items():
        norm = phase_space_cell_norm(t, RectCell(-half, half, -half, half), grid)
        assert norm == pytest.approx(value, abs=1e-9)
        assert math.erf(half / math.sqrt(2)) ** 2 - TOL <= norm <= 1 - math.exp(-half**2)


def test_support_keeps_the_grid_when_mass_sits_at_both_ends():
    mass = np.zeros(64)
    mass[[0, -1]] = 1.0
    assert _support(mass, 1e-26) == (0, 64)


def test_support_trims_all_zero_tails():
    mass = np.zeros(64)
    mass[20:30] = 1.0
    assert _support(mass, 0.0) == (20, 30)


def test_support_of_fewer_than_two_points_is_the_grid():
    mass = np.zeros(64)
    mass[20] = 1.0
    assert _support(mass, 0.0) == (0, 64)


@pytest.mark.parametrize("budget", [1e-30, 1e-26, 1e-3])
def test_support_is_the_widest_cut_within_budget(budget):
    x = np.linspace(-10.0, 12.0, 256)
    mass = np.exp(-(x**2))
    i0, i1 = _support(mass, budget)
    assert 0 < i0 < i1 < mass.size
    assert mass[:i0].sum() <= budget / 2 and mass[i1:].sum() <= budget / 2
    assert mass[: i0 + 1].sum() > budget / 2 and mass[i1 - 1 :].sum() > budget / 2


@pytest.mark.parametrize("half", [0.5, 2.5])
@pytest.mark.parametrize("n", [512, 1024])
def test_norm_supports_are_cut_within_the_bound(n, half):
    grid = symmetric_grid(n, 16.0)
    t = make_state([(1.0, gaussian_wavefunction(grid, center=1.0))])
    cell = RectCell(1.0 - half, 1.0 + half, -half, half)
    effect = phase_space_effect(t, cell, grid)
    with recorded_supports() as cuts:
        norm = phase_space_cell_norm(t, cell, grid)
    [(i0, i1)] = cuts
    assert i1 - i0 < 0.7 * n
    assert norm_cut_bound(np.diag(effect).real, i0, i1) <= SUPPORT_TOL
    assert abs(norm - np.linalg.eigvalsh(effect).max()) <= TOL


def test_cut_is_narrower_than_the_wide_cut():
    grid = symmetric_grid(1024, 16.0)
    t = make_state([(1.0, gaussian_wavefunction(grid, center=1.0))])
    cell = RectCell(0.5, 1.5, -0.5, 0.5)
    with recorded_supports() as cuts:
        norm = phase_space_cell_norm(t, cell, grid)
    expected, (j0, j1) = wide_cut_cell_norm(t, cell, grid)
    [(i0, i1)] = cuts
    assert (i1 - i0, j1 - j0) == (343, 489)
    assert abs(norm - expected) <= SUPPORT_TOL


@pytest.mark.parametrize("n_test", [12, 13])
@pytest.mark.parametrize("n", [256, 512])
def test_roi_gram_matches_full_grid_at_cli_sizes(n, n_test):
    grid = symmetric_grid(n, 20.0)
    t = make_state(
        [(1.0, gaussian_wavefunction(grid, a=0.4, center=1.2, momentum=-0.8))]
    )
    with recorded_supports() as cuts:
        got = resolution_of_identity_defect(t, grid, half_width=10.0, n_test=n_test)
    expected = full_grid_roi_gram(t, grid, 10.0, n_test)
    assert np.abs(got.gram - expected).max() <= TOL
    [(i0, i1)] = cuts
    assert i1 - i0 < n
    herm = np.stack([hermite_wavefunction(grid, k) for k in range(n_test)])
    mass = (np.abs(herm) ** 2).sum(axis=0) * grid.dx
    assert mass[:i0].sum() + mass[i1:].sum() <= SUPPORT_TOL**2


# --- the factored plane waves and the real in-place cell block ----------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(16, 65536),
    kind=st.sampled_from(["fftfreq", "arange", "one"]),
    theta=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_exp_i_outer_matches_direct_exp(n, kind, theta, data):
    if kind == "fftfreq":
        m = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    elif kind == "arange":
        m = np.arange(n)
    else:
        m = np.array([data.draw(st.integers(-n, n))])
    theta = np.array(theta)
    expected = np.exp(1j * np.outer(theta, m))
    got = _exp_i_outer(theta, m)
    assert got.shape == expected.shape and got.flags.c_contiguous
    eps = np.finfo(float).eps
    assert np.abs(got - expected).max() <= 8 * eps * (1 + np.abs(np.outer(theta, m)).max())


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("half", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("n", [256, 512, 1024])
def test_real_cell_block_matches_complex_symbol(n, half, rank):
    # an off-centre cell, so the momentum phase carried by the bank is not trivial
    grid = symmetric_grid(n, 16.0)
    coefficients = [np.exp(1j * np.arange(N_MODES) * (k + 1)) for k in range(rank)]
    t = low_mode_state(grid, coefficients, [1.0 / (k + 1) for k in range(rank)])
    cell = RectCell(0.4 - half, 0.4 + half, -0.7 - half, -0.7 + half)
    expected = complex_symbol_block(t, cell, grid, 0, n)
    got = phase_space_effect(t, cell, grid)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_roi_cycles_one_row_buffer():
    grid = symmetric_grid(256, 20.0)
    t = make_state(
        [(1.0, gaussian_wavefunction(grid, a=0.4, center=1.2, momentum=-0.8))]
    )
    with recorded_supports() as cuts:
        resolution_of_identity_defect(t, grid, half_width=10.0, n_test=12)
    [(i0, i1)] = cuts
    m = i1 - i0
    step = m // 4 - 1  # four full blocks of rows, then a short one
    assert m % step and m // step >= 3
    kernel_rows = phasespace._kernel_rows
    blocks = []

    def recorded_rows(*args):
        for a, b, rows in kernel_rows(*args):
            blocks.append((a, b, rows.__array_interface__["data"][0]))
            yield a, b, rows

    with mock.patch.object(phasespace, "BLOCK_ENTRIES", step * m), \
            mock.patch.object(phasespace, "_kernel_rows", recorded_rows):
        got = resolution_of_identity_defect(t, grid, half_width=10.0, n_test=12)
    assert [(a, b) for a, b, _ in blocks] == [(a, min(a + step, m)) for a in range(0, m, step)]
    assert len(blocks) >= 3 and blocks[-1][1] - blocks[-1][0] < step
    assert len({address for _, _, address in blocks}) == 1
    expected = full_grid_roi_gram(t, grid, 10.0, 12)
    assert np.abs(got.gram - expected).max() <= TOL
