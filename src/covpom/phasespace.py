"""Covariant phase-space observables on a 1D grid and on Z_d x Z_d.

The continuous system uses the projective representation
(W(q, p) psi)(x) = exp(i p (x - q/2)) psi(x - q) on a periodic grid.  The
user-facing ``weyl_apply`` snaps (q, p) to the grid lattices, which keeps the
operator exactly unitary and the composition law exact up to a global phase.
Operator-valued integrals (cell effects, identity-resolution checks) instead
translate by Fourier phases: that variant is equally unitary but analytic in
q, which Gauss-Legendre quadrature needs; snapped translates would present a
staircase integrand and stall convergence at O(dx).

Densities h(q, p) = tr[S W(q,p) T W(q,p)*] / 2pi, cell effects
G_T(Z) = (1/2pi) integral over Z of W T W*, their position/momentum margins,
and the exact finite Weyl-Heisenberg system on Z_d are provided, with
resolution-of-identity and covariance checks reporting explicit defects.
A wave function is a plain array of its grid samples of unit grid norm, and a
grid state, pure or mixed, is ``hilbert.make_state`` of such arrays: their
mixture, whether or not they are orthogonal.

W T W* has kernel sum_n w_n e^{ip(x-x')} phi_n(x-q) conj(phi_n(x'-q)), so the
p-integral is exact: G_T(Z) = S_0 o (B B*), with o the entrywise product, S_0 the
real Toeplitz (dx/2pi) width sinc(width (x - x')/2), width = p_hi - p_lo, and B the
bank of translates sqrt(w_n w_q) phi_n(. - q) e^{i mu x} at the nodes of a composite
Gauss-Legendre rule in q; e^{i mu x}, mu the mid-momentum, carries the phase of the
p-integral.  Rows of G are GEMMs scaled by S_0 in place; plane waves use _exp_i_outer.

Cell norms and identity-resolution Grams run on the support cut I = [i0, i1),
the grid with its massless ends trimmed.  G is positive, with diagonal
G_ii = (dx/2pi)(p_hi - p_lo)||B_i||^2; for A = G_II and Z = G_(I^c I^c), positivity bounds
the block G_(I I^c) by sqrt(||A|| ||Z||), so a unit x has x* G x <= (sqrt||A|| |x_I| +
sqrt||Z|| |x_I^c|)^2 <= ||A|| + ||Z||: ||A|| <= ||G|| <= ||A|| + tr Z, and the norm's cut
keeps tr Z at most SUPPORT_TOL.  The Gram H* G H is cut where the Hermite test functions
leave at most SUPPORT_TOL^2 of sum_k ||h_k||^2 outside I; that moves it by about 2 SUPPORT_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss

from .abelian import FiniteAbelianGroup, MonomialUnitaries
from .grids import BLOCK_ENTRIES, Grid1D
from .hilbert import Outcome, PointCell, Pom, RectCell, State, _lanczos_norm
from .posmom import ProbMeasure1D, WindowLeakageError, _state_densities, grid_wavefunctions

__all__ = [
    "WeylApplied",
    "weyl_apply",
    "gaussian_wavefunction",
    "hermite_wavefunction",
    "DensityResult",
    "phase_space_density",
    "phase_space_effect",
    "phase_space_pom",
    "phase_space_cell_norm",
    "RoiReport",
    "resolution_of_identity_defect",
    "margins_of_GT",
    "finite_weyl_pom",
    "finite_weyl_unitaries",
]

DEFAULT_HALF_WIDTH = 20.0
SUPPORT_TOL = 1e-13  # spectral error a support cut may cause (see the module docstring)
MAX_PANEL = 2.0  # widest q-panel of the composite Gauss-Legendre rule


# --- states on the grid -----------------------------------------------------


def gaussian_wavefunction(
    grid: Grid1D, a: float = 0.5, b: float = 0.0, center: float = 0.0, momentum: float = 0.0
) -> np.ndarray:
    """Samples of the Gaussian packet (2a/pi)^(1/4) exp(-(a+ib)(x-c)^2 + i p0 x), unit grid norm."""
    if a <= 0:
        raise ValueError("width parameter a must be positive")
    x = grid.positions()
    vals = (2 * a / np.pi) ** 0.25 * np.exp(
        -(a + 1j * b) * (x - center) ** 2 + 1j * momentum * x
    )
    norm = grid.norm(vals)
    if not norm:
        raise ValueError(f"the Gaussian at {center} vanishes on the grid")
    return vals / norm


def hermite_wavefunction(grid: Grid1D, k: int) -> np.ndarray:
    """Samples of the k-th Hermite function (oscillator number state), unit grid norm."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    x = grid.positions()
    h_prev, h_cur = 0.0, np.pi**-0.25 * np.exp(-(x**2) / 2)
    for m in range(1, k + 1):
        h_cur, h_prev = np.sqrt(2.0 / m) * x * h_cur - np.sqrt((m - 1) / m) * h_prev, h_cur
    return h_cur / grid.norm(h_cur)


# --- the Weyl system ---------------------------------------------------------


@dataclass(frozen=True)
class WeylApplied:
    psi: np.ndarray
    q: float
    p: float
    snap_distance: float


def weyl_apply(q: float, p: float, psi: np.ndarray, grid: Grid1D) -> WeylApplied:
    """Phase-space translation of the samples ``psi`` with (q, p) snapped to the grid lattices.

    q snaps to multiples of dx and p to multiples of 2 pi/(n dx); the snap
    distance is reported.  The snapped operator is exactly unitary on the
    periodic grid and satisfies the composition law up to a global phase.
    """
    a = int(round(q / grid.dx))
    b = int(round(p / grid.dp))
    q_s = a * grid.dx
    p_s = b * grid.dp
    snap = math.hypot(q - q_s, p - p_s)
    x = grid.positions()
    vals = np.exp(1j * p_s * (x - q_s / 2)) * np.roll(psi, a)
    return WeylApplied(vals, q_s, p_s, snap)


def _exp_i_outer(theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """exp(i theta_a m_j) for integers m = base + w hi + lo, 0 <= lo < w = ceil(sqrt(span)).

    The product of the gathered tables exp(i theta (base + w hi)) and exp(i theta lo), about
    sqrt(span) exps per theta; integer arguments keep the direct form's error, |theta m| eps.
    """
    base = int(m.min())
    w = math.isqrt(int(m.max()) - base) + 1
    hi, lo = np.divmod(m - base, w)
    out = np.exp(1j * np.outer(theta, base + w * np.arange(hi.max() + 1))).take(hi, axis=1)
    out *= np.exp(1j * np.outer(theta, np.arange(w))).take(lo, axis=1)
    return out


def _translates(vecs: np.ndarray, grid: Grid1D, qs: np.ndarray) -> np.ndarray:
    """Fourier translates phi(. - q), analytic in q: shape (len(qs), len(vecs), n)."""
    freqs = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
    out = np.fft.fft(vecs, axis=-1)[None] * _exp_i_outer(-grid.dp * qs, freqs)[:, None]
    return np.fft.ifft(out, axis=-1)


# --- the phase-space kernel --------------------------------------------------

def _reflect_samples(values: np.ndarray) -> np.ndarray:
    """Samples of x -> f(-x) on a symmetric periodic grid (index 0 fixed)."""
    return np.roll(values[::-1], 1)


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    xs, ws = leggauss(order)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def _gl_panels(lo: float, hi: float, order: int):
    """Composite Gauss-Legendre nodes/weights with panels at most MAX_PANEL wide."""
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    xs, ws = _gl_rule(order)
    edges = np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / MAX_PANEL))) + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:])[:, None], 0.5 * np.diff(edges)[:, None]
    return (mid + half * xs).ravel(), (half * ws).ravel()


def _bank(t_state: State, cell: RectCell, grid: Grid1D, order: int):
    """B*, for the n x (r K_q) bank B of sqrt(w_n w_q) phi_n(. - q) e^{i mu x}, mu mid-cell."""
    q_nodes, q_w = _gl_panels(cell.q_lo, cell.q_hi, order)
    tw, tv = grid_wavefunctions(t_state, grid)
    bank = _translates(tv * np.sqrt(tw)[:, None], grid, q_nodes)
    bank *= np.sqrt(q_w)[:, None, None] * np.exp(0.5j * (cell.p_hi + cell.p_lo) * grid.positions())
    return np.conjugate(bank, out=bank).reshape(-1, grid.n)


def _kernel_rows(
    bank_h: np.ndarray, cell: RectCell, grid: Grid1D, i0: int, i1: int, step: int
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield (a, b, rows [a, b) of G_T(cell)) on the index block [i0, i1)^2, m = i1 - i0.

    a and b count from i0.  The rows, ``step`` at a time, are one GEMM written in
    place into one reused buffer, valid only until the next step, times the real
    Toeplitz S_0 in place, kept as S_0(k dx), k = 1-m .. m-1, and gathered per
    block by a strided view.
    """
    m = i1 - i0
    bank = np.ascontiguousarray(bank_h[:, i0:i1])
    c = (cell.p_hi - cell.p_lo) * grid.dx / (2 * np.pi)
    toeplitz = sliding_window_view(c * np.sinc(c * np.arange(1 - m, m)), m)  # row a: [m - 1 - a]
    buf = np.empty((min(step, m), m), dtype=complex)
    for a in range(0, m, len(buf)):
        b = min(a + len(buf), m)
        np.matmul(bank[:, a:b].T.conj(), bank, out=buf[: b - a])
        buf[: b - a] *= toeplitz[m - b : m - a][::-1]
        yield a, b, buf[: b - a]


def _support(mass: np.ndarray, budget: float) -> Tuple[int, int]:
    """Widest [i0, i1) leaving at most ``budget`` of ``mass`` outside, half at each end.

    Mass at both ends (translates wrapping round the periodic window) keeps the
    whole grid, as does a cut of fewer than two points.
    """
    tail = 0.5 * budget
    i0 = int(np.searchsorted(np.cumsum(mass), tail, side="right"))
    i1 = mass.size - int(np.searchsorted(np.cumsum(mass[::-1]), tail, side="right"))
    return (i0, i1) if i1 - i0 >= 2 else (0, mass.size)


# --- phase-space density -----------------------------------------------------


@dataclass(frozen=True)
class DensityResult:
    qs: np.ndarray
    ps: np.ndarray
    values: np.ndarray
    leakage_bound: float


def _marginal_leakage(
    t_state: State, s_state: State, grid: Grid1D,
    q_window: Tuple[float, float], p_window: Tuple[float, float],
) -> float:
    """Union bound on the probability mass outside the requested window.

    Each margin of the joint observable is |S|^2 convolved with the reflected
    |T|^2, a linear convolution done by zero-padded FFT.
    """
    size = 2 * grid.n - 1
    leak = 0.0
    for mu_t, mu_s, axis, window, step in zip(
        _state_densities(t_state, grid), _state_densities(s_state, grid),
        (grid.positions(), grid.momenta()), (q_window, p_window), (grid.dx, grid.dp),
    ):
        e_t = _reflect_samples(mu_t)
        conv = np.fft.irfft(np.fft.rfft(mu_s, size) * np.fft.rfft(e_t, size), size) * step
        full = np.linspace(2 * axis[0], 2 * axis[-1], size)
        inside = conv[(full >= window[0]) & (full <= window[1])].sum() * step
        leak += max(conv.sum() * step - inside, 0.0)
    return float(leak)


def phase_space_density(
    t_state: State,
    s_state: State,
    qs: np.ndarray,
    ps: np.ndarray,
    grid: Grid1D,
) -> DensityResult:
    """Sample h(q, p) = tr[S W(q,p) T W(q,p)*] / 2pi on a rectangular lattice.

    For a Gaussian T this is a Husimi-type density of S.  A union bound on
    the probability mass of the joint observable outside the sampled window
    is reported as ``leakage_bound``; judging it is left to the caller.
    All overlaps <s_m, W(q,p) phi_n> come from one product with exp(i p j dx) at
    x = x0 + j dx; the phases exp(i p x0) and exp(-i p q/2) drop out of |.|^2.
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    tw, tv = grid_wavefunctions(t_state, grid)
    sw, sv = grid_wavefunctions(s_state, grid)
    integrands = sv.conj()[None, None] * _translates(tv, grid, qs)[:, :, None]
    overlaps = integrands.reshape(-1, grid.n) @ _exp_i_outer(ps * grid.dx, np.arange(grid.n)).T
    power = np.abs(overlaps.reshape(qs.size, tw.size, sw.size, ps.size)) ** 2
    out = np.einsum("t,s,qtsp->qp", tw, sw, power) * (grid.dx**2 / (2 * np.pi))
    leak = _marginal_leakage(t_state, s_state, grid, (qs.min(), qs.max()), (ps.min(), ps.max()))
    return DensityResult(qs, ps, out, leak)


# --- cell effects -------------------------------------------------------------


def _check_cell_in_window(cell: RectCell, grid: Grid1D) -> None:
    x = grid.positions()
    p_half = np.pi / grid.dx
    if cell.q_lo < x[0] - grid.dx or cell.q_hi > x[-1] + grid.dx:
        raise ValueError("cell q-range outside the representable window")
    if cell.p_lo < -p_half or cell.p_hi > p_half:
        raise ValueError("cell p-range outside the representable momentum window")


def phase_space_effect(
    t_state: State,
    cell: RectCell,
    grid: Grid1D,
    order: int = 16,
) -> np.ndarray:
    """G_T(Z) = (1/2pi) integral over the cell of W(q,p) T W(q,p)*.

    The p-integral is exact: the bank carries e^{i mu x}, leaving the real Toeplitz
    S_0 of the module docstring.  ``order`` sets only the composite Gauss-Legendre
    rule in q, whose panels are at most MAX_PANEL wide.  The translates use Fourier
    phases, so the q-integrand is analytic and the rule converges spectrally.  One
    GEMM into one n x n buffer, scaled by S_0 in place, is the only n x n array built.
    """
    _check_cell_in_window(cell, grid)
    bank_h = _bank(t_state, cell, grid, order)
    return next(_kernel_rows(bank_h, cell, grid, 0, grid.n, grid.n))[2]


def phase_space_cell_norm(
    t_state: State, cell: RectCell, grid: Grid1D, order: int = 16
) -> float:
    """Spectral norm of the cell effect (strictly below one on bounded cells).

    The effect G is positive, so its norm is its largest eigenvalue, found by
    Lanczos from a fixed start on the block A = G_II of the support cut I, which
    lowers it by at most tr Z <= SUPPORT_TOL, Z the block cut off (module docstring).
    """
    _check_cell_in_window(cell, grid)
    bank_h = _bank(t_state, cell, grid, order)
    mass = (np.abs(bank_h) ** 2).sum(axis=0) * ((cell.p_hi - cell.p_lo) * grid.dx / (2 * np.pi))
    i0, i1 = _support(mass, SUPPORT_TOL)  # the mass outside I is tr Z
    _, _, mat = next(_kernel_rows(bank_h, cell, grid, i0, i1, i1 - i0))
    start = np.random.default_rng(0).standard_normal(grid.n)[i0:i1]
    return _lanczos_norm(mat.dot, start)


def phase_space_pom(
    t_state: State,
    cells: Sequence[RectCell],
    grid: Grid1D,
    order: int = 16,
) -> Pom:
    """POM from disjoint cells plus the complement effect I - sum G(Z_i), in one stack."""
    effects = np.empty((len(cells) + 1, grid.n, grid.n), dtype=complex)
    for i, c in enumerate(cells):
        effects[i] = phase_space_effect(t_state, c, grid, order)
    np.subtract(np.eye(grid.n), effects[:-1].sum(0), out=effects[-1])
    outcomes = [
        Outcome(f"q[{c.q_lo:.3g},{c.q_hi:.3g}) p[{c.p_lo:.3g},{c.p_hi:.3g})", c)
        for c in cells
    ]
    lim = np.pi / grid.dx
    outcomes.append(Outcome("outside-window", RectCell(grid.x0, grid.x0 + grid.length, -lim, lim)))
    return Pom("phase-space cells", tuple(outcomes), effects)


# --- resolution of identity --------------------------------------------------


@dataclass(frozen=True)
class RoiReport:
    defect: float
    n_test: int
    subspace: str
    gram: np.ndarray


def resolution_of_identity_defect(
    t_state: State,
    grid: Grid1D,
    *,
    n_test: int,
    half_width: float = DEFAULT_HALF_WIDTH,
    order: int = 16,
) -> RoiReport:
    """Defect of (1/2pi) integral over the window of W T W* against identity.

    The operator identity holds over the whole plane; on a finite window it
    is measured against the span of the first ``n_test`` Hermite functions
    (states whose position and momentum content fits the window), as the
    matrix M_ij = <h_i, G h_j>.  The defect is ||M - I||.  M is accumulated
    over blocks of kernel rows on the test functions' support cut, which moves
    it by about 2 SUPPORT_TOL (module docstring), so no n x n array is built.
    """
    herm = np.stack([hermite_wavefunction(grid, k) for k in range(n_test)])
    i0, i1 = _support((np.abs(herm) ** 2).sum(axis=0) * grid.dx, SUPPORT_TOL**2)
    herm = herm[:, i0:i1]
    window = RectCell(-half_width, half_width, -half_width, half_width)
    bank_h = _bank(t_state, window, grid, order)
    m = np.zeros((n_test, n_test), dtype=complex)
    step = max(1, BLOCK_ENTRIES // (i1 - i0))
    for a, b, rows in _kernel_rows(bank_h, window, grid, i0, i1, step):
        m += grid.dx * (herm[:, a:b].conj() @ (rows @ herm.T))
    defect = float(np.linalg.norm(m - np.eye(n_test), 2))
    return RoiReport(defect, n_test, "hermite", m)


# --- margins -----------------------------------------------------------------


def margins_of_GT(t_state: State, grid: Grid1D) -> Tuple[ProbMeasure1D, ProbMeasure1D]:
    """Position and momentum margins of the covariant observable built on T.

    The position margin has density e(q) = sum_n w_n |phi_n(-q)|^2 and the
    momentum margin f(p) = sum_n w_n |phi_n_hat(-p)|^2, both on the grid's
    lattices.  Requires a symmetric grid so the reflection lands on nodes.
    """
    if abs(grid.x0 + grid.length / 2) > 1e-12 * grid.length:
        raise ValueError("margins need a symmetric grid (x0 = -n dx / 2)")
    e, f = (_reflect_samples(mu) for mu in _state_densities(t_state, grid))
    rho = ProbMeasure1D.from_density(grid, e)
    nu = ProbMeasure1D.from_density(grid.momentum_grid(), f)
    mass_e = float(np.sum(e) * grid.dx)
    mass_f = float(np.sum(f) * grid.dp)
    if abs(mass_e - 1.0) > 1e-8 or abs(mass_f - 1.0) > 1e-8:
        raise WindowLeakageError(f"margin masses {mass_e}, {mass_f} deviate from 1 beyond 1e-8")
    return rho, nu


# --- the finite Weyl-Heisenberg system ---------------------------------------


def finite_weyl_unitaries(d: int) -> MonomialUnitaries:
    """W_(a,b) = Z^b X^a on Z_d x Z_d, with X the cyclic shift and Z the clock phase.

    W_(a,b) is monomial: (W_(a,b) v)_j = exp(2 pi i b j / d) v_(j - a).
    """
    group = FiniteAbelianGroup((d, d))
    j = np.arange(d)
    clock = np.exp(2j * np.pi * j / d)

    def phases_and_sources(codes):
        a, b = np.divmod(codes, d)
        return clock[b[:, None] * j % d], (j - a[:, None]) % d

    return MonomialUnitaries(group, d, phases_and_sources)


def finite_weyl_pom(d: int, t_state: State) -> Pom:
    """Covariant POM over Z_d x Z_d: effects (1/d) W_(a,b) T W_(a,b)*, one ``conjugate`` stack.

    Normalisation is exact by the orthogonality of the discrete Weyl
    operators, and covariance under the projective Weyl action is exact
    because the composition phases cancel in conjugation.  ``t_state`` is
    taken as checked where it was made (``make_state``, ``State.from_operator``
    or ``io.state_from_json``).
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    if t_state.dim != d:
        raise ValueError("state dimension does not match d")
    effects = finite_weyl_unitaries(d).conjugate(np.arange(d * d), t_state.op / d)
    outcomes = tuple(
        Outcome(f"({a},{b})", PointCell((a, b))) for a in range(d) for b in range(d)
    )
    return Pom(f"Z_{d} x Z_{d} phase space", outcomes, effects)
