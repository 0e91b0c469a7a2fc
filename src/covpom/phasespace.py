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

W T W* has kernel sum_n w_n e^{ip(x-x')} phi_n(x-q) conj(phi_n(x'-q)), so the
p-integral over [p_lo, p_hi) is exact, the Toeplitz S(x-x') with
S(d) = (e^{i p_hi d} - e^{i p_lo d}) / (i d); only q is integrated by a
composite Gauss-Legendre rule.  Then G_T(Z) = (dx/2pi) S o (B B*), with o the
entrywise product and B the bank of weighted translates sqrt(w_n w_q) phi_n(. - q).

Cell norms and identity-resolution Grams run on the support cut I = [i0, i1),
the grid with its massless ends trimmed.  G is positive, with diagonal
G_ii = (dx/2pi)(p_hi - p_lo)||B_i||^2; for A = G_II and Z = G_(I^c I^c),
interlacing and ||G_(I I^c)||^2 <= ||A|| ||Z|| give
0 <= ||G|| - ||A|| <= sqrt(tr A tr Z) + tr Z, kept at most SUPPORT_TOL.  The
Gram H* G H is cut where the Hermite test functions leave at most SUPPORT_TOL^2
of sum_k ||h_k||^2 outside I; as ||G|| <= 1, that moves it by about 2 SUPPORT_TOL.
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
from .grids import BLOCK_ENTRIES, Grid1D, WaveFunction
from .hilbert import Effect, Operator, Outcome, PointCell, Pom, RectCell, State, _lanczos_norm
from .posmom import ProbMeasure1D, WindowLeakageError, _state_densities, grid_wavefunctions

__all__ = [
    "WeylApplied",
    "weyl_apply",
    "gaussian_wavefunction",
    "hermite_wavefunction",
    "state_from_wavefunctions",
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
    "finite_weyl_action",
]

DEFAULT_HALF_WIDTH = 20.0
SUPPORT_TOL = 1e-13  # spectral error a support cut may cause (see the module docstring)
MAX_PANEL = 2.0  # widest q-panel of the composite Gauss-Legendre rule


# --- states on the grid -----------------------------------------------------


def gaussian_wavefunction(
    grid: Grid1D, a: float = 0.5, b: float = 0.0, center: float = 0.0, momentum: float = 0.0
) -> WaveFunction:
    """Normalised Gaussian packet (2a/pi)^(1/4) exp(-(a+ib)(x-c)^2 + i p0 x)."""
    if a <= 0:
        raise ValueError("width parameter a must be positive")
    x = grid.positions()
    vals = (2 * a / np.pi) ** 0.25 * np.exp(
        -(a + 1j * b) * (x - center) ** 2 + 1j * momentum * x
    )
    return WaveFunction(grid, vals).normalised()


def hermite_wavefunction(grid: Grid1D, k: int) -> WaveFunction:
    """k-th Hermite function (harmonic-oscillator number state) on the grid."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    x = grid.positions()
    h_prev = np.pi**-0.25 * np.exp(-(x**2) / 2)
    if k == 0:
        return WaveFunction(grid, h_prev).normalised()
    h_cur = np.sqrt(2.0) * x * h_prev
    for m in range(2, k + 1):
        h_cur, h_prev = (
            np.sqrt(2.0 / m) * x * h_cur - np.sqrt((m - 1) / m) * h_prev,
            h_cur,
        )
    return WaveFunction(grid, h_cur).normalised()


def state_from_wavefunctions(pairs: Sequence[Tuple[float, WaveFunction]]) -> State:
    """Mixture sum_i w_i |psi_i><psi_i| of normalised wave functions, grid-embedded.

    Components need not be orthogonal: the state is V V* with V = [sqrt(w_i) psi_i],
    and the thin SVD V = U diag(s) Y* gives its factor (s^2, U); U is already
    orthonormal, so no second orthonormalisation runs.
    """
    grids = {psi.grid for _, psi in pairs}
    if len(grids) != 1:
        raise ValueError("wave functions must share one grid")
    grid = grids.pop()
    weights = np.array([float(w) for w, _ in pairs])
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("mixture weights must be nonnegative with positive sum")
    factor = np.stack(
        [psi.normalised().values * np.sqrt(grid.dx) for _, psi in pairs], axis=1
    ) * np.sqrt(weights / weights.sum())
    vecs, sing, _ = np.linalg.svd(factor, full_matrices=False)
    power = sing[sing > sing[0] * max(factor.shape) * np.finfo(float).eps] ** 2
    return State(power / power.sum(), vecs.T[: power.size])


# --- the Weyl system ---------------------------------------------------------


@dataclass(frozen=True)
class WeylApplied:
    psi: WaveFunction
    q: float
    p: float
    snap_distance: float


def weyl_apply(q: float, p: float, psi: WaveFunction) -> WeylApplied:
    """Phase-space translation with (q, p) snapped to the grid lattices.

    q snaps to multiples of dx and p to multiples of 2 pi/(n dx); the snap
    distance is reported.  The snapped operator is exactly unitary on the
    periodic grid and satisfies the composition law up to a global phase.
    """
    grid = psi.grid
    a = int(round(q / grid.dx))
    b = int(round(p / grid.dp))
    q_s = a * grid.dx
    p_s = b * grid.dp
    snap = math.hypot(q - q_s, p - p_s)
    x = grid.positions()
    vals = np.exp(1j * p_s * (x - q_s / 2)) * np.roll(psi.values, a)
    return WeylApplied(WaveFunction(grid, vals), q_s, p_s, snap)


def _translates(vecs: np.ndarray, grid: Grid1D, qs: np.ndarray) -> np.ndarray:
    """Fourier translates phi(. - q), analytic in q: shape (len(qs), len(vecs), n)."""
    k = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    spectra = np.fft.fft(vecs, axis=-1)
    return np.fft.ifft(spectra[None] * np.exp(-1j * np.outer(qs, k))[:, None], axis=-1)


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
    """B*, for the n x (r K_q) bank B of weighted translates sqrt(w_n w_q) phi_n(. - q)."""
    q_nodes, q_w = _gl_panels(cell.q_lo, cell.q_hi, order)
    tw, tv = grid_wavefunctions(t_state, grid)
    scale = np.sqrt(np.outer(q_w, tw))[:, :, None]
    return (_translates(tv, grid, q_nodes) * scale).reshape(-1, grid.n).conj()


def _kernel_rows(
    bank_h: np.ndarray, cell: RectCell, grid: Grid1D, i0: int, i1: int
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield (a, b, rows [a, b) of K = S o (B B*)) on the index block [i0, i1)^2.

    a and b count from i0, and G_T(cell) = (dx/2pi) K.  The Toeplitz S of the
    block is kept as S(k dx), k = 1-m .. m-1 with m = i1 - i0, and gathered
    per block of rows by a strided view.
    """
    m = i1 - i0
    bank = np.ascontiguousarray(bank_h[:, i0:i1])
    d = np.arange(1 - m, m) * grid.dx
    width = cell.p_hi - cell.p_lo
    symbol = width * np.exp(0.5j * (cell.p_hi + cell.p_lo) * d) * np.sinc(0.5 * width * d / np.pi)
    toeplitz = sliding_window_view(symbol[::-1], m)  # row a of S is toeplitz[m - 1 - a]
    step = max(1, BLOCK_ENTRIES // m)
    for a in range(0, m, step):
        b = min(a + step, m)
        yield a, b, (bank[:, a:b].conj().T @ bank) * toeplitz[m - b : m - a][::-1]


def _effect_block(bank_h: np.ndarray, cell: RectCell, grid: Grid1D, i0: int, i1: int):
    """The block [i0, i1)^2 of G_T(cell), filled by blocks of kernel rows."""
    out = np.empty((i1 - i0, i1 - i0), dtype=complex)
    for a, b, rows in _kernel_rows(bank_h, cell, grid, i0, i1):
        out[a:b] = rows
    out *= grid.dx / (2 * np.pi)
    return out


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
    All overlaps <s_m, W(q,p) phi_n> come from one product with exp(i x p);
    the phase exp(-i p q/2) of W drops out of |.|^2.
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    tw, tv = grid_wavefunctions(t_state, grid)
    sw, sv = grid_wavefunctions(s_state, grid)
    integrands = sv.conj()[None, None] * _translates(tv, grid, qs)[:, :, None]
    phase = np.exp(1j * np.outer(grid.positions(), ps))
    overlaps = integrands.reshape(-1, grid.n) @ phase * grid.dx
    power = np.abs(overlaps.reshape(qs.size, tw.size, sw.size, ps.size)) ** 2
    out = np.einsum("t,s,qtsp->qp", tw, sw, power) / (2 * np.pi)
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
) -> Effect:
    """G_T(Z) = (1/2pi) integral over the cell of W(q,p) T W(q,p)*.

    The p-integral is exact (the Toeplitz symbol S of the module docstring);
    ``order`` sets only the composite Gauss-Legendre rule in q, whose panels
    are at most MAX_PANEL wide.  The translates use Fourier phases, so the
    q-integrand is analytic and the rule converges spectrally.  The matrix is
    filled in blocks of rows, so it is the only n x n array built.
    """
    _check_cell_in_window(cell, grid)
    bank_h = _bank(t_state, cell, grid, order)
    return Effect(Operator(_effect_block(bank_h, cell, grid, 0, grid.n)))


def phase_space_cell_norm(
    t_state: State, cell: RectCell, grid: Grid1D, order: int = 16
) -> float:
    """Spectral norm of the cell effect (strictly below one on bounded cells).

    The effect G is positive, so its norm is its largest eigenvalue, found by
    Lanczos from a fixed start on the block G_II of the support cut I, which
    lowers it by at most SUPPORT_TOL (module docstring).
    """
    _check_cell_in_window(cell, grid)
    bank_h = _bank(t_state, cell, grid, order)
    mass = (np.abs(bank_h) ** 2).sum(axis=0) * ((cell.p_hi - cell.p_lo) * grid.dx / (2 * np.pi))
    # sqrt(tr A tr Z) + tr Z <= sqrt(tr G z) + z, which is SUPPORT_TOL at z = root^2
    root = 2 * SUPPORT_TOL / (np.sqrt(mass.sum()) + np.sqrt(mass.sum() + 4 * SUPPORT_TOL))
    i0, i1 = _support(mass, root**2)
    mat = _effect_block(bank_h, cell, grid, i0, i1)
    start = np.random.default_rng(0).standard_normal(grid.n)[i0:i1]
    return _lanczos_norm(lambda v: mat @ v, start)


def phase_space_pom(
    t_state: State,
    cells: Sequence[RectCell],
    grid: Grid1D,
    order: int = 16,
) -> Pom:
    """POM from disjoint cells plus the complement effect I - sum G(Z_i)."""
    effects = [phase_space_effect(t_state, c, grid, order) for c in cells]
    outcomes = [
        Outcome(f"q[{c.q_lo:.3g},{c.q_hi:.3g}) p[{c.p_lo:.3g},{c.p_hi:.3g})", c)
        for c in cells
    ]
    rest = np.eye(grid.n) - sum(e.op.mat for e in effects)
    effects.append(Effect(Operator(rest)))
    lim = np.pi / grid.dx
    outcomes.append(Outcome("outside-window", RectCell(grid.x0, grid.x0 + grid.length, -lim, lim)))
    return Pom("phase-space cells", tuple(outcomes), tuple(effects))


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
    half_width: float = DEFAULT_HALF_WIDTH,
    n_test: int = 13,
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
    herm = np.stack([hermite_wavefunction(grid, k).values for k in range(n_test)])
    i0, i1 = _support((np.abs(herm) ** 2).sum(axis=0) * grid.dx, SUPPORT_TOL**2)
    herm = herm[:, i0:i1]
    window = RectCell(-half_width, half_width, -half_width, half_width)
    bank_h = _bank(t_state, window, grid, order)
    m = np.zeros((n_test, n_test), dtype=complex)
    for a, b, rows in _kernel_rows(bank_h, window, grid, i0, i1):
        m += herm[:, a:b].conj() @ (rows @ herm.T)
    m *= grid.dx**2 / (2 * np.pi)
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
    rho = ProbMeasure1D.from_density(grid, e, normalize=True)
    nu = ProbMeasure1D.from_density(grid.momentum_grid(), f, normalize=True)
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


def finite_weyl_action(d: int):
    """Translation action of Z_d x Z_d on its own points as POM cells."""

    def act(g: Tuple[int, int], cell: PointCell) -> PointCell:
        return PointCell(((g[0] + cell.value[0]) % d, (g[1] + cell.value[1]) % d))

    return act


def finite_weyl_pom(d: int, t_state: State) -> Pom:
    """Covariant POM over Z_d x Z_d: effects (1/d) W_(a,b) T W_(a,b)*.

    Normalisation is exact by the orthogonality of the discrete Weyl
    operators, and covariance under the projective Weyl action is exact
    because the composition phases cancel in conjugation.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    if t_state.dim != d:
        raise ValueError("state dimension does not match d")
    t_state.validate(1e-10)
    effects = finite_weyl_unitaries(d).conjugate(np.arange(d * d), t_state.op.mat / d)
    outcomes = tuple(
        Outcome(f"({a},{b})", PointCell((a, b))) for a in range(d) for b in range(d)
    )
    return Pom(
        f"Z_{d} x Z_{d} phase space", outcomes, tuple(Effect(Operator(e)) for e in effects)
    )
