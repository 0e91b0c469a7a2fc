"""Reference forms of what the library computes by FFT, from coset tables or monomial factors,
in one document-wide pass, on a support cut or with one mass lookup per point, kept as test
oracles, and the effect forms it never builds: a smeared effect and one phase-effect cell."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from covpom.grids import BLOCK_ENTRIES
from covpom.hilbert import RectCell, _lanczos_norm
from covpom.phasespace import (
    SUPPORT_TOL,
    _bank,
    _gl_panels,
    _kernel_rows,
    _support,
    hermite_wavefunction,
    phase_space_effect,
)
from covpom.posmom import _state_densities, grid_wavefunctions


def cosets_loop(group, sub):
    """The cosets g + H as sorted tuples, in order, by one pass over the elements of G."""
    seen, out = set(), []
    for g in group.elements():
        if g not in seen:
            coset = tuple(sorted(group.add(g, h) for h in sub.elements))
            out.append(coset)
            seen.update(coset)
    return tuple(sorted(out))


def coset_representatives(group, sub):
    """The least element of each coset g + H, in ascending order."""
    return tuple(coset[0] for coset in cosets_loop(group, sub))


def dense_fourier_matrix(grid):
    """Unitary grid Fourier map on Euclidean vectors, F[j, k] = exp(-i p_j x_k) / sqrt(n).

    The n x n kernel exp(-i p x) dx / sqrt(2 pi) rescaled by sqrt(dp / dx) for
    the sqrt(dx) embedding, so that F F* = I.
    """
    x = grid.positions()
    p = grid.momenta()
    mat = np.exp(-1j * np.outer(p, x)) * (grid.dx / np.sqrt(2 * np.pi))
    return mat * np.sqrt(grid.dp / grid.dx)


def momentum_multiplier(grid, profile):
    """F* diag(profile) F on Euclidean vectors, F the unitary grid Fourier map.

    On the Euclidean embedding F[j, k] = exp(-i p_j x_k) / sqrt(n), so entry
    (a, b) is c[(a - b) mod n] with c[k] = (-1)^k ifft(profile)[k]: the
    circulant of one inverse DFT, in which x0 drops out.  Row i is a window of
    c reversed and doubled.
    """
    col = grid._signs() * np.fft.ifft(np.asarray(profile, dtype=complex))
    rows = sliding_window_view(np.tile(col[::-1], 2), grid.n)  # row i is rows[n - 1 - i]
    return rows[grid.n - 1 :: -1].copy()


def smeared_profile(obs, interval):
    """(profile, clip defect): rho(X - node) over the outcome nodes, clipped to [0, 1].

    X is the half-open interval [lo, hi), and lo = hi the empty set; atoms
    exactly at lo are included, atoms at hi excluded.
    """
    lo, hi = (float(t) for t in interval)
    nodes = obs.outcome_nodes()
    prof = obs.measure.mass_interval(lo - nodes, hi - nodes, include_lo=True, include_hi=False)
    clipped = np.clip(prof, 0.0, 1.0)
    return clipped, float(np.max(np.abs(prof - clipped), initial=0.0))


def smeared_effect(obs, interval):
    """Effect of [lo, hi): multiplication by the profile, conjugated by F for the momentum kind.

    ``distribution(state, obs, bounds)`` is tr(T E(X)) of these effects.
    """
    prof, _ = smeared_profile(obs, interval)
    if obs.kind == "position":
        return np.diag(prof.astype(complex))
    return momentum_multiplier(obs.grid, prof)


def torus_cell(build, lo, hi):
    """The effect of one interval [lo, hi) of the torus, read as a cell of ``build(bounds)``.

    ``build`` makes a phase or phase-difference POM over the bounds 0, lo, hi
    and 2 pi, without a repeated end.
    """
    first = 1 if lo > 0 else 0
    bounds = [0.0][:first] + [lo, hi] + ([2 * np.pi] if hi < 2 * np.pi else [])
    return build(bounds).effects[first]


def finite_weyl_matrix(d, a, b):
    """W_(a,b) = Z^b X^a as a dense product, with X the cyclic shift and Z the clock phase.

    The clock phase b j is reduced mod d on the integers: unreduced, its
    rounding reaches 1.1e-14 at d = 12.
    """
    shift = np.roll(np.eye(d), a, axis=0)
    clock = np.diag(np.exp(2j * np.pi * (b * np.arange(d) % d) / d))
    return clock @ shift


def check_pom_axioms_loop(pom):
    """(worst_negativity, normalization_defect) with an eigvalsh and an SVD per effect."""
    worst = 0.0
    for eff in pom.effects:
        mat = eff
        herm = np.linalg.norm(mat - mat.conj().T, 2)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        worst = max(worst, -float(eigs.min()), float(herm))
    defect = np.linalg.norm(sum(pom.effects) - np.eye(pom.dim), 2)
    return worst, float(defect)


def sharp_phase_witness_loop(pom):
    """(outcome, ||E^2 - E||) of the first effect of largest projection defect, one SVD each."""
    best, best_defect = None, -1.0
    for out, mat in zip(pom.outcomes, pom.effects):
        defect = float(np.linalg.norm(mat @ mat - mat, 2))
        if defect > best_defect:
            best, best_defect = out, defect
    return best, best_defect


def bisection_gamma(measure, tol=1e-6):
    """Limit of resolution by bisecting the window-mass supremum to ``tol`` (upper end)."""
    lo_sup, hi_sup = measure.support_bounds()
    hi = max(hi_sup - lo_sup, tol) * 1.5 + 1.0
    lo = 0.0
    assert measure.window_mass_sup(hi)[0] > 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if measure.window_mass_sup(mid)[0] > 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def gathered_mass_below(measure, t):
    """``density_mass_below`` by one (3, m) fancy-index gather and Horner's rule on new arrays."""
    t = np.asarray(t, dtype=float)
    if measure.density is None:
        return np.zeros(t.shape)
    grid = measure.grid
    pos = np.clip((t - grid.x0) / grid.dx, -1.0, grid.n - 1.0)
    k = np.floor(pos)
    c0, c1, c2 = measure._dens_cells[:, k.astype(int) + 1]
    s = (pos - k) * grid.dx
    return c0 + (c1 + c2 * s) * s


def interval_mass(measure, lo, hi, include_lo=True, include_hi=True):
    """``mass_interval`` with its four lookups inline, the continuous ones by ``gathered_mass_below``."""
    dens = gathered_mass_below(measure, hi) - gathered_mass_below(measure, lo)
    atoms = measure.atom_mass_upto(hi, inclusive=include_hi) - measure.atom_mass_upto(
        lo, inclusive=not include_lo
    )
    return np.maximum(dens + atoms, 0.0)


def blocked_window_mass_sup(measure, widths, open_interval=False):
    """``window_mass_sup`` from the candidate windows' edges, one (rows, 3n) block of rows at a time.

    Each row holds the left-edge, right-edge and centred windows of one
    width, and one ``interval_mass`` call per block looks up every edge, the
    anchors once per width and family.
    """
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    u = measure._anchors()
    rows = max(1, BLOCK_ENTRIES // (3 * u.size))
    inc = not open_interval
    sups = []
    for i in range(0, widths.size, rows):
        w = widths[i : i + rows, None]
        anchors = np.broadcast_to(u, (w.size, u.size))
        lo = np.concatenate([anchors, u - w, u - w / 2], axis=1)
        hi = np.concatenate([u + w, anchors, u + w / 2], axis=1)
        sups.append(interval_mass(measure, lo, hi, inc, inc).max(axis=1))
    return np.concatenate(sups) if sups else np.empty(0)


def per_cell_distribution(state, obs, bounds):
    """``distribution`` with one ``interval_mass`` profile, two lookups per bound, for each cell."""
    nodes = obs.outcome_nodes()
    position, momentum = _state_densities(state, obs.grid)
    weights = position * obs.grid.dx if obs.kind == "position" else momentum * obs.grid.dp
    return np.array([
        float(weights @ interval_mass(obs.measure, lo - nodes, hi - nodes, True, False))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


def direct_fourier(measure, xis):
    """Fourier-Stieltjes transform by the direct sum over atoms and grid nodes."""
    xis = np.asarray(xis, dtype=float)
    out = np.zeros(xis.shape, dtype=complex)
    for loc, w in measure.atoms:
        out += w * np.exp(-1j * xis * loc)
    if measure.density is not None:
        x = measure.grid.positions()
        flat = out.reshape(-1)  # a view: blocks of 256 frequencies bound the kernel's size
        for i in range(0, flat.size, 256):
            kernel = np.exp(-1j * np.outer(xis.reshape(-1)[i : i + 256], x))
            flat[i : i + 256] += kernel @ measure.density * measure.grid.dx
    return out


def list_form(doc):
    """``doc`` with each complex ndarray as its per-entry [[re, im], ...] list.

    ``json.dumps`` of this is the data-file text, float by float, that
    ``io.dumps`` must reproduce byte for byte.
    """
    if isinstance(doc, np.ndarray):
        return [[z.real, z.imag] for z in doc.ravel().tolist()]
    if isinstance(doc, dict):
        return {k: list_form(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [list_form(v) for v in doc]
    return doc


def full_grid_roi_gram(t_state, grid, half_width, n_test, order=16):
    """M_ij = <h_i, G h_j> over the whole grid, from the dense window effect G."""
    herm = np.stack([hermite_wavefunction(grid, k) for k in range(n_test)])
    window = RectCell(-half_width, half_width, -half_width, half_width)
    effect = phase_space_effect(t_state, window, grid, order)
    return herm.conj() @ effect @ herm.T * grid.dx


def direct_translates(vecs, grid, qs):
    """Fourier translates phi(. - q) with the n-point plane wave exp(-i q k) taken entry by entry."""
    k = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    spectra = np.fft.fft(vecs, axis=-1)
    return np.fft.ifft(spectra[None] * np.exp(-1j * np.outer(qs, k))[:, None], axis=-1)


def complex_symbol_block(t_state, cell, grid, i0, i1, order=16):
    """The block [i0, i1)^2 of G_T(cell) = (dx/2pi) S o (B B*), S the complex Toeplitz symbol.

    S(d) = (e^{i p_hi d} - e^{i p_lo d}) / (i d) of d = x - x', and B the bank of
    weighted translates sqrt(w_n w_q) phi_n(. - q) without a momentum phase.
    """
    q_nodes, q_w = _gl_panels(cell.q_lo, cell.q_hi, order)
    tw, tv = grid_wavefunctions(t_state, grid)
    scale = np.sqrt(np.outer(q_w, tw))[:, :, None]
    bank = (direct_translates(tv, grid, q_nodes) * scale).reshape(-1, grid.n).conj()[:, i0:i1]
    m = i1 - i0
    d = np.arange(1 - m, m) * grid.dx
    width = cell.p_hi - cell.p_lo
    symbol = width * np.exp(0.5j * (cell.p_hi + cell.p_lo) * d) * np.sinc(0.5 * width * d / np.pi)
    toeplitz = sliding_window_view(symbol[::-1], m)[::-1]  # row a of S
    return (bank.conj().T @ bank) * toeplitz * (grid.dx / (2 * np.pi))


def wide_cut_cell_norm(t_state, cell, grid, order=16):
    """(norm, (i0, i1)): ``phase_space_cell_norm`` on the wide cut of the former bound.

    That cut keeps sqrt(tr A tr Z) + tr Z, not tr Z, at most SUPPORT_TOL; with
    tr A <= tr G it holds once tr Z <= root^2, root the positive root of
    root^2 + sqrt(tr G) root = SUPPORT_TOL, which leaves about 1e-26 outside.
    """
    bank_h = _bank(t_state, cell, grid, order)
    mass = (np.abs(bank_h) ** 2).sum(axis=0) * ((cell.p_hi - cell.p_lo) * grid.dx / (2 * np.pi))
    root = 2 * SUPPORT_TOL / (np.sqrt(mass.sum()) + np.sqrt(mass.sum() + 4 * SUPPORT_TOL))
    i0, i1 = _support(mass, root**2)
    _, _, mat = next(_kernel_rows(bank_h, cell, grid, i0, i1, i1 - i0))
    start = np.random.default_rng(0).standard_normal(grid.n)[i0:i1]
    return _lanczos_norm(mat.dot, start), (i0, i1)
