"""Reference forms of what the library computes by FFT, from monomial factors, in one
document-wide pass or on a support cut, kept as test oracles."""

import numpy as np

from covpom.hilbert import RectCell
from covpom.phasespace import hermite_wavefunction, phase_space_effect


def dense_fourier_matrix(grid):
    """Unitary grid Fourier map on Euclidean vectors, F[j, k] = exp(-i p_j x_k) / sqrt(n).

    The n x n kernel exp(-i p x) dx / sqrt(2 pi) rescaled by sqrt(dp / dx) for
    the sqrt(dx) embedding, so that F F* = I.
    """
    x = grid.positions()
    p = grid.momenta()
    mat = np.exp(-1j * np.outer(p, x)) * (grid.dx / np.sqrt(2 * np.pi))
    return mat * np.sqrt(grid.dp / grid.dx)


def finite_weyl_matrix(d, a, b):
    """W_(a,b) = Z^b X^a as a dense product, with X the cyclic shift and Z the clock phase.

    The clock phase b j is reduced mod d on the integers: unreduced, its
    rounding reaches 1.1e-14 at d = 12.
    """
    shift = np.roll(np.eye(d), a, axis=0)
    clock = np.diag(np.exp(2j * np.pi * (b * np.arange(d) % d) / d))
    return clock @ shift


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
    herm = np.stack([hermite_wavefunction(grid, k).values for k in range(n_test)])
    window = RectCell(-half_width, half_width, -half_width, half_width)
    effect = phase_space_effect(t_state, window, grid, order).op.mat
    return herm.conj() @ effect @ herm.T * grid.dx
