"""Uniform 1D grids with a fixed unitary Fourier convention.

The grid Fourier map discretises the kernel exp(-i p x) / sqrt(2 pi) with a
symmetric index shift: position nodes x_k = x0 + k dx, momentum nodes
p_j = 2 pi (j - n/2) / (n dx).  With these conventions ``to_momentum`` is
exactly unitary for the weighted inner product sum(conj(u) v) * dx.  A wave
function is a plain complex array of its n samples, of unit ``Grid1D.norm``;
``hilbert.make_state`` takes such arrays as they are, since it normalises
every vector it mixes.

A multiplier on the momentum lattice is no dense Fourier product: on the
Euclidean embedding F[j, k] = exp(-i p_j x_k) / sqrt(n), so F* diag(m) F has
entry (a, b) equal to c[(a - b) mod n] with c[k] = (-1)^k ifft(m)[k].  It is
the circulant of one inverse DFT (Golub and Van Loan, Matrix Computations,
ch. 4), which ``momentum_multiplier`` builds in O(n log n + n^2) as one copy
of a sliding window over the doubled, reversed first column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["Grid1D", "symmetric_grid"]

# Entries (4 MB of complex) per block of a dense product over an n-point grid.
BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of n points (n a power of two, n >= 16)."""

    n: int
    x0: float
    dx: float

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not (np.isfinite(self.x0) and np.isfinite(self.dx)):
            raise ValueError(f"x0 and dx must be finite, got {self.x0} and {self.dx}")
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def dp(self) -> float:
        return 2 * np.pi / (self.n * self.dx)

    def positions(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def momenta(self) -> np.ndarray:
        return self.dp * (np.arange(self.n) - self.n // 2)

    def momentum_grid(self) -> "Grid1D":
        """The momentum lattice as a Grid1D in its own right."""
        return Grid1D(self.n, -self.dp * (self.n // 2), self.dp)

    def norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(values) ** 2) * self.dx))

    def _signs(self) -> np.ndarray:
        """(-1)^k over the nodes, from the index shift j - n/2 of the momenta."""
        return np.where(np.arange(self.n) % 2 == 0, 1.0, -1.0)

    def to_momentum(self, values: np.ndarray) -> np.ndarray:
        """Unitary grid Fourier map, psi_hat(p_j) for p_j on ``momenta()``."""
        values = np.asarray(values, dtype=complex)
        phases = np.exp(-1j * self.momenta() * self.x0)
        return (self.dx / np.sqrt(2 * np.pi)) * phases * np.fft.fft(values * self._signs())

    def to_position(self, values_hat: np.ndarray) -> np.ndarray:
        """Inverse of ``to_momentum``."""
        values_hat = np.asarray(values_hat, dtype=complex)
        phases = np.exp(1j * self.momenta() * self.x0)
        pre = np.fft.ifft(values_hat * phases)
        return (np.sqrt(2 * np.pi) / self.dx) * self._signs() * pre

    def momentum_multiplier(self, profile: np.ndarray) -> np.ndarray:
        """F* diag(profile) F on Euclidean vectors, F the unitary grid Fourier map.

        The circulant whose first column c is (-1)^k ifft(profile)[k]; x0 drops
        out.  Entry (i, j) is c[(i - j) mod n], so each row is a window of c
        reversed and doubled.
        """
        col = self._signs() * np.fft.ifft(np.asarray(profile, dtype=complex))
        rows = sliding_window_view(np.tile(col[::-1], 2), self.n)  # row i is rows[n - 1 - i]
        return rows[self.n - 1::-1].copy()

    def apply_momentum_multiplier(self, profile: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``momentum_multiplier(profile) @ v`` by two FFTs, without the matrix.

        The circulant's eigenvalues, the DFT of its first column, are the
        profile rolled by n/2: the (-1)^k signs shift the DFT index by n/2.
        """
        return np.fft.ifft(np.roll(profile, self.n // 2) * np.fft.fft(v))


def symmetric_grid(n: int, half_width: float) -> Grid1D:
    """Grid of n points covering [-half_width, half_width); Grid1D rejects n < 16 itself."""
    return Grid1D(n, -half_width, 2 * half_width / max(n, 1))
