"""Uniform 1D grids with a fixed unitary Fourier convention.

The grid Fourier map discretises the kernel exp(-i p x) / sqrt(2 pi) with a
symmetric index shift: position nodes x_k = x0 + k dx, momentum nodes
p_j = 2 pi (j - n/2) / (n dx).  With these conventions ``to_momentum`` is
exactly unitary for the weighted inner product sum(conj(u) v) * dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Grid1D", "WaveFunction", "symmetric_grid"]

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

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        return complex(np.vdot(u, v) * self.dx)

    def to_momentum(self, values: np.ndarray) -> np.ndarray:
        """Unitary grid Fourier map, psi_hat(p_j) for p_j on ``momenta()``."""
        values = np.asarray(values, dtype=complex)
        n = self.n
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        phases = np.exp(-1j * self.momenta() * self.x0)
        return (self.dx / np.sqrt(2 * np.pi)) * phases * np.fft.fft(values * signs)

    def to_position(self, values_hat: np.ndarray) -> np.ndarray:
        """Inverse of ``to_momentum``."""
        values_hat = np.asarray(values_hat, dtype=complex)
        n = self.n
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        phases = np.exp(1j * self.momenta() * self.x0)
        pre = np.fft.ifft(values_hat * phases)
        return (np.sqrt(2 * np.pi) / self.dx) * signs * pre

    def fourier_matrix(self) -> np.ndarray:
        """Dense unitary matrix of the grid Fourier map on Euclidean vectors.

        Acts on vectors carrying the sqrt(dx) embedding, so F @ F^dagger = I.
        """
        return _fourier_matrix(self.n, self.x0, self.dx)


@lru_cache(maxsize=8)
def _fourier_matrix(n: int, x0: float, dx: float) -> np.ndarray:
    grid = Grid1D(n, x0, dx)
    x = grid.positions()
    p = grid.momenta()
    mat = np.exp(-1j * np.outer(p, x)) * (dx / np.sqrt(2 * np.pi))
    # Euclidean embedding: v = psi sqrt(dx); F_euclid = sqrt(dp/dx) * kernel
    mat *= np.sqrt(grid.dp / dx)
    mat.setflags(write=False)
    return mat


def symmetric_grid(n: int, half_width: float) -> Grid1D:
    """Grid of n points covering [-half_width, half_width)."""
    dx = 2 * half_width / n
    return Grid1D(n, -half_width, dx)


@dataclass(frozen=True)
class WaveFunction:
    """Grid-sampled wave function; states carry L2 norm one (weight dx)."""

    grid: Grid1D
    values: np.ndarray

    def __init__(self, grid: Grid1D, values):
        vals = np.asarray(values, dtype=complex).copy()
        if vals.shape != (grid.n,):
            raise ValueError(f"values shape {vals.shape} does not match grid n={grid.n}")
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        return self.grid.norm(self.values)

    def require_normalised(self, tol: float = 1e-9) -> "WaveFunction":
        if abs(self.norm() - 1.0) > tol:
            raise ValueError(f"wave function norm {self.norm()} is not 1")
        return self

    def normalised(self) -> "WaveFunction":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalise the zero wave function")
        return WaveFunction(self.grid, self.values / n)

    def momentum_values(self) -> np.ndarray:
        return self.grid.to_momentum(self.values)

    def position_density(self) -> np.ndarray:
        return np.abs(self.values) ** 2
