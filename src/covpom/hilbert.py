"""Core linear-algebra substrate: operators, states and POMs.

Everything lives on a finite-dimensional Hilbert space.  An operator is a
dense complex (dim, dim) ndarray; Hermiticity and positivity are
tolerance-gated predicates rather than assumptions.  A ``State`` is a
low-rank factor (weights and orthonormal vectors); its dense operator is
built only on demand.  ``make_state`` is the one constructor from vectors: it
builds the mixture of any (weight, vector) pairs, orthogonal or not, by one
thin SVD.  A ``Pom`` is one read-only (k, dim, dim) stack of
effects, one per disjoint outcome cell, and an effect built on its own is
one (dim, dim) array.
``partition_pom`` fills a stack over the intervals between boundaries; a
covariant POM is one seed effect moved by the group, the stack that
``abelian.MonomialUnitaries.conjugate`` returns.  ``check_pom_axioms``
verifies positivity and normalisation with explicit witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, Tuple, Union

import numpy as np

from .grids import BLOCK_ENTRIES

__all__ = [
    "State",
    "Pom",
    "Outcome",
    "PointCell",
    "IntervalCell",
    "RectCell",
    "AxiomReport",
    "make_state",
    "increasing_bounds",
    "partition_pom",
    "check_pom_axioms",
    "spectral_norm",
]

# Tolerance for algebraically exact constructions (finite groups, closed-form
# integrals).
EXACT_TOL = 1e-10


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return 0.0
    herm_defect = np.linalg.norm(mat - mat.conj().T)
    if herm_defect < 1e-13 * max(1.0, np.linalg.norm(mat)):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.linalg.norm(mat, 2))


LANCZOS_TOL = 1e-14  # Ritz residual per unit |Ritz value| at which _lanczos_norm stops
LANCZOS_ROWS = 32  # first capacity of the Lanczos basis, doubled when full


def _lanczos_norm(matvec: Callable[[np.ndarray], np.ndarray], start: np.ndarray) -> float:
    """max |lambda| of a Hermitian operator on C^m known only by its product.

    Lanczos from ``start``, each step reorthogonalised against the whole basis
    by Gram-Schmidt run twice, without restarts.  The Ritz value theta_i of
    largest modulus is returned once beta_j |s_ji| <= LANCZOS_TOL |theta_i|
    (ARPACK's residual test, also met when the Krylov space is invariant,
    beta_j = 0), or at j = m, where the Ritz values are the eigenvalues.
    """
    m = start.size
    basis = np.empty((min(m, LANCZOS_ROWS), m), dtype=complex)
    tri = np.zeros((len(basis), len(basis)))  # alpha on the diagonal, beta below it
    basis[0] = start / np.linalg.norm(start)
    for j in range(m):
        w = matvec(basis[j])
        tri[j, j] = np.vdot(basis[j], w).real
        for _ in range(2):  # <q_k, w> as conj(q_k . conj(w)): no conjugated copy of the basis
            w = w - (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]
        beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(tri[: j + 1, : j + 1])
        i = np.argmax(np.abs(theta))
        if beta * abs(s[-1, i]) <= LANCZOS_TOL * abs(theta[i]) or j + 1 == m:
            return float(abs(theta[i]))
        if j + 1 == len(basis):
            basis, tri = np.concatenate([basis, basis])[:m], np.pad(tri, (0, min(j + 1, m - j - 1)))
        basis[j + 1], tri[j + 1, j] = w / beta, beta


@dataclass(frozen=True, eq=False)
class State:
    """Positive trace-one operator held as a low-rank factor.

    ``weights`` (r,) and ``vectors`` (r, dim), whose rows are orthonormal, give
    the operator sum_i w_i |v_i><v_i|; both are read-only and C-contiguous
    (such an input array is kept, not copied).  ``op``, the dense operator,
    is built from them on first read, cached and read-only too.  A density
    matrix is factored once, by ``from_operator``.
    """

    weights: np.ndarray
    vectors: np.ndarray

    def __init__(self, weights, vectors):
        weights = np.ascontiguousarray(weights, dtype=float)
        vectors = np.ascontiguousarray(vectors, dtype=complex)
        if not weights.size or weights.ndim != 1 or vectors.shape[:-1] != weights.shape:
            shapes = f"{weights.shape} and {vectors.shape}"
            raise ValueError(f"need r >= 1 weights and r vectors, not shapes {shapes}")
        weights.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def from_operator(cls, mat, tol: float = EXACT_TOL) -> "State":
        """The eigenpairs of positive eigenvalue of a density matrix.

        Raises unless ``mat`` is square, has ||A - A*|| <= tol (the exact norm
        taken only when its Frobenius bound exceeds tol), has no eigenvalue
        below -tol and has trace within tol of one.
        """
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        skew = mat - mat.conj().T
        if not (np.linalg.norm(skew) <= tol or np.linalg.norm(skew, 2) <= tol):
            raise ValueError("state operator is not Hermitian")
        vals, vecs = np.linalg.eigh(mat)
        if vals[0] < -tol:
            raise ValueError(f"state operator has negative eigenvalue {vals[0]:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > tol:
            raise ValueError(f"state trace {tr} is not 1")
        keep = vals > 0
        return cls(vals[keep], vecs[:, keep].T)

    @cached_property
    def op(self) -> np.ndarray:
        """The dense operator (V w) V*, built once from the factor and read-only."""
        op = (self.vectors.T * self.weights) @ self.vectors.conj()
        op.setflags(write=False)
        return op

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# --- outcome cells -------------------------------------------------------


@dataclass(frozen=True)
class PointCell:
    """Single group element (or coset representative) as an outcome cell."""

    value: Tuple[int, ...]


@dataclass(frozen=True)
class IntervalCell:
    """Half-open interval [lo, hi) on the line or the circle."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class RectCell:
    """Phase-space rectangle [q_lo, q_hi) x [p_lo, p_hi)."""

    q_lo: float
    q_hi: float
    p_lo: float
    p_hi: float

    def __post_init__(self):
        if not (self.q_hi > self.q_lo and self.p_hi > self.p_lo):
            raise ValueError("degenerate phase-space rectangle")


Cell = Union[PointCell, IntervalCell, RectCell]


@dataclass(frozen=True)
class Outcome:
    label: str
    cell: Cell


@dataclass(frozen=True, eq=False)
class Pom:
    """Effects over a declared outcome partition: ``effects[i]`` belongs to ``outcomes[i]``.

    ``effects`` is one read-only complex (k, dim, dim) stack, kept uncopied
    when given as a complex ndarray, like a ``State``'s factor.
    """

    space_tag: str
    outcomes: Tuple[Outcome, ...]
    effects: np.ndarray

    def __post_init__(self):
        effects = np.asarray(self.effects, dtype=complex)
        if not len(effects):
            raise ValueError("empty POM")
        if effects.ndim != 3 or effects.shape[1] != effects.shape[2]:
            raise ValueError(f"expected a (k, dim, dim) effect stack, got shape {effects.shape}")
        if len(self.outcomes) != len(effects):
            raise ValueError("outcomes and effects must have the same length")
        effects.setflags(write=False)
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def labels(self) -> Tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    worst_negativity: float
    normalization_defect: float


# --- operations ----------------------------------------------------------


def make_state(spectral: Sequence[Tuple[float, Iterable[complex]]]) -> State:
    """The mixture sum_i w_i |v_i><v_i| / ||v_i||^2, weights renormalised, as a factor state.

    Vectors need not be orthogonal or independent: the state is V V* with
    V = [sqrt(w_i / sum w) v_i / ||v_i||].  Unit vectors orthonormal to rounding
    (|<u_i, u_j> - delta_ij| <= max(dim, r) eps) are its factor as given, with weights
    w_i / sum w; otherwise the thin SVD V = U diag(s) Y* gives the factor (s^2, U).
    Weights below w_max (max(dim, r) eps)^2 are cut; no dim x dim matrix is formed.
    Raises on a negative or non-finite weight, zero total weight, dimension mismatch,
    a non-finite entry or a zero vector.
    """
    if not spectral:
        raise ValueError("empty spectral data")
    weights = np.array([float(w) for w, _ in spectral])
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ValueError("non-finite or negative weight")
    total = weights.sum()
    if total <= 0:
        raise ValueError("zero total weight")

    vectors = [np.asarray(v, dtype=complex) for _, v in spectral]
    dims = {v.shape for v in vectors}
    if len(dims) != 1 or vectors[0].ndim != 1:
        raise ValueError(f"vectors must share one dimension, got shapes {dims}")

    mat = np.stack(vectors, axis=1)
    if not np.isfinite(mat).all():
        raise ValueError("non-finite vector entry in spectral data")
    norms = np.linalg.norm(mat, axis=0)
    if not norms.all():
        raise ValueError("zero vector in spectral data")
    unit = mat / norms
    power = weights / total
    rounding = max(mat.shape) * np.finfo(float).eps
    vecs = unit
    if np.abs(unit.conj().T @ unit - np.eye(power.size)).max() > rounding:
        vecs, sing, _ = np.linalg.svd(unit * np.sqrt(power), full_matrices=False)
        power = sing**2
    keep = power > power.max() * rounding**2
    power = power[keep]
    return State(power / power.sum(), vecs.T[keep])


def _fill_stack(mats: Iterable[np.ndarray], count: int) -> np.ndarray:
    """The ``count`` matrices of ``mats``, each written into its slot of one complex stack."""
    out = np.empty((count, 0, 0), dtype=complex)
    for i, mat in enumerate(mats):
        if not i:
            out = np.empty((count, *np.shape(mat)), dtype=complex)
        elif np.shape(mat) != out.shape[1:]:
            raise ValueError(f"effect {i} has shape {np.shape(mat)}, effect 0 {out.shape[1:]}")
        out[i] = mat
    return out


def increasing_bounds(bounds: Sequence[float]) -> np.ndarray:
    """Partition bounds as a float array: 1-D, two or more, strictly increasing; ends may be inf."""
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 1 or bounds.size < 2 or not np.all(bounds[1:] > bounds[:-1]):
        raise ValueError("boundaries must be strictly increasing numbers")
    return bounds


def partition_pom(
    space_tag: str,
    bounds: Sequence[float],
    effect_of: Callable[[float, float], np.ndarray],
    fmt: str,
) -> Pom:
    """POM of the interval cells [lo, hi) between consecutive ``bounds``.

    ``bounds`` pass ``increasing_bounds``.  Each cell gets the label ``[lo,hi)``,
    both ends written in the format ``fmt`` (such as ".6f"), and the effect
    ``effect_of(lo, hi)``, written into its slot of the stack.
    """
    bounds = increasing_bounds(bounds)
    cells = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    outcomes = tuple(Outcome(f"[{lo:{fmt}},{hi:{fmt}})", IntervalCell(lo, hi)) for lo, hi in cells)
    effects = _fill_stack((effect_of(lo, hi) for lo, hi in cells), len(cells))
    return Pom(space_tag, outcomes, effects)


def _deficits(mats: np.ndarray, tol: float, rows: np.ndarray) -> np.ndarray:
    """max(0, -lambda_min) of each H in a finite Hermitian stack, or a bound of at most tol on it.

    ``rows`` holds s_i = sum_j |H_ij|.  If 2 H_ii - s_i >= (n + 2) eps s_i on every row, each H
    is diagonally dominant despite rounding and scores 0 (Gershgorin).  Else, if one Cholesky
    R*R of the stack H + (tol/2) I completes, each scores its bound -lambda_min <= tol/2 + gamma
    ||R||_F^2 (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3) when
    all are at most tol, with gamma = 8(n+1)u / (1 - 8(n+1)u), u = eps/2: complex products err
    by sqrt(2) gamma_2 < 4u (Lemma 3.5); 2 covers the shift, ||R||_F^2, the bound.  Else eigvalsh.
    """
    n = mats.shape[1]
    diag = np.arange(n)
    d = mats[:, diag, diag].real
    if np.all(2 * d - rows >= (n + 2) * np.finfo(float).eps * rows):
        return np.zeros(len(mats))
    mats[:, diag, diag] += tol / 2  # in place, restored below
    try:
        fac = np.linalg.cholesky(mats).reshape(len(mats), -1).view(float)
        gamma = 4 * (n + 1) * np.finfo(float).eps
        bound = tol / 2 + gamma / (1 - gamma) * np.einsum("ij,ij->i", fac, fac)  # NaN fails
    except np.linalg.LinAlgError:
        bound = np.inf
    mats[:, diag, diag] = d
    return bound if np.all(bound <= tol) else -np.linalg.eigvalsh(mats)[:, 0]


def check_pom_axioms(pom: Pom, tol: float = EXACT_TOL) -> AxiomReport:
    """Verify positivity of every effect and normalisation of their sum.

    ``worst_negativity`` is the largest eigenvalue deficit below zero or Hermiticity defect
    ||E - E*|| over all effects; ``normalization_defect`` is the spectral norm of (sum of effects
    - identity).  A Hermiticity defect is bounded by its Frobenius norm, a deficit of (E + E*) / 2
    by ``_deficits``, and each is computed exactly only when its bound exceeds ``tol``, so
    ``passed`` is that of the exact check and ``worst_negativity`` is exact whenever it exceeds
    ``tol``.  Effects are stacked in blocks of about ``BLOCK_ENTRIES`` entries; a non-finite
    entry fails, with NaN values.
    """
    worst, total = 0.0, np.zeros((pom.dim, pom.dim), dtype=complex)
    step = max(1, BLOCK_ENTRIES // pom.dim**2)
    for lo in range(0, len(pom.effects), step):
        mats = np.concatenate([total[None], pom.effects[lo : lo + step]])
        if not np.isfinite(mats).all():
            return AxiomReport(False, np.nan, np.nan)
        total, mats = mats.sum(0), mats[1:]  # the running sum, added effect by effect
        skew = mats.transpose(0, 2, 1).copy()  # a blocked transposing copy, unlike a strided ufunc
        np.subtract(mats, np.conjugate(skew, out=skew), out=skew)  # E - E*, in place
        flat = skew.reshape(len(skew), -1).view(float)
        herm = np.sqrt(np.einsum("ij,ij->i", flat, flat))  # Frobenius norms, with no squared copy
        for i in np.flatnonzero(herm > tol):
            herm[i] = np.linalg.norm(skew[i], 2)
        skew *= 0.5
        mats -= skew  # in place: the Hermitian part (E + E*) / 2
        rows = np.abs(mats, out=skew.real).sum(2)  # |H_ij| written over skew, not a new block
        del skew, flat  # freed before the Cholesky allocates its factor
        worst = max(worst, float(herm.max()), float(_deficits(mats, tol, rows).max()))
    defect = spectral_norm(total - np.eye(pom.dim))
    return AxiomReport(
        passed=bool(worst <= tol and defect <= tol),
        worst_negativity=worst,
        normalization_defect=float(defect),
    )
