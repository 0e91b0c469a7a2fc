"""Core linear-algebra substrate: operators, states, effects and POMs.

Everything lives on a finite-dimensional Hilbert space.  Operators are dense
complex matrices; Hermiticity and positivity are tolerance-gated predicates
rather than assumptions.  A ``State`` is a low-rank factor (weights and
orthonormal vectors); its dense operator is built only on demand.  A ``Pom``
is a finite family of effects labelled by disjoint outcome cells;
``partition_pom`` builds one over the intervals between boundaries, and
``check_pom_axioms`` verifies positivity and normalisation with explicit
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, Tuple, Union

import numpy as np

from .grids import BLOCK_ENTRIES

__all__ = [
    "Operator",
    "State",
    "Effect",
    "Pom",
    "Outcome",
    "PointCell",
    "IntervalCell",
    "RectCell",
    "AxiomReport",
    "ProbVector",
    "make_state",
    "partition_pom",
    "check_pom_axioms",
    "outcome_distribution",
    "effect_is_regular",
    "commutator_norm",
    "spectral_norm",
    "eigh_fixed",
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


def _lanczos_norm(matvec: Callable[[np.ndarray], np.ndarray], start: np.ndarray) -> float:
    """max |lambda| of a Hermitian operator on C^m known only by its product.

    Lanczos from ``start``, each step reorthogonalised against the whole basis
    by Gram-Schmidt run twice, without restarts.  The Ritz value theta_i of
    largest modulus is returned once beta_j |s_ji| <= LANCZOS_TOL |theta_i|
    (ARPACK's residual test, also met when the Krylov space is invariant,
    beta_j = 0), or at j = m, where the Ritz values are the eigenvalues.
    """
    basis = [start / np.linalg.norm(start)]
    alpha, beta = [], []
    while True:
        w = matvec(basis[-1])
        alpha.append(np.vdot(basis[-1], w).real)
        kept = np.array(basis)
        for _ in range(2):
            w = w - (kept @ w.conj()).conj() @ kept  # <q_k, w> without a conjugated copy of kept
        beta.append(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        i = np.argmax(np.abs(theta))
        if beta[-1] * abs(s[-1, i]) <= LANCZOS_TOL * abs(theta[i]) or len(basis) == start.size:
            return float(abs(theta[i]))
        basis.append(w / beta[-1])


def eigh_fixed(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a reproducible gauge.

    Eigenvalues ascend; each eigenvector is rephased so its
    largest-magnitude component is real and positive.
    """
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    for i in range(vecs.shape[1]):
        col = vecs[:, i]
        j = int(np.argmax(np.abs(col)))
        pivot = col[j]
        if abs(pivot) > 0:
            vecs[:, i] = col * (abs(pivot) / pivot)
    return vals, vecs


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix acting on a finite-dimensional space.

    The operator owns its matrix: a complex ndarray is kept as it is, not
    copied, and made read-only, so the caller must not write to it again.
    Other input is converted, which copies.
    """

    mat: np.ndarray

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self, tol: float = EXACT_TOL) -> bool:
        """||A - A*|| <= tol, the exact norm taken only when its Frobenius bound exceeds tol."""
        skew = self.mat - self.mat.conj().T
        return bool(np.linalg.norm(skew) <= tol or np.linalg.norm(skew, 2) <= tol)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))


@dataclass(frozen=True, eq=False)
class State:
    """Positive trace-one operator held as a low-rank factor.

    ``weights`` (r,) and ``vectors`` (r, dim), whose rows are orthonormal, give
    the operator sum_i w_i |v_i><v_i|; both are read-only and C-contiguous
    (such an input array is kept, not copied, like an ``Operator``'s matrix).
    ``op``, the dense operator, is built from them on first read and cached.
    A density matrix is factored once, by ``from_operator``.
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
    def from_operator(cls, op: Operator, tol: float = EXACT_TOL) -> "State":
        """The eigenpairs of positive eigenvalue of a density matrix.

        Raises unless ``op`` is Hermitian, has no eigenvalue below -tol and
        has trace within tol of one.
        """
        if not op.is_hermitian(tol):
            raise ValueError("state operator is not Hermitian")
        vals, vecs = np.linalg.eigh(op.mat)
        if vals[0] < -tol:
            raise ValueError(f"state operator has negative eigenvalue {vals[0]:.3e}")
        tr = op.trace()
        if abs(tr - 1.0) > tol:
            raise ValueError(f"state trace {tr} is not 1")
        keep = vals > 0
        return cls(vals[keep], vecs[:, keep].T)

    @cached_property
    def op(self) -> Operator:
        """The dense operator (V w) V*, built once from the factor."""
        return Operator((self.vectors.T * self.weights) @ self.vectors.conj())

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def validate(self, tol: float = EXACT_TOL) -> None:
        """Check the factor in O(dim r^2): weights >= 0 summing to one, orthonormal vectors."""
        if self.weights.min() < 0:
            raise ValueError(f"negative spectral weight {self.weights.min():.3e}")
        if abs(self.weights.sum() - 1.0) > tol:
            raise ValueError("spectral weights do not sum to 1")
        gram = self.vectors.conj() @ self.vectors.T
        if spectral_norm(gram - np.eye(self.weights.size)) > tol:
            raise ValueError("spectral vectors are not orthonormal")


@dataclass(frozen=True)
class Effect:
    """Hermitian operator with spectrum in [0, 1] (within tolerance)."""

    op: Operator

    @property
    def dim(self) -> int:
        return self.op.dim

    def validate(self, tol: float = EXACT_TOL) -> None:
        if not self.op.is_hermitian(tol):
            raise ValueError("effect is not Hermitian")
        eigs = np.linalg.eigvalsh(self.op.mat)
        if eigs.min() < -tol or eigs.max() > 1.0 + tol:
            raise ValueError(
                f"effect spectrum [{eigs.min():.3e}, {eigs.max():.3e}] leaves [0, 1]"
            )


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


@dataclass(frozen=True)
class Pom:
    """Finite indexed family of effects over a declared outcome partition."""

    space_tag: str
    outcomes: Tuple[Outcome, ...]
    effects: Tuple[Effect, ...]

    def __post_init__(self):
        if len(self.outcomes) != len(self.effects):
            raise ValueError("outcomes and effects must have the same length")
        if not self.effects:
            raise ValueError("empty POM")
        dims = {e.dim for e in self.effects}
        if len(dims) != 1:
            raise ValueError(f"effects have mixed dimensions {dims}")

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    def effect_sum(self) -> np.ndarray:
        return sum(e.op.mat for e in self.effects)

    def labels(self) -> Tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    worst_negativity: float
    normalization_defect: float


@dataclass(frozen=True)
class ProbVector:
    """Outcome distribution with the raw trace values kept for auditing.

    ``probs`` is clamped to [0, 1] and renormalised; ``raw`` holds the
    unadjusted Re tr(T E_i) values.
    """

    probs: np.ndarray
    raw: np.ndarray
    negativity_defect: float
    normalization_defect: float

    def __len__(self) -> int:
        return len(self.probs)


# --- operations ----------------------------------------------------------


def make_state(spectral: Sequence[Tuple[float, Iterable[complex]]]) -> State:
    """Build a factor state from (weight, vector) pairs; no dim x dim matrix is formed.

    Vectors are orthonormalised in order by one reduced QR, each column
    rephased so R has a positive diagonal (the Gram-Schmidt vectors), and
    weights are renormalised to sum to one.  Raises on zero total weight,
    dimension mismatch, or linearly dependent vectors.
    """
    if not spectral:
        raise ValueError("empty spectral data")
    weights = np.array([float(w) for w, _ in spectral])
    if np.any(weights < 0):
        raise ValueError("negative weight")
    total = weights.sum()
    if total <= 0:
        raise ValueError("zero total weight")
    weights = weights / total

    vectors = [np.asarray(v, dtype=complex) for _, v in spectral]
    dims = {v.shape for v in vectors}
    if len(dims) != 1 or vectors[0].ndim != 1:
        raise ValueError(f"vectors must share one dimension, got shapes {dims}")

    mat = np.stack(vectors, axis=1)
    norms = np.linalg.norm(mat, axis=0)
    q, r = np.linalg.qr(mat)
    # |R_ii| is the part of vector i orthogonal to the earlier ones; past the
    # dimension there is no R_ii and every vector is dependent
    resid = np.pad(np.abs(np.diagonal(r)), (0, len(vectors) - min(mat.shape)))
    bad = np.flatnonzero((resid < 1e-12 * norms) | (norms == 0))
    if bad.size:
        kind = "zero vector" if norms[bad[0]] == 0 else "linearly dependent vectors"
        raise ValueError(f"{kind} in spectral data")
    basis = np.ascontiguousarray((q * (np.diagonal(r) / resid)).T)

    # positive by construction; the trace is sum_i w_i ||v_i||^2 on the factor
    trace = weights @ np.sum(np.abs(basis) ** 2, axis=1)
    if abs(trace - 1.0) > 1e-10:
        raise AssertionError("constructed state trace deviates from 1")
    return State(weights, basis)


def pure_state(vector: Iterable[complex]) -> State:
    """Rank-one state |v><v| / ||v||^2."""
    return make_state([(1.0, vector)])


def partition_pom(
    space_tag: str,
    bounds: Sequence[float],
    effect_of: Callable[[float, float], Effect],
    fmt: str,
) -> Pom:
    """POM of the interval cells [lo, hi) between consecutive ``bounds``.

    ``bounds`` must strictly increase.  Each cell gets the label ``[lo,hi)``,
    both ends written in the format ``fmt`` (such as ".6f"), and the effect
    ``effect_of(lo, hi)``.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.size < 2 or not np.all(bounds[1:] > bounds[:-1]):
        raise ValueError("boundaries must be strictly increasing")
    cells = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    outcomes = tuple(Outcome(f"[{lo:{fmt}},{hi:{fmt}})", IntervalCell(lo, hi)) for lo, hi in cells)
    return Pom(space_tag, outcomes, tuple(effect_of(lo, hi) for lo, hi in cells))


def check_pom_axioms(pom: Pom, tol: float = EXACT_TOL) -> AxiomReport:
    """Verify positivity of every effect and normalisation of their sum.

    ``worst_negativity`` is the largest eigenvalue deficit below zero or
    Hermiticity defect ||E - E*|| over all effects; ``normalization_defect``
    is the spectral norm of (sum of effects - identity).  A Hermiticity
    defect is bounded by its Frobenius norm and computed exactly only when
    that bound exceeds ``tol``, so ``passed`` is that of the exact check and
    ``worst_negativity`` is exact whenever it exceeds ``tol``.  Effects are
    stacked in blocks of about ``BLOCK_ENTRIES`` entries, one eigvalsh each.
    """
    worst = 0.0
    step = max(1, BLOCK_ENTRIES // pom.dim**2)
    for lo in range(0, len(pom.effects), step):
        mats = np.stack([eff.op.mat for eff in pom.effects[lo : lo + step]])
        skew = mats - mats.conj().transpose(0, 2, 1)
        herm = np.linalg.norm(skew, axis=(1, 2))
        for i in np.flatnonzero(herm > tol):
            herm[i] = np.linalg.norm(skew[i], 2)
        skew *= 0.5
        mats -= skew  # in place: the Hermitian part (E + E*) / 2
        eigs = np.linalg.eigvalsh(mats)
        worst = max(worst, -float(eigs[:, 0].min()), float(herm.max()))
    defect = spectral_norm(pom.effect_sum() - np.eye(pom.dim))
    return AxiomReport(
        passed=bool(worst <= tol and defect <= tol),
        worst_negativity=worst,
        normalization_defect=float(defect),
    )


def outcome_distribution(state: State, pom: Pom) -> ProbVector:
    """Probability of each outcome: Re tr(T E_i) = Re sum_jk T_jk (E_i)_kj, O(d^2) each."""
    if state.dim != pom.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, pom {pom.dim}")
    raw = np.array([np.sum(state.op.mat * e.op.mat.T).real for e in pom.effects])
    negativity = float(max(0.0, -raw.min()))
    norm_defect = float(abs(raw.sum() - 1.0))
    clipped = np.clip(raw, 0.0, 1.0)
    total = clipped.sum()
    probs = clipped / total if total > 0 else clipped
    return ProbVector(probs, raw, negativity, norm_defect)


def effect_is_regular(effect: Effect, tol: float = EXACT_TOL) -> bool:
    """True iff the effect's spectrum extends both above and below 1/2."""
    eigs = np.linalg.eigvalsh(effect.op.mat)
    return bool(eigs.max() > 0.5 + tol and eigs.min() < 0.5 - tol)


def commutator_norm(a: Operator, b: Operator) -> float:
    """Spectral norm of the commutator ab - ba."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    comm = a.mat @ b.mat - b.mat @ a.mat
    return float(np.linalg.norm(comm, 2))
