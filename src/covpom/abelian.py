"""Covariant POMs for finite abelian groups, and the phase and phase-difference POMs on the torus.

A finite abelian group is a product of cyclic groups; its dual is identified
with the same moduli tuple and the pairing <x, g> = exp(2 pi i sum x_i g_i / n_i)
is used throughout.  Measure normalisations are fixed once: counting measure
(weight 1 per point) on the dual group, on annihilators and on subgroups, and
weight 1/|G/H| per point on the quotient G/H, so that the quotient Fourier
cotransform is exactly unitary.

Inside the module an element is its row-major mixed-radix code in [0, |G|),
so every table over G is an integer array; tuples appear only at the
interface.  Pairings are phase indices mod lcm(moduli) into one exp table.

A representation is kept as monomial factors (``MonomialUnitaries``), and a
covariant POM is one seed effect moved by it: the (k, dim, dim) effect stack
U(c) E_0 U(c)* over the cells c that ``conjugate`` returns, on G/H from a
diagonal representation and isometries in ``build_covariant_pom``.
``sigma_matrix`` diagonalises the induced representation and
``translated_pvm_matrix`` is the translated projection-valued measure.
Covariance and equivalence are verified numerically with explicit defect
witnesses, covariance on the generators of G before any full sweep.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .grids import BLOCK_ENTRIES
from .hilbert import Outcome, PointCell, Pom, partition_pom

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "DiagonalRep",
    "RepBlock",
    "IsometryFamily",
    "annihilator",
    "covariance_densities",
    "build_covariant_pom",
    "MonomialUnitaries",
    "diagonal_unitaries",
    "coset_action",
    "verify_covariance",
    "sigma_matrix",
    "induced_translation_matrix",
    "dual_translation_matrix",
    "translated_pvm_matrix",
    "verify_pom_equivalence",
    "random_isometries",
    "phase_pom",
    "sharp_phase_witness",
    "phase_difference_pom",
]

Element = Tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_r}, written additively.

    The dual group is identified with the same moduli tuple; characters are
    index tuples, never function closures.
    """

    moduli: Tuple[int, ...]

    def __post_init__(self):
        if not self.moduli or any(m < 1 for m in self.moduli):
            raise ValueError(f"invalid moduli {self.moduli}")

    @property
    def order(self) -> int:
        out = 1
        for m in self.moduli:
            out *= m
        return out

    @property
    def identity(self) -> Element:
        return (0,) * len(self.moduli)

    def elements(self) -> Tuple[Element, ...]:
        return tuple(itertools.product(*[range(m) for m in self.moduli]))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def pairing(self, x: Element, g: Element) -> complex:
        """Bicharacter <x, g> of modulus one.

        The phase sum x_i g_i (lcm / n_i) is reduced mod lcm(moduli) on the
        integers and read from the table of ``_pairings``, so the angle
        stays below 2 pi and both give the same value bitwise.
        """
        period = self._roots.size
        index = sum(xi * gi * (period // m) for xi, gi, m in zip(x, g, self.moduli))
        return complex(self._roots[index % period])

    def contains(self, a: Element) -> bool:
        return len(a) == len(self.moduli) and all(
            0 <= x < m for x, m in zip(a, self.moduli)
        )

    @cached_property
    def _roots(self) -> np.ndarray:
        """exp(2 pi i k / lcm(moduli)) for k = 0, ..., lcm - 1: every pairing is one of them."""
        period = math.lcm(*self.moduli)
        return np.exp(2j * np.pi * np.arange(period) / period)

    @cached_property
    def _strides(self) -> np.ndarray:
        """Row-major mixed-radix strides: the code of a is sum a_i stride_i."""
        return np.cumprod((1,) + self.moduli[:0:-1])[::-1]


# --- mixed-radix codes ------------------------------------------------------


def _digits(group: FiniteAbelianGroup, codes) -> np.ndarray:
    """Element rows, shape (..., rank), of an array of codes."""
    return np.asarray(codes)[..., None] // group._strides % group.moduli


def _code_of(group: FiniteAbelianGroup, digits) -> np.ndarray:
    """Codes of integer element rows (..., rank), each entry taken mod its modulus."""
    return np.asarray(digits) % group.moduli @ group._strides


def _codes(group: FiniteAbelianGroup, elems) -> np.ndarray:
    """Codes of element rows (s, rank), which must lie in the group; they ascend as the rows do."""
    rows = np.asarray(elems, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != len(group.moduli):
        raise ValueError(f"elements of rank {len(group.moduli)} needed, not shape {rows.shape}")
    bad = np.flatnonzero(np.any((rows < 0) | (rows >= group.moduli), axis=1))
    if bad.size:
        raise ValueError(f"element {tuple(rows[bad[0]].tolist())} outside the parent group")
    return rows @ group._strides


def _tuples(group: FiniteAbelianGroup, codes) -> Tuple[Element, ...]:
    return tuple(map(tuple, _digits(group, codes).tolist()))


def _span(group: FiniteAbelianGroup, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted codes of the subgroup that ``codes`` generate, and the generators used.

    A generator g outside the span S so far makes it the disjoint union of the
    cosets S + j g, 0 <= j < k, with k g the first multiple of g in S; so each
    used generator at least doubles S, and at most log2 |S| are used.
    """
    member = np.arange(group.order) == 0
    steps = np.arange(math.lcm(*group.moduli) + 1)[:, None]
    used = []
    for g in np.asarray(codes).tolist():
        if not member[g]:
            multiples = _code_of(group, steps * _digits(group, g))
            k = 1 + int(np.argmax(member[multiples[1:]]))
            span = _digits(group, np.flatnonzero(member))[:, None]
            member[_code_of(group, span + _digits(group, multiples[:k]))] = True
            used.append(g)
    return np.flatnonzero(member), np.array(used, dtype=np.int64)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent``, given by all its elements.

    ``codes`` are their sorted codes, and ``gens`` a generating set of at
    most log2 |H| of them.
    """

    parent: FiniteAbelianGroup
    elements: Tuple[Element, ...]
    codes: np.ndarray = field(init=False, repr=False, compare=False)
    gens: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parent.identity not in self.elements:
            raise ValueError("subgroup must contain the identity")
        codes = np.unique(_codes(self.parent, self.elements))
        span, gens = _span(self.parent, codes)
        # the span contains the given set, so it is closed iff they are equal
        if span.size != codes.size:
            raise ValueError("subgroup is not closed under addition")
        object.__setattr__(self, "elements", _tuples(self.parent, codes))
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "gens", gens)

    @classmethod
    def from_generators(
        cls, parent: FiniteAbelianGroup, generators: Sequence[Element]
    ) -> "Subgroup":
        rows = np.array([tuple(g) for g in generators], dtype=np.int64)
        span, _ = _span(parent, _code_of(parent, rows.reshape(-1, len(parent.moduli))))
        return cls(parent, _tuples(parent, span))

    @classmethod
    def trivial(cls, parent: FiniteAbelianGroup) -> "Subgroup":
        return cls(parent, (parent.identity,))

    @classmethod
    def full(cls, parent: FiniteAbelianGroup) -> "Subgroup":
        return cls(parent, parent.elements())

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Element) -> bool:
        return self.parent.contains(tuple(a)) and bool(_codes(self.parent, [a])[0] in self.codes)

    @cached_property
    def _annihilator(self) -> "Subgroup":
        group = self.parent
        # a character is trivial on the subgroup iff it is trivial on its generators
        trivial = ~np.any(_phases(group, np.arange(group.order), self.gens), axis=1)
        ann = Subgroup(group, _tuples(group, np.flatnonzero(trivial)))
        if ann.order * self.order != group.order:
            raise AssertionError("annihilator order check |H| |Hperp| = |G| failed")
        return ann

    @cached_property
    def _dual_cosets(self) -> np.ndarray:
        """Code of the smallest element of x + Hperp, for every code x.

        x - x' lies in Hperp iff x and x' agree on the generators of H, so
        those pairings label the cosets; codes ascend, so each label's first
        code is its smallest.
        """
        labels = _phases(self.parent, np.arange(self.parent.order), self.gens)
        _, first, label = np.unique(labels, axis=0, return_index=True, return_inverse=True)
        return first[label.ravel()]


def _phases(group: FiniteAbelianGroup, xs, gs) -> np.ndarray:
    """Integer phase indices mod lcm(moduli) of <x, g> over codes xs (rows) and gs."""
    period = math.lcm(*group.moduli)
    scale = np.array([period // m for m in group.moduli], dtype=np.int64)
    return (_digits(group, xs) * scale) @ _digits(group, gs).T % period


def _pairings(group: FiniteAbelianGroup, xs, gs) -> np.ndarray:
    """Table of <x, g> over the codes x of ``xs`` (rows) and g of ``gs``.

    Each phase is an integer index mod lcm(moduli) into one table of roots of
    unity, so <x, g> = 1 holds exactly and equal characters are equal bitwise.
    """
    return group._roots[_phases(group, xs, gs)]


def annihilator(group: FiniteAbelianGroup, sub: Subgroup) -> Subgroup:
    """Characters of the group that are trivial on the subgroup."""
    if sub.parent != group:
        raise ValueError("subgroup does not belong to the given group")
    return sub._annihilator


def _dual_coset_table(group: FiniteAbelianGroup, sub: Subgroup) -> np.ndarray:
    """Code of the smallest element of x + Hperp, for every code x of the dual group."""
    if sub.parent != group:
        raise ValueError("subgroup does not belong to the given group")
    return sub._dual_cosets


def _coset_table(group: FiniteAbelianGroup, sub: Subgroup) -> np.ndarray:
    """Code of the smallest element of g + H, for every code g: H is the annihilator of Hperp."""
    return _dual_coset_table(group, annihilator(group, sub))


def _hperp_mask(group: FiniteAbelianGroup, xs: np.ndarray, sub: Subgroup) -> np.ndarray:
    """[x - x' in Hperp] over pairs of the codes ``xs``."""
    label = _dual_coset_table(group, sub)[xs]
    return label[:, None] == label[None, :]


# --- diagonal representations and isometry families -----------------------


@dataclass(frozen=True, eq=False)
class RepBlock:
    """One multiplicity block: positive weights on dual points.

    ``points`` (s, rank) are the supported dual points in ascending row
    order and ``weights`` (s,) their finite, strictly positive weights, both
    read-only arrays; ``mult`` is the dimension of the multiplicity space.
    """

    points: np.ndarray
    weights: np.ndarray
    mult: int

    def __init__(self, points, weights, mult: int):
        points = np.array(points, dtype=np.int64)
        weights = np.array(weights, dtype=float)
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        if not weights.size:
            raise ValueError("block has empty support")
        if points.ndim != 2 or weights.shape != points.shape[:1]:
            shapes = f"{weights.shape} and {points.shape}"
            raise ValueError(f"need one weight per point row, not shapes {shapes}")
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
        if bad.size:
            x = tuple(points[bad[0]].tolist())
            raise ValueError(f"weight {weights[bad[0]]} at {x} is not positive and finite")
        order = np.lexsort(points.T[::-1])
        for name, arr in (("points", points[order]), ("weights", weights[order])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "mult", int(mult))

    @classmethod
    def from_mapping(cls, weights: Mapping[Element, float], mult: int) -> "RepBlock":
        """The block on the points of nonzero weight: a weight of exactly 0 is no support."""
        kept = [(tuple(x), float(w)) for x, w in weights.items() if w != 0]
        by_rank = {len(x): x for x, _ in kept}
        if len(by_rank) > 1:
            raise ValueError(f"points {' and '.join(map(str, by_rank.values()))} differ in rank")
        return cls([x for x, _ in kept], [w for _, w in kept], mult)


@dataclass(frozen=True)
class DiagonalRep:
    """Unitary representation acting diagonally on dual-indexed fibers.

    Its orthonormal basis is (block k, dual point x, fiber i) in that nesting
    order, the points of a block ascending; ``codes`` holds the code of the
    dual point of each basis vector.
    """

    group: FiniteAbelianGroup
    blocks: Tuple[RepBlock, ...]
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("representation needs at least one block")
        points = [_codes(self.group, blk.points) for blk in self.blocks]
        if np.unique(np.concatenate(points)).size != sum(p.size for p in points):
            raise ValueError("block weight supports must be pairwise disjoint")
        codes = np.concatenate([np.repeat(p, blk.mult) for p, blk in zip(points, self.blocks)])
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @property
    def dim(self) -> int:
        return self.codes.size


def _point_blocks(rep: DiagonalRep, columns: np.ndarray) -> list:
    """Per block k, its isometries W_k(x) over the points x, stacked: (s_k, aux_dim, mult_k)."""
    sizes = [len(blk.weights) * blk.mult for blk in rep.blocks]
    return [
        part.reshape(len(columns), len(blk.weights), blk.mult).transpose(1, 0, 2)
        for blk, part in zip(rep.blocks, np.split(columns, np.cumsum(sizes)[:-1], axis=1))
    ]


@dataclass(frozen=True, eq=False)
class IsometryFamily:
    """The isometries W_k(x) side by side in the basis order of a representation.

    ``columns`` is one read-only aux_dim x dim array: the columns of basis
    vectors (k, x, 0), ..., (k, x, mult_k - 1) hold W_k(x).
    """

    columns: np.ndarray

    def __init__(self, columns):
        columns = np.array(columns, dtype=complex, order="C")
        if columns.ndim != 2:
            raise ValueError(f"isometry columns must be a matrix, not shape {columns.shape}")
        columns.setflags(write=False)
        object.__setattr__(self, "columns", columns)

    @property
    def aux_dim(self) -> int:
        return self.columns.shape[0]

    @classmethod
    def from_mappings(
        cls, rep: DiagonalRep, aux_dim: int, blocks: Sequence[Mapping[Element, np.ndarray]]
    ) -> "IsometryFamily":
        """The family with W_k(x) = ``blocks[k][x]``, aux_dim x mult_k, at each point of ``rep``."""
        if len(blocks) != len(rep.blocks):
            raise ValueError("isometry family and representation block counts differ")
        mats = []
        for k, (blk, given) in enumerate(zip(rep.blocks, blocks)):
            points = list(map(tuple, blk.points.tolist()))
            x = min(set(given).difference(points), default=None)
            if x is not None:
                raise ValueError(f"isometry for block {k} at dual point {x} outside its support")
            for x in points:
                if x not in given:
                    raise ValueError(f"no isometry for block {k} at dual point {x}")
                mats.append(np.asarray(given[x], dtype=complex))
                if mats[-1].shape != (aux_dim, blk.mult):
                    raise ValueError(
                        f"isometry at block {k}, {x} has shape {mats[-1].shape}, "
                        f"expected {(aux_dim, blk.mult)}"
                    )
                if not np.isfinite(mats[-1]).all():
                    raise ValueError(f"isometry at block {k}, {x} has a non-finite entry")
        return cls(np.concatenate(mats, axis=1))

    def validate(self, rep: DiagonalRep, tol: float = 1e-12) -> None:
        """Raise unless each ||W_k(x)* W_k(x) - I|| <= tol, naming a block's first worst point."""
        if self.columns.shape[1] != rep.dim:
            raise ValueError(
                f"isometry family has {self.columns.shape[1]} columns, "
                f"the representation dimension is {rep.dim}"
            )
        for k, (blk, w) in enumerate(zip(rep.blocks, _point_blocks(rep, self.columns))):
            gram = w.conj().transpose(0, 2, 1) @ w - np.eye(blk.mult)
            defects = np.linalg.norm(gram, 2, axis=(1, 2))
            i = int(np.argmax(defects))
            if defects[i] > tol:
                x = tuple(blk.points[i].tolist())
                raise ValueError(f"W_{k}({x}) is not an isometry (defect {defects[i]:.3e})")


def random_isometries(
    rep: DiagonalRep, aux_dim: int, rng: np.random.Generator
) -> IsometryFamily:
    """Haar-ish random isometries consistent with the representation.

    Per point in basis order, a real then an imaginary Gaussian aux_dim x
    mult block is drawn and orthonormalised by QR.
    """
    max_mult = max(blk.mult for blk in rep.blocks)
    if aux_dim < max_mult:
        raise ValueError(f"aux_dim {aux_dim} below maximal multiplicity {max_mult}")
    parts = []
    for blk in rep.blocks:
        a = rng.normal(size=(len(blk.weights), 2, aux_dim, blk.mult))
        q, _ = np.linalg.qr(a[:, 0] + 1j * a[:, 1])
        parts.append(q.transpose(1, 0, 2).reshape(aux_dim, -1))
    return IsometryFamily(np.concatenate(parts, axis=1))


# --- admissibility densities ----------------------------------------------


@dataclass(frozen=True, eq=False)
class CovarianceDensities:
    """``nu_tilde`` (|G|,) and ``alpha`` (blocks, |G|), each indexed by the code of a dual point."""

    nu_tilde: np.ndarray
    alpha: np.ndarray


def covariance_densities(rep: DiagonalRep, sub: Subgroup) -> CovarianceDensities:
    """Densities of the block measures against the lifted push-forward.

    nu_tilde(x) = sum over the annihilator of the total block weight on the
    coset of x; alpha_k(x) = weight_k(x) / nu_tilde(x) on the support of
    block k and zero elsewhere.  On a finite group nu_tilde dominates every
    block weight, so covariant POMs always exist.
    """
    group = rep.group
    weights = np.zeros((len(rep.blocks), group.order))
    for k, blk in enumerate(rep.blocks):
        weights[k, _codes(group, blk.points)] = blk.weights
    dual = _dual_coset_table(group, sub)
    nu_tilde = np.bincount(dual, weights=weights.sum(axis=0), minlength=group.order)[dual]
    alpha = np.divide(weights, nu_tilde, out=np.zeros_like(weights), where=weights > 0)
    return CovarianceDensities(nu_tilde, alpha)


# --- the covariant POM construction ---------------------------------------


def build_covariant_pom(
    rep: DiagonalRep, sub: Subgroup, isometries: IsometryFamily
) -> Pom:
    """Covariant POM on G/H defined by a diagonal representation and isometries.

    Outcome cells are the points of G/H (labelled by sorted coset
    representatives).  The effect of the coset with representative c has
    entries, in the orthonormal basis (block j, dual point x, fiber i),

        E_c[(j, x, i), (k, x', l)] =
            [x - x' in Hperp] <x - x', c> / |G/H| (W_j(x)* W_k(x'))[i, l].

    The square-root density factors of the defining formula cancel in these
    coordinates because the lifted quotient measure is constant on cosets of
    the annihilator.  The pairing is a character in x, so <x - x', c> =
    p_c(x) conj(p_c(x')) with p_c = <., c>: each effect is the seed effect
    E_0 conjugated by the diagonal U(c), at O(dim^2) per coset.
    """
    group = rep.group
    isometries.validate(rep)
    reps = np.unique(_coset_table(group, sub))
    dual = rep.codes
    cols = isometries.columns
    seed = np.where(_hperp_mask(group, dual, sub), cols.conj().T @ cols, 0) / reps.size
    effects = diagonal_unitaries(rep).conjugate(reps, seed)
    outcomes = tuple(Outcome(label=str(c), cell=PointCell(c)) for c in _tuples(group, reps))
    tag = f"G/H points, G=Z{'x'.join(map(str, group.moduli))}, |H|={sub.order}"
    return Pom(tag, outcomes, effects)


class MonomialUnitaries(Mapping):
    """U(g) for every element g of ``group``, each kept as a monomial matrix.

    U(g) = diag(phi_g) P_g with (P_g v)_j = v[pi_g(j)], so conjugation is one
    gather and one product, (U(g) M U(g)*)_jk = phi_g(j) conj(phi_g(k))
    M[pi_g(j), pi_g(k)], at O(dim^2) per matrix.  ``factors`` maps an array
    of element codes to the phases phi (k, dim) and the index maps pi
    (k, dim), or to None for pi when every U(g) is diagonal.  Keys are the
    element tuples in code order; only ``__getitem__`` builds a dense U(g).
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        dim: int,
        factors: Callable[[np.ndarray], Tuple[np.ndarray, Optional[np.ndarray]]],
    ):
        self.group = group
        self.dim = dim
        self._factors = factors

    # identity, not Mapping's item-by-item equality, which would build every dense U(g)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self) -> int:
        return self.group.order

    def __iter__(self):
        return iter(self.group.elements())

    def __getitem__(self, g: Element) -> np.ndarray:
        g = tuple(g)
        if not self.group.contains(g):
            raise KeyError(g)
        phases, perms = self._factors(_code_of(self.group, [g]))
        rows = np.arange(self.dim)
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[rows, rows if perms is None else perms[0]] = phases[0]
        return mat

    def conjugate(self, codes, mats: np.ndarray) -> np.ndarray:
        """U(g) M U(g)* over the codes g (k,) and matrices M (..., dim, dim): (..., k, dim, dim).

        Each is M[pi_g, pi_g] * (phi_g phi_g*).  The outer products fill one new
        array, which takes the product in place with M first; M is gathered only
        when the U(g) permute.  So the product's order, and its last bits, do not
        depend on the size of the stack.
        """
        phases, perms = self._factors(np.asarray(codes))
        out = np.empty(mats.shape[:-2] + (len(phases), self.dim, self.dim), dtype=complex)
        np.multiply(phases[:, :, None], phases[:, None, :].conj(), out=out)
        if perms is None:
            moved = mats[..., None, :, :]
        else:
            moved = mats[..., perms[:, :, None], perms[:, None, :]]
        return np.multiply(moved, out, out=out)


def diagonal_unitaries(rep: DiagonalRep) -> MonomialUnitaries:
    """The representation matrices U(g): diagonal phases <x, g> per fiber."""
    dual = rep.codes
    return MonomialUnitaries(rep.group, dual.size, lambda g: (_pairings(rep.group, g, dual), None))


def coset_action(
    group: FiniteAbelianGroup, sub: Subgroup
) -> Callable[[Element, PointCell], PointCell]:
    """Action of the group on G/H cells: g moves the coset of c to that of g + c."""
    elems = group.elements()
    rep_of = [elems[r] for r in _coset_table(group, sub).tolist()]

    def act(g: Element, cell: PointCell) -> PointCell:
        code = 0
        for x, y, m in zip(g, cell.value, group.moduli):
            code = code * m + (x + y) % m
        return PointCell(rep_of[code])

    return act


@dataclass(frozen=True)
class CovarianceReport:
    """``word_length`` is the factor L of a pass on generators, None when every pair was swept."""

    passed: bool
    max_defect: float
    worst: Tuple[Element, str]
    word_length: Optional[int] = None


def verify_covariance(
    pom: Pom,
    unitaries: MonomialUnitaries,
    action: Callable[[Element, PointCell], PointCell],
    tol: float = 1e-10,
) -> CovarianceReport:
    """Max over (g, cell) of || U(g) E(X) U(g)* - E(g[X]) ||, with its witness.

    ``action`` must be an action of ``unitaries.group`` on the cells, and
    ``unitaries`` a projective representation of it, so that Ad U is a
    representation.  Then D(g) = max_X ||U(g) E(X) U(g)* - E(g[X])|| obeys
    D(g + h) <= D(g) + D(h) and D(-g) = D(g), and every g is a sum of at
    most L = sum_i floor(m_i / 2) standard generators e_i and their
    negatives.  The stored effects are first conjugated by the e_i only;
    with delta the largest Frobenius defect of a pair (e_i, X), which bounds
    its spectral defect, every pair has spectral defect at most L delta.  If
    L delta <= tol the check passes with ``max_defect`` = L delta,
    ``worst`` the generator pair of defect delta and ``word_length`` = L.

    Otherwise every pair is swept: for each g the effects are conjugated in
    blocks of about ``BLOCK_ENTRIES`` entries, each defect is bounded by its
    Frobenius norm, and only a pair whose bound exceeds ``tol`` gets the
    exact spectral norm, from the dense U(g).  So ``passed`` is that of the
    exact check on every pair.  On a swept pass ``max_defect`` is the largest
    bound used, at most ``tol``; on a failure it is the exact spectral norm
    of the first worst pair, ``worst``, in the order of ``unitaries`` and the
    outcomes.  A non-finite effect fails the check with ``max_defect`` NaN and
    ``worst`` the identity paired with the first such effect.
    """
    index_of = {}
    for i, out in enumerate(pom.outcomes):
        if not isinstance(out.cell, PointCell):
            raise ValueError("covariance check needs group-labelled cells")
        index_of[out.cell] = i
    mats = pom.effects
    step = max(1, BLOCK_ENTRIES // pom.dim**2)
    group = unitaries.group
    bad = np.flatnonzero(~np.isfinite(mats).all(axis=(1, 2)))
    if bad.size:
        return CovarianceReport(False, math.nan, (group.identity, pom.outcomes[bad[0]].label))

    def frobenius_defects(code: int) -> Tuple[Element, np.ndarray, np.ndarray]:
        (g,) = _tuples(group, [code])
        targets = np.empty(len(mats), dtype=np.int64)
        for i, out in enumerate(pom.outcomes):
            target = action(g, out.cell)
            if target not in index_of:
                raise ValueError(f"action of {g} leaves the declared cell set")
            targets[i] = index_of[target]
        defects = np.empty(len(targets))
        for lo in range(0, len(targets), step):
            moved = unitaries.conjugate([code], mats[lo : lo + step])[:, 0]
            moved -= mats[targets[lo : lo + step]]
            defects[lo : lo + step] = np.linalg.norm(moved, axis=(1, 2))
        return g, targets, defects

    generators = _code_of(group, np.eye(len(group.moduli), dtype=np.int64))
    screen = [frobenius_defects(code) for code in generators]
    word_length = sum(m // 2 for m in group.moduli)
    k, i = np.unravel_index(np.argmax([d for _, _, d in screen]), (len(screen), len(pom.effects)))
    bound = word_length * float(screen[k][2][i])
    if bound <= tol:
        return CovarianceReport(True, bound, (screen[k][0], pom.outcomes[i].label), word_length)

    worst = ((), "")
    max_defect = 0.0
    for code in range(group.order):
        g, targets, defects = frobenius_defects(code)
        over = np.flatnonzero(defects > tol)
        if over.size:
            u = unitaries[g]
            for i in over:
                defects[i] = np.linalg.norm(u @ mats[i] @ u.conj().T - mats[targets[i]], 2)
        i = int(np.argmax(defects))
        if defects[i] > max_defect:
            max_defect = float(defects[i])
            worst = (g, pom.outcomes[i].label)
    return CovarianceReport(max_defect <= tol, max_defect, worst)


# --- the diagonalising transform and the translated PVM -------------------


def sigma_matrix(group: FiniteAbelianGroup, sub: Subgroup) -> np.ndarray:
    """Unitary matrix of the transform in weight-orthonormal coordinates.

    Rows are indexed by dual group elements, columns by pairs
    (coset representative, dual coset representative) with the dual coset
    forced to match: Sigma[x, (c, xdot)] = [q(x) = xdot] <x, c> / sqrt(|G/H|).
    """
    reps = np.unique(_coset_table(group, sub))
    dual_reps, rows = np.unique(_dual_coset_table(group, sub), return_inverse=True)
    elems = np.arange(group.order)
    mat = np.zeros((group.order, dual_reps.size, reps.size), dtype=complex)
    mat[elems, rows] = _pairings(group, elems, reps) / np.sqrt(reps.size)
    return mat.reshape(group.order, -1)


def induced_translation_matrix(
    group: FiniteAbelianGroup, sub: Subgroup, a: Element
) -> np.ndarray:
    """Translation by a on the equivariant space, in the sigma_matrix column basis.

    Rows index the output: (lambda(a) f)(c, xdot) = conj(<xdot, h>) f(t, xdot),
    where t is the representative of c - a and h = c - a - t lies in H.
    """
    table = _coset_table(group, sub)
    reps = np.unique(table)
    dual_reps = np.unique(_dual_coset_table(group, sub))
    shifted = _code_of(group, _digits(group, reps) - np.asarray(a))
    target = table[shifted]
    h = _code_of(group, _digits(group, shifted) - _digits(group, target))
    # column (c, xdot) sits at (index of xdot) |G/H| + (index of c)
    offset = reps.size * np.arange(dual_reps.size)[:, None]
    mat = np.zeros((dual_reps.size * reps.size,) * 2, dtype=complex)
    mat[offset + np.arange(reps.size), offset + np.searchsorted(reps, target)] = np.conj(
        _pairings(group, dual_reps, h)
    )
    return mat


def dual_translation_matrix(group: FiniteAbelianGroup, a: Element) -> np.ndarray:
    """Diagonal action <x, a> on functions over the dual group."""
    return np.diag(_pairings(group, np.arange(group.order), _code_of(group, [a]))[:, 0])


def translated_pvm_matrix(
    omega: Mapping[Element, complex] | Sequence[complex],
    group: FiniteAbelianGroup,
    sub: Subgroup,
) -> np.ndarray:
    """The canonical PVM of omega on G/H, transported to the dual side.

    (P(omega) phi)(x) = sum over y in Hperp of Fbar(omega)(y) phi(x - y),
    where Fbar(omega)(y) = (1/|G/H|) sum over cosets c of <y, c> omega(c) is
    the quotient cotransform.
    """
    reps = np.unique(_coset_table(group, sub))
    if isinstance(omega, Mapping):
        omega = [omega[c] for c in _tuples(group, reps)]
    elif len(omega) != reps.size:
        raise ValueError("omega must list one value per coset")
    elems = np.arange(group.order)
    chars = _pairings(group, elems, reps)
    # <x - x', c> = <x, c> conj(<x', c>), so Fbar(omega)(x - x') is one product
    fbar = (chars * np.asarray(omega, dtype=complex)) @ chars.conj().T / reps.size
    return np.where(_hperp_mask(group, elems, sub), fbar, 0)


# --- equivalence of covariant POMs ----------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    max_defect: float
    witness: Optional[Tuple[int, int, Element, Element]]
    conjugation_defect: Optional[float]


def _block_diag(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The square complex blocks ``mats`` along the diagonal of one zero matrix."""
    out = np.zeros((sum(len(m) for m in mats),) * 2, dtype=complex)
    at = 0
    for m in mats:
        out[at:at + len(m), at:at + len(m)] = m
        at += len(m)
    return out


def verify_pom_equivalence(
    rep: DiagonalRep,
    sub: Subgroup,
    w_first: IsometryFamily,
    w_second: IsometryFamily,
    intertwiners: Sequence[Mapping[Element, np.ndarray]],
    tol: float = 1e-9,
) -> EquivalenceReport:
    """Check whether two isometry families define equivalent covariant POMs.

    ``intertwiners`` gives, per block and supported dual point, a candidate
    unitary S_k(x) on the multiplicity space.  The criterion tested is

        sqrt(a_k(x')) W_j(x)* W_k(x')
            = sqrt(a_k(x')) S_j(x)* W'_j(x)* W'_k(x') S_k(x')

    over all block pairs and same-coset dual pairs.  Both sides come from one
    masked Gram difference of the columns of W and of W' S; the defect of a
    pair is the spectral norm of its (mult_j, mult_k) block, and ``witness``
    is the first pair of largest defect in (j, k, x, x') order.  When the
    criterion holds, the block-diagonal unitary assembled from the S_k is
    verified to conjugate one built POM into the other.
    """
    w_first.validate(rep)
    w_second.validate(rep)
    dens = covariance_densities(rep, sub)
    s_mats = []
    for k, blk in enumerate(rep.blocks):
        for x in map(tuple, blk.points.tolist()):
            s = np.asarray(intertwiners[k][x], dtype=complex)
            if s.shape != (blk.mult, blk.mult):
                raise ValueError(f"S_{k}({x}) has wrong shape {s.shape}")
            if np.linalg.norm(s.conj().T @ s - np.eye(blk.mult), 2) > tol:
                raise ValueError(f"S_{k}({x}) is not unitary within {tol}")
            s_mats.append(s)
    s_full = _block_diag(s_mats)

    first = w_first.columns
    second = w_second.columns @ s_full
    diff = first.conj().T @ first
    diff -= second.conj().T @ second
    sizes = [(len(blk.weights), blk.mult) for blk in rep.blocks]
    ends = np.cumsum([0] + [n * m for n, m in sizes])
    block_of = np.repeat(np.arange(len(rep.blocks)), np.diff(ends))
    diff *= np.sqrt(dens.alpha[block_of, rep.codes])
    diff[~_hperp_mask(rep.group, rep.codes, sub)] = 0
    max_defect = 0.0
    witness = None
    for j, k in itertools.product(range(len(rep.blocks)), repeat=2):
        block = diff[ends[j] : ends[j + 1], ends[k] : ends[k + 1]].reshape(*sizes[j], *sizes[k])
        defects = np.linalg.norm(block.transpose(0, 2, 1, 3), 2, axis=(2, 3))
        x, xp = np.unravel_index(np.argmax(defects), defects.shape)
        if defects[x, xp] > max_defect:
            max_defect = float(defects[x, xp])
            witness = (j, k, tuple(rep.blocks[j].points[x].tolist()),
                       tuple(rep.blocks[k].points[xp].tolist()))

    equivalent = max_defect <= tol
    conj_defect = None
    if equivalent:
        pom_first = build_covariant_pom(rep, sub, w_first)
        pom_second = build_covariant_pom(rep, sub, w_second)
        moved = s_full @ pom_first.effects - pom_second.effects @ s_full
        conj_defect = float(np.linalg.norm(moved, 2, axis=(1, 2)).max())
        equivalent = conj_defect <= max(tol, 1e-9)
    return EquivalenceReport(equivalent, max_defect, witness, conj_defect)


# --- torus examples: phase and phase difference ---------------------------


def _interval_coefficient(n: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(1/2pi) integral over [lo, hi) of exp(i n theta) for integer arrays n, once per integer."""
    m = np.arange(n.min(), n.max() + 1)
    nonzero = np.where(m == 0, 1, m)
    ends = (np.exp(1j * m * hi) - np.exp(1j * m * lo)) / (2j * np.pi * nonzero)
    return np.where(m == 0, (hi - lo) / (2 * np.pi), ends)[n - m[0]]


def _phase_parts(h: Sequence[np.ndarray]):
    """Gram matrix <h_j, h_k>, index differences j - k and mask (none) of a phase observable."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in h]
    if len({v.shape[0] for v in vecs}) != 1:
        raise ValueError("phase vectors must share one dimension")
    vecs = np.array(vecs)
    bad = np.flatnonzero(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"phase vector {bad[0]} is not normalised")
    return vecs.conj() @ vecs.T, np.subtract.outer(range(len(vecs)), range(len(vecs))), True


def _torus_effect(gram, diff, mask, interval: Tuple[float, float]) -> np.ndarray:
    """Effect c_diff(interval) gram on the mask and 0 off it."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= 2 * np.pi + 1e-12):
        raise ValueError(f"need 0 <= lo < hi <= 2 pi, got [{lo}, {hi})")
    return np.where(mask, _interval_coefficient(diff, lo, hi) * gram, 0)


def _torus_partition(space_tag: str, boundaries: Sequence[float], parts) -> Pom:
    """Partition POM over boundaries from 0 to 2 pi, one ``_torus_effect`` of ``parts`` per cell."""
    bounds = np.asarray(boundaries, dtype=float)
    if bounds.size < 2 or abs(bounds[0]) > 1e-12 or abs(bounds[-1] - 2 * np.pi) > 1e-12:
        raise ValueError("boundaries must run from 0 to 2 pi")
    return partition_pom(space_tag, bounds, lambda lo, hi: _torus_effect(*parts, (lo, hi)), ".6f")


def phase_pom(h: Sequence[np.ndarray], boundaries: Sequence[float]) -> Pom:
    """Covariant phase POM over a partition of [0, 2 pi) into intervals."""
    return _torus_partition("theta in [0, 2 pi)", boundaries, _phase_parts(h))


def canonical_phase_vectors(d: int) -> list[np.ndarray]:
    """All-equal unit vectors: the canonical phase observable."""
    return [np.array([1.0 + 0j]) for _ in range(d)]


def sharp_phase_witness(pom: Pom) -> Tuple[Outcome, float]:
    """Cell maximising the projection defect ||E^2 - E|| of a phase POM, the first on ties.

    For a nontrivial partition in dimension >= 2 the defect is strictly
    positive: no covariant phase observable is sharp.
    """
    if pom.dim < 2:
        raise ValueError("phase observables need dimension >= 2")
    if len(pom.effects) < 2:
        raise ValueError("trivial partition: single cell is the whole circle")
    m = pom.effects
    defects = np.linalg.norm(m @ m - m, 2, axis=(1, 2))
    i = int(np.argmax(defects))
    return pom.outcomes[i], float(defects[i])


def _difference_parts(d: int, h: Mapping[Tuple[int, int], np.ndarray]):
    """Gram matrix of the stacked h vectors, differences j - m and the mask l+m = i+j."""
    keys = [(i, j) for i in range(d) for j in range(d)]
    vecs = np.stack([np.asarray(h[key], dtype=complex).ravel() for key in keys])
    bad = np.flatnonzero(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"h[{keys[bad[0]]}] is not normalised")
    i, j = np.divmod(np.arange(d * d), d)
    return vecs.conj() @ vecs.T, j[None, :] - j[:, None], (i + j)[:, None] == (i + j)[None, :]


def phase_difference_pom(
    d: int, h: Mapping[Tuple[int, int], np.ndarray], boundaries: Sequence[float]
) -> Pom:
    return _torus_partition("phase difference in [0, 2 pi)", boundaries, _difference_parts(d, h))
