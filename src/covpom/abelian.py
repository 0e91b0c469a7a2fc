"""Covariant POMs for finite abelian groups, plus torus and line examples.

A finite abelian group is a product of cyclic groups; its dual is identified
with the same moduli tuple and the pairing <x, g> = exp(2 pi i sum x_i g_i / n_i)
is used throughout.  Measure normalisations are fixed once: counting measure
(weight 1 per point) on the dual group, on annihilators and on subgroups, and
weight 1/|G/H| per point on the quotient G/H, so that the quotient Fourier
cotransform is exactly unitary.

``build_covariant_pom`` assembles a covariant POM on G/H from a diagonal
representation and a family of isometries: every effect is one seed effect
conjugated by the diagonal phase U(c).  ``sigma_matrix`` is the unitary that
diagonalises the induced representation and ``translated_pvm_matrix`` the
translated projection-valued measure.  Pairings are tabulated as integer
phase indices mod lcm(moduli) into one table of roots of unity.
Verification (covariance, equivalence) is done numerically with explicit
defect witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .grids import BLOCK_ENTRIES, Grid1D
from .hilbert import (
    Effect,
    Operator,
    Outcome,
    PointCell,
    Pom,
    partition_pom,
)

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "DiagonalRep",
    "RepBlock",
    "IsometryFamily",
    "annihilator",
    "covariance_densities",
    "build_covariant_pom",
    "diagonal_unitaries",
    "coset_action",
    "verify_covariance",
    "sigma_matrix",
    "induced_translation_matrix",
    "dual_translation_matrix",
    "translated_pvm_matrix",
    "verify_pom_equivalence",
    "random_isometries",
    "phase_observable_effect",
    "phase_pom",
    "sharp_phase_witness",
    "phase_difference_effect",
    "phase_difference_pom",
    "translation_covariant_effect",
    "translation_covariant_pom",
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
        """Bicharacter <x, g> of modulus one."""
        phase = sum(xi * gi / m for xi, gi, m in zip(x, g, self.moduli))
        return complex(np.exp(2j * np.pi * phase))

    def contains(self, a: Element) -> bool:
        return len(a) == len(self.moduli) and all(
            0 <= x < m for x, m in zip(a, self.moduli)
        )


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteAbelianGroup
    elements: Tuple[Element, ...]

    def __post_init__(self):
        elems = set(self.elements)
        if self.parent.identity not in elems:
            raise ValueError("subgroup must contain the identity")
        for a in elems:
            if not self.parent.contains(a):
                raise ValueError(f"element {a} outside the parent group")
            for b in elems:
                if self.parent.add(a, b) not in elems:
                    raise ValueError("subgroup is not closed under addition")
        object.__setattr__(self, "elements", tuple(sorted(elems)))

    @classmethod
    def from_generators(
        cls, parent: FiniteAbelianGroup, generators: Sequence[Element]
    ) -> "Subgroup":
        closure = {parent.identity}
        frontier = [parent.identity]
        gens = [tuple(g) for g in generators]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = parent.add(cur, g)
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
        return cls(parent, tuple(sorted(closure)))

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
        return tuple(a) in set(self.elements)


def _as_rows(elems: Sequence[Element]) -> np.ndarray:
    return np.array(elems, dtype=np.int64).reshape(len(elems), -1)


def _pairings(
    group: FiniteAbelianGroup, xs: Sequence[Element], gs: Sequence[Element]
) -> np.ndarray:
    """Table of <x, g> over the elements x of ``xs`` (rows) and g of ``gs``.

    Each phase is an integer index mod lcm(moduli) into one table of roots of
    unity, so <x, g> = 1 holds exactly and equal characters are equal bitwise.
    """
    period = math.lcm(*group.moduli)
    scale = np.array([period // m for m in group.moduli], dtype=np.int64)
    index = (_as_rows(xs) * scale) @ _as_rows(gs).T % period
    return np.exp(2j * np.pi * np.arange(period) / period)[index]


def _hperp_mask(group: FiniteAbelianGroup, xs: Sequence[Element], sub: Subgroup) -> np.ndarray:
    """[x - x' in Hperp] over pairs of ``xs``: x and x' agree on every h in H."""
    _, label = np.unique(_pairings(group, xs, sub.elements), axis=0, return_inverse=True)
    label = label.ravel()
    return label[:, None] == label[None, :]


def annihilator(group: FiniteAbelianGroup, sub: Subgroup) -> Subgroup:
    """Characters of the group that are trivial on the subgroup."""
    if sub.parent != group:
        raise ValueError("subgroup does not belong to the given group")
    elems = group.elements()
    trivial = np.all(_pairings(group, elems, sub.elements) == 1, axis=1)
    ann = Subgroup(group, tuple(y for y, t in zip(elems, trivial) if t))
    if ann.order * sub.order != group.order:
        raise AssertionError("annihilator order check |H| |Hperp| = |G| failed")
    return ann


def cosets(group: FiniteAbelianGroup, sub: Subgroup) -> Tuple[Tuple[Element, ...], ...]:
    """Cosets of the subgroup, each sorted, ordered by their representative."""
    elems = group.elements()
    shifted = (_as_rows(elems)[:, None, :] + _as_rows(sub.elements)) % group.moduli
    # elements() is row-major, so the smallest mixed-radix code is the smallest tuple
    rep = np.ravel_multi_index(tuple(np.moveaxis(shifted, -1, 0)), group.moduli).min(axis=1)
    order = np.argsort(rep, kind="stable")
    starts = np.flatnonzero(np.diff(rep[order]))
    return tuple(
        tuple(elems[i] for i in chunk) for chunk in np.split(order, starts + 1)
    )


def coset_representatives(
    group: FiniteAbelianGroup, sub: Subgroup
) -> Tuple[Element, ...]:
    return tuple(c[0] for c in cosets(group, sub))


def _coset_rep_map(
    group: FiniteAbelianGroup, sub: Subgroup
) -> Dict[Element, Element]:
    rep_of: Dict[Element, Element] = {}
    for coset in cosets(group, sub):
        for g in coset:
            rep_of[g] = coset[0]
    return rep_of


# --- diagonal representations and isometry families -----------------------


@dataclass(frozen=True)
class RepBlock:
    """One multiplicity block: nonnegative weights on dual points.

    ``weights`` maps dual elements to strictly positive reals (the support);
    ``mult`` is the dimension of the multiplicity space.
    """

    weights: Tuple[Tuple[Element, float], ...]
    mult: int

    def __post_init__(self):
        if self.mult < 1:
            raise ValueError("multiplicity must be positive")
        if not self.weights:
            raise ValueError("block has empty support")
        for x, w in self.weights:
            if w <= 0:
                raise ValueError(f"non-positive weight {w} at {x}")
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))

    @classmethod
    def from_mapping(cls, weights: Mapping[Element, float], mult: int) -> "RepBlock":
        return cls(tuple((tuple(x), float(w)) for x, w in weights.items() if w > 0), mult)

    def weight_map(self) -> Dict[Element, float]:
        return dict(self.weights)

    def support(self) -> Tuple[Element, ...]:
        return tuple(x for x, _ in self.weights)


@dataclass(frozen=True)
class DiagonalRep:
    """Unitary representation acting diagonally on dual-indexed fibers."""

    group: FiniteAbelianGroup
    blocks: Tuple[RepBlock, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("representation needs at least one block")
        seen: set = set()
        for blk in self.blocks:
            sup = set(blk.support())
            if seen & sup:
                raise ValueError("block weight supports must be pairwise disjoint")
            seen |= sup

    def basis(self) -> Tuple[Tuple[int, Element, int], ...]:
        """Orthonormal basis labels (block index, dual point, fiber index)."""
        out = []
        for k, blk in enumerate(self.blocks):
            for x in blk.support():
                for i in range(blk.mult):
                    out.append((k, x, i))
        return tuple(out)

    @property
    def dim(self) -> int:
        return sum(len(blk.weights) * blk.mult for blk in self.blocks)

    def total_weight(self, x: Element) -> float:
        return sum(blk.weight_map().get(x, 0.0) for blk in self.blocks)


@dataclass(frozen=True)
class IsometryFamily:
    """Per block, a map from supported dual points to aux_dim x mult isometries."""

    aux_dim: int
    blocks: Tuple[Tuple[Tuple[Element, np.ndarray], ...], ...]

    @classmethod
    def from_mappings(
        cls, aux_dim: int, blocks: Sequence[Mapping[Element, np.ndarray]]
    ) -> "IsometryFamily":
        frozen = []
        for blk in blocks:
            entries = []
            for x, mat in sorted(blk.items()):
                arr = np.asarray(mat, dtype=complex).copy()
                arr.setflags(write=False)
                entries.append((tuple(x), arr))
            frozen.append(tuple(entries))
        return cls(aux_dim, tuple(frozen))

    def matrix(self, k: int, x: Element) -> np.ndarray:
        for xe, mat in self.blocks[k]:
            if xe == x:
                return mat
        raise KeyError(f"no isometry for block {k} at dual point {x}")

    def validate(self, rep: DiagonalRep, tol: float = 1e-12) -> None:
        if len(self.blocks) != len(rep.blocks):
            raise ValueError("isometry family and representation block counts differ")
        for k, blk in enumerate(rep.blocks):
            for x in blk.support():
                w = self.matrix(k, x)
                if w.shape != (self.aux_dim, blk.mult):
                    raise ValueError(
                        f"isometry at block {k}, {x} has shape {w.shape}, "
                        f"expected {(self.aux_dim, blk.mult)}"
                    )
                defect = np.linalg.norm(w.conj().T @ w - np.eye(blk.mult), 2)
                if defect > tol:
                    raise ValueError(
                        f"W_{k}({x}) is not an isometry (defect {defect:.3e})"
                    )


def random_isometries(
    rep: DiagonalRep, aux_dim: int, rng: np.random.Generator
) -> IsometryFamily:
    """Haar-ish random isometries consistent with the representation."""
    max_mult = max(blk.mult for blk in rep.blocks)
    if aux_dim < max_mult:
        raise ValueError(f"aux_dim {aux_dim} below maximal multiplicity {max_mult}")
    blocks = []
    for blk in rep.blocks:
        entries = {}
        for x in blk.support():
            a = rng.normal(size=(aux_dim, blk.mult)) + 1j * rng.normal(
                size=(aux_dim, blk.mult)
            )
            q, _ = np.linalg.qr(a)
            entries[x] = q[:, : blk.mult]
        blocks.append(entries)
    return IsometryFamily.from_mappings(aux_dim, blocks)


# --- admissibility densities ----------------------------------------------


@dataclass(frozen=True)
class CovarianceDensities:
    admits: bool
    nu_tilde: Dict[Element, float]
    alpha: Tuple[Dict[Element, float], ...]


def covariance_densities(rep: DiagonalRep, sub: Subgroup) -> CovarianceDensities:
    """Densities of the block measures against the lifted push-forward.

    nu_tilde(x) = sum over the annihilator of the total block weight on the
    coset of x; alpha_k(x) = weight_k(x) / nu_tilde(x) on the support of
    block k and zero elsewhere.  On a finite group nu_tilde dominates every
    block weight, so covariant POMs always exist.
    """
    group = rep.group
    nu_tilde: Dict[Element, float] = {}
    for coset in cosets(group, annihilator(group, sub)):
        nu_tilde.update(dict.fromkeys(coset, sum(rep.total_weight(x) for x in coset)))
    alpha = []
    for blk in rep.blocks:
        wm = blk.weight_map()
        alpha.append(
            {
                x: (wm[x] / nu_tilde[x] if x in wm else 0.0)
                for x in group.elements()
            }
        )
    return CovarianceDensities(admits=True, nu_tilde=nu_tilde, alpha=tuple(alpha))


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
    E_0 times p_c p_c*, that is U(c) E_0 U(c)*, at O(dim^2) per coset.
    """
    group = rep.group
    isometries.validate(rep)
    dens = covariance_densities(rep, sub)
    for k, blk in enumerate(rep.blocks):
        for x in blk.support():
            if dens.alpha[k][x] <= 0:
                raise ValueError(
                    f"vanishing density at supported point {x} of block {k}"
                )

    reps = coset_representatives(group, sub)
    dual = [x for _, x, _ in rep.basis()]
    cols = np.concatenate(
        [isometries.matrix(k, x) for k, blk in enumerate(rep.blocks) for x in blk.support()],
        axis=1,
    )
    seed = np.where(_hperp_mask(group, dual, sub), cols.conj().T @ cols, 0) / len(reps)
    effects = tuple(
        Effect(Operator(seed * np.outer(p, p.conj())))
        for p in _pairings(group, dual, reps).T
    )
    outcomes = tuple(Outcome(label=str(c), cell=PointCell(c)) for c in reps)
    tag = f"G/H points, G=Z{'x'.join(map(str, group.moduli))}, |H|={sub.order}"
    return Pom(tag, outcomes, effects)


def diagonal_unitaries(rep: DiagonalRep) -> Dict[Element, np.ndarray]:
    """The representation matrices U(g): diagonal phases <x, g> per fiber."""
    elems = rep.group.elements()
    table = _pairings(rep.group, [x for _, x, _ in rep.basis()], elems)
    return {g: np.diag(col) for g, col in zip(elems, table.T)}


def coset_action(
    group: FiniteAbelianGroup, sub: Subgroup
) -> Callable[[Element, PointCell], PointCell]:
    """Action of the group on G/H cells: g moves the coset of c to that of g + c."""
    rep_of = _coset_rep_map(group, sub)

    def act(g: Element, cell: PointCell) -> PointCell:
        return PointCell(rep_of[group.add(g, cell.value)])

    return act


@dataclass(frozen=True)
class CovarianceReport:
    passed: bool
    max_defect: float
    worst: Tuple[Element, str]


def verify_covariance(
    pom: Pom,
    unitaries: Mapping[Element, np.ndarray],
    action: Callable[[Element, PointCell], PointCell],
    tol: float = 1e-10,
) -> CovarianceReport:
    """Max over (g, cell) of || U(g) E(X) U(g)* - E(g[X]) ||, with its witness.

    For each g, the effects are conjugated in batched products over blocks of
    about ``BLOCK_ENTRIES`` entries, and each defect is first bounded by its
    Frobenius norm.  Only a pair whose bound exceeds ``tol`` gets the exact
    spectral norm.  The Frobenius norm bounds the spectral norm, so
    ``passed`` is that of the exact check on every pair.  On a pass,
    ``max_defect`` is the largest bound used, which is at most ``tol``; on a
    failure it is the exact spectral norm of the first worst pair,
    ``worst``, in the order of ``unitaries`` and the outcomes.
    """
    index_of = {}
    for i, out in enumerate(pom.outcomes):
        if not isinstance(out.cell, PointCell):
            raise ValueError("covariance check needs group-labelled cells")
        index_of[out.cell] = i
    mats = np.stack([e.op.mat for e in pom.effects])
    step = max(1, BLOCK_ENTRIES // pom.dim**2)
    worst = ((), "")
    max_defect = 0.0
    for g, u in unitaries.items():
        targets = []
        for out in pom.outcomes:
            target = action(g, out.cell)
            if target not in index_of:
                raise ValueError(f"action of {g} leaves the declared cell set")
            targets.append(index_of[target])
        defects = np.empty(len(targets))
        for lo in range(0, len(targets), step):
            moved = u @ mats[lo : lo + step] @ u.conj().T
            defects[lo : lo + step] = np.linalg.norm(
                moved - mats[targets[lo : lo + step]], axis=(1, 2)
            )
        for i in np.flatnonzero(defects > tol):
            moved = u @ pom.effects[i].op.mat @ u.conj().T
            defects[i] = np.linalg.norm(moved - pom.effects[targets[i]].op.mat, 2)
        i = int(np.argmax(defects))
        if defects[i] > max_defect:
            max_defect = float(defects[i])
            worst = (g, pom.outcomes[i].label)
    return CovarianceReport(max_defect <= tol, max_defect, worst)


# --- the diagonalising transform and the translated PVM -------------------


def _dual_cosets(group: FiniteAbelianGroup, sub: Subgroup):
    hperp = annihilator(group, sub)
    dual_reps = coset_representatives(group, hperp)
    rep_of = _coset_rep_map(group, hperp)
    return hperp, dual_reps, rep_of


def sigma_matrix(group: FiniteAbelianGroup, sub: Subgroup) -> np.ndarray:
    """Unitary matrix of the transform in weight-orthonormal coordinates.

    Rows are indexed by dual group elements, columns by pairs
    (coset representative, dual coset representative) with the dual coset
    forced to match: Sigma[x, (c, xdot)] = [q(x) = xdot] <x, c> / sqrt(|G/H|).
    """
    _, dual_reps, dual_rep_of = _dual_cosets(group, sub)
    reps = coset_representatives(group, sub)
    elems = group.elements()
    didx = {xd: i for i, xd in enumerate(dual_reps)}
    mat = np.zeros((len(elems), len(dual_reps), len(reps)), dtype=complex)
    rows = [didx[dual_rep_of[x]] for x in elems]
    mat[np.arange(len(elems)), rows] = _pairings(group, elems, reps) / np.sqrt(len(reps))
    return mat.reshape(len(elems), -1)


def induced_translation_matrix(
    group: FiniteAbelianGroup, sub: Subgroup, a: Element
) -> np.ndarray:
    """Translation by a on the equivariant space, in the sigma_matrix column basis."""
    _, dual_reps, _ = _dual_cosets(group, sub)
    reps = coset_representatives(group, sub)
    rep_of = _coset_rep_map(group, sub)
    cols = [(c, xd) for xd in dual_reps for c in reps]
    cidx = {col: i for i, col in enumerate(cols)}
    mat = np.zeros((len(cols), len(cols)), dtype=complex)
    for ci, (c, xd) in enumerate(cols):
        shifted = group.sub(c, a)
        target_rep = rep_of[shifted]
        h = group.sub(shifted, target_rep)  # element of the subgroup
        phase = np.conj(group.pairing(xd, h))
        mat[ci, cidx[(target_rep, xd)]] = phase
    # rows index the output: (lambda(a) f)(c, xd) = phase * f(target, xd)
    return mat


def dual_translation_matrix(group: FiniteAbelianGroup, a: Element) -> np.ndarray:
    """Diagonal action <x, a> on functions over the dual group."""
    return np.diag(_pairings(group, group.elements(), [a])[:, 0])


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
    reps = coset_representatives(group, sub)
    if not isinstance(omega, Mapping):
        if len(omega) != len(reps):
            raise ValueError("omega must list one value per coset")
        omega = dict(zip(reps, omega))
    elems = group.elements()
    chars = _pairings(group, elems, reps)
    weights = np.array([omega[c] for c in reps], dtype=complex)
    # <x - x', c> = <x, c> conj(<x', c>), so Fbar(omega)(x - x') is one product
    fbar = (chars * weights) @ chars.conj().T / len(reps)
    return np.where(_hperp_mask(group, elems, sub), fbar, 0)


# --- equivalence of covariant POMs ----------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    max_defect: float
    witness: Optional[Tuple[int, int, Element, Element]]
    conjugation_defect: Optional[float]


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

    over all block pairs and same-coset dual pairs; when it holds, the
    block-diagonal unitary assembled from the S_k is verified to conjugate
    one built POM into the other.
    """
    group = rep.group
    w_first.validate(rep)
    w_second.validate(rep)
    dens = covariance_densities(rep, sub)
    s_maps = []
    for k, blk in enumerate(rep.blocks):
        entry = {}
        for x in blk.support():
            s = np.asarray(intertwiners[k][x], dtype=complex)
            if s.shape != (blk.mult, blk.mult):
                raise ValueError(f"S_{k}({x}) has wrong shape {s.shape}")
            if np.linalg.norm(s.conj().T @ s - np.eye(blk.mult), 2) > tol:
                raise ValueError(f"S_{k}({x}) is not unitary within {tol}")
            entry[x] = s
        s_maps.append(entry)

    hperp = annihilator(group, sub)
    hperp_set = set(hperp.elements)
    max_defect = 0.0
    witness = None
    for j, blkj in enumerate(rep.blocks):
        for k, blkk in enumerate(rep.blocks):
            for x in blkj.support():
                for xp in blkk.support():
                    if group.sub(x, xp) not in hperp_set:
                        continue
                    root = np.sqrt(dens.alpha[k][xp])
                    lhs = root * (
                        w_first.matrix(j, x).conj().T @ w_first.matrix(k, xp)
                    )
                    rhs = root * (
                        s_maps[j][x].conj().T
                        @ w_second.matrix(j, x).conj().T
                        @ w_second.matrix(k, xp)
                        @ s_maps[k][xp]
                    )
                    defect = float(np.linalg.norm(lhs - rhs, 2))
                    if defect > max_defect:
                        max_defect = defect
                        witness = (j, k, x, xp)

    equivalent = max_defect <= tol
    conj_defect = None
    if equivalent:
        pom_first = build_covariant_pom(rep, sub, w_first)
        pom_second = build_covariant_pom(rep, sub, w_second)
        blocks_s = []
        for k, blk in enumerate(rep.blocks):
            for x in blk.support():
                blocks_s.append(s_maps[k][x])
        s_full = _block_diag(blocks_s)
        conj_defect = 0.0
        for e1, e2 in zip(pom_first.effects, pom_second.effects):
            conj_defect = max(
                conj_defect,
                float(
                    np.linalg.norm(
                        s_full @ e1.op.mat - e2.op.mat @ s_full, 2
                    )
                ),
            )
        equivalent = conj_defect <= max(tol, 1e-9)
    return EquivalenceReport(equivalent, max_defect, witness, conj_defect)


def _block_diag(mats: Sequence[np.ndarray]) -> np.ndarray:
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for m in mats:
        out[pos : pos + m.shape[0], pos : pos + m.shape[1]] = m
        pos += m.shape[0]
    return out


# --- torus examples: phase and phase difference ---------------------------


def _interval_coefficient(n: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(1/2pi) integral over [lo, hi) of exp(i n theta), in closed form, for integer arrays n."""
    n = np.asarray(n)
    nonzero = np.where(n == 0, 1, n)
    ends = (np.exp(1j * n * hi) - np.exp(1j * n * lo)) / (2j * np.pi * nonzero)
    return np.where(n == 0, (hi - lo) / (2 * np.pi), ends)


def _check_phase_vectors(h: Sequence[np.ndarray]) -> list[np.ndarray]:
    vecs = [np.asarray(v, dtype=complex).ravel() for v in h]
    dims = {v.shape[0] for v in vecs}
    if len(dims) != 1:
        raise ValueError("phase vectors must share one dimension")
    for i, v in enumerate(vecs):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError(f"phase vector {i} is not normalised")
    return vecs


def _check_phase_interval(interval: Tuple[float, float]) -> Tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi <= 2 * np.pi + 1e-12):
        raise ValueError(f"need 0 <= lo < hi <= 2 pi, got [{lo}, {hi})")
    return lo, hi


def _torus_partition(space_tag: str, boundaries: Sequence[float], effect_of) -> Pom:
    """Partition POM over boundaries that run from 0 to 2 pi."""
    bounds = np.asarray(boundaries, dtype=float)
    if bounds.size < 2 or abs(bounds[0]) > 1e-12 or abs(bounds[-1] - 2 * np.pi) > 1e-12:
        raise ValueError("boundaries must run from 0 to 2 pi")
    return partition_pom(space_tag, bounds, effect_of, ".6f")


def phase_observable_effect(
    h: Sequence[np.ndarray], interval: Tuple[float, float]
) -> Effect:
    """Effect of a covariant phase observable on one theta interval.

    Entry (j, k) is c_{j-k}(interval) <h_j, h_k> with the closed-form
    interval coefficients; no quadrature is involved.
    """
    lo, hi = _check_phase_interval(interval)
    vecs = np.array(_check_phase_vectors(h))
    idx = np.arange(len(vecs))
    coeff = _interval_coefficient(idx[:, None] - idx[None, :], lo, hi)
    return Effect(Operator(coeff * (vecs.conj() @ vecs.T)))


def phase_pom(h: Sequence[np.ndarray], boundaries: Sequence[float]) -> Pom:
    """Covariant phase POM over a partition of [0, 2 pi) into intervals."""
    return _torus_partition(
        "theta in [0, 2 pi)", boundaries, lambda lo, hi: phase_observable_effect(h, (lo, hi))
    )


def canonical_phase_vectors(d: int) -> list[np.ndarray]:
    """All-equal unit vectors: the canonical phase observable."""
    return [np.array([1.0 + 0j]) for _ in range(d)]


def sharp_phase_witness(pom: Pom) -> Tuple[Outcome, float]:
    """Cell maximising the projection defect ||E^2 - E|| of a phase POM.

    For a nontrivial partition in dimension >= 2 the defect is strictly
    positive: no covariant phase observable is sharp.
    """
    if pom.dim < 2:
        raise ValueError("phase observables need dimension >= 2")
    if len(pom.effects) < 2:
        raise ValueError("trivial partition: single cell is the whole circle")
    best = None
    best_defect = -1.0
    for out, eff in zip(pom.outcomes, pom.effects):
        m = eff.op.mat
        defect = float(np.linalg.norm(m @ m - m, 2))
        if defect > best_defect:
            best_defect = defect
            best = out
    return best, best_defect


def phase_difference_effect(
    d: int, h: Mapping[Tuple[int, int], np.ndarray], interval: Tuple[float, float]
) -> Effect:
    """Effect of a covariant phase-difference observable for two d-level modes.

    Acts on C^d tensor C^d with basis e_{i,j} flattened as i*d + j; the
    matrix element between e_{l,m} and e_{i,j} vanishes unless l+m = i+j and
    is otherwise c_{j-m}(interval) <h_{l,m}, h_{i,j}>: the mask l+m = i+j
    times the coefficients times the Gram matrix of the stacked h vectors.
    """
    lo, hi = _check_phase_interval(interval)
    keys = [(i, j) for i in range(d) for j in range(d)]
    vecs = np.stack([np.asarray(h[key], dtype=complex).ravel() for key in keys])
    bad = np.flatnonzero(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"h[{keys[bad[0]]}] is not normalised")
    i, j = np.divmod(np.arange(d * d), d)
    coeff = _interval_coefficient(j[None, :] - j[:, None], lo, hi)
    mask = (i + j)[:, None] == (i + j)[None, :]
    return Effect(Operator(np.where(mask, coeff * (vecs.conj() @ vecs.T), 0)))


def phase_difference_pom(
    d: int, h: Mapping[Tuple[int, int], np.ndarray], boundaries: Sequence[float]
) -> Pom:
    return _torus_partition(
        "phase difference in [0, 2 pi)",
        boundaries,
        lambda lo, hi: phase_difference_effect(d, h, (lo, hi)),
    )


# --- translation covariant observables on a grid --------------------------


def _snap_outcome_intervals(
    grid: Grid1D, intervals: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Indicator over the outcome lattice of a union of intervals."""
    t = grid.momenta()
    mask = np.zeros(grid.n, dtype=bool)
    lo_lim = t[0] - 0.5 * grid.dp
    hi_lim = t[-1] + 0.5 * grid.dp
    for lo, hi in intervals:
        if hi <= lo:
            raise ValueError(f"degenerate outcome interval [{lo}, {hi})")
        if lo < lo_lim - 1e-9 or hi > hi_lim + 1e-9:
            raise ValueError("outcome interval outside the representable range")
        mask |= (t >= lo - 1e-12) & (t < hi - 1e-12)
    return mask


def translation_covariant_effect(
    h: np.ndarray, intervals: Sequence[Tuple[float, float]], grid: Grid1D
) -> Effect:
    """Effect of a translation covariant observable, frequency-side realisation.

    ``h`` holds one unit vector in C^m per grid node.  Outcomes are intervals
    in the conjugate (outcome) variable, snapped to its lattice.  The entry
    coupling nodes j and j' is

        (1/n) sum over outcome nodes t in X of exp(i (u_j - u_j') t) <h_j, h_j'>.

    The sum is the circulant F* diag(1_X) F of ``Grid1D.momentum_multiplier``,
    so the effect is that circulant times the Gram matrix, entrywise.  With
    constant h, conjugating by the grid Fourier map gives multiplication by
    the indicator of X (the sharp observable).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim == 1:
        h = h[:, None]
    if h.shape[0] != grid.n:
        raise ValueError("need one direction vector per grid node")
    norms = np.linalg.norm(h, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ValueError("direction vectors must be normalised")
    mask = _snap_outcome_intervals(grid, intervals)
    return Effect(Operator(grid.momentum_multiplier(mask) * (h.conj() @ h.T)))


def translation_covariant_pom(
    h: np.ndarray, boundaries: Sequence[float], grid: Grid1D
) -> Pom:
    """Partition of the full outcome lattice into consecutive intervals."""
    bounds = np.asarray(boundaries, dtype=float)
    t = grid.momenta()
    if bounds.size < 2 or bounds[0] > t[0] or bounds[-1] <= t[-1]:
        raise ValueError("boundaries must cover the full outcome lattice")
    bounds = np.clip(bounds, t[0] - 0.5 * grid.dp, t[-1] + 0.5 * grid.dp)
    return partition_pom(
        "translation outcomes on the dual lattice",
        bounds,
        lambda lo, hi: translation_covariant_effect(h, [(lo, hi)], grid),
        ".6f",
    )
