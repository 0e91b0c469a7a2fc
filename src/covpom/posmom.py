"""Smeared position and momentum observables on the (gridded) line.

A smeared position observable is the sharp position observable convolved
with a confidence measure: the effect of a set X is multiplication by
x -> rho(X - x), X one interval [lo, hi); a partition of the line is given by
its increasing bounds.  Momentum observables are their Fourier conjugates.  This
module also carries the operational diagnostics: the limit of resolution
(the shortest window that captures more than half the mass), the
regular-decomposition structure test, state distinction power via Fourier
supports, sharpness, and the coexistence diagnostics (variance uncertainty
product, resolution product and total noncommutativity witnesses).

Measures combine a finite atom list with an optional sampled density on a
uniform grid.  The density's mass and moments are trapezoid sums; its CDF is
one continuous, nondecreasing, piecewise quadratic model of the samples (see
``ProbMeasure1D.density_mass_below``).  Interval masses handle atoms at
endpoints exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .grids import BLOCK_ENTRIES, Grid1D
from .hilbert import Pom, State, _lanczos_norm, increasing_bounds, partition_pom

__all__ = [
    "ProbMeasure1D",
    "SmearedObservable",
    "ResolutionReport",
    "RegularDecomposition",
    "DistinctionOrder",
    "SharpnessReport",
    "UncertaintyReport",
    "ResolutionProductReport",
    "NoncommutativityReport",
    "WindowLeakageError",
    "smeared_profile",
    "smeared_effect",
    "smeared_pom",
    "distribution",
    "resolution_limit",
    "regular_decomposition",
    "distinction_compare",
    "sharpness_test",
    "uncertainty_product",
    "resolution_product",
    "noncommutativity_witness",
    "grid_wavefunctions",
]

MASS_TOL = 1e-9
RESOLUTION_BOUND = 3 - 2 * math.sqrt(2)


class WindowLeakageError(ValueError):
    """Raised when a computation would silently lose probability mass."""


def _trapezoid(y: np.ndarray, dx: float) -> float:
    """Trapezoid sum of samples y with spacing dx."""
    return float((np.sum(y) - (y[0] + y[-1]) / 2) * dx)


@dataclass(frozen=True)
class ProbMeasure1D:
    """Probability measure on the line: atoms plus an optional grid density."""

    atoms: Tuple[Tuple[float, float], ...] = ()
    grid: Optional[Grid1D] = None
    density: Optional[np.ndarray] = None

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        if not all(math.isfinite(x) and math.isfinite(w) and w >= 0 for x, w in atoms):
            raise ValueError("atom locations must be finite, their weights finite and nonnegative")
        locs = [x for x, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        object.__setattr__(self, "atoms", tuple(sorted(atoms)))
        if (self.grid is None) != (self.density is None):
            raise ValueError("grid and density must be given together")
        if self.density is not None:
            dens = np.asarray(self.density, dtype=float).copy()
            if dens.shape != (self.grid.n,):
                raise ValueError("density length does not match the grid")
            if not 0 <= dens.min() <= dens.max() < math.inf:  # NaN fails every comparison
                raise ValueError("density values must be finite and nonnegative")
            dens.setflags(write=False)
            object.__setattr__(self, "density", dens)
        mass = self.total_mass()
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass} is not 1")
        object.__setattr__(self, "_dens_cells", self._density_cells())

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, t: float) -> "ProbMeasure1D":
        return cls(atoms=((t, 1.0),))

    @classmethod
    def from_density(
        cls, grid: Grid1D, values, atoms: Sequence[Tuple[float, float]] = ()
    ) -> "ProbMeasure1D":
        """The atoms plus the density ``values``, rescaled to the mass the atoms leave."""
        values = np.asarray(values, dtype=float)
        atom_mass = sum(w for _, w in atoms)
        dens_mass = _trapezoid(values, grid.dx)
        if dens_mass <= 0 and atom_mass <= 0:
            raise ValueError("cannot normalise a zero measure")
        if dens_mass > 0:
            values = values * (1.0 - atom_mass) / dens_mass
        return cls(atoms=tuple(atoms), grid=grid, density=values)

    @classmethod
    def gaussian(cls, grid: Grid1D, mean: float = 0.0, sigma: float = 1.0) -> "ProbMeasure1D":
        x = grid.positions()
        dens = np.exp(-((x - mean) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        return cls.from_density(grid, dens)

    @classmethod
    def uniform(cls, grid: Grid1D, lo: float, hi: float) -> "ProbMeasure1D":
        if hi <= lo:
            raise ValueError("uniform support must have positive length")
        x = grid.positions()
        dens = ((x >= lo) & (x <= hi)).astype(float)
        return cls.from_density(grid, dens)

    # -- mass and CDF machinery ---------------------------------------------

    def _density_cells(self) -> Optional[np.ndarray]:
        """Coefficients of the CDF model: rows c0, c1, c2 with one column per cell.

        Column k + 1 holds the model D(x_k + s) = c0 + c1 s + c2 s^2 on the cell
        [x_k, x_k+1); column 0 is the zero left of the grid and column n the
        total from its last node on.
        """
        if self.density is None:
            return None
        rho, dx = self.density, self.grid.dx
        rate = np.maximum(rho - np.diff(rho, 2, prepend=0.0, append=0.0) / 12, 0.0)
        raw = _trapezoid(rate, dx)
        if raw > 0:
            rate *= _trapezoid(rho, dx) / raw
        cdf = np.cumsum((rate[:-1] + rate[1:]) * (dx / 2))
        cells = np.stack([np.concatenate([[0.0, 0.0], cdf]),
                          np.concatenate([[0.0], rate[:-1], [0.0]]),
                          np.concatenate([[0.0], np.diff(rate) / (2 * dx), [0.0]])])
        cells.setflags(write=False)
        return cells

    def _cell(self, t):
        """s = t - x_k and the CDF model's (c0, c1, c2) on the cell [x_k, x_k+1) holding t.

        k is -1 left of the grid and n - 1 from its last node on; s stays finite.
        """
        grid = self.grid
        pos = np.clip((np.asarray(t, dtype=float) - grid.x0) / grid.dx, -1.0, grid.n - 1.0)
        k = np.floor(pos)
        c0, c1, c2 = getattr(self, "_dens_cells")[:, k.astype(int) + 1]
        return (pos - k) * grid.dx, c0, c1, c2

    def total_mass(self) -> float:
        mass = sum(w for _, w in self.atoms)
        if self.density is not None:
            mass += _trapezoid(self.density, self.grid.dx)
        return float(mass)

    def density_mass_below(self, t) -> np.ndarray:
        """Continuous-part mass of (-inf, t], vectorised in t.

        D is the exact integral of the linear interpolant of the node values
        rho_k - (rho_k+1 - 2 rho_k + rho_k-1) / 12 (the second difference taken
        with zeros beyond the grid), floored at 0 and rescaled to the
        trapezoid mass.  Where the floor does not bite, the correction gives
        the node values the Euler-Maclaurin end term of the trapezoid rule, so
        D is third-order accurate in dx, where the plain interpolant of rho is
        second-order; the floor keeps the interpolant nonnegative at zeros and
        spikes of rho.  So D is continuous, nondecreasing and quadratic on
        each cell, 0 left of the grid and the density's total mass from its
        last node on.
        """
        t = np.asarray(t, dtype=float)
        if self.density is None:
            return np.zeros(t.shape)
        s, c0, c1, c2 = self._cell(t)
        return c0 + (c1 + c2 * s) * s

    def _atom_arrays(self):
        if not self.atoms:
            return np.empty(0), np.empty(0)
        locs = np.array([x for x, _ in self.atoms])
        cum = np.concatenate([[0.0], np.cumsum([w for _, w in self.atoms])])
        return locs, cum

    def atom_mass_upto(self, t, inclusive: bool) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        locs, cum = self._atom_arrays()
        if locs.size == 0:
            return np.zeros(t.shape)
        side = "right" if inclusive else "left"
        idx = np.searchsorted(locs, t, side=side)
        return cum[idx]

    def mass_interval(
        self, lo, hi, include_lo: bool = True, include_hi: bool = True
    ) -> np.ndarray:
        """Measure of the interval from lo to hi, endpoint inclusion explicit."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        dens = self.density_mass_below(hi) - self.density_mass_below(lo)
        atoms = self.atom_mass_upto(hi, inclusive=include_hi) - self.atom_mass_upto(
            lo, inclusive=not include_lo
        )
        return np.maximum(dens + atoms, 0.0)

    def support_bounds(self) -> Tuple[float, float]:
        lo = math.inf
        hi = -math.inf
        if self.atoms:
            lo = min(lo, self.atoms[0][0])
            hi = max(hi, self.atoms[-1][0])
        if self.density is not None:
            x = self.grid.positions()
            nz = np.nonzero(self.density > 0)[0]
            if nz.size:
                lo = min(lo, x[nz[0]])
                hi = max(hi, x[nz[-1]])
        if lo > hi:
            raise ValueError("measure has empty support")
        return lo, hi

    def _anchors(self) -> np.ndarray:
        """Grid nodes (when there is a density) and atom locations."""
        locs, _ = self._atom_arrays()
        if self.density is None:
            return locs
        return np.concatenate([self.grid.positions(), locs])

    def _candidate_windows(self, widths):
        """Edges of the candidate windows, one row per width.

        Each edge that sits on an anchor is the anchor itself: a window
        formed as centre -/+ width/2 can miss its own anchor by one rounding,
        which loses a whole atom at that edge.
        """
        w = np.asarray(widths, dtype=float)[:, None]
        u = self._anchors()
        lo = np.concatenate([np.broadcast_to(u, (w.size, u.size)), u - w, u - w / 2], axis=1)
        hi = np.concatenate([u + w, np.broadcast_to(u, (w.size, u.size)), u + w / 2], axis=1)
        return lo, hi

    def window_mass_sup(self, widths, open_interval: bool = False) -> np.ndarray:
        """Largest mass of a window of each length in ``widths`` over the candidate placements.

        A placement puts the left edge, the right edge or the centre on an
        anchor (a grid node when there is a density, or an atom).  While
        neither edge crosses an anchor the window mass is quadratic in the
        position, and it can peak between anchors, so this is the maximum over
        that family, not the supremum over all centres.  A scalar width is a
        list of one; the widths are taken in blocks of rows.
        """
        widths = np.atleast_1d(np.asarray(widths, dtype=float))
        if not np.all(widths > 0):
            raise ValueError("window width must be positive")
        rows = max(1, BLOCK_ENTRIES // (3 * self._anchors().size))
        inc = not open_interval
        sups = [
            self.mass_interval(*self._candidate_windows(widths[i : i + rows]), inc, inc).max(axis=1)
            for i in range(0, widths.size, rows)
        ]
        return np.concatenate(sups) if sups else np.empty(0)

    # -- moments and transforms ---------------------------------------------

    def mean(self) -> float:
        m = sum(x * w for x, w in self.atoms)
        if self.density is not None:
            x = self.grid.positions()
            m += _trapezoid(x * self.density, self.grid.dx)
        return float(m)

    def variance(self) -> float:
        mu = self.mean()
        v = sum((x - mu) ** 2 * w for x, w in self.atoms)
        if self.density is not None:
            x = self.grid.positions()
            v += _trapezoid((x - mu) ** 2 * self.density, self.grid.dx)
        return float(v)

    def edge_leakage(self) -> float:
        """Density mass sitting in the outermost grid cells (window adequacy)."""
        if self.density is None:
            return 0.0
        k = max(2, self.grid.n // 256)
        edge = float(
            np.sum(self.density[:k]) * self.grid.dx
            + np.sum(self.density[-k:]) * self.grid.dx
        )
        return edge

    def fourier(self, grid: Grid1D) -> np.ndarray:
        """Fourier-Stieltjes transform on the dual lattice ``grid.momenta()``.

        Atoms are summed directly.  On the lattice p_j x_k = p_j x0 +
        2 pi (j - n/2) k / n, so the density's sum  sum_k rho_k exp(-i p_j x_k) dx
        is sqrt(2 pi) times the grid Fourier map of rho: one FFT.
        """
        if self.density is not None and self.grid != grid:
            raise ValueError("the density is sampled on a different grid than the lattice")
        xis = grid.momenta()
        out = np.zeros(grid.n, dtype=complex)
        for loc, w in self.atoms:
            out += w * np.exp(-1j * xis * loc)
        if self.density is not None:
            out += np.sqrt(2 * np.pi) * grid.to_momentum(self.density)
        return out


# --- smeared observables ---------------------------------------------------


@dataclass(frozen=True)
class SmearedObservable:
    """Position- or momentum-type observable smeared by a confidence measure."""

    kind: str
    measure: ProbMeasure1D
    grid: Grid1D

    def __post_init__(self):
        if self.kind not in ("position", "momentum"):
            raise ValueError("kind must be 'position' or 'momentum'")
        window = self.outcome_nodes()
        lo, hi = window[0], window[-1]
        for loc, w in self.measure.atoms:
            if (loc < lo or loc > hi) and w > 1e-6:
                raise WindowLeakageError(
                    f"measure atom at {loc} lies outside the observable window"
                )
        if self.measure.edge_leakage() > 1e-6:
            raise WindowLeakageError(
                "confidence measure leaks more than 1e-6 past the grid window"
            )

    def outcome_nodes(self) -> np.ndarray:
        if self.kind == "position":
            return self.grid.positions()
        return self.grid.momenta()


def smeared_profile(obs: SmearedObservable, interval) -> Tuple[np.ndarray, float]:
    """Multiplier profile rho(X - node) over the outcome nodes, plus clip defect.

    X is the half-open interval [lo, hi), and lo = hi the empty set; atoms
    exactly at lo are included, atoms at hi excluded.
    """
    lo, hi = (float(t) for t in interval)
    if hi < lo:
        raise ValueError(f"interval [{lo}, {hi}) is reversed")
    nodes = obs.outcome_nodes()
    prof = obs.measure.mass_interval(lo - nodes, hi - nodes, include_lo=True, include_hi=False)
    clipped = np.clip(prof, 0.0, 1.0)
    defect = float(np.max(np.abs(prof - clipped), initial=0.0))
    return clipped, defect


def smeared_effect(obs: SmearedObservable, interval) -> np.ndarray:
    """Effect of the interval [lo, hi).

    Position kind: diagonal multiplication by the smeared indicator.
    Momentum kind: the same profile on the momentum lattice, conjugated back
    by the grid Fourier map; F* diag(profile) F is the circulant of one
    inverse DFT of the profile (``Grid1D.momentum_multiplier``).
    """
    prof, _ = smeared_profile(obs, interval)
    if obs.kind == "position":
        return np.diag(prof.astype(complex))
    return obs.grid.momentum_multiplier(prof)


def smeared_pom(obs: SmearedObservable, boundaries: Sequence[float]) -> Pom:
    """Partition of the line into consecutive cells (outer cells unbounded)."""
    return partition_pom(
        f"smeared {obs.kind} outcomes",
        [-math.inf, *boundaries, math.inf],
        lambda lo, hi: smeared_effect(obs, (lo, hi)),
        ".6g",
    )


def distribution(state: State, obs: SmearedObservable, bounds: Sequence[float]) -> np.ndarray:
    """Outcome probabilities of a grid state on the cells [lo, hi) between consecutive bounds.

    The bounds strictly increase and may start at -inf and end at inf.
    Computes (mu_T * rho)(X) directly from the state's position (or
    momentum) density, one profile and one dot product per cell; coincides
    with tr(T E(X)) for the corresponding smeared effects.
    """
    bounds = increasing_bounds(bounds)
    nodes = obs.outcome_nodes()
    position, momentum = _state_densities(state, obs.grid)
    weights = position * obs.grid.dx if obs.kind == "position" else momentum * obs.grid.dp
    return np.array([
        float(weights @ obs.measure.mass_interval(lo - nodes, hi - nodes, True, False))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ])


# --- regularity and the limit of resolution --------------------------------


@dataclass(frozen=True)
class ResolutionReport:
    gamma: float
    window: Tuple[float, float]  # a shortest window, [a, b] with b - a = gamma


def _root(v0, g0, c2, target):
    """Least s with v0 + g0 s + c2 s^2 = target on a quadratic rising from s = 0.

    The cancellation-free form of the quadratic formula.  Callers clip the
    result to their cell: it is negative when v0 already exceeds the target,
    0 where the formula degenerates, and may be inf far beyond the cell.
    """
    delta = target - v0
    den = g0 + np.sqrt(np.maximum(g0 * g0 + 4 * c2 * delta, 0.0))
    with np.errstate(over="ignore"):
        return np.divide(2 * delta, den, out=np.zeros(den.shape), where=den > 0)


class _WindowModel:
    """Masses below t of a measure, as one quadratic per element.

    The breakpoints p are the anchors: grid nodes when there is a density, and
    atoms.  Elements alternate: 2i is the open piece between p[i-1] and p[i]
    (the outer pieces end at p[0] and p[-1], where their constant value is
    read), 2i + 1 is the point p[i].  On element e the mass of (-inf, t] is
    c0 + c1 s + c2 s^2 + atoms_g[e],  s = t - t0[e], and the mass of (-inf, t)
    the same with atoms_h[e]; both are nondecreasing in t, within an element
    and from one element to the next, because the density CDF model is.
    """

    def __init__(self, measure: ProbMeasure1D):
        p = np.unique(measure._anchors())
        t0, c0, c1, c2 = (np.zeros(p.size + 1) for _ in range(4))
        if measure.density is not None:
            mids = np.concatenate([p[:1] - 1.0, (p[:-1] + p[1:]) / 2, p[-1:] + 1.0])
            s, c0, c1, c2 = measure._cell(mids)
            t0 = mids - s
        piece_atoms = measure.atom_mass_upto(np.append(p, math.inf), inclusive=False)

        def interleave(pieces, points):
            out = np.empty(2 * p.size + 1)
            out[0::2], out[1::2] = pieces, points
            return out

        self.p = p
        self.lo = interleave(np.concatenate([p[:1], p]), p)
        self.hi = interleave(np.append(p, p[-1]), p)
        self.t0 = interleave(t0, p)
        self.c0 = interleave(c0, measure.density_mass_below(p))
        self.c1 = interleave(c1, 0.0)
        self.c2 = interleave(c2, 0.0)
        self.atoms_g = interleave(piece_atoms, measure.atom_mass_upto(p, inclusive=True))
        self.atoms_h = interleave(piece_atoms, measure.atom_mass_upto(p, inclusive=False))

    def value(self, e, t, atoms):
        s = t - self.t0[e]
        return self.c0[e] + (self.c1[e] + self.c2[e] * s) * s + atoms[e]

    def slope(self, e, t):
        return self.c1[e] + 2 * self.c2[e] * (t - self.t0[e])

    def first_above(self, e, target):
        """inf of the t in element e where the mass of (-inf, t] exceeds target."""
        lo = self.lo[e]
        t = lo + _root(self.value(e, lo, self.atoms_g), self.slope(e, lo), self.c2[e], target)
        return np.clip(t, lo, self.hi[e])

    def last_below(self, e, target):
        """sup of the t in element e where the mass of (-inf, t) is below target."""
        lo, hi = self.lo[e], self.hi[e]
        v0 = self.value(e, lo, self.atoms_h)
        t = lo + _root(v0, self.slope(e, lo), self.c2[e], target)
        return np.where(self.value(e, hi, self.atoms_h) < target, hi, np.clip(t, lo, hi))


def _shortest_half(measure: ProbMeasure1D) -> Tuple[float, float]:
    """A shortest candidate window [a, b] with mass above 1/2, in the limit.

    The candidates are those of ``window_mass_sup``: an edge on an anchor, or
    the centre on one; the result is their infimum length.  With the left
    edge a on an anchor, b is the first t where the mass below t passes
    mass(-inf, a) + 1/2: a search on the elements' largest values finds the
    element, and one quadratic root the point.  The right-edge family runs the
    same way on the elements' least values.  Both searches rest on the mass
    below t being nondecreasing across the elements.

    A centred window can be shorter than both.  For element e, any window
    whose left edge lies in e ends no earlier than the first t passing
    (least mass below e) + 1/2, so  min_e (that t - end of e)  bounds every
    window from below.  Only half-widths from half that bound up to half the
    best edge window can improve on it, and only centres where the masses
    below the two edges leave more than 1/2 at the widest of them.  For each
    such centre the half-widths split into a few intervals where both edges
    stay in one element, and on each the mass is one rising quadratic, solved
    directly.
    """
    model = _WindowModel(measure)
    n_el = model.lo.size
    u = model.p
    at_u = np.arange(1, n_el, 2)
    every = np.arange(n_el)
    largest = model.value(every, model.hi, model.atoms_g)
    least = model.value(every, model.lo, model.atoms_h)

    def first_passing(target):
        e = np.searchsorted(largest, target, side="right")
        ok = e < n_el
        return ok, model.first_above(e[ok], target[ok])

    ok_left, ends = first_passing(least[at_u] + 0.5)
    target = model.value(at_u, u, model.atoms_g) - 0.5
    e = np.searchsorted(least, target, side="left") - 1
    ok_right = e >= 0
    lo = np.concatenate([u[ok_left], model.last_below(e[ok_right], target[ok_right])])
    hi = np.concatenate([ends, u[ok_right]])
    if lo.size == 0:
        raise AssertionError("window covering the support must capture mass 1")
    best = int(np.argmin(hi - lo))
    a, b = float(lo[best]), float(hi[best])
    ok, ends = first_passing(least + 0.5)
    bound = float(np.min(ends - model.hi[ok], initial=math.inf))
    if bound < b - a:
        # a centre can win only if it leaves room above 1/2 at the widest h
        h_hi = (b - a) / 2
        room = (largest[2 * np.searchsorted(u, u + h_hi, side="right")]
                - least[2 * np.searchsorted(u, u - h_hi, side="left")])
        a, b = _centred_scan(measure, model, u[room > 0.5], max(bound, 0.0) / 2, h_hi, (a, b))
    return a, b


def _centred_scan(measure, model, centres, h_lo, h_hi, best):
    """Shortest window [c - h, c + h] with mass above 1/2 over h in [h_lo, h_hi)."""
    p = model.p
    last = p.size - 1
    edges = (
        np.searchsorted(p, centres + h_lo, side="right"),
        np.searchsorted(p, centres + h_hi, side="left"),
        np.searchsorted(p, centres - h_hi, side="right"),
        np.searchsorted(p, centres - h_lo, side="left"),
    )
    k_right = int(np.max(edges[1] - edges[0], initial=0))
    k_left = int(np.max(edges[3] - edges[2], initial=0))
    step = max(1, BLOCK_ENTRIES // (k_right + k_left + 2))
    for i in range(0, centres.size, step):
        c = centres[i : i + step, None]
        r0, r1, l0, l1 = (x[i : i + step, None] for x in edges)
        ir, il = r0 + np.arange(k_right), l0 + np.arange(k_left)
        hs = np.sort(np.concatenate([
            np.full(c.shape, h_lo),
            np.where(ir < r1, p[np.minimum(ir, last)] - c, h_hi),
            np.where(il < l1, c - p[np.minimum(il, last)], h_hi),
            np.full(c.shape, h_hi),
        ], axis=1), axis=1)
        # the windows at the split points themselves, and on each open
        # interval between two of them the root of one quadratic
        won = measure.mass_interval(c - hs, c + hs) > 0.5
        ha, hb = hs[:, :-1], hs[:, 1:]
        mid = (ha + hb) / 2
        right = 2 * np.searchsorted(p, c + mid, side="right")
        left = 2 * np.searchsorted(p, c - mid, side="right")

        def mass(h):
            return model.value(right, c + h, model.atoms_g) - model.value(left, c - h, model.atoms_h)

        m0 = mass(ha)
        grow = model.slope(right, c + ha) + model.slope(left, c - ha)
        h = ha + np.clip(_root(m0, grow, model.c2[right] - model.c2[left], 0.5), 0.0, hb - ha)
        hit = (hb > ha) & (mass(hb) > 0.5)
        lo = np.concatenate([(c - hs)[won], (c - h)[hit], [best[0]]])
        hi = np.concatenate([(c + hs)[won], (c + h)[hit], [best[1]]])
        j = int(np.argmin(hi - lo))
        best = (float(lo[j]), float(hi[j]))
    return best


def resolution_limit(measure: ProbMeasure1D) -> ResolutionReport:
    """Smallest window length whose best placement captures more than 1/2.

    gamma is the infimum over the candidate windows of ``window_mass_sup``,
    found by one exact sweep (``_shortest_half``), the "shortest half" of
    robust statistics (P. J. Rousseeuw, JASA 79, 871 (1984)).
    """
    a, b = _shortest_half(measure)
    return ResolutionReport(b - a, (a, b))


@dataclass(frozen=True)
class RegularDecomposition:
    """Structure witness for a regular observable: rho = delta/2 + remainder/2."""

    location: float
    remainder: ProbMeasure1D
    neighbourhood_masses: Tuple[float, ...]
    borderline: bool
    gamma: float


def regular_decomposition(
    measure: ProbMeasure1D, tol: float = 1e-6
) -> Optional[RegularDecomposition]:
    """Split off a half-weight atom sitting inside the remainder's support.

    Returns None when no atom carries weight >= 1/2 - tol or when the
    candidate point fails the sampled-neighbourhood support test.  Presence
    of the decomposition is cross-checked against gamma <= tol.
    """
    gamma = resolution_limit(measure).gamma
    best = None
    for loc, w in measure.atoms:
        if w >= 0.5 - tol and (best is None or w > best[1]):
            best = (loc, w)
    if best is None:
        return None
    xbar, w = best
    rem_atoms = []
    for loc, aw in measure.atoms:
        nw = 2 * aw - 1.0 if loc == xbar else 2 * aw
        if nw > 1e-15:
            rem_atoms.append((loc, nw))
    rem_density = None if measure.density is None else 2 * measure.density
    try:
        remainder = ProbMeasure1D(
            atoms=tuple(rem_atoms), grid=measure.grid, density=rem_density
        )
    except ValueError:
        return None

    lo_sup, hi_sup = measure.support_bounds()
    span = max(hi_sup - lo_sup, 1.0)
    betas = span * 2.0 ** -np.arange(2, 11)
    masses = tuple(
        float(remainder.mass_interval(xbar - b / 2, xbar + b / 2)) for b in betas
    )
    if min(masses) <= 0:
        return None
    borderline = min(masses) < 1e-9
    return RegularDecomposition(xbar, remainder, masses, borderline, gamma)


# --- state distinction power ------------------------------------------------


class DistinctionOrder(enum.Enum):
    EQUIVALENT = "equivalent"
    FIRST_BELOW = "first below second"
    FIRST_ABOVE = "first above second"
    INCOMPARABLE = "incomparable"


def _numeric_support(values: np.ndarray, threshold: float) -> np.ndarray:
    mask = np.abs(values) > threshold
    # close by one grid step to absorb sampling jitter at the boundary
    grown = mask.copy()
    grown[:-1] |= mask[1:]
    grown[1:] |= mask[:-1]
    return mask, grown


def distinction_compare(
    first: ProbMeasure1D, second: ProbMeasure1D, grid: Grid1D
) -> DistinctionOrder:
    """Order two confidence measures by the support of their transforms.

    The Fourier-Stieltjes transforms are evaluated on the dual lattice of
    ``grid`` (a measure whose density lives on another grid raises
    ValueError).  Numeric support is where a transform exceeds 1e-6 times its
    peak, which is at least |f(0)|, the total mass 1, because exact supports
    are unavailable in finite precision.  Supports are dilated by one step before testing
    inclusion.
    """
    f1 = first.fourier(grid)
    f2 = second.fourier(grid)
    s1, s1_closed = _numeric_support(f1, 1e-6 * np.abs(f1).max())
    s2, s2_closed = _numeric_support(f2, 1e-6 * np.abs(f2).max())
    first_below = bool(np.all(~s1 | s2_closed))
    second_below = bool(np.all(~s2 | s1_closed))
    if first_below and second_below:
        return DistinctionOrder.EQUIVALENT
    if first_below:
        return DistinctionOrder.FIRST_BELOW
    if second_below:
        return DistinctionOrder.FIRST_ABOVE
    return DistinctionOrder.INCOMPARABLE


# --- sharpness ---------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessReport:
    sharp: bool
    location: Optional[float]
    norm_condition_holds: bool
    agrees: bool
    sampled_norms: Tuple[Tuple[float, float], ...]


def sharpness_test(measure: ProbMeasure1D) -> SharpnessReport:
    """Classify a confidence measure as a point mass or properly smeared.

    Sharp means a single atom of weight one.  Independently, the operator
    norm of the effect of any open interval of width w is the supremum over
    translates of the open-window mass, which equals one for every width
    exactly in the sharp case; both routes are reported and compared, the
    second at the seven widths span / 2, span / 4, ..., span / 128.
    """
    atom_route = (
        len(measure.atoms) == 1
        and abs(measure.atoms[0][1] - 1.0) <= 1e-9
        and (measure.density is None or _trapezoid(measure.density, measure.grid.dx) <= 1e-9)
    )
    location = measure.atoms[0][0] if atom_route else None

    lo_sup, hi_sup = measure.support_bounds()
    span = max(hi_sup - lo_sup, 1.0)
    widths = span * 2.0 ** -np.arange(1, 8)
    sups = measure.window_mass_sup(widths, open_interval=True)
    norm_ok = bool(np.all(sups >= 1.0 - 1e-9))
    return SharpnessReport(
        sharp=atom_route,
        location=location,
        norm_condition_holds=norm_ok,
        agrees=(atom_route == norm_ok),
        sampled_norms=tuple(zip(widths.tolist(), sups.tolist())),
    )


# --- coexistence diagnostics -------------------------------------------------


def grid_wavefunctions(state: State, grid: Grid1D) -> Tuple[np.ndarray, np.ndarray]:
    """The factor's weights (r,) and its wave functions as the rows of an r x n array.

    The wave functions are the factor's vectors divided by sqrt(dx), the
    inverse of the grid embedding.
    """
    if state.dim != grid.n:
        raise ValueError("state dimension does not match the grid")
    return state.weights, state.vectors / np.sqrt(grid.dx)


def _state_densities(state: State, grid: Grid1D) -> Tuple[np.ndarray, np.ndarray]:
    """Position and momentum densities of a grid-embedded state."""
    weights, psi = grid_wavefunctions(state, grid)
    return weights @ np.abs(psi) ** 2, weights @ np.abs(grid.to_momentum(psi)) ** 2


def _density_moments(grid_vals: np.ndarray, axis: np.ndarray, dx: float):
    mass = _trapezoid(grid_vals, dx)
    mean = _trapezoid(axis * grid_vals, dx) / mass
    var = _trapezoid((axis - mean) ** 2 * grid_vals, dx) / mass
    return mass, mean, var


@dataclass(frozen=True)
class UncertaintyReport:
    product: float
    var_position: float
    var_momentum: float
    passed: bool
    leakage: float


def uncertainty_product(
    state: State,
    rho: ProbMeasure1D,
    nu: ProbMeasure1D,
    grid: Grid1D,
    tol: float = 1e-3,
) -> UncertaintyReport:
    """Variance product of the smeared position/momentum statistics.

    Var of the outcome distribution is the sharp-state variance plus the
    confidence-measure variance (variances add under convolution).  The
    bound >= 1 holds when ``rho`` and ``nu`` are the margins of one covariant
    phase-space observable, as every caller passes them.
    """
    pos, mom = _state_densities(state, grid)
    x = grid.positions()
    p = grid.momenta()
    mass_q, _, var_q = _density_moments(pos, x, grid.dx)
    mass_p, _, var_p = _density_moments(mom, p, grid.dp)
    leakage = abs(mass_q - 1.0) + abs(mass_p - 1.0)
    leakage += rho.edge_leakage() + nu.edge_leakage()
    if leakage > 0.01:
        raise WindowLeakageError(
            f"second moments unreliable: window leakage {leakage:.3e}"
        )
    var_pos = var_q + rho.variance()
    var_mom = var_p + nu.variance()
    product = var_pos * var_mom
    return UncertaintyReport(product, var_pos, var_mom, bool(product >= 1.0 - tol), float(leakage))


@dataclass(frozen=True)
class ResolutionProductReport:
    product: float
    gamma_position: float
    gamma_momentum: float
    passed: bool
    bound: float = RESOLUTION_BOUND


def resolution_product(
    rho: ProbMeasure1D, nu: ProbMeasure1D, tol: float = 1e-3
) -> ResolutionProductReport:
    """Product of the two limits of resolution against the coexistence bound."""
    g1 = resolution_limit(rho).gamma
    g2 = resolution_limit(nu).gamma
    product = g1 * g2
    return ResolutionProductReport(
        float(product), float(g1), float(g2), bool(product >= RESOLUTION_BOUND - tol)
    )


@dataclass(frozen=True)
class NoncommutativityReport:
    min_norm: float
    max_norm: float
    min_pair: Tuple[Tuple[float, float], Tuple[float, float]]
    max_pair: Tuple[Tuple[float, float], Tuple[float, float]]
    passed: bool


def noncommutativity_witness(
    rho: ProbMeasure1D,
    nu: ProbMeasure1D,
    grid: Grid1D,
    n_samples: int = 8,
    seed: int = 0,
) -> NoncommutativityReport:
    """Commutator norms of smeared position vs momentum effects.

    Samples bounded intervals for both observables and reports the extreme
    commutator norms with their witnesses; some pair must fail to commute.
    The position effect is diag(q) and the momentum effect the circulant C,
    so i [diag(q), C] is Hermitian with the matrix-free product
    v -> i (q * Cv - C(q * v)), two FFTs per C.  Its spectrum can come in
    +- pairs; Lanczos from a fixed start finds its largest modulus, the norm.
    """
    rng = np.random.default_rng(seed)
    pos_obs = SmearedObservable("position", rho, grid)
    mom_obs = SmearedObservable("momentum", nu, grid)
    half_q = grid.length / 4
    half_p = np.pi / grid.dx / 4
    start = np.random.default_rng(0).standard_normal(grid.n)
    mult = grid.apply_momentum_multiplier

    results = []
    for _ in range(n_samples):
        a = rng.uniform(-half_q, half_q / 2)
        b = a + rng.uniform(0.2, half_q / 2)
        c = rng.uniform(-half_p, half_p / 2)
        d = c + rng.uniform(0.2, half_p / 2)
        q, _ = smeared_profile(pos_obs, (a, b))
        p, _ = smeared_profile(mom_obs, (c, d))
        norm = _lanczos_norm(lambda v: 1j * (q * mult(p, v) - mult(p, q * v)), start)
        results.append((norm, ((a, b), (c, d))))
    results.sort(key=lambda r: r[0])
    return NoncommutativityReport(
        min_norm=results[0][0],
        max_norm=results[-1][0],
        min_pair=results[0][1],
        max_pair=results[-1][1],
        passed=bool(results[-1][0] > 1e-4),
    )
