"""Smeared position and momentum observables on the (gridded) line.

A smeared position observable is the sharp position observable convolved
with a confidence measure: the effect of a set X is multiplication by
x -> rho(X - x).  Momentum observables are their Fourier conjugates.  This
module also carries the operational diagnostics: alpha-regularity and the
limit of resolution, the regular-decomposition structure test, state
distinction power via Fourier supports, sharpness, and the coexistence
diagnostics (variance uncertainty product, resolution product and total
noncommutativity witnesses).

Measures combine a finite atom list with an optional sampled density on a
uniform grid.  The density CDF is accumulated with Simpson weights; interval
masses handle atoms at endpoints exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .grids import BLOCK_ENTRIES, Grid1D, WaveFunction
from .hilbert import Effect, IntervalCell, Operator, Outcome, Pom, State

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
    "alpha_regular",
    "resolution_limit",
    "regular_decomposition",
    "distinction_compare",
    "sharpness_test",
    "uncertainty_product",
    "resolution_product",
    "noncommutativity_witness",
]

MASS_TOL = 1e-9
RESOLUTION_BOUND = 3 - 2 * math.sqrt(2)


class WindowLeakageError(ValueError):
    """Raised when a computation would silently lose probability mass."""


@dataclass(frozen=True)
class ProbMeasure1D:
    """Probability measure on the line: atoms plus an optional grid density."""

    atoms: Tuple[Tuple[float, float], ...] = ()
    grid: Optional[Grid1D] = None
    density: Optional[np.ndarray] = None

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        locs = [x for x, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        if any(w < 0 for _, w in atoms):
            raise ValueError("atom weights must be nonnegative")
        object.__setattr__(self, "atoms", tuple(sorted(atoms)))
        if (self.grid is None) != (self.density is None):
            raise ValueError("grid and density must be given together")
        if self.density is not None:
            dens = np.asarray(self.density, dtype=float).copy()
            if dens.shape != (self.grid.n,):
                raise ValueError("density length does not match the grid")
            if dens.min() < 0:
                raise ValueError(f"negative density value {dens.min()}")
            dens.setflags(write=False)
            object.__setattr__(self, "density", dens)
        mass = self.total_mass()
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass} is not 1")
        object.__setattr__(self, "_dens_cdf", self._build_density_cdf())

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, t: float) -> "ProbMeasure1D":
        return cls(atoms=((t, 1.0),))

    @classmethod
    def from_atoms(cls, pairs: Sequence[Tuple[float, float]]) -> "ProbMeasure1D":
        return cls(atoms=tuple(pairs))

    @classmethod
    def from_density(
        cls, grid: Grid1D, values, atoms: Sequence[Tuple[float, float]] = (),
        normalize: bool = False,
    ) -> "ProbMeasure1D":
        values = np.asarray(values, dtype=float)
        if normalize:
            atom_mass = sum(w for _, w in atoms)
            dens_mass = simpson(values, dx=grid.dx)
            if dens_mass <= 0 and atom_mass <= 0:
                raise ValueError("cannot normalise a zero measure")
            if dens_mass > 0:
                values = values * (1.0 - atom_mass) / dens_mass
        return cls(atoms=tuple(atoms), grid=grid, density=values)

    @classmethod
    def gaussian(cls, grid: Grid1D, mean: float = 0.0, sigma: float = 1.0) -> "ProbMeasure1D":
        x = grid.positions()
        dens = np.exp(-((x - mean) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
        return cls.from_density(grid, dens, normalize=True)

    @classmethod
    def uniform(cls, grid: Grid1D, lo: float, hi: float) -> "ProbMeasure1D":
        if hi <= lo:
            raise ValueError("uniform support must have positive length")
        x = grid.positions()
        dens = ((x >= lo) & (x <= hi)).astype(float)
        return cls.from_density(grid, dens, normalize=True)

    @classmethod
    def convex_mixture(
        cls, weights: Sequence[float], parts: Sequence["ProbMeasure1D"]
    ) -> "ProbMeasure1D":
        weights = np.asarray(weights, dtype=float)
        if abs(weights.sum() - 1.0) > MASS_TOL or np.any(weights < 0):
            raise ValueError("mixture weights must be a probability vector")
        grids = {p.grid for p in parts if p.grid is not None}
        if len(grids) > 1:
            raise ValueError("mixture components must share one grid")
        grid = grids.pop() if grids else None
        atom_acc: dict = {}
        dens = np.zeros(grid.n) if grid is not None else None
        for w, part in zip(weights, parts):
            for loc, aw in part.atoms:
                atom_acc[loc] = atom_acc.get(loc, 0.0) + w * aw
            if part.density is not None:
                dens = dens + w * part.density
        atoms = tuple((x, aw) for x, aw in sorted(atom_acc.items()) if aw > 0)
        if grid is None:
            return cls(atoms=atoms)
        return cls(atoms=atoms, grid=grid, density=dens)

    # -- mass and CDF machinery ---------------------------------------------

    def _build_density_cdf(self) -> Optional[np.ndarray]:
        # Simpson ringing at density jumps cancels between node increments;
        # forcing monotonicity here would freeze the overshoot instead.
        if self.density is None:
            return None
        cdf = cumulative_simpson(self.density, dx=self.grid.dx, initial=0.0)
        cdf.setflags(write=False)
        return cdf

    def total_mass(self) -> float:
        mass = sum(w for _, w in self.atoms)
        if self.density is not None:
            mass += float(simpson(self.density, dx=self.grid.dx))
        return float(mass)

    def density_mass_below(self, t) -> np.ndarray:
        """Continuous-part mass of (-inf, t], vectorised in t.

        Node values come from Simpson accumulation; inside a cell the density
        is treated as linear, so the partial-cell integral is quadratic in t.
        """
        t = np.asarray(t, dtype=float)
        if self.density is None:
            return np.zeros(t.shape)
        cdf = getattr(self, "_dens_cdf")
        grid = self.grid
        total = float(cdf[-1])
        pos = np.clip((t - grid.x0) / grid.dx, -1.0, float(grid.n))
        k = np.clip(np.floor(pos).astype(int), 0, grid.n - 2)
        s = np.clip(pos - k, 0.0, 1.0) * grid.dx
        rho0 = self.density[k]
        slope = (self.density[k + 1] - rho0) / grid.dx
        partial = rho0 * s + 0.5 * slope * s * s
        out = cdf[k] + partial
        out = np.where(pos <= 0.0, 0.0, out)
        out = np.where(pos >= grid.n - 1, total, out)
        return np.clip(out, 0.0, total)

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

    def window_mass_sup(
        self, width: float, open_interval: bool = False
    ) -> Tuple[float, float]:
        """sup over centres x of the mass of [x - width/2, x + width/2].

        The window-mass function is piecewise linear in x between breakpoints
        where a window edge crosses a grid node or an atom, so evaluating at
        all breakpoints (plus atom centres) realises the supremum exactly for
        the interpolated-CDF model.  Returns (sup, maximising centre).
        """
        if width <= 0:
            raise ValueError("window width must be positive")
        half = width / 2
        cands = []
        if self.density is not None:
            x = self.grid.positions()
            cands.extend([x - half, x + half, x])
        if self.atoms:
            locs = np.array([x for x, _ in self.atoms])
            cands.extend([locs, locs - half, locs + half])
        centres = np.unique(np.concatenate(cands))
        inc = not open_interval
        masses = self.mass_interval(
            centres - half, centres + half, include_lo=inc, include_hi=inc
        )
        best = int(np.argmax(masses))
        return float(masses[best]), float(centres[best])

    # -- moments and transforms ---------------------------------------------

    def mean(self) -> float:
        m = sum(x * w for x, w in self.atoms)
        if self.density is not None:
            x = self.grid.positions()
            m += simpson(x * self.density, dx=self.grid.dx)
        return float(m)

    def variance(self) -> float:
        mu = self.mean()
        v = sum((x - mu) ** 2 * w for x, w in self.atoms)
        if self.density is not None:
            x = self.grid.positions()
            v += simpson((x - mu) ** 2 * self.density, dx=self.grid.dx)
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

    def fourier(self, xis: np.ndarray) -> np.ndarray:
        """Fourier-Stieltjes transform at the given frequencies."""
        xis = np.asarray(xis, dtype=float)
        out = np.zeros(xis.shape, dtype=complex)
        for loc, w in self.atoms:
            out += w * np.exp(-1j * xis * loc)
        if self.density is not None:
            # direct sum by blocks of frequencies, exact up to quadrature
            x = self.grid.positions()
            freqs, flat = xis.reshape(-1), out.reshape(-1)  # flat is a view of out
            step = max(1, BLOCK_ENTRIES // x.size)
            for i0 in range(0, freqs.size, step):
                kernel = np.exp(-1j * np.outer(freqs[i0 : i0 + step], x))
                flat[i0 : i0 + step] += kernel @ self.density * self.grid.dx
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


def _normalise_intervals(intervals) -> Tuple[Tuple[float, float], ...]:
    if isinstance(intervals, tuple) and len(intervals) == 2 and np.isscalar(intervals[0]):
        intervals = [intervals]
    out = []
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        if hi < lo:
            raise ValueError(f"interval [{lo}, {hi}) is reversed")
        if hi > lo:
            out.append((lo, hi))
    return tuple(out)


def smeared_profile(obs: SmearedObservable, intervals) -> Tuple[np.ndarray, float]:
    """Multiplier profile rho(X - node) over the outcome nodes, plus clip defect.

    X is a union of half-open intervals [lo, hi); atoms exactly at lo are
    included, atoms at hi excluded.
    """
    nodes = obs.outcome_nodes()
    prof = np.zeros(nodes.shape)
    for lo, hi in _normalise_intervals(intervals):
        prof += obs.measure.mass_interval(
            lo - nodes, hi - nodes, include_lo=True, include_hi=False
        )
    clipped = np.clip(prof, 0.0, 1.0)
    defect = float(np.max(np.abs(prof - clipped), initial=0.0))
    return clipped, defect


def smeared_effect(obs: SmearedObservable, intervals) -> Effect:
    """Effect of a union of grid intervals.

    Position kind: diagonal multiplication by the smeared indicator.
    Momentum kind: the same profile on the momentum lattice, conjugated back
    by the grid Fourier map.
    """
    prof, _ = smeared_profile(obs, intervals)
    if obs.kind == "position":
        return Effect(Operator(np.diag(prof.astype(complex))))
    f = obs.grid.fourier_matrix()
    return Effect(Operator(f.conj().T @ np.diag(prof.astype(complex)) @ f))


def smeared_pom(obs: SmearedObservable, boundaries: Sequence[float]) -> Pom:
    """Partition of the line into consecutive cells (outer cells unbounded)."""
    interior = [float(b) for b in boundaries]
    if any(b2 <= b1 for b1, b2 in zip(interior[:-1], interior[1:])):
        raise ValueError("boundaries must be strictly increasing")
    bounds = [-math.inf] + interior + [math.inf]
    outcomes = []
    effects = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        effects.append(smeared_effect(obs, [(lo, hi)]))
        outcomes.append(Outcome(f"[{lo:.6g},{hi:.6g})", IntervalCell(lo, hi)))
    return Pom(f"smeared {obs.kind} outcomes", tuple(outcomes), tuple(effects))


def distribution(
    psi: WaveFunction, obs: SmearedObservable, partition: Sequence[Tuple[float, float]]
) -> np.ndarray:
    """Outcome probabilities of a pure state: the convolution measure per cell.

    Computes (mu_psi * rho)(X) directly from the state's position (or
    momentum) density; coincides with tr(T_psi E(X)) for the corresponding
    smeared effects.
    """
    psi.require_normalised()
    cells = []
    for c in partition:
        got = _normalise_intervals([c])
        if not got:
            raise ValueError(f"degenerate partition cell {c}")
        cells.append(got[0])
    for (l1, h1), (l2, h2) in zip(cells[:-1], cells[1:]):
        if l2 < h1:
            raise ValueError("partition cells overlap")
    nodes = obs.outcome_nodes()
    if obs.kind == "position":
        weights = psi.position_density() * psi.grid.dx
    else:
        weights = np.abs(psi.momentum_values()) ** 2 * psi.grid.dp
    out = np.zeros(len(cells))
    for i, (lo, hi) in enumerate(cells):
        prof = obs.measure.mass_interval(
            lo - nodes, hi - nodes, include_lo=True, include_hi=False
        )
        out[i] = float(weights @ prof)
    return out


# --- regularity and the limit of resolution --------------------------------


def alpha_regular(measure: ProbMeasure1D, alpha: float) -> bool:
    """True iff every window of length alpha somewhere captures mass > 1/2."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sup, _ = measure.window_mass_sup(alpha)
    return bool(sup > 0.5)


@dataclass(frozen=True)
class ResolutionReport:
    gamma: float
    alphas: np.ndarray
    sups: np.ndarray
    trivial: bool = False


def resolution_limit(
    measure: ProbMeasure1D,
    trivial_observable: bool = False,
    tol: float = 1e-6,
    profile_points: int = 33,
) -> ResolutionReport:
    """Smallest window length whose best placement captures more than 1/2.

    Bisects the monotone window-mass supremum to absolute tolerance ``tol``.
    ``trivial_observable=True`` is the convention for multiples of the
    identity, which are not smeared position observables: gamma is infinite.
    """
    if trivial_observable:
        return ResolutionReport(math.inf, np.empty(0), np.empty(0), trivial=True)
    lo_sup, hi_sup = measure.support_bounds()
    hi = max(hi_sup - lo_sup, tol) * 1.5 + 1.0
    lo = 0.0
    if measure.window_mass_sup(hi)[0] <= 0.5:
        raise AssertionError("window covering the support must capture mass 1")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if measure.window_mass_sup(mid)[0] > 0.5:
            hi = mid
        else:
            lo = mid
    gamma = hi
    alphas = np.geomspace(max(gamma, tol) / 64, (hi_sup - lo_sup) + 1.0, profile_points)
    sups = np.array([measure.window_mass_sup(a)[0] for a in alphas])
    return ResolutionReport(float(gamma), alphas, sups)


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
    gamma = resolution_limit(measure, tol=min(tol, 1e-6)).gamma
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
    first: ProbMeasure1D,
    second: ProbMeasure1D,
    support_threshold: Optional[float] = None,
    grid: Optional[Grid1D] = None,
    xi_max: Optional[float] = None,
) -> DistinctionOrder:
    """Order two confidence measures by the support of their transforms.

    The Fourier-Stieltjes transforms are evaluated on the dual lattice of
    the common grid; numeric support uses the threshold (default 1e-6 times
    the transform's peak, surfaced because exact supports are unavailable in
    finite precision).  Supports are dilated by one step before testing
    inclusion.
    """
    grid = grid or first.grid or second.grid
    if grid is None:
        raise ValueError("a grid is needed to form the dual lattice")
    xis = grid.momenta()
    if xi_max is not None:
        xis = xis[np.abs(xis) <= xi_max]
    f1 = first.fourier(xis)
    f2 = second.fourier(xis)
    thr1 = support_threshold if support_threshold is not None else 1e-6 * np.abs(f1).max()
    thr2 = support_threshold if support_threshold is not None else 1e-6 * np.abs(f2).max()
    if thr1 <= 0 or thr2 <= 0:
        raise ValueError("support threshold must be positive")
    s1, s1_closed = _numeric_support(f1, thr1)
    s2, s2_closed = _numeric_support(f2, thr2)
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


def sharpness_test(measure: ProbMeasure1D, n_widths: int = 7) -> SharpnessReport:
    """Classify a confidence measure as a point mass or properly smeared.

    Sharp means a single atom of weight one.  Independently, the operator
    norm of the effect of any open interval of width w is the supremum over
    translates of the open-window mass, which equals one for every width
    exactly in the sharp case; both routes are reported and compared.
    """
    atom_route = (
        len(measure.atoms) == 1
        and abs(measure.atoms[0][1] - 1.0) <= 1e-9
        and (measure.density is None or simpson(measure.density, dx=measure.grid.dx) <= 1e-9)
    )
    location = measure.atoms[0][0] if atom_route else None

    lo_sup, hi_sup = measure.support_bounds()
    span = max(hi_sup - lo_sup, 1.0)
    widths = span * 2.0 ** -np.arange(1, n_widths + 1)
    sampled = []
    norm_ok = True
    for w in widths:
        sup, _ = measure.window_mass_sup(w, open_interval=True)
        sampled.append((float(w), sup))
        if sup < 1.0 - 1e-9:
            norm_ok = False
    return SharpnessReport(
        sharp=atom_route,
        location=location,
        norm_condition_holds=norm_ok,
        agrees=(atom_route == norm_ok),
        sampled_norms=tuple(sampled),
    )


# --- coexistence diagnostics -------------------------------------------------


def _spectral_pairs(state: State, grid: Grid1D) -> Tuple[np.ndarray, np.ndarray]:
    """Positive weights (r,) and their wave functions as the rows of an r x n array."""
    if state.dim != grid.n:
        raise ValueError("state dimension does not match the grid")
    weights, vecs = state.factor()
    keep = weights > 0
    return weights[keep], vecs[keep] / np.sqrt(grid.dx)


def _state_densities(state: State, grid: Grid1D) -> Tuple[np.ndarray, np.ndarray]:
    """Position and momentum densities of a grid-embedded state."""
    weights, psi = _spectral_pairs(state, grid)
    return weights @ np.abs(psi) ** 2, weights @ np.abs(grid.to_momentum(psi)) ** 2


def _density_moments(grid_vals: np.ndarray, axis: np.ndarray, dx: float):
    mass = simpson(grid_vals, dx=dx)
    mean = simpson(axis * grid_vals, dx=dx) / mass
    var = simpson((axis - mean) ** 2 * grid_vals, dx=dx) / mass
    return float(mass), float(mean), float(var)


@dataclass(frozen=True)
class UncertaintyReport:
    product: float
    var_position: float
    var_momentum: float
    passed: Optional[bool]
    leakage: float


def uncertainty_product(
    state: State,
    rho: ProbMeasure1D,
    nu: ProbMeasure1D,
    grid: Grid1D,
    coexistent: bool = True,
    tol: float = 1e-3,
) -> UncertaintyReport:
    """Variance product of the smeared position/momentum statistics.

    Var of the outcome distribution is the sharp-state variance plus the
    confidence-measure variance (variances add under convolution).  The
    bound >= 1 is asserted only for coexistent pairs, i.e. margins of one
    covariant phase-space observable.
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
    passed = bool(product >= 1.0 - tol) if coexistent else None
    return UncertaintyReport(product, var_pos, var_mom, passed, float(leakage))


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
    """
    rng = np.random.default_rng(seed)
    pos_obs = SmearedObservable("position", rho, grid)
    mom_obs = SmearedObservable("momentum", nu, grid)
    half_q = grid.length / 4
    half_p = np.pi / grid.dx / 4
    f = grid.fourier_matrix()

    results = []
    for _ in range(n_samples):
        a = rng.uniform(-half_q, half_q / 2)
        b = a + rng.uniform(0.2, half_q / 2)
        c = rng.uniform(-half_p, half_p / 2)
        d = c + rng.uniform(0.2, half_p / 2)
        prof_q, _ = smeared_profile(pos_obs, [(a, b)])
        prof_p, _ = smeared_profile(mom_obs, [(c, d)])
        eq = np.diag(prof_q.astype(complex))
        ep = f.conj().T @ np.diag(prof_p.astype(complex)) @ f
        norm = float(np.linalg.norm(eq @ ep - ep @ eq, 2))
        results.append((norm, ((a, b), (c, d))))
    results.sort(key=lambda r: r[0])
    return NoncommutativityReport(
        min_norm=results[0][0],
        max_norm=results[-1][0],
        min_pair=results[0][1],
        max_pair=results[-1][1],
        passed=bool(results[-1][0] > 1e-4),
    )
