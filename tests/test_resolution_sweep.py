"""The limit of resolution by one sweep, the window-mass profile, and the density mass model.

The sweep in ``resolution_limit`` is checked against the bisection it
replaced (``oracles.bisection_gamma``), against its own returned window, and
against every candidate window of a shorter length.  Batched window masses are
checked against ``window_mass_sup`` one width at a time, and the profile that
``smeared gamma --out`` writes against its formula; the density CDF model
for continuity, monotonicity and its error on a Gaussian; the Lanczos norm of
a smeared position-momentum commutator against a dense one.  The mass lookups, ``window_mass_sup``
and ``distribution`` are checked bit for bit against the forms that looked
each point up more than once (``oracles``).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import covpom
from covpom.cli import PROFILE_POINTS, main
from covpom.grids import symmetric_grid
from covpom.hilbert import _lanczos_norm, make_state
from covpom.phasespace import hermite_wavefunction, margins_of_GT
from covpom.posmom import (
    ProbMeasure1D,
    SmearedObservable,
    distribution,
    resolution_limit,
)
from oracles import (
    bisection_gamma,
    blocked_window_mass_sup,
    gathered_mass_below,
    momentum_multiplier,
    per_cell_distribution,
    smeared_profile,
)

seeds = st.integers(0, 2**32 - 1)


def gaussian(rng, n):
    grid = symmetric_grid(n, 20.0)
    return ProbMeasure1D.gaussian(grid, rng.uniform(-2, 2), rng.uniform(0.2, 2.0))


def atomic(rng, _n):
    k = int(rng.integers(1, 7))
    locs = rng.choice(np.arange(-40, 41) * 0.25, size=k, replace=False)
    return ProbMeasure1D(atoms=tuple(zip(locs, rng.dirichlet(np.ones(k)))))


def half_atom_uniform(rng, _n):
    grid = symmetric_grid(512, 4.0)
    lo, hi = rng.uniform(-2, -0.2), rng.uniform(0.2, 2)
    unif = ProbMeasure1D.uniform(grid, lo, hi)
    loc = rng.uniform(lo, hi)
    # one draw in four puts the atom on the first or last node of the density
    edge = int(rng.integers(8)) - 6
    if edge >= 0:
        loc = unif.support_bounds()[edge]
    return ProbMeasure1D(atoms=((loc, 0.5),), grid=grid, density=0.5 * unif.density)


def gaussian_atom(rng, n):
    w = rng.uniform(0.05, 0.7)
    loc = float(np.round(rng.uniform(-3, 3), 2))
    dens = gaussian(rng, n)
    return ProbMeasure1D(atoms=((loc, w),), grid=dens.grid, density=(1 - w) * dens.density)


def rough(rng, n, atom):
    """Sparse spikes on a coarse grid, optionally with an atom of mass 0.3."""
    dens = rng.uniform(size=n) ** 6 * (rng.uniform(size=n) < 0.5)
    dens[:2] = dens[-2:] = 0.0
    dens[n // 2] += 1e-3
    atoms = ((float(np.round(rng.uniform(-2, 2), 3)), 0.3),) if atom else ()
    return ProbMeasure1D.from_density(symmetric_grid(n, 4.0), dens, atoms=atoms)


# the seed at which half_atom_uniform puts its atom on the uniform's last node
EDGE_SEED = 4

FAMILIES = {
    "gaussian": gaussian,
    "atomic": atomic,
    "half-atom-uniform": half_atom_uniform,
    "gaussian-atom": gaussian_atom,
}


def best_candidate(measure, widths):
    """Per width, the largest mass of a window with an edge or the centre on an anchor."""
    u = measure._anchors()
    best = []
    for i in range(0, len(widths), 32):
        w = np.asarray(widths[i : i + 32], dtype=float)[:, None]
        best.append(np.max([
            measure.mass_interval(u, u + w).max(axis=1),
            measure.mass_interval(u - w, u).max(axis=1),
            measure.mass_interval(u - w / 2, u + w / 2).max(axis=1),
        ], axis=0))
    return np.concatenate(best)


class TestSweepOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([1024, 2048, 4096]), seed=seeds)
    # half-atom-uniform: the atom at 0.97599 in the cell after the uniform's
    # last node, where the density falls to 0; then the atom on that last node
    @example(n=1024, seed=225)
    @example(n=1024, seed=EDGE_SEED)
    def test_window_shorter_windows_and_bisection(self, family, n, seed):
        measure = FAMILIES[family](np.random.default_rng(seed), n)
        rep = resolution_limit(measure)
        a, b = rep.window
        assert b - a == rep.gamma
        # [a, b] is a limit of windows above 1/2: at gamma = 0 it is [a, a],
        # whose half atom holds exactly 1/2, so the edges may move by 1e-9
        moves = np.array([-1e-9, 0.0, 1e-9])
        assert measure.mass_interval(a + moves[:, None], b + moves).max() > 0.5
        if rep.gamma > 1e-6:
            top = rep.gamma - 1e-6
            widths = np.concatenate([
                np.linspace(0, top, 129)[1:],
                top - np.geomspace(1e-8, min(1e-3, top / 2), 128),
            ])
            assert best_candidate(measure, widths).max() <= 0.5
        assert rep.gamma == pytest.approx(bisection_gamma(measure), abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 32, 64]), seed=seeds, atom=st.booleans())
    def test_rough_densities(self, n, seed, atom):
        measure = rough(np.random.default_rng(seed), n, atom)
        gamma = resolution_limit(measure).gamma
        assert best_candidate(measure, [gamma + 1e-7])[0] > 0.5
        assert best_candidate(measure, np.linspace(0, gamma - 1e-6, 257)[1:]).max() <= 0.5
        assert gamma == pytest.approx(bisection_gamma(measure), abs=1e-6)

    def test_centred_windows_count(self):
        # sigma = 1 about the node at 0: the best window is centred there, and
        # every window with an edge on a node is longer by more than 1e-5
        grid = symmetric_grid(1024, 20.0)
        measure = ProbMeasure1D.gaussian(grid, 0.0, 1.0)
        rep = resolution_limit(measure)
        a, b = rep.window
        assert a == -b
        x, w = grid.positions(), rep.gamma + 1e-5
        assert measure.mass_interval(x, x + w).max() <= 0.5
        assert measure.mass_interval(x - w, x).max() <= 0.5

    def test_centred_scan_in_blocks_of_one_row(self, monkeypatch):
        import covpom.posmom as posmom_module

        measure = ProbMeasure1D.gaussian(symmetric_grid(1024, 20.0), 0.0, 1.0)
        scan, centres = posmom_module._centred_scan, []
        monkeypatch.setattr(posmom_module, "_centred_scan",
                            lambda m, model, c, *a: centres.append(c.size) or scan(m, model, c, *a))
        whole = resolution_limit(measure)
        monkeypatch.setattr(posmom_module, "BLOCK_ENTRIES", 1)
        assert resolution_limit(measure) == whole
        assert min(centres) > 1  # both scans ran, the second one centre per block


class TestBatchedProfile:
    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), seed=seeds, open_interval=st.booleans())
    def test_matches_window_mass_sup_per_width(self, family, seed, open_interval):
        measure = FAMILIES[family](np.random.default_rng(seed), 1024)
        widths = np.geomspace(1e-4, 30.0, PROFILE_POINTS)
        got = measure.window_mass_sup(widths, open_interval=open_interval)
        each = [measure.window_mass_sup(w, open_interval=open_interval)[0] for w in widths]
        np.testing.assert_allclose(got, each, rtol=0, atol=1e-15)
        if not open_interval:
            np.testing.assert_allclose(got, best_candidate(measure, widths), rtol=0, atol=1e-15)

    def test_window_starting_on_an_atom_keeps_it(self):
        # (0.1 + w/2) - w/2 rounds above 0.1, so the centre route drops the atom
        grid = symmetric_grid(1024, 20.0)
        dens = ProbMeasure1D.gaussian(grid, 1.4, 1.7).density
        measure = ProbMeasure1D(atoms=((0.1, 0.055),), grid=grid, density=0.945 * dens)
        w = 2.529
        lo, hi = (0.1 + w / 2) - w / 2, (0.1 + w / 2) + w / 2
        assert lo > 0.1
        sup = measure.window_mass_sup(w)[0]
        assert sup == float(measure.mass_interval(0.1, 0.1 + w))
        assert sup > float(measure.mass_interval(lo, hi)) + 0.05

    def test_widths_must_be_positive(self):
        measure = ProbMeasure1D.point(0.0)
        for widths in (0.0, [1.0, -1.0], [np.nan]):
            with pytest.raises(ValueError, match="positive"):
                measure.window_mass_sup(widths)

    def test_gamma_csv_header_and_columns(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"kind": "uniform", "lo": -1.0, "hi": 2.0}))
        out = tmp_path / "profile.csv"
        code = main(["smeared", "gamma", "--measure", str(mpath), "--grid-n", "512",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,sup_window_mass"
        assert len(lines) == 1 + PROFILE_POINTS
        assert all(len(line.split(",")) == 2 for line in lines)

    @pytest.mark.parametrize("out", [False, True])
    def test_gamma_profiles_only_for_out(self, out, capsys, tmp_path, monkeypatch):
        # the profile is built by the CLI: no window masses without --out, one batch with it
        calls = []
        sup = ProbMeasure1D.window_mass_sup
        monkeypatch.setattr(ProbMeasure1D, "window_mass_sup",
                            lambda self, *a, **k: calls.append(a) or sup(self, *a, **k))
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"kind": "gaussian", "sigma": 0.8}))
        csv = tmp_path / "g.csv"
        argv = ["smeared", "gamma", "--measure", str(mpath), "--grid-n", "1024"]
        assert main(argv + (["--out", str(csv)] if out else [])) == 0
        capsys.readouterr()
        assert len(calls) == int(out)
        if out:
            measure = ProbMeasure1D.gaussian(symmetric_grid(1024, 20.0), 0.0, 0.8)
            gamma = resolution_limit(measure).gamma
            lo, hi = measure.support_bounds()
            alphas = np.geomspace(max(gamma, 1e-6) / 64, (hi - lo) + 1.0, PROFILE_POINTS)
            rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
            np.testing.assert_array_equal(np.array(rows, dtype=float).T,
                                          [alphas, sup(measure, alphas)])


class TestOneLookupPerPoint:
    """Each point's mass looked up once, against the forms that looked it up again, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), seed=seeds, n=st.sampled_from([1024, 2048]))
    def test_mass_below_matches_gathered_form(self, family, seed, n):
        rng = np.random.default_rng(seed)
        measure = FAMILIES[family](rng, n)
        t = np.concatenate([measure._anchors(), rng.uniform(-25, 25, 512), [-np.inf, np.inf]])
        for points in (t, np.stack([t, t[::-1]]), t[0]):
            assert np.array_equal(measure.density_mass_below(points),
                                  gathered_mass_below(measure, points))

    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), seed=seeds, open_interval=st.booleans())
    def test_window_mass_sup_matches_blocked_form(self, family, seed, open_interval):
        measure = FAMILIES[family](np.random.default_rng(seed), 1024)
        # quarter widths move an edge from one atom of the atomic family onto
        # another; grid steps move it from node to node
        step = measure.grid.dx if measure.grid else 0.25
        widths = np.concatenate([np.geomspace(1e-4, 30.0, PROFILE_POINTS), np.arange(1, 41) / 4,
                                 step * np.arange(1, 9), [np.inf]])
        assert np.array_equal(measure.window_mass_sup(widths, open_interval=open_interval),
                              blocked_window_mass_sup(measure, widths, open_interval))

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=seeds,
        kind=st.sampled_from(["position", "momentum"]),
        inner=st.lists(st.one_of(st.floats(-12.0, 12.0), st.integers(-48, 48).map(lambda k: k / 4)),
                       min_size=1, max_size=6, unique=True),
        open_lo=st.booleans(),
        open_hi=st.booleans(),
    )
    def test_distribution_matches_per_cell_form(self, family, seed, kind, inner, open_lo, open_hi):
        # quarter bounds less a node that is a multiple of 1.25 put atoms of
        # the atomic family exactly on a cell's edge
        rng = np.random.default_rng(seed)
        obs = SmearedObservable(kind, FAMILIES[family](rng, 1024), symmetric_grid(256, 20.0))
        bounds = sorted(inner)
        if open_lo or len(bounds) < 2:
            bounds.insert(0, -np.inf)
        if open_hi:
            bounds.append(np.inf)
        state = self.random_state(rng, obs.grid)
        assert np.array_equal(distribution(state, obs, bounds),
                              per_cell_distribution(state, obs, bounds))

    def test_distribution_with_atoms_on_bounds(self):
        grid = symmetric_grid(256, 20.0)
        dens = ProbMeasure1D.gaussian(grid, 0.3, 0.8).density
        measure = ProbMeasure1D(atoms=((-0.5, 0.125), (0.0, 0.125), (0.75, 0.25)),
                                grid=grid, density=0.5 * dens)
        bounds = [-np.inf, -0.5, 0.0, 0.75, np.inf]
        # every atom sits on a bound less a node, so on some cell's edge
        assert np.isin([-0.5, 0.0, 0.75], np.subtract.outer(bounds, grid.positions())).all()
        state = self.random_state(np.random.default_rng(0), grid)
        obs = SmearedObservable("position", measure, grid)
        got = distribution(state, obs, bounds)
        assert np.array_equal(got, per_cell_distribution(state, obs, bounds))
        assert got.sum() == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def random_state(rng, grid, rank=2):
        envelope = np.exp(-grid.positions() ** 2 / 8)
        vecs = (rng.standard_normal((rank, grid.n))
                + 1j * rng.standard_normal((rank, grid.n))) * envelope
        return make_state(list(zip(rng.dirichlet(np.ones(rank)), vecs)))


class TestMassModel:
    """``density_mass_below``: continuous, nondecreasing, 0 and the total beyond the grid."""

    @staticmethod
    def assert_model(measure):
        below = measure.density_mass_below
        if measure.density is None:
            assert np.all(below(np.linspace(-20, 20, 101)) == 0)
            return
        grid = measure.grid
        x = grid.positions()
        h = 1e-9 * grid.dx
        jumps = below(x + h) - below(x - h)
        assert jumps.min() >= -1e-15
        assert jumps.max() <= 4 * h * measure.density.max() + 1e-15
        t = np.sort(np.concatenate([
            np.linspace(x[0] - 1, x[-1] + 1, 64 * grid.n), x, x - h, x + h,
        ]))
        assert np.diff(below(t)).min() >= -1e-15
        total = measure.total_mass() - sum(w for _, w in measure.atoms)
        assert np.all(below([-np.inf, x[0] - 1, x[0] - h, x[0]]) == 0)
        # the total is the trapezoid sum; the CDF's last node is a running sum
        np.testing.assert_allclose(below([x[-1], x[-1] + h, x[-1] + 1, np.inf]), total,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([1024, 2048]), seed=seeds)
    @example(n=1024, seed=225)
    @example(n=1024, seed=EDGE_SEED)
    def test_sweep_families(self, family, n, seed):
        self.assert_model(FAMILIES[family](np.random.default_rng(seed), n))

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 32, 64]), seed=seeds, atom=st.booleans())
    def test_rough_densities(self, n, seed, atom):
        self.assert_model(rough(np.random.default_rng(seed), n, atom))

    def test_fock_one_momentum_margin(self):
        # the margin vanishes at p = 0, where the floor of the model bites
        grid = symmetric_grid(1024, 20.0)
        t = make_state([(1.0, hermite_wavefunction(grid, 1))])
        _, nu = margins_of_GT(t, grid)
        self.assert_model(nu)

    @pytest.mark.parametrize("sigma", [0.4, 1.0])
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_gaussian_error_is_third_order(self, sigma, n):
        grid = symmetric_grid(n, 20.0)
        measure = ProbMeasure1D.gaussian(grid, 0.3, sigma)
        t = np.linspace(-6 * sigma, 6 * sigma, 32 * n) + 0.3
        err = np.abs(measure.density_mass_below(t) - norm.cdf(t, 0.3, sigma)).max()
        assert err <= 0.01 * (grid.dx / sigma) ** 3


class TestSimpson:
    """Importing the CLI loads no ``scipy.integrate``."""

    def test_cli_import_leaves_scipy_integrate_out(self):
        code = "import sys, covpom.cli; print('scipy.integrate' in sys.modules)"
        src = os.path.dirname(os.path.dirname(covpom.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert got.stdout.strip() == "False"


class TestCommutatorNorm:
    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_matches_dense_eigvalsh(self, n):
        # i [E_Q(X), E_P(Y)] is Hermitian, its spectrum in +- pairs; Lanczos from a fixed start
        # must find the largest modulus, the commutator norm
        grid = symmetric_grid(n, 12.0)
        pos = SmearedObservable("position", ProbMeasure1D.gaussian(grid, 0.0, 0.4), grid)
        mom = SmearedObservable("momentum", ProbMeasure1D.gaussian(grid, 0.0, 0.6), grid)
        rng = np.random.default_rng(n)
        start = np.random.default_rng(0).standard_normal(n)
        half_q, half_p = grid.length / 4, np.pi / grid.dx / 4
        for _ in range(3):
            a, c = rng.uniform(-half_q, half_q / 2), rng.uniform(-half_p, half_p / 2)
            q, _ = smeared_profile(pos, (a, a + rng.uniform(0.2, half_q / 2)))
            p, _ = smeared_profile(mom, (c, c + rng.uniform(0.2, half_p / 2)))
            comm = 1j * np.subtract.outer(q, q) * momentum_multiplier(grid, p)
            want = np.max(np.abs(np.linalg.eigvalsh(comm)))
            assert want > 1e-4
            assert _lanczos_norm(comm.dot, start) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [16, 128])
    def test_matrix_free_product(self, n):
        # the circulant's eigenvalues, the DFT of its first column, are the profile rolled by n/2
        # (the (-1)^k signs shift the DFT index by n/2), so it acts on v by two FFTs
        grid = symmetric_grid(n, 6.0)
        rng = np.random.default_rng(n)
        prof = rng.uniform(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(
            np.fft.ifft(np.roll(prof, n // 2) * np.fft.fft(v)), momentum_multiplier(grid, prof) @ v,
            rtol=0, atol=1e-13,
        )
