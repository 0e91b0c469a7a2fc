"""The limit of resolution by one sweep, the window-mass profile, and the density mass model.

The sweep in ``resolution_limit`` is checked against the bisection it
replaced (``oracles.bisection_gamma``), against its own returned window, and
against every candidate window of a shorter length.  Batched window masses are
checked against ``window_mass_sup`` one width at a time, and the profile that
``smeared gamma --out`` writes against its formula; the density CDF model
for continuity, monotonicity and its error on a Gaussian; the matrix-free
commutator norm against a dense one.
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
from covpom.hilbert import make_state
from covpom.phasespace import hermite_wavefunction, margins_of_GT
from covpom.posmom import (
    ProbMeasure1D,
    SmearedObservable,
    noncommutativity_witness,
    resolution_limit,
    smeared_profile,
)
from oracles import bisection_gamma

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

    def test_blocks_of_one_row(self, monkeypatch):
        import covpom.posmom as posmom_module

        grid = symmetric_grid(512, 10.0)
        measure = ProbMeasure1D.gaussian(grid, 0.2, 0.9)
        widths = np.geomspace(1e-4, 30.0, PROFILE_POINTS)
        whole = measure.window_mass_sup(widths)
        monkeypatch.setattr(posmom_module, "BLOCK_ENTRIES", 1)
        np.testing.assert_array_equal(measure.window_mass_sup(widths), whole)

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
        grid = symmetric_grid(n, 12.0)
        rho = ProbMeasure1D.gaussian(grid, 0.0, 0.4)
        nu = ProbMeasure1D.gaussian(grid, 0.0, 0.6)
        rep = noncommutativity_witness(rho, nu, grid, n_samples=3, seed=n)
        norms = []
        for pos, mom in (rep.min_pair, rep.max_pair):
            a, _ = smeared_profile(SmearedObservable("position", rho, grid), pos)
            m, _ = smeared_profile(SmearedObservable("momentum", nu, grid), mom)
            comm = 1j * np.subtract.outer(a, a) * grid.momentum_multiplier(m)
            norms.append(np.max(np.abs(np.linalg.eigvalsh(comm))))
        assert rep.min_norm == pytest.approx(norms[0], rel=1e-10)
        assert rep.max_norm == pytest.approx(norms[1], rel=1e-10)

    @pytest.mark.parametrize("n", [16, 128])
    def test_matrix_free_product(self, n):
        grid = symmetric_grid(n, 6.0)
        rng = np.random.default_rng(n)
        prof = rng.uniform(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(
            grid.apply_momentum_multiplier(prof, v), grid.momentum_multiplier(prof) @ v,
            rtol=0, atol=1e-13,
        )
