import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from covpom.grids import symmetric_grid
from covpom.hilbert import make_state
from covpom.posmom import (
    _state_densities,
    DistinctionOrder,
    ProbMeasure1D,
    SmearedObservable,
    WindowLeakageError,
    distinction_compare,
    distribution,
    noncommutativity_witness,
    regular_decomposition,
    resolution_limit,
    resolution_product,
    sharpness_test,
    smeared_effect,
    smeared_pom,
    smeared_profile,
    uncertainty_product,
)
from oracles import dense_fourier_matrix, direct_fourier

# frozen oracle: the half-mass window of a standard normal has length
# 2 * norm.ppf(3/4) = 1.3489795003921634
GAUSSIAN_GAMMA = 2 * norm.ppf(0.75)


@pytest.fixture(scope="module")
def grid():
    return symmetric_grid(1024, 20.0)


def gaussian_measure(grid, mean=0.0, sigma=1.0):
    return ProbMeasure1D.gaussian(grid, mean, sigma)


def half_atom_plus(measure):
    """The equal mixture of an atom at 0 and a grid measure without atoms."""
    return ProbMeasure1D(atoms=((0.0, 0.5),), grid=measure.grid, density=0.5 * measure.density)


def ground_wavefunction(grid, a=0.5):
    x = grid.positions()
    vals = (2 * a / np.pi) ** 0.25 * np.exp(-a * x**2)
    return vals / grid.norm(vals)


def bandlimited_measure(grid, a):
    """Density |f|^2 with flat dual coefficients on [-a/2, a/2]."""
    p = grid.momenta()
    h = (np.abs(p) <= a / 2).astype(complex) / np.sqrt(a)
    f = grid.to_position(h)
    return ProbMeasure1D.from_density(grid, np.abs(f) ** 2)


class TestMeasureBasics:
    def test_mass_validation(self):
        with pytest.raises(ValueError, match="total mass"):
            ProbMeasure1D(atoms=((0.0, 0.7),))

    def test_interval_masses_with_atoms(self):
        m = ProbMeasure1D(atoms=((0.0, 0.5), (1.0, 0.5)))
        assert m.mass_interval(0.0, 1.0) == pytest.approx(1.0)
        assert m.mass_interval(0.0, 1.0, include_hi=False) == pytest.approx(0.5)
        assert m.mass_interval(0.0, 1.0, include_lo=False) == pytest.approx(0.5)
        assert m.mass_interval(0.25, 0.75) == pytest.approx(0.0)

    def test_gaussian_moments(self, grid):
        m = gaussian_measure(grid, mean=1.5, sigma=0.8)
        assert m.mean() == pytest.approx(1.5, abs=1e-8)
        assert m.variance() == pytest.approx(0.64, abs=1e-6)

    def test_gaussian_cdf_against_erf_oracle(self, grid):
        m = gaussian_measure(grid)
        for t in (-1.3, 0.0, 0.4, 2.2):
            assert m.mass_interval(-np.inf, t) == pytest.approx(
                norm.cdf(t), abs=1e-6
            )

    @given(
        alpha1=st.floats(min_value=0.01, max_value=4.0),
        alpha2=st.floats(min_value=0.01, max_value=4.0),
        sigma=st.floats(min_value=0.2, max_value=2.0),
        atom_w=st.floats(min_value=0.0, max_value=0.6),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_mass_monotone_in_width(self, alpha1, alpha2, sigma, atom_w):
        g = symmetric_grid(256, 12.0)
        x = g.positions()
        dens = np.exp(-(x**2) / (2 * sigma**2)) * (1 - atom_w)
        dens /= np.trapezoid(dens, dx=g.dx) / max(1 - atom_w, 1e-12)
        atoms = ((0.7, atom_w),) if atom_w > 0 else ()
        m = ProbMeasure1D.from_density(g, dens, atoms=atoms)
        lo, hi = sorted((alpha1, alpha2))
        assert m.window_mass_sup(lo)[0] <= m.window_mass_sup(hi)[0] + 1e-12


class TestFourier:
    @pytest.mark.parametrize("n", [2**k for k in range(4, 13)])
    def test_lattice_matches_one_shot_sum(self, n):
        grid = symmetric_grid(n, 20.0)
        dens = gaussian_measure(grid, mean=0.3, sigma=0.7).density
        atoms = ((0.5, 0.3), (-1.25, 0.1))
        m = ProbMeasure1D(atoms=atoms, grid=grid, density=dens * 0.6)
        got = m.fourier(grid)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, direct_fourier(m, grid.momenta()), rtol=0, atol=1e-13)

    def test_atoms_alone_on_any_lattice(self):
        m = ProbMeasure1D(atoms=((0.25, 0.5), (2.0, 0.5)))
        grid = symmetric_grid(64, 5.0)
        np.testing.assert_allclose(
            m.fourier(grid), direct_fourier(m, grid.momenta()), rtol=0, atol=1e-15
        )

    def test_density_on_another_grid_raises(self, grid):
        m = gaussian_measure(grid)
        with pytest.raises(ValueError, match="different grid"):
            m.fourier(symmetric_grid(grid.n, 10.0))


class TestSmearedEffects:
    def test_dirac_gives_sharp_indicator(self, grid):
        obs = SmearedObservable("position", ProbMeasure1D.point(0.0), grid)
        prof, defect = smeared_profile(obs, (0.0, 2.0))
        x = grid.positions()
        np.testing.assert_allclose(prof, ((x >= -0.0) & (x < 2.0))[::-1][::-1] * 1.0
                                   if False else ((0.0 <= x) & (x < 2.0)) * 1.0,
                                   atol=1e-14)
        assert defect == 0.0

    def test_gaussian_half_line_matches_normal_cdf(self, grid):
        obs = SmearedObservable("position", gaussian_measure(grid), grid)
        prof, _ = smeared_profile(obs, (0.0, np.inf))
        x = grid.positions()
        sel = np.abs(x) < 6
        np.testing.assert_allclose(prof[sel], norm.cdf(x[sel]), atol=1e-6)
        mid = np.argmin(np.abs(x))
        assert prof[mid] == pytest.approx(0.5, abs=1e-9)

    def test_whole_line_is_identity(self, grid):
        obs = SmearedObservable("position", gaussian_measure(grid), grid)
        eff = smeared_effect(obs, (-np.inf, np.inf))
        np.testing.assert_allclose(eff, np.eye(grid.n), atol=1e-9)

    def test_empty_set_gives_zero_effect(self, grid):
        obs = SmearedObservable("position", gaussian_measure(grid), grid)
        eff = smeared_effect(obs, (0.0, 0.0))
        assert np.all(eff == 0)

    def test_translation_covariance_and_boost_invariance(self):
        g = symmetric_grid(256, 12.0)
        obs = SmearedObservable("position", gaussian_measure(g, sigma=0.7), g)
        shift = 16 * g.dx
        e1 = smeared_effect(obs, (-1.0, 1.0))
        e2 = smeared_effect(obs, (-1.0 + shift, 1.0 + shift))
        # U(q) E(X) U(q)* = E(X + q): lattice shift permutes the diagonal
        np.testing.assert_allclose(np.roll(np.diag(e1), 16), np.diag(e2), atol=1e-12)
        # V(p) E(X) V(p)* = E(X): diagonal effects commute with phases
        phases = np.exp(1j * 0.37 * g.positions())
        np.testing.assert_allclose(
            (phases[:, None] * e1 * phases.conj()[None, :]), e1, atol=1e-12
        )

    def test_momentum_kind_is_fourier_conjugate(self):
        g = symmetric_grid(256, 12.0)
        nu = gaussian_measure(g, sigma=0.5)
        obs_p = SmearedObservable("momentum", nu, g)
        eff = smeared_effect(obs_p, (-0.8, 1.1))
        prof, _ = smeared_profile(obs_p, (-0.8, 1.1))
        f = dense_fourier_matrix(g)
        np.testing.assert_allclose(
            f @ eff @ f.conj().T, np.diag(prof), atol=1e-9
        )

    def test_momentum_kind_defining_symmetries(self):
        # boost covariance V(p0) F(X) V(p0)* = F(X + p0) and translation
        # invariance U(q0) F(X) U(q0)* = F(X) on the lattice
        g = symmetric_grid(128, 10.0)
        nu = gaussian_measure(g, sigma=0.6)
        obs = SmearedObservable("momentum", nu, g)
        x = g.positions()
        b = 5
        p0 = b * g.dp
        eff = smeared_effect(obs, (-1.0, 1.0))
        eff_shift = smeared_effect(obs, (-1.0 + p0, 1.0 + p0))
        boost = np.diag(np.exp(1j * p0 * x))
        np.testing.assert_allclose(boost @ eff @ boost.conj().T, eff_shift, atol=1e-9)
        shift = np.roll(np.eye(g.n), 7, axis=0)
        np.testing.assert_allclose(shift @ eff @ shift.T, eff, atol=1e-9)

    def test_atom_outside_window_rejected(self, grid):
        with pytest.raises(WindowLeakageError):
            SmearedObservable("position", ProbMeasure1D.point(99.0), grid)

    def test_pom_partition_axioms(self):
        from covpom.hilbert import check_pom_axioms

        g = symmetric_grid(128, 10.0)
        obs = SmearedObservable("position", gaussian_measure(g, sigma=0.6), g)
        pom = smeared_pom(obs, [-2.0, -0.5, 0.5, 2.0])
        report = check_pom_axioms(pom, 1e-9)
        assert report.passed, report


class TestDistribution:
    def test_dirac_shift(self, grid):
        psi = ground_wavefunction(grid)
        t = 12 * grid.dx
        obs = SmearedObservable("position", ProbMeasure1D.point(t), grid)
        bounds = [-1.0, 0.0, 1.0, 2.5]
        got = distribution(make_state([(1.0, psi)]), obs, bounds)
        w = np.abs(psi) ** 2 * grid.dx
        x = grid.positions()
        expected = [np.sum(w[(x + t >= lo) & (x + t < hi)]) for lo, hi in zip(bounds, bounds[1:])]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gaussian_convolution_is_wider_normal(self, grid):
        # |psi|^2 = N(0,1) and rho = N(0,1) give N(0,2) statistics
        x = grid.positions()
        vals = np.exp(-(x**2) / 4) / (2 * np.pi) ** 0.25
        obs = SmearedObservable("position", gaussian_measure(grid), grid)
        got = distribution(make_state([(1.0, vals)]), obs, [-np.inf, -1.0, 0.5, np.inf])
        scale = math.sqrt(2.0)
        expected = [
            norm.cdf(-1.0 / scale),
            norm.cdf(0.5 / scale) - norm.cdf(-1.0 / scale),
            1 - norm.cdf(0.5 / scale),
        ]
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_two_routes_agree(self, grid):
        rng = np.random.default_rng(0)
        x = grid.positions()
        raw = sum(
            rng.normal() * x**k * np.exp(-(x**2) / 2) for k in range(4)
        ).astype(complex)
        state = make_state([(1.0, raw)])
        obs = SmearedObservable("position", gaussian_measure(grid, sigma=0.5), grid)
        bounds = [-np.inf, -0.7, 0.3, np.inf]
        route_direct = distribution(state, obs, bounds)
        route_trace = [
            float(np.trace(state.op @ smeared_effect(obs, c)).real)
            for c in zip(bounds, bounds[1:])
        ]
        np.testing.assert_allclose(route_direct, route_trace, atol=1e-10)
        assert got_sum_close(route_direct)

    def test_partition_sums_to_one(self, grid):
        state = make_state([(1.0, ground_wavefunction(grid))])
        obs = SmearedObservable("position", gaussian_measure(grid), grid)
        got = distribution(state, obs, [-np.inf, -1.0, 1.0, np.inf])
        assert got.sum() == pytest.approx(1.0, abs=1e-9)

    @given(
        inner=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5, unique=True),
        open_lo=st.booleans(),
        open_hi=st.booleans(),
        rank=st.integers(1, 3),
        kind=st.sampled_from(["position", "momentum"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_trace_on_random_bounds(self, inner, open_lo, open_hi, rank, kind, seed):
        g = symmetric_grid(128, 12.0)
        bounds = sorted(inner)
        if open_lo or len(bounds) < 2:
            bounds.insert(0, -np.inf)
        if open_hi:
            bounds.append(np.inf)
        rng = np.random.default_rng(seed)
        envelope = np.exp(-g.positions() ** 2 / 8)
        vecs = (rng.standard_normal((rank, g.n)) + 1j * rng.standard_normal((rank, g.n))) * envelope
        state = make_state(list(zip(rng.dirichlet(np.ones(rank)), vecs)))
        obs = SmearedObservable(kind, gaussian_measure(g, sigma=0.5), g)
        got = distribution(state, obs, bounds)
        want = [np.trace(state.op @ smeared_effect(obs, c)).real for c in zip(bounds, bounds[1:])]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        if np.isinf(bounds[0]) and np.isinf(bounds[-1]):
            assert got.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bounds", [
        [0.0, 0.0, 1.0],
        [1.0, 0.0],
        [0.0],
        [[-1.0, 0.0], [0.0, 1.0]],
    ])
    def test_bounds_must_increase_in_one_dimension(self, grid, bounds):
        state = make_state([(1.0, ground_wavefunction(grid))])
        obs = SmearedObservable("position", gaussian_measure(grid), grid)
        with pytest.raises(ValueError, match="strictly increasing"):
            distribution(state, obs, bounds)


def got_sum_close(vals):
    return abs(float(np.sum(vals)) - 1.0) < 1e-9


class TestRegularity:
    def test_dirac_always_regular(self):
        m = ProbMeasure1D.point(0.0)
        for alpha in (1e-4, 0.1, 3.0):
            assert m.window_mass_sup(alpha)[0] > 0.5

    def test_uniform_thresholds(self):
        g = symmetric_grid(1024, 4.0)
        m = ProbMeasure1D.uniform(g, 0.0, 1.0)
        assert not m.window_mass_sup(0.4)[0] > 0.5
        assert m.window_mass_sup(0.6)[0] > 0.5

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbMeasure1D.point(0.0).window_mass_sup(0.0)

    def test_dirac_gamma_zero(self):
        rep = resolution_limit(ProbMeasure1D.point(1.7))
        assert rep.gamma == pytest.approx(0.0, abs=1e-6)

    def test_half_atom_mixture_gamma_zero(self):
        g = symmetric_grid(512, 4.0)
        unif = ProbMeasure1D.uniform(g, -1.0, 1.0)
        m = half_atom_plus(unif)
        assert resolution_limit(m).gamma == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_gaussian_gamma_matches_quantile_oracle(self, sigma):
        g = symmetric_grid(1024, 20.0)
        rep = resolution_limit(gaussian_measure(g, sigma=sigma))
        assert rep.gamma == pytest.approx(GAUSSIAN_GAMMA * sigma, abs=1e-4)

    def test_profile_monotone(self):
        g = symmetric_grid(256, 8.0)
        m = gaussian_measure(g, sigma=0.8)
        lo, hi = m.support_bounds()
        sups = m.window_mass_sup(np.geomspace(1e-4, (hi - lo) + 1.0, 33))
        assert np.all(np.diff(sups) >= -1e-12)


class TestRegularDecomposition:
    def test_half_atom_plus_uniform(self):
        g = symmetric_grid(512, 4.0)
        unif = ProbMeasure1D.uniform(g, -1.0, 1.0)
        m = half_atom_plus(unif)
        dec = regular_decomposition(m)
        assert dec is not None
        assert dec.location == pytest.approx(0.0)
        assert dec.gamma <= 1e-6
        # remainder is the uniform part (edge cells smear by one grid step)
        pad = 2 * g.dx
        assert dec.remainder.mass_interval(-1.0 - pad, 1.0 + pad) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_gaussian_has_no_decomposition(self):
        g = symmetric_grid(512, 10.0)
        m = gaussian_measure(g)
        assert regular_decomposition(m) is None

    def test_separated_atoms_rejected(self):
        m = ProbMeasure1D(atoms=((0.0, 0.5), (5.0, 0.5)))
        assert regular_decomposition(m) is None
        gamma = resolution_limit(m).gamma
        assert gamma == pytest.approx(5.0, abs=1e-5)

    def test_agrees_with_gamma_on_corpus(self):
        g = symmetric_grid(512, 8.0)
        rng = np.random.default_rng(3)
        corpus = []
        for k in range(10):
            s = 0.3 + 0.2 * rng.uniform()
            corpus.append((gaussian_measure(g, sigma=s), False))
        for k in range(10):
            unif = ProbMeasure1D.uniform(g, -1.0 - k * 0.1, 1.0)
            m = half_atom_plus(unif)
            corpus.append((m, True))
        for k in range(5):
            m = ProbMeasure1D(atoms=((0.0, 0.5), (2.0 + k, 0.5)))
            corpus.append((m, False))
        corpus.append((ProbMeasure1D.point(0.3), True))
        for measure, expect_regular in corpus:
            dec = regular_decomposition(measure)
            gamma = resolution_limit(measure).gamma
            assert (dec is not None) == expect_regular
            assert (gamma <= 1e-5) == expect_regular


class TestDistinction:
    def test_identical_measures_equivalent(self, grid):
        m = gaussian_measure(grid)
        assert distinction_compare(m, m, grid) is DistinctionOrder.EQUIVALENT

    def test_bandlimited_strictly_below_gaussian(self, grid):
        m1 = bandlimited_measure(grid, a=2.0)
        m2 = gaussian_measure(grid)
        assert distinction_compare(m1, m2, grid) is DistinctionOrder.FIRST_BELOW
        assert distinction_compare(m2, m1, grid) is DistinctionOrder.FIRST_ABOVE

    def test_dirac_equivalent_to_narrow_gaussian(self, grid):
        m1 = ProbMeasure1D.point(0.7)
        m2 = gaussian_measure(grid, sigma=0.05)
        assert (
            distinction_compare(m1, m2, grid=grid) is DistinctionOrder.EQUIVALENT
        )

    def test_disjoint_band_supports_incomparable(self, grid):
        # band [-2, 2] against a shifted pure-frequency comb: engineered
        # incomparability via two band-limited measures of different widths
        m1 = bandlimited_measure(grid, a=2.0)
        m2 = bandlimited_measure(grid, a=4.0)
        assert distinction_compare(m2, m1, grid) is DistinctionOrder.FIRST_ABOVE

    def test_grids_differ_raises(self, grid):
        other = symmetric_grid(grid.n, 10.0)
        m1, m2 = gaussian_measure(grid), gaussian_measure(other)
        with pytest.raises(ValueError, match="different grid"):
            distinction_compare(m1, m2, grid)
        with pytest.raises(ValueError, match="different grid"):
            distinction_compare(m1, m1, grid=other)


class TestSharpness:
    def test_dirac_sharp(self):
        rep = sharpness_test(ProbMeasure1D.point(2.5))
        assert rep.sharp and rep.location == pytest.approx(2.5)
        assert rep.norm_condition_holds and rep.agrees

    def test_gaussian_not_sharp(self):
        g = symmetric_grid(512, 10.0)
        rep = sharpness_test(gaussian_measure(g))
        assert not rep.sharp
        assert not rep.norm_condition_holds
        assert rep.agrees
        # condition (b) fails quantitatively: small windows capture < 1
        smallest = rep.sampled_norms[-1]
        assert smallest[1] < 1.0

    def test_two_atoms_not_sharp(self):
        rep = sharpness_test(ProbMeasure1D(atoms=((0.0, 0.5), (1.0, 0.5))))
        assert not rep.sharp and rep.agrees


class TestCoexistenceDiagnostics:
    def test_ground_gaussian_equality_case(self, grid):
        psi = ground_wavefunction(grid)
        state = make_state([(1.0, psi)])
        rho = gaussian_measure(grid, sigma=math.sqrt(0.5))
        nu = gaussian_measure(grid, sigma=math.sqrt(0.5))
        rep = uncertainty_product(state, rho, nu, grid)
        assert rep.var_position == pytest.approx(1.0, abs=1e-4)
        assert rep.var_momentum == pytest.approx(1.0, abs=1e-4)
        assert rep.product == pytest.approx(1.0, abs=1e-3)
        assert rep.passed

    def test_state_densities_match_per_vector_route(self, grid):
        vecs = [ground_wavefunction(grid), ground_wavefunction(grid, a=1.3)]
        state = make_state([(w, v) for w, v in zip((0.3, 0.7), vecs)])
        pos = np.zeros(grid.n)
        mom = np.zeros(grid.n)
        for w, vec in zip(state.weights, state.vectors):
            psi = vec / np.sqrt(grid.dx)
            pos += w * np.abs(psi) ** 2
            mom += w * np.abs(grid.to_momentum(psi)) ** 2
        got_pos, got_mom = _state_densities(state, grid)
        np.testing.assert_allclose(got_pos, pos, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got_mom, mom, rtol=0, atol=1e-14)

    def test_resolution_product_gaussian_benchmark(self):
        g = symmetric_grid(1024, 20.0)
        s = math.sqrt(0.5)
        rho = gaussian_measure(g, sigma=s)
        nu = gaussian_measure(g, sigma=s)
        rep = resolution_product(rho, nu)
        assert rep.gamma_position == pytest.approx(GAUSSIAN_GAMMA * s, abs=1e-4)
        assert rep.product == pytest.approx((GAUSSIAN_GAMMA * s) ** 2, abs=1e-3)
        assert rep.passed

    def test_resolution_product_squeezing_invariance(self):
        g = symmetric_grid(2048, 40.0)
        scale = math.sqrt(10.0)
        base = math.sqrt(0.5)
        rho = gaussian_measure(g, sigma=base / scale)
        nu = gaussian_measure(g, sigma=base * scale)
        rep = resolution_product(rho, nu)
        assert rep.product == pytest.approx((GAUSSIAN_GAMMA * base) ** 2, abs=1e-3)

    def test_sharp_pair_commutator_large(self):
        g = symmetric_grid(256, 12.0)
        rho = ProbMeasure1D.point(0.0)
        nu = ProbMeasure1D.point(0.0)
        pos = SmearedObservable("position", rho, g)
        mom = SmearedObservable("momentum", nu, g)
        eq = smeared_effect(pos, (0.0, 1.0))
        ep = smeared_effect(mom, (0.0, 1.0))
        assert np.linalg.norm(eq @ ep - ep @ eq, 2) > 0.1

    def test_full_line_commutes(self):
        g = symmetric_grid(256, 12.0)
        pos = SmearedObservable("position", ProbMeasure1D.point(0.0), g)
        mom = SmearedObservable("momentum", gaussian_measure(g, sigma=0.5), g)
        eq = smeared_effect(pos, (-np.inf, np.inf))
        ep = smeared_effect(mom, (0.0, 1.0))
        assert np.linalg.norm(eq @ ep - ep @ eq, 2) < 1e-10

    def test_noncommutativity_witness_report(self):
        g = symmetric_grid(256, 12.0)
        rho = gaussian_measure(g, sigma=0.4)
        nu = gaussian_measure(g, sigma=0.4)
        rep = noncommutativity_witness(rho, nu, g, n_samples=6, seed=1)
        assert rep.passed
        assert rep.max_norm > 1e-4
        assert rep.min_norm <= rep.max_norm


class TestInjectivity:
    def test_distinguishable_statistics(self, grid):
        # witness state with nowhere-vanishing Fourier transform of |psi|^2
        state = make_state([(1.0, ground_wavefunction(grid))])
        pairs = [
            (gaussian_measure(grid, 0.0, 1.0), gaussian_measure(grid, 0.05, 1.0)),
            (gaussian_measure(grid, 0.0, 1.0), gaussian_measure(grid, 0.0, 1.1)),
            (ProbMeasure1D.point(0.0), gaussian_measure(grid, sigma=0.3)),
        ]
        bounds = np.arange(-4.0, 4.25, 0.5)
        for m1, m2 in pairs:
            d1 = distribution(state, SmearedObservable("position", m1, grid), bounds)
            d2 = distribution(state, SmearedObservable("position", m2, grid), bounds)
            assert np.max(np.abs(d1 - d2)) > 1e-6

    def test_null_sets(self, grid):
        obs = SmearedObservable("position", gaussian_measure(grid), grid)
        zero = smeared_effect(obs, (0.0, 0.0))
        assert np.all(zero == 0)
        tiny = smeared_effect(obs, (0.0, grid.dx))
        assert np.linalg.norm(tiny) > 0
