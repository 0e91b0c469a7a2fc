import numpy as np
import pytest

from covpom.grids import WaveFunction, symmetric_grid
from covpom.hilbert import (
    RectCell,
    check_pom_axioms,
    make_state,
    pure_state,
    spectral_norm,
)
from covpom.abelian import verify_covariance
from covpom.phasespace import (
    finite_weyl_action,
    finite_weyl_pom,
    finite_weyl_unitaries,
    gaussian_wavefunction,
    hermite_wavefunction,
    margins_of_GT,
    phase_space_cell_norm,
    phase_space_density,
    phase_space_effect,
    phase_space_pom,
    resolution_of_identity_defect,
    state_from_wavefunctions,
    weyl_apply,
)
from covpom.posmom import (
    ProbMeasure1D,
    grid_wavefunctions,
    SmearedObservable,
    distribution,
    uncertainty_product,
)
from scipy.integrate import simpson
from scipy.signal import fftconvolve


@pytest.fixture(scope="module")
def grid():
    return symmetric_grid(256, 12.0)


def random_rank2_state(grid, rng):
    """Random mixed state supported on low Hermite modes."""
    vecs = []
    for _ in range(2):
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        vals = sum(
            c * hermite_wavefunction(grid, k).values for k, c in enumerate(coeffs)
        )
        vecs.append(WaveFunction(grid, vals).normalised())
    w = rng.uniform(0.2, 0.8)
    return state_from_wavefunctions([(w, vecs[0]), (1 - w, vecs[1])])


def weyl_matrix(grid, a_idx, b_idx):
    q = a_idx * grid.dx
    p = b_idx * grid.dp
    x = grid.positions()
    perm = np.roll(np.eye(grid.n), a_idx, axis=0)
    return np.diag(np.exp(1j * p * (x - q / 2))) @ perm


class TestStateFromWavefunctions:
    def test_non_orthogonal_mixture(self):
        # Gaussians at -0.5 and +0.5 overlap by 0.78; the state must be the
        # mixture itself, not a mixture of Gram-Schmidt-orthogonalised vectors.
        g = symmetric_grid(256, 10.0)
        psi_a = gaussian_wavefunction(g, center=-0.5)
        psi_b = gaussian_wavefunction(g, center=0.5)
        t = state_from_wavefunctions([(0.5, psi_a), (0.5, psi_b)])
        a, b = psi_a.values * np.sqrt(g.dx), psi_b.values * np.sqrt(g.dx)
        expected = 0.5 * np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj())
        assert spectral_norm(t.op.mat - expected) <= 1e-12
        t.validate(1e-12)
        rho, _ = margins_of_GT(t, g)
        # 1/(4a) from each packet plus the spread 0.5^2 of their centres
        assert rho.variance() == pytest.approx(0.75, abs=1e-12)

    def test_dependent_components_merge(self):
        g = symmetric_grid(64, 8.0)
        psi = hermite_wavefunction(g, 1)
        t = state_from_wavefunctions([(0.3, psi), (0.7, psi)])
        assert t.weights.size == 1
        pure = state_from_wavefunctions([(1.0, psi)])
        assert spectral_norm(t.op.mat - pure.op.mat) <= 1e-14


class TestFactorState:
    def test_spectral_pairs_match_per_vector_route(self, grid):
        rng = np.random.default_rng(8)
        vecs = rng.normal(size=(3, grid.n)) + 1j * rng.normal(size=(3, grid.n))
        state = make_state([(0.5, vecs[0]), (0.0, vecs[1]), (0.5, vecs[2])])
        pairs = [
            (w, v / np.sqrt(grid.dx))
            for w, v in zip(state.weights, state.vectors)
            if w > 0
        ]
        weights, rows = grid_wavefunctions(state, grid)
        np.testing.assert_allclose(weights, [w for w, _ in pairs], rtol=0, atol=1e-14)
        np.testing.assert_allclose(rows, np.stack([v for _, v in pairs]), rtol=0, atol=1e-14)

    def test_grid_paths_leave_op_unbuilt(self, grid):
        # every grid path reads only the factor: no n x n matrix for the state
        rng = np.random.default_rng(6)
        t = random_rank2_state(grid, rng)
        s = random_rank2_state(grid, rng)
        rho, nu = margins_of_GT(t, grid)
        uncertainty_product(s, rho, nu, grid)
        pure = make_state([(1.0, s.vectors[0])])
        psi = WaveFunction(grid, pure.vectors[0] / np.sqrt(grid.dx))
        obs = SmearedObservable("position", ProbMeasure1D.gaussian(grid, sigma=0.5), grid)
        distribution(psi, obs, [(-np.inf, 0.0), (0.0, np.inf)])
        cell = RectCell(-1.0, 1.0, -1.0, 1.0)
        phase_space_effect(t, cell, grid, order=4)
        phase_space_cell_norm(t, cell, grid, order=4)
        resolution_of_identity_defect(t, grid, half_width=6.0, n_test=3, order=4)
        phase_space_density(t, s, np.linspace(-2, 2, 3), np.linspace(-2, 2, 3), grid)
        for state in (t, s, pure):
            assert "op" not in vars(state)


class TestWeylApply:
    def test_identity_at_origin(self, grid):
        psi = gaussian_wavefunction(grid)
        out = weyl_apply(0.0, 0.0, psi)
        np.testing.assert_allclose(out.psi.values, psi.values, atol=1e-14)
        assert out.snap_distance == 0.0

    def test_pure_boost_is_pointwise_phase(self, grid):
        psi = gaussian_wavefunction(grid)
        p = 5 * grid.dp
        out = weyl_apply(0.0, p, psi)
        np.testing.assert_allclose(
            out.psi.values, np.exp(1j * p * grid.positions()) * psi.values, atol=1e-13
        )

    def test_gaussian_shift_preserves_norm(self, grid):
        psi = gaussian_wavefunction(grid)
        out = weyl_apply(2.0, 0.0, psi)
        assert out.psi.norm() == pytest.approx(1.0, abs=1e-12)
        x = grid.positions()
        peak = x[np.argmax(np.abs(out.psi.values))]
        assert peak == pytest.approx(2.0, abs=grid.dx)

    def test_snap_reported(self, grid):
        psi = gaussian_wavefunction(grid)
        out = weyl_apply(0.37 * grid.dx, 0.0, psi)
        assert 0 < out.snap_distance < grid.dx
        assert out.q == pytest.approx(0.0)

    def test_composition_law_up_to_phase(self, grid):
        rng = np.random.default_rng(0)
        psi = random_rank2_state(grid, rng)
        vec = psi.vectors[0] / np.sqrt(grid.dx)
        wf = WaveFunction(grid, vec).normalised()
        for _ in range(5):
            a1, a2 = rng.integers(-30, 30, size=2)
            b1, b2 = rng.integers(-30, 30, size=2)
            q1, p1 = a1 * grid.dx, b1 * grid.dp
            q2, p2 = a2 * grid.dx, b2 * grid.dp
            lhs = weyl_apply(q1, p1, weyl_apply(q2, p2, wf).psi).psi.values
            rhs = weyl_apply(q1 + q2, p1 + p2, wf).psi.values
            overlap = np.vdot(rhs, lhs) * grid.dx
            assert abs(abs(overlap) - 1.0) < 1e-10
            np.testing.assert_allclose(lhs, overlap * rhs, atol=1e-10)


class TestPhaseSpaceDensity:
    def test_ground_gaussian_husimi_values(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        qs = np.array([0.0, 1.0, -2.0])
        ps = np.array([0.0, 1.0, 0.5])
        res = phase_space_density(t, t, qs, ps, grid)
        for i, q in enumerate(qs):
            for j, p in enumerate(ps):
                expected = np.exp(-(q**2 + p**2) / 2) / (2 * np.pi)
                assert res.values[i, j] == pytest.approx(expected, rel=1e-9)
        assert res.values[0, 0] == pytest.approx(0.15915494309, abs=1e-10)

    def test_positive_for_random_states(self, grid):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = random_rank2_state(grid, rng)
            s = random_rank2_state(grid, rng)
            qs = np.linspace(-6, 6, 9)
            ps = np.linspace(-6, 6, 9)
            res = phase_space_density(t, s, qs, ps, grid)
            assert res.values.min() >= -1e-9

    def test_translation_covariance_on_lattice(self, grid):
        rng = np.random.default_rng(2)
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        s0 = random_rank2_state(grid, rng)
        a, b = 12, 7
        q0, p0 = a * grid.dx, b * grid.dp
        w = weyl_matrix(grid, a, b)
        shifted = type(s0)(s0.weights, s0.vectors @ w.T)
        qs = grid.dx * np.arange(-40, 41, 10)
        ps = grid.dp * np.arange(-40, 41, 10)
        base = phase_space_density(t, s0, qs, ps, grid)
        moved = phase_space_density(t, shifted, qs + q0, ps + p0, grid)
        np.testing.assert_allclose(moved.values, base.values, atol=1e-8)

    def test_window_too_small_raises(self, grid):
        # the density reports the leakage bound; the CLI's window-leakage check judges it
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        res = phase_space_density(t, t, np.array([0.0, 0.1]), np.array([0.0, 0.1]), grid)
        assert res.leakage_bound > 0.01

    def test_marginal_consistency_two_routes(self, grid):
        # integrate h over p and compare with the convolution of margins
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid, a=1.0))])
        s = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid, a=0.7))])
        qs = grid.positions()[::4]
        ps = np.linspace(-10, 10, 161)
        res = phase_space_density(t, s, qs, ps, grid)
        marg_q = simpson(res.values, x=ps, axis=1)
        rho, _ = margins_of_GT(t, grid)
        mu_s = np.abs(s.vectors[0] / np.sqrt(grid.dx)) ** 2
        conv = fftconvolve(mu_s, rho.density) * grid.dx
        axis = np.linspace(
            2 * grid.positions()[0], 2 * grid.positions()[-1], conv.size
        )
        expected = np.interp(qs, axis, conv)
        np.testing.assert_allclose(marg_q, expected, atol=1e-4)


class TestPhaseSpaceEffect:
    def test_additivity_on_disjoint_cells(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        c1 = RectCell(-1.0, 0.0, -1.0, 1.0)
        c2 = RectCell(0.0, 1.0, -1.0, 1.0)
        c12 = RectCell(-1.0, 1.0, -1.0, 1.0)
        e1 = phase_space_effect(t, c1, grid, order=12)
        e2 = phase_space_effect(t, c2, grid, order=12)
        e12 = phase_space_effect(t, c12, grid, order=12)
        assert spectral_norm(e1.op.mat + e2.op.mat - e12.op.mat) < 1e-12

    def test_bounded_cells_have_norm_below_one(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        for half in (0.5, 1.5, 2.5):
            cell = RectCell(-half, half, -half, half)
            norm = phase_space_cell_norm(t, cell, grid, order=12)
            assert norm < 1.0
        # analytic bracket for the unit square: the Gaussian capture
        # erf(1/(2 sqrt 2))^2 from below, the circumscribed disk from above
        from scipy.stats import norm as normal

        small = phase_space_cell_norm(t, RectCell(-0.5, 0.5, -0.5, 0.5), grid, order=12)
        lower = (normal.cdf(0.5) - normal.cdf(-0.5)) ** 2
        upper = 1 - np.exp(-0.25)
        assert lower - 1e-9 <= small <= upper + 1e-9
        # quadrature convergence: refining the rule does not move the value
        again = phase_space_cell_norm(t, RectCell(-0.5, 0.5, -0.5, 0.5), grid, order=20)
        assert small == pytest.approx(again, abs=1e-10)

    def test_hermiticity_and_positivity(self, grid):
        rng = np.random.default_rng(3)
        t = random_rank2_state(grid, rng)
        eff = phase_space_effect(t, RectCell(-1.0, 2.0, -0.5, 1.5), grid, order=12)
        eff.validate(1e-9)

    def test_covariance_under_lattice_translations(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        a, b = 16, 8
        q0, p0 = a * grid.dx, b * grid.dp
        cell = RectCell(-1.0, 1.0, -1.0, 1.0)
        moved_cell = RectCell(-1.0 + q0, 1.0 + q0, -1.0 + p0, 1.0 + p0)
        w = weyl_matrix(grid, a, b)
        e = phase_space_effect(t, cell, grid, order=14)
        e_moved = phase_space_effect(t, moved_cell, grid, order=14)
        defect = spectral_norm(w @ e.op.mat @ w.conj().T - e_moved.op.mat)
        assert defect < 1e-6

    def test_quadrature_order_validated(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        with pytest.raises(ValueError, match="order"):
            phase_space_effect(t, RectCell(0, 1, 0, 1), grid, order=1)

    def test_cell_outside_window_rejected(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        with pytest.raises(ValueError, match="outside"):
            phase_space_effect(t, RectCell(-100, 100, 0, 1), grid)
        with pytest.raises(ValueError, match="outside"):
            phase_space_cell_norm(t, RectCell(-100, 100, 0, 1), grid)

    def test_pom_with_remainder_passes_axioms(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        cells = [
            RectCell(-2.0, 0.0, -2.0, 2.0),
            RectCell(0.0, 2.0, -2.0, 2.0),
        ]
        pom = phase_space_pom(t, cells, grid, order=12)
        report = check_pom_axioms(pom, 1e-6)
        assert report.passed, report

    def test_outcome_probabilities_match_density_integral(self, grid):
        # probability rule tr(S G(Z)) agrees with integrating h over the cell
        from covpom.hilbert import outcome_distribution
        from scipy.integrate import simpson

        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        s = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid, a=0.8))])
        cells = [RectCell(-1.5, 0.5, -1.0, 1.0), RectCell(0.5, 2.5, -1.0, 1.0)]
        pom = phase_space_pom(t, cells, grid, order=14)
        probs = outcome_distribution(s, pom)
        for cell, p_trace in zip(cells, probs.probs[:2]):
            qs = np.linspace(cell.q_lo, cell.q_hi, 81)
            ps = np.linspace(cell.p_lo, cell.p_hi, 81)
            res = phase_space_density(t, s, qs, ps, grid)
            p_quad = simpson(simpson(res.values, x=ps, axis=1), x=qs)
            assert p_trace == pytest.approx(p_quad, abs=1e-6)


class TestResolutionOfIdentity:
    def test_defect_small_on_hermite_subspace(self, grid):
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(grid))])
        rep = resolution_of_identity_defect(
            t, grid, half_width=10.0, n_test=10, order=16
        )
        assert rep.defect < 1e-3
        assert rep.defect < 1e-9  # spectral quadrature: far below the bound

    def test_defect_small_for_mixed_t(self, grid):
        rng = np.random.default_rng(4)
        t = random_rank2_state(grid, rng)
        rep = resolution_of_identity_defect(
            t, grid, half_width=10.0, n_test=6, order=16
        )
        assert rep.defect < 1e-3


class TestMargins:
    def test_gaussian_margin_closed_forms(self):
        g = symmetric_grid(1024, 20.0)
        a, b = 1.0, 1.0
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(g, a=a, b=b))])
        rho, nu = margins_of_GT(t, g)
        x = g.positions()
        e_expected = np.sqrt(2 * a / np.pi) * np.exp(-2 * a * x**2)
        sel = e_expected > 1e-9 * e_expected.max()
        np.testing.assert_allclose(
            rho.density[sel] / e_expected[sel], 1.0, atol=1e-6
        )
        p = g.momenta()
        scale = a / (2 * np.pi * (a**2 + b**2))
        f_expected = np.sqrt(scale) * np.exp(-a * p**2 / (2 * (a**2 + b**2)))
        self_sel = f_expected > 1e-9 * f_expected.max()
        np.testing.assert_allclose(
            nu.density[self_sel] / f_expected[self_sel], 1.0, atol=1e-6
        )
        assert rho.variance() == pytest.approx(0.25, abs=1e-6)
        assert nu.variance() == pytest.approx(2.0, abs=1e-5)

    def test_conjugate_width_parameter_leaves_margins_unchanged(self):
        g = symmetric_grid(1024, 20.0)
        t1 = state_from_wavefunctions([(1.0, gaussian_wavefunction(g, a=1.0, b=1.0))])
        t2 = state_from_wavefunctions([(1.0, gaussian_wavefunction(g, a=1.0, b=-1.0))])
        r1, n1 = margins_of_GT(t1, g)
        r2, n2 = margins_of_GT(t2, g)
        assert np.max(np.abs(r1.density - r2.density)) <= 1e-9
        assert np.max(np.abs(n1.density - n2.density)) <= 1e-9
        assert spectral_norm(t1.op.mat - t2.op.mat) > 0.1

    def test_mixed_state_margin_is_weighted_sum(self):
        g = symmetric_grid(512, 16.0)
        h0 = hermite_wavefunction(g, 0)
        h1 = hermite_wavefunction(g, 1)
        t = state_from_wavefunctions([(0.5, h0), (0.5, h1)])
        rho, _ = margins_of_GT(t, g)
        x = g.positions()
        expected = 0.5 * np.abs(h0.values) ** 2 + 0.5 * np.abs(h1.values) ** 2
        # reflection-symmetric states: e(q) equals the plain mixture density
        np.testing.assert_allclose(rho.density, expected, atol=1e-10)

    def test_asymmetric_grid_rejected(self):
        from covpom.grids import Grid1D

        g = Grid1D(64, 0.0, 0.1)
        t_g = symmetric_grid(64, 3.2)
        t = state_from_wavefunctions([(1.0, gaussian_wavefunction(t_g))])
        with pytest.raises(ValueError, match="symmetric"):
            margins_of_GT(t, g)


class TestFiniteWeyl:
    def test_d2_ground_state_effects(self):
        t = pure_state([1, 0])
        pom = finite_weyl_pom(2, t)
        assert len(pom.effects) == 4
        for eff in pom.effects:
            eigs = np.linalg.eigvalsh(eff.op.mat)
            np.testing.assert_allclose(sorted(eigs), [0.0, 0.5], atol=1e-14)
        np.testing.assert_allclose(pom.effect_sum(), np.eye(2), atol=1e-14)

    def test_maximally_mixed_gives_flat_effects(self):
        d = 3
        t = pure_state(np.eye(d)[0])
        from covpom.hilbert import make_state

        mixed = make_state([(1.0 / d, np.eye(d)[i]) for i in range(d)])
        pom = finite_weyl_pom(d, mixed)
        for eff in pom.effects:
            np.testing.assert_allclose(eff.op.mat, np.eye(d) / d**2, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_axioms_and_exact_covariance(self, d):
        rng = np.random.default_rng(d)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        t = pure_state(vec)
        pom = finite_weyl_pom(d, t)
        report = check_pom_axioms(pom, 1e-13)
        assert report.passed, report
        cov = verify_covariance(
            pom, finite_weyl_unitaries(d), finite_weyl_action(d), 1e-13
        )
        assert cov.passed, cov

    def test_injectivity_on_random_pairs(self):
        d = 3
        rng = np.random.default_rng(7)
        for _ in range(20):
            v1 = rng.normal(size=d) + 1j * rng.normal(size=d)
            v2 = rng.normal(size=d) + 1j * rng.normal(size=d)
            t1, t2 = pure_state(v1), pure_state(v2)
            if spectral_norm(t1.op.mat - t2.op.mat) < 1e-6:
                continue
            p1 = finite_weyl_pom(d, t1)
            p2 = finite_weyl_pom(d, t2)
            gap = max(
                spectral_norm(e1.op.mat - e2.op.mat)
                for e1, e2 in zip(p1.effects, p2.effects)
            )
            assert gap > 0

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension"):
            finite_weyl_pom(1, pure_state([1.0]))
