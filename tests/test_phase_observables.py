import numpy as np
import pytest
from scipy.integrate import quad

from covpom.abelian import (
    canonical_phase_vectors,
    phase_difference_pom,
    phase_pom,
    sharp_phase_witness,
)
from covpom.grids import Grid1D
from covpom.hilbert import (
    Outcome,
    PointCell,
    Pom,
    check_pom_axioms,
    make_state,
)
from oracles import dense_fourier_matrix, sharp_phase_witness_loop, torus_cell


def quad_coefficient(n, lo, hi):
    """Quadrature oracle for (1/2pi) int_lo^hi exp(i n theta) dtheta."""
    re = quad(lambda t: np.cos(n * t), lo, hi, limit=200)[0]
    im = quad(lambda t: np.sin(n * t), lo, hi, limit=200)[0]
    return (re + 1j * im) / (2 * np.pi)


def equal_boundaries(k):
    return np.linspace(0.0, 2 * np.pi, k + 1)


def phase_cell(h, lo, hi):
    """The phase effect of [lo, hi), a cell of ``phase_pom``."""
    return torus_cell(lambda bounds: phase_pom(h, bounds), lo, hi)


def difference_cell(d, h, lo, hi):
    """The phase-difference effect of [lo, hi), a cell of ``phase_difference_pom``."""
    return torus_cell(lambda bounds: phase_difference_pom(d, h, bounds), lo, hi)


class TestPhaseObservable:
    def test_full_circle_is_identity(self):
        h = canonical_phase_vectors(4)
        eff = phase_cell(h, 0.0, 2 * np.pi)
        np.testing.assert_allclose(eff, np.eye(4), atol=1e-14)

    def test_canonical_d2_half_circle(self):
        # frozen closed form: c_1 = i/pi, so the (1,0) entry is -1/(i pi)
        h = canonical_phase_vectors(2)
        eff = phase_cell(h, 0.0, np.pi)
        expected = np.array(
            [[0.5, 1.0 / (1j * np.pi)], [-1.0 / (1j * np.pi), 0.5]]
        )
        np.testing.assert_allclose(eff, expected, atol=1e-14)
        # cross-check every entry against the quadrature oracle
        for j in range(2):
            for k in range(2):
                assert eff[j, k] == pytest.approx(
                    quad_coefficient(j - k, 0.0, np.pi), abs=1e-12
                )

    def test_orthogonal_vectors_give_maximal_smearing(self):
        h = [np.eye(3)[i] for i in range(3)]
        eff = phase_cell(h, 0.5, 1.7)
        np.testing.assert_allclose(
            eff, (1.2 / (2 * np.pi)) * np.eye(3), atol=1e-14
        )

    @pytest.mark.parametrize("d,cells", [(2, 4), (3, 8), (8, 16)])
    def test_partition_passes_axioms(self, d, cells):
        pom = phase_pom(canonical_phase_vectors(d), equal_boundaries(cells))
        report = check_pom_axioms(pom, 1e-12)
        assert report.passed, report

    def test_number_state_probabilities_uniform(self):
        # diagonal entries are c_0 = |X| / 2 pi regardless of the vectors
        d = 3
        pom = phase_pom(canonical_phase_vectors(d), equal_boundaries(4))
        for n in range(d):
            state = make_state([(1.0, np.eye(d)[n])])
            probs = np.einsum("jk,ikj->i", state.op, pom.effects).real
            np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-13)

    def test_covariance_under_number_phases(self):
        d = 4
        cells = 8
        pom = phase_pom(canonical_phase_vectors(d), equal_boundaries(cells))
        theta = 2 * np.pi / cells
        u = np.diag(np.exp(1j * theta * np.arange(d)))
        for i in range(cells):
            moved = u @ pom.effects[i] @ u.conj().T
            target = pom.effects[(i + 1) % cells]
            np.testing.assert_allclose(moved, target, atol=1e-12)


class TestSharpPhaseWitness:
    def test_canonical_d2_half_circles(self):
        pom = phase_pom(canonical_phase_vectors(2), equal_boundaries(2))
        _, defect = sharp_phase_witness(pom)
        assert defect == pytest.approx(0.25 - 1.0 / np.pi**2, abs=1e-12)
        assert defect > 0.1

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_defect_above_threshold(self, d):
        pom = phase_pom(canonical_phase_vectors(d), equal_boundaries(2))
        _, defect = sharp_phase_witness(pom)
        assert defect > 0.05

    def test_dimension_one_rejected(self):
        pom = phase_pom(canonical_phase_vectors(1), equal_boundaries(4))
        with pytest.raises(ValueError, match="dimension"):
            sharp_phase_witness(pom)

    def test_trivial_partition_rejected(self):
        pom = phase_pom(canonical_phase_vectors(3), equal_boundaries(1))
        with pytest.raises(ValueError, match="partition"):
            sharp_phase_witness(pom)

    def test_orthogonal_family_diagonal_defect(self):
        d = 3
        h = [np.eye(d)[i] for i in range(d)]
        pom = phase_pom(h, equal_boundaries(3))
        _, defect = sharp_phase_witness(pom)
        p = 1.0 / 3.0
        assert defect == pytest.approx(p * (1 - p), abs=1e-12)

    @pytest.mark.parametrize("d, cells, seed", [
        (2, 2, None), (3, 5, None), (8, 8, None), (32, 16, None), (2, 3, 1), (5, 7, 2), (12, 4, 3),
    ])
    def test_matches_loop_oracle(self, d, cells, seed):
        # one batched norm over the stack: the same cell and the same bits as a loop
        if seed is None:
            h = canonical_phase_vectors(d)
        else:
            rng = np.random.default_rng(seed)
            raw = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
            h = list(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        pom = phase_pom(h, equal_boundaries(cells))
        cell, defect = sharp_phase_witness(pom)
        want_cell, want_defect = sharp_phase_witness_loop(pom)
        assert cell == want_cell
        assert np.float64(defect).tobytes() == np.float64(want_defect).tobytes()

    def test_first_cell_on_ties(self):
        half = 0.5 * np.eye(2)
        outcomes = tuple(Outcome(str(i), PointCell((i,))) for i in range(4))
        pom = Pom("ties", outcomes, [np.zeros((2, 2)), half, half, np.zeros((2, 2))])
        assert sharp_phase_witness(pom) == sharp_phase_witness_loop(pom) == (outcomes[1], 0.25)


def constant_pair_vectors(d):
    return {(i, j): np.array([1.0 + 0j]) for i in range(d) for j in range(d)}


class TestPhaseDifference:
    def test_full_circle_identity(self):
        d = 3
        eff = difference_cell(d, constant_pair_vectors(d), 0.0, 2 * np.pi)
        np.testing.assert_allclose(eff, np.eye(d * d), atol=1e-14)

    def test_off_sector_entries_exactly_zero(self):
        d = 3
        eff = difference_cell(d, constant_pair_vectors(d), 0.2, 1.9)
        for l in range(d):
            for m in range(d):
                for i in range(d):
                    for j in range(d):
                        if l + m != i + j:
                            assert eff[l * d + m, i * d + j] == 0.0

    def test_middle_sector_matches_single_mode_phase(self):
        d = 2
        eff = difference_cell(d, constant_pair_vectors(d), 0.0, np.pi)
        phase_eff = phase_cell(canonical_phase_vectors(2), 0.0, np.pi)
        # total-number-1 sector ordered by the first-mode index: e_01 then e_10.
        # With l+m = i+j fixed the element c_{j-m} equals c_{l-i}, so the block
        # reproduces the single-mode phase matrix indexed by the first mode.
        sector = np.ix_([1, 2], [1, 2])
        block = eff[sector]
        np.testing.assert_allclose(block, phase_eff, atol=1e-14)
        # quadrature oracle for one entry: <e_10, E e_01> = c_{1-0}(X)
        assert block[1, 0] == pytest.approx(quad_coefficient(1, 0.0, np.pi), abs=1e-12)

    @pytest.mark.parametrize("d,cells", [(2, 4), (3, 6)])
    def test_partition_passes_axioms(self, d, cells):
        pom = phase_difference_pom(d, constant_pair_vectors(d), equal_boundaries(cells))
        report = check_pom_axioms(pom, 1e-12)
        assert report.passed, report

    def test_covariance_under_two_mode_phases(self):
        d = 2
        cells = 4
        pom = phase_difference_pom(d, constant_pair_vectors(d), equal_boundaries(cells))
        alpha = 2 * np.pi / cells
        phases = np.array(
            [alpha * i for i in range(d) for j in range(d)]
        )
        u = np.diag(np.exp(1j * phases))
        for i in range(cells):
            moved = u @ pom.effects[i] @ u.conj().T
            target = pom.effects[(i + 1) % cells]
            np.testing.assert_allclose(moved, target, atol=1e-12)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            difference_cell(2, constant_pair_vectors(2), 1.0, 0.5)


class TestGridFourier:
    def test_unitary_and_gaussian_self_dual(self):
        grid = Grid1D(256, -20.0, 40.0 / 256)
        x = grid.positions()
        psi = np.pi**-0.25 * np.exp(-(x**2) / 2)
        psi_hat = grid.to_momentum(psi)
        p = grid.momenta()
        expected = np.pi**-0.25 * np.exp(-(p**2) / 2)
        np.testing.assert_allclose(psi_hat, expected, atol=1e-12)
        assert grid.norm(psi) == pytest.approx(1.0, abs=1e-9)
        # Parseval on the momentum lattice
        assert np.sum(np.abs(psi_hat) ** 2) * grid.dp == pytest.approx(
            np.sum(np.abs(psi) ** 2) * grid.dx, abs=1e-12
        )

    def test_round_trip(self):
        grid = Grid1D(128, -8.0, 16.0 / 128)
        rng = np.random.default_rng(1)
        psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        np.testing.assert_allclose(
            grid.to_position(grid.to_momentum(psi)), psi, atol=1e-12
        )

    def test_matrix_matches_fft_route(self):
        grid = Grid1D(64, -5.0, 10.0 / 64)
        rng = np.random.default_rng(2)
        psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        f = dense_fourier_matrix(grid)
        lhs = f @ (psi * np.sqrt(grid.dx))
        rhs = grid.to_momentum(psi) * np.sqrt(grid.dp)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        np.testing.assert_allclose(
            f @ f.conj().T, np.eye(grid.n), atol=1e-12
        )
