"""FFT circulants, array-built torus effects and the partition helper.

Each new form is checked against the form it replaced: the dense product
F* diag(m) F, the Toeplitz kernel gathered from an n x |X| exponential sum,
the Python loops over matrix entries, and one loop over boundary pairs per
POM builder.  The POM labels are pinned by value.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant

from covpom.abelian import (
    canonical_phase_vectors,
    phase_difference_effect,
    phase_difference_pom,
    phase_observable_effect,
    phase_pom,
    translation_covariant_effect,
    translation_covariant_pom,
)
from covpom.cli import main
from covpom.grids import Grid1D, symmetric_grid
from covpom.hilbert import IntervalCell, partition_pom
from covpom.posmom import (
    ProbMeasure1D,
    SmearedObservable,
    noncommutativity_witness,
    smeared_pom,
    smeared_profile,
)
from oracles import dense_fourier_matrix

TWO_PI = 2 * np.pi


# --- the former forms ----------------------------------------------------------


def loop_coefficient(n, lo, hi):
    if n == 0:
        return complex((hi - lo) / (2 * np.pi))
    return (np.exp(1j * n * hi) - np.exp(1j * n * lo)) / (2j * np.pi * n)


def loop_phase_effect(h, lo, hi):
    d = len(h)
    gram = np.array([[np.vdot(vj, vk) for vk in h] for vj in h])
    coeff = np.array([[loop_coefficient(j - k, lo, hi) for k in range(d)] for j in range(d)])
    return coeff * gram


def loop_phase_difference_effect(d, h, lo, hi):
    mat = np.zeros((d * d, d * d), dtype=complex)
    for l in range(d):
        for m in range(d):
            for i in range(d):
                for j in range(d):
                    if l + m == i + j:
                        mat[l * d + m, i * d + j] = loop_coefficient(j - m, lo, hi) * np.vdot(
                            h[(l, m)], h[(i, j)]
                        )
    return mat


def gathered_translation_effect(h, lo, hi, grid):
    t = grid.momenta()
    t_in = t[(t >= lo - 1e-12) & (t < hi - 1e-12)]
    kernel = np.exp(1j * np.outer(np.arange(grid.n) * grid.dx, t_in)).sum(axis=1) / grid.n
    idx = (np.arange(grid.n)[:, None] - np.arange(grid.n)[None, :]) % grid.n
    return kernel[idx] * (h.conj() @ h.T)


def dense_smeared_effect(obs, lo, hi):
    prof, _ = smeared_profile(obs, (lo, hi))
    if obs.kind == "position":
        return np.diag(prof.astype(complex))
    f = dense_fourier_matrix(obs.grid)
    return f.conj().T @ np.diag(prof.astype(complex)) @ f


def dense_witness(rho, nu, grid, n_samples, seed):
    rng = np.random.default_rng(seed)
    pos_obs = SmearedObservable("position", rho, grid)
    mom_obs = SmearedObservable("momentum", nu, grid)
    half_q = grid.length / 4
    half_p = np.pi / grid.dx / 4
    f = dense_fourier_matrix(grid)
    results = []
    for _ in range(n_samples):
        a = rng.uniform(-half_q, half_q / 2)
        b = a + rng.uniform(0.2, half_q / 2)
        c = rng.uniform(-half_p, half_p / 2)
        d = c + rng.uniform(0.2, half_p / 2)
        eq = np.diag(smeared_profile(pos_obs, (a, b))[0].astype(complex))
        ep = f.conj().T @ np.diag(smeared_profile(mom_obs, (c, d))[0].astype(complex)) @ f
        results.append((float(np.linalg.norm(eq @ ep - ep @ eq, 2)), ((a, b), (c, d))))
    results.sort(key=lambda r: r[0])
    return results[0], results[-1]


def loop_partition(bounds, effect_of, fmt):
    """The loop each POM builder ran: one label, cell and effect per boundary pair."""
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out.append((f"[{lo:{fmt}},{hi:{fmt}})", IntervalCell(lo, hi), effect_of(lo, hi)))
    return out


def assert_same_partition(pom, expected, atol=1e-14):
    assert pom.labels() == tuple(label for label, _, _ in expected)
    assert tuple(o.cell for o in pom.outcomes) == tuple(cell for _, cell, _ in expected)
    for eff, (_, _, mat) in zip(pom.effects, expected):
        np.testing.assert_allclose(eff, mat, rtol=0, atol=atol)


# --- strategies ----------------------------------------------------------------


def unit_rows(rng, rows, width):
    raw = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def torus_bounds(rng, cells):
    return np.concatenate([[0.0], np.sort(rng.uniform(0.0, TWO_PI, cells - 1)), [TWO_PI]])


seeds = st.integers(0, 2**32 - 1)


# --- the circulant ---------------------------------------------------------------


class TestMomentumMultiplier:
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    @settings(max_examples=6, deadline=None)
    @given(half=st.floats(1.0, 40.0), seed=seeds)
    def test_matches_dense_fourier_product(self, n, half, seed):
        grid = symmetric_grid(n, half)
        rng = np.random.default_rng(seed)
        profile = rng.uniform(size=grid.n) + 1j * rng.normal(size=grid.n)
        f = dense_fourier_matrix(grid)
        np.testing.assert_allclose(
            grid.momentum_multiplier(profile), f.conj().T @ np.diag(profile) @ f, rtol=0, atol=1e-12
        )

    def test_offset_grid_and_constant_profile(self):
        grid = Grid1D(32, 3.7, 0.3)
        f = dense_fourier_matrix(grid)
        prof = (np.arange(32) % 3).astype(float)
        np.testing.assert_allclose(
            grid.momentum_multiplier(prof), f.conj().T @ np.diag(prof) @ f, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(grid.momentum_multiplier(np.ones(32)), np.eye(32), atol=1e-15)

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_equals_scipy_circulant(self, n):
        grid = symmetric_grid(n, 10.0)
        rng = np.random.default_rng(n)
        profile = rng.normal(size=n) + 1j * rng.normal(size=n)
        want = circulant(grid._signs() * np.fft.ifft(profile))
        got = grid.momentum_multiplier(profile)
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous and got.flags.writeable


class TestTranslationEffect:
    @settings(max_examples=30, deadline=None)
    @given(log_n=st.integers(4, 7), width=st.integers(1, 3), seed=seeds)
    def test_matches_gathered_kernel(self, log_n, width, seed):
        n = 2**log_n
        grid = Grid1D(n, -n * 0.25 / 2, 0.25)
        rng = np.random.default_rng(seed)
        h = unit_rows(rng, n, width)
        t = grid.momenta()
        i, j = np.sort(rng.choice(n, size=2, replace=False))
        lo, hi = t[i] - 0.5 * grid.dp, t[j] + 0.5 * grid.dp
        np.testing.assert_allclose(
            translation_covariant_effect(h, (lo, hi), grid),
            gathered_translation_effect(h, lo, hi, grid),
            rtol=0,
            atol=1e-12,
        )


class TestTorusEffects:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), width=st.integers(1, 3), seed=seeds)
    def test_phase_effect_matches_loop(self, d, width, seed):
        rng = np.random.default_rng(seed)
        h = list(unit_rows(rng, d, width))
        lo, hi = np.sort(rng.uniform(0.0, TWO_PI, 2))
        np.testing.assert_allclose(
            phase_observable_effect(h, (lo, hi)),
            loop_phase_effect(h, lo, hi),
            rtol=0,
            atol=1e-14,
        )

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), width=st.integers(1, 3), seed=seeds)
    def test_phase_difference_effect_matches_loop(self, d, width, seed):
        rng = np.random.default_rng(seed)
        rows = unit_rows(rng, d * d, width)
        h = {(i, j): rows[i * d + j] for i in range(d) for j in range(d)}
        lo, hi = np.sort(rng.uniform(0.0, TWO_PI, 2))
        np.testing.assert_allclose(
            phase_difference_effect(d, h, (lo, hi)),
            loop_phase_difference_effect(d, h, lo, hi),
            rtol=0,
            atol=1e-14,
        )

    def test_unnormalised_phase_difference_vector_named(self):
        h = {(i, j): np.array([1.0 + 0j]) for i in range(2) for j in range(2)}
        h[(1, 0)] = np.array([2.0 + 0j])
        with pytest.raises(ValueError, match=r"h\[\(1, 0\)\] is not normalised"):
            phase_difference_effect(2, h, (0.0, 1.0))


class TestNoncommutativityWitness:
    @settings(max_examples=12, deadline=None)
    @given(log_n=st.integers(5, 8), n_samples=st.integers(2, 8), seed=st.integers(0, 1000))
    def test_matches_dense_commutator(self, log_n, n_samples, seed):
        grid = symmetric_grid(2**log_n, 12.0)
        rho = ProbMeasure1D.gaussian(grid, 0.0, 0.4)
        nu = ProbMeasure1D.gaussian(grid, 0.0, 0.6)
        rep = noncommutativity_witness(rho, nu, grid, n_samples=n_samples, seed=seed)
        (min_norm, min_pair), (max_norm, max_pair) = dense_witness(rho, nu, grid, n_samples, seed)
        assert rep.min_norm == pytest.approx(min_norm, rel=0, abs=1e-12)
        assert rep.max_norm == pytest.approx(max_norm, rel=0, abs=1e-12)
        assert rep.min_pair == min_pair
        assert rep.max_pair == max_pair


# --- one partition helper ----------------------------------------------------------


class TestPartitionMatchesLoops:
    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 6), cells=st.integers(1, 6), seed=seeds)
    def test_phase_pom(self, d, cells, seed):
        rng = np.random.default_rng(seed)
        h = list(unit_rows(rng, d, 2))
        bounds = torus_bounds(rng, cells)
        expected = loop_partition(bounds, lambda lo, hi: loop_phase_effect(h, lo, hi), ".6f")
        assert_same_partition(phase_pom(h, bounds), expected)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 4), cells=st.integers(1, 5), seed=seeds)
    def test_phase_difference_pom(self, d, cells, seed):
        rng = np.random.default_rng(seed)
        rows = unit_rows(rng, d * d, 2)
        h = {(i, j): rows[i * d + j] for i in range(d) for j in range(d)}
        bounds = torus_bounds(rng, cells)
        expected = loop_partition(
            bounds, lambda lo, hi: loop_phase_difference_effect(d, h, lo, hi), ".6f"
        )
        assert_same_partition(phase_difference_pom(d, h, bounds), expected)

    @settings(max_examples=25, deadline=None)
    @given(log_n=st.integers(4, 6), cells=st.integers(1, 5), seed=seeds)
    def test_translation_covariant_pom(self, log_n, cells, seed):
        n = 2**log_n
        grid = Grid1D(n, -n * 0.25 / 2, 0.25)
        rng = np.random.default_rng(seed)
        h = unit_rows(rng, n, 2)
        t = grid.momenta()
        inner = np.sort(rng.choice(t[1:], size=cells - 1, replace=False))
        given_bounds = np.concatenate([[t[0] - 5.0], inner, [t[-1] + 5.0]])
        clipped = np.clip(given_bounds, t[0] - 0.5 * grid.dp, t[-1] + 0.5 * grid.dp)
        expected = loop_partition(
            clipped, lambda lo, hi: gathered_translation_effect(h, lo, hi, grid), ".6f"
        )
        assert_same_partition(translation_covariant_pom(h, given_bounds, grid), expected, 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["position", "momentum"]),
        cells=st.integers(1, 5),
        seed=seeds,
    )
    def test_smeared_pom(self, kind, cells, seed):
        grid = symmetric_grid(64, 8.0)
        obs = SmearedObservable(kind, ProbMeasure1D.gaussian(grid, 0.0, 0.7), grid)
        rng = np.random.default_rng(seed)
        interior = np.unique(np.round(rng.uniform(-4.0, 4.0, cells - 1), 3)).tolist()
        bounds = [-math.inf] + interior + [math.inf]
        expected = loop_partition(bounds, lambda lo, hi: dense_smeared_effect(obs, lo, hi), ".6g")
        assert_same_partition(smeared_pom(obs, interior), expected)

    def test_partition_rejects_unordered_bounds(self):
        for bad in ([0.0], [0.0, 1.0, 1.0], [1.0, 0.0], [-math.inf, -math.inf, 0.0],
                    [[0.0, 1.0], [1.0, 2.0]]):
            with pytest.raises(ValueError, match="strictly increasing"):
                partition_pom("tag", bad, lambda lo, hi: None, ".6f")

    def test_callers_keep_their_range_rules(self):
        h = canonical_phase_vectors(2)
        with pytest.raises(ValueError, match="0 to 2 pi"):
            phase_pom(h, [0.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            phase_pom(h, [0.0, 2.0, 1.0, TWO_PI])
        grid = Grid1D(16, -2.0, 0.25)
        with pytest.raises(ValueError, match="cover"):
            translation_covariant_pom(np.ones(16), [0.0, 100.0], grid)
        wide = symmetric_grid(64, 8.0)
        obs = SmearedObservable("position", ProbMeasure1D.gaussian(wide, 0.0, 0.7), wide)
        with pytest.raises(ValueError, match="strictly increasing"):
            smeared_pom(obs, [1.0, 1.0])


# --- pinned labels ----------------------------------------------------------------------


QUARTER_LABELS = ("[0.000000,1.570796)", "[1.570796,3.141593)",
                  "[3.141593,4.712389)", "[4.712389,6.283185)")


class TestPinnedLabels:
    def test_phase_pom(self):
        pom = phase_pom(canonical_phase_vectors(2), np.linspace(0.0, TWO_PI, 5))
        assert pom.labels() == QUARTER_LABELS
        assert pom.outcomes[1].cell == IntervalCell(np.pi / 2, np.pi)
        assert pom.space_tag == "theta in [0, 2 pi)"

    def test_phase_difference_pom(self):
        h = {(i, j): np.array([1.0 + 0j]) for i in range(2) for j in range(2)}
        pom = phase_difference_pom(2, h, np.linspace(0.0, TWO_PI, 4))
        assert pom.labels() == (
            "[0.000000,2.094395)", "[2.094395,4.188790)", "[4.188790,6.283185)"
        )
        assert pom.outcomes[2].cell == IntervalCell(4 * np.pi / 3, TWO_PI)
        assert pom.space_tag == "phase difference in [0, 2 pi)"

    def test_translation_covariant_pom(self):
        grid = Grid1D(16, -8.0, 1.0)  # dp = pi / 8, outcome lattice -pi .. 7 pi / 8
        pom = translation_covariant_pom(np.ones(16), [-4.0, 0.0, 4.0], grid)
        assert pom.labels() == ("[-3.337942,0.000000)", "[0.000000,2.945243)")
        assert pom.outcomes[0].cell == IntervalCell(-17 * np.pi / 16, 0.0)
        assert pom.outcomes[1].cell == IntervalCell(0.0, 15 * np.pi / 16)

    def test_smeared_pom(self):
        grid = symmetric_grid(64, 8.0)
        obs = SmearedObservable("position", ProbMeasure1D.gaussian(grid, 0.0, 0.7), grid)
        pom = smeared_pom(obs, [-2, 0.5, 2])
        assert pom.labels() == ("[-inf,-2)", "[-2,0.5)", "[0.5,2)", "[2,inf)")
        assert pom.outcomes[0].cell == IntervalCell(-math.inf, -2.0)
        assert pom.outcomes[-1].cell == IntervalCell(2.0, math.inf)
        assert pom.space_tag == "smeared position outcomes"

    def test_phase_out_file(self, capsys, tmp_path):
        out = tmp_path / "phase.json"
        assert main(["phase", "--dim", "2", "--cells", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        outcomes = json.loads(out.read_text())["outcomes"]
        assert [o["label"] for o in outcomes] == list(QUARTER_LABELS)
        assert [o["cell"] for o in outcomes] == [
            {"kind": "interval", "value": [lo, hi]}
            for lo, hi in zip(np.linspace(0.0, TWO_PI, 5)[:-1].tolist(),
                              np.linspace(0.0, TWO_PI, 5)[1:].tolist())
        ]
