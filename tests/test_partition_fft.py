"""FFT circulants, array-built torus effects and the partition helper.

Each form is checked against a slower one: the circulant oracle of the
smeared momentum effects against the dense product F* diag(m) F, the torus
effects against Python loops over matrix entries, and each phase POM builder
against one loop over boundary pairs.  The POM labels are pinned by value.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant

from covpom.abelian import canonical_phase_vectors, phase_difference_pom, phase_pom
from covpom.cli import main
from covpom.grids import Grid1D, symmetric_grid
from covpom.hilbert import IntervalCell, partition_pom
from oracles import dense_fourier_matrix, momentum_multiplier, torus_cell

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
            momentum_multiplier(grid, profile), f.conj().T @ np.diag(profile) @ f,
            rtol=0, atol=1e-12,
        )

    def test_offset_grid_and_constant_profile(self):
        grid = Grid1D(32, 3.7, 0.3)
        f = dense_fourier_matrix(grid)
        prof = (np.arange(32) % 3).astype(float)
        np.testing.assert_allclose(
            momentum_multiplier(grid, prof), f.conj().T @ np.diag(prof) @ f, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(momentum_multiplier(grid, np.ones(32)), np.eye(32), atol=1e-15)

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_equals_scipy_circulant(self, n):
        grid = symmetric_grid(n, 10.0)
        rng = np.random.default_rng(n)
        profile = rng.normal(size=n) + 1j * rng.normal(size=n)
        want = circulant(grid._signs() * np.fft.ifft(profile))
        got = momentum_multiplier(grid, profile)
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous and got.flags.writeable


class TestTorusEffects:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), width=st.integers(1, 3), seed=seeds)
    def test_phase_effect_matches_loop(self, d, width, seed):
        rng = np.random.default_rng(seed)
        h = list(unit_rows(rng, d, width))
        lo, hi = np.sort(rng.uniform(0.0, TWO_PI, 2))
        np.testing.assert_allclose(
            torus_cell(lambda bounds: phase_pom(h, bounds), lo, hi),
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
            torus_cell(lambda bounds: phase_difference_pom(d, h, bounds), lo, hi),
            loop_phase_difference_effect(d, h, lo, hi),
            rtol=0,
            atol=1e-14,
        )

    def test_unnormalised_phase_difference_vector_named(self):
        h = {(i, j): np.array([1.0 + 0j]) for i in range(2) for j in range(2)}
        h[(1, 0)] = np.array([2.0 + 0j])
        with pytest.raises(ValueError, match=r"h\[\(1, 0\)\] is not normalised"):
            phase_difference_pom(2, h, [0.0, 1.0, TWO_PI])


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
