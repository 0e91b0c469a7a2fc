import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covpom.hilbert import (
    AxiomReport,
    Effect,
    IntervalCell,
    Operator,
    Outcome,
    PointCell,
    Pom,
    State,
    _lanczos_norm,
    check_pom_axioms,
    commutator_norm,
    effect_is_regular,
    eigh_fixed,
    make_state,
    outcome_distribution,
    pure_state,
    spectral_norm,
)


def diag_effect(*vals):
    return Effect(Operator(np.diag([complex(v) for v in vals])))


def point_pom(effects, tag="test"):
    outcomes = tuple(Outcome(str(i), PointCell((i,))) for i in range(len(effects)))
    return Pom(tag, outcomes, tuple(effects))


class TestMakeState:
    def test_pure_projector(self):
        st = make_state([(1.0, [1, 0])])
        np.testing.assert_allclose(st.op.mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_equal_mixture(self):
        st = make_state([(0.5, [1, 0]), (0.5, [0, 1])])
        np.testing.assert_allclose(st.op.mat, np.diag([0.5, 0.5]), atol=1e-14)

    def test_gram_schmidt_and_weight_renormalisation(self):
        # second vector e0+e1 orthogonalises against e0 to give e1
        st = make_state([(2.0, [1, 0]), (2.0, [1, 1])])
        np.testing.assert_allclose(st.op.mat, np.diag([0.5, 0.5]), atol=1e-12)
        assert abs(st.op.trace() - 1.0) < 1e-12
        np.testing.assert_allclose(np.abs(np.vdot(*st.vectors)), 0.0, atol=1e-12)

    def test_zero_total_weight(self):
        with pytest.raises(ValueError, match="zero total weight"):
            make_state([(0.0, [1, 0])])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            make_state([(1.0, [1, 0]), (1.0, [1, 0, 0])])

    def test_dependent_vectors(self):
        with pytest.raises(ValueError, match="dependent"):
            make_state([(1.0, [1, 0]), (1.0, [2, 0])])


def gram_schmidt_state(spectral):
    """Oracle: the modified Gram-Schmidt construction make_state replaced.

    Returns the renormalised weights, the orthonormal vectors and the dense
    operator sum_i w_i |v_i><v_i| it used to build eagerly.
    """
    weights = np.array([float(w) for w, _ in spectral])
    weights = weights / weights.sum()
    ortho = []
    for _, v in spectral:
        v = np.asarray(v, dtype=complex)
        if np.linalg.norm(v) == 0:
            raise ValueError("zero vector in spectral data")
        w = v.copy()
        for u in ortho:
            w = w - np.vdot(u, w) * u
        norm = np.linalg.norm(w)
        if norm < 1e-12 * np.linalg.norm(v):
            raise ValueError("linearly dependent vectors in spectral data")
        ortho.append(w / norm)
    basis = np.stack(ortho, axis=1)
    return weights, ortho, (basis * weights) @ basis.conj().T


@st.composite
def spectral_inputs(draw):
    """Random (weight, vector) lists, some with a zero or a dependent vector."""
    dim = draw(st.integers(2, 64))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    flaw = draw(st.sampled_from(["none", "none", "zero", "dependent"]))
    j = draw(st.integers(0, rank - 1))
    if flaw == "zero":
        vecs[j] = 0
    elif flaw == "dependent" and j > 0:
        vecs[j] = (rng.normal(size=j) + 1j * rng.normal(size=j)) @ vecs[:j]
    weights = rng.uniform(0.1, 2.0, size=rank)
    return list(zip(weights, vecs))


class TestMakeStateMatchesGramSchmidt:
    @settings(max_examples=200, deadline=None)
    @given(spectral=spectral_inputs())
    def test_qr_matches_gram_schmidt(self, spectral):
        try:
            weights, ortho, dense = gram_schmidt_state(spectral)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                make_state(spectral)
            return
        state = make_state(spectral)
        assert "op" not in vars(state)
        np.testing.assert_allclose(state.weights, weights, rtol=0, atol=1e-15)
        np.testing.assert_allclose(state.vectors, np.stack(ortho), rtol=0, atol=1e-12)
        assert spectral_norm(state.op.mat - dense) <= 1e-14
        state.validate()


def factor_state(pairs):
    """A State holding the (weight, vector) pairs as they are, unchecked."""
    return State([w for w, _ in pairs], [v for _, v in pairs])


def former_operator_check(op, tol):
    """Oracle: the operator branch of the former State.validate, by eigvalsh."""
    if not op.is_hermitian(tol):
        raise ValueError("state operator is not Hermitian")
    eigs = np.linalg.eigvalsh(op.mat)
    if eigs.min() < -tol:
        raise ValueError(f"state operator has negative eigenvalue {eigs.min():.3e}")
    tr = op.trace()
    if abs(tr - 1.0) > tol:
        raise ValueError(f"state trace {tr} is not 1")


@st.composite
def near_one(draw):
    """A float in [0, 2] within 10^-k of 1, k = 0 .. 4."""
    return 1.0 + draw(st.floats(-1.0, 1.0)) * 10.0 ** -draw(st.integers(0, 4))


@st.composite
def near_threshold_operators(draw, tol=1e-8):
    """Hermitian matrices, some with a skew part, whose flaws sit near tol.

    One eigenvalue is -tol * near_one, the trace is 1 +- tol * near_one, one
    eigenvalue may be zero or tiny, and the skew part A - A* has norm 0 or
    tol * near_one.  Returns the operator, the skew norm / tol and the
    operator's positive part, which is all a state keeps.
    """
    dim = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    vals = rng.uniform(0.0, 1.0, size=dim)
    vals[0] = -tol * draw(near_one())
    vals[-1] = draw(st.sampled_from([vals[-1], 0.0, 1e-14, 1e-11]))
    trace = 1.0 + tol * draw(near_one()) * draw(st.sampled_from([-1.0, 1.0]))
    vals[1:-1] *= (trace - vals[0] - vals[-1]) / vals[1:-1].sum()
    mat = (u * vals) @ u.conj().T
    skew = draw(st.one_of(st.just(0.0), near_one()))
    if skew:
        k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        k += k.conj().T
        mat = mat + 0.5j * tol * skew * k / np.linalg.norm(k, 2)
    return Operator(mat), skew, (u * np.maximum(vals, 0.0)) @ u.conj().T


def rejection(message):
    """Which check a state-operator error names."""
    return next(k for k in ("Hermitian", "negative eigenvalue", "trace") if k in message)


class TestFromOperator:
    @settings(max_examples=300, deadline=None)
    @given(case=near_threshold_operators())
    def test_accepts_and_rejects_as_the_former_check(self, case):
        op, skew, positive_part = case
        tol = 1e-8
        # eigh and eigvalsh round differently, by about eps ||op||: an eigenvalue
        # that close to -tol may fall either way
        assume(abs(np.linalg.eigvalsh(op.mat).min() + tol) > 1e-13)
        try:
            former_operator_check(op, tol)
        except ValueError as exc:
            with pytest.raises(ValueError, match=rejection(str(exc))):
                State.from_operator(op, tol)
            return
        state = State.from_operator(op, tol)
        assert np.all(state.weights > 0)
        if skew == 0.0:
            assert spectral_norm(state.op.mat - positive_part) <= 1e-13


class TestFactorState:
    def test_factor_is_read_only(self):
        state = make_state([(0.25, [1, 0, 0]), (0.75, [0, 1j, 1])])
        with pytest.raises(ValueError, match="read-only"):
            state.weights[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            state.vectors[0, 0] = 0.0
        with pytest.raises(AttributeError):
            state.weights = np.array([1.0])

    @pytest.mark.parametrize("weights, vectors", [
        ([0.5, 0.5], [[1.0, 0.0]]),
        ([1.0], [1.0, 0.0]),
        (np.zeros(0), np.zeros((0, 3))),
    ])
    def test_shapes_must_match(self, weights, vectors):
        with pytest.raises(ValueError, match="r >= 1 weights and r vectors"):
            State(weights, vectors)

    def test_dim_from_factor(self):
        assert make_state([(1.0, np.ones(5))]).dim == 5

    @pytest.mark.parametrize("spectral", [
        [(0.5, np.array([1, 0])), (0.5, np.array([1, 1]) / np.sqrt(2))],
        [(1.0, np.array([1.0, 1.0]))],
    ])
    def test_validate_rejects_non_orthonormal_vectors(self, spectral):
        state = factor_state(spectral)
        with pytest.raises(ValueError, match="orthonormal"):
            state.validate()
        assert "op" not in vars(state)

    def test_validate_rejects_weights_not_summing_to_one(self):
        state = factor_state([(0.5, np.array([1, 0])), (0.4, np.array([0, 1]))])
        with pytest.raises(ValueError, match="sum to 1"):
            state.validate()

    def test_op_is_built_once(self):
        state = make_state([(0.25, [1, 0, 0]), (0.75, [0, 1j, 0])])
        assert state.op is state.op
        np.testing.assert_allclose(state.op.mat, np.diag([0.25, 0.75, 0.0]), atol=1e-15)

    def test_operator_state_factors_by_positive_eigenpairs(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        factored = make_state([(0.3, vecs[0]), (0.7, vecs[1])])
        state = State.from_operator(Operator(factored.op.mat))
        weights, rows = state.weights, state.vectors
        assert np.all(weights > 0) and weights.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(np.sort(weights)[-2:], [0.3, 0.7], atol=1e-14)
        np.testing.assert_allclose((rows.T * weights) @ rows.conj(), factored.op.mat, atol=1e-14)


class TestPomAxioms:
    def test_identity_pom(self):
        pom = point_pom([Effect(Operator(np.eye(3)))])
        rep = check_pom_axioms(pom, 1e-12)
        assert rep.passed
        assert rep.worst_negativity == 0.0
        assert rep.normalization_defect < 1e-14

    def test_constructed_violation(self):
        e1 = diag_effect(1.2, -0.2)
        e2 = diag_effect(-0.2, 1.2)
        rep = check_pom_axioms(point_pom([e1, e2]), 1e-10)
        assert not rep.passed
        assert rep.worst_negativity == pytest.approx(0.2, abs=1e-12)
        assert rep.normalization_defect < 1e-14

    def test_empty_pom_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Pom("empty", (), ())


class TestOutcomeDistribution:
    def test_projective_case(self):
        st = pure_state([1, 0])
        pom = point_pom([diag_effect(1, 0), diag_effect(0, 1)])
        dist = outcome_distribution(st, pom)
        np.testing.assert_allclose(dist.probs, [1.0, 0.0], atol=1e-14)
        assert dist.normalization_defect < 1e-14

    def test_maximally_mixed_gives_trace_over_d(self):
        rng = np.random.default_rng(7)
        d = 4
        st = make_state([(1.0, np.eye(d)[i]) for i in range(d)])
        # random two-effect POM {E, I-E}
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = a @ a.conj().T
        h = h / (np.linalg.eigvalsh(h).max() * 1.5)
        pom = point_pom([Effect(Operator(h)), Effect(Operator(np.eye(d) - h))])
        dist = outcome_distribution(st, pom)
        for p, eff in zip(dist.probs, pom.effects):
            assert p == pytest.approx(np.trace(eff.op.mat).real / d, abs=1e-12)

    def test_affine_in_the_state(self):
        # p over a convex mixture equals the mixture of p's, to 1e-12
        rng = np.random.default_rng(11)
        d = 4
        for _ in range(20):
            v1 = rng.normal(size=d) + 1j * rng.normal(size=d)
            v2 = rng.normal(size=d) + 1j * rng.normal(size=d)
            s1, s2 = pure_state(v1), pure_state(v2)
            t = rng.uniform()
            mix = State.from_operator(Operator(t * s1.op.mat + (1 - t) * s2.op.mat))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = a @ a.conj().T
            h = h / (np.linalg.eigvalsh(h).max() * 2)
            pom = point_pom([Effect(Operator(h)), Effect(Operator(np.eye(d) - h))])
            p_mix = outcome_distribution(mix, pom).raw
            p1 = outcome_distribution(s1, pom).raw
            p2 = outcome_distribution(s2, pom).raw
            np.testing.assert_allclose(p_mix, t * p1 + (1 - t) * p2, atol=1e-12)

    def test_matches_dense_trace(self):
        # effects need not be positive: the raw values and defects must agree too
        rng = np.random.default_rng(13)
        for d, rank in [(2, 1), (5, 2), (9, 3), (16, 4)]:
            vecs = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
            state = make_state(list(zip(rng.uniform(0.1, 1.0, size=rank), vecs)))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (a + a.conj().T) / 4
            pom = point_pom([Effect(Operator(h)), Effect(Operator(np.eye(d) - h))])
            expected = np.array([np.trace(state.op.mat @ e.op.mat).real for e in pom.effects])
            for st in (state, State.from_operator(state.op)):
                dist = outcome_distribution(st, pom)
                np.testing.assert_allclose(dist.raw, expected, rtol=0, atol=1e-13)
                assert dist.negativity_defect == pytest.approx(
                    max(0.0, -expected.min()), abs=1e-13)
                assert dist.normalization_defect == pytest.approx(
                    abs(expected.sum() - 1.0), abs=1e-13)

    def test_dimension_mismatch(self):
        st = pure_state([1, 0, 0])
        pom = point_pom([diag_effect(1, 0), diag_effect(0, 1)])
        with pytest.raises(ValueError, match="mismatch"):
            outcome_distribution(st, pom)


class TestEffectRegularity:
    def test_straddling(self):
        assert effect_is_regular(diag_effect(0.9, 0.1))

    def test_above_half(self):
        assert not effect_is_regular(diag_effect(0.6, 0.7))

    def test_boundary_half_identity(self):
        assert not effect_is_regular(Effect(Operator(0.5 * np.eye(2))))

    def test_symmetric_under_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = rng.integers(2, 6)
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = a @ a.conj().T
            h = h / (np.linalg.eigvalsh(h).max() * rng.uniform(1.0, 3.0))
            e = Effect(Operator(h))
            comp = Effect(Operator(np.eye(d) - h))
            assert effect_is_regular(e) == effect_is_regular(comp)


class TestCommutatorNorm:
    def test_self_commutes(self):
        a = Operator(np.array([[1, 2j], [-2j, 3]]))
        assert commutator_norm(a, a) == 0.0

    def test_diagonal_family_commutes(self):
        a = Operator(np.diag([1.0, 2.0, 3.0]))
        b = Operator(np.diag([5.0, -1.0, 0.5]))
        assert commutator_norm(a, b) == 0.0

    def test_pauli_x_z(self):
        x = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        z = Operator(np.array([[1, 0], [0, -1]], dtype=complex))
        # XZ - ZX = -2iY, spectral norm 2
        assert commutator_norm(x, z) == pytest.approx(2.0, abs=1e-14)


def hermitian_with_spectrum(eigenvalues, rng):
    m = len(eigenvalues)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return (u * np.asarray(eigenvalues)) @ u.conj().T


@st.composite
def spectra(draw):
    """(kind, eigenvalues, seed) covering the exits and spectra Lanczos meets."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["low-rank", "paired", "clustered", "tiny"]))
    if kind == "tiny":
        m = draw(st.integers(1, 2))
        return kind, rng.uniform(-2.0, 2.0, m), seed
    m = draw(st.integers(3, 60))
    if kind == "low-rank":
        rank = draw(st.integers(1, m - 1))
        return kind, np.concatenate([rng.uniform(0.1, 1.0, rank), np.zeros(m - rank)]), seed
    if kind == "paired":
        half = rng.uniform(0.0, 1.0, m // 2)
        return kind, np.concatenate([half, -half, np.zeros(m % 2)]), seed
    gap = draw(st.floats(1e-9, 1e-7))
    return kind, np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 0.9, m - 2)]), seed


class TestLanczosNorm:
    @settings(max_examples=200, deadline=None)
    @given(case=spectra())
    def test_matches_dense_eigvalsh(self, case):
        kind, eigenvalues, seed = case
        rng = np.random.default_rng(seed)
        mat = hermitian_with_spectrum(eigenvalues, rng)
        got = _lanczos_norm(lambda v: mat @ v, rng.standard_normal(len(eigenvalues)))
        expected = np.abs(np.linalg.eigvalsh(mat)).max()
        assert got == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_stops_once_the_krylov_space_is_invariant(self, rank):
        # exactly after rank + 1 steps; rounding in the basis may cost one more
        rng = np.random.default_rng(0)
        mat = hermitian_with_spectrum(np.r_[rng.uniform(0.1, 1.0, rank), np.zeros(64 - rank)], rng)
        calls = []

        def matvec(v):
            calls.append(None)
            return mat @ v

        got = _lanczos_norm(matvec, rng.standard_normal(64))
        assert got == pytest.approx(np.linalg.eigvalsh(mat).max(), rel=1e-12, abs=0)
        assert len(calls) <= rank + 2

    def test_zero_operator(self):
        assert _lanczos_norm(lambda v: 0 * v, np.ones(5)) == 0.0


class TestOperatorOwnership:
    def test_complex_array_is_kept_and_frozen(self):
        a = np.arange(9, dtype=complex).reshape(3, 3)
        op = Operator(a)
        assert np.shares_memory(op.mat, a)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    def test_conversion_copies(self):
        a = np.eye(3)
        op = Operator(a)
        assert not np.shares_memory(op.mat, a)
        assert a.flags.writeable and not op.mat.flags.writeable
        assert op.mat.dtype == complex

    def test_square_shape_checked(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.zeros((2, 3), dtype=complex))


class TestHermiticity:
    @pytest.mark.parametrize("skew, tol, expected", [
        (0.0, 1e-10, True),
        # ||A - A*|| = 2e-11 <= tol although its Frobenius norm is 2e-11 sqrt(8) > tol
        (1e-11, 2.5e-11, True),
        (1e-11, 1e-11, False),
        (1e-3, 1e-10, False),
    ])
    def test_exact_norm_decides_beyond_the_frobenius_screen(self, skew, tol, expected):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        op = Operator(a + a.conj().T + 1j * skew * np.eye(8))
        assert op.is_hermitian(tol) is expected
        assert expected == (np.linalg.norm(op.mat - op.mat.conj().T, 2) <= tol)


class TestHelpers:
    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)

    def test_eigh_fixed_gauge(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = a + a.conj().T
        vals, vecs = eigh_fixed(h)
        assert np.all(np.diff(vals) >= -1e-12)
        for i in range(5):
            j = np.argmax(np.abs(vecs[:, i]))
            pivot = vecs[j, i]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-12)

    def test_state_validation_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            State.from_operator(Operator(np.diag([1.0, 1.0])))

    def test_effect_validation(self):
        with pytest.raises(ValueError, match="spectrum"):
            diag_effect(1.5, 0.0).validate()
        diag_effect(1.0, 0.0).validate()

    def test_axiom_report_is_plain_data(self):
        rep = AxiomReport(True, 0.0, 0.0)
        assert rep.passed and rep.worst_negativity == 0.0

    def test_interval_cell_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            IntervalCell(1.0, 1.0)
