import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covpom.hilbert import (
    AxiomReport,
    IntervalCell,
    LANCZOS_ROWS,
    Outcome,
    PointCell,
    Pom,
    State,
    _lanczos_norm,
    check_pom_axioms,
    make_state,
    pure_state,
    spectral_norm,
)
from oracles import check_pom_axioms_loop


def diag_effect(*vals):
    return np.diag([complex(v) for v in vals])


def point_pom(effects, tag="test"):
    outcomes = tuple(Outcome(str(i), PointCell((i,))) for i in range(len(effects)))
    return Pom(tag, outcomes, effects)


def born(state, pom):
    """Re tr(T E_i) for each effect: the outcome probabilities of the state."""
    return np.einsum("jk,ikj->i", state.op, pom.effects).real


class TestMakeState:
    def test_pure_projector(self):
        st = make_state([(1.0, [1, 0])])
        np.testing.assert_allclose(st.op, np.diag([1.0, 0.0]), atol=1e-14)

    def test_equal_mixture(self):
        st = make_state([(0.5, [1, 0]), (0.5, [0, 1])])
        np.testing.assert_allclose(st.op, np.diag([0.5, 0.5]), atol=1e-14)

    def test_non_orthogonal_pair_is_their_mixture(self):
        # e0 and (e0 + e1)/sqrt(2), half each, after the weights are renormalised
        st = make_state([(2.0, [1, 0]), (2.0, [1, 1])])
        np.testing.assert_allclose(st.op, [[0.75, 0.25], [0.25, 0.25]], atol=1e-15)
        assert st.weights.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(np.abs(np.vdot(*st.vectors)), 0.0, atol=1e-15)

    def test_linearly_dependent_pairs_merge(self):
        st = make_state([(1.0, [1, 0]), (1.0, [2, 0])])
        assert st.weights.tolist() == [1.0]
        np.testing.assert_allclose(st.op, np.diag([1.0, 0.0]), atol=1e-15)

    def test_zero_weight_pair_is_dropped(self):
        st = make_state([(0.0, [0, 1]), (0.4, [1, 0])])
        assert st.weights.tolist() == [1.0]
        np.testing.assert_allclose(st.op, np.diag([1.0, 0.0]), atol=1e-15)

    def test_zero_total_weight(self):
        with pytest.raises(ValueError, match="zero total weight"):
            make_state([(0.0, [1, 0])])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            make_state([(1.0, [1, 0]), (1.0, [0, 0])])

    @pytest.mark.parametrize("spectral, message", [
        ([(1.0, [1, np.nan])], "non-finite vector entry"),
        ([(1.0, [np.inf, 0])], "non-finite vector entry"),
        ([(np.nan, [1, 0])], "non-finite or negative weight"),
        ([(np.inf, [1, 0])], "non-finite or negative weight"),
        ([(-0.5, [1, 0]), (1.0, [0, 1])], "non-finite or negative weight"),
    ])
    def test_non_finite_or_negative_input(self, spectral, message):
        with pytest.raises(ValueError, match=message):
            make_state(spectral)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            make_state([(1.0, [1, 0]), (1.0, [1, 0, 0])])


def gram_schmidt_state(spectral):
    """Oracle for orthonormal input: the Gram-Schmidt state make_state once built.

    Returns the renormalised weights, the orthonormal vectors and the dense
    operator sum_i w_i |v_i><v_i|.  On orthonormal vectors this is their mixture.
    """
    weights = np.array([float(w) for w, _ in spectral])
    weights = weights / weights.sum()
    ortho = []
    for _, v in spectral:
        w = np.asarray(v, dtype=complex).copy()
        for u in ortho:
            w = w - np.vdot(u, w) * u
        ortho.append(w / np.linalg.norm(w))
    basis = np.stack(ortho, axis=1)
    return weights, ortho, (basis * weights) @ basis.conj().T


def dense_mixture(spectral):
    """Oracle: sum_i w_i v_i v_i* / ||v_i||^2 / sum_i w_i, as one dense matrix."""
    total = sum(float(w) for w, _ in spectral)
    dim = len(spectral[0][1])
    out = np.zeros((dim, dim), dtype=complex)
    for w, v in spectral:
        v = np.asarray(v, dtype=complex)
        out += float(w) * np.outer(v, v.conj()) / np.vdot(v, v).real
    return out / total


@st.composite
def spectral_inputs(draw):
    """Random (weight, vector) lists: non-orthogonal, some dependent or of zero weight."""
    dim = draw(st.integers(2, 64))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    vecs *= rng.uniform(0.1, 10.0, size=(rank, 1))  # vectors of any norm
    weights = rng.uniform(0.1, 2.0, size=rank)
    flaw = draw(st.sampled_from(["none", "dependent", "repeated", "zero-weight"]))
    j = draw(st.integers(0, rank - 1))
    if flaw == "dependent" and j > 0:
        vecs[j] = (rng.normal(size=j) + 1j * rng.normal(size=j)) @ vecs[:j]
    elif flaw == "repeated" and j > 0:
        vecs[j] = -2j * vecs[j - 1]
    elif flaw == "zero-weight" and rank > 1:
        weights[j] = 0.0
    return list(zip(weights, vecs))


def assert_valid_factor(state):
    """Positive weights summing to one on orthonormal rows."""
    assert state.weights.min() > 0 and abs(state.weights.sum() - 1.0) <= 1e-14
    gram = state.vectors.conj() @ state.vectors.T
    assert spectral_norm(gram - np.eye(state.weights.size)) <= 1e-13


class TestMakeStateIsTheMixture:
    @settings(max_examples=200, deadline=None)
    @given(spectral=spectral_inputs())
    def test_matches_dense_mixture(self, spectral):
        state = make_state(spectral)
        assert "op" not in vars(state)
        assert spectral_norm(state.op - dense_mixture(spectral)) <= 1e-13
        assert_valid_factor(state)
        rank = np.linalg.matrix_rank(np.stack([v for w, v in spectral if w > 0]))
        assert state.weights.size == rank

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(2, 64), rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_orthonormal_input_matches_gram_schmidt(self, dim, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, dim)
        raw = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        spectral = list(zip(rng.uniform(0.1, 2.0, size=rank), np.linalg.qr(raw)[0].T))
        _, _, dense = gram_schmidt_state(spectral)
        state = make_state(spectral)
        assert np.abs(state.op - dense).max() <= 1e-15
        assert_valid_factor(state)


def former_operator_check(op, tol):
    """Oracle: the operator branch of the former State.validate, by eigvalsh."""
    if np.linalg.norm(op - op.conj().T, 2) > tol:
        raise ValueError("state operator is not Hermitian")
    eigs = np.linalg.eigvalsh(op)
    if eigs.min() < -tol:
        raise ValueError(f"state operator has negative eigenvalue {eigs.min():.3e}")
    tr = np.trace(op)
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
    return mat, skew, (u * np.maximum(vals, 0.0)) @ u.conj().T


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
        assume(abs(np.linalg.eigvalsh(op).min() + tol) > 1e-13)
        try:
            former_operator_check(op, tol)
        except ValueError as exc:
            with pytest.raises(ValueError, match=rejection(str(exc))):
                State.from_operator(op, tol)
            return
        state = State.from_operator(op, tol)
        assert np.all(state.weights > 0)
        if skew == 0.0:
            assert spectral_norm(state.op - positive_part) <= 1e-13

    def test_square_shape_checked(self):
        for shape in [(2, 3), (4,), (1, 2, 2)]:
            with pytest.raises(ValueError, match="square"):
                State.from_operator(np.ones(shape, dtype=complex) / 2)


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

    def test_op_is_built_once(self):
        state = make_state([(0.25, [1, 0, 0]), (0.75, [0, 1j, 0])])
        assert "op" not in vars(state)
        assert state.op is state.op and state.op.dtype == complex
        np.testing.assert_allclose(state.op, np.diag([0.25, 0.75, 0.0]), atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            state.op[0, 0] = 1.0

    def test_operator_state_factors_by_positive_eigenpairs(self):
        rng = np.random.default_rng(3)
        vecs = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0].T
        factored = make_state([(0.3, vecs[0]), (0.7, vecs[1])])
        state = State.from_operator(factored.op)
        weights, rows = state.weights, state.vectors
        assert np.all(weights > 0) and weights.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(np.sort(weights)[-2:], [0.3, 0.7], atol=1e-14)
        np.testing.assert_allclose((rows.T * weights) @ rows.conj(), factored.op, atol=1e-14)


class TestPomAxioms:
    def test_identity_pom(self):
        pom = point_pom([np.eye(3)])
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


class TestPomStack:
    OUTCOMES = (Outcome("a", PointCell((0,))), Outcome("b", PointCell((1,))))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0,)])
    def test_empty_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="empty"):
            Pom("t", (), np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (2, 1, 2, 2)])
    def test_stack_must_be_square_3d(self, shape):
        with pytest.raises(ValueError, match="effect stack"):
            Pom("t", self.OUTCOMES, np.zeros(shape, dtype=complex))

    def test_one_effect_per_outcome(self):
        with pytest.raises(ValueError, match="same length"):
            Pom("t", self.OUTCOMES, np.zeros((3, 2, 2), dtype=complex))

    def test_complex_stack_is_kept_and_frozen(self):
        stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        pom = Pom("t", self.OUTCOMES, stack)
        assert np.shares_memory(pom.effects, stack) and pom.dim == 2
        assert not pom.effects.flags.writeable
        with pytest.raises(ValueError):
            pom.effects[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            stack[1] = 0.0

    def test_other_input_is_converted(self):
        pom = Pom("t", self.OUTCOMES, [np.eye(2), np.zeros((2, 2))])
        assert pom.effects.dtype == complex and pom.effects.shape == (2, 2, 2)
        assert not pom.effects.flags.writeable


@st.composite
def certificate_poms(draw, tol=1e-10):
    """Two-effect POMs {H, I - H} of dimension 1 .. 40, and whether both are dominant.

    H is bitwise Hermitian and of one of three kinds: diagonally dominant
    (and so is I - H) with some rows zero; full rank; or rank deficient.
    The last two have a random eigenbasis and lambda_min planted at -tol *
    near_one or -tol/2 * near_one, the thresholds of the check and of the
    Cholesky tier.
    """
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["dominant", "full rank", "rank deficient"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "dominant":
        h = a + a.conj().T
        np.fill_diagonal(h, 0.0)
        h[rng.random(n) < 0.3] = 0.0
        h[:, np.all(h == 0.0, axis=1)] = 0.0
        h *= 0.25 / max(np.abs(h).sum(axis=1).max(), 1.0)
        rows = np.abs(h).sum(axis=1)
        # 2 H_ii - s_i and 2 (1 - H_ii) - s_i are both at least 0.005, or a row is zero
        lift = rng.uniform(0.01, 0.99, n) * (1 - 2 * rows)
        h[np.diag_indices(n)] = np.where(rows > 0, rows + lift, 0.0)
    else:
        u, _ = np.linalg.qr(a)
        vals = rng.uniform(0.0, 1.0, n)
        if kind == "rank deficient":
            vals[1 : draw(st.integers(1, n))] = 0.0
        vals[0] = -draw(st.sampled_from([tol, tol / 2])) * draw(near_one())
        h = (u * vals) @ u.conj().T
        h = (h + h.conj().T) / 2
    effects = (h, np.eye(n) - h)
    return point_pom(effects), kind == "dominant"


class TestPositivityCertificate:
    @settings(max_examples=300, deadline=None)
    @given(case=certificate_poms())
    def test_agrees_with_eigvalsh(self, case):
        pom, dominant = case
        tol = 1e-10
        worst, defect = check_pom_axioms_loop(pom)
        # eigvalsh errs by up to about n eps ||H|| <= 1e-14 here: a deficit that close to
        # tol may fall either way, while the certificate proves its bound
        assume(abs(worst - tol) > 1e-14)
        report = check_pom_axioms(pom, tol)
        assert report.passed == (worst <= tol and defect <= tol)
        assert report.normalization_defect == pytest.approx(defect, abs=1e-15)
        if report.passed:
            assert worst - 1e-15 <= report.worst_negativity <= tol
        else:
            assert report.worst_negativity == pytest.approx(worst, abs=1e-15)
        if dominant:
            assert report.worst_negativity == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_non_finite_entry_fails(self, bad):
        # eigvalsh gives [0, -0] for diag(nan, 1), and Python's max drops a NaN
        first = np.diag([1.0, 0.0]).astype(complex)
        first[0, 0] = bad
        report = check_pom_axioms(point_pom([first, diag_effect(0, 1)]))
        assert not report.passed
        assert np.isnan(report.worst_negativity) and np.isnan(report.normalization_defect)


class TestOutcomeDistribution:
    def test_projective_case(self):
        st = pure_state([1, 0])
        pom = point_pom([diag_effect(1, 0), diag_effect(0, 1)])
        np.testing.assert_allclose(born(st, pom), [1.0, 0.0], atol=1e-14)

    def test_maximally_mixed_gives_trace_over_d(self):
        rng = np.random.default_rng(7)
        d = 4
        st = make_state([(1.0, np.eye(d)[i]) for i in range(d)])
        # random two-effect POM {E, I-E}
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = a @ a.conj().T
        h = h / (np.linalg.eigvalsh(h).max() * 1.5)
        pom = point_pom([h, np.eye(d) - h])
        for p, eff in zip(born(st, pom), pom.effects):
            assert p == pytest.approx(np.trace(eff).real / d, abs=1e-12)

    def test_affine_in_the_state(self):
        # p over a convex mixture equals the mixture of p's, to 1e-12
        rng = np.random.default_rng(11)
        d = 4
        for _ in range(20):
            v1 = rng.normal(size=d) + 1j * rng.normal(size=d)
            v2 = rng.normal(size=d) + 1j * rng.normal(size=d)
            s1, s2 = pure_state(v1), pure_state(v2)
            t = rng.uniform()
            mix = State.from_operator(t * s1.op + (1 - t) * s2.op)
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = a @ a.conj().T
            h = h / (np.linalg.eigvalsh(h).max() * 2)
            pom = point_pom([h, np.eye(d) - h])
            np.testing.assert_allclose(
                born(mix, pom), t * born(s1, pom) + (1 - t) * born(s2, pom), atol=1e-12)

    def test_matches_dense_trace(self):
        # effects need not be positive, and both state forms give the dense trace
        rng = np.random.default_rng(13)
        for d, rank in [(2, 1), (5, 2), (9, 3), (16, 4)]:
            vecs = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
            state = make_state(list(zip(rng.uniform(0.1, 1.0, size=rank), vecs)))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (a + a.conj().T) / 4
            pom = point_pom([h, np.eye(d) - h])
            expected = np.array([np.trace(state.op @ e).real for e in pom.effects])
            for st in (state, State.from_operator(state.op)):
                np.testing.assert_allclose(born(st, pom), expected, rtol=0, atol=1e-13)


class TestCommutatorNorm:
    """spectral_norm of commutators, which are anti-Hermitian for Hermitian factors."""

    def test_self_commutes(self):
        a = np.array([[1, 2j], [-2j, 3]])
        assert spectral_norm(a @ a - a @ a) == 0.0

    def test_diagonal_family_commutes(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.diag([5.0, -1.0, 0.5])
        assert spectral_norm(a @ b - b @ a) == 0.0

    def test_pauli_x_z(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        # XZ - ZX = -2iY, spectral norm 2
        assert spectral_norm(x @ z - z @ x) == pytest.approx(2.0, abs=1e-14)


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

    def test_basis_grows_past_its_first_capacity(self):
        # a cluster of three at the top and a 1% gap below: over a hundred steps,
        # so the basis doubles from LANCZOS_ROWS rows more than once
        rng = np.random.default_rng(5)
        eigenvalues = np.r_[1.0, 1.0 - 1e-9, 1.0 - 2e-9, rng.uniform(0.0, 0.99, 157)]
        mat = hermitian_with_spectrum(eigenvalues, rng)
        calls = []

        def matvec(v):
            calls.append(None)
            return mat @ v

        got = _lanczos_norm(matvec, rng.standard_normal(160))
        assert got == pytest.approx(np.abs(np.linalg.eigvalsh(mat)).max(), rel=1e-12, abs=0)
        assert 2 * LANCZOS_ROWS < len(calls) <= 160


class TestHermiticity:
    @pytest.mark.parametrize("skew, tol, expected", [
        (0.0, 1e-10, True),
        # ||A - A*|| = 2e-11 <= tol although its Frobenius norm is 2e-11 sqrt(8) > tol
        (1e-11, 2.5e-11, True),
        (1e-11, 1e-11, False),
        (1e-3, 1e-10, False),
    ])
    def test_exact_norm_decides_beyond_the_frobenius_screen(self, skew, tol, expected):
        # a trace-one positive matrix plus a traceless skew part i skew diag(1, -1, ...)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a @ a.conj().T + np.eye(8)
        op = h / np.trace(h).real + 1j * skew * np.diag(np.tile([1.0, -1.0], 4))
        assert expected == (np.linalg.norm(op - op.conj().T, 2) <= tol)
        if expected:
            assert State.from_operator(op, tol).weights.size == 8
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                State.from_operator(op, tol)


class TestHelpers:
    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)

    def test_state_validation_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            State.from_operator(np.diag([1.0, 1.0]))

    def test_effect_validation(self):
        # an effect with spectrum outside [0, 1] makes its complement negative
        pom = Pom("two outcomes", (Outcome("a", PointCell((0,))), Outcome("b", PointCell((1,)))),
                  (diag_effect(1.5, 0.0), diag_effect(-0.5, 1.0)))
        report = check_pom_axioms(pom, 1e-10)
        assert not report.passed and report.worst_negativity == pytest.approx(0.5)
        pom = Pom("two outcomes", pom.outcomes,
                  (diag_effect(1.0, 0.0), diag_effect(0.0, 1.0)))
        assert check_pom_axioms(pom, 1e-10).passed

    def test_axiom_report_is_plain_data(self):
        rep = AxiomReport(True, 0.0, 0.0)
        assert rep.passed and rep.worst_negativity == 0.0

    def test_interval_cell_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            IntervalCell(1.0, 1.0)
