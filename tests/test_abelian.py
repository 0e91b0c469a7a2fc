import itertools
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import covpom.abelian as abelian_module
import covpom.hilbert as hilbert_module
from covpom.abelian import (
    DiagonalRep,
    EquivalenceReport,
    FiniteAbelianGroup,
    IsometryFamily,
    RepBlock,
    Subgroup,
    annihilator,
    build_covariant_pom,
    coset_action,
    covariance_densities,
    diagonal_unitaries,
    dual_translation_matrix,
    induced_translation_matrix,
    random_isometries,
    sigma_matrix,
    translated_pvm_matrix,
    verify_covariance,
    verify_pom_equivalence,
)
from covpom.hilbert import PointCell, check_pom_axioms, make_state
from covpom.phasespace import finite_weyl_pom, finite_weyl_unitaries
from oracles import (
    check_pom_axioms_loop,
    coset_representatives,
    cosets_loop,
    finite_weyl_matrix,
)


def weyl_action(d):
    """Translations of Z_d x Z_d on its points: the cosets of the trivial subgroup."""
    group = FiniteAbelianGroup((d, d))
    return coset_action(group, Subgroup.trivial(group))


# --- loop forms of the array code, kept as oracles -------------------------


def points(blk):
    """The dual points of a block as tuples, in its order."""
    return [tuple(x) for x in blk.points.tolist()]


def basis_loop(rep):
    """Basis labels (block k, dual point x, fiber i) in basis order."""
    return [
        (k, x, i) for k, blk in enumerate(rep.blocks) for x in points(blk) for i in range(blk.mult)
    ]


def isometry(rep, fam, k, x):
    """W_k(x): the columns of the family at the basis vectors (k, x, i)."""
    cols = [i for i, label in enumerate(basis_loop(rep)) if label[:2] == (k, tuple(x))]
    return fam.columns[:, cols]


def total_weight(rep, x):
    return sum(w for blk in rep.blocks for y, w in zip(points(blk), blk.weights) if y == x)


def validate_loop(rep, fam, tol):
    """(k, x, defect) of the first point whose W_k(x) is not an isometry within tol, or None."""
    for k, blk in enumerate(rep.blocks):
        for x in points(blk):
            w = isometry(rep, fam, k, x)
            defect = float(np.linalg.norm(w.conj().T @ w - np.eye(blk.mult), 2))
            if defect > tol:
                return k, x, defect
    return None


def subgroup_check_loop(parent, elements):
    """The pairwise closure check: its error message, or None for a subgroup."""
    elems = set(elements)
    if parent.identity not in elems:
        return "subgroup must contain the identity"
    for a in elems:
        if not parent.contains(a):
            return f"element {a} outside the parent group"
        for b in elems:
            if parent.add(a, b) not in elems:
                return "subgroup is not closed under addition"
    return None


def closure_bfs(parent, generators):
    """Sorted elements of the subgroup the generators span, by breadth-first search."""
    closure = {parent.identity}
    frontier = [parent.identity]
    gens = [tuple(g) for g in generators]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = parent.add(cur, g)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(closure))


def coset_rep_map_loop(group, sub):
    return {x: coset[0] for coset in cosets_loop(group, sub) for x in coset}


def reduced_pairing(group, x, g):
    """<x, g> with its phase reduced mod 1 exactly in rationals, so the angle is below 2 pi.

    An unreduced phase sum x.g / m would carry rounding that grows with the
    angle: about 1e-14 on Z_16.
    """
    phase = sum(Fraction(xi * gi, m) for xi, gi, m in zip(x, g, group.moduli)) % 1
    return complex(np.exp(2j * np.pi * float(phase)))


def induced_translation_matrix_loop(group, sub, a):
    """Column by column: (lambda(a) f)(c, xd) = conj(<xd, h>) f(t, xd), t + h = c - a."""
    hperp = SimpleNamespace(elements=annihilator_loop(group, sub))
    dual_reps = [coset[0] for coset in cosets_loop(group, hperp)]
    reps = [coset[0] for coset in cosets_loop(group, sub)]
    rep_of = coset_rep_map_loop(group, sub)
    cols = [(c, xd) for xd in dual_reps for c in reps]
    cidx = {col: i for i, col in enumerate(cols)}
    mat = np.zeros((len(cols), len(cols)), dtype=complex)
    for ci, (c, xd) in enumerate(cols):
        shifted = group.sub(c, a)
        target_rep = rep_of[shifted]
        h = group.sub(shifted, target_rep)
        mat[ci, cidx[(target_rep, xd)]] = np.conj(reduced_pairing(group, xd, h))
    return mat


def block_diag_loop(mats):
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for m in mats:
        out[pos : pos + m.shape[0], pos : pos + m.shape[1]] = m
        pos += m.shape[0]
    return out


def verify_pom_equivalence_loop(rep, sub, w_first, w_second, intertwiners, tol=1e-9):
    """(report, defects): the defect of each same-coset pair, one pair at a time.

    ``defects`` maps (j, k, x, x') to its defect in loop order; the witness is
    the first pair of largest defect.
    """
    group = rep.group
    code = {x: i for i, x in enumerate(group.elements())}
    dens = covariance_densities(rep, sub)
    hperp = set(annihilator_loop(group, sub))
    s_maps = [{x: np.asarray(s, dtype=complex) for x, s in blk.items()} for blk in intertwiners]
    defects = {}
    for j, blkj in enumerate(rep.blocks):
        for k, blkk in enumerate(rep.blocks):
            for x in points(blkj):
                for xp in points(blkk):
                    if group.sub(x, xp) not in hperp:
                        continue
                    root = np.sqrt(dens.alpha[k, code[xp]])
                    lhs = root * (
                        isometry(rep, w_first, j, x).conj().T @ isometry(rep, w_first, k, xp)
                    )
                    rhs = root * (
                        s_maps[j][x].conj().T
                        @ isometry(rep, w_second, j, x).conj().T
                        @ isometry(rep, w_second, k, xp)
                        @ s_maps[k][xp]
                    )
                    defects[(j, k, x, xp)] = float(np.linalg.norm(lhs - rhs, 2))
    max_defect, witness = 0.0, None
    for pair, defect in defects.items():
        if defect > max_defect:
            max_defect, witness = defect, pair
    equivalent = max_defect <= tol
    conj_defect = None
    if equivalent:
        first = build_covariant_pom(rep, sub, w_first)
        second = build_covariant_pom(rep, sub, w_second)
        s_full = block_diag_loop(
            [s_maps[k][x] for k, blk in enumerate(rep.blocks) for x in points(blk)]
        )
        conj_defect = 0.0
        for e1, e2 in zip(first.effects, second.effects):
            conj_defect = max(
                conj_defect, float(np.linalg.norm(s_full @ e1 - e2 @ s_full, 2))
            )
        equivalent = conj_defect <= max(tol, 1e-9)
    return EquivalenceReport(equivalent, max_defect, witness, conj_defect), defects


def annihilator_loop(group, sub):
    return tuple(
        y for y in group.elements()
        if all(abs(group.pairing(y, h) - 1.0) < 1e-9 for h in sub.elements)
    )


def build_covariant_pom_loop(rep, sub, isometries):
    """Effect matrices entry block by entry block, each pairing evaluated alone."""
    group = rep.group
    hperp = set(annihilator_loop(group, sub))
    reps = [coset[0] for coset in cosets_loop(group, sub)]
    offsets, pos = {}, 0
    for k, blk in enumerate(rep.blocks):
        for x in points(blk):
            offsets[(k, x)] = pos
            pos += blk.mult
    pairs = []
    for (k1, blk1), (k2, blk2) in itertools.product(enumerate(rep.blocks), repeat=2):
        for x1 in points(blk1):
            for x2 in points(blk2):
                d = group.sub(x1, x2)
                if d in hperp:
                    gram = isometry(rep, isometries, k1, x1).conj().T @ isometry(
                        rep, isometries, k2, x2)
                    pairs.append((offsets[(k1, x1)], offsets[(k2, x2)], d, gram))
    mats = []
    for c in reps:
        mat = np.zeros((rep.dim, rep.dim), dtype=complex)
        for o1, o2, d, gram in pairs:
            coeff = group.pairing(d, c) / len(reps)
            mat[o1 : o1 + gram.shape[0], o2 : o2 + gram.shape[1]] = coeff * gram
        mats.append(mat)
    return reps, mats


def verify_covariance_loop(pom, unitaries, action):
    """(max_defect, worst) of the exact spectral norm over every (g, cell) pair."""
    index_of = {out.cell: i for i, out in enumerate(pom.outcomes)}
    worst, max_defect = ((), ""), 0.0
    for g, u in unitaries.items():
        for i, out in enumerate(pom.outcomes):
            moved = u @ pom.effects[i] @ u.conj().T
            target = pom.effects[index_of[action(g, out.cell)]]
            defect = float(np.linalg.norm(moved - target, 2))
            if defect > max_defect:
                max_defect, worst = defect, (g, out.label)
    return max_defect, worst


def sigma_transform(f, nu, group, sub, equivariance_tol=1e-9):
    """Loop form of the diagonalising transform on an equivariant function.

    ``f`` is indexed [group element, dual coset representative] and must obey
    f(g + h, xdot) = conj(<xdot, h>) f(g, xdot) for h in the subgroup; the
    result is (Sf)(x) = (1/|G/H|) sum over cosets of <x, c> f(c, q(x)), set to
    zero where the lifted measure nu vanishes.
    """
    group_elems = group.elements()
    gidx = {g: i for i, g in enumerate(group_elems)}
    hperp = annihilator(group, sub)
    dual_reps = coset_representatives(group, hperp)
    dual_rep_of = coset_rep_map_loop(group, hperp)
    didx = {c: i for i, c in enumerate(dual_reps)}
    f = np.asarray(f, dtype=complex)
    for h in sub.elements:
        for xd in dual_reps:
            ch = np.conj(group.pairing(xd, h))
            for g in group_elems:
                if abs(f[gidx[group.add(g, h)], didx[xd]] - ch * f[gidx[g], didx[xd]]) > equivariance_tol:
                    raise ValueError(f"f is not equivariant at g={g}, h={h}, xdot={xd}")
    reps = coset_representatives(group, sub)
    out = np.zeros(len(group_elems), dtype=complex)
    for xi, x in enumerate(group_elems):
        xd = didx[dual_rep_of[x]]
        out[xi] = sum(group.pairing(x, c) * f[gidx[c], xd] for c in reps) / len(reps)
        if nu.get(dual_rep_of[x], 0.0) <= 0:
            out[xi] = 0.0
    return out


def translated_pvm_matrix_loop(omega, group, sub):
    reps = [coset[0] for coset in cosets_loop(group, sub)]
    hperp = set(annihilator_loop(group, sub))
    fbar = {
        y: sum(group.pairing(y, c) * omega[c] for c in reps) / len(reps) for y in hperp
    }
    elems = group.elements()
    mat = np.zeros((len(elems), len(elems)), dtype=complex)
    for i, x in enumerate(elems):
        for j, xp in enumerate(elems):
            d = group.sub(x, xp)
            if d in hperp:
                mat[i, j] = fbar[d]
    return mat


def single_block_rep(group, weights, mult=1):
    return DiagonalRep(group, (RepBlock.from_mapping(weights, mult),))


class TestGroupBasics:
    def test_pairing_is_bicharacter(self):
        g = FiniteAbelianGroup((3, 4))
        rng = np.random.default_rng(0)
        elems = g.elements()
        for _ in range(40):
            x, y, a = (elems[rng.integers(len(elems))] for _ in range(3))
            lhs = g.pairing(g.add(x, y), a)
            rhs = g.pairing(x, a) * g.pairing(y, a)
            assert abs(lhs - rhs) < 1e-12
            assert abs(abs(g.pairing(x, a)) - 1.0) < 1e-12

    @pytest.mark.parametrize("moduli", [(6,), (8,), (16,), (4, 6), (2, 2, 4)])
    def test_pairing_reduces_the_phase(self, moduli):
        g = FiniteAbelianGroup(moduli)
        for x, a in itertools.product(g.elements(), repeat=2):
            # a few ulps; the unreduced phase is 9.2e-15 off on Z_16
            assert abs(g.pairing(x, a) - reduced_pairing(g, x, a)) <= 2e-15

    def test_subgroup_closure_from_generators(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup.from_generators(g, [(2,)])
        assert h.elements == ((0,), (2,))

    def test_invalid_subgroup_rejected(self):
        g = FiniteAbelianGroup((4,))
        with pytest.raises(ValueError, match="closed"):
            Subgroup(g, ((0,), (1,)))


class TestAnnihilator:
    def test_z4_half(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, ((0,), (2,)))
        assert annihilator(g, h).elements == ((0,), (2,))

    def test_trivial_subgroup_gives_full_dual(self):
        g = FiniteAbelianGroup((2, 3))
        assert annihilator(g, Subgroup.trivial(g)).order == g.order

    def test_full_subgroup_gives_trivial_dual(self):
        g = FiniteAbelianGroup((2, 3))
        assert annihilator(g, Subgroup.full(g)).elements == ((g.identity,))

    def test_order_product_invariant(self):
        # |H| |Hperp| = |G| for cyclic subgroups of groups of order up to 64
        rng = np.random.default_rng(1)
        for moduli in [(6,), (8,), (12,), (2, 4), (2, 2, 2), (4, 4), (8, 8), (63,)]:
            g = FiniteAbelianGroup(moduli)
            elems = g.elements()
            gens = [elems[rng.integers(len(elems))] for _ in range(4)]
            subs = [Subgroup.from_generators(g, [z]) for z in gens]
            subs.append(Subgroup.from_generators(g, gens[:2]))
            for h in subs:
                assert annihilator(g, h).order * h.order == g.order


class TestCovarianceDensities:
    def test_always_admits(self):
        # nu_tilde dominates the weight of every block, so each alpha_k(x) lies in [0, 1]
        g = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g, (
            RepBlock.from_mapping({(0,): 0.2, (3,): 1.5}, 1), RepBlock.from_mapping({(1,): 0.7}, 2),
        ))
        dens = covariance_densities(rep, Subgroup(g, ((0,), (2,))))
        assert dens.nu_tilde.shape == (4,) and dens.alpha.shape == (2, 4)
        assert np.all(dens.nu_tilde > 0)
        assert np.all(dens.alpha >= 0) and np.all(dens.alpha.sum(axis=0) <= 1 + 1e-15)

    def test_z2_uniform_trivial_subgroup(self):
        # Hperp is the whole dual, so nu_tilde is the constant total mass and
        # each density equals the normalised weight.
        g = FiniteAbelianGroup((2,))
        rep = single_block_rep(g, {(0,): 0.5, (1,): 0.5})
        dens = covariance_densities(rep, Subgroup.trivial(g))
        np.testing.assert_array_equal(dens.nu_tilde, [1.0, 1.0])
        np.testing.assert_allclose(dens.alpha, [[0.5, 0.5]])

    def test_z4_point_mass(self):
        g = FiniteAbelianGroup((4,))
        rep = single_block_rep(g, {(1,): 1.0})
        dens = covariance_densities(rep, Subgroup(g, ((0,), (2,))))
        assert dens.alpha[0, 1] == pytest.approx(1.0)
        assert dens.alpha[0, 0] == 0.0
        assert dens.alpha[0, 3] == 0.0


def brute_force_sharp_pvm(d):
    """Rank-one Fourier projectors: the sharp PVM conjugated by the DFT."""
    g = FiniteAbelianGroup((d,))
    mats = []
    for c in range(d):
        f = np.array([g.pairing((x,), (c,)) for x in range(d)]) / np.sqrt(d)
        mats.append(np.outer(f, f.conj()))
    return mats


class TestBuildCovariantPom:
    @pytest.mark.parametrize("d", [2, 3])
    def test_constant_isometry_gives_sharp_pvm(self, d):
        g = FiniteAbelianGroup((d,))
        rep = single_block_rep(g, {(x,): 1.0 for x in range(d)})
        column = np.zeros((3, 1), dtype=complex)
        column[0, 0] = 1.0
        fam = IsometryFamily.from_mappings(rep, 3, [{(x,): column for x in range(d)}])
        pom = build_covariant_pom(rep, Subgroup.trivial(g), fam)
        expected = brute_force_sharp_pvm(d)
        for eff, mat in zip(pom.effects, expected):
            np.testing.assert_allclose(eff, mat, atol=1e-13)

    def test_full_subgroup_trivial_quotient(self):
        g = FiniteAbelianGroup((2,))
        rep = single_block_rep(g, {(0,): 1.0, (1,): 1.0})
        fam = random_isometries(rep, 2, np.random.default_rng(0))
        pom = build_covariant_pom(rep, Subgroup.full(g), fam)
        assert len(pom.effects) == 1
        np.testing.assert_allclose(pom.effects[0], np.eye(2), atol=1e-13)

    def test_axioms_and_covariance_z4(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, ((0,), (2,)))
        rep = single_block_rep(g, {(x,): 1.0 for x in range(4)}, mult=1)
        fam = random_isometries(rep, 2, np.random.default_rng(5))
        pom = build_covariant_pom(rep, h, fam)
        rep_axioms = check_pom_axioms(pom, 1e-10)
        assert rep_axioms.passed, rep_axioms
        covrep = verify_covariance(
            pom, diagonal_unitaries(rep), coset_action(g, h), 1e-10
        )
        assert covrep.passed, covrep

    def test_multiblock_mixed_multiplicity(self):
        g = FiniteAbelianGroup((2, 2))
        h = Subgroup.from_generators(g, [(1, 1)])
        rep = DiagonalRep(
            g,
            (
                RepBlock.from_mapping({(0, 0): 0.7, (1, 0): 0.3}, 1),
                RepBlock.from_mapping({(0, 1): 1.2, (1, 1): 0.4}, 2),
            ),
        )
        fam = random_isometries(rep, 3, np.random.default_rng(7))
        pom = build_covariant_pom(rep, h, fam)
        assert check_pom_axioms(pom, 1e-10).passed
        assert verify_covariance(
            pom, diagonal_unitaries(rep), coset_action(g, h), 1e-10
        ).passed

    def test_permuted_effects_fail_covariance(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup.trivial(g)
        rep = single_block_rep(g, {(x,): 1.0 for x in range(4)})
        fam = random_isometries(rep, 2, np.random.default_rng(9))
        pom = build_covariant_pom(rep, h, fam)
        shuffled = type(pom)(
            pom.space_tag,
            pom.outcomes,
            pom.effects[[1, 0, 2, 3]],
        )
        covrep = verify_covariance(
            shuffled, diagonal_unitaries(rep), coset_action(g, h), 1e-10
        )
        assert not covrep.passed
        assert covrep.max_defect > 0.1


class TestSigmaTransform:
    @staticmethod
    def equivariant_function(group, sub, nu, rng):
        """Random function satisfying the subgroup equivariance exactly."""
        hperp = annihilator(group, sub)
        dual_reps = coset_representatives(group, hperp)
        reps = coset_representatives(group, sub)
        gidx = {g: i for i, g in enumerate(group.elements())}
        f = np.zeros((group.order, len(dual_reps)), dtype=complex)
        for di, xd in enumerate(dual_reps):
            for c in reps:
                val = rng.normal() + 1j * rng.normal()
                for h in sub.elements:
                    f[gidx[group.add(c, h)], di] = np.conj(group.pairing(xd, h)) * val
        return f

    def test_z2_reduces_to_two_point_cotransform(self):
        g = FiniteAbelianGroup((2,))
        mat = sigma_matrix(g, Subgroup.trivial(g))
        expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(mat, expected, atol=1e-14)

    def test_supported_at_identity_coset(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, ((0,), (2,)))
        hperp = annihilator(g, h)
        dual_reps = coset_representatives(g, hperp)
        nu = {c: 1.0 for c in dual_reps}
        gidx = {e: i for i, e in enumerate(g.elements())}
        f = np.zeros((4, len(dual_reps)), dtype=complex)
        # constant in the dual coset, supported on the identity coset of H
        for di in range(len(dual_reps)):
            for hh in h.elements:
                xd = dual_reps[di]
                f[gidx[hh], di] = np.conj(g.pairing(xd, hh))
        out = sigma_transform(f, nu, g, h)
        np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-12)

    @pytest.mark.parametrize("moduli,subgen", [((4,), (2,)), ((6,), (3,))])
    def test_unitary_and_intertwining(self, moduli, subgen):
        g = FiniteAbelianGroup(moduli)
        h = Subgroup.from_generators(g, [subgen])
        rng = np.random.default_rng(3)
        hperp = annihilator(g, h)
        dual_reps = coset_representatives(g, hperp)
        nu = {c: 1.0 for c in dual_reps}

        # norm preservation on random equivariant data
        for _ in range(5):
            f = self.equivariant_function(g, h, nu, rng)
            out = sigma_transform(f, nu, g, h)
            norm_in = np.sqrt(
                sum(
                    (1.0 / (g.order // h.order)) * abs(f[i, di]) ** 2
                    for di, xd in enumerate(dual_reps)
                    for i, ge in enumerate(g.elements())
                    if ge in coset_representatives(g, h)
                )
            )
            rep_of = {}
            for coset in cosets_loop(g, hperp):
                for x in coset:
                    rep_of[x] = coset[0]
            norm_out = np.sqrt(
                sum(
                    nu[rep_of[x]] * abs(out[i]) ** 2
                    for i, x in enumerate(g.elements())
                )
            )
            assert norm_out == pytest.approx(norm_in, abs=1e-12)

        # operator-level unitarity and intertwining
        sig = sigma_matrix(g, h)
        np.testing.assert_allclose(
            sig.conj().T @ sig, np.eye(sig.shape[1]), atol=1e-12
        )
        for a in g.elements():
            lam = induced_translation_matrix(g, h, a)
            big = dual_translation_matrix(g, a)
            defect = np.linalg.norm(sig @ lam - big @ sig, 2)
            assert defect <= 1e-10

    def test_rejects_non_equivariant_input(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, ((0,), (2,)))
        f = np.ones((4, 2), dtype=complex)
        f[2, 0] = 5.0
        nu = {c: 1.0 for c in coset_representatives(g, annihilator(g, h))}
        with pytest.raises(ValueError, match="equivariant"):
            sigma_transform(f, nu, g, h)


class TestTranslatedPvm:
    def test_constant_omega_is_identity(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, ((0,), (2,)))
        reps = coset_representatives(g, h)
        mat = translated_pvm_matrix({c: 1.0 for c in reps}, g, h)
        np.testing.assert_allclose(mat, np.eye(4), atol=1e-13)

    def test_indicator_two_term_convolution(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, ((0,), (2,)))
        reps = coset_representatives(g, h)
        omega = {reps[0]: 1.0, reps[1]: 0.0}
        rng = np.random.default_rng(2)
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = translated_pvm_matrix(omega, g, h) @ phi
        # Fbar(indicator of identity coset)(y) = 1/2 on Hperp = {0, 2}
        elems = g.elements()
        for i, x in enumerate(elems):
            j = elems.index(g.sub(x, (2,)))
            assert out[i] == pytest.approx(0.5 * phi[i] + 0.5 * phi[j], abs=1e-12)

    def test_matches_conjugated_multiplication(self):
        for moduli, gen in [((4,), (2,)), ((6,), (3,))]:
            g = FiniteAbelianGroup(moduli)
            h = Subgroup.from_generators(g, [gen])
            reps = coset_representatives(g, h)
            hperp = annihilator(g, h)
            dual_reps = coset_representatives(g, hperp)
            rng = np.random.default_rng(4)
            omega = {c: rng.uniform() for c in reps}
            mat = translated_pvm_matrix(omega, g, h)
            sig = sigma_matrix(g, h)
            diag = np.diag(
                [omega[c] for _ in dual_reps for c in reps]
            )
            np.testing.assert_allclose(
                mat, sig @ diag @ sig.conj().T, atol=1e-10
            )

    def test_spectrum_within_unit_interval(self):
        g = FiniteAbelianGroup((6,))
        h = Subgroup.from_generators(g, [(3,)])
        rng = np.random.default_rng(8)
        for _ in range(10):
            omega = {c: rng.uniform() for c in coset_representatives(g, h)}
            eigs = np.linalg.eigvalsh(translated_pvm_matrix(omega, g, h))
            assert eigs.min() >= -1e-10
            assert eigs.max() <= 1.0 + 1e-10


class TestEquivalence:
    @staticmethod
    def setup_rep():
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, ((0,), (2,)))
        rep = single_block_rep(g, {(x,): 1.0 for x in range(4)}, mult=1)
        return g, h, rep

    def test_identity_intertwiner(self):
        g, h, rep = self.setup_rep()
        fam = random_isometries(rep, 2, np.random.default_rng(1))
        eye = [{(x,): np.eye(1) for x in range(4)}]
        report = verify_pom_equivalence(rep, h, fam, fam, eye)
        assert report.equivalent
        assert report.max_defect < 1e-12

    def test_left_unitary_multiplication_cancels(self):
        g, h, rep = self.setup_rep()
        rng = np.random.default_rng(2)
        fam = random_isometries(rep, 2, rng)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v, _ = np.linalg.qr(a)
        rotated = IsometryFamily(v @ fam.columns)
        eye = [{(x,): np.eye(1) for x in range(4)}]
        report = verify_pom_equivalence(rep, h, fam, rotated, eye)
        assert report.equivalent
        assert report.conjugation_defect < 1e-10

    def test_generic_families_differ(self):
        g, h, rep = self.setup_rep()
        fam1 = random_isometries(rep, 2, np.random.default_rng(3))
        fam2 = random_isometries(rep, 2, np.random.default_rng(4))
        eye = [{(x,): np.eye(1) for x in range(4)}]
        report = verify_pom_equivalence(rep, h, fam1, fam2, eye)
        assert not report.equivalent
        assert report.witness is not None

    def test_rejects_non_unitary_intertwiner(self):
        g, h, rep = self.setup_rep()
        fam = random_isometries(rep, 2, np.random.default_rng(5))
        bad = [{(x,): 2.0 * np.eye(1) for x in range(4)}]
        with pytest.raises(ValueError, match="unitary"):
            verify_pom_equivalence(rep, h, fam, fam, bad)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6), seed=st.integers(0, 2**32))
    def test_block_diag_equals_scipy(self, sizes, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for m in sizes]
        np.testing.assert_array_equal(abelian_module._block_diag(mats), block_diag(*mats))


class TestRandomCovariantSweep:
    @pytest.mark.parametrize("moduli", [(2,), (4,), (2, 2)])
    def test_twenty_seeds(self, moduli):
        g = FiniteAbelianGroup(moduli)
        elems = g.elements()
        nontrivial = [e for e in elems if e != g.identity]
        h = Subgroup.from_generators(g, [nontrivial[0]])
        rep = single_block_rep(g, {x: 1.0 for x in elems})
        unitaries = diagonal_unitaries(rep)
        action = coset_action(g, h)
        for seed in range(20):
            fam = random_isometries(rep, 2, np.random.default_rng(seed))
            pom = build_covariant_pom(rep, h, fam)
            assert check_pom_axioms(pom, 1e-10).passed
            assert verify_covariance(pom, unitaries, action, 1e-10).passed


# --- array forms against their loop oracles ---------------------------------

SMALL_MODULI = [
    (2,), (3,), (4,), (5,), (6,), (8,), (12,), (16,),
    (2, 2), (2, 4), (2, 6), (3, 3), (2, 8), (4, 4), (2, 2, 2), (2, 2, 4),
]
TOL = 1e-10


@st.composite
def covariant_systems(draw):
    """A group with |G| <= 16, a subgroup, one or two blocks and isometries."""
    g = FiniteAbelianGroup(draw(st.sampled_from(SMALL_MODULI)))
    elems = g.elements()
    sub = Subgroup.from_generators(g, draw(st.lists(st.sampled_from(elems), max_size=2)))
    support = draw(st.permutations(elems))[: draw(st.integers(1, len(elems)))]
    cut = draw(st.integers(0, len(support)))
    blocks = tuple(
        RepBlock.from_mapping(
            {x: draw(st.floats(0.1, 2.0)) for x in part}, draw(st.integers(1, 2))
        )
        for part in (support[:cut], support[cut:])
        if part
    )
    rep = DiagonalRep(g, blocks)
    aux = draw(st.integers(max(b.mult for b in blocks), 3))
    fam = random_isometries(rep, aux, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return g, sub, rep, fam


def perturbed(pom, index, eps, rng):
    """The POM with effect ``index`` moved by eps times a unit-norm Hermitian."""
    a = rng.normal(size=(pom.dim, pom.dim)) + 1j * rng.normal(size=(pom.dim, pom.dim))
    herm = a + a.conj().T
    effects = pom.effects.copy()
    effects[index] += eps * herm / np.linalg.norm(herm, 2)
    return type(pom)(pom.space_tag, pom.outcomes, effects)


def assert_covariance_matches_loop(pom, unitaries, action):
    report = verify_covariance(pom, unitaries, action, TOL)
    loop_max, loop_worst = verify_covariance_loop(pom, unitaries, action)
    assert report.passed == (loop_max <= TOL)
    if report.passed:
        # a Frobenius bound on the pass side, never below the exact norm
        assert loop_max - 1e-15 <= report.max_defect <= TOL
    else:
        assert abs(report.max_defect - loop_max) <= 1e-12
        assert report.worst == loop_worst


def assert_axioms_match_loop(pom):
    report = check_pom_axioms(pom, TOL)
    worst, defect = check_pom_axioms_loop(pom)
    assert report.passed == (worst <= TOL and defect <= TOL)
    assert report.normalization_defect == pytest.approx(defect, abs=1e-15)
    if worst > TOL:
        assert report.worst_negativity == pytest.approx(worst, abs=1e-15)
    else:
        assert worst - 1e-15 <= report.worst_negativity <= TOL


class TestArrayFormsMatchLoops:
    @settings(max_examples=40, deadline=None)
    @given(covariant_systems())
    def test_build_matches_loop(self, system):
        g, sub, rep, fam = system
        pom = build_covariant_pom(rep, sub, fam)
        reps, mats = build_covariant_pom_loop(rep, sub, fam)
        assert pom.labels() == tuple(str(c) for c in reps)
        for eff, mat in zip(pom.effects, mats):
            assert np.max(np.abs(eff - mat)) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(
        covariant_systems(),
        st.sampled_from([0.0, 1e-12, 3e-11, 1e-9, 1e-3]),
        st.integers(0, 2**32 - 1),
    )
    def test_covariance_matches_loop(self, system, eps, seed):
        g, sub, rep, fam = system
        pom = build_covariant_pom(rep, sub, fam)
        rng = np.random.default_rng(seed)
        if eps:
            pom = perturbed(pom, int(rng.integers(len(pom.effects))), eps, rng)
        assert_covariance_matches_loop(pom, diagonal_unitaries(rep), coset_action(g, sub))

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 3e-11, 1e-9, 1e-3])
    def test_finite_weyl_covariance_matches_loop(self, d, eps):
        rng = np.random.default_rng(100 * d + int(-np.log10(eps or 1)))
        vecs = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        pom = finite_weyl_pom(d, make_state([(0.7, vecs[0]), (0.3, vecs[1])]))
        if eps:
            pom = perturbed(pom, int(rng.integers(len(pom.effects))), eps, rng)
        assert_covariance_matches_loop(pom, finite_weyl_unitaries(d), weyl_action(d))

    def test_permuted_effects_fail_like_loop(self):
        g = FiniteAbelianGroup((4,))
        rep = single_block_rep(g, {(x,): 1.0 for x in range(4)})
        pom = build_covariant_pom(rep, Subgroup.trivial(g), random_isometries(
            rep, 2, np.random.default_rng(9)))
        shuffled = type(pom)(
            pom.space_tag, pom.outcomes, pom.effects[[1, 0, 2, 3]]
        )
        assert_covariance_matches_loop(
            shuffled, diagonal_unitaries(rep), coset_action(g, Subgroup.trivial(g))
        )

    def test_drift_beyond_the_generator_defect_fails_like_loop(self):
        # E'(k) = Ad R^s(k) E(k) with R = exp(i eta diag(0..3)) and s = (0, 1, 2, 1):
        # a generator moves s by 1, but 2 moves it by 2, so D(2) ~ 2 D(1)
        g = FiniteAbelianGroup((4,))
        trivial = Subgroup.trivial(g)
        rep = single_block_rep(g, {(x,): 1.0 for x in range(4)})
        pom = build_covariant_pom(rep, trivial, random_isometries(rep, 1, np.random.default_rng(3)))
        drift = np.exp(1e-9j * np.subtract.outer(np.arange(4), np.arange(4)))
        drifted = type(pom)(pom.space_tag, pom.outcomes, np.array([
            e * drift**s for e, s in zip(pom.effects, (0, 1, 2, 1))
        ]))
        unitaries, action = diagonal_unitaries(rep), coset_action(g, trivial)
        loop_max, loop_worst = verify_covariance_loop(drifted, unitaries, action)
        u = unitaries[(1,)]
        delta = max(
            np.linalg.norm(u @ e @ u.conj().T - drifted.effects[(i + 1) % 4])
            for i, e in enumerate(drifted.effects)
        )
        assert delta < loop_max
        # a tolerance above every generator defect but below the worst pair's
        report = verify_covariance(drifted, unitaries, action, (delta + loop_max) / 2)
        assert not report.passed and report.word_length is None
        assert abs(report.max_defect - loop_max) <= 1e-12 and report.worst == loop_worst

    def test_reports_say_how_the_check_was_decided(self):
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        pom = finite_weyl_pom(5, make_state([(0.6, vecs[0]), (0.4, vecs[1])]))
        args = (finite_weyl_unitaries(5), weyl_action(5), TOL)
        on_generators = verify_covariance(pom, *args)
        assert on_generators.passed and on_generators.word_length == 4
        assert on_generators.worst[0] in ((1, 0), (0, 1))
        assert on_generators == verify_covariance(pom, *args)
        # a defect between tol / L and tol: the screen cannot decide and the sweep passes
        swept = verify_covariance(perturbed(pom, 7, 3e-11, rng), *args)
        assert swept.passed and swept.word_length is None

    def test_finite_weyl_d32_passes_covariance(self):
        rng = np.random.default_rng(32)
        vecs = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
        pom = finite_weyl_pom(32, make_state([(0.7, vecs[0]), (0.3, vecs[1])]))
        report = verify_covariance(pom, finite_weyl_unitaries(32), weyl_action(32), TOL)
        assert report.passed and report.word_length == 32

    @pytest.mark.parametrize("d", [11, 12, 16])
    def test_finite_weyl_product_order_is_fixed(self, d):
        # each effect is M[pi, pi] * (phi phi*), M first, bit for bit at every size; from
        # d = 12 numpy's temporary elision once turned the permuted product round
        rng = np.random.default_rng(d)
        vecs = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        state = make_state([(0.7, vecs[0]), (0.3, vecs[1])])
        phases, perms = finite_weyl_unitaries(d)._factors(np.arange(d * d))
        moved = (state.op / d)[perms[:, :, None], perms[:, None, :]]
        outer = phases[:, :, None] * phases[:, None, :].conj()
        assert np.array_equal(finite_weyl_pom(d, state).effects, np.multiply(moved, outer))

    @settings(max_examples=40, deadline=None)
    @given(covariant_systems(), st.integers(2, 12), st.data())
    def test_monomial_unitaries_match_dense_oracles(self, system, d, data):
        g, _, rep, _ = system
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cases = [
            (diagonal_unitaries(rep),
             lambda x: np.diag([g.pairing(y, x) for _, y, _ in basis_loop(rep)])),
            (finite_weyl_unitaries(d), lambda x: finite_weyl_matrix(d, *x)),
        ]
        for unitaries, oracle in cases:
            elems = unitaries.group.elements()
            assert tuple(unitaries) == elems
            x, y = (data.draw(st.sampled_from(elems)) for _ in range(2))
            xy = unitaries.group.add(x, y)
            assert np.max(np.abs(unitaries[x] - oracle(x))) <= 1e-14
            a = rng.normal(size=(unitaries.dim,) * 2) + 1j * rng.normal(size=(unitaries.dim,) * 2)
            e = (a + a.conj().T) / np.linalg.norm(a + a.conj().T, 2)
            u, v, w = unitaries[x], unitaries[y], unitaries[xy]

            def ad(z, m):
                return unitaries.conjugate([elems.index(z)], m)[0]

            assert np.max(np.abs(ad(x, e) - u @ e @ u.conj().T)) <= 1e-14
            # Ad U(x + y) = Ad U(x) o Ad U(y), densely and by the monomial factors
            assert np.max(np.abs(w @ e @ w.conj().T - u @ v @ e @ v.conj().T @ u.conj().T)) <= 1e-13
            assert np.max(np.abs(ad(xy, e) - ad(x, ad(y, e)))) <= 1e-14

    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
    def test_conjugate_with_batch_axes_matches_dense(self, batch):
        g = FiniteAbelianGroup((6, 2))
        rep = DiagonalRep(g, (
            RepBlock.from_mapping({(0, 0): 1.0, (1, 1): 0.5, (3, 0): 2.0}, 2),
            RepBlock.from_mapping({(5, 1): 1.0}, 1),
        ))
        rng = np.random.default_rng(len(batch))
        for unitaries in (diagonal_unitaries(rep), finite_weyl_unitaries(5)):
            elems = unitaries.group.elements()
            codes = rng.permutation(len(elems))[:4]
            dims = (*batch, unitaries.dim, unitaries.dim)
            mats = rng.normal(size=dims) + 1j * rng.normal(size=dims)
            got = unitaries.conjugate(codes, mats)
            assert got.shape == (*batch, 4, unitaries.dim, unitaries.dim)
            for i, code in enumerate(codes):
                u = unitaries[elems[code]]
                assert np.max(np.abs(got[..., i, :, :] - u @ mats @ u.conj().T)) <= 1e-14

    @pytest.mark.parametrize("where", ["one", "all"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_effects_fail_covariance(self, where, bad):
        # NaN > tol is false: the sweep once passed a NaN stack with max_defect 0.0
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        pom = finite_weyl_pom(3, make_state([(0.6, vecs[0]), (0.4, vecs[1])]))
        effects = pom.effects.copy()
        if where == "one":
            effects[4, 1, 2] = bad
        else:
            effects[:] = bad
        broken = type(pom)(pom.space_tag, pom.outcomes, effects)
        report = verify_covariance(broken, finite_weyl_unitaries(3), weyl_action(3), TOL)
        assert not report.passed and np.isnan(report.max_defect)
        assert report.worst == ((0, 0), pom.outcomes[4 if where == "one" else 0].label)

    @settings(max_examples=40, deadline=None)
    @given(
        covariant_systems(),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_axioms_match_loop(self, system, eps, hermitian, seed):
        g, sub, rep, fam = system
        pom = build_covariant_pom(rep, sub, fam)
        rng = np.random.default_rng(seed)
        if eps:
            # a Hermitian move tests positivity, an anti-Hermitian one Hermiticity
            pom = perturbed(pom, int(rng.integers(len(pom.effects))), eps, rng)
            if not hermitian:
                i = int(rng.integers(len(pom.effects)))
                effects = pom.effects.copy()
                effects[i] += 1j * eps * np.eye(pom.dim)
                pom = type(pom)(pom.space_tag, pom.outcomes, effects)
        assert_axioms_match_loop(pom)

    def test_effect_pushed_below_minus_tol_fails(self):
        # the groups workload's Z8 x Z8 system: 16 effects of dimension 32, passed by the
        # Cholesky certificate until one effect is moved to lambda_min = -2 tol; the move
        # is added back to another effect, so the sum stays the identity
        g = FiniteAbelianGroup((8, 8))
        sub = Subgroup.from_generators(g, [(4, 0), (0, 4)])
        rng = np.random.default_rng(64)
        support = [g.elements()[i] for i in rng.permutation(64)[:20]]
        rep = DiagonalRep(g, (
            RepBlock.from_mapping({x: rng.uniform(0.1, 2.0) for x in support[:12]}, 2),
            RepBlock.from_mapping({x: rng.uniform(0.1, 2.0) for x in support[12:]}, 1),
        ))
        pom = build_covariant_pom(rep, sub, random_isometries(rep, 2, rng))
        report = check_pom_axioms(pom, TOL)
        assert report.passed and TOL / 2 <= report.worst_negativity <= TOL
        vals, vecs = np.linalg.eigh(pom.effects[3])
        move = (vals[0] + 2 * TOL) * np.outer(vecs[:, 0], vecs[:, 0].conj())
        effects = pom.effects.copy()
        effects[3] -= move
        effects[4] += move
        pushed = type(pom)(pom.space_tag, pom.outcomes, effects)
        report = check_pom_axioms(pushed, TOL)
        assert not report.passed and report.normalization_defect <= TOL
        assert report.worst_negativity == pytest.approx(2 * TOL, rel=1e-4)
        assert_axioms_match_loop(pushed)

    @pytest.mark.parametrize("block", [1, 200])
    def test_blocked_sweeps_match_loop(self, monkeypatch, block):
        # dim 5: one effect per block, or 8 effects per block over 25 effects
        monkeypatch.setattr(abelian_module, "BLOCK_ENTRIES", block)
        monkeypatch.setattr(hilbert_module, "BLOCK_ENTRIES", block)
        rng = np.random.default_rng(block)
        vecs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        pom = finite_weyl_pom(5, make_state([(0.6, vecs[0]), (0.4, vecs[1])]))
        for eps in (0.0, 1e-3):
            moved = perturbed(pom, 17, eps, rng)
            assert_covariance_matches_loop(moved, finite_weyl_unitaries(5), weyl_action(5))
            assert_axioms_match_loop(moved)

    @settings(max_examples=40, deadline=None)
    @given(covariant_systems())
    def test_group_tables_match_loops(self, system):
        g, sub, rep, _ = system
        assert annihilator(g, sub).elements == annihilator_loop(g, sub)
        nu_tilde = covariance_densities(rep, sub).nu_tilde
        for i, x in enumerate(g.elements()):
            loop = sum(total_weight(rep, g.add(x, y)) for y in annihilator_loop(g, sub))
            assert nu_tilde[i] == pytest.approx(loop, abs=1e-14)
        for x, u in diagonal_unitaries(rep).items():
            loop = np.diag([g.pairing(y, x) for _, y, _ in basis_loop(rep)])
            assert np.max(np.abs(u - loop)) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(covariant_systems(), st.integers(0, 2**32 - 1))
    def test_sigma_and_pvm_match_loops(self, system, seed):
        g, sub, _, _ = system
        rng = np.random.default_rng(seed)
        reps = coset_representatives(g, sub)
        dual_reps = coset_representatives(g, annihilator(g, sub))
        omega = {c: rng.uniform() for c in reps}
        loop = translated_pvm_matrix_loop(omega, g, sub)
        assert np.max(np.abs(translated_pvm_matrix(omega, g, sub) - loop)) <= 1e-14
        f = TestSigmaTransform.equivariant_function(g, sub, None, rng)
        gidx = {e: i for i, e in enumerate(g.elements())}
        coords = [f[gidx[c], di] for di in range(len(dual_reps)) for c in reps]
        out = sigma_matrix(g, sub) @ coords / np.sqrt(len(reps))
        nu = {xd: 1.0 for xd in dual_reps}
        assert np.max(np.abs(out - sigma_transform(f, nu, g, sub))) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_MODULI), st.data())
    def test_subgroup_checks_match_loop(self, moduli, data):
        # random sets are mostly not closed; spans and spans with one element
        # added or removed give subgroups and near misses
        g = FiniteAbelianGroup(moduli)
        elems = g.elements()
        gens = data.draw(st.lists(st.sampled_from(elems), max_size=3))
        span = closure_bfs(g, gens)
        assert Subgroup.from_generators(g, gens).elements == span
        candidates = [
            span,
            span + (data.draw(st.sampled_from(elems)),),
            tuple(e for e in span if e != data.draw(st.sampled_from(span))),
            tuple(data.draw(st.sets(st.sampled_from(elems), min_size=1))),
        ]
        for given_set in candidates:
            message = subgroup_check_loop(g, given_set)
            if message is None:
                assert Subgroup(g, given_set).elements == tuple(sorted(set(given_set)))
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    Subgroup(g, given_set)

    def test_generators_are_reduced_and_outside_elements_rejected(self):
        g = FiniteAbelianGroup((4, 6))
        gens = [(6, -1), (2, 9)]
        assert Subgroup.from_generators(g, gens).elements == closure_bfs(g, gens)
        with pytest.raises(ValueError, match=r"^element \(0, 6\) outside the parent group$"):
            Subgroup(g, ((0, 0), (0, 6)))
        assert (0, 6) not in Subgroup.full(g) and (3, 5) in Subgroup.full(g)

    @settings(max_examples=40, deadline=None)
    @given(covariant_systems())
    def test_coset_action_and_translations_match_loops(self, system):
        g, sub, _, _ = system
        rep_of = coset_rep_map_loop(g, sub)
        reps = coset_representatives(g, sub)
        act = coset_action(g, sub)
        for a in g.elements():
            for c in reps:
                assert act(a, PointCell(c)) == PointCell(rep_of[g.add(a, c)])
            loop = induced_translation_matrix_loop(g, sub, a)
            assert np.max(np.abs(induced_translation_matrix(g, sub, a) - loop)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        covariant_systems(),
        st.sampled_from(["same", "rotated", "intertwined", "other"]),
        st.integers(0, 2**32 - 1),
    )
    def test_equivalence_matches_loop(self, system, kind, seed):
        g, sub, rep, fam = system
        rng = np.random.default_rng(seed)

        def unitary(n):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            return q

        s = [{x: unitary(blk.mult) for x in points(blk)} for blk in rep.blocks]
        if kind == "same":
            s = [{x: np.eye(blk.mult) for x in points(blk)} for blk in rep.blocks]
            second = fam
        elif kind == "rotated":
            v = unitary(fam.aux_dim)
            second = IsometryFamily.from_mappings(rep, fam.aux_dim, [
                {x: v @ isometry(rep, fam, k, x) @ s[k][x].conj().T for x in points(blk)}
                for k, blk in enumerate(rep.blocks)
            ])
        elif kind == "intertwined":
            second = IsometryFamily.from_mappings(rep, fam.aux_dim, [
                {x: isometry(rep, fam, k, x) @ s[k][x].conj().T for x in points(blk)}
                for k, blk in enumerate(rep.blocks)
            ])
        else:
            second = random_isometries(rep, fam.aux_dim, rng)
        report = verify_pom_equivalence(rep, sub, fam, second, s)
        loop, defects = verify_pom_equivalence_loop(rep, sub, fam, second, s)
        assert report.equivalent == loop.equivalent
        assert abs(report.max_defect - loop.max_defect) <= 1e-12
        runner_up = max((d for pair, d in defects.items() if pair != loop.witness), default=0.0)
        if loop.max_defect - runner_up > 1e-12:
            assert report.witness == loop.witness
        elif report.witness is not None:
            # a tie up to rounding: the witness attains the maximum
            assert defects[report.witness] >= loop.max_defect - 1e-12
        if loop.conjugation_defect is None:
            assert report.conjugation_defect is None
        else:
            assert abs(report.conjugation_defect - loop.conjugation_defect) <= 1e-12


class TestArrayInputs:
    def test_rep_block_sorts_points_and_checks_weights(self):
        blk = RepBlock.from_mapping({(1, 0): 0.5, (0, 3): 2.0, (0, 1): 0.0}, 2)
        np.testing.assert_array_equal(blk.points, [[0, 3], [1, 0]])
        np.testing.assert_array_equal(blk.weights, [2.0, 0.5])
        assert not blk.points.flags.writeable and not blk.weights.flags.writeable
        for bad in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"weight .* at \(1,\) is not positive and finite"):
                RepBlock.from_mapping({(0,): 1.0, (1,): bad}, 1)
        with pytest.raises(ValueError, match="empty support"):
            RepBlock.from_mapping({(0,): 0.0}, 1)

    def test_rep_checks_rank_range_and_disjointness(self):
        g = FiniteAbelianGroup((4, 6))
        with pytest.raises(ValueError, match=r"^elements of rank 2 needed"):
            DiagonalRep(g, (RepBlock.from_mapping({(1,): 1.0}, 1),))
        with pytest.raises(ValueError, match=r"^points \(0, 1\) and \(1,\) differ in rank$"):
            RepBlock.from_mapping({(0, 1): 1.0, (1,): 1.0}, 1)
        with pytest.raises(ValueError, match=r"^element \(0, 6\) outside the parent group$"):
            DiagonalRep(g, (RepBlock.from_mapping({(0, 0): 1.0, (0, 6): 1.0}, 1),))
        with pytest.raises(ValueError, match="pairwise disjoint"):
            DiagonalRep(g, (RepBlock.from_mapping({(0, 1): 1.0}, 1),
                            RepBlock.from_mapping({(2, 2): 1.0, (0, 1): 1.0}, 2)))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(0, 1): 1.0, (3, 5): 2.0}, 2),
                              RepBlock.from_mapping({(1, 0): 1.0}, 1)))
        np.testing.assert_array_equal(rep.codes, [1, 1, 23, 23, 6])
        assert rep.dim == 5

    def test_from_mappings_orders_by_the_rep(self):
        g = FiniteAbelianGroup((2, 2))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(1, 1): 1.0, (0, 0): 1.0}, 1),
                              RepBlock.from_mapping({(1, 0): 1.0}, 2)))
        fam = random_isometries(rep, 3, np.random.default_rng(0))
        given = [{x: isometry(rep, fam, k, x) for x in reversed(points(blk))}
                 for k, blk in enumerate(rep.blocks)]
        ordered = IsometryFamily.from_mappings(rep, 3, given)
        np.testing.assert_array_equal(ordered.columns, fam.columns)
        del given[0][(1, 1)]
        with pytest.raises(ValueError, match=r"block 0 at dual point \(1, 1\)"):
            IsometryFamily.from_mappings(rep, 3, given)
        given[0][(1, 1)] = np.ones((3, 2))
        with pytest.raises(ValueError, match=r"block 0, \(1, 1\) has shape \(3, 2\)"):
            IsometryFamily.from_mappings(rep, 3, given)
        with pytest.raises(ValueError, match="block counts differ"):
            IsometryFamily.from_mappings(rep, 3, given[:1])

    def test_from_mappings_rejects_points_outside_the_support(self):
        # an entry the family would drop is an isometry nothing checks: Z4 with "3" of norm 5
        g = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g, (RepBlock.from_mapping({(0,): 1.0, (1,): 1.0, (2,): 1.0}, 1),))
        given = [{(x,): np.ones((1, 1)) for x in range(3)}]
        np.testing.assert_array_equal(IsometryFamily.from_mappings(rep, 1, given).columns, [[1, 1, 1]])
        given[0][(3,)] = np.full((1, 1), 5.0)
        with pytest.raises(ValueError, match=r"block 0 at dual point \(3,\) outside its support"):
            IsometryFamily.from_mappings(rep, 1, given)

    @settings(max_examples=60, deadline=None)
    @given(
        covariant_systems(),
        st.integers(0, 4),
        st.sampled_from([-1, 1]),
        st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
        st.data(),
    )
    def test_batched_isometry_check_matches_loop(self, system, k_exp, sign, tol, data):
        _, _, rep, fam = system
        k = data.draw(st.integers(0, len(rep.blocks) - 1))
        x = data.draw(st.sampled_from(points(rep.blocks[k])))
        # W (I + delta H) with ||H|| = 1 has defect 2 delta + delta^2 = tol (1 + sign 10^-k_exp)
        target = tol * (1 + sign * 10.0**-k_exp)
        delta = target / (1 + np.sqrt(1 + target))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = rep.blocks[k].mult
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        h = (a + a.conj().T) / np.linalg.norm(a + a.conj().T, 2)
        cols = np.array(fam.columns)
        at = [i for i, label in enumerate(basis_loop(rep)) if label[:2] == (k, x)]
        cols[:, at] = cols[:, at] @ (np.eye(m) + delta * h)
        moved = IsometryFamily(cols)
        w = isometry(rep, moved, k, x)
        # both forms round W*W - I at about 1e-15; closer to tol than that they may split
        assume(abs(np.linalg.norm(w.conj().T @ w - np.eye(m), 2) - tol) > 1e-14)
        loop = validate_loop(rep, moved, tol)
        if loop is None:
            moved.validate(rep, tol)
        else:
            assert loop[:2] == (k, x)
            named = rf"^W_{k}\({re.escape(str(x))}\) is not an isometry"
            with pytest.raises(ValueError, match=named):
                moved.validate(rep, tol)

    @settings(max_examples=20, deadline=None)
    @given(covariant_systems(), st.booleans())
    def test_wrong_column_count_raises(self, system, extra):
        g, sub, rep, fam = system
        cols = np.hstack([fam.columns, fam.columns[:, :1]]) if extra else fam.columns[:, :-1]
        with pytest.raises(ValueError, match=f"has {rep.dim + (1 if extra else -1)} columns"):
            build_covariant_pom(rep, sub, IsometryFamily(cols))
