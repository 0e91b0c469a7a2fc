"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  Criterion 10 checks each bounded-cell norm ||G_T([-h,h]^2)|| of the
ground-state observable against its closed-form bracket
erf(h/sqrt 2)^2 <= norm <= 1 - exp(-h^2): the lower end is the capture of
the ground state itself, the upper end the top eigenvalue of the
circumscribed disk's effect.  The upper end is below one on every bounded
cell, so the strict inequality ||G_T(Z)|| < 1 is enforced with an explicit
margin even where the norm is within 1e-6 of one.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm as normal

from covpom.abelian import (
    DiagonalRep,
    FiniteAbelianGroup,
    RepBlock,
    Subgroup,
    build_covariant_pom,
    canonical_phase_vectors,
    coset_action,
    diagonal_unitaries,
    dual_translation_matrix,
    induced_translation_matrix,
    phase_difference_pom,
    phase_pom,
    random_isometries,
    sharp_phase_witness,
    sigma_matrix,
    translated_pvm_matrix,
    verify_covariance,
)
from covpom.grids import symmetric_grid
from covpom.hilbert import (
    RectCell,
    check_pom_axioms,
    make_state,
    spectral_norm,
)
from covpom.phasespace import (
    finite_weyl_pom,
    finite_weyl_unitaries,
    gaussian_wavefunction,
    hermite_wavefunction,
    margins_of_GT,
    phase_space_cell_norm,
    resolution_of_identity_defect,
)
from covpom.posmom import (
    ProbMeasure1D,
    RESOLUTION_BOUND,
    SmearedObservable,
    distribution,
    regular_decomposition,
    resolution_limit,
    sharpness_test,
    uncertainty_product,
)
from oracles import coset_representatives

GAUSSIAN_GAMMA = 2 * normal.ppf(0.75)


def announce(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} {detail}")


def equal_boundaries(k):
    return np.linspace(0.0, 2 * np.pi, k + 1)


def constant_pair_vectors(d):
    return {(i, j): np.array([1.0 + 0j]) for i in range(d) for j in range(d)}


def abelian_test_systems():
    """The three groups of the axiom suite with a uniform one-block rep."""
    systems = []
    for moduli, gen in [((2,), (1,)), ((4,), (2,)), ((2, 2), (1, 1))]:
        g = FiniteAbelianGroup(moduli)
        rep = DiagonalRep(
            g, (RepBlock.from_mapping({x: 1.0 for x in g.elements()}, 1),)
        )
        sub = Subgroup.from_generators(g, [gen])
        systems.append((g, sub, rep))
    return systems


def low_rank_state_gap(t1, t2):
    """Spectral norm of t1.op - t2.op from the factors (rank-compressed)."""
    stack = np.concatenate([t1.vectors, t2.vectors]).T
    cs = np.concatenate([t1.weights, -t2.weights])
    q, _ = np.linalg.qr(stack)
    a = q.conj().T @ stack
    m = (a * cs) @ a.conj().T
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def random_low_rank_state(grid, rng, max_rank=3, n_modes=6):
    modes = [hermite_wavefunction(grid, k) for k in range(n_modes)]
    rank = int(rng.integers(1, max_rank + 1))
    pairs = []
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    for w in weights:
        coeff = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        pairs.append((float(w), sum(c * m for c, m in zip(coeff, modes))))
    return make_state(pairs)


def test_criterion_01_pom_axiom_suite():
    t0 = time.perf_counter()
    failures = []
    for d in (2, 3, 8):
        for cells in (4, 8, 16):
            pom = phase_pom(canonical_phase_vectors(d), equal_boundaries(cells))
            rep = check_pom_axioms(pom, 1e-10)
            if not rep.passed:
                failures.append(("phase", d, cells, rep))
    for d in (2, 3):
        pom = phase_difference_pom(d, constant_pair_vectors(d), equal_boundaries(6))
        rep = check_pom_axioms(pom, 1e-10)
        if not rep.passed:
            failures.append(("phase-diff", d, rep))
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        pom = finite_weyl_pom(d, make_state([(1.0, vec)]))
        rep = check_pom_axioms(pom, 1e-10)
        if not rep.passed:
            failures.append(("finite-weyl", d, rep))
    for g, sub, rep_obj in abelian_test_systems():
        for seed in range(20):
            fam = random_isometries(rep_obj, 2, np.random.default_rng(seed))
            pom = build_covariant_pom(rep_obj, sub, fam)
            rep = check_pom_axioms(pom, 1e-10)
            if not rep.passed:
                failures.append(("abelian", g.moduli, seed, rep))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    announce(1, "pom-axiom-suite", ok, f"(failures={failures}, {elapsed:.2f}s < 10s)")
    assert not failures
    assert elapsed < 10.0


def test_criterion_02_covariance_soundness():
    worst_abelian = 0.0
    for g, sub, rep_obj in abelian_test_systems():
        unitaries = diagonal_unitaries(rep_obj)
        action = coset_action(g, sub)
        for seed in range(20):
            fam = random_isometries(rep_obj, 2, np.random.default_rng(seed))
            pom = build_covariant_pom(rep_obj, sub, fam)
            cov = verify_covariance(pom, unitaries, action, 1e-10)
            worst_abelian = max(worst_abelian, cov.max_defect)
            assert cov.passed, cov
    worst_weyl = 0.0
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        pom = finite_weyl_pom(d, make_state([(1.0, vec)]))
        unitaries = finite_weyl_unitaries(d)
        action = coset_action(unitaries.group, Subgroup.trivial(unitaries.group))
        cov = verify_covariance(pom, unitaries, action, 1e-13)
        worst_weyl = max(worst_weyl, cov.max_defect)
        assert cov.passed, cov
    ok = worst_abelian <= 1e-10 and worst_weyl <= 1e-13
    announce(
        2,
        "covariance-soundness",
        ok,
        f"(abelian defect {worst_abelian:.2e} <= 1e-10, weyl {worst_weyl:.2e} <= 1e-13)",
    )
    assert ok


def test_criterion_03_sigma_and_translated_pvm():
    worst_unitary = 0.0
    worst_intertwine = 0.0
    worst_pvm = 0.0
    rng = np.random.default_rng(2)
    for moduli, gen in [((4,), (2,)), ((6,), (3,))]:
        g = FiniteAbelianGroup(moduli)
        sub = Subgroup.from_generators(g, [gen])
        sig = sigma_matrix(g, sub)
        worst_unitary = max(
            worst_unitary,
            float(np.linalg.norm(sig.conj().T @ sig - np.eye(sig.shape[1]), 2)),
        )
        for a in g.elements():
            lam = induced_translation_matrix(g, sub, a)
            big = dual_translation_matrix(g, a)
            worst_intertwine = max(
                worst_intertwine, float(np.linalg.norm(sig @ lam - big @ sig, 2))
            )
        reps = coset_representatives(g, sub)
        from covpom.abelian import annihilator

        dual_reps = coset_representatives(g, annihilator(g, sub))
        for _ in range(5):
            omega = {c: rng.uniform() for c in reps}
            mat = translated_pvm_matrix(omega, g, sub)
            diag = np.diag([omega[c] for _ in dual_reps for c in reps])
            worst_pvm = max(
                worst_pvm,
                float(np.linalg.norm(mat - sig @ diag @ sig.conj().T, 2)),
            )
    ok = max(worst_unitary, worst_intertwine, worst_pvm) <= 1e-10
    announce(
        3,
        "sigma-unitarity-intertwining",
        ok,
        f"(unitary {worst_unitary:.2e}, intertwine {worst_intertwine:.2e}, "
        f"pvm {worst_pvm:.2e}; all <= 1e-10)",
    )
    assert ok


def test_criterion_04_gaussian_margin_closed_forms():
    t0 = time.perf_counter()
    grid = symmetric_grid(4096, 20.0)
    x = grid.positions()
    p = grid.momenta()
    worst_rel = 0.0
    for a, b in [(0.5, 0.0), (1.0, 1.0)]:
        t = make_state([(1.0, gaussian_wavefunction(grid, a=a, b=b))])
        rho, nu = margins_of_GT(t, grid)
        e_exact = np.sqrt(2 * a / np.pi) * np.exp(-2 * a * x**2)
        sel = e_exact >= 1e-9 * e_exact.max()
        worst_rel = max(
            worst_rel, float(np.max(np.abs(rho.density[sel] / e_exact[sel] - 1.0)))
        )
        scale = a / (2 * np.pi * (a**2 + b**2))
        f_exact = np.sqrt(scale) * np.exp(-a * p**2 / (2 * (a**2 + b**2)))
        self_sel = f_exact >= 1e-9 * f_exact.max()
        worst_rel = max(
            worst_rel,
            float(np.max(np.abs(nu.density[self_sel] / f_exact[self_sel] - 1.0))),
        )
    t1 = make_state([(1.0, gaussian_wavefunction(grid, a=1.0, b=1.0))])
    t2 = make_state([(1.0, gaussian_wavefunction(grid, a=1.0, b=-1.0))])
    r1, n1 = margins_of_GT(t1, grid)
    r2, n2 = margins_of_GT(t2, grid)
    margin_gap = max(
        float(np.max(np.abs(r1.density - r2.density))),
        float(np.max(np.abs(n1.density - n2.density))),
    )
    state_gap = low_rank_state_gap(t1, t2)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and margin_gap <= 1e-9 and state_gap > 0.1 and elapsed < 30
    announce(
        4,
        "gaussian-margin-closed-forms",
        ok,
        f"(rel {worst_rel:.2e} <= 1e-6, b-flip gap {margin_gap:.2e} <= 1e-9, "
        f"state gap {state_gap:.3f} > 0.1, {elapsed:.2f}s < 30s)",
    )
    assert ok


def test_criterion_05_uncertainty_equality_and_sweep():
    grid = symmetric_grid(1024, 20.0)
    ground = make_state([(1.0, gaussian_wavefunction(grid, a=0.5))])
    rho, nu = margins_of_GT(ground, grid)
    min_product = uncertainty_product(ground, rho, nu, grid)
    var_measure_product = rho.variance() * nu.variance()
    rng = np.random.default_rng(5)
    sweep_min = math.inf
    for _ in range(50):
        t = random_low_rank_state(grid, rng)
        r, n = margins_of_GT(t, grid)
        coeff = rng.normal(size=6) + 1j * rng.normal(size=6)
        vals = sum(c * hermite_wavefunction(grid, k) for k, c in enumerate(coeff))
        s = make_state([(1.0, vals)])
        rep = uncertainty_product(s, r, n, grid)
        sweep_min = min(sweep_min, rep.product)
    ok = (
        abs(min_product.product - 1.0) <= 1e-3
        and abs(var_measure_product - 0.25) <= 1e-4
        and sweep_min >= 1.0 - 1e-3
    )
    announce(
        5,
        "uncertainty-equality-case",
        ok,
        f"(equality product {min_product.product:.6f} = 1 +- 1e-3, "
        f"Var(rho)Var(nu) {var_measure_product:.6f} = 1/4 +- 1e-4, "
        f"sweep min {sweep_min:.4f} >= 1 - 1e-3)",
    )
    assert ok


def test_criterion_06_resolution_bound():
    grid = symmetric_grid(1024, 20.0)
    rng = np.random.default_rng(6)
    min_product = math.inf
    for _ in range(100):
        t = random_low_rank_state(grid, rng)
        rho, nu = margins_of_GT(t, grid)
        g1 = resolution_limit(rho).gamma
        g2 = resolution_limit(nu).gamma
        min_product = min(min_product, g1 * g2)
    bench_gamma = resolution_limit(ProbMeasure1D.gaussian(grid, sigma=1.0)).gamma
    ok = (
        min_product >= RESOLUTION_BOUND - 1e-3
        and abs(bench_gamma - GAUSSIAN_GAMMA) <= 1e-4
    )
    announce(
        6,
        "resolution-product-bound",
        ok,
        f"(min product {min_product:.5f} >= {RESOLUTION_BOUND:.6f} - 1e-3, "
        f"benchmark gamma {bench_gamma:.6f} vs {GAUSSIAN_GAMMA:.6f} +- 1e-4)",
    )
    assert ok


def test_criterion_07_sharpness_classification():
    grid = symmetric_grid(512, 16.0)
    rng = np.random.default_rng(7)
    all_agree = True
    rep = sharpness_test(ProbMeasure1D.point(2.5))
    all_agree &= rep.sharp and rep.agrees and rep.location == pytest.approx(2.5)
    non_sharp_ok = 0
    for k in range(20):
        if k % 2 == 0:
            m = ProbMeasure1D.gaussian(
                grid, mean=rng.uniform(-2, 2), sigma=rng.uniform(0.3, 1.5)
            )
        else:
            m = ProbMeasure1D.uniform(
                grid, -1 - rng.uniform(0, 2), 1 + rng.uniform(0, 2)
            )
        rep = sharpness_test(m)
        if (not rep.sharp) and rep.agrees and not rep.norm_condition_holds:
            non_sharp_ok += 1
    ok = all_agree and non_sharp_ok == 20
    announce(
        7,
        "sharpness-dilation-equivalences",
        ok,
        f"(point mass sharp, {non_sharp_ok}/20 non-atomic classified non-sharp, "
        "norm condition agreed in every case)",
    )
    assert ok


def half_atom_plus(lam):
    """The equal mixture of an atom at 0 and a grid measure without atoms."""
    return ProbMeasure1D(atoms=((0.0, 0.5),), grid=lam.grid, density=0.5 * lam.density)


def test_criterion_08_regularity_structure():
    grid = symmetric_grid(512, 16.0)
    rng = np.random.default_rng(8)
    corpus = []
    for _ in range(10):
        corpus.append(
            (ProbMeasure1D.gaussian(grid, rng.uniform(-1, 1), rng.uniform(0.3, 1.0)), False)
        )
    for k in range(8):
        lam = ProbMeasure1D.uniform(grid, -1.0 - 0.2 * k, 1.0 + 0.1 * k)
        m = half_atom_plus(lam)
        corpus.append((m, True))
    for k in range(4):
        lam = ProbMeasure1D.gaussian(grid, mean=0.0, sigma=0.4 + 0.1 * k)
        m = half_atom_plus(lam)
        corpus.append((m, True))
    for k in range(4):
        lam = ProbMeasure1D.uniform(grid, 2.0 + k, 4.0 + k)
        m = half_atom_plus(lam)
        corpus.append((m, False))
    corpus.append((ProbMeasure1D.point(0.3), True))
    corpus.append((ProbMeasure1D.point(-1.1), True))
    for k in range(2):
        corpus.append(
            (ProbMeasure1D(atoms=((0.0, 0.5), (3.0 + k, 0.5))), False)
        )
    assert len(corpus) == 30
    mismatches = []
    for i, (measure, expect_regular) in enumerate(corpus):
        dec = regular_decomposition(measure)
        gamma = resolution_limit(measure).gamma
        if (dec is not None) != expect_regular or (gamma <= 1e-5) != expect_regular:
            mismatches.append((i, dec is not None, gamma))
    ok = not mismatches
    announce(
        8,
        "regularity-structure",
        ok,
        f"(30-measure corpus, decomposition <=> gamma = 0; mismatches={mismatches})",
    )
    assert ok


def test_criterion_09_no_sharp_covariant_phase():
    defects = {}
    for d in (2, 3, 8):
        pom = phase_pom(canonical_phase_vectors(d), equal_boundaries(2))
        _, defect = sharp_phase_witness(pom)
        defects[d] = defect
    ok = all(v > 0.05 for v in defects.values())
    announce(
        9,
        "no-sharp-covariant-phase",
        ok,
        "(projection defects "
        + ", ".join(f"d={d}: {v:.4f}" for d, v in defects.items())
        + " all > 0.05)",
    )
    assert ok


def test_criterion_10_norm_bound_and_resolution_of_identity():
    grid = symmetric_grid(512, 16.0)
    t = make_state([(1.0, gaussian_wavefunction(grid))])
    # Ground-state T = |h0><h0|: the capture <h0|G_T|h0> = erf(h/sqrt 2)^2
    # bounds the norm from below; [-h,h]^2 lies in the disk of radius
    # h sqrt 2, whose effect is diagonal in the Fock basis with top
    # eigenvalue 1 - exp(-h^2), which bounds it from above.
    tol = 1e-12
    brackets = {}
    for half in (0.5, 1.5, 2.5, 5.0):
        cell = RectCell(-half, half, -half, half)
        norm = phase_space_cell_norm(t, cell, grid, order=16)
        lower = math.erf(half / math.sqrt(2)) ** 2
        upper = 1.0 - math.exp(-half**2)
        brackets[half] = (lower, norm, upper)
    roi_grid = symmetric_grid(512, 20.0)
    t_roi = make_state([(1.0, gaussian_wavefunction(roi_grid))])
    roi = resolution_of_identity_defect(
        t_roi, roi_grid, half_width=20.0, n_test=12, order=16
    )
    in_bracket = all(
        lower - tol <= norm <= upper + tol for lower, norm, upper in brackets.values()
    )
    below_one = all(upper + tol < 1.0 for _, _, upper in brackets.values())
    roi_ok = roi.defect <= 1e-3
    announce(
        10,
        "bounded-cell-norm-and-identity-resolution",
        in_bracket and below_one and roi_ok,
        "(norms "
        + ", ".join(
            f"[-{h},{h}]^2: {lower:.9f} <= {norm:.9f} <= {upper:.12f}"
            for h, (lower, norm, upper) in brackets.items()
        )
        + f" +- {tol:.0e}, all upper bounds < 1; "
        f"roi defect {roi.defect:.2e} <= 1e-3)",
    )
    assert roi_ok
    assert below_one, brackets
    assert in_bracket, brackets


def test_criterion_11_injectivity():
    grid = symmetric_grid(1024, 20.0)
    witness = make_state([(1.0, gaussian_wavefunction(grid))])
    bounds = np.arange(-5.0, 5.25, 0.5)
    pairs = []
    for k in range(5):
        pairs.append(
            (
                ProbMeasure1D.gaussian(grid, 0.0, 1.0),
                ProbMeasure1D.gaussian(grid, 0.05 + 0.05 * k, 1.0),
            )
        )
    for k in range(3):
        pairs.append(
            (
                ProbMeasure1D.gaussian(grid, 0.0, 0.5 + 0.2 * k),
                ProbMeasure1D.gaussian(grid, 0.0, 0.6 + 0.2 * k),
            )
        )
    pairs.append((ProbMeasure1D.point(0.0), ProbMeasure1D.gaussian(grid, 0.0, 0.3)))
    pairs.append(
        (
            ProbMeasure1D(atoms=((0.0, 0.5), (1.0, 0.5))),
            ProbMeasure1D(atoms=((0.0, 0.45), (1.0, 0.55))),
        )
    )
    assert len(pairs) == 10
    min_gap = math.inf
    for m1, m2 in pairs:
        d1 = distribution(witness, SmearedObservable("position", m1, grid), bounds)
        d2 = distribution(witness, SmearedObservable("position", m2, grid), bounds)
        min_gap = min(min_gap, float(np.max(np.abs(d1 - d2))))
    rng = np.random.default_rng(11)
    weyl_min_gap = math.inf
    d = 3
    for _ in range(20):
        v1 = rng.normal(size=d) + 1j * rng.normal(size=d)
        v2 = rng.normal(size=d) + 1j * rng.normal(size=d)
        p1 = finite_weyl_pom(d, make_state([(1.0, v1)]))
        p2 = finite_weyl_pom(d, make_state([(1.0, v2)]))
        gap = max(
            spectral_norm(e1 - e2)
            for e1, e2 in zip(p1.effects, p2.effects)
        )
        weyl_min_gap = min(weyl_min_gap, gap)
    ok = min_gap > 1e-6 and weyl_min_gap > 0
    announce(
        11,
        "injectivity",
        ok,
        f"(smeared statistics min gap {min_gap:.2e} > 1e-6, "
        f"finite-weyl min effect gap {weyl_min_gap:.2e} > 0)",
    )
    assert ok
