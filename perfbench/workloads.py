"""Seeded job lists for the three workloads.

A workload is a fixed list of job slots.  The slots fix everything that
sets a job's cost (subcommand, grid size, state rank, group, dimension), so
every seed yields the same mix of work; the seed draws only the physics
inside each slot (widths, chirps, centres, Fock indices, weights, square
placements, block supports, isometry seeds) and the covariance samples the
checks use.  The program receives only the files and arguments made here.

Every job carries its check: a closed form or a property of the exact
mathematics from ``checks``.  A job with ``known_fault`` set is expected
to fail its check because of a recorded fault in the program.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import checks

WORKLOADS = ("grid", "cells", "groups")

# The phasespace margins of an equal mixture of Gaussians at -0.5 and +0.5
# come out wrong because state_from_wavefunctions Gram-Schmidts the
# components instead of mixing them (see the FOUND line in CHANGES.md).
MIXTURE_FAULT = "non-orthogonal mixture built by Gram-Schmidt (state_from_wavefunctions)"


@dataclass
class Job:
    kind: str
    size: int
    argv: Optional[list]  # CLI arguments, or None for a library job
    check: Callable  # check(outcome) -> value or None; raises checks.Mismatch
    call: Optional[Callable] = None  # library job: call(covpom modules) -> result
    out: Optional[str] = None
    inputs: tuple = ()
    known_fault: Optional[str] = None
    inside: Optional["Job"] = None  # the job whose square nests in this one's
    needs: Optional["Job"] = None  # the job that writes this one's input


@dataclass
class Outcome:
    rc: Optional[int] = None
    stdout: str = ""
    result: object = None
    report: dict = field(default_factory=dict)


class Inputs:
    """Writes the generated input files of one process into its work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str, ext: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:03d}-{stem}.{ext}")

    def write(self, stem: str, obj) -> str:
        path = self.path(stem, "json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path


def make_jobs(workload: str, seed: int, workdir: str) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    units = []
    for job in JOB_LISTS[workload](rng, Inputs(workdir)):
        if job.needs is not None:
            units[-1].append(job)  # a reader runs right after its writer
        else:
            units.append([job])
    # One fixed interleaving, the same for every seed, so heavy and light
    # jobs alternate the same way in every run.
    order = np.random.default_rng(WORKLOADS.index(workload)).permutation(len(units))
    return [job for i in order for job in units[int(i)]]


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# --- grid: dense state construction, bisection and Fourier sums ---------------

GRID_WINDOW = 20.0  # the CLI's default half width


def _grid_step(n: int) -> float:
    return 2 * GRID_WINDOW / n


def _momentum_step(n: int) -> float:
    return 2 * math.pi / (n * _grid_step(n))


def gaussian_spec(rng) -> dict:
    return {"kind": "gaussian", "a": _u(rng, 0.35, 1.5), "b": _u(rng, -0.8, 0.8),
            "center": _u(rng, -2, 2), "momentum": _u(rng, -2, 2)}


def fock_spec(rng, kmax: int = 4) -> dict:
    return {"kind": "fock", "k": int(rng.integers(0, kmax + 1))}


def fock_mixture_spec(rng, rank: int, kmax: int = 4) -> dict:
    ks = sorted(int(k) for k in rng.choice(kmax + 1, size=rank, replace=False))
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    return {"kind": "mixture", "components": [
        {"weight": float(w), "state": {"kind": "fock", "k": k}} for w, k in zip(weights, ks)
    ]}


def measure_spec(rng, kind: str) -> dict:
    if kind == "gaussian":
        return {"kind": "gaussian", "mean": _u(rng, -1, 1), "sigma": _u(rng, 0.4, 1.6)}
    if kind == "uniform":
        lo = _u(rng, -3, -0.5)
        return {"kind": "uniform", "lo": lo, "hi": lo + _u(rng, 1, 4)}
    return {"kind": "point", "t": _u(rng, -2, 2)}


def _margins(inp, t_spec, n, known_fault=None) -> Job:
    t = inp.write("t", t_spec)
    out = inp.path("margins", "json")

    def check(o):
        with open(out) as fh:
            checks.check_margins(o.report, json.load(fh), t_spec)

    return Job("phasespace margins", n,
                       ["phasespace", "margins", "--t", t, "--grid-n", str(n), "--out", out],
                       check, out=out, inputs=(t,), known_fault=known_fault)


def _uncertainty(inp, s_spec, t_spec, n) -> Job:
    s, t = inp.write("s", s_spec), inp.write("t", t_spec)
    return Job(
        "check uncertainty", n,
        ["check", "uncertainty", "--state", s, "--pairs-from", t, "--grid-n", str(n)],
        lambda o: checks.check_uncertainty(o.report, s_spec, t_spec,
                                           _grid_step(n), _momentum_step(n)),
        inputs=(s, t))


def _gamma(inp, m_spec, n) -> Job:
    m = inp.write("m", m_spec)
    return Job("smeared gamma", n,
                       ["smeared", "gamma", "--measure", m, "--grid-n", str(n)],
                       lambda o: checks.check_gamma(o.report, m_spec, _grid_step(n)),
                       inputs=(m,))


def _distribution(inp, psi_spec, m_spec, n) -> Job:
    psi, m = inp.write("psi", psi_spec), inp.write("m", m_spec)
    out = inp.path("distribution", "csv")
    return Job(
        "smeared distribution", n,
        ["smeared", "distribution", "--measure", m, "--state", psi, "--grid-n", str(n),
         "--out", out],
        lambda o: checks.check_distribution(o.report, checks.read_csv_rows(out),
                                            psi_spec, m_spec, _grid_step(n)),
        out=out, inputs=(psi, m))


def _sharpness(inp, m_spec, n) -> Job:
    m = inp.write("m", m_spec)
    return Job("smeared sharpness", n,
                       ["smeared", "sharpness", "--measure", m, "--grid-n", str(n)],
                       lambda o: checks.check_sharpness(o.report, m_spec), inputs=(m,))


def _compare(inp, rng, n) -> Job:
    wide = _u(rng, 1.0, 1.6)
    narrow = wide * _u(rng, 0.4, 0.65)
    sigmas = (wide, narrow) if rng.random() < 0.5 else (narrow, wide)
    specs = [{"kind": "gaussian", "mean": _u(rng, -1, 1), "sigma": s} for s in sigmas]
    m1, m2 = inp.write("m", specs[0]), inp.write("m", specs[1])
    return Job(
        "smeared compare", n,
        ["smeared", "compare", "--measure", m1, "--measure2", m2, "--grid-n", str(n)],
        lambda o: checks.check_compare(o.report, *sigmas), inputs=(m1, m2))


def _grid_jobs(rng, inp) -> list:
    """33 jobs: the median lands among the 9 distribution jobs, the p90
    among the 6 uncertainty jobs at n = 2048."""
    jobs = []
    for kind in ("point", "gaussian", "uniform"):
        jobs.append(_sharpness(inp, measure_spec(rng, kind), 2048))
    for kind, n in (("gaussian", 1024), ("uniform", 1024), ("gaussian", 2048),
                    ("uniform", 4096)):
        jobs.append(_gamma(inp, measure_spec(rng, kind), n))
    for t_spec in (gaussian_spec(rng), fock_spec(rng), fock_mixture_spec(rng, 2),
                   fock_mixture_spec(rng, 3)):
        jobs.append(_margins(inp, t_spec, 1024))
    fault = {"kind": "mixture", "components": [
        {"weight": 0.5, "state": {"kind": "gaussian", "a": 0.5, "center": c}}
        for c in (-0.5, 0.5)
    ]}
    jobs.append(_margins(inp, fault, 1024, known_fault=MIXTURE_FAULT))
    for _ in range(9):
        jobs.append(_distribution(inp, gaussian_spec(rng), measure_spec(rng, "gaussian"), 2048))
    jobs.append(_gamma(inp, measure_spec(rng, "gaussian"), 16384))
    jobs.append(_compare(inp, rng, 1024))
    for rank in (2, 3):
        jobs.append(_uncertainty(inp, fock_mixture_spec(rng, rank), gaussian_spec(rng), 1024))
    for i in range(6):
        s_spec = gaussian_spec(rng) if i % 2 == 0 else fock_spec(rng)
        jobs.append(_uncertainty(inp, s_spec, gaussian_spec(rng), 2048))
    jobs.append(_compare(inp, rng, 2048))
    jobs.append(_uncertainty(inp, gaussian_spec(rng), gaussian_spec(rng), 4096))
    return jobs


# --- cells: phase-space quadrature ---------------------------------------------

CELL_WINDOW = 16.0


def displaced_ground_spec(rng) -> tuple:
    shift = (_u(rng, -2, 2), _u(rng, -2, 2))
    spec = {"kind": "gaussian", "a": 0.5, "center": shift[0], "momentum": shift[1]}
    return spec, shift


def _norm(t_path, t_spec, centre, h, n, inside=None) -> Job:
    q0, p0 = centre
    cell = f"{q0 - h!r},{q0 + h!r},{p0 - h!r},{p0 + h!r}"
    return Job(
        "phasespace norm", n,
        ["phasespace", "norm", "--t", t_path, "--grid-n", str(n),
         "--window", str(CELL_WINDOW), f"--cell={cell}"],
        lambda o: checks.check_cell_norm(o.report, t_spec, h),
        inputs=(t_path,), inside=inside)


def _roi(inp, t_spec, n) -> Job:
    t = inp.write("t", t_spec)
    return Job("phasespace roi", n,
                       ["phasespace", "roi", "--t", t, "--grid-n", str(n)],
                       lambda o: checks.check_roi(o.report), inputs=(t,))


def _density(inp, t_spec, shift, rng, n) -> Job:
    probe = (_u(rng, -2, 2), _u(rng, -2, 2))
    s_spec = {"kind": "gaussian", "a": 0.5, "center": probe[0], "momentum": probe[1]}
    t, s = inp.write("t", t_spec), inp.write("s", s_spec)
    out = inp.path("density", "csv")
    return Job(
        "phasespace density", n,
        ["phasespace", "density", "--t", t, "--s", s, "--grid-n", str(n),
         "--window", str(CELL_WINDOW), "--samples", "41", "--out", out],
        lambda o: checks.check_density(o.report, checks.read_csv_rows(out),
                                       t_spec, shift, probe),
        out=out, inputs=(t, s))


def _cells_jobs(rng, inp) -> list:
    """32 jobs: the median lands among the 8 norms at n = 512, h = 0.5, the
    p90 among the 5 jobs of about 0.45 s (norms at n = 1024, h = 0.5, the
    roi at n = 512 and the rank-3 norm at h = 2.5)."""
    jobs = []

    def centre():
        return (_u(rng, -3, 3), _u(rng, -3, 3))

    def ground_norm(n, h):
        spec, _ = displaced_ground_spec(rng)
        jobs.append(_norm(inp.write("t", spec), spec, centre(), h, n))

    # Nested squares around one centre for a Fock mixture: the norm must grow.
    for n, rank, hs in ((256, 2, (0.5, 1.5, 2.5)), (512, 3, (1.5, 2.5))):
        spec = fock_mixture_spec(rng, rank, kmax=3)
        path, c, inside = inp.write("t", spec), centre(), None
        for h in hs:
            jobs.append(_norm(path, spec, c, h, n, inside=inside))
            inside = jobs[-1]
    for n, h, count in ((256, 0.5, 2), (256, 1.5, 1), (512, 0.5, 8), (512, 1.5, 4),
                        (1024, 0.5, 3), (1024, 2.5, 1)):
        for _ in range(count):
            ground_norm(n, h)
    for n in (256, 256, 512):
        spec, _ = displaced_ground_spec(rng)
        jobs.append(_roi(inp, {**spec, "center": spec["center"] / 2,
                               "momentum": spec["momentum"] / 2}, n))
    jobs.append(_roi(inp, fock_mixture_spec(rng, 2, kmax=3), 256))
    for _ in range(2):
        spec, shift = displaced_ground_spec(rng)
        jobs.append(_density(inp, spec, shift, rng, 256))
    for n, rank in ((256, 2), (512, 3)):
        jobs.append(_density(inp, fock_mixture_spec(rng, rank, kmax=3), (0.0, 0.0), rng, n))
    return jobs


# --- groups: finite groups, axiom checks and JSON codecs ----------------------


def _closure(moduli, generators) -> list:
    seen = {tuple(0 for _ in moduli)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def _samples(rng, moduli, count=3) -> list:
    return [tuple(int(rng.integers(0, m)) for m in moduli) for _ in range(count)]


def _abelian(inp, rng, moduli, generators, blocks, out: bool) -> Job:
    """An abelian-pom job on a seeded bundle; blocks are (support size, mult)."""
    points = list(itertools.product(*[range(m) for m in moduli]))
    chosen = [points[int(i)] for i in rng.permutation(len(points))]
    rep_blocks, basis, start = [], [], 0
    for size, mult in blocks:
        support = sorted(chosen[start:start + size])
        start += size
        rep_blocks.append({"weights": {",".join(map(str, x)): _u(rng, 0.5, 2.0)
                                       for x in support}, "mult": mult})
        basis.extend(x for x in support for _ in range(mult))
    bundle = inp.write("bundle", {
        "rep": {"moduli": list(moduli), "blocks": rep_blocks},
        "subgroup": {"moduli": list(moduli), "generators": [list(g) for g in generators]},
    })
    sub = _closure(moduli, generators)
    samples = _samples(rng, moduli)
    path = inp.path("pom", "json") if out else None
    argv = ["abelian-pom", "--in", bundle, "--seed", str(int(rng.integers(0, 2**31)))]

    def check(o):
        checks.check_axioms_report(o.report, 1e-10)
        if path:
            labels, effects = checks.load_pom(path)
            checks.check_abelian_pom(labels, effects, tuple(moduli), sub, basis, samples)

    return Job("abelian-pom", len(basis), argv + (["--out", path] if path else []), check,
               out=path, inputs=(bundle,))


def _check_pom(writer: Job) -> Job:
    return Job("check pom", writer.size, ["check", "pom", "--in", writer.out],
                       lambda o: checks.check_axioms_report(o.report, 1e-10),
                       inputs=(writer.out,), needs=writer)


def _finite_weyl(inp, rng, d) -> Job:
    raw = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    vecs, _ = np.linalg.qr(raw)
    w = _u(rng, 0.55, 0.9)
    weights = (w, 1.0 - w)
    state = inp.write("state", {"spectral": [
        {"weight": wt, "vector": [[float(z.real), float(z.imag)] for z in vecs[:, i]]}
        for i, wt in enumerate(weights)
    ]})
    t_op = sum(wt * np.outer(vecs[:, i], vecs[:, i].conj()) for i, wt in enumerate(weights))
    out = inp.path("weyl", "json")
    samples = _samples(rng, (d, d))

    def check(o):
        checks.check_axioms_report(o.report, o.report["tolerance"])
        labels, effects = checks.load_pom(out)
        checks.check_finite_weyl(labels, effects, t_op, samples)

    return Job("finite-weyl", d,
                       ["finite-weyl", "--dim", str(d), "--state", state, "--out", out],
                       check, out=out, inputs=(state,))


def _phase(inp, dim, cells) -> Job:
    out = inp.path("phase", "json")

    def check(o):
        _, effects = checks.load_pom(out)
        checks.check_phase_pom(o.report, effects, cells)

    return Job("phase", dim,
                       ["phase", "--dim", str(dim), "--cells", str(cells), "--out", out],
                       check, out=out)


def _phase_diff(dim, cells) -> Job:
    return Job("phase-diff", dim,
                       ["phase-diff", "--dim", str(dim), "--cells", str(cells)],
                       lambda o: checks.check_axioms_report(o.report, 1e-10))


def _sigma(moduli, generators) -> Job:
    def call(mods):
        group = mods["abelian"].FiniteAbelianGroup(tuple(moduli))
        sub = mods["abelian"].Subgroup.from_generators(group, [tuple(g) for g in generators])
        return mods["abelian"].sigma_matrix(group, sub)

    return Job("sigma_matrix", math.prod(moduli), None,
               lambda o: checks.check_unitary(o.result), call=call)


def _pvm(rng, moduli, generators) -> Job:
    n_cosets = math.prod(moduli) // len(_closure(moduli, generators))
    chosen = rng.permutation(n_cosets)[: max(1, n_cosets // 3)]
    omega = [1.0 if i in set(chosen.tolist()) else 0.0 for i in range(n_cosets)]
    rank = int(sum(omega)) * len(_closure(moduli, generators))

    def call(mods):
        group = mods["abelian"].FiniteAbelianGroup(tuple(moduli))
        sub = mods["abelian"].Subgroup.from_generators(group, [tuple(g) for g in generators])
        return mods["abelian"].translated_pvm_matrix(omega, group, sub)

    return Job("translated_pvm_matrix", math.prod(moduli), None,
               lambda o: checks.check_projection(o.result, rank), call=call)


def _groups_jobs(rng, inp) -> list:
    """43 jobs: the median lands among the 18 small abelian-pom jobs without
    output, the p90 among the 7 on Z8 x Z8 of dimension 32 with output,
    whose cost is mostly the covariance sweep."""
    jobs = []
    slots = [
        ((12,), [(4,)], [(6, 2)], False),
        ((6, 2), [(3, 1)], [(4, 1), (3, 2)], False),
    ]
    slots += [((4, 4), gens, blocks, False)
              for gens in ([(2, 2)], [(0, 2)], [(2, 0)])
              for blocks in ([(6, 3)], [(8, 2)], [(6, 2), (4, 1)])]
    slots += [((6, 2), [(2, 0)], [(9, 2)], False), ((12,), [(6,)], [(6, 3)], False),
              ((12,), [(3,)], [(8, 2)], False), ((6, 2), [(0, 1)], [(6, 3)], False),
              ((6, 2), [(3, 0)], [(9, 2)], False), ((12,), [(4,)], [(9, 2)], False),
              ((6, 2), [(0, 1)], [(8, 2)], False)]
    slots += [((4, 4), [(2, 2)], [(8, 2), (4, 1)], True)]
    slots += [((4, 4, 2), [(2, 0, 1)], [(16, 2)], out) for out in (True, False)]
    slots += [((8, 8), [(4, 0), (0, 4)], [(12, 2), (8, 1)], True)] * 7
    checked = 0
    for moduli, gens, blocks, out in slots:
        job = _abelian(inp, rng, moduli, gens, blocks, out)
        jobs.append(job)
        if job.out and checked < 3:
            jobs.append(_check_pom(job))
            checked += 1
    for d in (4, 4, 8, 12):
        jobs.append(_finite_weyl(inp, rng, d))
    for dim, cells in ((16, 8), (32, 16)):
        jobs.append(_phase(inp, dim, cells))
    for dim, cells in ((6, 6), (12, 4)):
        jobs.append(_phase_diff(dim, cells))
    for moduli, gens in (((8, 8), [(4, 4)]), ((16, 16), [(8, 8), (0, 4)])):
        jobs.append(_sigma(moduli, gens))
        jobs.append(_pvm(rng, moduli, gens))
    return jobs


JOB_LISTS = {"grid": _grid_jobs, "cells": _cells_jobs, "groups": _groups_jobs}
