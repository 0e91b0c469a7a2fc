"""Command-line front end: build observables from JSON specs and run checks.

Every run emits a JSON report with a flat ``checks`` array of
{name, pass, value, bound, witness} entries so CI can diff outcomes.  Exit
codes: 0 all checks pass, 1 a check failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import abelian, io, phasespace, posmom
from .grids import WaveFunction, symmetric_grid
from .hilbert import RectCell, check_pom_axioms
from .posmom import ProbMeasure1D


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _build_grid(args) -> "symmetric_grid":
    return symmetric_grid(args.grid_n, args.window)


def _parse_state(obj, grid):
    """Parametric or explicit state description on the given grid."""
    if "kind" not in obj:
        return io.state_from_json(obj)
    kind = obj["kind"]
    if kind == "gaussian":
        psi = phasespace.gaussian_wavefunction(
            grid,
            a=float(obj.get("a", 0.5)),
            b=float(obj.get("b", 0.0)),
            center=float(obj.get("center", 0.0)),
            momentum=float(obj.get("momentum", 0.0)),
        )
        return phasespace.state_from_wavefunctions([(1.0, psi)])
    if kind == "fock":
        psi = phasespace.hermite_wavefunction(grid, int(obj["k"]))
        return phasespace.state_from_wavefunctions([(1.0, psi)])
    if kind == "mixture":
        subs = [(float(c["weight"]), _parse_state(c["state"], grid)) for c in obj["components"]]
        return phasespace.state_from_wavefunctions([
            (weight * w, WaveFunction(grid, psi)) for weight, sub in subs
            for w, psi in zip(*posmom.grid_wavefunctions(sub, grid))
        ])
    raise InputError(f"unknown state kind {kind!r}")


def _parse_measure(obj, grid) -> ProbMeasure1D:
    if "kind" not in obj:
        return io.measure_from_json(obj)
    kind = obj["kind"]
    if kind == "gaussian":
        return ProbMeasure1D.gaussian(
            grid, float(obj.get("mean", 0.0)), float(obj.get("sigma", 1.0))
        )
    if kind == "uniform":
        return ProbMeasure1D.uniform(grid, float(obj["lo"]), float(obj["hi"]))
    if kind == "point":
        return ProbMeasure1D.point(float(obj["t"]))
    raise InputError(f"unknown measure kind {kind!r}")


class Report:
    def __init__(self, tool: str, tolerance: Optional[float], seed: Optional[int]):
        self.data = {
            "tool": tool,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tolerance": tolerance,
            "seed": seed,
            "checks": [],
        }

    def add(self, name, passed, value=None, bound=None, witness=None):
        self.data["checks"].append(
            {
                "name": name,
                "pass": bool(passed),
                "value": value,
                "bound": bound,
                "witness": witness,
            }
        )

    def finish(self, args) -> int:
        text = json.dumps(self.data, indent=2)
        print(text)
        if getattr(args, "report", None):
            with open(args.report, "w") as fh:
                fh.write(text + "\n")
        return 0 if all(c["pass"] for c in self.data["checks"]) else 1


def _write_json(path, obj):
    # compact, unlike the indented reports: data files are read back, not diffed
    with open(path, "w") as fh:
        fh.write(io.dumps(obj) + "\n")


def _check_and_write_pom(report: Report, pom, args) -> None:
    """Add the pom-axioms check and write the POM to ``--out`` when one is given."""
    ax = check_pom_axioms(pom, args.tol)
    report.add("pom-axioms", ax.passed, ax.normalization_defect, args.tol)
    if args.out:
        _write_json(args.out, io.pom_to_json(pom))


# --- subcommands -------------------------------------------------------------


def cmd_phase(args) -> int:
    rep = Report("phase", args.tol, args.seed)
    h = abelian.canonical_phase_vectors(args.dim)
    bounds = np.linspace(0.0, 2 * np.pi, args.cells + 1)
    pom = abelian.phase_pom(h, bounds)
    _check_and_write_pom(rep, pom, args)
    if args.dim >= 2 and args.cells >= 2:
        cell, defect = abelian.sharp_phase_witness(pom)
        rep.add("no-sharp-phase", defect > 0.05, defect, 0.05, cell.label)
    return rep.finish(args)


def cmd_phase_diff(args) -> int:
    rep = Report("phase-diff", args.tol, args.seed)
    h = {(i, j): np.array([1.0 + 0j]) for i in range(args.dim) for j in range(args.dim)}
    bounds = np.linspace(0.0, 2 * np.pi, args.cells + 1)
    _check_and_write_pom(rep, abelian.phase_difference_pom(args.dim, h, bounds), args)
    return rep.finish(args)


def _covariance_witness(cov: abelian.CovarianceReport) -> str:
    """The worst pair, and the word-length factor L when the check passed on generators."""
    if cov.word_length is None:
        return str(cov.worst)
    return f"{cov.worst} L={cov.word_length}"


def cmd_abelian_pom(args) -> int:
    bundle = _load_json(args.infile)
    rep_obj = io.rep_from_json(bundle["rep"])
    group = rep_obj.group
    sub = io.subgroup_from_json(bundle["subgroup"], parent=group)
    if "isometries" in bundle:
        fam = io.isometries_from_json(bundle["isometries"])
    else:
        rng = np.random.default_rng(args.seed)
        aux = int(bundle.get("aux_dim", max(b.mult for b in rep_obj.blocks)))
        fam = abelian.random_isometries(rep_obj, aux, rng)
    report = Report("abelian-pom", args.tol, args.seed)
    pom = abelian.build_covariant_pom(rep_obj, sub, fam)
    _check_and_write_pom(report, pom, args)
    cov = abelian.verify_covariance(
        pom,
        abelian.diagonal_unitaries(rep_obj),
        abelian.coset_action(group, sub),
        args.tol,
    )
    report.add("covariance", cov.passed, cov.max_defect, args.tol, _covariance_witness(cov))
    return report.finish(args)


def cmd_finite_weyl(args) -> int:
    report = Report("finite-weyl", args.tol, args.seed)
    state = io.state_from_json(_load_json(args.state))
    pom = phasespace.finite_weyl_pom(args.dim, state)
    _check_and_write_pom(report, pom, args)
    cov = abelian.verify_covariance(
        pom,
        phasespace.finite_weyl_unitaries(args.dim),
        phasespace.finite_weyl_action(args.dim),
        args.tol,
    )
    report.add("covariance", cov.passed, cov.max_defect, args.tol, _covariance_witness(cov))
    return report.finish(args)


def cmd_smeared(args) -> int:
    grid = _build_grid(args)
    measure = _parse_measure(_load_json(args.measure), grid)
    report = Report(f"smeared-{args.action}", args.tol, args.seed)
    if args.action == "gamma":
        res = posmom.resolution_limit(
            measure, profile_points=posmom.PROFILE_POINTS if args.out else 0
        )
        report.add("gamma-finite", math.isfinite(res.gamma), res.gamma, None)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("alpha,sup_window_mass\n")
                for a, s in zip(res.alphas, res.sups):
                    fh.write(f"{float(a)!r},{float(s)!r}\n")
    elif args.action == "distribution":
        weights, psis = posmom.grid_wavefunctions(_parse_state(_load_json(args.state), grid), grid)
        if abs(weights.max() - 1.0) > 1e-9:
            raise InputError("distribution action expects a pure state")
        psi = WaveFunction(grid, psis[np.argmax(weights)])
        obs = posmom.SmearedObservable("position", measure, grid)
        edges = np.linspace(-args.window / 2, args.window / 2, args.cells + 1)
        edges[0], edges[-1] = -np.inf, np.inf  # partition of the whole line
        cells = list(zip(edges[:-1], edges[1:]))
        probs = posmom.distribution(psi, obs, cells)
        report.add(
            "distribution-mass", abs(float(probs.sum()) - 1.0) <= 1e-6,
            float(probs.sum()), 1.0,
        )
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("cell_lo,cell_hi,probability\n")
                for (lo, hi), p in zip(cells, probs):
                    fh.write(f"{float(lo)!r},{float(hi)!r},{float(p)!r}\n")
    elif args.action == "sharpness":
        res = posmom.sharpness_test(measure)
        report.add(
            "sharpness-routes-agree",
            res.agrees,
            res.sharp,
            None,
            f"location={res.location}",
        )
    else:  # compare
        other = _parse_measure(_load_json(args.measure2), grid)
        order = posmom.distinction_compare(measure, other, grid=grid)
        report.add("distinction-order", True, order.value, None)
    return report.finish(args)


def cmd_phasespace(args) -> int:
    grid = _build_grid(args)
    t_state = _parse_state(_load_json(args.t), grid)
    report = Report(f"phasespace-{args.action}", args.tol, args.seed)
    if args.action == "density":
        s_state = (
            _parse_state(_load_json(args.s), grid) if args.s else t_state
        )
        half = args.window / 2
        qs = np.linspace(-half, half, args.samples)
        ps = np.linspace(-half, half, args.samples)
        res = phasespace.phase_space_density(t_state, s_state, qs, ps, grid)
        report.add("window-leakage", res.leakage_bound <= 0.01, res.leakage_bound, 0.01)
        report.add("pointwise-positive", float(res.values.min()) >= -1e-9,
                   float(res.values.min()), -1e-9)
        if args.out:
            q_text = [repr(q) for q in qs.tolist()]
            p_text = [f",{p!r}," for p in ps.tolist()]
            lines = [q + p + repr(v) + "\n"
                     for q, row in zip(q_text, res.values.tolist()) for p, v in zip(p_text, row)]
            with open(args.out, "w") as fh:
                fh.write("q,p,value\n" + "".join(lines))
    elif args.action == "margins":
        rho, nu = phasespace.margins_of_GT(t_state, grid)
        report.add("position-margin-mass", True, rho.total_mass(), None)
        report.add("momentum-margin-mass", True, nu.total_mass(), None)
        report.add("variance-product-bound",
                   rho.variance() * nu.variance() >= 0.25 - 1e-4,
                   rho.variance() * nu.variance(), 0.25)
        if args.out:
            _write_json(
                args.out,
                {"position": io.measure_to_json(rho), "momentum": io.measure_to_json(nu)},
            )
    elif args.action == "roi":
        res = phasespace.resolution_of_identity_defect(
            t_state, grid, half_width=args.window / 2,
            n_test=args.n_test, order=args.quad_order,
        )
        report.add("resolution-of-identity", res.defect <= args.tol, res.defect, args.tol)
    else:  # norm
        q1, q2, p1, p2 = (float(v) for v in args.cell.split(","))
        val = phasespace.phase_space_cell_norm(
            t_state, RectCell(q1, q2, p1, p2), grid, order=args.quad_order
        )
        report.add("bounded-cell-norm", val < 1.0, val, 1.0)
    return report.finish(args)


def cmd_check(args) -> int:
    if args.kind == "pom":
        tol = args.tol if args.tol is not None else 1e-10
        pom = io.pom_from_json(_load_json(args.infile))
        report = Report("check-pom", tol, args.seed)
        ax = check_pom_axioms(pom, tol)
        report.add("positivity", ax.worst_negativity <= tol,
                   ax.worst_negativity, tol)
        report.add("normalization", ax.normalization_defect <= tol,
                   ax.normalization_defect, tol)
        return report.finish(args)
    # uncertainty
    tol = args.tol if args.tol is not None else 1e-3
    grid = _build_grid(args)
    s_state = _parse_state(_load_json(args.state), grid)
    t_state = _parse_state(_load_json(args.pairs_from), grid)
    rho, nu = phasespace.margins_of_GT(t_state, grid)
    report = Report("check-uncertainty", tol, args.seed)
    unc = posmom.uncertainty_product(s_state, rho, nu, grid, tol=tol)
    report.add("variance-product", unc.passed, unc.product, 1.0)
    res = posmom.resolution_product(rho, nu, tol=tol)
    report.add("resolution-product", res.passed, res.product, res.bound)
    return report.finish(args)


# --- argument wiring ----------------------------------------------------------


def _add_common(parser, tol=1e-10, grid=False, quad=False, out=True):
    """Options every subcommand takes, plus the grid, quadrature and output ones it reads."""
    parser.add_argument("--tol", type=float, default=tol)
    if grid:
        parser.add_argument("--grid-n", dest="grid_n", type=int, default=4096)
        parser.add_argument("--window", type=float, default=20.0,
                            help="half width of the symmetric grid window")
    if quad:
        parser.add_argument("--quad-order", dest="quad_order", type=int, default=16,
                            help="Gauss-Legendre nodes per q-panel (p is integrated exactly)")
    parser.add_argument("--seed", type=int, default=0)
    if out:
        parser.add_argument("--out", default=None)
    parser.add_argument("--report", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covpom",
        description="construct, evaluate and verify covariant positive operator measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase", help="covariant phase observable")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--cells", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("phase-diff", help="covariant phase-difference observable")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--cells", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_phase_diff)

    p = sub.add_parser("abelian-pom", help="covariant POM from a group bundle")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_abelian_pom)

    p = sub.add_parser("finite-weyl", help="finite Weyl-Heisenberg POM")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--state", required=True)
    _add_common(p, tol=1e-13)
    p.set_defaults(func=cmd_finite_weyl)

    p = sub.add_parser("smeared", help="smeared position/momentum diagnostics")
    p.add_argument("action", choices=["gamma", "distribution", "sharpness", "compare"])
    p.add_argument("--measure", required=True)
    p.add_argument("--measure2", default=None)
    p.add_argument("--state", default=None, help="pure state for the distribution action")
    p.add_argument("--cells", type=int, default=16)
    _add_common(p, tol=1e-6, grid=True)
    p.set_defaults(func=cmd_smeared)

    p = sub.add_parser("phasespace", help="covariant phase-space observables")
    p.add_argument("action", choices=["density", "margins", "roi", "norm"])
    p.add_argument("--t", required=True, help="density operator defining the observable")
    p.add_argument("--s", default=None, help="probe state (density action)")
    p.add_argument("--cell", default="-1,1,-1,1", help="q1,q2,p1,p2 for norm action")
    p.add_argument("--samples", type=int, default=41)
    p.add_argument("--n-test", dest="n_test", type=int, default=12)
    _add_common(p, tol=1e-3, grid=True, quad=True)
    p.set_defaults(func=cmd_phasespace)

    p = sub.add_parser("check", help="verification suites")
    p.add_argument("kind", choices=["pom", "uncertainty"])
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--pairs-from", dest="pairs_from", default=None)
    _add_common(p, tol=None, grid=True, out=False)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
