"""Command-line front end: build observables from JSON specs and run checks.

Every run emits a JSON report with a flat ``checks`` array of
{name, pass, value, bound, witness} entries so CI can diff outcomes.  Exit
codes: 0 all checks pass, 1 a check failed, 2 malformed input.

Each subcommand, and each action of ``smeared``, ``phasespace`` and ``check``,
takes only the options it reads and rejects any other: ``--report``
everywhere, ``--tol`` where a check compares against it, ``--out`` where a
file is written, ``--grid-n`` and ``--window`` where a grid is built.
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
from .grids import symmetric_grid
from .hilbert import RectCell, check_pom_axioms, make_state
from .posmom import ProbMeasure1D


# window lengths in the profile that ``smeared gamma --out`` writes
PROFILE_POINTS = 33


class InputError(Exception):
    pass


def _load_json(path: str):
    """The JSON document in the file at ``path``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _parse_state(obj, grid):
    """Parametric or explicit state description on the given grid."""
    if "kind" not in obj:
        return io.state_from_json(obj)
    kind = obj["kind"]
    if kind == "gaussian":
        shape = {key: float(obj[key]) for key in ("a", "b", "center", "momentum") if key in obj}
        return make_state([(1.0, phasespace.gaussian_wavefunction(grid, **shape))])
    if kind == "fock":
        return make_state([(1.0, phasespace.hermite_wavefunction(grid, int(obj["k"])))])
    if kind == "mixture":
        subs = [(float(c["weight"]), _parse_state(c["state"], grid)) for c in obj["components"]]
        return make_state([
            (weight * w, v) for weight, sub in subs for w, v in zip(sub.weights, sub.vectors)
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

    def finish(self, path: Optional[str]) -> int:
        text = json.dumps(self.data, indent=2)
        print(text)
        if path:
            with open(path, "w") as fh:
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


# --- subcommands: each adds its checks to the report that main opens ----------


def cmd_phase(args, report: Report) -> None:
    h = abelian.canonical_phase_vectors(args.dim)
    bounds = np.linspace(0.0, 2 * np.pi, args.cells + 1)
    pom = abelian.phase_pom(h, bounds)
    _check_and_write_pom(report, pom, args)
    if args.dim >= 2 and args.cells >= 2:
        cell, defect = abelian.sharp_phase_witness(pom)
        report.add("no-sharp-phase", defect > 0.05, defect, 0.05, cell.label)


def cmd_phase_diff(args, report: Report) -> None:
    h = {(i, j): np.array([1.0 + 0j]) for i in range(args.dim) for j in range(args.dim)}
    bounds = np.linspace(0.0, 2 * np.pi, args.cells + 1)
    _check_and_write_pom(report, abelian.phase_difference_pom(args.dim, h, bounds), args)


def _covariance_witness(cov: abelian.CovarianceReport) -> str:
    """The worst pair, and the word-length factor L when the check passed on generators."""
    if cov.word_length is None:
        return str(cov.worst)
    return f"{cov.worst} L={cov.word_length}"


def cmd_abelian_pom(args, report: Report) -> None:
    bundle = _load_json(args.infile)
    rep_obj = io.rep_from_json(bundle["rep"])
    group = rep_obj.group
    sub = io.subgroup_from_json(bundle["subgroup"], parent=group)
    if "isometries" in bundle:
        fam = io.isometries_from_json(bundle["isometries"], rep_obj)
    else:
        rng = np.random.default_rng(args.seed)
        aux = int(bundle.get("aux_dim", max(b.mult for b in rep_obj.blocks)))
        fam = abelian.random_isometries(rep_obj, aux, rng)
    pom = abelian.build_covariant_pom(rep_obj, sub, fam)
    _check_and_write_pom(report, pom, args)
    cov = abelian.verify_covariance(
        pom,
        abelian.diagonal_unitaries(rep_obj),
        abelian.coset_action(group, sub),
        args.tol,
    )
    report.add("covariance", cov.passed, cov.max_defect, args.tol, _covariance_witness(cov))


def cmd_finite_weyl(args, report: Report) -> None:
    state = io.state_from_json(_load_json(args.state))
    pom = phasespace.finite_weyl_pom(args.dim, state)
    _check_and_write_pom(report, pom, args)
    unitaries = phasespace.finite_weyl_unitaries(args.dim)
    action = abelian.coset_action(unitaries.group, abelian.Subgroup.trivial(unitaries.group))
    cov = abelian.verify_covariance(pom, unitaries, action, args.tol)
    report.add("covariance", cov.passed, cov.max_defect, args.tol, _covariance_witness(cov))


def cmd_smeared_gamma(args, report: Report) -> None:
    measure = _parse_measure(_load_json(args.measure), symmetric_grid(args.grid_n, args.window))
    gamma = posmom.resolution_limit(measure).gamma
    report.add("gamma-finite", math.isfinite(gamma), gamma, None)
    if args.out:
        lo, hi = measure.support_bounds()
        alphas = np.geomspace(max(gamma, 1e-6) / 64, (hi - lo) + 1.0, PROFILE_POINTS)
        with open(args.out, "w") as fh:
            fh.write("alpha,sup_window_mass\n")
            for a, s in zip(alphas, measure.window_mass_sup(alphas)):
                fh.write(f"{float(a)!r},{float(s)!r}\n")


def cmd_smeared_distribution(args, report: Report) -> None:
    grid = symmetric_grid(args.grid_n, args.window)
    measure = _parse_measure(_load_json(args.measure), grid)
    state = _parse_state(_load_json(args.state), grid)
    obs = posmom.SmearedObservable("position", measure, grid)
    edges = np.linspace(-args.window / 2, args.window / 2, args.cells + 1)
    edges[0], edges[-1] = -np.inf, np.inf  # partition of the whole line
    probs = posmom.distribution(state, obs, edges)
    mass = float(probs.sum())
    report.add("distribution-mass", abs(mass - 1.0) <= args.tol, mass, 1.0)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("cell_lo,cell_hi,probability\n")
            for lo, hi, p in zip(edges[:-1], edges[1:], probs):
                fh.write(f"{float(lo)!r},{float(hi)!r},{float(p)!r}\n")


def cmd_smeared_sharpness(args, report: Report) -> None:
    measure = _parse_measure(_load_json(args.measure), symmetric_grid(args.grid_n, args.window))
    res = posmom.sharpness_test(measure)
    report.add("sharpness-routes-agree", res.agrees, res.sharp, None, f"location={res.location}")


def cmd_smeared_compare(args, report: Report) -> None:
    grid = symmetric_grid(args.grid_n, args.window)
    measure = _parse_measure(_load_json(args.measure), grid)
    other = _parse_measure(_load_json(args.measure2), grid)
    order = posmom.distinction_compare(measure, other, grid=grid)
    report.add("distinction-order", True, order.value, None)


def cmd_phasespace_density(args, report: Report) -> None:
    grid = symmetric_grid(args.grid_n, args.window)
    t_state = _parse_state(_load_json(args.t), grid)
    s_state = _parse_state(_load_json(args.s), grid) if args.s else t_state
    qs = ps = np.linspace(-args.window / 2, args.window / 2, args.samples)
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


def cmd_phasespace_margins(args, report: Report) -> None:
    grid = symmetric_grid(args.grid_n, args.window)
    t_state = _parse_state(_load_json(args.t), grid)
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


def cmd_phasespace_roi(args, report: Report) -> None:
    grid = symmetric_grid(args.grid_n, args.window)
    t_state = _parse_state(_load_json(args.t), grid)
    res = phasespace.resolution_of_identity_defect(
        t_state, grid, half_width=args.window / 2, n_test=args.n_test, order=args.quad_order
    )
    report.add("resolution-of-identity", res.defect <= args.tol, res.defect, args.tol)


def cmd_phasespace_norm(args, report: Report) -> None:
    grid = symmetric_grid(args.grid_n, args.window)
    t_state = _parse_state(_load_json(args.t), grid)
    val = phasespace.phase_space_cell_norm(
        t_state, RectCell(*args.cell), grid, order=args.quad_order
    )
    report.add("bounded-cell-norm", val < 1.0, val, 1.0)


def cmd_check_pom(args, report: Report) -> None:
    ax = check_pom_axioms(io.pom_from_json(_load_json(args.infile)), args.tol)
    report.add("positivity", ax.worst_negativity <= args.tol, ax.worst_negativity, args.tol)
    report.add("normalization", ax.normalization_defect <= args.tol,
               ax.normalization_defect, args.tol)


def cmd_check_uncertainty(args, report: Report) -> None:
    grid = symmetric_grid(args.grid_n, args.window)
    s_state = _parse_state(_load_json(args.state), grid)
    t_state = _parse_state(_load_json(args.pairs_from), grid)
    rho, nu = phasespace.margins_of_GT(t_state, grid)
    unc = posmom.uncertainty_product(s_state, rho, nu, grid, tol=args.tol)
    report.add("variance-product", unc.passed, unc.product, 1.0)
    res = posmom.resolution_product(rho, nu, tol=args.tol)
    report.add("resolution-product", res.passed, res.product, res.bound)


# --- argument wiring ----------------------------------------------------------


def _count(text: str, least: int = 1) -> int:
    """A size option's value: an integer of at least ``least``."""
    if not text.isdigit() or int(text) < least:
        raise argparse.ArgumentTypeError(f"expected an integer of at least {least}, got {text!r}")
    return int(text)


def _grid_n(text: str) -> int:
    """The --grid-n option's value: a power of two of at least 16."""
    n = int(text) if text.isdigit() else 0
    if n < 16 or n & (n - 1):
        raise argparse.ArgumentTypeError(f"expected a power of two of at least 16, got {text!r}")
    return n


def _window(text: str) -> float:
    """The --window option's value: a finite number above 0."""
    if not 0 < float(text) < math.inf:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"expected a finite number above 0, got {text!r}")
    return float(text)


def _cell(text: str) -> tuple:
    """The --cell option's value: four comma-separated numbers q1,q2,p1,p2."""
    try:
        q1, q2, p1, p2 = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected four numbers q1,q2,p1,p2, got {text!r}")
    return q1, q2, p1, p2


def _command(sub, name, func, *files, tol=None, grid=False, quad=False, out=False, **kwargs):
    """The parser of one subcommand or action, run by ``func``, with the shared options it reads.

    ``files`` are the required input-file options.  The report's tool is the
    command's words joined by "-", as in ``smeared-gamma``.
    """
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(func=func, tool=parser.prog.split(" ", 1)[1].replace(" ", "-"))
    for option in files:
        parser.add_argument(option, required=True)
    if tol is not None:
        parser.add_argument("--tol", type=float, default=tol)
    if grid:
        parser.add_argument("--grid-n", type=_grid_n, default=4096)
        parser.add_argument("--window", type=_window, default=20.0,
                            help="half width of the symmetric grid window")
    if quad:
        parser.add_argument("--quad-order", type=functools.partial(_count, least=2), default=16,
                            help="Gauss-Legendre nodes per q-panel (p is integrated exactly)")
    if out:
        parser.add_argument("--out", default=None)
    parser.add_argument("--report", default=None)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covpom",
        description="construct, evaluate and verify covariant positive operator measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "phase", cmd_phase, tol=1e-10, out=True, help="covariant phase observable")
    p.add_argument("--dim", type=_count, required=True)
    p.add_argument("--cells", type=_count, default=8)

    p = _command(sub, "phase-diff", cmd_phase_diff, tol=1e-10, out=True,
                 help="covariant phase-difference observable")
    p.add_argument("--dim", type=_count, required=True)
    p.add_argument("--cells", type=_count, default=8)

    p = _command(sub, "abelian-pom", cmd_abelian_pom, tol=1e-10, out=True,
                 help="covariant POM from a group bundle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, default=0, help="draws the random isometries")

    p = _command(sub, "finite-weyl", cmd_finite_weyl, "--state", tol=1e-13, out=True,
                 help="finite Weyl-Heisenberg POM")
    p.add_argument("--dim", type=int, required=True)

    group = sub.add_parser("smeared", help="smeared position/momentum diagnostics")
    actions = group.add_subparsers(dest="action", required=True)
    _command(actions, "gamma", cmd_smeared_gamma, "--measure", grid=True, out=True)
    p = _command(actions, "distribution", cmd_smeared_distribution, "--measure", "--state",
                 grid=True, out=True)
    p.add_argument("--cells", type=_count, default=16)
    p.set_defaults(tol=1e-6)  # the mass check's fixed tolerance, not an option
    _command(actions, "sharpness", cmd_smeared_sharpness, "--measure", grid=True)
    _command(actions, "compare", cmd_smeared_compare, "--measure", "--measure2", grid=True)

    group = sub.add_parser("phasespace", help="observables of the density operator --t")
    actions = group.add_subparsers(dest="action", required=True)
    p = _command(actions, "density", cmd_phasespace_density, "--t", grid=True, out=True)
    p.add_argument("--s", default=None, help="probe state, --t when absent")
    p.add_argument("--samples", type=_count, default=41)
    _command(actions, "margins", cmd_phasespace_margins, "--t", grid=True, out=True)
    p = _command(actions, "roi", cmd_phasespace_roi, "--t", tol=1e-3, grid=True, quad=True)
    p.add_argument("--n-test", type=_count, default=12)
    p = _command(actions, "norm", cmd_phasespace_norm, "--t", grid=True, quad=True)
    p.add_argument("--cell", type=_cell, default="-1,1,-1,1", help="q1,q2,p1,p2")

    group = sub.add_parser("check", help="verification suites")
    actions = group.add_subparsers(dest="action", required=True)
    p = _command(actions, "pom", cmd_check_pom, tol=1e-10)
    p.add_argument("--in", dest="infile", required=True)
    _command(actions, "uncertainty", cmd_check_uncertainty, "--state", "--pairs-from",
             tol=1e-3, grid=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.tool, getattr(args, "tol", None), getattr(args, "seed", None))
    try:
        args.func(args, report)
        return report.finish(args.report)
    except (InputError, KeyError, ValueError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
