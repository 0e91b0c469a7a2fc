"""Spans and counts around covpom's layer entry points, from outside covpom.

``Tracer.install`` replaces each listed entry point with a wrapper in every
covpom module namespace that holds it (``cli`` imports ``check_pom_axioms``
by name, ``phasespace`` imports ``make_state`` by name), and ``uninstall``
puts the originals back.  A span records its name, start, end, parent span
and job id; spans stay in memory until the run writes them out.  A layer's
self time is its span time minus the time of its child spans.

Only layer entry points are wrapped, never per-element helpers such as
``io.complex_to_json``: a wrapper on a function called half a million times
per job would measure the wrapper.  A listed name that the program no longer
has is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One entry point: ``attr`` is a function name or ``Class.method``."""

    module: str
    attr: str
    span: bool = True
    counts: tuple = ()  # (metric, argument-derived amount or None for 1)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _pairs(bound):
    return len(bound.arguments["unitaries"]) * len(bound.arguments["pom"].outcomes)


def _effects(bound):
    return len(bound.arguments["pom"].effects)


TARGETS = (
    Target("cli", "main"),
    Target("cli", "_load_json"),
    Target("cli", "_write_json"),
    Target("io", "pom_to_json"),
    Target("io", "measure_to_json"),
    Target("io", "state_to_json"),
    Target("io", "pom_from_json"),
    Target("io", "state_from_json"),
    Target("io", "measure_from_json"),
    Target("io", "rep_from_json"),
    Target("io", "subgroup_from_json"),
    Target("io", "isometries_from_json"),
    Target("hilbert", "make_state", counts=(("hilbert.state_calls", None),)),
    Target("hilbert", "check_pom_axioms", counts=(("hilbert.axioms_effects", _effects),)),
    Target("grids", "Grid1D.to_momentum", counts=(("grids.transform_calls", None),)),
    Target("grids", "Grid1D.to_position", counts=(("grids.transform_calls", None),)),
    Target("phasespace", "phase_space_effect", counts=(("phasespace.effect_calls", None),)),
    Target("phasespace", "phase_space_cell_norm"),
    Target("phasespace", "resolution_of_identity_defect"),
    Target("phasespace", "phase_space_density"),
    Target("phasespace", "margins_of_GT"),
    Target("phasespace", "finite_weyl_pom"),
    Target("phasespace", "spectral_wavefunctions", span=False,
           counts=(("phasespace.spectral_reads", None),)),
    Target("posmom", "_state_densities", span=False,
           counts=(("phasespace.spectral_reads", None),)),
    Target("posmom", "resolution_limit"),
    Target("posmom", "ProbMeasure1D.window_mass_sup", span=False,
           counts=(("posmom.window_sup_calls", None),)),
    Target("posmom", "ProbMeasure1D.fourier"),
    Target("posmom", "distribution"),
    Target("abelian", "build_covariant_pom"),
    Target("abelian", "verify_covariance", counts=(("abelian.covariance_pairs", _pairs),)),
    Target("abelian", "sigma_matrix"),
    Target("abelian", "sigma_transform"),
    Target("abelian", "translated_pvm_matrix"),
    Target("abelian", "translated_pvm_apply"),
    Target("abelian", "phase_pom"),
    Target("abelian", "phase_difference_pom"),
    Target("abelian", "sharp_phase_witness"),
)

# Self time of these spans, summed, is each layer's time metric.
TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "io.encode_s": ("io.pom_to_json", "io.measure_to_json", "io.state_to_json",
                    "cli._write_json"),
    "io.decode_s": ("io.pom_from_json", "io.state_from_json", "io.measure_from_json",
                    "io.rep_from_json", "io.subgroup_from_json", "io.isometries_from_json",
                    "cli._load_json"),
    "hilbert.state_s": ("hilbert.make_state",),
    "hilbert.axioms_s": ("hilbert.check_pom_axioms",),
    "grids.transform_s": ("grids.Grid1D.to_momentum", "grids.Grid1D.to_position"),
    "phasespace.effect_s": ("phasespace.phase_space_effect",),
    "phasespace.norm_s": ("phasespace.phase_space_cell_norm",),
    "phasespace.roi_s": ("phasespace.resolution_of_identity_defect",),
    "phasespace.density_s": ("phasespace.phase_space_density",),
    "phasespace.margins_s": ("phasespace.margins_of_GT",),
    "phasespace.weyl_s": ("phasespace.finite_weyl_pom",),
    "posmom.resolution_s": ("posmom.resolution_limit",),
    "posmom.fourier_s": ("posmom.ProbMeasure1D.fourier",),
    "posmom.distribution_s": ("posmom.distribution",),
    "abelian.build_s": ("abelian.build_covariant_pom",),
    "abelian.covariance_s": ("abelian.verify_covariance",),
    "abelian.transform_s": ("abelian.sigma_matrix", "abelian.sigma_transform",
                            "abelian.translated_pvm_matrix", "abelian.translated_pvm_apply"),
    "abelian.phase_s": ("abelian.phase_pom", "abelian.phase_difference_pom",
                        "abelian.sharp_phase_witness"),
}

# Counts taken by the benchmark itself, from file sizes.
FILE_COUNTS = ("io.bytes_written", "io.bytes_read")

COUNT_METRICS = tuple(sorted(
    {metric for t in TARGETS for metric, _ in t.counts} | set(FILE_COUNTS)
))


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # [name, start, end, parent, job]
    counts: dict = field(default_factory=lambda: defaultdict(float))
    absent: list = field(default_factory=list)
    job: Optional[int] = None
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(fn)
        counts = target.counts
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for metric, amount in counts:
                if amount is None:
                    tracer.counts[metric] += 1
                    continue
                try:
                    tracer.counts[metric] += amount(signature.bind(*args, **kwargs))
                except (TypeError, KeyError, AttributeError):
                    tracer.mark_absent(f"{metric} (arguments of {name})")
            if not target.span:
                return fn(*args, **kwargs)
            record = [name, perf_counter(), None,
                      tracer._stack[-1] if tracer._stack else None, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()

        return wrapper

    def mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def install(self, modules: dict, targets=TARGETS) -> None:
        """Wrap each target in ``modules`` ({short name: module})."""
        for target in targets:
            home = modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = (
                vars(owner).get(method)
                if owner is not None and isinstance(owner, type)
                else getattr(owner, method, None)
            )
            if owner is None or not callable(original):
                self.mark_absent(target.name)
                continue
            wrapper = self.wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, method, original, wrapper)
                continue
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """Every time and count metric, per traced round."""
        self_times = self.self_times()
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(self_times.get(n, 0.0) for n in names) / rounds
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0.0) / rounds
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "absent": self.absent,
        }
