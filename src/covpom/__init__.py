"""covpom: covariant positive operator measures on finite-dimensional spaces.

Construction, evaluation and verification of group-covariant POMs:
finite-abelian-group covariant observables, truncated phase and
phase-difference observables, covariant phase-space observables built from
density operators, and smeared position/momentum observables together with
their regularity, resolution, distinction-power and coexistence diagnostics.
"""

from .grids import Grid1D, symmetric_grid
from .hilbert import (
    State,
    Pom,
    Outcome,
    PointCell,
    IntervalCell,
    RectCell,
    make_state,
    pure_state,
    check_pom_axioms,
)
from .posmom import ProbMeasure1D, SmearedObservable

__version__ = "0.1.0"
