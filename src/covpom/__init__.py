"""covpom: covariant positive operator measures on finite-dimensional spaces.

Construction, evaluation and verification of group-covariant POMs:
finite-abelian-group covariant observables, truncated phase and
phase-difference observables, covariant phase-space observables built from
density operators, and smeared position/momentum observables together with
their regularity, resolution, distinction-power and coexistence diagnostics.
"""

__version__ = "0.1.0"
