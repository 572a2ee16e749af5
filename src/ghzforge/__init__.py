"""Pulse synthesis and verification for deterministic W-to-GHZ conversion.

Three Rydberg atoms driven by three laser tones reduce, in the blockade
regime, to a four-level ladder whose Hamiltonian lives in a fixed
su(2)+su(2) algebra.  This package builds that algebra, the closed-form
propagators it generates, constraint-satisfying parameter curves, and the
laser schedules that realize them, and it scores the reduction against
the three-atom model with its strong drive and blockade, integrated on
the permutation-symmetric 4x4 block that the drive never leaves.  The
tests check that block against an eight-dimensional model of their own.
"""

from .algebra import build_generators, casimirs, extract_ghz_phase, pseudospin_basis
from .unitary import cayley_klein, exp_map, transformed_pseudospin_states
from .dynamics import check_constraints, rabi_from_vectorial
from .synthesis import (
    EndpointSolution,
    PulseSchedule,
    SphericalCurve,
    solve_endpoints,
    enumerate_endpoints,
    rabi_schedule,
    reverse_schedule,
)
# The integrator entry point stays at ghzforge.propagate.propagate;
# re-exporting the function here would shadow the submodule attribute.
from .propagate import (
    ghz_fidelity,
    squared_area,
    normalize_to_area,
)
from .fullmodel import FullModelParams, derived_detunings, validate_reduction

__version__ = "0.1.0"
