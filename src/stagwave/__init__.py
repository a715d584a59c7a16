"""Staggered-grid leapfrog wave solvers with exactly conserved discrete energies.

The package is organized around one idea: a first-order system split across
two staggered time levels, advanced by a leapfrog update whose two quadratic
invariants are preserved to rounding whenever the spatial operators are
discrete adjoints of each other and the time step satisfies a CFL-type bound.

That leapfrog lives once, in ``core``: the step, both invariants, the run
loop, the CFL warning and the half-step start.  Each physics module supplies
only an operator pair (with the norm bound behind its dt limit) and two
inner products; every march returns the engine's one state type,
``core.SystemState``.

Modules
-------
core       : the leapfrog engine over an adjoint operator pair
oscillator : harmonic oscillator, the scalar calibration case
wave1d     : 1D wave equation (constant and variable materials) on a pinned interval
mimetic3d  : 3D staggered grids, mimetic difference operators, inner products
wave3d     : 3D scalar wave and Maxwell (Yee) pairs, audits and cavity modes
wave2d     : 2D staggered grids, operators, and the 2D scalar-wave pair
positivity : mass-conserving, positivity-preserving transport and diffusion
cli        : experiment runner exposing everything as subcommands
"""

__version__ = "0.1.0"
