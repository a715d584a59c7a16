"""Harmonic oscillator in leapfrog (staggered-time) form.

The displacement u lives on integer time levels t_n = n*dt and the conjugate
variable v on half levels t_{n+1/2}.  The pair

    u' = -omega * v ,    v' = omega * u

is advanced by updating u first and then v using the *new* u; that ordering is
what makes the two quadratic forms of `oscillator_system` exact invariants of
the discrete map.

Everything here is scalar: the module supplies only `core.System`s — the
pair A = A* = omega (or -omega, `euclidean_system`), its norm bound omega,
the inner product, the start data and the exact solution, whose distance
from a whole march is `continuum_deviation`; the step, the
invariants and the run loop are those of `core`, which the PDE modules share
with difference operators in place of omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OperatorPair, System, SystemState, euclidean_inner, init_g_half, system_step

__all__ = [
    "OscParams",
    "oscillator_system",
    "euclidean_system",
    "second_order_step",
    "leapfrog_step",
    "exact_solution",
    "continuum_deviation",
]


@dataclass(frozen=True)
class OscParams:
    """Oscillator parameters: angular frequency and time step."""

    omega: float
    dt: float

    def __post_init__(self):
        if not (self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.dt < 0:
            raise ValueError(f"dt must be nonnegative, got {self.dt}")
        if not math.isfinite(self.alpha):
            raise ValueError("omega*dt/2 must be finite")

    @property
    def alpha(self) -> float:
        """Half the dimensionless step omega*dt; the scheme is stable for alpha < 1."""
        return 0.5 * self.omega * self.dt


def second_order_step(u_n: float, u_nm1: float, params: OscParams) -> float:
    """One step of the equivalent three-level second-order recurrence.

    u_{n+1} = (2 - (omega*dt)^2) * u_n - u_{n-1}
    """
    wdt = params.omega * params.dt
    return (2.0 - wdt * wdt) * u_n - u_nm1


def _half_product(x: float, y: float) -> float:
    return 0.5 * x * y


def oscillator_system(params: OscParams, u0: float = 1.0, v0: float = 0.0, *,
                      exact_init: bool = False) -> System:
    """The oscillator as a `core.System`: A = A* = omega, with omega as the
    norm bound, and 0.5*x*y as both inner products.  It starts from
    (u0, v0): v at dt/2 is the Taylor half step, or with exact_init=True
    the continuum value.

    With alpha = omega*dt/2, core's two invariants are then

        C_n       = 1/2 * [ (1 - alpha^2) * u_n^2 + ((v_{n+1/2} + v_{n-1/2})/2)^2 ]
        C_{n-1/2} = 1/2 * [ ((u_n + u_{n-1})/2)^2 + (1 - alpha^2) * v_{n-1/2}^2 ]
    """
    w = params.omega
    ops = OperatorPair(apply_A=lambda u: w * u, apply_Astar=lambda v: w * v, norm_bound_A=w)

    def start(dt):
        if exact_init:
            return u0, exact_solution(u0, v0, w, 0.5 * dt)[1]
        return u0, init_g_half(u0, v0, ops, dt)

    return System(ops, _half_product, _half_product, cfl_dt=lambda safety: safety * 2.0 / w,
                  start=start, exact=lambda t: exact_solution(u0, v0, w, t)[0])


def euclidean_system(params: OscParams, u0: float = 1.0, v0: float = 0.0) -> System:
    """u' = omega v, v' = -omega u as a `core.System`: A = A* = -omega, Euclidean
    products and the Taylor half step from (u0, v0).  `oscillator_system`
    (A = +omega, products 0.5*x*y) has invariants half of these."""
    w = params.omega
    ops = OperatorPair(apply_A=lambda f: -w * f, apply_Astar=lambda g: -w * g, norm_bound_A=w)
    return System(ops, euclidean_inner, euclidean_inner,
                  cfl_dt=lambda safety: safety * 2.0 / w,
                  start=lambda dt: (u0, init_g_half(u0, v0, ops, dt)),
                  exact=lambda t: u0 * math.cos(w * t) + v0 * math.sin(w * t))


# kept by name for perfbench's setup probe, until that probe times the engine itself
def leapfrog_step(state: SystemState, params: OscParams) -> SystemState:
    """Advance (u, v_half) by one step.  u is updated first; v uses the new u."""
    return system_step(state, oscillator_system(params).ops)


def exact_solution(u0: float, v0: float, omega: float, t: float) -> tuple[float, float]:
    """Continuum solution of u' = -omega*v, v' = omega*u."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    return u0 * c - v0 * s, v0 * c + u0 * s


def continuum_deviation(history, u0: float, v0: float, omega: float, dt: float, *,
                        first: int = 0) -> float:
    """max_n |u_n - u(n dt)| of a march's u at steps first, first + 1, ...
    against the continuum solution, each step's term its own; NaN where the
    step times pass the float range, and then without numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = dt * np.arange(first, first + len(history))
        exact = u0 * np.cos(omega * t) - v0 * np.sin(omega * t)
    return float(np.max(np.abs(np.asarray(history) - exact)))
