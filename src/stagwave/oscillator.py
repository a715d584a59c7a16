"""Harmonic oscillator in leapfrog (staggered-time) form.

The displacement u lives on integer time levels t_n = n*dt and the conjugate
variable v on half levels t_{n+1/2}.  The pair

    u' = -omega * v ,    v' = omega * u

is advanced by updating u first and then v using the *new* u; that ordering is
what makes the two quadratic forms below exact invariants of the discrete map.

Everything here is scalar: the module supplies only the pair A = A* = omega,
its norm bound omega, and the inner product 0.5*x*y; the step, the
invariants, the half-step start and the run loop are those of `core`, which
the PDE modules share with difference operators in place of omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    OperatorPair,
    SystemState,
    conserved_full,
    conserved_half_step,
    init_g_half,
    run_system,
    system_step,
)

__all__ = [
    "OscParams",
    "OscState",
    "oscillator_system",
    "second_order_step",
    "leapfrog_step",
    "init_half_step",
    "conserved_at_full_step",
    "conserved_at_half_step",
    "simulate",
    "stability_probe",
    "exact_solution",
]


@dataclass(frozen=True)
class OscParams:
    """Oscillator parameters: angular frequency, time step, step count."""

    omega: float
    dt: float
    n_steps: int = 0

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


@dataclass
class OscState:
    """Staggered state: u at t_n, v at t_{n+1/2}, plus one step of history.

    ``prev_u`` and ``prev_v_half`` are populated after the first step and are
    what the conserved-quantity evaluations need.
    """

    u: float
    v_half: float
    prev_u: float | None = None
    prev_v_half: float | None = None
    step: int = 0


def second_order_step(u_n: float, u_nm1: float, params: OscParams) -> float:
    """One step of the equivalent three-level second-order recurrence.

    u_{n+1} = (2 - (omega*dt)^2) * u_n - u_{n-1}
    """
    wdt = params.omega * params.dt
    return (2.0 - wdt * wdt) * u_n - u_nm1


def _half_product(x: float, y: float) -> float:
    return 0.5 * x * y


def oscillator_system(params: OscParams):
    """(pair, inner_X, inner_Y) for the core engine: A = A* = omega, with
    omega as the norm bound, and 0.5*x*y as both inner products."""
    w = params.omega
    ops = OperatorPair(
        apply_A=lambda u: w * u,
        apply_Astar=lambda v: w * v,
        norm_bound_A=w,
        norm_bound_Astar=w,
    )
    return ops, _half_product, _half_product


def _core_state(state: OscState, params: OscParams) -> SystemState:
    return SystemState(
        state.u, state.v_half, params.dt, state.step, state.prev_u, state.prev_v_half
    )


def leapfrog_step(state: OscState, params: OscParams) -> OscState:
    """Advance (u, v_half) by one step.  u is updated first; v uses the new u."""
    new = system_step(_core_state(state, params), oscillator_system(params)[0])
    return OscState(new.f, new.g_half, new.f_prev, new.g_prev_half, new.step)


def init_half_step(u0: float, v0: float, params: OscParams) -> float:
    """Second-order accurate v at t = dt/2 from the initial data (u0, v0).

    Taylor expansion of v about t=0 using v' = omega*u and v'' = -omega^2*v:

        v(dt/2) ~= v0 + (dt/2)*omega*u0 - 1/2*(dt/2)^2*omega^2*v0
    """
    return init_g_half(u0, v0, oscillator_system(params)[0], params.dt)


def conserved_at_full_step(state: OscState, params: OscParams) -> float:
    """Invariant evaluated at the state's integer time level n.

    C_n = 1/2 * [ (1 - alpha^2) * u_n^2  +  ((v_{n+1/2} + v_{n-1/2})/2)^2 ]

    Requires one step of history (v at n-1/2).
    """
    return conserved_full(_core_state(state, params), *oscillator_system(params))


def conserved_at_half_step(state: OscState, params: OscParams) -> float:
    """Invariant evaluated at the half level n-1/2 trailing the state.

    C_{n-1/2} = 1/2 * [ ((u_n + u_{n-1})/2)^2  +  (1 - alpha^2) * v_{n-1/2}^2 ]
    """
    return conserved_half_step(_core_state(state, params), *oscillator_system(params))


def exact_solution(u0: float, v0: float, omega: float, t: float) -> tuple[float, float]:
    """Continuum solution of u' = -omega*v, v' = omega*u."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    return u0 * c - v0 * s, v0 * c + u0 * s


def simulate(
    u0: float,
    v0: float,
    params: OscParams,
    *,
    exact_init: bool = False,
):
    """Run n_steps of leapfrog from (u0, v0) and record both invariants.

    Returns (u_history, record) where u_history[n] = u at t_n (length
    n_steps+1) and record is a list of (step, C_full, C_half) tuples starting
    at step 1 (invariants need one step of history).

    exact_init=True seeds v at t=dt/2 with the continuum value instead of the
    Taylor half-step; used by convergence studies.
    """
    v_half = exact_solution(u0, v0, params.omega, 0.5 * params.dt)[1] if exact_init else None
    ops, inner, _ = oscillator_system(params)
    _, rec = run_system(
        u0, v0, ops, params.dt, params.n_steps, inner, inner, g_half0=v_half,
        audit=lambda state, _: (state.f,),
    )
    return [u0] + [r[3] for r in rec], [r[:3] for r in rec]


def stability_probe(params: OscParams, *, n_steps: int = 10_000, bound: float = 10.0) -> str:
    """Classify the step size by brute force: run from u0=1, v0=0.

    Returns "stable" if max|u| stays within `bound` (far above any bounded
    orbit for unit data), else "unstable".  Theory: stable iff omega*dt < 2.
    """
    ops = oscillator_system(params)[0]
    state = SystemState(f=1.0, g_half=init_g_half(1.0, 0.0, ops, params.dt), dt=params.dt)
    for _ in range(n_steps):
        state = system_step(state, ops)
        if abs(state.f) > bound:
            return "unstable"
    return "stable"
