"""Positivity-preserving 1D transport and diffusion on the staggered line.

Cell densities ``rho`` (>= 0) live on the dual points, velocities on the
primal points, so every cell face carries exactly one velocity sample.  The
transport update moves ``v_i (dt/dx) rho_upwind`` across face ``i`` in the
direction of ``v_i``; written with ``max``/``min`` the flux needs no
conditional:

    F_i = max(v_i, 0) rho_{i-1/2} + min(v_i, 0) rho_{i+1/2}

While no cell's total outflow coefficient
``(max(v_{i+1}, 0) - min(v_i, 0)) dt/dx`` exceeds 1 — for a constant speed
that is just ``|v| dt/dx <= 1`` — the update is a convex combination of
nonnegative cell values, so densities stay nonnegative and the total mass
telescopes exactly.  At ``|v| dt/dx = 1`` the update degenerates to a pure
index shift.  The domain ends are zero-inflow/outflow-absorbing: mass
leaving through the last face is dropped from the grid but added to an
``escaped`` accumulator so the mass audit still closes.

``diffusion_step`` is the standard forward-time centered-space three-point
update with face diffusivities and zero-flux ends; it keeps densities
nonnegative while ``max_i (D_i + D_{i+1}) dt/dx^2 <= 1``.  Schemes with
higher formal order do not share the guarantee: one Lax-Wendroff step on a
unit spike leaves ``-(nu/2)(1 - nu)`` in the cell behind it.  ``run_transport``
and ``run_diffusion`` march them from starts such as ``transport_profile``'s,
handing each recorded (step, mass, least density) to a ``records`` sink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# state and guard
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportState:
    """Densities on the cells, velocities on the faces, plus the mass that
    has left the domain and whether the positivity guard has held so far."""

    rho: np.ndarray
    v: np.ndarray
    dx: float
    dt: float
    escaped: float = 0.0
    guaranteed: bool = True
    step: int = 0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "v", v)
        if v.shape != (rho.size + 1,):
            raise ValueError("need one velocity per cell face (len(rho) + 1)")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        # nonnegativity is only promised (and demanded) while the guard
        # holds; rounding-level negatives from earlier steps are tolerated
        if (self.guaranteed and rho.size
                and float(np.min(rho)) < -1e-12 * max(float(np.max(np.abs(rho))), 1.0)):
            raise ValueError("densities must be nonnegative")

    @property
    def mass(self) -> float:
        """Mass still on the grid plus the escaped accumulator."""
        return float(np.sum(self.rho)) * self.dx + self.escaped


def max_outflow(v) -> float:
    """The worst per-cell outflow coefficient ``max_i (max(v_{i+1}, 0) -
    min(v_i, 0))`` of face velocities ``v``, or ``|v|`` for a scalar speed.
    A cell between faces of opposite sign drains through both at once, so
    the plain ``max|v|`` is not the bound."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.size < 2:
        return float(np.max(np.abs(v)))
    return float(np.max(np.maximum(v[1:], 0.0) - np.minimum(v[:-1], 0.0)))


def positivity_guard(*, v=None, d=None, dt: float, dx: float) -> bool:
    """True iff the positivity conditions hold for the given scheme inputs.

    Pass ``v`` (face velocities or a scalar) to check transport's
    ``max_outflow(v) dt/dx <= 1``, ``d`` (face diffusivities) to check
    diffusion's ``max_i (D_i + D_{i+1}) dt/dx^2 <= 1``, or both to check
    both.
    """
    if v is None and d is None:
        raise ValueError("pass v (transport), d (diffusion), or both")
    ok = True
    if v is not None:
        ok = ok and max_outflow(v) * dt / dx <= 1.0
    if d is not None:
        d = np.asarray(d, dtype=float)
        pair = d[1:] + d[:-1] if d.size > 1 else d
        ok = ok and float(np.max(pair)) * dt / dx ** 2 <= 1.0
    return bool(ok)


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


def transport_step(state: TransportState) -> TransportState:
    """One upwind step; never raises — a violated guard only clears the
    ``guaranteed`` flag on the result."""
    rho, v = state.rho, state.v
    rho_l = np.concatenate(([0.0], rho))  # upwind value where v >= 0
    rho_r = np.concatenate((rho, [0.0]))  # upwind value where v < 0
    flux = np.maximum(v, 0.0) * rho_l + np.minimum(v, 0.0) * rho_r
    rho_new = rho - (state.dt / state.dx) * np.diff(flux)
    # flux[-1] >= 0 and flux[0] <= 0 by the zero ghost cells, so both ends
    # only ever carry mass out
    escaped = state.escaped + state.dt * (flux[-1] - flux[0])
    ok = state.guaranteed and positivity_guard(v=v, dt=state.dt, dx=state.dx)
    if ok:
        # under the guard the exact update is a convex combination of
        # nonnegative values, so a negative is rounding error; among
        # subnormals it is not small relative to the cell (0.5625 * 5e-324
        # rounds up to 5e-324, and a cell of 5e-324 loses 1e-323)
        np.maximum(rho_new, 0.0, out=rho_new)
    return TransportState(rho=rho_new, v=state.v, dx=state.dx, dt=state.dt,
                          escaped=escaped, guaranteed=ok, step=state.step + 1)


def run_transport(state: TransportState, n_steps: int, *, record_every: int = 1, records=None):
    """March n_steps, appending (step, mass, min rho) of every `record_every`-th
    step to `records` (a fresh list by default); returns (final state, records)."""
    records = [] if records is None else records
    for _ in range(n_steps):
        state = transport_step(state)
        if record_every and state.step % record_every == 0:
            records.append((state.step, state.mass, float(np.min(state.rho))))
    return state, records


def square_wave(n: int, shift: int = 0) -> np.ndarray:
    """Unit density on cells 10 to 19 of n, moved `shift` cells and cut to the grid."""
    rho = np.zeros(n)
    rho[max(10 + shift, 0):max(min(20 + shift, n), 0)] = 1.0
    return rho


def transport_profile(kind: str, n: int, speed: float):
    """(rho, v, dx) of a transport start on n cells: ``"constant"`` is the
    square wave on [0, 1] at face velocity `speed`, ``"collapse"``/``"expand"``
    unit density on |x| < 1/2 of [-1, 1] under v = -x / +x.  A profile that
    does not fit on n cells is a ValueError."""
    if kind == "constant":
        if n < 20:
            raise ValueError("the square-wave profile needs at least 20 cells")
        return square_wave(n), np.full(n + 1, speed), 1.0 / n
    dx = 2.0 / n
    x_face = -1.0 + dx * np.arange(n + 1)
    x_cell = -1.0 + dx * (np.arange(n) + 0.5)
    rho = np.where(np.abs(x_cell) < 0.5, 1.0, 0.0)
    if not rho.any():
        raise ValueError("no cell centre lies inside the radial profile's "
                         "plateau |x| < 1/2, so it holds no mass")
    return rho, (-1.0 if kind == "collapse" else +1.0) * x_face, dx


def diffusion_step(rho, d, dx: float, dt: float) -> np.ndarray:
    """One forward-time centered-space step with face diffusivities.

    Zero-flux ends: nothing crosses the outermost faces, so the total mass
    telescopes exactly.  The positivity guarantee needs
    ``max_i (D_i + D_{i+1}) dt/dx^2 <= 1`` (check with ``positivity_guard``);
    like the transport step this never raises when the bound is violated.
    """
    rho = np.asarray(rho, dtype=float)
    d = np.asarray(d, dtype=float)
    if d.shape != (rho.size + 1,):
        raise ValueError("need one diffusivity per cell face (len(rho) + 1)")
    # fold dt into the diffusivities first: d * dt / dx^2 is the O(1) guard
    # quantity, while dt / dx alone overflows when d is subnormal
    flux = np.zeros(rho.size + 1)
    flux[1:-1] = d[1:-1] * dt / dx / dx * np.diff(rho)
    return rho + np.diff(flux)


def run_diffusion(rho, d, dx: float, dt: float, n_steps: int, *, records=None):
    """`run_transport`'s twin, recording every step: (final rho, records)."""
    records = [] if records is None else records
    for step in range(1, n_steps + 1):
        rho = diffusion_step(rho, d, dx, dt)
        records.append((step, float(np.sum(rho) * dx), float(np.min(rho))))
    return rho, records
