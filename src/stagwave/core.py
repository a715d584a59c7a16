"""The leapfrog engine: one staggered-time integrator over an adjoint operator pair.

Setting: two inner-product spaces X and Y, a linear map A: X -> Y with adjoint
A*: Y -> X (i.e. <A f, g>_Y = <f, A* g>_X), and the first-order system

    df/dt = -A* g ,    dg/dt = A f .

The scheme keeps f on integer time levels and g on half levels:

    f_{n+1} = f_n - dt * A* g_{n+1/2}          (first)
    g_{n+3/2} = g_{n+1/2} + dt * A f_{n+1}     (second, uses the new f)

Two quadratic forms are then exact invariants of the map:

    C_n       = ||f_n||_X^2 + <g_{n+1/2}, g_{n-1/2}>_Y
    C_{n-1/2} = <f_n, f_{n-1}>_X + ||g_{n-1/2}||_Y^2

four inner products of fields the march holds anyway.  The march gives
dt A f_n = g_{n+1/2} - g_{n-1/2} and dt A* g_{n-1/2} = f_{n-1} - f_n, so the
polarisation identity ||(a+b)/2||^2 - ||(a-b)/2||^2 = <a, b> turns them into
the three-term forms that show the CFL edge:

    C_n       = ||f_n||^2 + ||g_bar||^2 - (dt/2)^2 ||A f_n||^2
    C_{n-1/2} = ||f_bar||^2 + ||g_{n-1/2}||^2 - (dt/2)^2 ||A* g_{n-1/2}||^2

with g_bar = (g_{n+1/2} + g_{n-1/2})/2 and f_bar = (f_n + f_{n-1})/2.  The
subtracted term is at most (dt ||A|| / 2)^2 times ||f_n||^2 (in C_n) or
||g_{n-1/2}||^2 (in C_{n-1/2}), so both invariants are positive — hence the
scheme stable — whenever dt * ||A|| < 2.

Fields are never interpreted here: elements of X and Y can be floats, numpy
arrays, or anything supporting +, -, and scalar multiplication.  Inner
products are supplied by the caller, which is how the PDE modules plug in
their material-weighted products without touching this file.  Every solver
in the package (oscillator, 1D, 2D, 3D scalar wave, Maxwell) marches through
`run_system`; a physics module contributes only a `System`: its
`OperatorPair` (with the norm bound behind its dt limit), its two inner
products, its CFL step, its start data and, where known, its exact solution.

Buffers: a pair may supply a `plan`, which binds one in-place update to its
buffers and returns it as a call that writes a whole update into a given
buffer; the 1D, 2D and 3D pairs all do, so only the oscillator's scalar pair
allocates.  A run then works on one pair, which each unrecorded step
overwrites in place, f first and then g, as the Yee scheme overwrites E and
then H.  Every maximal stretch of such steps plans its two updates once and
runs them as often as the stretch is long.  `System.march` owns the pair its
`start` makes, so a march that records no step holds that one pair from
start to end: its first step overwrites it through `system_step`, and its
last runs in place and returns no history.  A recorded step keeps its
predecessor as history, which its invariants read, and writes into a spare
pair instead: a retired history pair the run owns, or a fresh pair until
there is one, so a march holds at most two pairs and allocates none per
step.  Each record goes to a `records` sink as it is taken, so a sink that
reduces records keeps a march of any length in constant memory.
`run_system` called directly never writes the caller's start pair,
so its first and last steps write into the spare too, and its final state
keeps one step of history.  `init_g_half` allocates only the field it
returns: it forms its first-order term through the plan, and skips the
curvature term of a start from rest.
An `audit` callback must not keep references to the state's fields across
steps: later steps overwrite them.  A plan whose differences share one
power-of-two spacing h <= 1 folds the exact factor 1/h into the
multiplication after them (`fold_spacing`); other plans divide by their
spacings through `divide_in_place`.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

__all__ = [
    "OperatorPair",
    "System",
    "Sweep",
    "SystemState",
    "system_step",
    "init_g_half",
    "energy_pieces",
    "conserved_half_step",
    "check_adjointness",
    "euclidean_inner",
    "run_system",
    "divide_in_place",
    "addressable",
    "SpacingFold",
    "fold_spacing",
]


def addressable(shape: tuple) -> tuple:
    """`shape`, or a MemoryError when a float64 array of it has more bytes
    than an array can address (a signed machine word).  Numpy refuses such
    an array with a ValueError of its own; a grid checks its largest array
    when it is built, so that any size too large for memory reads as a
    MemoryError."""
    if math.prod(shape) * 8 > sys.maxsize:
        raise MemoryError(f"a float64 array of shape {shape} has more bytes than an array "
                          "can address")
    return shape


def divide_in_place(out, delta: float):
    """out /= delta, in place.  A power-of-two spacing has an exact
    reciprocal, and x * (1/delta) rounds the same real number as x / delta,
    so multiplying gives the same bits; numpy multiplies about twice as fast
    as it divides."""
    inverse = 1.0 / delta
    if math.frexp(delta)[0] == 0.5 and math.isfinite(inverse):
        np.multiply(out, inverse, out=out)
    else:
        np.true_divide(out, delta, out=out)


class SpacingFold(NamedTuple):
    """How a plan applies the spacing h of its differences; see
    `fold_spacing`.  `weight` is the weight to apply after the differences
    (None: exactly 1, skipped), `dt_factor` the 1/h that a unit weight moves
    into dt, and `divide` whether the differences are divided by h first."""

    weight: Any
    dt_factor: float | None
    divide: bool

    def scale(self, dt: float) -> tuple:
        """(factor, divide) for one update: the factor that takes dt's place,
        and whether to divide the differences by h.  dt * (1/h) is exact
        where finite; past that, 1/h goes back onto the differences."""
        if self.dt_factor is not None:
            folded = dt * self.dt_factor
            if math.isfinite(folded):
                return folded, False
        return dt, self.divide


_TINY = float(np.finfo(float).tiny)


def fold_spacing(spacings, weight=None, *, divides: bool = False) -> SpacingFold:
    """Whether a plan can move 1/h from its differences into the
    multiplication that follows them, and the weight it then applies.

    The spacings fold when they are one and the same power of two h <= 1.
    Dividing a difference by such an h scales it by 2^k exactly, and scaling
    by 2^k commutes with rounding, so the factor may move past the next
    rounding without changing a bit wherever the scaled difference stays
    finite.  A unit `weight` (None) then moves 1/h into dt; any other is
    scaled once, to weight/h, or to weight*h when the plan divides by it
    (`divides`).  With other spacings, or a scaled weight that would
    overflow or go subnormal (inexact), the plan keeps the differences
    divided by h and the weight as given.
    """
    h = spacings[0]
    power_of_two = 0.0 < h <= 1.0 and math.frexp(h)[0] == 0.5 and math.isfinite(1.0 / h)
    if not power_of_two or any(s != h for s in spacings):
        return SpacingFold(weight, None, True)
    if weight is None:
        return SpacingFold(None, 1.0 / h, True)
    scaled = weight * h if divides else weight * (1.0 / h)
    size = np.abs(scaled)
    if np.all(np.isfinite(size) & ((size >= _TINY) | (np.asarray(weight) == 0.0))):
        return SpacingFold(scaled, None, False)
    return SpacingFold(weight, None, True)


def euclidean_inner(x, y) -> float:
    """Plain dot product; the default inner product for array-valued states."""
    return float(np.vdot(np.asarray(x), np.asarray(y)).real)


@dataclass(frozen=True)
class OperatorPair:
    """A linear map, its adjoint, and an analytic bound on the norm of A.

    The bound is a caller-supplied analytic value (e.g. 2*c/dx for the 1D
    difference operator); no time step is ever estimated numerically
    (`System.measured_norm` only checks how sharp a bound is).
    Adjointness is a promise checked by `check_adjointness`, not enforced.

    `plan(x, y, dt, out, adjoint)`, if given, is the in-place form of the
    two leapfrog updates: it returns a call of no arguments that, each time
    it is made, returns x - dt * A*(y) when `adjoint` is true and
    x + dt * A(y) otherwise, from the values x and y hold at that moment,
    with the bits of those expressions built from `apply_Astar`/`apply_A`,
    written into `out` (a fresh field per call when out is None).  A plan
    binds its buffers, views of y and the factor that takes dt's place once,
    so it runs as long as x, y and out are the same fields.  `out` may be x,
    never y: every update ends in one elementwise combine of x with its
    scaled term into `out`, so writing over x gives the same bits.  The
    result holds no other storage of the pair, and a plan's work arrays are
    the pair's own, so two plans of one pair take turns: each call finishes
    with them before it returns.  One exception to the bits: a plan that
    folds a power-of-two spacing h into the factor after its differences
    (`fold_spacing`) never forms a difference times 1/h, so where that
    product overflows to inf in the expression, the plan's update may stay
    finite.
    """

    apply_A: Callable[[Any], Any]
    apply_Astar: Callable[[Any], Any]
    norm_bound_A: float = float("inf")
    plan: Callable | None = None


@dataclass
class SystemState:
    """f at t_n and g at t_{n+1/2}, with one step of history, f_{n-1} and
    g_{n-1/2}, for the invariants."""

    f: Any
    g_half: Any
    dt: float
    step: int = 0
    f_prev: Any = None
    g_prev_half: Any = None


@dataclass(frozen=True)
class System:
    """Everything a physics module gives the engine, in one record.

    `ops`, `inner_X` and `inner_Y` are the pair and the two inner products of
    its invariants.  `cfl_dt(safety)` is `safety` times the largest stable
    step, 2 / ops.norm_bound_A, in the module's own arithmetic; it is the
    only CFL step, and a `safety` <= 0 raises ValueError.  `start(dt)`
    returns (f0, g_half0): f at t = 0 and g at t = dt/2, as fresh writable
    fields that no other call shares, since `march` overwrites them.
    `exact(t)`, where the module knows it, is the continuum f at time t of
    that start.
    """

    ops: OperatorPair
    inner_X: Callable
    inner_Y: Callable
    cfl_dt: Callable[[float], float]
    start: Callable[[float], tuple]
    exact: Callable[[float], Any] | None = None

    def __post_init__(self):
        # the module's own step, behind the one check every System shares
        bound = self.cfl_dt

        def cfl_dt(safety: float) -> float:
            if safety <= 0:
                raise ValueError(f"safety factor must be positive, got {safety}")
            return bound(safety)

        object.__setattr__(self, "cfl_dt", cfl_dt)

    def march(self, dt: float, n_steps: int, *, record_every: int = 1,
              audit: Callable | None = None, records=None):
        """`run_system` for n_steps of dt from `start(dt)`, which the march
        owns: with a `plan`, its unrecorded steps overwrite the start
        pair itself, so a march that records no step holds that one pair
        from start to end.  The final state keeps its step of history only
        when the last step is recorded; otherwise its f_prev and g_prev_half
        are None."""
        f0, g_half0 = self.start(dt)
        return run_system(f0, None, self.ops, dt, n_steps, self.inner_X, self.inner_Y,
                          g_half0=g_half0, record_every=record_every, audit=audit,
                          records=records, _owned=True)

    def error(self, f, t: float) -> float:
        """max |f - exact(t)| over every component of f, with one temporary
        at a time: a component's difference, made absolute in place."""
        return float(np.max([_largest_magnitude(np.subtract(a, b))
                             for a, b in zip(_parts(f), _parts(self.exact(t)))]))

    def measured_norm(self, f, iterations: int = 60) -> float:
        """Power-iteration estimate of ||A|| from the start field f (a
        diagnostic of how sharp ops.norm_bound_A is; nothing steps with it).

        Iterates the positive-semidefinite A* A in inner_X and returns the
        square root of the last Rayleigh quotient, which approaches ||A||
        from below.  f must lie in the subspace the march keeps (zero walls
        on a pinned grid); 0.0 if the iterate vanishes.
        """
        lam = 0.0
        for _ in range(iterations):
            af = self.ops.apply_Astar(self.ops.apply_A(f))
            ff = self.inner_X(f, f)
            if ff == 0.0:
                return 0.0
            lam = self.inner_X(f, af) / ff
            scale = math.sqrt(self.inner_X(af, af))
            if scale == 0.0:
                return 0.0
            f = (1.0 / scale) * af
        return math.sqrt(max(lam, 0.0))


class Sweep(NamedTuple):
    """One convergence-sweep case, as the module whose System it marches
    gives it.  `level(n, t_final, nt)` is the (grid, System) of n cells per
    axis, marched to t_final in nt steps: a module-level function or a
    `functools.partial` of one, which `--jobs` workers unpickle.  `t_final`
    and `named` are the default and named final times.  Level k takes
    2**(k+f) steps, f = `exponent(t_final, n0)` (n0 the first level's
    cells), or with no exponent the CFL step at the sweep's safety.  Its
    worker returns `error(system, f, t_final)`, or its final f for
    `refine(f, f_fine, grid, fine)` against level k+1.  `smooth` and
    `half_period(t_final)` say which order a 1D sweep must reach.
    """

    name: str
    level: Callable
    t_final: float
    named: dict = {}
    exponent: Callable | None = None
    error: Callable | None = System.error
    refine: Callable | None = None
    smooth: bool = False
    half_period: Callable | None = None


def _check(name: str, measured, bound: str, passed: bool) -> dict:
    """One named check of a run's report or a verify suite's summary."""
    if isinstance(measured, (int, float, np.integer, np.floating)):
        measured = float(measured)
    return {"name": name, "measured": measured, "bound": bound, "passed": bool(passed)}


def _largest_magnitude(d):
    """max |d| of a fresh difference d, made absolute in place: the bits of
    np.max(np.abs(d))."""
    d = np.asarray(d)
    return np.max(np.abs(d, out=d))


def _parts(field) -> tuple:
    """The components of a field: a tuple's entries, a 3D field's
    components, or the field itself."""
    if isinstance(field, tuple):
        return field
    return getattr(field, "components", (field,))


def system_step(state: SystemState, ops: OperatorPair, *, out=None) -> SystemState:
    """One leapfrog step.  f is updated first; g uses the freshly updated f.
    The new state keeps the old f and g_half as its history, unless the
    step overwrote them (below).

    out=(f_buf, g_buf), for a pair with a `plan`, has one plan of each
    update write f_{n+1} into f_buf and g_{n+3/2} into g_buf (None for a
    fresh field).
    Buffers other than the state's own keep its f and g_half as the history.
    out=(state.f, state.g_half) overwrites the state's pair in place, and the
    new state then keeps no history.  The bits are the same either way.
    """
    if out is None:
        f_new = state.f - state.dt * ops.apply_Astar(state.g_half)
        g_new = state.g_half + state.dt * ops.apply_A(f_new)
    else:
        in_place = out[0] is state.f
        f_new = ops.plan(state.f, state.g_half, state.dt, out[0], True)()
        g_new = ops.plan(state.g_half, f_new, state.dt, out[1], False)()
        if in_place:
            return SystemState(f_new, g_new, state.dt, state.step + 1)
    return SystemState(f_new, g_new, state.dt, state.step + 1, state.f, state.g_half)


def init_g_half(f0, g0, ops: OperatorPair, dt: float):
    """Second-order accurate g at t = dt/2 from (f0, g0): the Taylor step

        g0 + (dt/2) A f0 - 1/2 (dt/2)^2 A A* g0

    with the curvature term (g'' = -A A* g) at its true coefficient.

    A pair's `plan` forms the first-order term, which by its contract
    has the bits of g0 + (dt/2) A f0.  A start from rest, every entry of g0
    +0.0, skips the curvature term while its coefficient is finite: A A* g0
    is then a signed zero, and a first-order term +0.0 + y is never -0.0, so
    subtracting a zero changes no bit.  Such a start applies A once and
    allocates only the field it returns.
    """
    half = 0.5 * dt
    coeff = 0.5 * _square(half)
    if ops.plan is not None:
        first_order = ops.plan(g0, f0, half, None, False)()
    else:
        first_order = g0 + half * ops.apply_A(f0)
    if math.isfinite(coeff) and _positive_zero(g0):
        return first_order
    # once (dt/2)**2 passes the float range the coefficient is inf, and inf
    # times a zero of the curvature is a NaN that the march carries into its
    # report; formed here, it raises no numpy warning
    with np.errstate(invalid="ignore"):
        curvature = coeff * ops.apply_A(ops.apply_Astar(g0))
    return first_order - curvature


def _positive_zero(field) -> bool:
    """True when every entry of every component of a field is +0.0, the one
    float whose bits are all clear: one pass over each, and no temporary."""
    return not any(np.any(np.asarray(c, dtype=np.float64).view(np.int64)) for c in _parts(field))


def energy_pieces(
    state: SystemState,
    inner_X: Callable = euclidean_inner,
    inner_Y: Callable = euclidean_inner,
) -> tuple:
    """The two terms (||f_n||_X^2, <g_{n+1/2}, g_{n-1/2}>_Y) of the
    whole-step invariant, which is their sum."""
    if state.g_prev_half is None:
        raise ValueError("the whole-step invariant needs one step of history")
    return inner_X(state.f, state.f), inner_Y(state.g_half, state.g_prev_half)


def _square(x: float) -> float:
    """x**2, or inf where the float power overflows (a Python float raises
    OverflowError there instead).  x*x would round differently from x**2
    for some normal-range floats, so the power stays."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def conserved_half_step(
    state: SystemState,
    inner_X: Callable = euclidean_inner,
    inner_Y: Callable = euclidean_inner,
) -> float:
    """Invariant at the half level n-1/2 trailing the state:

    <f_n, f_{n-1}>_X + ||g_{n-1/2}||_Y^2

    (the module docstring derives its three-term form).
    """
    if state.f_prev is None or state.g_prev_half is None:
        raise ValueError("the half-step invariant needs one step of history")
    return inner_X(state.f, state.f_prev) + inner_Y(state.g_prev_half, state.g_prev_half)


def check_adjointness(
    ops: OperatorPair,
    inner_X: Callable,
    inner_Y: Callable,
    trials: int,
    sample_X: Callable[[np.random.Generator], Any],
    sample_Y: Callable[[np.random.Generator], Any],
    seed: int = 0,
    floor: float = 1e-300,
) -> float:
    """Max over random (f, g) of the normalized adjointness residual

    |<A f, g>_Y - <f, A* g>_X| / (||f||_X ||g||_Y + floor)
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = sample_X(rng)
        g = sample_Y(rng)
        lhs = inner_Y(ops.apply_A(f), g)
        rhs = inner_X(f, ops.apply_Astar(g))
        scale = np.sqrt(inner_X(f, f)) * np.sqrt(inner_Y(g, g)) + floor
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def run_system(
    f0,
    g0,
    ops: OperatorPair,
    dt: float,
    n_steps: int,
    inner_X: Callable = euclidean_inner,
    inner_Y: Callable = euclidean_inner,
    g_half0=None,
    *,
    record_every: int = 1,
    audit: Callable | None = None,
    records=None,
    _owned: bool = False,
):
    """Integrate n_steps from (f0, g0) and record both invariants.

    g_half0, if given, overrides the Taylor initializer (callers that know the
    continuum solution pass the exact half-step value here).  A RuntimeWarning
    flags dt * norm_bound_A > 2, past which the march is unstable.

    Returns the final state and `records` (any sink with an `append`, a
    fresh list by default), which gets one entry (step, C_full, C_half) per
    `record_every`-th step as it is taken (none for record_every=0).  An
    `audit(state, pieces)` callback, given the state and the `energy_pieces`
    of C_full, appends the entries it returns; it must not keep the state's
    fields: later steps overwrite them.

    With a pair that has a `plan`, the run owns one working pair: an
    unrecorded step overwrites f and then g in place.  Each maximal stretch
    of such steps makes one plan of each update and runs the two in turn,
    once per step.  The first step, which never writes the caller's start
    pair, a recorded step and the last, whose states keep one step of
    history, write into a spare pair instead: the history pair a step
    retires, once that is the run's own, or a fresh pair before then.  The
    run lets go of the start pair once step 1 has used it.

    `System.march` alone passes `_owned=True`: the start pair is then the
    run's own, and only recorded steps write into a spare.  An unrecorded
    first step overwrites the start pair through `system_step`, so that the
    first step of every march is a call of it (perfbench's set-up probe
    stops there), and an unrecorded last step runs in place and returns no
    history.
    """
    if math.isfinite(ops.norm_bound_A) and dt * ops.norm_bound_A > 2.0:
        warnings.warn(
            f"dt = {float(dt):.4g} exceeds the stability bound {2.0 / ops.norm_bound_A:.4g}; "
            "the march is unstable",
            RuntimeWarning,
            stacklevel=2,
        )
    if g_half0 is None:
        g_half0 = init_g_half(f0, g0, ops, dt)
    state = SystemState(f=f0, g_half=g_half0, dt=dt)
    del f0, g0, g_half0  # the state alone holds the start data
    in_place = ops.plan is not None
    # the last step a stretch of in-place steps may reach: an unowned run's
    # last step writes into the spare
    last_in_place = n_steps if _owned else n_steps - 1
    spare = (None, None)
    records = [] if records is None else records
    n = 0
    while n < n_steps:
        n += 1
        recorded = bool(record_every) and n % record_every == 0
        if not in_place:
            state = system_step(state, ops)
        else:
            # the step reads only f_n and g_{n+1/2}: the history behind them
            # retires, and becomes the spare once it is not the caller's
            # start pair (from step 3 on, or from step 2 when the run owns it)
            if (n > 2 or _owned) and state.f_prev is not None:
                spare = (state.f_prev, state.g_prev_half)
            state.f_prev = state.g_prev_half = None
            if recorded or (not _owned and n in (1, n_steps)):
                state = system_step(state, ops, out=spare)
            elif n == 1:
                state = system_step(state, ops, out=(state.f, state.g_half))
            else:
                # steps n to last, up to the next recorded step, in place
                last = last_in_place
                if record_every:
                    last = min(last, n - n % record_every + record_every - 1)
                run_f = ops.plan(state.f, state.g_half, dt, state.f, True)
                run_g = ops.plan(state.g_half, state.f, dt, state.g_half, False)
                for _ in range(last - n + 1):
                    run_f()
                    run_g()
                state.step = n = last
        if recorded:
            pieces = energy_pieces(state, inner_X, inner_Y)
            row = (state.step, pieces[0] + pieces[1], conserved_half_step(state, inner_X, inner_Y))
            records.append(row if audit is None else (*row, *audit(state, pieces)))
    return state, records
