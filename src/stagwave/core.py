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
allocates.  A planned run works on one pair from its first step to its last,
overwriting f and then g in place at every step, as the Yee scheme
overwrites E and then H, on one plan of each update.  A recorded step needs
the old f only for <f_{n+1}, f_n>_X, and the old g only for
<g_{n+3/2}, g_{n+1/2}>_Y, so it copies each into one field of history just
before its update overwrites it, and takes that product just after
(`_Recorder`).  That field is as large as the larger of f and g, made at the
first recorded step, so a recorded march holds one pair and one field.
`System.march` owns the pair its `start` makes: its first step overwrites
it through `system_step`.  `run_system` called directly never writes the
caller's start pair: its first step writes into a fresh pair, which the run
then owns.  The final state of a planned run carries no history.  Each
record goes to a `records` sink as it is taken, so a sink that reduces
records keeps a march of any length in constant memory.
`init_g_half` allocates only the field it returns: it forms its
first-order term through the plan, and skips the curvature term of a start
from rest.
An `audit` callback reads the state's fields before it returns: later steps
overwrite them in place.  A plan whose differences share one
power-of-two spacing h <= 1 folds the exact factor 1/h into the
multiplication after them (`fold_spacing`); other plans divide by their
spacings through `divide_in_place`.
"""

from __future__ import annotations

import math
import os
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
    than an array can address (a signed machine word), or than the host's
    physical memory, where `os.sysconf` reports it.  Numpy refuses the first
    with a ValueError of its own, and a host that overcommits memory may
    grant the second and kill the run that fills it; a grid checks its
    largest array when it is built, before it makes any, so that any size
    too large for memory reads as a MemoryError."""
    size = math.prod(shape) * 8
    if size > sys.maxsize:
        raise MemoryError(f"a float64 array of shape {shape} has more bytes than an array "
                          "can address")
    memory = _physical_memory()
    if memory is not None and size > memory:
        raise MemoryError(f"a float64 array of shape {shape} has more bytes ({size}) than "
                          f"this host's memory ({memory})")
    return shape


def _physical_memory() -> int | None:
    """The host's physical memory in bytes, or None where `os.sysconf`
    does not report it."""
    try:
        pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * page if pages > 0 and page > 0 else None


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
        owns: with a `plan`, every step overwrites the start pair itself, so
        a march holds that one pair from start to end, and one field of
        history once it records a step.  The final state then carries no
        history: its f_prev and g_prev_half are None."""
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


def system_step(state: SystemState, ops: OperatorPair, *, out=None,
                recorder=None) -> SystemState:
    """One leapfrog step.  f is updated first; g uses the freshly updated f.
    The new state keeps the old f and g_half as its history, unless the
    step overwrote them (below).

    out=(f_buf, g_buf), for a pair with a `plan`, has one plan of each
    update write f_{n+1} into f_buf and g_{n+3/2} into g_buf (None for a
    fresh field).
    Buffers other than the state's own keep its f and g_half as the history.
    out=(state.f, state.g_half) overwrites the state's pair in place, and the
    new state then keeps no history; given a run's `recorder`, the step
    also takes its record there, from the one field of history the
    recorder keeps.  The bits are the same either way.
    """
    if out is None:
        f_new = state.f - state.dt * ops.apply_Astar(state.g_half)
        g_new = state.g_half + state.dt * ops.apply_A(f_new)
    elif out[0] is not state.f:
        f_new = ops.plan(state.f, state.g_half, state.dt, out[0], True)()
        g_new = ops.plan(state.g_half, f_new, state.dt, out[1], False)()
    else:
        new = SystemState(state.f, state.g_half, state.dt, state.step + 1)
        run_f = ops.plan(new.f, new.g_half, new.dt, new.f, True)
        run_g = ops.plan(new.g_half, new.f, new.dt, new.g_half, False)
        if recorder is None:
            run_f()
            run_g()
        else:
            recorder.step(new, run_f, run_g)
        return new
    return SystemState(f_new, g_new, state.dt, state.step + 1, state.f, state.g_half)


class _Recorder:
    """The records of one run, handed to its `records` sink as they are
    taken: (step, C_full, C_half), then what `audit(state, pieces)` returns
    given the `energy_pieces` of C_full.

    `take` records a state that keeps its step of history.  `step` runs
    and records one step in place, with one field of history, made at its
    first call as long as the larger of f and g, in place of the old pair:

    1. copy f_n into the history, and run f's update;
    2. take ||f_{n+1}||_X^2 and <f_{n+1}, f_n>_X;
    3. take ||g_{n+1/2}||_Y^2, copy g_{n+1/2} into the history, and run
       g's update;
    4. take <g_{n+3/2}, g_{n+1/2}>_Y.

    These are the products of `energy_pieces` and `conserved_half_step`,
    on the same operands and summed in the same order, so the records have
    the bits of a step that keeps its history."""

    def __init__(self, inner_X: Callable, inner_Y: Callable, audit, sink):
        self.inner_X, self.inner_Y, self.audit, self.sink = inner_X, inner_Y, audit, sink
        self.old = None  # (f_old, g_old): two views of the one field of history

    def take(self, state: SystemState, pieces=None, c_half=None):
        if pieces is None:
            pieces = energy_pieces(state, self.inner_X, self.inner_Y)
            c_half = conserved_half_step(state, self.inner_X, self.inner_Y)
        row = (state.step, pieces[0] + pieces[1], c_half)
        self.sink.append(row if self.audit is None else (*row, *self.audit(state, pieces)))

    def step(self, state: SystemState, run_f: Callable, run_g: Callable):
        f, g = state.f, state.g_half
        if self.old is None:
            self.old = _history(f, g)
        f_old, g_old = self.old
        _copy(f, f_old)
        run_f()
        sq_f, f_cross = self.inner_X(f, f), self.inner_X(f, f_old)
        sq_g = self.inner_Y(g, g)
        _copy(g, g_old)
        run_g()
        self.take(state, (sq_f, self.inner_Y(g, g_old)), f_cross + sq_g)


def _history(f, g) -> tuple:
    """Two fields of f's and g's type and shapes on one flat buffer, as long
    as the larger of the two."""
    flat = np.empty(max(sum(p.size for p in _parts(x)) for x in (f, g)),
                    dtype=np.result_type(*_parts(f), *_parts(g)))
    fields = []
    for field in (f, g):
        views, at = [], 0
        for part in _parts(field):
            views.append(flat[at:at + part.size].reshape(part.shape))
            at += part.size
        fields.append(views[0] if isinstance(field, np.ndarray) else type(field)(*views))
    return tuple(fields)


def _copy(source, target):
    """Copy every component of a field into the same component of another."""
    for s, t in zip(_parts(source), _parts(target)):
        np.copyto(t, s)


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
    of C_full, appends the entries it returns; it reads the state's fields
    before it returns: later steps overwrite them.

    With a pair that has a `plan`, the run works on one pair: step 1 is a
    `system_step`, and every later step runs one plan of each update, bound
    once for the run, in place; a recorded step copies f and g into one
    field of history just before each is overwritten (`_Recorder`).  Step 1
    never writes the caller's start pair: it writes into a fresh pair, and
    the run lets go of the start pair.  The final state carries no history.

    `System.march` alone passes `_owned=True`: the start pair is then the
    run's own, and step 1 overwrites it in place, recorded there when it is
    a recorded step.  So the first step of every march is a call of
    `system_step`, which perfbench's set-up probe stops at.
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
    records = [] if records is None else records
    recorder = _Recorder(inner_X, inner_Y, audit, records)
    if ops.plan is None:
        for n in range(1, n_steps + 1):
            state = system_step(state, ops)
            if record_every and n % record_every == 0:
                recorder.take(state)
        return state, records
    if n_steps < 1:
        return state, records
    first = recorder if record_every == 1 else None
    if _owned:
        state = system_step(state, ops, out=(state.f, state.g_half), recorder=first)
    else:
        state = system_step(state, ops, out=(None, None))
        if first is not None:
            recorder.take(state)
        state.f_prev = state.g_prev_half = None
    f, g = state.f, state.g_half
    run_f, run_g = ops.plan(f, g, dt, f, True), ops.plan(g, f, dt, g, False)
    n = 1
    while n < n_steps:
        # the unrecorded steps up to the next recorded one, then that one
        last = n_steps if not record_every else min(n_steps, n - n % record_every + record_every)
        for _ in range(last - n - 1):
            run_f()
            run_g()
        state.step = n = last
        if record_every and n % record_every == 0:
            recorder.step(state, run_f, run_g)
        else:
            run_f()
            run_g()
    return state, records
