"""Every kept step and every module's `System` march is the core engine on
that module's operator pair and inner products, bit for bit; every `System`
keeps one contract; a record is the three-term invariants, formed from inner
products alone."""

import gc
import sys
import warnings
import weakref
from collections import Counter, deque
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from stagwave import cli, core, mimetic3d, oscillator, wave1d, wave2d, wave3d
from stagwave.core import (
    SpacingFold,
    SystemState,
    check_adjointness,
    fold_spacing,
    init_g_half,
    run_system,
    system_step,
)
from stagwave.mimetic3d import Grid3, Star3, VectorField3

# a System's (pair, inner_X, inner_Y), in the order the engine takes them
_engine = attrgetter("ops", "inner_X", "inner_Y")

# The operator and star applications of the 3D calculus.
OPS_3D = (
    "grad3", "curl3", "div3", "grad3_star", "curl3_star", "div3_star",
    "star_matrix", "star_scalar", "star_scalar_inverse",
)


def _parts(x):
    if isinstance(x, VectorField3):
        return x.components
    return tuple(x) if isinstance(x, tuple) else (x,)


def _same(a, b):
    pa, pb = _parts(a), _parts(b)
    return len(pa) == len(pb) and all(np.array_equal(p, q) for p, q in zip(pa, pb))


def _copy(field):
    """A fresh copy of an array or of a field of arrays."""
    if isinstance(field, np.ndarray):
        return field.copy()
    return type(field)(*(p.copy() for p in _parts(field)))


def _march_from(system, f0, g_half0, dt, n_steps, **kwargs):
    """`system` marched from copies of (f0, g_half0) in place of its own
    start: a march overwrites the pair its start returns."""
    return replace(system, start=lambda _: (_copy(f0), _copy(g_half0))).march(dt, n_steps,
                                                                               **kwargs)


def _oscillator(rng):
    p, n_steps = oscillator.OscParams(omega=1.3, dt=0.07), 5
    system = oscillator.oscillator_system(p)
    ops, inner = system.ops, system.inner_X

    def run(f, g):  # the System's march starts from whole-step data (u0, v0)
        return _final(oscillator.oscillator_system(p, f, g).march(p.dt, n_steps))

    def core(f, g):
        return _final(run_system(f, g, ops, p.dt, n_steps, inner, inner))

    return dict(
        state=SystemState(f=0.6, g_half=-0.4, dt=p.dt),
        dt=p.dt,
        step=lambda s: oscillator.leapfrog_step(s, p),
        run=run,
        core=core,
        system=system,
    )


def _grid1d():
    return wave1d.Grid1D(a=0.0, b=1.0, nx=23, t_final=0.3, nt=20)


def _state1d(grid, rng):
    u = rng.standard_normal(grid.nx)
    u[0] = u[-1] = 0.0
    return SystemState(f=u, g_half=rng.standard_normal(grid.nx - 1), dt=grid.dt)


def _final(ran):
    """(f, g_half, records) of a runner's (state, records)."""
    state, records = ran
    return state.f, state.g_half, records


def _wave1d(rng, grid, system, step):
    ops, inner_X, inner_Y = _engine(system)
    return dict(
        state=_state1d(grid, rng),
        dt=grid.dt,
        step=step,
        run=lambda f, g: _final(_march_from(system, f, g, grid.dt, grid.nt, record_every=2)),
        core=lambda f, g: _final(run_system(f, None, ops, grid.dt, grid.nt, inner_X, inner_Y,
                                            g_half0=g, record_every=2)),
        system=system,
    )


def _cmp(rng):
    grid, c = _grid1d(), 1.7
    return _wave1d(rng, grid, wave1d.cmp_system(c, grid), lambda s: wave1d.cmp_step(s, c, grid))


def _vmp(rng):
    grid = _grid1d()
    mats = wave1d.Materials1D.from_profiles(
        grid, wave1d.bump_profile(2), wave1d.piecewise_linear_profile()
    )
    return _wave1d(rng, grid, wave1d.vmp_system(mats, grid),
                   lambda s: wave1d.vmp_step(s, mats, grid))


def _wave2d(rng):
    grid, star = wave2d.Grid2(7, 9), wave2d.Star2(a=2.0, a11=1.5, a22=3.0)
    system = wave2d.wave2d_system(star, grid)
    ops, inner_X, inner_Y = _engine(system)
    dt = system.cfl_dt(0.8)
    u = np.zeros(grid.shape("fp"))
    u[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.ny - 1))
    v = (rng.standard_normal(grid.shape("nxd")), rng.standard_normal(grid.shape("nyd")))
    return dict(
        state=SystemState(f=u, g_half=v, dt=dt),
        dt=dt,
        step=lambda s: wave2d.wave2d_step(s, star, grid),
        run=lambda f, g: _final(_march_from(system, f, wave2d.VectorField2(*g), dt, 5,
                                            record_every=2)),
        core=lambda f, g: _final(run_system(f, None, ops, dt, 5, inner_X, inner_Y,
                                            g_half0=wave2d.VectorField2(*g), record_every=2)),
        system=system,
    )


def _grid3d():
    return Grid3.cube(4, 1.0, boundary="pinned")


def _random_field(grid, kind, rng):
    return VectorField3(*(rng.standard_normal(sh) for sh in grid.vector_shapes(kind)))


def _scalar3d(rng):
    grid = _grid3d()
    star = Star3.from_diagonals(grid, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5))
    system = wave3d.scalar_wave_system(star, grid)
    ops, inner_X, inner_Y = _engine(system)
    dt = system.cfl_dt(0.8)
    s = wave3d.pin_scalar_boundary(rng.standard_normal(grid.scalar_shape("node")))
    return dict(
        state=SystemState(f=s, g_half=_random_field(grid, "dual-face", rng), dt=dt),
        dt=dt,
        step=lambda st: wave3d.scalar_wave_step(st, star, grid),
        run=lambda f, g: _final(_march_from(system, f, g, dt, 5, record_every=2,
                                            audit=lambda _, pieces: pieces)),
        core=lambda f, g: _final(run_system(f, None, ops, dt, 5, inner_X, inner_Y, g_half0=g,
                                            record_every=2, audit=lambda _, pieces: pieces)),
        system=system,
    )


def _maxwell_stars(grid):
    """(eps, mu): non-unit diagonal materials."""
    return (
        Star3.from_diagonals(grid, 1.0, 1.0, (2.0, 3.0, 4.0), (1.0, 1.0, 1.0)),
        Star3.from_diagonals(grid, 1.0, 1.0, (1.0, 1.0, 1.0), (1.5, 2.5, 3.5)),
    )


def _maxwell_audit(eps, mu, grid):
    """The invariant pieces and the divergence audit of each record, with
    one auditor for the march, as the `maxwell` command makes it."""
    divergences = wave3d.divergence_auditor(eps, mu, grid)

    def audit(state, pieces):
        return (*pieces, *divergences(state.f, state.g_half))

    return audit


def _maxwell(rng):
    grid = _grid3d()
    eps, mu = _maxwell_stars(grid)
    system = wave3d.maxwell_system(eps, mu, grid)
    ops, inner_X, inner_Y = _engine(system)
    dt = system.cfl_dt(0.8)
    e = wave3d.pin_tangential_boundary(_random_field(grid, "edge", rng))
    audit = _maxwell_audit(eps, mu, grid)
    return dict(
        state=SystemState(f=e, g_half=_random_field(grid, "dual-edge", rng), dt=dt),
        dt=dt,
        step=lambda st: wave3d.maxwell_step(st, eps, mu, grid),
        run=lambda f, g: _final(_march_from(system, f, g, dt, 5, record_every=2,
                                            audit=audit)),
        core=lambda f, g: _final(run_system(f, None, ops, dt, 5, inner_X, inner_Y, g_half0=g,
                                            record_every=2, audit=audit)),
        system=system,
    )


SYSTEMS = {
    "oscillator": _oscillator,
    "wave1d-cmp": _cmp,
    "wave1d-vmp": _vmp,
    "wave2d": _wave2d,
    "wave3d-scalar": _scalar3d,
    "maxwell": _maxwell,
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_public_names_are_the_core_engine(name):
    """Each module's `System` marches as `run_system` on its parts, and each
    kept step is `system_step` on its pair, bit for bit."""
    case = SYSTEMS[name](np.random.default_rng(5))
    ops = case["system"].ops
    state = core = case["state"]
    for _ in range(3):
        state, core = case["step"](state), system_step(core, ops)
        assert _same(state.f, core.f) and _same(state.g_half, core.g_half)
        assert state.step == core.step and state.dt == core.dt
    f, g = case["state"].f, case["state"].g_half
    f_run, g_run, records = case["run"](f, g)
    f_core, g_core, core_records = case["core"](f, g)
    assert _same(f_run, f_core) and (g_run is None or _same(g_run, g_core))
    assert records == core_records


# ---------------------------------------------------------------------------
# one contract for every module's System
# ---------------------------------------------------------------------------


def _preset(*argv):
    """The System that `stagwave system` builds from argv."""
    return cli._system_march(cli.build_parser().parse_args(["system", *argv])).system


def _cube(n):
    return Grid3.cube(n, 1.0, boundary="pinned")


def _rough_vmp():
    grid = _grid1d()
    mats = wave1d.Materials1D.from_profiles(grid, wave1d.jump_profile(0.5),
                                            wave1d.piecewise_linear_profile())
    return wave1d.vmp_system(mats, grid)


CONTRACT_SYSTEMS = {
    "oscillator": lambda: oscillator.oscillator_system(
        oscillator.OscParams(omega=1.3, dt=0.07), 0.6, -0.4),
    "oscillator-exact-init": lambda: oscillator.oscillator_system(
        oscillator.OscParams(omega=0.7, dt=0.07), 1.2, 0.3, exact_init=True),
    "wave1d-cmp": lambda: wave1d.cmp_system(1.7, _grid1d(), m=2),
    "wave1d-cmp-taylor": lambda: wave1d.cmp_system(0.6, _grid1d(), init="taylor"),
    "wave1d-vmp": _rough_vmp,
    "wave2d": lambda: wave2d.wave2d_system(wave2d.Star2(), wave2d.Grid2(7, 9), m=2,
                                           init="exact"),
    "wave2d-star": lambda: wave2d.wave2d_system(wave2d.Star2(a=2.0, a11=1.5, a22=3.0),
                                                wave2d.Grid2(8, 8)),
    "wave3d-scalar": lambda: wave3d.scalar_wave_system(Star3.trivial(_cube(4)), _cube(4),
                                                       modes=(1, 2, 1)),
    "wave3d-scalar-diag": lambda: wave3d.scalar_wave_system(
        Star3.from_diagonals(_cube(4), 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5)), _cube(4)),
    "maxwell": lambda: wave3d.maxwell_system(Star3.trivial(_cube(4)), Star3.trivial(_cube(4)),
                                             _cube(4)),
    "maxwell-diag": lambda: wave3d.maxwell_system(*_maxwell_stars(_cube(4)), _cube(4)),
    "system-oscillator": lambda: _preset("--preset", "oscillator", "--omega", "1.1",
                                         "--u0", "0.9", "--v0", "0.1"),
    "system-cmp": lambda: _preset("--preset", "cmp", "--nx", "17", "--c", "1.5"),
}


def _random_like(field, rng):
    """A standard-normal field of `field`'s type and shapes."""
    if np.isscalar(field):
        return float(rng.standard_normal())
    if isinstance(field, np.ndarray):
        return rng.standard_normal(field.shape)
    return type(field)(*(rng.standard_normal(np.shape(p)) for p in _parts(field)))


def _admissible(name, f):
    """f restricted to the subspace the march of CONTRACT_SYSTEMS[name]
    keeps: zero 1D ends, a zero 2D ring, the pinned 3D walls."""
    if name.startswith("maxwell"):
        return wave3d.pin_tangential_boundary(f)
    if name.startswith("wave3d"):
        return wave3d.pin_scalar_boundary(f)
    if name.startswith("wave2d"):
        f[[0, -1], :] = f[:, [0, -1]] = 0.0
    elif np.ndim(f):
        f[[0, -1]] = 0.0
    return f


@pytest.mark.parametrize("name", sorted(CONTRACT_SYSTEMS))
def test_every_system_keeps_the_contract(name):
    system = CONTRACT_SYSTEMS[name]()
    dt_max = system.cfl_dt(1.0)
    # the CFL step is the analytic bound's, to rounding, and needs a positive safety
    assert 0.0 < dt_max * system.ops.norm_bound_A <= 2.0 * (1.0 + 4 * np.finfo(float).eps)
    for safety in (0.0, -0.5):
        with pytest.raises(ValueError, match="safety"):
            system.cfl_dt(safety)
    # the pair is adjoint in the System's own products, and the bound is above
    # the measured norm, both on admissible samples
    f0, g0 = system.start(0.9 * dt_max)
    assert check_adjointness(system.ops, system.inner_X, system.inner_Y, 3,
                             lambda rng: _admissible(name, _random_like(f0, rng)),
                             lambda rng: _random_like(g0, rng)) <= 1e-12
    measured = system.measured_norm(_admissible(name, _random_like(f0, np.random.default_rng(0))))
    assert 0.0 < measured <= system.ops.norm_bound_A * (1.0 + 1e-9)
    with pytest.warns(RuntimeWarning, match="unstable"):
        system.march(1.01 * dt_max, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, records = system.march(0.9 * dt_max, 200)
    # the start is the exact solution at t = 0, where the module knows one
    if system.exact is not None:
        f0, _ = system.start(0.9 * dt_max)
        assert all(np.array_equal(a, b) for a, b in zip(_parts(f0), _parts(system.exact(0.0))))
        assert system.error(f0, 0.0) == 0.0
    for idx in (1, 2):
        series = np.array([r[idx] for r in records])
        assert np.max(np.abs(series - series[0])) <= 1e-12 * abs(series[0])


ERROR_SYSTEMS = {
    "wave1d-cmp": lambda: wave1d.cmp_system(1.0, wave1d.Grid1D(a=0.0, b=1.0, nx=4097,
                                                                t_final=1.0, nt=1)),
    "wave2d": lambda: wave2d.wave2d_system(wave2d.Star2(), wave2d.Grid2(64, 64)),
    "wave3d-scalar": lambda: wave3d.scalar_wave_system(Star3.trivial(_cube(16)), _cube(16)),
    "maxwell": lambda: wave3d.maxwell_system(Star3.trivial(_cube(16)), Star3.trivial(_cube(16)),
                                             _cube(16)),
}


@pytest.mark.parametrize("name", sorted(ERROR_SYSTEMS))
def test_error_makes_one_temporary_per_component(name):
    system = ERROR_SYSTEMS[name]()
    dt = system.cfl_dt(0.8)
    f = system.march(dt, 7, record_every=0)[0].f
    exact = system.exact(7 * dt)
    fixed = replace(system, exact=lambda _: exact)
    want = float(np.max([np.max(np.abs(a - b)) for a, b in zip(_parts(f), _parts(exact))]))
    assert want > 0.0 and fixed.error(f, 7 * dt) == want
    # one difference at a time, made absolute in place
    component = max(c.nbytes for c in _parts(exact))
    assert _peak_bytes(lambda: fixed.error(f, 7 * dt)) < 1.5 * component


def test_systems_know_the_exact_mode_of_unit_materials_only():
    assert wave2d.wave2d_system(wave2d.Star2(a=2.0), wave2d.Grid2(4, 4)).exact is None
    assert wave3d.scalar_wave_system(Star3.from_scalars(_cube(4), 2.0, 1.5, 3.0, 2.5),
                                     _cube(4)).exact is None
    assert CONTRACT_SYSTEMS["maxwell-diag"]().exact is None
    assert CONTRACT_SYSTEMS["wave1d-vmp"]().exact is None
    with pytest.raises(ValueError, match="init"):
        wave1d.cmp_system(1.0, _grid1d(), init="midpoint")


# unit-material Systems that start at rest on a grid eigenmode of A*A: the
# System, the mode numbers and the spacings of the 8-cell pinned grid
MODE_SYSTEMS = {
    "wave1d-cmp": lambda: (
        wave1d.cmp_system(1.0, wave1d.Grid1D(a=0.0, b=1.0, nx=9, t_final=1.0, nt=1),
                          init="taylor"),
        (1,), (1 / 8,)),
    "wave2d": lambda: (wave2d.wave2d_system(wave2d.Star2(), wave2d.Grid2(8, 8)),
                       (1, 1), (1 / 8, 1 / 8)),
    "wave3d": lambda: (wave3d.scalar_wave_system(Star3.trivial(_cube(8)), _cube(8),
                                                 modes=(1, 2, 1)),
                       (1, 2, 1), _cube(8).spacings),
    "maxwell-te110": lambda: (wave3d.maxwell_system(Star3.trivial(_cube(8)),
                                                    Star3.trivial(_cube(8)), _cube(8)),
                              (1, 1, 0), _cube(8).spacings),
}


@pytest.mark.parametrize("name", sorted(MODE_SYSTEMS))
def test_eigenmode_march_is_the_scalar_leapfrog(name):
    """A march from rest on a grid mode stays on it, and its amplitude a_n is
    the oscillator's leapfrog with omega = sigma, the mode's singular value of
    A: sigma^2 = sum_i (2 sin(m_i pi h_i / 2) / h_i)^2.  At every record,
    ||f_n - a_n f_0|| <= 2 n eps ||f_0|| in the max norm."""
    system, modes, spacings = MODE_SYSTEMS[name]()
    sigma = np.sqrt(sum((2 * np.sin(m * np.pi * h / 2) / h) ** 2
                        for m, h in zip(modes, spacings)))
    dt, steps = system.cfl_dt(0.9), 400
    a, b = [1.0], dt / 2 * sigma  # b_{1/2}: the Taylor half step from rest
    for _ in range(steps):
        a.append(a[-1] - dt * sigma * b)
        b += dt * sigma * a[-1]
    f0 = _parts(system.start(dt)[0])
    norm0 = max(float(np.max(np.abs(p))) for p in f0)

    def deviation(state, _):  # measured at each record: the march's fields are not kept
        return (max(float(np.max(np.abs(p - a[state.step] * q)))
                    for p, q in zip(_parts(state.f), f0)),)

    _, records = system.march(dt, steps, audit=deviation)
    assert len(records) == steps
    eps = np.finfo(float).eps
    assert all(r[3] <= 2 * r[0] * eps * norm0 for r in records)


def test_system_oscillator_preset_is_its_own_pair():
    # A = -omega with Euclidean products: its invariants are twice those of
    # oscillator_system (A = +omega, products 1/2 x y) from the same start
    preset = _preset("--preset", "oscillator", "--dt", "0.01")
    own = oscillator.oscillator_system(oscillator.OscParams(omega=1.0, dt=0.01))
    _, ran = preset.march(0.01, 3)
    _, own_ran = own.march(0.01, 3)
    assert ran[-1][1] == pytest.approx(0.999975, rel=1e-6)
    assert own_ran[-1][1] == pytest.approx(0.4999875, rel=1e-6)
    assert preset.ops.apply_A(1.0) == -own.ops.apply_A(1.0)


def _counted(ops, counts):
    """The pair with every application of A and A* counted, those of its
    plans included (one per run of a plan)."""

    def count(name, fn):
        def apply(x):
            counts[name] += 1
            return fn(x)

        return apply

    def plan(x, y, dt, out, adjoint):
        run = ops.plan(x, y, dt, out, adjoint)

        def counted():
            counts["Astar" if adjoint else "A"] += 1
            return run()

        return counted

    return replace(ops, apply_A=count("A", ops.apply_A),
                   apply_Astar=count("Astar", ops.apply_Astar),
                   plan=None if ops.plan is None else plan)


def _three_term(state, ops, inner_X, inner_Y):
    """(C_n, C_half) of a state in the three-term forms, A and A* applied:
    ||f_n||^2 + ||g_bar||^2 - (dt/2)^2 ||A f_n||^2 and
    ||f_bar||^2 + ||g_{n-1/2}||^2 - (dt/2)^2 ||A* g_{n-1/2}||^2."""
    h2 = (0.5 * state.dt) ** 2
    g_bar = 0.5 * (state.g_half + state.g_prev_half)
    f_bar = 0.5 * (state.f + state.f_prev)
    af, ag = ops.apply_A(state.f), ops.apply_Astar(state.g_prev_half)
    return (inner_X(state.f, state.f) + inner_Y(g_bar, g_bar) - h2 * inner_Y(af, af),
            inner_X(f_bar, f_bar) + inner_Y(state.g_prev_half, state.g_prev_half)
            - h2 * inner_X(ag, ag))


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_records_are_the_three_term_invariants(name, record_every):
    case = SYSTEMS[name](np.random.default_rng(7))
    ops, inner_X, inner_Y = _engine(case["system"])
    f, g = case["state"].f, case["state"].g_half
    counts = Counter()
    _, records = run_system(f, None, _counted(ops, counts), case["dt"], 7, inner_X, inner_Y,
                            g_half0=g, record_every=record_every)
    # one A and one A* per step: recording applied neither operator
    assert counts == {"A": 7, "Astar": 7}
    assert [r[0] for r in records] == list(range(record_every, 8, record_every))
    # the three-term forms of the same steps, taken one allocating step at a
    # time, each state with its step of history
    state, forms = SystemState(f=f, g_half=g, dt=case["dt"]), []
    for n in range(1, 8):
        state = system_step(state, ops)
        if n % record_every == 0:
            forms.append(_three_term(state, ops, inner_X, inner_Y))
    assert len(forms) == len(records)
    for (_, c_n, c_half), (ref_n, ref_half) in zip(records, forms):
        assert abs(c_n - ref_n) <= 1e-15 * abs(ref_n)
        assert abs(c_half - ref_half) <= 1e-15 * abs(ref_half)


def _count_3d_calls(monkeypatch, counts):
    """Count every mimetic3d operator, star and inner3 call, and every
    difference pass: a `_run` of the calls that `_difference`, the one loop
    of the six operators and the 3D update plans, binds, one per update
    run or audit.  Each is rebound in every stagwave module that holds a
    reference to it."""
    modules = [m for n, m in sys.modules.items() if n.startswith("stagwave.")]
    for name in OPS_3D + ("inner3", "_run"):
        original = getattr(mimetic3d, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize(
    "record_every, passes_per_step, ops_per_step, inner3_per_step",
    [(1, 4, 0, 4), (0, 2, 0, 0)],
)
def test_maxwell_step_operator_count(monkeypatch, record_every, passes_per_step, ops_per_step,
                                     inner3_per_step):
    # a step is two difference passes, R* H and R E, made by the update plans,
    # which weights their components itself; a recorded step adds the
    # divergence audit's two weighted passes, D*(eps E) and D(mu H), which
    # call no operator or star, and the invariants four inner products
    grid = _grid3d()
    eps, mu = _maxwell_stars(grid)
    case = _maxwell(np.random.default_rng(3))
    state, counts = case["state"], Counter()
    _count_3d_calls(monkeypatch, counts)
    _march_from(wave3d.maxwell_system(eps, mu, grid), state.f, state.g_half, case["dt"], 5,
                record_every=record_every, audit=_maxwell_audit(eps, mu, grid))
    inner = counts.pop("inner3", 0)
    assert counts.pop("_run") == 5 * passes_per_step
    assert sum(counts.values()) == 5 * ops_per_step
    assert inner == 5 * inner3_per_step


# ---------------------------------------------------------------------------
# the in-place unrecorded step of the 3D pairs
# ---------------------------------------------------------------------------


def _diag(grid, scale):
    return Star3.from_diagonals(grid, 1.5 * scale, 2.0 * scale, (2.0, 3.0, 4.0),
                                (1.5, 2.5, 3.5))


# star choices: unit, diagonal, and for Maxwell a unit star on one side only
INPLACE_STARS = {
    "unit": lambda grid: (Star3.trivial(grid), Star3.trivial(grid)),
    "diagonal": lambda grid: (_diag(grid, 1.0), _diag(grid, 1.3)),
    "unit-eps": lambda grid: (Star3.trivial(grid), _diag(grid, 1.0)),
    "unit-mu": lambda grid: (_diag(grid, 1.0), Star3.trivial(grid)),
}
INPLACE_CASES = [
    (system, boundary, stars)
    for system in ("wave3d-scalar", "maxwell")
    for boundary in ("pinned", "periodic")
    for stars in INPLACE_STARS
    if system == "maxwell" or stars in ("unit", "diagonal")
]


def _inplace_case(system, boundary, stars, rng):
    """(system, f0, g_half0, dt, stars) on a 4 x 5 x 3 box with random start
    data; the scalar wave uses the first star."""
    grid = Grid3(1.0, 1.2, 0.8, 4, 5, 3, boundary=boundary)
    eps, mu = INPLACE_STARS[stars](grid)
    if system == "maxwell":
        sys3 = wave3d.maxwell_system(eps, mu, grid)
        f0 = mimetic3d.random_field(grid, "edge", rng)
        if boundary == "pinned":
            f0 = wave3d.pin_tangential_boundary(f0)
        return (_engine(sys3), f0, mimetic3d.random_field(grid, "dual-edge", rng),
                sys3.cfl_dt(0.8), (eps, mu))
    sys3 = wave3d.scalar_wave_system(eps, grid)
    f0 = mimetic3d.random_field(grid, "node", rng)
    if boundary == "pinned":
        f0 = wave3d.pin_scalar_boundary(f0)
    return (_engine(sys3), f0, mimetic3d.random_field(grid, "dual-face", rng),
            sys3.cfl_dt(0.8), (eps, mu))


# Runs of the in-place tests: 13 steps, so that with every 3rd or 5th step
# recorded the run ends on unrecorded steps after a recorded one (with every
# 5th, two in place and the fresh last step after step 10's record).
IN_PLACE_STEPS = 13
RECORD_EVERY = [0, 1, 3, 5]


@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("system, boundary, stars", INPLACE_CASES)
def test_in_place_run_equals_allocating_steps(system, boundary, stars, record_every):
    (ops, inner_X, inner_Y), f0, g0, dt, _ = _inplace_case(system, boundary, stars,
                                                            np.random.default_rng(31))
    assert ops.plan is not None
    n = IN_PLACE_STEPS
    kept = [b.copy() for b in _bits(f0) + _bits(g0)]
    state, records = run_system(f0, None, ops, dt, n, inner_X, inner_Y, g_half0=g0,
                                record_every=record_every)
    # the caller's start data is never written
    assert all(np.array_equal(a, b) for a, b in zip(kept, _bits(f0) + _bits(g0)))
    # a loop of allocating steps (no plan) gives the same bits; the run,
    # which works in place, keeps no history
    ref = SystemState(f=f0, g_half=g0, dt=dt)
    for _ in range(n):
        ref = system_step(ref, ops)
    assert _same(state.f, ref.f) and _same(state.g_half, ref.g_half)
    assert state.f_prev is None and state.g_prev_half is None
    # and so does the engine on the pair without its plan, records included
    bare, bare_records = run_system(f0, None, replace(ops, plan=None), dt, n, inner_X,
                                    inner_Y, g_half0=g0, record_every=record_every)
    assert _same(state.f, bare.f) and _same(state.g_half, bare.g_half)
    assert records == bare_records
    assert len(records) == (n // record_every if record_every else 0)


@pytest.mark.parametrize("record_every", [0, 1, 3])
def test_in_place_run_overwrites_its_own_pair(record_every):
    (ops, inner_X, inner_Y), f0, g0, dt, _ = _inplace_case("maxwell", "pinned", "unit",
                                                            np.random.default_rng(32))
    calls = []  # (x, out, result) of every planned update: f then g, one step after another

    def watch(x, y, dt, out, adjoint):
        run = ops.plan(x, y, dt, out, adjoint)

        def watched():
            calls.append((x, out, run()))
            return calls[-1][2]

        return watched

    state, _ = run_system(f0, None, replace(ops, plan=watch), dt, 8, inner_X, inner_Y,
                          g_half0=g0, record_every=record_every)
    assert len(calls) == 2 * 8
    # the first step writes into fresh fields (the start pair is the
    # caller's); every other step, recorded or not, overwrites that pair
    assert all(out is None for _, out, _ in calls[:2])
    assert all(out is x for x, out, _ in calls[2:])
    # so the whole run makes one pair, and ends on it with no history
    assert len({id(c) for _, _, result in calls for c in _parts(result)}) == 6
    assert _ids(state.f, state.g_half) == _ids(calls[0][2], calls[1][2])
    assert state.f_prev is None and state.g_prev_half is None


def _peak_bytes(run):
    """tracemalloc's peak over run(), counting what it allocates."""
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _steady_peak(engine, f0, g0, dt, n_steps, record_every=0, audit=None):
    """The most that memory rises during steps 3 to n_steps - 1 of a run of
    `engine` (a pair and its products) recorded every `record_every` steps:
    the steps after the first two, and before the last.  Each update (a run
    of a plan, or an application of the pair's operators) is measured over
    what is live as it begins, and so is the growth of what is live from
    the first of those updates to the last.  With an `audit`, every step
    must be recorded, and each of a record's four inner products and its
    audit is measured as well."""
    import tracemalloc

    ops, inner_X, inner_Y = engine
    starts, rises = [], []

    def measured(fn):
        def run(*args):
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            result = fn(*args)
            rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
            return result

        return run

    def plan(x, y, dt, out, adjoint):
        return measured(ops.plan(x, y, dt, out, adjoint))

    assert audit is None or record_every == 1
    if audit is not None:
        inner_X, inner_Y, audit = measured(inner_X), measured(inner_Y), measured(audit)
    watched = replace(ops, plan=plan, apply_A=measured(ops.apply_A),
                      apply_Astar=measured(ops.apply_Astar))
    _peak_bytes(lambda: run_system(f0, None, watched, dt, n_steps, inner_X, inner_Y,
                                   g_half0=g0, record_every=record_every, audit=audit))
    per_step = 2 if audit is None else 2 + 4 + 1  # two updates, four products, the audit
    assert len(rises) == per_step * n_steps
    steady = slice(2 * per_step, -per_step)
    return max(max(rises[steady]), max(starts[steady]) - starts[steady][0])


def _fresh(engine):
    """The engine with plans that ignore `out` and make fresh fields."""
    ops = engine[0]
    return (replace(ops, plan=lambda x, y, dt, out, adjoint: ops.plan(x, y, dt, None, adjoint)),
            *engine[1:])


@pytest.mark.parametrize("record_every", [0, 1])
def test_steady_maxwell_steps_allocate_no_field(record_every):
    grid = Grid3.cube(64, 1.0, boundary="pinned")
    star = Star3.trivial(grid)
    system = wave3d.maxwell_system(star, star, grid)
    engine = _engine(system)
    dt = system.cfl_dt(0.9)
    f0, g0 = system.start(dt)  # the TE mode, with the Taylor half step for H
    component = f0.x.nbytes
    run_system(f0, None, system.ops, dt, 1, g_half0=g0, record_every=0)  # the pair makes its scratch
    # 20 steps, recorded or not, may add only numpy's fixed-size iteration
    # buffers for strided operands, not a field
    assert _steady_peak(engine, f0, g0, dt, 22, record_every) < component
    # the measure sees a step that makes a field
    assert _steady_peak(_fresh(engine), f0, g0, dt, 22, record_every) > component


def test_steady_audited_maxwell_march_allocates_no_field():
    # the `maxwell` command's march: diagonal stars, every step recorded and
    # audited by one divergence auditor; the plans, a record's four inner
    # products and the audit all work in the grid's one shared scratch
    grid = Grid3.cube(40, 1.0, boundary="pinned")
    eps, mu = wave3d.parse_material_3d("diag3d", "maxwell")(grid)
    system = wave3d.maxwell_system(eps, mu, grid)
    dt = system.cfl_dt(0.9)
    f0, g0 = system.start(dt)
    component = f0.x.nbytes
    divergences = wave3d.divergence_auditor(eps, mu, grid)
    assert _steady_peak(_engine(system), f0, g0, dt, 22, 1,
                        lambda state, _: divergences(state.f, state.g_half)) < component

    # the measure sees an audit that makes its fields: the allocating
    # expressions whose bits the auditor has
    def fresh(state, _):
        return (np.sum(mimetic3d.div3_star(mimetic3d.star_matrix(state.f, eps, "a"), grid) ** 2),
                np.sum(mimetic3d.div3(mimetic3d.star_matrix(state.g_half, mu, "b"), grid) ** 2))

    assert _steady_peak(_engine(system), f0, g0, dt, 22, 1, fresh) > component


def test_unrecorded_march_holds_one_pair():
    grid = Grid3.cube(32, 1.0, boundary="pinned")
    star = Star3.trivial(grid)

    def system():  # a fresh System, whose plan has yet to make its scratch
        return wave3d.maxwell_system(star, star, grid)

    dt = system().cfl_dt(0.9)
    # the march overwrites the pair its start made, from step 1 to the last,
    # so it holds no more than the start did: E, H at rest and H at dt/2
    start = _peak_bytes(lambda: system().start(dt))
    component = np.empty(grid.vector_shapes("edge")[0]).nbytes
    assert _peak_bytes(lambda: system().march(dt, 10, record_every=0)) < start + component
    # and once the start is made, the steps allocate no field at all
    made = system()
    f0, g_half0 = made.start(dt)
    owned = replace(made, start=lambda _: (f0, g_half0))
    assert _peak_bytes(lambda: owned.march(dt, 10, record_every=0)) < component


# every System with a `plan`: all but the oscillators
HOOKED = sorted(name for name in CONTRACT_SYSTEMS if "oscillator" not in name)


def _watched(system, calls, starts):
    """`system` with the (x, out, result) of every planned update of its
    march in `calls`, and every pair its start returns in `starts`."""
    ops = system.ops

    def plan(x, y, dt, out, adjoint):
        run = ops.plan(x, y, dt, out, adjoint)

        def watched():
            calls.append((x, out, run()))
            return calls[-1][2]

        return watched

    def start(dt):
        starts.append(system.start(dt))
        return starts[-1]

    return replace(system, ops=replace(ops, plan=plan), start=start)


def _ids(*fields):
    return [id(c) for field in fields for c in _parts(field)]


@pytest.mark.parametrize("name", HOOKED)
def test_unrecorded_march_overwrites_its_start_pair(monkeypatch, name):
    system = CONTRACT_SYSTEMS[name]()
    assert system.ops.plan is not None
    dt = system.cfl_dt(0.8)
    f0, g0 = system.start(dt)
    # run_system never writes the caller's pair
    want, _ = run_system(f0, None, system.ops, dt, 8, g_half0=g0, record_every=0)
    steps = []

    def step(state, ops, **kwargs):
        steps.append(state.step)
        return system_step(state, ops, **kwargs)

    monkeypatch.setattr(core, "system_step", step)
    calls, starts = [], []
    state, records = _watched(system, calls, starts).march(dt, 8, record_every=0)
    # every step overwrites the start pair in place, so the march makes no
    # field; the first goes through `system_step`, the others inline
    assert len(calls) == 2 * 8 and all(out is x for x, out, _ in calls)
    assert _ids(state.f, state.g_half) == _ids(*starts[0])
    assert steps == [0]
    assert records == [] and state.step == 8
    assert state.f_prev is None and state.g_prev_half is None
    assert _same(state.f, want.f) and _same(state.g_half, want.g_half)


@pytest.mark.parametrize("record_every", [1, 3, 4])
@pytest.mark.parametrize("name", HOOKED)
def test_recorded_march_overwrites_its_start_pair(name, record_every):
    system = CONTRACT_SYSTEMS[name]()
    dt = system.cfl_dt(0.8)
    f0, g0 = system.start(dt)
    # the allocating reference: the pair without its plan, whose every state
    # keeps its step of history for the records
    want, want_records = run_system(f0, None, replace(system.ops, plan=None), dt, 8,
                                    system.inner_X, system.inner_Y, g_half0=g0,
                                    record_every=record_every)
    calls, starts = [], []
    state, records = _watched(system, calls, starts).march(dt, 8, record_every=record_every)
    assert records == want_records and len(records) == 8 // record_every
    assert _same(state.f, want.f) and _same(state.g_half, want.g_half)
    assert state.f_prev is None and state.g_prev_half is None
    # every step, recorded or not, overwrites the start pair in place, so no
    # field is made after step 1
    assert len(calls) == 2 * 8 and all(out is x for x, out, _ in calls)
    assert _ids(state.f, state.g_half) == _ids(*starts[0])


@pytest.mark.parametrize("stars", ["trivial3d", "diag3d"])
@pytest.mark.parametrize("rung", ["maxwell", "scalar"])
def test_recorded_march_holds_one_field_more_than_an_unrecorded_one(rung, stars):
    # a recorded step needs the old f and the old g one at a time, so a
    # march that records every step holds one field of history, as large
    # as the larger of f and g, beyond what a march that records none
    # holds (a spare pair would be two fields).  Each march runs from a
    # start made beforehand, and hands its records to a sink that keeps
    # none.  On a 16^3 grid the history's views, about 1.2 KB of objects,
    # are 1% of a field; on an 8^3 grid they would be 8%
    grid = Grid3.cube(16, 1.0, boundary="pinned")
    made = wave3d.parse_material_3d(stars, rung)(grid)
    if rung == "maxwell":
        system = wave3d.maxwell_system(*made, grid)
    else:
        system = wave3d.scalar_wave_system(made, grid)
    dt = system.cfl_dt(0.9)
    f0, g0 = system.start(dt)  # the plans make the grid's scratch
    field = max(sum(p.nbytes for p in _parts(x)) for x in (f0, g0))

    def peak(record_every):
        pair = _copy(f0), _copy(g0)
        owned = replace(system, start=lambda _: pair)
        return _peak_bytes(lambda: owned.march(dt, 8, record_every=record_every,
                                               records=deque(maxlen=0)))

    peak(1)  # the first recorded march fills the tables every later one shares
    assert peak(1) - peak(0) <= 1.05 * field


@pytest.mark.parametrize("name", sorted(CONTRACT_SYSTEMS))
def test_every_start_returns_fields_of_its_own(name):
    # a march overwrites the pair its start returns, so each start makes its
    # own writable fields, shared with no other field of that start or the next
    system = CONTRACT_SYSTEMS[name]()
    dt = system.cfl_dt(0.8)
    parts = [p for _ in range(2) for field in system.start(dt) for p in _parts(field)]
    arrays = [p for p in parts if isinstance(p, np.ndarray)]
    assert len(arrays) == (0 if "oscillator" in name else len(parts))
    assert all(a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


class _WeightOperands:
    """numpy as `wave3d` sees it, with every multiply whose first operand is
    one of `weights` counted as a "weight"."""

    def __init__(self, counts, weights):
        self.counts, self.weights = counts, {id(w) for w in weights}

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        if id(args[0]) in self.weights:
            self.counts["weight"] += 1
        return np.multiply(*args, **kwargs)


@pytest.mark.parametrize(
    "stars, stars_per_step",
    [("unit", 0), ("unit-eps", 1), ("unit-mu", 1), ("diagonal", 2)],
)
def test_unrecorded_maxwell_step_skips_unit_stars(monkeypatch, stars, stars_per_step):
    _, f0, g0, dt, (eps, mu) = _inplace_case("maxwell", "pinned", stars,
                                             np.random.default_rng(3))
    counts = Counter()
    _count_3d_calls(monkeypatch, counts)
    monkeypatch.setattr(wave3d, "np", _WeightOperands(counts, eps.a_inv_diag + mu.b_inv_diag))
    _march_from(wave3d.maxwell_system(eps, mu, eps.grid), f0, g0, dt, 5, record_every=0)
    counts.pop("inner3", 0)
    # two difference passes a step and no star call: the plan weights each of
    # a pass's three components itself, once per star that is not unit
    assert counts == Counter({"_run": 5 * 2, "weight": 5 * 3 * stars_per_step})


# ---------------------------------------------------------------------------
# the in-place unrecorded step of the 1D and 2D pairs
# ---------------------------------------------------------------------------

# System builders on a grid of the given size: 1D cmp/vmp and 2D, each with
# unit and non-unit materials (a negative c for cmp, rough rho and tau for vmp)
LOWDIM_PAIRS = {
    "cmp-unit": lambda g: wave1d.cmp_system(1.0, g),
    "cmp": lambda g: wave1d.cmp_system(1.7, g),
    "cmp-negative": lambda g: wave1d.cmp_system(-1.3, g),
    "vmp-unit": lambda g: wave1d.vmp_system(
        wave1d.Materials1D.from_profiles(g, wave1d.ONE, wave1d.ONE), g),
    "vmp-rough": lambda g: wave1d.vmp_system(wave1d.Materials1D.from_profiles(
        g, wave1d.jump_profile(0.5), wave1d.piecewise_linear_profile()), g),
    "vmp-smooth-rho": lambda g: wave1d.vmp_system(wave1d.Materials1D.from_profiles(
        g, wave1d.bump_profile(2), wave1d.ONE), g),
    "wave2d-unit": lambda g: wave2d.wave2d_system(wave2d.Star2(), g),
    "wave2d": lambda g: wave2d.wave2d_system(wave2d.Star2(a=2.0, a11=1.5, a22=3.0), g),
    "wave2d-a22-only": lambda g: wave2d.wave2d_system(wave2d.Star2(a=1.0, a11=1.0, a22=0.7), g),
}


def _lowdim_case(name, n, rng):
    """(system, f0, g_half0, dt) with random start data whose first pinned
    value is -0.0, on n points (1D) or n x n cells (2D), or nx x ny cells
    for n = (nx, ny).  The spacing is a power of two, which divides by its
    exact reciprocal, for n = 17 in 1D and n = 8 in 2D; on 8 x 16 and
    16 x 8 cells both spacings are, and differ."""
    if name.startswith("wave2d"):
        grid = wave2d.Grid2(*n) if isinstance(n, tuple) else wave2d.Grid2(n, n)
        system = LOWDIM_PAIRS[name](grid)
        dt = 0.8 * 2.0 / system.ops.norm_bound_A
        f0 = np.zeros(grid.shape("fp"))
        f0[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.ny - 1))
        f0[0, 0] = -0.0
        g0 = wave2d.VectorField2(rng.standard_normal(grid.shape("nxd")),
                                 rng.standard_normal(grid.shape("nyd")))
        return _engine(system), f0, g0, dt
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=n, t_final=1.0, nt=1)
    system = LOWDIM_PAIRS[name](grid)
    f0 = rng.standard_normal(n)
    f0[0], f0[-1] = -0.0, 0.0
    return _engine(system), f0, rng.standard_normal(n - 1), 0.8 * 2.0 / system.ops.norm_bound_A


# every pair on 8 and 17 points or cells per axis, and the 2D pair with a
# unit and a non-unit star on cells of unequal power-of-two spacings, whose v
# update folds a different 1/h into each component
LOWDIM_RUNS = [(name, n) for name in sorted(LOWDIM_PAIRS) for n in (8, 17)] + [
    pytest.param(name, cells, id=f"{name}-{cells[0]}x{cells[1]}")
    for name in ("wave2d-unit", "wave2d") for cells in ((8, 16), (16, 8))]


@pytest.mark.parametrize("record_every", RECORD_EVERY)
@pytest.mark.parametrize("name, n", LOWDIM_RUNS)
def test_in_place_low_dim_run_equals_allocating_steps(name, n, record_every):
    (ops, inner_X, inner_Y), f0, g0, dt = _lowdim_case(name, n, np.random.default_rng(41))
    assert ops.plan is not None
    n_steps = IN_PLACE_STEPS
    kept = [b.copy() for b in _bits(f0) + _bits(g0)]
    state, records = run_system(f0, None, ops, dt, n_steps, inner_X, inner_Y, g_half0=g0,
                                record_every=record_every)
    # the caller's start data is never written, its -0.0 included
    assert all(np.array_equal(a, b) for a, b in zip(kept, _bits(f0) + _bits(g0)))
    assert np.signbit(f0.flat[0])
    assert state.f_prev is None and state.g_prev_half is None
    ref = SystemState(f=f0, g_half=g0, dt=dt)
    for _ in range(n_steps):
        ref = system_step(ref, ops)
    bare, bare_records = run_system(f0, None, replace(ops, plan=None), dt, n_steps, inner_X,
                                    inner_Y, g_half0=g0, record_every=record_every)
    for want in (ref, bare):
        assert _same(state.f, want.f) and _same(state.g_half, want.g_half)
        # the pinned rim has the allocating path's signed zeros
        assert np.array_equal(np.signbit(state.f), np.signbit(want.f))
    assert records == bare_records
    assert len(records) == (n_steps // record_every if record_every else 0)


@pytest.mark.parametrize("name", sorted(LOWDIM_PAIRS))
def test_in_place_low_dim_run_backward_in_time_keeps_the_rim_bits(name):
    # with dt < 0 the rim term dt * 0.0 is -0.0, so a rim left over from the
    # step before, rather than zeroed again, would flip the sign of a -0.0 end
    (ops, inner_X, inner_Y), f0, g0, dt = _lowdim_case(name, 8, np.random.default_rng(47))
    state, _ = run_system(f0, None, ops, -dt, 6, inner_X, inner_Y, g_half0=g0, record_every=0)
    bare, _ = run_system(f0, None, replace(ops, plan=None), -dt, 6, inner_X, inner_Y,
                         g_half0=g0, record_every=0)
    for got, want in zip(_parts(state.f) + _parts(state.g_half),
                         _parts(bare.f) + _parts(bare.g_half)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name, n", [("cmp", 2049), ("vmp-rough", 2049), ("wave2d", 256)])
@pytest.mark.parametrize("record_every", [0, 1])
def test_steady_low_dim_steps_allocate_no_field(record_every, name, n):
    engine, f0, g0, dt = _lowdim_case(name, n, np.random.default_rng(43))
    field = f0.nbytes
    # the pair makes its work arrays
    run_system(f0, None, engine[0], dt, 1, g_half0=g0, record_every=0)
    # 20 steps, recorded or not, add no field
    assert _steady_peak(engine, f0, g0, dt, 22, record_every) < field
    # the measure sees a step that makes a field
    assert _steady_peak(_fresh(engine), f0, g0, dt, 22, record_every) > field


def _count_scalar_operands(monkeypatch, counts):
    """Count the Python-float operands of every np.multiply and
    np.true_divide, in numpy itself: the update plans bind those calls in
    `core` and take their weighing ufunc from the module that builds the
    pair, so the pair must be built after this call."""
    for name in ("multiply", "true_divide"):
        def counted(*args, _fn=getattr(np, name), **kwargs):
            counts.update(a for a in args if isinstance(a, float))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)


@pytest.mark.parametrize(
    "name, weights",
    [("wave2d-unit", (1.0, 1.0, 1.0)), ("wave2d-a22-only", (1.0, 1.0, 0.7)),
     ("wave2d", (2.0, 1.5, 3.0))],
)
def test_unrecorded_wave2d_step_applies_one_coefficient_per_update(monkeypatch, name, weights):
    counts = Counter()
    _count_scalar_operands(monkeypatch, counts)
    (ops, _, _), f0, g0, dt = _lowdim_case(name, 7, np.random.default_rng(3))
    run_system(f0, None, ops, dt, 5, g_half0=g0, record_every=0)
    # three dt scalings a step (u, vx, vy); the rest are the update
    # coefficients at h = 1/7: a*h, by which the u update divides, and
    # a11/h and a22/h, a unit star's weight 1.0 among them, never 1.0 itself
    assert counts.pop(dt) == 5 * 3
    a, a11, a22 = weights
    h = 1.0 / 7
    assert counts == Counter({a * h: 5}) + Counter({a11 / h: 5}) + Counter({a22 / h: 5})
    assert 1.0 not in counts


# ---------------------------------------------------------------------------
# power-of-two spacings folded into the scale of the in-place update
# ---------------------------------------------------------------------------

def _never_fold(spacings, weight=None, *, divides=False):
    """`fold_spacing` refusing every fold: the plan divides its differences."""
    return SpacingFold(weight, None, True)


def _fold_case(name, n):
    """(pair, X shapes, Y shapes, module) of a named pair on n + 1 points (1D),
    n x n cells (2D) or a pinned or periodic n-cube (3D)."""
    if name.startswith(("cmp", "vmp")):
        grid = wave1d.Grid1D(a=0.0, b=1.0, nx=n + 1, t_final=1.0, nt=1)
        return LOWDIM_PAIRS[name](grid).ops, [(n + 1,)], [(n,)], wave1d
    if name.startswith("wave2d"):
        grid = wave2d.Grid2(n, n)
        star = FOLD_STARS_2D[name]
        return (wave2d.wave2d_system(star, grid).ops, [grid.shape("fp")],
                [grid.shape("nxd"), grid.shape("nyd")], wave2d)
    system, boundary, stars = name.split(":")
    grid = Grid3.cube(n, 1.0, boundary=boundary)
    eps, mu = INPLACE_STARS[stars](grid)
    if system == "maxwell":
        ops = wave3d.maxwell_system(eps, mu, grid).ops
        return ops, grid.vector_shapes("edge"), grid.vector_shapes("dual-edge"), wave3d
    ops = wave3d.scalar_wave_system(eps, grid).ops
    return ops, [grid.scalar_shape("node")], grid.vector_shapes("dual-face"), wave3d


FOLD_STARS_2D = {
    "wave2d-unit": wave2d.Star2(),
    "wave2d-a": wave2d.Star2(a=2.0),
    "wave2d-a11": wave2d.Star2(a11=1.5),
    "wave2d-a22": wave2d.Star2(a22=3.0),
    "wave2d-full": wave2d.Star2(a=2.0, a11=1.5, a22=3.0),
}
FOLD_NAMES = [
    "cmp-unit", "cmp", "cmp-negative", "vmp-unit", "vmp-rough", *FOLD_STARS_2D,
    *(f"{system}:{boundary}:{stars}" for system in ("wave3d-scalar", "maxwell")
      for boundary in ("pinned", "periodic") for stars in ("unit", "diagonal")),
]


def _wild(shapes, rng):
    """Random fields whose entries range from 1e-310 (subnormal) to 1e300,
    with both end planes along every axis -0.0 (the rim a pinned update
    adds a zero to)."""
    parts = []
    for shape in shapes:
        part = rng.standard_normal(shape) * 10.0 ** rng.uniform(-310.0, 300.0, shape)
        for axis in range(part.ndim):
            part[(slice(None),) * axis + (0,)] = -0.0
            part[(slice(None),) * axis + (-1,)] = -0.0
        parts.append(part)
    return parts


def _field(parts, module):
    if len(parts) == 1:
        return parts[0]
    return VectorField3(*parts) if module is wave3d else wave2d.VectorField2(*parts)


def _bits(field):
    return [p.view(np.int64) for p in _parts(field)]


def _updates(ops, xs, ys, dt, rng, module):
    """The planned u and v updates of one random draw, and the allocating
    expressions x - dt * A*(y) and x + dt * A(y)."""
    f, f_y = _field(_wild(xs, rng), module), _field(_wild(ys, rng), module)
    g, g_x = _field(_wild(ys, rng), module), _field(_wild(xs, rng), module)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return ([ops.plan(f, f_y, dt, None, True)(), ops.plan(g, g_x, dt, None, False)()],
                [f - dt * ops.apply_Astar(f_y), g + dt * ops.apply_A(g_x)])


@pytest.mark.parametrize("dt", [0.37, -0.37, 5e-324, -3e-320])
@pytest.mark.parametrize("name", FOLD_NAMES)
def test_folded_update_has_the_bits_of_the_unfolded_update(monkeypatch, name, dt):
    # n = 16 or 4: every spacing is a power of two, so the pairs fold 1/h
    # into their weights or their dt; the same draws through a pair built
    # with every fold refused, and through the allocating expressions,
    # must give the same bits, signed zeros and subnormals included
    n = 4 if ":" in name else 16
    ops, xs, ys, module = _fold_case(name, n)
    with monkeypatch.context() as patched:
        patched.setattr(module, "fold_spacing", _never_fold)
        unfolded = _fold_case(name, n)[0]
        wants = [_updates(unfolded, xs, ys, dt, np.random.default_rng(seed), module)[0]
                 for seed in range(4)]
    for seed, want in enumerate(wants):
        got, alloc = _updates(ops, xs, ys, dt, np.random.default_rng(seed), module)
        for g, w, a in zip(got, want, alloc):
            assert all(np.array_equal(p, q) for p, q in zip(_bits(g), _bits(w)))
            assert all(np.array_equal(p, q) for p, q in zip(_bits(g), _bits(a)))


def test_fold_spacing_folds_only_one_power_of_two_spacing_at_most_one():
    assert fold_spacing((0.25,)) == (None, 4.0, True)
    assert fold_spacing((0.25, 0.25, 0.25)) == (None, 4.0, True)
    assert fold_spacing((2.0 ** -1000,)) == (None, 2.0 ** 1000, True)
    # one spacing h that is not a power of two at most one: the weight w
    # becomes k = w/h (w*h where the plan divides by it), a unit weight 1/h (h)
    for h in (0.3, 1 / 49, 2.0):
        assert fold_spacing((h,), 1.7) == (1.7 / h, None, False)
        assert fold_spacing((h, h, h), 1.7, divides=True) == (1.7 * h, None, False)
        assert fold_spacing((h,)) == (1.0 / h, None, False)
        assert fold_spacing((h,), divides=True) == (h, None, False)
    # spacings that differ, or no positive spacing whose 1/h is finite, keep the divide
    for spacings in [(0.25, 0.5), (1 / 20, 1 / 28), (0.0,), (-0.25,), (2.0 ** -1074,),
                     (float("nan"),), (float("inf"),)]:
        assert fold_spacing(spacings, 1.7) == (1.7, None, True)
        assert fold_spacing(spacings) == (None, None, True)
    # a weight scales once, or keeps the divide where scaling would be inexact
    assert fold_spacing((0.25,), 1.7) == (6.8, None, False)
    assert fold_spacing((0.25,), -1.3, divides=True) == (-0.325, None, False)
    assert fold_spacing((0.25,), 0.0) == (0.0, None, False)
    assert fold_spacing((2.0 ** -11,), 1e307) == (1e307, None, True)
    assert fold_spacing((0.5,), 3e-308, divides=True) == (3e-308, None, True)
    assert fold_spacing((0.5,), 1e-310) == (1e-310, None, True)
    rho = np.array([1.0, 2.0, 3e-308])
    weight, dt_factor, divide = fold_spacing((0.5,), rho, divides=True)
    assert weight is rho and dt_factor is None and divide
    weight, _, divide = fold_spacing((0.5,), rho)
    assert np.array_equal(weight, 2.0 * rho) and not divide
    # dt * (1/h) is exact where finite; past that 1/h goes back on the differences
    unit = fold_spacing((2.0 ** -11,))
    assert unit.scale(-0.37) == (-0.37 * 2048.0, False)
    assert unit.scale(5e-324) == (5e-324 * 2048.0, False)
    assert unit.scale(1e308) == (1e308, True)
    assert fold_spacing((0.3,)).scale(0.37) == (0.37, False)
    assert fold_spacing((0.25, 0.5)).scale(0.37) == (0.37, True)
    assert fold_spacing((0.25,), 1.7).scale(0.37) == (0.37, False)


def _count_divides(monkeypatch, module, counts):
    original = module.divide_in_place

    def counted(out, delta):
        counts["divide_in_place", delta] += 1
        return original(out, delta)

    monkeypatch.setattr(module, "divide_in_place", counted)


def _1d_updates(monkeypatch, points, c):
    """The planned u and v updates of the cmp pair on `points` points, each
    against the allocating expression, bit for bit, and the divides they
    made."""
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=points, t_final=1.0, nt=1)
    ops = wave1d.cmp_operator_pair(c, grid)
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal(points) * 1e-300, rng.standard_normal(points - 1) * 1e-300
    dt = 0.5 * grid.dx
    counts = Counter()
    with np.errstate(over="ignore", invalid="ignore"):
        wants = [u - dt * ops.apply_Astar(v), v + dt * ops.apply_A(u)]
        _count_divides(monkeypatch, wave1d, counts)  # the plans' divides alone
        for adjoint, x, y, want in ((True, u, v, wants[0]), (False, v, u, wants[1])):
            got = ops.plan(x, y, dt, None, adjoint)()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return grid, counts


@pytest.mark.parametrize(
    "name, points, c",
    [("c = 1e307 at dx = 2^-11", 2049, 1e307), ("c = 1e308 at dx = 2^-11", 2049, 1e308)],
)
def test_1d_pair_keeps_the_divide_where_the_spacing_cannot_fold(monkeypatch, name, points, c):
    grid, counts = _1d_updates(monkeypatch, points, c)
    assert counts == {("divide_in_place", grid.dx): 2}


def test_1d_pair_folds_a_spacing_that_is_not_a_power_of_two(monkeypatch):
    # nx = 50, dx = 1/49: both updates multiply by k = c/dx, and the
    # allocating pair by the same k, so neither divides
    _, counts = _1d_updates(monkeypatch, 50, 1.7)
    assert counts == {}


def test_2d_pair_keeps_the_divide_on_a_20_by_28_grid(monkeypatch):
    grid = wave2d.Grid2(20, 28)
    ops = wave2d.wave2d_system(wave2d.Star2(a=2.0, a11=1.5, a22=3.0), grid).ops
    counts = Counter()
    rng = np.random.default_rng(6)
    u = _wild([grid.shape("fp")], rng)[0]
    v = wave2d.VectorField2(*_wild([grid.shape("nxd"), grid.shape("nyd")], rng))
    dt = 0.01
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = [u - dt * ops.apply_Astar(v), v + dt * ops.apply_A(u)]
        _count_divides(monkeypatch, wave2d, counts)  # the plans' divides alone
        got = [ops.plan(u, v, dt, None, True)(), ops.plan(v, u, dt, None, False)()]
    for g, w in zip(got, want):
        assert all(np.array_equal(p, q) for p, q in zip(_bits(g), _bits(w)))
    # the u update divides both differences; each v component has one
    # spacing, which it folds into its coefficient
    assert counts == {("divide_in_place", grid.dx): 1, ("divide_in_place", grid.dy): 1}


@pytest.mark.parametrize("c", [1.0, 0.5, -0.5])
def test_folded_update_stays_finite_where_the_scaled_difference_overflows(c):
    # the one documented exception to the bits: at dx = 1/16 a difference of
    # 1.5e307 times 16 overflows, so for c = 1 the allocating expression is
    # inf there, while the plan multiplies the raw difference by dt/dx and
    # stays finite; for other c both multiply it by c/dx, and agree
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=17, t_final=1.0, nt=1)
    ops = wave1d.cmp_operator_pair(c, grid)
    u = np.zeros(17)
    u[5] = 1.5e307
    v = np.linspace(-1.0, 1.0, 16)
    dt = 1e-3
    with np.errstate(over="ignore"):
        want = v + dt * ops.apply_A(u)
    got = ops.plan(v, u, dt, None, False)()
    jump = np.diff(u)
    fold = jump * (dt * 16.0) if c == 1.0 else (c * 16.0) * jump * dt
    assert np.all(np.isinf(want[4:6]) == (c == 1.0)) and np.all(np.isfinite(got))
    assert np.array_equal(got[4:6], v[4:6] + fold[4:6])
    # everywhere else the bits are those of the allocating expression
    rest = np.r_[0:4, 6:16]
    assert np.array_equal(got[rest].view(np.int64), want[rest].view(np.int64))


@pytest.mark.parametrize(
    "name, n",
    [("cmp-unit", 16), ("cmp", 16), ("vmp-rough", 16), ("wave2d-unit", 8), ("wave2d-full", 8),
     ("cmp", 17), ("wave2d-full", 7)],
)
def test_folded_low_dim_hooks_never_scale_by_the_spacing(monkeypatch, name, n):
    # power-of-two spacings (n = 16, 8) and others (17, 7) alike: every
    # weight is folded into one coefficient, and no update divides
    counts = Counter()
    _count_scalar_operands(monkeypatch, counts)
    ops, xs, ys, module = _fold_case(name, n)
    rng = np.random.default_rng(9)
    f0, g0 = _field(_wild(xs, rng), module), _field(_wild(ys, rng), module)
    h = 1.0 / n
    _count_divides(monkeypatch, module, counts)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        run_system(f0, None, ops, 1e-3, 5, g_half0=g0, record_every=0)
    divides = sum(k for key, k in counts.items() if isinstance(key, tuple))
    by_spacing = sum(k for key, k in counts.items() if key in (h, 1.0 / h))
    assert divides == 0 and by_spacing == 0


@pytest.mark.parametrize("name", ["vmp-rough", "wave2d-full", "maxwell:pinned:diagonal"])
def test_a_planned_pair_is_freed_without_the_cycle_collector(name):
    # a pair holds its work arrays, or its grid's scratch: a reference cycle
    # among its plans would keep every sweep level's until a collection
    ops, xs, ys, module = _fold_case(name, 4 if ":" in name else 8)
    rng = np.random.default_rng(2)
    f, g = _field(_wild(xs, rng), module), _field(_wild(ys, rng), module)
    gc.disable()
    try:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            ops.plan(f, g, 1e-3, f, True)()
            ops.plan(g, f, 1e-3, None, False)()
            ops.apply_A(f)
        kept = weakref.ref(ops.plan)
        del ops
        assert kept() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the half-step start from rest
# ---------------------------------------------------------------------------

def _taylor(f0, g0, ops, dt):
    """The whole Taylor half step, curvature term included, through the
    pair's allocating operators."""
    return (g0 + (0.5 * dt) * ops.apply_A(f0)
            - (0.5 * (0.5 * dt) ** 2) * ops.apply_A(ops.apply_Astar(g0)))


@pytest.mark.parametrize("dt_fraction", [0.6, -0.6])
@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("name", FOLD_NAMES)
def test_half_step_from_rest_has_the_bits_of_the_whole_taylor_step(name, n, dt_fraction):
    # the start skips the curvature term of g0 = 0 and forms the first-order
    # term through the plan; n = 8 makes every spacing a power of two, which
    # the plan folds into its scale
    ops, xs, ys, module = _fold_case(name, n)
    assert ops.plan is not None
    rng = np.random.default_rng(n)
    f0 = _field([rng.standard_normal(shape) for shape in xs], module)
    g0 = _field([np.zeros(shape) for shape in ys], module)
    dt = dt_fraction * 2.0 / ops.norm_bound_A
    counts = Counter()
    got = init_g_half(f0, g0, _counted(ops, counts), dt)
    want = _taylor(f0, g0, ops, dt)
    assert all(np.array_equal(p, q) for p, q in zip(_bits(got), _bits(want)))
    assert counts == {"A": 1}  # through the plan, which allocates only the result
    # the start pair is never written
    assert not any(np.any(p) for p in _parts(g0))


@pytest.mark.parametrize("name", FOLD_NAMES)
def test_half_step_from_rest_past_the_float_range_is_nan(name):
    # (dt/2)^2 overflows: the curvature coefficient is inf, and inf times the
    # zero curvature a NaN, as the whole Taylor step makes it, with no numpy
    # warning
    ops, xs, ys, module = _fold_case(name, 6)
    rng = np.random.default_rng(2)
    f0 = _field([1e-300 * rng.standard_normal(shape) for shape in xs], module)
    g0 = _field([np.zeros(shape) for shape in ys], module)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = init_g_half(f0, g0, ops, 1e300)
    assert all(np.all(np.isnan(p)) for p in _parts(got))


@pytest.mark.parametrize("name", ["cmp", "wave2d-full", "maxwell:pinned:diagonal"])
def test_half_step_from_signed_zeros_keeps_the_curvature_term(name):
    # a -0.0 in g0 is not rest: the curvature term is formed, and the -0.0
    # comes out as the whole Taylor step makes it
    ops, xs, ys, module = _fold_case(name, 6)
    rng = np.random.default_rng(4)
    f0 = _field([rng.standard_normal(shape) for shape in xs], module)
    g0 = _field([np.zeros(shape) for shape in ys], module)
    _parts(g0)[0].flat[0] = -0.0
    counts = Counter()
    got = init_g_half(f0, g0, _counted(ops, counts), 0.3 / ops.norm_bound_A)
    want = _taylor(f0, g0, ops, 0.3 / ops.norm_bound_A)
    assert all(np.array_equal(p, q) for p, q in zip(_bits(got), _bits(want)))
    assert counts == {"A": 2, "Astar": 1}


# ---------------------------------------------------------------------------
# planned stretches: each run of unrecorded in-place steps plans its two
# updates once
# ---------------------------------------------------------------------------

# every hooked kind: 1D cmp and vmp, 2D, and both 3D rungs on both policies,
# with unit stars (a power-of-two cube folds 1/h into dt) and diagonal ones
STRETCH_CASES = ["wave1d-cmp", "wave1d-vmp", "wave2d", "wave2d-star", *(
    f"{kind}:{boundary}:{stars}" for kind in ("wave3d-scalar", "maxwell")
    for boundary in ("pinned", "periodic") for stars in ("unit", "diagonal"))]
STRETCH_STEPS = 11
STRETCH_RECORDS = [0, 1, 2, 3, STRETCH_STEPS]


def _stretch_case(name):
    """(System, f0, g_half0, dt): a hooked System of CONTRACT_SYSTEMS from
    its own start, or a 3D rung on a pinned or periodic 4-cube from random
    start data (pinned to the walls on a pinned grid)."""
    if ":" not in name:
        system = CONTRACT_SYSTEMS[name]()
        dt = system.cfl_dt(0.8)
        return (system, *system.start(dt), dt)
    kind, boundary, stars = name.split(":")
    grid = Grid3.cube(4, 1.0, boundary=boundary)
    eps, mu = INPLACE_STARS[stars](grid)
    rng = np.random.default_rng(73)
    if kind == "maxwell":
        system, kinds, pin = (wave3d.maxwell_system(eps, mu, grid), ("edge", "dual-edge"),
                              wave3d.pin_tangential_boundary)
    else:
        system, kinds, pin = (wave3d.scalar_wave_system(eps, grid), ("node", "dual-face"),
                              wave3d.pin_scalar_boundary)
    f0, g0 = (mimetic3d.random_field(grid, kind, rng) for kind in kinds)
    return system, pin(f0) if boundary == "pinned" else f0, g0, system.cfl_dt(0.8)


def _one_plan_per_update(system):
    """`system` with a pair that plans afresh at every run of a plan: one
    plan per update, as a march made before stretches were planned."""
    ops = system.ops
    return replace(system, ops=replace(ops, plan=lambda *args: lambda: ops.plan(*args)()))


def _marches(f0, g0, dt, record_every):
    """The two ways to march a System from (f0, g_half0): `System.march`,
    which owns (copies of) the start pair, and `run_system` directly."""
    return (
        lambda system: _march_from(system, f0, g0, dt, STRETCH_STEPS, record_every=record_every),
        lambda system: run_system(f0, None, system.ops, dt, STRETCH_STEPS, system.inner_X,
                                  system.inner_Y, g_half0=g0, record_every=record_every),
    )


@pytest.mark.parametrize("record_every", STRETCH_RECORDS)
@pytest.mark.parametrize("name", STRETCH_CASES)
def test_planned_stretches_have_the_bits_of_one_plan_per_update(name, record_every):
    system, f0, g0, dt = _stretch_case(name)
    for march in _marches(f0, g0, dt, record_every):
        (state, records), (want, want_records) = march(system), march(_one_plan_per_update(system))
        assert records == want_records and state.step == want.step == STRETCH_STEPS
        for got, exp in ((state.f, want.f), (state.g_half, want.g_half),
                         (state.f_prev, want.f_prev), (state.g_prev_half, want.g_prev_half)):
            assert (got is None) == (exp is None)
            if got is not None:
                assert all(np.array_equal(p, q) for p, q in zip(_bits(got), _bits(exp)))


@pytest.mark.parametrize("name", STRETCH_CASES)
def test_a_plan_run_m_times_has_the_bits_of_m_one_shot_plans(name):
    system, f0, g0, dt = _stretch_case(name)
    ops = system.ops

    def same(a, b):
        return all(np.array_equal(p, q) for p, q in zip(_bits(a), _bits(b)))

    # one update in place, x reading the y it was planned with
    for adjoint, x, y in ((True, f0, g0), (False, g0, f0)):
        planned, once = _copy(x), _copy(x)
        run = ops.plan(planned, y, dt, planned, adjoint)
        for _ in range(5):
            assert run() is planned
            ops.plan(once, y, dt, once, adjoint)()
            assert same(planned, once)
        # out=None: a fresh field per run, each with the one-shot bits
        fresh = ops.plan(x, y, dt, None, adjoint)
        first, second = fresh(), fresh()
        assert _ids(first) != _ids(second)
        assert same(first, second) and same(first, ops.plan(x, y, dt, None, adjoint)())
    # the two updates of a stretch in turn, each reading the other's output
    f, g, f1, g1 = _copy(f0), _copy(g0), _copy(f0), _copy(g0)
    run_f, run_g = ops.plan(f, g, dt, f, True), ops.plan(g, f, dt, g, False)
    for _ in range(5):
        run_f()
        run_g()
        ops.plan(f1, g1, dt, f1, True)()
        ops.plan(g1, f1, dt, g1, False)()
        assert same(f, f1) and same(g, g1)


@pytest.mark.parametrize("record_every", STRETCH_RECORDS)
@pytest.mark.parametrize("name", STRETCH_CASES)
def test_step_one_of_every_march_is_a_system_step(monkeypatch, name, record_every):
    system, f0, g0, dt = _stretch_case(name)
    events = []

    def step(state, ops, **kwargs):
        events.append(("system_step", state.step))
        return system_step(state, ops, **kwargs)

    def plan(*args):
        events.append(("plan",))
        return system.ops.plan(*args)

    def logged(inner):
        def product(a, b):
            events.append(("inner",))
            return inner(a, b)

        return product

    monkeypatch.setattr(core, "system_step", step)
    watched = replace(system, ops=replace(system.ops, plan=plan),
                      inner_X=logged(system.inner_X), inner_Y=logged(system.inner_Y))
    n = STRETCH_STEPS
    recorded = {k for k in range(1, n + 1) if record_every and k % record_every == 0}
    for march in _marches(f0, g0, dt, record_every):
        events.clear()
        march(watched)
        # no plan, buffer or product before step 1, which is a system_step
        assert events[0] == ("system_step", 0)
        # step 1 alone goes through system_step, which plans its two
        # updates; every later step runs one plan of each, made once
        assert [e for e in events if e[0] == "system_step"] == [("system_step", 0)]
        assert events.count(("plan",)) == 2 * 2
        assert events.count(("inner",)) == 4 * len(recorded)
