"""Every kept step and runner is the core engine on that module's operator
pair and inner products, bit for bit; a recorded step reuses its own
operator terms for the invariants."""

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from stagwave import mimetic3d, oscillator, wave1d, wave2d, wave3d
from stagwave.core import (
    SpacingFold,
    SystemState,
    conserved_full,
    conserved_half_step,
    energy_pieces,
    fold_spacing,
    run_system,
    system_step,
)
from stagwave.mimetic3d import Grid3, Star3, VectorField3

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


def _oscillator(rng):
    p = oscillator.OscParams(omega=1.3, dt=0.07, n_steps=5)
    ops, inner, _ = system = oscillator.oscillator_system(p)

    def run(f, g):
        # simulate starts from whole-step data (u0, v0) and keeps no final v
        u_hist, records = oscillator.simulate(f, g, p)
        return u_hist[-1], None, records

    def core(f, g):
        state, records = run_system(f, g, ops, p.dt, p.n_steps, inner, inner)
        return state.f, None, records

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


def _wave1d(rng, grid, system, step, run):
    ops, inner_X, inner_Y = system
    return dict(
        state=_state1d(grid, rng),
        dt=grid.dt,
        step=step,
        run=lambda f, g: _final(run(f, g, record_every=2)),
        core=lambda f, g: _final(run_system(f, None, ops, grid.dt, grid.nt, inner_X, inner_Y,
                                            g_half0=g, record_every=2)),
        system=system,
    )


def _cmp(rng):
    grid, c = _grid1d(), 1.7
    return _wave1d(rng, grid, wave1d.cmp_system(c, grid),
                   lambda s: wave1d.cmp_step(s, c, grid),
                   lambda f, g, **kw: wave1d.run_cmp(grid, c, f, g, **kw))


def _vmp(rng):
    grid = _grid1d()
    mats = wave1d.Materials1D.from_profiles(
        grid, wave1d.bump_profile(2), wave1d.piecewise_linear_profile()
    )
    return _wave1d(rng, grid, wave1d.vmp_system(mats, grid),
                   lambda s: wave1d.vmp_step(s, mats, grid),
                   lambda f, g, **kw: wave1d.run_vmp(grid, mats, f, g, **kw))


def _wave2d(rng):
    grid, star = wave2d.Grid2(7, 9), wave2d.Star2(a=2.0, a11=1.5, a22=3.0)
    dt = wave2d.suggest_dt_2d(star, grid, 0.8)
    u = np.zeros(grid.shape("fp"))
    u[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.ny - 1))
    v = (rng.standard_normal(grid.shape("nxd")), rng.standard_normal(grid.shape("nyd")))
    ops, inner_X, inner_Y = system = wave2d.wave2d_system(star, grid)
    return dict(
        state=SystemState(f=u, g_half=v, dt=dt),
        dt=dt,
        step=lambda s: wave2d.wave2d_step(s, star, grid),
        run=lambda f, g: _final(wave2d.run_wave2d(grid, star, f, g, dt, 5, record_every=2)),
        core=lambda f, g: _final(run_system(f, None, ops, dt, 5, inner_X, inner_Y,
                                            g_half0=wave2d.VectorField2(*g), record_every=2)),
        system=system,
    )


def _grid3d():
    return Grid3.cube(4, 1.0, boundary="pinned")


def _random_field(grid, kind, rng):
    return VectorField3(*(rng.standard_normal(sh) for sh in grid.vector_shapes(kind)))


def _final3d(ran):
    """(f, g_half, records) of a 3D runner, with each record's t dropped."""
    f, g, records = _final(ran)
    return f, g, [(r[0], *r[2:]) for r in records]


def _scalar3d(rng):
    grid = _grid3d()
    star = Star3.from_diagonals(grid, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5))
    dt = wave3d.suggest_dt(star, grid, 0.8)
    s = wave3d.pin_scalar_boundary(rng.standard_normal(grid.scalar_shape("node")))
    ops, inner_X, inner_Y = system = wave3d.scalar_wave_system(star, grid)
    return dict(
        state=SystemState(f=s, g_half=_random_field(grid, "dual-face", rng), dt=dt),
        dt=dt,
        step=lambda st: wave3d.scalar_wave_step(st, star, grid),
        run=lambda f, g: _final3d(wave3d.run_scalar_wave(grid, star, f, g, dt, 5,
                                                         record_every=2)),
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


def _maxwell(rng):
    grid = _grid3d()
    eps, mu = _maxwell_stars(grid)
    dt = wave3d.suggest_dt(eps, grid, 0.8, system="maxwell", mu_star=mu)
    e = wave3d.pin_tangential_boundary(_random_field(grid, "edge", rng))
    ops, inner_X, inner_Y = system = wave3d.maxwell_system(eps, mu, grid)

    def audit(state, pieces):
        return (*pieces, *wave3d.divergence_audit(state.f, state.g_half, eps, mu, grid))

    return dict(
        state=SystemState(f=e, g_half=_random_field(grid, "dual-edge", rng), dt=dt),
        dt=dt,
        step=lambda st: wave3d.maxwell_step(st, eps, mu, grid),
        run=lambda f, g: _final3d(wave3d.run_maxwell(grid, eps, mu, f, g, dt, 5,
                                                     record_every=2)),
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
    """Each module's runner is `run_system` on its `*_system`, and each kept
    step is `system_step` on its pair, bit for bit."""
    case = SYSTEMS[name](np.random.default_rng(5))
    ops = case["system"][0]
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


def _counted(ops, counts):
    """The pair with every application of A and A* counted."""

    def count(name, fn):
        def apply(x):
            counts[name] += 1
            return fn(x)

        return apply

    return replace(
        ops, apply_A=count("A", ops.apply_A), apply_Astar=count("Astar", ops.apply_Astar)
    )


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_recorded_steps_reuse_their_operator_terms(name):
    case = SYSTEMS[name](np.random.default_rng(7))
    ops, inner_X, inner_Y = case["system"]
    f, g = case["state"].f, case["state"].g_half

    def reference(state, pieces):
        bare = SystemState(state.f, state.g_half, state.dt, state.step,
                           state.f_prev, state.g_prev_half)
        return (pieces, energy_pieces(bare, ops, inner_X, inner_Y),
                conserved_full(bare, ops, inner_X, inner_Y),
                conserved_half_step(bare, ops, inner_X, inner_Y))

    counts = Counter()
    _, records = run_system(f, None, _counted(ops, counts), case["dt"], 4, inner_X, inner_Y,
                            g_half0=g, audit=reference)
    # one A and one A* per step: recording applied neither operator again
    assert counts == {"A": 4, "Astar": 4}
    assert [r[0] for r in records] == [1, 2, 3, 4]
    for _, c_n, c_half, pieces, ref_pieces, ref_n, ref_half in records:
        assert pieces == ref_pieces and c_n == ref_n and c_half == ref_half


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_only_recorded_steps_keep_operator_terms(name):
    case = SYSTEMS[name](np.random.default_rng(9))
    ops, inner_X, inner_Y = case["system"]
    f, g = case["state"].f, case["state"].g_half
    start = SystemState(f=f, g_half=g, dt=case["dt"])
    bare = system_step(start, ops)
    assert bare.a_f is None and bare.astar_g_prev is None
    kept = system_step(start, ops, keep_terms=True)
    assert _same(kept.f, bare.f) and _same(kept.g_half, bare.g_half)
    assert _same(kept.a_f, ops.apply_A(kept.f))
    assert _same(kept.astar_g_prev, ops.apply_Astar(start.g_half))
    state, records = run_system(f, None, ops, case["dt"], 5, inner_X, inner_Y,
                                g_half0=g, record_every=2)
    assert [r[0] for r in records] == [2, 4]
    assert state.step == 5 and state.a_f is None and state.astar_g_prev is None


def _count_3d_calls(monkeypatch, counts):
    """Count every mimetic3d operator, star and inner3 call, rebinding each
    in every stagwave module that holds a reference to it."""
    modules = [m for n, m in sys.modules.items() if n.startswith("stagwave.")]
    for name in OPS_3D + ("inner3",):
        original = getattr(mimetic3d, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize(
    "record_every, ops_per_step, inner3_per_step", [(1, 8, 6), (0, 4, 0)]
)
def test_maxwell_step_operator_count(monkeypatch, record_every, ops_per_step, inner3_per_step):
    # a recorded step: the step's 4 applications plus the divergence audit's
    # 2 stars and 2 divergences; the invariants add only inner products
    grid = _grid3d()
    eps, mu = _maxwell_stars(grid)
    case = _maxwell(np.random.default_rng(3))
    state, counts = case["state"], Counter()
    _count_3d_calls(monkeypatch, counts)
    wave3d.run_maxwell(grid, eps, mu, state.f, state.g_half, case["dt"], 5,
                       record_every=record_every)
    inner = counts.pop("inner3", 0)
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
        dt = wave3d.suggest_dt(eps, grid, 0.8, system="maxwell", mu_star=mu)
        f0 = mimetic3d.random_field(grid, "edge", rng)
        if boundary == "pinned":
            f0 = wave3d.pin_tangential_boundary(f0)
        return sys3, f0, mimetic3d.random_field(grid, "dual-edge", rng), dt, (eps, mu)
    sys3 = wave3d.scalar_wave_system(eps, grid)
    dt = wave3d.suggest_dt(eps, grid, 0.8)
    f0 = mimetic3d.random_field(grid, "node", rng)
    if boundary == "pinned":
        f0 = wave3d.pin_scalar_boundary(f0)
    return sys3, f0, mimetic3d.random_field(grid, "dual-face", rng), dt, (eps, mu)


@pytest.mark.parametrize("record_every", [0, 1, 3])
@pytest.mark.parametrize("system, boundary, stars", INPLACE_CASES)
def test_in_place_run_equals_allocating_steps(system, boundary, stars, record_every):
    (ops, inner_X, inner_Y), f0, g0, dt, _ = _inplace_case(system, boundary, stars,
                                                            np.random.default_rng(31))
    assert ops.update is not None
    kept = [c.copy() for c in _parts(f0) + _parts(g0)]
    state, records = run_system(f0, None, ops, dt, 12, inner_X, inner_Y, g_half0=g0,
                                record_every=record_every)
    # the caller's start data is never written
    assert all(np.array_equal(a, b) for a, b in zip(kept, _parts(f0) + _parts(g0)))
    # a loop of allocating steps (no hook) gives the same bits
    ref = SystemState(f=f0, g_half=g0, dt=dt)
    for _ in range(12):
        ref = system_step(ref, ops)
    for got, want in ((state.f, ref.f), (state.g_half, ref.g_half),
                      (state.f_prev, ref.f_prev), (state.g_prev_half, ref.g_prev_half)):
        assert _same(got, want)
    # and so does the engine on the pair without its hook, records included
    bare, bare_records = run_system(f0, None, replace(ops, update=None), dt, 12, inner_X,
                                    inner_Y, g_half0=g0, record_every=record_every)
    assert _same(state.f, bare.f) and _same(state.g_half, bare.g_half)
    assert records == bare_records
    assert len(records) == (12 // record_every if record_every else 0)


def test_in_place_run_reuses_the_retired_history():
    (ops, inner_X, inner_Y), f0, g0, dt, _ = _inplace_case("maxwell", "pinned", "unit",
                                                            np.random.default_rng(32))
    seen = []

    def watch(x, y, dt, out, adjoint):
        seen.append(out)
        return ops.update(x, y, dt, out, adjoint)

    state, _ = run_system(f0, None, replace(ops, update=watch), dt, 6, inner_X, inner_Y,
                          g_half0=g0, record_every=0)
    # steps 1 and 2 make fresh fields; from step 3 each writes into the
    # buffers of the step before last, so only four fields ever exist
    assert seen[:4] == [None] * 4
    made = {id(c) for out in seen[4:] for c in _parts(out)}
    assert made == {id(c) for c in _parts(state.f) + _parts(state.g_half)
                    + _parts(state.f_prev) + _parts(state.g_prev_half)}


def _peak_bytes(ops, f0, g0, dt, n_steps):
    import tracemalloc

    tracemalloc.start()
    try:
        run_system(f0, None, ops, dt, n_steps, g_half0=g0, record_every=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_steady_unrecorded_maxwell_steps_allocate_no_field():
    grid = Grid3.cube(64, 1.0, boundary="pinned")
    star = Star3.trivial(grid)
    ops, _, _ = wave3d.maxwell_system(star, star, grid)
    f0 = wave3d.te_cavity_e(grid, 0.0)
    dt = wave3d.suggest_dt(star, grid, 0.9, system="maxwell")
    g0 = wave3d.maxwell_init_h(f0, mimetic3d.zeros_field(grid, "dual-edge"), star, star,
                               grid, dt)
    component = f0.x.nbytes
    run_system(f0, None, ops, dt, 1, g_half0=g0, record_every=0)  # the pair makes its scratch
    # the first two steps make the run's own history; 20 more may add only
    # numpy's fixed-size iteration buffers for strided operands, not a field
    grown = _peak_bytes(ops, f0, g0, dt, 22) - _peak_bytes(ops, f0, g0, dt, 2)
    assert grown < component
    # the measure sees the allocating step: one more live field from step 3
    bare = replace(ops, update=None)
    assert _peak_bytes(bare, f0, g0, dt, 22) - _peak_bytes(bare, f0, g0, dt, 2) > component


@pytest.mark.parametrize(
    "stars, ops_per_step, stars_per_step",
    [("unit", 2, 0), ("unit-eps", 3, 1), ("unit-mu", 3, 1), ("diagonal", 4, 2)],
)
def test_unrecorded_maxwell_step_skips_unit_stars(monkeypatch, stars, ops_per_step,
                                                  stars_per_step):
    _, f0, g0, dt, (eps, mu) = _inplace_case("maxwell", "pinned", stars,
                                             np.random.default_rng(3))
    counts = Counter()
    _count_3d_calls(monkeypatch, counts)
    wave3d.run_maxwell(eps.grid, eps, mu, f0, g0, dt, 5, record_every=0)
    counts.pop("inner3", 0)
    assert sum(counts.values()) == 5 * ops_per_step
    assert counts["star_matrix"] == 5 * stars_per_step


# ---------------------------------------------------------------------------
# the in-place unrecorded step of the 1D and 2D pairs
# ---------------------------------------------------------------------------

# pair builders on a grid of the given size: 1D cmp/vmp and 2D, each with
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
    value is -0.0, on n points (1D) or n x n cells (2D).  The spacing is a
    power of two, which divides by its exact reciprocal, for n = 17 in 1D
    and n = 8 in 2D."""
    if name.startswith("wave2d"):
        grid = wave2d.Grid2(n, n)
        system = LOWDIM_PAIRS[name](grid)
        dt = 0.8 * 2.0 / system[0].norm_bound_A
        f0 = np.zeros(grid.shape("fp"))
        f0[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.ny - 1))
        f0[0, 0] = -0.0
        g0 = wave2d.VectorField2(rng.standard_normal(grid.shape("nxd")),
                                 rng.standard_normal(grid.shape("nyd")))
        return system, f0, g0, dt
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=n, t_final=1.0, nt=1)
    system = LOWDIM_PAIRS[name](grid)
    f0 = rng.standard_normal(n)
    f0[0], f0[-1] = -0.0, 0.0
    return system, f0, rng.standard_normal(n - 1), 0.8 * 2.0 / system[0].norm_bound_A


@pytest.mark.parametrize("record_every", [0, 1, 3])
@pytest.mark.parametrize("n", [8, 17])
@pytest.mark.parametrize("name", sorted(LOWDIM_PAIRS))
def test_in_place_low_dim_run_equals_allocating_steps(name, n, record_every):
    (ops, inner_X, inner_Y), f0, g0, dt = _lowdim_case(name, n, np.random.default_rng(41))
    assert ops.update is not None
    kept = [c.copy() for c in _parts(f0) + _parts(g0)]
    state, records = run_system(f0, None, ops, dt, 12, inner_X, inner_Y, g_half0=g0,
                                record_every=record_every)
    # the caller's start data is never written, its -0.0 included
    assert all(np.array_equal(a, b) for a, b in zip(kept, _parts(f0) + _parts(g0)))
    assert np.signbit(f0.flat[0])
    ref = SystemState(f=f0, g_half=g0, dt=dt)
    for _ in range(12):
        ref = system_step(ref, ops)
    bare, bare_records = run_system(f0, None, replace(ops, update=None), dt, 12, inner_X,
                                    inner_Y, g_half0=g0, record_every=record_every)
    for want in (ref, bare):
        for got, exp in ((state.f, want.f), (state.g_half, want.g_half),
                         (state.f_prev, want.f_prev), (state.g_prev_half, want.g_prev_half)):
            assert _same(got, exp)
        # the pinned rim has the allocating path's signed zeros
        assert np.array_equal(np.signbit(state.f), np.signbit(want.f))
    assert records == bare_records
    assert len(records) == (12 // record_every if record_every else 0)


@pytest.mark.parametrize("name", sorted(LOWDIM_PAIRS))
def test_in_place_low_dim_run_backward_in_time_keeps_the_rim_bits(name):
    # with dt < 0 the rim term dt * 0.0 is -0.0, so a rim left over from the
    # step before, rather than zeroed again, would flip the sign of a -0.0 end
    (ops, inner_X, inner_Y), f0, g0, dt = _lowdim_case(name, 8, np.random.default_rng(47))
    state, _ = run_system(f0, None, ops, -dt, 6, inner_X, inner_Y, g_half0=g0, record_every=0)
    bare, _ = run_system(f0, None, replace(ops, update=None), -dt, 6, inner_X, inner_Y,
                         g_half0=g0, record_every=0)
    for got, want in zip(_parts(state.f) + _parts(state.g_half),
                         _parts(bare.f) + _parts(bare.g_half)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name, n", [("cmp", 2049), ("vmp-rough", 2049), ("wave2d", 256)])
def test_steady_unrecorded_low_dim_steps_allocate_no_field(name, n):
    (ops, _, _), f0, g0, dt = _lowdim_case(name, n, np.random.default_rng(43))
    field = f0.nbytes
    run_system(f0, None, ops, dt, 1, g_half0=g0, record_every=0)  # the pair makes its work arrays
    # the first two steps make the run's own history; 20 more add no field
    grown = _peak_bytes(ops, f0, g0, dt, 22) - _peak_bytes(ops, f0, g0, dt, 2)
    assert grown < field
    # the measure sees the allocating step: one more live field from step 3
    bare = replace(ops, update=None)
    assert _peak_bytes(bare, f0, g0, dt, 22) - _peak_bytes(bare, f0, g0, dt, 2) > field


class _ScalarOperands:
    """numpy as `wave2d` sees it, with the Python-float operands of every
    multiply and divide counted."""

    def __init__(self, counts):
        self.counts = counts

    def __getattr__(self, name):
        return getattr(np, name)

    def _count(self, fn, args, kwargs):
        self.counts.update(a for a in args if isinstance(a, float))
        return fn(*args, **kwargs)

    def multiply(self, *args, **kwargs):
        return self._count(np.multiply, args, kwargs)

    def true_divide(self, *args, **kwargs):
        return self._count(np.true_divide, args, kwargs)


@pytest.mark.parametrize(
    "name, star_operands",
    [("wave2d-unit", {}), ("wave2d-a22-only", {0.7: 1}), ("wave2d", {2.0: 1, 1.5: 1, 3.0: 1})],
)
def test_unrecorded_wave2d_step_skips_unit_stars(monkeypatch, name, star_operands):
    (ops, _, _), f0, g0, dt = _lowdim_case(name, 7, np.random.default_rng(3))
    counts = Counter()
    monkeypatch.setattr(wave2d, "np", _ScalarOperands(counts))
    run_system(f0, None, ops, dt, 5, g_half0=g0, record_every=0)
    # three dt scalings a step (u, vx, vy); the rest are star weights
    assert counts.pop(dt) == 5 * 3
    assert counts == {w: 5 * k for w, k in star_operands.items()}


# ---------------------------------------------------------------------------
# power-of-two spacings folded into the scale of the in-place update
# ---------------------------------------------------------------------------

def _never_fold(spacings, weight=None, *, divides=False):
    """`fold_spacing` refusing every fold: the hook divides its differences."""
    return SpacingFold(weight, None, True)


def _fold_case(name, n):
    """(pair, X shapes, Y shapes, module) of a named pair on n + 1 points (1D),
    n x n cells (2D) or a pinned or periodic n-cube (3D)."""
    if name.startswith(("cmp", "vmp")):
        grid = wave1d.Grid1D(a=0.0, b=1.0, nx=n + 1, t_final=1.0, nt=1)
        return LOWDIM_PAIRS[name](grid)[0], [(n + 1,)], [(n,)], wave1d
    if name.startswith("wave2d"):
        grid = wave2d.Grid2(n, n)
        star = FOLD_STARS_2D[name]
        return (wave2d.wave2d_system(star, grid)[0], [grid.shape("fp")],
                [grid.shape("nxd"), grid.shape("nyd")], wave2d)
    system, boundary, stars = name.split(":")
    grid = Grid3.cube(n, 1.0, boundary=boundary)
    eps, mu = INPLACE_STARS[stars](grid)
    if system == "maxwell":
        ops = wave3d.maxwell_system(eps, mu, grid)[0]
        return ops, grid.vector_shapes("edge"), grid.vector_shapes("dual-edge"), wave3d
    ops = wave3d.scalar_wave_system(eps, grid)[0]
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
    """The hook's u and v updates of one random draw, and the allocating
    expressions x - dt * A*(y) and x + dt * A(y)."""
    f, f_y = _field(_wild(xs, rng), module), _field(_wild(ys, rng), module)
    g, g_x = _field(_wild(ys, rng), module), _field(_wild(xs, rng), module)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return ([ops.update(f, f_y, dt, None, True), ops.update(g, g_x, dt, None, False)],
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
    for spacings in [(0.3,), (1 / 49,), (2.0,), (0.25, 0.5), (1 / 20, 1 / 28), (0.0,),
                     (-0.25,), (2.0 ** -1074,), (float("nan"),)]:
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
    assert fold_spacing((0.3,)).scale(0.37) == (0.37, True)
    assert fold_spacing((0.25,), 1.7).scale(0.37) == (0.37, False)


def _count_divides(monkeypatch, module, counts):
    original = module.divide_in_place

    def counted(out, delta):
        counts["divide_in_place", delta] += 1
        return original(out, delta)

    monkeypatch.setattr(module, "divide_in_place", counted)


@pytest.mark.parametrize(
    "name, points, c",
    [("nx = 50", 50, 1.7), ("c = 1e307 at dx = 2^-11", 2049, 1e307),
     ("c = 1e308 at dx = 2^-11", 2049, 1e308)],
)
def test_1d_pair_keeps_the_divide_where_the_spacing_cannot_fold(monkeypatch, name, points, c):
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=points, t_final=1.0, nt=1)
    ops = wave1d.cmp_operator_pair(c, grid)
    counts = Counter()
    _count_divides(monkeypatch, wave1d, counts)
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal(points) * 1e-300, rng.standard_normal(points - 1) * 1e-300
    dt = 0.5 * grid.dx
    with np.errstate(over="ignore", invalid="ignore"):
        for adjoint, x, y, want in ((True, u, v, u - dt * ops.apply_Astar(v)),
                                    (False, v, u, v + dt * ops.apply_A(u))):
            got = ops.update(x, y, dt, None, adjoint)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert counts == {("divide_in_place", grid.dx): 2}


def test_2d_pair_keeps_the_divide_on_a_20_by_28_grid(monkeypatch):
    grid = wave2d.Grid2(20, 28)
    ops = wave2d.wave2d_system(wave2d.Star2(a=2.0, a11=1.5, a22=3.0), grid)[0]
    counts = Counter()
    _count_divides(monkeypatch, wave2d, counts)
    rng = np.random.default_rng(6)
    u = _wild([grid.shape("fp")], rng)[0]
    v = wave2d.VectorField2(*_wild([grid.shape("nxd"), grid.shape("nyd")], rng))
    dt = 0.01
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = [ops.update(u, v, dt, None, True), ops.update(v, u, dt, None, False)]
        want = [u - dt * ops.apply_Astar(v), v + dt * ops.apply_A(u)]
    for g, w in zip(got, want):
        assert all(np.array_equal(p, q) for p, q in zip(_bits(g), _bits(w)))
    # the u update divides both differences, the v update each component's
    assert counts == {("divide_in_place", grid.dx): 2, ("divide_in_place", grid.dy): 2}


@pytest.mark.parametrize("c", [1.0, 0.5, -0.5])
def test_folded_update_stays_finite_where_the_scaled_difference_overflows(c):
    # the one documented exception to the bits: at dx = 1/16 a difference of
    # 1.5e307 times 16 overflows, so the allocating expression is inf there,
    # while the folded hook multiplies the raw difference by c/dx (or by
    # dt/dx for c = 1) and stays finite
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=17, t_final=1.0, nt=1)
    ops = wave1d.cmp_operator_pair(c, grid)
    u = np.zeros(17)
    u[5] = 1.5e307
    v = np.linspace(-1.0, 1.0, 16)
    dt = 1e-3
    with np.errstate(over="ignore"):
        want = v + dt * ops.apply_A(u)
    got = ops.update(v, u, dt, None, False)
    jump = np.diff(u)
    fold = jump * (dt * 16.0) if c == 1.0 else (c * 16.0) * jump * dt
    assert np.all(np.isinf(want[4:6])) and np.all(np.isfinite(got))
    assert np.array_equal(got[4:6], v[4:6] + fold[4:6])
    # everywhere else the bits are those of the allocating expression
    rest = np.r_[0:4, 6:16]
    assert np.array_equal(got[rest].view(np.int64), want[rest].view(np.int64))


@pytest.mark.parametrize(
    "name, n, folds",
    [("cmp-unit", 16, True), ("cmp", 16, True), ("vmp-rough", 16, True),
     ("wave2d-unit", 8, True), ("wave2d-full", 8, True),
     ("cmp", 17, False), ("wave2d-full", 7, False)],
)
def test_folded_low_dim_hooks_never_scale_by_the_spacing(monkeypatch, name, n, folds):
    ops, xs, ys, module = _fold_case(name, n)
    rng = np.random.default_rng(9)
    f0, g0 = _field(_wild(xs, rng), module), _field(_wild(ys, rng), module)
    h = 1.0 / n
    counts = Counter()
    monkeypatch.setattr(module, "np", _ScalarOperands(counts))
    _count_divides(monkeypatch, module, counts)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        run_system(f0, None, ops, 1e-3, 5, g_half0=g0, record_every=0)
    divides = sum(k for key, k in counts.items() if isinstance(key, tuple))
    by_spacing = sum(k for key, k in counts.items() if key in (h, 1.0 / h))
    if folds:
        assert divides == 0 and by_spacing == 0
    else:
        # 1D: one difference per update; 2D: two in the u update, one per v component
        assert divides == 5 * (2 if module is wave1d else 4)
