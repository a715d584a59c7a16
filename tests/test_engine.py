"""Every public step and conserved quantity is the core engine on that
module's operator pair and inner products, bit for bit."""

import numpy as np
import pytest

from stagwave import oscillator, wave1d, wave2d, wave3d
from stagwave.core import SystemState, conserved_full, conserved_half_step, system_step
from stagwave.mimetic3d import Grid3, Star3, VectorField3


def _parts(x):
    if isinstance(x, VectorField3):
        return x.components
    return tuple(x) if isinstance(x, tuple) else (x,)


def _same(a, b):
    pa, pb = _parts(a), _parts(b)
    return len(pa) == len(pb) and all(np.array_equal(p, q) for p, q in zip(pa, pb))


def _oscillator(rng):
    p = oscillator.OscParams(omega=1.3, dt=0.07)
    return dict(
        state=oscillator.OscState(u=0.6, v_half=-0.4),
        fields=lambda s: (s.u, s.v_half),
        dt=p.dt,
        step=lambda s: oscillator.leapfrog_step(s, p),
        c_n=lambda s: oscillator.conserved_at_full_step(s, p),
        c_half=lambda s: oscillator.conserved_at_half_step(s, p),
        system=oscillator.oscillator_system(p),
    )


def _grid1d():
    return wave1d.Grid1D(a=0.0, b=1.0, nx=23, t_final=0.3, nt=20)


def _state1d(grid, rng):
    u = rng.standard_normal(grid.nx)
    u[0] = u[-1] = 0.0
    return wave1d.WaveState1D(u=u, v=rng.standard_normal(grid.nx - 1))


def _cmp(rng):
    grid, c = _grid1d(), 1.7
    return dict(
        state=_state1d(grid, rng),
        fields=lambda s: (s.u, s.v),
        dt=grid.dt,
        step=lambda s: wave1d.cmp_step(s, c, grid),
        c_n=lambda s: wave1d.conserved_n_1d(s, grid, c=c),
        c_half=lambda s: wave1d.conserved_half_1d(s, grid, c=c),
        system=wave1d.cmp_system(c, grid),
    )


def _vmp(rng):
    grid = _grid1d()
    mats = wave1d.Materials1D.from_profiles(
        grid, wave1d.bump_profile(2), wave1d.piecewise_linear_profile()
    )
    return dict(
        state=_state1d(grid, rng),
        fields=lambda s: (s.u, s.v),
        dt=grid.dt,
        step=lambda s: wave1d.vmp_step(s, mats, grid),
        c_n=lambda s: wave1d.conserved_n_1d(s, grid, materials=mats),
        c_half=lambda s: wave1d.conserved_half_1d(s, grid, materials=mats),
        system=wave1d.vmp_system(mats, grid),
    )


def _wave2d(rng):
    grid, star = wave2d.Grid2(7, 9), wave2d.Star2(a=2.0, a11=1.5, a22=3.0)
    dt = wave2d.suggest_dt_2d(star, grid, 0.8)
    u = np.zeros(grid.shape("fp"))
    u[1:-1, 1:-1] = rng.standard_normal((grid.nx - 1, grid.ny - 1))
    v = (rng.standard_normal(grid.shape("nxd")), rng.standard_normal(grid.shape("nyd")))
    return dict(
        state=wave2d.WaveState2D(u=u, v=v),
        fields=lambda s: (s.u, s.v),
        dt=dt,
        step=lambda s: wave2d.wave2d_step(s, star, grid, dt),
        c_n=lambda s: wave2d.conserved_n_2d(s, star, grid, dt),
        c_half=lambda s: wave2d.conserved_half_2d(s, star, grid, dt),
        system=wave2d.wave2d_system(star, grid),
    )


def _grid3d():
    return Grid3.cube(4, 1.0, boundary="pinned")


def _random_field(grid, kind, rng):
    return VectorField3(*(rng.standard_normal(sh) for sh in grid.vector_shapes(kind)))


def _scalar3d(rng):
    grid = _grid3d()
    star = Star3.from_diagonals(grid, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5))
    dt = wave3d.suggest_dt(star, grid, 0.8)
    s = wave3d.pin_scalar_boundary(rng.standard_normal(grid.scalar_shape("node")))
    return dict(
        state=wave3d.ScalarWaveState3(s=s, v=_random_field(grid, "dual-face", rng), dt=dt),
        fields=lambda st: (st.s, st.v),
        dt=dt,
        step=lambda st: wave3d.scalar_wave_step(st, star, grid),
        c_n=lambda st: wave3d.scalar_conserved_n(st, star, grid),
        c_half=lambda st: wave3d.scalar_conserved_half(st, star, grid),
        system=wave3d.scalar_wave_system(star, grid),
    )


def _maxwell(rng):
    grid = _grid3d()
    eps = Star3.from_diagonals(grid, 1.0, 1.0, (2.0, 3.0, 4.0), (1.0, 1.0, 1.0))
    mu = Star3.from_diagonals(grid, 1.0, 1.0, (1.0, 1.0, 1.0), (1.5, 2.5, 3.5))
    dt = wave3d.suggest_dt(eps, grid, 0.8, system="maxwell", mu_star=mu)
    e = wave3d.pin_tangential_boundary(_random_field(grid, "edge", rng))
    return dict(
        state=wave3d.MaxwellState3(e=e, h=_random_field(grid, "dual-edge", rng), dt=dt),
        fields=lambda st: (st.e, st.h),
        dt=dt,
        step=lambda st: wave3d.maxwell_step(st, eps, mu, grid),
        c_n=lambda st: wave3d.maxwell_conserved_n(st, eps, mu, grid),
        c_half=lambda st: wave3d.maxwell_conserved_half(st, eps, mu, grid),
        system=wave3d.maxwell_system(eps, mu, grid),
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
    case = SYSTEMS[name](np.random.default_rng(5))
    ops, inner_X, inner_Y = case["system"]
    f, g = case["fields"](case["state"])
    state, core = case["state"], SystemState(f=f, g_half=g, dt=case["dt"])
    for _ in range(3):
        state, core = case["step"](state), system_step(core, ops)
        f, g = case["fields"](state)
        assert _same(f, core.f) and _same(g, core.g_half)
        assert np.array_equal(case["c_n"](state), conserved_full(core, ops, inner_X, inner_Y))
        assert np.array_equal(
            case["c_half"](state), conserved_half_step(core, ops, inner_X, inner_Y)
        )
