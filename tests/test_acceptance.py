"""The acceptance gate: one test per shipped guarantee, stated bounds only.

Every test prints a single [PASS]/[FAIL] line with the measured value, the
bound it is held to, and the wall time against the budget — then asserts.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stagwave import cli, mimetic3d, oscillator, positivity, wave1d, wave2d, wave3d
from stagwave.core import SystemState, init_g_half
from stagwave.mimetic3d import Grid3, Star3, VectorField3, check_discrete_adjoints
from stagwave.oscillator import OscParams


def report(capsys, num, label, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"[{verdict}] criterion {num:02d} {label}: {detail} "
            f"({elapsed:.3f}s < {budget:g}s)"
        )


def rel_drift(values):
    arr = np.asarray(values, dtype=float)
    return float(np.max(np.abs(arr - arr[0])) / abs(arr[0]))


def drifts(records, idx_n, idx_half):
    return (
        rel_drift([r[idx_n] for r in records]),
        rel_drift([r[idx_half] for r in records]),
    )


def endpoint_fit(rows):
    (d1, e1), (d2, e2) = rows[0], rows[-1]
    return (math.log(e1) - math.log(e2)) / (math.log(d1) - math.log(d2))


# ---------------------------------------------------------------------------


def test_criterion_01_oscillator_conservation(capsys):
    t0 = time.perf_counter()
    system = oscillator.oscillator_system(OscParams(omega=1.0, dt=0.01), 1.0, 0.0)
    _, rec = system.march(0.01, 10_000, audit=lambda s, _: (s.f,))
    dn, dh = drifts(rec, 1, 2)
    elapsed = time.perf_counter() - t0
    ok = dn <= 1e-12 and dh <= 1e-12 and elapsed < 0.1
    report(capsys, 1, "oscillator conservation", ok,
           f"drifts {dn:.2e}, {dh:.2e} <= 1e-12", elapsed, 0.1)
    assert dn <= 1e-12 and dh <= 1e-12
    assert elapsed < 0.1


def test_criterion_02_oscillator_stability_edge(capsys):
    def final_u(dt):  # u0 = 1: a stable orbit stays at or below 1, NaN and inf fail
        state, _ = oscillator.oscillator_system(OscParams(omega=1.0, dt=dt)).march(
            dt, 10_000, record_every=0)
        return "stable" if abs(state.f) <= 10 else "unstable"

    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no CFL warning below the edge
        at_199 = final_u(1.99)
    with pytest.warns(RuntimeWarning, match="exceeds the stability bound"):
        at_230 = final_u(2.30)
    elapsed = time.perf_counter() - t0
    ok = at_199 == "stable" and at_230 == "unstable" and elapsed < 0.1
    report(capsys, 2, "oscillator stability edge", ok,
           f"omega*dt=1.99 {at_199}, 2.30 {at_230}", elapsed, 0.1)
    assert at_199 == "stable" and at_230 == "unstable"
    assert elapsed < 0.1


def test_criterion_03_mimetic_exactness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0  # residual as a multiple of 1e-13 * scale / h
    for boundary in ("periodic", "pinned"):
        g = Grid3.cube(16, 1.0, boundary=boundary)

        s = rng.standard_normal(g.scalar_shape("node"))
        res = max(np.max(np.abs(c)) for c in
                  mimetic3d.curl3(mimetic3d.grad3(s, g), g).components)
        worst = max(worst, res / (1e-13 * np.max(np.abs(s)) / g.dx))

        t = VectorField3(*(rng.standard_normal(sh) for sh in g.vector_shapes("edge")))
        scale = max(np.max(np.abs(c)) for c in t.components)
        res = np.max(np.abs(mimetic3d.div3(mimetic3d.curl3(t, g), g)))
        worst = max(worst, res / (1e-13 * scale / g.dx))

        sd = rng.standard_normal(g.scalar_shape("dual-node"))
        res = max(np.max(np.abs(c)) for c in
                  mimetic3d.curl3_star(mimetic3d.grad3_star(sd, g), g).components)
        worst = max(worst, res / (1e-13 * np.max(np.abs(sd)) / g.dx))

        td = VectorField3(*(rng.standard_normal(sh) for sh in g.vector_shapes("dual-edge")))
        scale = max(np.max(np.abs(c)) for c in td.components)
        res = np.max(np.abs(mimetic3d.div3_star(mimetic3d.curl3_star(td, g), g)))
        worst = max(worst, res / (1e-13 * scale / g.dx))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 1.0
    report(capsys, 3, "mimetic exactness", ok,
           f"worst residual {worst:.2e} of the 1e-13*scale/h allowance", elapsed, 1.0)
    assert worst <= 1.0
    assert elapsed < 1.0


def _op_error_3d(op, in_kind, in_fns, out_kind, out_fns, n):
    g = Grid3.cube(n, 1.0, boundary="periodic")
    arg = (mimetic3d.sample_vector(g, in_kind, in_fns) if isinstance(in_fns, tuple)
           else mimetic3d.sample_scalar(g, in_kind, in_fns))
    got = op(arg, g)
    if isinstance(out_fns, tuple):
        want = mimetic3d.sample_vector(g, out_kind, out_fns)
        return max(float(np.max(np.abs(a - b)))
                   for a, b in zip(got.components, want.components))
    return float(np.max(np.abs(got - mimetic3d.sample_scalar(g, out_kind, out_fns))))


def _errors_2d(n):
    grid = wave2d.Grid2(n, n)
    pi = np.pi
    f = lambda x, y: np.sin(pi * x) * np.sin(pi * y)
    fx = lambda x, y: pi * np.cos(pi * x) * np.sin(pi * y)
    fy = lambda x, y: pi * np.sin(pi * x) * np.cos(pi * y)
    g1 = lambda x, y: np.sin(pi * x) * np.cos(pi * y)
    g2 = lambda x, y: np.cos(pi * x) * np.sin(pi * y)
    dv = lambda x, y: 2.0 * pi * np.cos(pi * x) * np.cos(pi * y)

    tx, ty = wave2d.grad2p(f(*grid.points("fp")), grid)
    e_gp = max(float(np.max(np.abs(tx - fx(*grid.points("txp"))))),
               float(np.max(np.abs(ty - fy(*grid.points("typ"))))))
    got = wave2d.div2d((g1(*grid.points("nxd")), g2(*grid.points("nyd"))), grid)
    e_dd = float(np.max(np.abs(got - dv(*grid.points("gd")))))
    tx, ty = wave2d.grad2d(f(*grid.points("fd")), grid)
    e_gd = max(float(np.max(np.abs(tx - fx(*grid.points("txd"))))),
               float(np.max(np.abs(ty - fy(*grid.points("tyd"))))))
    got = wave2d.div2p((g1(*grid.points("nxp")), g2(*grid.points("nyp"))), grid)
    e_dp = float(np.max(np.abs(got - dv(*grid.points("gp")))))
    return e_gp, e_dd, e_gd, e_dp


def test_criterion_04_operator_accuracy(capsys):
    t0 = time.perf_counter()
    two_pi = 2 * np.pi
    s = lambda x, y, z: np.sin(two_pi * x) * np.sin(two_pi * y) * np.sin(two_pi * z)
    grad = (
        lambda x, y, z: two_pi * np.cos(two_pi * x) * np.sin(two_pi * y) * np.sin(two_pi * z),
        lambda x, y, z: two_pi * np.sin(two_pi * x) * np.cos(two_pi * y) * np.sin(two_pi * z),
        lambda x, y, z: two_pi * np.sin(two_pi * x) * np.sin(two_pi * y) * np.cos(two_pi * z),
    )
    tvec = (
        lambda x, y, z: np.sin(two_pi * y) * np.sin(two_pi * z),
        lambda x, y, z: np.sin(two_pi * z) * np.sin(two_pi * x),
        lambda x, y, z: np.sin(two_pi * x) * np.sin(two_pi * y),
    )
    curl = (
        lambda x, y, z: two_pi * np.sin(two_pi * x) * (np.cos(two_pi * y) - np.cos(two_pi * z)),
        lambda x, y, z: two_pi * np.sin(two_pi * y) * (np.cos(two_pi * z) - np.cos(two_pi * x)),
        lambda x, y, z: two_pi * np.sin(two_pi * z) * (np.cos(two_pi * x) - np.cos(two_pi * y)),
    )
    nvec = (
        lambda x, y, z: np.sin(two_pi * x) * np.cos(two_pi * y),
        lambda x, y, z: np.sin(two_pi * y) * np.cos(two_pi * z),
        lambda x, y, z: np.sin(two_pi * z) * np.cos(two_pi * x),
    )
    div = lambda x, y, z: two_pi * (
        np.cos(two_pi * x) * np.cos(two_pi * y)
        + np.cos(two_pi * y) * np.cos(two_pi * z)
        + np.cos(two_pi * z) * np.cos(two_pi * x)
    )
    cases_3d = [
        (mimetic3d.grad3, "node", s, "edge", grad),
        (mimetic3d.curl3, "edge", tvec, "face", curl),
        (mimetic3d.div3, "face", nvec, "cell", div),
        (mimetic3d.grad3_star, "dual-node", s, "dual-edge", grad),
        (mimetic3d.curl3_star, "dual-edge", tvec, "dual-face", curl),
        (mimetic3d.div3_star, "dual-face", nvec, "dual-cell", div),
    ]
    ratios = [_op_error_3d(*case, 8) / _op_error_3d(*case, 16) for case in cases_3d]
    ratios += [c / f for c, f in zip(_errors_2d(16), _errors_2d(32))]
    elapsed = time.perf_counter() - t0
    in_band = all(3.5 <= r <= 4.5 for r in ratios)
    ok = in_band and elapsed < 5.0
    report(capsys, 4, "operator accuracy", ok,
           f"10 halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}] vs [3.5, 4.5]",
           elapsed, 5.0)
    assert in_band
    assert elapsed < 5.0


def test_criterion_05_adjointness(capsys):
    t0 = time.perf_counter()
    g = Grid3.cube(8, 1.0, boundary="pinned")
    two_pi = 2 * np.pi

    def smooth(lo, amp):
        return lambda x, y, z: lo + amp * (
            1 + np.sin(two_pi * x) * np.cos(two_pi * y) * np.cos(two_pi * z)
        ) / 2

    stars = (
        Star3.trivial(g),
        Star3.from_scalars(g, smooth(1.0, 1.0), smooth(0.5, 1.0),
                           smooth(2.0, 1.0), smooth(1.5, 0.5)),
        Star3.from_diagonals(
            g, smooth(1.0, 0.5), smooth(1.0, 1.0),
            (smooth(2.0, 1.0), smooth(3.0, 0.5), smooth(1.0, 0.25)),
            (smooth(1.5, 0.5), smooth(2.5, 1.0), smooth(0.5, 0.25)),
        ),
    )
    worst = max(check_discrete_adjoints(star, g, trials=100, seed=5)["max"]
                for star in stars)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 2.0
    report(capsys, 5, "adjointness", ok, f"worst residual {worst:.2e} <= 1e-12",
           elapsed, 2.0)
    assert worst <= 1e-12
    assert elapsed < 2.0


def _mode_sweep_at_half_courant(t_final):
    rows = []
    for k in range(4, 9):
        nx = 2**k + 1
        dx = 1.0 / (nx - 1)
        nt = int(round(t_final / (0.5 * dx)))
        grid = wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=t_final, nt=nt)
        # the standing mode, with v sampled at dt/2
        system = wave1d.cmp_system(1.0, grid)
        state, _ = system.march(grid.dt, grid.nt, record_every=0)
        rows.append((dx, system.error(state.f, t_final)))
    return rows


def test_criterion_06_cmp_convergence(capsys):
    t0 = time.perf_counter()
    generic = wave1d.estimate_order(_mode_sweep_at_half_courant(0.75))
    half_period = wave1d.estimate_order(_mode_sweep_at_half_courant(1.0))
    elapsed = time.perf_counter() - t0
    ok_gen = all(1.9 <= p <= 2.1 for p in generic)
    ok_half = all(p >= 3.5 for p in half_period)
    ok = ok_gen and ok_half and elapsed < 10.0
    report(capsys, 6, "1D CMP convergence", ok,
           f"generic orders {min(generic):.3f}..{max(generic):.3f} in [1.9, 2.1]; "
           f"half-period {min(half_period):.3f} >= 3.5", elapsed, 10.0)
    assert ok_gen and ok_half
    assert elapsed < 10.0


def test_criterion_07_cmp_vmp_equivalence(capsys):
    t0 = time.perf_counter()
    c, nx, nt = 1.3, 65, 400
    dx = 1.0 / (nx - 1)
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=nt * 0.5 * dx / c, nt=nt)
    mats = wave1d.Materials1D(rho=np.full(nx, 1.0 / c), tau=np.full(nx - 1, c))
    u0 = wave1d.standing_mode_u(grid.primal_points(), 0.0, c=c)
    v0 = wave1d.standing_mode_v(grid.dual_points(), grid.dt / 2, c=c)
    s_cmp = SystemState(f=u0.copy(), g_half=v0.copy(), dt=grid.dt)
    s_vmp = SystemState(f=u0.copy(), g_half=v0.copy(), dt=grid.dt)
    worst = 0.0
    for _ in range(nt):
        s_cmp = wave1d.cmp_step(s_cmp, c, grid)
        s_vmp = wave1d.vmp_step(s_vmp, mats, grid)
        scale = max(np.max(np.abs(s_cmp.f)), np.max(np.abs(s_cmp.g_half)))
        dev = max(np.max(np.abs(s_cmp.f - s_vmp.f)),
                  np.max(np.abs(s_cmp.g_half - s_vmp.g_half))) / scale
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 1.0
    report(capsys, 7, "CMP/VMP equivalence", ok,
           f"worst per-step deviation {worst:.2e} <= 1e-13 over {nt} steps",
           elapsed, 1.0)
    assert worst <= 1e-13
    assert elapsed < 1.0


def test_criterion_08_1d_conservation_all_presets(capsys):
    t0 = time.perf_counter()
    worst, worst_name = 0.0, ""
    for name in sorted(wave1d.MATERIAL_PRESETS):
        rho_fn, tau_fn = wave1d.MATERIAL_PRESETS[name]
        nx = 65
        probe = wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=1.0, nt=1)
        mats = wave1d.Materials1D.from_profiles(probe, rho_fn, tau_fn)
        speed = wave1d.cfl_speed(mats)
        dx = 1.0 / (nx - 1)
        nt = math.ceil(1.0 / (0.9 * dx / speed))
        grid = wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=1.0, nt=nt)
        mats = wave1d.Materials1D.from_profiles(grid, rho_fn, tau_fn)
        x = grid.primal_points()
        u0 = np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)
        v0 = init_g_half(u0, np.zeros(nx - 1), wave1d.vmp_operator_pair(mats, grid), grid.dt)
        system = replace(wave1d.vmp_system(mats, grid), start=lambda _: (u0, v0))
        _, rec = system.march(grid.dt, grid.nt)
        dn, dh = drifts(rec, 1, 2)
        if max(dn, dh) > worst:
            worst, worst_name = max(dn, dh), name
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(capsys, 8, "1D conservation (all presets)", ok,
           f"worst drift {worst:.2e} <= 1e-12 ({worst_name})", elapsed, 10.0)
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_09_vmp_convergence_floor(capsys, tmp_path):
    t0 = time.perf_counter()
    fits = {}
    for name in ("rho-jump-up", "rho-jump-down", "tau-jump-up", "tau-jump-down",
                 "bump-p2-q2"):
        assert cli.main(["convergence-table", "--case", name, "--k", "4..6", "--final", "2",
                         "--outdir", str(tmp_path), "--prefix", name]) == 0
        with open(tmp_path / f"{name}_table.csv", newline="") as fh:
            rows = [(float(r[2]), float(r[3])) for r in list(csv.reader(fh))[1:]]
        fits[name] = endpoint_fit(rows)
    elapsed = time.perf_counter() - t0
    jumps_ok = all(fits[n] >= 1.0 for n in fits if "jump" in n)
    bump_ok = fits["bump-p2-q2"] >= 1.9
    ok = jumps_ok and bump_ok and elapsed < 30.0
    report(capsys, 9, "VMP convergence floor", ok,
           f"jump orders >= {min(v for n, v in fits.items() if 'jump' in n):.2f} "
           f"(floor 1.0); bump-p2-q2 {fits['bump-p2-q2']:.2f} >= 1.9", elapsed, 30.0)
    assert jumps_ok and bump_ok
    assert elapsed < 30.0


def test_criterion_10_3d_scalar_wave(capsys):
    t0 = time.perf_counter()
    grid = Grid3.cube(16, 1.0, boundary="pinned")
    star = Star3.trivial(grid)
    system = wave3d.scalar_wave_system(star, grid)
    # the cavity mode at rest, with the Taylor half step for v
    _, rec = system.march(system.cfl_dt(0.9), 500)
    dn, dh = drifts(rec, 1, 2)
    errors = []
    for n in (8, 16, 32):
        cube = Grid3.cube(n, 1.0, boundary="pinned")
        system = wave3d.scalar_wave_system(Star3.trivial(cube), cube)
        nt = math.ceil(0.35 / system.cfl_dt(0.9))
        state, _ = system.march(0.35 / nt, nt, record_every=0)
        errors.append((cube.dx, system.error(state.f, 0.35)))
    orders = wave1d.estimate_order(errors)
    elapsed = time.perf_counter() - t0
    ok = dn <= 1e-12 and dh <= 1e-12 and min(orders) >= 2.0 and elapsed < 60.0
    report(capsys, 10, "3D scalar wave", ok,
           f"drifts {dn:.2e}, {dh:.2e} <= 1e-12; cavity orders >= {min(orders):.3f}",
           elapsed, 60.0)
    assert dn <= 1e-12 and dh <= 1e-12
    assert min(orders) >= 2.0
    assert elapsed < 60.0


def test_criterion_11_maxwell(capsys):
    t0 = time.perf_counter()
    grid = Grid3.cube(16, 1.0, boundary="pinned")
    star = Star3.trivial(grid)
    system = wave3d.maxwell_system(star, star, grid)

    divergences = wave3d.divergence_auditor(star, star, grid)

    # the TE mode at rest, with the Taylor half step for H
    _, rec = system.march(system.cfl_dt(0.9), 500,
                          audit=lambda state, _: divergences(state.f, state.g_half))
    dn, dh = drifts(rec, 1, 2)
    audit_e = max(abs(r[3] - rec[0][3]) for r in rec)
    audit_h = max(abs(r[4] - rec[0][4]) for r in rec)
    elapsed = time.perf_counter() - t0
    ok = (dn <= 1e-12 and dh <= 1e-12 and audit_e <= 1e-12 and audit_h <= 1e-12
          and elapsed < 60.0)
    report(capsys, 11, "Maxwell cavity", ok,
           f"drifts {dn:.2e}, {dh:.2e} <= 1e-12; div audits "
           f"{audit_e:.2e}, {audit_h:.2e} <= 1e-12", elapsed, 60.0)
    assert dn <= 1e-12 and dh <= 1e-12
    assert audit_e <= 1e-12 and audit_h <= 1e-12
    assert elapsed < 60.0


def test_criterion_12_cfl_sharpness(capsys):
    t0 = time.perf_counter()
    nx = 65
    dx = 1.0 / (nx - 1)

    # the standing mode, with v sampled at dt/2
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=150 * 1.05 * dx, nt=150)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state, _ = wave1d.cmp_system(1.0, grid).march(grid.dt, grid.nt, record_every=0)
    blowup = float(np.max(np.abs(state.f)))

    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=1000 * 0.95 * dx, nt=1000)
    state, rec = wave1d.cmp_system(1.0, grid).march(grid.dt, grid.nt)
    dn, dh = drifts(rec, 1, 2)
    elapsed = time.perf_counter() - t0
    ok = blowup > 1e3 and dn <= 1e-12 and dh <= 1e-12 and elapsed < 1.0
    report(capsys, 12, "1D CFL sharpness", ok,
           f"1.05x max|u| {blowup:.1e} > 1e3; 0.95x drifts {dn:.2e}, {dh:.2e} <= 1e-12",
           elapsed, 1.0)
    assert blowup > 1e3
    assert dn <= 1e-12 and dh <= 1e-12
    assert elapsed < 1.0


def test_criterion_13_transport_exactness(capsys):
    t0 = time.perf_counter()
    n, speed, steps = 64, 2.0, 10
    dx = 1.0 / n
    rho0 = np.zeros(n)
    rho0[10:20] = 1.0
    state = positivity.TransportState(rho=rho0, v=np.full(n + 1, speed),
                                      dx=dx, dt=dx / speed)
    mass0 = state.mass
    state, rec = positivity.run_transport(state, steps)
    want = np.zeros(n)
    want[10 + steps:20 + steps] = 1.0
    bit_exact = bool(np.array_equal(state.rho, want))
    mass_drift = max(abs(m - mass0) for _, m, _ in rec) / mass0

    radial_ok = True
    for sign in (-1.0, +1.0):  # collapse toward x = 0, then expansion
        nr = 100
        dxr = 2.0 / nr
        x_face = -1.0 + dxr * np.arange(nr + 1)
        x_cell = -1.0 + dxr * (np.arange(nr) + 0.5)
        v = sign * x_face
        rho = np.where(np.abs(x_cell) < 0.5, 1.0, 0.0)
        coeff = float(np.max(np.maximum(v[1:], 0.0) - np.minimum(v[:-1], 0.0)))
        st = positivity.TransportState(rho=rho, v=v, dx=dxr, dt=0.9 * dxr / coeff)
        st, _ = positivity.run_transport(st, 150, record_every=0)
        radial_ok = radial_ok and st.guaranteed and float(np.min(st.rho)) >= 0.0
    elapsed = time.perf_counter() - t0
    ok = bit_exact and mass_drift <= 1e-13 and radial_ok and elapsed < 1.0
    report(capsys, 13, "transport exactness", ok,
           f"unit-Courant shift bit-exact {bit_exact}; mass drift {mass_drift:.1e} "
           f"<= 1e-13; collapse/expand nonnegative {radial_ok}", elapsed, 1.0)
    assert bit_exact
    assert mass_drift <= 1e-13
    assert radial_ok
    assert elapsed < 1.0


def test_criterion_14_diffusion_positivity(capsys):
    t0 = time.perf_counter()
    n = 101
    dx = 1.0 / n
    d = np.ones(n + 1)
    dt = 0.5 * dx * dx  # (D_i + D_{i+1}) dt / dx^2 = 1, the guard edge
    assert positivity.positivity_guard(d=d, dt=dt, dx=dx)
    rho = np.zeros(n)
    rho[n // 2] = 1.0
    mass0 = float(np.sum(rho) * dx)
    min_rho, mass_drift = 0.0, 0.0
    for _ in range(1000):
        rho = positivity.diffusion_step(rho, d, dx, dt)
        min_rho = min(min_rho, float(np.min(rho)))
        mass_drift = max(mass_drift, abs(float(np.sum(rho) * dx) - mass0) / mass0)
    elapsed = time.perf_counter() - t0
    ok = min_rho >= 0.0 and mass_drift <= 1e-13 and elapsed < 1.0
    report(capsys, 14, "diffusion positivity", ok,
           f"min density {min_rho:.1e} >= 0; mass drift {mass_drift:.1e} <= 1e-13",
           elapsed, 1.0)
    assert min_rho >= 0.0
    assert mass_drift <= 1e-13
    assert elapsed < 1.0
