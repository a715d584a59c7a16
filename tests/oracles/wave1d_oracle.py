"""Reference computations for the 1D wave tests.

Standalone script: implements the staggered update, the weighted inner
products, and the convergence studies directly (no package imports) so the
numbers it prints can be frozen into tests/test_wave1d.py as literals.

Run:  python3 tests/oracles/wave1d_oracle.py
"""

import numpy as np


# ---------------------------------------------------------------------------
# staggered operators and update loop, written out longhand
# ---------------------------------------------------------------------------

def grad1(u, dx):
    return (u[1:] - u[:-1]) / dx


def div1(v, dx):
    out = np.zeros(len(v) + 1)
    out[1:-1] = (v[1:] - v[:-1]) / dx
    return out


def march_cmp(u, v, c, dx, dt, n_steps):
    """March the constant-material pair; returns final (u, v, v_prev)."""
    v_prev = None
    for _ in range(n_steps):
        u = u + dt * c * div1(v, dx)
        v_prev = v
        v = v + dt * c * grad1(u, dx)
    return u, v, v_prev


def march_vmp(u, v, rho, tau, dx, dt, n_steps):
    v_prev = None
    for _ in range(n_steps):
        u = u + dt * div1(v, dx) / rho
        v_prev = v
        v = v + dt * tau * grad1(u, dx)
    return u, v, v_prev


def mode_u(x, t, m=1, c=1.0):
    return np.cos(m * np.pi * c * t) * np.sin(m * np.pi * x)


def mode_v(x, t, m=1, c=1.0):
    return np.sin(m * np.pi * c * t) * np.cos(m * np.pi * x)


def grids(k):
    nx = 2**k + 1
    dx = 1.0 / (nx - 1)
    xp = dx * np.arange(nx)
    xd = dx * (np.arange(nx - 1) + 0.5)
    return nx, dx, xp, xd


def cmp_mode_error(k, t_final, f, m=1, c=1.0, init="exact"):
    """Max-abs u error at t_final for the standing mode, exact-sampled init."""
    nx, dx, xp, xd = grids(k)
    nt = 2 ** (k + f)
    dt = t_final / nt
    u = mode_u(xp, 0.0, m, c)
    if init == "exact":
        v = mode_v(xd, dt / 2, m, c)
    else:  # Taylor half-step from v(x,0)=0
        v = (dt / 2) * c * grad1(u, dx)
    u, v, v_prev = march_cmp(u, v, c, dx, dt, nt)
    er_u = np.max(np.abs(u - mode_u(xp, t_final, m, c)))
    v_bar = 0.5 * (v + v_prev)
    er_v = np.max(np.abs(v_bar - mode_v(xd, t_final, m, c)))
    return dx, er_u, er_v


def orders(pairs):
    out = []
    for (dx1, e1), (dx2, e2) in zip(pairs, pairs[1:]):
        out.append((np.log(e1) - np.log(e2)) / (np.log(dx1) - np.log(dx2)))
    return out


# ---------------------------------------------------------------------------
# material profiles (the preset suite)
# ---------------------------------------------------------------------------

def heav(x):
    return np.where(x >= 0.0, 1.0, 0.0)


def pwl(x, a=0.25, b=0.75, lo=1.0, hi=2.0):
    mid = ((a * hi - b * lo) + (lo - hi) * x) / (a - b)
    return lo * (1.0 - heav(x - a)) + hi * heav(x - b) + mid * (heav(x - a) - heav(x - b))


ONE = lambda x: np.ones_like(x)

PRESETS = {
    "rho-linear-up": (lambda x: 1 + x / 2, ONE),
    "rho-linear-down": (lambda x: 1 - x / 2, ONE),
    "tau-linear-up": (ONE, lambda x: 1 + x / 2),
    "tau-linear-down": (ONE, lambda x: 1 - x / 2),
    "bump-p1-q1": (lambda x: 1 + (2 * x * (1 - x)) ** 1, lambda x: 1 + (2 * x * (1 - x)) ** 1),
    "bump-p1-q2": (lambda x: 1 + (2 * x * (1 - x)) ** 1, lambda x: 1 + (2 * x * (1 - x)) ** 2),
    "bump-p2-q1": (lambda x: 1 + (2 * x * (1 - x)) ** 2, lambda x: 1 + (2 * x * (1 - x)) ** 1),
    "bump-p2-q2": (lambda x: 1 + (2 * x * (1 - x)) ** 2, lambda x: 1 + (2 * x * (1 - x)) ** 2),
    "rho-piecewise": (pwl, ONE),
    "tau-piecewise": (ONE, pwl),
    "rho-jump-up": (lambda x: 1 + heav(x - 0.5) / 2, ONE),
    "rho-jump-down": (lambda x: 1 - heav(x - 0.5) / 2, ONE),
    "tau-jump-up": (ONE, lambda x: 1 + heav(x - 0.5) / 2),
    "tau-jump-down": (ONE, lambda x: 1 - heav(x - 0.5) / 2),
}


def vmp_solution(k, t_final, f, rho_fn, tau_fn):
    nx, dx, xp, xd = grids(k)
    nt = 2 ** (k + f)
    dt = t_final / nt
    rho = rho_fn(xp)
    tau = tau_fn(xd)
    u = np.sin(np.pi * xp)
    v = (dt / 2) * tau * grad1(u, dx)  # Taylor from v(x,0)=0
    u, v, v_prev = march_vmp(u, v, rho, tau, dx, dt, nt)
    return u


def vmp_refine_errors(ks, t_final, f, rho_fn, tau_fn):
    """(dx, max|Er|) per k, Er from comparison with the doubled grid."""
    sols = {k: vmp_solution(k, t_final, f, rho_fn, tau_fn) for k in list(ks) + [max(ks) + 1]}
    rows = []
    profiles = {}
    for k in ks:
        dx = 1.0 / 2**k
        er = sols[k] - sols[k + 1][::2]
        rows.append((dx, np.max(np.abs(er))))
        profiles[k] = er / dx**2
    return rows, profiles


def main():
    print("== grad1/div1 accuracy (u=sin(pi x), v=cos(pi x)) ==")
    for k in (4, 5, 6):
        nx, dx, xp, xd = grids(k)
        eg = np.max(np.abs(grad1(np.sin(np.pi * xp), dx) - np.pi * np.cos(np.pi * xd)))
        ed = np.max(np.abs(div1(np.cos(np.pi * xd), dx)[1:-1] + np.pi * np.sin(np.pi * xp[1:-1])))
        print(f"  k={k}: grad1 {eg:.6e}  div1 {ed:.6e}")

    print("== CMP standing mode m=1 c=1, exact init ==")
    for t_final, f in ((1.75, 1), (1.0, 1), (2.0, 2), (3.0, 2)):
        rows = [cmp_mode_error(k, t_final, f)[:2] for k in range(4, 10)]
        ps = orders(rows)
        print(f"  T={t_final} f={f}: er={['%.6e' % e for _, e in rows]}")
        print(f"           orders={['%.4f' % p for p in ps]}")

    print("== CMP standing mode, Taylor init, T=1.0 f=1 ==")
    rows = [cmp_mode_error(k, 1.0, 1, init="taylor")[:2] for k in range(4, 10)]
    print(f"  orders={['%.4f' % p for p in orders(rows)]}")

    print("== v at final time (averaged halves), T=1.75 f=1 ==")
    for k in (4, 5, 6):
        _, _, er_v = cmp_mode_error(k, 1.75, 1)
        print(f"  k={k}: er_v={er_v:.6e}")

    print("== Courant number one: mode is reproduced to rounding ==")
    for k in (5, 6):
        _, er_u, _ = cmp_mode_error(k, 2.0, 1)  # nu = T/2^f = 1
        print(f"  k={k}: er_u={er_u:.6e}")

    print("== CMP conserved quantity (unweighted norms), k=5, T=1.75 f=1 ==")
    k, t_final, f = 5, 1.75, 1
    nx, dx, xp, xd = grids(k)
    nt = 2 ** (k + f)
    dt = t_final / nt
    u = mode_u(xp, 0.0)
    v = mode_v(xd, dt / 2)
    c = 1.0
    cn_vals, ch_vals = [], []
    u_prev, v_prev = None, None
    for _ in range(nt):
        u_prev = u
        u = u + dt * c * div1(v, dx)
        v_prev = v
        v = v + dt * c * grad1(u, dx)
        v_bar = 0.5 * (v + v_prev)
        au = c * grad1(u, dx)
        cn = dx * np.sum(u * u) + dx * np.sum(v_bar * v_bar) - (dt / 2) ** 2 * dx * np.sum(au * au)
        asv = -c * div1(v_prev, dx)
        u_bar = 0.5 * (u + u_prev)
        ch = dx * np.sum(v_prev * v_prev) + dx * np.sum(u_bar * u_bar) - (dt / 2) ** 2 * dx * np.sum(asv * asv)
        cn_vals.append(cn)
        ch_vals.append(ch)
    cn_vals = np.array(cn_vals)
    ch_vals = np.array(ch_vals)
    print(f"  C_n first={cn_vals[0]:.15f} |C-0.5|max={np.max(np.abs(cn_vals - 0.5)):.6e}")
    print(f"  drift C_n={np.max(np.abs(cn_vals - cn_vals[0])):.6e} "
          f"C_half={np.max(np.abs(ch_vals - ch_vals[0])):.6e}")
    print(f"  min C_n={cn_vals.min():.6f} min C_half={ch_vals.min():.6f}")

    print("== CFL edge: nu=1.05 blows up, nu=0.95 does not (Nx=65) ==")
    for nu in (1.05, 0.95):
        nx, dx, xp, xd = grids(6)
        dt = nu * dx
        u = mode_u(xp, 0.0)
        v = mode_v(xd, dt / 2)
        hit = None
        for n in range(1, 1001):
            u = u + dt * div1(v, dx)
            v = v + dt * grad1(u, dx)
            if hit is None and np.max(np.abs(u)) > 1e3:
                hit = n
        print(f"  nu={nu}: max|u| final={np.max(np.abs(u)):.6e} first>1e3 at step {hit}")

    print("== CMP vs VMP with rho=1/c, tau=c (c=2), k=5, 200 steps ==")
    nx, dx, xp, xd = grids(5)
    c = 2.0
    dt = 0.25 * dx / c
    u0 = mode_u(xp, 0.0, 1, c)
    v0 = (dt / 2) * c * grad1(u0, dx)
    uc, vc, _ = march_cmp(u0.copy(), v0.copy(), c, dx, dt, 200)
    uv, vv, _ = march_vmp(u0.copy(), v0.copy(), np.full(nx, 1 / c), np.full(nx - 1, c), dx, dt, 200)
    print(f"  max|u diff|={np.max(np.abs(uc - uv)):.6e} max|v diff|={np.max(np.abs(vc - vv)):.6e}")

    print("== weighted summation-by-parts residual, 100 random trials ==")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        nx = int(rng.integers(5, 40))
        dx = float(rng.uniform(0.01, 1.0))
        rho = rng.uniform(0.5, 2.0, nx)
        tau = rng.uniform(0.5, 2.0, nx - 1)
        u = rng.standard_normal(nx)
        u[0] = u[-1] = 0.0
        v = rng.standard_normal(nx - 1)
        au = tau * grad1(u, dx)
        asv = -div1(v, dx) / rho
        lhs = np.sum(au * v / tau * dx)
        rhs = np.sum(u * asv * rho * dx)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    print(f"  max normalized residual={worst:.6e}")

    print("== VMP tau=1-x/2 conserved drift (Nx=65, Nt=1000, T=2) ==")
    nx, dx, xp, xd = grids(6)
    nt, t_final = 1000, 2.0
    dt = t_final / nt
    rho = np.ones(nx)
    tau = 1 - xd / 2
    u = np.sin(np.pi * xp)
    v = (dt / 2) * tau * grad1(u, dx)
    cn_vals, ch_vals = [], []
    for _ in range(nt):
        u_prev = u
        u = u + dt * div1(v, dx) / rho
        v_prev = v
        v = v + dt * tau * grad1(u, dx)
        v_bar = 0.5 * (v + v_prev)
        au = tau * grad1(u, dx)
        cn = np.sum(u * u * rho * dx) + np.sum(v_bar**2 / tau * dx) - (dt / 2) ** 2 * np.sum(au**2 / tau * dx)
        asv = -div1(v_prev, dx) / rho
        u_bar = 0.5 * (u + u_prev)
        ch = np.sum(v_prev**2 / tau * dx) + np.sum(u_bar**2 * rho * dx) - (dt / 2) ** 2 * np.sum(asv**2 * rho * dx)
        cn_vals.append(cn)
        ch_vals.append(ch)
    cn_vals, ch_vals = np.array(cn_vals), np.array(ch_vals)
    print(f"  rel drift C_n={np.max(np.abs(cn_vals - cn_vals[0])) / abs(cn_vals[0]):.6e} "
          f"C_half={np.max(np.abs(ch_vals - ch_vals[0])) / abs(ch_vals[0]):.6e}")
    print(f"  min C_n={cn_vals.min():.6f} min C_half={ch_vals.min():.6f}")

    print("== VMP refine-compare orders, T=2 f=2, k=4..7 vs k+1 ==")
    for name, (rho_fn, tau_fn) in PRESETS.items():
        rows, profiles = vmp_refine_errors(range(4, 8), 2.0, 2, rho_fn, tau_fn)
        ps = orders(rows)
        (d1, e1), (d2, e2) = rows[0], rows[-1]
        fit = (np.log(e1) - np.log(e2)) / (np.log(d1) - np.log(d2))
        print(f"  {name}: er={['%.6e' % e for _, e in rows]}")
        print(f"      orders={['%.4f' % p for p in ps]} min={min(ps):.4f} endpoint={fit:.4f}")
        if name == "bump-p2-q2":
            ms = [np.max(np.abs(profiles[k])) for k in range(4, 8)]
            ratios = [ms[i + 1] / ms[i] for i in range(len(ms) - 1)]
            print(f"      bump overlap max|Er|/dx^2={['%.6f' % m for m in ms]}")
            print(f"      ratios={['%.6f' % r for r in ratios]}")

    print("== refine-compare vs true error, CMP T=1.75 f=1 ==")
    for k in (5, 6):
        nx, dx, xp, xd = grids(k)
        nt = 2 ** (k + 1)
        dt = 1.75 / nt
        u = mode_u(xp, 0.0)
        v = mode_v(xd, dt / 2)
        uc, _, _ = march_cmp(u, v, 1.0, dx, dt, nt)
        nxf, dxf, xpf, xdf = grids(k + 1)
        ntf = 2 ** (k + 2)
        dtf = 1.75 / ntf
        uf0 = mode_u(xpf, 0.0)
        vf0 = mode_v(xdf, dtf / 2)
        uf, _, _ = march_cmp(uf0, vf0, 1.0, dxf, dtf, ntf)
        rc = np.max(np.abs(uc - uf[::2]))
        true = np.max(np.abs(uc - mode_u(xp, 1.75)))
        print(f"  k={k}: refine={rc:.6e} true={true:.6e} ratio={rc / true:.4f}")


if __name__ == "__main__":
    main()
