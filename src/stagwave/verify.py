"""The ``verify`` command's suites: exactness, adjointness, round trips and order.

Each suite maps (sizes, trials, seed, broken_sign) to checks, and `verify` runs
one or all into a summary.  A size below 2, for every suite, or an unknown
suite is a ValueError whose text the command prints as its usage error.
"""

import numpy as np

from . import mimetic3d, wave1d
from .core import _check, check_adjointness
from .mimetic3d import Grid3, Star3, sample_scalar, sample_vector

__all__ = ["verify"]


def _max_abs(field) -> float:
    """max |x| over every component of a field."""
    return max(float(np.max(np.abs(c))) for c in getattr(field, "components", (field,)))


# (check name, input kind, first operator, second operator): chains that vanish
_EXACT_CHAINS = (
    ("curl-grad", "node", "grad3", "curl3"),
    ("div-curl", "edge", "curl3", "div3"),
    ("star-curl-grad", "dual-node", "grad3_star", "curl3_star"),
    ("star-div-curl", "dual-edge", "curl3_star", "div3_star"),
)


def _exactness_checks(n: int, seed: int) -> list:
    """Both double-application chains vanish to roundoff on random fields."""
    checks = []
    rng = np.random.default_rng(seed)
    for boundary in ("periodic", "pinned"):
        g = Grid3.cube(n, boundary=boundary)
        for name, kind, first, second in _EXACT_CHAINS:
            x = mimetic3d.random_field(g, kind, rng)
            bound = 1e-13 * _max_abs(x) / g.dx
            res = _max_abs(getattr(mimetic3d, second)(getattr(mimetic3d, first)(x, g), g))
            checks.append(
                _check(f"{name}-zero-{boundary}-{n}", res, f"<= {bound:.3e}", res <= bound)
            )
    return checks


def _round_trip_checks(n: int, seed: int) -> list:
    """Scalar and diagonal star maps invert to a few ulps."""
    checks = []
    rng = np.random.default_rng(seed)
    g = Grid3.cube(n, boundary="pinned")
    star = Star3.from_scalars(g, 2.0, 1.5, 3.0, 2.5)
    f = rng.standard_normal(g.scalar_shape("node"))
    back = mimetic3d.star_scalar_inverse(
        mimetic3d.star_scalar(f, star, "node-to-dual-cell"), star, "node-to-dual-cell"
    )
    res = _max_abs(back - f) / _max_abs(f)
    checks.append(_check(f"round-trip-scalar-{n}", res, "<= 1e-15 relative", res <= 1e-15))

    star_d = Star3.from_diagonals(g, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5))
    t = mimetic3d.random_field(g, "edge", rng)
    fwd = mimetic3d.star_matrix(t, star_d, which="a")
    back_v = mimetic3d.star_matrix(fwd, star_d, which="a", inverse=True)
    res = _max_abs(back_v - t) / _max_abs(t)
    checks.append(_check(f"round-trip-diagonal-{n}", res, "<= 1e-15 relative", res <= 1e-15))
    return checks


_TRIG_S = lambda x, y, z: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z)
_TRIG_GRAD = (
    lambda x, y, z: 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * np.sin(2 * np.pi * z),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.cos(2 * np.pi * z),
)
_TRIG_T = (
    lambda x, y, z: np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z),
    lambda x, y, z: np.sin(2 * np.pi * z) * np.sin(2 * np.pi * x),
    lambda x, y, z: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
)
_TRIG_CURL = (
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * x) * (np.cos(2 * np.pi * y) - np.cos(2 * np.pi * z)),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * y) * (np.cos(2 * np.pi * z) - np.cos(2 * np.pi * x)),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * z) * (np.cos(2 * np.pi * x) - np.cos(2 * np.pi * y)),
)
_TRIG_N = (
    lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
    lambda x, y, z: np.sin(2 * np.pi * y) * np.cos(2 * np.pi * z),
    lambda x, y, z: np.sin(2 * np.pi * z) * np.cos(2 * np.pi * x),
)
_TRIG_DIV = lambda x, y, z: 2 * np.pi * (
    np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    + np.cos(2 * np.pi * y) * np.cos(2 * np.pi * z)
    + np.cos(2 * np.pi * z) * np.cos(2 * np.pi * x)
)

_ORDER_CASES = {
    "grad3": (mimetic3d.grad3, "node", _TRIG_S, "edge", _TRIG_GRAD),
    "curl3": (mimetic3d.curl3, "edge", _TRIG_T, "face", _TRIG_CURL),
    "div3": (mimetic3d.div3, "face", _TRIG_N, "cell", _TRIG_DIV),
    "grad3_star": (mimetic3d.grad3_star, "dual-node", _TRIG_S, "dual-edge", _TRIG_GRAD),
    "curl3_star": (mimetic3d.curl3_star, "dual-edge", _TRIG_T, "dual-face", _TRIG_CURL),
    "div3_star": (mimetic3d.div3_star, "dual-face", _TRIG_N, "dual-cell", _TRIG_DIV),
}


def _op_error(op, in_kind, in_fns, out_kind, out_fns, n: int) -> float:
    g = Grid3.cube(n, boundary="periodic")
    arg, want = ((sample_vector if isinstance(fns, tuple) else sample_scalar)(g, kind, fns)
                 for kind, fns in ((in_kind, in_fns), (out_kind, out_fns)))
    return _max_abs(op(arg, g) - want)


def _order_checks(sizes) -> list:
    checks = []
    lo, hi = min(sizes), 2 * min(sizes)
    for name, case in _ORDER_CASES.items():
        e_lo = _op_error(*case, lo)
        e_hi = _op_error(*case, hi)
        ratio = e_lo / e_hi
        checks.append(
            _check(f"order-{name}", ratio, "in [3.5, 4.5] per halving", 3.5 <= ratio <= 4.5)
        )
    return checks


def _verify_mimetic3d(sizes, trials, seed, broken_sign) -> list:
    checks = []
    for n in sizes:
        checks.extend(_exactness_checks(int(n), seed))
        checks.extend(_round_trip_checks(int(n), seed))
    checks.extend(_order_checks([int(n) for n in sizes]))
    return checks


def _verify_adjoint(sizes, trials, seed, broken_sign) -> list:
    """Adjointness residuals for trivial and variable materials."""
    two_pi = 2 * np.pi

    def smooth(lo, amp, freq=1):
        return lambda x, y, z: lo + amp * (
            1 + np.sin(freq * two_pi * x) * np.cos(freq * two_pi * y) * np.cos(freq * two_pi * z)
        ) / 2

    stars = {
        "trivial": lambda g: Star3.trivial(g),
        "variable-scalar": lambda g: Star3.from_scalars(
            g, smooth(1.0, 1.0), smooth(0.5, 1.0), smooth(2.0, 1.0), smooth(1.5, 0.5)
        ),
        "variable-diagonal": lambda g: Star3.from_diagonals(
            g,
            smooth(1.0, 0.5),
            smooth(1.0, 1.0),
            (smooth(2.0, 1.0), smooth(3.0, 0.5), smooth(1.0, 0.25)),
            (smooth(1.5, 0.5), smooth(2.5, 1.0), smooth(0.5, 0.25)),
        ),
    }
    if broken_sign:
        stars = {"trivial-broken-sign": stars["trivial"]}

    checks = []
    for n in sizes:
        g = Grid3.cube(int(n), boundary="pinned")
        for name, make in stars.items():
            res = mimetic3d.check_discrete_adjoints(
                make(g), g, trials=trials, seed=seed, broken_sign=broken_sign
            )
            checks.append(
                _check(f"adjoint-{name}-{n}", res["max"], "<= 1e-12", res["max"] <= 1e-12)
            )
    return checks


def _verify_wave1d_sbp(sizes, trials, seed, broken_sign) -> list:
    """1D summation-by-parts adjointness on random grids and materials;
    ``broken_sign`` flips the sign of the A* side, so the residual is O(1)."""
    rng = np.random.default_rng(seed)
    sign = -1.0 if broken_sign else 1.0
    worst = 0.0
    for _ in range(trials):
        nx = int(rng.integers(5, 40))
        dx = float(rng.uniform(0.01, 1.0))
        g = wave1d.Grid1D(a=0.0, b=dx * (nx - 1), nx=nx, t_final=1.0, nt=1)
        mats = wave1d.Materials1D(
            rho=rng.uniform(0.5, 2.0, nx), tau=rng.uniform(0.5, 2.0, nx - 1)
        )
        u = rng.standard_normal(nx)
        u[0] = u[-1] = 0.0
        v = rng.standard_normal(nx - 1)
        system = wave1d.vmp_system(mats, g)
        lhs = system.inner_Y(system.ops.apply_A(u), v)
        rhs = sign * system.inner_X(u, system.ops.apply_Astar(v))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    checks = [_check("sbp-random-trials", worst, "<= 1e-13 relative", worst <= 1e-13)]

    g = wave1d.Grid1D(a=0.0, b=1.0, nx=33, t_final=1.0, nt=1)
    mats = wave1d.Materials1D.from_profiles(
        g, wave1d.bump_profile(2), wave1d.piecewise_linear_profile()
    )
    system = wave1d.vmp_system(mats, g)

    def sample_u(r):
        u = r.standard_normal(g.nx)
        u[0] = u[-1] = 0.0
        return u

    res = check_adjointness(
        system.ops,
        system.inner_X,
        system.inner_Y,
        trials=max(trials // 5, 1),
        sample_X=sample_u,
        sample_Y=lambda r: r.standard_normal(g.nx - 1),
        seed=seed,
    )
    checks.append(_check("sbp-generic-checker", res, "<= 1e-13", res <= 1e-13))
    return checks


_SUITES = {
    "mimetic3d": _verify_mimetic3d,
    "adjoint": _verify_adjoint,
    "wave1d-sbp": _verify_wave1d_sbp,
}


def verify(suite: str, *, sizes, trials: int, seed: int, broken_sign: bool) -> dict:
    """Run a named verification suite; returns a machine-readable summary."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValueError(
            f"unknown verify suite {suite!r}; use one of {sorted(_SUITES) + ['all']}"
        )
    if min(sizes) < 2:
        raise ValueError("--sizes: need at least 2 cells per axis")
    checks = []
    for name in names:
        checks.extend(_SUITES[name](sizes, trials, seed, broken_sign))
    return {
        "suite": suite,
        "sizes": [int(s) for s in sizes],
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
