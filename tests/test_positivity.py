"""Positivity module: upwind transport, FTCS diffusion, and the guard.

Band checks (mass-audit drift, minimum density) follow the measured runs in
tests/oracles/positivity_oracle.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from stagwave.positivity import (
    TransportState,
    diffusion_step,
    positivity_guard,
    run_transport,
    transport_step,
)


def square_state(n=64, v=2.0):
    # dyadic spacing and speed: nu = v dt/dx is exactly 1
    dx = 1.0 / 64.0
    rho = np.zeros(n)
    rho[10:20] = 1.0
    return TransportState(rho=rho, v=np.full(n + 1, v), dx=dx, dt=dx / abs(v))


# ---------------------------------------------------------------------------
# state and guard
# ---------------------------------------------------------------------------


class TestTransportState:
    def test_validates_shapes_and_signs(self):
        with pytest.raises(ValueError, match="one velocity per cell face"):
            TransportState(rho=np.ones(5), v=np.ones(5), dx=0.1, dt=0.01)
        with pytest.raises(ValueError, match="positive"):
            TransportState(rho=np.ones(5), v=np.ones(6), dx=0.0, dt=0.01)
        with pytest.raises(ValueError, match="positive"):
            TransportState(rho=np.ones(5), v=np.ones(6), dx=0.1, dt=-0.01)
        with pytest.raises(ValueError, match="nonnegative"):
            TransportState(rho=np.array([1.0, -0.5, 1.0]), v=np.ones(4),
                           dx=0.1, dt=0.01)

    def test_accepts_rounding_level_negatives(self):
        state = TransportState(rho=np.array([1.0, -1e-16, 1.0]), v=np.ones(4),
                               dx=0.1, dt=0.01)
        assert state.guaranteed

    def test_mass_includes_escaped(self):
        state = TransportState(rho=np.array([2.0, 4.0]), v=np.zeros(3),
                               dx=0.5, dt=0.1, escaped=1.25)
        assert state.mass == 2.0 * 0.5 + 4.0 * 0.5 + 1.25


class TestGuard:
    def test_transport_examples(self):
        assert positivity_guard(v=1.0, dt=0.99, dx=1.0) is True
        assert positivity_guard(v=1.0, dt=1.01, dx=1.0) is False
        assert positivity_guard(v=1.0, dt=1.0, dx=1.0) is True

    def test_transport_guard_sees_cells_draining_through_both_faces(self):
        # the middle cell loses (2 + 0.5) dt/dx of itself per step, more
        # than the plain max|v| dt/dx = 1 bound suggests
        assert positivity_guard(v=np.array([0.1, -2.0, 0.5]), dt=0.5, dx=1.0) is False
        assert positivity_guard(v=np.array([0.1, -2.0, 0.5]), dt=0.39, dx=1.0) is True

    def test_diffusion_examples(self):
        d = np.ones(11)
        assert positivity_guard(d=d, dt=0.5, dx=1.0) is True  # (1+1)*0.5 = 1
        assert positivity_guard(d=d, dt=0.51, dx=1.0) is False

    def test_both_and_neither(self):
        assert positivity_guard(v=0.5, d=np.ones(4), dt=0.5, dx=1.0) is True
        assert positivity_guard(v=3.0, d=np.ones(4), dt=0.5, dx=1.0) is False
        with pytest.raises(ValueError, match="transport"):
            positivity_guard(dt=0.5, dx=1.0)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


class TestTransport:
    def test_zero_velocity_changes_nothing(self):
        rng = np.random.default_rng(0)
        rho = rng.random(20)
        state = TransportState(rho=rho.copy(), v=np.zeros(21), dx=0.1, dt=0.05)
        state = transport_step(state)
        assert np.array_equal(state.rho, rho)
        assert state.escaped == 0.0 and state.guaranteed

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_unit_courant_square_wave_is_an_index_shift(self, sign):
        state = square_state(v=sign * 2.0)
        mass0 = state.mass
        for k in range(1, 61):
            state = transport_step(state)
            want = np.zeros(64)
            shift = int(sign) * k
            lo, hi = max(10 + shift, 0), max(min(20 + shift, 64), 0)
            want[lo:hi] = 1.0
            assert np.array_equal(state.rho, want)  # bitwise, boundary included
        assert state.mass == mass0  # dyadic arithmetic: the audit is exact
        assert state.escaped > 0.0  # part of the wave has left the domain
        assert state.guaranteed

    def test_unit_courant_matches_index_shift_on_dyadic_data(self):
        # arbitrary dyadic densities also shift bitwise at nu = 1
        rng = np.random.default_rng(3)
        rho = rng.integers(0, 256, size=40).astype(float) / 64.0
        state = TransportState(rho=rho.copy(), v=np.full(41, 2.0),
                               dx=1.0 / 64.0, dt=1.0 / 128.0)
        state = transport_step(state)
        assert np.array_equal(state.rho, np.concatenate(([0.0], rho[:-1])))

    @pytest.mark.parametrize("sign,name", [(-1.0, "collapse"), (+1.0, "expand")])
    def test_collapse_and_expand_runs(self, sign, name):
        # v = -x piles everything at the origin; v = +x drains the domain
        n = 100
        dx = 2.0 / n
        x_face = -1.0 + dx * np.arange(n + 1)
        x_cell = -1.0 + dx * (np.arange(n) + 0.5)
        rho = np.where(np.abs(x_cell) < 0.5, 1.0, 0.0)
        state = TransportState(rho=rho, v=sign * x_face, dx=dx, dt=0.9 * dx)
        mass0 = state.mass
        for _ in range(1000):
            state = transport_step(state)
            assert state.mass == pytest.approx(mass0, rel=1e-14)
            assert float(np.min(state.rho)) >= -1e-16 * float(np.max(state.rho))
        assert state.guaranteed
        if name == "collapse":
            assert state.escaped == 0.0
            assert float(np.max(state.rho)) > 10.0  # mass piled into a few cells
        else:
            assert state.escaped > 0.99 * mass0  # nearly everything drained

    def test_violated_guard_clears_the_flag(self):
        state = TransportState(rho=np.ones(10), v=np.full(11, 1.0),
                               dx=0.1, dt=0.101)
        state = transport_step(state)
        assert not state.guaranteed
        assert not transport_step(state).guaranteed  # and it stays cleared

    def test_run_transport_records(self):
        state, records = run_transport(square_state(), 10, record_every=4)
        assert [r[0] for r in records] == [4, 8]
        assert records[-1][1] == state.mass

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_guarded_steps_conserve_mass_and_positivity(self, data):
        n = data.draw(st.integers(min_value=3, max_value=30))
        rho = data.draw(hnp.arrays(np.float64, n,
                                   elements=st.floats(0.0, 10.0)))
        v = data.draw(hnp.arrays(np.float64, n + 1,
                                 elements=st.floats(-3.0, 3.0)))
        dx = 0.05
        # per-cell outflow coefficient: a cell can drain through both of
        # its faces at once, so the safe dt is set by the worst such cell
        coeff = float(np.max(np.maximum(v[1:], 0.0) - np.minimum(v[:-1], 0.0)))
        dt = 0.9 * dx / coeff if coeff > 1e-6 else 0.1 * dx
        state = TransportState(rho=rho, v=v, dx=dx, dt=dt)
        mass0 = state.mass
        for _ in range(25):
            state = transport_step(state)
            assert state.guaranteed
            assert abs(state.mass - mass0) <= 1e-13 * (1.0 + mass0)
            assert float(np.min(state.rho)) >= -1e-16 * float(np.max(state.rho))


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------


class TestDiffusion:
    def test_zero_diffusivity_changes_nothing(self):
        rng = np.random.default_rng(1)
        rho = rng.random(15)
        out = diffusion_step(rho, np.zeros(16), 0.1, 0.01)
        assert np.array_equal(out, rho)

    def test_uniform_density_is_a_fixed_point(self):
        rho = np.full(12, 3.5)
        out = diffusion_step(rho, np.full(13, 2.0), 0.1, 0.001)
        assert np.array_equal(out, rho)

    def test_spike_stays_nonnegative_with_constant_mass(self):
        n = 101
        dx = 1.0 / n
        dt = 0.5 * dx * dx  # (D + D) dt/dx^2 = 1: the guard's edge
        rho = np.zeros(n)
        rho[n // 2] = 1.0
        d = np.ones(n + 1)
        assert positivity_guard(d=d, dt=dt, dx=dx) is True
        mass0 = float(np.sum(rho))
        for _ in range(1000):
            rho = diffusion_step(rho, d, dx, dt)
            assert float(np.sum(rho)) == pytest.approx(mass0, rel=1e-14)
            assert float(np.min(rho)) >= -1e-16 * float(np.max(rho))

    def test_rejects_wrong_face_count(self):
        with pytest.raises(ValueError, match="per cell face"):
            diffusion_step(np.ones(5), np.ones(5), 0.1, 0.01)

    def test_subnormal_diffusivity_stays_finite(self):
        # d = 2.2e-311 puts the guarded dt near 5e307, where dt/dx alone
        # overflows; the guarded steps must still conserve mass and positivity
        rho = np.array([0.0, 10.0, 0.0, 3.5, 0.0, 0.0, 7.25])
        d = np.full(rho.size + 1, 2.2e-311)
        dx = 0.05
        dt = 0.9 * dx * dx / float(np.max(d[1:] + d[:-1]))
        assert positivity_guard(d=d, dt=dt, dx=dx)
        mass0 = float(np.sum(rho))
        for _ in range(25):
            rho = diffusion_step(rho, d, dx, dt)
            assert np.all(np.isfinite(rho))
            assert abs(float(np.sum(rho)) - mass0) <= 1e-13 * (1.0 + mass0)
            assert float(np.min(rho)) >= -1e-16 * float(np.max(rho))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_guarded_steps_conserve_mass_and_positivity(self, data):
        n = data.draw(st.integers(min_value=3, max_value=30))
        rho = data.draw(hnp.arrays(np.float64, n,
                                   elements=st.floats(0.0, 10.0)))
        d = data.draw(hnp.arrays(np.float64, n + 1,
                                 elements=st.floats(0.0, 2.0)))
        dx = 0.05
        worst = float(np.max(d[1:] + d[:-1]))
        # an all-subnormal d overflows the quotient; a finite clamp keeps
        # those draws inside the guard and still marches them
        dt = min(0.9 * dx * dx / worst, 1e300) if worst > 0 else 0.1 * dx * dx
        assert positivity_guard(d=d, dt=dt, dx=dx)
        mass0 = float(np.sum(rho))
        for _ in range(25):
            rho = diffusion_step(rho, d, dx, dt)
            assert abs(float(np.sum(rho)) - mass0) <= 1e-13 * (1.0 + mass0)
            assert float(np.min(rho)) >= -1e-16 * float(np.max(rho))


# ---------------------------------------------------------------------------
# the spike a second-order stencil undershoots
# ---------------------------------------------------------------------------


class TestSpike:
    def test_upwind_keeps_a_spike_nonnegative(self):
        # one Lax-Wendroff step at nu = 1/2 leaves -(nu/2)(1 - nu) = -0.125
        # behind this spike (tests/oracles/positivity_oracle.py); upwind does not
        rho = np.zeros(9)
        rho[4] = 1.0
        state = transport_step(TransportState(rho=rho, v=np.ones(10),
                                              dx=1.0, dt=0.5))
        assert float(np.min(state.rho)) >= 0.0
