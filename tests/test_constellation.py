import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satfd.calibration import sampling_times
from satfd.constellation import (
    BodyParams,
    ConfigError,
    ConstellationConfig,
    OrbitalElements,
    _kepler_bisect,
    _perifocal_to_inertial,
    config_from_dict,
    load_bundled,
    orbital_period,
    propagate,
    solve_kepler,
)

TWO_PI = 2.0 * math.pi
MOON = BodyParams(name="moon", mu=4.9028e12, radius=1.7374e6)


# Scalar reference: one Kepler solve and one rotation per satellite per epoch.
def scalar_newton(m, e):
    """Newton steps of the scalar solver on reduced m; None if 50 do not converge."""
    ecc_anom = m if e < 0.8 else math.pi
    for _ in range(50):
        f = ecc_anom - e * math.sin(ecc_anom) - m
        if abs(f) < 1e-12:
            return ecc_anom % TWO_PI
        ecc_anom -= f / (1.0 - e * math.cos(ecc_anom))
    return None


def scalar_bisect(m, e):
    """Bisection of the scalar solver on reduced m; None if 200 halvings do not converge."""
    lo, hi = m - e, m + e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - m > 0.0:
            hi = mid
        else:
            lo = mid
        if abs(mid - e * math.sin(mid) - m) < 1e-12:
            return mid % TWO_PI
    return None


def scalar_kepler(mean_anomaly, e):
    m = mean_anomaly % TWO_PI
    ecc_anom = scalar_newton(m, e)
    return scalar_bisect(m, e) if ecc_anom is None else ecc_anom


def scalar_position(el, mu, t):
    n = math.sqrt(mu / el.a**3)
    ecc_anom = scalar_kepler(el.m0 + n * t, el.e)
    x_pf = el.a * (math.cos(ecc_anom) - el.e)
    y_pf = el.a * math.sqrt(1.0 - el.e**2) * math.sin(ecc_anom)
    rot = _perifocal_to_inertial(el.raan, el.i, el.argp)
    return rot @ np.array([x_pf, y_pf, 0.0])


def scalar_positions(config, times):
    return np.array([[scalar_position(el, config.body.mu, float(t)) for el in config.satellites]
                     for t in times])


def kepler_bisect(m, e):
    """Independent oracle: bisection on [m-e, m+e] where E - e sinE - m is monotone."""
    lo, hi = m - e, m + e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - m > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSolveKepler:
    def test_circular_orbit_identity(self):
        assert solve_kepler(1.234, 0.0) == pytest.approx(1.234, abs=1e-12)

    def test_symmetry_at_pi(self):
        assert solve_kepler(math.pi, 0.6) == pytest.approx(math.pi, abs=1e-12)

    def test_against_bisection_oracle(self):
        # oracle value frozen from kepler_bisect(1.0, 0.6)
        assert solve_kepler(1.0, 0.6) == pytest.approx(1.5997485482275295, abs=1e-12)
        assert solve_kepler(1.0, 0.6) == pytest.approx(kepler_bisect(1.0, 0.6), abs=1e-12)

    def test_residual_below_tolerance_over_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            m = rng.uniform(0.0, 2.0 * math.pi)
            e = rng.uniform(0.0, 0.97)
            ecc = solve_kepler(m, e)
            assert abs(ecc - e * math.sin(ecc) - m) < 1e-12

    def test_rejects_bad_eccentricity(self):
        with pytest.raises(ValueError):
            solve_kepler(1.0, 1.0)

    def test_rejects_bad_array_input(self):
        with pytest.raises(ValueError, match="finite"):
            solve_kepler(np.array([1.0, math.nan]), 0.5)
        with pytest.raises(ValueError, match="eccentricity 1.0 outside"):
            solve_kepler(np.array([1.0, 2.0]), np.array([0.5, 1.0]))

    def test_array_broadcasts_and_equals_scalar_solves(self):
        # Each column has its own eccentricity, on both sides of the 0.8 switch.
        rng = np.random.default_rng(11)
        m = rng.uniform(-50.0, 50.0, size=(40, 6))
        e = np.array([0.0, 0.3, 0.79, 0.8, 0.95, 0.999])
        got = solve_kepler(m, e)
        assert got.shape == m.shape
        want = [[scalar_kepler(v, ev) for v, ev in zip(row, e.tolist())] for row in m.tolist()]
        assert np.array_equal(got, want)

    def test_bisection_equals_scalar_bisection(self):
        # Newton converges within 50 steps on every input tried, so the
        # fallback is checked against the scalar bisection directly.
        rng = np.random.default_rng(12)
        for e in (0.0, 0.5, 0.8, 0.99, 0.999999):
            m = rng.uniform(0.0, TWO_PI, size=200)
            want = [scalar_bisect(v, e) for v in m.tolist()]
            assert None not in want
            assert np.array_equal(_kepler_bisect(m, np.full_like(m, e)), want)


class TestOrbitalPeriod:
    def test_elfo_period(self):
        # independent evaluation of 2*pi*sqrt(a^3/mu), frozen
        assert orbital_period(6142.4e3, 4.9028e12) == pytest.approx(43198.127485324025)

    def test_formula_identity(self):
        # a^3 = mu -> T = 2*pi
        assert orbital_period(1.0, 1.0) == pytest.approx(2.0 * math.pi)

    def test_mars_period(self):
        # the table's semi-major axis gives ~16.8 h under standard mu, and the
        # table is what we assert against
        assert orbital_period(15850.55e3, 4.282837e13) == pytest.approx(60587.160623677744)

    def test_constellation_period_is_satellite_zero_period(self):
        for name in ("elfo_moon", "walker_mars"):
            config = load_bundled(name)
            assert config.period == orbital_period(config.satellites[0].a, config.body.mu)


class TestPropagate:
    def test_zero_elements_on_perifocal_x_axis(self):
        el = OrbitalElements(a=7000e3, e=0.0, i=0.0, raan=0.0, argp=0.0, m0=0.0)
        pos = propagate(ConstellationConfig(body=MOON, satellites=(el,)), 0.0)
        assert pos.shape == (1, 3)
        assert pos[0] == pytest.approx([7000e3, 0.0, 0.0], abs=1e-3)

    @pytest.mark.parametrize("name", ["elfo_moon", "walker_mars"])
    def test_grid_equals_scalar_reference(self, name):
        # One period at 60 s plus 4 epochs, the grid a DL-5 campaign uses.
        config = load_bundled(name)
        times = 60.0 * np.arange(len(sampling_times(60.0, config.period)) + 4)
        grid = propagate(config, times)
        assert grid.shape == (len(times), config.n_satellites, 3)
        assert np.array_equal(grid, scalar_positions(config, times))

    def test_scalar_epoch_is_one_grid_row(self):
        config = load_bundled("elfo_moon")
        times = np.array([0.0, 1234.5, 40000.0])
        grid = propagate(config, times)
        for t, row in zip(times, grid):
            assert np.array_equal(propagate(config, float(t)), row)

    def test_non_finite_epoch_refused(self):
        with pytest.raises(ValueError, match="finite"):
            propagate(load_bundled("elfo_moon"), np.array([0.0, math.inf]))

    def test_periodicity(self):
        config = load_bundled("elfo_moon")
        period = orbital_period(config.satellites[0].a, config.body.mu)
        for t in (0.0, 1234.5, 0.37 * period):
            a = propagate(config, t)
            b = propagate(config, t + period)
            assert np.linalg.norm(a - b, axis=1).max() < 1e-6 * config.satellites[0].a

    def test_perilune_radius(self):
        # ELFO plane-1 satellite with M0 = 0 sits at r = a(1-e) at t = 0
        config = load_bundled("elfo_moon")
        r = np.linalg.norm(propagate(config, 0.0)[0])
        assert r == pytest.approx(2456.96e3, rel=1e-12)

    def test_radius_within_visviva_bounds(self):
        config = load_bundled("elfo_moon")
        rng = np.random.default_rng(3)
        period = orbital_period(config.satellites[0].a, config.body.mu)
        for t in rng.uniform(0.0, period, size=25):
            radii = np.linalg.norm(propagate(config, t), axis=1)
            for el, r in zip(config.satellites, radii):
                assert el.a * (1.0 - el.e) * (1.0 - 1e-9) <= r <= el.a * (1.0 + el.e) * (1.0 + 1e-9)

    def test_angular_momentum_direction_constant(self):
        config = load_bundled("elfo_moon")
        dt = 1e-3
        hats = []
        for t in (0.0, 5000.0, 20000.0):
            ps = propagate(config, t)
            vel = (propagate(config, t + dt) - propagate(config, t - dt)) / (2 * dt)
            h = np.cross(ps, vel)
            hats.append(h / np.linalg.norm(h, axis=1, keepdims=True))
        for other in hats[1:]:
            assert np.abs(other - hats[0]).max() < 1e-6


class TestConfigFiles:
    def test_bundled_elfo_matches_table(self):
        sats = load_bundled("elfo_moon").satellites
        assert len(sats) == 12
        assert all(s.a / 1e3 == pytest.approx(6142.4) for s in sats)
        assert all(s.e == pytest.approx(0.6) for s in sats)
        assert all(math.degrees(s.i) == pytest.approx(57.7) for s in sats)
        assert all(math.degrees(s.argp) == pytest.approx(90.0) for s in sats)
        # -90 normalizes to 270
        assert sorted({round(math.degrees(s.raan), 6) for s in sats}) == [0.0, 90.0, 180.0, 270.0]
        assert [math.degrees(s.m0) for s in sats[:3]] == pytest.approx([0.0, 120.0, 240.0])

    def test_bundled_mars_matches_table(self):
        sats = load_bundled("walker_mars").satellites
        assert len(sats) == 12
        assert all(s.a / 1e3 == pytest.approx(15850.55) for s in sats)
        assert all(s.e == 0.0 for s in sats)
        assert all(math.degrees(s.i) == pytest.approx(60.0) for s in sats)
        assert math.degrees(sats[3].m0) == pytest.approx(114.6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict({"body": {"name": "x", "mu_km3_s2": 1.0}, "satellites": []})
        with pytest.raises(ConfigError):
            OrbitalElements(a=7e6, e=1.2, i=0, raan=0, argp=0, m0=0)


angle = st.floats(-10.0, 10.0)


@st.composite
def orbits(draw):
    """Elements on both sides of the e = 0.8 switch of the Newton start."""
    e = draw(st.one_of(st.floats(0.0, 0.8, exclude_max=True), st.floats(0.8, 0.999)))
    return OrbitalElements(a=draw(st.floats(2e6, 5e7)), e=e, i=draw(angle),
                           raan=draw(angle), argp=draw(angle), m0=draw(angle))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(orbits(), min_size=1, max_size=4),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_grid_equals_scalar_reference_on_drawn_orbits(sats, times):
    config = ConstellationConfig(body=MOON, satellites=tuple(sats))
    assert np.array_equal(propagate(config, np.array(times)), scalar_positions(config, times))
