import math

import numpy as np
import pytest

from satfd.constellation import (
    ConfigError,
    OrbitalElements,
    config_from_dict,
    load_bundled,
    orbital_period,
    propagate,
    propagate_one,
    solve_kepler,
)


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
        pos = propagate_one(el, 4.9028e12, 0.0)
        assert pos == pytest.approx([7000e3, 0.0, 0.0], abs=1e-3)

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
