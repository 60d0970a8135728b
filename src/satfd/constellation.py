"""Keplerian constellation definition and two-body propagation.

A constellation is a central body plus an ordered list of satellites given
by classical orbital elements.  Propagation is unperturbed two-body motion:
mean anomaly advances linearly, Kepler's equation is solved for eccentric
anomaly, and the perifocal position is rotated into a single body-centered
inertial frame.

Internal units are SI throughout (meters, seconds, radians).  Config files
use km and degrees, with unit suffixes in the field names, and are converted
on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# Standard gravitational parameters / mean radii for the bundled bodies.
MU_MOON = 4.9028e12     # m^3/s^2
R_MOON = 1.7374e6       # m
MU_MARS = 4.282837e13   # m^3/s^2
R_MARS = 3.3895e6       # m


class KeplerConvergenceError(RuntimeError):
    """Kepler solver failed to reach tolerance (pathological input)."""


class ConfigError(ValueError):
    """Constellation config file is missing fields or violates invariants."""


@dataclass(frozen=True)
class BodyParams:
    """Central body: gravitational parameter (m^3/s^2) and occultation radius (m)."""

    name: str
    mu: float
    radius: float

    def __post_init__(self):
        if not (self.mu > 0.0 and self.radius > 0.0):
            raise ConfigError(f"body {self.name!r}: mu and radius must be positive")


@dataclass(frozen=True)
class OrbitalElements:
    """Classical elements of one satellite orbit.

    a    : semi-major axis (m)
    e    : eccentricity, 0 <= e < 1
    i    : inclination (rad)
    raan : right ascension of ascending node (rad)
    argp : argument of periapsis (rad)
    m0   : mean anomaly at t = 0 (rad)

    Angles are normalized to [0, 2*pi).
    """

    a: float
    e: float
    i: float
    raan: float
    argp: float
    m0: float

    def __post_init__(self):
        if not (0.0 <= self.e < 1.0):
            raise ConfigError(f"eccentricity {self.e} outside [0, 1)")
        if not (self.a > 0.0):
            raise ConfigError(f"semi-major axis {self.a} must be positive")
        for name in ("i", "raan", "argp", "m0"):
            object.__setattr__(self, name, getattr(self, name) % TWO_PI)


@dataclass(frozen=True)
class ConstellationConfig:
    """A central body plus satellites; list index is the satellite id."""

    body: BodyParams
    satellites: tuple[OrbitalElements, ...]

    def __post_init__(self):
        for k, el in enumerate(self.satellites):
            if el.a <= self.body.radius:
                raise ConfigError(f"satellite {k}: a={el.a} not above body radius")

    @property
    def n_satellites(self) -> int:
        return len(self.satellites)

    @property
    def period(self) -> float:
        """Two-body period (s) of satellite 0, the constellation's time scale."""
        return orbital_period(self.satellites[0].a, self.body.mu)


def solve_kepler(mean_anomaly: float, e: float) -> float:
    """Solve Kepler's equation E - e*sin(E) = M for the eccentric anomaly.

    Newton iteration with initial guess E = M for e < 0.8 and E = pi
    otherwise; falls back to bisection on [M - e, M + e] (where the
    residual is monotone) if Newton has not converged after 50 steps.
    Returns E with |E - e*sin(E) - M| < 1e-12 rad.
    """
    if not (0.0 <= e < 1.0):
        raise ValueError(f"eccentricity {e} outside [0, 1)")
    if not math.isfinite(mean_anomaly):
        raise ValueError("mean anomaly must be finite")

    m = mean_anomaly % TWO_PI
    ecc_anom = m if e < 0.8 else math.pi
    for _ in range(50):
        f = ecc_anom - e * math.sin(ecc_anom) - m
        if abs(f) < 1e-12:
            return ecc_anom % TWO_PI
        ecc_anom -= f / (1.0 - e * math.cos(ecc_anom))

    # Bisection fallback: f(E) = E - e*sinE - m is increasing for e < 1,
    # with sign change on [m - e, m + e].
    lo, hi = m - e, m + e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - m > 0.0:
            hi = mid
        else:
            lo = mid
        if abs(mid - e * math.sin(mid) - m) < 1e-12:
            return mid % TWO_PI
    raise KeplerConvergenceError(
        f"Kepler solver did not converge for M={mean_anomaly}, e={e}"
    )


def orbital_period(a: float, mu: float) -> float:
    """Two-body period T = 2*pi*sqrt(a^3 / mu), seconds."""
    if a <= 0.0 or mu <= 0.0:
        raise ValueError("a and mu must be positive")
    return TWO_PI * math.sqrt(a**3 / mu)


def _perifocal_to_inertial(raan: float, inc: float, argp: float) -> np.ndarray:
    """Rotation matrix Rz(raan) Rx(inc) Rz(argp), perifocal -> inertial."""
    co, so = math.cos(raan), math.sin(raan)
    ci, si = math.cos(inc), math.sin(inc)
    cw, sw = math.cos(argp), math.sin(argp)
    return np.array(
        [
            [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
            [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
            [sw * si, cw * si, ci],
        ]
    )


def propagate_one(el: OrbitalElements, mu: float, t: float) -> np.ndarray:
    """Inertial position (m) of one satellite at epoch t (s)."""
    n = math.sqrt(mu / el.a**3)
    ecc_anom = solve_kepler(el.m0 + n * t, el.e)
    x_pf = el.a * (math.cos(ecc_anom) - el.e)
    y_pf = el.a * math.sqrt(1.0 - el.e**2) * math.sin(ecc_anom)
    rot = _perifocal_to_inertial(el.raan, el.i, el.argp)
    return rot @ np.array([x_pf, y_pf, 0.0])


def propagate(config: ConstellationConfig, t: float) -> np.ndarray:
    """(n, 3) inertial positions (m) of every satellite at epoch t.

    Deterministic pure function of (config, t); see propagate_one for the
    per-satellite math.
    """
    if not math.isfinite(t):
        raise ValueError("epoch must be finite")
    pos = np.empty((config.n_satellites, 3))
    for k, el in enumerate(config.satellites):
        pos[k] = propagate_one(el, config.body.mu, t)
    return pos


# ---------------------------------------------------------------------------
# Config files: JSON with km / degree units, suffixed field names.
# ---------------------------------------------------------------------------

def config_from_dict(raw: dict) -> ConstellationConfig:
    """Build a config from the JSON-schema dict (km / degrees)."""
    try:
        body_raw = raw["body"]
        body = BodyParams(
            name=str(body_raw["name"]),
            mu=float(body_raw["mu_km3_s2"]) * 1e9,
            radius=float(body_raw["radius_km"]) * 1e3,
        )
        sats = tuple(
            OrbitalElements(
                a=float(s["a_km"]) * 1e3,
                e=float(s["e"]),
                i=math.radians(float(s["i_deg"])),
                raan=math.radians(float(s["raan_deg"])),
                argp=math.radians(float(s["argp_deg"])),
                m0=math.radians(float(s["M0_deg"])),
            )
            for s in raw["satellites"]
        )
    except KeyError as exc:
        raise ConfigError(f"missing config field: {exc}") from exc
    return ConstellationConfig(body=body, satellites=sats)


def load_config(path: str | Path) -> ConstellationConfig:
    """Load a constellation config from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


BUNDLED_CONFIGS = ("elfo_moon", "walker_mars")


def load_bundled(name: str) -> ConstellationConfig:
    """Load one of the shipped constellation configs by name."""
    if name not in BUNDLED_CONFIGS:
        raise ConfigError(f"unknown bundled config {name!r}; have {BUNDLED_CONFIGS}")
    ref = resources.files("satfd.configs").joinpath(f"{name}.json")
    return config_from_dict(json.loads(ref.read_text(encoding="utf-8")))


def resolve_config(name_or_path: str | Path) -> ConstellationConfig:
    """Accept either a bundled config name or a filesystem path."""
    if isinstance(name_or_path, str) and name_or_path in BUNDLED_CONFIGS:
        return load_bundled(name_or_path)
    return load_config(name_or_path)
