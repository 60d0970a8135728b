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


def solve_kepler(mean_anomaly, e):
    """Solve Kepler's equation E - e*sin(E) = M for the eccentric anomaly.

    mean_anomaly and e are scalars or arrays that broadcast together; the
    result has their broadcast shape.  Newton iteration with initial guess
    E = M for e < 0.8 and E = pi otherwise, each element stopping at the
    first iterate whose residual is below tolerance; elements that Newton
    leaves unconverged after 50 steps fall back to bisection on
    [M - e, M + e] (where the residual is monotone).  Returns E with
    |E - e*sin(E) - M| < 1e-12 rad.
    """
    mean_anomaly, e = np.broadcast_arrays(np.asarray(mean_anomaly, dtype=float),
                                          np.asarray(e, dtype=float))
    bad = ~((0.0 <= e) & (e < 1.0))
    if bad.any():
        raise ValueError(f"eccentricity {e[bad].flat[0]} outside [0, 1)")
    if not np.isfinite(mean_anomaly).all():
        raise ValueError("mean anomaly must be finite")

    m = np.mod(mean_anomaly, TWO_PI).ravel()
    e = e.ravel()
    out = np.empty_like(m)
    left = np.arange(m.size)
    ecc_anom = np.where(e < 0.8, m, math.pi)
    for _ in range(50):
        f = ecc_anom - e * np.sin(ecc_anom) - m
        done = np.abs(f) < 1e-12
        if done.any():
            out[left[done]] = np.mod(ecc_anom[done], TWO_PI)
            keep = ~done
            left, m, e, ecc_anom, f = left[keep], m[keep], e[keep], ecc_anom[keep], f[keep]
            if not left.size:
                return out.reshape(mean_anomaly.shape)[()]
        ecc_anom = ecc_anom - f / (1.0 - e * np.cos(ecc_anom))

    out[left] = _kepler_bisect(m, e)
    if np.isnan(out).any():
        raise KeplerConvergenceError(
            f"Kepler solver did not converge for M={mean_anomaly.ravel()[np.isnan(out)][0]}"
        )
    return out.reshape(mean_anomaly.shape)[()]


def _kepler_bisect(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Bisection fallback of solve_kepler on reduced mean anomalies m and
    eccentricities e of the same shape.

    f(E) = E - e*sinE - m is increasing for e < 1, with a sign change on
    [m - e, m + e].  Each element stops at the first midpoint whose
    residual is below tolerance and gives it mod 2*pi; an element that
    has not stopped after 200 halvings gives NaN.
    """
    out = np.full_like(m, math.nan)
    left = np.arange(m.size)
    lo, hi = m - e, m + e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = mid - e * np.sin(mid) - m
        above = f > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        stop = np.abs(f) < 1e-12
        out[left[stop]] = np.mod(mid[stop], TWO_PI)
        keep = ~stop
        left, m, e, lo, hi = left[keep], m[keep], e[keep], lo[keep], hi[keep]
        if not left.size:
            break
    return out


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


def propagate(config: ConstellationConfig, t) -> np.ndarray:
    """Inertial positions (m) of every satellite at epoch t (s).

    t is a scalar or a 1-D array of epochs; the result has shape
    t.shape + (n, 3).  One Kepler solve and one rotation cover every
    (epoch, satellite) pair.  Deterministic pure function of (config, t).
    """
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"epoch must be finite, got t={float(t[~finite].flat[0])}")
    sats = config.satellites
    # Per-satellite constants, each rounded as its scalar formula rounds it.
    a = np.array([el.a for el in sats])
    e = np.array([el.e for el in sats])
    mean_motion = np.array([math.sqrt(config.body.mu / el.a**3) for el in sats])
    semi_minor = np.array([el.a * math.sqrt(1.0 - el.e**2) for el in sats])
    rot = np.array([_perifocal_to_inertial(el.raan, el.i, el.argp) for el in sats])

    ecc_anom = solve_kepler(np.array([el.m0 for el in sats]) + mean_motion * t[..., None], e)
    perifocal = np.zeros(ecc_anom.shape + (3, 1))
    perifocal[..., 0, 0] = a * (np.cos(ecc_anom) - e)
    perifocal[..., 1, 0] = semi_minor * np.sin(ecc_anom)
    # A matmul, not x*rot[:, 0] + y*rot[:, 1]: the latter rounds differently.
    return np.matmul(rot, perifocal)[..., 0]


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
    """Accept either a bundled config name or a filesystem path; one
    ValueError, prefixed "cannot load constellation config:", otherwise."""
    try:
        if isinstance(name_or_path, str) and name_or_path in BUNDLED_CONFIGS:
            return load_bundled(name_or_path)
        return load_config(name_or_path)
    # A TypeError is a field of the wrong JSON type, such as "satellites": 5.
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot load constellation config: {exc}") from exc
