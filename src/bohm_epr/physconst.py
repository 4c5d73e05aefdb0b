"""Physical inputs and the derived coefficients of the two-particle guidance law.

Everything is CGS-Gaussian: centimeters, grams, seconds, erg/gauss for
magnetic moments, gauss/cm for field gradients.

A Stern-Gerlach magnet of length ``magnet_length`` traversed at
``beam_speed`` deflects each packet transversely. Three coefficients,
together with the transit time, fix the transverse dynamics completely:

    accel        = field_gradient * magnetic_moment / (2 * mass)
    exp_coeff    = 2 * accel / packet_width**2
    spread_rate  = hbar / (2 * mass * packet_width**2)
    transit_time = magnet_length / beam_speed

``accel`` is half the classical magnetic acceleration of a fully
polarized packet (cm/s^2), ``exp_coeff`` converts position sums into the
argument of the guidance exponentials (1/(cm s^2)), and ``spread_rate``
is the inverse time scale on which the initial packets double their
width (1/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

HBAR = 1.054571817e-27
"""Reduced Planck constant, erg s."""

LIGHT_SPEED = 2.998e10
"""Speed of light, cm/s."""

ATOMIC_MASS = 1.6605e-24
"""Atomic mass unit, g."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def check_finite_fields(obj) -> None:
    """Every dataclass field of ``obj`` must hold a finite int or float."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        _require(isinstance(value, (int, float)) and math.isfinite(value),
                 f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class RawPhysicalInputs:
    """Bench-level numbers describing one arm of the apparatus.

    All fields must be finite. ``field_gradient`` may be zero (a field-free
    drift run, useful for spreading checks); every other field must be
    strictly positive, and the beam must be subluminal.
    """

    magnetic_moment: float = 9.274e-21
    mass: float = 108.0 * ATOMIC_MASS
    packet_width: float = 1.0e-3
    field_gradient: float = 1.0e4
    magnet_length: float = 30.0
    beam_speed: float = 1.0e4
    light_speed: float = LIGHT_SPEED

    def __post_init__(self) -> None:
        check_finite_fields(self)
        _require(self.magnetic_moment > 0.0, "magnetic_moment must be positive")
        _require(self.mass > 0.0, "mass must be positive")
        _require(self.packet_width > 0.0, "packet_width must be positive")
        _require(self.field_gradient >= 0.0, "field_gradient must be non-negative")
        _require(self.magnet_length > 0.0, "magnet_length must be positive")
        _require(self.beam_speed > 0.0, "beam_speed must be positive")
        _require(self.light_speed > 0.0, "light_speed must be positive")
        _require(self.beam_speed < self.light_speed,
                 "beam_speed must be below light_speed")


SILVER = RawPhysicalInputs()
"""Default bench: a silver atom beam in a 30 cm magnet at 1e4 cm/s."""


@dataclass(frozen=True)
class DerivedCoefficients:
    """Coefficients of the transverse guidance law, plus the transit time."""

    accel: float
    exp_coeff: float
    spread_rate: float
    transit_time: float

    def __post_init__(self) -> None:
        check_finite_fields(self)
        _require(self.accel >= 0.0, "accel must be non-negative")
        _require(self.exp_coeff >= 0.0, "exp_coeff must be non-negative")
        _require(self.spread_rate > 0.0, "spread_rate must be positive")
        _require(self.transit_time > 0.0, "transit_time must be positive")


def derive_coefficients(raw: RawPhysicalInputs) -> DerivedCoefficients:
    """Reduce bench numbers to the four quantities the dynamics depends on."""
    accel = raw.field_gradient * raw.magnetic_moment / (2.0 * raw.mass)
    try:
        exp_coeff = 2.0 * accel / raw.packet_width**2
        spread_rate = HBAR / (2.0 * raw.mass * raw.packet_width**2)
    except (OverflowError, ZeroDivisionError) as err:
        raise ConfigError(f"packet_width {raw.packet_width!r} and mass {raw.mass!r} put "
                          f"the guidance coefficients out of float range") from err
    transit_time = raw.magnet_length / raw.beam_speed
    return DerivedCoefficients(
        accel=accel,
        exp_coeff=exp_coeff,
        spread_rate=spread_rate,
        transit_time=transit_time,
    )
