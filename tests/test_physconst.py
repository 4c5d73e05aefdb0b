"""Derived coefficients and input validation.

Reference values were computed with 60-digit arithmetic from the silver
defaults and are asserted here to double precision.
"""

import math
import re

import pytest

from bohm_epr import ConfigError, RawPhysicalInputs, SILVER, derive_coefficients
from bohm_epr.physconst import ATOMIC_MASS, DerivedCoefficients, HBAR, LIGHT_SPEED

ACCEL_REF = 258567.81201556872
EXP_COEFF_REF = 517135624031.13743
SPREAD_RATE_REF = 2.9402450650741075
TRANSIT_REF = 0.003


def test_silver_coefficients_match_reference():
    co = derive_coefficients(SILVER)
    assert co.accel == pytest.approx(ACCEL_REF, rel=1e-14)
    assert co.exp_coeff == pytest.approx(EXP_COEFF_REF, rel=1e-14)
    assert co.spread_rate == pytest.approx(SPREAD_RATE_REF, rel=1e-14)
    assert co.transit_time == TRANSIT_REF


def test_silver_defaults():
    assert SILVER.magnetic_moment == 9.274e-21
    assert SILVER.mass == 108.0 * ATOMIC_MASS
    assert SILVER.packet_width == 1.0e-3
    assert SILVER.field_gradient == 1.0e4
    assert SILVER.magnet_length == 30.0
    assert SILVER.beam_speed == 1.0e4
    assert SILVER.light_speed == LIGHT_SPEED


def test_constants():
    assert HBAR == 1.054571817e-27
    assert LIGHT_SPEED == 2.998e10
    assert ATOMIC_MASS == 1.6605e-24


def test_coefficient_scaling_with_gradient():
    doubled = RawPhysicalInputs(field_gradient=2.0e4)
    co = derive_coefficients(doubled)
    base = derive_coefficients(SILVER)
    assert co.accel == pytest.approx(2.0 * base.accel, rel=1e-15)
    assert co.exp_coeff == pytest.approx(2.0 * base.exp_coeff, rel=1e-15)
    # spreading and transit do not care about the gradient
    assert co.spread_rate == base.spread_rate
    assert co.transit_time == base.transit_time


def test_field_free_inputs_are_allowed():
    co = derive_coefficients(RawPhysicalInputs(field_gradient=0.0))
    assert co.accel == 0.0
    assert co.exp_coeff == 0.0
    assert co.spread_rate > 0.0


@pytest.mark.parametrize("kwargs", [
    {"mass": 0.0},
    {"mass": -1.0e-24},
    {"packet_width": 0.0},
    {"magnetic_moment": -9.274e-21},
    {"field_gradient": -1.0},
    {"magnet_length": 0.0},
    {"beam_speed": 0.0},
    {"beam_speed": 2.998e10},     # not subluminal
    {"beam_speed": 3.1e10},
    {"light_speed": 0.0},
    {"packet_width": math.nan},
    {"mass": math.inf},
])
def test_invalid_inputs_rejected(kwargs):
    with pytest.raises(ConfigError):
        RawPhysicalInputs(**kwargs)


def test_derived_coefficients_validate():
    with pytest.raises(ConfigError):
        DerivedCoefficients(accel=1.0, exp_coeff=1.0, spread_rate=0.0, transit_time=1.0)
    with pytest.raises(ConfigError):
        DerivedCoefficients(accel=math.inf, exp_coeff=1.0, spread_rate=1.0, transit_time=1.0)
    with pytest.raises(ConfigError):
        DerivedCoefficients(accel=1.0, exp_coeff=1.0, spread_rate=1.0, transit_time=0.0)


@pytest.mark.parametrize("width", [1.0e300, 1.0e-200])
def test_packet_width_out_of_float_range_is_a_config_error(width):
    # packet_width**2 overflows, or underflows to zero and divides
    with pytest.raises(ConfigError, match="^packet_width " + re.escape(repr(width))):
        derive_coefficients(RawPhysicalInputs(packet_width=width))
