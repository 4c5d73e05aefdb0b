"""The guidance law: golden values, symmetries, and overflow safety.

Golden ratio values come from 60-digit evaluations of the exact
expression (s2 sinh u +/- c2 sinh v) / (s2 cosh u + c2 cosh v); several
sit deep in the overflow regime of naive sinh/cosh.
"""

import math

import numpy as np
import pytest

from bohm_epr import (
    ConfigError,
    SILVER,
    SettingPair,
    Side,
    TrajectoryState,
    aligned_velocity_pair,
    derive_coefficients,
    exponent_scale,
    stable_ratio,
    velocity_pair,
)
from bohm_epr.velocity import ratio_pair_batch, velocity_pair_batch

CO = derive_coefficients(SILVER)

# (u, v, s2) -> (ratio_L, ratio_R) with c2 = 1 - s2
GOLDEN_RATIOS = [
    (0.7, -1.3, 0.25, -0.60499679594110401, 0.81665780236734424),
    (3.0, 2.0, 0.9, 0.99381782593553867, 0.91695407536235675),
    (-250.0, 249.0, 0.5, -0.46211715726000976, -1.0),
    (500.0, -499.5, 0.1, -0.69034380207949069, 1.0),
    (1.0e6, 999998.0, 0.3, 1.0, 0.52000825525665317),
    (-2.0e5, -199999.0, 0.75, -1.0, -0.78153645485392814),
    (1.0e-9, 2.0e-9, 0.5, 1.5e-9, -5.0e-10),
]

W_AT_1MS = 517131.15341109174
W_AT_3MS = 4653858.5210989408
W_ASYMPTOTE = 59818758693.835753  # exp_coeff / spread_rate^2


def _states(n, rng, z_scale=3.0e-3, t_max=3.0e-3):
    z_l = rng.normal(0.0, z_scale, size=n)
    z_r = rng.normal(0.0, z_scale, size=n)
    t = rng.uniform(1.0e-7, t_max, size=n)
    return z_l, z_r, t


@pytest.mark.parametrize("u,v,s2,rl,rr", GOLDEN_RATIOS)
def test_golden_ratios(u, v, s2, rl, rr):
    c2 = 1.0 - s2
    got_l = stable_ratio(u, v, s2, c2, Side.L)
    got_r = stable_ratio(u, v, s2, c2, Side.R)
    assert got_l == pytest.approx(rl, rel=1e-12, abs=1e-300)
    assert got_r == pytest.approx(rr, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("u,v,s2,rl,rr", GOLDEN_RATIOS)
def test_golden_ratios_batch(u, v, s2, rl, rr):
    got_l, got_r = ratio_pair_batch(
        np.array([u]), np.array([v]), np.array([s2]), np.array([1.0 - s2]))
    assert got_l[0] == pytest.approx(rl, rel=1e-12, abs=1e-300)
    assert got_r[0] == pytest.approx(rr, rel=1e-12, abs=1e-300)


def test_ratio_saturates_cleanly_past_double_range():
    # At u = 800 the true ratio is below 1 by ~1e-348, unrepresentable;
    # the clamped result must be finite and within (0.999, 1].
    r = stable_ratio(800.0, 0.0, 0.5, 0.5, Side.L)
    assert math.isfinite(r)
    assert 0.999 < r <= 1.0


@pytest.mark.parametrize("u,v,s2,c2,rl,rr", [
    (math.inf, 0.0, 0.5, 0.5, 1.0, 1.0),
    (-math.inf, 0.0, 0.5, 0.5, -1.0, -1.0),
    (0.0, -math.inf, 0.5, 0.5, -1.0, 1.0),
    (0.0, math.inf, 0.0, 1.0, 1.0, -1.0),
    (math.inf, 5.0, 1.0, 0.0, 1.0, 1.0),
    # both arguments +inf: the two branches keep their weights
    (math.inf, math.inf, 0.5, 0.5, 1.0, 0.0),
    (math.inf, math.inf, 0.3, 0.7, 1.0, (0.3 - 0.7) / (0.3 + 0.7)),
    (-math.inf, math.inf, 0.3, 0.7, (0.7 - 0.3) / (0.3 + 0.7), -1.0),
])
def test_ratio_limits_at_infinite_arguments(u, v, s2, c2, rl, rr):
    with np.errstate(all="raise"):
        assert stable_ratio(u, v, s2, c2, Side.L) == pytest.approx(rl, rel=1e-15, abs=1e-300)
        assert stable_ratio(u, v, s2, c2, Side.R) == pytest.approx(rr, rel=1e-15, abs=1e-300)


def test_ratio_rejects_nan_and_bad_weights():
    with pytest.raises(ConfigError):
        stable_ratio(math.nan, 0.0, 0.5, 0.5, Side.L)
    with pytest.raises(ConfigError):
        stable_ratio(0.0, math.nan, 0.5, 0.5, Side.R)
    with pytest.raises(ConfigError):
        stable_ratio(1.0, 1.0, -0.1, 0.5, Side.L)
    with pytest.raises(ConfigError):
        stable_ratio(1.0, 1.0, 1.1, 0.5, Side.L)
    with pytest.raises(ConfigError):
        stable_ratio(1.0, 1.0, 0.0, 0.0, Side.L)


def test_no_overflow_sweep():
    rng = np.random.default_rng(11)
    n = 1500
    u = rng.uniform(-1.0e6, 1.0e6, size=n)
    v = rng.uniform(-1.0e6, 1.0e6, size=n)
    s2 = rng.uniform(0.0, 1.0, size=n)
    c2 = 1.0 - s2
    rl, rr = ratio_pair_batch(u, v, s2, c2)
    assert np.all(np.isfinite(rl)) and np.all(np.isfinite(rr))
    assert np.all(np.abs(rl) <= 1.0) and np.all(np.abs(rr) <= 1.0)
    # scalar path agrees on a subsample
    for i in range(0, n, 100):
        assert stable_ratio(u[i], v[i], s2[i], c2[i], Side.L) == rl[i]
        assert stable_ratio(u[i], v[i], s2[i], c2[i], Side.R) == rr[i]


def test_exponent_scale_reference_values():
    assert exponent_scale(1.0e-3, CO) == pytest.approx(W_AT_1MS, rel=1e-13)
    assert exponent_scale(3.0e-3, CO) == pytest.approx(W_AT_3MS, rel=1e-13)
    assert exponent_scale(0.0, CO) == 0.0
    # for large t the scale flattens to exp_coeff / spread_rate^2
    assert exponent_scale(1.0e3, CO) == pytest.approx(W_ASYMPTOTE, rel=1e-6)
    with pytest.raises(ConfigError):
        exponent_scale(-1.0e-9, CO)


def test_state_and_settings_validation():
    with pytest.raises(ConfigError):
        TrajectoryState(z_l=math.nan, z_r=0.0, t=0.0)
    with pytest.raises(ConfigError):
        TrajectoryState(z_l=0.0, z_r=0.0, t=-1.0e-9)
    with pytest.raises(ConfigError):
        SettingPair(angle_a=math.inf, angle_b=0.0)
    s2, c2 = SettingPair(0.0, math.pi / 2.0).weights()
    assert s2 + c2 == pytest.approx(1.0, abs=1e-15)
    assert s2 == pytest.approx(0.5, rel=1e-15)


def test_aligned_reduction_sweep():
    rng = np.random.default_rng(23)
    n = 1200
    z_l, z_r, t = _states(n, rng)
    angles = rng.uniform(-math.pi, math.pi, size=n)
    for i in range(n):
        st = TrajectoryState(z_l=z_l[i], z_r=z_r[i], t=t[i])
        va = aligned_velocity_pair(st, CO)
        vg = velocity_pair(st, SettingPair(angles[i], angles[i]), CO)
        scale = max(abs(va[0]), abs(va[1]), 1e-30)
        assert abs(vg[0] - va[0]) <= 1e-12 * scale
        assert abs(vg[1] - va[1]) <= 1e-12 * scale


def test_parity_oddness_sweep():
    # flipping both positions flips both velocities exactly
    rng = np.random.default_rng(37)
    n = 1200
    z_l, z_r, t = _states(n, rng)
    a = rng.uniform(-math.pi, math.pi, size=n)
    b = rng.uniform(-math.pi, math.pi, size=n)
    for i in range(n):
        settings = SettingPair(a[i], b[i])
        v_plus = velocity_pair(TrajectoryState(z_l[i], z_r[i], t[i]), settings, CO)
        v_minus = velocity_pair(TrajectoryState(-z_l[i], -z_r[i], t[i]), settings, CO)
        assert v_minus[0] == -v_plus[0]
        assert v_minus[1] == -v_plus[1]


def test_exchange_symmetry_sweep():
    # swapping particles and analyzer roles swaps the velocities exactly
    rng = np.random.default_rng(41)
    n = 1200
    z_l, z_r, t = _states(n, rng)
    a = rng.uniform(-math.pi, math.pi, size=n)
    b = rng.uniform(-math.pi, math.pi, size=n)
    for i in range(n):
        v_orig = velocity_pair(
            TrajectoryState(z_l[i], z_r[i], t[i]), SettingPair(a[i], b[i]), CO)
        v_swap = velocity_pair(
            TrajectoryState(z_r[i], z_l[i], t[i]), SettingPair(b[i], a[i]), CO)
        assert v_swap[0] == v_orig[1]
        assert v_swap[1] == v_orig[0]


def test_angle_periodicity_sweep():
    # shifting either analyzer by a full turn leaves the law unchanged
    rng = np.random.default_rng(53)
    n = 1000
    z_l, z_r, t = _states(n, rng)
    a = rng.uniform(-math.pi, math.pi, size=n)
    b = rng.uniform(-math.pi, math.pi, size=n)
    two_pi = 2.0 * math.pi
    for i in range(n):
        st = TrajectoryState(z_l[i], z_r[i], t[i])
        v0 = velocity_pair(st, SettingPair(a[i], b[i]), CO)
        v1 = velocity_pair(st, SettingPair(a[i] + two_pi, b[i]), CO)
        v2 = velocity_pair(st, SettingPair(a[i], b[i] - two_pi), CO)
        scale = max(abs(v0[0]), abs(v0[1]), 1e-30)
        assert abs(v1[0] - v0[0]) <= 1e-12 * scale
        assert abs(v1[1] - v0[1]) <= 1e-12 * scale
        assert abs(v2[0] - v0[0]) <= 1e-12 * scale
        assert abs(v2[1] - v0[1]) <= 1e-12 * scale


def test_batch_velocity_matches_scalar():
    rng = np.random.default_rng(61)
    n = 400
    z_l, z_r, t = _states(n, rng)
    a = rng.uniform(-math.pi, math.pi, size=n)
    b = rng.uniform(-math.pi, math.pi, size=n)
    for i in range(0, n, 7):
        settings = SettingPair(a[i], b[i])
        s2, c2 = settings.weights()
        vl_b, vr_b = velocity_pair_batch(
            float(t[i]), np.array([z_l[i]]), np.array([z_r[i]]),
            np.array([s2]), np.array([c2]), CO)
        vl_s, vr_s = velocity_pair(
            TrajectoryState(z_l[i], z_r[i], t[i]), settings, CO)
        assert vl_b[0] == vl_s
        assert vr_b[0] == vr_s


def _straddling_batch(rng, n):
    # half the elements take the direct branch, half the factored one;
    # some sit exactly on the limit and some have one weight zero
    u = rng.uniform(-600.0, 600.0, size=n)
    v = rng.uniform(-310.0, 310.0, size=n)
    u[::9] = 300.0
    v[4::9] = -300.0
    s2 = rng.uniform(0.0, 1.0, size=n)
    s2[::5] = 0.0
    s2[2::5] = 1.0
    return u, v, s2, 1.0 - s2


def test_batch_result_does_not_depend_on_position_in_batch():
    rng = np.random.default_rng(71)
    n = 256
    u = rng.uniform(-1e4, 1e4, size=n)
    v = rng.uniform(-1e4, 1e4, size=n)
    s2 = rng.uniform(0.0, 1.0, size=n)
    wide = (u, v, s2, 1.0 - s2)
    straddling = _straddling_batch(rng, n)
    small = np.maximum(np.abs(straddling[0]), np.abs(straddling[1])) <= 300.0
    assert small.any() and not small.all()
    for u, v, s2, c2 in (wide, straddling):
        full_l, full_r = ratio_pair_batch(u, v, s2, c2)
        half_l, half_r = ratio_pair_batch(u[100:140], v[100:140], s2[100:140], c2[100:140])
        assert np.array_equal(full_l[100:140], half_l)
        assert np.array_equal(full_r[100:140], half_r)
    # each element of the mixed batch gets the bits of a one-element call
    u, v, s2, c2 = straddling
    for i in range(n):
        one_l, one_r = ratio_pair_batch(u[i:i + 1], v[i:i + 1], s2[i:i + 1], c2[i:i + 1])
        assert one_l.tobytes() == full_l[i:i + 1].tobytes()
        assert one_r.tobytes() == full_r[i:i + 1].tobytes()
