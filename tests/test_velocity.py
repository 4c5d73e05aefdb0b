"""The guidance law: golden values, symmetries, and overflow safety.

Golden ratio values come from 60-digit evaluations of the exact
expression (s2 sinh u +/- c2 sinh v) / (s2 cosh u + c2 cosh v); several
sit deep in the overflow regime of naive sinh/cosh.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from bohm_epr.velocity import (
    BatchWeights,
    guidance_velocity,
    ratio_pair_batch,
    velocity_pair_batch,
)

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


# The ratio formulas as they were written before the kernel stacked u and v
# into one array: each branch on 1-D arrays, picked per element.
def _direct_ratios(u, v, s2, c2):
    su = s2 * np.sinh(u)
    cv = c2 * np.sinh(v)
    den = s2 * np.cosh(u) + c2 * np.cosh(v)
    return (su + cv) / den, (su - cv) / den


def _factored_ratios(u, v, s2, c2):
    m = np.maximum(np.where(s2 > 0.0, np.abs(u), -np.inf),
                   np.where(c2 > 0.0, np.abs(v), -np.inf))
    eu = s2 * np.exp(np.minimum(u - m, 0.0))
    enu = s2 * np.exp(np.minimum(-u - m, 0.0))
    ev = c2 * np.exp(np.minimum(v - m, 0.0))
    env = c2 * np.exp(np.minimum(-v - m, 0.0))
    den = (eu + enu) + (ev + env)
    return ((eu - enu) + (ev - env)) / den, ((eu - enu) - (ev - env)) / den


def _reference_ratios(u, v, s2, c2):
    small = np.maximum(np.abs(u), np.abs(v)) <= 300.0
    rl = np.empty(u.shape)
    rr = np.empty(u.shape)
    for part, branch in ((small, _direct_ratios), (~small, _factored_ratios)):
        rl[part], rr[part] = branch(u[part], v[part], s2[part], c2[part])
    return np.clip(rl, -1.0, 1.0), np.clip(rr, -1.0, 1.0)


KERNEL = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
_MAX = np.finfo(float).max
_direct_arg = st.one_of(st.floats(-300.0, 300.0), st.sampled_from([300.0, -300.0]))
_large = st.one_of(st.floats(300.0, 1.0e7, exclude_min=True),
                   st.just(float(np.nextafter(300.0, np.inf))),
                   st.floats(1.0e7, _MAX))  # huge: -u - m overflows to -inf
_factored_arg = st.one_of(_large, _large.map(lambda x: -x))
_weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_direct_element = st.tuples(_direct_arg, _direct_arg, _weight)
# at least one of |u|, |v| past the limit; in a near tie |u| and |v| differ
# by little, so all four exponentials count in the sums
_near_tie = st.builds(lambda u, sign, d, w: (u, sign * u + d, w),
                      st.floats(300.0, 1.0e3, exclude_min=True).map(lambda x: x + 30.0),
                      st.sampled_from([1.0, -1.0]), st.floats(-20.0, 20.0), _weight)
_factored_element = st.one_of(
    st.tuples(_factored_arg, st.one_of(_direct_arg, _factored_arg), _weight),
    st.tuples(st.one_of(_direct_arg, _factored_arg), _factored_arg, _weight),
    _near_tie)


@st.composite
def _batches(draw):
    kind = draw(st.sampled_from(["direct", "factored", "mixed"]))
    direct = draw(st.lists(_direct_element, min_size=kind != "factored",
                           max_size=0 if kind == "factored" else 12))
    factored = draw(st.lists(_factored_element, min_size=kind != "direct",
                             max_size=0 if kind == "direct" else 12))
    batch = draw(st.permutations(direct + factored))
    u, v, s2 = (np.array(column, dtype=float) for column in zip(*batch))
    return u, v, s2, 1.0 - s2


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@KERNEL
@given(_batches())
def test_stacked_kernel_matches_the_per_branch_formulas_bit_for_bit(batch):
    u, v, s2, c2 = batch
    with np.errstate(over="ignore"):
        want = _reference_ratios(u, v, s2, c2)
        got = ratio_pair_batch(u, v, s2, c2)
        # no element's bits depend on its column or on its batch-mates
        flipped = ratio_pair_batch(u[::-1].copy(), v[::-1].copy(), s2[::-1].copy(),
                                   c2[::-1].copy())
        alone = [ratio_pair_batch(u[i:i + 1], v[i:i + 1], s2[i:i + 1], c2[i:i + 1])
                 for i in range(u.size)]
    assert _bits(*got) == _bits(*want)
    assert _bits(*flipped) == _bits(got[0][::-1].copy(), got[1][::-1].copy())
    for i, (one_l, one_r) in enumerate(alone):
        assert _bits(one_l, one_r) == _bits(got[0][i:i + 1], got[1][i:i + 1])


@KERNEL
@given(st.floats(0.0, 3.0e-3),
       st.lists(st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05), _weight),
                min_size=1, max_size=12))
def test_stacked_velocity_matches_the_per_particle_law_bit_for_bit(t, batch):
    z_l, z_r, s2 = (np.array(column, dtype=float) for column in zip(*batch))
    c2 = 1.0 - s2
    w = exponent_scale(t, CO)
    r_l, r_r = _reference_ratios(0.5 * w * (z_l + z_r), 0.5 * w * (z_l - z_r), s2, c2)
    kt = CO.spread_rate * t
    kt2 = kt * kt
    denom = 1.0 + kt2
    drift = CO.spread_rate * kt / denom
    spin_kick = CO.accel * t * (2.0 - kt2 / denom)
    want = (drift * z_l + r_l * spin_kick, drift * z_r + r_r * spin_kick)
    got = guidance_velocity(t, np.stack((z_l, z_r)), BatchWeights(s2, c2), CO)
    assert _bits(got[0], got[1]) == _bits(*want)
