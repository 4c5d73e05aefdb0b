"""Transport accuracy, order of convergence, and engine contracts."""

import math

import numpy as np
import pytest

import bohm_epr.velocity as velocity_mod
from bohm_epr import (
    ConfigError,
    IntegrationConfig,
    IntegrationDiverged,
    RawPhysicalInputs,
    SILVER,
    SettingPair,
    derive_coefficients,
    integrate_batch,
    integrate_pair,
    sample_initial,
    sign_outcome,
)
from bohm_epr.physconst import HBAR

CO = derive_coefficients(SILVER)
SPREAD_FACTOR_REF = 1.0000389019280121  # sqrt(1 + (spread_rate * 3 ms)^2), silver


def field_free_silver() -> RawPhysicalInputs:
    return RawPhysicalInputs(field_gradient=0.0)


def fast_spreading_inputs() -> RawPhysicalInputs:
    """Field-free bench with spread_rate near 8e3 1/s.

    Silver spreads so slowly that RK4 truncation error sits below double
    roundoff, which makes convergence-order checks meaningless there.
    A much lighter particle brings the truncation error into view.
    """
    mass = HBAR / (2.0 * 8.0e3 * 1.0e-6)
    return RawPhysicalInputs(mass=mass, field_gradient=0.0)


def exact_spread(z0: float, t: float, spread_rate: float) -> float:
    return z0 * math.sqrt(1.0 + (spread_rate * t) ** 2)


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegrationConfig(dt=0.0, duration=1.0e-3)
    with pytest.raises(ConfigError):
        IntegrationConfig(dt=-1.0e-6, duration=1.0e-3)
    with pytest.raises(ConfigError):
        IntegrationConfig(dt=2.0e-3, duration=1.0e-3)      # dt > duration
    with pytest.raises(ConfigError):
        IntegrationConfig(dt=1.0e-6, duration=5.0e-6)      # fewer than 10 steps
    with pytest.raises(ConfigError, match="more than 10000000 steps"):
        IntegrationConfig(dt=1.0e-12, duration=3.0e-3)     # 3e9 steps
    with pytest.raises(ConfigError, match="more than 10000000 steps"):
        IntegrationConfig(dt=5.0e-324, duration=1.0)       # duration/dt overflows
    with pytest.raises(ConfigError):
        IntegrationConfig(dt=1.0e-6, duration=1.0e-3, record_every=-1)
    cfg = IntegrationConfig(dt=1.0e-6, duration=1.0e-5)
    assert cfg.n_steps == 10


def test_sign_outcome_tie_goes_up():
    assert sign_outcome(0.0) == 1
    assert sign_outcome(-0.0) == 1
    assert sign_outcome(1e-300) == 1
    assert sign_outcome(-1e-300) == -1


def test_sample_initial_contract():
    rng = np.random.default_rng(5)
    n = 2000
    draws = np.array([sample_initial(rng, 1.0e-3) for _ in range(n)])
    flat = draws.ravel()
    assert abs(flat.mean()) < 4.0 * 1.0e-3 / math.sqrt(flat.size)
    assert flat.std() == pytest.approx(1.0e-3, rel=0.05)
    # identical generators give identical draws, left first
    a = sample_initial(np.random.default_rng(9), 1.0e-3)
    b = sample_initial(np.random.default_rng(9), 1.0e-3)
    assert a == b


def test_field_free_transport_matches_closed_form():
    co = derive_coefficients(field_free_silver())
    cfg = IntegrationConfig(dt=1.0e-6, duration=co.transit_time)
    z0 = np.array([-2.0e-3, -1.0e-3, 3.3e-4, 1.0e-3, 2.0e-3])
    zl, zr = integrate_batch(z0, -z0, np.full(5, 0.3), np.full(5, 0.7), co, cfg)
    factor = math.sqrt(1.0 + (co.spread_rate * co.transit_time) ** 2)
    assert factor == pytest.approx(SPREAD_FACTOR_REF, rel=1e-12)
    for i in range(5):
        expect = exact_spread(float(z0[i]), co.transit_time, co.spread_rate)
        assert abs(float(zl[i]) - expect) / abs(expect) <= 1e-8
        assert abs(float(zr[i]) + expect) / abs(expect) <= 1e-8


def test_field_free_halving_dt_is_fourth_order():
    co = derive_coefficients(fast_spreading_inputs())
    z0 = np.array([5.0e-4, -8.0e-4, 1.3e-3])
    s2 = np.full(3, 0.5)
    c2 = np.full(3, 0.5)
    duration = 3.0e-3

    def max_rel_err(dt):
        cfg = IntegrationConfig(dt=dt, duration=duration)
        zl, _ = integrate_batch(z0, z0.copy(), s2, c2, co, cfg)
        errs = [
            abs(float(zl[i]) - exact_spread(float(z0[i]), duration, co.spread_rate))
            / abs(exact_spread(float(z0[i]), duration, co.spread_rate))
            for i in range(3)
        ]
        return max(errs)

    err_coarse = max_rel_err(1.0e-6)
    err_fine = max_rel_err(5.0e-7)
    assert err_coarse <= 1e-8
    assert err_coarse / err_fine >= 8.0


def test_full_law_self_convergence():
    # Richardson triple on the complete guidance law through the early
    # transient, where the dynamics is at its stiffest.
    settings = SettingPair(0.0, math.pi / 4.0)
    init = (5.0e-4, -2.0e-4)

    def final(dt):
        cfg = IntegrationConfig(dt=dt, duration=3.0e-4)
        left, _ = integrate_pair(init, settings, settings, CO, cfg)
        return left.final.z_l, left.final.z_r

    z1 = final(1.0e-6)
    z2 = final(5.0e-7)
    z3 = final(2.5e-7)
    diff_12 = math.hypot(z1[0] - z2[0], z1[1] - z2[1])
    diff_23 = math.hypot(z2[0] - z3[0], z2[1] - z3[1])
    assert diff_23 > 0.0
    ratio = diff_12 / diff_23
    assert ratio >= 8.0


def test_batch_matches_scalar():
    rng = np.random.default_rng(17)
    n = 6
    z_l0 = rng.normal(0.0, 1.0e-3, size=n)
    z_r0 = rng.normal(0.0, 1.0e-3, size=n)
    angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
    cfg = IntegrationConfig(dt=1.0e-6, duration=CO.transit_time)
    s2 = np.empty(n)
    c2 = np.empty(n)
    pairs = []
    for i in range(n):
        settings = SettingPair(float(angles[i, 0]), float(angles[i, 1]))
        pairs.append(settings)
        s2[i], c2[i] = settings.weights()
    zl_b, zr_b = integrate_batch(z_l0, z_r0, s2, c2, CO, cfg)
    for i in range(n):
        left, right = integrate_pair(
            (float(z_l0[i]), float(z_r0[i])), pairs[i], pairs[i], CO, cfg)
        assert left is right
        assert left.final.z_l == float(zl_b[i])
        assert left.final.z_r == float(zr_b[i])


def test_aligned_pairs_anticorrelate_exactly():
    rng = np.random.default_rng(29)
    n = 60
    z_l0 = rng.normal(0.0, 1.0e-3, size=n)
    z_r0 = rng.normal(0.0, 1.0e-3, size=n)
    cfg = IntegrationConfig(dt=1.0e-6, duration=CO.transit_time)
    zl, zr = integrate_batch(z_l0, z_r0, np.zeros(n), np.ones(n), CO, cfg)
    outcomes_l = np.where(zl >= 0.0, 1, -1)
    outcomes_r = np.where(zr >= 0.0, 1, -1)
    assert np.all(outcomes_l * outcomes_r == -1)
    # packets end far outside the initial micron-scale spread
    assert np.median(np.abs(zl)) > 1.0
    assert np.median(np.abs(zr)) > 1.0


def test_distinct_views_integrate_separately():
    cfg = IntegrationConfig(dt=1.0e-6, duration=CO.transit_time)
    s_l = SettingPair(0.0, math.pi / 4.0)
    s_r = SettingPair(math.pi / 2.0, math.pi / 4.0)
    left, right = integrate_pair((4.0e-4, -3.0e-4), s_l, s_r, CO, cfg)
    assert left is not right
    assert left.settings == s_l
    assert right.settings == s_r
    assert left.outcome_l in (-1, 1) and right.outcome_r in (-1, 1)


def test_recording_cadence():
    cfg = IntegrationConfig(dt=1.0e-6, duration=CO.transit_time, record_every=500)
    left, _ = integrate_pair(
        (2.0e-4, -5.0e-4), SettingPair(0.0, 0.3), SettingPair(0.0, 0.3), CO, cfg)
    steps = [round(s.t / cfg.dt) for s in left.samples]
    assert steps == [0, 500, 1000, 1500, 2000, 2500, 3000]
    assert left.samples[-1].z_l == left.final.z_l
    no_rec = IntegrationConfig(dt=1.0e-6, duration=CO.transit_time, record_every=0)
    bare, _ = integrate_pair(
        (2.0e-4, -5.0e-4), SettingPair(0.0, 0.3), SettingPair(0.0, 0.3), CO, no_rec)
    assert bare.samples == ()
    assert bare.final.z_l == left.final.z_l


def test_divergence_reported_with_step():
    bad = RawPhysicalInputs(packet_width=1.0e-150, field_gradient=0.0)
    co = derive_coefficients(bad)
    cfg = IntegrationConfig(dt=1.0e-6, duration=3.0e-3)
    with pytest.raises(IntegrationDiverged) as err:
        integrate_batch(np.array([1.0e-3, 1.0e-3]), np.array([1.0e-3, 1.0e-3]),
                        np.array([0.5, 0.5]), np.array([0.5, 0.5]), co, cfg)
    assert err.value.step >= 1
    assert err.value.system_index is not None


def test_integrate_pair_divergence_is_a_numerical_failure():
    # non-finite RK4 stages must not surface as a ConfigError about a state
    co = derive_coefficients(RawPhysicalInputs(packet_width=1.0e-150))
    cfg = IntegrationConfig(dt=1.0e-6, duration=co.transit_time, record_every=10)
    with pytest.raises(IntegrationDiverged) as err:
        integrate_pair((1.0e-150, -2.0e-150), SettingPair(0.0, 0.3),
                       SettingPair(0.5, 0.3), co, cfg)
    assert not isinstance(err.value, ConfigError)
    assert err.value.step == 1


def test_batch_recording_matches_unrecorded_exit():
    rng = np.random.default_rng(43)
    n = 5
    z_l0 = rng.normal(0.0, 1.0e-3, size=n)
    z_r0 = rng.normal(0.0, 1.0e-3, size=n)
    s2 = rng.uniform(0.0, 1.0, size=n)
    bare = IntegrationConfig(dt=1.0e-6, duration=3.0e-4)
    rec = IntegrationConfig(dt=1.0e-6, duration=3.0e-4, record_every=70)
    assert rec.recorded_steps() == [0, 70, 140, 210, 280, 300]
    end_l, end_r = integrate_batch(z_l0, z_r0, s2, 1.0 - s2, CO, bare)
    track_l, track_r = integrate_batch(z_l0, z_r0, s2, 1.0 - s2, CO, rec)
    assert track_l.shape == track_r.shape == (6, n)
    assert np.array_equal(track_l[0], z_l0) and np.array_equal(track_r[0], z_r0)
    assert np.array_equal(track_l[-1], end_l) and np.array_equal(track_r[-1], end_r)
    # a row is the state at its step: a shorter run ends on it
    short = IntegrationConfig(dt=1.0e-6, duration=1.4e-4)
    mid_l, mid_r = integrate_batch(z_l0, z_r0, s2, 1.0 - s2, CO, short)
    assert np.array_equal(track_l[2], mid_l) and np.array_equal(track_r[2], mid_r)


def test_batch_is_deterministic_and_chunkable(monkeypatch):
    rng = np.random.default_rng(31)
    n = 24
    z_l0 = rng.normal(0.0, 1.0e-3, size=n)
    z_r0 = rng.normal(0.0, 1.0e-3, size=n)
    s2 = rng.uniform(0.0, 1.0, size=n)
    c2 = 1.0 - s2
    cfg = IntegrationConfig(dt=1.0e-6, duration=3.0e-4)
    mixed = []
    ratios = velocity_mod._ratios

    def counting(uv, weights):
        m = np.maximum(*np.abs(uv))
        mixed.append(m.min() <= velocity_mod._DIRECT_LIMIT < m.max())
        return ratios(uv, weights)

    with monkeypatch.context() as patch:
        patch.setattr(velocity_mod, "_ratios", counting)
        full = integrate_batch(z_l0, z_r0, s2, c2, CO, cfg)
    # the split below is only a test if the whole batch takes both branches at once
    assert any(mixed)
    again = integrate_batch(z_l0, z_r0, s2, c2, CO, cfg)
    assert np.array_equal(full[0], again[0]) and np.array_equal(full[1], again[1])
    first = integrate_batch(z_l0[:10], z_r0[:10], s2[:10], c2[:10], CO, cfg)
    second = integrate_batch(z_l0[10:], z_r0[10:], s2[10:], c2[10:], CO, cfg)
    assert np.array_equal(np.concatenate([first[0], second[0]]), full[0])
    assert np.array_equal(np.concatenate([first[1], second[1]]), full[1])


def test_batch_shape_mismatch_rejected():
    cfg = IntegrationConfig(dt=1.0e-6, duration=3.0e-4)
    with pytest.raises(ConfigError):
        integrate_batch(np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3), CO, cfg)


def test_integrate_pair_rejects_bad_init():
    cfg = IntegrationConfig(dt=1.0e-6, duration=3.0e-4)
    with pytest.raises(ConfigError):
        integrate_pair((math.nan, 0.0), SettingPair(0.0, 0.1),
                       SettingPair(0.0, 0.1), CO, cfg)
