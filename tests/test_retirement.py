"""Retiring transport against the full-length RK4 oracle."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bohm_epr.experiment as experiment_mod
import bohm_epr.integrate as integrate_mod
from bohm_epr import (
    ConfigError,
    ExperimentConfig,
    InformationMode,
    IntegrationConfig,
    IntegrationDiverged,
    RawPhysicalInputs,
    SILVER,
    derive_coefficients,
    integrate_batch,
    integrate_retiring,
    run_epr,
)
from bohm_epr.experiment import prepare_pairs, transport_views

CO = derive_coefficients(SILVER)
FULL = IntegrationConfig(dt=1.0e-6, duration=CO.transit_time)

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

positions = st.one_of(
    st.floats(-4.0e-3, 4.0e-3),
    st.floats(-1.0e-9, 1.0e-9),
    st.just(0.0),
)
# s2 = 0 is aligned analyzers, s2 = 1 makes c2 = 0
weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
systems = st.lists(st.tuples(positions, positions, weights), min_size=1, max_size=12)


def _columns(batch):
    z_l0, z_r0, s2 = (np.array(col, dtype=float) for col in zip(*batch))
    return z_l0, z_r0, s2, 1.0 - s2


@settings(PROPERTY, max_examples=12)
@given(systems)
def test_outcome_signs_match_full_rk4(batch):
    z_l0, z_r0, s2, c2 = _columns(batch)
    full_l, full_r = integrate_batch(z_l0, z_r0, s2, c2, CO, FULL)
    ret_l, ret_r = integrate_retiring(z_l0, z_r0, s2, c2, CO, FULL)
    assert np.array_equal(ret_l >= 0.0, full_l >= 0.0)
    assert np.array_equal(ret_r >= 0.0, full_r >= 0.0)
    # the closed-form tail is the exact solution RK4 approximates
    np.testing.assert_allclose(ret_l, full_l, rtol=1e-10, atol=1e-15)
    np.testing.assert_allclose(ret_r, full_r, rtol=1e-10, atol=1e-15)


@settings(PROPERTY, max_examples=3)
@given(systems)
def test_field_free_bench_never_retires(batch):
    co = derive_coefficients(RawPhysicalInputs(field_gradient=0.0))
    cfg = IntegrationConfig(dt=1.0e-6, duration=co.transit_time)
    z_l0, z_r0, s2, c2 = _columns(batch)
    full = integrate_batch(z_l0, z_r0, s2, c2, co, cfg)
    ret = integrate_retiring(z_l0, z_r0, s2, c2, co, cfg)
    assert np.array_equal(ret[0], full[0]) and np.array_equal(ret[1], full[1])


@PROPERTY
@given(systems)
def test_transit_shorter_than_saturation(batch):
    # 30 steps end long before any ratio reaches +-1
    co = derive_coefficients(RawPhysicalInputs(beam_speed=1.0e6))
    cfg = IntegrationConfig(dt=1.0e-6, duration=co.transit_time)
    assert cfg.n_steps == 30
    z_l0, z_r0, s2, c2 = _columns(batch)
    full = integrate_batch(z_l0, z_r0, s2, c2, co, cfg)
    ret = integrate_retiring(z_l0, z_r0, s2, c2, co, cfg)
    assert np.array_equal(ret[0], full[0]) and np.array_equal(ret[1], full[1])


def _counting_kernel(monkeypatch):
    sizes = []
    real = integrate_mod.guidance_velocity

    def kernel(t, z, weights, coeff, r=None):
        sizes.append(z.shape[1])
        return real(t, z, weights, coeff, r)

    monkeypatch.setattr(integrate_mod, "guidance_velocity", kernel)
    return sizes


def test_silver_systems_retire_early(monkeypatch):
    rng = np.random.default_rng(8)
    n = 200
    s2 = rng.uniform(0.0, 1.0, size=n)
    sizes = _counting_kernel(monkeypatch)
    integrate_retiring(rng.normal(0.0, 1.0e-3, size=n), rng.normal(0.0, 1.0e-3, size=n),
                       s2, 1.0 - s2, CO, FULL)
    # four kernel calls per step; every system is done within 10% of the transit
    assert len(sizes) <= 4 * FULL.n_steps // 10
    assert sizes[0] == n and sizes[-1] < n


def test_divergence_names_the_input_index_after_compaction(monkeypatch):
    # system 2 sits at rest on the axis (its ratios stay 0, so it never
    # retires) and is poisoned once every other system has retired
    z_l0 = np.array([1.0e-3, -2.0e-3, 0.0, 5.0e-4, 1.5e-3])
    z_r0 = np.array([-1.0e-3, 1.0e-3, 0.0, 2.0e-3, 1.0e-3])
    s2 = np.array([0.5, 0.3, 0.25, 0.7, 0.0])
    sizes = _counting_kernel(monkeypatch)
    counted = integrate_mod.guidance_velocity

    def poisoned(t, z, weights, coeff, r=None):
        v = counted(t, z, weights, coeff, r)
        if t > 1.0002e-3:
            v[0] = np.where(weights.rows[0, 0] == 0.25, math.nan, v[0])
        return v

    monkeypatch.setattr(integrate_mod, "guidance_velocity", poisoned)
    with pytest.raises(IntegrationDiverged) as err:
        integrate_retiring(z_l0, z_r0, s2, 1.0 - s2, CO, FULL)
    assert err.value.system_index == 2
    assert err.value.step == 1001
    assert sizes[-1] == 1


def test_run_epr_divergence_names_the_pair():
    bench = RawPhysicalInputs(packet_width=1.0e-150)
    for mode, seed, view in (
        (InformationMode.NONLOCAL, 3, "view A and B"),
        # at this seed pair 0's two observers attribute different settings
        (InformationMode.LOCAL, 4, "view A"),
    ):
        cfg = ExperimentConfig(physics=bench, n_pairs=8, master_seed=seed, mode=mode)
        with pytest.raises(IntegrationDiverged) as err:
            run_epr(cfg)
        assert err.value.step == 1
        assert err.value.system_index == 0
        assert str(err.value).endswith(f": pair 0, {view}, {mode.value} mode")


def test_run_epr_divergence_in_a_later_block_names_the_pair(monkeypatch):
    cfg = ExperimentConfig(n_pairs=8, master_seed=0, mode=InformationMode.LOCAL)
    # at this seed pairs 0 to 2 have one system each and pair 3 two, whose
    # views differ in weights, so in blocks of three pairs the second
    # block's system 1 is system 4, pair 3's B view
    [views] = transport_views([prepare_pairs(cfg)], [cfg])[2]
    assert views[:4].tolist() == [[0, 0], [1, 1], [2, 2], [3, 4]]
    monkeypatch.setattr(experiment_mod, "_BATCH_CHUNK", 3)
    real = experiment_mod.integrate_retiring
    calls = []

    def failing_second_block(*args, **kwargs):
        calls.append(len(args[0]))
        if len(calls) == 2:
            raise IntegrationDiverged(step=7, system_index=1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment_mod, "integrate_retiring", failing_second_block)
    with pytest.raises(IntegrationDiverged) as err:
        run_epr(cfg)
    assert calls == [3, 6]
    assert (err.value.step, err.value.system_index) == (7, 4)
    assert str(err.value) == "non-finite state at step 7 (system 4): pair 3, view B, local mode"


@pytest.mark.parametrize("s2,c2", [
    (1.0e290, 1.0e290),
    (math.nan, 0.5),
    (0.5, math.nan),
    (-0.25, 1.25),
    (0.0, 0.0),
])
def test_batch_integrators_reject_bad_weights(s2, c2):
    z_l0 = np.array([1.0e-3, -1.0e-3])
    z_r0 = np.array([1.0e-3, 2.0e-3])
    weights_s2 = np.array([0.5, s2])
    weights_c2 = np.array([0.5, c2])
    for integrate in (integrate_batch, integrate_retiring):
        with pytest.raises(ConfigError):
            integrate(z_l0, z_r0, weights_s2, weights_c2, CO, FULL)
