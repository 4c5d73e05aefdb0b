"""Acceptance gate: the nine advertised guarantees, one test per guarantee.

Each test prints a summary line; run with -v to get one pass/fail line
per criterion. The replicated table in criterion 2 dominates the
runtime (about 5 s of the gate's 8 s on a 2-vCPU machine).
"""

import math

import numpy as np
import pytest

from bohm_epr import (
    Efficiency,
    ExperimentConfig,
    HookeParams,
    InformationMode,
    IntegrationConfig,
    Normalization,
    RawPhysicalInputs,
    SILVER,
    SettingPair,
    SpringMode,
    SwitchPolicy,
    TrajectoryState,
    aligned_velocity_pair,
    center_of_mass_spring,
    count_rates,
    derive_coefficients,
    integrate_batch,
    kick_ratio,
    quiescent_config,
    report_json_dict,
    run_epr,
    simulate_spring,
    spring_energy,
    stable_ratio,
    table1_run,
    velocity_pair,
    write_events_csv,
)
from bohm_epr.physconst import HBAR, LIGHT_SPEED
from bohm_epr.velocity import Side, ratio_pair_batch

S_TARGETS = (-1.31946, -2.76893, -2.77554, -2.76893)
S_WINDOW = 0.15
STD_TARGETS = (0.03652, 0.07086, 0.03652, 0.07086)
N_REPLICATES = 25


@pytest.fixture(scope="module")
def table_replicates():
    return [
        table1_run(master_seed=12345, n_pairs=4000, replicate=r)
        for r in range(N_REPLICATES)
    ]


def test_criterion_1_derived_coefficients():
    coeff = derive_coefficients(SILVER)
    assert coeff.accel == pytest.approx(2.58e5, rel=0.01)
    assert coeff.exp_coeff == pytest.approx(5.17e11, rel=0.01)
    assert coeff.spread_rate == pytest.approx(2.94, rel=0.01)
    print(f"CRITERION 1 PASS: accel {coeff.accel:.6g}, "
          f"exp_coeff {coeff.exp_coeff:.6g}, spread_rate {coeff.spread_rate:.6g} "
          f"all within 1% of (2.58e5, 5.17e11, 2.94)")


def test_criterion_2_summary_table(table_replicates):
    main = table_replicates[0]
    for i, row in enumerate(main):
        assert abs(row.bell.s_signed - S_TARGETS[i]) <= S_WINDOW, (
            f"row {row.label}: S = {row.bell.s_signed:.5f}, "
            f"target {S_TARGETS[i]} +- {S_WINDOW}")
    assert main[1].bell == main[3].bell, (
        "the two lossy rows share a seed and must agree exactly")
    total_runtime = sum(row.runtime_s for row in main)
    assert total_runtime < 300.0

    ratios = []
    for i in range(4):
        vals = [table[i].bell.s_signed for table in table_replicates]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        std = math.sqrt(var)
        ratio = std / STD_TARGETS[i]
        ratios.append(ratio)
        assert 0.5 <= ratio <= 2.0, (
            f"row {main[i].label}: replicate std {std:.5f} vs "
            f"{STD_TARGETS[i]} (ratio {ratio:.3f})")
    print(f"CRITERION 2 PASS: S = {[f'{r.bell.s_signed:+.5f}' for r in main]} "
          f"within +-{S_WINDOW} of targets, lossy rows identical, "
          f"table runtime {total_runtime:.1f} s, "
          f"std ratios {[f'{x:.3f}' for x in ratios]} within factor 2")


def _static_correlator(delta: float, n: int, seed: int) -> tuple[float, int]:
    cfg = ExperimentConfig(
        n_pairs=n,
        angles_a=(0.0, 1.0),
        angles_b=(delta, delta + 1.0),
        mode=InformationMode.NONLOCAL,
        efficiency=Efficiency.EFFICIENT,
        normalization=Normalization.SINGLES,
        master_seed=seed,
        switch_policy_a=SwitchPolicy.STATIC,
        switch_policy_b=SwitchPolicy.STATIC,
    )
    report = run_epr(cfg)
    return report.correlator(0)


def test_criterion_3_singlet_correlator():
    n = 4000
    results = []
    for k, delta in enumerate((0.0, math.pi / 4.0, math.pi / 2.0,
                               3.0 * math.pi / 4.0)):
        e, n_used = _static_correlator(delta, n, seed=9000 + k)
        assert n_used == n
        target = -math.cos(delta)
        if delta == 0.0:
            assert e == -1.0, "aligned analyzers must anticorrelate every pair"
        else:
            sigma = math.sqrt((1.0 - target * target) / n)
            assert abs(e - target) <= 4.0 * sigma, (
                f"delta {delta:.4f}: E = {e:.5f}, target {target:.5f}, "
                f"4 sigma = {4.0 * sigma:.5f}")
        results.append((delta, e, target))
    summary = ", ".join(f"E({d:.3f}) = {e:+.4f} (target {t:+.4f})"
                        for d, e, t in results)
    print(f"CRITERION 3 PASS: {summary}")


def test_criterion_4_kick_ratios():
    slow = kick_ratio(1.0e4)
    fast = kick_ratio(1.0e7)
    luminal = kick_ratio(LIGHT_SPEED, LIGHT_SPEED)
    assert slow == pytest.approx(3.34e-7, rel=0.02)
    assert fast == pytest.approx(3.3e-4, rel=0.02)
    assert luminal == 0.5
    # full-precision package values
    assert slow == pytest.approx(3.335555925431646e-07, rel=1e-12)
    assert fast == pytest.approx(3.3344448149383126e-04, rel=1e-12)
    print(f"CRITERION 4 PASS: kick ratios {slow:.6g} at 1e4 cm/s, "
          f"{fast:.6g} at 1e7 cm/s, exactly 0.5 at light speed")


def test_criterion_5_count_rates():
    common = dict(
        n_pairs=10000,
        master_seed=777,
        efficiency=Efficiency.INEFFICIENT,
        normalization=Normalization.COINCIDENCES,
        kick_threshold=0.0,
    )
    switched = run_epr(ExperimentConfig(**common))
    baseline = run_epr(quiescent_config(ExperimentConfig(**common)))
    rates = count_rates(switched, baseline)
    assert 0.47 <= rates.singles_ratio <= 0.53, (
        f"singles ratio {rates.singles_ratio:.4f} outside [0.47, 0.53]")
    assert 0.22 <= rates.coincidence_ratio <= 0.28, (
        f"coincidence ratio {rates.coincidence_ratio:.4f} outside [0.22, 0.28]")
    print(f"CRITERION 5 PASS: Q1'/Q1 = {rates.singles_ratio:.4f} "
          f"(window [0.47, 0.53]), C2'/C2 = {rates.coincidence_ratio:.4f} "
          f"(window [0.22, 0.28]) at n = 10000")


def test_criterion_6_integrator_oracle():
    # silver, field off: exits match the analytic spreading envelope
    silver_free = RawPhysicalInputs(field_gradient=0.0)
    coeff = derive_coefficients(silver_free)
    z_l0 = np.array([1.0e-3, -2.0e-3, 5.0e-4, -1.0e-4, 3.0e-3, -3.0e-3])
    z_r0 = np.array([2.0e-3, 1.0e-3, -5.0e-4, 2.0e-3, -1.0e-3, 1.0e-3])
    cfg = IntegrationConfig(dt=1.0e-6, duration=coeff.transit_time)
    out_l, out_r = integrate_batch(
        z_l0, z_r0, np.zeros(6), np.ones(6), coeff, cfg)
    t_end = cfg.n_steps * cfg.dt
    factor = math.sqrt(1.0 + (coeff.spread_rate * t_end) ** 2)
    rel_l = np.max(np.abs(out_l - z_l0 * factor) / np.abs(z_l0 * factor))
    rel_r = np.max(np.abs(out_r - z_r0 * factor) / np.abs(z_r0 * factor))
    assert rel_l <= 1.0e-8 and rel_r <= 1.0e-8

    # a fast-spreading packet makes the truncation error measurable;
    # halving the step must cut it by at least 8 (fourth order leaves 16)
    fast = RawPhysicalInputs(
        mass=HBAR / (2.0 * 8.0e3 * 1.0e-6), field_gradient=0.0)
    fast_coeff = derive_coefficients(fast)
    errs = []
    for dt in (1.0e-6, 5.0e-7):
        fcfg = IntegrationConfig(dt=dt, duration=3.0e-4)
        f_l, _ = integrate_batch(
            z_l0[:3], z_r0[:3], np.zeros(3), np.ones(3), fast_coeff, fcfg)
        t = fcfg.n_steps * dt
        exact = z_l0[:3] * math.sqrt(1.0 + (fast_coeff.spread_rate * t) ** 2)
        errs.append(float(np.max(np.abs(f_l - exact) / np.abs(exact))))
    ratio = errs[0] / errs[1]
    assert ratio >= 8.0
    print(f"CRITERION 6 PASS: field-free exits within {max(rel_l, rel_r):.3g} "
          f"of the spreading envelope (<= 1e-8); halving dt cut the error "
          f"by {ratio:.1f}x (>= 8)")


def test_criterion_7_velocity_properties():
    n = 1500
    rng = np.random.default_rng(20250816)
    coeff = derive_coefficients(SILVER)

    # no overflow anywhere up to |u|, |v| = 1e6
    u = rng.uniform(-1.0e6, 1.0e6, size=n)
    v = rng.uniform(-1.0e6, 1.0e6, size=n)
    s2 = rng.uniform(0.0, 1.0, size=n)
    r_l, r_r = ratio_pair_batch(u, v, s2, 1.0 - s2)
    assert np.all(np.isfinite(r_l)) and np.all(np.isfinite(r_r))
    assert np.all(np.abs(r_l) <= 1.0) and np.all(np.abs(r_r) <= 1.0)

    # parity: the ratio is odd under flipping both arguments (exactly)
    for i in range(n):
        plus = stable_ratio(u[i], v[i], s2[i], 1.0 - s2[i], Side.L)
        minus = stable_ratio(-u[i], -v[i], s2[i], 1.0 - s2[i], Side.L)
        assert minus == -plus

    # exchange: swapping the particles swaps the sides (exactly)
    for i in range(n):
        left = stable_ratio(u[i], -v[i], s2[i], 1.0 - s2[i], Side.L)
        right = stable_ratio(u[i], v[i], s2[i], 1.0 - s2[i], Side.R)
        assert left == right

    # aligned analyzers reduce to the closed two-branch form
    t_vals = rng.uniform(1.0e-5, 3.0e-3, size=n)
    z_l = rng.normal(0.0, 2.0e-3, size=n)
    z_r = rng.normal(0.0, 2.0e-3, size=n)
    theta = rng.uniform(-math.pi, math.pi, size=n)
    worst_aligned = 0.0
    for i in range(n):
        state = TrajectoryState(z_l=float(z_l[i]), z_r=float(z_r[i]),
                                t=float(t_vals[i]))
        settings = SettingPair(angle_a=float(theta[i]), angle_b=float(theta[i]))
        va = aligned_velocity_pair(state, coeff)
        vg = velocity_pair(state, settings, coeff)
        scale = max(abs(va[0]), abs(va[1]), abs(vg[0]), abs(vg[1]), 1.0e-300)
        worst_aligned = max(worst_aligned,
                            abs(va[0] - vg[0]) / scale, abs(va[1] - vg[1]) / scale)
    assert worst_aligned <= 1.0e-12

    # a full turn of either analyzer changes nothing (to 1e-12 relative)
    theta_b = rng.uniform(-math.pi, math.pi, size=n)
    worst_turn = 0.0
    for i in range(n):
        state = TrajectoryState(z_l=float(z_l[i]), z_r=float(z_r[i]),
                                t=float(t_vals[i]))
        base = velocity_pair(
            state, SettingPair(float(theta[i]), float(theta_b[i])), coeff)
        turned = velocity_pair(
            state, SettingPair(float(theta[i]) + 2.0 * math.pi,
                               float(theta_b[i])), coeff)
        scale = max(abs(base[0]), abs(base[1]), 1.0e-300)
        worst_turn = max(worst_turn, abs(base[0] - turned[0]) / scale,
                         abs(base[1] - turned[1]) / scale)
    assert worst_turn <= 1.0e-12
    print(f"CRITERION 7 PASS: over {n} random states each: no overflow to "
          f"|u| = 1e6, exact parity, exact exchange symmetry, aligned "
          f"reduction within {worst_aligned:.3g}, full-turn invariance "
          f"within {worst_turn:.3g} (both <= 1e-12)")


def test_criterion_8_spring_sandbox():
    p = HookeParams()
    period = p.period
    dt = period / 2000.0

    traj = simulate_spring(p, SpringMode.INSTANTANEOUS, 10.0 * period, dt)
    energy = spring_energy(p, traj)
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    assert drift < 1.0e-6

    diffs = []
    for tau in (period / 50.0, period / 100.0):
        pd = HookeParams(delay=tau)
        fine_dt = (period / 100.0) / 8.0
        ret = simulate_spring(pd, SpringMode.RETARDED, 2.0 * period, fine_dt)
        exp = simulate_spring(pd, SpringMode.EXPANDED, 2.0 * period, fine_dt)
        diffs.append(float(np.max(np.abs(ret.x1 - exp.x1))))
    ratio = diffs[0] / diffs[1]
    assert 3.0 < ratio < 5.5, f"tau-halving ratio {ratio:.3f} not O(tau^2)"

    pm = HookeParams(v1_0=0.4, v2_0=0.1)
    coupled = simulate_spring(pm, SpringMode.INSTANTANEOUS, 4.0 * period, dt)
    split = center_of_mass_spring(pm, 4.0 * period, dt)
    cm_gap = float(max(np.max(np.abs(coupled.x1 - split.x1)),
                       np.max(np.abs(coupled.x2 - split.x2))))
    assert cm_gap <= 1.0e-6
    print(f"CRITERION 8 PASS: energy drift {drift:.3g} (< 1e-6) over 10 "
          f"periods, tau-halving ratio {ratio:.2f} (expected about 4), "
          f"center-of-mass form within {cm_gap:.3g} of the pairwise form")


def test_criterion_9_worker_determinism(tmp_path):
    base = dict(n_pairs=5000, master_seed=4242, mode=InformationMode.LOCAL)
    serial = run_epr(ExperimentConfig(workers=1, **base))
    threaded = run_epr(ExperimentConfig(workers=3, **base))
    doc_1 = report_json_dict(serial)
    doc_3 = report_json_dict(threaded)
    doc_1.pop("runtime_s")
    doc_3.pop("runtime_s")
    assert doc_1 == doc_3

    path_1 = tmp_path / "events_w1.csv"
    path_3 = tmp_path / "events_w3.csv"
    write_events_csv(serial, path_1)
    write_events_csv(threaded, path_3)
    assert path_1.read_bytes() == path_3.read_bytes()
    print("CRITERION 9 PASS: workers 1 and 3 produced identical reports "
          "(runtime aside) and byte-identical event logs at n = 5000")
