"""Run protocol, losses, CHSH bookkeeping, and count rates."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import bohm_epr.experiment as experiment_mod
from bohm_epr import (
    ConfigError,
    Efficiency,
    EstimationError,
    ExperimentConfig,
    InformationMode,
    IntegrationDiverged,
    Normalization,
    SettingTimelines,
    Side,
    SideTimeline,
    SwitchPolicy,
    chsh,
    count_rates,
    detector_loss,
    effective_settings,
    kick_ratio,
    quiescent_config,
    report_json_dict,
    run_epr,
    setting_timelines,
    static_timeline,
    survival,
    table1_run,
    write_events_csv,
)
from bohm_epr.cli import main
from bohm_epr.experiment import (
    CELL_LABELS,
    EVENT_HEADER,
    PairTable,
    _first_appearances,
    init_stream,
    lost_on_switch,
    pair_draws,
    pair_stream,
    prepare_pairs,
    run_batch,
    table1_configs,
    transport_views,
    view_systems,
)
from bohm_epr.integrate import integrate_retiring, sample_initial, sign_outcome
from bohm_epr.physconst import LIGHT_SPEED, SILVER, derive_coefficients
from bohm_epr.velocity import SettingPair

KICK_1E4 = 3.335555925431646e-07
KICK_1E7 = 3.3344448149383126e-04


@pytest.fixture(scope="module")
def small_nonlocal_report():
    cfg = ExperimentConfig(n_pairs=60, master_seed=101)
    return run_epr(cfg)


def test_kick_ratio_values():
    assert kick_ratio(1.0e4) == pytest.approx(KICK_1E4, rel=1e-12)
    assert kick_ratio(1.0e7) == pytest.approx(KICK_1E7, rel=1e-12)
    assert kick_ratio(LIGHT_SPEED, LIGHT_SPEED) == 0.5
    assert kick_ratio(2.998e10) == 0.5


def test_kick_ratio_validation():
    with pytest.raises(ConfigError):
        kick_ratio(0.0)
    with pytest.raises(ConfigError):
        kick_ratio(-1.0)
    with pytest.raises(ConfigError):
        kick_ratio(1.0, 0.0)
    with pytest.raises(ConfigError):
        kick_ratio(3.0e10, 2.998e10)
    with pytest.raises(ConfigError):
        kick_ratio(math.inf)


def test_kick_ratio_where_the_speeds_sum_past_the_float_range():
    # 1e308 + 1e308 and 9e307 + 1e308 overflow to inf, which gave a ratio of 0
    assert kick_ratio(1.0e308, 1.0e308) == 0.5
    assert kick_ratio(9.0e307, 1.0e308) == pytest.approx(9.0 / 19.0, rel=1e-15)
    assert kick_ratio(8.0e307, 9.0e307) == 8.0e307 / (8.0e307 + 9.0e307)


def test_a_run_where_the_speeds_sum_past_the_float_range_loses_switched_particles():
    # the kick is about 0.47, far above the threshold, so every switched
    # magnet loses its particle; an overflowed ratio of 0 lost none
    cfg = ExperimentConfig(physics=replace(SILVER, beam_speed=9.0e307, light_speed=1.0e308),
                           dt=3.0e-309, n_pairs=400, master_seed=3,
                           efficiency=Efficiency.INEFFICIENT)
    quiet = quiescent_config(cfg)
    # the baseline as run-epr --rates forms it
    rates = count_rates(run_epr(cfg), survival(quiet, setting_timelines(quiet)))
    assert (rates.q1, rates.c2) == (1.0, 1.0)
    assert (rates.q1p, rates.c2p) == (0.4675, 0.2075)


def test_detector_loss_truth_table(capsys):
    # efficient detection never loses
    assert detector_loss(True, Efficiency.EFFICIENT, 1.0e4, LIGHT_SPEED, 0.0)
    # an unswitched magnet never loses
    assert detector_loss(False, Efficiency.INEFFICIENT, 1.0e4, LIGHT_SPEED, 0.0)
    # silver kick is far below the default threshold
    assert detector_loss(True, Efficiency.INEFFICIENT, 1.0e4, LIGHT_SPEED, 1.0e-3)
    # a zero threshold makes every switched magnet lossy
    assert not detector_loss(True, Efficiency.INEFFICIENT, 1.0e4, LIGHT_SPEED, 0.0)
    # a fast beam crosses a realistic threshold
    assert not detector_loss(True, Efficiency.INEFFICIENT, 1.0e7, LIGHT_SPEED, 1.0e-4)
    # a threshold equal to the kick loses the particle and one ulp above it keeps it,
    # alike in the predicate, survival (inefficient, switching) and the kick-ratio command
    cfg = ExperimentConfig(n_pairs=8, efficiency=Efficiency.INEFFICIENT)
    v, c = cfg.physics.beam_speed, cfg.physics.light_speed
    kick = kick_ratio(v, c)
    switching = np.arange(cfg.n_pairs) % 2
    for threshold, lost in ((kick, True), (float(np.nextafter(kick, math.inf)), False)):
        assert lost_on_switch(Efficiency.INEFFICIENT, v, c, threshold) is lost
        assert detector_loss(True, Efficiency.INEFFICIENT, v, c, threshold) is not lost
        run = replace(cfg, kick_threshold=threshold)
        split = survival(run, setting_timelines(run, menu_draws=(switching, switching)))
        assert split.switched_a.any() and split.switched_b.any()
        assert np.array_equal(split.survived_a, ~(split.switched_a & lost))
        assert np.array_equal(split.survived_b, ~(split.switched_b & lost))
        assert main(["kick-ratio", "--speed", repr(v), "--light-speed", repr(c),
                     "--threshold", repr(threshold)]) == 0
        verdict = "lost" if lost else "kept"
        assert capsys.readouterr().out.endswith(f" -> {verdict} on switch (inefficient mode)\n")


def test_chsh_known_values():
    r = 1.0 / math.sqrt(2.0)
    s_signed, s_abs, sigma = chsh((-r, r, -r, -r), (1000, 1000, 1000, 1000))
    assert s_signed == pytest.approx(-2.0 * math.sqrt(2.0), rel=1e-15)
    assert s_abs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert sigma == pytest.approx(math.sqrt(4.0 * 0.5 / 1000.0), rel=1e-12)

    s_signed, s_abs, sigma = chsh((-1.0, 1.0, -1.0, -1.0), (10, 10, 10, 10))
    assert s_signed == -4.0 and s_abs == 4.0 and sigma == 0.0

    e = (-0.75, 0.5, -0.25, -0.5)
    n = (100, 200, 400, 800)
    s_signed, _, sigma = chsh(e, n)
    assert s_signed == pytest.approx(-2.0, rel=1e-15)
    expect = math.sqrt((1 - 0.5625) / 100 + (1 - 0.25) / 200
                       + (1 - 0.0625) / 400 + (1 - 0.25) / 800)
    assert sigma == pytest.approx(expect, rel=1e-14)


def test_chsh_names_empty_cell():
    with pytest.raises(EstimationError, match="cell ab'"):
        chsh((0.0, 0.0, 0.0, 0.0), (10, 0, 10, 10))
    with pytest.raises(EstimationError, match="cell a'b$"):
        chsh((0.0, 0.0, 0.0, 0.0), (10, 10, 0, 10))
    with pytest.raises(EstimationError, match="non-finite"):
        chsh((0.0, math.nan, 0.0, 0.0), (10, 10, 10, 10))
    with pytest.raises(EstimationError, match="^need exactly four correlator cells$"):
        chsh((0.0, 0.0, 0.0), (10, 10, 10))


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_pairs=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_pairs=3)
    with pytest.raises(ConfigError, match="at most 10000000"):
        ExperimentConfig(n_pairs=10**7 + 1)
    with pytest.raises(ConfigError, match="at most 10000000"):
        ExperimentConfig(n_pairs=10**12)
    assert ExperimentConfig(n_pairs=10**7).n_pairs == 10**7
    with pytest.raises(ConfigError):
        ExperimentConfig(angles_a=(0.5, 0.5))
    with pytest.raises(ConfigError):
        ExperimentConfig(angles_b=(0.1, math.nan))
    with pytest.raises(ConfigError):
        ExperimentConfig(workers=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kick_threshold=-1.0e-6)
    with pytest.raises(ConfigError):
        ExperimentConfig(pair_period=1.0e-3)   # shorter than flight + transit
    with pytest.raises(ConfigError):
        ExperimentConfig(switch_policy_a=SwitchPolicy.EXPLICIT_LIST)
    with pytest.raises(ConfigError):
        ExperimentConfig(explicit_a=((0.0, 0.3),))
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(master_seed=2**64)
    # 3e297 steps of transit: refused here, not stepped practically forever
    with pytest.raises(ConfigError, match="more than 10000000 steps"):
        ExperimentConfig(dt=1.0e-300)


def test_coarse_dt_rejected_at_construction():
    # 3 ms transit at dt = 1 ms is 3 steps; refused before any pair is prepared
    with pytest.raises(ConfigError, match="fewer than 10 steps"):
        ExperimentConfig(dt=1.0e-3, n_pairs=20000)
    with pytest.raises(ConfigError):
        ExperimentConfig(dt=1.0e-2)


def test_pair_streams_are_reproducible_and_distinct():
    a1 = pair_stream(7, 3).integers(0, 2**32, size=4)
    a2 = pair_stream(7, 3).integers(0, 2**32, size=4)
    b = pair_stream(7, 4).integers(0, 2**32, size=4)
    c = pair_stream(8, 3).integers(0, 2**32, size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    i1 = init_stream(7).integers(0, 2**32, size=2)
    i2 = init_stream(7).integers(0, 2**32, size=2)
    assert np.array_equal(i1, i2)


def _stream_draws(master_seed, n, packet_width):
    """What ``pair_draws`` must return, drawn pair by pair from ``pair_stream``."""
    columns = ([], [], [], [])
    for i in range(n):
        rng = pair_stream(master_seed, i)
        row = (int(rng.integers(0, 2)), int(rng.integers(0, 2)),
               *sample_initial(rng, packet_width))
        for column, value in zip(columns, row):
            column.append(value)
    return (np.array(columns[0], dtype=np.int64), np.array(columns[1], dtype=np.int64),
            np.array(columns[2]), np.array(columns[3]))


# one- and two-word seeds, at the edges of each
@pytest.mark.parametrize("master_seed", [0, 1, 101, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_pair_draws_match_pair_streams(master_seed):
    # 5000 pairs cross a block boundary of the seeding
    n = 5000
    widths = (1.0e-3, 0.37) if master_seed in (101, 2**64 - 1) else (1.0e-3,)
    for width in widths:
        got = pair_draws(master_seed, n, width)
        want = _stream_draws(master_seed, n, width)
        for name, g, w in zip(("a_rand", "b_rand", "z_l0", "z_r0"), got, want):
            assert g.dtype == w.dtype, name
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), name
        assert got[0].any() and not got[0].all() and got[1].any() and not got[1].all()
        # a shorter run draws the first rows of a longer one
        for k in (0, 1, 4097):
            prefix = pair_draws(master_seed, k, width)
            assert all(np.array_equal(p, g[:k]) for p, g in zip(prefix, got))


def test_pair_draws_never_runs_a_seed_sequence_per_pair(monkeypatch):
    # the SeedSequence hash is vectorised over the pair ids; running it per
    # pair in NumPy costs about 0.34 s at 20 000 pairs
    want = _stream_draws(101, 5000, 1.0e-3)

    def refuse(*args, **kwargs):
        raise AssertionError("pair_draws built a SeedSequence")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    got = pair_draws(101, 5000, 1.0e-3)
    assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in zip(got, want))
    # PCG64 reads the seed state raw, so the adapter serves only its request
    seed_state = experiment_mod._SeedState(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        seed_state.generate_state(8, np.uint32)
    assert seed_state.generate_state(4, np.uint64) is seed_state.words


def test_pair_draws_refuses_what_the_seeding_cannot_encode():
    with pytest.raises(ConfigError):
        pair_draws(2**64, 4, 1.0e-3)
    with pytest.raises(ValueError):
        pair_draws(1, experiment_mod._MAX_PAIRS + 1, 1.0e-3)


def _split_views(table):
    """Per pair: whether the two observers attribute different setting pairs."""
    return (table.a_seen_by_b != table.setting_a) | (table.b_seen_by_a != table.setting_b)


def test_smoke_run_invariants(small_nonlocal_report):
    report = small_nonlocal_report
    cfg = report.config
    t = report.records
    assert len(t) == cfg.n_pairs
    assert set(t.outcome_a.tolist()) <= {-1, 1} and set(t.outcome_b.tolist()) <= {-1, 1}
    assert report.coincidences == int((t.survived_a & t.survived_b).sum())
    assert set(t.setting_a.tolist()) <= set(cfg.angles_a)
    assert set(t.setting_b.tolist()) <= set(cfg.angles_b)
    assert np.array_equal(np.array(cfg.angles_a)[t.a_index], t.setting_a)
    assert np.array_equal(np.array(cfg.angles_b)[t.b_index], t.setting_b)
    # nonlocal attributions always coincide
    assert not _split_views(t).any()
    # efficient detection keeps everything
    assert t.survived_a.all() and t.survived_b.all()
    assert report.singles_a == cfg.n_pairs
    assert report.singles_b == cfg.n_pairs
    assert report.coincidences == cfg.n_pairs
    assert sum(report.cell_launches) == cfg.n_pairs
    assert report.bell is not None
    assert all(-1.0 <= e <= 1.0 for e in report.bell.e_values)
    recomputed = math.sqrt(sum(
        (1.0 - e * e) / n
        for e, n in zip(report.bell.e_values, report.bell.n_values)))
    assert report.bell.sigma_s == pytest.approx(recomputed, rel=1e-14)


def test_run_is_reproducible():
    cfg = ExperimentConfig(n_pairs=50, master_seed=33)
    r1 = run_epr(cfg)
    r2 = run_epr(cfg)
    assert r1.records == r2.records
    assert r1.bell == r2.bell
    r3 = run_epr(ExperimentConfig(n_pairs=50, master_seed=34))
    assert r3.records != r1.records


def test_local_mode_diverges_from_nonlocal_under_slow_news():
    base = dict(n_pairs=80, master_seed=55)
    local = run_epr(ExperimentConfig(mode=InformationMode.LOCAL, **base))
    nonlocal_ = run_epr(ExperimentConfig(mode=InformationMode.NONLOCAL, **base))
    assert _split_views(local.records).any(), "slow news should desynchronize some attributions"
    outcomes_l = np.stack((local.records.outcome_a, local.records.outcome_b))
    outcomes_n = np.stack((nonlocal_.records.outcome_a, nonlocal_.records.outcome_b))
    assert not np.array_equal(outcomes_l, outcomes_n)


MENU_A = ExperimentConfig().angles_a
MENU_B = ExperimentConfig().angles_b


@st.composite
def switch_policies(draw, n, latest=10.5e-3):
    """Both sides' switch policies, as config fields for n pairs.

    An explicit list holds the menu angles plus one off-menu angle and
    switches inside the run: a switch after launch k lands 7 ms to
    ``latest`` later. At the default bench that is clear of every transit
    (3.5-6.5 ms after a launch) and of the news window of each (the
    transit 12.5 ms earlier), which prepare_pairs refuses.
    """
    fields = {}
    for side, menu in (("a", MENU_A), ("b", MENU_B)):
        policy = draw(st.sampled_from(SwitchPolicy))
        fields[f"switch_policy_{side}"] = policy
        if policy is SwitchPolicy.EXPLICIT_LIST:
            pool = (*menu, 0.3)
            times = sorted({k * 1.0e-2 + phase for k, phase in draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.floats(7.0e-3, latest)), max_size=4))})
            entries = [(-math.inf, draw(st.sampled_from(pool)))]
            for t in times:
                entries.append((t, draw(st.sampled_from(
                    [a for a in pool if a != entries[-1][1]]))))
            fields[f"explicit_{side}"] = tuple(entries)
    return fields


@st.composite
def fast_news_configs(draw):
    """Configs of any switch policies, with news faster than the flight."""
    base = ExperimentConfig()
    signal_speed = draw(st.floats(base.separation / base.flight_time, exclude_min=True,
                                  allow_infinity=False))
    assume(base.separation / signal_speed < base.flight_time)
    n = draw(st.integers(4, 60))
    return ExperimentConfig(
        n_pairs=n,
        master_seed=draw(st.integers(0, 2**64 - 1)),
        efficiency=draw(st.sampled_from(Efficiency)),
        kick_threshold=0.0,
        signal_speed=signal_speed,
        # fast news reads the partner up to 3.5 ms after a launch, so a
        # switch lands before the next launch, not up to 0.5 ms after it
        **draw(switch_policies(n, latest=9.5e-3)),
    )


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fast_news_configs())
@example(ExperimentConfig(n_pairs=40, master_seed=19, signal_speed=LIGHT_SPEED))
# a news delay one ulp below the flight time
@example(ExperimentConfig(n_pairs=60, master_seed=0, signal_speed=math.nextafter(
    ExperimentConfig().separation / ExperimentConfig().flight_time, math.inf)))
def test_local_mode_with_lightspeed_news_matches_nonlocal(cfg):
    # switches happen only at launches, so news that lands before the
    # magnet entry is current there
    assert cfg.separation / cfg.signal_speed < cfg.flight_time
    local = run_epr(replace(cfg, mode=InformationMode.LOCAL))
    nonlocal_ = run_epr(replace(cfg, mode=InformationMode.NONLOCAL))
    assert local.records == nonlocal_.records
    docs = [report_json_dict(report) for report in (local, nonlocal_)]
    for doc in docs:
        doc.pop("runtime_s")
        doc["config_echo"].pop("mode")
    assert docs[0] == docs[1]


def test_inefficient_rows_agree_across_modes():
    # with full losses only unswitched pairs survive; for those the stale
    # partner setting equals the current one, so both modes integrate the
    # same systems and the estimates agree bit for bit
    common = dict(n_pairs=200, master_seed=77,
                  efficiency=Efficiency.INEFFICIENT,
                  normalization=Normalization.COINCIDENCES,
                  kick_threshold=0.0)
    local = run_epr(ExperimentConfig(mode=InformationMode.LOCAL, **common))
    nonlocal_ = run_epr(ExperimentConfig(mode=InformationMode.NONLOCAL, **common))
    assert local.coincidences == nonlocal_.coincidences
    assert local.coincidences < 200     # losses actually happened
    assert local.bell == nonlocal_.bell


def test_normalization_conventions_are_consistent():
    common = dict(n_pairs=200, master_seed=88,
                  efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0)
    by_coinc = run_epr(ExperimentConfig(
        normalization=Normalization.COINCIDENCES, **common))
    by_singles = run_epr(ExperimentConfig(
        normalization=Normalization.SINGLES, **common))
    assert by_coinc.cell_sums == by_singles.cell_sums
    assert by_coinc.cell_counts == by_singles.cell_counts
    for i in range(4):
        e_c = by_coinc.bell.e_values[i]
        e_s = by_singles.bell.e_values[i]
        launches = by_singles.cell_launches[i]
        counts = by_singles.cell_counts[i]
        assert by_coinc.bell.n_values[i] == counts
        assert by_singles.bell.n_values[i] == launches
        assert e_s == pytest.approx(e_c * counts / launches, rel=1e-12, abs=1e-15)


def test_worker_count_cannot_change_results(monkeypatch):
    monkeypatch.setattr(experiment_mod, "_BATCH_CHUNK", 16)
    base = dict(n_pairs=120, master_seed=404, mode=InformationMode.LOCAL)
    serial = run_epr(ExperimentConfig(workers=1, **base))
    threaded = run_epr(ExperimentConfig(workers=4, **base))
    doc_1 = report_json_dict(serial)
    doc_4 = report_json_dict(threaded)
    doc_1.pop("runtime_s")
    doc_4.pop("runtime_s")
    assert doc_1 == doc_4
    assert serial.records == threaded.records


def test_static_run_has_no_bell_estimate():
    cfg = ExperimentConfig(
        n_pairs=50, master_seed=3,
        switch_policy_a=SwitchPolicy.STATIC, switch_policy_b=SwitchPolicy.STATIC)
    report = run_epr(cfg)
    assert not report.switching_active
    assert report.bell is None
    assert report.cell_launches[0] == 50
    assert report.cell_launches[1:] == (0, 0, 0)
    with pytest.raises(EstimationError, match="cell ab'"):
        report.correlator(1)
    e, n = report.correlator(0)
    assert n == 50 and -1.0 <= e <= 1.0


def test_quiescent_config_parks_both_sides():
    cfg = ExperimentConfig(n_pairs=10, master_seed=1)
    quiet = quiescent_config(cfg)
    assert quiet.switch_policy_a is SwitchPolicy.STATIC
    assert quiet.switch_policy_b is SwitchPolicy.STATIC
    assert not quiet.switching_active
    assert quiet.master_seed == cfg.master_seed


def test_count_rates_bookkeeping():
    common = dict(n_pairs=500, master_seed=909,
                  efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0,
                  normalization=Normalization.COINCIDENCES)
    switched = run_epr(ExperimentConfig(**common))
    baseline = run_epr(quiescent_config(ExperimentConfig(**common)))
    rates = count_rates(switched, baseline)
    # a parked bench loses nothing
    assert rates.q1 == 1.0 and rates.c2 == 1.0
    assert rates.q1_a == 1.0 and rates.q1_b == 1.0
    # each side keeps roughly the pairs whose setting repeated
    assert 0.4 < rates.q1p < 0.6
    assert 0.15 < rates.c2p < 0.35
    assert rates.singles_ratio == rates.q1p / rates.q1
    assert rates.coincidence_ratio == rates.c2p / rates.c2


def test_count_rates_one_sided_switching():
    cfg = ExperimentConfig(
        n_pairs=400, master_seed=505,
        efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0,
        switch_policy_b=SwitchPolicy.STATIC)
    switched = run_epr(cfg)
    baseline = run_epr(quiescent_config(cfg))
    rates = count_rates(switched, baseline)
    # the parked side never loses a particle, so coincidences track the
    # switching side exactly
    assert rates.q1p_b == 1.0
    assert rates.c2p == rates.q1p_a
    assert 0.38 < rates.q1p_a < 0.62


def test_count_rates_require_a_quiet_baseline():
    cfg = ExperimentConfig(n_pairs=50, master_seed=2)
    report = run_epr(cfg)
    with pytest.raises(EstimationError):
        count_rates(report, report)     # baseline has switching enabled
    with pytest.raises(EstimationError):
        count_rates(report, None)


def test_explicit_switch_lists():
    cfg = ExperimentConfig(
        n_pairs=4, master_seed=12,
        switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
        explicit_a=((-1.0, 0.3), (8.0e-3, 0.9)),
        switch_policy_b=SwitchPolicy.STATIC)
    prepared = prepare_pairs(cfg)
    # pair 0 is in the magnets from 3.5 to 6.5 ms, before the 8 ms switch
    assert prepared.setting_a[0] == 0.3
    assert not prepared.switched_a[0]
    # pair 1 launches at 10 ms, well after the switch: sees 0.9, unswitched
    assert prepared.setting_a[1] == 0.9
    assert not prepared.switched_a[1]
    # off-menu angles are excluded from the correlator cells
    assert prepared.a_index[0] == -1
    assert prepared.b_index[0] == 0
    report = run_epr(cfg)
    assert report.bell is None


@pytest.mark.parametrize("mode, switch_at, message", [
    # pair 0 is in the magnets from 3.5 to 6.5 ms
    (InformationMode.NONLOCAL, 5.5e-3, r"pair 0: analyzer A switches inside its magnet "
                                       r"transit \(0\.0035, 0\.0065\d*\) s"),
    # news of a 12 ms switch takes 12.5 ms and reaches B at 24.5 ms, inside
    # pair 2's transit from 23.5 to 26.5 ms; pair 1 launched before the switch
    (InformationMode.LOCAL, 12.0e-3, r"pair 2: news of analyzer A's switch reaches side B "
                                     r"inside its magnet transit \(0\.0235, 0\.0265\d*\) s"),
])
def test_switch_inside_a_transit_is_refused(mode, switch_at, message):
    cfg = ExperimentConfig(
        n_pairs=4, master_seed=12, mode=mode,
        switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
        explicit_a=((-1.0, 0.0), (switch_at, math.pi / 2.0)),
        switch_policy_b=SwitchPolicy.STATIC)
    with pytest.raises(ConfigError, match=message):
        prepare_pairs(cfg)
    with pytest.raises(ConfigError, match=message):
        run_epr(cfg)
    # a switch at pair 0's entry instant is read there, so it is accepted
    entry = replace(cfg, mode=InformationMode.NONLOCAL,
                    explicit_a=((-1.0, 0.0), (3.5e-3, math.pi / 2.0)))
    assert prepare_pairs(entry).setting_a[0] == math.pi / 2.0


@pytest.mark.parametrize("explicit", [False, True])
def test_a_shorter_run_prepares_the_first_rows_of_a_longer_one(monkeypatch, explicit):
    lists = dict(
        switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
        explicit_a=((-math.inf, 0.0), (0.0205, math.pi / 2.0), (0.047, 0.0)),
    ) if explicit else {}
    cfg = ExperimentConfig(n_pairs=300, master_seed=58, mode=InformationMode.LOCAL,
                           efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0,
                           **lists)
    full = prepare_pairs(cfg)
    drawn = []
    real = experiment_mod.pair_draws

    def counting(master_seed, n, packet_width):
        drawn.extend(range(n))
        return real(master_seed, n, packet_width)

    monkeypatch.setattr(experiment_mod, "pair_draws", counting)
    k = 7
    prefix = prepare_pairs(replace(cfg, n_pairs=k))
    assert drawn == list(range(k))
    assert prefix == PairTable(**{name: column[:k] for name, column in vars(full).items()
                                  if column is not None})
    # local mode reads news of earlier launches, and pairs get lost
    assert _split_views(prefix).any()
    assert not (prefix.survived_a & prefix.survived_b).all()


def test_pair_period_must_cover_the_transit_that_runs():
    # dt = 0.7 us rounds the 3 ms transit to 4286 steps, 3.0002 ms; a period
    # that covers only 3 ms would put the next launch's switch inside it
    with pytest.raises(ConfigError, match=r"pair_period must cover .* \(0\.0065002 s\)"):
        ExperimentConfig(n_pairs=8, dt=0.7e-6, pair_period=0.006500000000000001)


@pytest.mark.parametrize("static", [False, True])
@pytest.mark.parametrize("fields, pair", [
    # exactly the default cover: the float launches drift below it
    (dict(pair_period=0.006500000000000001), 6),
    # the cover of a 0.7 us grid, 3.0002 ms of transit
    (dict(dt=0.7e-6, pair_period=0.0065002), 5),
    # 116 ulps above the default cover
    (dict(pair_period=0.0065000000000001), 1233),
])
def test_pair_period_must_cover_every_launch_in_the_run_arithmetic(monkeypatch, static,
                                                                   fields, pair):
    policies = dict(switch_policy_a=SwitchPolicy.STATIC,
                    switch_policy_b=SwitchPolicy.STATIC) if static else {}
    cfg = ExperimentConfig(n_pairs=4000, master_seed=3, **fields, **policies)
    monkeypatch.setattr(experiment_mod, "transport_views", mock.Mock(
        side_effect=AssertionError("transported")))
    message = (rf"^pair_period must cover flight plus magnet transit: pair {pair} leaves "
               rf"its magnets at [0-9.]+ s, after launch {pair + 1} at [0-9.]+ s$")
    for call in (prepare_pairs, run_epr):
        with pytest.raises(ConfigError, match=message):
            call(cfg)


@pytest.mark.parametrize("static", [False, True])
def test_pair_period_whose_launches_overflow_is_refused(static):
    policies = dict(switch_policy_a=SwitchPolicy.STATIC,
                    switch_policy_b=SwitchPolicy.STATIC) if static else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"pair_period .* overflows"):
            ExperimentConfig(pair_period=1.0e308, **policies)


def test_local_read_before_an_explicit_list_starts_names_the_list():
    # side B reads A at launch + flight - news delay, 9 ms before pair 0's launch
    cfg = ExperimentConfig(n_pairs=8, mode=InformationMode.LOCAL,
                           switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
                           explicit_a=((0.0, 0.0), (0.05, math.pi / 2.0)))
    with pytest.raises(ConfigError, match=r"^explicit_a must start at or before "
                                          r"t = -0\.009000000000000001 s, where side B "
                                          r"reads it for pair 0 in local mode$"):
        prepare_pairs(cfg)
    # the same list started in time is read as written
    early = replace(cfg, explicit_a=((-0.01, 0.0), (0.05, math.pi / 2.0)))
    assert prepare_pairs(early).a_seen_by_b[0] == 0.0
    # in nonlocal mode every read falls at or after magnet entry
    assert prepare_pairs(replace(cfg, mode=InformationMode.NONLOCAL)).setting_a[0] == 0.0


def test_a_library_query_before_a_list_starts_names_its_mode():
    # effective_settings is one launch of entry_reads, so it refuses what a run would
    tls = SettingTimelines(side_a=SideTimeline(entries=((-0.05, 0.7),)),
                           side_b=static_timeline(0.0), separation=1.0, signal_speed=10.0)
    for side in Side:
        with pytest.raises(ConfigError, match=r"^explicit_a must start at or before t = -0\.1 s, "
                                              r"where side B reads it for pair 0 in local mode$"):
            effective_settings(side, 0.0, tls, InformationMode.LOCAL)
        assert effective_settings(side, 0.0, tls, InformationMode.NONLOCAL).angle_a == 0.7
    with pytest.raises(ConfigError, match=r"^explicit_a must start at or before t = -0\.6 s, "
                                          r"where side B reads it for pair 0 in nonlocal mode$"):
        effective_settings(Side.L, -0.6, tls, InformationMode.NONLOCAL)


def _launch_list(menu, draws, period):
    """An explicit list that takes menu[draws[k]] at launch k, from t = -0.01 s on.

    -0.01 s precedes pair 0's local read of its partner at -9 ms.
    """
    angles = np.array(menu)[draws]
    times = np.arange(len(draws), dtype=float) * period
    times[0] = -0.01
    keep = np.append(True, angles[1:] != angles[:-1])
    return tuple(zip(times[keep].tolist(), angles[keep].tolist()))


@pytest.mark.parametrize("flipped, far, seen", [("B", "a", "b_seen_by_a"),
                                                 ("A", "b", "a_seen_by_b")])
def test_a_partner_switch_after_the_news_horizon_moves_no_outcome(flipped, far, seen):
    # Both sides run explicit lists of per-launch menu draws. Flipping one
    # side's angle at launches K = 3, 8, ..., 398 cannot reach the far
    # side's pair K in local mode: its partner read falls 9 ms before
    # launch K (12.5 ms of news against a 10 ms period), so pair K's far
    # outcome stays bit for bit. Pair K + 1 reads launch K and may move.
    n, seed = 400, 11
    bench = ExperimentConfig(n_pairs=n, master_seed=seed, mode=InformationMode.LOCAL,
                             switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
                             switch_policy_b=SwitchPolicy.EXPLICIT_LIST,
                             explicit_a=((-math.inf, 0.0),), explicit_b=((-math.inf, 0.0),))
    ks = np.arange(3, n, 5)
    lists = {}
    for side, menu, drawn in zip("AB", (bench.angles_a, bench.angles_b),
                                 pair_draws(seed, n, bench.physics.packet_width)[:2]):
        flip = drawn.copy()
        if side == flipped:
            flip[ks] = 1 - flip[ks]
        lists[side] = [_launch_list(menu, d, bench.pair_period) for d in (drawn, flip)]
    moved = {}
    for label, fields in (("local", {}),
                          ("inefficient", dict(efficiency=Efficiency.INEFFICIENT,
                                               kick_threshold=0.0)),
                          ("nonlocal", dict(mode=InformationMode.NONLOCAL))):
        before, after = (run_epr(replace(bench, explicit_a=lists["A"][k],
                                         explicit_b=lists["B"][k], **fields)).records
                         for k in (0, 1))
        outcome = [getattr(r, f"outcome_{far}") for r in (before, after)]
        moved[label] = [int((outcome[0][j] != outcome[1][j]).sum()) for j in (ks, ks[:-1] + 1)]
        if label != "nonlocal":
            assert np.array_equal(outcome[0][ks], outcome[1][ks])
            assert np.array_equal(getattr(before, seen)[ks], getattr(after, seen)[ks])
            assert np.array_equal(getattr(before, f"survived_{far}"),
                                  getattr(after, f"survived_{far}"))
    # the flips do reach pair K + 1 in local mode ...
    assert moved["local"][1] > 0
    # ... and pair K itself in nonlocal mode, so the test can fail
    assert moved["nonlocal"][0] > 0


def test_initial_positions_are_independent_of_the_menu_draws():
    # measurement independence: in every (a_rand, b_rand) cell both packets
    # keep mean 0 and sd packet_width, within 4 sigma of each estimate
    width = ExperimentConfig().physics.packet_width
    a_rand, b_rand, z_l0, z_r0 = pair_draws(2024, 100_000, width)
    for i in (0, 1):
        for j in (0, 1):
            cell = (a_rand == i) & (b_rand == j)
            n = int(cell.sum())
            assert n > 20_000
            for z in (z_l0[cell], z_r0[cell]):
                assert abs(z.mean()) < 4.0 * width / math.sqrt(n)
                assert abs(z.std(ddof=1) - width) < 4.0 * width / math.sqrt(2 * (n - 1))


@pytest.mark.parametrize("mode", list(InformationMode))
def test_each_sides_marginal_is_one_half_in_every_cell(mode):
    # no-signalling: the guidance law is odd under z -> -z and the Born
    # packets are symmetric, so P(o = +1 | a, b) = 1/2 on both sides
    for seed in (1, 2, 3):
        t = run_epr(ExperimentConfig(n_pairs=2000, master_seed=seed, mode=mode)).records
        for i in (0, 1):
            for j in (0, 1):
                cell = (t.a_index == i) & (t.b_index == j)
                for outcome in (t.outcome_a[cell], t.outcome_b[cell]):
                    n = outcome.size
                    assert n > 0 and (outcome != 0).all()
                    assert abs((outcome == 1).sum() - n / 2) < 4.0 * math.sqrt(n / 4)


def test_view_weights_are_keyed_by_angle_difference():
    q = math.pi / 4.0
    # (A view, B view) of each pair: views that share an angle difference
    # but not their angles, zero differences of both signs, a pair whose
    # views agree, and differences in an order unlike the pairs'; only
    # pair 6's views give different weights
    views = [((0.0, q), (2.0 * q, 3.0 * q)),
             ((2.0 * q, 3.0 * q), (0.0, q)),
             ((0.0, 0.0), (-0.0, 0.0)),
             ((1.0, 1.0), (0.0, -0.0)),
             ((0.3, 0.3 + q), (0.3, 0.3 + q)),
             ((q, 0.0), (3.0 * q, 2.0 * q)),
             ((-0.0, -0.0), (2.0 * q, 0.0))]
    n = len(views)
    (a_a, b_a), (a_b, b_b) = (np.array(column).T for column in zip(*views))
    flags = np.zeros(n, dtype=bool)
    table = PairTable(pair_id=np.arange(n), z_l0=np.linspace(-1.0e-3, 1.0e-3, n),
                      z_r0=np.linspace(2.0e-3, -2.0e-3, n), setting_a=a_a, setting_b=b_b,
                      a_index=np.zeros(n, dtype=int), b_index=np.zeros(n, dtype=int),
                      b_seen_by_a=b_a, a_seen_by_b=a_b, switched_a=flags, switched_b=flags,
                      survived_a=~flags, survived_b=~flags)
    rows = view_systems(table)
    assert rows.shape == (2 * n, 4)
    for k, view_angles in enumerate(views):
        for row, (a, b) in zip(rows[2 * k:2 * k + 2], view_angles):
            assert row[2:].tobytes() == np.array(SettingPair(a, b).weights()).tobytes()
            assert (row[0], row[1]) == (table.z_l0[k], table.z_r0[k])
    # a pair's views share a system unless their weights differ
    z_l, _, [systems] = transport_views([table], [ExperimentConfig(n_pairs=n)])
    assert len(z_l) == n + 1
    assert (systems[:, 1] - systems[:, 0]).tolist() == [0, 0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("master_seed", [1, 2, 3])
def test_mirrored_pairs_transport_to_mirrored_exits(master_seed):
    # swapping the sides of every pair, views included, exchanges the two
    # particles and the two views: dual views and retirement keep the mirror
    cfg = ExperimentConfig(n_pairs=300, master_seed=master_seed, mode=InformationMode.LOCAL)
    table = prepare_pairs(cfg)
    assert _split_views(table).mean() > 0.5
    mirror = replace(table, z_l0=table.z_r0, z_r0=table.z_l0,
                     setting_a=table.setting_b, setting_b=table.setting_a,
                     b_seen_by_a=table.a_seen_by_b, a_seen_by_b=table.b_seen_by_a)
    z_l, z_r, [views] = transport_views([table], [cfg])
    m_l, m_r, [m_views] = transport_views([mirror], [cfg])
    for mine, theirs in ((m_views[:, 0], views[:, 1]), (m_views[:, 1], views[:, 0])):
        assert m_l[mine].tobytes() == z_r[theirs].tobytes()
        assert m_r[mine].tobytes() == z_l[theirs].tobytes()


def test_explicit_list_validation_happens_at_run_time():
    cfg = ExperimentConfig(
        n_pairs=4, master_seed=12,
        switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
        explicit_a=((0.5, 0.3),))        # first entry after t = 0
    with pytest.raises(ConfigError):
        prepare_pairs(cfg)


def test_config_echo_shape():
    cfg = ExperimentConfig(n_pairs=8, master_seed=5)
    doc = cfg.to_dict()
    assert doc["n_pairs"] == 8
    assert doc["mode"] == "nonlocal"
    assert doc["switch_policy_a"] == "per_pair_random"
    # execution knobs stay out of the physical echo
    assert "workers" not in doc
    json.dumps(doc)   # must be serializable as is


def test_report_json_exact_keys(small_nonlocal_report):
    doc = report_json_dict(small_nonlocal_report)
    assert set(doc) == {
        "config_echo", "per_setting", "S_signed", "S_abs", "sigma_S",
        "Q1", "Q1p", "C2", "C2p", "runtime_s", "seed",
    }
    assert set(doc["per_setting"]) == set(CELL_LABELS)
    for cell in doc["per_setting"].values():
        assert set(cell) == {"E", "N"}
    assert doc["seed"] == 101
    assert doc["S_abs"] == abs(doc["S_signed"])
    assert doc["Q1"] is None    # no baseline attached
    json.dumps(doc)


def test_events_csv_format(small_nonlocal_report, tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(small_nonlocal_report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == EVENT_HEADER
    assert len(lines) == 1 + small_nonlocal_report.config.n_pairs
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) in small_nonlocal_report.config.angles_a
    assert int(first[5]) in (-1, 1) and int(first[6]) in (-1, 1)
    assert first[7] in ("0", "1") and first[8] in ("0", "1")
    # angles are formatted once per bit pattern, so -0.0 keeps its sign
    t = small_nonlocal_report.records
    signed = np.where(np.arange(len(t)) % 2 == 0, 0.0, -0.0)
    write_events_csv(replace(small_nonlocal_report, records=replace(t, setting_a=signed)), path)
    angles = [line.split(",")[1] for line in path.read_text().splitlines()[1:4]]
    assert angles == ["0.0", "-0.0", "0.0"]


def test_table1_structure():
    rows = table1_run(master_seed=2024, n_pairs=60)
    assert [r.label for r in rows] == [
        "local/singles/efficient",
        "local/coincidences/inefficient",
        "nonlocal/singles/efficient",
        "nonlocal/coincidences/inefficient",
    ]
    assert rows[1].seed == rows[3].seed
    assert rows[0].seed != rows[2].seed
    assert rows[1].bell == rows[3].bell
    for row in rows:
        assert abs(row.bell.s_signed) <= 4.0
        assert row.bell.s_abs == abs(row.bell.s_signed)


# sha256 of report.json (without runtime_s) and of events.csv for three
# 200-pair runs; both files hold only angles, integer outcomes and ratios
# of integer counts, so they pin the whole per-pair path bit for bit
GOLDEN_RUNS = {
    "nonlocal_efficient": (
        dict(master_seed=2718),
        "3e2f6bc6ef6273076318e1306fd60a569f6cf0a5633ba6b73eb22a98b8028469",
        "af4c5df0fa58b7386f5d5de424af9430cf286e1b83523fcc45277d3ef8a0db2e"),
    "local_inefficient_rates": (
        dict(master_seed=3141, mode=InformationMode.LOCAL,
             efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0,
             normalization=Normalization.COINCIDENCES),
        "f20973446b2f703488736b7492566891055063898a89be35e42575863796198e",
        "b43aa51b74843a42952c78f0e74a59dc8f13402e5f5123e9b0695b65b1d52b3e"),
    "explicit_off_menu": (
        dict(master_seed=1618, mode=InformationMode.LOCAL,
             switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
             explicit_a=((-math.inf, 0.0), (0.6, 0.3), (1.2, math.pi / 2.0))),
        "b83b09ca234f4478316d692ff094f26c041dda166d99ef780ce7856758f809b8",
        "abfd0e1c40388dd1974ced925f20d1dd23cca6ee9fcdca9f0b765f5cd6d80fea"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_report_and_events(name, tmp_path):
    fields, report_sha, events_sha = GOLDEN_RUNS[name]
    cfg = ExperimentConfig(n_pairs=200, **fields)
    report = run_epr(cfg)
    if name == "local_inefficient_rates":
        # attached as run-epr --rates does
        rates = count_rates(report, run_epr(quiescent_config(cfg)))
        report = replace(report, rates=rates)
    # explicit_a parks side A on 0.3, off its menu, for 60 of the 200 pairs
    assert report.off_menu == (60 if name == "explicit_off_menu" else 0)
    doc = report_json_dict(report)
    doc.pop("runtime_s")
    path = tmp_path / "events.csv"
    write_events_csv(report, path)
    assert hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest() == report_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == events_sha


@st.composite
def small_configs(draw):
    n = draw(st.integers(4, 60))
    fields = dict(
        n_pairs=n,
        master_seed=draw(st.integers(0, 2**32)),
        mode=draw(st.sampled_from(InformationMode)),
        efficiency=draw(st.sampled_from(Efficiency)),
        normalization=draw(st.sampled_from(Normalization)),
        kick_threshold=0.0,
    )
    return ExperimentConfig(**fields, **draw(switch_policies(n)))


def _leaves(doc):
    if isinstance(doc, dict):
        return [leaf for value in doc.values() for leaf in _leaves(value)]
    if isinstance(doc, list):
        return [leaf for value in doc for leaf in _leaves(value)]
    return [doc]


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_aggregation_matches_a_recount_at_every_chunk_size(cfg):
    docs = []
    for chunk in (1, 7, 4096):
        with mock.patch.object(experiment_mod, "_BATCH_CHUNK", chunk):
            report = run_epr(cfg)
        t = report.records
        rows = list(zip(*(column.tolist() for column in (
            t.a_index, t.b_index, t.survived_a, t.survived_b, t.outcome_a, t.outcome_b))))
        launches, counts, sums = [0] * 4, [0] * 4, [0] * 4
        for a_index, b_index, survived_a, survived_b, outcome_a, outcome_b in rows:
            assert outcome_a in (-1, 1) and outcome_b in (-1, 1)
            if a_index >= 0 and b_index >= 0:
                cell = 2 * a_index + b_index
                launches[cell] += 1
                if survived_a and survived_b:
                    counts[cell] += 1
                    sums[cell] += outcome_a * outcome_b
        assert report.cell_launches == tuple(launches)
        assert report.cell_counts == tuple(counts)
        assert report.cell_sums == tuple(sums)
        assert report.singles_a == sum(row[2] for row in rows)
        assert report.singles_b == sum(row[3] for row in rows)
        assert report.coincidences == sum(row[2] and row[3] for row in rows)
        doc = report_json_dict(report)
        doc.pop("runtime_s")
        assert all(type(leaf) in (int, float, str, type(None)) for leaf in _leaves(doc))
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs().map(lambda cfg: replace(cfg, mode=InformationMode.LOCAL)))
def test_a_pair_has_two_systems_iff_its_views_weigh_differently(cfg):
    table = prepare_pairs(cfg)
    views = [[SettingPair(a, b).weights() for a, b in zip(a_col.tolist(), b_col.tolist())]
             for a_col, b_col in ((table.setting_a, table.b_seen_by_a),
                                  (table.a_seen_by_b, table.setting_b))]
    a_w, b_w = (np.array(w).reshape(-1, 2) for w in views)
    differ = np.array([a.tobytes() != b.tobytes() for a, b in zip(a_w, b_w)], dtype=int)
    # the distinct systems are, in order, each pair's A view and then its
    # B view when that differs: the layout the transport's blocks follow
    a_sys = np.cumsum(1 + differ) - 1 - differ
    systems = transport_views([table], [cfg])[2][0]
    assert systems.tolist() == np.column_stack((a_sys, a_sys + differ)).tolist()
    # the oracle transports every view as a system of its own
    z_l, z_r = integrate_retiring(np.tile(table.z_l0, 2), np.tile(table.z_r0, 2),
                                  *np.concatenate((a_w, b_w)).T,
                                  derive_coefficients(cfg.physics), cfg.transport_grid())
    n = len(table)
    report = run_epr(cfg)
    assert report.records.outcome_a.tobytes() == sign_outcome(z_l[:n]).tobytes()
    assert report.records.outcome_b.tobytes() == sign_outcome(z_r[n:]).tobytes()


def _report_text(report):
    doc = report_json_dict(report)
    doc.pop("runtime_s")
    return json.dumps(doc, indent=2)


def _run_bytes(report, path):
    write_events_csv(report, path)
    return _report_text(report), path.read_bytes()


MIXED_BATCH = [
    ExperimentConfig(n_pairs=90, master_seed=5, mode=InformationMode.LOCAL),
    ExperimentConfig(n_pairs=60, master_seed=6),
    ExperimentConfig(n_pairs=90, master_seed=5, mode=InformationMode.LOCAL,
                     efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0,
                     normalization=Normalization.COINCIDENCES),
    ExperimentConfig(n_pairs=40, master_seed=7, mode=InformationMode.LOCAL,
                     switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
                     explicit_a=((-math.inf, 0.0), (0.107, 0.3), (0.208, math.pi / 2.0))),
    ExperimentConfig(n_pairs=60, master_seed=6),
]


@pytest.mark.parametrize("configs", [
    *(table1_configs(seed, 150) for seed in (0, 101, 614)),
    MIXED_BATCH,
], ids=["table1-0", "table1-101", "table1-614", "mixed"])
def test_batched_runs_equal_single_runs(configs, tmp_path):
    batch = run_batch(configs)
    alone = [run_epr(cfg) for cfg in configs]
    selected = run_batch(configs, every_outcome=False)
    for k, (together, single, chosen) in enumerate(zip(batch, alone, selected)):
        assert together.config == chosen.config == configs[k]
        assert _run_bytes(together, tmp_path / "batch.csv") == \
            _run_bytes(single, tmp_path / "alone.csv")
        # transporting only the counted pairs leaves every statistic as it is
        assert _report_text(chosen) == _report_text(together)
        counted = experiment_mod._counted(together.records)
        for side in ("outcome_a", "outcome_b"):
            got, full = getattr(chosen.records, side), getattr(together.records, side)
            assert got[counted].tobytes() == full[counted].tobytes()
            assert not got[~counted].any()
    # one transport for the batch, of each distinct system once
    assert len({report.systems for report in batch}) == 1
    distinct = set()
    for cfg in configs:
        distinct.update(row.tobytes() for row in view_systems(prepare_pairs(cfg)))
    assert batch[0].systems == len(distinct) < sum(report.systems for report in alone)
    if configs is not MIXED_BATCH:
        # the lossy rows count about one pair in four
        assert selected[0].systems < batch[0].systems


def test_a_batch_draws_each_shared_seed_once(monkeypatch):
    calls = []
    real = experiment_mod.pair_draws

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiment_mod, "pair_draws", counting)
    configs = table1_configs(7, 100)
    run_batch(configs, every_outcome=False)
    # the two inefficient rows differ only in mode and share one seed
    distinct = {(cfg.master_seed, cfg.n_pairs, cfg.physics.packet_width) for cfg in configs}
    assert len(distinct) == 3
    assert sorted(calls) == sorted(distinct)


def _joint_products(table):
    """J = 2*s2 - 1 for a pair whose two views weigh alike, else 0, from view_systems."""
    rows = view_systems(table)
    a_view, b_view = rows[0::2, 2:], rows[1::2, 2:]
    agree = (a_view == b_view).all(axis=1)
    return np.where(agree, 2.0 * a_view[:, 0] - 1.0, 0.0), agree


TALLY_CONFIGS = [
    ExperimentConfig(n_pairs=120, master_seed=58, mode=InformationMode.LOCAL,
                     efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0),
    # the golden explicit_off_menu run: 60 pairs fall out of every cell
    ExperimentConfig(n_pairs=200, master_seed=1618, mode=InformationMode.LOCAL,
                     switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
                     explicit_a=((-math.inf, 0.0), (0.6, 0.3), (1.2, math.pi / 2.0))),
]


@pytest.mark.parametrize("cfg", TALLY_CONFIGS, ids=["lossy", "off_menu"])
def test_tally_sums_float_products_as_a_recount_does(cfg):
    # a prepared table has no outcomes; _tally reads only the products given
    table = prepare_pairs(cfg)
    products, agree = _joint_products(table)
    launches, counts, sums = [0] * 4, [0] * 4, [0.0] * 4
    rows = zip(table.a_index.tolist(), table.b_index.tolist(), table.survived_a.tolist(),
               table.survived_b.tolist(), products.tolist())
    for a_index, b_index, survived_a, survived_b, product in rows:
        if a_index >= 0 and b_index >= 0:
            launches[2 * a_index + b_index] += 1
            if survived_a and survived_b:
                counts[2 * a_index + b_index] += 1
                sums[2 * a_index + b_index] += product
    tally = experiment_mod._tally(table, products)
    assert tally["cell_launches"] == tuple(launches)
    assert tally["cell_counts"] == tuple(counts)
    assert tally["cell_sums"] == tuple(sums)
    assert all(type(s) is float for s in tally["cell_sums"])
    counted = experiment_mod._counted(table)
    # the table has pairs with split views and pairs outside every cell
    assert (~agree).any() and not counted.all()
    for junk in (math.nan, 1.0e308, -math.inf):
        assert experiment_mod._tally(table, np.where(counted, products, junk)) == tally


@pytest.mark.parametrize("cfg", TALLY_CONFIGS, ids=["lossy", "off_menu"])
def test_tally_of_outcome_products_gives_the_reports_int_sums(cfg):
    report = run_epr(cfg)
    t = report.records
    products = t.outcome_a * t.outcome_b
    sums = experiment_mod._tally(t, products)["cell_sums"]
    assert sums == report.cell_sums and all(type(s) is int for s in sums)
    assert experiment_mod._tally(t, products.astype(float))["cell_sums"] == sums


@pytest.mark.parametrize("policy", [SwitchPolicy.PER_PAIR_RANDOM, SwitchPolicy.STATIC])
def test_prepare_pairs_takes_the_draws_it_is_handed(monkeypatch, policy):
    cfg = ExperimentConfig(n_pairs=50, master_seed=9, mode=InformationMode.LOCAL,
                           switch_policy_a=policy, switch_policy_b=policy)
    draws = pair_draws(cfg.master_seed, cfg.n_pairs, cfg.physics.packet_width)
    drawn_here = prepare_pairs(cfg)

    def refused(*args):
        raise AssertionError("prepare_pairs drew again")

    monkeypatch.setattr(experiment_mod, "pair_draws", refused)
    assert prepare_pairs(cfg, draws) == drawn_here


def test_a_batch_that_counts_no_pair_transports_nothing():
    # each of the four pairs loses a particle to a switched magnet
    cfg = ExperimentConfig(n_pairs=4, master_seed=2, mode=InformationMode.LOCAL,
                           efficiency=Efficiency.INEFFICIENT, kick_threshold=0.0,
                           normalization=Normalization.COINCIDENCES)
    [report] = run_batch([cfg], every_outcome=False)
    assert report.systems == 0 and report.coincidences == 0 and report.bell is None
    assert report.records.outcome_a.tolist() == report.records.outcome_b.tolist() == [0] * 4
    assert run_epr(cfg).systems > 0


def test_events_refuse_a_pair_that_was_not_transported(tmp_path):
    cfg = ExperimentConfig(n_pairs=40, master_seed=41, efficiency=Efficiency.INEFFICIENT,
                           kick_threshold=0.0)
    [report] = run_batch([cfg], every_outcome=False)
    first = int(np.argmin(experiment_mod._counted(report.records)))
    with pytest.raises(ValueError, match=rf"^pair {first} was not transported \(outcome 0\)"):
        write_events_csv(report, tmp_path / "events.csv")
    assert not (tmp_path / "events.csv").exists()


def test_first_appearances_keeps_each_bit_pattern_once_in_order():
    # rows 2 and 4 repeat rows 0 and 1; row 3 differs from row 1 only in
    # the sign of a zero, which is a different key
    rows = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [-0.0, 1.0], [0.0, 1.0], [3.0, 0.5]])
    keep, place = _first_appearances(rows)
    assert keep.tolist() == [0, 1, 3, 5]
    assert place.tolist() == [0, 1, 0, 2, 1, 3]
    assert rows[keep][place].tobytes() == rows.tobytes()
    keep, place = _first_appearances(np.empty((0, 4)))
    assert keep.tolist() == place.tolist() == []


def test_a_table_repeated_in_a_call_adds_no_system():
    cfg = ExperimentConfig(n_pairs=12, master_seed=3, mode=InformationMode.LOCAL)
    other = replace(cfg, master_seed=4)
    table, other_table = prepare_pairs(cfg), prepare_pairs(other)
    z_l, _, [alone] = transport_views([table], [cfg])
    both_l, _, views = transport_views([table, other_table, table], [cfg, other, cfg])
    # the first table keeps its places, the second table's systems follow,
    # and the repeat maps onto the first table's systems
    assert views[0].tolist() == views[2].tolist() == alone.tolist()
    assert views[1].min() == len(z_l)
    assert both_l[:len(z_l)].tobytes() == z_l.tobytes()


def test_divergence_in_a_batch_names_the_config(monkeypatch):
    # config 0 is nonlocal, so its 8 pairs have 8 systems; config 1's
    # system 4 is pair 3's B view (see the later-block divergence test of
    # test_retirement.py) and the 13th distinct system of the batch
    configs = [ExperimentConfig(n_pairs=8, master_seed=1),
               ExperimentConfig(n_pairs=8, master_seed=0, mode=InformationMode.LOCAL)]
    assert len(transport_views([prepare_pairs(configs[0])], configs[:1])[0]) == 8

    def failing(*args, **kwargs):
        raise IntegrationDiverged(step=3, system_index=12)

    monkeypatch.setattr(experiment_mod, "integrate_retiring", failing)
    with pytest.raises(IntegrationDiverged) as err:
        run_batch(configs)
    assert str(err.value) == ("non-finite state at step 3 (system 12): "
                              "config 1, pair 3, view B, local mode")


def _in_blocks_of(monkeypatch, chunk, run):
    """``run()`` with ``_BATCH_CHUNK`` = chunk, and the row counts ``_first_appearances`` saw."""
    monkeypatch.setattr(experiment_mod, "_BATCH_CHUNK", chunk)
    merged = []

    def counting(rows):
        merged.append(len(rows))
        return _first_appearances(rows)

    monkeypatch.setattr(experiment_mod, "_first_appearances", counting)
    return run(), merged


def test_a_batch_merged_in_blocks_of_five_pairs_equals_one_block(monkeypatch):
    configs = table1_configs(11, 23)
    # the two inefficient rows share a seed, so their pairs merge across tables
    assert configs[1].master_seed == configs[3].master_seed
    runs = [_in_blocks_of(monkeypatch, chunk, lambda: run_batch(configs, every_outcome=False))
            for chunk in (4096, 5)]
    (whole, _), (blocked, merged) = runs
    # five blocks, none holding more than two views of five pairs per table
    assert len(merged) == 5 and max(merged) <= 2 * 5 * len(configs)
    for one, many in zip(whole, blocked):
        assert _report_text(one) == _report_text(many)
        assert one.records == many.records
        assert one.systems == many.systems


def test_a_local_run_merged_in_blocks_of_five_pairs_equals_one_block(monkeypatch, tmp_path):
    cfg = ExperimentConfig(n_pairs=23, master_seed=5, mode=InformationMode.LOCAL)
    (whole, _), (blocked, merged) = [_in_blocks_of(monkeypatch, chunk, lambda: run_epr(cfg))
                                     for chunk in (4096, 5)]
    assert len(merged) == 5 and max(merged) <= 2 * 5
    assert whole.records == blocked.records and whole.systems == blocked.systems
    assert (_run_bytes(whole, tmp_path / "whole.csv")
            == _run_bytes(blocked, tmp_path / "blocked.csv"))


def _transport_calls(monkeypatch, fail_at=None):
    """The system count of each ``integrate_retiring`` call, as it is made.

    Call number ``fail_at`` (from 1) raises a divergence at its system 1.
    """
    real, calls = experiment_mod.integrate_retiring, []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        if len(calls) == fail_at:
            raise IntegrationDiverged(step=3, system_index=1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment_mod, "integrate_retiring", counting)
    return calls


def test_divergence_in_a_later_block_names_its_block_major_system(monkeypatch):
    # in blocks of five pairs: config 0's pairs 0-4 are systems 0-4 and
    # config 1's are 5-11 (pairs 3 and 4 have two views each); block 1 then
    # numbers config 0's pairs 5-7 as 12-14, so pair 6 is system 13, the
    # second of block 1's call
    configs = [ExperimentConfig(n_pairs=8, master_seed=1),
               ExperimentConfig(n_pairs=8, master_seed=0, mode=InformationMode.LOCAL)]
    monkeypatch.setattr(experiment_mod, "_BATCH_CHUNK", 5)
    views = transport_views([prepare_pairs(cfg) for cfg in configs], configs)[2]
    assert views[0][:, 0].tolist() == [0, 1, 2, 3, 4, 12, 13, 14]
    assert views[1][:5].tolist() == [[5, 5], [6, 6], [7, 7], [8, 9], [10, 11]]
    calls = _transport_calls(monkeypatch, fail_at=2)
    with pytest.raises(IntegrationDiverged) as err:
        run_batch(configs)
    assert calls == [12, 7]
    assert str(err.value) == ("non-finite state at step 3 (system 13): "
                              "config 0, pair 6, view A and B, nonlocal mode")


def test_each_block_of_pairs_is_one_transport_call(monkeypatch):
    monkeypatch.setattr(experiment_mod, "_BATCH_CHUNK", 3)
    calls = _transport_calls(monkeypatch)
    report = run_epr(ExperimentConfig(n_pairs=12, master_seed=0, mode=InformationMode.LOCAL))
    assert calls == [3, 6, 3, 5] and sum(calls) == report.systems == 17
    # a batch's block spans every table, the shorter one ending early
    calls.clear()
    reports = run_batch([ExperimentConfig(n_pairs=7, master_seed=1),
                         ExperimentConfig(n_pairs=12, master_seed=0, mode=InformationMode.LOCAL)])
    assert calls == [6, 9, 4, 5] and sum(calls) == reports[0].systems


@pytest.mark.parametrize("change", [dict(dt=0.5e-6),
                                    dict(physics=replace(SILVER, beam_speed=2.0e4))])
def test_a_batch_refuses_mixed_physics_or_dt(change):
    cfg = ExperimentConfig(n_pairs=8, master_seed=1)
    with pytest.raises(ConfigError, match=r"^configs in one transport must share physics "
                                          r"and dt; config 1 differs from config 0$"):
        run_batch([cfg, replace(cfg, **change)])


KICK = kick_ratio(ExperimentConfig().physics.beam_speed, ExperimentConfig().physics.light_speed)


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs(), st.sampled_from((0.0, 0.5 * KICK, KICK, 2.0 * KICK, 1.0e-3)))
@example(ExperimentConfig(n_pairs=40, master_seed=7, efficiency=Efficiency.INEFFICIENT), KICK)
@example(ExperimentConfig(n_pairs=12, master_seed=8, efficiency=Efficiency.INEFFICIENT,
                          mode=InformationMode.LOCAL, switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
                          explicit_a=((-math.inf, 0.0), (0.011, math.pi / 2.0))), 0.0)
def test_parked_survival_counts_as_the_full_baseline_run(cfg, kick_threshold):
    cfg = replace(cfg, kick_threshold=kick_threshold)
    quiet = quiescent_config(cfg)
    counted = survival(quiet, setting_timelines(quiet))
    full = run_epr(quiet)
    assert (counted.singles_a, counted.singles_b, counted.coincidences) == (
        full.singles_a, full.singles_b, full.coincidences)
    switched = run_epr(cfg)
    assert count_rates(switched, counted) == count_rates(switched, full)
    # prepare_pairs takes its switching and loss columns from the same split
    streams = [pair_stream(cfg.master_seed, i) for i in range(cfg.n_pairs)]
    menu_draws = np.array([(rng.integers(0, 2), rng.integers(0, 2)) for rng in streams]).T
    split = survival(cfg, setting_timelines(cfg, menu_draws=tuple(menu_draws)))
    t = switched.records
    for name in ("switched_a", "switched_b", "survived_a", "survived_b"):
        assert np.array_equal(getattr(split, name), getattr(t, name)), name


def test_random_switching_needs_the_menu_draws():
    with pytest.raises(ValueError, match="menu draws"):
        setting_timelines(ExperimentConfig(switch_policy_b=SwitchPolicy.STATIC))


def test_setting_timelines_match_the_tuple_form_built_from_pair_streams():
    cfg = ExperimentConfig(n_pairs=300, master_seed=11, mode=InformationMode.LOCAL)
    streams = [pair_stream(cfg.master_seed, i) for i in range(cfg.n_pairs)]
    menu_draws = tuple(np.array([(rng.integers(0, 2), rng.integers(0, 2))
                                 for rng in streams]).T)
    timelines = setting_timelines(cfg, menu_draws)
    rng_init = init_stream(cfg.master_seed)
    launches = np.arange(cfg.n_pairs) * cfg.pair_period
    for menu, draws, got in ((cfg.angles_a, menu_draws[0], timelines.side_a),
                             (cfg.angles_b, menu_draws[1], timelines.side_b)):
        # one (time, angle) tuple per switch, as the history was once kept
        entries = [(-math.inf, menu[int(rng_init.integers(0, 2))])]
        for t, k in zip(launches.tolist(), draws.tolist()):
            if menu[k] != entries[-1][1]:
                entries.append((t, menu[k]))
        assert len(entries) > 100
        assert got == SideTimeline(entries=tuple(entries))
        assert got.times.tobytes() == np.array([t for t, _ in entries]).tobytes()
        assert got.angles.tobytes() == np.array([a for _, a in entries]).tobytes()


def test_setting_timelines_hold_no_python_object_per_switch():
    # the fast-beam local bench at 20 000 pairs, where about half the
    # launches switch each side; a tuple per switch peaked near 3 MiB
    cfg = ExperimentConfig(n_pairs=20000, master_seed=101, mode=InformationMode.LOCAL,
                           efficiency=Efficiency.INEFFICIENT,
                           normalization=Normalization.COINCIDENCES, kick_threshold=0.0,
                           physics=replace(SILVER, beam_speed=1.0e5))
    a_rand, b_rand, _, _ = pair_draws(cfg.master_seed, cfg.n_pairs, cfg.physics.packet_width)
    tracemalloc.start()
    try:
        timelines = setting_timelines(cfg, (a_rand, b_rand))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(timelines.side_a.times) > 9000 and len(timelines.side_b.times) > 9000
    assert peak < 2 * 2**20


def _traced_growth_per_pair(tmp_path, n_small, n_large):
    """Bytes per added pair by which the traced peaks of ``transport_views`` over its
    input table and of ``write_events_csv`` over its report grow from n_small to
    n_large pairs of the local fast beam."""
    peaks = []
    for n in (n_small, n_large):
        cfg = ExperimentConfig(n_pairs=n, master_seed=101, mode=InformationMode.LOCAL,
                               efficiency=Efficiency.INEFFICIENT,
                               normalization=Normalization.COINCIDENCES, kick_threshold=0.0,
                               physics=replace(SILVER, beam_speed=1.0e5))
        report = run_epr(cfg)
        peak = []
        for call in (lambda: transport_views([report.records], [cfg]),
                     lambda: write_events_csv(report, tmp_path / "events.csv")):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                peak.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        peaks.append(peak)
    return [(large - small) / (n_large - n_small) for small, large in zip(*peaks)]


def test_transport_and_events_peak_grows_by_their_results_alone(tmp_path):
    # the local fast beam from 3 to 6 blocks of 4096 pairs. transport_views
    # returns about 38 B a pair (an (n, 2) int64 map and 1.37 systems a
    # pair of exits): merged and transported one block at a time its peak
    # grows by about 37 B a pair, where one merge of every row grew it by
    # about 168 B. events.csv formed one block of lines at a time grows by
    # about 1 B a pair, where whole-column lists grew it by about 113 B
    transport, events = _traced_growth_per_pair(tmp_path, 3 * 4096, 6 * 4096)
    assert transport <= 80
    assert events <= 30


def test_a_recording_transport_holds_its_results_once():
    # a 400-pair local dump recorded at every step: 568 systems x 3001 steps,
    # 26 MiB of results in one chunk. Each recorded step is written
    # into the result and the one chunk is returned as it is, so the peak is
    # the results; a list of steps stacked at the end, or the chunk's exits
    # copied into a concatenation, held them twice (2.04x)
    cfg = ExperimentConfig(n_pairs=400, mode=InformationMode.LOCAL, master_seed=5)
    table = prepare_pairs(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z_l, z_r, _ = transport_views([table], [cfg], record_every=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert z_l.shape == z_r.shape == (3001, 568)
    assert peak <= 1.3 * (z_l.nbytes + z_r.nbytes)
