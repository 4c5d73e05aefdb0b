"""Setting timelines and the retarded partner lookup."""

import math

import numpy as np
import pytest

from bohm_epr import (
    ConfigError,
    InformationMode,
    SettingTimelines,
    Side,
    SideTimeline,
    effective_settings,
    static_timeline,
)
from bohm_epr.physconst import LIGHT_SPEED


def timeline(*entries):
    return SideTimeline(entries=tuple(entries))


def test_angle_lookup_steps_at_switch_times():
    tl = timeline((-math.inf, 0.1), (1.0, 0.2), (2.0, 0.3))
    assert tl.angle_at(-5.0) == 0.1
    assert tl.angle_at(0.999999) == 0.1
    assert tl.angle_at(1.0) == 0.2        # switches take effect at their instant
    assert tl.angle_at(1.999999) == 0.2
    assert tl.angle_at(2.0) == 0.3
    assert tl.angle_at(1.0e9) == 0.3


def test_change_window_is_closed():
    tl = timeline((-math.inf, 0.1), (1.0, 0.2), (2.0, 0.3))
    assert tl.has_change_in(1.0, 1.0)
    assert tl.has_change_in(0.5, 1.5)
    assert tl.has_change_in(1.5, 2.0)
    assert not tl.has_change_in(1.0001, 1.9999)
    assert not tl.has_change_in(2.5, 9.0)
    with pytest.raises(ConfigError):
        tl.has_change_in(2.0, 1.0)


def test_timeline_validation():
    with pytest.raises(ConfigError):
        SideTimeline(entries=())
    with pytest.raises(ConfigError):
        timeline((0.5, 0.1))                       # first entry after t = 0
    with pytest.raises(ConfigError):
        timeline((0.0, 0.1), (0.0, 0.2))           # not strictly increasing
    with pytest.raises(ConfigError):
        timeline((0.0, 0.1), (-1.0, 0.2))
    with pytest.raises(ConfigError):
        timeline((0.0, 0.1), (1.0, 0.1))           # not a real switch
    with pytest.raises(ConfigError):
        timeline((0.0, math.inf))
    # query before the first finite entry has no answer
    tl = timeline((-0.5, 0.7))
    with pytest.raises(ConfigError):
        tl.angle_at(-0.6)
    with pytest.raises(ConfigError, match="^query time must not be NaN$"):
        tl.angle_at(math.nan)


def test_static_timeline():
    tl = static_timeline(0.25)
    assert tl.angle_at(-1.0e12) == 0.25
    assert tl.angle_at(1.0e12) == 0.25
    assert not tl.has_change_in(0.0, 1.0e12)


def test_timeline_equality_is_by_value_whatever_the_entries_form():
    entries = ((-math.inf, 0.1), (1.0, 0.2), (2.0, 0.3))
    tl = timeline(*entries)
    assert tl == SideTimeline(entries=np.array(entries))
    assert tl == SideTimeline(entries=[list(e) for e in entries])
    assert tl != timeline((-math.inf, 0.1), (1.0, 0.2), (2.0, 0.4))
    assert tl != timeline((-math.inf, 0.1), (1.0, 0.2))
    assert tl != entries


def test_timeline_arrays_are_read_only():
    source = np.array([[-math.inf, 0.1], [1.0, 0.2]])
    tl = SideTimeline(entries=source)
    assert tl.times.tolist() == [-math.inf, 1.0] and tl.angles.tolist() == [0.1, 0.2]
    for array in (tl.times, tl.angles):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5
    source[1, 1] = 0.9                  # the timeline keeps its own copy
    assert tl.angle_at(1.0) == 0.2


def test_timelines_validation():
    a = static_timeline(0.0)
    b = static_timeline(1.0)
    with pytest.raises(ConfigError):
        SettingTimelines(side_a=a, side_b=b, separation=-1.0)
    with pytest.raises(ConfigError):
        SettingTimelines(side_a=a, side_b=b, separation=1.0, signal_speed=0.0)
    tls = SettingTimelines(side_a=a, side_b=b, separation=100.0, signal_speed=8.0e3)
    assert tls.news_delay == pytest.approx(0.0125)


def test_nonlocal_sees_current_partner_setting():
    a = timeline((-math.inf, 0.0), (1.0, 0.5))
    b = timeline((-math.inf, 0.7), (1.0, 0.9))
    tls = SettingTimelines(side_a=a, side_b=b, separation=100.0, signal_speed=8.0e3)
    seen = effective_settings(Side.L, 1.003, tls, InformationMode.NONLOCAL)
    assert seen.angle_a == 0.5
    assert seen.angle_b == 0.9
    seen_r = effective_settings(Side.R, 1.003, tls, InformationMode.NONLOCAL)
    assert seen_r.angle_a == 0.5
    assert seen_r.angle_b == 0.9


def test_local_partner_setting_is_retarded():
    # news crosses 100 cm at 8e3 cm/s: 12.5 ms
    a = timeline((-math.inf, 0.0), (1.0, 0.5))
    b = timeline((-math.inf, 0.7), (1.0, 0.9))
    tls = SettingTimelines(side_a=a, side_b=b, separation=100.0, signal_speed=8.0e3)
    # 3 ms after the switches: own angle is new, partner still looks old
    seen_l = effective_settings(Side.L, 1.003, tls, InformationMode.LOCAL)
    assert seen_l.angle_a == 0.5
    assert seen_l.angle_b == 0.7
    seen_r = effective_settings(Side.R, 1.003, tls, InformationMode.LOCAL)
    assert seen_r.angle_a == 0.0
    assert seen_r.angle_b == 0.9
    # once the news arrives both attributions agree with nonlocal
    late_l = effective_settings(Side.L, 1.0126, tls, InformationMode.LOCAL)
    assert late_l.angle_b == 0.9
    late_r = effective_settings(Side.R, 1.0126, tls, InformationMode.LOCAL)
    assert late_r.angle_a == 0.5


def test_local_equals_nonlocal_at_zero_separation():
    a = timeline((-math.inf, 0.0), (1.0, 0.5))
    b = timeline((-math.inf, 0.7), (2.0, 0.9))
    tls = SettingTimelines(side_a=a, side_b=b, separation=0.0, signal_speed=8.0e3)
    for t in (0.0, 0.9999, 1.0, 1.5, 2.0, 3.0):
        for side in (Side.L, Side.R):
            local = effective_settings(side, t, tls, InformationMode.LOCAL)
            nonlocal_ = effective_settings(side, t, tls, InformationMode.NONLOCAL)
            assert local == nonlocal_


def test_lightspeed_news_is_effectively_instant_on_bench_scales():
    a = timeline((-math.inf, 0.0), (1.0, 0.5))
    b = timeline((-math.inf, 0.7), (1.0, 0.9))
    tls = SettingTimelines(side_a=a, side_b=b, separation=100.0,
                           signal_speed=LIGHT_SPEED)
    # a few microseconds after the switch the partner setting is current
    seen = effective_settings(Side.L, 1.0 + 5.0e-6, tls, InformationMode.LOCAL)
    assert seen.angle_b == 0.9


def test_causality_property_partner_angle_is_the_lagged_one():
    # build a dense switching history and verify the lookup against a
    # brute-force scan at many evaluation times
    times = [-math.inf] + [0.5 * k for k in range(1, 40)]
    angles = [0.01 * k for k in range(40)]
    entries = tuple((t, a) for t, a in zip(times, angles))
    b = SideTimeline(entries=entries)
    tls = SettingTimelines(side_a=static_timeline(0.0), side_b=b,
                           separation=200.0, signal_speed=1.0e3)
    delay = tls.news_delay
    assert delay == pytest.approx(0.2)

    def brute_angle(t):
        best = None
        for et, ea in entries:
            if et <= t:
                best = ea
        return best

    for t_eval in [0.0, 0.3, 0.5, 0.69, 0.7, 0.71, 5.25, 18.0, 19.7, 25.0]:
        seen = effective_settings(Side.L, t_eval, tls, InformationMode.LOCAL)
        assert seen.angle_b == brute_angle(t_eval - delay)
        current = effective_settings(Side.L, t_eval, tls, InformationMode.NONLOCAL)
        assert current.angle_b == brute_angle(t_eval)


def test_effective_settings_rejects_nonfinite_time():
    tls = SettingTimelines(side_a=static_timeline(0.0), side_b=static_timeline(1.0),
                           separation=1.0, signal_speed=1.0)
    with pytest.raises(ConfigError):
        effective_settings(Side.L, math.inf, tls, InformationMode.LOCAL)
