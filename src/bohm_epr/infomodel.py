"""What each analyzer station knows about the other, and when.

A ``SideTimeline`` is the switching history of one analyzer: sorted
``times`` and the ``angles`` that take effect at them, the first time at
or before t = 0. A read before the first time has no answer and is
refused. ``SettingTimelines`` bundles both sides with the station
separation and the speed at which setting news is allowed to travel.

``entry_reads`` gives every pair's angles as read at magnet entry, and
``effective_settings`` is the ``entry_reads`` of one launch, at t:

* its own angle is always the current one, read at t;
* in nonlocal mode the partner angle is also current;
* in local mode the partner angle is the one in force a light-crossing
  ago, read at ``t - separation / signal_speed``, i.e. the freshest
  value a signal at ``signal_speed`` could have delivered.

With ``signal_speed`` set to the true speed of light the delay for any
bench-sized separation is nanoseconds, far shorter than a switching
interval, and the two modes coincide. The interesting regime drops
``signal_speed`` to beam-like values so a switch can stay invisible to
the far side for a whole pair flight.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigError
from .physconst import LIGHT_SPEED
from .velocity import SettingPair, Side


class InformationMode(enum.Enum):
    """How fast one station learns about the other's setting."""

    LOCAL = "local"
    NONLOCAL = "nonlocal"


@dataclass(frozen=True, eq=False)
class SideTimeline:
    """Switching history of one analyzer as read-only ``times`` and ``angles`` arrays.

    ``entries`` is a (k, 2) sequence or array of (time, angle) change
    points. Times strictly increase below +inf from a first time <= 0,
    which is -inf for a setting that predates the run. Consecutive
    angles must differ, so every entry is a real switch.
    """

    entries: InitVar[tuple[tuple[float, float], ...] | np.ndarray]
    times: np.ndarray = field(init=False)
    angles: np.ndarray = field(init=False)

    def __post_init__(self, entries) -> None:
        times, angles = np.asarray(entries, dtype=float).reshape(-1, 2).T.copy()
        if not times.size:
            raise ConfigError("timeline needs at least one entry")
        if np.isnan(times).any() or not np.isfinite(angles).all():
            raise ConfigError("timeline entries must be (time, finite angle)")
        if (times[1:] <= times[:-1]).any():
            raise ConfigError("timeline times must be strictly increasing")
        if (angles[1:] == angles[:-1]).any():
            raise ConfigError("consecutive timeline angles must differ")
        if times[0] > 0.0:
            raise ConfigError("timeline must start at or before t = 0")
        if times[-1] == math.inf:
            raise ConfigError("timeline times must be below inf: a switch at t = inf never happens")
        times.flags.writeable = angles.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "angles", angles)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SideTimeline):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.angles, other.angles)

    def changes_in(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Whether any switch time falls inside each closed window [t0, t1]."""
        if (t1 < t0).any():
            raise ConfigError("window must be ordered")
        return (np.searchsorted(self.times, t1, side="right")
                > np.searchsorted(self.times, t0, side="left"))

    def angle_at(self, t: float) -> float:
        """The angle in force at time t (change points take effect at t)."""
        if math.isnan(t):
            raise ConfigError("query time must not be NaN")
        i = int(np.searchsorted(self.times, t, side="right"))
        if i == 0:
            raise ConfigError(f"no timeline entry at or before t = {float(t)!r}")
        return float(self.angles[i - 1])

    def has_change_in(self, t0: float, t1: float) -> bool:
        """One-element ``changes_in``."""
        return bool(self.changes_in(np.array([t0]), np.array([t1]))[0])


def static_timeline(angle: float) -> SideTimeline:
    """A timeline that always held one angle."""
    return SideTimeline(entries=((-math.inf, angle),))


def check_geometry(separation: float, signal_speed: float) -> None:
    """The station separation must be finite and >= 0, the news speed finite and > 0."""
    if not math.isfinite(separation) or separation < 0.0:
        raise ConfigError("separation must be finite and non-negative")
    if not math.isfinite(signal_speed) or signal_speed <= 0.0:
        raise ConfigError("signal_speed must be finite and positive")


@dataclass(frozen=True)
class SettingTimelines:
    """Both switching histories plus the geometry of information flow."""

    side_a: SideTimeline
    side_b: SideTimeline
    separation: float
    signal_speed: float = LIGHT_SPEED

    def __post_init__(self) -> None:
        check_geometry(self.separation, self.signal_speed)

    @property
    def news_delay(self) -> float:
        """Time for setting news to cross between the stations."""
        return self.separation / self.signal_speed


def effective_settings(
    side: Side,
    t_eval: float,
    timelines: SettingTimelines,
    mode: InformationMode,
) -> SettingPair:
    """The setting pair one side attributes to the apparatus at t_eval.

    These are the ``entry_reads`` of one launch at t = 0, with flight t_eval and no transit.
    """
    setting_a, setting_b, b_seen_by_a, a_seen_by_b = (
        float(column[0]) for column in entry_reads(timelines, mode, np.zeros(1), t_eval, 0.0))
    if side is Side.L:
        return SettingPair(setting_a, b_seen_by_a)
    return SettingPair(a_seen_by_b, setting_b)


def entry_reads(timelines: SettingTimelines, mode: InformationMode, launches: np.ndarray,
                flight: float, transit: float) -> tuple[np.ndarray, ...]:
    """Each pair's ``setting_a``, ``setting_b``, ``b_seen_by_a`` and ``a_seen_by_b``.

    Pair i enters its magnets at launches[i] + flight, where each side reads
    its own angle. A read at r holds until that side's next switch, so it is
    refused if that switch comes before r + transit (a switch at r is read
    there), as is a read before an explicit list starts and a pair still in
    its magnets at the next launch.
    """
    if not (np.isfinite(flight) and np.isfinite(launches).all()):
        raise ConfigError("launches and flight must be finite")
    # in local mode the partner reads at launches + (flight - news_delay), so a
    # delay shorter than the flight sees a switch at the launch however sums round
    lag = flight if mode is InformationMode.NONLOCAL else flight - timelines.news_delay
    t_own, t_partner = launches + flight, launches + lag
    late = t_own[:-1] + transit > launches[1:]
    if late.any():
        i = int(np.argmax(late))
        raise ConfigError(f"pair_period must cover flight plus magnet transit: pair {i} leaves "
                          f"its magnets at {float(t_own[i] + transit)!r} s, after launch {i + 1} "
                          f"at {float(launches[i + 1])!r} s")
    reads = [(t_own, "analyzer {side} switches"),
             (t_partner, "news of analyzer {side}'s switch reaches side {partner}")]
    angles = []
    for side, partner, timeline in (("A", "B", timelines.side_a), ("B", "A", timelines.side_b)):
        # pair 0's partner read is the earliest; only an explicit list starts at a finite time
        if t_partner[0] < timeline.times[0]:
            raise ConfigError(f"explicit_{side.lower()} must start at or before t = "
                              f"{float(t_partner[0])!r} s, where side {partner} reads it for "
                              f"pair 0 in {mode.value} mode")
        switches = np.append(timeline.times, math.inf)
        for t_read, what in reads:
            i = np.searchsorted(timeline.times, t_read, side="right")
            inside = switches[i] < t_read + transit
            if inside.any():
                k = int(np.argmax(inside))
                entry = float(t_own[k])
                raise ConfigError(
                    f"pair {k}: {what.format(side=side, partner=partner)} inside its magnet "
                    f"transit ({entry!r}, {entry + transit!r}) s; settings are read once, "
                    f"at magnet entry")
            angles.append(timeline.angles[i - 1])
    setting_a, a_seen_by_b, setting_b, b_seen_by_a = angles
    return setting_a, setting_b, b_seen_by_a, a_seen_by_b
