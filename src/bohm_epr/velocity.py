"""Two-particle transverse velocity field inside the magnets.

Both packets are guided by a single entangled spin-singlet wave. With
``z_l`` and ``z_r`` the transverse positions, the velocity of each
particle at time t is

    v_X = drift(t) * z_X + ratio_X(u, v) * spin_kick(t)

where

    drift(t)     = spread_rate^2 * t / (1 + (spread_rate * t)^2)
    spin_kick(t) = accel * t * (2 - (spread_rate * t)^2 / (1 + (spread_rate * t)^2))
    w(t)         = exp_coeff * t^2 / (1 + (spread_rate * t)^2)
    u            = w * (z_l + z_r) / 2
    v            = w * (z_l - z_r) / 2

and the coupling ratios mix the two branches of the singlet through the
relative analyzer angle, with s2 = sin^2((angle_a - angle_b)/2) and
c2 = cos^2 of the same half angle:

    ratio_L = (s2 sinh u + c2 sinh v) / (s2 cosh u + c2 cosh v)
    ratio_R = (s2 sinh u - c2 sinh v) / (s2 cosh u + c2 cosh v)

The hyperbolic arguments grow like exp_coeff * t^2 * z and reach 1e5-1e6
well before the exit of the magnet, far past where sinh/cosh overflow, so
the ratios need a guarded evaluation. Below ``_DIRECT_LIMIT`` the direct
formula is used (it is exquisitely accurate for small arguments, which
the aligned-analyzer reduction tests rely on); above it the numerator and
denominator are factored by the dominant exponential among the terms with
non-zero weight, which keeps every intermediate bounded. The result is
clamped to [-1, 1], the mathematical range of both ratios. The array
kernel ``ratio_pair_batch`` is the only evaluation of the ratios (the
scalar entry points are one-element calls of it); each element
evaluates only its own branch, so a batch pays for the factored branch
only on the elements past the limit.

For exactly aligned analyzers (s2 == 0) the law collapses to

    v_L = drift * z_l + spin_kick * tanh(v)
    v_R = drift * z_r - spin_kick * tanh(v)

which ``aligned_velocity_pair`` implements directly; its agreement with
the general form is a standing regression test.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .physconst import DerivedCoefficients, check_finite_fields

_DIRECT_LIMIT = 300.0


class Side(enum.Enum):
    """Which particle of the pair: L flies to analyzer A, R to analyzer B."""

    L = "L"
    R = "R"


@dataclass(frozen=True)
class SettingPair:
    """Analyzer angles (radians) used to evaluate the guidance law.

    ``angle_a`` belongs to the left analyzer, ``angle_b`` to the right.
    Only the difference enters the dynamics.
    """

    angle_a: float
    angle_b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.angle_a) and math.isfinite(self.angle_b)):
            raise ConfigError("analyzer angles must be finite")

    def weights(self) -> tuple[float, float]:
        """(sin^2, cos^2) of half the angle difference."""
        half = 0.5 * (self.angle_a - self.angle_b)
        s = math.sin(half)
        s2 = s * s
        return s2, 1.0 - s2


@dataclass(frozen=True)
class TrajectoryState:
    """Positions of both particles at one instant."""

    z_l: float
    z_r: float
    t: float

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if self.t < 0.0:
            raise ConfigError("t must be non-negative")


def exponent_scale(t: float, coeff: DerivedCoefficients) -> float:
    """w(t), the factor converting position sums into hyperbolic arguments."""
    if t < 0.0:
        raise ConfigError("t must be non-negative")
    kt = coeff.spread_rate * t
    return coeff.exp_coeff * t * t / (1.0 + kt * kt)


def check_weights(s2, c2) -> None:
    """Weights, scalars or arrays, must lie in [0, 1] (NaN does not) and not both vanish."""
    if not (np.all((s2 >= 0.0) & (s2 <= 1.0)) and np.all((c2 >= 0.0) & (c2 <= 1.0))):
        raise ConfigError("weights must lie in [0, 1]")
    if np.any(s2 + c2 <= 0.0):
        raise ConfigError("weights must not both vanish")


def stable_ratio(u: float, v: float, s2: float, c2: float, side: Side) -> float:
    """Coupling ratio of one side for given hyperbolic arguments and weights.

    Accepts arguments of any magnitude (infinities included); rejects NaN.
    A one-element call of ``ratio_pair_batch``. An infinite argument is
    clipped to the largest finite float, which has the same limit; the
    exponents of such an argument may overflow to -inf, where exp is
    exactly 0, so those overflows are not reported.
    """
    if math.isnan(u) or math.isnan(v):
        raise ConfigError("hyperbolic arguments must not be NaN")
    check_weights(s2, c2)
    u, v = (np.clip(np.array([x]), -sys.float_info.max, sys.float_info.max) for x in (u, v))
    with np.errstate(over="ignore", under="ignore"):
        rl, rr = ratio_pair_batch(u, v, np.array([s2]), np.array([c2]))
    return float(rl[0] if side is Side.L else rr[0])


def velocity_pair(
    state: TrajectoryState,
    settings: SettingPair,
    coeff: DerivedCoefficients,
) -> tuple[float, float]:
    """Transverse velocities (v_l, v_r) of both particles.

    A one-element call of ``velocity_pair_batch``.
    """
    s2, c2 = settings.weights()
    v_l, v_r = velocity_pair_batch(state.t, np.array([state.z_l]), np.array([state.z_r]),
                                   np.array([s2]), np.array([c2]), coeff)
    return float(v_l[0]), float(v_r[0])


def aligned_velocity_pair(
    state: TrajectoryState,
    coeff: DerivedCoefficients,
) -> tuple[float, float]:
    """Velocities for exactly aligned analyzers, via the tanh reduction."""
    t = state.t
    kt = coeff.spread_rate * t
    kt2 = kt * kt
    denom = 1.0 + kt2
    w = coeff.exp_coeff * t * t / denom
    v = 0.5 * w * (state.z_l - state.z_r)
    drift = coeff.spread_rate * kt / denom
    spin_kick = coeff.accel * t * (2.0 - kt2 / denom)
    tanh_v = math.tanh(v)
    return drift * state.z_l + spin_kick * tanh_v, drift * state.z_r - spin_kick * tanh_v


def _direct_ratios(u, v, s2, c2) -> tuple[np.ndarray, np.ndarray]:
    """The plain sinh/cosh formula; only for max(|u|, |v|) <= _DIRECT_LIMIT."""
    su = s2 * np.sinh(u)
    cv = c2 * np.sinh(v)
    den = s2 * np.cosh(u) + c2 * np.cosh(v)
    return (su + cv) / den, (su - cv) / den


def _factored_ratios(u, v, s2, c2) -> tuple[np.ndarray, np.ndarray]:
    """The ratios with the dominant weighted exponential factored out."""
    # A zero-weight term must not dictate the scale, or the
    # 0 * exp(large) products would go indeterminate.
    m = np.maximum(np.where(s2 > 0.0, np.abs(u), -np.inf),
                   np.where(c2 > 0.0, np.abs(v), -np.inf))
    eu = s2 * np.exp(np.minimum(u - m, 0.0))
    enu = s2 * np.exp(np.minimum(-u - m, 0.0))
    ev = c2 * np.exp(np.minimum(v - m, 0.0))
    env = c2 * np.exp(np.minimum(-v - m, 0.0))
    den = (eu + enu) + (ev + env)
    return ((eu - enu) + (ev - env)) / den, ((eu - enu) - (ev - env)) / den


def ratio_pair_batch(
    u: np.ndarray,
    v: np.ndarray,
    s2: np.ndarray,
    c2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Both coupling ratios of many elements, overflow-safe.

    The only evaluation of the ratios in the package; ``stable_ratio``
    is a one-element call. Weights are assumed validated. Each element
    evaluates only its own branch: a batch that is all direct or all
    factored runs one branch on the whole arrays, a mixed batch runs
    each branch on its own subset. Element order in the input arrays
    does not affect any element's value.
    """
    small = np.maximum(np.abs(u), np.abs(v)) <= _DIRECT_LIMIT
    if small.all():
        rl, rr = _direct_ratios(u, v, s2, c2)
    elif not small.any():
        rl, rr = _factored_ratios(u, v, s2, c2)
    else:
        u, v, s2, c2 = np.broadcast_arrays(u, v, s2, c2)
        rl = np.empty(small.shape)
        rr = np.empty(small.shape)
        large = ~small
        rl[small], rr[small] = _direct_ratios(u[small], v[small], s2[small], c2[small])
        rl[large], rr[large] = _factored_ratios(u[large], v[large], s2[large], c2[large])
    return np.clip(rl, -1.0, 1.0), np.clip(rr, -1.0, 1.0)


def ratio_pair_at(
    t: float,
    z_l: np.ndarray,
    z_r: np.ndarray,
    s2: np.ndarray,
    c2: np.ndarray,
    coeff: DerivedCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """Both guidance ratios of many independent systems at time t."""
    w = exponent_scale(t, coeff)
    return ratio_pair_batch(0.5 * w * (z_l + z_r), 0.5 * w * (z_l - z_r), s2, c2)


def velocity_from_ratios(
    t: float,
    z_l: np.ndarray,
    z_r: np.ndarray,
    r_l: np.ndarray,
    r_r: np.ndarray,
    coeff: DerivedCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """Velocities of many systems at time t, given their guidance ratios."""
    kt = coeff.spread_rate * t
    kt2 = kt * kt
    denom = 1.0 + kt2
    drift = coeff.spread_rate * kt / denom
    spin_kick = coeff.accel * t * (2.0 - kt2 / denom)
    return drift * z_l + r_l * spin_kick, drift * z_r + r_r * spin_kick


def velocity_pair_batch(
    t: float,
    z_l: np.ndarray,
    z_r: np.ndarray,
    s2: np.ndarray,
    c2: np.ndarray,
    coeff: DerivedCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """Velocities (v_l, v_r) of many independent systems at time t.

    The only evaluation of the guidance law in the package;
    ``velocity_pair`` is a one-element call.
    """
    r_l, r_r = ratio_pair_at(t, z_l, z_r, s2, c2, coeff)
    return velocity_from_ratios(t, z_l, z_r, r_l, r_r, coeff)
