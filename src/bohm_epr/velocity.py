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
non-zero weight, which keeps every intermediate bounded. Both ratios
lie in [-1, 1]; the direct branch is clamped to that range.

``guidance_velocity`` is the only evaluation of the law; the other entry
points are thin wrappers of it. It takes n systems as one (2, n) array
z = [z_l; z_r], so each step of the formula is one numpy call: [u; v] is
one array, the direct branch one sinh and one cosh of it, the factored
branch one exp of [u; v; -u; -v] - m. A batch whose elements all need
one branch evaluates only that one; a mixed batch evaluates both forms on
every column and keeps each element's own, with the same bits.

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
_PLUS_MINUS = np.array([[1.0], [-1.0]])


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


def velocity_pair(state: TrajectoryState, settings: SettingPair,
                  coeff: DerivedCoefficients) -> tuple[float, float]:
    """Transverse velocities (v_l, v_r) of both particles; a one-element ``velocity_pair_batch``."""
    s2, c2 = settings.weights()
    v_l, v_r = velocity_pair_batch(state.t, np.array([state.z_l]), np.array([state.z_r]),
                                   np.array([s2]), np.array([c2]), coeff)
    return float(v_l[0]), float(v_r[0])


def aligned_velocity_pair(state: TrajectoryState,
                          coeff: DerivedCoefficients) -> tuple[float, float]:
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


class BatchWeights:
    """The weights of a batch, laid out once: ``rows`` is [[s2; c2]; [s2; c2]].

    ``rows[0]`` weights the direct branch's sinh and cosh rows, all of it
    the factored branch's [[e^u; e^v]; [e^-u; e^-v]]. ``positive`` masks
    the non-zero weights, or is None if all are.
    """

    def __init__(self, s2: np.ndarray, c2: np.ndarray):
        w = np.stack((s2, c2))
        self.rows = np.stack((w, w))
        positive = w > 0.0
        self.positive = None if positive.all() else positive

    def take(self, index) -> BatchWeights:
        """The weights of the systems ``index`` (a mask or indices) selects."""
        return BatchWeights(self.rows[0, 0, index], self.rows[0, 1, index])


def _sum_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a + b; a - b] as one (2, n) array; IEEE a - b is exactly a + (-b)."""
    x = b * _PLUS_MINUS
    x += a
    return x


def _direct(uv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The plain sinh/cosh formula; only for max(|u|, |v|) <= _DIRECT_LIMIT."""
    s = np.sinh(uv)
    s *= w
    c = np.cosh(uv)
    c *= w
    r = _sum_diff(s[0], s[1])
    r /= c[0] + c[1]
    # sinh and cosh are each rounded on their own, so |sinh u| may pass cosh u
    np.maximum(r, -1.0, out=r)
    np.minimum(r, 1.0, out=r)
    return r


def _factored(uv: np.ndarray, m: np.ndarray, w: np.ndarray,
              positive: np.ndarray | None) -> np.ndarray:
    """The ratios with the dominant weighted exponential m factored out.

    Needs no clamp: for a, b >= 0 rounding keeps |a - b| <= a + b, so no
    numerator passes the denominator in floating point either.
    """
    if positive is not None:
        # A zero-weight term must not dictate the scale, or the
        # 0 * exp(large) products would go indeterminate.
        m = np.maximum(*np.where(positive, np.abs(uv), -np.inf))
    x = _PLUS_MINUS[:, :, None] * uv  # [[u; v]; [-u; -v]]
    x -= m
    if positive is not None:
        # with no zero weight, m = max(|u|, |v|) keeps every exponent <= 0
        np.minimum(x, 0.0, out=x)
    np.exp(x, out=x)
    x *= w
    d = x[0] - x[1]
    x[0] += x[1]
    r = _sum_diff(d[0], d[1])
    r /= x[0, 0] + x[0, 1]
    return r


def _ratios(uv: np.ndarray, weights: BatchWeights) -> np.ndarray:
    """Both coupling ratios [r_L; r_R] of the (2, n) arguments uv = [u; v].

    A batch that is all factored or all direct runs one branch. A mixed
    batch runs both on every column and keeps each element's own (NaN
    takes the factored one); both are elementwise, so no element depends
    on the other columns, and the branch an element does not take may
    overflow unseen.
    """
    m = np.maximum(*np.abs(uv))
    if np.minimum.reduce(m, initial=np.inf) > _DIRECT_LIMIT:
        return _factored(uv, m, weights.rows, weights.positive)
    if np.maximum.reduce(m) <= _DIRECT_LIMIT:
        return _direct(uv, weights.rows[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(m <= _DIRECT_LIMIT, _direct(uv, weights.rows[0]),
                        _factored(uv, m, weights.rows, weights.positive))


def guidance_ratios(t: float, z: np.ndarray, weights: BatchWeights,
                    coeff: DerivedCoefficients) -> np.ndarray:
    """Both guidance ratios [r_l; r_r] of the systems z = [z_l; z_r] at time t."""
    uv = _sum_diff(z[0], z[1])
    uv *= 0.5 * exponent_scale(t, coeff)
    return _ratios(uv, weights)


def guidance_velocity(t: float, z: np.ndarray, weights: BatchWeights,
                      coeff: DerivedCoefficients, r: np.ndarray | None = None) -> np.ndarray:
    """Velocities [v_l; v_r] of the systems z = [z_l; z_r] at time t.

    ``r``, when given, is ``guidance_ratios(t, z, weights, coeff)``.
    """
    if r is None:
        r = guidance_ratios(t, z, weights, coeff)
    kt = coeff.spread_rate * t
    kt2 = kt * kt
    denom = 1.0 + kt2
    v = r * (coeff.accel * t * (2.0 - kt2 / denom))
    v += z * (coeff.spread_rate * kt / denom)
    return v


def ratio_pair_batch(u: np.ndarray, v: np.ndarray, s2: np.ndarray,
                     c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both coupling ratios of many elements, overflow-safe; weights assumed validated."""
    r = _ratios(np.stack((u, v)), BatchWeights(s2, c2))
    return r[0], r[1]


def velocity_pair_batch(t: float, z_l: np.ndarray, z_r: np.ndarray, s2: np.ndarray,
                        c2: np.ndarray,
                        coeff: DerivedCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Velocities (v_l, v_r) of many independent systems at time t."""
    v = guidance_velocity(t, np.stack((z_l, z_r)), BatchWeights(s2, c2), coeff)
    return v[0], v[1]
