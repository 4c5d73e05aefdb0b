"""Fixed-step RK4 transport of particle pairs through the magnets.

Every RK4 step in the package is ``rk4_step``, the one place the
classical tableau is written; the spring sandbox in ``hooke`` uses it
too. Transport has three entry points, all over numpy arrays of
independent two-particle systems:

* ``integrate_batch`` moves many systems for the full transit and,
  when the config asks for it, records every n-th step. It is the
  oracle for the third entry point, and dump-trajectories records with
  it.
* ``integrate_pair`` moves a single pair under the (possibly different)
  setting pairs each observer attributes to the apparatus, as a batch
  of one system per distinct view, and returns one trajectory per view.
* ``integrate_retiring`` is the outcome-only transport of the run
  protocol. It steps like ``integrate_batch`` but retires each system
  as soon as its outcome is fixed and finishes it on the closed-form
  single-branch trajectory (see its docstring for the rule).

Time is never accumulated: step i lives at t = i * dt exactly, so the
step count, not rounding, decides where the integration ends. The state
is checked for finiteness after every step and a non-finite value raises
``IntegrationDiverged`` carrying the step index.

``IntegrationConfig`` states the step-grid rule once, for transport and
the spring sandbox alike: a finite dt > 0 and from 10 to 10**7 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IntegrationDiverged
from .physconst import DerivedCoefficients
from .velocity import (
    BatchWeights,
    SettingPair,
    TrajectoryState,
    check_weights,
    guidance_ratios,
    guidance_velocity,
)

_MIN_STEPS = 10
# Transport takes 3000 steps and hooke-demo at 40 periods 80 000. A spring
# run stores 40 B per step (its rows and t), so 10**7 steps is about 0.4 GB.
_MAX_STEPS = 10**7


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size, total duration, and optional recording cadence.

    ``record_every = 0`` keeps only the endpoint; ``record_every = n``
    additionally stores every n-th step (step 0 and the final step are
    always included when recording is on).
    """

    dt: float = 1.0e-6
    duration: float = 3.0e-3
    record_every: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and math.isfinite(self.duration)):
            raise ConfigError("dt and duration must be finite")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        # compared as a float first: the ratio may overflow to inf
        steps = self.duration / self.dt
        if steps > _MAX_STEPS:
            raise ConfigError(
                f"duration/dt = {steps:.3g} gives more than {_MAX_STEPS} steps; coarsen dt")
        if self.n_steps < _MIN_STEPS:
            raise ConfigError(
                f"duration/dt = {steps:.3g} gives fewer than {_MIN_STEPS} steps; refine dt")
        if not isinstance(self.record_every, int) or self.record_every < 0:
            raise ConfigError("record_every must be a non-negative integer")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def recorded_steps(self) -> list[int]:
        """The steps whose positions an integration returns, in order.

        Only the last step unless recording is on.
        """
        if self.record_every == 0:
            return [self.n_steps]
        return [*range(0, self.n_steps, self.record_every), self.n_steps]


def sign_outcome(z):
    """Detector outcome from a final transverse position. Ties go up.

    A float gives an int, an array an int array of elementwise outcomes.
    """
    signs = np.where(np.asarray(z) >= 0.0, 1, -1)
    return signs if signs.ndim else int(signs)


@dataclass(frozen=True)
class PairTrajectory:
    """One observer's view of a transported pair.

    ``final`` always holds the endpoint; ``samples`` is empty unless
    recording was requested. The outcomes are the signs of both exit
    positions under this view, though an observer on one side only ever
    reads her own.
    """

    settings: SettingPair
    final: TrajectoryState
    outcome_l: int
    outcome_r: int
    samples: tuple[TrajectoryState, ...] = field(default=())


def sample_initial(rng: np.random.Generator, packet_width: float) -> tuple[float, float]:
    """Draw initial transverse positions for one pair.

    Each particle starts at a position drawn from the Born density of its
    packet, a centered normal with standard deviation ``packet_width``.
    The left position is drawn first.
    """
    draws = rng.normal(0.0, packet_width, size=2)
    return float(draws[0]), float(draws[1])


def integrate_pair(init: tuple[float, float], settings_l: SettingPair, settings_r: SettingPair,
                   coeff: DerivedCoefficients,
                   cfg: IntegrationConfig) -> tuple[PairTrajectory, PairTrajectory]:
    """Transport one pair under each observer's attributed settings.

    ``settings_l`` is the setting pair the left observer believes is in
    force, ``settings_r`` the right observer's. When the two coincide the
    system is integrated once and the same trajectory is returned for
    both views; otherwise each view gets its own system in one batch.
    """
    z_l0, z_r0 = init
    if not (math.isfinite(z_l0) and math.isfinite(z_r0)):
        raise ConfigError("initial positions must be finite")
    views = (settings_l,) if settings_r == settings_l else (settings_l, settings_r)
    n = len(views)
    s2, c2 = (np.array(w) for w in zip(*(s.weights() for s in views)))
    z_l, z_r = integrate_batch(np.full(n, z_l0), np.full(n, z_r0), s2, c2, coeff, cfg)
    steps = cfg.recorded_steps()
    z_l, z_r = z_l.reshape(-1, n), z_r.reshape(-1, n)
    trajectories = [
        PairTrajectory(
            settings=settings,
            final=TrajectoryState(float(z_l[-1, j]), float(z_r[-1, j]), cfg.n_steps * cfg.dt),
            outcome_l=sign_outcome(float(z_l[-1, j])),
            outcome_r=sign_outcome(float(z_r[-1, j])),
            samples=tuple(
                TrajectoryState(float(z_l[k, j]), float(z_r[k, j]), step * cfg.dt)
                for k, step in enumerate(steps)) if cfg.record_every else (),
        )
        for j, settings in enumerate(views)
    ]
    return trajectories[0], trajectories[-1]


def _batch(z_l0, z_r0, s2, c2) -> tuple[np.ndarray, BatchWeights]:
    """The positions [z_l; z_r] of a batch as one (2, n) array, and its checked weights."""
    arrays = tuple(np.asarray(a, dtype=float) for a in (z_l0, z_r0, s2, c2))
    if not (arrays[0].shape == arrays[1].shape == arrays[2].shape == arrays[3].shape):
        raise ConfigError("batch arrays must share one shape")
    check_weights(arrays[2], arrays[3])
    return np.stack(arrays[:2]), BatchWeights(arrays[2], arrays[3])


def rk4_step(rhs, i: int, dt: float, y, k1=None) -> list:
    """One classical RK4 step of y' = rhs(t, y) from t = i * dt.

    ``y`` is a sequence of components, Python floats or numpy arrays,
    and ``rhs(t, y)`` returns their derivatives as a sequence of the same
    length. The stages sit at i * dt, i * dt + dt / 2 and (i + 1) * dt.
    ``k1``, when given, is rhs(i * dt, y), already evaluated by the
    caller. Returns the state at (i + 1) * dt as a list.
    """
    t = i * dt
    half = 0.5 * dt
    th = t + half
    if k1 is None:
        k1 = rhs(t, y)
    k2 = rhs(th, [a + half * k for a, k in zip(y, k1)])
    k3 = rhs(th, [a + half * k for a, k in zip(y, k2)])
    k4 = rhs((i + 1) * dt, [a + dt * k for a, k in zip(y, k3)])
    return [a + dt / 6.0 * (p + 2.0 * q + 2.0 * r + s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _guidance(weights: BatchWeights, coeff: DerivedCoefficients):
    """The guidance law as an ``rk4_step`` right-hand side on the one component z."""
    return lambda t, y: [guidance_velocity(t, y[0], weights, coeff)]


def _check_finite(step: int, z: np.ndarray, index: np.ndarray | None = None) -> None:
    """Raise IntegrationDiverged naming the first system with a non-finite position."""
    finite = np.isfinite(z)
    if not finite.all():
        first = int(np.argmin(finite.all(axis=0)))
        raise IntegrationDiverged(
            step=step, system_index=first if index is None else int(index[first]))


def integrate_batch(z_l0: np.ndarray, z_r0: np.ndarray, s2: np.ndarray, c2: np.ndarray,
                    coeff: DerivedCoefficients,
                    cfg: IntegrationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Transport many independent systems at once; returns exit positions.

    All four arrays must share one length. Each element is an independent
    two-particle system with its own setting weights. With
    ``cfg.record_every`` > 0 both returned arrays gain a leading axis:
    row k holds the positions at step ``cfg.recorded_steps()[k]``, so
    the last row is the exit.
    """
    z, weights = _batch(z_l0, z_r0, s2, c2)
    rhs = _guidance(weights, coeff)
    n_steps, every = cfg.n_steps, cfg.record_every
    if every:
        # each recorded step is written once, into the result
        track = np.empty((2, len(cfg.recorded_steps()), z.shape[1]))
        track[:, 0] = z
        k = 1
    for i in range(n_steps):
        (z,) = rk4_step(rhs, i, cfg.dt, [z])
        _check_finite(i + 1, z)
        if every and ((i + 1) % every == 0 or i + 1 == n_steps):
            track[:, k] = z
            k += 1
    return (track[0], track[1]) if every else (z[0], z[1])


def _branch_tail(t: float, t_end: float, z: np.ndarray, r: np.ndarray,
                 coeff: DerivedCoefficients) -> np.ndarray:
    """Position at t_end on the single-branch trajectory through z at t."""
    k = coeff.spread_rate
    lift = r * coeff.accel
    b = (z - lift * (t * t)) / math.hypot(1.0, k * t)
    return lift * (t_end * t_end) + b * math.hypot(1.0, k * t_end)


def _retirements(t: float, t_end: float, z: np.ndarray, r: np.ndarray, weights: BatchWeights,
                 coeff: DerivedCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Which systems retire at t, given their ratios r there, and the
    closed-form exits of those that do."""
    saturated = np.abs(r) == 1.0
    cand = np.flatnonzero(saturated[0] & saturated[1])
    if cand.size == 0:
        return cand, z[:, cand]
    r = r[:, cand]
    end = _branch_tail(t, t_end, z[:, cand], r, coeff)
    held = (guidance_ratios(t_end, end, weights.take(cand), coeff) == r).all(axis=0)
    return cand[held], end[:, held]


def integrate_retiring(z_l0: np.ndarray, z_r0: np.ndarray, s2: np.ndarray, c2: np.ndarray,
                       coeff: DerivedCoefficients,
                       cfg: IntegrationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exit positions whose signs are the outcomes of ``integrate_batch``.

    Takes the same arguments. Systems are stepped with the same RK4
    step. Each step starts with one evaluation of the guidance ratios,
    which the retirement test reads and the first RK4 stage reuses:
    every system whose two ratios are both exactly +-1 there is retired,
    provided the closed-form endpoint gives the same two ratios. A
    retired system's exit is read off the single-branch Gaussian Bohm
    trajectory

        z(t) = r * accel * t^2 + B * sqrt(1 + (spread_rate * t)^2),

    with r its ratio and B fixed by its position at the retirement step,
    and the remaining systems are compacted out of the working arrays.
    The loop ends when no system is active or the transit ends. A
    system that never retires (a field-free or very short transit) gets
    exactly the RK4 exit ``integrate_batch`` would give it.

    Why the two checks are enough: while both ratios are +-1 the law is
    the linear ODE z' = drift(t) z + r spin_kick(t), which the formula
    above solves exactly. Along it, the gap between the dominant
    hyperbolic exponent (the branch with signs (r_L, r_R)) and any other
    is (w(t) sqrt(1 + (k t)^2) / 2) * (c * accel t^2 / sqrt(1 + (k t)^2) + d)
    with c in {2, 4} and d a constant set by B. Both
    w(t) sqrt(1 + (k t)^2) = exp_coeff t^2 / sqrt(1 + (k t)^2) and
    accel t^2 / sqrt(1 + (k t)^2) increase with t, so a gap that is
    positive at retirement only widens: a ratio that is +-1 then stays
    +-1 to the exit, and RK4 would go on integrating the same linear law
    to the same exit up to its truncation error. The first check
    establishes saturation at the retirement step; the second confirms
    in floating point that the ratios still round to the same +-1 at
    the exit, and refuses any tail that is not finite.

    Divergence is checked on every active system after every step, and
    ``IntegrationDiverged.system_index`` is the system's index in the
    input arrays.
    """
    z, weights = _batch(z_l0, z_r0, s2, c2)
    exit_z = np.empty_like(z)
    active = np.arange(z.shape[1])
    dt, n_steps = cfg.dt, cfg.n_steps
    t_end = n_steps * dt
    for i in range(n_steps):
        t = i * dt
        r = guidance_ratios(t, z, weights, coeff)
        done, end = _retirements(t, t_end, z, r, weights, coeff)
        if done.size:
            exit_z[:, active[done]] = end
            keep = np.ones(active.size, dtype=bool)
            keep[done] = False
            z, r, active = z[:, keep], r[:, keep], active[keep]
            weights = weights.take(keep)
        if active.size == 0:
            break
        k1 = [guidance_velocity(t, z, weights, coeff, r)]
        (z,) = rk4_step(_guidance(weights, coeff), i, dt, [z], k1)
        _check_finite(i + 1, z, active)
    exit_z[:, active] = z
    return exit_z[0], exit_z[1]
