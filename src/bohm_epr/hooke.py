"""Two masses coupled by a Hooke spring, with optionally delayed coupling.

A sandbox for the information-delay idea in a setting where everything
can be checked against closed-form mechanics. ``simulate_spring`` runs
one coupling and holds it; ``write_spring_csvs`` runs several and writes
each to its CSV as its rows are made. A ``SpringMode`` picks one of four
couplings:

* ``INSTANTANEOUS``: each mass feels the spring stretched to where the
  other mass is right now,
      m1 x1'' = -k (x1 - x2),   m2 x2'' = -k (x2 - x1).
* ``RETARDED``: each mass feels the other's position a fixed delay tau
  ago. Before t = 0 the partners are taken to have sat at their initial
  positions. The delayed positions are read from the stored history by
  linear interpolation, so the step must resolve the delay: dt <= tau/4
  is enforced whenever tau > 0. With tau = 0 this is exactly the
  instantaneous system.
* ``EXPANDED``: the retarded force expanded to first order in tau,
      m1 x1'' = -k (x1 - x2) - k tau v2,
      m2 x2'' = -k (x2 - x1) - k tau v1,
  a pair of ordinary ODEs. Retarded and expanded trajectories agree to
  O(tau^2), which halving tau makes visible.
* ``CENTER_OF_MASS``: each mass integrated separately against the
  analytically known center of mass X(t) = X0 + V t, using the equivalent
  one-body forces m1 x1'' = -k (M/m2) (x1 - X(t)) and symmetrically for
  x2. For the instantaneous coupling this decomposition is exact.
  ``center_of_mass_spring`` is a shorthand for this mode.

Every coupling but the retarded one with tau > 0 reads no history and is
linear in the state, with at most affine time forcing. For those one
``rk4_step`` is an exact affine map of the step index and the state, so
``spring_blocks``, the one source of rows for both entry points, applies
that step to probe states once, reads off its 6x6 matrix on
(x1, v1, x2, v2, 1, i), and makes the rows in blocks with powers of it.
The retarded loop steps one row at a time into a buffer of the whole
run. A trajectory's columns are views of its one row array, so holding
any keeps the run.

``spring_grid`` states the grid rule once: the delay rule above, then
``integrate.IntegrationConfig``, the step rule transport uses. So a grid
is checked before any buffer is allocated, and a caller can check every
grid before it runs any of them.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, IntegrationDiverged
from .integrate import IntegrationConfig, rk4_step
from .physconst import check_finite_fields


_HEADER = "t,x1,x2\n"

# Rows filled per block by the step-map powers T^1 ... T^_BLOCK, and per
# divergence check on every path: large enough that the Python loop over
# blocks is cheap, small enough that the powers take only about 74 kB.
_BLOCK = 256


class SpringMode(Enum):
    INSTANTANEOUS = "instantaneous"
    RETARDED = "retarded"
    EXPANDED = "expanded"
    CENTER_OF_MASS = "cm"


@dataclass(frozen=True)
class HookeParams:
    """Masses, stiffness, coupling delay, and initial conditions."""

    mass_1: float = 1.0
    mass_2: float = 2.0
    stiffness: float = 6.0
    delay: float = 0.0
    x1_0: float = -1.0
    v1_0: float = 0.0
    x2_0: float = 1.0
    v2_0: float = 0.0

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if self.mass_1 <= 0.0 or self.mass_2 <= 0.0:
            raise ConfigError("masses must be positive")
        if self.stiffness <= 0.0:
            raise ConfigError("stiffness must be positive")
        if self.delay < 0.0:
            raise ConfigError("delay must be non-negative")

    @property
    def total_mass(self) -> float:
        return self.mass_1 + self.mass_2

    @property
    def reduced_mass(self) -> float:
        return self.mass_1 * self.mass_2 / self.total_mass

    @property
    def period(self) -> float:
        """Oscillation period of the instantaneous relative coordinate."""
        return 2.0 * math.pi * math.sqrt(self.reduced_mass / self.stiffness)


@dataclass(frozen=True)
class SpringTrajectory:
    """Sampled motion of both masses, one row per step.

    x1, v1, x2 and v2 are column views of one row array: any keeps the whole run.
    """

    t: np.ndarray
    x1: np.ndarray
    v1: np.ndarray
    x2: np.ndarray
    v2: np.ndarray


def spring_grid(params: HookeParams, mode: SpringMode, duration: float,
                dt: float) -> IntegrationConfig:
    """The step grid of one run, checked: a retarded delay first, then the step rule."""
    if mode is SpringMode.RETARDED and params.delay > 0.0 and dt > params.delay / 4.0:
        raise ConfigError(f"retarded coupling needs dt <= delay/4 "
                          f"({params.delay / 4.0:.6g}), got dt = {dt:.6g}")
    return IntegrationConfig(dt=dt, duration=duration)


def _rhs(params: HookeParams, mode: SpringMode, rows: np.ndarray, dt: float):
    """The right-hand side of ``mode``; a retarded one reads rows already written."""
    k_m1 = params.stiffness / params.mass_1
    k_m2 = params.stiffness / params.mass_2
    tau = params.delay

    if mode is SpringMode.RETARDED and tau > 0.0:
        # Indexing a memoryview of the rows gives Python floats, at less
        # than half the cost of numpy scalars and with no copy of the rows.
        cells = memoryview(rows)

        def delayed(col: int, t_query: float) -> float:
            # Constant prehistory: before launch each mass sat at its start.
            # dt <= tau/4 puts every query before the step being taken.
            if t_query <= 0.0:
                return cells[0, col]
            pos = t_query / dt
            j = int(pos)
            frac = pos - j
            if frac == 0.0:
                return cells[j, col]
            return cells[j, col] * (1.0 - frac) + cells[j + 1, col] * frac

        def rhs(ts: float, state: list[float]):
            s_x1, s_v1, s_x2, s_v2 = state
            return (
                s_v1,
                -k_m1 * (s_x1 - delayed(2, ts - tau)),
                s_v2,
                -k_m2 * (s_x2 - delayed(0, ts - tau)),
            )
    elif mode is SpringMode.EXPANDED:
        def rhs(t: float, y: list[float]):
            x1, v1, x2, v2 = y
            stretch = x1 - x2
            return (v1, -k_m1 * stretch - k_m1 * tau * v2,
                    v2, k_m2 * stretch - k_m2 * tau * v1)
    elif mode is SpringMode.CENTER_OF_MASS:
        m_total = params.total_mass
        x_cm0 = (params.mass_1 * params.x1_0 + params.mass_2 * params.x2_0) / m_total
        v_cm = (params.mass_1 * params.v1_0 + params.mass_2 * params.v2_0) / m_total
        rate_1 = params.stiffness * m_total / (params.mass_1 * params.mass_2)

        def rhs(t: float, y: list[float]):
            x1, v1, x2, v2 = y
            x_cm = x_cm0 + v_cm * t
            return (v1, -rate_1 * (x1 - x_cm), v2, -rate_1 * (x2 - x_cm))
    else:
        # Instantaneous coupling; also the tau = 0 retarded system.
        def rhs(t: float, y: list[float]):
            x1, v1, x2, v2 = y
            stretch = x1 - x2
            return (v1, -k_m1 * stretch, v2, k_m2 * stretch)
    return rhs


def _step_map(rhs, dt: float) -> np.ndarray:
    """RK4's one step of a history-free, affine ``rhs`` as a 6x6 matrix T.

    On z = (x1, v1, x2, v2, 1, i), z_{i+1} = T z_i is ``rk4_step`` from
    step i. The step is applied to the four unit states and the zero
    state at step 0, and to the zero state at step 1; the forcing part is
    affine in t, so those two zero-state images fix its column for every i.
    """
    probes = np.hstack((np.eye(4), np.zeros((4, 1))))
    image = np.array(rk4_step(rhs, 0, dt, list(probes)))
    drift = np.array(rk4_step(rhs, 1, dt, list(np.zeros((4, 1)))))[:, 0] - image[:, 4]
    t_map = np.zeros((6, 6))
    t_map[:4, :4] = image[:, :4] - image[:, 4:]
    t_map[:4, 4] = image[:, 4]
    t_map[:4, 5] = drift
    t_map[4, 4] = t_map[5, 4] = t_map[5, 5] = 1.0
    return t_map


def _check_rows(rows: np.ndarray, first: int) -> None:
    """Raise IntegrationDiverged at the first non-finite row; ``rows`` starts at row ``first``."""
    if not np.isfinite(rows).all():
        raise IntegrationDiverged(step=first + int(np.argmin(np.isfinite(rows).all(axis=1))))


def spring_blocks(params: HookeParams, mode: SpringMode, duration: float, dt: float,
                  rows: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield the rows (x1, v1, x2, v2) of one run: row 0, then rows 1-256, 257-512, ...

    Each block of ``_BLOCK`` rows is computed from the last row before it.
    A coupling that reads no history applies T^1 ... T^_BLOCK of RK4's
    one-step map (see ``_step_map``) to that row; the products are einsum,
    not matmul, which would start BLAS and add about 0.25 MiB to the peak
    resident set. The retarded coupling with a delay steps one row at a
    time on a list of Python floats, writing each row into ``rows``, an
    (n + 1, 4) buffer (allocated when None), since its force reads the rows
    already written: a numpy 4-vector costs more per operation than it
    saves. Its blocks are views of that buffer. Each block is checked
    before it is yielded: a non-finite row raises ``IntegrationDiverged``
    naming it.
    """
    n = spring_grid(params, mode, duration, dt).n_steps
    start = (params.x1_0, params.v1_0, params.x2_0, params.v2_0)
    if mode is SpringMode.RETARDED and params.delay > 0.0:
        rows = np.empty((n + 1, 4)) if rows is None else rows
        rows[0] = start
        rhs = _rhs(params, mode, rows, dt)
        yield rows[:1]
        y = rows[0].tolist()
        for s in range(1, n + 1, _BLOCK):
            for i in range(s, min(s + _BLOCK, n + 1)):
                y = rk4_step(rhs, i - 1, dt, y)
                rows[i] = y
            _check_rows(rows[s:i + 1], s)
            yield rows[s:i + 1]
        return
    # a map that overflows yields non-finite rows, which the check names
    with np.errstate(over="ignore", invalid="ignore"):
        t_map = _step_map(_rhs(params, mode, None, dt), dt)
        powers = np.empty((_BLOCK, 6, 6))
        powers[0] = t_map
        for k in range(1, _BLOCK):
            powers[k] = np.einsum("ij,jk->ik", t_map, powers[k - 1])
    z = np.array([*start, 1.0, 0.0])
    yield z[None, :4]
    for s in range(0, n, _BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            block = np.einsum("kij,j->ki", powers[:min(_BLOCK, n - s)], z)
        _check_rows(block, s + 1)
        yield block[:, :4]
        z = block[-1]


def simulate_spring(params: HookeParams, mode: SpringMode, duration: float,
                    dt: float) -> SpringTrajectory:
    """Integrate the pair under the chosen coupling with fixed-step RK4.

    Row i holds (x1, v1, x2, v2) at step i, filled from ``spring_blocks``.
    A non-finite row raises ``IntegrationDiverged`` naming it.
    """
    rows = np.empty((spring_grid(params, mode, duration, dt).n_steps + 1, 4))
    at = 0
    for block in spring_blocks(params, mode, duration, dt, rows):
        rows[at:at + len(block)] = block  # the retarded blocks are already in place
        at += len(block)
    # a float arange scaled in place holds no int64 index array beside the result
    t = np.arange(rows.shape[0], dtype=float)
    t *= dt
    return SpringTrajectory(t, *rows.T)


def center_of_mass_spring(params: HookeParams, duration: float, dt: float) -> SpringTrajectory:
    """Each mass driven by the analytic center of mass, instantaneous coupling."""
    return simulate_spring(params, SpringMode.CENTER_OF_MASS, duration, dt)


def spring_energy(params: HookeParams, traj: SpringTrajectory) -> np.ndarray:
    """Total mechanical energy along a trajectory (instantaneous potential)."""
    kinetic = 0.5 * params.mass_1 * traj.v1**2 + 0.5 * params.mass_2 * traj.v2**2
    potential = 0.5 * params.stiffness * (traj.x1 - traj.x2) ** 2
    return kinetic + potential


def _csv_lines(stamps: list[str], x1: list[float], x2: list[float]) -> str:
    """The CSV lines of one block: each row's formatted ``t,`` stamp, then x1,x2."""
    return "".join([f"{t}{a!r},{b!r}\n" for t, a, b in zip(stamps, x1, x2)])


def write_spring_csv(traj: SpringTrajectory, path) -> None:
    """Positions against time, header t,x1,x2."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER)
        for s in range(0, len(traj.t), _BLOCK):
            part = slice(s, s + _BLOCK)
            fh.write(_csv_lines([f"{t!r}," for t in traj.t[part].tolist()],
                                traj.x1[part].tolist(), traj.x2[part].tolist()))


def write_spring_csvs(params: HookeParams, duration: float,
                      runs: dict[SpringMode, tuple[float, object]]
                      ) -> Iterator[tuple[SpringMode, SpringTrajectory]]:
    """Run each coupling of ``runs`` ({mode: (dt, path)}) and write its CSV.

    Everything runs on the first ``next``. Couplings that share a dt
    advance together through ``spring_blocks``, and each block's lines go
    to the files as ``write_spring_csv`` would write them, so a block's t
    column is formatted once for all of them and no history-free run is
    held. Then yields, in ``runs`` order, each coupling with its rows 0
    and n as a two-row trajectory; at the first coupling that diverged it
    raises that coupling's ``IntegrationDiverged`` instead, as running the
    couplings one after another would.
    """
    ends: dict[SpringMode, SpringTrajectory | IntegrationDiverged] = {}
    for dt in dict.fromkeys(dt for dt, _ in runs.values()):
        group = [mode for mode, (step, _) in runs.items() if step == dt]
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(runs[mode][1], "w", encoding="utf-8"))
                     for mode in group]
            for fh in files:
                _emit(fh, _HEADER)
            first, last = {}, {}
            at = 0
            for blocks in itertools.zip_longest(
                    *(_until_diverged(spring_blocks(params, mode, duration, dt), mode, ends)
                      for mode in group)):
                size = next(len(block) for block in blocks if block is not None)
                stamps = [f"{i * dt!r}," for i in range(at, at + size)]
                at += size
                for mode, fh, block in zip(group, files, blocks):
                    if block is not None:
                        _emit(fh, _csv_lines(stamps, block[:, 0].tolist(), block[:, 2].tolist()))
                        first.setdefault(mode, block[0])
                        last[mode] = block[-1]
        for mode in group:
            if mode not in ends:
                ends[mode] = SpringTrajectory(np.array([0.0, (at - 1) * dt]),
                                              *np.stack((first[mode], last[mode])).T)
    for mode in runs:
        if isinstance(ends[mode], IntegrationDiverged):
            raise ends[mode]
        yield mode, ends[mode]


def _emit(fh, text: str) -> None:
    """Write and flush ``text``; an OSError is raised again naming fh's file.

    A failed write to an open file names no file, and several are open
    here. The failed file is closed at once, dropping what it could not
    write, so closing it again on the way out raises nothing new.
    """
    try:
        fh.write(text)
        fh.flush()
    except OSError as err:
        with contextlib.suppress(OSError):
            fh.close()
        raise OSError(err.errno, err.strerror, fh.name) from err


def _until_diverged(blocks: Iterator[np.ndarray], mode: SpringMode, failures: dict):
    """The blocks of one run, ending early with its divergence kept in ``failures[mode]``."""
    try:
        yield from blocks
    except IntegrationDiverged as err:
        failures[mode] = err
