"""Coupled spring sandbox: closed-form checks and delay expansions."""

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bohm_epr import (
    ConfigError,
    HookeParams,
    IntegrationConfig,
    IntegrationDiverged,
    SpringMode,
    center_of_mass_spring,
    simulate_spring,
    spring_energy,
)
from bohm_epr import hooke
from bohm_epr.cli import main
from bohm_epr.hooke import write_spring_csv, write_spring_csvs
from bohm_epr.integrate import rk4_step

PERIOD = 2.0 * math.pi / 3.0


def default_grid(periods=10.0, per_period=2000):
    duration = periods * PERIOD
    dt = PERIOD / per_period
    return duration, dt


def test_params_validation():
    with pytest.raises(ConfigError):
        HookeParams(mass_1=0.0)
    with pytest.raises(ConfigError):
        HookeParams(mass_2=-2.0)
    with pytest.raises(ConfigError):
        HookeParams(stiffness=0.0)
    with pytest.raises(ConfigError):
        HookeParams(delay=-0.1)
    with pytest.raises(ConfigError):
        HookeParams(x1_0=math.nan)
    with pytest.raises(ConfigError):
        HookeParams(v2_0=math.inf)
    with pytest.raises(ConfigError):
        HookeParams(mass_1="a")


def test_default_period_and_masses():
    p = HookeParams()
    assert p.total_mass == 3.0
    assert p.reduced_mass == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert p.period == pytest.approx(PERIOD, rel=1e-15)


def test_grid_validation():
    p = HookeParams()
    with pytest.raises(ConfigError):
        simulate_spring(p, SpringMode.INSTANTANEOUS, duration=1.0, dt=0.0)
    with pytest.raises(ConfigError):
        simulate_spring(p, SpringMode.INSTANTANEOUS, duration=0.5, dt=1.0)
    with pytest.raises(ConfigError):
        simulate_spring(p, SpringMode.INSTANTANEOUS, duration=math.inf, dt=0.1)
    with pytest.raises(ConfigError, match="fewer than 10 steps"):
        simulate_spring(p, SpringMode.INSTANTANEOUS, duration=0.5, dt=0.1)
    # step counts whose buffers could never be allocated are refused up front
    with pytest.raises(ConfigError, match="more than 10000000 steps"):
        simulate_spring(p, SpringMode.INSTANTANEOUS, duration=1.0e13, dt=1.0e-3)
    with pytest.raises(ConfigError, match="more than 10000000 steps"):
        center_of_mass_spring(p, duration=1.0e13, dt=1.0e-3)
    with pytest.raises(ConfigError, match="more than 10000000 steps"):
        simulate_spring(HookeParams(delay=1.0e-300), SpringMode.RETARDED,
                        duration=1.0, dt=1.0e-301)
    # with no dt the grid picks tau/8 for a retarded delay, else period/2000
    delayed = HookeParams(delay=0.05)
    assert hooke.spring_grid(delayed, SpringMode.RETARDED, delayed.period).dt == 0.05 / 8.0
    for mode in (SpringMode.INSTANTANEOUS, SpringMode.EXPANDED, SpringMode.CENTER_OF_MASS):
        assert hooke.spring_grid(delayed, mode, delayed.period).dt == delayed.period / 2000.0
    # tau/8 gives fewer than 10 steps over one period, so the period's step is taken
    slow = HookeParams(delay=1.0e10)
    grid = hooke.spring_grid(slow, SpringMode.RETARDED, slow.period)
    assert (grid.dt, grid.n_steps) == (slow.period / 2000.0, 2000)
    # period/2000 breaks dt <= tau/4, so tau/8's refusal is the one raised
    with pytest.raises(ConfigError, match="more than 10000000 steps"):
        hooke.spring_grid(HookeParams(delay=1.0e-300), SpringMode.RETARDED, PERIOD)


def test_instantaneous_matches_closed_form():
    # relative coordinate -2 cos(3t) about a fixed center of mass at 1/3
    p = HookeParams()
    duration, dt = default_grid()
    traj = simulate_spring(p, SpringMode.INSTANTANEOUS, duration, dt)
    x1_exact = 1.0 / 3.0 - (4.0 / 3.0) * np.cos(3.0 * traj.t)
    x2_exact = 1.0 / 3.0 + (2.0 / 3.0) * np.cos(3.0 * traj.t)
    assert np.max(np.abs(traj.x1 - x1_exact)) < 1.0e-8
    assert np.max(np.abs(traj.x2 - x2_exact)) < 1.0e-8


def test_momentum_is_conserved_exactly():
    p = HookeParams(v1_0=0.5, v2_0=-0.2)
    duration, dt = default_grid(periods=5.0)
    traj = simulate_spring(p, SpringMode.INSTANTANEOUS, duration, dt)
    momentum = p.mass_1 * traj.v1 + p.mass_2 * traj.v2
    assert np.max(np.abs(momentum - momentum[0])) < 1.0e-12


def test_energy_drift_without_delay():
    p = HookeParams()
    duration, dt = default_grid(periods=10.0)
    traj = simulate_spring(p, SpringMode.INSTANTANEOUS, duration, dt)
    energy = spring_energy(p, traj)
    drift = np.max(np.abs(energy - energy[0])) / energy[0]
    assert drift < 1.0e-9


def test_retarded_with_zero_delay_is_instantaneous():
    p = HookeParams(delay=0.0)
    duration, dt = default_grid(periods=2.0)
    a = simulate_spring(p, SpringMode.RETARDED, duration, dt)
    b = simulate_spring(p, SpringMode.INSTANTANEOUS, duration, dt)
    assert np.array_equal(a.x1, b.x1)
    assert np.array_equal(a.v1, b.v1)
    assert np.array_equal(a.x2, b.x2)
    assert np.array_equal(a.v2, b.v2)


def test_retarded_requires_resolving_step():
    p = HookeParams(delay=0.05)
    with pytest.raises(ConfigError):
        simulate_spring(p, SpringMode.RETARDED, duration=1.0, dt=0.05)
    # dt exactly delay/4 is allowed
    simulate_spring(p, SpringMode.RETARDED, duration=0.5, dt=0.0125)


def test_retarded_minus_expanded_scales_as_delay_squared():
    duration = 2.0 * PERIOD
    tau_big = PERIOD / 50.0
    tau_small = PERIOD / 100.0
    dt = tau_small / 8.0
    diffs = []
    for tau in (tau_big, tau_small):
        p = HookeParams(delay=tau)
        ret = simulate_spring(p, SpringMode.RETARDED, duration, dt)
        exp = simulate_spring(p, SpringMode.EXPANDED, duration, dt)
        diffs.append(float(np.max(np.abs(ret.x1 - exp.x1))))
    ratio = diffs[0] / diffs[1]
    # halving tau should shrink the discrepancy about fourfold
    assert 3.0 < ratio < 5.5
    # and the expansion should be close to the real thing to begin with
    assert diffs[1] < 0.02


def test_center_of_mass_form_matches_coupled_form():
    p = HookeParams(v1_0=0.4, v2_0=0.1)
    duration, dt = default_grid(periods=4.0)
    coupled = simulate_spring(p, SpringMode.INSTANTANEOUS, duration, dt)
    split = center_of_mass_spring(p, duration, dt)
    assert np.max(np.abs(coupled.x1 - split.x1)) < 1.0e-9
    assert np.max(np.abs(coupled.x2 - split.x2)) < 1.0e-9
    # the drive really moves: nonzero net momentum here
    assert abs(split.x1[-1] - split.x1[0]) > 0.1


def test_spring_csv_format(tmp_path):
    p = HookeParams()
    traj = simulate_spring(p, SpringMode.INSTANTANEOUS, duration=0.1, dt=0.01)
    path = tmp_path / "spring.csv"
    write_spring_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 1 + len(traj.t)
    t0, x10, x20 = lines[1].split(",")
    assert float(t0) == 0.0
    assert float(x10) == -1.0
    assert float(x20) == 1.0


# largest deviation of the step-map rows from per-step RK4, relative to max(1, |x|)
STEP_MAP_RTOL = 1.0e-9


def per_step_rows(p, mode, duration, dt):
    """The reference: one rk4_step per row over the module's right-hand side."""
    rows = np.empty((hooke.spring_grid(p, mode, duration, dt).n_steps + 1, 4))
    rows[0] = (p.x1_0, p.v1_0, p.x2_0, p.v2_0)
    rhs = hooke._rhs(p, mode, rows, dt)
    y = rows[0].tolist()
    for i in range(rows.shape[0] - 1):
        y = rk4_step(rhs, i, dt, y)
        rows[i + 1] = y
    return rows


@pytest.mark.parametrize("velocities", [(0.0, 0.0), (0.5, -0.2)])
@pytest.mark.parametrize("mode", [SpringMode.INSTANTANEOUS, SpringMode.EXPANDED,
                                  SpringMode.CENTER_OF_MASS, SpringMode.RETARDED])
def test_step_map_matches_per_step_rk4(mode, velocities):
    # the retarded coupling takes the step map only without a delay
    delay = 0.0 if mode is SpringMode.RETARDED else PERIOD / 50.0
    p = HookeParams(delay=delay, v1_0=velocities[0], v2_0=velocities[1])
    duration, dt = default_grid(periods=5.0)
    traj = simulate_spring(p, mode, duration, dt)
    ref = per_step_rows(p, mode, duration, dt)
    got = np.stack((traj.x1, traj.v1, traj.x2, traj.v2), axis=1)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < STEP_MAP_RTOL


# sha256 of the retarded coupling's CSV at `hooke-demo --tau 0.05 --periods 2`
RETARDED_CSV = "16e2f90f14a1817379afa9e79177f45cc083f72c01b270817d1a4f309a59f62b"


def test_retarded_csv_is_pinned(tmp_path):
    # the delayed coupling still steps row by row; its output must not move
    assert main(["hooke-demo", "--coupling", "retarded", "--tau", "0.05", "--periods", "2",
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "hooke_retarded.csv").read_bytes()).hexdigest()
    assert digest == RETARDED_CSV


# sha256 of the history-free couplings' CSVs at `hooke-demo --periods 2`
# (default tau 0.05); a change that moves a row must re-pin them and say so
GOLDEN_SPRING_CSVS = {
    "instantaneous": "76a95d0d8a10b5de51c66778b44286809b0183929f4b641ab775b5895397eaef",
    "expanded": "17c1412b1b6ee16b5ddb41685d0e0ea9eda5e172663377987b105e97e8dd796e",
    "cm": "69f4dd4bab3798f30da9e4955df857e051a7dc2f29cea0bb43d749d20b805993",
}


@pytest.mark.parametrize("coupling", sorted(GOLDEN_SPRING_CSVS))
def test_step_map_csvs_are_pinned(tmp_path, coupling):
    assert main(["hooke-demo", "--coupling", coupling, "--periods", "2",
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"hooke_{coupling}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SPRING_CSVS[coupling]


def test_one_joint_run_reproduces_every_pinned_csv(tmp_path):
    # the three history-free couplings advance together, the retarded one on its own grid
    assert main(["hooke-demo", "--coupling", "all", "--periods", "2",
                 "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / f"hooke_{name}.csv").read_bytes()).hexdigest()
               for name in (*GOLDEN_SPRING_CSVS, "retarded")}
    assert digests == {**GOLDEN_SPRING_CSVS, "retarded": RETARDED_CSV}


def test_joint_csvs_equal_one_coupling_at_a_time(tmp_path):
    # one shared grid of 4964 steps, whose last block of 256 rows holds 100;
    # the retarded coupling's buffer advances with the three step maps
    assert main(["hooke-demo", "--coupling", "all", "--dt", "0.001", "--periods", "2.37",
                 "--out", str(tmp_path / "joint")]) == 0
    p = HookeParams(delay=0.05)
    for mode in SpringMode:
        alone = tmp_path / f"{mode.value}.csv"
        write_spring_csv(simulate_spring(p, mode, 2.37 * p.period, 0.001), alone)
        assert (tmp_path / "joint" / f"hooke_{mode.value}.csv").read_bytes() == alone.read_bytes()


def test_joint_run_reports_the_first_coupling_in_order_to_diverge(tmp_path):
    # alone, the instantaneous coupling diverges at step 549, in the third
    # block, and the expanded one at step 32, in the first
    p = HookeParams(stiffness=8.0e4, delay=1.0)
    steps = {}
    for mode in (SpringMode.INSTANTANEOUS, SpringMode.EXPANDED):
        with pytest.raises(IntegrationDiverged) as err:
            simulate_spring(p, mode, 200.0, 0.01)
        steps[mode] = err.value.step
    assert steps == {SpringMode.INSTANTANEOUS: 549, SpringMode.EXPANDED: 32}
    for order in ([SpringMode.INSTANTANEOUS, SpringMode.EXPANDED],
                  [SpringMode.EXPANDED, SpringMode.INSTANTANEOUS]):
        runs = {mode: (hooke.spring_grid(p, mode, 200.0, 0.01), tmp_path / mode.value)
                for mode in order}
        with pytest.raises(IntegrationDiverged) as err:
            list(write_spring_csvs(p, runs))
        assert err.value.step == steps[order[0]]


def test_each_run_builds_its_grid_once(tmp_path, monkeypatch):
    # hooke-demo checks one grid per coupling and runs the grids it checked
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs)
        return IntegrationConfig(*args, **kwargs)

    monkeypatch.setattr(hooke, "IntegrationConfig", counting)
    assert main(["hooke-demo", "--coupling", "all", "--dt", "0.001", "--periods", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert len(built) == 4
    built.clear()
    simulate_spring(HookeParams(delay=0.05), SpringMode.RETARDED, *default_grid(periods=1.0))
    assert len(built) == 1


@pytest.mark.parametrize("mode, delay", [(SpringMode.INSTANTANEOUS, 0.0),
                                         (SpringMode.RETARDED, PERIOD / 50.0)])
def test_trajectory_columns_share_one_row_buffer(mode, delay):
    traj = simulate_spring(HookeParams(delay=delay), mode, *default_grid(periods=1.0))
    # columns of one array overlap in extent though not in elements
    rows = traj.x1.base
    assert rows is not None and rows.shape == (len(traj.t), 4)
    assert all(col.base is rows and np.may_share_memory(col, traj.x1)
               for col in (traj.v1, traj.x2, traj.v2))


@pytest.mark.parametrize("mode", [SpringMode.INSTANTANEOUS, SpringMode.RETARDED])
def test_a_spring_run_peaks_at_its_five_float_columns(mode):
    # the hooke-demo grids at --periods 40: 80 001 and 13 405 rows. The
    # result holds 40 B a row (t and the four row columns); an int64 index
    # array formed beside t would raise the peak to about 49 and 53 B a row
    p = HookeParams(delay=0.05)
    dt = p.delay / 8.0 if mode is SpringMode.RETARDED else p.period / 2000.0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = simulate_spring(p, mode, 40.0 * p.period, dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(traj.t) == (80_001 if mode is SpringMode.INSTANTANEOUS else 13_405)
    assert peak <= 42 * len(traj.t)


def test_printed_drift_matches_energy_over_every_row(tmp_path, capsys):
    # hooke-demo reads only the end rows; the full energy array must agree
    assert main(["hooke-demo", "--tau", "0.05", "--periods", "2", "--out", str(tmp_path)]) == 0
    printed = {line.split()[0]: line.split()[-1]
               for line in capsys.readouterr().out.splitlines() if "energy drift" in line}
    steps = json.loads((tmp_path / "manifest.json").read_text())["provenance"]["dt"]
    p = HookeParams(delay=0.05)
    assert sorted(printed) == sorted(steps) == sorted(m.value for m in SpringMode)
    for name, dt in steps.items():
        energy = spring_energy(p, simulate_spring(p, SpringMode(name), 2 * p.period, dt))
        drift = abs(float(energy[-1] - energy[0])) / abs(float(energy[0]))
        assert printed[name] == f"{drift:.3e}"


@pytest.mark.parametrize("mode,params,duration,dt,step", [
    # the step-map path: hooke-demo's expanded grid at one period, where a
    # delay this long grows the state past the float range by row 11
    (SpringMode.EXPANDED, HookeParams(delay=1.0e10), PERIOD, PERIOD / 2000.0, 11),
    # the step map of a spring this stiff overflows, and so does the retarded loop
    (SpringMode.INSTANTANEOUS, HookeParams(stiffness=1.0e300), 1.0, 0.00625, 1),
    (SpringMode.RETARDED, HookeParams(stiffness=1.0e300, delay=0.05), 1.0, 0.00625, 1),
], ids=["expanded", "instantaneous", "retarded"])
def test_a_diverging_spring_run_names_its_first_non_finite_row(mode, params, duration, dt,
                                                               step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDiverged) as err:
            simulate_spring(params, mode, duration, dt)
    assert (err.value.step, err.value.system_index) == (step, None)
    assert str(err.value) == f"non-finite state at step {step}"
