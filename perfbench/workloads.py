"""The benchmark's workloads: which CLI commands one round runs, with what inputs.

A round is a fixed list of operations; an operation is one call of the
CLI entry point with one argument vector. Every round of a run repeats
the same operations with the same seed, so every round must produce
the same output files (apart from run times and timestamps).

This module uses the standard library only: the worker imports it
after the program, and the set-up time it reports must not include
anything but the program and numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Analyzer menus and the silver bench, written out so the output checks
# never depend on the program's defaults.
MENU_A = (0.0, 1.5707963267948966)
MENU_B = (0.7853981633974483, 2.356194490192345)
SILVER = {
    "magnetic_moment": 9.274e-21,
    "mass": 108.0 * 1.6605e-24,
    "packet_width": 1.0e-3,
    "field_gradient": 1.0e4,
    "magnet_length": 30.0,
    "beam_speed": 1.0e4,
}
BENCH = {
    "separation": 100.0,
    "source_to_magnet": 35.0,
    "pair_period": 1.0e-2,
    "signal_speed": 8.0e3,
}
DT = 1.0e-6

# table1: the program's own default bench; 1000 pairs keeps one table
# (four runs of 3000 RK4 steps) near 11 s on a 2-core machine.
TABLE1_PAIRS = 1000

# rates_fast_beam: a 300-step transit, every switch loses its particle.
RATES_PAIRS = 20000
RATES_WORKERS = 2
RATES_PHYSICS = dict(SILVER, beam_speed=1.0e5)
RATES_EXPERIMENT = dict(BENCH, mode="local", efficiency="inefficient",
                        normalization="coincidences", kick_threshold=0.0)

# trajectories_spring: recorded scalar trajectories plus the spring toy,
# sized so each half takes roughly half of a round.
TRAJ_PAIRS = 24
TRAJ_RECORD_EVERY = 10
HOOKE = {
    "mass_1": 1.0, "mass_2": 2.0, "stiffness": 6.0, "delay": 0.05,
    "x1_0": -1.0, "v1_0": 0.0, "x2_0": 1.0, "v2_0": 0.0,
}
HOOKE_PERIODS = 40


@dataclass(frozen=True)
class Operation:
    label: str
    argv: tuple[str, ...]
    out_dir: str


def _ini(physics: dict, experiment: dict) -> str:
    lines = ["[physics]"]
    lines += [f"{k} = {v!r}" for k, v in physics.items()]
    lines += ["", "[integration]", f"dt = {DT!r}", "", "[experiment]"]
    lines += [f"angles_a = {MENU_A[0]!r}, {MENU_A[1]!r}",
              f"angles_b = {MENU_B[0]!r}, {MENU_B[1]!r}"]
    lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
              for k, v in experiment.items()]
    return "\n".join(lines) + "\n"


def operations(workload: str, seed: int, work_dir: str, out_root: str,
               workers: int | None = None) -> list[Operation]:
    """The operations of one round; writes any config file they read into work_dir."""
    s = str(seed)
    if workload == "table1":
        return [Operation("table1", ("table1", "--pairs", str(TABLE1_PAIRS), "--seed", s,
                                     "--out", os.path.join(out_root, "table1")),
                          os.path.join(out_root, "table1"))]
    if workload == "rates_fast_beam":
        ini = os.path.join(work_dir, "rates_fast_beam.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(_ini(RATES_PHYSICS, RATES_EXPERIMENT))
        out = os.path.join(out_root, "run-epr")
        return [Operation("run-epr", (
            "run-epr", "--config", ini, "--rates", "--events",
            "--workers", str(workers or RATES_WORKERS),
            "--pairs", str(RATES_PAIRS), "--seed", s, "--out", out), out)]
    if workload == "trajectories_spring":
        ini = os.path.join(work_dir, "trajectories.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(_ini(SILVER, dict(BENCH)))
        traj = os.path.join(out_root, "dump-trajectories")
        spring = os.path.join(out_root, "hooke-demo")
        return [
            Operation("dump-trajectories", (
                "dump-trajectories", "--config", ini, "--mode", "local",
                "--pairs", str(TRAJ_PAIRS), "--record-every", str(TRAJ_RECORD_EVERY),
                "--seed", s, "--out", traj), traj),
            Operation("hooke-demo", (
                "hooke-demo", "--coupling", "all", "--tau", repr(HOOKE["delay"]),
                "--periods", str(HOOKE_PERIODS), "--out", spring), spring),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("table1", "rates_fast_beam", "trajectories_spring")
