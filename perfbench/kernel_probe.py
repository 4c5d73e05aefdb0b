"""Microseconds per ``velocity_pair_batch`` call at 4096 systems, early and late in the transit.

    python3 perfbench/kernel_probe.py

A reference figure for the README, not a workload. The systems sit
where the default silver bench puts them at time t: each packet
deflected by accel * t^2 to the side of its outcome and spread by
sqrt(1 + (spread_rate * t)^2), with the four setting pairs of the
CHSH cells spread evenly over the batch. Prints the median of 7
repeats of 200 calls for each t.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from bohm_epr.physconst import derive_coefficients, RawPhysicalInputs  # noqa: E402
from bohm_epr.velocity import velocity_pair_batch  # noqa: E402

SYSTEMS = 4096
CALLS = 200


def main() -> int:
    coeff = derive_coefficients(RawPhysicalInputs())
    co = ref.coefficients(wl.SILVER)
    rng = np.random.default_rng(2024)
    z0 = rng.normal(0.0, wl.SILVER["packet_width"], size=(2, SYSTEMS))
    side = rng.choice((-1.0, 1.0), size=SYSTEMS)
    cells = [ref.weights(a, b) for a in wl.MENU_A for b in wl.MENU_B]
    s2 = np.array([cells[i % 4][0] for i in range(SYSTEMS)])
    c2 = 1.0 - s2
    for t in (1.0e-4, 1.0e-3):
        spread = np.sqrt(1.0 + (co["spread_rate"] * t) ** 2)
        shift = side * co["accel"] * t * t
        z_l = shift + z0[0] * spread
        z_r = -shift + z0[1] * spread
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(CALLS):
                velocity_pair_batch(t, z_l, z_r, s2, c2, coeff)
            times.append((time.perf_counter() - t0) / CALLS)
        print(f"t = {t * 1e3:g} ms: {statistics.median(times) * 1e6:.1f} us per call "
              f"({SYSTEMS} systems)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
