"""Reference computations written from the documented physics, not from the program.

Nothing here imports ``bohm_epr``. The formulas come from the module
docstrings of the program (the guidance law of ``velocity.py``, the
coefficient definitions of ``physconst.py``, the coupling equations of
``hooke.py``) and from the documented draw order of the per-pair random
streams, so a check built on these functions fails when the program
drifts from what it documents.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

HBAR = 1.054571817e-27


# --- pair streams and switching timelines -------------------------------

def pair_draws(master_seed: int, n: int, packet_width: float):
    """Menu indices and initial positions of the first n pairs.

    Stream of pair i: PCG64 seeded by SeedSequence((master_seed, 0, i));
    draw order A index, B index, left position, right position.
    """
    a_idx = np.empty(n, dtype=np.int64)
    b_idx = np.empty(n, dtype=np.int64)
    z0 = np.empty((n, 2))
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, 0, i))))
        a_idx[i] = rng.integers(0, 2)
        b_idx[i] = rng.integers(0, 2)
        z0[i] = rng.normal(0.0, packet_width, size=2)
    return a_idx, b_idx, z0


def initial_indices(master_seed: int) -> tuple[int, int]:
    """Menu indices held before the first launch (one draw per side)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, 1))))
    return int(rng.integers(0, 2)), int(rng.integers(0, 2))


def partner_launch_indices(count: int, n: int, cfg: dict) -> list[int]:
    """For pairs 0..count-1 in local mode, the launch whose partner setting a side sees.

    That is the last launch k * pair_period at or before magnet entry
    minus the news delay separation / signal_speed; -1 means the setting
    held before the first launch.
    """
    launches = [k * cfg["pair_period"] for k in range(n)]
    flight = cfg["source_to_magnet"] / cfg["beam_speed"]
    delay = cfg["separation"] / cfg["signal_speed"]
    return [bisect.bisect_right(launches, (launches[i] + flight) - delay) - 1
            for i in range(count)]


# --- the guidance law ----------------------------------------------------

def coefficients(phys: dict) -> dict:
    """accel, exp_coeff, spread_rate and transit time from bench numbers."""
    accel = phys["field_gradient"] * phys["magnetic_moment"] / (2.0 * phys["mass"])
    return {
        "accel": accel,
        "exp_coeff": 2.0 * accel / phys["packet_width"] ** 2,
        "spread_rate": HBAR / (2.0 * phys["mass"] * phys["packet_width"] ** 2),
        "transit_time": phys["magnet_length"] / phys["beam_speed"],
    }


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def coupling_ratios(u, v, s2, c2):
    """ratio_L and ratio_R as tanh averages, safe for any argument size.

    With p = s2 cosh u / (s2 cosh u + c2 cosh v), the two ratios of the
    guidance law are p tanh u + (1 - p) tanh v and p tanh u - (1 - p) tanh v.
    p is a logistic function of log-weights, so nothing overflows.
    """
    with np.errstate(divide="ignore"):
        logit = (np.log(s2) + _log_cosh(u)) - (np.log(c2) + _log_cosh(v))
    p = np.where(logit >= 0.0,
                 1.0 / (1.0 + np.exp(-np.abs(logit))),
                 np.exp(-np.abs(logit)) / (1.0 + np.exp(-np.abs(logit))))
    tu = np.tanh(u)
    tv = np.tanh(v)
    return p * tu + (1.0 - p) * tv, p * tu - (1.0 - p) * tv


def guidance_velocity(t: float, z_l, z_r, s2, c2, co: dict):
    kt2 = (co["spread_rate"] * t) ** 2
    w = co["exp_coeff"] * t * t / (1.0 + kt2)
    drift = co["spread_rate"] ** 2 * t / (1.0 + kt2)
    kick = co["accel"] * t * (2.0 - kt2 / (1.0 + kt2))
    r_l, r_r = coupling_ratios(0.5 * w * (z_l + z_r), 0.5 * w * (z_l - z_r), s2, c2)
    return drift * z_l + r_l * kick, drift * z_r + r_r * kick


def rk4_guided(z_l0, z_r0, s2, c2, co: dict, dt: float, n_steps: int, every: int):
    """Classical RK4 at t = i * dt; returns {step: (z_l, z_r)} every ``every`` steps."""
    z_l = np.array(z_l0, dtype=float)
    z_r = np.array(z_r0, dtype=float)
    out = {0: (z_l.copy(), z_r.copy())}
    for i in range(n_steps):
        t = i * dt
        k1 = guidance_velocity(t, z_l, z_r, s2, c2, co)
        k2 = guidance_velocity(t + 0.5 * dt, z_l + 0.5 * dt * k1[0], z_r + 0.5 * dt * k1[1], s2, c2, co)
        k3 = guidance_velocity(t + 0.5 * dt, z_l + 0.5 * dt * k2[0], z_r + 0.5 * dt * k2[1], s2, c2, co)
        k4 = guidance_velocity((i + 1) * dt, z_l + dt * k3[0], z_r + dt * k3[1], s2, c2, co)
        z_l = z_l + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        z_r = z_r + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        if (i + 1) % every == 0 or i + 1 == n_steps:
            out[i + 1] = (z_l.copy(), z_r.copy())
    return out


def weights(angle_a: float, angle_b: float) -> tuple[float, float]:
    s2 = math.sin(0.5 * (angle_a - angle_b)) ** 2
    return s2, 1.0 - s2


# --- the spring sandbox --------------------------------------------------

def two_body(p: dict, t: np.ndarray):
    """Instantaneous Hooke coupling in closed form: centre of mass plus relative mode."""
    m1, m2, k = p["mass_1"], p["mass_2"], p["stiffness"]
    big_m = m1 + m2
    omega = math.sqrt(k * big_m / (m1 * m2))
    x_cm = (m1 * p["x1_0"] + m2 * p["x2_0"]) / big_m + (m1 * p["v1_0"] + m2 * p["v2_0"]) / big_m * t
    r0 = p["x1_0"] - p["x2_0"]
    w0 = p["v1_0"] - p["v2_0"]
    rel = r0 * np.cos(omega * t) + w0 / omega * np.sin(omega * t)
    return x_cm + m2 / big_m * rel, x_cm - m1 / big_m * rel


def expanded_exact(p: dict, t: np.ndarray):
    """Exact solution of the first-order-in-tau linear ODE, exp(A t) y0 by eigenvectors."""
    m1, m2, k, tau = p["mass_1"], p["mass_2"], p["stiffness"], p["delay"]
    a = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-k / m1, 0.0, k / m1, -k * tau / m1],
        [0.0, 0.0, 0.0, 1.0],
        [k / m2, -k * tau / m2, -k / m2, 0.0],
    ])
    lam, vec = np.linalg.eig(a)
    coef = np.linalg.solve(vec, np.array([p["x1_0"], p["v1_0"], p["x2_0"], p["v2_0"]], dtype=complex))
    y = (vec[None, :, :] * (coef * np.exp(np.outer(t, lam)))[:, None, :]).sum(axis=2).real
    return y[:, 0], y[:, 2]


def anchored(p: dict, t: np.ndarray):
    """Each mass on a spring anchored at the partner's start (retarded coupling, t <= tau)."""
    w1 = math.sqrt(p["stiffness"] / p["mass_1"])
    w2 = math.sqrt(p["stiffness"] / p["mass_2"])
    x1 = p["x2_0"] + (p["x1_0"] - p["x2_0"]) * np.cos(w1 * t) + p["v1_0"] / w1 * np.sin(w1 * t)
    x2 = p["x1_0"] + (p["x2_0"] - p["x1_0"]) * np.cos(w2 * t) + p["v2_0"] / w2 * np.sin(w2 * t)
    return x1, x2
