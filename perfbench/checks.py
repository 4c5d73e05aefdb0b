"""Output checks, computed apart from the program.

Each check reads the files an operation wrote and returns a list of
problems (empty when the check passes). Expected values come from
``reference`` and from the workload inputs in ``workloads``; nothing
here imports ``bohm_epr``. Statistical checks use the binomial sigma of
the expected value, so a cell that happens to read E = +-1 cannot
shrink its own error bar.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref
import workloads as wl

Z = 4.0
CELLS = (("ab", 0, 0), ("ab'", 0, 1), ("a'b", 1, 0), ("a'b'", 1, 1))
CHSH_SIGNS = (1.0, -1.0, 1.0, 1.0)
TRAJ_RTOL = 1.0e-10
SPRING_TOL = 1.0e-7


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cos_expected(ia: int, ib: int) -> float:
    return -math.cos(wl.MENU_A[ia] - wl.MENU_B[ib])


def _files(out_dir: str, expected: set[str]) -> list[str]:
    present = set(os.listdir(out_dir))
    problems = [f"missing {name}" for name in sorted(expected - present)]
    listed = set(_load_json(os.path.join(out_dir, "manifest.json"))["files"]) \
        if "manifest.json" in present else set()
    if listed != expected:
        problems.append(f"manifest lists {sorted(listed)}, expected {sorted(expected)}")
    return problems


# --- table1 -----------------------------------------------------------------

def _table_rows(out_dirs: dict) -> dict:
    doc = _load_json(os.path.join(out_dirs["table1"], "table1.json"))
    return {(r["mode"], r["efficiency"]): r for r in doc["rows"]}


def table1_files(out_dirs, seed):
    problems = _files(out_dirs["table1"], {"table1.json", "manifest.json"})
    doc = _load_json(os.path.join(out_dirs["table1"], "table1.json"))
    if doc["seed"] != seed or doc["n_pairs"] != wl.TABLE1_PAIRS or len(doc["rows"]) != 4:
        problems.append("table1.json header does not match the command")
    return problems


def table1_nonlocal_cells(out_dirs, seed):
    problems = []
    for eff in ("efficient", "inefficient"):
        row = _table_rows(out_dirs)[("nonlocal", eff)]
        for label, ia, ib in CELLS:
            cell = row["per_setting"][label]
            want = _cos_expected(ia, ib)
            sigma = math.sqrt((1.0 - want * want) / cell["N"])
            if abs(cell["E"] - want) > Z * sigma:
                problems.append(f"nonlocal/{eff} {label}: E = {cell['E']:.4f}, "
                                f"-cos = {want:.4f} +- {Z}*{sigma:.4f}")
    return problems


def table1_nonlocal_s(out_dirs, seed):
    problems = []
    for eff in ("efficient", "inefficient"):
        row = _table_rows(out_dirs)[("nonlocal", eff)]
        var = sum((1.0 - _cos_expected(ia, ib) ** 2) / row["per_setting"][label]["N"]
                  for label, ia, ib in CELLS)
        if abs(row["S_signed"] + 2.0 * math.sqrt(2.0)) > Z * math.sqrt(var):
            problems.append(f"nonlocal/{eff}: S = {row['S_signed']:.4f} not within "
                            f"{Z} sigma ({math.sqrt(var):.4f}) of -2 sqrt 2")
    return problems


def table1_local_below_nonlocal(out_dirs, seed):
    rows = _table_rows(out_dirs)
    loc, nl = rows[("local", "efficient")], rows[("nonlocal", "efficient")]
    combined = math.hypot(loc["sigma_S"], nl["sigma_S"])
    if nl["S_abs"] - loc["S_abs"] <= Z * combined:
        return [f"local |S| = {loc['S_abs']:.4f} is not below nonlocal |S| = "
                f"{nl['S_abs']:.4f} by {Z} combined sigma ({combined:.4f})"]
    return []


def table1_singles_n(out_dirs, seed):
    problems = []
    for row in _table_rows(out_dirs).values():
        if row["normalization"] == "singles":
            total = sum(row["per_setting"][label]["N"] for label, _, _ in CELLS)
            if total != wl.TABLE1_PAIRS:
                problems.append(f"{row['label']}: cell N sum to {total}, "
                                f"not {wl.TABLE1_PAIRS}")
    return problems


def table1_inefficient_agree(out_dirs, seed):
    rows = _table_rows(out_dirs)
    loc, nl = rows[("local", "inefficient")], rows[("nonlocal", "inefficient")]
    keys = ("seed", "S_signed", "S_abs", "sigma_S", "per_setting")
    differ = [k for k in keys if loc[k] != nl[k]]
    return [f"inefficient rows differ in {differ}"] if differ else []


# --- rates_fast_beam --------------------------------------------------------

def _events(out_dirs) -> dict:
    path = os.path.join(out_dirs["run-epr"], "events.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _report(out_dirs) -> dict:
    return _load_json(os.path.join(out_dirs["run-epr"], "report.json"))


def rates_files(out_dirs, seed):
    problems = _files(out_dirs["run-epr"], {"report.json", "events.csv", "manifest.json"})
    ev = _events(out_dirs)
    if not np.array_equal(ev["pair_id"], np.arange(wl.RATES_PAIRS)):
        problems.append("events.csv does not list pairs 0..n-1 in order")
    if _report(out_dirs)["seed"] != seed:
        problems.append("report.json seed does not match --seed")
    return problems


def rates_count_ratios(out_dirs, seed):
    rep = _report(out_dirs)
    n = wl.RATES_PAIRS
    problems = []
    for name, got, want, sigma in (
        ("Q1'/Q1", rep["Q1p"] / rep["Q1"], 0.5, math.sqrt(0.25 / (2 * n))),
        ("C2'/C2", rep["C2p"] / rep["C2"], 0.25, math.sqrt(0.1875 / n)),
    ):
        if abs(got - want) > Z * sigma:
            problems.append(f"{name} = {got:.5f}, expected {want} +- {Z}*{sigma:.5f}")
    return problems


def _cell_index(ev) -> tuple[np.ndarray, np.ndarray]:
    ia = np.full(len(ev["pair_id"]), -1)
    ib = np.full(len(ev["pair_id"]), -1)
    for k in range(2):
        ia[ev["setting_A"] == wl.MENU_A[k]] = k
        ib[ev["setting_B"] == wl.MENU_B[k]] = k
    return ia, ib


def rates_recount(out_dirs, seed):
    ev, rep = _events(out_dirs), _report(out_dirs)
    n = len(ev["pair_id"])
    sa, sb = ev["survived_A"] == 1, ev["survived_B"] == 1
    both = sa & sb
    problems = []
    q1p = 0.5 * (sa.sum() / n + sb.sum() / n)
    c2p = both.sum() / n
    for name, got, want in (("Q1p", rep["Q1p"], q1p), ("C2p", rep["C2p"], c2p)):
        if not math.isclose(got, want, rel_tol=1e-12):
            problems.append(f"report {name} = {got!r}, events.csv gives {want!r}")
    ia, ib = _cell_index(ev)
    product = ev["outcome_A"] * ev["outcome_B"]
    s = 0.0
    for (label, ka, kb), sign in zip(CELLS, CHSH_SIGNS):
        sel = both & (ia == ka) & (ib == kb)
        count = int(sel.sum())
        e = float(product[sel].sum()) / count if count else float("nan")
        s += sign * e
        cell = rep["per_setting"][label]
        if cell["N"] != count or not math.isclose(cell["E"], e, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"cell {label}: report N={cell['N']} E={cell['E']!r}, "
                            f"events.csv N={count} E={e!r}")
    if not math.isclose(rep["S_signed"], s, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"report S = {rep['S_signed']!r}, events.csv gives {s!r}")
    return problems


def rates_survival(out_dirs, seed):
    ev = _events(out_dirs)
    problems = []
    for side in ("A", "B"):
        kept = ev[f"setting_{side}"][1:] == ev[f"setting_{side}"][:-1]
        survived = ev[f"survived_{side}"][1:] == 1
        bad = np.flatnonzero(kept != survived)
        if bad.size:
            problems.append(f"side {side}: survival disagrees with 'kept its setting' "
                            f"at {bad.size} pairs, first pair {int(bad[0]) + 1}")
    return problems


def rates_attribution(out_dirs, seed):
    ev = _events(out_dirs)
    n = len(ev["pair_id"])
    cfg = dict(wl.RATES_EXPERIMENT, beam_speed=wl.RATES_PHYSICS["beam_speed"])
    j = np.array(ref.partner_launch_indices(n, n, cfg))
    have = j >= 0
    problems = []
    for col, partner in (("effective_B_seen_by_A", "setting_B"),
                         ("effective_A_seen_by_B", "setting_A")):
        bad = np.flatnonzero(have & (ev[col] != ev[partner][np.maximum(j, 0)]))
        if bad.size:
            problems.append(f"{col} is not the partner setting at the news-delayed "
                            f"launch for {bad.size} pairs, first pair {int(bad[0])}")
    return problems


def rates_fresh_pairs_cos(out_dirs, seed):
    ev = _events(out_dirs)
    fresh = ((ev["effective_B_seen_by_A"] == ev["setting_B"])
             & (ev["effective_A_seen_by_B"] == ev["setting_A"]))
    ia, ib = _cell_index(ev)
    product = ev["outcome_A"] * ev["outcome_B"]
    problems = []
    for label, ka, kb in CELLS:
        sel = fresh & (ia == ka) & (ib == kb)
        count = int(sel.sum())
        want = _cos_expected(ka, kb)
        if count == 0:
            problems.append(f"no fresh pairs in cell {label}")
            continue
        e = float(product[sel].mean())
        sigma = math.sqrt((1.0 - want * want) / count)
        if abs(e - want) > Z * sigma:
            problems.append(f"fresh pairs in {label}: E = {e:.4f}, -cos = {want:.4f} "
                            f"+- {Z}*{sigma:.4f} (N = {count})")
    return problems


# --- trajectories_spring ----------------------------------------------------

def traj_samples(out_dirs, seed):
    out = out_dirs["dump-trajectories"]
    problems = _files(out, {"trajectories.csv", "manifest.json"})
    path = os.path.join(out, "trajectories.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if header != "pair_id,view,step,t,z_L,z_R":
        return problems + [f"unexpected header {header!r}"]

    n = wl.TRAJ_PAIRS
    every = wl.TRAJ_RECORD_EVERY
    co = ref.coefficients(wl.SILVER)
    n_steps = int(round(co["transit_time"] / wl.DT))
    cfg = dict(wl.BENCH, beam_speed=wl.SILVER["beam_speed"])
    n_cfg = max(4, n)
    a_idx, b_idx, z0 = ref.pair_draws(seed, n_cfg, wl.SILVER["packet_width"])
    init_a, init_b = ref.initial_indices(seed)
    s2, c2 = [], []
    for i, j in enumerate(ref.partner_launch_indices(n, n_cfg, cfg)):
        partner_a = wl.MENU_A[init_a if j < 0 else a_idx[j]]
        partner_b = wl.MENU_B[init_b if j < 0 else b_idx[j]]
        for angle_a, angle_b in ((wl.MENU_A[a_idx[i]], partner_b),
                                 (partner_a, wl.MENU_B[b_idx[i]])):
            w = ref.weights(angle_a, angle_b)
            s2.append(w[0])
            c2.append(w[1])
    start = np.repeat(z0[:n], 2, axis=0)
    expected = ref.rk4_guided(start[:, 0], start[:, 1], np.array(s2), np.array(c2),
                              co, wl.DT, n_steps, every)

    seen = set()
    worst = 0.0
    for pair_id, view, step, t, z_l, z_r in rows:
        i, k = int(pair_id), int(step)
        system = 2 * i + (0 if view == "A" else 1)
        if view not in ("A", "B") or not 0 <= i < n or k not in expected:
            problems.append(f"unexpected sample {pair_id},{view},{step}")
            continue
        seen.add((i, view, k))
        if not math.isclose(float(t), k * wl.DT, rel_tol=1e-12, abs_tol=1e-18):
            problems.append(f"pair {i} view {view} step {k}: t = {t}")
        for got, want in ((float(z_l), expected[k][0][system]),
                          (float(z_r), expected[k][1][system])):
            err = abs(got - want) / max(abs(want), wl.SILVER["packet_width"])
            worst = max(worst, err)
    if worst > TRAJ_RTOL:
        problems.append(f"samples deviate from the reference RK4 by {worst:.3g} "
                        f"(relative), tolerance {TRAJ_RTOL}")
    missing = 2 * n * len(expected) - len(seen)
    if missing or len(seen) != len(rows):
        problems.append(f"{missing} samples missing, {len(rows) - len(seen)} extra")
    return problems


def _spring(out_dirs, name: str) -> np.ndarray:
    path = os.path.join(out_dirs["hooke-demo"], f"hooke_{name}.csv")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _spring_duration() -> float:
    p = wl.HOOKE
    mu = p["mass_1"] * p["mass_2"] / (p["mass_1"] + p["mass_2"])
    return wl.HOOKE_PERIODS * 2.0 * math.pi * math.sqrt(mu / p["stiffness"])


def _compare_spring(name: str, data: np.ndarray, x1, x2, scale) -> list[str]:
    err = max(float(np.max(np.abs(data[:, 1] - x1) / scale)),
              float(np.max(np.abs(data[:, 2] - x2) / scale)))
    if err > SPRING_TOL:
        return [f"hooke_{name}: deviates from the exact solution by {err:.3g}"]
    return []


def spring_closed_form(out_dirs, seed):
    problems = _files(out_dirs["hooke-demo"], {
        "hooke_instantaneous.csv", "hooke_retarded.csv", "hooke_expanded.csv",
        "hooke_cm.csv", "manifest.json"})
    for name in ("instantaneous", "cm"):
        data = _spring(out_dirs, name)
        if abs(data[-1, 0] - _spring_duration()) > 1e-6 * _spring_duration():
            problems.append(f"hooke_{name}: ends at t = {data[-1, 0]!r}")
        x1, x2 = ref.two_body(wl.HOOKE, data[:, 0])
        problems += _compare_spring(name, data, x1, x2, 1.0)
    return problems


def spring_expanded(out_dirs, seed):
    data = _spring(out_dirs, "expanded")
    x1, x2 = ref.expanded_exact(wl.HOOKE, data[:, 0])
    problems = []
    if abs(data[-1, 0] - _spring_duration()) > 1e-6 * _spring_duration():
        problems.append(f"hooke_expanded: ends at t = {data[-1, 0]!r}")
    scale = np.maximum(1.0, np.maximum(np.abs(x1), np.abs(x2)))
    return problems + _compare_spring("expanded", data, x1, x2, scale)


def spring_retarded_early(out_dirs, seed):
    data = _spring(out_dirs, "retarded")
    early = data[data[:, 0] <= wl.HOOKE["delay"] * (1.0 + 1e-12)]
    if len(early) < 2:
        return ["hooke_retarded: no samples up to the delay"]
    x1, x2 = ref.anchored(wl.HOOKE, early[:, 0])
    return _compare_spring("retarded", early, x1, x2, 1.0)


# workload -> (check name, operation whose output it reads, check)
CHECKS = {
    "table1": (
        ("table1.files", "table1", table1_files),
        ("table1.nonlocal_cells", "table1", table1_nonlocal_cells),
        ("table1.nonlocal_S", "table1", table1_nonlocal_s),
        ("table1.local_below_nonlocal", "table1", table1_local_below_nonlocal),
        ("table1.singles_N", "table1", table1_singles_n),
        ("table1.inefficient_agree", "table1", table1_inefficient_agree),
    ),
    "rates_fast_beam": (
        ("rates.files", "run-epr", rates_files),
        ("rates.count_ratios", "run-epr", rates_count_ratios),
        ("rates.recount", "run-epr", rates_recount),
        ("rates.survival", "run-epr", rates_survival),
        ("rates.attribution", "run-epr", rates_attribution),
        ("rates.fresh_pairs_cos", "run-epr", rates_fresh_pairs_cos),
    ),
    "trajectories_spring": (
        ("traj.samples", "dump-trajectories", traj_samples),
        ("spring.closed_form", "hooke-demo", spring_closed_form),
        ("spring.expanded", "hooke-demo", spring_expanded),
        ("spring.retarded_early", "hooke-demo", spring_retarded_early),
    ),
}


def run_checks(workload: str, out_dirs: dict, seed: int) -> list[tuple[str, str, list[str]]]:
    """Every check of a workload as (name, operation, problems); a crash is a problem."""
    results = []
    for name, label, check in CHECKS[workload]:
        try:
            problems = check(out_dirs, seed)
        except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as err:
            problems = [f"{type(err).__name__}: {err}"]
        results.append((name, label, problems))
    return results
