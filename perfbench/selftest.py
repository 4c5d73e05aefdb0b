"""Shows that every output check passes on real output and fails on a corrupted copy.

    python3 perfbench/selftest.py [--seed N]

Runs each workload's round once (about 30 s in all), checks the clean
output, then for every check makes one small, deliberate corruption of
a copy of the output (one flipped outcome, one moved sample, ...) and
confirms that this check reports it. Exits 1 if a clean output fails
or a corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_runs", "selftest")


def _edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _edit_csv(path, change):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _row(rows, **match):
    """Index of the first data row whose named columns hold the given text."""
    head = rows[0]
    for i, r in enumerate(rows[1:], start=1):
        if all(r[head.index(k)] == v for k, v in match.items()):
            return i
    raise LookupError(match)


def _set(rows, i, column, change):
    """Replace one cell's text by change(text)."""
    col = rows[0].index(column)
    rows[i][col] = change(rows[i][col])


def _negate(text):
    return str(-int(text))


def _scale(factor):
    return lambda text: repr(float(text) * factor)


def _shift(delta):
    return lambda text: repr(float(text) + delta)


def _table_row(doc, mode, eff):
    return next(r for r in doc["rows"] if r["mode"] == mode and r["efficiency"] == eff)


def _flip_fresh_cell(rows):
    """Make every fresh pair of cell ab report equal outcomes (E = +1)."""
    h = rows[0]
    for r in rows[1:]:
        fresh = (r[h.index("effective_B_seen_by_A")] == r[h.index("setting_B")]
                 and r[h.index("effective_A_seen_by_B")] == r[h.index("setting_A")])
        if fresh and r[h.index("setting_A")] == "0.0" and r[h.index("setting_B")] == "0.7853981633974483":
            r[h.index("outcome_B")] = r[h.index("outcome_A")]


def _other_angle(rows):
    h = rows[0]
    i = 10
    col = h.index("effective_B_seen_by_A")
    rows[i][col] = "2.356194490192345" if rows[i][col] == "0.7853981633974483" else "0.7853981633974483"


# check name -> (file inside the operation's output, corruption)
CORRUPTIONS = {
    "table1.files": ("manifest.json", None),
    "table1.nonlocal_cells": ("table1.json", lambda p: _edit_json(p, lambda d: _table_row(
        d, "nonlocal", "efficient")["per_setting"]["ab"].update(E=0.0))),
    "table1.nonlocal_S": ("table1.json", lambda p: _edit_json(p, lambda d: _table_row(
        d, "nonlocal", "efficient").update(S_signed=-2.0))),
    "table1.local_below_nonlocal": ("table1.json", lambda p: _edit_json(p, lambda d: _table_row(
        d, "local", "efficient").update(S_abs=_table_row(d, "nonlocal", "efficient")["S_abs"]))),
    "table1.singles_N": ("table1.json", lambda p: _edit_json(p, lambda d: _table_row(
        d, "local", "efficient")["per_setting"]["ab"].update(N=_table_row(
            d, "local", "efficient")["per_setting"]["ab"]["N"] + 1))),
    "table1.inefficient_agree": ("table1.json", lambda p: _edit_json(p, lambda d: _table_row(
        d, "nonlocal", "inefficient")["per_setting"]["ab"].update(
            N=_table_row(d, "nonlocal", "inefficient")["per_setting"]["ab"]["N"] + 1))),
    "rates.files": ("events.csv", lambda p: _edit_csv(p, lambda rows: rows.pop())),
    "rates.count_ratios": ("report.json", lambda p: _edit_json(p, lambda d: d.update(Q1p=0.6))),
    "rates.recount": ("events.csv", lambda p: _edit_csv(p, lambda rows: _set(
        rows, _row(rows, survived_A="1", survived_B="1"), "outcome_A", _negate))),
    "rates.survival": ("events.csv", lambda p: _edit_csv(p, lambda rows: _set(
        rows, 5, "survived_A", lambda text: str(1 - int(text))))),
    "rates.attribution": ("events.csv", lambda p: _edit_csv(p, _other_angle)),
    "rates.fresh_pairs_cos": ("events.csv", lambda p: _edit_csv(p, _flip_fresh_cell)),
    "traj.samples": ("trajectories.csv", lambda p: _edit_csv(p, lambda rows: _set(
        rows, _row(rows, pair_id="3", view="B", step="150"), "z_L", _scale(1 + 1e-8)))),
    "spring.closed_form": ("hooke_instantaneous.csv", lambda p: _edit_csv(p, lambda rows: _set(
        rows, 1000, "x1", _shift(1e-5)))),
    "spring.expanded": ("hooke_expanded.csv", lambda p: _edit_csv(p, lambda rows: _set(
        rows, 2000, "x2", _scale(1 + 1e-5)))),
    "spring.retarded_early": ("hooke_retarded.csv", lambda p: _edit_csv(p, lambda rows: _set(
        rows, 4, "x1", _shift(1e-6)))),
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=12345)
    args = p.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import bohm_epr.cli as cli
    import checks
    import workloads

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ok = True
    for workload in workloads.WORKLOADS:
        ops = workloads.operations(workload, args.seed, WORK, os.path.join(WORK, workload))
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(op.argv))
            if code != 0:
                print(f"{op.label}: exit code {code}")
                ok = False
        clean = {op.label: op.out_dir for op in ops}
        for name, _, problems in checks.run_checks(workload, clean, args.seed):
            print(f"clean      {name}: {'pass' if not problems else 'FAIL ' + '; '.join(problems)}")
            ok &= not problems
        for name, label, _ in checks.CHECKS[workload]:
            bad_dir = os.path.join(WORK, "corrupt")
            shutil.rmtree(bad_dir, ignore_errors=True)
            shutil.copytree(clean[label], bad_dir)
            target, corrupt = CORRUPTIONS[name]
            path = os.path.join(bad_dir, target)
            if corrupt is None:
                os.remove(path)
            else:
                corrupt(path)
            problems = {n: found for n, _, found in checks.run_checks(
                workload, dict(clean, **{label: bad_dir}), args.seed)}[name]
            print(f"corrupted  {name} ({target}): "
                  f"{'caught: ' + problems[0] if problems else 'NOT CAUGHT'}")
            ok &= bool(problems)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
