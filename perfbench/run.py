"""The bohm-epr benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload table1 --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run starts a few set-up probes and then one worker
process (``worker.py``) that repeats the workload's round of CLI calls
for ``--seconds``. When the worker is done, this process checks the
first round's output files against computations made apart from the
program (``checks.py``); every later round must have written the same
files. The last line on stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when ``--trace 0`` and
its per-layer metrics when ``--trace 1``. Diagnostics go to stderr.
An operation (one CLI call) fails when it exits non-zero, when its
output differs from the first round's, or when the first round's
output fails a check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "_runs")
SETUP_PROBES = 5
DEADLINE_S = 170.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(argv: list[str], result: str, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("BOHM_EPR_SEED", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--result", result, "--spawned-at", repr(_now())] + argv
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("table1", "rates_fast_beam", "trajectories_spring"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int,
                   help="override the workload's worker count (reference figures only)")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    begin = _now()

    if not os.path.isfile(os.path.join(ROOT, "src", "bohm_epr", "cli.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    import checks

    work = os.path.join(RUNS, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = [_spawn(["--work-dir", work, "--setup-only"],
                         os.path.join(work, f"setup{i}.json"), 60.0)["setup_s"]
                  for i in range(SETUP_PROBES)]
        argv = ["--work-dir", work, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.workers is not None:
            argv += ["--workers", str(args.workers)]
        res = _spawn(argv, os.path.join(work, "result.json"), DEADLINE_S - (_now() - begin))
    except (RuntimeError, OSError, KeyError, ValueError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    bad_labels = set()
    for name, label, problems in checks.run_checks(args.workload, res["first_dirs"], args.seed):
        print(f"check {name}: {'ok' if not problems else 'FAILED'}", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        if problems:
            bad_labels.add(label)
    ops = [op for r in res["rounds"] for op in r["ops"]]
    failed = sum(1 for op in ops
                 if op["exit"] != 0 or not op["same_as_first"] or op["label"] in bad_labels)

    if args.trace:
        wanted = spec["per_layer"]
        values = res["per_layer"]
        if res["absent"]:
            print(f"absent from the program: {', '.join(res['absent'])}", file=sys.stderr)
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in res["rounds"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_mib"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{len(res['rounds'])} rounds, {len(ops)} operations, {failed} failed",
          file=sys.stderr)
    correct = not bad_labels and all(op["same_as_first"] for op in ops if op["exit"] == 0)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
