"""One benchmark run inside a fresh process.

``run.py`` starts this script; it is not meant to be run by hand. It
imports the program from ``<root>/src`` (and nothing else first, so the
set-up time it reports is the program's), then repeats the workload's
round of CLI calls until ``--seconds`` have passed and writes what it
measured to ``--result`` as JSON. Every operation calls
``bohm_epr.cli.main`` in this process, looked up at call time so the
traced run's wrapper is the one called.

With ``--trace 1`` odd rounds run with the span wrappers installed and
even rounds without; the difference of their median wall times is the
tracing overhead, and process CPU time comes from the untraced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workers", type=int)
    return p.parse_args()


VOLATILE = ("runtime_s", "started_utc", "finished_utc")


def _digest(out_dir: str) -> str:
    """Hash of every output file; JSON files without their run times and timestamps."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        h.update(name.encode())
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            for key in VOLATILE:
                doc.pop(key, None)
            h.update(json.dumps(doc, sort_keys=True).encode())
        else:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def _bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _call(cli, argv) -> int:
    """One operation: the CLI entry point with its stdout captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(list(argv))
        except SystemExit as stop:
            return stop.code if isinstance(stop.code, int) else 1
        except Exception:  # an operation that crashes is counted, the run goes on
            traceback.print_exc()
            return 1


def main() -> int:
    args = _args()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (part of the set-up the program needs)
    import bohm_epr.cli as cli
    setup_s = _now() - args.spawned_at
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bohm_epr was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    os.environ.pop(cli.ENV_SEED, None)

    rounds = []
    first_digests: dict[str, str] = {}
    first_dirs: dict[str, str] = {}
    start = _now()
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        round_dir = os.path.join(args.work_dir, f"round{k}")
        ops = workloads.operations(args.workload, args.seed, args.work_dir, round_dir,
                                   args.workers)
        cpu0 = _cpu()
        if traced:
            tracer.install()
        span = tracer.span(tracing.ROUND) if traced else contextlib.nullcontext()
        results = []
        t0 = _now()
        with span:
            for op in ops:
                o0 = _now()
                code = _call(cli, op.argv)
                results.append((op, code, _now() - o0))
        wall = _now() - t0
        if traced:
            tracer.uninstall()
        cpu = _cpu() - cpu0

        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "output_bytes": 0, "ops": []}
        for op, code, seconds in results:
            present = os.path.isdir(op.out_dir)
            digest = _digest(op.out_dir) if present else ""
            if k == 0:
                first_digests[op.label] = digest
                first_dirs[op.label] = op.out_dir
            record["output_bytes"] += _bytes(op.out_dir) if present else 0
            record["ops"].append({"label": op.label, "exit": code, "seconds": seconds,
                                  "same_as_first": present and digest == first_digests[op.label]})
        rounds.append(record)
        if k > 0:
            shutil.rmtree(round_dir, ignore_errors=True)
        enough_rounds = tracer is None or len(rounds) >= 2
        if _now() - start >= args.seconds and enough_rounds:
            break

    result = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "first_dirs": first_dirs,
    }
    if tracer is not None:
        result.update(_trace_summary(tracer, rounds, args.work_dir))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _trace_summary(tracer, rounds, work_dir) -> dict:
    import tracing
    spans = tracer.spans()
    self_s = tracing.self_times(spans)
    tracing.save(os.path.join(work_dir, "trace_spans.npz"), tracer, spans)
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = tracing.layer_metrics(tracer, spans, self_s, traced, plain)
    by_name = tracing.totals(tracer, spans, self_s)
    summary = {
        "per_layer": metrics,
        "absent": tracer.absent,
        "probe_errors": tracer.probe_errors,
        "self_s_by_name": {name: v["self_s"] / len(traced) for name, v in by_name.items()},
        "traced_wall_s": statistics.median(r["wall_s"] for r in traced),
    }
    with open(os.path.join(work_dir, "trace_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary


if __name__ == "__main__":
    sys.exit(main())
