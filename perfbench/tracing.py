"""Spans around the program's public names, installed from outside the program.

A wrapper replaces a module attribute at the place its callers look it
up (``bohm_epr.experiment.integrate_batch``, not the definition in
``bohm_epr.integrate``), records one span per call and passes the
result through unchanged. Spans live in per-thread arrays while the
run goes and are written out once at the end. A span started on a
worker thread with nothing open on that thread takes as parent the
span open on the main thread, which is the call that started the pool.

A name that no longer exists is reported as absent; the metrics built
on it read 0 and the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

EARLY_T = 3.0e-4  # s; by here every system of the default bench is saturated

# (module, attribute, span name). One function can be looked up in two
# places (cli.run_epr and experiment.run_epr); both get the same span name.
TARGETS = (
    ("bohm_epr.cli", "main", "cli.main"),
    ("bohm_epr.cli", "write_manifest", "cli.write_manifest"),
    ("bohm_epr.cli", "run_epr", "experiment.run_epr"),
    ("bohm_epr.experiment", "run_epr", "experiment.run_epr"),
    ("bohm_epr.cli", "prepare_pairs", "experiment.prepare_pairs"),
    ("bohm_epr.experiment", "prepare_pairs", "experiment.prepare_pairs"),
    ("bohm_epr.experiment", "pair_stream", "experiment.pair_stream"),
    ("bohm_epr.experiment", "chsh", "experiment.chsh"),
    ("bohm_epr.cli", "write_events_csv", "experiment.write_events_csv"),
    ("bohm_epr.experiment", "effective_settings", "infomodel.effective_settings"),
    ("bohm_epr.experiment", "integrate_batch", "integrate.integrate_batch"),
    ("bohm_epr.cli", "integrate_pair", "integrate.integrate_pair"),
    ("bohm_epr.integrate", "velocity_pair_batch", "velocity.velocity_pair_batch"),
    ("bohm_epr.velocity", "ratio_pair_batch", "velocity.ratio_pair_batch"),
    ("bohm_epr.integrate", "velocity_pair", "velocity.velocity_pair"),
    ("bohm_epr.cli", "simulate_spring", "hooke.simulate_spring"),
    ("bohm_epr.cli", "center_of_mass_spring", "hooke.center_of_mass_spring"),
    ("bohm_epr.cli", "write_spring_csv", "hooke.write_spring_csv"),
)
ROUND = "bench.round"
PROBE = "trace.probe"


class _Lane:
    """The spans of one thread, in start order."""

    def __init__(self, index: int):
        self.base = index << 32
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


def _probe_integrate_batch(counters, args, result, seconds):
    systems = len(args[0])
    counters["integrate.systems"] += systems
    counters["integrate.system_steps"] += systems * args[5].n_steps


def _probe_velocity_pair_batch(counters, args, result, seconds):
    part = "early" if args[0] < EARLY_T else "late"
    counters[f"velocity.batch_{part}_s"] += seconds
    counters[f"velocity.batch_{part}_systems"] += len(args[1])


def _probe_ratio_pair_batch(counters, args, result, seconds):
    r_l, r_r = result
    counters["velocity.ratio_elements"] += r_l.size
    counters["velocity.ratio_saturated"] += int(
        np.count_nonzero((np.abs(r_l) == 1.0) & (np.abs(r_r) == 1.0)))


def _probe_run_epr(counters, args, result, seconds):
    counters["experiment.pairs"] += args[0].n_pairs


PROBES = {
    "integrate.integrate_batch": _probe_integrate_batch,
    "velocity.velocity_pair_batch": _probe_velocity_pair_batch,
    "velocity.ratio_pair_batch": _probe_ratio_pair_batch,
    "experiment.run_epr": _probe_run_epr,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.lanes: list[_Lane] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.main = self._lane()
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.probe_errors: dict[str, str] = {}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._wrappers.append((module, attr, self.wrap(name, original)))
            self._saved.append((module, attr, original))

    def _lane(self) -> _Lane:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            with self._lock:
                lane = _Lane(len(self.lanes))
                self.lanes.append(lane)
            self._local.lane = lane
        return lane

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)

    def open(self, name_id: int) -> tuple[_Lane, int]:
        lane = self._lane()
        if lane.stack:
            parent = lane.stack[-1]
        elif lane is not self.main and self.main.stack:
            parent = self.main.stack[-1]
        else:
            parent = -1
        idx = len(lane.start)
        lane.name.append(name_id)
        lane.parent.append(parent)
        lane.end.append(0.0)
        lane.stack.append(lane.base + idx)
        lane.start.append(time.perf_counter())
        return lane, idx

    @staticmethod
    def close(lane: _Lane, idx: int) -> float:
        lane.end[idx] = time.perf_counter()
        lane.stack.pop()
        return lane.end[idx] - lane.start[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        lane, idx = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(lane, idx)

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        probe_id = self._id(PROBE)
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lane, idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.close(lane, idx)
            if probe is not None:
                plane, pidx = self.open(probe_id)
                try:
                    with self._lock:
                        probe(self.counters, args, result, seconds)
                except (AttributeError, IndexError, TypeError, ValueError) as err:
                    self.probe_errors[name] = f"{type(err).__name__}: {err}"
                finally:
                    self.close(plane, pidx)
            return result

        return traced

    def spans(self) -> dict:
        """All spans as flat arrays; ``parent`` holds flat indices (-1 for roots)."""
        offsets = []
        total = 0
        for lane in self.lanes:
            offsets.append(total)
            total += len(lane.start)
        flat = {
            "name": np.concatenate([np.frombuffer(l.name, dtype=np.int32) for l in self.lanes]),
            "start": np.concatenate([np.frombuffer(l.start, dtype=np.float64) for l in self.lanes]),
            "end": np.concatenate([np.frombuffer(l.end, dtype=np.float64) for l in self.lanes]),
            "lane": np.concatenate([np.full(len(l.start), i, dtype=np.int32)
                                    for i, l in enumerate(self.lanes)]),
        }
        raw = np.concatenate([np.frombuffer(l.parent, dtype=np.int64) for l in self.lanes])
        lane_of = raw >> 32
        parent = np.where(raw < 0, -1, np.asarray(offsets, dtype=np.int64)[np.maximum(lane_of, 0)]
                          + (raw & 0xFFFFFFFF))
        flat["parent"] = parent
        return flat


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children on the span's own thread run one after another, so their
    durations add. Children on other threads can overlap each other, so
    for those parents the covered part is the union of the intervals.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    cross = has_parent & (spans["lane"] != spans["lane"][np.maximum(parent, 0)])
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(parent == p)
        order = np.argsort(spans["start"][kids])
        union, reach = 0.0, -np.inf
        for k in kids[order]:
            lo = max(spans["start"][k], reach, spans["start"][p])
            hi = min(spans["end"][k], spans["end"][p])
            if hi > lo:
                union += hi - lo
            reach = max(reach, spans["end"][k])
        covered[p] = union
    return dur - covered


def save(path: str, tracer: Tracer, spans: dict) -> None:
    np.savez(path, names=np.array(tracer.names), **spans)


def totals(tracer: Tracer, spans: dict, self_s: np.ndarray) -> dict:
    """calls, inclusive seconds and self seconds of every span name."""
    dur = spans["end"] - spans["start"]
    out = {}
    for i, name in enumerate(tracer.names):
        sel = spans["name"] == i
        out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                     "self_s": float(self_s[sel].sum())}
    return out


def layer_metrics(tracer: Tracer, spans: dict, self_s: np.ndarray,
                  traced: list[dict], plain: list[dict]) -> dict:
    """The per-layer metrics, per traced round unless the name says otherwise."""
    by = totals(tracer, spans, self_s)
    c = tracer.counters
    rounds = len(traced)

    def get(name: str, key: str) -> float:
        return by.get(name, {}).get(key, 0)

    def per_round(value: float) -> float:
        return value / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_wall = [r["wall_s"] for r in traced]
    plain_wall = [r["wall_s"] for r in plain]
    plain_cpu = sum(r["cpu_s"] for r in plain)
    batch_s = get("integrate.integrate_batch", "s")
    values = {
        "experiment.prepare_pairs.s": per_round(get("experiment.prepare_pairs", "s")),
        "experiment.pair_stream.us_per_call": 1e6 * ratio(
            get("experiment.pair_stream", "s"), get("experiment.pair_stream", "calls")),
        "experiment.run_epr.self_s": per_round(get("experiment.run_epr", "self_s")),
        "experiment.write_events_csv.s": per_round(get("experiment.write_events_csv", "s")),
        "experiment.chsh.calls": per_round(get("experiment.chsh", "calls")),
        "infomodel.effective_settings.calls": per_round(get("infomodel.effective_settings", "calls")),
        "infomodel.effective_settings.s": per_round(get("infomodel.effective_settings", "s")),
        "integrate.integrate_batch.s": per_round(batch_s),
        "integrate.integrate_batch.calls": per_round(get("integrate.integrate_batch", "calls")),
        "integrate.integrate_batch.systems": per_round(c["integrate.systems"]),
        "integrate.systems_per_pair": ratio(c["integrate.systems"], c["experiment.pairs"]),
        "integrate.system_steps": per_round(c["integrate.system_steps"]),
        "integrate.ns_per_system_step": 1e9 * ratio(batch_s, c["integrate.system_steps"]),
        "integrate.integrate_pair.s": per_round(get("integrate.integrate_pair", "s")),
        "velocity.velocity_pair_batch.calls": per_round(get("velocity.velocity_pair_batch", "calls")),
        "velocity.velocity_pair_batch.ns_per_system_early": 1e9 * ratio(
            c["velocity.batch_early_s"], c["velocity.batch_early_systems"]),
        "velocity.velocity_pair_batch.ns_per_system_late": 1e9 * ratio(
            c["velocity.batch_late_s"], c["velocity.batch_late_systems"]),
        "velocity.ratio_pair_batch.s": per_round(get("velocity.ratio_pair_batch", "s")),
        "velocity.ratio_pair_batch.saturated_frac": ratio(
            c["velocity.ratio_saturated"], c["velocity.ratio_elements"]),
        "velocity.velocity_pair.calls": per_round(get("velocity.velocity_pair", "calls")),
        "velocity.velocity_pair.us_per_call": 1e6 * ratio(
            get("velocity.velocity_pair", "s"), get("velocity.velocity_pair", "calls")),
        "hooke.simulate_spring.s": per_round(get("hooke.simulate_spring", "s")),
        "hooke.center_of_mass_spring.s": per_round(get("hooke.center_of_mass_spring", "s")),
        "hooke.write_spring_csv.s": per_round(get("hooke.write_spring_csv", "s")),
        "cli.write_manifest.s": per_round(get("cli.write_manifest", "s")),
        "cli.main.self_s": per_round(get("cli.main", "self_s")),
        "cli.output_bytes": per_round(sum(r["output_bytes"] for r in traced)),
        "proc.cpu_s": ratio(plain_cpu, len(plain)),
        "proc.cpu_per_wall": ratio(plain_cpu, sum(plain_wall)),
        "trace.overhead_s": float(np.median(traced_wall) - np.median(plain_wall)),
        "trace.self_over_wall": ratio(float(self_s.sum()), sum(traced_wall)),
        "trace.probe.s": per_round(get(PROBE, "s")),
    }
    return {name: float(v) for name, v in values.items()}
