"""Command line front end.

Subcommands:

* ``run-epr``: one full run; writes report.json (plus events.csv on
  request) and a manifest.
* ``table1``: the four-row mode/efficiency summary table, optionally
  replicated to estimate the spread of S.
* ``kick-ratio``: print the switching kick for a beam speed.
* ``hooke-demo``: the delayed-spring toy, CSV per coupling.
* ``dump-trajectories``: recorded per-view trajectories for the first
  few pairs of a run.

A command's output files appear in its output directory together, once
all of them are written, or not at all: a failed command also removes
every directory it made.

Configuration comes from an INI file with flat key = value lines. The
keys are the field names of ExperimentConfig, in field order: the fields
of RawPhysicalInputs under [physics], dt and workers under
[integration], the rest under [experiment], where master_seed is written
seed. Every flag overrides its file counterpart, and the master seed
resolves flag, then BOHM_EPR_SEED, then file, then the built-in default.
Exit codes: 0 on success, 2 for configuration problems and bad paths, 3
for numerical or estimation failures, and 1 when stdout is a pipe whose
reader has gone.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import datetime
import enum
import functools
import hashlib
import json
import math
import os
import platform
import sys
import typing

import numpy as np

from . import __version__
from .errors import ConfigError, EstimationError, IntegrationDiverged
from .experiment import (
    DEFAULT_SEED,
    Efficiency,
    ExperimentConfig,
    Normalization,
    check_kick_threshold,
    check_seed,
    count_rates,
    kick_ratio,
    lost_on_switch,
    prepare_pairs,
    quiescent_config,
    report_json_dict,
    run_epr,
    setting_timelines,
    survival,
    table1_run,
    transport_views,
    write_events_csv,
)
from .hooke import HookeParams, SpringMode, spring_energy, spring_grid, write_spring_csvs
from .infomodel import InformationMode
from .physconst import LIGHT_SPEED, RawPhysicalInputs

ENV_SEED = "BOHM_EPR_SEED"
# rows of trajectories.csv (pair x view x recorded step), held until written
_MAX_DUMP_ROWS = 10**7

# The INI format is the field order of ExperimentConfig, with the fields of
# its nested RawPhysicalInputs under [physics]; only these facts are written
# out by hand.
_SECTIONS = ("physics", "integration", "experiment")
_INTEGRATION_FIELDS = ("dt", "workers")
_INI_KEYS = {"master_seed": "seed"}


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise ConfigError(f"{where}: not a number: {text!r}") from err
    if math.isnan(value):
        raise ConfigError(f"{where}: NaN is not allowed")
    return value


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigError(f"{where}: not an integer: {text!r}") from err


def _parse_pair_of_angles(text: str, where: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected two comma-separated angles")
    return (_parse_float(parts[0], where), _parse_float(parts[1], where))


def _parse_entries(text: str, where: str) -> tuple[tuple[float, float], ...]:
    text = text.strip()
    if not text:
        return ()
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{where}: entries must look like time:angle")
        entries.append((_parse_float(parts[0], where), _parse_float(parts[1], where)))
    return tuple(entries)


def _parse_enum(enum_cls, text: str, where: str):
    try:
        return enum_cls(text.strip())
    except ValueError as err:
        allowed = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"{where}: must be one of {allowed}, got {text!r}") from err


@dataclasses.dataclass(frozen=True)
class _Codec:
    """How one kind of value is read from and written to INI text."""

    parse: typing.Callable[[str, str], typing.Any]   # (text, where) -> value
    format: typing.Callable[[typing.Any], str]


_CODECS = {
    float: _Codec(_parse_float, repr),
    int: _Codec(_parse_int, repr),
    tuple[float, float]: _Codec(_parse_pair_of_angles, lambda menu: f"{menu[0]!r}, {menu[1]!r}"),
    tuple[tuple[float, float], ...]: _Codec(
        _parse_entries, lambda entries: ";".join(f"{t!r}:{a!r}" for t, a in entries)),
}


@dataclasses.dataclass(frozen=True)
class _Row:
    """One config field: its INI section and key, its name and its type."""

    section: str
    key: str
    name: str
    kind: typing.Any

    @property
    def codec(self) -> _Codec:
        if isinstance(self.kind, type) and issubclass(self.kind, enum.Enum):
            return _Codec(functools.partial(_parse_enum, self.kind), lambda member: member.value)
        return _CODECS[self.kind]

    def get(self, cfg: ExperimentConfig):
        return getattr(cfg.physics if self.section == "physics" else cfg, self.name)


def _rows(cls, section: str | None = None):
    """The rows of ``cls`` in field order; a nested dataclass field is a section."""
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        if dataclasses.is_dataclass(kind):
            yield from _rows(kind, field.name)
            continue
        home = "integration" if field.name in _INTEGRATION_FIELDS else "experiment"
        yield _Row(section or home, _INI_KEYS.get(field.name, field.name), field.name, kind)


_SCHEMA = tuple(_rows(ExperimentConfig))


def read_config_text(text: str) -> dict:
    """Parse INI text into a flat {section.key: string} dict, keys validated."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config file is not valid INI: {err}") from err
    known = {f"{row.section}.{row.key}" for row in _SCHEMA}
    values: dict[str, str] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if f"{section}.{key}" not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[f"{section}.{key}"] = raw
    return values


def _resolve_seed(flag: int | None, file_seed: int | None, env) -> tuple[int, str]:
    """The master seed and its source: flag, then BOHM_EPR_SEED, then file, then default.

    Every source that is set is checked, whichever one wins.
    """
    seed, source = DEFAULT_SEED, "default"
    if file_seed is not None:
        seed, source = check_seed(file_seed, "config key experiment.seed"), "file"
    if env.get(ENV_SEED):
        where = f"environment variable {ENV_SEED}"
        seed, source = check_seed(_parse_int(env[ENV_SEED], where), where), "environment"
    if flag is not None:
        seed, source = check_seed(flag, "--seed"), "flag"
    return seed, source


def build_config(values: dict, overrides: dict | None = None,
                 env: dict | None = None) -> tuple[ExperimentConfig, dict]:
    """Turn flat file values plus flag overrides into an ExperimentConfig.

    ``overrides`` maps INI keys to typed values and beats the file.
    Returns the config and a provenance dict recording which flags took
    effect and where the seed came from.
    """
    overrides = overrides or {}
    env = os.environ if env is None else env
    chosen: dict = {}
    applied: dict = {}
    for row in _SCHEMA:
        name = f"{row.section}.{row.key}"
        if name in values:
            chosen[row.name] = row.codec.parse(values[name], f"config key {name}")
        flag = overrides.get(row.key)
        if flag is not None and row.key != "seed":
            chosen[row.name] = flag
            applied[row.key] = flag.value if isinstance(flag, enum.Enum) else flag
    seed, seed_source = _resolve_seed(overrides.get("seed"), chosen.pop("master_seed", None),
                                      env)
    if seed_source == "flag":
        applied["seed"] = seed
    physics = RawPhysicalInputs(**{row.name: chosen.pop(row.name) for row in _SCHEMA
                                   if row.section == "physics" and row.name in chosen})
    cfg = ExperimentConfig(physics=physics, master_seed=seed, **chosen)
    return cfg, {"seed_source": seed_source, "flag_overrides": applied}


def emit_config(cfg: ExperimentConfig) -> str:
    """Render a config as INI text; parsing it back reproduces the config."""
    return "\n".join(
        f"[{section}]\n" + "".join(f"{row.key} = {row.codec.format(row.get(cfg))}\n"
                                   for row in _SCHEMA if row.section == section)
        for section in _SECTIONS)


def parse_config(cfg_text: str, overrides: dict | None = None,
                 env: dict | None = None) -> tuple[ExperimentConfig, dict]:
    """read_config_text followed by build_config."""
    return build_config(read_config_text(cfg_text), overrides, env)


def config_digest(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical (sorted-key) JSON form of the config."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(path: str, cfg: ExperimentConfig | None, files: list[str],
                   command: str, provenance: dict | None = None,
                   started: str | None = None, extra: dict | None = None) -> str:
    """Write the manifest, listing every artifact of this invocation, to ``path``.

    ``extra`` holds further top-level keys; they take precedence over the
    ones derived from ``cfg``. ``environment`` names the python and numpy
    versions, the operating system, its release and the machine, and the
    CPU count the run saw.
    """
    manifest = {
        "tool": "bohm-epr",
        "version": __version__,
        "command": command,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "config_sha256": config_digest(cfg) if cfg is not None else None,
        "seed": cfg.master_seed if cfg is not None else None,
        "provenance": provenance or {},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            # not platform.platform(): on Linux it forks `uname -p` for the
            # processor name, which cost about 10 ms and 0.4 MiB of peak RSS
            "platform": "-".join((platform.system(), platform.release(), platform.machine())),
            "cpu_count": os.cpu_count(),
        },
        **(extra or {}),
        "files": sorted(files),
    }
    return _write_json(path, manifest)


def _write_json(path: str, doc: dict) -> str:
    """Write ``doc`` as indented JSON with a trailing newline; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


@contextlib.contextmanager
def _run_files(out_dir: str):
    """Publish a command's outputs in ``out_dir`` all together, or none of them.

    Creates ``out_dir`` and its missing parents, then yields
    ``stage(name)``, the temporary path in ``out_dir`` to write output
    ``name`` to. When the block ends, each staged file is renamed to its
    name in staging order, so the manifest, staged last, comes last.
    When the block or a rename fails, every staged file, every file
    already renamed and every directory created here, leaf first, is
    removed, and an OSError about a staged file is raised again under the
    output's own name. An OSError that names no file, as a failed write
    to an open file does, is about the output staged last.
    """
    made, path = [], os.path.abspath(out_dir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    staged: dict[str, str] = {}

    def stage(name: str) -> str:
        tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
        staged[tmp] = os.path.join(out_dir, name)
        return tmp

    placed = []
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {out_dir}: {err.strerror}") from err
        yield stage
        for tmp, final in staged.items():
            os.replace(tmp, final)
            placed.append(final)
    except BaseException as err:
        for path in (*staged, *placed):
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        if isinstance(err, OSError) and staged and err.filename in (*staged, None):
            name = staged.get(err.filename) or [*staged.values()][-1]
            raise OSError(err.errno, err.strerror, name) from err
        raise


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_file_values(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8 text") from err
    return read_config_text(text)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The flags given, by INI key: each flag's dest is the key it overrides."""
    return {row.key: row.kind(getattr(args, row.key)) for row in _SCHEMA
            if getattr(args, row.key, None) is not None}


def _cmd_run_epr(args: argparse.Namespace) -> int:
    started = _utc_now()
    cfg, provenance = build_config(_load_file_values(args.config),
                                   _overrides_from_args(args))
    report = run_epr(cfg, every_outcome=args.events)
    if args.rates:
        # the parked bench never switches, so its counts need no draw and no transport
        quiet = quiescent_config(cfg)
        baseline = survival(quiet, setting_timelines(quiet))
        report = dataclasses.replace(report, rates=count_rates(report, baseline))
    counters = {"off_menu_pairs": report.off_menu,
                "lost_a": cfg.n_pairs - report.singles_a,
                "lost_b": cfg.n_pairs - report.singles_b,
                "systems": report.systems}

    files = ["report.json", "manifest.json"]
    with _run_files(args.out) as stage:
        _write_json(stage("report.json"), report_json_dict(report))
        if args.events:
            write_events_csv(report, stage("events.csv"))
            files.append("events.csv")
        write_manifest(stage("manifest.json"), cfg, files, "run-epr", provenance, started,
                       extra={"counters": counters})

    bell = report.bell
    if bell is not None:
        print(f"run-epr: {cfg.mode.value}, {cfg.n_pairs} pairs, "
              f"S_signed = {bell.s_signed:+.4f} (sigma {bell.sigma_s:.4f}), "
              f"coincidences = {report.coincidences}")
    else:
        print(f"run-epr: {cfg.mode.value}, {cfg.n_pairs} pairs, "
              f"S undefined (empty setting cell), "
              f"coincidences = {report.coincidences}")
    print(f"wrote {', '.join(sorted(files))} in {args.out}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    started = _utc_now()
    seed, seed_source = _resolve_seed(args.seed, None, os.environ)
    replicates = args.replicates
    if replicates < 1:
        raise ConfigError("--replicates must be at least 1")

    all_rows = [
        table1_run(master_seed=seed, n_pairs=args.pairs, replicate=r)
        for r in range(replicates)
    ]
    main_rows = all_rows[0]

    width = max(len(r.label) for r in main_rows)
    header = f"{'row':<{width}}  {'S_signed':>9}  {'sigma_S':>8}"
    if replicates > 1:
        header += f"  {'mean_S':>9}  {'std_S':>8}"
    print(header)
    rows_doc = []
    for i, row in enumerate(main_rows):
        line = (f"{row.label:<{width}}  {row.bell.s_signed:>+9.5f}  "
                f"{row.bell.sigma_s:>8.5f}")
        replicate_s = [rows[i].bell.s_signed for rows in all_rows]
        doc = {
            "label": row.label,
            "mode": row.config.mode.value,
            "efficiency": row.config.efficiency.value,
            "normalization": row.config.normalization.value,
            "seed": row.config.master_seed,
            "S_signed": row.bell.s_signed,
            "S_abs": row.bell.s_abs,
            "sigma_S": row.bell.sigma_s,
            "per_setting": row.bell.per_setting(),
        }
        if replicates > 1:
            mean = sum(replicate_s) / replicates
            var = sum((s - mean) ** 2 for s in replicate_s) / (replicates - 1)
            std = math.sqrt(var)
            line += f"  {mean:>+9.5f}  {std:>8.5f}"
            doc["replicate_S"] = replicate_s
            doc["mean_S"] = mean
            doc["std_S"] = std
        print(line)
        rows_doc.append(doc)

    table_doc = {
        "seed": seed,
        "n_pairs": args.pairs,
        "replicates": replicates,
        "rows": rows_doc,
    }
    runs = [
        {"replicate": r, "label": row.label, "seed": row.config.master_seed,
         "config_sha256": config_digest(row.config)}
        for r, rows in enumerate(all_rows) for row in rows
    ]
    with _run_files(args.out) as stage:
        _write_json(stage("table1.json"), table_doc)
        write_manifest(stage("manifest.json"), None, ["table1.json", "manifest.json"],
                       "table1", {"seed_source": seed_source}, started,
                       extra={"seed": seed, "rows": runs, "counters": {
                           "systems": sum(rows[0].systems for rows in all_rows)}})
    print(f"wrote table1.json, manifest.json in {args.out}")
    return 0


def _cmd_kick_ratio(args: argparse.Namespace) -> int:
    ratio = kick_ratio(args.speed, args.light_speed)
    lost = lost_on_switch(Efficiency.INEFFICIENT, args.speed, args.light_speed,
                          check_kick_threshold(args.threshold, "--threshold"))
    print(f"beam_speed = {args.speed!r} cm/s")
    print(f"light_speed = {args.light_speed!r} cm/s")
    print(f"kick_ratio = {ratio!r}")
    print(f"threshold = {args.threshold!r} -> "
          f"{'lost' if lost else 'kept'} on switch (inefficient mode)")
    return 0


def _default_spring_step(params: HookeParams, mode: SpringMode, duration: float) -> float:
    """tau/8 for a retarded delay when its grid passes, else period/2000.

    When neither grid passes, the first one's error is raised.
    """
    steps = [params.period / 2000.0]
    if mode is SpringMode.RETARDED and params.delay > 0.0:
        steps.insert(0, params.delay / 8.0)
    errors = []
    for dt in steps:
        try:
            spring_grid(params, mode, duration, dt)
            return dt
        except ConfigError as err:
            errors.append(err)
    raise errors[0]


def _cmd_hooke_demo(args: argparse.Namespace) -> int:
    started = _utc_now()
    params = HookeParams(delay=args.tau)
    duration = args.periods * params.period
    modes = list(SpringMode) if args.coupling == "all" else [SpringMode(args.coupling)]
    # every grid is checked before anything is written or run
    steps = {mode: _default_spring_step(params, mode, duration) if args.dt is None else args.dt
             for mode in modes}
    n_steps = {m.value: spring_grid(params, m, duration, dt).n_steps for m, dt in steps.items()}

    names = {mode: f"hooke_{mode.value}.csv" for mode in steps}
    files = ["manifest.json", *names.values()]
    with _run_files(args.out) as stage:
        runs = {mode: (steps[mode], stage(name)) for mode, name in names.items()}
        for mode, ends in write_spring_csvs(params, duration, runs):
            e_0, e_end = spring_energy(params, ends)
            drift = abs(float(e_end - e_0)) / abs(float(e_0))
            print(f"{mode.value:<14} dt = {steps[mode]:.3g}  x1(T) = {ends.x1[-1]:+.6f}  "
                  f"x2(T) = {ends.x2[-1]:+.6f}  energy drift = {drift:.3e}")
        write_manifest(stage("manifest.json"), None, files, "hooke-demo",
                       {"tau": args.tau, "periods": args.periods, "coupling": args.coupling,
                        "dt": {m.value: dt for m, dt in steps.items()}}, started,
                       extra={"counters": {"steps": n_steps}})
    print(f"wrote {', '.join(sorted(files))} in {args.out}")
    return 0


def _cmd_dump_trajectories(args: argparse.Namespace) -> int:
    started = _utc_now()
    overrides = _overrides_from_args(args)
    n_dump = args.n_pairs if args.n_pairs is not None else 4
    if n_dump < 1:
        raise ConfigError("--pairs must be at least 1")
    overrides["n_pairs"] = max(4, n_dump)
    cfg, provenance = build_config(_load_file_values(args.config), overrides)
    if args.record_every < 1:
        raise ConfigError("--record-every must be at least 1")
    icfg = cfg.transport_grid(args.record_every)
    rows = 2 * n_dump * len(icfg.recorded_steps())
    if rows > _MAX_DUMP_ROWS:
        raise ConfigError(f"the dump would hold {rows} rows, more than {_MAX_DUMP_ROWS}; "
                          "dump fewer pairs or raise --record-every")
    table = prepare_pairs(cfg)
    z_l, z_r, [views] = transport_views([table], [cfg], args.record_every)
    # each recorded step's "step,t," is formatted once for every view
    stamps = [f"{step},{step * cfg.dt!r}," for step in icfg.recorded_steps()]
    with _run_files(args.out) as stage:
        with open(stage("trajectories.csv"), "w", encoding="utf-8") as fh:
            fh.write("pair_id,view,step,t,z_L,z_R\n")
            for pair_id, systems in enumerate(views[:n_dump].tolist()):
                for view, s in zip("AB", systems):
                    fh.write("".join([f"{pair_id},{view},{stamp}{a!r},{b!r}\n" for stamp, a, b
                                      in zip(stamps, z_l[:, s].tolist(), z_r[:, s].tolist())]))
        write_manifest(stage("manifest.json"), cfg, ["trajectories.csv", "manifest.json"],
                       "dump-trajectories", provenance, started)
    print(f"dumped {n_dump} pairs to trajectories.csv in {args.out}")
    return 0


def _add_common_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="INI config file")
    sub.add_argument("--seed", type=int, metavar="U64", help="master seed")
    sub.add_argument("--pairs", dest="n_pairs", type=int, metavar="N",
                     help="number of pairs")
    sub.add_argument("--mode", choices=[m.value for m in InformationMode],
                     help="information mode")
    sub.add_argument("--efficiency", choices=[e.value for e in Efficiency])
    sub.add_argument("--normalization", choices=[n.value for n in Normalization])
    sub.add_argument("--workers", type=int, metavar="N",
                     help="accepted for compatibility; changes nothing")
    sub.add_argument("--out", metavar="DIR", default=".",
                     help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohm-epr",
        description="Two-particle pilot-wave transport through a dual "
                    "Stern-Gerlach bench, with CHSH statistics.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run-epr", help="run one experiment")
    _add_common_run_flags(run)
    run.add_argument("--events", action="store_true",
                     help="also write per-pair events.csv")
    run.add_argument("--rates", action="store_true",
                     help="also report count rates against the parked bench "
                          "(no second run)")
    run.set_defaults(func=_cmd_run_epr)

    table = subs.add_parser("table1", help="four-row mode/efficiency table")
    table.add_argument("--seed", type=int, metavar="U64")
    table.add_argument("--pairs", type=int, metavar="N", default=4000)
    table.add_argument("--replicates", type=int, metavar="R", default=1,
                       help="repeat with derived seeds and report the spread")
    table.add_argument("--out", metavar="DIR", default=".")
    table.set_defaults(func=_cmd_table1)

    kick = subs.add_parser("kick-ratio", help="switching kick for a beam speed")
    kick.add_argument("--speed", type=float, metavar="V", default=1.0e4,
                      help="beam speed in cm/s (default 1e4)")
    kick.add_argument("--light-speed", type=float, metavar="C", default=LIGHT_SPEED)
    kick.add_argument("--threshold", type=float, metavar="X", default=1.0e-3)
    kick.set_defaults(func=_cmd_kick_ratio)

    hooke = subs.add_parser("hooke-demo", help="delayed-spring toy model")
    hooke.add_argument("--coupling",
                       choices=[m.value for m in SpringMode] + ["all"],
                       default="all")
    hooke.add_argument("--tau", type=float, default=0.05,
                       help="coupling delay (default 0.05)")
    hooke.add_argument("--dt", type=float, default=None)
    hooke.add_argument("--periods", type=float, default=10.0)
    hooke.add_argument("--out", metavar="DIR", default=".")
    hooke.set_defaults(func=_cmd_hooke_demo)

    dump = subs.add_parser("dump-trajectories",
                           help="record per-view trajectories for a few pairs")
    _add_common_run_flags(dump)
    dump.add_argument("--record-every", type=int, metavar="N", default=10,
                      help="keep every N-th step (default 10)")
    dump.set_defaults(func=_cmd_dump_trajectories)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that has gone shows up here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone (`| head`): end quietly, as Python's docs
        # advise, with stdout on devnull so the flush at exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (EstimationError, IntegrationDiverged) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        # inputs are read and checked before any work, so this is an output
        print(f"configuration error: cannot write {err.filename}: {err.strerror}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
