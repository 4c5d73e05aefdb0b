"""Config file handling, flag precedence, artifacts, and exit codes."""

import errno
import hashlib
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import bohm_epr.experiment as experiment_mod
import bohm_epr.integrate as integrate_mod
from bohm_epr import (
    ConfigError,
    Efficiency,
    ExperimentConfig,
    HookeParams,
    InformationMode,
    IntegrationConfig,
    Normalization,
    RawPhysicalInputs,
    SettingPair,
    SwitchPolicy,
    derive_coefficients,
    integrate_batch,
)
from bohm_epr.cli import (
    ENV_SEED,
    build_config,
    config_digest,
    emit_config,
    main,
    parse_config,
    read_config_text,
)
from bohm_epr.experiment import DEFAULT_SEED, TABLE1_ROWS, derived_seed, prepare_pairs


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


# emit_config(ExperimentConfig()) and its config_digest, as written before
# the INI format was derived from the config's fields
DEFAULT_INI = """\
[physics]
magnetic_moment = 9.274e-21
mass = 1.7933400000000002e-22
packet_width = 0.001
field_gradient = 10000.0
magnet_length = 30.0
beam_speed = 10000.0
light_speed = 29980000000.0

[integration]
dt = 1e-06
workers = 1

[experiment]
n_pairs = 4000
angles_a = 0.0, 1.5707963267948966
angles_b = 0.7853981633974483, 2.356194490192345
mode = nonlocal
efficiency = efficient
normalization = singles
kick_threshold = 0.001
seed = 12345
separation = 100.0
source_to_magnet = 35.0
pair_period = 0.01
signal_speed = 8000.0
switch_policy_a = per_pair_random
switch_policy_b = per_pair_random
explicit_a = 
explicit_b = 
"""
DEFAULT_DIGEST = "71a96b818e918c233d72f62b6370affb066e5aca0b481218c7c8d983139d4f44"


def test_emit_parse_round_trip_defaults():
    cfg = ExperimentConfig()
    assert emit_config(cfg) == DEFAULT_INI
    assert config_digest(cfg) == DEFAULT_DIGEST
    parsed, provenance = parse_config(emit_config(cfg), env={})
    assert parsed == cfg
    assert provenance["seed_source"] == "file"


# each config with the sha256 of its emit_config text and its config_digest,
# both recorded before the INI format was derived from the config's fields
NONDEFAULT_CONFIGS = [
    (ExperimentConfig(
        physics=RawPhysicalInputs(packet_width=2.0e-3, beam_speed=9.0e3),
        n_pairs=64,
        angles_a=(0.1, 1.2),
        angles_b=(-0.4, 2.25),
        mode=InformationMode.LOCAL,
        efficiency=Efficiency.INEFFICIENT,
        normalization=Normalization.COINCIDENCES,
        kick_threshold=0.0,
        master_seed=999,
        dt=2.0e-6,
        separation=55.5,
        source_to_magnet=20.0,
        pair_period=2.0e-2,
        signal_speed=5.0e3,
        switch_policy_a=SwitchPolicy.EXPLICIT_LIST,
        explicit_a=((-math.inf, 0.1), (3.0e-2, 1.2)),
        switch_policy_b=SwitchPolicy.STATIC,
        workers=3,
    ),
     "736d2b31827151614bc5b7b9c37a05c92222f38f2deb4fafce9248fd628d8559",
     "e4e475a6eb81033bdc905d52edb6ec9838e3e7586cb41e058c256d2c5de840ce"),
    # a -0.0 menu angle, a -inf first entry on B, and a different policy per side
    (ExperimentConfig(
        physics=RawPhysicalInputs(magnetic_moment=1.0e-20, light_speed=3.0e10,
                                  field_gradient=0.0),
        angles_a=(-0.0, 1.0),
        n_pairs=5,
        master_seed=2**64 - 1,
        switch_policy_a=SwitchPolicy.PER_PAIR_RANDOM,
        switch_policy_b=SwitchPolicy.EXPLICIT_LIST,
        explicit_b=((-math.inf, -0.0), (0.25, 2.0), (1.5, 0.5)),
        kick_threshold=0.5,
        workers=2,
    ),
     "d3f835bf66f8dc8751aecf84054f197dea83432b28ada11971ce11d209cd14d0",
     "109b192a0fa8a7f022518959375984d911f2fbce5292ccf6120ae4e2442d35fc"),
]


def test_emit_parse_round_trip_nondefault():
    for cfg, text_sha, digest in NONDEFAULT_CONFIGS:
        text = emit_config(cfg)
        assert hashlib.sha256(text.encode()).hexdigest() == text_sha
        assert config_digest(cfg) == digest
        parsed, _ = parse_config(text, env={})
        assert parsed == cfg
        # == cannot tell -0.0 from 0.0; the emitted text can
        assert emit_config(parsed) == text
        assert config_digest(parsed) == digest


def test_readme_config_block_names_every_key():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    parse_config(block, env={})
    every_key = read_config_text(emit_config(ExperimentConfig()))
    assert sorted(read_config_text(block)) == sorted(every_key)


def test_unknown_keys_and_sections_are_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        read_config_text("[experiment]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        read_config_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="not valid INI"):
        read_config_text("key with no section\n")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("[integration]\ndt = fast\n", env={})
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config("[experiment]\nmode = psychic\n", env={})


def test_seed_precedence():
    text = "[experiment]\nseed = 5\n"
    cfg, prov = parse_config(text, env={})
    assert cfg.master_seed == 5 and prov["seed_source"] == "file"

    cfg, prov = parse_config(text, env={ENV_SEED: "9"})
    assert cfg.master_seed == 9 and prov["seed_source"] == "environment"

    cfg, prov = parse_config(text, overrides={"seed": 11}, env={ENV_SEED: "9"})
    assert cfg.master_seed == 11 and prov["seed_source"] == "flag"
    assert prov["flag_overrides"]["seed"] == 11

    cfg, prov = parse_config("", env={})
    assert cfg.master_seed == DEFAULT_SEED and prov["seed_source"] == "default"

    with pytest.raises(ConfigError, match=ENV_SEED):
        parse_config("", env={ENV_SEED: "abc"})


def test_flag_overrides_recorded():
    cfg, prov = build_config(
        {}, overrides={"n_pairs": 16, "mode": InformationMode.LOCAL}, env={})
    assert cfg.n_pairs == 16
    assert cfg.mode is InformationMode.LOCAL
    assert prov["flag_overrides"] == {"n_pairs": 16, "mode": "local"}


def test_config_digest_ignores_workers():
    one = ExperimentConfig(workers=1)
    four = ExperimentConfig(workers=4)
    assert config_digest(one) == config_digest(four)
    assert len(config_digest(one)) == 64
    assert config_digest(one) != config_digest(ExperimentConfig(n_pairs=8))


def test_kick_ratio_command(capsys):
    assert main(["kick-ratio"]) == 0
    out = capsys.readouterr().out
    assert "kick_ratio = 3.335555925431646e-07" in out
    assert "kept" in out

    assert main(["kick-ratio", "--speed", "1e7", "--threshold", "1e-4"]) == 0
    assert "lost" in capsys.readouterr().out


def test_kick_ratio_command_where_the_speeds_sum_past_the_float_range(capsys):
    # 1e308 + 1e308 overflows; equal speeds still give exactly one half
    assert main(["kick-ratio", "--speed", "1e308", "--light-speed", "1e308"]) == 0
    assert capsys.readouterr().out == (
        "beam_speed = 1e+308 cm/s\n"
        "light_speed = 1e+308 cm/s\n"
        "kick_ratio = 0.5\n"
        "threshold = 0.001 -> lost on switch (inefficient mode)\n")


@pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
def test_kick_ratio_rejects_bad_threshold(capsys, threshold):
    assert main(["kick-ratio", "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: --threshold must be finite")


def test_run_epr_writes_report_events_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["run-epr", "--pairs", "8", "--seed", "77",
                 "--events", "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["events.csv", "manifest.json", "report.json"]

    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 77
    assert report["config_echo"]["n_pairs"] == 8
    assert "workers" not in report["config_echo"]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "bohm-epr"
    assert manifest["command"] == "run-epr"
    assert manifest["seed"] == 77
    assert manifest["files"] == names
    assert manifest["provenance"]["flag_overrides"]["n_pairs"] == 8
    assert manifest["config_sha256"] is not None
    assert manifest["counters"] == {"off_menu_pairs": 0, "lost_a": 0, "lost_b": 0,
                                    "systems": 8}

    events = (out / "events.csv").read_text().splitlines()
    assert len(events) == 9


def test_run_epr_reads_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "777")
    out = tmp_path / "envrun"
    assert main(["run-epr", "--pairs", "8", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 777
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["provenance"]["seed_source"] == "environment"


def test_run_epr_rates_flag(tmp_path):
    ini = tmp_path / "lossy.ini"
    ini.write_text("[experiment]\nkick_threshold = 0.0\nseed = 41\n")
    out = tmp_path / "rates"
    code = main(["run-epr", "--config", str(ini), "--pairs", "200",
                 "--efficiency", "inefficient", "--rates", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["Q1"] == 1.0
    assert report["C2"] == 1.0
    assert 0.0 < report["Q1p"] < 1.0
    assert 0.0 < report["C2p"] < report["Q1p"]


def test_run_epr_rates_are_written_when_s_is_undefined(tmp_path):
    # side B is parked, so three setting cells stay empty and S is undefined
    ini = tmp_path / "one_sided.ini"
    ini.write_text("[experiment]\nswitch_policy_b = static\nefficiency = inefficient\n"
                   "kick_threshold = 0.0\n")
    out = tmp_path / "rates"
    assert main(["run-epr", "--config", str(ini), "--pairs", "400", "--seed", "505",
                 "--rates", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["S_signed"] is None
    assert (report["Q1"], report["Q1p"], report["C2"], report["C2p"]) == (1.0, 0.755, 1.0, 0.51)
    # Q1p_a = C2p = 0.51 keeps 204 of side A's 400 particles; parked B loses none.
    # Without --events only those 204 coincident pairs are transported.
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"] == {"off_menu_pairs": 0, "lost_a": 196, "lost_b": 0,
                                    "systems": 204}


def test_run_epr_rates_run_one_experiment(tmp_path, monkeypatch):
    # the quiescent baseline is counted, not run: --rates draws no pair
    # stream and transports no system beyond the switched run's own
    calls = {"streams": [], "transports": 0}
    real_draws, real_transport = experiment_mod.pair_draws, experiment_mod.integrate_retiring

    def counted_draws(master_seed, n, packet_width):
        calls["streams"].extend(range(n))
        return real_draws(master_seed, n, packet_width)

    def counted_transport(*args, **kwargs):
        calls["transports"] += 1
        return real_transport(*args, **kwargs)

    monkeypatch.setattr(experiment_mod, "pair_draws", counted_draws)
    monkeypatch.setattr(experiment_mod, "integrate_retiring", counted_transport)
    seen = {}
    for flags in ((), ("--rates",)):
        calls["streams"], calls["transports"] = [], 0
        assert main(["run-epr", "--pairs", "60", "--seed", "41", "--efficiency", "inefficient",
                     *flags, "--out", str(tmp_path / f"run{len(flags)}")]) == 0
        seen[flags] = (sorted(calls["streams"]), calls["transports"])
    assert seen[()][0] == list(range(60))
    assert seen[()][1] >= 1
    assert seen[("--rates",)] == seen[()]


@pytest.mark.parametrize("seed", [0, 101])
def test_run_epr_events_do_not_change_the_report(tmp_path, seed):
    # without --events only the counted pairs are transported; the lossy
    # local bench leaves about three in four pairs out of every cell
    ini = tmp_path / "lossy.ini"
    ini.write_text("[experiment]\nmode = local\nefficiency = inefficient\n"
                   "normalization = coincidences\nkick_threshold = 0.0\n")
    docs = {}
    for flags in ((), ("--events",)):
        out = tmp_path / f"run{len(flags)}"
        assert main(["run-epr", "--config", str(ini), "--pairs", "300", "--seed", str(seed),
                     *flags, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("runtime_s")
        docs[flags] = (json.dumps(report, indent=2),
                       json.loads((out / "manifest.json").read_text())["counters"]["systems"])
    assert docs[()][0] == docs[("--events",)][0]
    assert docs[()][1] < docs[("--events",)][1]


def test_run_epr_that_counts_no_pair_transports_nothing(tmp_path, capsys):
    # all four pairs lose a particle, so no cell counts a pair and S is undefined
    ini = tmp_path / "lossy.ini"
    ini.write_text("[experiment]\nmode = local\nefficiency = inefficient\n"
                   "normalization = coincidences\nkick_threshold = 0.0\n")
    out = tmp_path / "run"
    assert main(["run-epr", "--config", str(ini), "--pairs", "4", "--seed", "2",
                 "--out", str(out)]) == 0
    assert "S undefined" in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text())["counters"]["systems"] == 0


def test_run_epr_exit_codes(tmp_path):
    assert main(["run-epr", "--pairs", "0", "--out", str(tmp_path)]) == 2
    assert main(["run-epr", "--seed", "-5", "--out", str(tmp_path)]) == 2
    assert main(["run-epr", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path)]) == 2

    bad = tmp_path / "divergent.ini"
    bad.write_text("[physics]\npacket_width = 1e-150\n")
    assert main(["run-epr", "--config", str(bad), "--pairs", "8",
                 "--out", str(tmp_path)]) == 3


def test_pair_count_above_the_ceiling_is_a_config_error(tmp_path, capsys):
    # refused before any array is allocated or any output directory made,
    # on every command that runs pairs
    for k, (argv, message) in enumerate((
            (["run-epr", "--pairs", "1000000000000"], "n_pairs must be at most 10000000"),
            (["table1", "--pairs", "1000000000000"], "n_pairs must be at most 10000000"),
            (["table1", "--pairs", "100000000"], "n_pairs must be at most 10000000"),
            (["table1", "--pairs", "3"], "n_pairs must be an integer >= 4"),
            (["dump-trajectories", "--pairs", "1000000000000"],
             "n_pairs must be at most 10000000"))):
        out = tmp_path / f"out{k}"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists(), argv


def test_closed_stdout_pipe_ends_quietly(tmp_path, capsys):
    class ClosedPipe:
        """A stdout whose reader has gone, backed by a real descriptor."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as fh, mock.patch("sys.stdout", ClosedPipe(fh.fileno())):
        assert main(["kick-ratio"]) == 1
        # stdout now points at devnull, so the flush at exit cannot fail again
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def _strict_json(path):
    """A JSON file's contents, refusing the NaN and Infinity that JSON lacks."""
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_run_epr_manifest_counts_off_menu_pairs(tmp_path):
    # the golden explicit_off_menu run of test_experiment.py: 60 pairs meet
    # the off-menu angle 0.3 on side A
    ini = tmp_path / "offmenu.ini"
    ini.write_text("[experiment]\nmode = local\nseed = 1618\n"
                   "switch_policy_a = explicit_list\n"
                   "explicit_a = -inf:0.0;0.6:0.3;1.2:1.5707963267948966\n")
    out = tmp_path / "run"
    assert main(["run-epr", "--config", str(ini), "--pairs", "200", "--out", str(out)]) == 0
    manifest = _strict_json(out / "manifest.json")
    # without --events the 60 off-menu pairs are not transported
    assert manifest["counters"] == {"off_menu_pairs": 60, "lost_a": 0, "lost_b": 0,
                                    "systems": 170}
    assert sorted(os.listdir(out)) == ["manifest.json", "report.json"]
    # the -inf start time is echoed as text, since JSON has no infinity
    assert _strict_json(out / "report.json")["config_echo"]["explicit_a"][0] == ["-inf", 0.0]


def test_explicit_switch_at_inf_exits_2(tmp_path, capsys):
    ini = tmp_path / "late.ini"
    ini.write_text("[experiment]\nswitch_policy_a = explicit_list\n"
                   "explicit_a = -inf:0.1; inf:0.2\n")
    out = tmp_path / "run"
    assert main(["run-epr", "--config", str(ini), "--pairs", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("configuration error: timeline times must be below "
                                       "inf: a switch at t = inf never happens\n")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["run-epr", "dump-trajectories"])
def test_refused_read_leaves_no_output_directory(tmp_path, capsys, command):
    # pair 0 is in the magnets from 3.5 to 6.5 ms, and A switches at 5.5 ms
    ini = tmp_path / "r.ini"
    ini.write_text("[experiment]\nswitch_policy_a = explicit_list\n"
                   "explicit_a = -1.0:0.0;0.0055:1.0\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(ini), "--pairs", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: pair 0: analyzer A switches inside its "
                          "magnet transit (0.0035, 0.0065")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section, line, message", [
    ("physics", "beam_speed = nan", "config key physics.beam_speed: NaN is not allowed"),
    ("experiment", "angles_a = 0.0, 1.0, 2.0",
     "config key experiment.angles_a: expected two comma-separated angles"),
    ("experiment", "switch_policy_a = explicit_list\nexplicit_a = -1.0:0.0;0.5",
     "config key experiment.explicit_a: entries must look like time:angle"),
    ("experiment", "source_to_magnet = -1.0", "source_to_magnet must be non-negative"),
])
def test_config_value_refusals_exit_2_before_any_output(tmp_path, capsys, section, line,
                                                        message):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{line}\n")
    out = tmp_path / "run"
    assert main(["run-epr", "--config", str(ini), "--pairs", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_explicit_list_skips_an_empty_chunk():
    cfg, _ = build_config(read_config_text(
        "[experiment]\nswitch_policy_a = explicit_list\nexplicit_a = -1.0:0.0;; 0.5:1.0\n"), {})
    assert cfg.explicit_a == ((-1.0, 0.0), (0.5, 1.0))


def test_table1_row_with_an_empty_cell_exits_3(tmp_path, capsys):
    # four pairs cannot fill the four cells of every row
    assert main(["table1", "--pairs", "4", "--seed", "0", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: row \S+ left an empty setting cell\n", err)


def test_a_failed_command_removes_the_directories_it_made_and_no_other(tmp_path, capsys):
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "old.txt").write_text("old\n")
    for out in (tmp_path / "a" / "b" / "c", kept, kept / "d" / "e"):
        assert main(["table1", "--pairs", "4", "--seed", "0", "--out", str(out)]) == 3
        assert "left an empty setting cell" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
    assert [p.name for p in kept.iterdir()] == ["old.txt"]
    assert (kept / "old.txt").read_text() == "old\n"


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    code = main(["run-epr", "--config", str(tmp_path), "--pairs", "4",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot read config file")


@pytest.mark.parametrize("argv,blocked", [
    (["run-epr", "--events", "--pairs", "8"], "events.csv"),
    (["dump-trajectories", "--pairs", "1"], "trajectories.csv"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, blocked):
    # a directory in the output's place cannot be opened for writing, even by root
    (tmp_path / blocked).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: cannot write {tmp_path / blocked}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_an_open_output_names_it(tmp_path, capsys):
    # every write to /dev/full fails with ENOSPC, an error that names no file
    (tmp_path / f".report.json.{os.getpid()}.tmp").symlink_to("/dev/full")
    assert main(["run-epr", "--pairs", "8", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cannot write {tmp_path / 'report.json'}: "
        f"{os.strerror(errno.ENOSPC)}\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["run-epr", "dump-trajectories"])
def test_angle_difference_out_of_float_range_exits_2(tmp_path, capsys, command):
    # every angle is finite, but a view's difference overflows to inf
    ini = tmp_path / "far.ini"
    ini.write_text("[experiment]\nangles_a = 1e308, 0\nangles_b = -1e308, 1\n")
    out = tmp_path / "run"
    assert main([command, "--config", str(ini), "--pairs", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: pair 2: side A's view holds angles 1e+308 and -1e+308, "
        "whose difference overflows\n")
    assert not out.exists()


def test_read_whose_transit_rounds_away_runs(tmp_path):
    # at these read times t + transit rounds to within an ulp of t, so no
    # float lies inside the read's transit and no switch can fall there
    reports = {}
    for name, experiment in (("period", "pair_period = 1e15"),
                             ("slow", "mode = local\nsignal_speed = 1e-13"),
                             ("slower", "mode = local\nsignal_speed = 1e-11")):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(f"[experiment]\n{experiment}\n")
        out = tmp_path / name
        pairs = "8" if name == "period" else "400"
        assert main(["run-epr", "--config", str(ini), "--pairs", pairs, "--seed", "3",
                     "--out", str(out)]) == 0
        reports[name] = json.loads((out / "report.json").read_text())
    # news never arrives at either speed, so both runs read the same stale views
    assert reports["slow"]["per_setting"] == reports["slower"]["per_setting"]
    assert reports["slow"]["S_signed"] == reports["slower"]["S_signed"]


@pytest.mark.parametrize("command", ["run-epr", "dump-trajectories"])
def test_packet_width_out_of_float_range_exits_2(tmp_path, capsys, command):
    ini = tmp_path / "wide.ini"
    ini.write_text("[physics]\npacket_width = 1e300\n")
    out = tmp_path / "run"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: packet_width 1e+300 ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,blocked", [
    (["run-epr", "--events", "--pairs", "8"], "events.csv"),
    (["table1", "--pairs", "40"], "table1.json"),
    (["dump-trajectories", "--pairs", "1"], "trajectories.csv"),
    (["hooke-demo", "--periods", "1"], "hooke_cm.csv"),
])
def test_failed_output_leaves_no_partial_run(tmp_path, argv, blocked):
    # every output is written under a temporary name and renamed only when all are
    (tmp_path / blocked).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == [blocked]


@pytest.mark.parametrize("argv", [
    ["run-epr", "--pairs", "8"],
    ["table1", "--pairs", "40"],
    ["dump-trajectories", "--pairs", "1"],
    ["hooke-demo", "--periods", "1"],
])
def test_every_manifest_names_its_environment(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "platform", "cpu_count"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["platform"].startswith(f"{platform.system()}-{platform.release()}-")


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes("[experiment]\n# caf\u00e9\nn_pairs = 8\n".encode("latin-1"))
    code = main(["run-epr", "--config", str(ini), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["run-epr", "--pairs", "4", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: cannot create output directory")
    assert taken.read_text() == "not a directory\n"


def test_table1_out_below_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["table1", "--pairs", "60", "--out", str(taken / "x")]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: cannot create output directory")


def test_table1_command(tmp_path, capsys):
    out = tmp_path / "table"
    code = main(["table1", "--pairs", "60", "--seed", "2024", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "local/singles/efficient" in printed
    assert "nonlocal/coincidences/inefficient" in printed

    doc = json.loads((out / "table1.json").read_text())
    assert doc["seed"] == 2024
    assert doc["n_pairs"] == 60
    assert doc["replicates"] == 1
    assert [row["label"] for row in doc["rows"]] == [
        "local/singles/efficient",
        "local/coincidences/inefficient",
        "nonlocal/singles/efficient",
        "nonlocal/coincidences/inefficient",
    ]
    assert doc["rows"][1]["S_signed"] == doc["rows"][3]["S_signed"]
    for row in doc["rows"]:
        assert set(row["per_setting"]) == {"ab", "ab'", "a'b", "a'b'"}
    assert (out / "manifest.json").exists()


# sha256 of table1.json from `table1 --pairs 200`; the file holds only
# seeds, counts and ratios of integer sums, so it pins every row bit for bit
GOLDEN_TABLES = {
    7: "d36dc4df6e74fd365aba120bab344e2c44b18a0d1d3105599f1440e8a14f213a",
    5_000_000_000: "838b3a16c694d7f245d32425fcbedc6ebf6e5fd688c2e3763f81056d6d4a0b2e",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_TABLES))
def test_golden_table1(seed, tmp_path):
    assert main(["table1", "--pairs", "200", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "table1.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_TABLES[seed]


def test_table1_has_no_workers_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["table1", "--workers", "2", "--pairs", "8", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_table1_rejects_bad_replicates(tmp_path):
    assert main(["table1", "--pairs", "60", "--replicates", "0",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["run-epr", "table1"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_flag_exits_2(tmp_path, capsys, command, seed):
    code = main([command, "--seed", seed, "--pairs", "4", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-epr", "table1"])
def test_negative_env_seed_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv(ENV_SEED, "-5")
    code = main([command, "--pairs", "4", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and ENV_SEED in err


def test_table1_manifest_records_each_row(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "2024")
    out = tmp_path / "table"
    assert main(["table1", "--pairs", "200", "--replicates", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 2024
    assert manifest["provenance"]["seed_source"] == "environment"
    assert manifest["files"] == ["manifest.json", "table1.json"]
    expected = []
    for replicate in range(2):
        for label, mode, efficiency, normalization, key in TABLE1_ROWS:
            inefficient = efficiency is Efficiency.INEFFICIENT
            cfg = ExperimentConfig(
                n_pairs=200, mode=mode, efficiency=efficiency,
                normalization=normalization,
                kick_threshold=0.0 if inefficient else 1.0e-3,
                master_seed=derived_seed(2024, replicate, key))
            expected.append({"replicate": replicate, "label": label,
                             "seed": cfg.master_seed,
                             "config_sha256": config_digest(cfg)})
    assert manifest["rows"] == expected
    assert len({row["config_sha256"] for row in expected}) == 8
    # each replicate transports the distinct systems of its rows' counted pairs once
    assert manifest["counters"] == {"systems": 1018}
    table = json.loads((out / "table1.json").read_text())
    assert [row["seed"] for row in table["rows"]] == [r["seed"] for r in expected[:4]]


def test_hooke_demo_all_couplings(tmp_path, capsys):
    out = tmp_path / "hooke"
    code = main(["hooke-demo", "--coupling", "all", "--tau", "0.05",
                 "--periods", "2", "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["hooke_cm.csv", "hooke_expanded.csv",
                     "hooke_instantaneous.csv", "hooke_retarded.csv",
                     "manifest.json"]
    first = (out / "hooke_instantaneous.csv").read_text().splitlines()
    assert first[0] == "t,x1,x2"
    assert "energy drift" in capsys.readouterr().out
    # two periods at 2000 steps each, the retarded coupling at tau/8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"] == {"steps": {
        "instantaneous": 4000, "retarded": round(4.0 * math.pi / 3.0 / 0.00625),
        "expanded": 4000, "cm": 4000}}
    assert len(first) == 1 + 4001


@pytest.mark.parametrize("argv, coupling, steps", [
    # default steps: 2000 a period, the retarded coupling at tau/8
    ([], "all", {**dict.fromkeys(("instantaneous", "expanded", "cm"),
                                 HookeParams().period / 2000.0), "retarded": 0.05 / 8.0}),
    (["--coupling", "cm", "--dt", "0.001"], "cm", {"cm": 0.001}),
])
def test_hooke_demo_manifest_records_coupling_and_steps(tmp_path, argv, coupling, steps):
    assert main(["hooke-demo", "--tau", "0.05", "--periods", "2", *argv,
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["provenance"] == {"tau": 0.05, "periods": 2.0, "coupling": coupling,
                                      "dt": steps}


def test_hooke_demo_holds_one_coupling_at_a_time(tmp_path, capsys):
    # One coupling's rows and t at 20 000 steps are 0.76 MiB, and the call
    # peaks near 1.04 MiB. Copied columns or an energy array over every row
    # (1.43 MiB each), or two couplings alive at once (1.80 MiB), pass the bound.
    tracemalloc.start()
    try:
        assert main(["hooke-demo", "--periods", "10", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hooke_demo_peak_does_not_grow_with_a_history_free_run(tmp_path, capsys):
    # a history-free coupling is written block by block as its rows are
    # made; holding the run grew the peak by 2.1 MiB from 10 to 40 periods.
    # The first call in a process also makes about 0.15 MiB of one-off
    # allocations, so a warm-up call takes them out of the comparison
    _, short, long = [_traced_peak(["hooke-demo", "--coupling", "instantaneous",
                                    "--periods", periods, "--out", str(tmp_path / periods)])
                      for periods in ("1", "10", "40")]
    assert long - short < 0.1 * 2**20


def test_hooke_demo_failed_write_names_the_csv_being_written(tmp_path, capsys):
    # the three history-free CSVs are open together; every write to
    # /dev/full fails with ENOSPC, an error that names no file
    (tmp_path / f".hooke_instantaneous.csv.{os.getpid()}.tmp").symlink_to("/dev/full")
    assert main(["hooke-demo", "--coupling", "all", "--periods", "1",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cannot write {tmp_path / 'hooke_instantaneous.csv'}: "
        f"{os.strerror(errno.ENOSPC)}\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, code, dt", [
    # tau/8 gives fewer than 10 steps, so the retarded coupling takes period/2000
    (["--coupling", "retarded"], 0, HookeParams().period / 2000.0),
    # which reaches the expanded coupling's divergence
    (["--coupling", "all"], 3, None),
])
def test_hooke_demo_default_retarded_step_falls_back_to_the_period(tmp_path, capsys, argv,
                                                                   code, dt):
    out = tmp_path / "hooke"
    assert main(["hooke-demo", "--tau", "1e10", "--periods", "1", *argv,
                 "--out", str(out)]) == code
    if code == 0:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["provenance"]["dt"] == {"retarded": dt}
        assert manifest["counters"] == {"steps": {"retarded": 2000}}
    else:
        assert capsys.readouterr().err == "numerical failure: non-finite state at step 11\n"
        assert not out.exists()


def test_hooke_demo_rejects_coarse_step_for_retarded(tmp_path):
    assert main(["hooke-demo", "--coupling", "retarded", "--tau", "0.05",
                 "--dt", "0.05", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["--coupling", "cm", "--periods", "1e13"],
    ["--coupling", "retarded", "--tau", "1e-300", "--periods", "1"],
])
def test_hooke_demo_rejects_unbounded_step_count(tmp_path, capsys, argv):
    assert main(["hooke-demo", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "more than 10000000 steps" in err


@pytest.mark.parametrize("argv", [
    ["--tau", "1e-300", "--periods", "1"],
    ["--tau", "0.05", "--dt", "0.05"],
])
def test_hooke_demo_checks_every_grid_before_writing(tmp_path, capsys, argv):
    # the retarded grid is refused after the instantaneous one would pass
    out = tmp_path / "hooke"
    assert main(["hooke-demo", "--coupling", "all", *argv, "--out", str(out)]) == 2
    assert not list(tmp_path.glob("**/hooke_*.csv"))
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["--coupling", "expanded"],
    # the instantaneous and retarded files are staged before expanded fails
    ["--coupling", "all", "--dt", "0.001"],
])
def test_hooke_demo_divergence_is_a_numerical_failure_and_writes_nothing(tmp_path, capsys,
                                                                         argv):
    out = tmp_path / "hooke"
    assert main(["hooke-demo", "--tau", "1e10", "--periods", "1", *argv,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: non-finite state at step 11\n"
    assert not out.exists()


def test_dump_trajectories(tmp_path):
    out = tmp_path / "dump"
    code = main(["dump-trajectories", "--pairs", "4", "--seed", "7",
                 "--record-every", "500", "--out", str(out)])
    assert code == 0
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "pair_id,view,step,t,z_L,z_R"
    body = [line.split(",") for line in lines[1:]]
    # 4 pairs, both views, steps 0, 500, ..., 3000
    assert len(body) == 4 * 2 * 7
    assert {row[0] for row in body} == {"0", "1", "2", "3"}
    assert {row[1] for row in body} == {"A", "B"}
    steps = [int(row[2]) for row in body if row[0] == "0" and row[1] == "A"]
    assert steps == [0, 500, 1000, 1500, 2000, 2500, 3000]
    assert (out / "manifest.json").exists()


def test_dumped_trajectories_do_not_depend_on_batch_mates(tmp_path):
    lines = {}
    for n in (1, 3, 6):
        out = tmp_path / f"dump{n}"
        assert main(["dump-trajectories", "--mode", "local", "--seed", "4",
                     "--pairs", str(n), "--record-every", "1000", "--out", str(out)]) == 0
        lines[n] = (out / "trajectories.csv").read_text().splitlines()
    # a dump of fewer than four pairs prepares four and writes the first
    for n in (1, 3):
        assert lines[n] == [line for line in lines[6]
                            if line.split(",")[0] in ("pair_id", *map(str, range(n)))]

    # each view's last sample is the exit of that view integrated alone
    t = prepare_pairs(ExperimentConfig(n_pairs=6, master_seed=4, mode=InformationMode.LOCAL))
    assert ((t.a_seen_by_b != t.setting_a) | (t.b_seen_by_a != t.setting_b)).any()
    views = [(pair_id, view, (z_l0, z_r0), SettingPair(*angles))
             for pair_id, z_l0, z_r0, a, b, b_seen, a_seen in zip(*(column.tolist() for column in (
                 t.pair_id, t.z_l0, t.z_r0, t.setting_a, t.setting_b, t.b_seen_by_a,
                 t.a_seen_by_b)))
             for view, angles in (("A", (a, b_seen)), ("B", (a_seen, b)))]
    co = derive_coefficients(RawPhysicalInputs())
    exit_l, exit_r = integrate_batch(
        np.array([z[0] for _, _, z, _ in views]), np.array([z[1] for _, _, z, _ in views]),
        np.array([s.weights()[0] for _, _, _, s in views]),
        np.array([s.weights()[1] for _, _, _, s in views]),
        co, IntegrationConfig(dt=1.0e-6, duration=co.transit_time))
    last = {tuple(row.split(",")[:2]): row.split(",")[4:]
            for row in lines[6][1:] if row.split(",")[2] == "3000"}
    assert len(last) == len(views)
    for i, (pair_id, view, _, _) in enumerate(views):
        assert last[(str(pair_id), view)] == [repr(float(exit_l[i])),
                                              repr(float(exit_r[i]))]


def test_dump_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    argv = ["dump-trajectories", "--mode", "local", "--seed", "4", "--pairs", "5",
            "--record-every", "400"]
    t = prepare_pairs(ExperimentConfig(n_pairs=5, master_seed=4, mode=InformationMode.LOCAL))
    assert ((t.a_seen_by_b != t.setting_a) | (t.b_seen_by_a != t.setting_b)).any()
    dumps = []
    for chunk in (1, 4096):
        monkeypatch.setattr(experiment_mod, "_BATCH_CHUNK", chunk)
        out = tmp_path / f"chunk{chunk}"
        assert main([*argv, "--out", str(out)]) == 0
        dumps.append((out / "trajectories.csv").read_bytes())
    assert dumps[0] == dumps[1]


# sha256 of trajectories.csv, taken before transport carried the stacked
# (2, n) state; the local run has dual-view pairs, so both views of a pair
# differ there, and every row holds repr() of the positions bit for bit
GOLDEN_DUMPS = {
    "local": (["--mode", "local", "--seed", "4", "--pairs", "6", "--record-every", "250"],
              157, "675e7071f87639cb8c0ba69481997497b59b0342d51479e028e84337894d218b"),
    "nonlocal": (["--mode", "nonlocal", "--seed", "7", "--pairs", "4", "--record-every", "300"],
                 89, "d0290b3ffcece7eb5e658e66961d2554aacc77e1cab4e2616ea371b7827cde1d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DUMPS))
def test_golden_trajectories(name, tmp_path):
    argv, n_lines, digest = GOLDEN_DUMPS[name]
    assert main(["dump-trajectories", *argv, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "trajectories.csv").read_bytes()
    assert len(data.splitlines()) == n_lines
    if name == "local":
        last = {}
        for row in data.decode().splitlines()[1:]:
            pair_id, view, step, _, z_l, z_r = row.split(",")
            if step == "3000":
                last.setdefault(pair_id, {})[view] = (z_l, z_r)
        assert any(views["A"] != views["B"] for views in last.values())
    assert hashlib.sha256(data).hexdigest() == digest


def test_oversized_dump_is_refused_before_transport(tmp_path, capsys, monkeypatch):
    # a kernel that raises stops any dump that gets past the refusal at
    # its first call, so the oversized case never runs for real
    calls = []

    def kernel(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the dump reached the kernel")

    monkeypatch.setattr(integrate_mod, "guidance_velocity", kernel)
    out = tmp_path / "dump"
    # 100000 pairs x 2 views x 3001 recorded steps: about 8 GB held
    for pairs in ("100000", "1667"):
        assert main(["dump-trajectories", "--pairs", pairs, "--record-every", "1",
                     "--out", str(out)]) == 2
        assert "more than 10000000" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
    # 1666 pairs x 2 x 3001 = 9999332 rows is within the bound
    with pytest.raises(AssertionError, match="reached the kernel"):
        main(["dump-trajectories", "--pairs", "1666", "--record-every", "1",
              "--out", str(out)])
    assert len(calls) == 1


@pytest.mark.parametrize("mode,seed,view", [
    ("nonlocal", "3", "view A and B"),
    ("local", "4", "view A"),
])
def test_dump_trajectories_divergence_is_a_numerical_failure(tmp_path, capsys,
                                                             mode, seed, view):
    bad = tmp_path / "divergent.ini"
    bad.write_text("[physics]\npacket_width = 1e-150\n")
    code = main(["dump-trajectories", "--config", str(bad), "--pairs", "4",
                 "--seed", seed, "--mode", mode, "--out", str(tmp_path / "dump")])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical failure: non-finite state at step 1")
    assert err.endswith(f": pair 0, {view}, {mode} mode")


def test_dump_trajectories_rejects_bad_cadence(tmp_path):
    assert main(["dump-trajectories", "--record-every", "0",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_dump_trajectories_rejects_fewer_than_one_pair(tmp_path, capsys, pairs):
    out = tmp_path / "dump"
    assert main(["dump-trajectories", "--pairs", pairs, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: --pairs")
    assert not (out / "trajectories.csv").exists()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs 11-15 ms of start-up to load; experiment._SeedState
    # joins it only when pairs are first drawn, so a command that draws
    # none never loads it
    src = pathlib.Path(experiment_mod.__file__).parents[1]
    code = "import sys, bohm_epr.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout == "False\n"
