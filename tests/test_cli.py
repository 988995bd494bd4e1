import math
import re

import numpy as np
import pytest
import yaml

from crowdflow.cli import main
from crowdflow.config import preset
from crowdflow.output import read_snapshot


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "--scenario",
            "room-eq25",
            "--h",
            "0.125",
            "--T",
            "0.5",
            "--out",
            str(out),
            "--snap-every",
            "0.25",
        ]
    )
    assert code == 0
    series = out / "series.csv"
    assert series.exists()
    header = series.read_text().splitlines()[0]
    assert header.startswith("t,mass_1")
    snaps = sorted(out.glob("snap_*.csv"))
    assert len(snaps) == 3  # t = 0, 0.25, 0.5
    values, meta = read_snapshot(snaps[0])
    assert meta["t"] == 0.0
    assert np.isclose(meta["h"] * meta["h"] * values.sum(), 48.0, atol=1e-9)


def test_run_summary_reports_mass_and_exit_outflow(capsys):
    assert main(["run", "--scenario", "room-eq25", "--h", "0.125", "--T", "0.1"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("population")]
    # walls carry no flux by construction, so the summary reports none
    assert len(lines) == 1
    assert re.fullmatch(
        r"population 1: mass 48\.000000 -> \d+\.\d{6}, left through exits \d+\.\d{6}", lines[0]
    ), lines[0]


def test_picard_needs_a_crowd_scenario(capsys):
    assert main(["picard", "--scenario", "rotation-disc", "--h", "0.125"]) == 3
    assert "need a crowd scenario" in capsys.readouterr().err


def test_unknown_scenario_is_a_config_error():
    assert main(["run", "--scenario", "nosuch", "--T", "0.1"]) == 3


def test_under_resolved_mesh_is_a_config_error():
    # the room kernels need at least three cells across the short support
    assert main(["verify", "--h", "0.25"]) == 3


def test_bad_flag_value_is_a_config_error():
    assert main(["run", "--scenario", "room-eq25", "--h", "0.125", "--cfl", "2.0"]) == 3


@pytest.mark.parametrize(
    "args, config",
    [
        (["--h", "0.3"], None),
        (["--scenario", "rotation-disc", "--h", "3"], None),
        (["--h", "0.125"], "desired: {discomfort_amp: -1.0}\n"),
        (
            ["--h", "0.125"],
            "populations:\n"
            "  - speed_law: {amplitude: 2.0, capacity: 4.0}\n"
            "    kernels: {l1: -0.5, l2: 1.5}\n"
            "    betas: [0.6]\n",
        ),
        (
            ["--h", "0.125"],
            "domain:\n  exits: [[[8.0, -1.0], [8.0, 0.1]], [[8.0, 0.05], [8.0, 1.0]]]\n",
        ),
        ([], "numerics: {h: abc}\n"),
        (["--h", "0.125"], "initial: {kind: quadrants, counts: [1, 2, 3, x]}\n"),
        (["--h", "0.125", "--snap-every", "-1"], None),
        (["--h", "0.125"], "output: {cadence: -0.5}\n"),
        (["--h", "0.125"], "desired: {discomfort_amp: [1]}\n"),
        (
            ["--scenario", "corridor-eq20", "--h", "0.0625"],
            "initial: {kind: ramp, lo: [0], hi: 4}\n",
        ),
        (["--h", "0.125"], "initial: {kind: quadrants, counts: [-5, 14, 9, 30]}\n"),
        (
            ["--scenario", "corridor-eq20", "--h", "0.0625"],
            "initial: {kind: ramp, lo: -1, hi: 4}\n",
        ),
        (["--h", "0.125"], "domain: 5\n"),
        (["--h", "0.125"], "populations: 5\n"),
        (["--h", "0.125"], "desired: 5\n"),
        (["--h", "0.125"], "initial: 5\n"),
        (["--h", "0.125"], "numerics: 5\n"),
        (["--h", "0.125"], "output: 5\n"),
        (["--h", "0.125"], "initial: {kind: ramp, orientation: sideways}\n"),
        *(
            (
                ["--h", "0.125"],
                "populations:\n"
                "  - speed_law: {amplitude: 1.0, capacity: 4.0}\n"
                "    kernels: {l1: 0.625, l2: 1.5}\n"
                "    betas: [0.6]\n"
                f"    target_exits: [{exit}]\n",
            )
            for exit in ("0.7", "'0'", "true")
        ),
        (["--h", "0.125"], "initial: {kind: quadrants, counts: 5}\n"),
        (["--h", "0.125"], "initial: {kind: quadrants, counts: [1, 2, 3]}\n"),
        (
            ["--scenario", "corridor-eq20", "--h", "0.0625"],
            "initial: {kind: quadrants, counts: [1, 2, 3, 4]}\n",
        ),
        (["--h", "0.125"], "initial: {kind: blob}\n"),
        # ``domain: {}`` merges over the preset's domain; a linear preset
        # turned into a crowd scenario has none
        (["--scenario", "rotation-disc", "--h", "0.125"], "scenario: evacuation\n"),
        (["--scenario", "rotation-disc", "--h", "0.125"], "problem: spiral\n"),
        (["--h", "0.125"], "scenario: crowd\n"),
        (
            ["--h", "0.125"],
            "populations:\n"
            "  - speed_law: {amplitude: 1.0, capacity: 4.0}\n"
            "    kernels: {l1: 0.625, l2: 1.5}\n"
            "    betas: [0.6]\n"
            "    target_exits: []\n",
        ),
    ],
    ids=[
        "mesh",
        "disc-mesh",
        "discomfort",
        "kernel",
        "shared-exit-face",
        "mesh-not-a-number",
        "count-not-a-number",
        "negative-snap-every",
        "negative-cadence",
        "discomfort-not-a-number",
        "ramp-bound-not-a-number",
        "negative-count",
        "negative-ramp-lo",
        "domain-not-a-mapping",
        "populations-not-a-list",
        "desired-not-a-mapping",
        "initial-not-a-mapping",
        "numerics-not-a-mapping",
        "output-not-a-mapping",
        "single-population-ramp-orientation",
        "float-target-exit",
        "string-target-exit",
        "bool-target-exit",
        "counts-not-a-list",
        "three-counts",
        "quadrants-on-two-populations",
        "unknown-initial-kind",
        "crowd-scenario-without-domain",
        "unknown-linear-problem",
        "unknown-scenario-kind",
        "no-target-exit",
    ],
)
def test_scenario_build_errors_are_config_errors(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(config)
        args = args + ["--config", str(path)]
    assert main(["run", "--T", "0.1", *args]) == 3
    assert "error:" in capsys.readouterr().err


# every numeric field of a config, as (preset, path into the mapping);
# the corridor's ramp bounds, the room's for the rest
NUMERIC_FIELDS = [
    *(("room-eq25", ("domain", "box", i)) for i in range(4)),
    ("room-eq25", ("domain", "exits", 0, 0, 1)),
    ("room-eq25", ("domain", "obstacles", 0, 2)),
    ("room-eq25", ("populations", 0, "speed_law", "amplitude")),
    ("room-eq25", ("populations", 0, "speed_law", "capacity")),
    ("room-eq25", ("populations", 0, "kernels", "l1")),
    ("room-eq25", ("populations", 0, "kernels", "l2")),
    ("room-eq25", ("populations", 0, "betas", 0)),
    ("room-eq25", ("desired", "discomfort_amp")),
    ("room-eq25", ("desired", "discomfort_range")),
    ("room-eq25", ("initial", "counts", 0)),
    ("corridor-eq20", ("initial", "lo")),
    ("corridor-eq20", ("initial", "hi")),
    *(("room-eq25", ("numerics", key)) for key in ("h", "T", "cfl", "theta")),
    ("room-eq25", ("output", "cadence")),
]

# +inf means no congestion, no periodic snapshots and a wall push that
# spans the room; every other non-finite value is a config error
RUNS_AT_PLUS_INF = {
    ("populations", 0, "speed_law", "capacity"),
    ("output", "cadence"),
    ("desired", "discomfort_range"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "scenario, path", NUMERIC_FIELDS, ids=[".".join(map(str, p)) for _, p in NUMERIC_FIELDS]
)
def test_non_finite_config_values(tmp_path, capsys, scenario, path, value):
    cfg = preset(scenario)
    cfg["numerics"].update(h=0.125 if scenario == "room-eq25" else 0.0625, T=0.1)
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(cfg))
    code = main(["run", "--scenario", scenario, "--config", str(config)])
    if value == math.inf and path in RUNS_AT_PLUS_INF:
        assert code == 0
    else:
        assert code == 3
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
@pytest.mark.parametrize(
    "scenario, path", NUMERIC_FIELDS, ids=[".".join(map(str, p)) for _, p in NUMERIC_FIELDS]
)
def test_boolean_config_values(tmp_path, capsys, scenario, path, value):
    # YAML's true and false are not 1.0 and 0.0: the error names the field
    cfg = preset(scenario)
    cfg["numerics"].update(h=0.125 if scenario == "room-eq25" else 0.0625, T=0.1)
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--scenario", scenario, "--config", str(config)]) == 3
    name = [key for key in path if isinstance(key, str)][-1]
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and re.search(rf"\b{name}\b", errors[0]), errors


@pytest.mark.parametrize(
    "args, config",
    [
        (
            ["--scenario", "corridor-eq20", "--h", "0.03125"],
            "populations:\n"
            "  - speed_law: {amplitude: 1.0, capacity: 4.5}\n"
            "    kernels: {l1: 0.125, l2: 0.5}\n"
            "    betas: [0.2, 0.5]\n"
            "    target_exits: [1]\n"
            "  - speed_law: {amplitude: 1.5, capacity: 4.5}\n"
            "    kernels: {l1: 0.125, l2: 0.5}\n"
            "    betas: [0.5, 0.2]\n"
            "    target_exits: [0]\n",
        ),
        (["--h", "0.125"], "domain: {sphere_radius: 0.2}\n"),
    ],
    ids=["corridor-short-speed-kernel", "room-unread-domain-key"],
)
def test_configs_with_positive_z_run(tmp_path, args, config):
    # set-up asks of the boundary only that z be positive on interior cells,
    # and a domain key the builder does not read is ignored
    path = tmp_path / "cfg.yaml"
    path.write_text(config)
    assert main(["run", "--T", "0.05", *args, "--config", str(path)]) == 0


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_config_files_are_config_errors(tmp_path, capsys, kind):
    path = tmp_path / "cfg.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"numerics: {T: 0.1}\n# \xff\xfe\n")
    assert main(["run", "--h", "0.125", "--config", str(path)]) == 3
    assert "error: cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, out",
    [
        ("output: {dir: 5}\n", None),
        ("output: {dir: true}\n", None),
        ("output: {dir: ''}\n", None),
        (None, "file"),
        (None, "file/sub"),
    ],
    ids=["dir-is-a-number", "dir-is-a-bool", "dir-is-empty", "out-at-a-file", "out-under-a-file"],
)
def test_unusable_output_settings_are_config_errors(
    tmp_path, capsys, monkeypatch, config, out
):
    from crowdflow import simulator

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the output settings failed")

    monkeypatch.setattr(simulator, "step", no_step)
    (tmp_path / "file").write_text("")
    args = ["run", "--h", "0.125", "--T", "0.1"]
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(config)
        args += ["--config", str(path)]
    if out is not None:
        args += ["--out", str(tmp_path / out)]
    assert main(args) == 3
    assert "error: " in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == ""


def test_unknown_subcommand_is_a_config_error():
    assert main(["frobnicate"]) == 3


def test_config_file_override(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("numerics:\n  T: 0.25\n")
    code = main(
        ["run", "--scenario", "room-eq25", "--h", "0.125", "--config", str(cfg)]
    )
    assert code == 0


def test_oracle_subcommand():
    assert main(["oracle", "--h", "0.0625", "--T", "0.125"]) == 0


def test_verify_battery_passes():
    assert main(["verify"]) == 0


def test_a_failed_verify_check_exits_1(monkeypatch, capsys):
    from crowdflow import cli

    original = cli.assemble_nonlocal

    def shifted(rho_all, spectra):
        out = original(rho_all, spectra)
        for field in out.values():
            field.values[...] += 1e-9
        return out

    monkeypatch.setattr(cli, "assemble_nonlocal", shifted)
    assert main(["verify", "--T", "0.1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL: constant density is a fixed point" in out


def test_nan_abort_exits_2(monkeypatch, capsys):
    from crowdflow import simulator

    original = simulator.lf_step_detailed

    def poisoned(*args):
        density, outflux = original(*args)
        density.values[0, 0] = np.nan
        return density, outflux

    monkeypatch.setattr(simulator, "lf_step_detailed", poisoned)
    assert main(["run", "--scenario", "room-eq25", "--h", "0.125", "--T", "0.1"]) == 2
    assert "aborted:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, scenario",
    [("oracle", "room-eq25"), ("oracle", "corridor-eq20"), ("verify", "rotation-disc")],
)
def test_commands_reject_the_wrong_kind_of_scenario(capsys, command, scenario):
    assert main([command, "--scenario", scenario, "--h", "0.125", "--T", "0.1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_picard_warns_when_the_distances_grow(tmp_path, capsys):
    from crowdflow.config import RunConfig
    from crowdflow.simulator import init_scenario, picard_dt

    # a strong avoidance weight over a window of 100 steps
    overrides = {"populations": [{**preset("room-eq25")["populations"][0], "betas": [3.0]}]}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(overrides))
    config = RunConfig(scenario="room-eq25", h=0.125, overrides=overrides)
    window = repr(100 * picard_dt(init_scenario(config)))
    args = ["--h", "0.125", "--config", str(cfg), "--window", window, "--max-iter", "8"]
    assert main(["picard", *args, "--tol", "0"]) == 0
    out = capsys.readouterr().out
    distances = [float(line.split()[-1]) for line in out.splitlines() if line.startswith("sweep ")]
    # 28.6, 33.2, 35.2, then falling
    assert len(distances) == 8 and distances[0] < distances[1] < distances[2]
    assert "warning: iterate distances grew three times in a row" in out


def test_picard_subcommand(capsys):
    assert main(["picard", "--h", "0.125", "--max-iter", "8"]) == 0
    capsys.readouterr()
    # the sweep limit and tolerance flags reach picard_solve
    assert main(["picard", "--h", "0.125", "--max-iter", "2", "--tol", "0"]) == 0
    out = capsys.readouterr().out
    sweeps = [line for line in out.splitlines() if line.startswith("sweep ")]
    assert [line.split(":")[0] for line in sweeps] == ["sweep 1", "sweep 2"]
    assert "not converged" in out


@pytest.mark.parametrize(
    "flag, value",
    [("--window", "nan"), ("--window", "inf"), ("--window", "0"), ("--tol", "nan")],
)
def test_picard_rejects_invalid_window_and_tol(capsys, flag, value):
    assert main(["picard", "--h", "0.125", flag, value]) == 3
    assert "error:" in capsys.readouterr().err
