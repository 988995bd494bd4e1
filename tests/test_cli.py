import numpy as np
import pytest

from crowdflow.cli import main
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
        (["--h", "0.125"], "initial: {kind: quadrants, counts: [.inf, 14, 9, 30]}\n"),
        (
            ["--scenario", "corridor-eq20", "--h", "0.0625"],
            "initial: {kind: ramp, lo: -1, hi: 4}\n",
        ),
        (
            ["--scenario", "corridor-eq20", "--h", "0.0625"],
            "initial: {kind: ramp, lo: 0, hi: .nan}\n",
        ),
        (
            ["--h", "0.125"],
            "populations:\n"
            "  - speed_law: {amplitude: .nan, capacity: 4.0}\n"
            "    kernels: {l1: 0.625, l2: 1.5}\n"
            "    betas: [0.6]\n",
        ),
        (
            ["--h", "0.125"],
            "populations:\n"
            "  - speed_law: {amplitude: .inf, capacity: 4.0}\n"
            "    kernels: {l1: 0.625, l2: 1.5}\n"
            "    betas: [0.6]\n",
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
        (["--T", "inf"], None),
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
        "infinite-count",
        "negative-ramp-lo",
        "nan-ramp-hi",
        "nan-amplitude",
        "infinite-amplitude",
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
        "infinite-horizon",
    ],
)
def test_scenario_build_errors_are_config_errors(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(config)
        args = args + ["--config", str(path)]
    assert main(["run", "--T", "0.1", *args]) == 3
    assert "error:" in capsys.readouterr().err


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
