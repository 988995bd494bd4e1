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
    ],
    ids=["mesh", "disc-mesh", "discomfort", "kernel", "shared-exit-face"],
)
def test_scenario_build_errors_are_config_errors(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(config)
        args = args + ["--config", str(path)]
    assert main(["run", "--T", "0.1", *args]) == 3
    assert "error:" in capsys.readouterr().err


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


def test_picard_subcommand():
    assert main(["picard", "--h", "0.125", "--max-iter", "8"]) == 0
