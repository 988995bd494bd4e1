"""Command-line front end.

Four subcommands: ``run`` integrates a scenario and writes snapshots and a
diagnostics series; ``picard`` solves one window by fixed-point sweeps and
reports the iterate distances; ``oracle`` solves a linear reference
problem both exactly and with the finite-volume scheme and reports the
gap; ``verify`` runs a quick invariant battery on a desk-scale mesh.

Exit codes: 0 on a clean run, 1 when ``verify`` finds a violation, 2 on a
NaN abort inside the time loop, 3 on any configuration problem (including
bad command-line usage).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from .averaging import Channel, KernelSpectra, assemble_nonlocal
from .config import RunConfig, load_config_file, preset_names
from .errors import ConfigError, NanAbortError
from .fields import ScalarField
from .simulator import init_scenario, picard_solve, run
from .transport import TransportBuffers, discrete_diagnostics, exact_solution

__all__ = ["main", "app"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with
    # the NaN-abort code; funnel usage problems into the config-error path
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scenario",
        default="room-eq25",
        help=f"preset name ({', '.join(preset_names())})",
    )
    p.add_argument("--config", default=None, help="YAML file merged over the preset")
    p.add_argument("--h", type=float, default=None, help="mesh size override")
    p.add_argument("--T", type=float, default=None, help="final time override")
    p.add_argument("--cfl", type=float, default=None, help="CFL number (default 0.5)")
    p.add_argument(
        "--theta", type=float, default=None, help="viscosity factor (default 1.0)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crowdflow", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario to its final time")
    _add_scenario_flags(p_run)
    p_run.add_argument("--out", default=None, help="output directory for snapshots/series")
    p_run.add_argument(
        "--snap-every", type=float, default=None, help="snapshot cadence in model time"
    )

    p_pic = sub.add_parser("picard", help="fixed-point sweeps over one time window")
    _add_scenario_flags(p_pic)
    p_pic.add_argument(
        "--window", type=float, default=None, help="window length (default 20 steps)"
    )
    p_pic.add_argument("--max-iter", type=int, default=16, help="sweep limit")
    p_pic.add_argument(
        "--tol", type=float, default=1e-10, help="stop when the iterate distance drops below"
    )

    p_orc = sub.add_parser(
        "oracle", help="compare the scheme against the exact linear solution"
    )
    _add_scenario_flags(p_orc)
    p_orc.set_defaults(scenario="rotation-disc")

    p_ver = sub.add_parser("verify", help="run the invariant battery")
    _add_scenario_flags(p_ver)

    return parser


def _config_from_args(args: argparse.Namespace, **fields) -> RunConfig:
    return RunConfig(
        scenario=args.scenario,
        h=args.h,
        final_time=args.T,
        cfl=args.cfl,
        theta=args.theta,
        overrides={} if args.config is None else load_config_file(args.config),
        **fields,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, snap_every=args.snap_every, out_dir=args.out)
    result = run(config)
    last = result.records[-1]
    first = result.records[0]
    print(f"finished at t={last.t:g} after {result.state.step_index} steps "
          f"({result.wall_time:.2f}s)")
    for i in range(len(last.mass)):
        print(
            f"population {i + 1}: mass {first.mass[i]:.6f} -> {last.mass[i]:.6f}, "
            f"left through exits {last.outflux[i]:.6f}"
        )
    if result.series_path is not None:
        print(f"series: {result.series_path}")
        print(f"snapshots: {len(result.snapshot_paths)} files")
    return 0


def _cmd_picard(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = picard_solve(
        config, window=args.window, max_iter=args.max_iter, tol=args.tol
    )
    print(f"window step dt={result.dt:g}, {result.iterations} sweeps")
    for k, d in enumerate(result.distances, start=1):
        print(f"sweep {k}: distance {d:.6e}")
    if result.non_contraction:
        print("warning: iterate distances grew three times in a row "
              "(window too wide for the coupling strength)")
    print("converged" if result.converged else "not converged within the sweep limit")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    scenario = init_scenario(config)
    if scenario.linear is None:
        raise ConfigError(
            "the oracle command needs a linear scenario "
            "(rotation-disc or contraction-disc)"
        )
    result = run(config, scenario=scenario)
    exact = exact_solution(scenario.linear, result.state.t)
    approx = result.state.densities[0]
    area = scenario.grid.cell_area
    l1 = area * float(np.sum(np.abs(approx.values - exact.values)))
    buffers = TransportBuffers(scenario.grid.shape)
    ex = discrete_diagnostics(exact, buffers)
    fv = discrete_diagnostics(approx, buffers)
    print(f"t={result.state.t:g}, mesh h={scenario.grid.h:g}")
    print(f"exact:  mass {ex.mass:.8f}, sup {ex.sup_norm:.8f}")
    print(f"scheme: mass {fv.mass:.8f}, sup {fv.sup_norm:.8f}")
    print(f"L1 gap {l1:.8e}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    # desk-scale defaults unless the caller pinned the mesh/horizon
    if args.h is None:
        config.h = 0.125
    if args.T is None:
        config.final_time = 1.5
    scenario = init_scenario(config)
    if scenario.model is None:
        raise ConfigError("verify needs a crowd scenario, not a linear one")

    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        if ok:
            print(f"ok: {name}")
        else:
            failures.append(name)
            print(f"FAIL: {name}" + (f" ({detail})" if detail else ""))

    averagers = {id(c.averager): c.averager for c in scenario.model.channels}
    zmin = min(
        float(np.min(a.z.values[scenario.mask.interior])) for a in averagers.values()
    )
    zmax = max(
        float(np.max(a.z.values[scenario.mask.interior])) for a in averagers.values()
    )
    check(
        "normalizer bounded away from zero and near-unit",
        0.0 < zmin and zmax <= 1.0 + 0.01,
        f"z range [{zmin:g}, {zmax:g}]",
    )

    one = ScalarField(
        scenario.grid, scenario.mask.interior.astype(float)
    )
    for averager in averagers.values():
        # the engine run() uses, not the direct oracle
        ch = Channel("average", (0,), averager)
        avg = assemble_nonlocal([one], KernelSpectra([ch]))[ch]
        gap = float(np.max(np.abs(avg.values - one.values)))
        check(
            f"constant density is a fixed point (support {averager.stencil.support:g})",
            gap <= 1e-12,
            f"gap {gap:.3e}",
        )

    result = run(config, scenario=scenario)
    recs = result.records
    m0 = sum(recs[0].mass)
    ledger_ok = True
    worst = 0.0
    for prev, cur in zip(recs, recs[1:]):
        for i in range(len(cur.mass)):
            drop = prev.mass[i] - cur.mass[i]
            flux = cur.outflux[i] - prev.outflux[i]
            err = abs(drop - flux) / max(m0, 1e-30)
            worst = max(worst, err)
            if err > 1e-10:
                ledger_ok = False
    # a leak through a wall face would show here as a drop no exit carried
    check(
        "mass drop equals exit outflux every step (walls leak nothing)",
        ledger_ok,
        f"worst {worst:.3e}",
    )
    check(
        "mass never increases",
        all(cur.mass[i] <= prev.mass[i] + 1e-12 * m0
            for prev, cur in zip(recs, recs[1:]) for i in range(len(cur.mass))),
    )
    min_rho = min(float(np.min(d.values)) for d in result.state.densities)
    check("density stays nonnegative", min_rho >= -1e-12, f"min {min_rho:.3e}")

    rerun = run(config, scenario=init_scenario(config))
    same = len(rerun.records) == len(recs) and all(
        a.t == b.t and a.mass == b.mass and a.sup == b.sup and a.tv == b.tv
        and a.outflux == b.outflux
        for a, b in zip(rerun.records, recs)
    )
    check("rerun reproduces the diagnostics bit for bit", same)

    if failures:
        print(f"{len(failures)} of the checks failed")
        return 1
    print("all checks passed")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "picard": _cmd_picard,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NanAbortError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
