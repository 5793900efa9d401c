"""Command-line front end emitting sweep CSV files and summary reports.

Four subcommands: ``rates`` sweeps the distilled Bell-pair rate against
the two-photon reference, ``drift`` tabulates the inter-iterate drift
infidelity surface, ``chain`` reports the optimized chain-growth
constants and ``simulate`` runs seeded Monte Carlo trajectories.  Every
output CSV is paired with a JSON manifest echoing the full parameter
set, so any file can be reproduced bit for bit from its manifest alone.

Exit codes: 0 on success, 2 for usage or config errors, 3 when a
numerical routine signals degeneracy or non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    DARK_FIDELITY_CUTOFF,
    Objective,
    chain_growth_rate,
    crossover_transmission,
    drift_infidelity_surface,
    optimize_bell_rate,
    optimize_theta,
    two_photon_reference_rate,
)
from .errors import (
    ConfigFormatError,
    DegenerateParameterError,
    NonConvergenceError,
    SimulationError,
)
from .photonics import ApparatusParams, ExcitationAngle, heralded_state, p_click
from .protocol import (
    CLIENT_LABELS,
    StrategyConfig,
    StrategyMode,
    run_strategy_exact,
    run_trajectories,
)
from .qstate import plus_state

OUTDIR_ENV_VAR = "PARITYDISTILL_OUTDIR"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every output file."""

    command: str
    parameters: dict
    seed: int | None
    version: str
    outputs: tuple[dict, ...]

    def write(self, path: Path) -> None:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
            "outputs": list(self.outputs),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _resolve_outdir(args) -> Path:
    if args.outdir is not None:
        out = Path(args.outdir)
    else:
        out = Path(os.environ.get(OUTDIR_ENV_VAR, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_manifest(
    args, command: str, parameters: dict, csv_path: Path, seed: int | None = None
) -> None:
    manifest = RunManifest(
        command=command,
        parameters=parameters,
        seed=seed,
        version=__version__,
        outputs=({"file": csv_path.name, "sha256": _sha256(csv_path)},),
    )
    manifest.write(csv_path.with_suffix(".manifest.json"))


def _write_csv(path: Path, header: list[str], lines: list[str]) -> None:
    """Header plus preformatted rows, each ending in a newline.

    Fields are numbers and bare words, so no field needs quoting.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(value))


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# rates


def cmd_rates(parser: argparse.ArgumentParser, args) -> int:
    if args.points < 1:
        parser.error("--points must be at least 1")
    if not 0.0 < args.t_min <= 1.0 or not 0.0 < args.t_max <= 1.0:
        parser.error("transmissions must lie in (0, 1]")
    if args.t_min > args.t_max:
        parser.error("--t-min exceeds --t-max (empty range)")
    if args.points == 1 and args.t_min != args.t_max:
        parser.error("--points 1 needs --t-min equal to --t-max")
    if not args.tau > 0.0:
        parser.error("--tau must be positive")
    if args.points == 1:
        grid = np.array([args.t_min])
    else:
        grid = np.geomspace(args.t_min, args.t_max, args.points)
    theta, rate = optimize_bell_rate(grid, grid, args.tau)
    reference = two_photon_reference_rate(grid, args.tau)
    gap = rate - reference
    # the first grid point past each sign change from ours to reference
    crossing = np.zeros(len(grid), dtype=bool)
    crossing[1:] = (gap[:-1] > 0.0) & (gap[1:] <= 0.0)
    columns = (grid, theta, rate, reference, rate / reference)
    lines = [
        f"{t!r},{th!r},{r!r},{ref!r},{ratio!r},{'crossover' if crossed else ''}\n"
        for t, th, r, ref, ratio, crossed in zip(
            *(c.tolist() for c in columns), crossing.tolist()
        )
    ]
    outdir = _resolve_outdir(args)
    csv_path = outdir / args.output
    _write_csv(
        csv_path,
        ["t", "theta_opt", "rate_ours", "rate_reference", "ratio", "annotation"],
        lines,
    )
    _emit_manifest(
        args,
        "rates",
        {
            "t_min": args.t_min,
            "t_max": args.t_max,
            "points": args.points,
            "tau": args.tau,
            "output": args.output,
        },
        csv_path,
    )
    print(f"wrote {csv_path} ({len(lines)} rows)")
    print(f"rate crossover at mean transmission {crossover_transmission():.6f}")
    return 0


# ---------------------------------------------------------------------------
# drift


def cmd_drift(parser: argparse.ArgumentParser, args) -> int:
    if args.points < 2:
        parser.error("--points must be at least 2")
    if not args.d_max > 0.0:
        parser.error("--d-max must be positive")
    grid = np.linspace(0.0, args.d_max, args.points)
    # rows run over d_t within d_x, so d_x indexes the first axis
    exact, quad = drift_infidelity_surface(grid[:, None], grid[None, :])
    raw = 1.0 - exact
    raw_text = [[repr(v) for v in row] for row in raw.tolist()]
    if args.cutoff:
        shown = np.maximum(raw, 1.0 - DARK_FIDELITY_CUTOFF)
        shown_text = [[repr(v) for v in row] for row in shown.tolist()]
    else:
        shown_text = raw_text
    labels = [repr(v) for v in grid.tolist()]
    lines = [
        f"{dx},{dt},{e!r},{q!r},{s},{r}\n"
        for dx, *cells in zip(labels, exact.tolist(), quad.tolist(), shown_text, raw_text)
        for dt, e, q, s, r in zip(labels, *cells)
    ]
    outdir = _resolve_outdir(args)
    csv_path = outdir / args.output
    _write_csv(
        csv_path,
        ["d_x", "d_t", "epsilon_exact", "epsilon_quadratic", "fidelity", "fidelity_raw"],
        lines,
    )
    _emit_manifest(
        args,
        "drift",
        {
            "d_max": args.d_max,
            "points": args.points,
            "cutoff": bool(args.cutoff),
            "output": args.output,
        },
        csv_path,
    )
    print(f"wrote {csv_path} ({len(lines)} rows)")
    return 0


# ---------------------------------------------------------------------------
# chain


def cmd_chain(parser: argparse.ArgumentParser, args) -> int:
    if not 0.0 < args.t <= 1.0:
        parser.error("--t must lie in (0, 1]")
    if args.k_max < 4:
        parser.error("--k-max must be at least 4")
    if not args.tau > 0.0:
        parser.error("--tau must be positive")
    params = ApparatusParams(t1=args.t, t2=args.t, tau=args.tau)
    if args.theta is not None:
        theta = args.theta
    else:
        best = optimize_theta(params, Objective.CHAIN_RATE, k_max=args.k_max)
        theta = best.optimal_theta
    result = chain_growth_rate(params, theta, k_max=args.k_max)
    sin_sq = math.sin(theta) ** 2
    per_t = result.growth_rate * args.tau / args.t
    lines = [
        ("t", args.t),
        ("k_max", args.k_max),
        ("theta_opt", theta),
        ("sin_sq_theta_opt", sin_sq),
        ("growth_rate", result.growth_rate),
        ("growth_rate_tau_over_t", per_t),
        ("reciprocal_t_over_tau", 1.0 / per_t),
        ("p_loop", result.p_loop),
        ("mean_iterates", result.mean_iterates),
        ("tail_bound", result.tail_bound),
    ]
    for name, value in lines:
        print(f"{name} = {value!r}")
    if not result.converged:
        print(
            f"warning: series tail bound {result.tail_bound:.3e} exceeds 1e-09 "
            f"at k_max={args.k_max}; raise --k-max for a tighter truncation",
            file=sys.stderr,
        )
    if args.csv:
        outdir = _resolve_outdir(args)
        csv_path = outdir / args.output
        _write_csv(
            csv_path,
            ["quantity", "value"],
            [f"{name},{_fmt(value)}\n" for name, value in lines],
        )
        _emit_manifest(
            args,
            "chain",
            {
                "t": args.t,
                "k_max": args.k_max,
                "tau": args.tau,
                "theta": args.theta,
                "output": args.output,
            },
            csv_path,
        )
        print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _params_from_flags(parser: argparse.ArgumentParser, args) -> ApparatusParams:
    values: dict[str, float] = {}
    if args.config is not None:
        cfg = ApparatusParams.from_config_file(args.config)
        values = {
            "t1": cfg.t1,
            "t2": cfg.t2,
            "x1": cfg.x1,
            "x2": cfg.x2,
            "wavelength": cfg.wavelength,
            "p_dark": cfg.p_dark,
            "tau": cfg.tau,
        }
    if args.t is not None:
        if args.t1 is not None or args.t2 is not None:
            parser.error("--t conflicts with --t1/--t2")
        values["t1"] = values["t2"] = args.t
    for flag, key in (
        ("t1", "t1"),
        ("t2", "t2"),
        ("x1", "x1"),
        ("x2", "x2"),
        ("wavelength", "wavelength"),
        ("p_dark", "p_dark"),
        ("tau", "tau"),
    ):
        value = getattr(args, flag)
        if value is not None:
            values[key] = value
    if "t1" not in values or "t2" not in values:
        parser.error("transmittance required: pass --t, --t1/--t2, or --config")
    try:
        return ApparatusParams(**values)
    except DegenerateParameterError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    params = _params_from_flags(parser, args)
    if params.p_dark != 0.0:
        parser.error(
            "trajectory sampling models the dark-free link; set p_dark to 0"
        )
    mode = StrategyMode(args.strategy)
    if args.max_iterates is None:
        max_iterates = 2 if mode is StrategyMode.TWO_ITERATES_ONLY else 16
    else:
        max_iterates = args.max_iterates
    try:
        config = StrategyConfig(mode=mode, max_iterates=max_iterates, rng_seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")
    if args.sin_sq_theta is not None:
        theta_angle = ExcitationAngle.from_sin_sq(args.sin_sq_theta)
        theta = theta_angle.theta
    elif args.theta is not None:
        theta = args.theta
    else:
        objective = (
            Objective.BELL_RATE
            if mode is StrategyMode.TWO_ITERATES_ONLY
            else Objective.CHAIN_RATE
        )
        theta = optimize_theta(params, objective).optimal_theta
    stats = run_trajectories(config, params, theta, args.trials)
    outdir = _resolve_outdir(args)
    csv_path = outdir / args.output
    stats.write_csv(csv_path)
    _emit_manifest(
        args,
        "simulate",
        {
            "trials": args.trials,
            "strategy": mode.value,
            "max_iterates": max_iterates,
            "theta": theta,
            "t1": params.t1,
            "t2": params.t2,
            "x1": params.x1,
            "x2": params.x2,
            "wavelength": params.wavelength,
            "tau": params.tau,
            "output": args.output,
            "rng_stream": stats.stream,
        },
        csv_path,
        seed=args.seed,
    )
    pair = heralded_state(params, theta)
    tree = run_strategy_exact(plus_state(CLIENT_LABELS), pair, config)
    mean_iterates = sum(l.probability * l.iterates for l in tree.leaves)
    analytic_rate = (
        tree.success_probability
        * p_click(params, theta)
        / (mean_iterates * params.tau)
    )
    summary = stats.summary()
    print(f"wrote {csv_path} ({stats.n_trials} rows)")
    print(f"strategy = {mode.value} (max_iterates = {max_iterates})")
    print(f"sin_sq_theta = {math.sin(theta) ** 2!r}")
    print(
        f"successes = {summary['successes']}  failures = {summary['failures']}  "
        f"pending = {summary['pending']}"
    )
    print(
        f"success_rate = {summary['success_rate']!r} "
        f"(se {summary['success_rate_se']:.3e}, exact {tree.success_probability!r})"
    )
    print(f"total_attempts = {summary['total_attempts']}")
    print(f"simulated_time = {summary['simulated_time']!r}")
    print(
        f"bell_rate = {summary['bell_rate']!r} "
        f"(se {summary['bell_rate_se']:.3e}, exact {analytic_rate!r})"
    )
    print(f"mean_success_fidelity = {summary['mean_success_fidelity']!r}")
    histogram = " ".join(
        f"{k}:{v}" for k, v in sorted(summary["iterate_histogram"].items())
    )
    print(f"iterate_histogram = {histogram}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritydistill",
        description="Heralded parity-projection distillation: sweeps, constants, sampling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser("rates", help="sweep distilled vs reference Bell-pair rates")
    rates.add_argument("--t-min", type=float, default=1e-5)
    rates.add_argument("--t-max", type=float, default=1.0)
    rates.add_argument("--points", type=int, default=200)
    rates.add_argument("--tau", type=_finite_float, default=1.0)
    rates.add_argument("--output", default="rates.csv")
    rates.add_argument("--outdir", default=None)

    drift = sub.add_parser("drift", help="tabulate the inter-iterate drift surface")
    drift.add_argument("--d-max", type=_finite_float, default=0.1)
    drift.add_argument("--points", type=int, default=11)
    drift.add_argument(
        "--cutoff",
        action="store_true",
        help="clip the fidelity column at the 1-1e-3 display floor",
    )
    drift.add_argument("--output", default="drift.csv")
    drift.add_argument("--outdir", default=None)

    chain = sub.add_parser("chain", help="optimized chain-growth constants")
    chain.add_argument("--t", type=float, default=1e-3)
    chain.add_argument("--k-max", type=int, default=64)
    chain.add_argument("--tau", type=_finite_float, default=1.0)
    chain.add_argument("--theta", type=float, default=None)
    chain.add_argument("--csv", action="store_true", help="also write a key,value CSV")
    chain.add_argument("--output", default="chain.csv")
    chain.add_argument("--outdir", default=None)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo trajectory runs")
    simulate.add_argument("--trials", type=int, default=10000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--strategy",
        choices=[m.value for m in StrategyMode],
        default=StrategyMode.TWO_ITERATES_ONLY.value,
    )
    simulate.add_argument("--max-iterates", type=int, default=None)
    group = simulate.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None)
    group.add_argument("--sin-sq-theta", type=float, default=None)
    simulate.add_argument("--config", default=None)
    simulate.add_argument("--t", type=float, default=None)
    simulate.add_argument("--t1", type=float, default=None)
    simulate.add_argument("--t2", type=float, default=None)
    simulate.add_argument("--x1", type=float, default=None)
    simulate.add_argument("--x2", type=float, default=None)
    simulate.add_argument("--wavelength", type=float, default=None)
    simulate.add_argument("--p-dark", type=float, default=None)
    simulate.add_argument("--tau", type=_finite_float, default=None)
    simulate.add_argument("--output", default="simulate.csv")
    simulate.add_argument("--outdir", default=None)

    return parser


_COMMANDS = {
    "rates": cmd_rates,
    "drift": cmd_drift,
    "chain": cmd_chain,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler = _COMMANDS[args.command]
    try:
        return handler(parser, args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ConfigFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateParameterError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
