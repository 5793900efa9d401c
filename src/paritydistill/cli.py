"""Command-line front end emitting sweep CSV files and summary reports.

Four subcommands: ``rates`` sweeps the distilled Bell-pair rate against
the two-photon reference, ``drift`` tabulates the inter-iterate drift
infidelity surface, ``chain`` reports the optimized chain-growth
constants and ``simulate`` runs seeded Monte Carlo trajectories.  Every
output CSV is paired with a JSON manifest echoing the full parameter
set, so any file can be reproduced bit for bit from its manifest alone.

Exit codes: 0 on success, 2 for usage errors, an unreadable or
malformed config and an output that cannot be written, 3 when a
numerical routine signals degeneracy or non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from ._csvbytes import float_repr, text_table, write_columns
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
from .constants import SERIES_TAIL_TOL
from .errors import ConfigFormatError, DegenerateParameterError, SimulationError
from .photonics import (
    CONFIG_FIELDS,
    ApparatusParams,
    _per_tau,
    heralded_state,
    p_click,
    theta_from_sin_sq,
)
from .protocol import (
    CLIENT_LABELS,
    STREAM_VERSION,
    StrategyConfig,
    run_strategy_exact,
    run_trajectories,
)
from .qstate import plus_state

OUTDIR_ENV_VAR = "PARITYDISTILL_OUTDIR"


def _publish(args, parameters: dict, write, seed: int | None = None) -> Path:
    """Write ``args.output`` through ``write(path)``, then its manifest.

    The file goes to ``--outdir``, else ``$PARITYDISTILL_OUTDIR``, else
    the working directory.  ``write`` returns the sha256 hex digest of
    the bytes it wrote, so a simulate CSV of hundreds of MB is never read
    back.  The manifest next to it records the command, ``parameters``,
    the seed, the package version and that digest.
    """
    outdir = Path(os.environ.get(OUTDIR_ENV_VAR, ".") if args.outdir is None else args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / args.output
    digest = write(path)
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "outputs": [{"file": path.name, "sha256": digest}],
    }
    with open(path.with_suffix(".manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _flags(args) -> dict:
    """The parsed flags, as a manifest's parameters.

    Leaves out the subcommand, which the manifest records at its top
    level, ``--outdir`` and ``chain``'s ``--csv`` switch.
    """
    return {k: v for k, v in vars(args).items() if k not in ("command", "outdir", "csv")}


# Each flag's own range is its argparse type, so a value out of range is
# rejected while argv is parsed, before any handler runs; the handlers
# check only the rules that relate two flags.


def _float_in(lo: float, hi: float, shown: str):
    """argparse type: a finite float in [lo, hi], named ``shown`` in errors.

    An open bound at zero is ``lo = math.ulp(0.0)``, the least positive
    double, so that ``value >= lo`` means ``value > 0``.
    """

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (math.isfinite(value) and lo <= value <= hi):
            raise argparse.ArgumentTypeError(f"must lie in {shown}, got {text!r}")
        return value

    return parse


def _int_in(lo: int, hi: int):
    """argparse type: an int in [lo, hi]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo}, {hi}], got {text!r}")
        return value

    return parse


_angle = _float_in(0.0, math.pi / 2.0, "[0, pi/2]")


# ---------------------------------------------------------------------------
# rates

# Largest --points: each point holds ~60 bytes of grids and optimizer
# arrays, and rows are formatted a batch at a time, so the largest sweep
# peaks at ~95 MiB RSS (~35 MiB of it the interpreter) and takes ~3 s.
RATES_POINTS_LIMIT = 1_000_000


def cmd_rates(parser: argparse.ArgumentParser, args) -> int:
    if args.t_min > args.t_max:
        parser.error("--t-min exceeds --t-max (empty range)")
    if args.points == 1 and args.t_min != args.t_max:
        parser.error("--points 1 needs --t-min equal to --t-max")
    grid = np.geomspace(args.t_min, args.t_max, args.points)
    # per window, then over tau: the ratio of the per-window rates is exact at any tau
    theta, window_rate = optimize_bell_rate(grid, grid)
    window_reference = two_photon_reference_rate(grid)
    rate, reference = _per_tau(window_rate, args.tau), _per_tau(window_reference, args.tau)
    if not np.all(reference > 0.0):
        raise DegenerateParameterError(
            "reference rate T^2 / (2 tau) underflows to zero; raise --t-min or lower --tau"
        )
    gap = rate - reference
    # the first grid point past each sign change from ours to reference
    crossing = np.zeros(len(grid), dtype=bool)
    crossing[1:] = (gap[:-1] > 0.0) & (gap[1:] <= 0.0)
    annotation = (text_table(["", "crossover"]), crossing.view(np.uint8))
    header = ["t", "theta_opt", "rate_ours", "rate_reference", "ratio", "annotation"]
    columns = [grid, theta, rate, reference, window_rate / window_reference, annotation]
    csv_path = _publish(args, _flags(args), partial(write_columns, header=header, columns=columns))
    print(f"wrote {csv_path} ({len(grid)} rows)")
    print(f"rate crossover at mean transmission {crossover_transmission():.6f}")
    return 0


# ---------------------------------------------------------------------------
# drift

# Largest --points: the surface has points^2 cells of ~30 bytes each,
# and rows are formatted a batch at a time, so the largest one peaks at
# ~64 MiB RSS (~35 MiB of it the interpreter) and takes ~2 s.
DRIFT_POINTS_LIMIT = 1000


def cmd_drift(parser: argparse.ArgumentParser, args) -> int:
    grid = np.linspace(0.0, args.d_max, args.points)
    # rows run over d_t within d_x, so d_x indexes the first axis
    exact, quad = (a.ravel() for a in drift_infidelity_surface(grid[:, None], grid[None, :]))
    raw = 1.0 - exact
    # without the cutoff one column object, formatted once a batch
    shown = np.maximum(raw, 1.0 - DARK_FIDELITY_CUTOFF) if args.cutoff else raw
    labels = float_repr(grid)
    index = np.arange(args.points, dtype=np.int16)
    d_x = (labels, np.repeat(index, args.points))
    d_t = (labels, np.tile(index, args.points))
    header = ["d_x", "d_t", "epsilon_exact", "epsilon_quadratic", "fidelity", "fidelity_raw"]
    columns = [d_x, d_t, exact, quad, shown, raw]
    csv_path = _publish(args, _flags(args), partial(write_columns, header=header, columns=columns))
    print(f"wrote {csv_path} ({len(exact)} rows)")
    return 0


# ---------------------------------------------------------------------------
# chain

CHAIN_DEFAULT_T = 1e-3

# Largest --k-max: the truncated series costs O(k_max) time and memory,
# about 0.2 ms a call at 4096, and an angle search there sums it 43 times.
CHAIN_K_MAX_LIMIT = 4096


def cmd_chain(parser: argparse.ArgumentParser, args) -> int:
    if args.t is not None and (args.t1 is not None or args.t2 is not None):
        parser.error("--t conflicts with --t1/--t2")
    if (args.t1 is None) != (args.t2 is None):
        parser.error("--t1 and --t2 go together")
    if args.t1 is None and args.t is None:
        args.t = CHAIN_DEFAULT_T  # so the manifest echoes the link used
    t1, t2 = (args.t1, args.t2) if args.t is None else (args.t, args.t)
    # per window: the series is summed once, and its ratios are exact at any tau
    link = ApparatusParams(t1=t1, t2=t2)
    if args.theta is not None:
        theta = args.theta
        result = chain_growth_rate(link, theta, k_max=args.k_max)
    else:
        best = optimize_theta(link, Objective.CHAIN_RATE, k_max=args.k_max)
        theta, result = best.optimal_theta, best.chain
    growth = _per_tau(result.growth_rate, args.tau)
    sin_sq = math.sin(theta) ** 2
    t = link.mean_transmission
    per_t = result.growth_rate / t
    lines = [
        ("t", t),
        ("k_max", math.inf if args.k_max is None else args.k_max),
        ("theta_opt", theta),
        ("sin_sq_theta_opt", sin_sq),
        ("growth_rate", growth),
        ("growth_rate_tau_over_t", per_t),
        ("reciprocal_t_over_tau", 1.0 / per_t),
        ("p_loop", result.p_loop),
        ("mean_iterates", result.mean_iterates),
        ("tail_bound", result.tail_bound),
    ]
    for name, value in lines:
        print(f"{name} = {value!r}")
    if args.k_max is not None:
        # the series' measured error, beside the mass bound it reports
        exact = chain_growth_rate(link, theta).growth_rate
        gap = abs(result.growth_rate - exact) / abs(exact) if exact else math.inf
        print(f"closed_form_gap = {gap!r}")
    if not result.converged:
        print(
            f"warning: series tail bound {result.tail_bound:.3e} exceeds {SERIES_TAIL_TOL:.0e} "
            f"at k_max={args.k_max}; raise --k-max for a tighter truncation",
            file=sys.stderr,
        )
    if args.csv:
        names = (text_table([name for name, _ in lines]), np.arange(len(lines)))
        values = np.array([value for _, value in lines], dtype=np.float64)
        write = partial(write_columns, header=["quantity", "value"], columns=[names, values])
        csv_path = _publish(args, _flags(args), write)
        print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# simulate

# Largest --max-iterates.  On a link whose runs last long (t = 0.5,
# sin^2 theta = 1e-3) the exact tree's statistics take O(cap) time and
# memory, ~0.26 ms at 256 and ~0.43 ms at 1024, so only the sampler bounds
# the cap.  Its tables take O(cap) memory, 180 KB at 1024 (20,000 trials
# raise ru_maxrss by 0.5 MiB at 256 and at 1024), but it pays a fixed cost
# per depth in every chunk that keeps a trial to the cap: ~0.28 s per
# 100,000 trials at 256 on that link (~0.78 s at 1024), ~28 s for the
# largest --trials.  That time keeps the cap at 256 (2-vCPU Xeon VM; best
# of 3 runs, RSS by resource.getrusage).
SIMULATE_CAP_LIMIT = 256

# Largest --trials: each trial holds ~40 bytes of samples and summary
# temporaries, so the largest run (two-iterate, t = 0.01) peaks at
# ~447 MiB RSS and takes ~4.5 s on a 2-vCPU Xeon VM (resource.getrusage);
# the exact walk adds ~1.8 MiB at the largest cap.  Its ~300 MB CSV is
# written in batches and hashed as it is written.
SIMULATE_TRIALS_LIMIT = 10_000_000


def _params_from_flags(parser: argparse.ArgumentParser, args) -> ApparatusParams:
    """The config file's parameters, if any, overridden by the link flags.

    Each flag's destination is the ``ApparatusParams`` field it sets.
    """
    values: dict[str, float] = {}
    if args.config is not None:
        cfg = ApparatusParams.from_config_file(args.config)
        values = {name: getattr(cfg, name) for name in CONFIG_FIELDS.values()}
    if args.t is not None:
        if args.t1 is not None or args.t2 is not None:
            parser.error("--t conflicts with --t1/--t2")
        values["t1"] = values["t2"] = args.t
    for name in CONFIG_FIELDS.values():
        value = getattr(args, name)
        if value is not None:
            values[name] = value
    if "t1" not in values or "t2" not in values:
        parser.error("transmittance required: pass --t, --t1/--t2, or --config")
    try:
        return ApparatusParams(**values)
    except DegenerateParameterError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    params = _params_from_flags(parser, args)
    if params.p_dark != 0.0:
        parser.error("trajectory sampling models the dark-free link; set p_dark to 0")
    # the two-iterate strategy is the loop capped at two
    loop = args.strategy == "loop"
    max_iterates = args.max_iterates
    if max_iterates is None:
        max_iterates = 16 if loop else 2
    if not loop and max_iterates > 2:
        parser.error("the two-iterate strategy stops at exactly two iterates")
    config = StrategyConfig(max_iterates=max_iterates, rng_seed=args.seed)
    if args.sin_sq_theta is not None:
        theta = theta_from_sin_sq(args.sin_sq_theta)
    elif args.theta is not None:
        theta = args.theta
    else:
        objective = Objective.CHAIN_RATE if loop else Objective.BELL_RATE
        theta = optimize_theta(params, objective).optimal_theta
    pair = heralded_state(params, theta)
    if pair.eta == 1.0:
        raise DegenerateParameterError(
            "contamination weight is 1: every heralded pair is |11>, so no run can classify"
        )
    tree = run_strategy_exact(plus_state(CLIENT_LABELS), pair, config)
    window_rate = tree.success_probability * p_click(params, theta) / tree.mean_iterates
    # before any sampling: raises where the rates overflow at this tau
    analytic_rate = _per_tau(window_rate, params.tau)
    stats = run_trajectories(config, params, theta, args.trials)
    link = {name: getattr(params, name) for name in CONFIG_FIELDS.values() if name != "p_dark"}
    parameters = {
        "trials": args.trials,
        "strategy": args.strategy,
        "max_iterates": max_iterates,
        "theta": theta,
        **link,
        "output": args.output,
        "rng_stream": STREAM_VERSION,
    }
    csv_path = _publish(args, parameters, stats.write_csv, seed=args.seed)
    summary = stats.summary()
    print(f"wrote {csv_path} ({stats.n_trials} rows)")
    print(f"strategy = {args.strategy} (max_iterates = {max_iterates})")
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
    fidelity = tree.mean_success_fidelity()
    print(f"mean_success_fidelity = {summary['mean_success_fidelity']!r} (exact {fidelity!r})")
    histogram = " ".join(
        f"{k}:{v}" for k, v in sorted(summary["iterate_histogram"].items())
    )
    print(f"iterate_histogram = {histogram}")
    return 0


# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="paritydistill",
        description="Heralded parity-projection distillation: sweeps, constants, sampling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    transmission = _float_in(math.ulp(0.0), 1.0, "(0, 1]")
    positive = _float_in(math.ulp(0.0), math.inf, "(0, inf)")

    rates = sub.add_parser("rates", help="sweep distilled vs reference Bell-pair rates")
    rates.add_argument("--t-min", type=transmission, default=1e-5)
    rates.add_argument("--t-max", type=transmission, default=1.0)
    rates.add_argument("--points", type=_int_in(1, RATES_POINTS_LIMIT), default=200)
    rates.add_argument("--tau", type=positive, default=1.0)
    rates.add_argument("--output", default="rates.csv")
    rates.add_argument("--outdir", default=None)

    drift = sub.add_parser("drift", help="tabulate the inter-iterate drift surface")
    drift.add_argument("--d-max", type=positive, default=0.1)
    drift.add_argument("--points", type=_int_in(2, DRIFT_POINTS_LIMIT), default=11)
    drift.add_argument(
        "--cutoff",
        action="store_true",
        help="clip the fidelity column at the 1-1e-3 display floor",
    )
    drift.add_argument("--output", default="drift.csv")
    drift.add_argument("--outdir", default=None)

    chain = sub.add_parser("chain", help="optimized chain-growth constants")
    chain.add_argument("--t", type=transmission, default=None, help=f"default {CHAIN_DEFAULT_T}")
    chain.add_argument("--t1", type=transmission, default=None)
    chain.add_argument("--t2", type=transmission, default=None)
    chain.add_argument(
        "--k-max",
        type=_int_in(4, CHAIN_K_MAX_LIMIT),
        default=None,
        help="sum the run-length series to this length (balanced links only); "
        "default: the exact sums",
    )
    chain.add_argument("--tau", type=positive, default=1.0)
    chain.add_argument("--theta", type=_angle, default=None)
    chain.add_argument("--csv", action="store_true", help="also write a key,value CSV")
    chain.add_argument("--output", default="chain.csv")
    chain.add_argument("--outdir", default=None)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo trajectory runs")
    simulate.add_argument("--trials", type=_int_in(1, SIMULATE_TRIALS_LIMIT), default=10000)
    simulate.add_argument("--seed", type=_int_in(0, 2**64 - 1), default=0)
    simulate.add_argument(
        "--strategy",
        choices=["two_iterates_only", "loop"],
        default="two_iterates_only",
    )
    simulate.add_argument("--max-iterates", type=_int_in(2, SIMULATE_CAP_LIMIT), default=None)
    group = simulate.add_mutually_exclusive_group()
    group.add_argument("--theta", type=_angle, default=None)
    group.add_argument("--sin-sq-theta", type=_float_in(0.0, 1.0, "[0, 1]"), default=None)
    simulate.add_argument("--config", default=None)
    simulate.add_argument("--t", type=float, default=None)
    # one flag per link field, named after it: ApparatusParams checks each
    # field once, from a flag or from a config key
    for name in CONFIG_FIELDS.values():
        simulate.add_argument("--" + name.replace("_", "-"), type=float, default=None)
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
    # the command's own parser, whose usage a handler's usage error prints
    try:
        return handler(parser._subparsers._group_actions[0].choices[args.command], args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ConfigFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # only _publish touches the file system: the config reader
        # raises ConfigFormatError for a file it cannot read
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
