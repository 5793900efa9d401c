"""Workload jobs and the checks every job output must pass.

A job is a fixed list of operations derived from the seed: CLI
invocations through ``paritydistill.cli.main(argv)`` in-process, and
library calls.  Each operation is timed on its own; its checks run
after it, outside the timed region.  An operation fails on a nonzero
exit code, a raised exception or a failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("mc_two_iterate", "exact_loop", "design_sweep")

# Input sizes keep every job near 1.5 s on the reference machine, so a
# 30 s run times ~20 jobs; exact_loop keeps its sampler a minor share.
MC_TRIALS = 40_000
LOOP_TRIALS = 2_000
LOOP_CAP = 12
SIMULATE_T = 1e-2
RATES_POINTS = 2_000
DRIFT_POINTS = 151
CHAIN_T = 1e-3
CHAIN_K_MAX = 256
REGION_SIDE = 15

Z_LIMIT = 5.0
LOOP_MASS_ATOL = 1e-10
FIDELITY_RISE_ATOL = 1e-12


@dataclass
class Outcome:
    """What one operation returned, for its checks."""

    rc: int
    stdout: str
    stderr: str
    value: object = None


@dataclass
class Operation:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]
    outputs: tuple[str, ...] = ()


@dataclass
class OpResult:
    name: str
    seconds: float
    failures: list[str]
    bytes_written: int


@contextlib.contextmanager
def _capture_trees(cli):
    """Keep the exact trees ``cli`` builds, for the loop-mass check.

    Costs one extra Python call per tree; the tree is built anyway.
    """
    original = cli.run_strategy_exact
    trees: list = []

    def capture(*args, **kwargs):
        tree = original(*args, **kwargs)
        trees.append(tree)
        return tree

    cli.run_strategy_exact = capture
    try:
        yield trees
    finally:
        cli.run_strategy_exact = original


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_csv(outdir: Path, name: str, expected_rows: int) -> list[str]:
    """Manifest hash matches the CSV, and the CSV holds the expected rows."""
    csv_path = outdir / name
    manifest_path = csv_path.with_suffix(".manifest.json")
    if not csv_path.is_file() or not manifest_path.is_file():
        return [f"{name}: CSV or manifest missing"]
    failures = []
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    recorded = {entry["file"]: entry["sha256"] for entry in manifest["outputs"]}
    if recorded.get(csv_path.name) != _sha256(csv_path):
        failures.append(f"{name}: manifest sha256 differs from the CSV's")
    with open(csv_path, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != expected_rows:
        failures.append(f"{name}: {rows} rows, expected {expected_rows}")
    return failures


def _field(stdout: str, name: str) -> str:
    match = re.search(rf"^{name} = (.*)$", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"no '{name} =' line in the output")
    return match.group(1)


def _within_z(stdout: str, name: str) -> list[str]:
    """``name = X (se S, exact E)`` with |X - E| <= Z_LIMIT * S."""
    match = re.fullmatch(r"(\S+) \(se (\S+), exact (\S+)\)", _field(stdout, name))
    if match is None:
        return [f"{name}: unparsable line"]
    value, se, exact = (float(g) for g in match.groups())
    if not (se > 0.0 and abs(value - exact) <= Z_LIMIT * se):
        return [f"{name}: {value!r} is not within {Z_LIMIT} se ({se!r}) of exact {exact!r}"]
    return []


class Runner:
    """Builds the operations of one workload and runs them as jobs."""

    def __init__(self, pd, workload: str, seed: int, outdir: Path) -> None:
        self.pd = pd
        self.outdir = outdir
        self.trees: list = []
        self.operations = getattr(self, "_" + workload)(seed)

    # -- operation kinds --------------------------------------------------

    def _cli(self, name: str, argv: list[str], check, outputs: tuple[str, ...]) -> Operation:
        argv = [*argv, "--outdir", str(self.outdir)]
        cli = self.pd.cli

        def run() -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return Outcome(rc, out.getvalue(), err.getvalue())

        def checked(outcome: Outcome) -> list[str]:
            if outcome.rc != 0:
                return [f"exit code {outcome.rc}: {outcome.stderr.strip()[-300:]}"]
            return check(outcome)

        return Operation(name, run, checked, outputs)

    def _simulate(self, name: str, argv: list[str], trials: int, extra=None) -> Operation:
        output = f"{name}.csv"

        def check(outcome: Outcome) -> list[str]:
            failures = _check_csv(self.outdir, output, trials)
            failures += _within_z(outcome.stdout, "success_rate")
            failures += _within_z(outcome.stdout, "bell_rate")
            if extra is not None:
                failures += extra(outcome)
            return failures

        outputs = (output, f"{name}.manifest.json")
        return self._cli(name, ["simulate", *argv, "--output", output], check, outputs)

    # -- workloads --------------------------------------------------------

    def _mc_two_iterate(self, seed: int) -> list[Operation]:
        argv = ["--t", repr(SIMULATE_T), "--trials", str(MC_TRIALS), "--seed", str(seed)]
        return [self._simulate("mc", argv, MC_TRIALS)]

    def _exact_loop(self, seed: int) -> list[Operation]:
        argv = [
            "--strategy", "loop", "--max-iterates", str(LOOP_CAP),
            "--t", repr(SIMULATE_T), "--trials", str(LOOP_TRIALS), "--seed", str(seed),
        ]
        return [self._simulate("loop", argv, LOOP_TRIALS, self._check_loop_mass)]

    def _check_loop_mass(self, outcome: Outcome) -> list[str]:
        """Tree success/failure mass equals the walk series truncated at the cap."""
        if len(self.trees) != 1:
            return ["loop tree was not captured"]
        tree = self.trees[0]
        manifest = json.loads((self.outdir / "loop.manifest.json").read_text(encoding="utf-8"))
        p = manifest["parameters"]
        params = self.pd.ApparatusParams(t1=p["t1"], t2=p["t2"], tau=p["tau"])
        eta = self.pd.eta_weight(params, p["theta"])
        ps, pf = self.pd.loop_interval_probabilities(eta, LOOP_CAP)
        failures = []
        for label, got, want in (
            ("success", tree.success_probability, float(ps.sum())),
            ("failure", tree.failure_probability, float(pf.sum())),
        ):
            if not abs(got - want) <= LOOP_MASS_ATOL:
                failures.append(f"loop tree {label} mass {got!r} differs from series {want!r}")
        return failures

    def _design_sweep(self, seed: int) -> list[Operation]:
        rng = random.Random(seed)
        t_min = 10.0 ** (-5.0 - rng.random())
        d_max = 0.1 * (1.0 + 0.5 * rng.random())
        region_t = np.geomspace(10.0 ** (-3.0 - 0.5 * rng.random()), 0.5, REGION_SIDE)
        region_dark = np.geomspace(10.0 ** (-8.0 + rng.random()), 1e-2, REGION_SIDE)
        return [
            self._cli(
                "rates",
                ["rates", "--t-min", repr(t_min), "--t-max", "1.0",
                 "--points", str(RATES_POINTS), "--output", "rates.csv"],
                lambda o: _check_csv(self.outdir, "rates.csv", RATES_POINTS),
                ("rates.csv", "rates.manifest.json"),
            ),
            self._cli(
                "drift",
                ["drift", "--d-max", repr(d_max), "--points", str(DRIFT_POINTS),
                 "--output", "drift.csv"],
                lambda o: _check_csv(self.outdir, "drift.csv", DRIFT_POINTS**2),
                ("drift.csv", "drift.manifest.json"),
            ),
            self._cli(
                "chain",
                ["chain", "--t", repr(CHAIN_T), "--k-max", str(CHAIN_K_MAX),
                 "--csv", "--output", "chain.csv"],
                self._check_chain,
                ("chain.csv", "chain.manifest.json"),
            ),
            self._region(region_t, region_dark),
        ]

    def _check_chain(self, outcome: Outcome) -> list[str]:
        failures = _check_csv(self.outdir, "chain.csv", 10)
        tail = float(_field(outcome.stdout, "tail_bound"))
        if not tail <= self.pd.constants.SERIES_TAIL_TOL or "warning" in outcome.stderr:
            failures.append(f"chain did not converge: tail bound {tail!r}")
        return failures

    def _region(self, transmissions: np.ndarray, dark: np.ndarray) -> Operation:
        analytics = self.pd.analytics
        no_go = analytics.RegionLabel.NO_GO

        def run() -> Outcome:
            points = analytics.dark_count_fidelity_region(transmissions, dark)
            return Outcome(0, "", "", points)

        def check(outcome: Outcome) -> list[str]:
            points = outcome.value
            if len(points) != len(transmissions) * len(dark):
                return [f"region grid has {len(points)} points"]
            failures = []
            for row in range(len(transmissions)):
                line = points[row * len(dark) : (row + 1) * len(dark)]
                fid = [-math.inf if math.isnan(pt.fidelity) else pt.fidelity for pt in line]
                if any(b > a + FIDELITY_RISE_ATOL for a, b in zip(fid, fid[1:])):
                    failures.append(f"fidelity rises with p_dark at t={float(line[0].transmission)!r}")
                labels = [pt.label is no_go for pt in line]
                if any(a and not b for a, b in zip(labels, labels[1:])):
                    failures.append(f"no-go region not upward closed at t={float(line[0].transmission)!r}")
            return failures

        return Operation("region", run, check)

    # -- running ----------------------------------------------------------

    def run_job(self) -> list[OpResult]:
        results = []
        for op in self.operations:
            with _capture_trees(self.pd.cli) as self.trees:
                start = time.perf_counter()
                try:
                    outcome = op.run()
                except Exception:
                    seconds = time.perf_counter() - start
                    failures = [traceback.format_exc(limit=3)]
                else:
                    seconds = time.perf_counter() - start
                    try:
                        failures = op.check(outcome)
                    except Exception:
                        failures = [f"check raised: {traceback.format_exc(limit=3)}"]
            written = sum(
                (self.outdir / f).stat().st_size for f in op.outputs if (self.outdir / f).is_file()
            )
            results.append(OpResult(op.name, seconds, failures, written))
        return results
