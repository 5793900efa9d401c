"""Command-line interface: outputs, manifests, exit codes, reproducibility."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import paritydistill
from paritydistill import (
    ApparatusParams,
    ExcitationAngle,
    Status,
    StrategyConfig,
    chain_growth_rate,
    drift_infidelity_physical,
    drift_infidelity_quadratic,
    DriftParams,
    heralded_state,
    plus_state,
    run_strategy_exact,
)
from paritydistill import __version__
from paritydistill.cli import OUTDIR_ENV_VAR, main
from paritydistill.protocol import CLIENT_LABELS


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(csv_path):
    with open(csv_path.with_suffix(".manifest.json")) as fh:
        return json.load(fh)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_rates_sweep(tmp_path, capsys):
    code = main(
        [
            "rates",
            "--t-min",
            "1e-4",
            "--t-max",
            "1.0",
            "--points",
            "40",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 'rates.csv'} (40 rows)" in out
    assert "rate crossover at mean transmission 0.151999" in out
    header, rows = read_csv(tmp_path / "rates.csv")
    assert header == ["t", "theta_opt", "rate_ours", "rate_reference", "ratio", "annotation"]
    assert len(rows) == 40
    assert float(rows[0][0]) == pytest.approx(1e-4, rel=1e-12)
    assert 1.0e3 <= float(rows[0][4]) <= 2.0e3
    flagged = [row for row in rows if row[5] == "crossover"]
    assert len(flagged) == 1
    # the annotation sits on the first grid point past the sign change
    assert float(flagged[0][0]) > 0.152 > float(flagged[0][0]) / (1.0 / 1e-4) ** (1 / 39)
    manifest = read_manifest(tmp_path / "rates.csv")
    assert manifest["command"] == "rates"
    assert manifest["version"] == __version__
    assert manifest["parameters"]["points"] == 40
    digest = hashlib.sha256((tmp_path / "rates.csv").read_bytes()).hexdigest()
    assert manifest["outputs"] == [{"file": "rates.csv", "sha256": digest}]


def test_rates_single_point_near_crossover(tmp_path, capsys):
    code = main(
        [
            "rates",
            "--t-min",
            "0.152",
            "--t-max",
            "0.152",
            "--points",
            "1",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "rates.csv")
    assert len(rows) == 1
    assert float(rows[0][4]) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--points", "0"],
        ["rates", "--t-min", "0.5", "--t-max", "0.1"],
        ["rates", "--t-min", "0.0", "--t-max", "0.5"],
        ["rates", "--t-min", "0.2", "--t-max", "0.9", "--points", "1"],
        ["rates", "--tau", "0"],
    ],
)
def test_rates_usage_errors(argv, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_drift_surface(tmp_path, capsys):
    code = main(["drift", "--points", "6", "--outdir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    header, rows = read_csv(tmp_path / "drift.csv")
    assert header == [
        "d_x",
        "d_t",
        "epsilon_exact",
        "epsilon_quadratic",
        "fidelity",
        "fidelity_raw",
    ]
    assert len(rows) == 36
    for row in rows:
        drift = DriftParams(d_x=float(row[0]), d_t=float(row[1]))
        assert float(row[2]) == drift_infidelity_physical(drift)
        assert float(row[3]) == drift_infidelity_quadratic(drift)
        # no clipping without the flag
        assert row[4] == row[5]
        assert float(row[5]) == 1.0 - float(row[2])


def test_drift_cutoff_clips_display_column(tmp_path, capsys):
    code = main(["drift", "--points", "6", "--cutoff", "--outdir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "drift.csv")
    clipped = 0
    for row in rows:
        raw = float(row[5])
        shown = float(row[4])
        assert shown == max(raw, 1.0 - 1e-3)
        clipped += shown != raw
    assert clipped > 0
    manifest = read_manifest(tmp_path / "drift.csv")
    assert manifest["parameters"]["cutoff"] is True


@pytest.mark.parametrize(
    "argv",
    [["drift", "--points", "1"], ["drift", "--d-max", "0"]],
)
def test_drift_usage_errors(argv, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    capsys.readouterr()


def parse_report(out: str) -> dict[str, float]:
    values = {}
    for line in out.splitlines():
        m = re.fullmatch(r"(\w+) = (\S+)", line)
        if m:
            try:
                values[m.group(1)] = float(m.group(2))
            except ValueError:
                pass
    return values


def test_chain_report_constants(capsys):
    assert main(["chain"]) == 0
    captured = capsys.readouterr()
    values = parse_report(captured.out)
    assert values["t"] == 1e-3
    assert values["growth_rate_tau_over_t"] == pytest.approx(0.0345250185, rel=1e-6)
    assert values["reciprocal_t_over_tau"] == pytest.approx(28.9645029, rel=1e-6)
    assert values["sin_sq_theta_opt"] == pytest.approx(0.13785099, rel=1e-4)
    assert values["p_loop"] == pytest.approx(0.49344605, rel=1e-6)
    assert values["mean_iterates"] == pytest.approx(3.83550985, rel=1e-6)
    # the k_max=64 truncation honestly reports its unconverged tail
    assert "raise --k-max" in captured.err


def test_chain_csv_round_trips_exact_values(tmp_path, capsys):
    code = main(
        [
            "chain",
            "--t",
            "0.5",
            "--theta",
            "0.6",
            "--k-max",
            "50",
            "--csv",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "chain.csv")
    values = {name: float(text) for name, text in rows}
    result = chain_growth_rate(ApparatusParams(t1=0.5, t2=0.5), 0.6, k_max=50)
    assert values["growth_rate"] == result.growth_rate
    assert values["p_loop"] == result.p_loop
    assert values["mean_iterates"] == result.mean_iterates
    assert values["tail_bound"] == result.tail_bound
    assert values["sin_sq_theta_opt"] == math.sin(0.6) ** 2
    assert read_manifest(tmp_path / "chain.csv")["parameters"]["k_max"] == 50


def test_chain_usage_and_degeneracy_exits(tmp_path, capsys):
    assert main(["chain", "--t", "0"]) == 2
    assert main(["chain", "--k-max", "3"]) == 2
    # theta = 0 gives a vanishing click probability: numerical degeneracy
    assert main(["chain", "--t", "0.5", "--theta", "0.0"]) == 3
    # theta = pi/2 drives eta to 1: the series has no support
    assert main(["chain", "--t", "0.5", "--theta", repr(math.pi / 2.0)]) == 3
    capsys.readouterr()


def test_simulate_is_reproducible(tmp_path, capsys):
    argv = [
        "simulate",
        "--trials",
        "800",
        "--seed",
        "7",
        "--t",
        "0.8",
        "--sin-sq-theta",
        "0.3",
    ]
    assert main(argv + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--outdir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "simulate.csv").read_bytes()
    second = (tmp_path / "b" / "simulate.csv").read_bytes()
    assert first == second
    assert (tmp_path / "a" / "simulate.manifest.json").read_bytes() == (
        tmp_path / "b" / "simulate.manifest.json"
    ).read_bytes()
    assert read_manifest(tmp_path / "a" / "simulate.csv")["seed"] == 7


def test_simulate_summary_against_exact_tree(tmp_path, capsys):
    n = 2000
    code = main(
        [
            "simulate",
            "--trials",
            str(n),
            "--seed",
            "13",
            "--t",
            "0.8",
            "--sin-sq-theta",
            "0.3",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"({n} rows)" in out
    echo = re.search(r"sin_sq_theta = (\S+)", out)
    assert echo and float(echo.group(1)) == pytest.approx(0.3, abs=1e-12)
    m = re.search(
        r"success_rate = ([0-9.e-]+) \(se ([0-9.e-]+), exact ([0-9.e-]+)\)", out
    )
    assert m, out
    observed, se, exact = map(float, m.groups())
    params = ApparatusParams(t1=0.8, t2=0.8)
    theta = ExcitationAngle.from_sin_sq(0.3)
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS),
        heralded_state(params, theta),
        StrategyConfig.two_iterates_only(rng_seed=13),
    )
    assert exact == pytest.approx(tree.success_probability, rel=1e-12)
    assert abs(observed - exact) < 4.0 * max(se, 1e-6)
    # two-iterate runs consume exactly two heralds each
    assert re.search(r"iterate_histogram = 2:%d$" % n, out, re.M)


def test_simulate_loop_successes_need_even_depth(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--trials",
            "500",
            "--seed",
            "3",
            "--strategy",
            "loop",
            "--max-iterates",
            "8",
            "--t",
            "0.5",
            "--sin-sq-theta",
            "0.5",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "simulate.csv")
    assert len(rows) == 500
    for row in rows:
        if row[4].startswith("success"):
            assert int(row[3]) % 2 == 0
        assert int(row[3]) >= 2


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "link.cfg"
    ApparatusParams(t1=0.8, t2=0.8, tau=2.0).to_config_file(cfg_path)
    code = main(
        [
            "simulate",
            "--trials",
            "50",
            "--config",
            str(cfg_path),
            "--t2",
            "0.4",
            "--sin-sq-theta",
            "0.3",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    manifest = read_manifest(tmp_path / "simulate.csv")
    assert manifest["parameters"]["t1"] == 0.8
    assert manifest["parameters"]["t2"] == 0.4
    assert manifest["parameters"]["tau"] == 2.0


def test_simulate_usage_errors(tmp_path, capsys):
    base = ["simulate", "--outdir", str(tmp_path)]
    assert main(base + ["--t", "0.5", "--p-dark", "0.01"]) == 2
    assert main(base + ["--t", "0.5", "--t1", "0.4"]) == 2
    assert main(base + ["--sin-sq-theta", "0.3"]) == 2  # no transmittance
    assert main(base + ["--t", "0.5", "--trials", "0"]) == 2
    assert main(base + ["--t", "0.5", "--max-iterates", "3"]) == 2
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("t1 = 0.5\nt2 = 0.5\nbogus = 1\n")
    assert main(base + ["--config", str(bad_cfg), "--trials", "10"]) == 2
    capsys.readouterr()


def test_outdir_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV_VAR, str(tmp_path / "nested"))
    assert main(["drift", "--points", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "nested" / "drift.csv").exists()
    assert (tmp_path / "nested" / "drift.manifest.json").exists()


def test_module_entry_point(monkeypatch):
    # the child interpreter must import the package under test, which
    # pytest may have found through its own path setting, not PYTHONPATH
    package_root = os.path.dirname(os.path.dirname(paritydistill.__file__))
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [package_root, inherited]))
    )
    proc = subprocess.run(
        [sys.executable, "-m", "paritydistill", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__
