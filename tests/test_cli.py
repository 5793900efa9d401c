"""Command-line interface: outputs, manifests, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paritydistill
from helpers import drift_csv_by_repr, rates_csv_by_repr
from paritydistill import (
    ApparatusParams,
    ExcitationAngle,
    STREAM_VERSION,
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
from paritydistill import __version__, _csvbytes, analytics, cli, protocol
from paritydistill.cli import OUTDIR_ENV_VAR, main
from paritydistill.protocol import CLIENT_LABELS


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(csv_path):
    with open(csv_path.with_suffix(".manifest.json")) as fh:
        return json.load(fh)


def assert_one_error_line(err: str) -> None:
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


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
        ["rates", "--tau", "inf"],
        ["rates", "--tau", "nan"],
    ],
)
def test_rates_usage_errors(argv, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--t-min", "2e-162", "--t-max", "2e-162", "--points", "1"],
        ["--t-min", "1e-12", "--tau", "1e300"],
    ],
)
def test_rates_underflowing_reference_exits_3(argv, tmp_path, capsys):
    # T^2 / (2 tau) rounds to zero, so the ratio column would divide by it
    assert main(["rates", *argv, "--outdir", str(tmp_path)]) == 3
    assert_one_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("cutoff", [False, True])
@pytest.mark.parametrize("d_max, points", [(0.1, 6), (1.5, 70)])
def test_drift_csv_is_byte_equal_to_the_repr_formatter(d_max, points, cutoff, tmp_path, capsys):
    # 70 points make 4,900 rows, past one batch of the byte writer
    argv = ["drift", "--d-max", repr(d_max), "--points", str(points), "--outdir", str(tmp_path)]
    assert main(argv + ["--cutoff"] * cutoff) == 0
    assert f"({points**2} rows)" in capsys.readouterr().out
    assert points != 70 or points**2 > _csvbytes.BATCH_ROWS
    assert (tmp_path / "drift.csv").read_bytes() == drift_csv_by_repr(d_max, points, cutoff)


def test_rates_csv_is_byte_equal_to_the_repr_formatter(tmp_path, capsys):
    # from T = 1e-12 at tau = 1e-17 the fields run from 5e-08 to 5e+16,
    # across both of repr's switches between fixed and scientific notation
    argv = ["rates", "--t-min", "1e-12", "--t-max", "1.0", "--points", "300", "--tau", "1e-17"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert "(300 rows)" in capsys.readouterr().out
    written = (tmp_path / "rates.csv").read_bytes()
    assert written == rates_csv_by_repr(1e-12, 1.0, 300, 1e-17)
    fields = [f for row in written.splitlines()[1:] for f in row.split(b",")[:5]]
    assert {b"1e-12", b"5e+16", b"9016994374947422.0"} <= set(fields)
    assert any(f.startswith(b"0.000") for f in fields) and any(b"e-05" in f for f in fields)


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--points", "5"],
        ["drift", "--points", "3"],
        ["chain", "--csv"],
        ["simulate", "--t", "0.1", "--trials", "50"],
        ["simulate", "--t", "0.1", "--trials", "50", "--strategy", "loop", "--max-iterates", "4"],
    ],
    ids=["rates", "drift", "chain", "simulate-two-iterate", "simulate-loop"],
)
def test_every_csv_goes_through_the_one_column_writer(argv, tmp_path, capsys, monkeypatch):
    paths = []

    def counting(path, *args, **kwargs):
        paths.append(path)
        _csvbytes.write_columns(path, *args, **kwargs)

    monkeypatch.setattr(cli, "write_columns", counting)
    monkeypatch.setattr(protocol, "write_columns", counting)
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert paths == [tmp_path / f"{argv[0]}.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["drift", "--points", "1"],
        ["drift", "--d-max", "0"],
        ["drift", "--d-max", "inf"],
        ["drift", "--d-max", "nan"],
    ],
)
def test_drift_usage_errors(argv, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_drift_degeneracy_exits(tmp_path, capsys):
    # a grid point on the d_t = 2 pole, and drifts whose quadratic law
    # overflows a double
    assert main(["drift", "--d-max", "4", "--points", "3", "--outdir", str(tmp_path)]) == 3
    assert main(["drift", "--d-max", "1e200", "--outdir", str(tmp_path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


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
    # the default sums the run-length series exactly: nothing to warn of
    assert main(["chain"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    values = parse_report(captured.out)
    assert values["t"] == 1e-3
    assert values["k_max"] == math.inf
    assert values["tail_bound"] == 0.0
    assert "closed_form_gap" not in values
    assert values["growth_rate_tau_over_t"] == pytest.approx(0.03452028860417055, rel=1e-9)
    assert values["reciprocal_t_over_tau"] == pytest.approx(28.968471598443866, rel=1e-9)
    assert values["sin_sq_theta_opt"] == pytest.approx(0.13791799579553402, rel=1e-6)
    assert values["p_loop"] == pytest.approx(0.49333234878754617, rel=1e-9)
    assert values["mean_iterates"] == pytest.approx(3.835174513144102, rel=1e-9)


def test_chain_series_reports_its_gap_to_the_closed_form(capsys):
    exact = chain_growth_rate(ApparatusParams(t1=1e-3, t2=1e-3), 0.38)
    for k_max, converged in (("64", False), ("256", True)):
        assert main(["chain", "--theta", "0.38", "--k-max", k_max]) == 0
        captured = capsys.readouterr()
        values = parse_report(captured.out)
        gap = abs(values["growth_rate"] - exact.growth_rate) / exact.growth_rate
        assert values["closed_form_gap"] == gap
        assert ("warning" in captured.err) is not converged


def test_chain_on_an_unbalanced_link(tmp_path, capsys):
    argv = ["chain", "--t1", "0.02", "--t2", "0.005", "--csv", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    values = parse_report(captured.out)
    params = ApparatusParams(t1=0.02, t2=0.005)
    result = chain_growth_rate(params, values["theta_opt"])
    assert values["t"] == params.mean_transmission
    assert values["growth_rate"] == result.growth_rate > 0.0
    _, rows = read_csv(tmp_path / "chain.csv")
    assert len(rows) == 10
    parameters = read_manifest(tmp_path / "chain.csv")["parameters"]
    assert (parameters["t"], parameters["t1"], parameters["t2"]) == (None, 0.02, 0.005)
    # the truncated series models a balanced link only
    assert main(argv[:5] + ["--k-max", "64"]) == 3
    assert_one_error_line(capsys.readouterr().err)


def test_chain_link_flag_usage(capsys):
    assert main(["chain", "--t", "0.1", "--t1", "0.1", "--t2", "0.1"]) == 2
    assert "--t conflicts with --t1/--t2" in capsys.readouterr().err
    assert main(["chain", "--t1", "0.1"]) == 2
    assert main(["chain", "--t1", "0.1", "--t2", "0"]) == 2
    assert main(["chain", "--t1", "nan", "--t2", "0.1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--strategy", "loop", "--trials", "10"],
        ["chain"],
    ],
    ids=["simulate", "chain"],
)
def test_loop_search_rejects_links_past_two_thirds_imbalance(argv, tmp_path, capsys):
    # |sin 2phi| = 0.998: the chain shrinks at every angle
    assert main(argv + ["--t1", "0.9", "--t2", "0.001", "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "|sin 2phi| >= 2/3" in err


UNDERFLOW = "t1 * t2 underflows to zero"
DARK = "objective is identically zero when a path is dark"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rates", "--t-min", "1e-320", "--t-max", "1e-320", "--points", "1"], UNDERFLOW),
        (["simulate", "--t", "1e-300", "--trials", "10"], UNDERFLOW),
        (["chain", "--t", "1e-300"], UNDERFLOW),
        (["simulate", "--t1", "0.5", "--t2", "0", "--trials", "10"], DARK),
    ],
    ids=["rates-tiny", "simulate-tiny", "chain-tiny", "simulate-dark"],
)
def test_dark_path_is_told_apart_from_an_underflowing_product(argv, message, tmp_path, capsys):
    # both leave the rate objectives zero at every angle in doubles, but
    # only a zero transmission is a dark path
    assert main(argv + ["--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert message in err


def test_simulate_loop_on_an_unbalanced_link(tmp_path, capsys):
    argv = ["simulate", "--strategy", "loop", "--t1", "0.02", "--t2", "0.005"]
    assert main(argv + ["--trials", "400", "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    theta = read_manifest(tmp_path / "simulate.csv")["parameters"]["theta"]
    best = paritydistill.optimize_theta(
        ApparatusParams(t1=0.02, t2=0.005), paritydistill.Objective.CHAIN_RATE
    )
    assert theta == best.optimal_theta


@pytest.mark.parametrize("tau", ["5e-324", "1.3e-320"])
@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--points", "3"],
        ["simulate", "--t", "0.1", "--trials", "10"],
        ["simulate", "--t", "0.1", "--trials", "10", "--theta", "0.5"],
        ["chain"],
        ["chain", "--theta", "0.38", "--k-max", "64"],
    ],
    ids=["rates", "simulate", "simulate-theta", "chain", "chain-series"],
)
def test_overflowing_rates_exit_3(argv, tau, tmp_path, capsys):
    assert main(argv + ["--tau", tau, "--outdir", str(tmp_path)]) == 3
    assert_one_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def _run_at_tau(argv, tau, tmp_path, capsys) -> str:
    out = tmp_path / tau
    assert main(argv + ["--tau", tau, "--outdir", str(out)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("tau", ["1e306", "1e308", "1.7976931348623157e308"])
def test_huge_tau_gives_each_rate_per_window_over_tau(tau, tmp_path, capsys):
    # each rate is computed per window and divided by tau last, where a
    # product with tau once overflowed: rates read 0 or the command exited 3
    big = float(tau)
    rates = {}
    for t in ("1", tau):
        _run_at_tau(["rates", "--points", "3"], t, tmp_path, capsys)
        rates[t] = [list(map(float, row[:4])) for row in read_csv(tmp_path / t / "rates.csv")[1]]
    for (t, theta, ours, ref), row in zip(rates["1"], rates[tau]):
        assert row == [t, theta, ours / big, ref / big] and min(row) > 0.0

    one, huge = (parse_report(_run_at_tau(["chain"], t, tmp_path, capsys)) for t in ("1", tau))
    assert huge["theta_opt"] == one["theta_opt"]  # the angle search runs per window
    assert huge["growth_rate"] == one["growth_rate"] / big > 0.0

    pattern = r"bell_rate = (\S+) \(se (\S+), exact (\S+)\)"
    argv = ["simulate", "--t", "0.01", "--trials", "2000"]
    one, huge = (_run_at_tau(argv, t, tmp_path, capsys) for t in ("1", tau))
    rate, se, exact = map(float, re.search(pattern, one).groups())
    rate_big, se_big, exact_big = map(float, re.search(pattern, huge).groups())
    assert rate_big == rate / big and exact_big == exact / big
    assert abs(rate_big - exact_big) < 5.0 * se_big
    assert parse_report(huge)["simulated_time"] == parse_report(one)["total_attempts"] * big


@pytest.mark.parametrize("tau", ["1e308", "1.7976931348623157e308"])
def test_huge_tau_leaves_the_per_window_ratios_exact(tau, tmp_path, capsys):
    # growth tau / t, its reciprocal and the rate ratio come from the
    # per-window rates, not from rates that are subnormal at this tau
    one, huge = (parse_report(_run_at_tau(["chain"], t, tmp_path, capsys)) for t in ("1", tau))
    for name in ("growth_rate_tau_over_t", "reciprocal_t_over_tau"):
        assert huge[name] == one[name]
    argv = ["chain", "--k-max", "256"]
    one, huge = (parse_report(_run_at_tau(argv, t, tmp_path, capsys)) for t in ("1", tau))
    assert huge["closed_form_gap"] == one["closed_form_gap"] > 0.0
    ratios = {}
    for t in ("1", tau):
        _run_at_tau(["rates", "--points", "3"], t, tmp_path, capsys)
        ratios[t] = [row[4] for row in read_csv(tmp_path / t / "rates.csv")[1]]
    assert ratios[tau] == ratios["1"]


def test_chain_k_max_searches_the_series_to_the_pinned_angle(capsys, monkeypatch):
    # the benchmark's chain: the angle search sums the truncated series
    # (at k_max + 2, for the tail bound) and keeps the angle pinned here
    calls = []
    series = analytics.loop_interval_probabilities

    def counting(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(analytics, "loop_interval_probabilities", counting)
    assert main(["chain", "--t", "1e-3", "--k-max", "256"]) == 0
    assert parse_report(capsys.readouterr().out)["theta_opt"] == 0.38048747064055727
    assert calls and {k_max for _, k_max in calls} == {258}


def test_cached_parser_answers_as_a_fresh_process(tmp_path, capsys, monkeypatch):
    # main parses every call with one parser per process; two subcommands
    # and two usage errors in one process give the bytes and exit codes of
    # four separate processes
    runs = [
        ["chain", "--t", "0.01"],
        ["rates", "--points", "3", "--outdir", str(tmp_path / "rates")],
        ["drift", "--points", "2", "--d-max", "-1"],
        ["simulate", "--trials", "0", "--t", "0.1"],
    ]
    in_process = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 2]
    assert cli.build_parser() is cli.build_parser()
    package_root = os.path.dirname(os.path.dirname(paritydistill.__file__))
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [package_root, inherited])))
    for argv, expected in zip(runs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "paritydistill", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


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
    out = capsys.readouterr().out
    _, rows = read_csv(tmp_path / "chain.csv")
    values = {name: float(text) for name, text in rows}
    result = chain_growth_rate(ApparatusParams(t1=0.5, t2=0.5), 0.6, k_max=50)
    assert values["growth_rate"] == result.growth_rate
    assert values["p_loop"] == result.p_loop
    assert values["mean_iterates"] == result.mean_iterates
    assert values["tail_bound"] == result.tail_bound
    assert values["sin_sq_theta_opt"] == math.sin(0.6) ** 2
    assert read_manifest(tmp_path / "chain.csv")["parameters"]["k_max"] == 50
    # each row is the reported line's name and its value's float repr
    reported = re.findall(r"^(\w+) = (\S+)$", out, flags=re.M)
    lines = [f"{name},{float(text)!r}\n" for name, text in reported if name != "closed_form_gap"]
    assert len(lines) == 10
    assert (tmp_path / "chain.csv").read_text() == "quantity,value\n" + "".join(lines)


def test_chain_usage_and_degeneracy_exits(tmp_path, capsys):
    assert main(["chain", "--t", "0"]) == 2
    assert main(["chain", "--k-max", "3"]) == 2
    # theta = 0 gives a vanishing click probability: numerical degeneracy
    assert main(["chain", "--t", "0.5", "--theta", "0.0"]) == 3
    # theta = pi/2 drives eta to 1: the series has no support
    assert main(["chain", "--t", "0.5", "--theta", repr(math.pi / 2.0)]) == 3
    assert main(["chain", "--tau", "inf"]) == 2
    assert main(["chain", "--tau", "nan"]) == 2
    # angles outside [0, pi/2] are usage errors, not degeneracies
    for theta in ("2.0", "nan", "-0.1"):
        assert main(["chain", "--t", "0.5", "--theta", theta]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chain", "--t", "0.5", "--k-max", "4097"], "--k-max must be at most 4096"),
        (
            ["simulate", "--t", "0.5", "--strategy", "loop", "--max-iterates", "257"],
            "--max-iterates must be at most 256",
        ),
        (["rates", "--points", "1000001"], "--points must be at most 1000000"),
        (["drift", "--points", "1001"], "--points must be at most 1000"),
        (
            ["simulate", "--t", "0.5", "--trials", "10000001"],
            "--trials must be at most 10000000",
        ),
        (["rates", "--points", "1000000000000"], "--points must be at most 1000000"),
        (["drift", "--points", "10000000"], "--points must be at most 1000"),
        (
            ["simulate", "--t", "0.5", "--trials", "1000000000000"],
            "--trials must be at most 10000000",
        ),
    ],
)
def test_costly_sizes_are_usage_errors(argv, message, tmp_path, capsys):
    # one past each bound, and sizes far past it that would not allocate:
    # each is rejected before any work
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"paritydistill: error: {message}"
    ]
    assert not any(tmp_path.iterdir())


def test_largest_sizes_are_accepted(tmp_path, capsys):
    assert main(["chain", "--t", "0.5", "--k-max", "4096", "--theta", "0.6"]) == 0
    argv = ["simulate", "--t", "0.5", "--strategy", "loop", "--max-iterates", "256"]
    argv += ["--sin-sq-theta", "0.3", "--trials", "100", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    assert "max_iterates = 256" in capsys.readouterr().out


def test_size_bounds_pass_the_usage_checks(tmp_path, capsys, monkeypatch):
    # a run at each bound takes seconds and hundreds of MiB, so each stops
    # at its first costly step: exit 3, not the usage error's 2
    def stop(*args, **kwargs):
        raise paritydistill.DegenerateParameterError("past the usage checks")

    for name in ("optimize_bell_rate", "drift_infidelity_surface", "run_trajectories"):
        monkeypatch.setattr(cli, name, stop)
    for argv in (
        ["rates", "--points", str(cli.RATES_POINTS_LIMIT)],
        ["drift", "--points", str(cli.DRIFT_POINTS_LIMIT)],
        ["simulate", "--t", "0.5", "--trials", str(cli.SIMULATE_TRIALS_LIMIT)],
    ):
        assert main(argv + ["--outdir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: past the usage checks\n"
    assert not any(tmp_path.iterdir())


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
    manifest = read_manifest(tmp_path / "a" / "simulate.csv")
    assert manifest["seed"] == 7
    assert manifest["parameters"]["rng_stream"] == STREAM_VERSION


# sha256 of the simulate CSV at the benchmark's two simulate jobs, both
# at T = 1e-2 and seed 101, recorded before the sampler grouped trials by
# outcome history: any change to a sampled bit or to the CSV bytes of
# stream version 2 shows here
STREAM_2_CSV_SHA256 = {
    "two_iterates": "5d8d11308ab77840b511bc652265eae6a2275202868aa5e89a1d36c79d95e6f0",
    "loop_cap12": "bbc608da54764b5f583d7ae497e34bbfec718b244314a4103dad2a858e1f51fb",
}


@pytest.mark.parametrize(
    "case, argv",
    [
        ("two_iterates", ["--trials", "40000"]),
        ("loop_cap12", ["--strategy", "loop", "--max-iterates", "12", "--trials", "2000"]),
    ],
)
def test_simulate_csv_digest_of_stream_version_2(case, argv, tmp_path, capsys):
    assert STREAM_VERSION == 2
    code = main(["simulate", *argv, "--t", "0.01", "--seed", "101", "--outdir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "simulate.csv").read_bytes()).hexdigest()
    assert digest == STREAM_2_CSV_SHA256[case]


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
    fidelity = re.search(r"^mean_success_fidelity = (\S+) \(exact (\S+)\)$", out, re.M)
    assert fidelity, out
    sampled, exact_fidelity = map(float, fidelity.groups())
    assert exact_fidelity == tree.mean_success_fidelity()
    # on a balanced link every success delivers a perfect pair
    assert sampled == pytest.approx(1.0, abs=1e-12)
    assert exact_fidelity == pytest.approx(1.0, abs=1e-12)
    # two-iterate runs consume exactly two heralds each
    assert re.search(r"iterate_histogram = 2:%d$" % n, out, re.M)


def test_simulate_builds_no_leaves(tmp_path, capsys, monkeypatch):
    # simulate reads the exact tree's masses, never its leaves
    class NoLeaf:
        def __init__(self, *args, **kwargs):
            raise AssertionError("simulate built a Leaf")

    monkeypatch.setattr(protocol, "Leaf", NoLeaf)
    argv = ["simulate", "--strategy", "loop", "--max-iterates", "32", "--t", "0.01"]
    assert main([*argv, "--trials", "200", "--outdir", str(tmp_path)]) == 0
    assert "exact" in capsys.readouterr().out
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS),
        heralded_state(ApparatusParams(t1=0.01, t2=0.01), ExcitationAngle.from_sin_sq(0.1)),
        StrategyConfig.loop(32),
    )
    with pytest.raises(AssertionError, match="built a Leaf"):
        tree.leaves


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
    cfg_path.write_text("t1 = 0.8\nt2 = 0.8\nx1 = 0.3\nx2 = 0.1\nlambda = 1.55\ntau = 2.0\n")
    code = main(
        [
            "simulate",
            "--trials",
            "50",
            "--config",
            str(cfg_path),
            "--t2",
            "0.4",
            "--x2",
            "0.2",
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
    assert manifest["parameters"]["x1"] == 0.3
    assert manifest["parameters"]["x2"] == 0.2
    assert manifest["parameters"]["wavelength"] == 1.55
    assert manifest["parameters"]["tau"] == 2.0


def test_simulate_takes_one_flag_per_link_field_and_echoes_all_but_p_dark(tmp_path, capsys):
    # the flags, the config keys and the manifest's link fields are one list
    link_fields = [field.name for field in dataclasses.fields(ApparatusParams)]
    assert sorted(cli.CONFIG_FIELDS.values()) == sorted(link_fields)
    simulate = cli.build_parser()._subparsers._group_actions[0].choices["simulate"]
    flags = {a.dest: a.option_strings for a in simulate._actions if a.dest in link_fields}
    assert list(flags) == list(cli.CONFIG_FIELDS.values())
    assert all(flags[name] == ["--" + name.replace("_", "-")] for name in flags)

    cfg_path = tmp_path / "every-key.cfg"
    cfg_path.write_text(
        "t1 = 0.03\nt2 = 0.01\nx1 = 0.25\nx2 = 0.05\nlambda = 1.55\np_dark = 0\ntau = 2e-6\n"
    )
    argv = ["simulate", "--trials", "50", "--config", str(cfg_path), "--x2", "0.1"]
    assert main(argv + ["--sin-sq-theta", "0.3", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    params = dataclasses.replace(ApparatusParams.from_config_file(cfg_path), x2=0.1)
    echoed = read_manifest(tmp_path / "simulate.csv")["parameters"]
    assert "p_dark" not in echoed
    for name in cli.CONFIG_FIELDS.values():
        if name != "p_dark":
            assert echoed[name] == getattr(params, name), name


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
    assert main(base + ["--t", "0.1", "--tau", "inf"]) == 2
    infinite_cfg = tmp_path / "infinite.cfg"
    infinite_cfg.write_text("t1 = 0.5\nt2 = 0.5\ntau = inf\n")
    assert main(base + ["--config", str(infinite_cfg), "--trials", "10"]) == 2
    for angle in (["--theta", "2.0"], ["--sin-sq-theta", "1.5"], ["--sin-sq-theta", "nan"]):
        assert main(base + ["--t", "0.5", "--trials", "10", *angle]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # a config that cannot be read: missing, a directory, not UTF-8
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"t1 = 0.5\nt2 = 0.5\n# caf\xe9\n")
    for unreadable in (tmp_path / "missing.cfg", tmp_path, undecodable):
        assert main(base + ["--config", str(unreadable), "--trials", "10"]) == 2
        assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        # theta = pi/2 drives eta to 1: every pair is |11>, nothing classifies
        ["--theta", repr(math.pi / 2.0)],
        ["--sin-sq-theta", "1"],
        ["--theta", repr(math.pi / 2.0), "--strategy", "loop"],
        ["--sin-sq-theta", "1", "--strategy", "loop"],
        # valid fields whose detuning phase overflows
        ["--sin-sq-theta", "0.3", "--x1", "1", "--wavelength", "1e-320"],
        ["--sin-sq-theta", "0.3", "--x1", "1e308", "--x2=-1e308"],
        # (t1 + t2)^2 underflows to zero
        ["--sin-sq-theta", "0.3", "--t", "1e-300"],
    ],
)
def test_simulate_degenerate_links_exit_3(argv, tmp_path, capsys):
    base = ["simulate", "--t", "0.1", "--trials", "10", "--outdir", str(tmp_path)]
    assert main(base + argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line] == [
        line for line in err.splitlines() if line.startswith("error: ")
    ]
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--points", "3"],
        ["drift", "--points", "2"],
        ["chain", "--t", "1e-3", "--theta", "0.38", "--k-max", "128", "--csv"],
        ["simulate", "--t", "0.5", "--sin-sq-theta", "0.3", "--trials", "10"],
    ],
    ids=["rates", "drift", "chain", "simulate"],
)
@pytest.mark.parametrize("target", ["missing_subdir", "output_is_dir", "outdir_is_file"])
def test_unwritable_output_exits_2(argv, target, tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    (tmp_path / "blocker").write_text("")
    flags = {
        "missing_subdir": ["--outdir", str(tmp_path), "--output", "sub/x.csv"],
        "output_is_dir": ["--outdir", str(tmp_path), "--output", "taken"],
        "outdir_is_file": ["--outdir", str(tmp_path / "blocker")],
    }[target]
    assert main(argv + flags) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker", "taken"]


def test_chain_underflowing_transmission_exits_3(capsys):
    assert main(["chain", "--t", "1e-300", "--theta", "0.18"]) == 3
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv, parameters",
    [
        (
            ["rates", "--t-min", "0.01", "--points", "3", "--tau", "2"],
            {"t_min": 0.01, "t_max": 1.0, "points": 3, "tau": 2.0, "output": "rates.csv"},
        ),
        (
            ["drift", "--points", "2", "--output", "d.csv"],
            {"d_max": 0.1, "points": 2, "cutoff": False, "output": "d.csv"},
        ),
        (
            ["chain", "--theta", "0.38", "--k-max", "128", "--csv"],
            {
                "t": 1e-3,
                "t1": None,
                "t2": None,
                "k_max": 128,
                "tau": 1.0,
                "theta": 0.38,
                "output": "chain.csv",
            },
        ),
    ],
    ids=["rates", "drift", "chain"],
)
def test_manifest_parameters_echo_the_flags(argv, parameters, tmp_path, capsys):
    # the subcommand is recorded once, at the top level; --outdir and
    # chain's --csv switch do not change the numbers, so they are left out
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = read_manifest(tmp_path / parameters["output"])
    assert manifest["command"] == argv[0]
    assert manifest["seed"] is None
    # repr tells 2 from 2.0, which == does not
    assert {k: repr(v) for k, v in manifest["parameters"].items()} == {
        k: repr(v) for k, v in parameters.items()
    }


_SPECIAL = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "5e-324", "1", "2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def _mostly(valid, special=_SPECIAL):
    """A flag value: three times in four from ``valid``, else from ``special``.

    Hypothesis shrinks toward 0, so 0 picks ``valid``.
    """
    return st.integers(0, 3).flatmap(lambda i: special if i == 3 else valid)


def _in(low: float, high: float):
    return _mostly(st.floats(low, high).map(repr))


def _count(low: int, high: int, bad: list[str]):
    return _mostly(st.integers(low, high).map(str), st.sampled_from(bad))


_TAU = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "-1", "0", "5e-324", "1.3e-320"]
        + ["1e306", "1e308", "1.7976931348623157e308"]
    ),
    st.floats(1e-300, 1e300).map(repr),
    st.floats(0.1, 10.0).map(repr),
)
# path values name fixtures under the test's root, resolved per example:
# "taken" is a directory, "blocker" a file, "latin1.cfg" not UTF-8
_OUTPUT = {
    "--outdir": _mostly(st.just("@fresh"), st.sampled_from(["@nested/deeper", "@blocker"])),
    "--output": _mostly(st.just("x.csv"), st.sampled_from(["sub/x.csv", "../taken", "y"])),
}
_FUZZ_FLAGS = {
    "rates": {
        "--t-min": _in(1e-6, 1.0),
        "--t-max": _in(1e-6, 1.0),
        "--points": _count(2, 20, ["-1", "0", "1", "1000001"]),
        "--tau": _TAU,
    },
    "drift": {
        "--d-max": _in(0.0, 4.0),
        "--points": _count(2, 20, ["-1", "0", "1", "1001"]),
        "--cutoff": None,
    },
    "chain": {
        "--t": _in(0.0, 1.0),
        "--t1": _in(0.0, 1.0),
        "--t2": _in(0.0, 1.0),
        "--k-max": _count(4, 128, ["0", "3", "4097"]),
        "--tau": _TAU,
        "--theta": _in(0.0, math.pi / 2.0),
        "--csv": None,
    },
    "simulate": {
        "--trials": _count(1, 50, ["-1", "0", "10000001"]),
        "--seed": st.sampled_from(["-1", "0", "7", str(2**64), str(2**70)]),
        "--strategy": st.sampled_from(["two_iterates_only", "loop"]),
        "--max-iterates": _count(2, 16, ["-1", "0", "1", "257"]),
        "--theta": _in(0.0, math.pi / 2.0),
        "--sin-sq-theta": _in(0.0, 1.0),
        "--x1": _in(-10.0, 10.0),
        "--x2": _in(-10.0, 10.0),
        "--wavelength": _in(0.1, 10.0),
        "--p-dark": st.sampled_from(["0", "1e-3"]),
        "--tau": _TAU,
    },
}
# flags most runs set, so that most runs get past argument checking
_USUAL = {"--points", "--t", "--trials"}
# simulate's link: one transmission, a pair, a config file or none
_LINK = st.one_of(
    _in(0.0, 1.0).map(lambda t: [f"--t={t}"]),
    st.tuples(_in(0.0, 1.0), _in(0.0, 1.0)).map(lambda t: [f"--t1={t[0]}", f"--t2={t[1]}"]),
    _mostly(
        st.just("@link.cfg"),
        st.sampled_from(["@bad.cfg", "@latin1.cfg", "@missing.cfg", "@taken"]),
    ).map(lambda path: [f"--config={path}"]),
    st.just([]),
)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag, values in {**_FUZZ_FLAGS[command], **_OUTPUT}.items():
        if flag == "--outdir" or draw(st.integers(0, 3)) >= (1 if flag in _USUAL else 3):
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    if command == "simulate":
        argv += draw(_LINK)
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_cli_argv())
def test_cli_flags_fuzz_exit_cleanly(tmp_path_factory, argv):
    root = tmp_path_factory.getbasetemp() / "cli_fuzz"
    if not root.exists():
        (root / "taken").mkdir(parents=True)
        (root / "blocker").write_text("")
        (root / "link.cfg").write_text("t1 = 0.1\nt2 = 0.05\n")
        (root / "bad.cfg").write_text("t1 = 0.1\nt2 = 0.1\nbogus = 1\n")
        (root / "latin1.cfg").write_bytes(b"t1 = 0.1\nt2 = 0.1\n# caf\xe9\n")
    # --outdir is always given, so no example writes to the working directory
    argv = [arg.replace("=@", f"={root}/") for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


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


def test_star_import_binds_every_exported_name():
    names = paritydistill.__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec("from paritydistill import *", namespace)
    for name in names:
        assert namespace[name] is getattr(paritydistill, name), name
    assert set(namespace) - {"__builtins__"} == set(names)
