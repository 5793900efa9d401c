"""Closed-form rates, walk combinatorics, drift and dark-count analytics."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import bell_odd, count_class_tree, drift_infidelity_exact, region_by_tree
from paritydistill import (
    ApparatusParams,
    DegenerateParameterError,
    DriftParams,
    ExcitationAngle,
    HeraldedPair,
    NonConvergenceError,
    Objective,
    RegionLabel,
    RegionPoint,
    SequenceCountVector,
    SimulationError,
    Status,
    StrategyConfig,
    chain_growth_rate,
    crossover_transmission,
    dark_count_fidelity_region,
    drift_infidelity_physical,
    drift_infidelity_quadratic,
    drift_infidelity_surface,
    eta_weight,
    fidelity,
    golden_section_max,
    heralded_state,
    loop_interval_probabilities,
    optimize_bell_rate,
    optimize_theta,
    p_click,
    plus_state,
    rate_bell,
    run_strategy_exact,
    sequence_counts,
    two_photon_reference_rate,
)
from paritydistill import analytics
from paritydistill.analytics import _bell_rate_objective
from paritydistill.protocol import CLIENT_LABELS


# ---------------------------------------------------------------------------
# Bell-pair rates


def test_rate_bell_equals_success_times_click_rate():
    # dual route: closed form against the exact tree, half a success per
    # two consumed heralds
    rng = np.random.default_rng(41)
    cfg = StrategyConfig.two_iterates_only()
    clients = plus_state(CLIENT_LABELS)
    for _ in range(10):
        params = ApparatusParams(
            t1=rng.uniform(0.05, 1.0), t2=rng.uniform(0.05, 1.0), x1=rng.uniform(0, 1)
        )
        theta = ExcitationAngle.from_sin_sq(rng.uniform(0.05, 0.95))
        tree = run_strategy_exact(clients, heralded_state(params, theta), cfg)
        expect = 0.5 * tree.success_probability * p_click(params, theta) / params.tau
        assert rate_bell(params, theta) == pytest.approx(expect, rel=1e-12)


def test_rate_bell_vanishes_at_the_edges():
    params = ApparatusParams(t1=0.5, t2=0.5)
    assert rate_bell(params, ExcitationAngle(0.0)) == 0.0
    assert rate_bell(params, ExcitationAngle(math.pi / 2.0)) == 0.0
    dark_arm = ApparatusParams(t1=0.5, t2=0.0)
    assert rate_bell(dark_arm, ExcitationAngle.from_sin_sq(0.3)) == 0.0


def test_rate_bell_weak_link_expansion():
    # leading order in T at s = 1/3: (2/27) T / tau
    params = ApparatusParams(t1=1e-8, t2=1e-8)
    rate = rate_bell(params, ExcitationAngle.from_sin_sq(1.0 / 3.0))
    assert rate == pytest.approx((2.0 / 27.0) * 1e-8, rel=1e-6)


def test_rate_bell_tau_scaling():
    theta = ExcitationAngle.from_sin_sq(0.3)
    fast = rate_bell(ApparatusParams(t1=0.4, t2=0.2, tau=1.0), theta)
    slow = rate_bell(ApparatusParams(t1=0.4, t2=0.2, tau=4.0), theta)
    assert fast == pytest.approx(4.0 * slow, rel=1e-14)


def test_reference_rate():
    assert two_photon_reference_rate(1.0) == 0.5
    assert two_photon_reference_rate(1.0, tau=2.0) == 0.25
    with pytest.raises(DegenerateParameterError):
        two_photon_reference_rate(1.5)
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(DegenerateParameterError):
            two_photon_reference_rate(0.5, tau=tau)


def test_crossover_against_polynomial_root():
    # at s = 1/3 on a balanced link the rate tie reduces to
    # 9 T^2 - 54 T + 8 = 0; the physical root is 3 - sqrt(73)/3
    root = 3.0 - math.sqrt(73.0) / 3.0
    cross = crossover_transmission()
    assert cross == pytest.approx(root, abs=1e-9)
    theta = ExcitationAngle.from_sin_sq(1.0 / 3.0)
    below = ApparatusParams(t1=cross * 0.9, t2=cross * 0.9)
    above = ApparatusParams(t1=cross * 1.1, t2=cross * 1.1)
    assert rate_bell(below, theta) > two_photon_reference_rate(below.mean_transmission)
    assert rate_bell(above, theta) < two_photon_reference_rate(above.mean_transmission)


def test_rate_advantage_at_deep_loss():
    params = ApparatusParams(t1=1e-4, t2=1e-4)
    best = optimize_theta(params, Objective.BELL_RATE)
    ratio = rate_bell(params, best.optimal_theta) / two_photon_reference_rate(
        params.mean_transmission, params.tau
    )
    assert ratio == pytest.approx(1481.5061733882173, rel=1e-9)
    assert 1.0e3 <= ratio <= 2.0e3


# ---------------------------------------------------------------------------
# Excitation-angle optimization


def test_golden_section_finds_known_maximum():
    x = golden_section_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, 1.0, 0.0)


def test_optimal_drive_in_deep_loss_is_one_third():
    params = ApparatusParams(t1=1e-5, t2=1e-5)
    result = optimize_theta(params, Objective.BELL_RATE)
    assert result.sin_sq_theta == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert result.objective is Objective.BELL_RATE
    assert 0.0 < result.optimal_theta < math.pi / 2.0


def test_optimal_drive_lossless_closed_form():
    # at T = 1 the optimum of s (1-s)^2 / (2 - s) sits at (3 - sqrt 5)/2
    params = ApparatusParams(t1=1.0, t2=1.0)
    result = optimize_theta(params, Objective.BELL_RATE)
    assert result.sin_sq_theta == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-6)


def test_optimize_returns_a_local_maximum():
    params = ApparatusParams(t1=0.3, t2=0.1, x1=0.2)
    result = optimize_theta(params, Objective.BELL_RATE)
    assert result.rate == pytest.approx(rate_bell(params, result.optimal_theta), rel=1e-12)
    for nudge in (-1e-4, 1e-4):
        assert rate_bell(params, result.optimal_theta + nudge) <= result.rate + 1e-15
    grid = np.linspace(1e-4, math.pi / 2.0 - 1e-4, 400)
    assert result.rate >= max(rate_bell(params, th) for th in grid) - 1e-12


def test_optimize_rejects_dark_arm():
    with pytest.raises(DegenerateParameterError):
        optimize_theta(ApparatusParams(t1=0.5, t2=0.0), Objective.BELL_RATE)


def test_optimize_chain_objective():
    params = ApparatusParams(t1=1e-3, t2=1e-3)
    result = optimize_theta(params, Objective.CHAIN_RATE, k_max=64)
    assert result.objective is Objective.CHAIN_RATE
    assert result.rate == pytest.approx(
        chain_growth_rate(params, result.optimal_theta, k_max=64).growth_rate, rel=1e-12
    )
    assert result.sin_sq_theta == pytest.approx(0.1378509890853362, abs=1e-6)


INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def scalar_golden_section(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """The one-bracket golden section, one Python-float step at a time.

    Reference for the lockstep ``golden_section_max``: same points, same
    comparisons, same stopping rule.
    """
    width = hi - lo
    c = lo + INV_PHI_SQ * width
    d = lo + INV_PHI * width
    fc, fd = f(c), f(d)
    for _ in range(300):
        if width <= tol:
            return 0.5 * (lo + hi)
        if fc >= fd:
            hi, d, fd = d, c, fc
            width = hi - lo
            c = lo + INV_PHI_SQ * width
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            width = hi - lo
            d = lo + INV_PHI * width
            fd = f(d)
    raise NonConvergenceError("reference golden section did not converge")


def benchmark_rates_grid(seed: int = 101, points: int = 2000) -> np.ndarray:
    """The ``rates`` sweep of the design-sweep benchmark at one seed."""
    t_min = 10.0 ** (-5.0 - random.Random(seed).random())
    return np.geomspace(t_min, 1.0, points)


def test_lockstep_golden_section_matches_scalar_reference_per_bracket():
    # brackets of different widths stop at different steps; one starts
    # already below the tolerance
    lo = np.array([0.0, 0.2, 0.29, -3.0, 0.3])
    hi = np.array([1.0, 0.5, 0.29 + 5e-9, 2.0, 0.300001])

    def f(x):
        return -((x - 0.3) ** 2) + 0.1 * np.sin(x)

    got = golden_section_max(f, lo, hi)
    for k in range(len(lo)):
        assert got[k] == scalar_golden_section(f, float(lo[k]), float(hi[k]))
    # scalar brackets come back as a float
    assert isinstance(golden_section_max(f, 0.0, 1.0), float)
    with pytest.raises(ValueError):
        golden_section_max(f, np.array([0.0, 1.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "grid",
    [benchmark_rates_grid(), np.array([1.0]), np.array([1e-5])],
    ids=["benchmark_grid", "t=1", "t=1e-5"],
)
def test_array_bell_rate_optimizer_matches_scalar_search(grid):
    # the lockstep search over a grid returns, bit for bit, the angle the
    # one-bracket reference finds on the same objective point by point
    theta, rate = optimize_bell_rate(grid, grid)
    for k, t in enumerate(grid.tolist()):
        _, objective = _bell_rate_objective(t, t, 1.0)
        expected = scalar_golden_section(objective, 0.0, math.pi / 2.0)
        assert theta[k] == expected, (t, theta[k], expected)
        assert rate[k] == objective(expected)
    # the searched objective is the scalar closed form, with numpy's sin
    # and float_power in place of the C library's sin and pow; those
    # agree to the last bit on common builds, which numpy does not
    # promise, so the rates are held to the one ulp of the CSV contract
    per_point = np.array(
        [rate_bell(ApparatusParams(t1=t, t2=t), th) for t, th in zip(grid.tolist(), theta.tolist())]
    )
    assert np.max(ulps_apart(rate, per_point)) <= 1
    if len(grid) == 1:
        best = optimize_theta(ApparatusParams(t1=grid[0], t2=grid[0]), Objective.BELL_RATE)
        assert (best.optimal_theta, best.rate) == (theta[0], rate[0])


def test_chain_objective_matches_scalar_search():
    params = ApparatusParams(t1=1e-3, t2=1e-3)
    result = optimize_theta(params, Objective.CHAIN_RATE, k_max=64)
    expected = scalar_golden_section(
        lambda th: chain_growth_rate(params, th, k_max=64).growth_rate, 0.0, math.pi / 2.0
    )
    assert result.optimal_theta == expected


def test_array_bell_rate_optimizer_checks_every_point():
    grid = np.array([1e-3, 0.5])
    with pytest.raises(DegenerateParameterError):
        optimize_bell_rate(grid, np.array([0.5, 0.0]))
    with pytest.raises(DegenerateParameterError):
        optimize_bell_rate(grid, np.array([0.5, 1.5]))
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(DegenerateParameterError):
            optimize_bell_rate(grid, grid, tau=tau)
    # unbalanced links broadcast against one shared second arm
    theta, _ = optimize_bell_rate(grid, 0.2)
    for k, t in enumerate(grid.tolist()):
        best = optimize_theta(ApparatusParams(t1=t, t2=0.2), Objective.BELL_RATE)
        assert theta[k] == best.optimal_theta


# ---------------------------------------------------------------------------
# Loop-interval combinatorics and series


def brute_force_walk_counts(k: int) -> tuple[int, ...]:
    """Enumerate imbalance walks directly: start at 1, step by one, never
    touch zero; counts indexed by final imbalance minus one."""
    counts = [0] * (k - 1)
    for steps in itertools.product((1, -1), repeat=k - 2):
        pos = 1
        for step in steps:
            pos += step
            if pos == 0:
                break
        else:
            counts[pos - 1] += 1
    return tuple(counts)


def test_sequence_counts_against_brute_force():
    for k in range(2, 13):
        assert sequence_counts(k).v == brute_force_walk_counts(k)


def test_sequence_counts_small_values():
    assert sequence_counts(2).n_success == 1
    assert sequence_counts(3).n_success == 0
    assert sequence_counts(4).n_success == 1
    assert sequence_counts(6).n_success == 2
    for k in (3, 5, 7, 9):
        assert sequence_counts(k).n_success == 0
    counts = sequence_counts(5)
    assert counts.n_live == counts.n_success + counts.n_failure


def test_sequence_count_vector_validation():
    with pytest.raises(ValueError):
        sequence_counts(1)
    with pytest.raises(ValueError):
        SequenceCountVector(k=3, v=(1,))
    with pytest.raises(ValueError):
        SequenceCountVector(k=3, v=(1, -1))


def test_interval_probabilities_small_k_closed_forms():
    eta = 0.3
    x = (1.0 - eta) / 2.0
    ps, pf = loop_interval_probabilities(eta, 6)
    assert ps[2] == pytest.approx(2.0 * x**2, rel=1e-14)
    assert ps[3] == 0.0
    assert ps[4] == pytest.approx(2.0 * x**4, rel=1e-14)
    # one live length-1 prefix: failure at k = 2 combines a parity flip
    # of either signature with the double-excitation chain
    assert pf[2] == pytest.approx(2.0 * eta * x + (1.0 - eta) * eta, rel=1e-14)
    with pytest.raises(DegenerateParameterError):
        loop_interval_probabilities(1.0, 8)
    with pytest.raises(ValueError):
        loop_interval_probabilities(0.3, 1)


def allocating_interval_probabilities(eta: float, k_max: int):
    """The walk recursion with a fresh array per step, as first written."""
    x = (1.0 - eta) / 2.0
    ps = np.zeros(k_max + 1)
    pf = np.zeros(k_max + 1)
    u = np.zeros(k_max + 2)
    u[0] = x * x
    for k in range(2, k_max + 1):
        ps[k] = 2.0 * u[0]
        pf[k] = 2.0 * eta * u.sum() / x + (1.0 - eta) * eta ** (k - 1)
        w = np.zeros_like(u)
        w[:-1] += u[1:]
        w[1:] += u[:-1]
        u = w * x
    return ps, pf


def test_interval_probabilities_match_allocating_recursion_bit_for_bit():
    # k_max 63-66 and 129-130 put the last walk vector on either side of
    # one and two 64-row block seams; 2000 runs many blocks of 64 rows
    etas = (0.0, 1e-300, 0.05, 0.3, 0.5, 0.7, 1.0 - 2.0**-53, np.float64(0.3337))
    for eta in etas:
        for k_max in (2, 3, 7, 63, 64, 65, 66, 129, 130, 258, 2000):
            got = loop_interval_probabilities(eta, k_max)
            expected = allocating_interval_probabilities(eta, k_max)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])


@pytest.mark.parametrize("budget", [1, 140, 210])
def test_interval_probabilities_bit_for_bit_on_small_blocks(monkeypatch, budget):
    # a small memory budget gives blocks of 1, 2 or 3 rows at k_max 66, so
    # nearly every step crosses a seam; one row steps onto itself
    monkeypatch.setattr(analytics, "_SERIES_BLOCK_DOUBLES", budget)
    for eta in (0.3, np.float64(0.01)):
        for k_max in (2, 3, 5, 66, 67):
            got = loop_interval_probabilities(eta, k_max)
            expected = allocating_interval_probabilities(eta, k_max)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])


def test_interval_probabilities_memory_stays_linear_in_k_max():
    # the block budget keeps the series at O(k_max) doubles: ~1.4 MiB here,
    # where a constant 64-row block would take ~4 MiB and the full
    # lattice of walk vectors ~490 MiB
    tracemalloc.start()
    try:
        loop_interval_probabilities(0.3, 8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def reference_chain_growth(params, theta, k_max):
    """``chain_growth_rate``'s fields rebuilt on the allocating recursion."""
    pc = p_click(params, theta)
    eta = eta_weight(params, theta)
    ps, pf = allocating_interval_probabilities(eta, k_max + 2)
    ks = np.arange(k_max + 3)
    p_loop = float(ps[: k_max + 1].sum())
    p_fail = float(pf[: k_max + 1].sum())
    mean_iterates = float((ks[: k_max + 1] * (ps + pf)[: k_max + 1]).sum())
    ratio = max(eta, 1.0 - eta)
    tail_bound = float(ps[k_max + 1] + pf[k_max + 1] + ps[k_max + 2] + pf[k_max + 2])
    tail_bound /= 1.0 - ratio**2
    growth = (3.0 * p_loop - 1.0) * pc / (mean_iterates * params.tau)
    return {
        "p_loop": p_loop,
        "p_fail": p_fail,
        "mean_iterates": mean_iterates,
        "tail_bound": tail_bound,
        "growth_rate": growth,
    }


def test_chain_growth_matches_allocating_series():
    theta = ExcitationAngle.from_sin_sq(0.2)
    for t in (1e-3, 0.5):
        params = ApparatusParams(t1=t, t2=t)
        for k_max in (64, 256):
            got = chain_growth_rate(params, theta, k_max=k_max)
            expected = reference_chain_growth(params, theta, k_max)
            assert {name: getattr(got, name) for name in expected} == expected
    # the CHAIN_RATE search lands on the same angle as one on the reference
    params = ApparatusParams(t1=1e-3, t2=1e-3)
    best = optimize_theta(params, Objective.CHAIN_RATE, k_max=256)
    theta_ref = golden_section_max(
        lambda th: reference_chain_growth(params, th, 256)["growth_rate"],
        0.0,
        math.pi / 2.0,
    )
    assert best.optimal_theta == theta_ref


def test_interval_probabilities_are_complete():
    for eta in (0.1, 0.3, 0.5, 0.8):
        ps, pf = loop_interval_probabilities(eta, 600)
        assert ps.sum() + pf.sum() == pytest.approx(1.0, abs=1e-9)


def balanced_angle(t: float, eta: float) -> ExcitationAngle:
    """The angle whose heralded pair on a balanced link t has weight eta."""
    return ExcitationAngle.from_sin_sq(2.0 * eta / (2.0 - t + eta * t))


def test_loop_success_series_matches_closed_form():
    # on a balanced link the exact loop success is 1 - sqrt(eta (2 - eta))
    params = ApparatusParams(t1=0.5, t2=0.5)
    for eta in (0.05, 0.2, 0.5, 0.9):
        exact = chain_growth_rate(params, balanced_angle(0.5, eta))
        assert exact.eta == pytest.approx(eta, rel=1e-12)
        ps, _ = loop_interval_probabilities(exact.eta, 2000)
        assert ps.sum() == pytest.approx(exact.p_loop, abs=1e-9)
        assert exact.p_loop == pytest.approx(
            1.0 - math.sqrt(exact.eta * (2.0 - exact.eta)), rel=1e-14
        )


def test_chain_growth_closed_form_matches_long_series_on_balanced_links():
    for t in (1e-1, 1e-3, 1e-5):
        params = ApparatusParams(t1=t, t2=t)
        for s in (0.05, 0.138, 0.3, 0.6):
            theta = ExcitationAngle.from_sin_sq(s)
            exact = chain_growth_rate(params, theta)
            series = chain_growth_rate(params, theta, k_max=2000)
            assert (exact.k_max, exact.tail_bound, exact.converged) == (None, 0.0, True)
            for name in ("growth_rate", "p_loop", "p_fail", "mean_iterates"):
                assert getattr(exact, name) == pytest.approx(
                    getattr(series, name), rel=1e-14
                ), (t, s, name)
            assert (exact.eta, exact.p_click) == (series.eta, series.p_click)


@pytest.mark.parametrize("t1, t2", [(0.02, 0.005), (0.5, 0.05), (0.3, 0.1), (0.05, 0.04)])
def test_chain_growth_closed_form_on_unbalanced_links(t1, t2):
    # the exact sums against the cap-64 walk tree and the count-class
    # tree: the success mass agrees to the trees' pruning; the failure
    # mass and the mean iterate count differ by the trees' pending and
    # pruned mass and the iterates it has still to run
    params = ApparatusParams(t1=t1, t2=t2)
    theta = ExcitationAngle.from_sin_sq(1.0 / 3.0)
    exact = chain_growth_rate(params, theta)
    assert exact.p_loop + exact.p_fail == pytest.approx(1.0, abs=1e-15)
    pair = heralded_state(params, theta)
    clients = plus_state(CLIENT_LABELS)
    config = StrategyConfig.loop(64)
    for tree in (
        run_strategy_exact(clients, pair, config),
        count_class_tree(clients, pair, config),
    ):
        assert exact.p_loop == pytest.approx(tree.success_probability, abs=1e-13)
        assert tree.failure_probability - 1e-13 <= exact.p_fail
        unresolved = tree.pending_probability + tree.pruned_probability
        assert exact.p_fail <= tree.failure_probability + unresolved + 1e-13
        mean_tree = sum(l.probability * l.iterates for l in tree.leaves)
        assert mean_tree - 1e-13 <= exact.mean_iterates <= mean_tree + 1e-8


def test_chain_growth_roadmap_figures_on_unbalanced_links():
    theta = ExcitationAngle.from_sin_sq(1.0 / 3.0)
    for (t1, t2), p_loop in (
        ((0.02, 0.005), 0.154544195538),
        ((0.5, 0.05), 0.078848161236),
        ((0.9, 0.001), 9.866064565e-4),
    ):
        result = chain_growth_rate(ApparatusParams(t1=t1, t2=t2), theta)
        assert result.p_loop == pytest.approx(p_loop, abs=1e-12)


def test_loop_distillation_tolerates_asymmetry_at_a_rate_cost():
    # paper claim: an unbalanced link still distills perfect pairs; the
    # asymmetry costs only rate.  At fixed mean transmission the success
    # fidelity stays 1 while p_loop and the optimal growth rate fall
    t_mean = 0.05
    theta = ExcitationAngle.from_sin_sq(1.0 / 3.0)
    p_loops, growth = [], []
    for sigma in (0.0, 0.2, 0.4, 0.6):
        params = ApparatusParams(t1=t_mean * (1.0 + sigma), t2=t_mean * (1.0 - sigma))
        assert params.sin_two_phi == pytest.approx(sigma, abs=1e-15)
        tree = run_strategy_exact(
            plus_state(CLIENT_LABELS), heralded_state(params, theta), StrategyConfig.loop(16)
        )
        assert tree.mean_success_fidelity() == pytest.approx(1.0, abs=1e-12)
        p_loops.append(chain_growth_rate(params, theta).p_loop)
        growth.append(optimize_theta(params, Objective.CHAIN_RATE).rate)
    assert all(a > b for a, b in zip(p_loops, p_loops[1:]))
    assert all(a > b > 0.0 for a, b in zip(growth, growth[1:]))


def test_chain_growth_limit_at_two_thirds_imbalance():
    # p_loop = 1 - R with R >= |sin 2phi|, so growth needs |sin 2phi| < 2/3
    grid = [ExcitationAngle.from_sin_sq(s) for s in np.linspace(1e-6, 0.99, 60)]
    for t1, t2 in ((0.9, 0.001), (0.5, 0.1), (0.12, 0.02)):
        params = ApparatusParams(t1=t1, t2=t2)
        bound = 1.0 - abs(params.sin_two_phi)
        assert bound <= 1.0 / 3.0
        results = [chain_growth_rate(params, th) for th in grid]
        assert all(r.p_loop <= bound and r.growth_rate < 0.0 for r in results)
        with pytest.raises(DegenerateParameterError, match="2/3"):
            optimize_theta(params, Objective.CHAIN_RATE)
    # just inside the limit the chain still grows, at a small angle
    params = ApparatusParams(t1=0.08, t2=0.02)
    assert abs(params.sin_two_phi) < 2.0 / 3.0
    best = optimize_theta(params, Objective.CHAIN_RATE)
    assert best.rate > 0.0


def test_truncated_series_needs_a_balanced_link():
    params = ApparatusParams(t1=0.6, t2=0.3)
    theta = ExcitationAngle.from_sin_sq(0.3)
    with pytest.raises(DegenerateParameterError, match="t1 == t2"):
        chain_growth_rate(params, theta, k_max=64)
    with pytest.raises(DegenerateParameterError, match="t1 == t2"):
        optimize_theta(params, Objective.CHAIN_RATE, k_max=64)
    assert chain_growth_rate(params, theta).k_max is None


def test_chain_growth_overflow_raises():
    params = ApparatusParams(t1=0.5, t2=0.5, tau=5e-324)
    with pytest.raises(DegenerateParameterError, match="overflows"):
        chain_growth_rate(params, ExcitationAngle.from_sin_sq(0.2))
    with pytest.raises(DegenerateParameterError, match="overflows"):
        chain_growth_rate(params, ExcitationAngle.from_sin_sq(0.2), k_max=64)


def test_chain_growth_input_validation():
    params = ApparatusParams(t1=0.5, t2=0.5)
    with pytest.raises(ValueError):
        chain_growth_rate(params, ExcitationAngle.from_sin_sq(0.3), k_max=3)
    with pytest.raises(DegenerateParameterError):
        chain_growth_rate(params, ExcitationAngle(0.0))
    with pytest.raises(DegenerateParameterError):
        chain_growth_rate(params, ExcitationAngle(math.pi / 2.0))


def test_chain_growth_against_exact_tree():
    # reconstruct the growth rate from the exact loop tree over the same
    # run-length range: success/failure masses and the mean iterate count
    # (pending mass excluded on both sides) must match the series
    params = ApparatusParams(t1=0.5, t2=0.5)
    theta = ExcitationAngle.from_sin_sq(4e-6 / 3.0)
    cap = 6
    series = chain_growth_rate(params, theta, k_max=cap)
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS),
        heralded_state(params, theta),
        StrategyConfig.loop(cap),
    )
    assert series.p_loop == pytest.approx(tree.success_probability, abs=1e-12)
    assert series.p_fail == pytest.approx(tree.failure_probability, abs=1e-12)
    mean_tree = sum(
        l.probability * l.iterates for l in tree.leaves if l.status is not Status.PENDING
    )
    assert series.mean_iterates == pytest.approx(mean_tree, abs=1e-12)
    g_tree = (
        (3.0 * tree.success_probability - 1.0)
        * p_click(params, theta)
        / (mean_tree * params.tau)
    )
    assert series.growth_rate == pytest.approx(g_tree, rel=1e-12)


def test_chain_growth_can_be_negative():
    params = ApparatusParams(t1=0.5, t2=0.5)
    result = chain_growth_rate(params, ExcitationAngle.from_sin_sq(0.5))
    assert result.growth_rate < 0.0
    assert 3.0 * result.p_loop - 1.0 < 0.0


def test_chain_growth_operating_point_constants():
    params = ApparatusParams(t1=1e-3, t2=1e-3)
    best = optimize_theta(params, Objective.CHAIN_RATE, k_max=64)
    result = chain_growth_rate(params, best.optimal_theta, k_max=64)
    scaled = result.growth_rate * params.tau / params.mean_transmission
    assert scaled == pytest.approx(0.034525018538606476, rel=1e-9)
    assert 1.0 / scaled == pytest.approx(28.964502912048626, rel=1e-9)
    assert result.eta == pytest.approx(0.1377915609422753, rel=1e-9)
    assert result.p_loop == pytest.approx(0.493446047923276, rel=1e-9)
    assert result.mean_iterates == pytest.approx(3.8355098481610437, rel=1e-9)
    # the truncated tail still exceeds the convergence tolerance here,
    # and the flag says so rather than pretending otherwise
    assert result.tail_bound == pytest.approx(7.85229032350586e-06, rel=1e-6)
    assert not result.converged


def test_chain_growth_converges_with_larger_cutoff():
    params = ApparatusParams(t1=0.5, t2=0.5)
    theta = ExcitationAngle.from_sin_sq(0.2)
    short = chain_growth_rate(params, theta, k_max=8)
    long = chain_growth_rate(params, theta, k_max=400)
    assert not short.converged
    assert long.converged
    # the truncation error is controlled by the reported tail mass
    assert abs(long.growth_rate - short.growth_rate) < (
        3.0 * short.tail_bound * short.p_click / short.mean_iterates
    )


# ---------------------------------------------------------------------------
# Drift between consecutive heralds


def test_drift_zero_is_exactly_zero():
    assert drift_infidelity_exact(0.3, 0.0, 0.0) == 0.0
    assert drift_infidelity_physical(DriftParams(0.0, 0.0)) == 0.0
    assert drift_infidelity_quadratic(DriftParams(0.0, 0.0)) == 0.0


def test_drift_exact_against_delivered_state():
    """Cross-module oracle for the mid-run drift formula.

    Run the two iterates through the circuit route with two different
    clean pairs and measure the success leaf against the ideal Bell
    state.  All success histories must give the same number, and the
    baseline detuning must drop out.
    """
    from helpers import bell_even
    from paritydistill import IterateOutcome, run_iterate_exact

    rng = np.random.default_rng(53)
    clients = plus_state(CLIENT_LABELS)
    routes = [
        (IterateOutcome(0, 0), IterateOutcome(1, 1), bell_odd(CLIENT_LABELS)),
        (IterateOutcome(1, 1), IterateOutcome(0, 0), bell_odd(CLIENT_LABELS)),
        (IterateOutcome(0, 1), IterateOutcome(1, 0), bell_even(CLIENT_LABELS)),
    ]
    for _ in range(40):
        phi = rng.uniform(-0.6, 0.6)
        delta0 = rng.uniform(-1.2, 1.2)
        dphi = rng.uniform(-0.3, 0.3)
        ddelta = rng.uniform(-0.5, 0.5)
        pair1 = HeraldedPair(eta=0.0, phi=phi, delta=delta0)
        pair2 = HeraldedPair(eta=0.0, phi=phi + dphi, delta=delta0 + ddelta)
        formula = drift_infidelity_exact(phi, dphi, ddelta)
        for first, second, target in routes:
            mid = run_iterate_exact(clients, pair1)[first]
            leaf = run_iterate_exact(mid.state, pair2)[second]
            expect = 1.0 - fidelity(leaf.state, target)
            assert formula == pytest.approx(expect, abs=1e-12)


def test_drift_exact_against_distortion_pair_overlap():
    # second oracle route: undo the first window's distortion, apply the
    # second window's, and take the normalized overlap with the ideal
    # Bell state through the density-matrix layer
    from helpers import asymmetry_distortion
    from paritydistill import apply_one_qubit

    rng = np.random.default_rng(59)
    labels = ("B1", "B2")
    ref = bell_odd(labels)
    for _ in range(50):
        phi = rng.uniform(-0.6, 0.6)
        delta0 = rng.uniform(-1.2, 1.2)
        dphi = rng.uniform(-0.3, 0.3)
        ddelta = rng.uniform(-0.5, 0.5)
        drifted = apply_one_qubit(ref, asymmetry_distortion(-phi, -delta0), labels[0])
        drifted = apply_one_qubit(
            drifted, asymmetry_distortion(phi + dphi, delta0 + ddelta), labels[0]
        )
        assert drift_infidelity_exact(phi, dphi, ddelta) == pytest.approx(
            1.0 - fidelity(drifted, ref), abs=1e-12
        )


def test_drift_formula_reduces_to_pair_overlap_on_balanced_baseline():
    # only at phi = 0 is the delivered infidelity also the raw overlap
    # infidelity of the two pairs
    labels = ("B1", "B2")
    for dphi, ddelta in [(0.1, 0.0), (0.0, 0.3), (0.2, -0.4)]:
        first = HeraldedPair(eta=0.0, phi=0.0, delta=0.7).expand(labels)
        second = HeraldedPair(eta=0.0, phi=dphi, delta=0.7 + ddelta).expand(labels)
        assert drift_infidelity_exact(0.0, dphi, ddelta) == pytest.approx(
            1.0 - fidelity(second, first), abs=1e-12
        )


def test_drift_physical_against_raw_transmittances():
    # oracle construction: baseline (T, T); the drifted window has
    # t1' = T (1 - d_t)^2 so the relative transmittance-ratio drift is
    # exactly d_t, and a path-length change of d_x wavelengths
    base_t = 0.3
    for d_t in (0.0, 0.02, 0.07, 0.1):
        for d_x in (0.0, 0.01, 0.05, 0.1):
            drifted = ApparatusParams(
                t1=base_t * (1.0 - d_t) ** 2, t2=base_t, x1=-d_x, x2=0.0
            )
            invariant = 1.0 - math.sqrt(
                (drifted.t1 * base_t) / (drifted.t2 * base_t * (1.0 - d_t) ** 2)
            ) * (1.0 - d_t)
            assert invariant == pytest.approx(d_t, abs=1e-12)
            first = HeraldedPair(eta=0.0, phi=0.0, delta=0.0).expand(("B1", "B2"))
            second = HeraldedPair(
                eta=0.0, phi=drifted.phi, delta=drifted.delta
            ).expand(("B1", "B2"))
            expect = 1.0 - fidelity(second, first)
            got = drift_infidelity_physical(DriftParams(d_x=d_x, d_t=d_t))
            assert got == pytest.approx(expect, abs=1e-12)


def test_drift_physical_matches_exact_angles():
    for d_t in (0.0, 0.03, 0.1):
        for d_x in (0.0, 0.04, 0.1):
            drift = DriftParams(d_x=d_x, d_t=d_t)
            assert drift_infidelity_physical(drift) == pytest.approx(
                drift_infidelity_exact(0.0, drift.delta_phi, drift.delta_delta),
                abs=1e-14,
            )


def test_drift_tolerance_benchmark_point():
    # a path drift of 1/(32 pi) wavelengths costs less than 1e-3
    eps = drift_infidelity_physical(DriftParams(d_x=1.0 / (32.0 * math.pi), d_t=0.0))
    assert eps == pytest.approx(math.sin(1.0 / 32.0) ** 2, abs=1e-15)
    assert eps < 1e-3


def test_drift_symmetry_and_sign():
    grid = np.linspace(0.0, 0.1, 11)
    for d_t in grid:
        for d_x in grid:
            eps = drift_infidelity_physical(DriftParams(d_x, d_t))
            assert eps >= 0.0
            assert eps == drift_infidelity_physical(DriftParams(-d_x, d_t))


def test_drift_quadratic_envelope():
    # the quadratic law's error obeys 35 max^4 + 0.3 d_t^3 on the
    # [0, 0.1]^2 grid (the quartic coefficient along d_x is pi^4/3 and
    # the d_t error is cubic at leading order)
    grid = np.linspace(0.0, 0.1, 11)
    for d_t in grid:
        for d_x in grid:
            drift = DriftParams(d_x, d_t)
            gap = abs(
                drift_infidelity_exact(0.0, drift.delta_phi, drift.delta_delta)
                - drift_infidelity_quadratic(drift)
            )
            envelope = 35.0 * max(d_x, d_t) ** 4 + 0.3 * d_t**3
            assert gap <= envelope + 1e-15


def test_drift_params_validation_and_round_trip():
    with pytest.raises(DegenerateParameterError):
        DriftParams(d_x=float("nan"), d_t=0.0)
    with pytest.raises(DegenerateParameterError):
        DriftParams(d_x=0.0, d_t=2.0)


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between nonnegative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_drift_surface_matches_per_point_laws():
    # the benchmark's drift grid, plus negative drifts and d_t near the pole
    d_max = 0.1 * (1.0 + 0.5 * random.Random(101).random())
    axes = (
        np.linspace(0.0, d_max, 151),
        np.concatenate([np.linspace(-0.3, 0.3, 41), [1.9, 1.999, 2.1, 5.0]]),
    )
    for grid in axes:
        exact, quad = drift_infidelity_surface(grid[:, None], grid[None, :])
        assert exact.shape == quad.shape == (len(grid), len(grid))
        per_exact = np.empty_like(exact)
        per_quad = np.empty_like(quad)
        for i, dx in enumerate(grid.tolist()):
            for j, dt in enumerate(grid.tolist()):
                drift = DriftParams(d_x=dx, d_t=dt)
                per_exact[i, j] = drift_infidelity_physical(drift)
                per_quad[i, j] = drift_infidelity_quadratic(drift)
        assert np.max(ulps_apart(exact, per_exact)) <= 1
        assert np.max(ulps_apart(quad, per_quad)) <= 1


def test_drift_surface_checks_every_point():
    with pytest.raises(DegenerateParameterError, match="finite"):
        drift_infidelity_surface(np.array([0.0, np.nan]), 0.1)
    with pytest.raises(DegenerateParameterError, match="finite"):
        drift_infidelity_surface(0.1, np.array([0.0, np.inf]))
    with pytest.raises(DegenerateParameterError, match="pole"):
        drift_infidelity_surface(0.0, np.linspace(0.0, 4.0, 3))
    # finite drifts whose quadratic law overflows
    with pytest.raises(DegenerateParameterError, match="too large"):
        drift_infidelity_surface(np.array([0.0, 1e200]), 0.0)


def test_drift_exact_rejects_annihilating_direction():
    with pytest.raises(DegenerateParameterError):
        drift_infidelity_exact(-math.pi / 4.0, math.pi, 0.1)


# ---------------------------------------------------------------------------
# Dark-count operating regions


def test_region_clean_column_reduces_to_rate_comparison():
    theta = ExcitationAngle.from_sin_sq(1.0 / 3.0)
    for t in (0.05, 0.3, 0.6):
        (point,) = dark_count_fidelity_region([t], [0.0])
        assert point.fidelity == pytest.approx(1.0, abs=1e-10)
        params = ApparatusParams(t1=t, t2=t)
        assert point.rate == pytest.approx(rate_bell(params, theta), rel=1e-10)
        expect = (
            RegionLabel.OURS_BETTER
            if point.rate > point.reference_rate
            else RegionLabel.REFERENCE_BETTER
        )
        assert point.label is expect
    (low,) = dark_count_fidelity_region([0.05], [0.0])
    (high,) = dark_count_fidelity_region([0.5], [0.0])
    assert low.label is RegionLabel.OURS_BETTER
    assert high.label is RegionLabel.REFERENCE_BETTER


def test_region_fidelity_decreases_with_dark_counts():
    darks = [0.0, 1e-6, 1e-4, 1e-2, 0.05]
    points = dark_count_fidelity_region([0.05], darks)
    fids = [pt.fidelity for pt in points]
    assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))
    assert points[-1].label is RegionLabel.NO_GO


def test_region_no_go_wins_over_rate():
    # heavy dark counts at deep loss: the raw rate can exceed the
    # reference while the delivered fidelity is useless
    (point,) = dark_count_fidelity_region([0.05], [0.05])
    assert point.rate > point.reference_rate
    assert point.label is RegionLabel.NO_GO


def test_region_csv_output():
    points = dark_count_fidelity_region([0.1, 0.3], [0.0, 1e-3])
    assert len(points) == 4


def test_region_fields_are_floats_and_csv_parses():
    # array inputs, as np.geomspace and the benchmark pass them, give the
    # same points as list inputs
    t = np.geomspace(0.01, 0.5, 4)
    darks = np.array([0.0, *np.geomspace(1e-6, 1e-2, 3)])
    from_arrays = dark_count_fidelity_region(t, darks)
    from_lists = dark_count_fidelity_region(t.tolist(), darks.tolist())
    assert from_arrays == from_lists
    for point in from_arrays:
        fields = [getattr(point, name) for name in RegionPoint.__dataclass_fields__]
        assert all(type(value) is float for value in fields[:-1])


def _benchmark_region_grid(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The 15x15 region grid of the benchmark's design_sweep workload."""
    rng = random.Random(seed)
    rng.random()  # rates --t-min
    rng.random()  # drift --d-max
    t = np.geomspace(10.0 ** (-3.0 - 0.5 * rng.random()), 0.5, 15)
    darks = np.geomspace(10.0 ** (-8.0 + rng.random()), 1e-2, 15)
    return t, darks


_REGION_ORACLE_GRIDS = {
    **{
        f"benchmark_seed{seed}": (*_benchmark_region_grid(seed), 1.0 / 3.0)
        for seed in (101, 202, 7)
    },
    "wide": (
        np.geomspace(1e-6, 1.0, 25),
        np.array([0.0, *np.geomspace(1e-9, 0.5, 24)]),
        1.0 / 3.0,
    ),
    "lossless_heavy_dark": (
        np.array([1.0, 0.999999]),
        np.array([0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999]),
        1.0 / 3.0,
    ),
    **{
        f"sin_sq_{s}": (
            np.geomspace(1e-4, 1.0, 12),
            np.array([0.0, *np.geomspace(1e-9, 0.9, 11)]),
            s,
        )
        for s in (1.0 / 3.0, 0.05, 0.9)
    },
}


@pytest.mark.parametrize("name", sorted(_REGION_ORACLE_GRIDS))
def test_region_grid_matches_exact_tree_per_point(name):
    t, darks, sin_sq = _REGION_ORACLE_GRIDS[name]
    points = dark_count_fidelity_region(t, darks, sin_sq_theta=sin_sq)
    expect, labels = region_by_tree(t, darks, sin_sq_theta=sin_sq)
    got = np.array(
        [
            (
                pt.transmission,
                pt.p_dark,
                pt.herald_probability,
                pt.success_probability,
                pt.fidelity,
                pt.rate,
                pt.reference_rate,
            )
            for pt in points
        ]
    )
    assert [pt.label for pt in points] == labels
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expect))
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0, equal_nan=True)


@pytest.mark.parametrize(
    "t, darks, kwargs",
    [
        ([0.1, 0.2], [0.0, 1e-3, 1.0], {}),  # p_dark = 1
        ([0.1, 0.2], [0.0, 1e-3, -1e-3], {}),  # p_dark < 0
        ([0.1, 0.2], [0.0, math.nan], {}),  # p_dark not a number
        ([0.1, 1.5], [0.0, 1e-3], {}),  # t > 1
        ([0.1, -0.1], [0.0, 1e-3], {}),  # t < 0
        ([0.1, 0.0], [0.0, 1e-3], {}),  # dark link
        ([0.1, math.nan], [0.0, 1e-3], {}),  # t not a number
        ([0.1, 0.2], [0.0, 1e-3], {"tau": math.inf}),
        ([0.1, 0.2], [0.0, 1e-3], {"tau": math.nan}),
        # no emission: only a dark count heralds, and at p_dark = 0 none does
        ([0.1], [1e-3, 0.0, 1e-2], {"sin_sq_theta": 0.0}),
    ],
)
def test_region_grid_rejects_a_single_bad_point(t, darks, kwargs):
    with pytest.raises(DegenerateParameterError):
        dark_count_fidelity_region(t, darks, **kwargs)


def test_region_grid_cross_check_catches_a_wrong_closed_form(monkeypatch):
    # the grid's corner point is held to the exact tree, so a closed form
    # that drifts from the tree raises instead of labelling the grid
    closed_form = analytics._two_iterate_success

    def drifted(masks, clients):
        p_two, fid = closed_form(masks, clients)
        return p_two, fid - 1e-11

    monkeypatch.setattr(analytics, "_two_iterate_success", drifted)
    with pytest.raises(SimulationError, match="success fidelity"):
        dark_count_fidelity_region([0.05, 0.1], [0.0, 1e-3])


def test_region_grid_empty_writes_header_only():
    assert dark_count_fidelity_region([], [0.0, 1e-3]) == ()
