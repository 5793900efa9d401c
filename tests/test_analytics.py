"""Closed-form rates, walk combinatorics, drift and dark-count analytics."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_trajectories,
    sequence_counts,
    two_photon_reference_rate,
)
from paritydistill.analytics import GOLDEN_SECTION_TOL
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


def _link(tau):
    return ApparatusParams(t1=0.02, t2=0.005, tau=tau)


def _balanced(tau):
    return ApparatusParams(t1=0.01, t2=0.01, tau=tau)


def _region_rates(tau):
    points = dark_count_fidelity_region([1e-3, 0.1], [0.0, 1e-6], tau=tau)
    return [value for point in points for value in (point.rate, point.reference_rate)]


def _sampled_rates(tau):
    config = StrategyConfig(max_iterates=2, rng_seed=3)
    stats = run_trajectories(config, _link(1.0), ExcitationAngle.from_sin_sq(0.3), 500)
    summary = replace(stats, params=_link(tau)).summary()
    return summary["bell_rate"], summary["bell_rate_se"]


RATES_PER_TAU = {
    "rate_bell": lambda tau: rate_bell(_link(tau), ExcitationAngle.from_sin_sq(0.3)),
    "reference": lambda tau: two_photon_reference_rate(np.array([1e-3, 0.5]), tau),
    "optimize_bell_rate": lambda tau: optimize_bell_rate([1e-3, 0.02], 0.005, tau)[1],
    "optimize_theta-bell": lambda tau: optimize_theta(_link(tau), Objective.BELL_RATE).rate,
    "optimize_theta-chain": lambda tau: optimize_theta(_link(tau), Objective.CHAIN_RATE).rate,
    "chain_growth_rate": lambda tau: chain_growth_rate(_link(tau), 0.21).growth_rate,
    "chain_growth_rate-k_max": lambda tau: chain_growth_rate(
        _balanced(tau), 0.21, k_max=64
    ).growth_rate,
    "region": _region_rates,
    "summary": _sampled_rates,
}


@pytest.mark.parametrize("rates", RATES_PER_TAU.values(), ids=list(RATES_PER_TAU))
def test_every_rate_is_per_window_over_tau(rates):
    # one rule for every rate: raise where 1/tau overflows, else divide
    # the per-window value by tau last, exactly
    with pytest.raises(DegenerateParameterError):
        rates(5e-324)
    per_window = np.asarray(rates(1.0), dtype=float)
    assert np.all(per_window > 0.0)
    np.testing.assert_array_equal(np.asarray(rates(1e308), dtype=float), per_window / 1e308)


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
    assert result.rate == pytest.approx(
        chain_growth_rate(params, result.optimal_theta, k_max=64).growth_rate, rel=1e-12
    )
    assert result.sin_sq_theta == pytest.approx(0.1378509890853362, abs=1e-6)


INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def scalar_golden_section(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """The one-bracket golden section, one Python-float step at a time.

    Reference for ``golden_section_max``, and the search that the
    closed-form Bell optimum replaced: same points, same comparisons,
    same stopping rule.
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


def test_golden_section_matches_scalar_reference():
    # brackets of different widths stop at different steps; one starts
    # already below the tolerance
    seen = []

    def f(x):
        seen.append(type(x))
        return -((x - 0.3) ** 2) + 0.1 * math.sin(x)

    for lo, hi in ((0.0, 1.0), (0.2, 0.5), (0.29, 0.29 + 5e-9), (-3.0, 2.0), (0.3, 0.300001)):
        assert golden_section_max(f, lo, hi) == scalar_golden_section(f, lo, hi)
    assert set(seen) == {float}


@pytest.mark.parametrize(
    "t1, t2",
    [
        (benchmark_rates_grid(), None),
        (benchmark_rates_grid(), 0.2),
        (np.array([1.0]), None),
        (np.array([1e-5]), None),
    ],
    ids=["benchmark_grid", "benchmark_grid_vs_0.2", "t=1", "t=1e-5"],
)
def test_bell_rate_optimum_in_closed_form(t1, t2):
    t2 = t1 if t2 is None else np.full_like(t1, t2)
    theta, rate = optimize_bell_rate(t1, t2)
    links = [ApparatusParams(t1=a, t2=b) for a, b in zip(t1.tolist(), t2.tolist())]
    # the returned angle is the root of a s^2 - 3 s + 1, a = T cos^2(2 phi)
    a = np.array([p.mean_transmission * p.cos_sq_two_phi for p in links])
    s = np.sin(theta) ** 2
    assert np.max(np.abs(a * s * s - 3.0 * s + 1.0)) <= 1e-14
    # the golden section it replaced lands within its tolerance, on a
    # rate the closed form's beats or trails by a few ulps at most
    ref_theta, ref_rate = [], []
    for params in links:
        th = scalar_golden_section(lambda x: rate_bell(params, x), 0.0, math.pi / 2.0)
        ref_theta.append(th)
        ref_rate.append(rate_bell(params, th))
    assert np.max(np.abs(theta - ref_theta)) <= 2.0 * GOLDEN_SECTION_TOL
    below = np.array(ref_rate).view(np.int64) - rate.view(np.int64)
    assert np.max(below) <= 8
    # the grid is evaluated with numpy's sin and float_power, the scalar
    # rate with the C library's sin and pow; those agree to the last bit
    # on common builds, which numpy does not promise, so the rates are
    # held to the one ulp of the CSV contract
    per_point = np.array([rate_bell(p, th) for p, th in zip(links, theta.tolist())])
    assert np.max(ulps_apart(rate, per_point)) <= 1
    # each grid point is, bit for bit, the one-link optimum
    for k, params in enumerate(links):
        best = optimize_theta(params, Objective.BELL_RATE)
        assert (best.optimal_theta, best.rate) == (theta[k], rate[k])


def test_bell_rate_optimum_deep_loss_limit():
    # s* = 2 / (3 + sqrt(9 - 4 a)) = 1/3 + a/27 + O(a^2): the operating
    # point sin^2(theta) = 1/3 of the deep-loss criterion
    t = np.geomspace(1e-5, 1e-2, 61)
    theta, _ = optimize_bell_rate(t, t)
    assert np.all(np.abs(np.sin(theta) ** 2 - (1.0 / 3.0 + t / 27.0)) <= t * t)


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


def gamma(n) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2**-53; n an int or an array.

    A product of n rounded factors, or any sum of nonnegative terms with n
    roundings on each term's path, is within gamma_n of its exact value
    relatively (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3); gamma_a + gamma_b <= gamma_(a+b).
    """
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def test_interval_probabilities_match_ballot_counts_exactly():
    # Each term against its exact value from the walk counts and the
    # floats x = fl(1 - eta)/2 and eta it starts from (1.0 - eta is 2x).
    # Roundings, all on nonnegative operands: ps[k], k = 2m + 2, is a
    # cumprod of fl(x x) and m steps of three (x x, the quotient, the
    # product), so 4m + 1 = 2k - 3, then an exact doubling.  pf[k]'s walk
    # term is a cumprod of x and k - 2 steps of at most two (none at odd
    # n), times 2 eta: 2k - 2; its power term k - 2 products of eta and
    # one by 1 - eta; the sum one more.  So each term is within
    # gamma_(2k - 1).  Below the normal range a product or quotient may
    # instead add up to 2**-1075 absolutely; every later step multiplies
    # by at most 1 and the final scalings by at most 2, so 3k 2**-1074
    # bounds that.
    k_max = 260
    counts = [(c.n_success, sum(c.v)) for c in map(sequence_counts, range(2, k_max + 1))]
    underflow = Fraction(2) ** -1074
    for eta in (0.0, 1e-300, 0.05, 0.3, 0.7, 1.0 - 2.0**-53):
        ps, pf = loop_interval_probabilities(eta, k_max)
        assert ps[:2].tolist() == pf[:2].tolist() == [0.0, 0.0]
        x, e = Fraction((1.0 - eta) / 2.0), Fraction(eta)
        x_power = e_power = Fraction(1)
        for k, (n_success, walks) in enumerate(counts, start=2):
            x_power, e_power = x_power * x, e_power * e  # x^(k-1), eta^(k-1)
            exact_ps = 2 * x_power * x * n_success
            exact_pf = 2 * e * x_power * walks + 2 * x * e_power
            for got, exact in ((ps[k], exact_ps), (pf[k], exact_pf)):
                tol = Fraction(gamma(2 * k - 1)) * exact + 3 * k * underflow
                assert abs(Fraction(got) - exact) <= tol, (eta, k)


def allocating_tolerance(eta: float, expected: np.ndarray) -> np.ndarray:
    """Bound on |library - allocating recursion| for each term.

    The recursion's walk entry at iterate k carries 2k - 3 roundings
    (x x, then one add and one product a step), its walk sum k - 2 more
    (a sum over at most k - 1 nonzero terms rounds at most k - 2 times
    on any path; adds of exact zeros round nothing), 2 eta and / x two,
    the C library's ``**`` within one ulp (two), then a product and the
    sum: within gamma_(3k - 2) of the exact term.  With the library's
    gamma_(2k - 1) (see the exact test above) the two differ by at most
    gamma_(5k) of the recursion's value.  Below the normal range the
    recursion's products add at most k^2 / 2 absolute roundings of
    2**-1075 into its walk sum, which 2 eta / x magnifies by up to 2 / x,
    beside a few in the last steps and the library's 3k.
    """
    x = (1.0 - eta) / 2.0
    k = np.arange(len(expected))
    return gamma(5 * k) * expected + (k * k / x + 3 * k + 4) * 2.0**-1074


def test_interval_probabilities_match_allocating_recursion():
    etas = (0.0, 1e-300, 0.05, 0.3, 0.5, 0.7, 1.0 - 2.0**-53, np.float64(0.3337))
    for eta in etas:
        for k_max in (2, 3, 7, 63, 64, 65, 66, 129, 130, 258, 2000):
            got = loop_interval_probabilities(eta, k_max)
            expected = allocating_interval_probabilities(eta, k_max)
            for g, e in zip(got, expected):
                assert g.shape == e.shape
                assert np.all(np.abs(g - e) <= allocating_tolerance(eta, e)), (eta, k_max)


def test_interval_probabilities_memory_stays_linear_in_k_max():
    # the ballot terms are a few arrays of k_max doubles: ~0.6 MiB here,
    # where the full lattice of walk vectors would take ~490 MiB
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


def series_tolerances(expected: dict, k_max: int, eta: float, pc: float) -> dict:
    """Bound on |library - reference| for each field of ``reference_chain_growth``.

    Every term of either series is within gamma_(3K) of its exact value,
    K = k_max + 2 the last iterate summed (``allocating_tolerance``).  The
    sums add at most k_max roundings, <I>'s weights k (ps + pf) two and the
    tail bound's division by the same float 1 - rho^2 one, so each field
    of each path is within gamma_(4K) of one exact value, and the two
    paths differ by at most 2 gamma_(4K) / (1 - gamma_(4K)) <= gamma_(12K)
    of the reference's field.  The absolute underflow terms, summed and
    weighted by k, add at most 2 K^2 of the per-term bound, divided by
    1 - rho^2 for the tail.  The growth rate (3 p_loop - 1) p_click / <I>
    cancels near p_loop = 1/3, so its bound is carried absolutely: each
    path forms 3 p_loop - 1 within gamma_2 (3 p_loop + 1) and rounds its
    product and quotient once each.
    """
    last = k_max + 2
    x = (1.0 - eta) / 2.0
    rho = max(eta, 1.0 - eta)
    per_term = (last * last / x + 3 * last + 4) * 2.0**-1074
    tiny = 2 * last * last * per_term / (1.0 - rho * rho)
    names = ("p_loop", "p_fail", "mean_iterates", "tail_bound")
    tol = {name: gamma(12 * last) * expected[name] + tiny for name in names}
    p, dp = expected["p_loop"], tol["p_loop"]
    m, dm = expected["mean_iterates"], tol["mean_iterates"]
    dn = 3.0 * dp + 2.0 * gamma(2) * (3.0 * (p + dp) + 1.0)
    quotient = (dn + abs(3.0 * p - 1.0) * dm / m) / (m - dm)
    g = abs(expected["growth_rate"])
    tol["growth_rate"] = pc * quotient + gamma(2) * (2.0 * g + pc * quotient)
    return tol


def test_chain_growth_matches_allocating_series():
    theta = ExcitationAngle.from_sin_sq(0.2)
    for t in (1e-3, 0.5):
        params = ApparatusParams(t1=t, t2=t)
        for k_max in (64, 256):
            got = chain_growth_rate(params, theta, k_max=k_max)
            expected = reference_chain_growth(params, theta, k_max)
            tol = series_tolerances(expected, k_max, got.eta, got.p_click)
            for name, value in expected.items():
                assert abs(getattr(got, name) - value) <= tol[name], (t, k_max, name)
    # the CHAIN_RATE search is a golden section on the library's own
    # series, per window at every tau; its rate lies within tolerance of
    # the optimum the search on the reference series finds (the two
    # searches rank two angles alike unless their rates tie within the
    # tolerance)
    for t in (1e-6, 1e-3, 0.05, 0.3, 1.0):
        window = ApparatusParams(t1=t, t2=t)
        for k_max in (4, 8, 64, 256, 1000):
            theta_own = golden_section_max(
                lambda th: chain_growth_rate(window, th, k_max=k_max).growth_rate,
                0.0,
                math.pi / 2.0,
            )
            theta_ref = golden_section_max(
                lambda th: reference_chain_growth(window, th, k_max)["growth_rate"],
                0.0,
                math.pi / 2.0,
            )
            own = chain_growth_rate(window, theta_own, k_max=k_max)
            expected = reference_chain_growth(window, theta_ref, k_max)
            tol = series_tolerances(expected, k_max, own.eta, own.p_click)["growth_rate"]
            assert abs(own.growth_rate - expected["growth_rate"]) <= tol, (t, k_max)
            for tau in (1e-6, 1.0, 1e300):
                params = ApparatusParams(t1=t, t2=t, tau=tau)
                best = optimize_theta(params, Objective.CHAIN_RATE, k_max=k_max)
                assert best.optimal_theta == theta_own, (t, k_max, tau)
                assert best.rate == best.chain.growth_rate == own.growth_rate / tau
                for name in ("p_loop", "p_fail", "mean_iterates", "tail_bound"):
                    assert getattr(best.chain, name) == getattr(own, name)


def test_chain_rate_result_carries_the_growth_at_its_angle():
    # computed once at the angle found, bit for bit the direct call
    for k_max in (None, 64):
        for tau in (1e-6, 1.0, 1e300):
            params = ApparatusParams(t1=0.01, t2=0.01, tau=tau)
            best = optimize_theta(params, Objective.CHAIN_RATE, k_max=k_max)
            assert best.chain == chain_growth_rate(params, best.optimal_theta, k_max=k_max)
    unbalanced = ApparatusParams(t1=0.02, t2=0.005)
    best = optimize_theta(unbalanced, Objective.CHAIN_RATE)
    assert best.chain == chain_growth_rate(unbalanced, best.optimal_theta)
    assert optimize_theta(unbalanced, Objective.BELL_RATE).chain is None


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
            assert (exact.tail_bound, exact.converged) == (0.0, True)
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
    assert chain_growth_rate(params, theta).tail_bound == 0.0


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


def assert_region_matches_tree(t, darks, **kwargs):
    points = dark_count_fidelity_region(t, darks, **kwargs)
    expect, labels = region_by_tree(t, darks, **kwargs)
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
    # the grid's brokers are the per-point brokers bit for bit, and so
    # are the class masses its walk sums
    np.testing.assert_array_equal(got[:, 3], expect[:, 3])


@pytest.mark.parametrize("name", sorted(_REGION_ORACLE_GRIDS))
def test_region_grid_matches_exact_tree_per_point(name):
    t, darks, sin_sq = _REGION_ORACLE_GRIDS[name]
    assert_region_matches_tree(t, darks, sin_sq_theta=sin_sq)


@settings(max_examples=60, deadline=None)
@given(
    t=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=3),
    darks=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.1)), min_size=1, max_size=3),
    sin_sq=st.floats(0.05, 0.95),
    tau=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_region_grid_matches_exact_tree_on_random_grids(t, darks, sin_sq, tau):
    assert_region_matches_tree(t, darks, sin_sq_theta=sin_sq, tau=tau)


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


def test_region_grid_empty_writes_header_only():
    assert dark_count_fidelity_region([], [0.0, 1e-3]) == ()
