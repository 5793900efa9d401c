"""Acceptance gate: one test per headline requirement.

Each test prints a PASS/FAIL line through the conftest hook.  The
criteria pin the library's load-bearing claims end to end: channel
completeness, perfect distillation on a clean link, the success-
probability law, optimal drive angles, chain-growth constants, the
crossover against the two-photon reference, drift tolerances, walk
combinatorics, Monte Carlo concordance and the dark-count model.

The drift criterion test_criterion_07b pins the quadratic drift law
through its fourth-order error expansion, with a fifth-order remainder
bound derived in the comment there.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import drift_angles, drift_infidelity_exact
from paritydistill import (
    ApparatusParams,
    DensityMatrix,
    HeraldedPair,
    Objective,
    OUTCOMES,
    RegionLabel,
    Status,
    StrategyConfig,
    chain_growth_rate,
    crossover_transmission,
    dark_count_fidelity_region,
    drift_infidelity_surface,
    fidelity,
    heralded_state,
    heralded_state_with_dark_counts,
    optimize_theta,
    p_click,
    plus_state,
    rate_bell,
    run_strategy_exact,
    run_trajectories,
    sequence_counts,
    theta_from_sin_sq,
    two_photon_reference_rate,
)
from paritydistill.protocol import CLIENT_LABELS, _outcome_masks


def random_clients(rng, pure: bool) -> DensityMatrix:
    if pure:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()), CLIENT_LABELS)
    m = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(3)):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityMatrix(m, CLIENT_LABELS)


def parity_target(clients: DensityMatrix, status: Status) -> DensityMatrix:
    keep = (1, 2) if status is Status.SUCCESS_PARITY_EVEN else (0, 3)
    mask = np.zeros(4)
    mask[list(keep)] = 1.0
    m = clients.elements * np.outer(mask, mask)
    return DensityMatrix(m, clients.labels, validate=False).normalized()


def test_criterion_01_channel_completeness():
    # the four branch maps of one iterate exhaust probability for any
    # state and any link parameters
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        clients = random_clients(rng, pure=bool(rng.integers(2)))
        pair = HeraldedPair(
            eta=rng.uniform(0.0, 1.0),
            phi=rng.uniform(-math.pi / 4.0, math.pi / 4.0),
            delta=rng.uniform(-math.pi / 2.0, math.pi / 2.0),
        )
        masks = _outcome_masks(pair)
        total = sum(np.trace(masks[oc.index] * clients.elements).real for oc in OUTCOMES)
        assert total == pytest.approx(1.0, abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_clean_link_distills_perfectly():
    # 200 random asymmetric but uncontaminated links, random pure
    # clients: every success leaf carries the clients' own parity
    # component with fidelity at least 1 - 1e-10
    rng = np.random.default_rng(2025)
    cfg = StrategyConfig()
    checked = 0
    for _ in range(200):
        pair = HeraldedPair(
            eta=0.0,
            phi=rng.uniform(-math.pi / 4.0, math.pi / 4.0),
            delta=rng.uniform(-math.pi / 2.0, math.pi / 2.0),
        )
        clients = random_clients(rng, pure=True)
        tree = run_strategy_exact(clients, pair, cfg)
        for leaf in tree.leaves:
            if not leaf.status.is_success:
                continue
            target = parity_target(tree.initial_clients, leaf.status)
            assert fidelity(leaf.state, target) >= 1.0 - 1e-10
            checked += 1
    assert checked > 400


def test_criterion_03_success_probability_law():
    # 10x10x10 grid: the two-iterate success probability is
    # cos^2(2 phi) (1 - eta)^2 / 2, independent of delta
    cfg = StrategyConfig()
    clients = plus_state(CLIENT_LABELS)
    etas = np.linspace(0.0, 0.9, 10)
    phis = np.linspace(-math.pi / 4.0, math.pi / 4.0, 10)
    deltas = np.linspace(-math.pi / 2.0 + 1e-3, math.pi / 2.0, 10)
    for eta in etas:
        for phi in phis:
            expect = math.cos(2.0 * phi) ** 2 * (1.0 - eta) ** 2 / 2.0
            for delta in deltas:
                tree = run_strategy_exact(
                    clients, HeraldedPair(eta=eta, phi=phi, delta=delta), cfg
                )
                assert tree.success_probability == pytest.approx(expect, abs=1e-12)


def test_criterion_04_optimal_drive_deep_loss():
    start = time.perf_counter()
    params = ApparatusParams(t1=1e-5, t2=1e-5)
    result = optimize_theta(params, Objective.BELL_RATE)
    assert result.sin_sq_theta == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert time.perf_counter() - start < 1.0


def test_criterion_05_chain_growth_constants():
    start = time.perf_counter()
    params = ApparatusParams(t1=1e-3, t2=1e-3)
    best = optimize_theta(params, Objective.CHAIN_RATE, k_max=64)
    result = chain_growth_rate(params, best.optimal_theta, k_max=64)
    scaled = result.growth_rate * params.tau / params.mean_transmission
    assert scaled == pytest.approx(0.0345, abs=0.0005)
    assert 1.0 / scaled == pytest.approx(29.0, abs=0.5)
    assert time.perf_counter() - start < 10.0


def test_criterion_06_crossover_and_deep_loss_advantage():
    start = time.perf_counter()
    assert crossover_transmission() == pytest.approx(0.152, abs=0.001)
    params = ApparatusParams(t1=1e-4, t2=1e-4)
    best = optimize_theta(params, Objective.BELL_RATE)
    ratio = best.rate / two_photon_reference_rate(1e-4)
    assert 1.0e3 <= ratio <= 2.0e3
    assert time.perf_counter() - start < 1.0


def test_criterion_07a_drift_tolerance_point():
    start = time.perf_counter()
    eps, _ = drift_infidelity_surface(1.0 / (32.0 * math.pi), 0.0)
    assert eps < 1e-3
    assert time.perf_counter() - start < 1.0


def test_criterion_07b_drift_quadratic_quartic_envelope():
    # The quadratic law (pi d_x)^2 + (d_t / 2)^2 is the leading order of
    # the exact drift infidelity; this criterion pins the terms after it
    # through fourth order.  With a = pi d_x and u = d_t / (2 - d_t) =
    # -tan(delta_phi), the exact infidelity at phi = 0 is
    # (sin^2 a + u^2 cos^2 a) / (1 + u^2).  Its Taylor expansion about
    # the origin gives
    #   exact - quadratic = P4 + R,
    #   P4 = d_t^3 / 4 + d_t^4 / 8 - a^4 / 3 - a^2 d_t^2 / 2,
    #   R  = -a^2 d_t^3 / 2 + O(m^6),  m = max(d_x, d_t).
    # The cross term is the only fifth-order term: |a^2 d_t^3 / 2| <=
    # (pi^2 / 2) m^5 =~ 4.93 m^5, reached as m -> 0 along d_x = d_t.
    # The sixth-order terms -d_t^6 / 16 - a^2 d_t^4 / 4 + a^4 d_t^2 / 6
    # + 2 a^6 / 45 carry a further factor m <= 0.1.  On the d_x axis,
    # where the cross term vanishes, they give at most
    # (2 pi^6 / 45) 0.1 =~ 4.27 m^5; on the diagonal, where it peaks,
    # their sum has the opposite sign.  K = 6 bounds |R| / m^5 on
    # [0, 0.1]^2 with headroom over pi^2 / 2.  A wrong coefficient in
    # the quadratic law, or a wrong drift mapping d_t -> delta_phi,
    # leaves a residual of order m^2 or m^3, which exceeds K m^5 by
    # orders of magnitude at m = 0.01.
    k_remainder = 6.0
    grid = np.linspace(0.0, 0.1, 11)
    violations = []
    worst_ratio = 0.0
    for d_x in grid:
        for d_t in grid:
            if d_x == 0.0 and d_t == 0.0:
                continue
            exact = drift_infidelity_exact(0.0, *drift_angles(d_x, d_t))
            gap = exact - drift_infidelity_surface(d_x, d_t)[1]
            a = math.pi * d_x
            p4 = d_t**3 / 4.0 + d_t**4 / 8.0 - a**4 / 3.0 - a**2 * d_t**2 / 2.0
            ratio = abs(gap - p4) / max(d_x, d_t) ** 5
            worst_ratio = max(worst_ratio, ratio)
            if ratio > k_remainder:
                violations.append((d_x, d_t, ratio))
    print(
        f"[criterion 7b diagnostics] {len(violations)} of 120 grid points exceed "
        f"the fifth-order envelope; worst |gap - P4|/max^5 ratio "
        f"{worst_ratio:.2f} against K = {k_remainder:g}"
    )
    assert not violations, (
        f"{len(violations)} grid points exceed |gap - P4| <= "
        f"{k_remainder:g}*max(d_x, d_t)^5; worst ratio = {worst_ratio:.2f}"
    )


def test_criterion_08_walk_combinatorics():
    def brute(k: int) -> tuple[int, ...]:
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

    for k in range(2, 15):
        assert sequence_counts(k) == brute(k)
    assert sequence_counts(2)[0] == 1
    assert sequence_counts(3)[0] == 0
    assert sequence_counts(4)[0] == 1


def test_criterion_09_monte_carlo_concordance():
    start = time.perf_counter()
    params = ApparatusParams(t1=1e-2, t2=1e-2)
    best = optimize_theta(params, Objective.BELL_RATE)
    theta = best.optimal_theta
    cfg = StrategyConfig(rng_seed=424242)
    n = 1_000_000
    stats = run_trajectories(cfg, params, theta, n)
    summary = stats.summary()

    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS), heralded_state(params, theta), cfg
    )
    p_exact = tree.success_probability
    se_p = math.sqrt(p_exact * (1.0 - p_exact) / n)
    assert abs(summary["success_rate"] - p_exact) <= 3.0 * se_p

    rate_exact = rate_bell(params, theta)
    assert summary["bell_rate_se"] > 0.0
    assert abs(summary["bell_rate"] - rate_exact) <= 3.0 * summary["bell_rate_se"]

    # bit-identical replay of an interior slice
    replay = run_trajectories(cfg, params, theta, 5000, trial_start=200_000)
    sl = slice(200_000, 205_000)
    np.testing.assert_array_equal(replay.attempts, stats.attempts[sl])
    np.testing.assert_array_equal(replay.iterates, stats.iterates[sl])
    np.testing.assert_array_equal(replay.status, stats.status[sl])
    np.testing.assert_array_equal(replay.fidelity, stats.fidelity[sl])
    assert time.perf_counter() - start < 120.0


def _delivered_dark_fidelity(t: float, sin_sq: float, p_dark: float) -> float:
    params = ApparatusParams(t1=t, t2=t, p_dark=p_dark)
    theta = theta_from_sin_sq(sin_sq)
    state, _ = heralded_state_with_dark_counts(params, theta)
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS), state, StrategyConfig()
    )
    return tree.mean_success_fidelity()


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(0.01, 0.95),
    sin_sq=st.floats(0.05, 0.95),
    p_lo=st.floats(0.0, 0.3),
    p_hi=st.floats(0.0, 0.3),
)
def check_dark_fidelity_monotone(t, sin_sq, p_lo, p_hi):
    if p_hi < p_lo:
        p_lo, p_hi = p_hi, p_lo
    lo = _delivered_dark_fidelity(t, sin_sq, p_lo)
    hi = _delivered_dark_fidelity(t, sin_sq, p_hi)
    assert hi <= lo + 1e-9


def test_criterion_10_dark_count_model_properties():
    start = time.perf_counter()
    theta = theta_from_sin_sq(1.0 / 3.0)

    # exact reduction at p_dark = 0
    for t in (0.05, 0.3, 0.8):
        params = ApparatusParams(t1=t, t2=t)
        state, p_herald = heralded_state_with_dark_counts(params, theta)
        clean = heralded_state(params, theta).expand(("B1", "B2"))
        np.testing.assert_array_equal(state.elements, clean.elements)
        assert p_herald == p_click(params, theta)

    # delivered fidelity is monotone nonincreasing in p_dark at fixed
    # (T, theta): random operating points first, then a labeled grid
    # whose no-go region must be upward closed in p_dark
    check_dark_fidelity_monotone()

    transmissions = [0.03, 0.1, 0.3, 0.6]
    darks = [0.0, 1e-6, 1e-4, 1e-3, 5e-3, 2e-2, 0.1]
    points = dark_count_fidelity_region(transmissions, darks)
    by_t: dict[float, list] = {}
    for pt in points:
        by_t.setdefault(pt.transmission, []).append(pt)
    for t, column in by_t.items():
        column.sort(key=lambda pt: pt.p_dark)
        fids = [pt.fidelity for pt in column]
        assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:])), f"T={t}: {fids}"
        seen_no_go = False
        for pt in column:
            if pt.label is RegionLabel.NO_GO:
                seen_no_go = True
            elif seen_no_go:
                raise AssertionError(
                    f"no-go region not upward closed at T={t}, p={pt.p_dark}"
                )
        assert seen_no_go
    assert time.perf_counter() - start < 60.0
