"""Protocol layer: iterate routes, classification, exact trees, sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from paritydistill import (
    CLIENT_LABELS,
    DensityMatrix,
    DegenerateParameterError,
    DistillationRun,
    ExactTree,
    HeraldedPair,
    ApparatusParams,
    ExcitationAngle,
    IterateOutcome,
    Leaf,
    OUTCOMES,
    Status,
    StrategyConfig,
    StrategyMode,
    bell_even,
    bell_odd,
    classify,
    eta_weight,
    heralded_state,
    heralded_state_with_dark_counts,
    iterate_channel,
    loop_interval_probabilities,
    p_click,
    plus_state,
    run_iterate_exact,
    run_strategy_exact,
    run_trajectories,
)
from paritydistill import protocol
from paritydistill.constants import BRANCH_PRUNE_EPSILON
from paritydistill.protocol import _compact_step, _outcome_probabilities

RNG = np.random.default_rng


def random_pure_clients(rng) -> DensityMatrix:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), CLIENT_LABELS)


def random_mixed_clients(rng) -> DensityMatrix:
    m = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(3)):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityMatrix(m, CLIENT_LABELS)


def random_pair(rng) -> HeraldedPair:
    return HeraldedPair(
        eta=rng.uniform(0.02, 0.9),
        phi=rng.uniform(-0.7, 0.7),
        delta=rng.uniform(-1.5, 1.5),
    )


def circuit_tree(clients, pair, config) -> ExactTree:
    """Reference tree: one circuit iterate per outcome history.

    Expands every history separately, with per-path pruning, so it is
    exponential in the iterate cap; the count-class tree of
    ``run_strategy_exact`` must reproduce its masses.
    """
    frontier = [((), 1.0, clients.normalized())]
    leaves = []
    pruned = 0.0
    for _ in range(config.max_iterates):
        next_frontier = []
        for history, prob, state in frontier:
            for branch in run_iterate_exact(state, pair).values():
                joint = prob * branch.probability
                if branch.state is None or joint < BRANCH_PRUNE_EPSILON:
                    pruned += joint
                    continue
                new_history = history + (branch.outcome,)
                status = classify(new_history)
                if status is Status.PENDING and len(new_history) < config.max_iterates:
                    next_frontier.append((new_history, joint, branch.state))
                else:
                    run = DistillationRun(new_history, branch.state, status)
                    leaves.append(Leaf(run, joint))
        frontier = next_frontier
    return ExactTree(clients.normalized(), config, tuple(leaves), pruned)


# ---------------------------------------------------------------------------
# Outcome bookkeeping


def test_outcome_properties():
    assert IterateOutcome(1, 0).parity == 1
    assert IterateOutcome(1, 1).parity == 0
    assert IterateOutcome(1, 0).index == 2
    assert [oc.index for oc in OUTCOMES] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        IterateOutcome(2, 0)


def test_classify_examples():
    oc = IterateOutcome
    assert classify([]) is Status.PENDING
    assert classify([oc(0, 0)]) is Status.PENDING
    assert classify([oc(0, 0), oc(1, 1)]) is Status.SUCCESS_PARITY_EVEN
    assert classify([oc(0, 1), oc(1, 0)]) is Status.SUCCESS_PARITY_ODD
    assert classify([oc(0, 0), oc(0, 1)]) is Status.FAILURE
    assert classify([oc(0, 0), oc(0, 0)]) is Status.PENDING
    assert classify([oc(0, 0), oc(0, 0), oc(1, 1), oc(1, 1)]) is Status.SUCCESS_PARITY_EVEN
    assert classify([oc(1, 0), oc(1, 0), oc(0, 1)]) is Status.PENDING
    assert classify([oc(1, 0), oc(1, 0), oc(1, 1)]) is Status.FAILURE
    assert Status.SUCCESS_PARITY_ODD.is_success
    assert not Status.FAILURE.is_success


def test_run_rejects_inconsistent_status():
    clients = plus_state(CLIENT_LABELS)
    history = (IterateOutcome(0, 0), IterateOutcome(1, 1))
    with pytest.raises(ValueError):
        DistillationRun(history, clients, Status.FAILURE)
    run = DistillationRun.from_history(history, clients)
    assert run.status is Status.SUCCESS_PARITY_EVEN
    assert run.iterate_count == 2


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(StrategyMode.LOOP, max_iterates=1)
    with pytest.raises(ValueError):
        StrategyConfig(StrategyMode.TWO_ITERATES_ONLY, max_iterates=3)
    with pytest.raises(ValueError):
        StrategyConfig(StrategyMode.LOOP, max_iterates=8, rng_seed=-1)
    assert StrategyConfig.two_iterates_only().max_iterates == 2
    assert StrategyConfig.loop(max_iterates=12).max_iterates == 12


# ---------------------------------------------------------------------------
# Single-iterate physics


def test_clean_balanced_iterate_from_plus_plus():
    # eta = 0, phi = delta = 0: all four outcomes at 1/4; kept subspace
    # holds the Bell state of the complementary parity
    clients = plus_state(CLIENT_LABELS)
    pair = HeraldedPair(eta=0.0, phi=0.0, delta=0.0)
    branches = run_iterate_exact(clients, pair)
    for oc, branch in branches.items():
        assert branch.probability == pytest.approx(0.25, abs=1e-12)
        target = bell_odd(CLIENT_LABELS) if oc.parity == 0 else bell_even(CLIENT_LABELS)
        np.testing.assert_allclose(branch.state.elements, target.elements, atol=1e-12)


def test_fully_contaminated_iterate_collapses_clients():
    clients = plus_state(CLIENT_LABELS)
    pair = HeraldedPair(eta=1.0, phi=0.2, delta=0.5)
    branches = run_iterate_exact(clients, pair)
    for oc, branch in branches.items():
        assert branch.probability == pytest.approx(0.25, abs=1e-12)
        expect = np.zeros((4, 4))
        expect[oc.index, oc.index] = 1.0
        np.testing.assert_allclose(branch.state.elements, expect, atol=1e-12)


def test_circuit_and_closed_form_routes_agree():
    # the central dual-route check: full gate-sequence evolution against
    # the direct two-qubit branch maps
    rng = RNG(101)
    for _ in range(30):
        clients = random_mixed_clients(rng) if rng.random() < 0.5 else random_pure_clients(rng)
        pair = random_pair(rng)
        circuit = run_iterate_exact(clients, pair)
        for oc in OUTCOMES:
            mapped = iterate_channel(clients, pair, oc)
            assert circuit[oc].probability == pytest.approx(
                mapped.trace.real, abs=1e-12
            )
            if circuit[oc].state is not None:
                np.testing.assert_allclose(
                    circuit[oc].state.elements,
                    mapped.elements / mapped.trace,
                    atol=1e-12,
                )


def test_branch_weights_complete():
    rng = RNG(103)
    for _ in range(20):
        clients = random_mixed_clients(rng)
        pair = random_pair(rng)
        total = sum(b.probability for b in run_iterate_exact(clients, pair).values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_diagonal_probability_shortcut_matches_channel():
    rng = RNG(107)
    for _ in range(20):
        clients = random_mixed_clients(rng)
        pair = random_pair(rng)
        probs = _outcome_probabilities(
            clients.elements, pair.eta, math.sin(2.0 * pair.phi)
        )
        for idx, oc in enumerate(OUTCOMES):
            assert probs[idx] == pytest.approx(
                iterate_channel(clients, pair, oc).trace.real, abs=1e-12
            )


def test_explicit_broker_matrix_matches_parametric_pair():
    rng = RNG(109)
    clients = random_mixed_clients(rng)
    pair = random_pair(rng)
    a = run_iterate_exact(clients, pair)
    b = run_iterate_exact(clients, pair.expand(("B1", "B2")))
    for oc in OUTCOMES:
        assert a[oc].probability == pytest.approx(b[oc].probability, abs=1e-13)
        np.testing.assert_allclose(
            a[oc].state.elements, b[oc].state.elements, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Exact strategy trees


def test_clean_two_iterate_tree():
    # eta = 0: success probability cos^2(2 phi)/2, failure exactly zero
    clients = plus_state(CLIENT_LABELS)
    cfg = StrategyConfig.two_iterates_only()
    tree = run_strategy_exact(clients, HeraldedPair(eta=0.0, phi=0.0, delta=0.0), cfg)
    assert tree.success_probability == pytest.approx(0.5, abs=1e-12)
    assert tree.failure_probability == 0.0
    successes = [l for l in tree.leaves if l.status.is_success]
    assert len(successes) == 4
    for leaf in successes:
        assert classify(leaf.history).is_success


def test_two_pair_success_probability_grid():
    cfg = StrategyConfig.two_iterates_only()
    clients = plus_state(CLIENT_LABELS)
    for eta in (0.0, 0.3, 0.7):
        for phi in (-0.5, 0.0, 0.4):
            for delta in (0.0, 0.8):
                tree = run_strategy_exact(
                    clients, HeraldedPair(eta=eta, phi=phi, delta=delta), cfg
                )
                expect = math.cos(2.0 * phi) ** 2 * (1.0 - eta) ** 2 / 2.0
                assert tree.success_probability == pytest.approx(expect, abs=1e-12)


def test_clean_link_distills_perfectly_from_any_pure_clients():
    # eta = 0 at arbitrary (phi, delta): every success leaf reproduces
    # the clients' own parity component exactly
    rng = RNG(113)
    cfg = StrategyConfig.two_iterates_only()
    for _ in range(20):
        pair = HeraldedPair(
            eta=0.0, phi=rng.uniform(-0.7, 0.7), delta=rng.uniform(-1.5, 1.5)
        )
        tree = run_strategy_exact(random_pure_clients(rng), pair, cfg)
        assert tree.mean_success_fidelity() >= 1.0 - 1e-10


def test_tree_conserves_probability_and_profiles():
    rng = RNG(127)
    clients = plus_state(CLIENT_LABELS)
    for cfg in (StrategyConfig.two_iterates_only(), StrategyConfig.loop(max_iterates=7)):
        tree = run_strategy_exact(clients, random_pair(rng), cfg)
        assert tree.total_probability == pytest.approx(1.0, abs=1e-10)
        profile = tree.depth_profile()
        for status in Status:
            mass = sum(row.get(status, 0.0) for row in profile.values())
            assert mass == pytest.approx(tree.status_probability(status), abs=1e-14)


def test_loop_tree_matches_interval_series():
    # balanced link: per-depth success and failure masses follow the
    # signature-walk series exactly
    eta = 0.3
    cap = 6
    clients = plus_state(CLIENT_LABELS)
    tree = run_strategy_exact(
        clients, HeraldedPair(eta=eta, phi=0.0, delta=0.0), StrategyConfig.loop(cap)
    )
    ps, pf = loop_interval_probabilities(eta, cap)
    profile = tree.depth_profile()
    for k in range(2, cap + 1):
        row = profile.get(k, {})
        success = row.get(Status.SUCCESS_PARITY_EVEN, 0.0) + row.get(
            Status.SUCCESS_PARITY_ODD, 0.0
        )
        assert success == pytest.approx(ps[k], abs=1e-10), f"success mass at k={k}"
        assert row.get(Status.FAILURE, 0.0) == pytest.approx(
            pf[k], abs=1e-10
        ), f"failure mass at k={k}"


def test_success_leaves_live_in_complementary_parity_subspace():
    rng = RNG(131)
    clients = plus_state(CLIENT_LABELS)
    tree = run_strategy_exact(
        clients, random_pair(rng), StrategyConfig.loop(max_iterates=6)
    )
    for leaf in tree.leaves:
        if not leaf.status.is_success:
            continue
        d = leaf.state.elements.diagonal().real
        if leaf.status is Status.SUCCESS_PARITY_EVEN:
            assert d[0] + d[3] < 1e-12
        else:
            assert d[1] + d[2] < 1e-12


def test_failure_leaves_are_diagonal_product_states():
    """A parity flip always leaves a product diagonal.

    The double-excitation spike only amplifies diagonal mass that is
    already there, so a fixed-parity prefix populates at most one basis
    state outside its kept pair; the flip then keeps that single state
    plus its own spike.  Two populated basis states of opposite bit
    parity always share a one-qubit factor.  Tolerances allow for the
    roundoff dust a small branch weight amplifies during normalization.
    """
    rng = RNG(137)
    clients = plus_state(CLIENT_LABELS)
    for cfg in (StrategyConfig.two_iterates_only(), StrategyConfig.loop(max_iterates=6)):
        for _ in range(5):
            tree = run_strategy_exact(clients, random_pair(rng), cfg)
            failures = tree.leaves_with(Status.FAILURE)
            assert failures
            for leaf in failures:
                off = np.max(
                    np.abs(leaf.state.elements - np.diag(leaf.state.elements.diagonal()))
                )
                d = leaf.state.elements.diagonal().real
                second_singular = np.linalg.svd(d.reshape(2, 2), compute_uv=False)[1]
                assert leaf.probability * off < 1e-13
                assert leaf.probability * second_singular < 1e-13
                if leaf.probability > 1e-6:
                    assert off < 1e-10
                    assert second_singular < 1e-10
                    assert np.sum(d > 1e-9) <= 2


def count_class(history) -> tuple[int, ...]:
    """First outcome index and the four outcome counts of a history."""
    counts = [0, 0, 0, 0]
    for outcome in history:
        counts[outcome.index] += 1
    return (history[0].index, *counts)


def tree_case(kind: str, rng):
    """Clients and broker of one oracle comparison."""
    clients = plus_state(CLIENT_LABELS)
    if kind == "pair":
        return clients, random_pair(rng)
    if kind == "dark":
        params = ApparatusParams(
            t1=rng.uniform(0.01, 0.9),
            t2=rng.uniform(0.01, 0.9),
            x1=rng.uniform(0.0, 1.0),
            p_dark=rng.uniform(1e-4, 0.2),
        )
        theta = ExcitationAngle.from_sin_sq(rng.uniform(0.05, 0.9))
        broker, _ = heralded_state_with_dark_counts(params, theta)
        return clients, broker
    # a random mixed two-qubit state, relabelled as the broker
    broker = DensityMatrix(random_mixed_clients(rng).elements, ("B1", "B2"))
    if kind == "general":
        return clients, broker
    return random_pure_clients(rng), broker


@pytest.mark.parametrize("kind", ["pair", "dark", "general", "pure_clients"])
def test_count_class_tree_matches_circuit_oracle(kind):
    # the count-class walk against the per-history circuit expansion:
    # every mass, the depth profile and the success fidelity agree
    rng = RNG(149)
    configs = (
        StrategyConfig.two_iterates_only(),
        StrategyConfig.loop(max_iterates=5),
        StrategyConfig.loop(max_iterates=8),
    )
    for cfg in configs:
        for _ in range(2):
            clients, broker = tree_case(kind, rng)
            tree = run_strategy_exact(clients, broker, cfg)
            oracle = circuit_tree(clients, broker, cfg)
            for status in Status:
                assert tree.status_probability(status) == pytest.approx(
                    oracle.status_probability(status), abs=1e-12
                )
            assert tree.pruned_probability == pytest.approx(
                oracle.pruned_probability, abs=1e-12
            )
            profile, expect = tree.depth_profile(), oracle.depth_profile()
            assert set(profile) == set(expect)
            for depth, row in expect.items():
                for status in set(row) | set(profile[depth]):
                    assert profile[depth].get(status, 0.0) == pytest.approx(
                        row.get(status, 0.0), abs=1e-12
                    ), f"{status} mass at depth {depth}"
            assert tree.mean_success_fidelity() == pytest.approx(
                oracle.mean_success_fidelity(), abs=1e-12
            )
            # each leaf is one class: its mass sums the member histories,
            # and every member ends in the class state (up to roundoff
            # dust, which normalizing a light branch amplifies)
            members: dict[tuple, list] = {}
            for leaf in oracle.leaves:
                members.setdefault(count_class(leaf.history), []).append(leaf)
            classes = {count_class(leaf.history): leaf for leaf in tree.leaves}
            assert set(classes) == set(members)
            for key, group in members.items():
                leaf = classes[key]
                assert leaf.probability == pytest.approx(
                    sum(m.probability for m in group), abs=1e-12
                )
                for member in group:
                    assert member.status is leaf.status
                    gap = np.max(np.abs(member.state.elements - leaf.state.elements))
                    assert member.probability * gap < 1e-13


def test_large_cap_loop_tree_matches_interval_series(monkeypatch):
    # caps far beyond the per-history oracle: one circuit iterate per
    # tree, and the success and failure masses still follow the series.
    # At eta = 0.3, cap 32, pruning single paths instead of whole classes
    # would drop ~3e-6 of failure mass.
    calls = []
    circuit = protocol.run_iterate_exact

    def counted(*args, **kwargs):
        calls.append(1)
        return circuit(*args, **kwargs)

    monkeypatch.setattr(protocol, "run_iterate_exact", counted)
    clients = plus_state(CLIENT_LABELS)
    for eta in (0.05, 0.3, 0.5):
        for cap in (16, 32):
            calls.clear()
            tree = run_strategy_exact(
                clients, HeraldedPair(eta=eta, phi=0.0, delta=0.0), StrategyConfig.loop(cap)
            )
            assert len(calls) == 1
            ps, pf = loop_interval_probabilities(eta, cap)
            assert tree.success_probability == pytest.approx(ps.sum(), abs=1e-10)
            assert tree.failure_probability == pytest.approx(pf.sum(), abs=1e-10)


def test_tree_rejects_broker_that_does_not_conserve_probability():
    pair = HeraldedPair(eta=0.2, phi=0.1, delta=0.3)
    half = DensityMatrix(0.5 * pair.expand().elements, ("B1", "B2"))
    with pytest.raises(DegenerateParameterError, match="masks"):
        run_strategy_exact(plus_state(CLIENT_LABELS), half, StrategyConfig.loop(4))


def test_fully_contaminated_tree_never_classifies():
    clients = plus_state(CLIENT_LABELS)
    tree = run_strategy_exact(
        clients, HeraldedPair(eta=1.0, phi=0.0, delta=0.0), StrategyConfig.loop(5)
    )
    assert tree.pending_probability == pytest.approx(1.0, abs=1e-12)
    assert tree.success_probability == 0.0
    assert tree.failure_probability == 0.0


# ---------------------------------------------------------------------------
# Compact trajectory state


def test_compact_step_matches_dense_branch_map():
    from paritydistill.protocol import _branch_map_elements

    rng = RNG(139)
    for _ in range(50):
        d = rng.dirichlet(np.ones(4))
        c12 = math.sqrt(d[1] * d[2]) * rng.uniform(0.0, 1.0) * np.exp(
            1j * rng.uniform(-math.pi, math.pi)
        )
        c03 = math.sqrt(d[0] * d[3]) * rng.uniform(0.0, 1.0) * np.exp(
            1j * rng.uniform(-math.pi, math.pi)
        )
        m = np.diag(d).astype(complex)
        m[1, 2], m[2, 1] = c12, c12.conjugate()
        m[0, 3], m[3, 0] = c03, c03.conjugate()
        eta = rng.uniform(0.05, 0.9)
        phi = rng.uniform(-0.7, 0.7)
        delta = rng.uniform(-1.5, 1.5)
        sin_two_phi = math.sin(2.0 * phi)
        cross = tuple(
            math.cos(2.0 * phi) * np.exp(2j * s * delta) for s in (-1.0, 1.0)
        )
        compact = (d[0], d[1], d[2], d[3], c12, c03)
        for i in (0, 1):
            for j in (0, 1):
                dense = _branch_map_elements(m, eta, phi, delta, i, j)
                weight = dense.trace().real
                w, nxt = _compact_step(compact, i, j, eta, sin_two_phi, cross)
                assert w == pytest.approx(weight, abs=1e-13)
                norm = dense / weight
                np.testing.assert_allclose(
                    nxt,
                    (
                        norm[0, 0].real,
                        norm[1, 1].real,
                        norm[2, 2].real,
                        norm[3, 3].real,
                        norm[1, 2],
                        norm[0, 3],
                    ),
                    atol=1e-12,
                )


# ---------------------------------------------------------------------------
# Monte Carlo trajectories


def test_trajectory_input_validation():
    params = ApparatusParams(t1=0.5, t2=0.5)
    theta = ExcitationAngle.from_sin_sq(0.3)
    cfg = StrategyConfig.two_iterates_only(rng_seed=1)
    with pytest.raises(ValueError):
        run_trajectories(cfg, params, theta, 0)
    with pytest.raises(ValueError):
        run_trajectories(cfg, params, theta, 10, trial_start=-1)
    from paritydistill import DegenerateParameterError

    with pytest.raises(DegenerateParameterError):
        run_trajectories(cfg, params, ExcitationAngle(0.0), 10)


def test_trajectories_near_lossless_balanced_point():
    # t1 = t2 = 1 with a weak drive: eta is tiny and the two-iterate
    # success probability sits just below 1/2
    params = ApparatusParams(t1=1.0, t2=1.0)
    theta = ExcitationAngle.from_sin_sq(1e-3)
    cfg = StrategyConfig.two_iterates_only(rng_seed=11)
    n = 20000
    stats = run_trajectories(cfg, params, theta, n)
    summary = stats.summary()
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS), heralded_state(params, theta), cfg
    )
    assert tree.success_probability == pytest.approx(0.5, abs=1e-3)
    sigma = math.sqrt(0.25 / n)
    assert abs(summary["success_rate"] - 0.5) < 3.0 * sigma
    assert abs(summary["success_rate"] - tree.success_probability) < 3.0 * sigma


def test_trajectories_against_exact_tree_generic_point():
    params = ApparatusParams(t1=0.8, t2=0.4, x1=0.3)
    theta = ExcitationAngle.from_sin_sq(0.3)
    cfg = StrategyConfig.two_iterates_only(rng_seed=23)
    n = 20000
    stats = run_trajectories(cfg, params, theta, n)
    summary = stats.summary()
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS), heralded_state(params, theta), cfg
    )
    p = tree.success_probability
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(summary["success_rate"] - p) < 3.0 * se
    assert abs(summary["mean_success_fidelity"] - tree.mean_success_fidelity()) < 5e-3
    # every trial consumes exactly two heralds here, each geometric in
    # the click probability
    pc = p_click(params, theta)
    mean_attempts = summary["total_attempts"] / (2.0 * n)
    se_attempts = math.sqrt((1.0 - pc) / pc**2 / (2.0 * n))
    assert abs(mean_attempts - 1.0 / pc) < 4.0 * se_attempts
    assert set(summary["iterate_histogram"]) == {2}


def test_trajectories_loop_strategy_against_tree():
    params = ApparatusParams(t1=0.5, t2=0.5)
    theta = ExcitationAngle.from_sin_sq(0.5)
    cfg = StrategyConfig.loop(max_iterates=8, rng_seed=37)
    n = 20000
    stats = run_trajectories(cfg, params, theta, n)
    summary = stats.summary()
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS), heralded_state(params, theta), cfg
    )
    p = tree.success_probability
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(summary["success_rate"] - p) < 3.0 * se
    success_mask = np.isin(
        stats.status,
        [Status.SUCCESS_PARITY_EVEN.value, Status.SUCCESS_PARITY_ODD.value],
    )
    assert np.all(stats.iterates[success_mask] % 2 == 0)
    assert np.all(stats.iterates[~success_mask] >= 2)


def test_trajectories_replay_bit_identical():
    params = ApparatusParams(t1=0.6, t2=0.3)
    theta = ExcitationAngle.from_sin_sq(0.4)
    cfg = StrategyConfig.loop(max_iterates=6, rng_seed=5)
    a = run_trajectories(cfg, params, theta, 500)
    b = run_trajectories(cfg, params, theta, 500)
    np.testing.assert_array_equal(a.attempts, b.attempts)
    np.testing.assert_array_equal(a.iterates, b.iterates)
    np.testing.assert_array_equal(a.status, b.status)
    np.testing.assert_array_equal(a.fidelity, b.fidelity)


def test_trajectories_merge_is_partition_invariant():
    params = ApparatusParams(t1=0.6, t2=0.3)
    theta = ExcitationAngle.from_sin_sq(0.4)
    cfg = StrategyConfig.loop(max_iterates=6, rng_seed=5)
    whole = run_trajectories(cfg, params, theta, 400)
    left = run_trajectories(cfg, params, theta, 250)
    right = run_trajectories(cfg, params, theta, 150, trial_start=250)
    for merged in (left.merge(right), right.merge(left)):
        np.testing.assert_array_equal(merged.trial, whole.trial)
        np.testing.assert_array_equal(merged.attempts, whole.attempts)
        np.testing.assert_array_equal(merged.status, whole.status)
        np.testing.assert_array_equal(merged.fidelity, whole.fidelity)
    with pytest.raises(ValueError):
        left.merge(left)
    # batches drawn from any other configuration never merge
    mismatched = (
        (StrategyConfig.loop(max_iterates=6, rng_seed=6), params, theta),
        (StrategyConfig.loop(max_iterates=8, rng_seed=5), params, theta),
        (StrategyConfig.two_iterates_only(rng_seed=5), params, theta),
        (cfg, params, ExcitationAngle.from_sin_sq(0.5)),
        (cfg, ApparatusParams(t1=0.6, t2=0.4), theta),
        (cfg, ApparatusParams(t1=0.6, t2=0.3, tau=2.0), theta),
        (cfg, ApparatusParams(t1=0.6, t2=0.3, x1=0.2), theta),
    )
    for other_cfg, other_params, other_theta in mismatched:
        other = run_trajectories(other_cfg, other_params, other_theta, 10, trial_start=1000)
        with pytest.raises(ValueError):
            left.merge(other)
        with pytest.raises(ValueError):
            other.merge(left)
    two = run_trajectories(
        StrategyConfig.two_iterates_only(rng_seed=5), params, ExcitationAngle(0.3), 10
    )
    loop16 = run_trajectories(
        StrategyConfig.loop(max_iterates=16, rng_seed=5),
        params,
        ExcitationAngle(0.9),
        10,
        trial_start=10,
    )
    with pytest.raises(ValueError):
        two.merge(loop16)
    # the same angle given as a float or as an ExcitationAngle is one config
    as_float = run_trajectories(cfg, params, theta.theta, 150, trial_start=250)
    np.testing.assert_array_equal(left.merge(as_float).status, whole.status)


def test_sample_stats_csv_format(tmp_path):
    params = ApparatusParams(t1=0.6, t2=0.3)
    theta = ExcitationAngle.from_sin_sq(0.4)
    stats = run_trajectories(StrategyConfig.two_iterates_only(rng_seed=9), params, theta, 5)
    path = tmp_path / "runs.csv"
    stats.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,trial,attempts,iterates,status,fidelity"
    assert len(lines) == 6
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == "9"
        assert int(fields[1]) == k
        assert fields[4] in {
            "pending",
            "success_parity_even",
            "success_parity_odd",
            "failure",
        }
    stats.write_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
