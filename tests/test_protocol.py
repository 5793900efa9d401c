"""Protocol layer: iterate routes, classification, exact trees, sampling."""

from __future__ import annotations

import csv
import dataclasses
import math
from statistics import NormalDist

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
    STREAM_VERSION,
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


def branch_map_elements(
    rho: np.ndarray, eta: float, phi: float, delta: float, i: int, j: int
) -> np.ndarray:
    """Closed-form unnormalized branch map for outcome (i, j) on a 4x4 state.

    A second oracle for the gathered masks, written from the physics of
    a parametric pair: the client pair is projected onto the parity
    opposite to the measured one, the first client picks up the link
    distortion with a sign set by the first outcome bit, and the
    double-excitation component instead collapses the clients onto
    |i j>.
    """
    sign = 2 * i - 1
    f0 = (math.cos(sign * phi) + math.sin(sign * phi)) * np.exp(1j * sign * delta)
    f1 = (math.cos(sign * phi) - math.sin(sign * phi)) * np.exp(-1j * sign * delta)
    fvec = np.array([f0, f0, f1, f1])
    a, b = ((1, 2), (0, 3))[(i + j) & 1]
    out = np.zeros((4, 4), dtype=complex)
    sel = np.ix_((a, b), (a, b))
    out[sel] = 0.5 * (1.0 - eta) * (np.outer(fvec, fvec.conj()) * rho)[sel]
    k = 2 * i + j
    out[k, k] += eta * rho[k, k].real
    return out


def circuit_masks(broker) -> np.ndarray:
    """Outcome masks read off one circuit iterate on |++>.

    Every entry of |++> is 1/4, so ``M_k = 4 p_k sigma_k``; a branch the
    circuit pruned gets a zero mask.
    """
    reference = DensityMatrix(np.full((4, 4), 0.25, dtype=complex), CLIENT_LABELS, validate=False)
    masks = np.zeros((4, 4, 4), dtype=complex)
    for outcome, branch in run_iterate_exact(reference, broker).items():
        if branch.state is not None:
            masks[outcome.index] = 4.0 * branch.probability * branch.state.elements
    return masks


# Scalar sampler reference: a per-trial loop over Python floats and
# integers.  It recomputes the counter uniforms with Python integers and
# repeats the vectorised sampler's arithmetic in the same order, so the
# two must agree bit for bit; classification goes through ``classify``.

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
PARTNER_ROWS = (0, 1, 2, 3, 5, 4, 7, 6)
PLUS_COMPACT = (0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.25, 0.0)


def splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def counter_uniform(seed: int, trial: int, draw: int) -> float:
    key = splitmix64((seed + GOLDEN_GAMMA) & MASK64)
    stream = splitmix64((key + (trial + 1) * GOLDEN_GAMMA) & MASK64)
    return (splitmix64((stream + (draw + 1) * GOLDEN_GAMMA) & MASK64) >> 11) * 2.0**-53


def _outcome_probabilities(state, scale) -> list[float]:
    """Branch probabilities of one iterate from the diagonal d0..d3."""
    probs = []
    for k in range(4):
        p = scale[0][k] * state[0]
        for j in (1, 2, 3):
            p = p + scale[j][k] * state[j]
        probs.append(p)
    return probs


def _compact_step(state, k: int, weight: float, scale, twist) -> tuple:
    """Branch map ``k`` on a compact state, normalized by ``weight``."""
    inv = 1.0 / weight
    return tuple(
        (scale[r][k] * state[r] + twist[r][k] * state[PARTNER_ROWS[r]]) * inv
        for r in range(8)
    )


def scalar_trajectories(config, params, theta, n_trials, trial_start=0):
    """Per-trial loop with the sampler's stream; returns its five columns."""
    pc = p_click(params, theta)
    log_miss = math.log1p(-pc) if pc < 1.0 else None
    scale, twist = (t.tolist() for t in protocol._compact_tables(heralded_state(params, theta)))
    seed = config.rng_seed
    rows = []
    for trial in range(trial_start, trial_start + n_trials):
        state = PLUS_COMPACT
        history: list[IterateOutcome] = []
        windows = 0
        status = Status.PENDING
        while status is Status.PENDING and len(history) < config.max_iterates:
            depth = len(history)
            u = counter_uniform(seed, trial, 2 * depth)
            windows += 1 if log_miss is None else math.floor(math.log1p(-u) / log_miss) + 1
            p = _outcome_probabilities(state, scale)
            r = counter_uniform(seed, trial, 2 * depth + 1) * (((p[0] + p[1]) + p[2]) + p[3])
            if r < p[0]:
                k = 0
            elif r < p[0] + p[1]:
                k = 1
            elif r < (p[0] + p[1]) + p[2]:
                k = 2
            else:
                k = 3
            assert p[k] > 0.0, "a zero-probability outcome was chosen"
            state = _compact_step(state, k, p[k], scale, twist)
            history.append(OUTCOMES[k])
            status = classify(history)
        fid = float("nan")
        if status is Status.SUCCESS_PARITY_EVEN:
            fid = 0.5 * (state[1] + state[2]) + state[4]
        elif status is Status.SUCCESS_PARITY_ODD:
            fid = 0.5 * (state[0] + state[3]) + state[6]
        rows.append((trial, windows, len(history), status.value, fid))
    return tuple(np.array(col) for col in zip(*rows))


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
    with pytest.raises(ValueError):
        StrategyConfig(StrategyMode.LOOP, max_iterates=8, rng_seed=2**64)
    assert StrategyConfig.loop(rng_seed=2**64 - 1).rng_seed == 2**64 - 1
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
        scale = protocol._compact_tables(pair)[0].tolist()
        probs = _outcome_probabilities(clients.elements.diagonal().real, scale)
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


def mask_case(kind: str, rng):
    """A broker of one mask comparison: parametric, dark-count or general."""
    if kind == "pair":
        return random_pair(rng)
    if kind == "dark":
        params = ApparatusParams(
            t1=rng.uniform(0.01, 0.9),
            t2=rng.uniform(0.01, 0.9),
            x1=rng.uniform(0.0, 1.0),
            p_dark=rng.uniform(1e-4, 0.2),
        )
        theta = ExcitationAngle.from_sin_sq(rng.uniform(0.05, 0.9))
        return heralded_state_with_dark_counts(params, theta)[0]
    return DensityMatrix(random_mixed_clients(rng).elements, ("B1", "B2"))


@pytest.mark.parametrize("kind", ["pair", "dark", "general"])
def test_gathered_masks_match_circuit(kind):
    # the one closed form against the circuit oracle, for any broker
    rng = RNG(157)
    for _ in range(50):
        broker = mask_case(kind, rng)
        gathered = protocol._outcome_masks(broker)
        assert np.max(np.abs(gathered - circuit_masks(broker))) < 1e-14
        if kind == "pair":
            ones = np.ones((4, 4), dtype=complex)
            for oc in OUTCOMES:
                dense = branch_map_elements(
                    ones, broker.eta, broker.phi, broker.delta, oc.i, oc.j
                )
                assert np.max(np.abs(gathered[oc.index] - dense)) < 1e-14


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
    if kind == "pure_clients":
        broker = mask_case("general", rng)
        return random_pure_clients(rng), broker
    return plus_state(CLIENT_LABELS), mask_case(kind, rng)


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
    # caps far beyond the per-history oracle: no circuit iterate at all
    # (the masks are gathered), and the success and failure masses still
    # follow the series.
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
            assert len(calls) == 0
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


def random_compact_states(rng, n):
    """Random states of the compact form with random links, as (dense, pair)."""
    out = []
    for _ in range(n):
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
        pair = HeraldedPair(
            eta=rng.uniform(0.05, 0.9), phi=rng.uniform(-0.7, 0.7), delta=rng.uniform(-1.5, 1.5)
        )
        out.append((m, pair))
    return out


def compact_of(m) -> tuple:
    return (
        m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real,
        m[1, 2].real, m[1, 2].imag, m[0, 3].real, m[0, 3].imag,
    )


def test_compact_step_matches_dense_branch_map():
    for m, pair in random_compact_states(RNG(139), 50):
        scale, twist = (t.tolist() for t in protocol._compact_tables(pair))
        compact = compact_of(m)
        probs = _outcome_probabilities(compact, scale)
        for oc in OUTCOMES:
            dense = branch_map_elements(m, pair.eta, pair.phi, pair.delta, oc.i, oc.j)
            weight = dense.trace().real
            assert probs[oc.index] == pytest.approx(weight, abs=1e-13)
            nxt = _compact_step(compact, oc.index, probs[oc.index], scale, twist)
            np.testing.assert_allclose(nxt, compact_of(dense / weight), atol=1e-12)


def test_vectorised_step_matches_dense_branch_map():
    for m, pair in random_compact_states(RNG(139), 50):
        scale, twist = protocol._compact_tables(pair)
        # one column per outcome, all starting from the same state
        states = np.repeat(np.array(compact_of(m))[:, None], 4, axis=1)
        outcome = np.arange(4)
        probs = protocol._branch_probabilities(states, scale)
        after = protocol._advance(states, outcome, probs, scale, twist)
        for oc in OUTCOMES:
            dense = branch_map_elements(m, pair.eta, pair.phi, pair.delta, oc.i, oc.j)
            weight = dense.trace().real
            np.testing.assert_allclose(probs[oc.index], weight, atol=1e-13)
            # the dense map populates nothing outside the compact entries
            outside = dense.copy()
            for a, b in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (0, 3), (3, 0)):
                outside[a, b] = 0.0
            assert np.max(np.abs(outside)) == 0.0
            np.testing.assert_allclose(
                after[:, oc.index], compact_of(dense / weight), atol=1e-12
            )


def test_vectorised_step_rejects_zero_weight():
    scale, twist = protocol._compact_tables(HeraldedPair(eta=0.3, phi=0.1, delta=0.2))
    states = np.zeros((8, 1))
    probs = protocol._branch_probabilities(states, scale)
    with pytest.raises(DegenerateParameterError):
        protocol._advance(states, np.array([2]), probs, scale, twist)


def test_pick_outcome_never_chooses_zero_probability():
    rng = RNG(149)
    lowest, highest = 0.0, 1.0 - 2.0**-53
    for pattern in range(1, 16):
        support = [(pattern >> k) & 1 for k in range(4)]
        for _ in range(20):
            probs = np.array(support, dtype=float)[:, None] * rng.uniform(1e-300, 1.0, (4, 1))
            probs = np.repeat(probs, 3, axis=1)
            chosen = protocol._pick_outcome(probs, np.array([lowest, 0.5, highest]))
            assert all(support[k] for k in chosen), (support, chosen)


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


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution, by the gamma series."""
    a, y = dof / 2.0, x / 2.0
    term = total = 1.0 / a
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= y / (a + k)
        total += term
    return 1.0 - math.exp(a * math.log(y) - y - math.lgamma(a)) * total


def test_chi2_sf_known_values():
    # tabulated upper 0.1% / 5% points and the median of chi-square(19)
    assert chi2_sf(43.820, 19) == pytest.approx(1e-3, rel=1e-3)
    assert chi2_sf(30.144, 19) == pytest.approx(0.05, rel=1e-3)
    assert chi2_sf(18.338, 19) == pytest.approx(0.5, rel=1e-3)


UNBALANCED = ApparatusParams(t1=0.6, t2=0.3, x1=0.2)


def test_counter_stream_known_answers():
    # first output of SplitMix64 seeded with 0 (reference test vector)
    assert splitmix64(GOLDEN_GAMMA) == 0xE220A8397B1DCDAF
    first = protocol._mix64(np.array([GOLDEN_GAMMA], dtype=np.uint64))
    assert int(first[0]) == 0xE220A8397B1DCDAF
    trials = np.array([0, 1, 2047, 2048, 2**40], dtype=np.int64)
    for seed in (0, 7, 2**64 - 1):
        streams = protocol._trial_streams(seed, trials)
        for draw in (0, 1, 5):
            u = protocol._uniforms(streams, draw)
            expected = [counter_uniform(seed, int(t), draw) for t in trials]
            np.testing.assert_array_equal(u, expected)
            assert np.all((u >= 0.0) & (u < 1.0))


@pytest.mark.parametrize(
    "config",
    [StrategyConfig.two_iterates_only(rng_seed=17), StrategyConfig.loop(10, rng_seed=17)],
    ids=["two_iterates", "loop"],
)
def test_vectorised_sampler_matches_scalar_reference(config):
    theta = ExcitationAngle.from_sin_sq(0.4)
    chunk = protocol._CHUNK_TRIALS
    start, n = chunk - 37, chunk + 100  # two chunks, off the chunk grid
    stats = run_trajectories(config, UNBALANCED, theta, n, trial_start=start)
    reference = scalar_trajectories(config, UNBALANCED, theta, n, trial_start=start)
    whole = run_trajectories(config, UNBALANCED, theta, start + n)
    for column, expected in zip(
        (stats.trial, stats.attempts, stats.iterates, stats.status, stats.fidelity), reference
    ):
        np.testing.assert_array_equal(column, expected)
    for name in ("attempts", "iterates", "status", "fidelity"):
        np.testing.assert_array_equal(getattr(stats, name), getattr(whole, name)[start:])
    assert set(stats.status.tolist()) == {s.value for s in Status}


@pytest.mark.parametrize("t1, t2", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
def test_trajectories_at_certain_click(t1, t2):
    # p_click = 1 and eta = 1: one window per herald; after the first
    # outcome three of the four branch weights are exactly zero, so
    # every trial repeats its first outcome up to the cap
    params = ApparatusParams(t1=t1, t2=t2)
    theta = ExcitationAngle.from_sin_sq(1.0)
    assert p_click(params, theta) == 1.0
    assert heralded_state(params, theta).eta == 1.0
    for config in (StrategyConfig.two_iterates_only(rng_seed=3), StrategyConfig.loop(6, rng_seed=3)):
        stats = run_trajectories(config, params, theta, 300)
        np.testing.assert_array_equal(stats.attempts, stats.iterates)
        assert np.all(stats.iterates == config.max_iterates)
        assert np.all(stats.status == Status.PENDING.value)
        reference = scalar_trajectories(config, params, theta, 300)
        np.testing.assert_array_equal(stats.attempts, reference[1])
        np.testing.assert_array_equal(stats.status, reference[3])


def test_trajectory_cells_match_depth_profile():
    # chi-square of the (iterates, status) cells against the exact tree,
    # rejected at p = 1e-3; every expected count is above 20
    theta = ExcitationAngle.from_sin_sq(0.4)
    config = StrategyConfig.loop(10, rng_seed=2024)
    n = 200_000
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS), heralded_state(UNBALANCED, theta), config
    )
    expected = {
        (depth, status.value): n * mass
        for depth, row in tree.depth_profile().items()
        for status, mass in row.items()
    }
    assert len(expected) == 20 and min(expected.values()) > 20.0
    stats = run_trajectories(config, UNBALANCED, theta, n)
    cells, counts = np.unique(np.stack([stats.iterates, stats.status]), axis=1, return_counts=True)
    observed = {(int(d), int(s)): int(c) for (d, s), c in zip(cells.T, counts)}
    assert set(observed) <= set(expected)
    stat = sum((observed.get(cell, 0) - e) ** 2 / e for cell, e in expected.items())
    assert chi2_sf(stat, len(expected) - 1) > 1e-3, stat


def test_windows_per_herald_match_click_probability():
    # z-scores of the mean windows per herald against 1 / p_click over
    # 20 seeds, each from about 10^4 geometric waits at T = 1e-2; checks
    # at p = 1e-3: each |z| (Bonferroni), their mean, their sum of squares
    params = ApparatusParams(t1=1e-2, t2=1e-2)
    theta = ExcitationAngle.from_sin_sq(0.1)
    pc = p_click(params, theta)
    seeds = range(20)
    z = []
    for seed in seeds:
        stats = run_trajectories(StrategyConfig.loop(4, rng_seed=seed), params, theta, 4000)
        heralds = int(np.sum(stats.iterates))
        mean = float(np.sum(stats.attempts)) / heralds
        z.append((mean - 1.0 / pc) / (math.sqrt(1.0 - pc) / pc / math.sqrt(heralds)))
    alpha = 1e-3
    normal = NormalDist()
    assert max(abs(v) for v in z) < normal.inv_cdf(1.0 - alpha / (2 * len(z))), z
    assert abs(sum(z)) / math.sqrt(len(z)) < normal.inv_cdf(1.0 - alpha / 2), z
    tail = chi2_sf(sum(v * v for v in z), len(z))
    assert alpha / 2 < tail < 1.0 - alpha / 2, z


def test_sample_stats_record_stream_version():
    theta = ExcitationAngle.from_sin_sq(0.4)
    config = StrategyConfig.loop(6, rng_seed=5)
    left = run_trajectories(config, UNBALANCED, theta, 20)
    right = run_trajectories(config, UNBALANCED, theta, 20, trial_start=20)
    assert left.stream == right.stream == STREAM_VERSION
    assert left.merge(right).stream == STREAM_VERSION
    older = dataclasses.replace(right, stream=STREAM_VERSION - 1)
    with pytest.raises(ValueError):
        left.merge(older)
    with pytest.raises(ValueError):
        older.merge(left)


def csv_writer_reference(stats, path) -> None:
    """The row format of ``SampleStats.write_csv``, through ``csv.writer``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "trial", "attempts", "iterates", "status", "fidelity"])
        for k in range(stats.n_trials):
            writer.writerow(
                [
                    stats.rng_seed,
                    int(stats.trial[k]),
                    int(stats.attempts[k]),
                    int(stats.iterates[k]),
                    Status(stats.status[k]).name.lower(),
                    repr(float(stats.fidelity[k])),
                ]
            )


def test_write_csv_matches_csv_writer(tmp_path):
    rng = RNG(151)
    n = 2 * protocol._CSV_BATCH_ROWS + 300
    fidelity = rng.uniform(0.0, 1.0, n)
    fidelity[::7] = np.nan
    fidelity[1:6] = (1e-300, 5e-324, 1.0 / 3.0, 0.1, 1.0)
    stats = protocol.SampleStats(
        StrategyConfig.loop(16, rng_seed=2**63 + 11),
        UNBALANCED,
        0.7,
        np.arange(10**9, 10**9 + 3 * n, 3, dtype=np.int64),
        rng.integers(1, 10**12, n),
        rng.integers(2, 17, n),
        (np.arange(n) % 4).astype(np.int8),
        fidelity,
    )
    stats.write_csv(tmp_path / "batched.csv")
    csv_writer_reference(stats, tmp_path / "reference.csv")
    written = (tmp_path / "batched.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\n") == n + 1
    for name in (b",pending,", b",success_parity_even,", b",success_parity_odd,", b",failure,"):
        assert name in written
