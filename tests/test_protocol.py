"""Protocol layer: iterate routes, classification, exact trees, sampling."""

from __future__ import annotations

import csv
import hashlib
import math
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from helpers import (
    LeafTree,
    basis_state,
    bell_even,
    bell_odd,
    count_class_tree,
    depth_profile,
    fold_bound,
    gamma,
    leaf_success_fidelity,
)
from paritydistill import (
    CLIENT_LABELS,
    DensityMatrix,
    DegenerateParameterError,
    HeraldedPair,
    ApparatusParams,
    IterateOutcome,
    Leaf,
    OUTCOMES,
    Objective,
    Status,
    StrategyConfig,
    classify,
    eta_weight,
    heralded_state,
    heralded_state_with_dark_counts,
    loop_interval_probabilities,
    optimize_theta,
    p_click,
    plus_state,
    run_iterate_exact,
    run_strategy_exact,
    run_trajectories,
    theta_from_sin_sq,
)
from paritydistill import _csvbytes, protocol
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


def circuit_tree(clients, pair, config) -> LeafTree:
    """Reference tree: one circuit iterate per outcome history.

    Expands every history separately, with per-path pruning, so it is
    exponential in the iterate cap; the class walk of
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
                    leaves.append(Leaf(new_history, branch.state, status, joint))
        frontier = next_frontier
    return LeafTree(clients.normalized(), tuple(leaves), pruned)


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


# Scalar sampler references: per-trial loops over Python floats and
# integers that recompute the counter uniforms with Python integers.
# Draw 0 picks a trial's client entry ``a`` of |++>, each of weight 1/4,
# and the outcomes are then independent, of the same weights at every
# depth.  ``scalar_trajectories`` repeats the vectorised sampler's tables
# in the same order, with numpy's ``exp`` and ``log`` (whose bits differ
# from ``math``'s), so the two must agree bit for bit.
# ``history_trajectories`` is the independent oracle: it takes the weights
# off the dense branch maps of |a><a| and carries each trial's |++>
# compact state through its history for the fidelity; it agrees up to the
# rounding of the two routes.  Classification goes through ``classify``
# in both.

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


def compact_tables(pair) -> tuple[list, list]:
    """Per-outcome multipliers of the compact state, as nested lists.

    From |++> the masks never populate a coherence outside the
    opposite-parity pairs, so a state is eight reals: the diagonal d0..d3,
    then (re, im) of rho[1,2] and of rho[0,3].  Row ``r`` of the successor
    under outcome ``k`` is ``scale[r][k] * row_r + twist[r][k] *
    partner_r``: the complex product for a coherence, a plain scaling for
    the diagonal.
    """
    masks = protocol._outcome_masks(pair)
    scale = np.zeros((8, 4))
    twist = np.zeros((8, 4))
    scale[:4] = masks.diagonal(axis1=1, axis2=2).real.T
    for row, (a, b) in ((4, (1, 2)), (6, (0, 3))):
        scale[row] = scale[row + 1] = masks[:, a, b].real
        twist[row] = -masks[:, a, b].imag
        twist[row + 1] = masks[:, a, b].imag
    return scale.tolist(), twist.tolist()


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


def _pick(u: float, probs) -> int:
    """Inverse CDF on the cumulative sums of ``probs``, in index order."""
    t0 = probs[0]
    t1 = probs[1] + t0
    t2 = probs[2] + t1
    r = u * (probs[3] + t2)
    return (r >= t0) + (r >= t1) + (r >= t2)


def _trajectories(
    config, params, theta, n_trials, trial_start, weights, fidelity, start=None, advance=None
):
    """The per-trial loop shared by both references.

    ``weights[a]`` are the outcome probabilities of client entry ``a``.  A
    trial's state starts as ``start``; ``advance(state, k)``, if given,
    gives its next state, and ``fidelity(state, history)`` a success's
    fidelity.
    """
    pc = p_click(params, theta)
    log_miss = math.log1p(-pc) if pc < 1.0 else None
    seed = config.rng_seed
    rows = []
    for trial in range(trial_start, trial_start + n_trials):
        p = weights[int(4.0 * counter_uniform(seed, trial, 0))]
        state = start
        history: list[IterateOutcome] = []
        windows = 0
        status = Status.PENDING
        while status is Status.PENDING and len(history) < config.max_iterates:
            depth = len(history)
            u = counter_uniform(seed, trial, 2 * depth + 1)
            windows += 1 if log_miss is None else math.floor(math.log1p(-u) / log_miss) + 1
            k = _pick(counter_uniform(seed, trial, 2 * depth + 2), p)
            assert p[k] > 0.0, "a zero-probability outcome was chosen"
            history.append(OUTCOMES[k])
            if advance is not None:
                state = advance(state, k)
            status = classify(history)
        fid = fidelity(state, history) if status.is_success else float("nan")
        rows.append((trial, windows, len(history), status.value, fid))
    return tuple(np.array(col) for col in zip(*rows))


def history_trajectories(config, params, theta, n_trials, trial_start=0):
    """The history oracle: weights off the dense branch maps of each client
    entry, and each trial's compact state, advanced per outcome."""
    pair = heralded_state(params, theta)
    scale, twist = compact_tables(pair)
    pair_angles, weights = (pair.eta, pair.phi, pair.delta), []
    for a in range(4):
        basis = basis_state(f"{a:02b}", CLIENT_LABELS).elements
        maps = [branch_map_elements(basis, *pair_angles, oc.i, oc.j) for oc in OUTCOMES]
        weights.append([float(m.trace().real) for m in maps])

    def advance(state, k):
        return _compact_step(state, k, _outcome_probabilities(state, scale)[k], scale, twist)

    def fidelity(state, history):
        if history[0].parity == 0:
            return min(max(0.5 * (state[1] + state[2]) + state[4], 0.0), 1.0)
        return min(max(0.5 * (state[0] + state[3]) + state[6], 0.0), 1.0)

    return _trajectories(
        config, params, theta, n_trials, trial_start, weights, fidelity, PLUS_COMPACT, advance
    )


def _exp(x: float) -> float:
    return float(np.exp(x))


def _log(x: float) -> float:
    """numpy's log of a positive float, -inf at zero."""
    return float(np.log(x)) if x > 0.0 else -math.inf


def scalar_trajectories(config, params, theta, n_trials, trial_start=0):
    """The table reference: outcome ``k`` of client entry ``a`` weighs
    ``m_k[a]``, mask ``k``'s diagonal.  A pending trial of first parity
    ``p`` has drawn ``n`` times the outcome ``A`` of that parity with bit
    ``j = 0``, and its success after ``2 n`` outcomes holds ``Q^n`` on
    |++>, ``Q = M_A * M_B``, ``B = 3 - A``.
    """
    masks = protocol._outcome_masks(heralded_state(params, theta))
    diag = [[float(masks[k, a, a].real) for a in range(4)] for k in range(4)]

    def fidelity(_, history):
        a = (0, 2)[history[0].parity]
        n = sum(oc.index == a for oc in history)
        q = [diag[a][i] * diag[3 - a][i] for i in range(4)]
        i, j = protocol._DELIVERED[history[0].parity]
        up, down = complex(masks[a, i, j]), complex(masks[3 - a, i, j])
        q.append(up.real * down.real - up.imag * down.imag)
        top = max(q[:4])
        x = [_exp(n * _log(v / top)) for v in q]
        total = ((x[0] + x[1]) + x[2]) + x[3]
        fid = (0.5 * (x[i] + x[j]) + x[4]) / total if total > 0.0 else float("nan")
        return min(max(fid, 0.0), 1.0)

    weights = [[diag[k][a] for k in range(4)] for a in range(4)]
    return _trajectories(config, params, theta, n_trials, trial_start, weights, fidelity)


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


@pytest.mark.parametrize("cap", [1, 2, 3, 8])
def test_class_steps_classify_every_prefix(cap):
    # the sampler reads each status off its tables alone: following the
    # next classes from the start class along every frontier-form history
    # of up to cap outcomes gives ``classify`` of each prefix; a run
    # pending after d outcomes is in class 2 (b + cap) + p, b the count of
    # its outcomes with j = 0 less those with j = 1 and p its first parity
    masks = protocol._outcome_masks(HeraldedPair(eta=0.3, phi=0.2, delta=0.1))
    _, _, codes, following, _ = protocol._run_tables(masks, cap)
    frontier = [((), 4 * cap + 2)]
    for depth in range(cap):
        grown = []
        for history, cls in frontier:
            for oc in OUTCOMES:
                prefix, key = history + (oc,), 4 * cls + oc.index
                assert codes[key] == classify(prefix).value, prefix
                if classify(prefix) is Status.PENDING:
                    balance = sum(1 - 2 * o.j for o in prefix)
                    assert following[key] == 2 * (balance + cap) + prefix[0].parity, prefix
                    assert 0 < abs(balance) <= depth + 1, prefix
                    grown.append((prefix, int(following[key])))
        frontier = grown
    # the runs still pending at the cap: a first outcome, then cap - 1 of
    # its parity that never balance
    assert len(frontier) == 4 * math.comb(cap - 1, (cap - 1) // 2)


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(max_iterates=1)
    with pytest.raises(ValueError):
        StrategyConfig(max_iterates=8, rng_seed=-1)
    with pytest.raises(ValueError):
        StrategyConfig(max_iterates=8, rng_seed=2**64)
    assert StrategyConfig(16, rng_seed=2**64 - 1).rng_seed == 2**64 - 1
    # the two-iterate strategy is the default cap of two
    assert StrategyConfig(rng_seed=3) == StrategyConfig(2, rng_seed=3)
    assert StrategyConfig(max_iterates=12).max_iterates == 12


@pytest.mark.parametrize("field", ["max_iterates", "rng_seed"])
def test_strategy_config_takes_integers_only(field):
    with pytest.raises(TypeError):
        StrategyConfig(**{field: 2.5})
    # numpy integers are integers
    assert getattr(StrategyConfig(**{field: np.uint64(3)}), field) == 3


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
        masks = protocol._outcome_masks(pair)
        for oc in OUTCOMES:
            mapped = masks[oc.index] * clients.elements
            assert circuit[oc].probability == pytest.approx(np.trace(mapped).real, abs=1e-12)
            if circuit[oc].state is not None:
                np.testing.assert_allclose(
                    circuit[oc].state.elements, mapped / np.trace(mapped), atol=1e-12
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
        scale = compact_tables(pair)[0]
        probs = _outcome_probabilities(clients.elements.diagonal().real, scale)
        masks = protocol._outcome_masks(pair)
        for idx, oc in enumerate(OUTCOMES):
            assert probs[idx] == pytest.approx(
                np.trace(masks[oc.index] * clients.elements).real, abs=1e-12
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
        theta = theta_from_sin_sq(rng.uniform(0.05, 0.9))
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
    cfg = StrategyConfig()
    tree = run_strategy_exact(clients, HeraldedPair(eta=0.0, phi=0.0, delta=0.0), cfg)
    assert tree.success_probability == pytest.approx(0.5, abs=1e-12)
    assert tree.failure_probability == 0.0
    successes = [l for l in tree.leaves if l.status.is_success]
    assert len(successes) == 4
    for leaf in successes:
        assert classify(leaf.history).is_success


def test_two_pair_success_probability_grid():
    cfg = StrategyConfig()
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
    cfg = StrategyConfig()
    for _ in range(20):
        pair = HeraldedPair(
            eta=0.0, phi=rng.uniform(-0.7, 0.7), delta=rng.uniform(-1.5, 1.5)
        )
        tree = run_strategy_exact(random_pure_clients(rng), pair, cfg)
        assert tree.mean_success_fidelity() >= 1.0 - 1e-10


def test_tree_conserves_probability_and_profiles():
    rng = RNG(127)
    clients = plus_state(CLIENT_LABELS)
    for cfg in (StrategyConfig(), StrategyConfig(max_iterates=7)):
        tree = run_strategy_exact(clients, random_pair(rng), cfg)
        assert tree.total_probability == pytest.approx(1.0, abs=1e-10)
        profile = depth_profile(tree)
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
        clients, HeraldedPair(eta=eta, phi=0.0, delta=0.0), StrategyConfig(cap)
    )
    ps, pf = loop_interval_probabilities(eta, cap)
    profile = depth_profile(tree)
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
        clients, random_pair(rng), StrategyConfig(max_iterates=6)
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
    for cfg in (StrategyConfig(), StrategyConfig(max_iterates=6)):
        for _ in range(5):
            tree = run_strategy_exact(clients, random_pair(rng), cfg)
            failures = [leaf for leaf in tree.leaves if leaf.status is Status.FAILURE]
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
        StrategyConfig(),
        StrategyConfig(max_iterates=5),
        StrategyConfig(max_iterates=8),
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
            assert walk_pruned(tree) == pytest.approx(oracle.pruned_probability, abs=1e-12)
            profile, expect = depth_profile(tree), depth_profile(oracle)
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
                clients, HeraldedPair(eta=eta, phi=0.0, delta=0.0), StrategyConfig(cap)
            )
            assert len(calls) == 0
            ps, pf = loop_interval_probabilities(eta, cap)
            assert tree.success_probability == pytest.approx(ps.sum(), abs=1e-10)
            assert tree.failure_probability == pytest.approx(pf.sum(), abs=1e-10)


def walk_peak(masks: np.ndarray, cap: int) -> tuple[int, int]:
    """Depths ``_walk`` steps through to ``cap``, and its ``tracemalloc`` peak."""
    tracemalloc.start()
    try:
        depths = list(protocol._walk(masks, plus_state(CLIENT_LABELS).elements, cap))
        return len(depths), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_stops_once_nothing_is_pending():
    # At T = 1e-2 and the chain-rate angle every pending class is pruned
    # before depth 200, so a cap of 400 adds nothing: the same leaves,
    # and the same memory.  A walk that kept stepping to the cap would
    # hold failure classes for every depth, O(cap^2) of them: about four
    # times the cap-200 peak at cap 400.
    params = ApparatusParams(t1=1e-2, t2=1e-2)
    pair = heralded_state(params, optimize_theta(params, Objective.CHAIN_RATE).optimal_theta)
    clients = plus_state(CLIENT_LABELS)
    short = run_strategy_exact(clients, pair, StrategyConfig(200))
    long = run_strategy_exact(clients, pair, StrategyConfig(400))
    assert sum(l.probability for l in short.leaves if l.status is Status.PENDING) == 0.0
    assert [(l.history, l.status, l.probability) for l in long.leaves] == [
        (l.history, l.status, l.probability) for l in short.leaves
    ]
    np.testing.assert_array_equal(
        np.stack([l.state.elements for l in long.leaves]),
        np.stack([l.state.elements for l in short.leaves]),
    )
    assert walk_pruned(long) == walk_pruned(short)
    masks = protocol._outcome_masks(pair)
    short_depths, short_peak = walk_peak(masks, 200)
    long_depths, long_peak = walk_peak(masks, 400)
    assert long_depths == short_depths < 199
    assert long_peak <= 1.25 * short_peak, (long_peak, short_peak)


def test_walk_streams_its_depths():
    # nothing is pruned early on this link, so the walk runs to the cap;
    # read depth by depth it holds O(cap) classes (~1.6 MiB at cap 256),
    # where a walk that kept every depth held O(cap^2) (~83 MiB).  The
    # tree's statistics read it so: its 66,852 leaves took ~120 MiB.
    pair = heralded_state(ApparatusParams(t1=0.5, t2=0.5), theta_from_sin_sq(1e-3))
    masks = protocol._outcome_masks(pair)
    clients = plus_state(CLIENT_LABELS)
    tracemalloc.start()
    try:
        depths = sum(1 for _ in protocol._walk(masks, clients.elements, 256))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mean = run_strategy_exact(clients, pair, StrategyConfig(256)).mean_iterates
        tree_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert depths == 255
    assert peak < 8 * 2**20, peak
    assert 2.0 < mean < 256.0
    assert tree_peak < 8 * 2**20, tree_peak


def leaf_order_sum(values) -> float:
    """The terms added one at a time, in order (as ``sum`` adds floats
    through Python 3.11; from 3.12 it compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


def statistics_case(kind: str, rng):
    if kind == "unbalanced":
        params = ApparatusParams(t1=0.02, t2=0.005)
        return heralded_state(params, theta_from_sin_sq(1.0 / 3.0))
    return mask_case(kind, rng)


def leaf_record(tree) -> list[tuple]:
    return [(l.history, l.status, l.probability, l.state.elements.tobytes()) for l in tree.leaves]


def walk_pruned(tree) -> float:
    """The mass the walk behind a tree's leaves pruned, summed to its last depth."""
    *_, last = protocol._walk(tree.masks, tree.initial_clients.elements, tree.cap)
    return float(last[-1])


@pytest.mark.parametrize("kind", ["pair", "dark", "general", "unbalanced"])
def test_tree_statistics_are_leaf_order_sums(kind):
    # the tree's statistics come from the first-passage law and its leaves
    # from the walk: each statistic is the sum over its own leaves in leaf
    # order, within the walk's pruned mass (times the cap for the mean),
    # the law's derived bound (``fold_bound``) and the walk's: a leaf mass
    # carries at most 2 cap + 2 roundings of nonnegative operands, and a
    # leaf-order sum one more per leaf and per iterate product
    rng = RNG(167)
    clients = plus_state(CLIENT_LABELS)
    for cap in (2, 3, 12, 32):
        broker = statistics_case(kind, rng)
        cfg = StrategyConfig(cap)
        tree = run_strategy_exact(clients, broker, cfg)
        statistics = (
            tree.success_probability,
            tree.failure_probability,
            tree.pending_probability,
            tree.pruned_probability,
            tree.total_probability,
            tree.mean_iterates,
            *(tree.status_probability(status) for status in Status),
        )
        assert all(type(value) is float for value in statistics)
        leaves = tree.leaves
        assert leaves and tree.leaves is leaves
        pruned, law = walk_pruned(tree), fold_bound(tree.masks, tree.initial_clients.elements, cap)
        walk = gamma(2 * cap + 4 + len(leaves))

        def near(got: float, values, law_bound: float, weight: float = 1.0) -> None:
            want = leaf_order_sum(values)
            assert abs(got - want) <= weight * pruned * (1.0 + walk) + law_bound + walk * want

        success = (l.probability for l in leaves if l.status.is_success)
        near(tree.success_probability, success, law["success"])
        for status in Status:
            masses = (l.probability for l in leaves if l.status is status)
            near(tree.status_probability(status), masses, law["status"][status.value])
        assert tree.failure_probability == tree.status_probability(Status.FAILURE)
        assert tree.pending_probability == tree.status_probability(Status.PENDING)
        assert tree.pruned_probability == 0.0
        near(tree.total_probability, [*(l.probability for l in leaves), pruned], law["total"], 0.0)
        near(tree.mean_iterates, (l.probability * l.iterates for l in leaves), law["mean"], cap)
        # the leaves do not depend on whether the statistics were read first
        fresh = run_strategy_exact(clients, broker, cfg)
        assert leaf_record(fresh) == leaf_record(tree)
        assert fresh.mean_iterates == tree.mean_iterates
        assert fresh.pruned_probability == tree.pruned_probability


def over_common_denominator(x: float, y: float) -> tuple[int, int, int]:
    """``e``, ``X`` and ``Y`` with ``x = X / 2^e`` and ``y = Y / 2^e``."""
    (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
    e = max(b, d).bit_length() - 1
    return e, a * ((1 << e) // b), c * ((1 << e) // d)


def exact_walk(x: float, y: float, cap: int) -> tuple[int, list[int], list[int]]:
    """The walk of up weight ``x`` and down weight ``y`` in exact integers.

    With ``x = X / 2^e`` and ``y = Y / 2^e``, returns ``e``, then ``W(d)
    2^(e d)`` for ``d = 0 .. cap`` by ``W(d) = (x + y) W(d - 1) - F(d)``, then
    ``F(2 m) 2^(2 m e) = 2 Cat(m - 1) (X Y)^m`` for ``m = 1 .. cap // 2``.
    """
    e, up, down = over_common_denominator(x, y)
    no_return, first, power, catalan = [1], [], 1, 1  # catalan: Cat(m - 1)
    for depth in range(1, cap + 1):
        w = (up + down) * no_return[-1]
        if depth % 2 == 0:
            m = depth // 2
            power *= up * down
            first.append(2 * catalan * power)
            w -= first[-1]
            catalan = catalan * 2 * (2 * m - 1) // (m + 1)
        no_return.append(w)
    return e, no_return, first


def ballot_sum(x: float, y: float, depth: int) -> Fraction:
    """``W(depth)`` by the ballot theorem: of the ``C(d, k)`` walks with
    ``k`` up steps, ``|2 k - d| / d`` never return to zero (Feller, vol. 1,
    ch. III).  Summed over the common denominator of ``x`` and ``y``."""
    e, up, down = over_common_denominator(x, y)
    total, ups = 0, 1
    for k in range(depth + 1):
        total += abs(2 * k - depth) * math.comb(depth, k) // depth * ups * down ** (depth - k)
        ups *= up
    return Fraction(total, 1 << (e * depth))


def exact_error(value: float, exact: int, shift: int) -> float:
    """``|value - exact / 2^shift|``, rounded once."""
    num, den = value.as_integer_ratio()
    top = max(shift, den.bit_length() - 1)
    return abs(num * ((1 << top) // den) - (exact << (top - shift))) / (1 << top)


def test_no_return_weights_match_exact_ballot_sums():
    # the float law's W(d) and F(2 m) against exact sums at every depth to
    # cap 1024, within the README's derived bound: W within gamma_6d s^d and
    # F within gamma_12m F, each plus (d + 1)^2 2^-1074 where values
    # underflow; the two extra roundings cover taking the exact s^d and F
    # to floats here.  The exact recursion is itself held to the ballot
    # sums at some depths
    cap = 1024
    broker, _ = heralded_state_with_dark_counts(
        ApparatusParams(t1=0.3, t2=0.3, p_dark=1e-3), theta_from_sin_sq(1.0 / 3.0)
    )
    diag = protocol._outcome_masks(broker).diagonal(axis1=-2, axis2=-1).real
    dark = zip(diag[protocol._RAISES].ravel().tolist(), diag[protocol._LOWERS].ravel().tolist())
    entries = list(dict.fromkeys([(0.4995, 0.4995), (0.45, 0.35), *dark]))
    assert len(entries) == 5  # two dark-count walks, one of each orientation, and one balanced
    x, y = (np.array(v) for v in zip(*entries))
    first, no_return = protocol._first_passage(x, y, cap)
    assert first.shape == (len(entries), cap // 2) and no_return.shape == (len(entries), cap)
    # an odd cap is the same law, cut short
    short = protocol._first_passage(x, y, 7)
    np.testing.assert_array_equal(short[0], first[:, :3])
    np.testing.assert_array_equal(short[1], no_return[:, :7])
    floor = (np.arange(2, cap + 2) ** 2 * 2.0**-1074).tolist()
    for (xe, ye), f_hat, w_hat in zip(entries, first.tolist(), no_return.tolist()):
        e, w, f = exact_walk(xe, ye, cap)
        for d in (1, 2, 3, 12, 255):
            assert ballot_sum(xe, ye, d) == Fraction(w[d], 1 << (e * d))
        step, power = w[1], 1  # (x + y) 2^e
        for d in range(1, cap + 1):
            power *= step
            bound = gamma(6 * d + 2) * (power / (1 << (e * d))) + floor[d - 1]
            assert exact_error(w_hat[d - 1], w[d], e * d) <= bound, (xe, ye, d)
        for m in range(1, cap // 2 + 1):
            bound = gamma(12 * m + 2) * (f[m - 1] / (1 << (2 * m * e))) + floor[2 * m - 1]
            assert exact_error(f_hat[m - 1], f[m - 1], 2 * m * e) <= bound, (xe, ye, m)


@pytest.mark.parametrize("kind", ["pair", "dark", "general"])
def test_walk_matches_count_class_tree_at_large_caps(kind):
    # an unbalanced link beyond the circuit oracle's reach, leaf by leaf
    # against the count-class dynamic program
    theta = theta_from_sin_sq(1.0 / 3.0)
    params = ApparatusParams(t1=0.02, t2=0.005, p_dark=1e-3)
    broker = {
        "pair": lambda: heralded_state(params, theta),
        "dark": lambda: heralded_state_with_dark_counts(params, theta)[0],
        "general": lambda: mask_case("general", RNG(151)),
    }[kind]()
    clients = plus_state(CLIENT_LABELS)
    for cap in (16, 32):
        cfg = StrategyConfig(cap)
        tree = run_strategy_exact(clients, broker, cfg)
        reference = count_class_tree(clients, broker, cfg)
        classes = {count_class(leaf.history): leaf for leaf in tree.leaves}
        expect = {count_class(leaf.history): leaf for leaf in reference.leaves}
        assert len(classes) == len(tree.leaves)
        assert set(classes) == set(expect)
        for key, leaf in expect.items():
            got = classes[key]
            assert got.status is leaf.status
            assert got.probability == pytest.approx(leaf.probability, abs=1e-12)
            assert np.max(np.abs(got.state.elements - leaf.state.elements)) < 1e-12
        assert walk_pruned(tree) == pytest.approx(reference.pruned_probability, abs=1e-12)


def test_representative_histories_are_frontier_form():
    # each leaf's history is a well-formed run of its own class
    rng = RNG(163)
    kinds = ("pair", "dark", "general")
    for cap in range(2, 13):
        cfg = StrategyConfig() if cap == 2 else StrategyConfig(cap)
        tree = run_strategy_exact(plus_state(CLIENT_LABELS), mask_case(kinds[cap % 3], rng), cfg)
        for leaf in tree.leaves:
            assert classify(leaf.history) is leaf.status
            assert len(leaf.history) == leaf.iterates
            for end in range(1, len(leaf.history)):
                assert classify(leaf.history[:end]) is Status.PENDING
    # and so is the member named for each pending count class (p, n): its
    # first parity is p and n of its outcomes are p's raising one
    for length in range(1, 13):
        for p in (0, 1):
            for n in range(length + 1):
                if 2 * n == length:
                    continue
                history = protocol._representative(p, n, length)
                assert len(history) == length and history[0].parity == p
                assert sum(o.index == protocol._RAISES[p] for o in history) == n
                for end in range(1, length + 1):
                    assert classify(history[:end]) is Status.PENDING


def test_walk_holds_only_reachable_classes():
    # after d outcomes a pending run is in one of the d + 1 count classes
    # of its first parity, and only the balanced one, n = d / 2, is empty:
    # every other class the walk carries holds mass
    masks = protocol._outcome_masks(mask_case("general", RNG(173)))
    rho = plus_state(CLIENT_LABELS).elements
    walk = enumerate(protocol._walk(masks, rho, 16), start=2)
    for depth, (_, _, (pending, mass), pruned) in walk:
        assert pending.shape == (2, depth + 1, 4, 4)
        balanced = 2 * np.arange(depth + 1) == depth
        np.testing.assert_array_equal(mass == 0.0, np.broadcast_to(balanced, (2, depth + 1)))
    assert depth == 16 and pruned == 0.0


def test_tree_rejects_broker_that_does_not_conserve_probability():
    pair = HeraldedPair(eta=0.2, phi=0.1, delta=0.3)
    half = DensityMatrix(0.5 * pair.expand().elements, ("B1", "B2"))
    with pytest.raises(DegenerateParameterError, match="masks"):
        run_strategy_exact(plus_state(CLIENT_LABELS), half, StrategyConfig(4))


def broker_stack(rng, n: int) -> np.ndarray:
    """Dark-count, parametric and general brokers, stacked (n, 4, 4)."""
    kinds = ("pair", "dark", "general")
    cases = [mask_case(kinds[i % 3], rng) for i in range(n)]
    return np.stack(
        [(b.expand() if isinstance(b, HeraldedPair) else b).elements for b in cases]
    )


def test_stacked_masks_gather_each_broker():
    brokers = broker_stack(RNG(23), 12)
    masks = protocol._outcome_masks(brokers)
    assert masks.shape == (12, 4, 4, 4)
    for broker, gathered in zip(brokers, masks):
        one = protocol._outcome_masks(DensityMatrix(broker, ("B1", "B2")))
        np.testing.assert_array_equal(gathered, one)
    grid = protocol._outcome_masks(brokers.reshape(3, 4, 4, 4))
    np.testing.assert_array_equal(grid.reshape(masks.shape), masks)


def test_stacked_masks_reject_a_single_bad_broker():
    brokers = broker_stack(RNG(29), 6)
    brokers[4] *= 0.5
    with pytest.raises(DegenerateParameterError, match="masks"):
        protocol._outcome_masks(brokers)
    with pytest.raises(ValueError, match="two qubits"):
        protocol._outcome_masks(np.zeros((3, 2, 2), dtype=complex))


def fold_fidelity(masks, rho, cap):
    """The exact tree's statistics over a stack of masks, with the mean
    success fidelity the tree reads off them."""
    *sums, overlap = protocol._fold(masks, rho, cap)
    return (*sums, overlap, protocol._success_fidelity(sums[1], overlap))


@pytest.mark.parametrize("clients_kind", ["plus", "pure"])
def test_two_iterate_closed_form_matches_tree(clients_kind):
    # the cap-2 fold over a stack against one tree per broker: the class
    # masses bit for bit, the fidelity against the leaves scored with
    # ``fidelity``
    rng = RNG(31)
    cfg = StrategyConfig()
    for _ in range(5):
        clients = plus_state(CLIENT_LABELS) if clients_kind == "plus" else random_pure_clients(rng)
        brokers = broker_stack(rng, 9)
        masks = protocol._outcome_masks(brokers)
        by_status, p_two, total, mean, _, fid = fold_fidelity(
            masks, clients.normalized().elements, 2
        )
        for k, broker in enumerate(brokers):
            tree = run_strategy_exact(clients, DensityMatrix(broker, ("B1", "B2")), cfg)
            assert p_two[k] == tree.success_probability
            assert tuple(by_status[k].tolist()) == tree.status_masses
            assert mean[k] == tree.mean_iterates
            assert total[k] == pytest.approx(tree.total_probability, abs=1e-15)
            assert fid[k] == pytest.approx(leaf_success_fidelity(tree), rel=1e-13, nan_ok=True)
            # each member's success fidelity is its own tree's, bit for bit
            assert fid[k] == tree.mean_success_fidelity()


@pytest.mark.parametrize("cap", [2, 8, 32])
def test_success_fidelities_match_the_walk_class_by_class(cap):
    # the success-fidelity law against every success class the walk keeps,
    # each scored against its parity's target built here from the clients
    rng = RNG(59 + cap)
    scored = 0
    for kind in ("pair", "dark", "general") * 3:
        for clients in (plus_state(CLIENT_LABELS), random_pure_clients(rng)):
            rho = clients.normalized().elements
            masks = protocol._outcome_masks(mask_case(kind, rng))
            fid, rank_one = protocol._success_fidelities(masks, rho, np.arange(1, cap // 2 + 1))
            assert fid.shape == (cap // 2, 2) and rank_one.tolist() == [True, True]
            targets = np.zeros((2, 4, 4), dtype=complex)
            for p, (i, k) in enumerate(protocol._DELIVERED.tolist()):
                keep = np.ix_([i, k], [i, k])
                targets[p][keep] = rho[keep] / (rho[i, i] + rho[k, k]).real
            for depth, ((won, won_mass), *_) in enumerate(protocol._walk(masks, rho, cap), 2):
                for p, s in np.argwhere(won_mass > 0.0).tolist():
                    overlap = np.vdot(targets[p], won[p, s]).real / won_mass[p, s]
                    score = min(max(overlap, 0.0), 1.0)
                    assert fid[depth // 2 - 1, p] == pytest.approx(score, rel=0, abs=1e-14)
                    scored += 1
    assert scored >= 18  # every run has success mass at depth 2


def test_success_fidelities_of_a_stack_are_its_members():
    # elementwise over the stack: each member gets the bits of its own call
    masks = protocol._outcome_masks(broker_stack(RNG(47), 12))
    rho = random_pure_clients(RNG(53)).elements
    pairs = np.arange(1, 17)
    fid, rank_one = protocol._success_fidelities(masks, rho, pairs)
    assert fid.shape == (12, 16, 2) and rank_one.all()
    for member, expect in zip(masks, fid):
        one, one_rank = protocol._success_fidelities(member, rho, pairs)
        np.testing.assert_array_equal(one, expect)
        np.testing.assert_array_equal(one_rank, rank_one)
    grid, _ = protocol._success_fidelities(masks.reshape(3, 4, 4, 4, 4), rho, pairs)
    np.testing.assert_array_equal(grid.reshape(fid.shape), fid)


def test_stacked_fold_equals_its_flattened_form():
    # a 2-D stack of brokers folds exactly as the same brokers in a row
    masks = protocol._outcome_masks(broker_stack(RNG(43), 12))
    grid = masks.reshape(3, 4, 4, 4, 4)
    rho = plus_state(CLIENT_LABELS).elements
    for cap in (2, 6):
        flat = fold_fidelity(masks, rho, cap)
        stacked = fold_fidelity(grid, rho, cap)
        assert len(flat) == len(stacked) == 6
        for x, y in zip(flat, stacked):
            assert y.shape[:2] == (3, 4)
            np.testing.assert_array_equal(y.reshape(x.shape), x)


def test_two_iterate_closed_form_is_nan_without_success_mass():
    # |11> brokers only ever repeat one outcome: no success mass survives
    contaminated = np.zeros((2, 4, 4), dtype=complex)
    contaminated[:, 3, 3] = 1.0
    masks = protocol._outcome_masks(contaminated)
    clients = plus_state(CLIENT_LABELS)
    _, p_two, *_, fid = fold_fidelity(masks, clients.elements, 2)
    np.testing.assert_array_equal(p_two, 0.0)
    assert np.isnan(fid).all()
    broker = DensityMatrix(contaminated[0], ("B1", "B2"))
    tree = run_strategy_exact(clients, broker, StrategyConfig(4))
    assert tree.success_probability == 0.0
    assert math.isnan(tree.mean_success_fidelity())


def test_two_iterate_closed_form_checks_mass_and_purity():
    masks = protocol._outcome_masks(broker_stack(RNG(37), 6))
    masks[2] *= 1.0 + 1e-9
    plus = plus_state(CLIENT_LABELS).elements
    with pytest.raises(DegenerateParameterError, match="lost probability mass"):
        protocol._fold(masks, plus, 2)
    masks[2] /= 1.0 + 1e-9
    # mixed clients: each delivered-parity target is mixed, so the masses
    # stand but a fidelity raises, over a stack and in a tree
    mixed = random_mixed_clients(RNG(41))
    with pytest.raises(DegenerateParameterError, match="rank-one target"):
        fold_fidelity(masks, mixed.elements, 2)
    pair = HeraldedPair(eta=0.2, phi=0.1, delta=0.3)
    tree = run_strategy_exact(mixed, pair, StrategyConfig(4))
    assert tree.success_probability > 0.0
    with pytest.raises(DegenerateParameterError, match="rank-one target"):
        tree.mean_success_fidelity()
    # basis clients: one parity's target vanishes, and no success lands there
    for bits in ("00", "01", "10", "11"):
        clients = basis_state(bits, CLIENT_LABELS)
        tree = run_strategy_exact(clients, pair, StrategyConfig(4))
        assert tree.success_probability > 0.0
        expect = leaf_success_fidelity(tree)
        assert tree.mean_success_fidelity() == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("entry", [(1, 1), (1, 2)], ids=["diagonal", "coherence"])
def test_nan_brokers_raise(entry):
    # NaN fails every comparison with a tolerance: a NaN diagonal entry once
    # gave a tree with no leaves and no mass, a NaN coherence a NaN fidelity
    # beside finite masses
    elements = HeraldedPair(eta=0.2, phi=0.1, delta=0.3).expand().elements.copy()
    elements[entry] = np.nan
    broker = DensityMatrix(elements, ("B1", "B2"), validate=False)
    clients = plus_state(CLIENT_LABELS)
    with pytest.raises(DegenerateParameterError, match="masks must be finite"):
        run_strategy_exact(clients, broker, StrategyConfig(4))
    with pytest.raises(DegenerateParameterError, match="masks must be finite"):
        protocol._fold(protocol._outcome_masks(elements[None]), clients.elements, 2)


def test_walk_and_overlap_checks_reject_nan():
    clients = plus_state(CLIENT_LABELS)
    pair = HeraldedPair(eta=0.2, phi=0.1, delta=0.3)
    masks = protocol._outcome_masks(pair)[None]
    bad = masks.copy()
    bad[0, 0, 1, 1] = np.nan
    with pytest.raises(DegenerateParameterError, match="lost probability mass"):
        list(protocol._walk(bad[0], clients.elements, 4))
    rho = clients.elements.copy()
    rho[1, 2] = np.nan
    with pytest.raises(DegenerateParameterError, match="rank-one target"):
        fold_fidelity(masks, rho, 2)
    unchecked = DensityMatrix(rho, CLIENT_LABELS, validate=False)
    tree = run_strategy_exact(unchecked, pair, StrategyConfig(4))
    with pytest.raises(DegenerateParameterError, match="rank-one target"):
        tree.mean_success_fidelity()


def test_mean_success_fidelity_builds_no_leaves(monkeypatch):
    # the fidelity is read off the fold's overlap sum: no walk, no leaf
    walks = []
    walk = protocol._walk
    monkeypatch.setattr(protocol, "_walk", lambda *args: walks.append(args) or walk(*args))
    pair = heralded_state(ApparatusParams(t1=1e-2, t2=1e-2), theta_from_sin_sq(0.14))
    tree = run_strategy_exact(plus_state(CLIENT_LABELS), pair, StrategyConfig(12))
    fid = tree.mean_success_fidelity()
    assert "leaves" not in vars(tree)
    assert len(walks) == 0
    assert fid == pytest.approx(leaf_success_fidelity(tree), abs=1e-12)


def test_fully_contaminated_tree_never_classifies():
    clients = plus_state(CLIENT_LABELS)
    tree = run_strategy_exact(
        clients, HeraldedPair(eta=1.0, phi=0.0, delta=0.0), StrategyConfig(5)
    )
    assert tree.pending_probability == pytest.approx(1.0, abs=1e-12)
    assert tree.success_probability == 0.0
    assert tree.failure_probability == 0.0


# ---------------------------------------------------------------------------
# Compact states and the sampler's tables


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
        scale, twist = compact_tables(pair)
        compact = compact_of(m)
        probs = _outcome_probabilities(compact, scale)
        for oc in OUTCOMES:
            dense = branch_map_elements(m, pair.eta, pair.phi, pair.delta, oc.i, oc.j)
            weight = dense.trace().real
            assert probs[oc.index] == pytest.approx(weight, abs=1e-13)
            nxt = _compact_step(compact, oc.index, probs[oc.index], scale, twist)
            np.testing.assert_allclose(nxt, compact_of(dense / weight), atol=1e-12)


def test_vectorised_step_matches_dense_branch_map():
    # the mixture identity, the exact link between the sampled law and the
    # physics: the masks act entrywise and sum to one on the diagonal, so
    # a run of outcomes k_i from any clients rho has the probability
    # sum_a rho_aa prod_i m_{k_i}[a], with m read off the sampler's
    # cumulative weights, and it must equal the trace of the circuit's
    # dense branch maps applied in order
    rng = RNG(139)
    clients = {
        "plus": lambda: plus_state(CLIENT_LABELS),
        "pure": lambda: random_pure_clients(rng),
        "mixed": lambda: random_mixed_clients(rng),
    }
    compared = 0
    for kind in ("pair", "dark", "general"):
        for make in clients.values():
            for _ in range(4):
                broker, state = mask_case(kind, rng), make()
                thresholds = protocol._run_tables(protocol._outcome_masks(broker), 2)[0]
                m = np.diff(thresholds, axis=0, prepend=0.0)  # (k, a)
                mixture, trace = state.elements.diagonal().real, 1.0
                for _ in range(int(rng.integers(1, 13))):
                    branches = run_iterate_exact(state, broker)
                    probs = np.array([branches[oc].probability for oc in OUTCOMES])
                    k = int(rng.choice(4, p=probs / probs.sum()))
                    state, trace = branches[OUTCOMES[k]].state, trace * probs[k]
                    mixture = mixture * m[k]
                    assert float(mixture.sum()) == pytest.approx(trace, abs=1e-13)
                    compared += 1
    assert compared > 200


def test_vectorised_step_rejects_zero_weight(monkeypatch):
    # on the certain-click link each client entry allows one outcome
    # alone, which its trials repeat: the tables flag one positive weight
    # per entry, and its partner 3 - k is not flagged, so a trial handed
    # that zero-weight outcome at depth 1 raises
    params, theta = ApparatusParams(t1=1.0, t2=1.0), theta_from_sin_sq(1.0)
    cap = 6
    masks = protocol._outcome_masks(heralded_state(params, theta))
    thresholds, positive, *_ = protocol._run_tables(masks, cap)
    assert np.isfinite(thresholds).all()
    flags = positive.reshape(4, 4)  # (entry, outcome)
    assert flags.sum(axis=1).tolist() == [1, 1, 1, 1]
    assert not flags[np.arange(4), 3 - flags.argmax(axis=1)].any()
    pick = protocol._pick_outcome
    depths = []

    def partner_at_depth_one(thresholds, u):
        outcome = pick(thresholds, u)
        depths.append(len(depths))
        if depths[-1] == 1:
            outcome[0] = 3 - outcome[0]
        return outcome

    monkeypatch.setattr(protocol, "_pick_outcome", partner_at_depth_one)
    with pytest.raises(DegenerateParameterError, match="zero probability"):
        run_trajectories(StrategyConfig(cap, rng_seed=3), params, theta, 300)
    assert depths == [0, 1]


def test_pick_outcome_never_chooses_zero_probability():
    rng = RNG(149)
    lowest, highest = 0.0, 1.0 - 2.0**-53
    for pattern in range(1, 16):
        support = [(pattern >> k) & 1 for k in range(4)]
        for _ in range(20):
            probs = np.array(support, dtype=float)[:, None] * rng.uniform(1e-300, 1.0, (4, 1))
            probs = np.repeat(probs, 3, axis=1)
            thresholds = np.cumsum(probs, axis=0)
            chosen = protocol._pick_outcome(thresholds, np.array([lowest, 0.5, highest]))
            assert all(support[k] for k in chosen), (support, chosen)


# ---------------------------------------------------------------------------
# Monte Carlo trajectories


def test_trajectory_input_validation():
    params = ApparatusParams(t1=0.5, t2=0.5)
    theta = theta_from_sin_sq(0.3)
    cfg = StrategyConfig(rng_seed=1)
    with pytest.raises(ValueError):
        run_trajectories(cfg, params, theta, 0)
    with pytest.raises(ValueError):
        run_trajectories(cfg, params, theta, 10, trial_start=-1)
    from paritydistill import DegenerateParameterError

    with pytest.raises(DegenerateParameterError):
        run_trajectories(cfg, params, 0.0, 10)


def test_trajectory_indices_stay_below_two_to_the_63():
    # np.arange of int64 trial indices once wrapped past 2**63 - 1
    params = ApparatusParams(t1=0.5, t2=0.5)
    theta = theta_from_sin_sq(0.3)
    cfg = StrategyConfig(rng_seed=1)
    for start in (2**63 - 2, 2**63):
        with pytest.raises(ValueError, match=r"leave the range \[0, 2\*\*63\)"):
            run_trajectories(cfg, params, theta, 4, trial_start=start)
    last = run_trajectories(cfg, params, theta, 4, trial_start=2**63 - 4)
    assert last.trial.tolist() == list(range(2**63 - 4, 2**63))


def test_trajectories_reject_dark_counts():
    # the sampler models the dark-free link; it once sampled that link and
    # recorded the dark-count probability it was given
    params = ApparatusParams(t1=0.1, t2=0.1, p_dark=0.2)
    with pytest.raises(DegenerateParameterError, match="dark-free"):
        run_trajectories(StrategyConfig(2, 7), params, 0.6, 4)


@pytest.mark.parametrize("count", ["n_trials", "trial_start"])
def test_trajectory_counts_take_integers_only(count):
    # arange would truncate trial_start=1.5 and quietly run trials 1..n
    params = ApparatusParams(t1=0.5, t2=0.5)
    cfg = StrategyConfig(rng_seed=1)
    counts = {"n_trials": 10, "trial_start": 1}
    dark = 0.0  # nothing to sample: the type check comes first
    with pytest.raises(TypeError):
        run_trajectories(cfg, params, dark, **{**counts, count: counts[count] + 0.5})
    theta = theta_from_sin_sq(0.3)
    as_numpy = run_trajectories(cfg, params, theta, **{**counts, count: np.int64(counts[count])})
    as_int = run_trajectories(cfg, params, theta, **counts)
    np.testing.assert_array_equal(as_numpy.trial, as_int.trial)
    np.testing.assert_array_equal(as_numpy.attempts, as_int.attempts)


def test_trajectories_near_lossless_balanced_point():
    # t1 = t2 = 1 with a weak drive: eta is tiny and the two-iterate
    # success probability sits just below 1/2
    params = ApparatusParams(t1=1.0, t2=1.0)
    theta = theta_from_sin_sq(1e-3)
    cfg = StrategyConfig(rng_seed=11)
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
    theta = theta_from_sin_sq(0.3)
    cfg = StrategyConfig(rng_seed=23)
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
    theta = theta_from_sin_sq(0.5)
    cfg = StrategyConfig(max_iterates=8, rng_seed=37)
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
    theta = theta_from_sin_sq(0.4)
    cfg = StrategyConfig(max_iterates=6, rng_seed=5)
    a = run_trajectories(cfg, params, theta, 500)
    b = run_trajectories(cfg, params, theta, 500)
    np.testing.assert_array_equal(a.attempts, b.attempts)
    np.testing.assert_array_equal(a.iterates, b.iterates)
    np.testing.assert_array_equal(a.status, b.status)
    np.testing.assert_array_equal(a.fidelity, b.fidelity)


def test_trajectories_are_partition_invariant():
    params = ApparatusParams(t1=0.6, t2=0.3)
    theta = theta_from_sin_sq(0.4)
    cfg = StrategyConfig(max_iterates=6, rng_seed=5)
    whole = run_trajectories(cfg, params, theta, 400)
    left = run_trajectories(cfg, params, theta, 250)
    right = run_trajectories(cfg, params, theta, 150, trial_start=250)
    assert right.theta == whole.theta
    for column in ("trial", "attempts", "iterates", "status", "fidelity"):
        joined = np.concatenate([getattr(left, column), getattr(right, column)])
        np.testing.assert_array_equal(joined, getattr(whole, column))


def test_sample_stats_csv_format(tmp_path):
    params = ApparatusParams(t1=0.6, t2=0.3)
    theta = theta_from_sin_sq(0.4)
    stats = run_trajectories(StrategyConfig(rng_seed=9), params, theta, 5)
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
BALANCED = ApparatusParams(t1=0.2, t2=0.2)


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


CERTAIN_CLICK = ApparatusParams(t1=1.0, t2=1.0)


def cap_one_config(rng_seed: int) -> StrategyConfig:
    """A config of cap 1, which ``StrategyConfig`` rejects, since no run
    classifies in one iterate; the sampler runs it, every trial pending."""
    config = StrategyConfig(rng_seed=rng_seed)
    object.__setattr__(config, "max_iterates", 1)
    return config


SAMPLER_CASES = pytest.mark.parametrize(
    "config, params, sin_sq",
    [
        # one iterate: the start class alone, and no fidelity
        (cap_one_config(17), UNBALANCED, 0.4),
        (StrategyConfig(rng_seed=17), UNBALANCED, 0.4),
        (StrategyConfig(10, rng_seed=17), UNBALANCED, 0.4),
        # survivors of the last depth are never classified again
        (StrategyConfig(3, rng_seed=17), UNBALANCED, 0.4),
        (StrategyConfig(10, rng_seed=17), BALANCED, 0.4),
        # long runs: many classes live at once, some to the cap
        (StrategyConfig(64, rng_seed=17), UNBALANCED, 0.1),
        # three of four branch weights are exactly zero after depth 0
        (StrategyConfig(6, rng_seed=17), CERTAIN_CLICK, 1.0),
    ],
    ids=[
        "cap1",
        "two_iterates",
        "loop",
        "loop_cap3",
        "loop_balanced",
        "loop_cap64",
        "certain_click",
    ],
)


@SAMPLER_CASES
def test_vectorised_sampler_matches_scalar_reference(config, params, sin_sq):
    theta = theta_from_sin_sq(sin_sq)
    chunk = protocol._CHUNK_TRIALS
    start, n = chunk - 37, chunk + 100  # two chunks, off the chunk grid
    stats = run_trajectories(config, params, theta, n, trial_start=start)
    reference = scalar_trajectories(config, params, theta, n, trial_start=start)
    whole = run_trajectories(config, params, theta, start + n)
    for column, expected in zip(
        (stats.trial, stats.attempts, stats.iterates, stats.status, stats.fidelity), reference
    ):
        np.testing.assert_array_equal(column, expected)
    for name in ("attempts", "iterates", "status", "fidelity"):
        np.testing.assert_array_equal(getattr(stats, name), getattr(whole, name)[start:])
    if params is CERTAIN_CLICK or config.max_iterates == 1:
        assert np.all(stats.status == Status.PENDING.value)
    else:
        assert set(stats.status.tolist()) == {s.value for s in Status}
    if params is BALANCED:
        success = np.isin(stats.status, [s.value for s in Status if s.is_success])
        assert np.all(stats.fidelity[success] == 1.0)


@SAMPLER_CASES
def test_sampler_matches_the_history_oracle(config, params, sin_sq):
    # the tables against the dense branch maps and each trial's state
    # carried through its history: the same outcomes, fidelities within rounding
    theta = theta_from_sin_sq(sin_sq)
    start, n = protocol._CHUNK_TRIALS - 37, protocol._CHUNK_TRIALS + 100
    stats = run_trajectories(config, params, theta, n, trial_start=start)
    _, attempts, iterates, status, fidelity = history_trajectories(
        config, params, theta, n, trial_start=start
    )
    np.testing.assert_array_equal(stats.attempts, attempts)
    np.testing.assert_array_equal(stats.iterates, iterates)
    np.testing.assert_array_equal(stats.status, status)
    np.testing.assert_allclose(stats.fidelity, fidelity, rtol=0.0, atol=1e-15)


# sha256 of the attempts, iterates, status and fidelity bytes of two deep
# runs, recorded at stream version 4: 88 of the cap-256 trials stay
# pending to the cap, and 341 of the 1,170 cap-32 successes have a
# fidelity below 1.0, so a moved ulp shows
DEEP_COLUMNS_SHA256 = {
    "deep_cap256": "8851480f891c02c72f7f5e1a29f0f7beba9ee9c5cc5e61dba4d26c6943b9cade",
    "unbalanced_cap32": "90164deab2d981185496c235014afeb2a812f55081c88489111bc8327b3d3e75",
}


@pytest.mark.parametrize(
    "case, config, params, sin_sq",
    [
        ("deep_cap256", StrategyConfig(256, rng_seed=23), ApparatusParams(t1=0.5, t2=0.5), 1e-3),
        ("unbalanced_cap32", StrategyConfig(32, rng_seed=23), UNBALANCED, 0.05),
    ],
    ids=["deep_cap256", "unbalanced_cap32"],
)
def test_deep_sampled_columns_digest(case, config, params, sin_sq):
    assert protocol.STREAM_VERSION == 4
    stats = run_trajectories(config, params, theta_from_sin_sq(sin_sq), 2000)
    digest = hashlib.sha256()
    for column in (stats.attempts, stats.iterates, stats.status, stats.fidelity):
        digest.update(column.tobytes())
    assert digest.hexdigest() == DEEP_COLUMNS_SHA256[case]


@pytest.mark.parametrize(
    "config, params, sin_sq, n",
    [
        (StrategyConfig(rng_seed=23), UNBALANCED, 0.2, 300),
        (StrategyConfig(12, rng_seed=23), UNBALANCED, 0.2, 300),
        (StrategyConfig(12, rng_seed=23), BALANCED, 0.2, 300),
        # the deep link: 2 of these 100 trials stay pending to the cap
        (StrategyConfig(256, rng_seed=23), ApparatusParams(t1=0.5, t2=0.5), 1e-3, 100),
    ],
    ids=["two_iterates", "loop_cap12", "loop_balanced", "deep_cap256"],
)
@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_sampled_columns_do_not_depend_on_the_chunk_size(
    config, params, sin_sq, n, chunk, monkeypatch
):
    # trials of one chunk share its table of distinct histories, so a
    # chunk of one trial and a chunk that holds every trial must agree
    theta = theta_from_sin_sq(sin_sq)
    default = run_trajectories(config, params, theta, n, trial_start=11)
    monkeypatch.setattr(protocol, "_CHUNK_TRIALS", chunk)
    stats = run_trajectories(config, params, theta, n, trial_start=11)
    for name in ("trial", "attempts", "iterates", "status", "fidelity"):
        np.testing.assert_array_equal(getattr(stats, name), getattr(default, name))


def test_sampler_memory_is_linear_in_the_cap():
    # the sampler's tables are O(cap): at cap 1024 on the deep link (t =
    # 0.5, sin^2 theta = 1e-3), where nothing is pruned early, they hold
    # under 256 KiB, and 20,000 trials, some of them to the cap, peak
    # under 4 MiB, their 0.5 MB of columns included
    params, theta = ApparatusParams(t1=0.5, t2=0.5), theta_from_sin_sq(1e-3)
    cap = 1024
    tables = protocol._run_tables(protocol._outcome_masks(heralded_state(params, theta)), cap)
    held = {}
    for array in tables:
        owner = array if array.base is None else array.base
        held[id(owner)] = owner.nbytes
    assert sum(held.values()) < 256 * 1024
    tracemalloc.start()
    try:
        stats = run_trajectories(StrategyConfig(cap, rng_seed=29), params, theta, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.iterates.max() == cap
    assert peak < 4 * 2**20, peak


def test_sampled_success_fidelity_never_exceeds_one():
    # on this link and angle the unclipped overlap of 6,826 successes
    # rounds to 1 + 2^-52; the sampler clips it as ``fidelity`` does
    params = ApparatusParams(t1=0.3, t2=0.1, x1=0.3)
    theta = 0.6215643307802488
    stats = run_trajectories(StrategyConfig(rng_seed=5), params, theta, 40_000)
    success = np.isin(stats.status, [s.value for s in Status if s.is_success])
    assert np.count_nonzero(success) == 6826
    assert np.all(stats.fidelity[success] == 1.0)


@pytest.mark.parametrize("t1, t2", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
def test_trajectories_at_certain_click(t1, t2):
    # p_click = 1 and eta = 1: one window per herald; after the first
    # outcome three of the four branch weights are exactly zero, so
    # every trial repeats its first outcome up to the cap
    params = ApparatusParams(t1=t1, t2=t2)
    theta = theta_from_sin_sq(1.0)
    assert p_click(params, theta) == 1.0
    assert heralded_state(params, theta).eta == 1.0
    for config in (StrategyConfig(rng_seed=3), StrategyConfig(6, rng_seed=3)):
        stats = run_trajectories(config, params, theta, 300)
        np.testing.assert_array_equal(stats.attempts, stats.iterates)
        assert np.all(stats.iterates == config.max_iterates)
        assert np.all(stats.status == Status.PENDING.value)
        reference = scalar_trajectories(config, params, theta, 300)
        np.testing.assert_array_equal(stats.attempts, reference[1])
        np.testing.assert_array_equal(stats.status, reference[3])


def test_sampler_rejects_zero_weight_of_a_failing_trial(monkeypatch):
    # on the certain-click link every trial repeats its first outcome,
    # the other three weights being exactly zero; trial 0 is handed an
    # other-parity outcome at depth 1, which would end it as a failure,
    # and its zero weight must raise although its state is never read
    params = ApparatusParams(t1=1.0, t2=1.0)
    theta = theta_from_sin_sq(1.0)
    pick = protocol._pick_outcome
    for config in (StrategyConfig(rng_seed=3), StrategyConfig(6, rng_seed=3)):
        depths = []

        def other_parity_at_depth_one(thresholds, u):
            outcome = pick(thresholds, u)
            probs = np.diff(thresholds, axis=0, prepend=0.0)
            depths.append(len(depths))
            if depths[-1] == 1:
                outcome[0] ^= 1
                assert probs[outcome[0], 0] == 0.0
            return outcome

        monkeypatch.setattr(protocol, "_pick_outcome", other_parity_at_depth_one)
        with pytest.raises(DegenerateParameterError):
            run_trajectories(config, params, theta, 300)
        assert depths == [0, 1]


def test_trajectory_cells_match_depth_profile():
    # chi-square of the (iterates, status) cells against the exact tree,
    # rejected at p = 1e-3; every expected count is above 20
    theta = theta_from_sin_sq(0.4)
    config = StrategyConfig(10, rng_seed=2024)
    n = 200_000
    tree = run_strategy_exact(
        plus_state(CLIENT_LABELS), heralded_state(UNBALANCED, theta), config
    )
    expected = {
        (depth, status.value): n * mass
        for depth, row in depth_profile(tree).items()
        for status, mass in row.items()
    }
    assert len(expected) == 20 and min(expected.values()) > 20.0
    stats = run_trajectories(config, UNBALANCED, theta, n)
    cells, counts = np.unique(np.stack([stats.iterates, stats.status]), axis=1, return_counts=True)
    observed = {(int(d), int(s)): int(c) for (d, s), c in zip(cells.T, counts)}
    assert set(observed) <= set(expected)
    stat = sum((observed.get(cell, 0) - e) ** 2 / e for cell, e in expected.items())
    assert chi2_sf(stat, len(expected) - 1) > 1e-3, stat


def test_deep_trajectory_cells_match_the_walk():
    # the deep case: cap 256 where nothing is pruned early, so runs reach
    # every depth.  Chi-square of the (iterates,
    # status) cells against the exact walk's masses, rejected at p = 1e-3;
    # cells of one status are pooled in depth order until each pool
    # expects at least 20 runs
    params, theta = ApparatusParams(t1=0.5, t2=0.5), theta_from_sin_sq(1e-3)
    cap, n = 256, 20_000
    masks = protocol._outcome_masks(heralded_state(params, theta))
    rho = plus_state(CLIENT_LABELS).elements
    mass = {}
    for depth, ((_, won), (_, lost), (_, pending), pruned) in enumerate(
        protocol._walk(masks, rho, cap), start=2
    ):
        # the success classes are indexed (first parity, side)
        mass[depth, Status.SUCCESS_PARITY_EVEN.value] = float(won[0].sum())
        mass[depth, Status.SUCCESS_PARITY_ODD.value] = float(won[1].sum())
        mass[depth, Status.FAILURE.value] = float(lost.sum())
    assert depth == cap and float(pruned) < 1e-9
    mass[cap, Status.PENDING.value] = float(pending.sum())
    stats = run_trajectories(StrategyConfig(cap, rng_seed=2024), params, theta, n)
    cells, counts = np.unique(np.stack([stats.iterates, stats.status]), axis=1, return_counts=True)
    observed = {(int(d), int(s)): int(c) for (d, s), c in zip(cells.T, counts)}
    assert set(observed) <= set(mass)
    pools = []
    for status in sorted({s for _, s in mass}):
        pool = [0.0, 0]
        for depth in sorted(d for d, s in mass if s == status):
            pool[0] += n * mass[depth, status]
            pool[1] += observed.get((depth, status), 0)
            if pool[0] >= 20.0:
                pools.append(pool)
                pool = [0.0, 0]
        if pool[0] > 0.0:
            pools[-1] = [pools[-1][0] + pool[0], pools[-1][1] + pool[1]]
    assert len(pools) > 30 and min(e for e, _ in pools) >= 20.0
    stat = sum((o - e) ** 2 / e for e, o in pools)
    assert chi2_sf(stat, len(pools) - 1) > 1e-3, stat


@pytest.mark.parametrize("cap", [2, 8, 32, 64])
def test_success_is_perfect_on_any_dark_free_link(cap):
    # a dark-free heralded pair delivers the target exactly on success
    # (the paper's point), so every sampled success fidelity and the exact
    # tree's mean sit at 1 up to rounding, on random links and angles;
    # rounding carries about a third of these links past 1, and a sampled
    # fidelity is clipped as ``fidelity`` clips it
    rng = RNG(157 + cap)
    worst, best = 1.0, 0.0
    for link in range(50):
        while True:
            t1, t2 = 1.0 - rng.uniform(0.0, 1.0, 2)
            params = ApparatusParams(t1=t1, t2=t2, x1=rng.uniform(-1.0, 1.0))
            theta = theta_from_sin_sq(rng.uniform(0.0, 1.0))
            pair = heralded_state(params, theta)
            if 0.0 < pair.eta < 0.95:
                break
        config = StrategyConfig(cap, rng_seed=link)
        stats = run_trajectories(config, params, theta, 200)
        success = np.isin(stats.status, [s.value for s in Status if s.is_success])
        tree = run_strategy_exact(plus_state(CLIENT_LABELS), pair, config)
        worst = min(worst, tree.mean_success_fidelity(), *stats.fidelity[success].tolist())
        best = stats.fidelity[success].max(initial=best)
    assert worst >= 1.0 - 1e-14, worst
    assert best == 1.0


def test_windows_per_herald_match_click_probability():
    # z-scores of the mean windows per herald against 1 / p_click over
    # 20 seeds, each from about 10^4 geometric waits at T = 1e-2; checks
    # at p = 1e-3: each |z| (Bonferroni), their mean, their sum of squares
    params = ApparatusParams(t1=1e-2, t2=1e-2)
    theta = theta_from_sin_sq(0.1)
    pc = p_click(params, theta)
    seeds = range(20)
    z = []
    for seed in seeds:
        stats = run_trajectories(StrategyConfig(4, rng_seed=seed), params, theta, 4000)
        heralds = int(np.sum(stats.iterates))
        mean = float(np.sum(stats.attempts)) / heralds
        z.append((mean - 1.0 / pc) / (math.sqrt(1.0 - pc) / pc / math.sqrt(heralds)))
    alpha = 1e-3
    normal = NormalDist()
    assert max(abs(v) for v in z) < normal.inv_cdf(1.0 - alpha / (2 * len(z))), z
    assert abs(sum(z)) / math.sqrt(len(z)) < normal.inv_cdf(1.0 - alpha / 2), z
    tail = chi2_sf(sum(v * v for v in z), len(z))
    assert alpha / 2 < tail < 1.0 - alpha / 2, z


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
    n = 2 * _csvbytes.BATCH_ROWS + 300
    fidelity = rng.uniform(0.0, 1.0, n)
    fidelity[::7] = np.nan
    # signed zeros and a NaN of either sign share the first batch
    fidelity[1:10] = (1e-300, 5e-324, 1.0 / 3.0, 0.1, 1.0, -0.0, 0.0, -np.nan, 0.0)
    assert np.signbit(fidelity[6]) and np.signbit(fidelity[8]) and not np.signbit(fidelity[7])
    iterates = rng.integers(2, 17, n)
    status = (np.arange(n) % 4).astype(np.int8)
    # every row of the last batch has the same tail
    last = slice(2 * _csvbytes.BATCH_ROWS, n)
    iterates[last], status[last], fidelity[last] = 5, Status.SUCCESS_PARITY_ODD.value, -0.0
    stats = protocol.SampleStats(
        StrategyConfig(16, rng_seed=2**63 + 11),
        UNBALANCED,
        0.7,
        np.arange(10**9, 10**9 + 3 * n, 3, dtype=np.int64),
        rng.integers(1, 10**12, n),
        iterates,
        status,
        fidelity,
    )
    stats.write_csv(tmp_path / "batched.csv")
    csv_writer_reference(stats, tmp_path / "reference.csv")
    written = (tmp_path / "batched.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\n") == n + 1
    for name in (b",pending,", b",success_parity_even,", b",success_parity_odd,", b",failure,"):
        assert name in written
    assert b",-0.0\n" in written and b",0.0\n" in written
    assert written.endswith(b",5,success_parity_odd,-0.0\n")


def sample_stats(n, seed=0, **columns):
    """A ``SampleStats`` of ``n`` rows: trials 0.., one attempt, two
    iterates, pending, fidelity 0.5, with any column replaced by keyword.
    The iterate cap is 4, or the largest iterate count if that is more."""
    values = {
        "trial": np.arange(n, dtype=np.int64),
        "attempts": np.ones(n, dtype=np.int64),
        "iterates": np.full(n, 2, dtype=np.int64),
        "status": np.zeros(n, dtype=np.int8),
        "fidelity": np.full(n, 0.5),
    }
    values.update(columns)
    cap = max(4, int(values["iterates"].max(initial=0)))
    return protocol.SampleStats(StrategyConfig(cap, rng_seed=seed), UNBALANCED, 0.7, **values)


def test_sample_stats_rejects_misaligned_or_unsorted_columns():
    def stats(trial, fidelity):
        return sample_stats(
            len(trial),
            trial=np.asarray(trial, dtype=np.int64),
            fidelity=np.asarray(fidelity, dtype=float),
        )

    assert stats([0, 1, 5], [0.5, 0.5, 0.5]).n_trials == 3
    with pytest.raises(ValueError, match="column 'fidelity' length mismatch"):
        stats([0, 1, 5], [0.5, 0.5])
    for trial in ([0, 1, 1], [0, 5, 2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            stats(trial, [0.5, 0.5, 0.5])
    # an unsigned column cannot hide a decrease in a wrapped difference
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_stats(3, trial=np.array([0, 5, 2], dtype=np.uint64))


def test_sample_stats_checks_the_csv_kernels_preconditions(tmp_path):
    """Columns the byte writer would misprint raise before any file exists."""
    assert sample_stats(0).n_trials == 0
    big = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    assert sample_stats(3, trial=big, attempts=big).n_trials == 3
    bad = {
        "trial": [
            np.array([-1, 0, 1], dtype=np.int64),
            np.array([0.0, 1.0, 2.0]),
        ],
        "attempts": [
            np.array([1, -1, 1], dtype=np.int64),
            np.array([1.0, 1.0, 1.0]),
        ],
        "iterates": [
            np.array([2, 2, -2], dtype=np.int64),
            np.array([2.0, 2.0, 2.0]),
        ],
    }
    for name, columns in bad.items():
        for column in columns:
            with pytest.raises(ValueError, match=f"column '{name}' must hold nonnegative integers"):
                sample_stats(3, **{name: column})
    # iterate counts past 32 bits are written as digits under a cap that allows them
    for top in (2**32, 2**63 - 1):
        stats = sample_stats(3, iterates=np.array([2, top - 1, top], dtype=np.int64))
        stats.write_csv(tmp_path / "bytes.csv")
        csv_writer_reference(stats, tmp_path / "reference.csv")
        assert (tmp_path / "bytes.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    for status in (
        np.array([0, 4, 1], dtype=np.int8),
        np.array([0, -1, 1], dtype=np.int8),
        np.array([0.0, 1.0, 2.0]),
    ):
        with pytest.raises(ValueError, match="column 'status' must hold Status values"):
            sample_stats(3, status=status)
    with pytest.raises(ValueError, match="column 'fidelity' must be float64"):
        sample_stats(3, fidelity=np.full(3, 0.5, dtype=np.float32))


def test_write_csv_matches_csv_writer_at_the_kernels_edges(tmp_path):
    def check(stats):
        stats.write_csv(tmp_path / "bytes.csv")
        csv_writer_reference(stats, tmp_path / "reference.csv")
        written = (tmp_path / "bytes.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        return written

    # one batch crossing every digit width up to 10**18 in both columns
    widths = sorted({v for k in range(19) for v in (10**k - 1, 10**k, 10**k + 1)})
    trial = np.array(widths + [2**63 - 1], dtype=np.int64)
    n = len(trial)
    assert n <= _csvbytes.BATCH_ROWS
    # attempts around 2**32, where the kernel leaves uint32, and at 2**63 - 1
    attempts = np.array(
        widths[::-1][: n - 4] + [2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1], dtype=np.int64
    )
    # tails of different widths in the batch
    fidelity = np.resize([np.nan, 1.0, 0.12345678901234566, -0.0, 5e-324], n)
    status = (np.arange(n) % 4).astype(np.int8)
    iterates = np.resize([2, 16, 1000], n)
    columns = dict(
        trial=trial, attempts=attempts, iterates=iterates, status=status, fidelity=fidelity
    )
    for seed in (0, 2**64 - 1):
        written = check(sample_stats(n, seed, **columns))
        assert written.count(b"\n") == n + 1
        assert f"\n{seed},0,{10**18 + 1},".encode() in written
        assert f"\n{seed},{2**63 - 1},{2**63 - 1},".encode() in written
    # batches whose largest attempts sit on either side of 2**32
    for top in (2**32 - 1, 2**32, 2**32 + 1):
        check(sample_stats(4, attempts=np.array([0, 9, top - 1, top], dtype=np.int64)))
    # unsigned columns up to 2**64 - 1
    big = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    check(sample_stats(3, trial=big, attempts=big))
    one = check(sample_stats(1, 7, fidelity=np.array([np.nan])))
    assert one == b"seed,trial,attempts,iterates,status,fidelity\n7,0,1,2,pending,nan\n"
    assert check(sample_stats(0)) == b"seed,trial,attempts,iterates,status,fidelity\n"


def test_write_csv_holds_one_batch_at_a_time(tmp_path):
    """The writer's working set is a batch, not the file: 200,000 rows
    here, and ``simulate --trials 10000000`` writes ~300 MB."""
    n = 200_000
    rng = RNG(17)
    stats = sample_stats(
        n,
        trial=np.arange(10**12, 10**12 + n, dtype=np.int64),
        attempts=rng.integers(1, 10**6, n),
        iterates=rng.integers(1, 17, n),
        status=rng.integers(0, 4, n).astype(np.int8),
        fidelity=np.where(rng.random(n) < 0.5, np.nan, rng.random(n)),
    )
    tracemalloc.start()
    try:
        stats.write_csv(tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.csv").stat().st_size
    assert size > 8 * 2**20
    assert peak < 4 * 2**20, peak


def test_summary_holds_about_ten_bytes_a_trial():
    """``summary``'s temporaries stay near ten bytes a trial, so that at
    ``simulate --trials 10000000`` they are a small share of the peak."""
    n = 200_000
    rng = RNG(18)
    stats = sample_stats(
        n,
        attempts=rng.integers(1, 10**6, n),
        iterates=rng.integers(1, 17, n),
        status=rng.integers(0, 4, n).astype(np.int8),
    )
    tracemalloc.start()
    try:
        summary = stats.summary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["n_trials"] == n and math.isfinite(summary["bell_rate_se"])
    assert peak < 12 * n, peak


@pytest.mark.parametrize("cap", [2, 3, 8])
def test_sampler_never_passes_the_iterate_cap(cap):
    # sin^2 theta = 0.5 on a lossy link keeps many runs pending, so the
    # cap is reached and, if the sampler ran past it, passed
    stats = run_trajectories(
        StrategyConfig(cap, rng_seed=cap), UNBALANCED, theta_from_sin_sq(0.5), 4000
    )
    assert stats.iterates.max() == cap
    assert np.all(stats.iterates[stats.status == Status.PENDING.value] == cap)


def test_sample_stats_rejects_iterates_past_the_cap():
    def stats(cap, iterates):
        values = sample_stats(len(iterates), iterates=np.array(iterates))
        return protocol.SampleStats(
            StrategyConfig(cap),
            UNBALANCED,
            0.7,
            values.trial,
            values.attempts,
            values.iterates,
            values.status,
            values.fidelity,
        )

    assert stats(4, [2, 4, 3]).n_trials == 3
    with pytest.raises(ValueError, match="must not exceed config.max_iterates"):
        stats(4, [2, 5, 3])


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
def test_summary_histogram_counts_each_iterate(dtype):
    rng = RNG(19)
    iterates = rng.integers(2, 40, 5000).astype(dtype)
    iterates[:3] = 60  # a gap between bins
    summary = sample_stats(5000, iterates=iterates).summary()
    keys, counts = np.unique(iterates, return_counts=True)
    assert summary["iterate_histogram"] == dict(zip(keys.tolist(), counts.tolist()))
    assert all(type(k) is int and type(v) is int for k, v in summary["iterate_histogram"].items())
    assert sample_stats(0).summary()["iterate_histogram"] == {}


def test_summary_sorts_no_copy_of_the_iterates():
    """``summary``'s peak at a million trials is the rate residuals and
    the success mask, nine bytes a trial; a sorted histogram of the
    iterates would make it ten."""
    n = 1_000_000
    rng = RNG(20)
    stats = sample_stats(
        n,
        attempts=rng.integers(1, 10**6, n),
        iterates=rng.integers(1, 17, n),
        status=rng.integers(0, 4, n).astype(np.int8),
    )
    tracemalloc.start()
    try:
        summary = stats.summary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(summary["iterate_histogram"].values()) == n
    assert peak < 9.5 * n, peak
