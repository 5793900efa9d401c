"""Reference states and formulas that the tests use as oracles.

None of these has a consumer in the library: they construct inputs and
expected values that the library's own routes are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from paritydistill import (
    OUTCOMES,
    ApparatusParams,
    DegenerateParameterError,
    DensityMatrix,
    ExactTree,
    ExcitationAngle,
    IterateOutcome,
    Leaf,
    RegionLabel,
    Status,
    StrategyConfig,
    classify,
    drift_infidelity_surface,
    fidelity,
    heralded_state_with_dark_counts,
    optimize_bell_rate,
    plus_state,
    run_strategy_exact,
    two_photon_reference_rate,
)
from paritydistill.analytics import DARK_FIDELITY_CUTOFF
from paritydistill.constants import BRANCH_PRUNE_EPSILON, PROBABILITY_SUM_ATOL, TRACE_EPSILON
from paritydistill.protocol import CLIENT_LABELS, _outcome_masks


def asymmetry_distortion(phi: float, delta: float) -> np.ndarray:
    """Residual single-qubit distortion left by an unbalanced photonic link.

    The operator multiplies the computational components by
    ``(cos(phi) + sin(phi)) * exp(+i delta)`` and
    ``(cos(phi) - sin(phi)) * exp(-i delta)`` respectively: ``phi``
    encodes the transmission imbalance of the two collection paths and
    ``delta`` the optical path-length detuning.  It is non-unitary for
    ``phi != 0`` (the two eigenvalue magnitudes differ), which is what
    depresses downstream success probabilities by cos^2(2 phi).
    """
    d0 = (np.cos(phi) + np.sin(phi)) * np.exp(1j * delta)
    d1 = (np.cos(phi) - np.sin(phi)) * np.exp(-1j * delta)
    return np.diag([d0, d1]).astype(complex)


def basis_state(bits: Sequence[int] | str, labels: Sequence[str]) -> DensityMatrix:
    """Computational basis state |bits> with the given labels.

    ``bits`` may be a bit string like "01" or a sequence of 0/1 ints.
    """
    if isinstance(bits, str):
        bits = tuple(int(c) for c in bits)
    bits = tuple(bits)
    if len(bits) != len(labels):
        raise ValueError("one bit per label required")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0/1, got {bits}")
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    amps = np.zeros(2 ** len(bits))
    amps[idx] = 1.0
    return DensityMatrix.from_pure(amps, labels)


def bell_even(labels: Sequence[str]) -> DensityMatrix:
    """Even-parity Bell state (|00> + |11>)/sqrt(2)."""
    half = 1.0 / np.sqrt(2.0)
    return DensityMatrix.from_pure([half, 0, 0, half], labels)


def bell_odd(labels: Sequence[str]) -> DensityMatrix:
    """Odd-parity Bell state (|01> + |10>)/sqrt(2)."""
    half = 1.0 / np.sqrt(2.0)
    return DensityMatrix.from_pure([0, half, half, 0], labels)


def drift_infidelity_exact(phi: float, delta_phi: float, delta_delta: float) -> float:
    """Infidelity of the distilled state when the link drifts mid-run.

    The first iterate consumes a pair at (phi, delta), the second a pair
    at (phi + delta_phi, delta + delta_delta); returned is the delivered
    success-leaf infidelity against the ideal Bell state, identical for
    all four success histories and independent of the baseline detuning.
    Only at phi = 0 does it coincide with the raw overlap infidelity of
    the two pairs themselves.  The denominator vanishes only where the
    delivered state itself vanishes; that direction is rejected.
    """
    c = math.cos(2.0 * phi + delta_phi)
    s = math.sin(delta_phi)
    num = c * c * math.sin(delta_delta) ** 2 + s * s * math.cos(delta_delta) ** 2
    den = c * c + s * s
    if den < 1e-14:
        raise DegenerateParameterError("drift direction annihilates the pair state")
    return num / den


def region_by_tree(
    transmissions: Sequence[float],
    dark_probabilities: Sequence[float],
    *,
    tau: float = 1.0,
    sin_sq_theta: float = 1.0 / 3.0,
) -> tuple[np.ndarray, list[RegionLabel]]:
    """The dark-count region grid point by point, through the exact tree.

    Per point: one dark-count broker, one two-iterate ``run_strategy_exact``
    from |++>, and the mean success fidelity of its leaves, each scored
    with ``fidelity`` (``leaf_success_fidelity``), classified as
    ``dark_count_fidelity_region`` classifies.  Returns the seven numeric
    ``RegionPoint`` fields as an (N, 7) array, transmission-major, and the
    labels.
    """
    theta = ExcitationAngle.from_sin_sq(sin_sq_theta)
    cfg = StrategyConfig.two_iterates_only()
    clients = plus_state(CLIENT_LABELS)
    rows, labels = [], []
    for t in transmissions:
        for p in dark_probabilities:
            params = ApparatusParams(t1=float(t), t2=float(t), p_dark=float(p), tau=tau)
            broker, p_herald = heralded_state_with_dark_counts(params, theta)
            tree = run_strategy_exact(clients, broker, cfg)
            p_two = tree.success_probability
            fid = leaf_success_fidelity(tree)
            rate = 0.5 * p_two * p_herald / tau
            reference = two_photon_reference_rate(float(t), tau)
            if not fid >= 1.0 - DARK_FIDELITY_CUTOFF:
                labels.append(RegionLabel.NO_GO)
            elif rate > reference:
                labels.append(RegionLabel.OURS_BETTER)
            else:
                labels.append(RegionLabel.REFERENCE_BETTER)
            rows.append((float(t), float(p), p_herald, p_two, fid, rate, reference))
    return np.array(rows), labels


def parity_projection(clients: DensityMatrix, measured_parity: int) -> DensityMatrix:
    """Normalized projection onto the parity subspace a success delivers:
    basis states 1 and 2 after an even measured parity, 0 and 3 after an
    odd one."""
    keep = (1, 2) if measured_parity == 0 else (0, 3)
    mask = np.zeros(4)
    mask[list(keep)] = 1.0
    m = clients.elements * np.outer(mask, mask)
    return DensityMatrix(m, clients.labels, validate=False).normalized()


def leaf_success_fidelity(tree: ExactTree | LeafTree) -> float:
    """Probability-weighted fidelity of a tree's success leaves.

    Each success leaf is scored with ``fidelity`` against the normalized
    projection of the initial clients onto the delivered parity subspace
    (``parity_projection``), which must be rank one.  NaN when no success
    mass survives.
    """
    total = 0.0
    acc = 0.0
    targets: dict[int, DensityMatrix] = {}
    for leaf in tree.leaves:
        if not leaf.status.is_success:
            continue
        measured = 0 if leaf.status is Status.SUCCESS_PARITY_EVEN else 1
        if measured not in targets:
            targets[measured] = parity_projection(tree.initial_clients, measured)
        acc += leaf.probability * fidelity(leaf.state, targets[measured])
        total += leaf.probability
    return acc / total if total > TRACE_EPSILON else float("nan")


@dataclass(frozen=True)
class LeafTree:
    """The leaves of a reference tree, read as ``ExactTree`` is read.

    The oracles below build their leaves one history or one class at a
    time; this holds them with the pruned mass and sums them, so an
    oracle answers ``status_probability`` and the other statistics
    under the names the library's tree uses.
    """

    initial_clients: DensityMatrix
    leaves: tuple[Leaf, ...]
    pruned_probability: float

    def status_probability(self, status: Status) -> float:
        return sum(l.probability for l in self.leaves if l.status is status)

    @property
    def success_probability(self) -> float:
        return sum(l.probability for l in self.leaves if l.status.is_success)

    @property
    def failure_probability(self) -> float:
        return self.status_probability(Status.FAILURE)

    @property
    def pending_probability(self) -> float:
        return self.status_probability(Status.PENDING)

    @property
    def total_probability(self) -> float:
        return sum(l.probability for l in self.leaves) + self.pruned_probability

    mean_success_fidelity = leaf_success_fidelity


@dataclass
class _CountClass:
    """Histories sharing a first outcome and four outcome counts.

    The masks commute, so every member has the same path probability and
    the same normalized client state; ``history`` is one member, kept as
    the class representative.  ``key`` is (first outcome index, n0, n1,
    n2, n3).
    """

    key: tuple[int, ...]
    history: tuple[IterateOutcome, ...]
    path_probability: float
    multiplicity: int
    state: np.ndarray


def depth_profile(tree: ExactTree | LeafTree) -> dict[int, dict[Status, float]]:
    """Leaf probability mass of a tree by iterate count and status."""
    profile: dict[int, dict[Status, float]] = {}
    for leaf in tree.leaves:
        row = profile.setdefault(leaf.iterates, {})
        row[leaf.status] = row.get(leaf.status, 0.0) + leaf.probability
    return profile


def count_class_tree(
    clients: DensityMatrix,
    pair,
    config: StrategyConfig,
) -> LeafTree:
    """Reference tree: a dynamic program over count classes.

    The walk runs depth by depth over count classes: outcome histories
    keyed by their first outcome and their four outcome counts, with the
    outcome masks gathered from the broker.  Because the masks commute,
    all histories of a class share one path probability and one client
    state, so a class only counts how many histories reach it.  A class
    extends while it is pending and the iterate cap is not reached;
    otherwise it becomes one leaf, whose probability is the class mass
    (multiplicity times path probability) and whose history is a
    representative member.  Classes whose mass falls below the pruning
    epsilon, and branches whose conditional weight does, are dropped and
    accounted in ``pruned_probability``; the surviving mass is checked
    to conserve probability.  Polynomial in the cap, so it reaches the
    caps the per-history circuit expansion cannot.
    """
    if clients.n_qubits != 2:
        raise ValueError("the iterate acts on exactly two client qubits")
    initial = clients.normalized()
    masks = _outcome_masks(pair)
    frontier = [_CountClass((), (), 1.0, 1, initial.elements)]
    leaves: list[Leaf] = []
    pruned = 0.0
    for depth in range(1, config.max_iterates + 1):
        reached: dict[tuple[int, ...], _CountClass] = {}
        for node in frontier:
            for outcome in OUTCOMES:
                k = outcome.index
                key = list(node.key) if node.key else [k, 0, 0, 0, 0]
                key[1 + k] += 1
                key = tuple(key)
                known = reached.get(key)
                if known is not None:
                    known.multiplicity += node.multiplicity
                    continue
                unnormalized = masks[k] * node.state
                weight = float(unnormalized.trace().real)
                if weight < BRANCH_PRUNE_EPSILON:
                    pruned += node.multiplicity * node.path_probability * max(weight, 0.0)
                    continue
                reached[key] = _CountClass(
                    key,
                    node.history + (outcome,),
                    node.path_probability * weight,
                    node.multiplicity,
                    unnormalized / weight,
                )
        frontier = []
        for node in reached.values():
            mass = node.multiplicity * node.path_probability
            if mass < BRANCH_PRUNE_EPSILON:
                pruned += mass
                continue
            status = classify(node.history)
            if status is Status.PENDING and depth < config.max_iterates:
                frontier.append(node)
            else:
                state = DensityMatrix(node.state, initial.labels, validate=False)
                leaves.append(Leaf(node.history, state, status, mass))
    tree = LeafTree(initial, tuple(leaves), pruned)
    defect = abs(tree.total_probability - 1.0)
    if defect > PROBABILITY_SUM_ATOL:
        raise DegenerateParameterError(
            f"strategy tree lost probability mass: defect {defect:.3e}"
        )
    return tree


def rates_csv_by_repr(t_min: float, t_max: float, points: int, tau: float) -> bytes:
    """The ``rates`` CSV, one f-string of ``repr`` fields per row.

    The sweep's numbers come from the library; only the text is made
    here, as the command made it before its byte writer.
    """
    grid = np.array([t_min]) if points == 1 else np.geomspace(t_min, t_max, points)
    theta, rate = optimize_bell_rate(grid, grid, tau)
    reference = two_photon_reference_rate(grid, tau)
    gap = rate - reference
    crossing = np.zeros(len(grid), dtype=bool)
    crossing[1:] = (gap[:-1] > 0.0) & (gap[1:] <= 0.0)
    # the ratio of the per-window rates, which no tau rounds
    ratio = optimize_bell_rate(grid, grid)[1] / two_photon_reference_rate(grid)
    columns = (grid, theta, rate, reference, ratio)
    lines = [
        f"{t!r},{th!r},{r!r},{ref!r},{ratio!r},{'crossover' if crossed else ''}\n"
        for t, th, r, ref, ratio, crossed in zip(
            *(c.tolist() for c in columns), crossing.tolist()
        )
    ]
    header = "t,theta_opt,rate_ours,rate_reference,ratio,annotation\n"
    return (header + "".join(lines)).encode()


def drift_csv_by_repr(d_max: float, points: int, cutoff: bool) -> bytes:
    """The ``drift`` CSV, one f-string of ``repr`` fields per row."""
    grid = np.linspace(0.0, d_max, points)
    exact, quad = drift_infidelity_surface(grid[:, None], grid[None, :])
    raw = 1.0 - exact
    shown = np.maximum(raw, 1.0 - DARK_FIDELITY_CUTOFF) if cutoff else raw
    labels = [repr(v) for v in grid.tolist()]
    lines = [
        f"{dx},{dt},{e!r},{q!r},{s!r},{r!r}\n"
        for dx, *cells in zip(labels, exact.tolist(), quad.tolist(), shown.tolist(), raw.tolist())
        for dt, e, q, s, r in zip(labels, *cells)
    ]
    header = "d_x,d_t,epsilon_exact,epsilon_quadratic,fidelity,fidelity_raw\n"
    return (header + "".join(lines)).encode()
