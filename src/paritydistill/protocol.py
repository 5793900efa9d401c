"""Distillation protocol: iterates, outcome classification, exact trees, sampling.

One iterate consumes a fresh heralded pair: both broker qubits are
rotated, entangled to their clients with controlled-Z gates and measured
in the X basis, leaving a two-bit outcome record and a transformed
client state.  A run repeats iterates until its outcome history
classifies as success or failure, or a strategy-dependent cap is hit.

Two independent evaluation routes are kept side by side on purpose: the
circuit route evolves the full four-qubit density matrix through the
gate sequence, while the closed-form route applies the equivalent
two-qubit branch maps directly.  They are pinned against each other in
the test suite and must never be merged into one code path.

Exact strategy trees are walked over count classes rather than single
outcome histories.  Outcome ``k`` acts on the clients as an entrywise
mask, and entrywise masks commute, so every history with the same first
outcome and the same four outcome counts ends in the same client state
with the same path probability.  A tree leaf is therefore a class: its
probability is the class mass (the number of member histories times
their common path probability) and its history is one representative
member.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .constants import (
    BRANCH_PRUNE_EPSILON,
    PROBABILITY_SUM_ATOL,
    TRACE_EPSILON,
)
from .errors import DegenerateParameterError
from .photonics import (
    ApparatusParams,
    ExcitationAngle,
    HeraldedPair,
    heralded_state,
    p_click,
)
from .qstate import (
    DensityMatrix,
    apply_cz,
    apply_one_qubit,
    fidelity,
    project_x_unnormalized,
    ry_minus_half_pi,
    tensor,
)

CLIENT_LABELS = ("C1", "C2")
BROKER_LABELS = ("B1", "B2")

# Measured parity -> basis indices of the client subspace the branch
# projects onto (always the opposite parity).
_PROJECTED_INDICES = ((1, 2), (0, 3))


class Status(Enum):
    """Terminal classification of an outcome history."""

    PENDING = 0
    SUCCESS_PARITY_EVEN = 1
    SUCCESS_PARITY_ODD = 2
    FAILURE = 3

    @property
    def is_success(self) -> bool:
        return self in (Status.SUCCESS_PARITY_EVEN, Status.SUCCESS_PARITY_ODD)


class StrategyMode(Enum):
    TWO_ITERATES_ONLY = "two_iterates_only"
    LOOP = "loop"


@dataclass(frozen=True)
class IterateOutcome:
    """Two-bit X-measurement record of one iterate."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i not in (0, 1) or self.j not in (0, 1):
            raise ValueError(f"outcome bits must be 0/1, got ({self.i}, {self.j})")

    @property
    def parity(self) -> int:
        return (self.i + self.j) & 1

    @property
    def index(self) -> int:
        return 2 * self.i + self.j


OUTCOMES = (
    IterateOutcome(0, 0),
    IterateOutcome(0, 1),
    IterateOutcome(1, 0),
    IterateOutcome(1, 1),
)


@dataclass(frozen=True)
class StrategyConfig:
    """Run-control policy for a distillation attempt sequence."""

    mode: StrategyMode
    max_iterates: int = 2
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterates < 2:
            raise ValueError("a run needs at least two iterates to classify")
        if self.mode is StrategyMode.TWO_ITERATES_ONLY and self.max_iterates != 2:
            raise ValueError("the two-iterate strategy stops at exactly two iterates")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")

    @classmethod
    def two_iterates_only(cls, rng_seed: int = 0) -> "StrategyConfig":
        return cls(StrategyMode.TWO_ITERATES_ONLY, 2, rng_seed)

    @classmethod
    def loop(cls, max_iterates: int = 16, rng_seed: int = 0) -> "StrategyConfig":
        return cls(StrategyMode.LOOP, max_iterates, rng_seed)


def classify(history: Sequence[IterateOutcome]) -> Status:
    """Classify an outcome history.

    Failure as soon as any outcome parity differs from the first.
    Success when all parities agree and the two distinct outcome
    signatures within that parity have appeared equally often (both at
    least once); the shared measured parity is recorded in the status.
    Anything else is pending.  Histories are assumed frontier-form: a
    well-formed run stops at its first terminal prefix.
    """
    if not history:
        return Status.PENDING
    first = history[0].parity
    counts: dict[int, int] = {}
    for oc in history:
        if oc.parity != first:
            return Status.FAILURE
        counts[oc.index] = counts.get(oc.index, 0) + 1
    if len(counts) == 2:
        a, b = counts.values()
        if a == b:
            return Status.SUCCESS_PARITY_EVEN if first == 0 else Status.SUCCESS_PARITY_ODD
    return Status.PENDING


@dataclass(frozen=True)
class DistillationRun:
    """One run's outcome history with its client state and classification."""

    history: tuple[IterateOutcome, ...]
    client_state: DensityMatrix
    status: Status

    def __post_init__(self) -> None:
        if self.status is not classify(self.history):
            raise ValueError("status inconsistent with history")

    @classmethod
    def from_history(
        cls, history: Sequence[IterateOutcome], client_state: DensityMatrix
    ) -> "DistillationRun":
        history = tuple(history)
        return cls(history, client_state, classify(history))

    @property
    def iterate_count(self) -> int:
        return len(self.history)


def _branch_map_elements(
    rho: np.ndarray, eta: float, phi: float, delta: float, i: int, j: int
) -> np.ndarray:
    """Closed-form unnormalized branch map for outcome (i, j) on a 4x4 state.

    The client pair is projected onto the parity opposite to the measured
    one, the first client picks up the link distortion with a sign set by
    the first outcome bit, and the double-excitation component instead
    collapses the clients onto |i j>.
    """
    sign = 2 * i - 1
    f0 = (math.cos(sign * phi) + math.sin(sign * phi)) * np.exp(1j * sign * delta)
    f1 = (math.cos(sign * phi) - math.sin(sign * phi)) * np.exp(-1j * sign * delta)
    fvec = np.array([f0, f0, f1, f1])
    a, b = _PROJECTED_INDICES[(i + j) & 1]
    out = np.zeros((4, 4), dtype=complex)
    sel = np.ix_((a, b), (a, b))
    out[sel] = 0.5 * (1.0 - eta) * (np.outer(fvec, fvec.conj()) * rho)[sel]
    k = 2 * i + j
    out[k, k] += eta * rho[k, k].real
    return out


def iterate_channel(
    clients: DensityMatrix, pair: HeraldedPair, outcome: IterateOutcome
) -> DensityMatrix:
    """Closed-form route: unnormalized post-iterate client state.

    The trace of the result is the outcome probability when ``clients``
    is normalized.  The first client label carries the distortion.
    """
    if clients.n_qubits != 2:
        raise ValueError("the iterate acts on exactly two client qubits")
    out = _branch_map_elements(
        clients.elements, pair.eta, pair.phi, pair.delta, outcome.i, outcome.j
    )
    return DensityMatrix(out, clients.labels, validate=False)


@dataclass(frozen=True)
class IterateBranch:
    outcome: IterateOutcome
    probability: float
    state: DensityMatrix | None  # normalized post state; None for a vanished branch


def run_iterate_exact(
    clients: DensityMatrix,
    pair: HeraldedPair | DensityMatrix,
    broker_labels: Sequence[str] = BROKER_LABELS,
) -> dict[IterateOutcome, IterateBranch]:
    """Circuit route: evolve the four-qubit state through one iterate.

    ``pair`` may be a parametric heralded pair or an explicit broker
    density matrix (for contaminated sources).  The first broker label is
    rotated and entangled with the first client label, likewise for the
    second, then both brokers are measured in the X basis.  Returns all
    four outcome branches keyed by outcome, with absolute probabilities.
    """
    if clients.n_qubits != 2:
        raise ValueError("the iterate acts on exactly two client qubits")
    broker = pair.expand(tuple(broker_labels)) if isinstance(pair, HeraldedPair) else pair
    if broker.n_qubits != 2:
        raise ValueError("the broker state must hold exactly two qubits")
    b1, b2 = broker.labels
    c1, c2 = clients.labels
    joint = tensor(broker, clients)
    rot = ry_minus_half_pi()
    joint = apply_one_qubit(joint, rot, b1)
    joint = apply_one_qubit(joint, rot, b2)
    joint = apply_cz(joint, b1, c1)
    joint = apply_cz(joint, b2, c2)
    branches: dict[IterateOutcome, IterateBranch] = {}
    for i in (0, 1):
        _, after_b1 = project_x_unnormalized(joint, b1, i)
        for j in (0, 1):
            weight, after_b2 = project_x_unnormalized(after_b1, b2, j)
            weight = max(weight, 0.0)
            state = after_b2.normalized() if weight >= BRANCH_PRUNE_EPSILON else None
            outcome = IterateOutcome(i, j)
            branches[outcome] = IterateBranch(outcome, weight, state)
    return branches


@dataclass(frozen=True)
class Leaf:
    """One terminal (or cap-truncated) count class of an exact strategy tree.

    ``probability`` is the class mass, summed over every member history;
    ``history`` is one representative member.  All members share the
    iterate count, the status and the client state.
    """

    run: DistillationRun
    probability: float

    @property
    def history(self) -> tuple[IterateOutcome, ...]:
        return self.run.history

    @property
    def state(self) -> DensityMatrix:
        return self.run.client_state

    @property
    def status(self) -> Status:
        return self.run.status

    @property
    def iterates(self) -> int:
        return self.run.iterate_count


@dataclass(frozen=True)
class ExactTree:
    """All leaves of the exact strategy evolution, one per count class.

    Each leaf stands for every outcome history with its first outcome and
    its four outcome counts (see ``Leaf``), so leaf masses, not leaf
    counts, are the physical quantities.
    """

    initial_clients: DensityMatrix
    config: StrategyConfig
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

    def leaves_with(self, status: Status) -> tuple[Leaf, ...]:
        return tuple(l for l in self.leaves if l.status is status)

    def depth_profile(self) -> dict[int, dict[Status, float]]:
        """Leaf probability mass by iterate count and status."""
        profile: dict[int, dict[Status, float]] = {}
        for leaf in self.leaves:
            row = profile.setdefault(leaf.iterates, {})
            row[leaf.status] = row.get(leaf.status, 0.0) + leaf.probability
        return profile

    def mean_success_fidelity(self) -> float:
        """Probability-weighted fidelity of success leaves.

        Each success leaf is compared against the normalized projection
        of the initial client state onto the delivered parity subspace
        (the parity opposite to the measured one).  NaN when no success
        mass survives.
        """
        total = 0.0
        acc = 0.0
        targets: dict[int, DensityMatrix] = {}
        for leaf in self.leaves:
            if not leaf.status.is_success:
                continue
            measured = 0 if leaf.status is Status.SUCCESS_PARITY_EVEN else 1
            if measured not in targets:
                targets[measured] = _parity_projection(self.initial_clients, measured)
            acc += leaf.probability * fidelity(leaf.state, targets[measured])
            total += leaf.probability
        return acc / total if total > TRACE_EPSILON else float("nan")


def _parity_projection(clients: DensityMatrix, measured_parity: int) -> DensityMatrix:
    """Normalized projection onto the parity subspace a success delivers."""
    keep = _PROJECTED_INDICES[measured_parity]
    mask = np.zeros(4)
    mask[list(keep)] = 1.0
    m = clients.elements * np.outer(mask, mask)
    out = DensityMatrix(m, clients.labels, validate=False)
    return out.normalized()


def _outcome_masks(labels: tuple, pair: HeraldedPair | DensityMatrix) -> np.ndarray:
    """Entrywise client masks of the four outcomes, stacked by outcome index.

    Between iterates the clients meet only the two controlled-Z gates,
    which are diagonal in the client basis, so outcome ``k`` maps any
    client state ``rho`` to the unnormalized entrywise product
    ``M_k * rho``, whatever the broker.  One circuit iterate on |++>,
    whose entries are all 1/4, reads the masks off as ``M_k = 4 p_k
    sigma_k``; a branch the circuit pruned gets a zero mask.  The masks
    must sum to one on the diagonal, or the broker does not define a
    trace-preserving iterate.
    """
    reference = DensityMatrix(np.full((4, 4), 0.25, dtype=complex), labels, validate=False)
    masks = np.zeros((4, 4, 4), dtype=complex)
    for outcome, branch in run_iterate_exact(reference, pair).items():
        if branch.state is not None:
            masks[outcome.index] = 4.0 * branch.probability * branch.state.elements
    defect = float(np.max(np.abs(masks.diagonal(axis1=1, axis2=2).sum(axis=0) - 1.0)))
    if defect > PROBABILITY_SUM_ATOL:
        raise DegenerateParameterError(
            f"outcome masks do not sum to one on the diagonal: defect {defect:.3e}"
        )
    return masks


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


def run_strategy_exact(
    clients: DensityMatrix,
    pair: HeraldedPair | DensityMatrix,
    config: StrategyConfig,
) -> ExactTree:
    """Evaluate every measurement branch of a strategy exactly.

    The walk runs depth by depth over count classes: outcome histories
    keyed by their first outcome and their four outcome counts.  One
    circuit iterate on |++> gives the outcome masks (``_outcome_masks``).
    Because the masks commute, all histories of a class share one path
    probability and one client state, so a class only counts how many
    histories reach it.  A class extends while it is pending and the
    iterate cap is not reached; otherwise it becomes one leaf, whose
    probability is the class mass (multiplicity times path probability)
    and whose history is a representative member.  Classes whose mass
    falls below the pruning epsilon, and branches whose conditional
    weight does, are dropped and accounted in ``pruned_probability``;
    the surviving mass is checked to conserve probability.
    """
    initial = clients.normalized()
    masks = _outcome_masks(initial.labels, pair)
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
                leaves.append(Leaf(DistillationRun(node.history, state, status), mass))
    tree = ExactTree(initial, config, tuple(leaves), pruned)
    defect = abs(tree.total_probability - 1.0)
    if defect > PROBABILITY_SUM_ATOL:
        raise DegenerateParameterError(
            f"strategy tree lost probability mass: defect {defect:.3e}"
        )
    return tree


# ---------------------------------------------------------------------------
# Monte Carlo sampling


@dataclass(frozen=True)
class SampleStats:
    """Per-trial Monte Carlo records.

    Arrays are aligned by row and sorted by trial index.  ``config``,
    ``params`` and ``theta`` (the excitation angle in radians) record
    what the trials were drawn from.  Merging two disjoint batches drawn
    from the same strategy, seed, link parameters and angle is exact:
    aggregates never depend on how trials were partitioned.
    """

    config: StrategyConfig
    params: ApparatusParams
    theta: float
    trial: np.ndarray
    attempts: np.ndarray
    iterates: np.ndarray
    status: np.ndarray
    fidelity: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.trial)
        for name in ("attempts", "iterates", "status", "fidelity"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} length mismatch")
        if n and np.any(np.diff(self.trial) <= 0):
            raise ValueError("trial indices must be strictly increasing")

    @property
    def n_trials(self) -> int:
        return len(self.trial)

    @property
    def rng_seed(self) -> int:
        return self.config.rng_seed

    @property
    def tau(self) -> float:
        return self.params.tau

    def merge(self, other: "SampleStats") -> "SampleStats":
        """Combine two disjoint batches; order-insensitive by construction.

        Raises ValueError when the batches were drawn from different
        strategies, seeds, caps, link parameters or angles.
        """
        mine = (self.config, self.params, self.theta)
        theirs = (other.config, other.params, other.theta)
        if mine != theirs:
            raise ValueError(f"batches come from different configurations: {mine} vs {theirs}")
        trial = np.concatenate([self.trial, other.trial])
        order = np.argsort(trial, kind="stable")
        trial = trial[order]
        if len(trial) and np.any(np.diff(trial) == 0):
            raise ValueError("batches overlap in trial indices")

        def pick(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.concatenate([a, b])[order]

        return SampleStats(
            self.config,
            self.params,
            self.theta,
            trial,
            pick(self.attempts, other.attempts),
            pick(self.iterates, other.iterates),
            pick(self.status, other.status),
            pick(self.fidelity, other.fidelity),
        )

    def counts(self) -> dict[Status, int]:
        return {s: int(np.sum(self.status == s.value)) for s in Status}

    def summary(self) -> dict:
        """Aggregate estimators; all fields deterministic for fixed inputs."""
        n = self.n_trials
        counts = self.counts()
        successes = counts[Status.SUCCESS_PARITY_EVEN] + counts[Status.SUCCESS_PARITY_ODD]
        success_flag = np.isin(
            self.status,
            [Status.SUCCESS_PARITY_EVEN.value, Status.SUCCESS_PARITY_ODD.value],
        ).astype(float)
        p_hat = successes / n if n else float("nan")
        time = float(np.sum(self.attempts)) * self.tau
        rate = successes / time if time > 0 else float("nan")
        if time > 0 and n > 1:
            resid = success_flag - rate * self.attempts * self.tau
            rate_se = float(np.sqrt(np.sum(resid**2))) / time
        else:
            rate_se = float("nan")
        good = self.fidelity[success_flag.astype(bool)]
        hist = {int(k): int(c) for k, c in zip(*np.unique(self.iterates, return_counts=True))}
        return {
            "n_trials": n,
            "successes": successes,
            "failures": counts[Status.FAILURE],
            "pending": counts[Status.PENDING],
            "success_rate": p_hat,
            "success_rate_se": math.sqrt(p_hat * (1.0 - p_hat) / n) if n else float("nan"),
            "total_attempts": int(np.sum(self.attempts)),
            "simulated_time": time,
            "bell_rate": rate,
            "bell_rate_se": rate_se,
            "mean_success_fidelity": float(np.mean(good)) if len(good) else float("nan"),
            "iterate_histogram": hist,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["seed", "trial", "attempts", "iterates", "status", "fidelity"])
            for k in range(self.n_trials):
                writer.writerow(
                    [
                        self.rng_seed,
                        int(self.trial[k]),
                        int(self.attempts[k]),
                        int(self.iterates[k]),
                        Status(self.status[k]).name.lower(),
                        repr(float(self.fidelity[k])),
                    ]
                )


def _outcome_probabilities(rho: np.ndarray, eta: float, sin_two_phi: float) -> np.ndarray:
    """Branch probabilities of one iterate from the state diagonal.

    Only the diagonal of the (normalized) client state enters, so no
    matrix work happens until the chosen branch map is applied.
    """
    d = rho.diagonal().real
    probs = np.empty(4)
    for idx, oc in enumerate(OUTCOMES):
        a, b = _PROJECTED_INDICES[oc.parity]
        p = 0.5 * (1.0 - eta) * (d[a] + d[b] + (2 * oc.i - 1) * sin_two_phi * (d[a] - d[b]))
        p += eta * d[oc.index]
        probs[idx] = max(p, 0.0)
    return probs


def _compact_step(
    state: tuple, i: int, j: int, eta: float, sin_two_phi: float, cross: tuple
) -> tuple[float, tuple]:
    """One branch-map application on a compact trajectory state.

    The trajectory dynamics never populate coherences outside the two
    opposite-parity pairs, so a state is carried as
    ``(d0, d1, d2, d3, c12, c03)`` with real diagonal entries and the
    complex entries rho[1,2] and rho[0,3].  Returns the unnormalized
    branch weight and the normalized successor in the same form.  Agrees
    entry for entry with the dense branch map; the dense route stays the
    reference implementation.
    """
    d0, d1, d2, d3, c12, c03 = state
    sign = 2 * i - 1
    half = 0.5 * (1.0 - eta)
    w_lo = half * (1.0 + sign * sin_two_phi)
    w_hi = half * (1.0 - sign * sin_two_phi)
    k = 2 * i + j
    if (i + j) & 1 == 0:
        # kept pair (1, 2); double-excitation spike lands on the other pair
        na, nb, nc = w_lo * d1, w_hi * d2, half * cross[i] * c12
        spike = eta * (d0, d1, d2, d3)[k]
        weight = na + nb + spike
        if weight <= 0.0:
            return 0.0, state
        inv = 1.0 / weight
        out = [0.0, na * inv, nb * inv, 0.0, nc * inv, 0.0]
        out[k] += spike * inv
    else:
        na, nb, nc = w_lo * d0, w_hi * d3, half * cross[i] * c03
        spike = eta * (d0, d1, d2, d3)[k]
        weight = na + nb + spike
        if weight <= 0.0:
            return 0.0, state
        inv = 1.0 / weight
        out = [na * inv, 0.0, 0.0, nb * inv, 0.0, nc * inv]
        out[k] += spike * inv
    return weight, tuple(out)


def run_trajectories(
    config: StrategyConfig,
    params: ApparatusParams,
    theta,
    n_trials: int,
    *,
    trial_start: int = 0,
) -> SampleStats:
    """Sample full distillation runs by Monte Carlo.

    Each trial starts from freshly reset clients in |++>, waits a
    geometric number of attempt windows for every herald, consumes the
    pair in one iterate and repeats until the history classifies or the
    iterate cap is hit.  Trial ``t`` draws from a generator seeded with
    (config.rng_seed, t), so results are reproducible bit for bit and
    independent of how a trial range is split into batches.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if trial_start < 0:
        raise ValueError("trial_start must be nonnegative")
    pair = heralded_state(params, theta)
    pc = p_click(params, theta)
    if pc < TRACE_EPSILON:
        raise DegenerateParameterError("click probability vanishes, nothing to sample")
    eta = pair.eta
    sin_two_phi = math.sin(2.0 * pair.phi)
    # f0 * conj(f1) for each first-bit value: cos(2 phi) e^{2 i sign delta}
    cross = tuple(
        math.cos(2.0 * pair.phi) * complex(math.cos(2.0 * pair.delta), s * math.sin(2.0 * pair.delta))
        for s in (-1.0, 1.0)
    )
    state0 = (0.25, 0.25, 0.25, 0.25, 0.25 + 0.0j, 0.25 + 0.0j)
    half = 0.5 * (1.0 - eta)
    seed = config.rng_seed
    cap = config.max_iterates
    trials = np.arange(trial_start, trial_start + n_trials, dtype=np.int64)
    attempts = np.zeros(n_trials, dtype=np.int64)
    iterates = np.zeros(n_trials, dtype=np.int64)
    status_codes = np.full(n_trials, Status.PENDING.value, dtype=np.int8)
    fidelities = np.full(n_trials, np.nan)
    for row in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial_start + row)))
        state = state0
        first_parity = -1
        count_diff = 0
        windows = 0
        status = Status.PENDING
        depth = 0
        while depth < cap:
            windows += int(rng.geometric(pc))
            d0, d1, d2, d3, c12, c03 = state
            s_even = d1 + d2
            z_even = sin_two_phi * (d1 - d2)
            s_odd = d0 + d3
            z_odd = sin_two_phi * (d0 - d3)
            p0 = half * (s_even - z_even) + eta * d0
            p1 = half * (s_odd - z_odd) + eta * d1
            p2 = half * (s_odd + z_odd) + eta * d2
            p3 = half * (s_even + z_even) + eta * d3
            r = rng.random() * (p0 + p1 + p2 + p3)
            if r < p0:
                idx = 0
            elif r < p0 + p1:
                idx = 1
            elif r < p0 + p1 + p2:
                idx = 2
            else:
                idx = 3
            i, j = idx >> 1, idx & 1
            depth += 1
            _, state = _compact_step(state, i, j, eta, sin_two_phi, cross)
            parity = (i + j) & 1
            if first_parity < 0:
                first_parity = parity
                count_diff = 1 if j == 0 else -1
            elif parity != first_parity:
                status = Status.FAILURE
                break
            else:
                count_diff += 1 if j == 0 else -1
                if count_diff == 0:
                    status = (
                        Status.SUCCESS_PARITY_EVEN
                        if first_parity == 0
                        else Status.SUCCESS_PARITY_ODD
                    )
                    break
        attempts[row] = windows
        iterates[row] = depth
        status_codes[row] = status.value
        if status.is_success:
            d0, d1, d2, d3, c12, c03 = state
            if first_parity == 0:
                fidelities[row] = 0.5 * (d1 + d2) + c12.real
            else:
                fidelities[row] = 0.5 * (d0 + d3) + c03.real
    angle = theta.theta if isinstance(theta, ExcitationAngle) else float(theta)
    return SampleStats(
        config, params, angle, trials, attempts, iterates, status_codes, fidelities
    )
