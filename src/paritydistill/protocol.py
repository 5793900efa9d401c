"""Distillation protocol: iterates, outcome classification, exact trees, sampling.

One iterate consumes a fresh heralded pair: both broker qubits are
rotated, entangled to their clients with controlled-Z gates and measured
in the X basis, leaving a two-bit outcome record and a transformed
client state.  A run repeats iterates until its outcome history
classifies as success or failure, or a strategy-dependent cap is hit.

One iterate has one closed form: its four outcome masks, a gather of
the broker matrix (``_outcome_masks``), which the exact trees,
``iterate_channel`` and the sampler's tables all read.  The circuit
route (``run_iterate_exact``) evolves the full four-qubit density matrix
through the gate sequence; no production path calls it, and the test
suite keeps it as the independent oracle the gather is pinned against.

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
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must lie in [0, 2**64)")

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


# Outcome k reads broker entry (a ^ (3 - k), b ^ (3 - k)) into client
# entry (a, b); row k holds the broker index of each client index.
_MASK_INDEX = np.arange(4)[None, :] ^ (3 - np.arange(4))[:, None]


def _outcome_masks(pair: HeraldedPair | DensityMatrix) -> np.ndarray:
    """Entrywise client masks of the four outcomes, stacked by outcome index.

    Between iterates the clients meet only the two controlled-Z gates,
    which are diagonal in the client basis, so outcome ``k`` maps any
    client state ``rho`` to the unnormalized entrywise product ``M_k *
    rho``, whatever the broker.  The rotated brokers' X measurement reads
    out the complement of their computational-basis index, and each
    controlled-Z flips its broker's outcome when its client bit is set,
    so ``M_k[a, b] = broker[a ^ (3 - k), b ^ (3 - k)]``: a gather of the
    broker matrix, for any 4x4 broker.  The masks must sum to one on the
    diagonal (the broker's trace), or the broker does not define a
    trace-preserving iterate.
    """
    broker = pair.expand(BROKER_LABELS) if isinstance(pair, HeraldedPair) else pair
    if broker.n_qubits != 2:
        raise ValueError("the broker state must hold exactly two qubits")
    masks = broker.elements[_MASK_INDEX[:, :, None], _MASK_INDEX[:, None, :]]
    defect = float(np.max(np.abs(masks.diagonal(axis1=1, axis2=2).sum(axis=0) - 1.0)))
    if defect > PROBABILITY_SUM_ATOL:
        raise DegenerateParameterError(
            f"outcome masks do not sum to one on the diagonal: defect {defect:.3e}"
        )
    return masks


def iterate_channel(
    clients: DensityMatrix, pair: HeraldedPair, outcome: IterateOutcome
) -> DensityMatrix:
    """Closed-form route: unnormalized post-iterate client state.

    The trace of the result is the outcome probability when ``clients``
    is normalized.  The first client label carries the distortion.
    """
    if clients.n_qubits != 2:
        raise ValueError("the iterate acts on exactly two client qubits")
    out = _outcome_masks(pair)[outcome.index] * clients.elements
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
    keyed by their first outcome and their four outcome counts, with the
    outcome masks gathered from the broker (``_outcome_masks``).
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

# Version of the sampled trajectories: bumped by any change that can
# alter a sampled bit.  Version 0 was numpy's per-trial Generator seeded
# with (seed, trial); version 1 the counter streams with outcome tables
# read off the dense branch maps.  Version 2 reads the tables from the
# gathered outcome masks, whose entries differ from version 1's by up to
# 2.3e-16, enough to flip an outcome whose uniform sits on a threshold.
STREAM_VERSION = 2

# Trials evolved together.  Uniforms are keyed by the absolute trial
# index, so results never depend on this; it only bounds the working
# arrays, which stay near 1 MB.
_CHUNK_TRIALS = 2048

# CSV rows formatted per write.
_CSV_BATCH_ROWS = 1024

_STATUS_NAMES = {s.value: s.name.lower() for s in Status}


@dataclass(frozen=True)
class SampleStats:
    """Per-trial Monte Carlo records.

    Arrays are aligned by row and sorted by trial index.  ``config``,
    ``params`` and ``theta`` (the excitation angle in radians) record
    what the trials were drawn from, and ``stream`` the version of the
    uniform stream.  Merging two disjoint batches drawn from the same
    strategy, seed, link parameters, angle and stream is exact:
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
    stream: int = STREAM_VERSION

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
        strategies, seeds, caps, link parameters, angles or stream
        versions.
        """
        mine = (self.config, self.params, self.theta, self.stream)
        theirs = (other.config, other.params, other.theta, other.stream)
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
            self.stream,
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
        """One row per trial, in trial order, formatted in batches."""
        seed = self.rng_seed
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("seed,trial,attempts,iterates,status,fidelity\n")
            for lo in range(0, self.n_trials, _CSV_BATCH_ROWS):
                rows = slice(lo, lo + _CSV_BATCH_ROWS)
                columns = zip(
                    self.trial[rows].tolist(),
                    self.attempts[rows].tolist(),
                    self.iterates[rows].tolist(),
                    self.status[rows].tolist(),
                    self.fidelity[rows].tolist(),
                )
                fh.write(
                    "".join(
                        f"{seed},{t},{a},{k},{_STATUS_NAMES[c]},{f!r}\n"
                        for t, a, k, c, f in columns
                    )
                )


# Per-trial uniforms come from nested SplitMix64 streams (Steele, Lea and
# Flood, OOPSLA 2014), evaluated counter-style as in Salmon et al., SC'11:
# the seed's stream gives one state per trial, and the trial's stream
# gives its draws.  Every uniform is a pure function of (seed, trial,
# draw index), computed in wrapping uint64 arithmetic.
_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Compact trajectory rows: d0..d3, then (re, im) of rho[1,2] and of
# rho[0,3].  ``_PARTNER`` pairs each coherence row with its other half;
# every entry of |++> is 1/4.
_PARTNER = np.array([0, 1, 2, 3, 5, 4, 7, 6])
_PLUS_COMPACT = np.array([0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.25, 0.0])


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function on a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _trial_streams(seed: int, trials: np.ndarray) -> np.ndarray:
    """SplitMix64 state of each trial: output ``t`` of the seed's stream.

    The seed's stream starts from ``mix64(seed + gamma)``, so nearby
    seeds do not share shifted trial streams.
    """
    key = _mix64(np.array([(seed + _GOLDEN_GAMMA) & _MASK64], dtype=np.uint64))
    counters = (trials.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN_GAMMA)
    return _mix64(key + counters)


def _uniforms(streams: np.ndarray, draw: int) -> np.ndarray:
    """Draw ``draw`` of each trial stream, as a 53-bit float in [0, 1)."""
    offset = np.uint64(((draw + 1) * _GOLDEN_GAMMA) & _MASK64)
    bits = _mix64(streams + offset) >> np.uint64(11)
    return bits.astype(np.float64) * 2.0**-53


def _compact_tables(pair: HeraldedPair) -> tuple[np.ndarray, np.ndarray]:
    """Per-outcome multipliers of the compact trajectory state.

    From |++> the outcome masks never populate a coherence outside the
    opposite-parity pairs, so a trajectory state is carried as eight real
    rows: the diagonal d0..d3, then the real and imaginary parts of
    rho[1,2] and of rho[0,3].  Outcome ``k`` multiplies the state
    entrywise by its mask (``_outcome_masks``).  Row ``r`` of the
    successor is ``scale[r, k] * row_r + twist[r, k] * partner_r``, which
    is the complex product for a coherence and a plain scaling (``twist``
    zero) for the diagonal.  Both tables have shape (8, 4): one column
    per outcome.
    """
    masks = _outcome_masks(pair)
    scale = np.zeros((8, 4))
    twist = np.zeros((8, 4))
    scale[:4] = masks.diagonal(axis1=1, axis2=2).real.T
    for row, (a, b) in ((4, (1, 2)), (6, (0, 3))):
        scale[row] = scale[row + 1] = masks[:, a, b].real
        twist[row] = -masks[:, a, b].imag
        twist[row + 1] = masks[:, a, b].imag
    return scale, twist


def _branch_probabilities(states: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Outcome probabilities, shape (4, m), of compact states of shape (8, m).

    ``p_k = sum_j scale[j, k] d_j``, summed in index order.  Every term
    is nonnegative, so a probability is exactly zero only when each of
    its terms is.
    """
    probs = scale[0, :, None] * states[0]
    for j in (1, 2, 3):
        probs = probs + scale[j, :, None] * states[j]
    return probs


def _pick_outcome(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index by inverse CDF on ``u`` in [0, 1).

    The index counts the cumulative thresholds at or below ``u`` times
    the total.  A zero-probability outcome shares its threshold with the
    next one, and ``u * total < total`` for every ``u < 1``, so such an
    outcome is never chosen.
    """
    first = probs[0]
    second = first + probs[1]
    third = second + probs[2]
    r = u * (third + probs[3])
    return (r >= first).astype(np.intp) + (r >= second) + (r >= third)


def _advance(
    states: np.ndarray,
    outcome: np.ndarray,
    probs: np.ndarray,
    scale: np.ndarray,
    twist: np.ndarray,
) -> np.ndarray:
    """Apply each column's chosen branch map and renormalize.

    Raises rather than divide by a chosen branch weight that is not
    positive.
    """
    weight = probs[outcome, np.arange(len(outcome))]
    if not np.all(weight > 0.0):
        raise DegenerateParameterError("sampled an outcome of zero probability")
    grown = scale[:, outcome] * states + twist[:, outcome] * states[_PARTNER]
    return grown * (1.0 / weight)


def _sample_chunk(
    streams: np.ndarray,
    scale: np.ndarray,
    twist: np.ndarray,
    log_miss: float | None,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evolve one chunk of trials together, one iterate depth at a time.

    Draw ``2 d`` of a trial gives the attempt windows of its herald at
    depth ``d`` and draw ``2 d + 1`` its outcome.  Trials leave the
    working arrays as soon as their history classifies; those left at
    the cap stay pending.  ``log_miss`` is ln(1 - p_click), or None when
    every window heralds.
    """
    n = len(streams)
    attempts = np.zeros(n, dtype=np.int64)
    iterates = np.full(n, cap, dtype=np.int64)
    status = np.full(n, Status.PENDING.value, dtype=np.int8)
    fidelity = np.full(n, np.nan)
    live = np.arange(n)
    states = np.repeat(_PLUS_COMPACT[:, None], n, axis=1)
    windows = np.zeros(n, dtype=np.int64)
    first = balance = None
    for depth in range(cap):
        wait = _uniforms(streams, 2 * depth)
        if log_miss is None:
            windows += 1
        else:
            windows += (np.floor(np.log1p(-wait) / log_miss) + 1.0).astype(np.int64)
        probs = _branch_probabilities(states, scale)
        outcome = _pick_outcome(probs, _uniforms(streams, 2 * depth + 1))
        states = _advance(states, outcome, probs, scale, twist)
        parity = (outcome ^ (outcome >> 1)) & 1
        # +1 for j = 0 and -1 for j = 1: the two signatures of one parity
        step = 1 - 2 * (outcome & 1)
        if depth == 0:
            first, balance = parity, step
            continue
        balance += step
        failed = parity != first
        succeeded = ~failed & (balance == 0)
        status[live[failed]] = Status.FAILURE.value
        won = live[succeeded]
        status[won] = 1 + first[succeeded]
        kept = states[:, succeeded]
        fidelity[won] = np.where(
            first[succeeded] == 0,
            0.5 * (kept[1] + kept[2]) + kept[4],
            0.5 * (kept[0] + kept[3]) + kept[6],
        )
        done = failed | succeeded
        iterates[live[done]] = depth + 1
        attempts[live[done]] = windows[done]
        keep = ~done
        live, streams, states = live[keep], streams[keep], states[:, keep]
        windows, first, balance = windows[keep], first[keep], balance[keep]
        if not len(live):
            break
    attempts[live] = windows
    return attempts, iterates, status, fidelity


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
    iterate cap is hit.  Every uniform is a pure function of
    (config.rng_seed, trial index, draw index), version
    ``STREAM_VERSION``, so results are reproducible bit for bit and
    independent of how a trial range is split into batches.  Trials are
    evolved together in fixed chunks, and the chunking cannot change a
    result either.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if trial_start < 0:
        raise ValueError("trial_start must be nonnegative")
    pair = heralded_state(params, theta)
    pc = p_click(params, theta)
    if pc < TRACE_EPSILON:
        raise DegenerateParameterError("click probability vanishes, nothing to sample")
    # at p_click = 1 every herald takes exactly one window
    log_miss = math.log1p(-pc) if pc < 1.0 else None
    scale, twist = _compact_tables(pair)
    trials = np.arange(trial_start, trial_start + n_trials, dtype=np.int64)
    attempts = np.empty(n_trials, dtype=np.int64)
    iterates = np.empty(n_trials, dtype=np.int64)
    status_codes = np.empty(n_trials, dtype=np.int8)
    fidelities = np.empty(n_trials)
    for lo in range(0, n_trials, _CHUNK_TRIALS):
        rows = slice(lo, lo + _CHUNK_TRIALS)
        streams = _trial_streams(config.rng_seed, trials[rows])
        attempts[rows], iterates[rows], status_codes[rows], fidelities[rows] = _sample_chunk(
            streams, scale, twist, log_miss, config.max_iterates
        )
    angle = theta.theta if isinstance(theta, ExcitationAngle) else float(theta)
    return SampleStats(
        config, params, angle, trials, attempts, iterates, status_codes, fidelities
    )
