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

Exact results come from one walk (``_walk``).  A pending run is known
by its first outcome ``j`` and its balance: the count of ``j`` less the
count of its same-parity partner ``3 - j``.  Outcome ``k`` acts on the
clients as an entrywise mask, so the walk carries, per (first outcome,
balance), the summed unnormalized client matrix of all histories there,
and one mask product moves them all.  One fold (``_fold``) sums the
masses and success fidelities of the classes as each depth arrives.  The
exact tree (``run_strategy_exact``) is the fold on one broker, and walks
again to make each class one leaf only when its leaves are read; the
dark-count region grid is the cap-2 fold on a whole stack of brokers.

By the same masks a sampled trial's state is a function of its outcome
history, so the sampler keeps one per distinct history (``_sample_chunk``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from ._csvbytes import text_table, write_columns
from .constants import (
    BRANCH_PRUNE_EPSILON,
    PROBABILITY_SUM_ATOL,
    RANK_ONE_RTOL,
    TRACE_EPSILON,
)
from .errors import DegenerateParameterError
from .photonics import (
    BROKER_LABELS,
    ApparatusParams,
    ExcitationAngle,
    HeraldedPair,
    _per_tau,
    heralded_state,
    p_click,
)
from .qstate import (
    DensityMatrix,
    apply_cz,
    apply_one_qubit,
    project_x_unnormalized,
    ry_minus_half_pi,
    tensor,
)

# Unread here: bench/tracing.py patches it by name, and tests/test_tracing.py needs it.
from .qstate import fidelity  # noqa: F401

CLIENT_LABELS = ("C1", "C2")

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
    """Run-control policy for a distillation attempt sequence.

    A run repeats iterates until it classifies or reaches
    ``max_iterates``; the two-iterate strategy is the cap of two.
    """

    max_iterates: int = 2
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # operator.index raises TypeError on a non-integer before any work
        if operator.index(self.max_iterates) < 2:
            raise ValueError("a run needs at least two iterates to classify")
        if not 0 <= operator.index(self.rng_seed) < 2**64:
            raise ValueError("rng_seed must lie in [0, 2**64)")

    @classmethod
    def two_iterates_only(cls, rng_seed: int = 0) -> "StrategyConfig":
        return cls(2, rng_seed)

    @classmethod
    def loop(cls, max_iterates: int = 16, rng_seed: int = 0) -> "StrategyConfig":
        return cls(max_iterates, rng_seed)


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


# Outcome k reads broker entry (a ^ (3 - k), b ^ (3 - k)) into client
# entry (a, b); row k holds the broker index of each client index.
_MASK_INDEX = np.arange(4)[None, :] ^ (3 - np.arange(4))[:, None]


def _outcome_masks(pair: HeraldedPair | DensityMatrix | np.ndarray) -> np.ndarray:
    """Entrywise client masks of the four outcomes, stacked by outcome index.

    Between iterates the clients meet only the two controlled-Z gates,
    which are diagonal in the client basis, so outcome ``k`` maps any
    client state ``rho`` to the unnormalized entrywise product ``M_k *
    rho``, whatever the broker.  The rotated brokers' X measurement reads
    out the complement of their computational-basis index, and each
    controlled-Z flips its broker's outcome when its client bit is set,
    so ``M_k[a, b] = broker[a ^ (3 - k), b ^ (3 - k)]``: a gather of the
    broker matrix, for any 4x4 broker.  ``pair`` may also be a stack of
    broker matrices, shape ``(..., 4, 4)``, which gives masks of shape
    ``(..., 4, 4, 4)``.  The masks must sum to one on the diagonal (the
    broker's trace), or the broker does not define a trace-preserving
    iterate.
    """
    if isinstance(pair, HeraldedPair):
        pair = pair.expand(BROKER_LABELS)
    brokers = pair.elements if isinstance(pair, DensityMatrix) else pair
    if brokers.shape[-2:] != (4, 4):
        raise ValueError("the broker state must hold exactly two qubits")
    masks = brokers[..., _MASK_INDEX[:, :, None], _MASK_INDEX[:, None, :]]
    diagonal_sum = masks.diagonal(axis1=-2, axis2=-1).sum(axis=-2)
    defect = float(np.max(np.abs(diagonal_sum - 1.0)))
    if not (defect <= PROBABILITY_SUM_ATOL and np.isfinite(masks).all()):
        raise DegenerateParameterError(
            f"outcome masks must be finite and sum to one on the diagonal: defect {defect:.3e}"
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
    clients: DensityMatrix, pair: HeraldedPair | DensityMatrix
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
    broker = pair.expand(BROKER_LABELS) if isinstance(pair, HeraldedPair) else pair
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
    """One terminal (or cap-truncated) class of an exact strategy tree.

    A class holds the histories with one first outcome ``j`` and one
    count of each outcome; they share the status, the iterate count and
    the normalized client state.  ``history`` is one member: its ``j``s,
    then its partners ``3 - j``, then any failing outcome.
    ``probability`` is the class mass, summed over every member history.
    """

    history: tuple[IterateOutcome, ...]
    state: DensityMatrix
    status: Status
    probability: float

    @property
    def iterates(self) -> int:
        return len(self.history)


@dataclass(frozen=True, eq=False)
class ExactTree:
    """The exact strategy evolution: its masses, and its leaves on demand.

    ``run_strategy_exact`` reads each depth of the walk once (``_fold``)
    and keeps only sums over the classes, added one class at a time in
    leaf order, so each mass equals the same sum over ``leaves`` bit for
    bit.  ``leaves`` walks again on first read and makes one leaf per
    class.  Each leaf stands for every history of its class (see
    ``Leaf``), so leaf masses, not leaf counts, are the physical quantities.
    """

    initial_clients: DensityMatrix
    masks: np.ndarray  # outcome masks (``_outcome_masks``)
    cap: int
    status_masses: tuple[float, ...]  # by ``Status`` value
    success_probability: float
    total_probability: float  # the leaves' mass, then the pruned mass
    pruned_probability: float
    mean_iterates: float
    success_overlap: float  # fidelity times mass, summed over success classes

    def status_probability(self, status: Status) -> float:
        return self.status_masses[status.value]

    @property
    def failure_probability(self) -> float:
        return self.status_masses[Status.FAILURE.value]

    @property
    def pending_probability(self) -> float:
        return self.status_masses[Status.PENDING.value]

    @cached_property
    def leaves(self) -> tuple[Leaf, ...]:
        """Every success, failure and cap-pending class, one ``Leaf`` each."""
        labels, cap = self.initial_clients.labels, self.cap
        leaves = []
        walk = _walk(self.masks, self.initial_clients.elements, cap)
        for depth, (won, lost, pending, _) in enumerate(walk, start=2):
            for (j,), state, p in _kept(*won, labels):
                leaves.append(Leaf(_representative(j, depth, 0), state, _WON[j], p))
            for (j, b, f), state, p in _kept(*lost, labels):
                history = _representative(j, depth - 1, b + 1) + (OUTCOMES[_FAILING[j][f]],)
                leaves.append(Leaf(history, state, Status.FAILURE, p))
        for (j, b), state, p in _kept(*pending, labels):
            leaves.append(Leaf(_representative(j, cap, b + 1), state, Status.PENDING, p))
        return tuple(leaves)

    def mean_success_fidelity(self) -> float:
        """Probability-weighted fidelity of the success classes.

        Each success class is compared against the normalized projection
        of the initial client state onto the delivered parity subspace
        (the parity opposite to the measured one), which must be rank
        one.  NaN when no success mass survives.
        """
        return float(_success_fidelity(self.success_probability, self.success_overlap))


def _success_fidelity(success, overlap) -> np.ndarray:
    """``_fold``'s overlap sum over its success mass, NaN without success mass."""
    if np.isnan(overlap).any():
        raise DegenerateParameterError("a success fidelity needs a rank-one target")
    fid = np.full(np.shape(success), np.nan)
    return np.divide(overlap, success, out=fid, where=np.greater(success, TRACE_EPSILON))


def _targets(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conjugated target of each outcome's success, ``(4, 4, 4)``, and
    whether each measured parity's target is rank one, ``(2,)``.

    A success of measured parity ``m`` delivers the clients in the subspace
    ``_PROJECTED_INDICES[m]``; its target, left zero unless rank one (its top
    eigenvalue carries all but RANK_ONE_RTOL of its trace, as ``fidelity``
    requires), is the normalized projection of ``rho`` there.
    """
    entries, by_parity, rank_one = rho.tolist(), [], []
    for i, k in _PROJECTED_INDICES:
        a, b, d = entries[i][i].real, entries[i][k], entries[k][k].real
        trace = a + d
        top = 0.5 * trace + math.hypot(0.5 * (a - d), abs(b))
        rank_one.append(trace >= TRACE_EPSILON and top >= (1.0 - RANK_ONE_RTOL) * trace)
        target = np.zeros((4, 4), dtype=complex)
        for row in (i, k) if rank_one[-1] else ():
            for col in (i, k):
                target[row, col] = entries[row][col].conjugate() / trace
        by_parity.append(target)
    return np.stack([by_parity[o.parity] for o in OUTCOMES]), np.array(rank_one)


# The two outcomes of the other parity, which fail a run begun with j.
_FAILING = ((1, 2), (0, 3), (0, 3), (1, 2))


def _drop_light(classes: np.ndarray, batch: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero the classes lighter than the pruning epsilon, in place.

    Returns each class's mass, zero where it was dropped, then the dropped
    and the kept mass summed over the class axes.  A mass is the trace
    summed as ``np.trace`` sums a class that is contiguous in memory, so a
    stack member, which may lie otherwise, gets the bits of its own walk.
    """
    d = classes.diagonal(axis1=-2, axis2=-1).real
    mass = (d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3])
    light = mass < BRANCH_PRUNE_EPSILON
    classes[light] = 0.0
    kept = np.where(light, 0.0, mass)
    axes = tuple(range(batch, mass.ndim))
    return kept, np.where(light, mass, 0.0).sum(axis=axes), kept.sum(axis=axes)


def _walk(masks: np.ndarray, rho: np.ndarray, cap: int):
    """Every class of a strategy run, for outcome masks ``(..., 4, 4, 4)``.

    ``classify`` reads a pending history by its first outcome ``j`` and
    its balance ``b``, the count of ``j`` less that of its partner
    ``3 - j``.  Class (j, b) carries the summed unnormalized client
    matrix of its histories, whose trace is its mass; the masks act
    entrywise, so one product moves a whole class.  Outcome ``j`` moves it
    to ``b + 1``, the partner to ``b - 1`` (success at 0), and the other
    parity (``_FAILING[j]``) fails it.  Yields, for each depth from 2 to
    ``cap``, the success classes ``(..., j)``, the failure classes ``(...,
    j, b - 1, f)``, ``f`` the failing outcome's place in ``_FAILING[j]``,
    and the classes still pending ``(..., j, b - 1)``, each as a pair of
    the class matrices and their masses, then the mass pruned so far
    ``(...)``, and keeps no depth it has yielded.  A class lighter than
    ``BRANCH_PRUNE_EPSILON`` is zeroed where it is reached and its mass
    pruned.  The walk stops after the first depth that leaves no class
    pending in any stack member, so it may end before ``cap``; the depths
    it skips would add only zeros.  Once exhausted, it raises unless the
    kept and the pruned mass sum to one.
    """
    batch = masks.ndim - 3
    grow = masks[..., :, None, :, :]
    close = masks[..., ::-1, None, :, :]
    fail = masks[..., _FAILING, :, :][..., :, None, :, :, :]
    pending = grow * rho
    _, pruned, waiting = _drop_light(pending, batch)
    settled = np.zeros_like(pruned)
    for depth in range(2, cap + 1):
        lost = pending[..., None, :, :] * fail
        closed = pending * close
        grown = pending * grow
        pending = np.zeros(grown.shape[:-3] + (depth,) + grown.shape[-2:], dtype=grown.dtype)
        pending[..., 1:, :, :] = grown
        pending[..., : depth - 2, :, :] += closed[..., 1:, :, :]
        won = closed[..., 0, :, :]
        won_mass, dropped, kept = _drop_light(won, batch)
        pruned, settled = pruned + dropped, settled + kept
        lost_mass, dropped, kept = _drop_light(lost, batch)
        pruned, settled = pruned + dropped, settled + kept
        pending_mass, dropped, waiting = _drop_light(pending, batch)
        pruned = pruned + dropped
        yield (won, won_mass), (lost, lost_mass), (pending, pending_mass), pruned
        # a kept class weighs at least the pruning epsilon, so no waiting
        # mass means every class is zero and no later depth adds anything
        if not waiting.any():
            break
    defect = float(np.max(np.abs(settled + waiting + pruned - 1.0)))
    if not defect <= PROBABILITY_SUM_ATOL:
        raise DegenerateParameterError(
            f"strategy tree lost probability mass: defect {defect:.3e}"
        )


def _representative(j: int, length: int, balance: int) -> tuple[IterateOutcome, ...]:
    """A pending history of ``length`` outcomes: ``j``, then its partner."""
    ahead = (length + balance) // 2
    return (OUTCOMES[j],) * ahead + (OUTCOMES[3 - j],) * (length - ahead)


# Status of a success class, by its first outcome's parity.
_WON = tuple(Status(1 + o.parity) for o in OUTCOMES)


def _kept(classes: np.ndarray, mass: np.ndarray, labels):
    """Index, normalized state and mass of each class the walk kept."""
    kept = mass > 0.0
    states = classes[kept] / mass[kept][:, None, None]
    for index, state, p in zip(np.argwhere(kept).tolist(), states, mass[kept].tolist()):
        yield index, DensityMatrix(state, labels, validate=False), p


def _fold(masks: np.ndarray, rho: np.ndarray, cap: int):
    """The statistics of a strategy run, read off one walk (``_walk``).

    Per member of a stack of masks ``(..., 4, 4, 4)``: the status masses
    ``(..., 4)`` by ``Status`` value, the success mass, the total (with
    the pruned mass), the pruned mass, ``mean_iterates`` and the success
    overlap sum, to which a success class ``S`` of mass ``p`` adds
    ``clip(<T|S>, 0, p)``, ``p`` times its clipped fidelity to its target
    ``T`` (``_targets``; NaN where ``T`` is not rank one).  Each sum adds
    its classes in leaf order, one at a time (``np.add.accumulate``); a
    pruned class adds 0.0, which leaves a sum's bits as they are.
    """
    targets, rank_one = _targets(rho)
    # Columns of ``sums``: the even and odd success masses, the success
    # mass, the overlap sum, the total, the mass times iterates, the failure
    # and the pending mass.  A class adds its row of ``weights`` times its mass.
    weights = np.zeros((8 * cap - 4, 7))
    weights[:4, :3] = [[o.parity == 0, o.parity == 1, 1.0] for o in OUTCOMES]
    weights[:, 4] = weights[4:, 6] = 1.0
    sums = np.zeros(masks.shape[:-3] + (8,))

    def add(columns: slice, rows: np.ndarray) -> None:
        rows[..., 0, :] += sums[..., columns]
        sums[..., columns] = np.add.accumulate(rows, axis=-2)[..., -1, :]

    walk = enumerate(_walk(masks, rho, cap), start=2)
    for depth, ((won, won_mass), (_, lost_mass), (_, pending_mass), pruned) in walk:
        masses = np.concatenate([won_mass, lost_mass.reshape(sums.shape[:-1] + (-1,))], axis=-1)
        weights[:, 5] = depth
        rows = masses[..., None] * weights[: masses.shape[-1]]
        overlap = np.maximum((won * targets).sum(axis=(-2, -1)).real, 0.0)
        rows[..., :4, 3] = np.minimum(overlap, won_mass)
        add(slice(0, 7), rows)
    add(slice(4, 8), pending_mass.reshape(sums.shape[:-1] + (-1, 1)) * [1.0, cap, 0.0, 1.0])
    # NaN where a success of measured parity m rests on a target that is not rank one
    misread = ((sums[..., :2] > 0.0) & ~rank_one).any(axis=-1)
    overlap = np.where(misread, np.nan, sums[..., 3])
    by_status = sums[..., [7, 0, 1, 6]]
    return by_status, sums[..., 2], sums[..., 4] + pruned, pruned, sums[..., 5], overlap


def run_strategy_exact(
    clients: DensityMatrix,
    pair: HeraldedPair | DensityMatrix,
    config: StrategyConfig,
) -> ExactTree:
    """Evaluate every measurement branch of a strategy exactly.

    Folds the walk of the classes (``_fold``) under the outcome masks
    gathered from the broker (``_outcome_masks``), adding the mass of
    each success, failure and cap-pending class to the tree's sums as its
    depth arrives.  Classes lighter than the pruning epsilon are dropped
    into ``pruned_probability``, and the walk checks that probability is
    conserved.
    """
    if clients.n_qubits != 2:
        raise ValueError("the iterate acts on exactly two client qubits")
    initial = clients.normalized()
    masks, cap = _outcome_masks(pair), config.max_iterates
    by_status, *sums = _fold(masks, initial.elements, cap)
    return ExactTree(initial, masks, cap, tuple(by_status.tolist()), *map(float, sums))


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
# index, so results never depend on this; it bounds the working arrays
# (~0.8 MB).  Of 2,048 to 16,384 it samples cap 2 fastest; deeper caps
# spread their per-depth work over more trials in larger chunks.
_CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class SampleStats:
    """Per-trial Monte Carlo records.

    Arrays are aligned by row and sorted by trial index.  ``config``,
    ``params`` and ``theta`` (the excitation angle in radians) record
    what the trials were drawn from; every uniform comes from stream
    version ``STREAM_VERSION``.
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
        if n and np.any(self.trial[1:] <= self.trial[:-1]):
            raise ValueError("trial indices must be strictly increasing")
        # preconditions of write_csv's column writer
        for name in ("trial", "attempts", "iterates"):
            column = getattr(self, name)
            if column.dtype.kind not in "iu" or (n and column.min() < 0):
                raise ValueError(f"column {name!r} must hold nonnegative integers")
        # summary's histogram has a bin per iterate count up to the
        # largest, so the cap bounds its size
        if n and self.iterates.max() > self.config.max_iterates:
            raise ValueError("column 'iterates' must not exceed config.max_iterates")
        if self.status.dtype.kind not in "iu" or (
            n and not 0 <= self.status.min() <= self.status.max() < len(Status)
        ):
            raise ValueError("column 'status' must hold Status values")
        if self.fidelity.dtype != np.float64:
            raise ValueError("column 'fidelity' must be float64")

    @property
    def n_trials(self) -> int:
        return len(self.trial)

    @property
    def rng_seed(self) -> int:
        return self.config.rng_seed

    @property
    def tau(self) -> float:
        return self.params.tau

    def summary(self) -> dict:
        """Aggregate estimators; all fields deterministic for fixed inputs.

        Its temporaries peak near nine bytes a trial: the success mask
        and the rate residuals, squared in place.  The iterate histogram
        has one bin per iterate count up to the largest, at most the cap.
        """
        n = self.n_trials
        counts = np.bincount(self.status, minlength=len(Status)).tolist()
        even, odd = Status.SUCCESS_PARITY_EVEN.value, Status.SUCCESS_PARITY_ODD.value
        successes = counts[even] + counts[odd]
        success = (self.status == even) | (self.status == odd)
        p_hat = successes / n if n else float("nan")
        total_attempts = int(np.sum(self.attempts))
        # per window, divided by tau last: time may overflow to inf
        per_window = successes / total_attempts if total_attempts else float("nan")
        rate = _per_tau(per_window, self.tau) if total_attempts else per_window
        if total_attempts and n > 1:
            resid = per_window * self.attempts
            np.subtract(success, resid, out=resid)
            np.square(resid, out=resid)
            rate_se = _per_tau(float(np.sqrt(np.sum(resid))) / total_attempts, self.tau)
            del resid
        else:
            rate_se = float("nan")
        mean_fidelity = float(np.mean(self.fidelity[success])) if successes else float("nan")
        del success
        bins = np.bincount(self.iterates.astype(np.intp, copy=False))
        hist = {int(k): int(bins[k]) for k in np.flatnonzero(bins)}
        return {
            "n_trials": n,
            "successes": successes,
            "failures": counts[Status.FAILURE.value],
            "pending": counts[Status.PENDING.value],
            "success_rate": p_hat,
            "success_rate_se": math.sqrt(p_hat * (1.0 - p_hat) / n) if n else float("nan"),
            "total_attempts": total_attempts,
            "simulated_time": float(total_attempts) * self.tau,
            "bell_rate": rate,
            "bell_rate_se": rate_se,
            "mean_success_fidelity": mean_fidelity,
            "iterate_histogram": hist,
        }

    def write_csv(self, path) -> None:
        """One row per trial, in trial order, through ``write_columns``:
        the integer columns as digits, ``fidelity`` as its ``repr``, and the
        seed and status gathered from small text tables."""
        seed = (text_table([str(self.rng_seed)]), np.broadcast_to(np.intp(0), (self.n_trials,)))
        status = (text_table([Status(v).name.lower() for v in range(len(Status))]), self.status)
        write_columns(
            path,
            ["seed", "trial", "attempts", "iterates", "status", "fidelity"],
            [seed, self.trial, self.attempts, self.iterates, status, self.fidelity],
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


def _positive(weight: np.ndarray) -> None:
    """Raise unless every chosen branch weight, which a successor state
    is divided by, is positive."""
    if not (weight > 0.0).all():
        raise DegenerateParameterError("sampled an outcome of zero probability")


def _advance(
    states: np.ndarray,
    outcome: np.ndarray,
    weight: np.ndarray,
    scale: np.ndarray,
    twist: np.ndarray,
) -> np.ndarray:
    """Apply each column's chosen branch map and renormalize by its weight.

    Every operation is elementwise per column, so advancing a subset of
    the columns gives the same bits as advancing all and then selecting.
    """
    grown = scale[:, outcome] * states + twist[:, outcome] * states[_PARTNER]
    return grown * (1.0 / weight)


def _sample_chunk(
    streams: np.ndarray,
    scale: np.ndarray,
    twist: np.ndarray,
    log_miss: float,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evolve one chunk of trials together, one iterate depth at a time.

    Draw ``2 d`` of a trial gives the attempt windows of its herald at
    depth ``d`` and draw ``2 d + 1`` its outcome.  Trials leave the
    working arrays as soon as their history classifies; those left at
    the cap stay pending.  ``log_miss`` is ln(1 - p_click), -inf when
    every window heralds, which makes every wait one window.

    A trial's state is a function of its outcome history alone, so the
    chunk keeps one column per distinct live history (``table``) and each
    trial the index of its column (``node``); depth 0 is the column |++>.
    Weights are computed per column and checked per trial, a failing
    trial's too.  Each successor key ``4 node + k`` that is read is
    advanced once: a trial's that did not fail, and at the cap only a
    success's, for its fidelity.  Every step is elementwise per column,
    so the bits are those of advancing each trial alone.
    """
    n = len(streams)
    attempts = np.zeros(n, dtype=np.int64)
    iterates = np.full(n, cap, dtype=np.int64)
    status = np.full(n, Status.PENDING.value, dtype=np.int8)
    fidelity = np.full(n, np.nan)
    live = np.arange(n)
    windows = np.zeros(n, dtype=np.int64)
    table = _PLUS_COMPACT[:, None]
    node, balance = np.zeros((2, n), dtype=np.intp)
    for depth in range(cap):
        wait = _uniforms(streams, 2 * depth)
        windows += (np.floor(np.log1p(-wait) / log_miss) + 1.0).astype(np.int64)
        probs = _branch_probabilities(table, scale)
        outcome = _pick_outcome(probs[:, node], _uniforms(streams, 2 * depth + 1))
        _positive(probs[outcome, node])
        parity = (outcome ^ (outcome >> 1)) & 1
        if depth == 0:
            first = parity
        # +1 for j = 0 and -1 for j = 1: the two signatures of one parity
        balance += 1 - 2 * (outcome & 1)
        failed = parity != first
        succeeded = ~failed & (balance == 0)
        last = depth + 1 == cap
        key = node * 4 + outcome
        counts = np.bincount(key[succeeded if last else ~failed])
        need = counts.nonzero()[0]
        parent, picked = need >> 2, need & 3
        table = _advance(table[:, parent], picked, probs[picked, parent], scale, twist)
        column = np.empty(len(counts), dtype=np.intp)
        column[need] = np.arange(len(need))
        status[live[failed]] = Status.FAILURE.value
        if succeeded.any():
            won, won_first = live[succeeded], first[succeeded]
            status[won] = 1 + won_first
            # each column's overlap with the even and odd targets, clipped as
            # ``fidelity`` clips it: roundoff can carry a perfect pair past 1
            overlap = 0.5 * (table[[1, 0]] + table[[2, 3]]) + table[[4, 6]]
            fidelity[won] = np.clip(overlap[won_first, column[key[succeeded]]], 0.0, 1.0)
        done = failed | succeeded
        iterates[live[done]] = depth + 1
        attempts[live[done]] = windows[done]
        keep = ~done
        live, streams, windows = live[keep], streams[keep], windows[keep]
        if not len(live) or last:
            break
        first, balance, node = first[keep], balance[keep], column[key[keep]]
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
    result either.  Trial indices lie in [0, 2**63), and the sampled link
    is dark-free: a nonzero ``params.p_dark`` raises.
    """
    n_trials, trial_start = operator.index(n_trials), operator.index(trial_start)
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if not 0 <= trial_start <= 2**63 - n_trials:
        raise ValueError(
            f"trials {trial_start} .. {trial_start + n_trials - 1} leave the range [0, 2**63)"
        )
    if params.p_dark != 0.0:
        raise DegenerateParameterError(
            "trajectory sampling models the dark-free link; set p_dark to 0"
        )
    pair = heralded_state(params, theta)
    pc = p_click(params, theta)
    if pc < TRACE_EPSILON:
        raise DegenerateParameterError("click probability vanishes, nothing to sample")
    # at p_click = 1, log1p(-u) / -inf is +0.0: every herald takes one window
    log_miss = math.log1p(-pc) if pc < 1.0 else -math.inf
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
