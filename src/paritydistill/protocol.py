"""Distillation protocol: iterates, outcome classification, exact trees, sampling.

One iterate consumes a fresh heralded pair: both broker qubits are
rotated, entangled to their clients with controlled-Z gates and measured
in the X basis, leaving a two-bit outcome record and a transformed
client state.  A run repeats iterates until its outcome history
classifies as success or failure, or a strategy-dependent cap is hit.

One iterate has one closed form: its four outcome masks, a gather of
the broker matrix (``_outcome_masks``), which the exact trees and the
sampler's tables both read.  The circuit route (``run_iterate_exact``)
evolves the full four-qubit density matrix through the gate sequence;
no production path calls it, and the test suite keeps it as the
independent oracle the gather is pinned against.

Outcome ``k`` acts on the clients as an entrywise mask whose diagonal
``m_k`` sums to one over ``k``, so the histories are a mixture over
client entries ``a``, of weight ``rho_aa``, of independent outcomes, ``k``
of weight ``m_k[a]``.  Given its first parity ``p``, a run is then a +-1
walk on the balance of ``p``'s two outcomes that succeeds at its first
return and fails on an outcome of the other parity.  The exact
statistics (``_fold``) are that walk's first-passage law
(``_first_passage``), O(cap) per (parity, entry), with each success's
fidelity from one closed form (``_success_fidelities``).  The exact tree
(``run_strategy_exact``) is the fold on one broker; the dark-count region
grid is the cap-2 fold on a whole stack.

A tree's leaves come from a second evaluator, read only when ``leaves``
is: one walk (``_walk``) of the tree's one broker over count classes, a
pending run known by ``p`` and the count ``n`` of its raising outcome
``_RAISES[p]``, each class carrying the summed unnormalized client
matrix of its histories.

The sampler draws from the same mixture: a trial carries its entry and
its balance class and reads its weights, status codes, next classes and
success fidelity off static O(cap) tables (``_run_tables``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import ClassVar, Sequence

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

# By first parity ``p``, the measured parity of a success: the moves of a
# pending run, the outcomes that add 0 and 1 to its count ``n`` of raising
# outcomes and the two of the other parity, which fail it; and the client
# basis indices a success projects onto, those of the other parity.
_MOVES = np.array([[3, 0, 1, 2], [1, 2, 0, 3]])
_LOWERS, _RAISES, _FAILS = _MOVES[:, 0], _MOVES[:, 1], _MOVES[:, 2:]
_DELIVERED = np.array([[1, 2], [0, 3]])
# The entries of Q = M_A * M_B a success reads, by first parity: diagonal, delivered coherence
_Q_ROWS = np.array([[0, 1, 2, 3, 1], [0, 1, 2, 3, 0]])
_Q_COLS = np.array([[0, 1, 2, 3, 2], [0, 1, 2, 3, 3]])


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

    A class holds the histories with one first outcome and one count of
    each outcome; they share the status, the iterate count and the
    normalized client state.  ``history`` is one member: the more frequent
    outcome of its parity, the other, then any outcome that ended it.
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

    The statistics come from the first-passage law (``_fold``), which
    prunes nothing: ``total_probability`` is the law's total, and
    ``pruned_probability`` the constant 0.0.  ``leaves`` walks the count
    classes of the one broker (``_walk``) on first read and makes one leaf
    per class, in the order the walk yields them; the walk drops classes
    lighter than the pruning epsilon, so the leaf masses fall short of the
    statistics by the mass it dropped.  Each leaf stands for every history
    of its class (see ``Leaf``), so leaf masses, not leaf counts, are the
    physical quantities.
    """

    initial_clients: DensityMatrix
    masks: np.ndarray  # outcome masks (``_outcome_masks``)
    cap: int
    status_masses: tuple[float, ...]  # by ``Status`` value
    success_probability: float
    total_probability: float  # the law's total, one within PROBABILITY_SUM_ATOL
    mean_iterates: float
    success_overlap: float  # fidelity times mass, summed over success classes
    pruned_probability: ClassVar[float] = 0.0  # the law prunes nothing

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
            for (p, s), state, mass in _kept(*won, labels):
                last = OUTCOMES[(_RAISES, _LOWERS)[s][p]]
                history = _representative(p, depth // 2 - 1 + s, depth - 1) + (last,)
                leaves.append(Leaf(history, state, Status(1 + p), mass))
            for (p, n, f), state, mass in _kept(*lost, labels):
                history = _representative(p, n, depth - 1) + (OUTCOMES[_FAILS[p, f]],)
                leaves.append(Leaf(history, state, Status.FAILURE, mass))
        for (p, n), state, mass in _kept(*pending, labels):
            leaves.append(Leaf(_representative(p, n, cap), state, Status.PENDING, mass))
        return tuple(leaves)

    def mean_success_fidelity(self) -> float:
        """Probability-weighted fidelity of the success classes to the
        normalized projection of the initial clients onto the delivered
        parity subspace, which must be rank one (``_success_fidelities``).
        NaN when no success mass survives."""
        return float(_success_fidelity(self.success_probability, self.success_overlap))


def _success_fidelity(success, overlap) -> np.ndarray:
    """``_fold``'s overlap sum over its success mass, NaN without success mass."""
    if np.isnan(overlap).any():
        raise DegenerateParameterError("a success fidelity needs a rank-one target")
    fid = np.full(np.shape(success), np.nan)
    return np.divide(overlap, success, out=fid, where=np.greater(success, TRACE_EPSILON))


def _success_fidelities(masks: np.ndarray, rho: np.ndarray, pairs: np.ndarray):
    """Fidelity of a success after ``2 m`` outcomes, ``m`` in ``pairs``, by
    first parity, ``(..., len(pairs), 2)`` for masks ``(..., 4, 4, 4)``,
    and whether each parity's target is rank one, ``(2,)``.

    A success of first parity ``p`` holds ``rho * Q^m`` entrywise, ``Q =
    M_A * M_B`` (``A, B = _RAISES[p], _LOWERS[p]``), and its target is the
    normalized projection of ``rho`` on ``(i, k) = _DELIVERED[p]``, rank
    one when its top eigenvalue carries all but RANK_ONE_RTOL of its trace.
    With ``r = diag rho``, ``x_a = (Q_aa / max Q)^m`` and ``z`` the same
    power of ``Q_ik = |broker[1, 2]|^2``, in log space so that no power
    underflows, it is ``(r_i^2 x_i + r_k^2 x_k + 2 |rho_ik|^2 z) / ((r_i +
    r_k) sum_a r_a x_a)``, clipped to [0, 1] as ``fidelity`` clips it; NaN
    where no state survives.  Sums add in index order, entry by entry.
    """
    entries, weights, rank_one = rho.tolist(), [], []
    r = [entries[a][a].real for a in range(4)]
    for i, k in _DELIVERED.tolist():
        coherence, trace = abs(entries[i][k]), r[i] + r[k]
        top = 0.5 * trace + math.hypot(0.5 * (r[i] - r[k]), coherence)
        rank_one.append(trace >= TRACE_EPSILON and top >= (1.0 - RANK_ONE_RTOL) * trace)
        above = [r[a] * r[a] if a in (i, k) else 0.0 for a in range(4)] + [2 * coherence**2]
        weights.append([above, [trace * v for v in r] + [0.0]])
    ab = masks[..., _MOVES[:, :2].T[:, :, None], _Q_ROWS, _Q_COLS]  # (..., B or A, p, entry)
    q = ab[..., 0, :, :].real * ab[..., 1, :, :].real
    q[..., 4] -= ab[..., 0, :, 4].imag * ab[..., 1, :, 4].imag
    top = q[..., :4].max(axis=-1, keepdims=True)
    ratio = np.divide(q, top, out=np.zeros(q.shape), where=top > 0.0)
    logs = np.log(ratio, out=np.full(q.shape, -np.inf), where=ratio > 0.0)
    x = np.exp(pairs[:, None, None] * logs[..., None, :, :])
    sums = np.add.accumulate(x[..., None, :] * weights, axis=-1)[..., 4]
    below = sums[..., 1]
    fid = np.divide(sums[..., 0], below, out=np.full(below.shape, np.nan), where=below > 0.0)
    return np.minimum(np.maximum(fid, 0.0, out=fid), 1.0, out=fid), np.array(rank_one)


def _drop_light(classes: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Zero the classes lighter than the pruning epsilon, in place.

    Returns each class's mass, zero where it was dropped, then the dropped
    and the kept mass summed over the classes.  A mass is the trace, summed
    ``(d0 + d1) + (d2 + d3)`` as ``np.trace`` sums a contiguous class.
    """
    d = classes.diagonal(axis1=-2, axis2=-1).real
    mass = (d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3])
    light = mass < BRANCH_PRUNE_EPSILON
    classes[light] = 0.0
    kept = np.where(light, 0.0, mass)
    return kept, float(np.where(light, mass, 0.0).sum()), float(kept.sum())


def _walk(masks: np.ndarray, rho: np.ndarray, cap: int):
    """Every class of a strategy run, for outcome masks ``(4, 4, 4)``: the
    classes behind ``ExactTree.leaves``, whose statistics ``_fold`` takes
    from the first-passage law instead.

    ``classify`` reads a pending history by its count class (p, n): the
    parity ``p`` of its first outcome and the count ``n`` of its raising
    outcome ``_RAISES[p]``, ``0 .. d`` after ``d`` outcomes.  A class
    carries the summed unnormalized client matrix of its histories, whose
    trace is its mass; the masks act entrywise, so one product moves a
    whole class.  ``_RAISES[p]`` moves it to ``n + 1``, ``_LOWERS[p]``
    keeps it at ``n`` and ``_FAILS[p]`` fails it.  At an even depth ``2 m``
    a run begun with the lowering outcome balances by raising class ``m -
    1``, and one begun with the raising outcome by lowering class ``m``;
    pending slot ``m`` stays empty.  Yields, for each depth from 2 to
    ``cap``, the success classes ``(p, s)``, ``s`` 0 and 1 for those two
    ways (zero at odd depths), the failure classes ``(p, n, f)``, ``f`` the
    place in ``_FAILS[p]``, and the classes still pending ``(p, n)``, each
    as a pair of the class matrices and their masses, then the mass pruned
    so far, and keeps no depth it has yielded.  A class lighter than
    ``BRANCH_PRUNE_EPSILON`` is zeroed where it is reached and its mass
    pruned.  The walk stops after the first depth that leaves no class
    pending; the depths it skips would add only zeros.  Once exhausted, it
    raises unless the kept and the pruned mass sum to one.
    """
    moves = masks[_MOVES[:, None]]  # (p, 1, move, 4, 4)
    pending = moves[:, 0, :2] * rho  # n = 0 and n = 1 after one outcome
    _, pruned, waiting = _drop_light(pending)
    settled = 0.0
    for depth in range(2, cap + 1):
        moved = pending[:, :, None] * moves[:, :, :2]  # (p, n, move, 4, 4)
        lost = pending[:, :, None] * moves[:, :, 2:]
        pending = np.zeros((2, depth + 1, 4, 4), dtype=moved.dtype)
        pending[:, :-1] = moved[:, :, 0]
        pending[:, 1:] += moved[:, :, 1]
        if depth % 2:  # no run balances at an odd depth
            won, won_mass = np.zeros((2, 2, 4, 4), dtype=moved.dtype), np.zeros((2, 2))
        else:
            m = depth // 2  # raising class m - 1 and lowering m: flat moves 2 m - 1, 2 m
            won = moved.reshape(2, -1, 4, 4)[:, 2 * m - 1 : 2 * m + 1]
            pending[:, m] = 0.0
            won_mass, dropped, kept = _drop_light(won)
            pruned, settled = pruned + dropped, settled + kept
        lost_mass, dropped, kept = _drop_light(lost)
        pruned, settled = pruned + dropped, settled + kept
        pending_mass, dropped, waiting = _drop_light(pending)
        pruned = pruned + dropped
        yield (won, won_mass), (lost, lost_mass), (pending, pending_mass), pruned
        # a kept class weighs at least the pruning epsilon, so no waiting
        # mass means every class is zero and no later depth adds anything
        if not waiting:
            break
    defect = abs(settled + waiting + pruned - 1.0)
    if not defect <= PROBABILITY_SUM_ATOL:
        raise DegenerateParameterError(
            f"strategy tree lost probability mass: defect {defect:.3e}"
        )


def _representative(p: int, n: int, length: int) -> tuple[IterateOutcome, ...]:
    """``length`` pending outcomes of parity ``p``, ``n`` raising, the more frequent first."""
    up, down = (OUTCOMES[_RAISES[p]],) * n, (OUTCOMES[_LOWERS[p]],) * (length - n)
    return up + down if 2 * n > length else down + up


def _kept(classes: np.ndarray, mass: np.ndarray, labels):
    """Index, normalized state and mass of each class the walk kept."""
    kept = mass > 0.0
    states = classes[kept] / mass[kept][:, None, None]
    for index, state, p in zip(np.argwhere(kept).tolist(), states, mass[kept].tolist()):
        yield index, DensityMatrix(state, labels, validate=False), p


def _first_passage(x: np.ndarray, y: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """First returns and no-return weights of a +-1 walk from 0, per up
    weight ``x`` and down weight ``y`` (``x, y >= 0``, broadcast together).

    With ``s = x + y`` and ``r = (x / s) (y / s) <= 1/4``, the first return at
    step ``2 m`` weighs ``F(2 m) = 2 Cat(m - 1) (x y)^m = c_m s^(2 m)``,
    ``c_m = 2 Cat(m - 1) r^m`` (Feller, vol. 1, chs. III and XIV), and
    the walks of ``d`` steps that never return weigh ``W(d) = s^d u(d)``,
    ``u(d) = 1 - sum_{m <= d/2} c_m``.  Each ``c_m`` is one ``np.cumprod``
    of step factors at most one, so nothing overflows.  Returns ``F(2 m)``
    for ``m = 1 .. cap // 2``, shape ``(..., cap // 2)``, and ``W(d)`` for
    ``d = 1 .. cap``, shape ``(..., cap)``.
    """
    s = x + y
    up, down = (np.divide(v, s, out=np.zeros(s.shape), where=s > 0.0) for v in (x, y))
    r = up * down
    m = np.arange(1, cap // 2 + 1)
    steps = np.where(m > 1, (4.0 * m - 6.0) / m, 2.0)  # 2 Cat(m - 1) / Cat(m - 2), 2 at m = 1
    c = np.cumprod(r[..., None] * steps, axis=-1)
    u = np.concatenate([np.ones(s.shape + (1,)), (1.0 - np.cumsum(c, axis=-1)).repeat(2, -1)], -1)
    power = np.cumprod(np.broadcast_to(s[..., None], s.shape + (cap,)), axis=-1)  # s^d
    return c * power[..., 1::2], power * u[..., :cap]


def _fold(masks: np.ndarray, rho: np.ndarray, cap: int):
    """The statistics of a strategy run, from the first-passage law.

    Per member of a stack of masks ``(..., 4, 4, 4)``: the status masses
    ``(..., 4)`` by ``Status`` value, the success mass, the total,
    ``mean_iterates`` and the success overlap sum of mass times fidelity
    (``_success_fidelities``; NaN where a success's target is not rank
    one).  Nothing is pruned.

    The masks act entrywise and their diagonals ``m_k`` sum to one, so a
    history's mass is ``sum_a rho_aa prod_i m_{k_i}[a]``.  Given the first
    parity ``p`` and the entry ``a``, a run is a walk of up weight ``m_A[a]``
    and down weight ``m_B[a]`` (``A, B = _RAISES[p], _LOWERS[p]``) that
    fails with weight ``f = sum m_{_FAILS[p]}[a]``.  It succeeds at its
    first return (``_first_passage``'s ``F``), fails at depth ``d`` from
    ``W(d - 1) f`` and is pending at the cap with ``W(cap)``: O(cap) work
    per (parity, entry).  A success of no mass adds 0.0 to the overlap,
    whatever its fidelity.  Raises unless the masses sum to one.
    """
    diag = masks.diagonal(axis1=-2, axis2=-1).real  # (..., k, a)
    weight = rho.diagonal().real[:, None]  # rho_aa, against (..., p, a, depth)
    first, no_return = _first_passage(diag[..., _RAISES, :], diag[..., _LOWERS, :], cap)
    fails = diag[..., _FAILS[:, 0], :] + diag[..., _FAILS[:, 1], :]
    won = (first * weight).sum(axis=-2)  # (..., p, m): success after 2 m outcomes
    lost = (no_return[..., :-1] * (fails[..., None] * weight)).sum(axis=-2).sum(axis=-2)
    pending = (no_return[..., -1] * weight[:, 0]).sum(axis=-1).sum(axis=-1)
    by_parity, failure = won.sum(axis=-1), lost.sum(axis=-1)  # failure at depths 2 .. cap
    success = by_parity[..., 0] + by_parity[..., 1]
    total = success + failure + pending
    defect = float(np.max(np.abs(total - 1.0)))
    if not defect <= PROBABILITY_SUM_ATOL:
        raise DegenerateParameterError(f"strategy tree lost probability mass: defect {defect:.3e}")
    depth, pairs = np.arange(2, cap + 1), np.arange(1, cap // 2 + 1)
    mean = (won * (2 * pairs)).sum(axis=(-2, -1)) + (lost * depth).sum(axis=-1) + cap * pending
    fid, rank_one = _success_fidelities(masks, rho, pairs)
    scored = np.where(won > 0.0, won * fid.swapaxes(-2, -1), 0.0)
    # NaN where a success of measured parity p rests on a target that is not rank one
    misread = ((by_parity > 0.0) & ~rank_one).any(axis=-1)
    overlap = np.where(misread, np.nan, scored.sum(axis=(-2, -1)))
    by_status = np.stack([pending, by_parity[..., 0], by_parity[..., 1], failure], axis=-1)
    return by_status, success, total, mean, overlap


def run_strategy_exact(
    clients: DensityMatrix,
    pair: HeraldedPair | DensityMatrix,
    config: StrategyConfig,
) -> ExactTree:
    """Evaluate every measurement branch of a strategy exactly.

    Reads the tree's statistics off the first-passage law (``_fold``)
    under the outcome masks gathered from the broker (``_outcome_masks``),
    in O(cap) time and memory, and checks that probability is conserved.
    No class is pruned and no leaf is built; ``ExactTree.leaves`` walks
    the classes when it is read.
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
# Version 3 reads weights and fidelities off the count law instead
# (rows of the law of a run's outcome counts): on 60 random dark-free
# links (300,000 trials) only success fidelities moved, 27% of them, by
# at most 8.9e-16.  Version 4 draws a client entry first (draw 0), then
# each outcome off that entry's mask diagonals (``_run_tables``), so
# every draw index past 0 moves up by one.
STREAM_VERSION = 4

# Trials evolved together.  Uniforms are keyed by the absolute trial
# index, so results never depend on this; it bounds the working arrays
# (~1 MB).  A depth costs ~25 us of numpy calls whatever its live count,
# so larger chunks sample deep runs faster: 100,000 trials at cap 256 on
# t = 0.5, sin^2 theta = 1e-3 take ~0.28-0.33 s at 4,096 and ~0.14 s at
# 16,384, at four times the memory, while 40,000 two-iterate trials at
# t = 0.01 take ~4-5 ms at either (2-vCPU Xeon VM).
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

    def write_csv(self, path) -> str:
        """One row per trial, in trial order, through ``write_columns``:
        the integer columns as digits, ``fidelity`` as its ``repr``, and the
        seed and status gathered from small text tables.  Returns the
        sha256 hex digest of the bytes written."""
        seed = (text_table([str(self.rng_seed)]), np.broadcast_to(np.intp(0), (self.n_trials,)))
        status = (text_table([Status(v).name.lower() for v in range(len(Status))]), self.status)
        return write_columns(
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

# SplitMix64's shifts and multipliers as numpy scalars, made once: the
# sampler mixes every depth, and making a scalar costs about as much as
# a small array op.
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function on a uint64 array."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _trial_streams(seed: int, trials: np.ndarray) -> np.ndarray:
    """SplitMix64 state of each trial: output ``t`` of the seed's stream.

    The seed's stream starts from ``mix64(seed + gamma)``, so nearby
    seeds do not share shifted trial streams.
    """
    key = _mix64(np.array([(seed + _GOLDEN_GAMMA) & _MASK64], dtype=np.uint64))
    counters = (trials.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN_GAMMA)
    return _mix64(key + counters)


def _uniforms(streams: np.ndarray, draws) -> np.ndarray:
    """Draws ``draws`` of each trial stream, as 53-bit floats in [0, 1).

    ``draws`` is one draw index, which gives one float per stream, or a
    sequence of them, which gives one row per index from one mixing pass.
    """
    draws = np.asarray(draws, dtype=np.uint64)
    # arrays wrap mod 2**64 silently, where numpy scalars would warn
    offsets = (draws.reshape(-1, 1) + np.uint64(1)) * np.uint64(_GOLDEN_GAMMA)
    bits = _mix64(streams + offsets) >> _S11
    return (bits.astype(np.float64) * 2.0**-53).reshape(draws.shape + streams.shape)


def _pick_outcome(thresholds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index by inverse CDF on ``u`` in [0, 1).

    ``thresholds`` are the cumulative outcome probabilities, shape (4, n),
    summed in index order.  The index counts the first three at or below
    ``u`` times the total.  A zero-probability outcome shares its
    threshold with the next one, and ``u * total < total`` for every
    ``u < 1``, so such an outcome is never chosen.
    """
    r = u * thresholds[3]
    return (r >= thresholds[0]).astype(np.intp) + (r >= thresholds[1]) + (r >= thresholds[2])


_PARITY = np.array([o.parity for o in OUTCOMES], dtype=np.int8)
_PLUS = np.full((4, 4), 0.25)  # |++>, every trial's clients


def _run_tables(masks: np.ndarray, cap: int) -> tuple[np.ndarray, ...]:
    """The sampler's static tables for runs of at most ``cap`` outcomes.

    The masks act entrywise and their diagonals ``m_k`` sum to one, so
    outcomes ``k_1 .. k_d`` from |++> have probability ``sum_a rho_aa
    m_{k_1}[a] .. m_{k_d}[a]``: a trial draws a client entry ``a`` of
    weight ``rho_aa = 1/4``, then each outcome ``k`` independently, of
    weight ``m_k[a]``.  ``classify`` reads a begun run by its first parity
    ``p`` and its balance ``b``, its outcomes with ``j = 0`` less those
    with ``j = 1``.  Its class is ``c = 2 (b + cap) + p``; class ``4 cap +
    2`` starts every run, and any first outcome leaves it pending at ``b =
    +-1``.  Outcome ``k`` fails a begun run if its parity is not ``p`` and
    succeeds with that parity if it brings ``b`` to zero.

    Returns the cumulative outcome weights by entry, shape (4, 4), summed
    in index order; whether each weight is positive, by key ``4 a + k``;
    the int8 status code and the next class by key ``4 c + k``; and the
    fidelities by (depth, status code), NaN but for a success, which
    holds its class's state (``_success_fidelities`` at |++>).  Only the
    last outcome reaches ``b = +-cap``, so their next classes go unread.
    """
    diag = masks.diagonal(axis1=1, axis2=2).real  # (k, a)
    c, k = np.divmod(np.arange(16 * cap + 12), 4)  # key 4 c + k
    begun = c < 4 * cap + 2
    parity = np.where(begun, c & 1, _PARITY[k])
    balance = np.where(begun, (c >> 1) - cap, 0) + 1 - 2 * (k & 1)
    fails = parity != _PARITY[k]
    codes = np.where(fails, Status.FAILURE.value, (balance == 0) * (1 + parity)).astype(np.int8)
    fid = np.full((cap, len(Status)), np.nan)
    # a run that ends at depth d has drawn d + 1 outcomes, an even number on success
    fid[1::2, 1:3] = _success_fidelities(masks, _PLUS, np.arange(1, cap // 2 + 1))[0]
    return np.cumsum(diag, axis=0), (diag > 0.0).T.ravel(), codes, 2 * (balance + cap) + parity, fid


def _sample_chunk(
    streams: np.ndarray,
    tables: tuple[np.ndarray, ...],
    log_miss: float,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evolve one chunk of trials together, one iterate depth at a time.

    Draw 0 of a trial picks its client entry; at depth ``d`` draw ``2 d +
    1`` gives the attempt windows of its herald and draw ``2 d + 2`` its
    outcome.  Depth 0 makes its three draws in one mixing pass, every
    later depth its two.  Trials leave the working arrays as soon as their
    history classifies; those left at the cap stay pending.  ``log_miss``
    is ln(1 - p_click), -inf when every window heralds, which makes every
    wait one window.

    A trial carries its entry's column of cumulative weights, the offset
    ``4 a`` of its entry's positive flags and its class ``c``
    (``_run_tables``).  Per depth it picks ``k`` off the column and reads
    the status code and next class of its key ``4 c + k``; every outcome
    picked, a failing one too, must have a positive weight, and a run that
    ends takes its depth's fidelity of its status code.  Every first
    outcome leaves its run pending, so depth 0 reads no status code unless
    it is the cap's.  After the cap's depth nothing is compacted.
    """
    thresholds, positive, codes, following, fidelities = tables
    n = len(streams)
    attempts = np.zeros(n, dtype=np.int64)
    iterates = np.full(n, cap, dtype=np.int64)
    status = np.full(n, Status.PENDING.value, dtype=np.int8)
    fidelity = np.full(n, np.nan)
    live, windows = np.arange(n), np.zeros(n, dtype=np.int64)
    first, wait, pick = _uniforms(streams, (0, 1, 2))
    entries = (4.0 * first).astype(np.intp)  # every entry of |++> weighs 1/4
    columns, flags = thresholds.take(entries, axis=1), 4 * entries
    classes = np.full(n, 4 * cap + 2)
    for depth in range(cap):
        if depth:
            wait, pick = _uniforms(streams, (2 * depth + 1, 2 * depth + 2))
        windows += (np.floor(np.log1p(-wait) / log_miss) + 1.0).astype(np.int64)
        outcome = _pick_outcome(columns, pick)
        if not positive.take(flags + outcome).all():
            raise DegenerateParameterError("sampled an outcome of zero probability")
        key = 4 * classes + outcome
        last = depth + 1 == cap
        if not (depth or last):  # every first outcome leaves its run pending
            classes = following.take(key)
            continue
        code = codes.take(key)
        ended = slice(None) if last else np.flatnonzero(code)
        if last or len(ended):
            done = live[ended]
            status[done], iterates[done], attempts[done] = code[ended], depth + 1, windows[ended]
            fidelity[done] = fidelities[depth].take(code[ended])
            if last:
                break
            kept = np.flatnonzero(code == Status.PENDING.value)
            if not len(kept):
                break
            live, streams, windows, columns, flags, key = (
                a.take(kept, axis=-1) for a in (live, streams, windows, columns, flags, key)
            )
        classes = following.take(key)
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
    result either; the chunks share the run's static tables
    (``_run_tables``), ~180 KB at cap 1024.  A trial draws a client entry
    of |++>, then outcomes independent given the entry, a device of the
    sampling alone: a success records its class's fidelity.  Trial
    indices lie in [0, 2**63), and the sampled link is dark-free: a
    nonzero ``params.p_dark`` raises.
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
    tables = _run_tables(_outcome_masks(pair), config.max_iterates)
    trials = np.arange(trial_start, trial_start + n_trials, dtype=np.int64)
    attempts = np.empty(n_trials, dtype=np.int64)
    iterates = np.empty(n_trials, dtype=np.int64)
    status_codes = np.empty(n_trials, dtype=np.int8)
    fidelities = np.empty(n_trials)
    for lo in range(0, n_trials, _CHUNK_TRIALS):
        chunk = slice(lo, lo + _CHUNK_TRIALS)
        streams = _trial_streams(config.rng_seed, trials[chunk])
        attempts[chunk], iterates[chunk], status_codes[chunk], fidelities[chunk] = _sample_chunk(
            streams, tables, log_miss, config.max_iterates
        )
    return SampleStats(
        config, params, float(theta), trials, attempts, iterates, status_codes, fidelities
    )
