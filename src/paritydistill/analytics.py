"""Closed-form rates, optimizers and combinatorics for the distillation link.

Everything here is analytic or semi-analytic: no density matrices are
evolved.  The dark-count region classifier reads its whole grid off one
cap-2 walk of the protocol engine over the gathered outcome masks of a
stack of brokers, and checks one grid point against the engine's
single-broker tree on every call.  The closed forms are pinned against
the exact engine by the test suite, so the two layers act as
independent oracles for each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .constants import SERIES_TAIL_TOL, TRACE_EPSILON
from .errors import DegenerateParameterError, NonConvergenceError, SimulationError
from .photonics import (
    ApparatusParams,
    ExcitationAngle,
    _cos_sq_two_phi,
    _dark_count_brokers,
    _sin_sq_theta,
    _sq,
    eta_weight,
    heralded_state_with_dark_counts,
    p_click,
)
from .protocol import (
    CLIENT_LABELS,
    StrategyConfig,
    _outcome_masks,
    _two_iterate_success,
    run_strategy_exact,
)
from .qstate import _check_density, plus_state

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

# Success fidelities below 1 - this cutoff make distilled pairs useless
# for the repeater application regardless of rate.
DARK_FIDELITY_CUTOFF = 1e-3

# Largest gap allowed between the closed-form region grid and the exact
# tree at the grid's cross-check point.
REGION_CROSS_CHECK_ATOL = 1e-12

# Memory budget, in doubles, of the block of walk vectors in
# ``loop_interval_probabilities``; it keeps the series O(k_max) in memory.
_SERIES_BLOCK_DOUBLES = 2**17


# ---------------------------------------------------------------------------
# Bell-pair rates


def _check_tau(tau: float) -> None:
    """Raise unless ``tau`` is a window length whose rates stay finite.

    A Bell-pair rate, the reference rate and a sampled rate are each at
    most one event per window, 1/tau, so they are finite wherever 1/tau
    is.  Below about 5.6e-309 it is not, and a rate could overflow to inf.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise DegenerateParameterError(f"tau must be positive and finite, got {tau}")
    if not math.isfinite(1.0 / tau):
        raise DegenerateParameterError(
            f"rates overflow: 1/tau is not a finite double at tau={tau!r}"
        )


def _rate_bell_form(t, c2, s, tau):
    """T cos^2(2 phi) s (1 - s)^2 / ((2 - T s cos^2(2 phi)) tau), elementwise.

    ``t`` is the mean transmission, ``c2`` = cos^2(2 phi) and ``s`` =
    sin^2(theta); floats or broadcastable arrays.
    """
    return t * c2 * s * _sq(1.0 - s) / ((2.0 - t * s * c2) * tau)


def rate_bell(params: ApparatusParams, theta) -> float:
    """Distilled Bell pairs per unit time for the two-iterate strategy.

    Closed form T cos^2(2 phi) s (1 - s)^2 / ((2 - T s cos^2(2 phi)) tau)
    with s = sin^2(theta); algebraically identical to half the two-pair
    success probability times the click rate.
    """
    return _rate_bell_form(
        params.mean_transmission, params.cos_sq_two_phi, _sin_sq_theta(theta), params.tau
    )


def two_photon_reference_rate(transmission, tau: float = 1.0):
    """Rate of a scheme that needs both photons to survive one window.

    ``transmission`` is a float or an array of them.
    """
    if not np.all((0.0 <= transmission) & (transmission <= 1.0)):
        raise DegenerateParameterError(f"transmission must lie in [0, 1], got {transmission}")
    _check_tau(tau)
    return _sq(transmission) / (2.0 * tau)


def crossover_transmission() -> float:
    """Mean transmission where the distilled and reference rates meet.

    At the loss-limit operating point sin^2(theta) = 1/3 on a balanced
    link the distilled rate is 4 T / (54 - 9 T) per tau, so the tie with
    T^2 / 2 is 9 T^2 - 54 T + 8 = 0, whose root in (0, 1] is
    3 - sqrt(73)/3; below it the distilled scheme wins, above it the
    two-photon scheme does.
    """
    return 3.0 - math.sqrt(73.0) / 3.0


# ---------------------------------------------------------------------------
# Excitation-angle optimization


class Objective(Enum):
    BELL_RATE = "bell_rate"
    CHAIN_RATE = "chain_rate"


@dataclass(frozen=True)
class RateResult:
    """Optimized rate with the angle achieving it and the parameter echo."""

    rate: float
    optimal_theta: float
    objective: Objective
    params: ApparatusParams

    @property
    def sin_sq_theta(self) -> float:
        return math.sin(self.optimal_theta) ** 2


def golden_section_max(f: Callable, lo, hi, tol: float = 1e-8):
    """Derivative-free maximizer for a unimodal objective on [lo, hi].

    ``lo`` and ``hi`` are floats, or arrays of brackets searched in
    lockstep: ``f`` then maps an array of points to their objective
    values, one array call per step for all brackets.  Every bracket
    stops at the step where a scalar search on it alone would, so the
    result is the same either way.  Returns a float for scalar brackets
    and an array otherwise.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not np.all(hi > lo):
        raise ValueError("need hi > lo")
    width = hi - lo
    c = lo + _INV_PHI_SQ * width
    d = lo + _INV_PHI * width
    fc, fd = f(c), f(d)
    best = np.full(width.shape, np.nan)
    searching = np.ones(width.shape, dtype=bool)
    for _ in range(300):
        stops = searching & (width <= tol)
        if stops.any():
            best[stops] = (0.5 * (lo + hi))[stops]
            searching &= ~stops
            if not searching.any():
                return float(best) if best.ndim == 0 else best
        # keep [lo, d] where fc >= fd, else [c, hi]; the kept inner point
        # is reused and one new point is evaluated per bracket
        left = fc >= fd
        lo, hi = np.where(left, (lo, d), (c, hi))
        width = hi - lo
        x = lo + np.where(left, _INV_PHI_SQ, _INV_PHI) * width
        fx = f(x)
        c, d, fc, fd = np.where(left, (x, c, fx, fc), (d, x, fd, fx))
    raise NonConvergenceError(f"golden section did not reach width {tol:.1e}")


def optimize_theta(
    params: ApparatusParams,
    objective: Objective,
    *,
    k_max: int | None = None,
    tol: float = 1e-8,
) -> RateResult:
    """Best excitation angle for a rate objective at fixed apparatus.

    The interior of [0, pi/2] is searched; both objectives vanish
    identically when either path is dark, which is rejected rather than
    returning an arbitrary angle.  The Bell objective is the one-point
    case of ``optimize_bell_rate``.  The chain objective is
    ``chain_growth_rate`` with the given ``k_max``.  Its loop success
    probability 1 - R never exceeds 1 - |sin 2phi|, so where
    |sin 2phi| >= 2/3 the chain shrinks at every angle, and that link
    is rejected too.
    """
    if objective is Objective.BELL_RATE:
        theta, rate = optimize_bell_rate(params.t1, params.t2, params.tau, tol=tol)
        return RateResult(
            rate=float(rate), optimal_theta=theta, objective=objective, params=params
        )
    if objective is not Objective.CHAIN_RATE:
        raise ValueError(f"unknown objective {objective!r}")
    if params.t1 * params.t2 <= 0.0:
        raise DegenerateParameterError("objective is identically zero when a path is dark")
    if abs(params.sin_two_phi) >= 2.0 / 3.0:
        raise DegenerateParameterError(
            f"chain growth is negative at every angle when |sin 2phi| >= 2/3, "
            f"got |t1 - t2| / (t1 + t2) = {abs(params.sin_two_phi)!r}"
        )

    def f(theta: float) -> float:
        return chain_growth_rate(params, theta, k_max=k_max).growth_rate

    theta = golden_section_max(f, 0.0, math.pi / 2.0, tol)
    return RateResult(rate=f(theta), optimal_theta=theta, objective=objective, params=params)


def _bell_rate_objective(t1, t2, tau: float):
    """The Bell rate as a function of the angle alone, on a grid of links.

    ``t1`` and ``t2`` broadcast to the grid; the per-point checks of
    ``ApparatusParams``, ``optimize_theta`` and ``ExcitationAngle`` hold
    as array checks.  Returns the grid shape and the objective, which
    maps angles of that shape (or a float, for one link) to rates.
    """
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    if not np.all((0.0 <= t1) & (t1 <= 1.0) & (0.0 <= t2) & (t2 <= 1.0)):
        raise DegenerateParameterError("transmittances must lie in [0, 1]")
    if not np.all(t1 * t2 > 0.0):
        raise DegenerateParameterError("objective is identically zero when a path is dark")
    _check_tau(tau)
    t = 0.5 * (t1 + t2)
    c2 = _cos_sq_two_phi(t1, t2)

    def rate(theta):
        if not np.all((0.0 <= theta) & (theta <= math.pi / 2.0)):
            raise DegenerateParameterError("theta must lie in [0, pi/2]")
        return _rate_bell_form(t, c2, _sq(np.sin(theta)), tau)

    return t.shape, rate


def optimize_bell_rate(t1, t2, tau: float = 1.0, *, tol: float = 1e-8):
    """Best angle and its Bell rate at every point of a transmission grid.

    ``t1`` and ``t2`` broadcast to the grid, and one lockstep golden
    section searches every point, giving the same angles as a search
    on each point alone.  Returns ``(theta, rate)``, arrays of the grid's
    shape, or floats for a single link.
    """
    shape, rate = _bell_rate_objective(t1, t2, tau)
    theta = golden_section_max(rate, np.zeros(shape), np.full(shape, math.pi / 2.0), tol)
    return theta, rate(theta)


# ---------------------------------------------------------------------------
# Loop-strategy interval combinatorics and series


@dataclass(frozen=True)
class SequenceCountVector:
    """Signature-imbalance walk counts for histories of a given length.

    ``v[i]`` counts the length-(k-1) outcome prefixes whose two
    signature counts differ by i + 1 and never balanced early.  Exact
    integers; the vector spans imbalances 1 through k - 1.
    """

    k: int
    v: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("histories classify at the second iterate or later")
        if len(self.v) != self.k - 1 or any(c < 0 for c in self.v):
            raise ValueError("malformed count vector")

    @property
    def n_success(self) -> int:
        """Prefixes one step from balance: distinct successes at iterate k."""
        return self.v[0]

    @property
    def n_failure(self) -> int:
        """Prefixes at imbalance two or more, still live at iterate k."""
        return sum(self.v[1:])

    @property
    def n_live(self) -> int:
        return sum(self.v)


def sequence_counts(k: int) -> SequenceCountVector:
    """Count loop histories of length k by walk combinatorics.

    A history is tracked by the difference of its two signature counts,
    a positive walk that steps by one per iterate and must not touch
    zero before the end.  The single length-1 prefix sits at imbalance
    one; each iterate convolves with a step up or down.
    """
    if k < 2:
        raise ValueError("histories classify at the second iterate or later")
    v = [1]  # single length-1 prefix, imbalance 1
    for _ in range(k - 2):
        grown = [0] * (len(v) + 1)
        for i, count in enumerate(v):
            if i > 0:
                grown[i - 1] += count
            grown[i + 1] += count
        v = grown
    return SequenceCountVector(k=k, v=tuple(v))


def loop_interval_probabilities(eta: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Success and failure probability of a loop run ending at each iterate.

    Returns arrays (p_success, p_failure) indexed by iterate count k,
    zero below k = 2.  The walk-count recursion is carried with weights
    ((1 - eta)/2)^k folded in, which keeps every term bounded however
    large k_max grows.

    The walk vectors u_k (length k_max + 2, one per k) fill the rows of
    a block with a zero column on each side, at most 64 rows and 2**17
    doubles.  One step is one add of the row's two shifted views and
    one multiply by the weight; the zero columns stand in for the
    one-sided sums at the ends, exact because adding zero rounds
    nothing.  The last row steps into row 0 of the next block.  Each
    block yields p_success from its first interior column and the
    walk sums from one row-wise sum, with numpy's pairwise grouping
    over the same k_max + 2 terms as a per-step ``u.sum()``.  So every
    output is bit for bit that of the step-by-step recursion.
    """
    if not 0.0 <= eta < 1.0:
        raise DegenerateParameterError(f"eta must lie in [0, 1), got {eta}")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    x = (1.0 - eta) / 2.0
    ps = np.zeros(k_max + 1)
    sums = np.zeros(k_max + 1)
    rows = min(64, max(1, _SERIES_BLOCK_DOUBLES // (k_max + 4)))
    block = np.zeros((rows, k_max + 4))
    block[0, 1] = x * x  # single length-1 prefix, weighted by x^2
    # (u_r with its left and right neighbours, u_{r+1}) for every row r
    steps = list(zip(block[:-1, :-2], block[:-1, 2:], block[1:, 1:-1]))
    for start in range(2, k_max + 1, rows):
        if start > 2:
            np.add(block[-1, :-2], block[-1, 2:], out=block[0, 1:-1])
            np.multiply(block[0, 1:-1], x, out=block[0, 1:-1])
        n = min(rows, k_max + 1 - start)
        for left, right, out in steps[: n - 1]:
            np.add(left, right, out=out)
            np.multiply(out, x, out=out)
        ps[start : start + n] = 2.0 * block[:n, 1]
        sums[start : start + n] = block[:n, 1:-1].sum(axis=1)
    # Python's ** on each power: numpy's power does not promise libm rounding
    powers = np.zeros(k_max + 1)
    powers[2:] = [eta ** (k - 1) for k in range(2, k_max + 1)]
    pf = 2.0 * eta * sums / x + (1.0 - eta) * powers
    return ps, pf


@dataclass(frozen=True)
class ChainGrowthResult:
    """Repeater-chain growth rate and the run statistics it is built from.

    ``k_max`` is None and ``tail_bound`` zero for the exact sums;
    otherwise they describe the truncated run-length series.
    """

    growth_rate: float
    p_loop: float
    p_fail: float
    mean_iterates: float
    p_click: float
    eta: float
    k_max: int | None
    tail_bound: float

    @property
    def converged(self) -> bool:
        return self.tail_bound <= SERIES_TAIL_TOL


def _run_length_series(params: ApparatusParams, eta: float, k_max: int):
    """(p_loop, p_fail, mean_iterates, tail_bound) summed to ``k_max``.

    The walk series of ``loop_interval_probabilities``, which models a
    balanced link; the neglected mass is bounded by two extra terms and
    a geometric envelope.
    """
    if params.sin_two_phi != 0.0:
        raise DegenerateParameterError(
            "the truncated run-length series (k_max) needs t1 == t2; "
            "leave k_max unset for the exact sums on any link"
        )
    ps, pf = loop_interval_probabilities(eta, k_max + 2)
    ks = np.arange(k_max + 3)
    p_loop = float(ps[: k_max + 1].sum())
    p_fail = float(pf[: k_max + 1].sum())
    mean_iterates = float((ks[: k_max + 1] * (ps + pf)[: k_max + 1]).sum())
    ratio = max(eta, 1.0 - eta)
    tail_bound = float(ps[k_max + 1] + pf[k_max + 1] + ps[k_max + 2] + pf[k_max + 2])
    tail_bound /= 1.0 - ratio**2
    return p_loop, p_fail, mean_iterates, tail_bound


def chain_growth_rate(
    params: ApparatusParams, theta, k_max: int | None = None
) -> ChainGrowthResult:
    """Net qubit-pair growth rate of a chain fed by loop distillation.

    A success extends the chain by two pairs, anything else costs the
    one pair under construction; runs average <I> iterates of expected
    duration 1/p_click windows each.

    By default the sums over run lengths are exact, on any link.  After
    the first outcome each diagonal entry of the |++> clients runs a
    walk on the signature imbalance, starting at one.  For half of the
    (first outcome, entry) pairs it steps up and down with weights
    (1 - eta)(1 +- sin 2phi)/2 and fails with weight eta; the walk's
    first passage to zero (Feller, vol. 1, ch. XIV) gives p_loop = 1 - R
    with R = sqrt(1 - (1 - eta)^2 cos^2 2phi).  For the other half it
    can only step up, with weight eta, and fails otherwise.  Every run
    ends, so p_fail = R, and the mass leaving the walks per step gives
    <I> = R / eta + eta / (1 - eta).

    ``k_max`` selects the run-length series truncated there instead, on
    balanced links only; its neglected mass is reported through
    ``tail_bound`` and ``converged``.  A growth rate that overflows
    raises.
    """
    if k_max is not None and k_max < 4:
        raise ValueError("k_max below 4 cannot resolve the series")
    pc = p_click(params, theta)
    if pc < TRACE_EPSILON:
        raise DegenerateParameterError("click probability vanishes")
    eta = eta_weight(params, theta)
    if not 0.0 < eta < 1.0:
        raise DegenerateParameterError(
            f"run statistics need contamination weight strictly inside (0, 1), got {eta}"
        )
    if k_max is None:
        # 1 - (1 - eta)^2 cos^2 2phi, without its cancellation at small eta
        r = math.sqrt(params.sin_two_phi**2 + params.cos_sq_two_phi * eta * (2.0 - eta))
        p_loop, p_fail = 1.0 - r, r
        mean_iterates = r / eta + eta / (1.0 - eta)
        tail_bound = 0.0
    else:
        p_loop, p_fail, mean_iterates, tail_bound = _run_length_series(params, eta, k_max)
    growth = (3.0 * p_loop - 1.0) * pc / (mean_iterates * params.tau)
    if not math.isfinite(growth):
        raise DegenerateParameterError(
            f"growth rate overflows at tau={params.tau!r}: raise tau"
        )
    return ChainGrowthResult(
        growth_rate=growth,
        p_loop=p_loop,
        p_fail=p_fail,
        mean_iterates=mean_iterates,
        p_click=pc,
        eta=eta,
        k_max=k_max,
        tail_bound=tail_bound,
    )


# ---------------------------------------------------------------------------
# Slow parameter drift between the two iterates


def _check_drift(d_x, d_t) -> None:
    """Drift components, floats or arrays: finite and off the d_t = 2 pole."""
    if not (np.all(np.isfinite(d_x)) and np.all(np.isfinite(d_t))):
        raise DegenerateParameterError("drift components must be finite")
    if np.any(np.abs(2.0 - d_t) < 1e-14):
        raise DegenerateParameterError("transmission drift hits the d_t = 2 pole")


@dataclass(frozen=True)
class DriftParams:
    """Relative drift of the link between consecutive heralds.

    ``d_x`` is the change of the path-length difference in wavelengths;
    ``d_t`` the relative drift of the transmittance ratio,
    1 - sqrt((t1' t2)/(t2' t1)).
    """

    d_x: float
    d_t: float

    def __post_init__(self) -> None:
        _check_drift(self.d_x, self.d_t)

    @property
    def delta_delta(self) -> float:
        """Detuning angle change between the two heralds."""
        return -math.pi * self.d_x

    @property
    def delta_phi(self) -> float:
        """Imbalance angle change on a balanced baseline."""
        return -math.atan(self.d_t / (2.0 - self.d_t))


def _physical_drift_law(d_x, d_t):
    """(sin^2 a + cos^2 a u^2) / (1 + u^2), a = pi d_x, u = d_t / (2 - d_t)."""
    u = d_t / (2.0 - d_t)
    a = math.pi * d_x
    return (_sq(np.sin(a)) + _sq(np.cos(a)) * u * u) / (1.0 + u * u)


def _quadratic_drift_law(d_x, d_t):
    """(pi d_x)^2 + (d_t / 2)^2."""
    return _sq(math.pi * d_x) + _sq(d_t / 2.0)


def drift_infidelity_physical(drift: DriftParams) -> float:
    """Delivered-state drift infidelity from the physical drift pair.

    Balanced baseline: the first iterate consumes a pair at (phi = 0,
    delta), the second a pair drifted by ``delta_phi`` and
    ``delta_delta``; the result is the success-leaf infidelity against
    the ideal Bell state.
    """
    return float(_physical_drift_law(drift.d_x, drift.d_t))


def drift_infidelity_quadratic(drift: DriftParams) -> float:
    """Leading-order drift infidelity (pi d_x)^2 + (d_t / 2)^2.

    Its error against the exact delivered-state infidelity is
    d_t^3 / 4 - (pi d_x)^4 / 3 + ... at leading order, so the design
    rule is accurate to third order in d_t and fourth order in d_x.
    The acceptance gate pins the full fourth-order error expansion.
    """
    return _quadratic_drift_law(drift.d_x, drift.d_t)


def drift_infidelity_surface(d_x, d_t) -> tuple[np.ndarray, np.ndarray]:
    """Physical and quadratic drift infidelity on broadcast drift arrays.

    The array form of ``drift_infidelity_physical`` and
    ``drift_infidelity_quadratic``, with the checks of ``DriftParams``
    as array checks.  Drifts so large that a law is not finite (the
    quadratic law overflows past ~1e153) raise rather than return inf
    or nan.
    """
    d_x, d_t = np.asarray(d_x, dtype=float), np.asarray(d_t, dtype=float)
    _check_drift(d_x, d_t)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = _physical_drift_law(d_x, d_t)
        quadratic = _quadratic_drift_law(d_x, d_t)
    if not (np.all(np.isfinite(exact)) and np.all(np.isfinite(quadratic))):
        raise DegenerateParameterError("drift too large for a finite infidelity")
    return exact, quadratic


# ---------------------------------------------------------------------------
# Dark-count operating regions


class RegionLabel(Enum):
    OURS_BETTER = "ours_better"
    REFERENCE_BETTER = "reference_better"
    NO_GO = "no_go"


@dataclass(frozen=True)
class RegionPoint:
    transmission: float
    p_dark: float
    herald_probability: float
    success_probability: float
    fidelity: float
    rate: float
    reference_rate: float
    label: RegionLabel


def dark_count_fidelity_region(
    transmissions: Sequence[float],
    dark_probabilities: Sequence[float],
    *,
    tau: float = 1.0,
    sin_sq_theta: float = 1.0 / 3.0,
) -> tuple[RegionPoint, ...]:
    """Classify a (transmission, dark-count) grid of operating points.

    Each point runs the two-iterate strategy from |++> clients on the
    dark-count contaminated source of a balanced link.  Points whose
    delivered fidelity falls below 1 - DARK_FIDELITY_CUTOFF are no-go;
    the rest are labelled by whether the distilled rate beats the
    two-photon reference.  Ties and undefined fidelities classify
    conservatively (reference, no-go).  Points run transmission-major,
    and every field is a Python float.

    The whole grid is one array pass: the stack of dark-count brokers
    (``_dark_count_brokers``), one batched validation, the gathered
    outcome masks and one cap-2 walk over the stack
    (``_two_iterate_success``), with the per-point checks as array
    checks.  One point, at the highest dark-count probability and the
    lowest transmission, is cross-checked against the exact tree
    (``run_strategy_exact``), whose leaves are normalized one by one and
    scored by ``fidelity``, and must agree to ``REGION_CROSS_CHECK_ATOL``.
    """
    t = np.asarray(transmissions, dtype=float)
    p = np.asarray(dark_probabilities, dtype=float)
    if t.ndim != 1 or p.ndim != 1:
        raise ValueError("transmissions and dark probabilities must be one-dimensional")
    _check_tau(tau)
    theta = ExcitationAngle.from_sin_sq(sin_sq_theta)
    t_grid, p_grid = (a.reshape(-1) for a in np.meshgrid(t, p, indexing="ij"))
    brokers, p_herald = _dark_count_brokers(t_grid, t_grid, 0.0, 0.0, theta.sin_sq, p_grid)
    points: tuple[RegionPoint, ...] = ()
    if t_grid.size:
        _check_density(brokers)
        clients = plus_state(CLIENT_LABELS)
        p_two, fid = _two_iterate_success(_outcome_masks(brokers), clients)
        _cross_check_region(t, p, tau, theta, clients, p_herald, p_two, fid)
        rate = 0.5 * p_two * p_herald / tau
        reference = two_photon_reference_rate(t_grid, tau)
        columns = (t_grid, p_grid, p_herald, p_two, fid, rate, reference)
        points = tuple(
            RegionPoint(*row, _region_label(*row[4:]))
            for row in zip(*(c.tolist() for c in columns))
        )
    return points


def _region_label(fidelity: float, rate: float, reference: float) -> RegionLabel:
    if not fidelity >= 1.0 - DARK_FIDELITY_CUTOFF:
        return RegionLabel.NO_GO
    if rate > reference:
        return RegionLabel.OURS_BETTER
    return RegionLabel.REFERENCE_BETTER


def _cross_check_region(t, p, tau, theta, clients, p_herald, p_two, fid) -> None:
    """Hold the region grid's corner point to the exact two-iterate tree.

    The corner is the highest dark-count probability at the lowest
    transmission; the grid is transmission-major.  Raises when the herald
    probability, the success probability or the mean success fidelity
    differs by more than ``REGION_CROSS_CHECK_ATOL`` (NaN only matches NaN).
    """
    i, j = int(np.argmin(t)), int(np.argmax(p))
    params = ApparatusParams(t1=float(t[i]), t2=float(t[i]), p_dark=float(p[j]), tau=tau)
    broker, herald = heralded_state_with_dark_counts(params, theta)
    tree = run_strategy_exact(clients, broker, StrategyConfig.two_iterates_only())
    k = i * len(p) + j
    pairs = (
        ("herald probability", float(p_herald[k]), herald),
        ("success probability", float(p_two[k]), tree.success_probability),
        ("success fidelity", float(fid[k]), tree.mean_success_fidelity()),
    )
    for name, grid, exact in pairs:
        same_nan = math.isnan(grid) and math.isnan(exact)
        if not (same_nan or abs(grid - exact) <= REGION_CROSS_CHECK_ATOL):
            raise SimulationError(
                f"region grid {name} {grid!r} differs from the exact tree's {exact!r} "
                f"at t={params.t1!r}, p_dark={params.p_dark!r}"
            )
