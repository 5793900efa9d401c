"""Closed-form rates, optimizers and combinatorics for the distillation link.

Everything here is analytic or semi-analytic: no density matrices are
evolved.  The dark-count region classifier reads its whole grid off the
exact tree's fold of one cap-2 walk over the gathered outcome masks of a
stack of brokers.  The test suite holds the closed forms and the region
grid to the exact engine's per-point trees and to the circuit route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from .constants import SERIES_TAIL_TOL, TRACE_EPSILON
from .errors import DegenerateParameterError, NonConvergenceError
from .photonics import (
    ApparatusParams,
    ExcitationAngle,
    _check_link,
    _cos_sq_two_phi,
    _dark_count_brokers,
    _per_tau,
    _sin_sq_theta,
    _sq,
    eta_weight,
    p_click,
)
from .protocol import CLIENT_LABELS, _fold, _outcome_masks, _success_fidelity
from .qstate import _check_density, plus_state

# Unread here: bench/tracing.py patches both by name, and tests/test_tracing.py needs them.
from .photonics import heralded_state_with_dark_counts  # noqa: F401
from .protocol import run_strategy_exact  # noqa: F401

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

# Success fidelities below 1 - this cutoff make distilled pairs useless
# for the repeater application regardless of rate.
DARK_FIDELITY_CUTOFF = 1e-3

# Bracket width, in radians, at which a golden-section search stops.
GOLDEN_SECTION_TOL = 1e-8


# ---------------------------------------------------------------------------
# Bell-pair rates


def _rate_bell_form(t, c2, s):
    """T cos^2(2 phi) s (1 - s)^2 / (2 - T s cos^2(2 phi)), per window.

    ``t`` is the mean transmission, ``c2`` = cos^2(2 phi) and ``s`` =
    sin^2(theta); floats or broadcastable arrays.
    """
    return t * c2 * s * _sq(1.0 - s) / (2.0 - t * s * c2)


def rate_bell(params: ApparatusParams, theta) -> float:
    """Distilled Bell pairs per unit time for the two-iterate strategy.

    Closed form T cos^2(2 phi) s (1 - s)^2 / ((2 - T s cos^2(2 phi)) tau)
    with s = sin^2(theta); algebraically identical to half the two-pair
    success probability times the click rate.
    """
    rate = _rate_bell_form(params.mean_transmission, params.cos_sq_two_phi, _sin_sq_theta(theta))
    return _per_tau(rate, params.tau)


def two_photon_reference_rate(transmission, tau: float = 1.0):
    """Rate of a scheme that needs both photons to survive one window.

    ``transmission`` is a float or an array of them.
    """
    if not np.all((0.0 <= transmission) & (transmission <= 1.0)):
        raise DegenerateParameterError(f"transmission must lie in [0, 1], got {transmission}")
    return _per_tau(_sq(transmission) / 2.0, tau)


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
    """Optimized rate with the angle achieving it.

    ``chain`` is the CHAIN_RATE objective's ``ChainGrowthResult`` at
    that angle, whose growth rate is ``rate``; None for BELL_RATE.
    """

    rate: float
    optimal_theta: float
    chain: ChainGrowthResult | None = None

    @property
    def sin_sq_theta(self) -> float:
        return math.sin(self.optimal_theta) ** 2


def golden_section_max(f: Callable[[float], Any], lo: float, hi: float) -> float:
    """Derivative-free maximizer for a unimodal objective on [lo, hi].

    The objective's values need only be compared with ``>=``.  Each step
    keeps [lo, d] where f(c) >= f(d), else [c, hi], reuses the kept inner
    point and its value and evaluates one new one.  Returns the midpoint
    of the bracket once it is no wider than ``GOLDEN_SECTION_TOL``.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    width = hi - lo
    c = lo + _INV_PHI_SQ * width
    d = lo + _INV_PHI * width
    fc, fd = f(c), f(d)
    for _ in range(300):
        if width <= GOLDEN_SECTION_TOL:
            return 0.5 * (lo + hi)
        if fc >= fd:
            hi, d, fd = d, c, fc
            width = hi - lo
            c = lo + _INV_PHI_SQ * width
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            width = hi - lo
            d = lo + _INV_PHI * width
            fd = f(d)
    raise NonConvergenceError(f"golden section did not reach width {GOLDEN_SECTION_TOL:.1e}")


def _check_lit(t1, t2) -> None:
    """Raise where a path is dark or ``t1 * t2`` underflows; floats or arrays.

    Either way both rate objectives vanish at every angle in doubles, so
    no angle is better than another.
    """
    if not np.all((t1 > 0.0) & (t2 > 0.0)):
        raise DegenerateParameterError("objective is identically zero when a path is dark")
    if not np.all(t1 * t2 > 0.0):
        raise DegenerateParameterError(
            "t1 * t2 underflows to zero: transmissions too small for a double"
        )


def optimize_theta(
    params: ApparatusParams,
    objective: Objective,
    *,
    k_max: int | None = None,
) -> RateResult:
    """Best excitation angle for a rate objective at fixed apparatus.

    Both objectives vanish identically when either path is dark, which
    is rejected rather than returning an arbitrary angle.  The Bell
    objective is the one-point case of ``optimize_bell_rate``.  The chain
    objective is ``chain_growth_rate`` with the given ``k_max`` (the
    exact sums, or the run-length series truncated there), searched by
    ``golden_section_max`` per window (at tau = 1, so no ``tau`` rounds
    it) on the interior of [0, pi/2]; the result at the angle found is
    computed once more, per window, and divided by ``tau``.  Its loop
    success probability 1 - R never exceeds 1 - |sin 2phi|, so where
    |sin 2phi| >= 2/3 the chain shrinks at every angle, and that link is
    rejected too.
    """
    if objective is Objective.BELL_RATE:
        theta, rate = optimize_bell_rate(params.t1, params.t2, params.tau)
        return RateResult(rate=rate, optimal_theta=theta)
    if objective is not Objective.CHAIN_RATE:
        raise ValueError(f"unknown objective {objective!r}")
    _check_lit(params.t1, params.t2)
    if abs(params.sin_two_phi) >= 2.0 / 3.0:
        raise DegenerateParameterError(
            f"chain growth is negative at every angle when |sin 2phi| >= 2/3, "
            f"got |t1 - t2| / (t1 + t2) = {abs(params.sin_two_phi)!r}"
        )
    link = replace(params, tau=1.0)
    theta = golden_section_max(
        lambda th: chain_growth_rate(link, th, k_max=k_max).growth_rate, 0.0, math.pi / 2.0
    )
    chain = chain_growth_rate(link, theta, k_max=k_max)
    chain = replace(chain, growth_rate=_per_tau(chain.growth_rate, params.tau))
    return RateResult(rate=chain.growth_rate, optimal_theta=theta, chain=chain)


def optimize_bell_rate(t1, t2, tau: float = 1.0):
    """Best angle and its Bell rate at every point of a transmission grid.

    With s = sin^2(theta) and a = T cos^2(2 phi), the Bell rate is
    proportional to s (1 - s)^2 / (2 - a s), whose derivative in s
    vanishes where a s^2 - 3 s + 1 = 0.  For a in (0, 1] the root in
    (0, 1) is s* = 2 / (3 + sqrt(9 - 4 a)), between 1/3 and (3 - sqrt 5)/2,
    and 1/3 + a/27 + O(a^2) in deep loss.  ``t1`` and ``t2`` broadcast to
    the grid, and the per-point checks of ``ApparatusParams`` and
    ``optimize_theta`` hold as array checks.  Returns ``(theta, rate)``
    with theta = arcsin(sqrt(s*)) and the Bell rate at that angle: arrays
    of the grid's shape, or floats for a single link.
    """
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    _check_link(t1, t2, 0.0)
    _check_lit(t1, t2)
    t = 0.5 * (t1 + t2)
    c2 = _cos_sq_two_phi(t1, t2)
    theta = np.arcsin(np.sqrt(2.0 / (3.0 + np.sqrt(9.0 - 4.0 * t * c2))))
    rate = _per_tau(_rate_bell_form(t, c2, _sq(np.sin(theta))), tau)
    return (float(theta), float(rate)) if theta.ndim == 0 else (theta, rate)


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
    zero below k = 2.  With x = (1 - eta)/2, a run succeeds at iterate k
    when its imbalance walk, started at one, first reaches zero at step
    k - 1; it fails at k from any walk still above zero after k - 2
    steps, or from the double-excitation chain.  The ballot numbers count
    both walks (Feller, vol. 1, ch. III): Cat(k/2 - 1) first passages at
    even k, and C(k - 2, floor((k - 2)/2)) walks that stay above zero, so

        p_success[k] = 2 x^k Cat(k/2 - 1)  (0 at odd k),
        p_failure[k] = 2 eta x^(k-1) C(k - 2, floor((k - 2)/2))
                       + (1 - eta) eta^(k-1).

    Each weighted count is one cumulative product of its step ratios,
    x^2 2(2m + 1)/(m + 2) from Cat(m) to Cat(m + 1), and x (n + 1)/(n/2
    + 1) at even n or 2 x at odd n from C(n, floor(n/2)) to the next.
    Every step is at most 1, so no term overflows however large k_max
    grows; time and memory are O(k_max).
    """
    if not 0.0 <= eta < 1.0:
        raise DegenerateParameterError(f"eta must lie in [0, 1), got {eta}")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    x = (1.0 - eta) / 2.0
    ps = np.zeros(k_max + 1)
    pf = np.zeros(k_max + 1)
    m = np.arange(k_max // 2 - 1)
    catalan_steps = np.concatenate(([x * x], x * x * (2.0 * (2 * m + 1) / (m + 2))))
    ps[2::2] = 2.0 * np.cumprod(catalan_steps)
    n = np.arange(k_max - 2)
    binomial_steps = np.concatenate(([x], x * np.where(n % 2, 2.0, (n + 1) / (n // 2 + 1))))
    powers = np.cumprod(np.full(k_max - 1, eta))  # eta^(k-1)
    pf[2:] = 2.0 * eta * np.cumprod(binomial_steps) + (1.0 - eta) * powers
    return ps, pf


@dataclass(frozen=True)
class ChainGrowthResult:
    """Repeater-chain growth rate and the run statistics it is built from.

    ``tail_bound`` is zero for the exact sums; otherwise it bounds the
    mass the truncated run-length series leaves out.
    """

    growth_rate: float
    p_loop: float
    p_fail: float
    mean_iterates: float
    p_click: float
    eta: float
    tail_bound: float

    @property
    def converged(self) -> bool:
        return self.tail_bound <= SERIES_TAIL_TOL


def _check_series(params: ApparatusParams, k_max: int) -> None:
    """Raise unless the run-length series can be summed to ``k_max`` on the link."""
    if k_max < 4:
        raise ValueError("k_max below 4 cannot resolve the series")
    if params.sin_two_phi != 0.0:
        raise DegenerateParameterError(
            "the truncated run-length series (k_max) needs t1 == t2; "
            "leave k_max unset for the exact sums on any link"
        )


def _run_length_series(params: ApparatusParams, eta: float, k_max: int):
    """(p_loop, p_fail, mean_iterates, tail_bound) summed to ``k_max``.

    The walk series of ``loop_interval_probabilities``, which models a
    balanced link; the neglected mass is bounded by two extra terms and
    a geometric envelope.
    """
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
    balanced links only: the ballot-number terms of
    ``loop_interval_probabilities``, O(k_max) a call.  Its neglected mass
    is reported through ``tail_bound`` and ``converged``.  A growth rate
    that overflows raises.
    """
    if k_max is not None:
        _check_series(params, k_max)
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
    return ChainGrowthResult(
        growth_rate=_per_tau((3.0 * p_loop - 1.0) * pc / mean_iterates, params.tau),
        p_loop=p_loop,
        p_fail=p_fail,
        mean_iterates=mean_iterates,
        p_click=pc,
        eta=eta,
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
    outcome masks and the exact tree's fold (``_fold``) of one cap-2 walk
    over the stack, with the per-point checks as array checks.  The test
    suite holds every point to the per-point exact tree, scored leaf by
    leaf.
    """
    t = np.asarray(transmissions, dtype=float)
    p = np.asarray(dark_probabilities, dtype=float)
    if t.ndim != 1 or p.ndim != 1:
        raise ValueError("transmissions and dark probabilities must be one-dimensional")
    theta = ExcitationAngle.from_sin_sq(sin_sq_theta)
    t_grid, p_grid = (a.reshape(-1) for a in np.meshgrid(t, p, indexing="ij"))
    brokers, p_herald = _dark_count_brokers(t_grid, t_grid, 0.0, 0.0, theta.sin_sq, p_grid)
    reference = two_photon_reference_rate(t_grid, tau)  # checks tau on an empty grid too
    points: tuple[RegionPoint, ...] = ()
    if t_grid.size:
        _check_density(brokers)
        clients = plus_state(CLIENT_LABELS).elements
        _, p_two, _, _, _, overlap = _fold(_outcome_masks(brokers), clients, 2)
        fid = _success_fidelity(p_two, overlap)
        rate = _per_tau(0.5 * p_two * p_herald, tau)
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
