"""Closed-form rates, optimizers and combinatorics for the distillation link.

Everything here is analytic or semi-analytic: no density matrices are
evolved except inside the dark-count region classifier, which reuses the
exact protocol engine point by point.  The closed forms are pinned
against the exact engine by the test suite, so the two layers act as
independent oracles for each other.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .constants import SERIES_TAIL_TOL, TRACE_EPSILON
from .errors import DegenerateParameterError, NonConvergenceError
from .photonics import (
    ApparatusParams,
    ExcitationAngle,
    _cos_sq_two_phi,
    _sin_sq_theta,
    _sq,
    eta_weight,
    heralded_state_with_dark_counts,
    p_click,
)
from .protocol import CLIENT_LABELS, StrategyConfig, run_strategy_exact
from .qstate import plus_state

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

# Success fidelities below 1 - this cutoff make distilled pairs useless
# for the repeater application regardless of rate.
DARK_FIDELITY_CUTOFF = 1e-3


# ---------------------------------------------------------------------------
# Bell-pair rates


@dataclass(frozen=True)
class RateComparison:
    """Distilled rate next to the two-photon reference scheme."""

    rate: float
    reference_rate: float

    @property
    def ratio(self) -> float:
        return self.rate / self.reference_rate


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
    if not (tau > 0.0 and math.isfinite(tau)):
        raise DegenerateParameterError(f"tau must be positive and finite, got {tau}")
    return _sq(transmission) / (2.0 * tau)


def rate_comparison(params: ApparatusParams, theta) -> RateComparison:
    return RateComparison(
        rate=rate_bell(params, theta),
        reference_rate=two_photon_reference_rate(params.mean_transmission, params.tau),
    )


def crossover_transmission(tol: float = 1e-12) -> float:
    """Mean transmission where the distilled and reference rates meet.

    Solved by bisection at the loss-limit operating point
    sin^2(theta) = 1/3 on a balanced link; below the root the distilled
    scheme wins, above it the two-photon scheme does.
    """
    theta = ExcitationAngle.from_sin_sq(1.0 / 3.0)

    def gap(t: float) -> float:
        params = ApparatusParams(t1=t, t2=t)
        return rate_bell(params, theta) - two_photon_reference_rate(t)

    lo, hi = 1e-9, 1.0
    glo = gap(lo)
    if not glo > 0.0:
        raise NonConvergenceError("no sign change bracketed for the crossover")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    raise NonConvergenceError("crossover bisection failed to converge")


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
    k_max: int = 64,
    tol: float = 1e-8,
) -> RateResult:
    """Best excitation angle for a rate objective at fixed apparatus.

    The interior of [0, pi/2] is searched; both objectives vanish
    identically when either path is dark, which is rejected rather than
    returning an arbitrary angle.  The Bell objective is the one-point
    case of ``optimize_bell_rate``.
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
    if not (tau > 0.0 and math.isfinite(tau)):
        raise DegenerateParameterError(f"tau must be positive and finite, got {tau}")
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
    """
    if not 0.0 <= eta < 1.0:
        raise DegenerateParameterError(f"eta must lie in [0, 1), got {eta}")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    x = (1.0 - eta) / 2.0
    ps = np.zeros(k_max + 1)
    pf = np.zeros(k_max + 1)
    u = np.zeros(k_max + 2)
    u[0] = x * x  # single length-1 prefix, weighted by x^2
    w = np.empty_like(u)
    for k in range(2, k_max + 1):
        ps[k] = 2.0 * u[0]
        pf[k] = 2.0 * eta * u.sum() / x + (1.0 - eta) * eta ** (k - 1)
        # one step down or up for every walk, in place
        w[0] = u[1]
        np.add(u[:-2], u[2:], out=w[1:-1])
        w[-1] = u[-2]
        np.multiply(w, x, out=u)
    return ps, pf


def loop_success_probability_closed_form(eta: float) -> float:
    """Infinite-series total success probability, 1 - sqrt(eta (2 - eta))."""
    if not 0.0 <= eta <= 1.0:
        raise DegenerateParameterError(f"eta must lie in [0, 1], got {eta}")
    return 1.0 - math.sqrt(eta * (2.0 - eta))


@dataclass(frozen=True)
class ChainGrowthResult:
    """Truncated-series evaluation of the repeater-chain growth rate."""

    growth_rate: float
    p_loop: float
    p_fail: float
    mean_iterates: float
    p_click: float
    eta: float
    k_max: int
    tail_bound: float

    @property
    def converged(self) -> bool:
        return self.tail_bound <= SERIES_TAIL_TOL


def chain_growth_rate(
    params: ApparatusParams, theta, k_max: int = 64
) -> ChainGrowthResult:
    """Net qubit-pair growth rate of a chain fed by loop distillation.

    A success extends the chain by two pairs, anything else costs the
    one pair under construction; runs average <I> iterates of expected
    duration 1/p_click windows each.  The series over run lengths is
    truncated at ``k_max``; the neglected mass is bounded by a geometric
    envelope and reported through ``tail_bound`` and ``converged``.
    """
    if k_max < 4:
        raise ValueError("k_max below 4 cannot resolve the series")
    if params.sin_two_phi != 0.0:
        raise DegenerateParameterError(
            "the run-length series assumes a balanced link (t1 == t2)"
        )
    pc = p_click(params, theta)
    if pc < TRACE_EPSILON:
        raise DegenerateParameterError("click probability vanishes")
    eta = eta_weight(params, theta)
    if not 0.0 < eta < 1.0:
        raise DegenerateParameterError(
            f"series needs contamination weight strictly inside (0, 1), got {eta}"
        )
    ps, pf = loop_interval_probabilities(eta, k_max + 2)
    ks = np.arange(k_max + 3)
    p_loop = float(ps[: k_max + 1].sum())
    p_fail = float(pf[: k_max + 1].sum())
    mean_iterates = float((ks[: k_max + 1] * (ps + pf)[: k_max + 1]).sum())
    # Two extra terms plus a geometric envelope bound the neglected mass.
    ratio = max(eta, 1.0 - eta)
    tail_bound = float(ps[k_max + 1] + pf[k_max + 1] + ps[k_max + 2] + pf[k_max + 2])
    tail_bound /= 1.0 - ratio**2
    growth = (3.0 * p_loop - 1.0) * pc / (mean_iterates * params.tau)
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

    @classmethod
    def from_angles(cls, delta_phi: float, delta_delta: float) -> "DriftParams":
        tan = math.tan(delta_phi)
        if abs(1.0 - tan) < 1e-12:
            raise DegenerateParameterError(
                "imbalance drift of pi/4 has no finite transmission-drift preimage"
            )
        return cls(d_x=-delta_delta / math.pi, d_t=-2.0 * tan / (1.0 - tan))


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

    Balanced baseline; equal to ``drift_infidelity_exact`` at phi = 0
    with the drift mapped through its angle properties.
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
    csv_path=None,
) -> tuple[RegionPoint, ...]:
    """Classify a (transmission, dark-count) grid of operating points.

    Each point runs the exact two-iterate strategy on the dark-count
    contaminated source.  Points whose delivered fidelity falls below
    1 - DARK_FIDELITY_CUTOFF are no-go; the rest are labelled by whether
    the distilled rate beats the two-photon reference.  Ties and
    undefined fidelities classify conservatively (reference, no-go).
    """
    theta = ExcitationAngle.from_sin_sq(sin_sq_theta)
    cfg = StrategyConfig.two_iterates_only()
    clients = plus_state(CLIENT_LABELS)
    points: list[RegionPoint] = []
    for t in transmissions:
        for p in dark_probabilities:
            params = ApparatusParams(t1=t, t2=t, p_dark=p, tau=tau)
            broker, p_herald = heralded_state_with_dark_counts(params, theta)
            tree = run_strategy_exact(clients, broker, cfg)
            p_two = tree.success_probability
            fid = tree.mean_success_fidelity()
            rate = 0.5 * p_two * p_herald / tau
            reference = two_photon_reference_rate(t, tau)
            if not fid >= 1.0 - DARK_FIDELITY_CUTOFF:
                label = RegionLabel.NO_GO
            elif rate > reference:
                label = RegionLabel.OURS_BETTER
            else:
                label = RegionLabel.REFERENCE_BETTER
            points.append(
                RegionPoint(t, p, p_herald, p_two, fid, rate, reference, label)
            )
    result = tuple(points)
    if csv_path is not None:
        _write_region_csv(result, csv_path)
    return result


def _write_region_csv(points: Sequence[RegionPoint], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "t",
                "p_dark",
                "p_herald",
                "p_success",
                "fidelity",
                "rate",
                "reference_rate",
                "region",
            ]
        )
        for pt in points:
            writer.writerow(
                [
                    repr(pt.transmission),
                    repr(pt.p_dark),
                    repr(pt.herald_probability),
                    repr(pt.success_probability),
                    repr(pt.fidelity),
                    repr(pt.rate),
                    repr(pt.reference_rate),
                    pt.label.value,
                ]
            )
