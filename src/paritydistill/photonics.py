"""Photonic link model: emission, loss, heralding and dark counts.

Two remote matter qubits each emit a photon entangled with their memory,
the photons travel lossy paths with transmittances ``t1`` and ``t2`` to a
midpoint beamsplitter, and a single detector click heralds a shared pair.
This module maps the apparatus parameters to the click probability, the
double-excitation contamination weight and the heralded two-qubit state,
with an optional detector dark-count channel.

Each rule of the link model has one implementation here, on floats or
broadcast arrays alike: the link's fields (``CONFIG_FIELDS``), their
range checks (``_check_link``), the click probability and contamination
weight (``_click_and_weight``) and the per-window rule (``_per_tau``):
every rate is computed per attempt window and divided by ``tau`` last.
Every angle argument ``theta`` is the excitation angle in radians, a
float in [0, pi/2]; ``theta_from_sin_sq`` converts from sin^2(theta).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from .constants import TRACE_EPSILON
from .errors import ConfigFormatError, DegenerateParameterError
from .qstate import DensityMatrix

BROKER_LABELS = ("B1", "B2")

# The ApparatusParams field of each config-file key, in file order.  The
# required keys and the defaults are those of the dataclass.  ``simulate``
# takes one flag per field and echoes every field but p_dark (which it
# requires to be 0) in its manifest.
CONFIG_FIELDS = {
    "t1": "t1",
    "t2": "t2",
    "x1": "x1",
    "x2": "x2",
    "lambda": "wavelength",
    "p_dark": "p_dark",
    "tau": "tau",
}


def _reduce_detuning(value: float) -> float:
    """Reduce a phase to (-pi/2, pi/2].

    The link distortion is pi-periodic in the detuning up to a global
    sign, so this canonical interval loses nothing.
    """
    r = math.remainder(value, math.pi)
    if r <= -math.pi / 2:
        r += math.pi
    return r


def _sq(x):
    """``x ** 2`` for a float or an array, rounded the same way for both.

    A float's ``**`` calls the C library's pow, while numpy's ``**`` on
    an array multiplies, which differs in the last bit on about 0.1% of
    inputs.  Arrays go through ``float_power``, which calls pow, so a
    closed form evaluated on a grid equals it evaluated point by point
    wherever numpy and the C library round pow alike.
    """
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x**2


def _cos_sq_two_phi(t1, t2):
    """cos^2(2 phi) as 4 t1 t2 / (t1 + t2)^2: exact, no trig round-trip.

    Floats or broadcastable arrays.  Raises where (t1 + t2)^2 underflows
    to zero (t1 + t2 below about 2e-162), which would divide zero by zero.
    """
    total_sq = _sq(t1 + t2)
    underflow = total_sq == 0.0
    if underflow.any() if isinstance(underflow, np.ndarray) else underflow:
        raise DegenerateParameterError(
            "(t1 + t2)^2 underflows to zero: transmissions too small for a double"
        )
    return 4.0 * t1 * t2 / total_sq


def _check_link(t1, t2, p_dark) -> None:
    """Raise unless t1, t2 lie in [0, 1], one of them positive, and p_dark in [0, 1).

    Floats or broadcastable arrays, checked pointwise.
    """
    for name, t in (("t1", t1), ("t2", t2)):
        if not np.all((0.0 <= t) & (t <= 1.0)):
            raise DegenerateParameterError(f"{name} must lie in [0, 1], got {t}")
    if not np.all(t1 + t2 > 0.0):
        raise DegenerateParameterError("at least one transmittance must be positive")
    if not np.all((0.0 <= p_dark) & (p_dark < 1.0)):
        raise DegenerateParameterError(f"p_dark must lie in [0, 1), got {p_dark}")


def _click_and_weight(t, c2, s):
    """Click probability and contamination weight of a link, elementwise.

    T s (2 - T s c2) and s (2 - T c2) / (2 - T s c2), with ``t`` = T the
    mean transmission, ``c2`` = cos^2(2 phi) and ``s`` = sin^2(theta);
    floats or broadcastable arrays.  The click probability is also
    exactly 1 - (1 - s t1)(1 - s t2).  The weight's denominator is at
    least 1, so it is defined even where no click can occur.
    """
    ts = t * s
    return ts * (2.0 - ts * c2), s * (2.0 - t * c2) / (2.0 - ts * c2)


def _per_tau(value, tau):
    """A per-window quantity per unit time, ``value / tau``; floats or arrays.

    Every rate the package reports is computed per attempt window, where
    it is at most a few events, and divided by the window length here,
    last, so ratios of rates are exact at any ``tau``.  Raises unless
    ``tau`` is positive and finite, ``1/tau`` is a finite double (``tau``
    above about 5.6e-309) and every quotient is finite.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise DegenerateParameterError(f"tau must be positive and finite, got {tau}")
    if not math.isfinite(1.0 / tau):
        raise DegenerateParameterError(f"1/tau overflows at tau={tau!r}: raise tau")
    rate = value / tau
    if not (np.isfinite(rate).all() if isinstance(rate, np.ndarray) else math.isfinite(rate)):
        raise DegenerateParameterError(f"rate overflows at tau={tau!r}: raise tau")
    return rate


@dataclass(frozen=True)
class ApparatusParams:
    """Physical parameters of the two collection paths.

    Parameters
    ----------
    t1, t2 : float
        Path transmittances in [0, 1]; at least one must be positive.
    x1, x2 : float
        Path lengths, in the same unit as ``wavelength``.
    wavelength : float
        Optical wavelength used to convert the length difference into a
        detuning phase.
    p_dark : float
        Dark-count probability per detector per attempt window, in [0, 1).
    tau : float
        Duration of one attempt window; rates are reported per ``tau``.
    """

    t1: float
    t2: float
    x1: float = 0.0
    x2: float = 0.0
    wavelength: float = 1.0
    p_dark: float = 0.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        _check_link(self.t1, self.t2, self.p_dark)
        if not self.wavelength > 0.0:
            raise DegenerateParameterError(f"wavelength must be positive, got {self.wavelength}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise DegenerateParameterError(f"tau must be positive and finite, got {self.tau}")
        for name in ("x1", "x2"):
            if not math.isfinite(getattr(self, name)):
                raise DegenerateParameterError(f"{name} must be finite")

    @property
    def mean_transmission(self) -> float:
        return 0.5 * (self.t1 + self.t2)

    @property
    def sin_two_phi(self) -> float:
        return (self.t1 - self.t2) / (self.t1 + self.t2)

    @property
    def phi(self) -> float:
        """Imbalance angle: sin(2 phi) = (t1 - t2)/(t1 + t2)."""
        return 0.5 * math.asin(self.sin_two_phi)

    @property
    def cos_sq_two_phi(self) -> float:
        return _cos_sq_two_phi(self.t1, self.t2)

    @property
    def delta(self) -> float:
        """Path detuning pi (x1 - x2)/wavelength, reduced to (-pi/2, pi/2].

        Raises when the unreduced phase overflows, which valid fields
        allow (a huge length difference or a tiny wavelength).
        """
        phase = math.pi * (self.x1 - self.x2) / self.wavelength
        if not math.isfinite(phase):
            raise DegenerateParameterError(
                "path detuning pi (x1 - x2) / wavelength overflows: "
                f"x1={self.x1!r}, x2={self.x2!r}, wavelength={self.wavelength!r}"
            )
        return _reduce_detuning(phase)

    @classmethod
    def from_config_file(cls, path) -> "ApparatusParams":
        """Parse a ``key = value`` config file.

        The keys are those of ``CONFIG_FIELDS``.  Blank lines and lines
        starting with ``#`` are ignored.  Unknown, duplicate or missing
        keys, unparseable values, out-of-range parameters and a file that
        cannot be read or decoded as UTF-8 raise ``ConfigFormatError``.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigFormatError(f"{path}: cannot read config: {exc}") from None
        seen: dict[str, float] = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigFormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_FIELDS:
                raise ConfigFormatError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                seen[key] = float(value)
            except ValueError:
                raise ConfigFormatError(
                    f"{path}:{lineno}: value for {key!r} is not a number: {value!r}"
                ) from None
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = [k for k, name in CONFIG_FIELDS.items() if name in required and k not in seen]
        if missing:
            raise ConfigFormatError(f"{path}: missing required keys {missing}")
        try:
            return cls(**{CONFIG_FIELDS[k]: v for k, v in seen.items()})
        except DegenerateParameterError as exc:
            raise ConfigFormatError(f"{path}: {exc}") from None


def _sin_sq_theta(theta) -> float:
    """sin^2(theta) of an excitation angle ``theta`` in radians, in [0, pi/2]."""
    if not 0.0 <= theta <= math.pi / 2:
        raise DegenerateParameterError(f"theta must lie in [0, pi/2], got {theta}")
    return math.sin(theta) ** 2


def theta_from_sin_sq(s: float) -> float:
    """The excitation angle theta in [0, pi/2] whose sin^2 is ``s``."""
    if not 0.0 <= s <= 1.0:
        raise DegenerateParameterError(f"sin^2(theta) must lie in [0, 1], got {s}")
    return math.asin(math.sqrt(s))


@dataclass(frozen=True)
class HeraldedPair:
    """Heralded two-qubit state in parametric form.

    ``eta`` is the weight of the double-excitation |11> contamination,
    ``phi`` the transmission imbalance angle and ``delta`` the path
    detuning carried by the first qubit.  The phase convention absorbs
    the sign of the midpoint detector that fired, so a click at either
    detector gives the same state.
    """

    eta: float
    phi: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise DegenerateParameterError(f"eta must lie in [0, 1], got {self.eta}")

    def expand(self, labels: Sequence[str] = BROKER_LABELS) -> DensityMatrix:
        """Dense matrix on the given two labels (``_pair_matrices``)."""
        labels = tuple(labels)
        if len(labels) != 2:
            raise ValueError(f"a pair needs exactly two labels, got {labels}")
        return DensityMatrix(_pair_matrices(np.float64(self.eta), self.phi, self.delta), labels)


def _pair_matrices(eta, phi, delta) -> np.ndarray:
    """``(1 - eta) |psi><psi| + eta |11><11|``, shape ``eta.shape + (4, 4)``,
    elementwise over arrays of ``HeraldedPair`` fields.  The first qubit
    carries the distortion of the Bell component ``psi``, which stays
    normalized because the two eigenvalue magnitudes of the distortion
    average to one on a balanced superposition."""
    v = np.zeros(eta.shape + (4,), dtype=complex)
    v[..., 1] = (np.cos(phi) + np.sin(phi)) * np.exp(1j * delta) / math.sqrt(2.0)
    v[..., 2] = (np.cos(phi) - np.sin(phi)) * np.exp(-1j * delta) / math.sqrt(2.0)
    m = (1.0 - eta)[..., None, None] * (v[..., :, None] * v.conj()[..., None, :])
    m[..., 3, 3] += eta
    return m


def p_click(params: ApparatusParams, theta) -> float:
    """Probability per attempt window that the midpoint heralds a click.

    Equals T s (2 - T s cos^2(2 phi)) with T the mean transmission and
    s = sin^2(theta); see ``_click_and_weight``.
    """
    s = _sin_sq_theta(theta)
    return _click_and_weight(params.mean_transmission, params.cos_sq_two_phi, s)[0]


def eta_weight(params: ApparatusParams, theta) -> float:
    """Double-excitation weight of the heralded state.

    Undefined when no click can occur; that case raises rather than
    returning a 0/0 artifact.
    """
    s = _sin_sq_theta(theta)
    pc, eta = _click_and_weight(params.mean_transmission, params.cos_sq_two_phi, s)
    if pc < TRACE_EPSILON:
        raise DegenerateParameterError(
            "click probability vanishes, contamination weight is undefined"
        )
    return eta


def heralded_state(params: ApparatusParams, theta) -> HeraldedPair:
    """Parametric heralded state for a click at either detector."""
    return HeraldedPair(eta=eta_weight(params, theta), phi=params.phi, delta=params.delta)


def _dark_count_brokers(t1, t2, phi, delta, s, p_dark) -> tuple[np.ndarray, np.ndarray]:
    """Dark-count heralded broker matrices and herald probabilities.

    Elementwise over broadcast arrays: ``t1``, ``t2`` and ``p_dark`` as
    in ``ApparatusParams``, ``phi`` and ``delta`` the link's imbalance
    and detuning angles (``ApparatusParams.phi`` and ``.delta``), and
    ``s`` = sin^2(theta).  Returns the stack of 4x4 broker matrices on
    ``BROKER_LABELS``, shape ``broadcast + (4, 4)``, and the herald
    probabilities; see ``heralded_state_with_dark_counts``.  The link
    checks (``_check_link``) and the herald floor hold as array checks.
    The true-herald part is the pair ``HeraldedPair.expand`` builds
    (``_pair_matrices``), from the click probability and weight of
    ``_click_and_weight``; it enters with weight exactly one and the
    false-herald part with weight exactly zero at ``p_dark = 0``, so that
    column reduces to the clean heralded state wherever numpy and the C
    library round ``pow`` alike (see ``_sq``).
    """
    t1, t2, phi, delta, s, p = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (t1, t2, phi, delta, s, p_dark))
    )
    _check_link(t1, t2, p)
    pc, eta = _click_and_weight(0.5 * (t1 + t2), _cos_sq_two_phi(t1, t2), s)
    # no-detection weights of the four photon-survival patterns
    w = np.stack(
        [
            _sq(1.0 - s),
            s * (1.0 - s) * (1.0 - t2),
            s * (1.0 - s) * (1.0 - t1),
            s * s * (1.0 - t1) * (1.0 - t2),
        ],
        axis=-1,
    )
    dark = 2.0 * p * (1.0 - p)
    p_herald = (1.0 - p) * pc + dark * (w[..., 0] + w[..., 1] + w[..., 2] + w[..., 3])
    if not np.all(p_herald >= TRACE_EPSILON):
        raise DegenerateParameterError("herald probability vanishes")
    true = _pair_matrices(eta, phi, delta)
    false = np.zeros_like(true)
    false[..., range(4), range(4)] = w
    brokers = ((1.0 - p) * pc / p_herald)[..., None, None] * true
    brokers += (dark / p_herald)[..., None, None] * false
    return brokers, p_herald


def heralded_state_with_dark_counts(
    params: ApparatusParams, theta
) -> tuple[DensityMatrix, float]:
    """Heralded state and herald probability with detector dark counts.

    A herald is "exactly one of the two detectors active" in a window;
    a detector is active on a real photon or a dark count, and windows
    with both detectors active are discarded.  Real clicks bunch onto a
    single detector, so a true click heralds unless the other detector
    darks, while a no-click window heralds on exactly one dark count.
    The false-herald component is diagonal (any surviving photon was
    lost, so its which-path record decoheres the memories).

    Returns the normalized state on ``BROKER_LABELS`` and the herald
    probability: the one-point case of ``_dark_count_brokers``.
    With ``p_dark = 0`` this reduces exactly to the clean heralded state
    and click probability.
    """
    brokers, p_herald = _dark_count_brokers(
        params.t1, params.t2, params.phi, params.delta, _sin_sq_theta(theta), params.p_dark
    )
    return DensityMatrix(brokers, BROKER_LABELS), float(p_herald)
