"""Photonic link model: emission, loss, heralding and dark counts.

Two remote matter qubits each emit a photon entangled with their memory,
the photons travel lossy paths with transmittances ``t1`` and ``t2`` to a
midpoint beamsplitter, and a single detector click heralds a shared pair.
This module maps the apparatus parameters to the click probability, the
double-excitation contamination weight and the heralded two-qubit state,
with an optional detector dark-count channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .constants import TRACE_EPSILON
from .errors import ConfigFormatError, DegenerateParameterError
from .qstate import DensityMatrix

CONFIG_KEYS = ("t1", "t2", "x1", "x2", "lambda", "p_dark", "tau")
_CONFIG_REQUIRED = ("t1", "t2")
_CONFIG_DEFAULTS = {"x1": 0.0, "x2": 0.0, "lambda": 1.0, "p_dark": 0.0, "tau": 1.0}


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
    wherever numpy and the C library round pow alike.  The last bit
    matters: near the optimum the golden section compares rates that
    differ only there, and squaring by multiplication moves a few
    optimal angles by up to the search tolerance.
    """
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x**2


def _cos_sq_two_phi(t1, t2):
    """cos^2(2 phi) as 4 t1 t2 / (t1 + t2)^2: exact, no trig round-trip.

    Floats or broadcastable arrays.
    """
    return 4.0 * t1 * t2 / _sq(t1 + t2)


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
        for name in ("t1", "t2"):
            t = getattr(self, name)
            if not 0.0 <= t <= 1.0:
                raise DegenerateParameterError(f"{name} must lie in [0, 1], got {t}")
        if self.t1 + self.t2 <= 0.0:
            raise DegenerateParameterError("at least one transmittance must be positive")
        if not self.wavelength > 0.0:
            raise DegenerateParameterError(f"wavelength must be positive, got {self.wavelength}")
        if not 0.0 <= self.p_dark < 1.0:
            raise DegenerateParameterError(f"p_dark must lie in [0, 1), got {self.p_dark}")
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
        """Path detuning pi (x1 - x2)/wavelength, reduced to (-pi/2, pi/2]."""
        return _reduce_detuning(math.pi * (self.x1 - self.x2) / self.wavelength)

    def with_dark_counts(self, p_dark: float) -> "ApparatusParams":
        return replace(self, p_dark=p_dark)

    @classmethod
    def from_config_file(cls, path) -> "ApparatusParams":
        """Parse a ``key = value`` config file.

        Recognized keys: t1, t2, x1, x2, lambda, p_dark, tau.  Blank
        lines and lines starting with ``#`` are ignored.  Unknown or
        duplicate keys and unparseable values are rejected.
        """
        seen: dict[str, float] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigFormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigFormatError(f"{path}:{lineno}: unknown key {key!r}")
                if key in seen:
                    raise ConfigFormatError(f"{path}:{lineno}: duplicate key {key!r}")
                try:
                    seen[key] = float(value)
                except ValueError:
                    raise ConfigFormatError(
                        f"{path}:{lineno}: value for {key!r} is not a number: {value!r}"
                    ) from None
        missing = [k for k in _CONFIG_REQUIRED if k not in seen]
        if missing:
            raise ConfigFormatError(f"{path}: missing required keys {missing}")
        merged = {**_CONFIG_DEFAULTS, **seen}
        try:
            return cls(
                t1=merged["t1"],
                t2=merged["t2"],
                x1=merged["x1"],
                x2=merged["x2"],
                wavelength=merged["lambda"],
                p_dark=merged["p_dark"],
                tau=merged["tau"],
            )
        except DegenerateParameterError as exc:
            raise ConfigFormatError(f"{path}: {exc}") from None

    def to_config_file(self, path) -> None:
        values = {
            "t1": self.t1,
            "t2": self.t2,
            "x1": self.x1,
            "x2": self.x2,
            "lambda": self.wavelength,
            "p_dark": self.p_dark,
            "tau": self.tau,
        }
        lines = [f"{key} = {values[key]!r}" for key in CONFIG_KEYS]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ExcitationAngle:
    """Emission superposition angle theta; sin^2(theta) is the photon weight."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 2:
            raise DegenerateParameterError(
                f"theta must lie in [0, pi/2], got {self.theta}"
            )

    @property
    def sin_sq(self) -> float:
        return math.sin(self.theta) ** 2

    @classmethod
    def from_sin_sq(cls, value: float) -> "ExcitationAngle":
        if not 0.0 <= value <= 1.0:
            raise DegenerateParameterError(f"sin^2(theta) must lie in [0, 1], got {value}")
        return cls(math.asin(math.sqrt(value)))


def _sin_sq_theta(theta) -> float:
    if isinstance(theta, ExcitationAngle):
        return theta.sin_sq
    return ExcitationAngle(float(theta)).sin_sq


@dataclass(frozen=True)
class HeraldedPair:
    """Heralded two-qubit state in parametric form.

    ``eta`` is the weight of the double-excitation |11> contamination,
    ``phi`` the transmission imbalance angle and ``delta`` the path
    detuning carried by the first qubit.  ``detector_id`` records which
    midpoint detector fired; the phase convention absorbs the detector
    sign, so both detectors expand to the same matrix.
    """

    eta: float
    phi: float
    delta: float
    detector_id: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise DegenerateParameterError(f"eta must lie in [0, 1], got {self.eta}")
        if self.detector_id not in (0, 1):
            raise DegenerateParameterError(f"detector_id must be 0 or 1, got {self.detector_id}")

    def expand(self, labels: Sequence[str] = ("B1", "B2")) -> DensityMatrix:
        """Dense matrix on the given two labels.

        The first label carries the distortion.  The distorted Bell
        component stays normalized because the two eigenvalue magnitudes
        of the distortion average to one on a balanced superposition.
        """
        labels = tuple(labels)
        if len(labels) != 2:
            raise ValueError(f"a pair needs exactly two labels, got {labels}")
        d0 = (math.cos(self.phi) + math.sin(self.phi)) * np.exp(1j * self.delta)
        d1 = (math.cos(self.phi) - math.sin(self.phi)) * np.exp(-1j * self.delta)
        v = np.array([0.0, d0, d1, 0.0], dtype=complex) / math.sqrt(2.0)
        m = (1.0 - self.eta) * np.outer(v, v.conj())
        m[3, 3] += self.eta
        return DensityMatrix(m, labels)


def p_click(params: ApparatusParams, theta) -> float:
    """Probability per attempt window that the midpoint heralds a click.

    Equals T s (2 - T s cos^2(2 phi)) with T the mean transmission and
    s = sin^2(theta); also exactly 1 - (1 - s t1)(1 - s t2).
    """
    s = _sin_sq_theta(theta)
    t = params.mean_transmission
    return t * s * (2.0 - t * s * params.cos_sq_two_phi)


def eta_weight(params: ApparatusParams, theta) -> float:
    """Double-excitation weight of the heralded state.

    Undefined when no click can occur; that case raises rather than
    returning a 0/0 artifact.
    """
    s = _sin_sq_theta(theta)
    t = params.mean_transmission
    c2 = params.cos_sq_two_phi
    if p_click(params, theta) < TRACE_EPSILON:
        raise DegenerateParameterError(
            "click probability vanishes, contamination weight is undefined"
        )
    return s * (2.0 - t * c2) / (2.0 - t * s * c2)


def heralded_state(params: ApparatusParams, theta, detector_id: int = 0) -> HeraldedPair:
    """Parametric heralded state for a click at the given detector."""
    return HeraldedPair(
        eta=eta_weight(params, theta),
        phi=params.phi,
        delta=params.delta,
        detector_id=detector_id,
    )


def heralded_state_with_dark_counts(
    params: ApparatusParams, theta, labels: Sequence[str] = ("B1", "B2")
) -> tuple[DensityMatrix, float]:
    """Heralded state and herald probability with detector dark counts.

    A herald is "exactly one of the two detectors active" in a window;
    a detector is active on a real photon or a dark count, and windows
    with both detectors active are discarded.  Real clicks bunch onto a
    single detector, so a true click heralds unless the other detector
    darks, while a no-click window heralds on exactly one dark count.
    The false-herald component is diagonal (any surviving photon was
    lost, so its which-path record decoheres the memories).

    Returns the normalized two-qubit state and the herald probability.
    With ``p_dark = 0`` this reduces exactly to the clean heralded state
    and click probability.
    """
    s = _sin_sq_theta(theta)
    p = params.p_dark
    pc = p_click(params, theta)
    if p == 0.0:
        if pc < TRACE_EPSILON:
            raise DegenerateParameterError("herald probability vanishes")
        return heralded_state(params, theta).expand(labels), pc
    w00 = (1.0 - s) ** 2
    w01 = s * (1.0 - s) * (1.0 - params.t2)
    w10 = s * (1.0 - s) * (1.0 - params.t1)
    w11 = s * s * (1.0 - params.t1) * (1.0 - params.t2)
    p_herald = (1.0 - p) * pc + 2.0 * p * (1.0 - p) * (w00 + w01 + w10 + w11)
    if p_herald < TRACE_EPSILON:
        raise DegenerateParameterError("herald probability vanishes")
    true_part = heralded_state(params, theta).expand(labels) if pc > 0.0 else None
    m = 2.0 * p * (1.0 - p) * np.diag([w00, w01, w10, w11]).astype(complex)
    if true_part is not None:
        m += (1.0 - p) * pc * true_part.elements
    return DensityMatrix(m / p_herald, tuple(labels)), p_herald
