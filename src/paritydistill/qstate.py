"""Dense density-matrix engine for one to four labelled qubits.

States carry an ordered tuple of role labels (for example ``("B1", "B2",
"C1", "C2")``) and every operation addresses qubits by label, so callers
never track tensor-slot positions by hand.  Matrices are dense complex128.
Unnormalized states are first class: measurement branches and non-unitary
distortions legitimately carry trace below or above one, so validation
checks hermiticity and positivity but not normalization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .constants import (
    EIGENVALUE_FLOOR,
    HERMITICITY_ATOL,
    RANK_ONE_RTOL,
    TRACE_EPSILON,
)
from .errors import DegenerateParameterError, UnknownLabelError, VanishingTraceError

MAX_QUBITS = 4

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# Axis letters for einsum subscripts; 2 * MAX_QUBITS letters suffice.
_AXES = "abcdefgh"


def ry_minus_half_pi() -> np.ndarray:
    """Rotation exp(+i pi Y / 4) = (I + iY)/sqrt(2).

    Maps |1> to |+> and |0> to -|->, i.e. swaps the roles of the Z and X
    bases; conjugation sends Z to -X.  This is the local rotation applied
    to a broker qubit before it is entangled with its client.
    """
    return _SQRT_HALF * np.array([[1, 1], [-1, 1]], dtype=complex)


def _check_density(m: np.ndarray) -> None:
    """Raise ValueError unless ``m`` is a valid density matrix.

    Checks a finite nonnegative trace, hermiticity and the eigenvalue
    floor, in that order.  ``m`` is one square matrix or a stack of them
    along leading axes; one batched ``eigvalsh`` checks a whole stack.
    """
    tr = np.trace(m, axis1=-2, axis2=-1)
    bad = ~np.isfinite(tr) | (tr.real < -TRACE_EPSILON)
    if bad.any():
        raise ValueError(f"trace must be finite and nonnegative, got {tr[bad].flat[0]}")
    # an infinite off-diagonal entry makes inf - inf; the NaN defect fails
    with np.errstate(invalid="ignore"):
        defect = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()))
    if not defect <= HERMITICITY_ATOL:
        raise ValueError(f"matrix is not hermitian (defect {defect:.3e})")
    lo = np.min(np.linalg.eigvalsh(m)[..., 0])
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"matrix has eigenvalue {lo:.3e} below the floor")


class DensityMatrix:
    """Labelled dense density matrix.

    Parameters
    ----------
    elements : array_like
        Square complex matrix of dimension 2**n for n qubits.
    labels : sequence of str
        Distinct role names, one per qubit, in tensor order.
    validate : bool
        When True (default), check hermiticity and the eigenvalue floor.
        Internal intermediate states skip the eigendecomposition.
    """

    __slots__ = ("_elements", "_labels")

    def __init__(self, elements, labels: Sequence[str], *, validate: bool = True):
        labels = tuple(labels)
        # zero qubits is the legal 1x1 leftover of measuring out a register
        if len(labels) > MAX_QUBITS:
            raise ValueError(f"supported qubit counts are 0..{MAX_QUBITS}, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        m = np.array(elements, dtype=complex)
        dim = 2 ** len(labels)
        if m.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)} for labels {labels}, got {m.shape}")
        if validate:
            _check_density(m)
        self._elements = m
        self._labels = labels

    @property
    def elements(self) -> np.ndarray:
        return self._elements

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def n_qubits(self) -> int:
        return len(self._labels)

    @property
    def trace(self) -> float:
        return float(self._elements.trace().real)

    def index(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"state carries {self._labels}, not {label!r}") from None

    def normalized(self) -> "DensityMatrix":
        tr = self.trace
        if tr < TRACE_EPSILON:
            raise VanishingTraceError(f"cannot normalize trace {tr:.3e}")
        return DensityMatrix(self._elements / tr, self._labels, validate=False)

    @classmethod
    def from_pure(cls, amplitudes, labels: Sequence[str]) -> "DensityMatrix":
        """Projector onto the given (normalized) state vector."""
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm < TRACE_EPSILON:
            raise VanishingTraceError("state vector has vanishing norm")
        v = v / norm
        return cls(np.outer(v, v.conj()), labels)

    def __repr__(self) -> str:
        return f"DensityMatrix(labels={self._labels}, trace={self.trace:.6g})"


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product; label sets must be disjoint."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"labels {sorted(overlap)} appear on both factors")
    return DensityMatrix(
        np.kron(a.elements, b.elements), a.labels + b.labels, validate=False
    )


def _embed(op: np.ndarray, position: int, n: int) -> np.ndarray:
    factors = [np.eye(2, dtype=complex)] * n
    factors[position] = op
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def apply_one_qubit(rho: DensityMatrix, op, target: str) -> DensityMatrix:
    """Conjugate the state by a 2x2 operator on the target label.

    For a non-unitary operator the result is an unnormalized branch
    weight; ``normalized()`` divides by its trace.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {op.shape}")
    big = _embed(op, rho.index(target), rho.n_qubits)
    return DensityMatrix(big @ rho.elements @ big.conj().T, rho.labels, validate=False)


def apply_cz(rho: DensityMatrix, target_a: str, target_b: str) -> DensityMatrix:
    """Controlled-Z between two labelled qubits (diagonal, trace exact)."""
    pa, pb = rho.index(target_a), rho.index(target_b)
    if pa == pb:
        raise ValueError("controlled-Z needs two distinct qubits")
    n = rho.n_qubits
    idx = np.arange(2**n)
    both = ((idx >> (n - 1 - pa)) & 1) & ((idx >> (n - 1 - pb)) & 1)
    phase = 1.0 - 2.0 * both
    return DensityMatrix(
        rho.elements * np.outer(phase, phase), rho.labels, validate=False
    )


def project_x_unnormalized(
    rho: DensityMatrix, target: str, outcome: int
) -> tuple[float, DensityMatrix]:
    """Project one qubit onto an X eigenstate and drop it.

    Outcome 0 selects |+>, outcome 1 selects |->.  Returns the absolute
    weight of the branch (the outcome probability when the input is
    normalized) and the unnormalized reduced state on the remaining
    labels.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    n = rho.n_qubits
    t = rho.index(target)
    v = np.array([1.0, 1.0 - 2.0 * outcome]) * _SQRT_HALF
    tensor_form = rho.elements.reshape((2,) * (2 * n))
    letters = _AXES[: 2 * n]
    keep = "".join(c for k, c in enumerate(letters) if k not in (t, n + t))
    reduced = np.einsum(
        f"{letters},{letters[t]},{letters[n + t]}->{keep}", tensor_form, v, v
    )
    dim = 2 ** (n - 1)
    remaining = tuple(l for l in rho.labels if l != target)
    out = DensityMatrix(reduced.reshape(dim, dim), remaining, validate=False)
    return out.trace, out


def fidelity(rho: DensityMatrix, pure: DensityMatrix) -> float:
    """Fidelity <psi| rho |psi> / tr(rho) against a pure reference.

    The reference must be rank one (its top eigenvalue carries all but
    RANK_ONE_RTOL of its trace); mixed references are rejected because
    the shortcut formula would silently understate their fidelity.
    """
    if rho.labels != pure.labels:
        raise UnknownLabelError(
            f"label mismatch: {rho.labels} versus {pure.labels}"
        )
    ref_trace = pure.trace
    if ref_trace < TRACE_EPSILON:
        raise VanishingTraceError("reference state has vanishing trace")
    vals, vecs = np.linalg.eigh(pure.elements)
    if vals[-1] < (1.0 - RANK_ONE_RTOL) * ref_trace:
        raise DegenerateParameterError(
            f"reference is not pure: top eigenvalue {vals[-1]:.6g} of trace {ref_trace:.6g}"
        )
    total = rho.trace
    if total < TRACE_EPSILON:
        raise VanishingTraceError("state has vanishing trace")
    psi = vecs[:, -1]
    value = float(np.real(psi.conj() @ rho.elements @ psi)) / total
    return min(max(value, 0.0), 1.0)


def plus_state(labels: Sequence[str]) -> DensityMatrix:
    """Product state |+...+>, the standard client reset."""
    dim = 2 ** len(tuple(labels))
    return DensityMatrix.from_pure(np.full(dim, 1.0 / np.sqrt(dim)), labels)

