"""Density-matrix layer: labels, distortions, gates, X projection, fidelity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import asymmetry_distortion, basis_state, bell_even, bell_odd
from paritydistill import (
    DegenerateParameterError,
    DensityMatrix,
    UnknownLabelError,
    VanishingTraceError,
    apply_cz,
    apply_one_qubit,
    fidelity,
    plus_state,
    project_x_unnormalized,
    ry_minus_half_pi,
    tensor,
)
from paritydistill.qstate import _check_density


def test_density_matrix_basic_properties():
    rho = plus_state(("A", "B"))
    assert rho.n_qubits == 2
    assert rho.labels == ("A", "B")
    assert rho.trace == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(rho.elements, np.full((4, 4), 0.25), atol=1e-15)


def test_density_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3), ("A",))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4), ("A", "A"))
    # non-Hermitian
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        DensityMatrix(m, ("A",))


@pytest.mark.parametrize(
    "defect, message",
    [
        (np.array([[0.5, 0.1], [0.3, 0.5]]), "hermitian"),
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), "trace"),
        (np.array([[-0.5, 0.0], [0.0, 0.1]]), "trace"),
        (np.array([[1.5, 0.0], [0.0, -0.5]]), "eigenvalue"),
        (np.array([[np.inf, 0.0], [0.0, 0.5]]), "trace"),
        (np.array([[0.5, np.inf], [np.inf, 0.5]]), "hermitian"),
    ],
)
def test_density_check_rejects_a_single_bad_matrix_in_a_stack(defect, message):
    stack = np.stack([np.eye(2) / 2.0] * 5).astype(complex)
    _check_density(stack)
    stack[3] = defect
    with pytest.raises(ValueError, match=message):
        _check_density(stack)
    with pytest.raises(ValueError, match=message):
        DensityMatrix(defect, ("A",))


def test_unknown_label_raises():
    rho = plus_state(("A",))
    with pytest.raises(UnknownLabelError):
        apply_one_qubit(rho, ry_minus_half_pi(), "B")


@pytest.mark.parametrize("op", [np.eye(4), np.ones(2), 1.0])
def test_one_qubit_operator_must_be_2x2(op):
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        apply_one_qubit(plus_state(("A", "B")), op, "A")


def test_identity_distortion_is_identity():
    op = asymmetry_distortion(0.0, 0.0)
    rho = plus_state(("A", "B"))
    out = apply_one_qubit(rho, op, "A")
    np.testing.assert_allclose(out.elements, rho.elements, atol=1e-15)


def test_distortion_pair_scales_back_to_identity():
    # Z(phi, d) Z(-phi, -d) = cos(2 phi) * identity, so applying both and
    # normalizing recovers the input state exactly.
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi = rng.uniform(-0.7, 0.7)
        delta = rng.uniform(-1.5, 1.5)
        fwd = asymmetry_distortion(phi, delta)
        bwd = asymmetry_distortion(-phi, -delta)
        np.testing.assert_allclose(
            fwd @ bwd, math.cos(2.0 * phi) * np.eye(2), atol=1e-12
        )
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = DensityMatrix.from_pure(v, ("A", "B"))
        out = apply_one_qubit(rho, asymmetry_distortion(phi, delta), "A")
        out = apply_one_qubit(out, asymmetry_distortion(-phi, -delta), "A").normalized()
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-11)


def test_distortion_preserves_trace_on_odd_bell_state():
    """Norm preservation on the balanced odd-parity Bell state.

    The two eigenvalue magnitudes (cos phi + sin phi)^2 and
    (cos phi - sin phi)^2 average to 1 across |01> and |10>, so the
    distorted state keeps trace exactly 1 for every (phi, delta) even
    though the operator itself is not unitary.
    """
    rho = bell_odd(("A", "B"))
    for phi in np.linspace(-math.pi / 4, math.pi / 4, 20):
        for delta in np.linspace(-math.pi / 2, math.pi / 2, 20):
            out = apply_one_qubit(rho, asymmetry_distortion(phi, delta), "A")
            assert out.trace == pytest.approx(1.0, abs=1e-12)


def test_distortion_is_not_trace_preserving_in_general():
    # |01><01| picks up the full (cos phi + sin phi)^2 factor.
    rho = basis_state("01", ("A", "B"))
    out = apply_one_qubit(rho, asymmetry_distortion(0.3, 0.0), "A")
    expected = (math.cos(0.3) + math.sin(0.3)) ** 2
    assert out.trace == pytest.approx(expected, abs=1e-12)


def test_normalize_with_vanishing_trace_raises():
    rho = basis_state("1", ("A",))
    # projector onto |0> annihilates |1>
    proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(VanishingTraceError):
        apply_one_qubit(rho, proj, "A").normalized()


def test_cz_on_00_unchanged():
    rho = basis_state("00", ("A", "B"))
    out = apply_cz(rho, "A", "B")
    np.testing.assert_allclose(out.elements, rho.elements, atol=1e-15)


def test_cz_on_plus_plus_gives_entangled_state():
    rho = apply_cz(plus_state(("A", "B")), "A", "B")
    target = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0
    ref = DensityMatrix.from_pure(target, ("A", "B"))
    assert fidelity(rho, ref) == pytest.approx(1.0, abs=1e-12)


def test_cz_is_involution():
    rng = np.random.default_rng(11)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_pure(v, ("A", "B", "C"))
    out = apply_cz(apply_cz(rho, "A", "C"), "A", "C")
    np.testing.assert_allclose(out.elements, rho.elements, atol=1e-14)


def test_cz_preserves_trace():
    rng = np.random.default_rng(12)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_pure(v, ("A", "B"))
    assert apply_cz(rho, "A", "B").trace == pytest.approx(rho.trace, abs=1e-14)


def test_unitary_conjugation_preserves_trace():
    rng = np.random.default_rng(13)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_pure(v, ("A", "B"))
    # the three Paulis and the identity
    mats = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]], np.eye(2))
    for op in [*mats, ry_minus_half_pi()]:
        out = apply_one_qubit(rho, op, "B")
        assert out.trace == pytest.approx(1.0, abs=1e-14)


def test_measure_plus_state_is_deterministic():
    rho = plus_state(("A",))
    weight, _ = project_x_unnormalized(rho, "A", 0)
    assert weight == pytest.approx(1.0, abs=1e-12)
    _, impossible = project_x_unnormalized(rho, "A", 1)
    with pytest.raises(VanishingTraceError):
        impossible.normalized()


def test_measure_zero_state_is_even_split():
    rho = basis_state("0", ("A",))
    for outcome in (0, 1):
        weight, _ = project_x_unnormalized(rho, "A", outcome)
        assert weight == pytest.approx(0.5, abs=1e-12)


def test_measure_removes_target_label():
    rho = plus_state(("A", "B"))
    _, post = project_x_unnormalized(rho, "A", 0)
    assert post.labels == ("B",)
    assert post.normalized().trace == pytest.approx(1.0, abs=1e-12)


def test_measure_probabilities_sum_to_trace():
    # holds for unnormalized input too: the branch weights are absolute
    rng = np.random.default_rng(21)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = DensityMatrix(0.37 * np.outer(v, v.conj()), ("A", "B"), validate=False)
        w0, _ = project_x_unnormalized(rho, "A", 0)
        w1, _ = project_x_unnormalized(rho, "A", 1)
        assert w0 + w1 == pytest.approx(rho.trace, abs=1e-12)


def test_measure_broker_of_distorted_pair_two_routes_agree():
    """Outcome weights via the engine vs the hand-expanded overlap.

    |psi> = (d0 |01> + d1 |10>)/sqrt(2); projecting the first qubit onto
    |+-> leaves (d0 |1> +- d1 |0>)/2, of weight (|d0|^2 + |d1|^2)/4 for
    either sign since the cross terms land on orthogonal basis states.
    """
    rng = np.random.default_rng(31)
    for _ in range(30):
        phi = rng.uniform(-0.7, 0.7)
        delta = rng.uniform(-1.5, 1.5)
        rho = apply_one_qubit(bell_odd(("A", "B")), asymmetry_distortion(phi, delta), "A")
        d0 = (math.cos(phi) + math.sin(phi)) * np.exp(1j * delta)
        d1 = (math.cos(phi) - math.sin(phi)) * np.exp(-1j * delta)
        w_either = (abs(d0) ** 2 + abs(d1) ** 2) / 4.0
        for outcome in (0, 1):
            weight, _ = project_x_unnormalized(rho, "A", outcome)
            assert weight == pytest.approx(w_either, abs=1e-12)


def test_fidelity_pure_with_itself():
    rng = np.random.default_rng(41)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_pure(v, ("A", "B"))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_states():
    assert fidelity(bell_odd(("A", "B")), basis_state("11", ("A", "B"))) == pytest.approx(
        0.0, abs=1e-14
    )


def test_fidelity_of_detuned_bell_pair():
    # pure path detuning delta = pi/4 costs cos^2(pi/4) = 1/2 of the overlap
    rho = apply_one_qubit(
        bell_odd(("A", "B")), asymmetry_distortion(0.0, math.pi / 4.0), "A"
    )
    assert fidelity(rho, bell_odd(("A", "B"))) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_rejects_mixed_reference():
    mixed = DensityMatrix(np.eye(2) / 2.0, ("A",))
    with pytest.raises(DegenerateParameterError):
        fidelity(mixed, mixed)


def test_fidelity_normalizes_unnormalized_input():
    rho = bell_even(("A", "B"))
    scaled = DensityMatrix(0.3 * rho.elements, ("A", "B"), validate=False)
    assert fidelity(scaled, rho) == pytest.approx(1.0, abs=1e-12)


def test_tensor_requires_disjoint_labels():
    a = plus_state(("A",))
    with pytest.raises(ValueError):
        tensor(a, plus_state(("A",)))


def test_tensor_and_label_order():
    prod = tensor(basis_state("0", ("A",)), basis_state("1", ("B",)))
    np.testing.assert_allclose(
        prod.elements, basis_state("01", ("A", "B")).elements, atol=1e-15
    )


def test_operators_preserve_hermiticity_and_positivity():
    rng = np.random.default_rng(55)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = DensityMatrix.from_pure(v, ("A", "B"))
    out = apply_cz(
        apply_one_qubit(rho, asymmetry_distortion(0.4, 0.9), "A"), "A", "B"
    )
    m = out.elements
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() > -1e-10


def test_broker_rotation_matrix():
    # (1 + iY)/sqrt(2) in real form: rows [1, 1], [-1, 1] over sqrt(2)
    r = ry_minus_half_pi()
    np.testing.assert_allclose(
        r, np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0), atol=1e-15
    )
    np.testing.assert_allclose(r @ r.conj().T, np.eye(2), atol=1e-15)
