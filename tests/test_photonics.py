"""Photonic link model: click statistics, heralded state, dark counts, config."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import bell_odd
from paritydistill import (
    ApparatusParams,
    ConfigFormatError,
    DegenerateParameterError,
    HeraldedPair,
    StrategyConfig,
    chain_growth_rate,
    eta_weight,
    fidelity,
    heralded_state,
    heralded_state_with_dark_counts,
    p_click,
    rate_bell,
    run_trajectories,
    theta_from_sin_sq,
)
from paritydistill.photonics import _cos_sq_two_phi, _dark_count_brokers, _sin_sq_theta


def test_params_derived_quantities():
    p = ApparatusParams(t1=0.3, t2=0.1)
    assert p.mean_transmission == pytest.approx(0.2)
    assert math.sin(2.0 * p.phi) == pytest.approx((0.3 - 0.1) / 0.4, abs=1e-12)
    assert p.cos_sq_two_phi == pytest.approx(4.0 * 0.3 * 0.1 / 0.4**2, abs=1e-15)
    assert -math.pi / 4 <= p.phi <= math.pi / 4


def test_params_validation():
    with pytest.raises(DegenerateParameterError):
        ApparatusParams(t1=1.2, t2=0.5)
    with pytest.raises(DegenerateParameterError):
        ApparatusParams(t1=0.0, t2=0.0)
    with pytest.raises(DegenerateParameterError):
        ApparatusParams(t1=0.5, t2=0.5, p_dark=1.0)
    with pytest.raises(DegenerateParameterError):
        ApparatusParams(t1=0.5, t2=0.5, tau=0.0)
    for tau in (math.inf, math.nan):
        with pytest.raises(DegenerateParameterError):
            ApparatusParams(t1=0.5, t2=0.5, tau=tau)
    with pytest.raises(DegenerateParameterError):
        ApparatusParams(t1=0.5, t2=0.5, wavelength=0.0)


def test_cos_sq_two_phi_rejects_an_underflowing_sum():
    # (t1 + t2)^2 underflows to zero below t1 + t2 ~ 2e-162; the quotient
    # would be 0/0 (ZeroDivisionError on floats, a warning and nan on arrays)
    for t1, t2 in ((1e-300, 1e-300), (5e-324, 0.0), (1e-163, 1e-163)):
        with pytest.raises(DegenerateParameterError, match="underflows"):
            ApparatusParams(t1=t1, t2=t2).cos_sq_two_phi
        with pytest.raises(DegenerateParameterError, match="underflows"):
            _cos_sq_two_phi(np.array([0.5, t1]), np.array([0.5, t2]))
    # every sum whose square stays nonzero, subnormal ones included, keeps
    # its bits on floats and on arrays
    t1 = np.array([1e-161, 3e-162, 1e-100, 1e-5, 0.3, 1.0, 0.0, 5e-324])
    t2 = np.array([1e-161, 1e-300, 1e-120, 1e-7, 0.1, 1.0, 0.5, 1.0])
    expect = [4.0 * a * b / (a + b) ** 2 for a, b in zip(t1.tolist(), t2.tolist())]
    assert [_cos_sq_two_phi(a, b) for a, b in zip(t1.tolist(), t2.tolist())] == expect
    assert _cos_sq_two_phi(t1, t2).tolist() == expect


def test_detuning_reduction():
    # pi-periodic up to sign; canonical range (-pi/2, pi/2]
    assert ApparatusParams(t1=0.5, t2=0.5, x1=1.75, x2=0.0).delta == pytest.approx(
        -0.25 * math.pi, abs=1e-12
    )
    assert ApparatusParams(t1=0.5, t2=0.5, x1=0.5, x2=0.0).delta == pytest.approx(
        0.5 * math.pi, abs=1e-12
    )
    assert ApparatusParams(t1=0.5, t2=0.5, x1=-0.5, x2=0.0).delta == pytest.approx(
        0.5 * math.pi, abs=1e-12
    )
    d = ApparatusParams(t1=0.5, t2=0.5, x1=123.456, x2=0.789).delta
    assert -math.pi / 2 < d <= math.pi / 2


LINK = ApparatusParams(t1=0.3, t2=0.2)
DARK_LINK = dataclasses.replace(LINK, p_dark=1e-3)


def _sampled(theta):
    stats = run_trajectories(StrategyConfig(4, rng_seed=3), LINK, theta, 50)
    columns = (stats.attempts, stats.iterates, stats.status, stats.fidelity)
    return (stats.theta, type(stats.theta), *(c.tobytes() for c in columns))


def _dark_counted(theta):
    state, p_herald = heralded_state_with_dark_counts(DARK_LINK, theta)
    return state.elements.tobytes(), p_herald


# Every entry point that takes the excitation angle: theta in radians.
ANGLE_ENTRY_POINTS = {
    "p_click": lambda theta: p_click(LINK, theta),
    "eta_weight": lambda theta: eta_weight(LINK, theta),
    "heralded_state": lambda theta: heralded_state(LINK, theta),
    "heralded_state_with_dark_counts": _dark_counted,
    "rate_bell": lambda theta: rate_bell(LINK, theta),
    "chain_growth_rate": lambda theta: chain_growth_rate(LINK, theta),
    "run_trajectories": _sampled,
}


@pytest.mark.parametrize("entry", list(ANGLE_ENTRY_POINTS))
def test_angle_contract_at_every_entry_point(entry):
    call = ANGLE_ENTRY_POINTS[entry]
    for theta in (-1e-12, math.pi / 2.0 + 1e-9, math.nan, math.inf):
        with pytest.raises(DegenerateParameterError, match="theta"):
            call(theta)
    # a float, a numpy float and an int are one angle; theta = 0 is valid
    # only where no click is needed (the false heralds of a dark link), so
    # elsewhere all three raise alike
    for theta in (0, 1):
        results = []
        for value in (float(theta), np.float64(theta), theta):
            try:
                results.append(call(value))
            except DegenerateParameterError as exc:
                assert theta == 0, exc
                results.append(str(exc))
        assert results[0] == results[1] == results[2], (entry, theta)


def test_theta_from_sin_sq_contract():
    for s in (-1e-12, 1.0 + 1e-12, math.nan):
        with pytest.raises(DegenerateParameterError, match="sin"):
            theta_from_sin_sq(s)
    assert theta_from_sin_sq(0.0) == 0.0
    assert theta_from_sin_sq(1.0) == math.pi / 2.0
    # sqrt, asin, sin and the square each round once; 2 ulp holds on 99.8%
    # of this grid and 3 ulp on all of it
    grid = np.concatenate([np.linspace(0.0, 1.0, 100_001), np.geomspace(1e-300, 1.0, 2_001)])
    back = np.array([_sin_sq_theta(theta_from_sin_sq(s)) for s in grid.tolist()])
    ulps = np.abs(back.view(np.int64) - grid.view(np.int64))
    assert np.max(ulps) <= 3
    assert np.mean(ulps <= 2) >= 0.99


def test_p_click_certain_case():
    p = ApparatusParams(t1=1.0, t2=1.0)
    assert p_click(p, math.pi / 2.0) == pytest.approx(1.0, abs=1e-14)


def test_p_click_no_excitation():
    p = ApparatusParams(t1=0.7, t2=0.4)
    assert p_click(p, 0.0) == 0.0


def test_p_click_against_emission_breakdown():
    """Independent route at t1 = t2 = T.

    One photon captured: 2 T s (1 - s).  Two emitted, at least one
    captured: s^2 (1 - (1 - T)^2).  (Two captured photons still herald
    a click; non-number-resolving detection cannot tell.)
    """
    for t in (0.05, 0.3, 1.0):
        for s in (0.1, 1.0 / 3.0, 0.8):
            params = ApparatusParams(t1=t, t2=t)
            breakdown = 2.0 * t * s * (1.0 - s) + s * s * (1.0 - (1.0 - t) ** 2)
            assert p_click(params, theta_from_sin_sq(s)) == pytest.approx(
                breakdown, abs=1e-12
            )


def test_p_click_against_survival_product():
    # 1 - (1 - s t1)(1 - s t2) counts windows with any captured photon
    rng = np.random.default_rng(8)
    for _ in range(40):
        t1, t2 = rng.uniform(0.0, 1.0, size=2)
        if t1 + t2 == 0.0:
            continue
        s = rng.uniform(0.0, 1.0)
        params = ApparatusParams(t1=t1, t2=t2)
        expect = 1.0 - (1.0 - s * t1) * (1.0 - s * t2)
        assert p_click(params, theta_from_sin_sq(s)) == pytest.approx(
            expect, abs=1e-12
        )


def test_p_click_monotone_in_transmittance():
    s = theta_from_sin_sq(0.4)
    grid = np.linspace(0.01, 1.0, 25)
    values = [p_click(ApparatusParams(t1=t, t2=0.3), s) for t in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    values = [p_click(ApparatusParams(t1=0.3, t2=t), s) for t in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_eta_weight_reference_point():
    # T=1, phi=0, s=1/3: (1/3)(2-1)/(2-1/3) = 1/5
    p = ApparatusParams(t1=1.0, t2=1.0)
    assert eta_weight(p, theta_from_sin_sq(1.0 / 3.0)) == pytest.approx(
        0.2, abs=1e-12
    )


def test_eta_weight_limits():
    p = ApparatusParams(t1=0.6, t2=0.6)
    assert eta_weight(p, math.pi / 2.0) == pytest.approx(1.0, abs=1e-12)
    assert eta_weight(p, theta_from_sin_sq(1e-12)) == pytest.approx(
        0.0, abs=1e-11
    )
    with pytest.raises(DegenerateParameterError):
        eta_weight(p, 0.0)


def test_eta_p_click_identity():
    # eta * P_click = s^2 T (2 - T cos^2 2phi): the two-photon capture rate
    rng = np.random.default_rng(17)
    for _ in range(50):
        t1, t2 = rng.uniform(0.05, 1.0, size=2)
        s = rng.uniform(0.01, 1.0)
        params = ApparatusParams(t1=t1, t2=t2)
        theta = theta_from_sin_sq(s)
        t = params.mean_transmission
        rhs = s * s * t * (2.0 - t * params.cos_sq_two_phi)
        assert eta_weight(params, theta) * p_click(params, theta) == pytest.approx(
            rhs, abs=1e-12
        )


def test_eta_independent_of_path_lengths():
    theta = theta_from_sin_sq(0.25)
    a = ApparatusParams(t1=0.4, t2=0.2, x1=0.0, x2=0.0)
    b = ApparatusParams(t1=0.4, t2=0.2, x1=3.7, x2=1.1)
    assert eta_weight(a, theta) == eta_weight(b, theta)


def test_heralded_pair_expansion_clean_limits():
    odd = HeraldedPair(eta=0.0, phi=0.0, delta=0.0).expand(("B1", "B2"))
    np.testing.assert_allclose(odd.elements, bell_odd(("B1", "B2")).elements, atol=1e-15)
    full = HeraldedPair(eta=1.0, phi=0.3, delta=0.7).expand(("B1", "B2"))
    expect = np.zeros((4, 4))
    expect[3, 3] = 1.0
    np.testing.assert_allclose(full.elements, expect, atol=1e-15)


def test_heralded_pair_trace_and_eigenvalues():
    rng = np.random.default_rng(23)
    for _ in range(30):
        pair = HeraldedPair(
            eta=rng.uniform(0.05, 0.95),
            phi=rng.uniform(-0.7, 0.7),
            delta=rng.uniform(-1.5, 1.5),
        )
        rho = pair.expand(("B1", "B2"))
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(rho.elements))
        nonzero = eigs[eigs > 1e-12]
        np.testing.assert_allclose(
            np.sort(nonzero), np.sort([pair.eta, 1.0 - pair.eta]), atol=1e-12
        )


def test_heralded_pair_fidelity_symbolic_oracle():
    # hand expansion: <odd Bell| rho |odd Bell> =
    # (1 - eta)(cos^2 phi cos^2 delta + sin^2 phi sin^2 delta)
    rng = np.random.default_rng(29)
    ref = bell_odd(("B1", "B2"))
    for _ in range(30):
        eta = rng.uniform(0.0, 1.0)
        phi = rng.uniform(-0.7, 0.7)
        delta = rng.uniform(-1.5, 1.5)
        rho = HeraldedPair(eta=eta, phi=phi, delta=delta).expand(("B1", "B2"))
        expect = (1.0 - eta) * (
            math.cos(phi) ** 2 * math.cos(delta) ** 2
            + math.sin(phi) ** 2 * math.sin(delta) ** 2
        )
        assert fidelity(rho, ref) == pytest.approx(expect, abs=1e-12)


def test_heralded_state_copies_apparatus_angles():
    params = ApparatusParams(t1=0.5, t2=0.2, x1=0.4, x2=0.1)
    pair = heralded_state(params, theta_from_sin_sq(0.3))
    assert pair.phi == pytest.approx(params.phi)
    assert pair.delta == pytest.approx(params.delta)
    assert pair.eta == pytest.approx(
        eta_weight(params, theta_from_sin_sq(0.3))
    )


def test_dark_counts_reduce_exactly_at_zero():
    # both builders take the pair term from one formula, so at p_dark = 0
    # they agree bit for bit on any link, unbalanced and detuned ones too
    rng = np.random.default_rng(59)
    t1, t2 = rng.uniform(0.01, 1.0, size=(2, 6))
    x1, s = rng.uniform(0.0, 2.0, size=6), rng.uniform(0.05, 1.0, size=6)
    links = [(ApparatusParams(t1=0.3, t2=0.15, x1=0.2), 0.4)]
    links += [(ApparatusParams(a, b, x1=x), v) for a, b, x, v in zip(t1, t2, x1, s)]
    for params, sin_sq in links:
        theta = theta_from_sin_sq(sin_sq)
        state, p_herald = heralded_state_with_dark_counts(params, theta)
        clean = heralded_state(params, theta).expand(("B1", "B2"))
        np.testing.assert_array_equal(state.elements, clean.elements)
        assert p_herald == p_click(params, theta)


def test_dark_count_brokers_match_pointwise_mixture():
    # the stacked builder against the mixture written out per point from
    # the clean heralded pair, on unbalanced and detuned links
    rng = np.random.default_rng(53)
    for _ in range(5):
        t1, t2 = rng.uniform(0.01, 1.0, size=(2, 6))
        x1 = rng.uniform(0.0, 2.0, size=6)
        p = np.append(rng.uniform(0.0, 0.9, size=5), 0.0)
        s = rng.uniform(0.05, 1.0)
        links = [ApparatusParams(a, b, x1=x, p_dark=d) for a, b, x, d in zip(t1, t2, x1, p)]
        phi = [link.phi for link in links]
        delta = [link.delta for link in links]
        brokers, p_herald = _dark_count_brokers(t1, t2, phi, delta, s, p)
        assert brokers.shape == (6, 4, 4)
        theta = theta_from_sin_sq(s)
        for link, broker, herald in zip(links, brokers, p_herald):
            pc = p_click(link, theta)
            w = np.array(
                [
                    (1 - s) ** 2,
                    s * (1 - s) * (1 - link.t2),
                    s * (1 - s) * (1 - link.t1),
                    s * s * (1 - link.t1) * (1 - link.t2),
                ]
            )
            dark = 2.0 * link.p_dark * (1.0 - link.p_dark)
            expect_herald = (1.0 - link.p_dark) * pc + dark * w.sum()
            clean = heralded_state(link, theta).expand().elements
            expect = ((1.0 - link.p_dark) * pc * clean + dark * np.diag(w)) / expect_herald
            assert herald == pytest.approx(expect_herald, rel=1e-14)
            np.testing.assert_allclose(broker, expect, rtol=0.0, atol=1e-15)
            state, one_herald = heralded_state_with_dark_counts(link, theta)
            np.testing.assert_allclose(state.elements, broker, rtol=0.0, atol=1e-15)
            assert one_herald == pytest.approx(herald, rel=1e-15)


@pytest.mark.parametrize(
    "lengths", [{"x1": 1.0, "wavelength": 1e-320}, {"x1": 1e308, "x2": -1e308}]
)
def test_detuning_overflow_is_degenerate(lengths):
    # every field is valid, but pi (x1 - x2) / wavelength is not finite
    params = ApparatusParams(t1=0.1, t2=0.1, **lengths)
    with pytest.raises(DegenerateParameterError, match="overflows"):
        params.delta


def test_dark_counts_false_herald_at_zero_excitation():
    # no emission ever: a herald is certainly a dark count; brokers
    # remain in |00>
    params = ApparatusParams(t1=0.3, t2=0.15, p_dark=0.01)
    state, p_herald = heralded_state_with_dark_counts(params, 0.0)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    np.testing.assert_allclose(state.elements, expect, atol=1e-15)
    assert p_herald == pytest.approx(2.0 * 0.01 * 0.99, abs=1e-15)


def test_dark_counts_false_herald_weights_complete():
    """No-detection weights sum to 1 - P_click.

    The four photon-survival patterns conditioned on zero detections
    have joint weights (1-s)^2, s(1-s)(1-t2), s(1-s)(1-t1) and
    s^2 (1-t1)(1-t2); together with the click probability they must
    exhaust the window.
    """
    rng = np.random.default_rng(37)
    for _ in range(25):
        t1, t2 = rng.uniform(0.05, 1.0, size=2)
        s = rng.uniform(0.0, 1.0)
        no_click = (
            (1.0 - s) ** 2
            + s * (1.0 - s) * (1.0 - t2)
            + s * (1.0 - s) * (1.0 - t1)
            + s * s * (1.0 - t1) * (1.0 - t2)
        )
        params = ApparatusParams(t1=t1, t2=t2)
        assert no_click == pytest.approx(
            1.0 - p_click(params, theta_from_sin_sq(s)), abs=1e-12
        )


def test_dark_counts_penalty_is_first_order():
    # T=1, theta=pi/2: clean herald is pure |11>; small p_dark mixes in
    # O(p_dark) of false heralds
    theta = math.pi / 2.0
    ref = HeraldedPair(eta=1.0, phi=0.0, delta=0.0).expand(("B1", "B2"))
    for p in (1e-3, 1e-4, 1e-5):
        params = ApparatusParams(t1=1.0, t2=1.0, p_dark=p)
        state, _ = heralded_state_with_dark_counts(params, theta)
        penalty = 1.0 - float(state.elements[3, 3].real)
        assert 0.0 <= penalty < 10.0 * p
    assert ref.elements[3, 3] == 1.0


def test_dark_counts_herald_probability_composition():
    params = ApparatusParams(t1=0.4, t2=0.3, p_dark=0.02)
    theta = theta_from_sin_sq(0.5)
    _, p_herald = heralded_state_with_dark_counts(params, theta)
    pc = p_click(params, theta)
    expect = (1.0 - 0.02) * pc + 2.0 * 0.02 * (1.0 - 0.02) * (1.0 - pc)
    assert p_herald == pytest.approx(expect, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    t1=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
    x1=st.floats(allow_nan=False, allow_infinity=False),
    x2=st.floats(allow_nan=False, allow_infinity=False),
    wavelength=st.floats(min_value=0.0, exclude_min=True),
    p_dark=st.floats(0.0, 1.0, exclude_max=True),
    tau=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_config_round_trip(tmp_path_factory, t1, t2, x1, x2, wavelength, p_dark, tau):
    # every field, written as its repr under its key, reads back unchanged
    assume(t1 + t2 > 0.0)
    params = ApparatusParams(t1, t2, x1, x2, wavelength, p_dark, tau)
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text(
        f"t1 = {t1!r}\nt2 = {t2!r}\nx1 = {x1!r}\nx2 = {x2!r}\n"
        f"lambda = {wavelength!r}\np_dark = {p_dark!r}\ntau = {tau!r}\n",
        encoding="utf-8",
    )
    assert ApparatusParams.from_config_file(path) == params


def test_config_defaults_and_comments(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("# minimal link\n\nt1 = 0.5\nt2 = 0.25\n")
    params = ApparatusParams.from_config_file(path)
    assert params == ApparatusParams(t1=0.5, t2=0.25)


@pytest.mark.parametrize(
    "body",
    [
        "t1 = 0.5\nt2 = 0.5\nbogus = 1\n",        # unknown key
        "t1 = 0.5\nt1 = 0.6\nt2 = 0.5\n",         # duplicate
        "t1 = 0.5\n",                             # missing t2
        "t1 = half\nt2 = 0.5\n",                  # non-numeric
        "t1 0.5\nt2 = 0.5\n",                     # malformed line
        "t1 = 2.0\nt2 = 0.5\n",                   # out of range
    ],
)
def test_config_rejections(tmp_path, body):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigFormatError):
        ApparatusParams.from_config_file(path)
