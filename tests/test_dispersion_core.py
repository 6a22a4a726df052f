"""Residual functions and closed-form branches.

The heavy cross-checks here are the dual-route ones: the printed degenerate
form (the test reference in _refs) against the s-coded closed form the
package solves on, and the series form against the contour quadrature
through an exact reconciliation identity.  Each route was written
against the source equations independently, so agreement is evidence, not
tautology.
"""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _refs as R
from disperse import (
    BranchId,
    DisperseError,
    SpeciesParams,
    Statistics,
    derive_scales,
    omega_degenerate_bohm_gross,
    omega_quantum_langmuir,
    omega_zero_sound,
)
from disperse import dispersion_core, quantum_stats
from disperse.dispersion_core import (
    ComplexRate,
    coefficient_C1,
    omega_c1_corrected,
    omega_weak_biquadratic,
    omega_weak_simple,
    residual_degenerate,
    residual_quadrature,
    residual_weak,
)
from disperse.errors import NonConvergent, QuadratureFailure, SingularInput
from disperse.quantum_stats import DerivedScales, K_B, scaled_erfc, with_bohm_term, zeta_pm


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# restoring coefficient
# ---------------------------------------------------------------------------

def test_coefficient_c1_frozen(electron_degenerate_scales):
    sc = electron_degenerate_scales
    assert rel(coefficient_C1(R.K_REF, sc), R.C1_AT_KREF) < 1e-14
    quantum = coefficient_C1(R.K_REF, sc) - coefficient_C1(R.K_REF, with_bohm_term(sc, False))
    assert rel(quantum, R.QUANTUM_TERM_AT_KREF) < 1e-12


def test_coefficient_c1_hook_off_is_plasma_term(electron_degenerate_scales):
    sc = electron_degenerate_scales
    for k in (1e7, R.K_REF, 5.0 * R.K_REF):
        assert coefficient_C1(k, with_bohm_term(sc, False)) == sc.omega_p**2


# ---------------------------------------------------------------------------
# small API contracts
# ---------------------------------------------------------------------------

def test_complex_rate_fields():
    rate = ComplexRate(eta=-1.0, omega=2.0)
    assert rate.eta == -1.0 and rate.omega == 2.0


def test_branch_ids_are_stable():
    names = {b.name for b in BranchId}
    assert names == {
        "ExactDegenerate", "ExactWeak", "ExactQuadrature",
        "QuantumLangmuir", "C1Corrected", "DegenerateBohmGross",
        "ZeroSound", "WeakBiquadratic", "WeakSimple",
    }


# ---------------------------------------------------------------------------
# degenerate residual: the s-coded closed form and the printed reference
# ---------------------------------------------------------------------------

def _on_axis(r, k, sc):
    # the undamped rate at r = k v_F / omega
    return complex(0.0, k * sc.v_ch / r)


def test_degenerate_undamped_interior_imag_is_bitwise_zero(electron_degenerate_scales):
    sc = electron_degenerate_scales
    for r in np.linspace(0.05, 0.95, 19):
        assert R.printed_degenerate_residual(float(r), 0.0, R.K_REF, sc)[0].imag == 0.0
        assert residual_degenerate(R.K_REF, _on_axis(float(r), R.K_REF, sc), sc)[0].imag == 0.0


def test_degenerate_gapped_slice_imag_is_three_half_pi(electron_degenerate_scales):
    # outside the resonance circle on the undamped axis the arctangent sits
    # at pi and the step contributes another pi/2-free full pi: the printed
    # imaginary part is 3 pi/2, times -pref = -3 C1 / (k^2 v_F^2 r)
    # (the s-coded form sums the log's i pi and the residue apart: to rounding)
    sc = electron_degenerate_scales
    for r in (1.2, 1.7, 2.1):
        pref = 3.0 * coefficient_C1(R.K_REF, sc) / (R.K_REF * R.K_REF * sc.v_ch * sc.v_ch * r)
        assert R.printed_degenerate_residual(r, 0.0, R.K_REF, sc)[0].imag == -pref * (1.5 * math.pi)
        imag = residual_degenerate(R.K_REF, _on_axis(r, R.K_REF, sc), sc)[0].imag
        assert abs(imag + pref * (1.5 * math.pi)) <= 1e-15 * pref * (1.5 * math.pi)


def test_degenerate_input_validation(electron_degenerate_scales):
    sc = electron_degenerate_scales
    with pytest.raises(ValueError):
        R.printed_degenerate_residual(0.0, 0.0, R.K_REF, sc)
    with pytest.raises(ValueError):
        R.printed_degenerate_residual(-0.5, 0.0, R.K_REF, sc)
    with pytest.raises(SingularInput):
        R.printed_degenerate_residual(1.0, 0.0, R.K_REF, sc)
    # the s-coded form refuses k <= 0 and the undamped rate at the edge
    # velocity, omega = +-k v_F
    for k in (0.0, -R.K_REF):
        with pytest.raises(ValueError):
            residual_degenerate(k, _on_axis(1.0, R.K_REF, sc), sc)
    for omega in (R.K_REF * sc.v_ch, -R.K_REF * sc.v_ch):
        with pytest.raises(SingularInput):
            residual_degenerate(R.K_REF, complex(0.0, omega), sc)


def test_degenerate_continuous_across_arctangent_midplane(electron_degenerate_scales):
    # 1 + eps^2 - r^2 changes sign at r = sqrt(1.01) for eps = 0.1; the
    # two-argument arctangent passes through pi/2 without a branch jump
    # in the printed form; the s-coded form's principal log has no cut there
    sc = electron_degenerate_scales
    for residual in (lambda r: R.printed_degenerate_residual(r, 0.1, R.K_REF, sc)[0],
                     lambda r: residual_degenerate(R.K_REF, complex(0.1, 1.0) * (R.K_REF * sc.v_ch / r), sc)[0]):
        below = residual(math.sqrt(1.01) * (1 - 1e-9))
        above = residual(math.sqrt(1.01) * (1 + 1e-9))
        assert rel(below.real, above.real) < 1e-6
        assert rel(below.imag, above.imag) < 1e-6


# ---------------------------------------------------------------------------
# quadrature route against the printed form
# ---------------------------------------------------------------------------

def test_quadrature_matches_printed_on_undamped_interior(
    electron_degenerate, electron_degenerate_scales
):
    # contract example: eps = 0, r < 1 gives a real quadrature value equal
    # to the printed real part, with the imaginary part exactly zero
    sp, sc = electron_degenerate, electron_degenerate_scales
    for r in (0.3, 0.6, 0.9):
        omega = R.K_REF * sc.v_ch / r
        zq = residual_quadrature(R.K_REF, complex(0.0, omega), sp, None, sc)[0]
        zd = R.printed_degenerate_residual(r, 0.0, R.K_REF, sc)[0]
        assert zq.imag == 0.0
        assert abs(zq.real - zd.real) < 1e-7


def test_quadrature_matches_printed_on_gapped_slice(
    electron_degenerate, electron_degenerate_scales
):
    sp, sc = electron_degenerate, electron_degenerate_scales
    for r in (1.2, 1.7, 2.1):
        omega = 0.9 * sc.omega_p / r  # k fixed at 0.9 K_ref through r = k v/omega
        k = 0.9 * sc.omega_p / sc.v_ch
        omega = k * sc.v_ch / r
        zq = residual_quadrature(k, complex(0.0, omega), sp, None, sc)[0]
        zd = R.printed_degenerate_residual(r, 0.0, k, sc)[0]
        assert abs(zq - zd) / abs(zd) < 1e-12


def test_quadrature_matches_printed_at_complex_rates(
    electron_degenerate, electron_degenerate_scales
):
    """Two independent routes to the same function of (r, eps), damped and
    growing sides both, interior and exterior of the resonance circle."""
    sp, sc = electron_degenerate, electron_degenerate_scales
    rng = np.random.default_rng(20260816)
    count = 0
    while count < 20:
        r = float(rng.uniform(0.05, 2.2))
        if abs(r - 1.0) < 0.05:
            continue
        eps = float(rng.uniform(-0.4, 0.4))
        if abs(eps) < 0.02:
            eps = math.copysign(0.02, eps or 1.0)
        k = float(rng.uniform(0.3, 1.5)) * R.K_REF
        omega = k * sc.v_ch / r
        s = complex(eps * omega, omega)
        zq = residual_quadrature(k, s, sp, None, sc)[0]
        zd = R.printed_degenerate_residual(r, eps, k, sc)[0]
        assert abs(zq - zd) / abs(zd) < 1e-9, (r, eps, k / R.K_REF)
        count += 1


def test_quadrature_continuous_across_far_pole_switch(
    electron_degenerate, electron_degenerate_scales
):
    # the far-pole series takes over at |pole| = 10 (r = 0.1 on the undamped
    # axis) in the degenerate residual and its printed reference; both sides
    # must land on the printed form, and the series on the closed form at
    # the switch
    sp, sc = electron_degenerate, electron_degenerate_scales
    for r in (0.1 - 1e-5, 0.1 + 1e-5):
        omega = R.K_REF * sc.v_ch / r
        zq = residual_quadrature(R.K_REF, complex(0.0, omega), sp, None, sc)[0]
        zd = R.printed_degenerate_residual(r, 0.0, R.K_REF, sc)[0]
        assert abs(zq - zd) / abs(zd) < 1e-9
    for p_hat in (-10.0 + 0.0j, 6.0 - 8.0j, -8.0 + 6.0j):
        closed = -3.0 - 1.5 * p_hat * dispersion_core._principal_log_ratio(p_hat, False)
        series = dispersion_core._far_pole_series(p_hat)[0]
        assert abs(series - closed) <= 1e-12 * abs(series)


def test_quadrature_real_on_positive_real_axis(
    electron_degenerate, electron_degenerate_scales, weak_fermion,
    weak_fermion_scales
):
    # real integrand against an imaginary pole offset: the odd part of the
    # kernel integrates to zero, leaving only panel-summation roundoff
    sp, sc = electron_degenerate, electron_degenerate_scales
    z = residual_quadrature(R.K_REF, complex(0.4 * sc.omega_p, 0.0), sp, None, sc)[0]
    assert abs(z.imag) < 5e-15 * abs(z.real)
    wsc = weak_fermion_scales
    k = 0.35 * wsc.omega_p / math.sqrt(wsc.v_th_sq)
    z = residual_quadrature(k, complex(0.4 * wsc.omega_p, 0.0), weak_fermion,
                            wsc.alpha, wsc)[0]
    assert abs(z.imag) < 5e-15 * abs(z.real)


# ---------------------------------------------------------------------------
# series route against the quadrature route (thermal gas)
# ---------------------------------------------------------------------------

def _pole_term(k, s, species, alpha, scales):
    beta = species.mass / (2.0 * K_B * species.temperature)
    z32 = zeta_pm(1.5, alpha, species.statistics)
    theta = math.sqrt(beta) * s / k
    t = alpha * cmath.exp(theta * theta)
    denom = 1.0 + t if species.statistics is Statistics.FERMI else 1.0 - t
    pole = 2.0 * math.sqrt(math.pi) * theta * t / denom
    return (coefficient_C1(k, scales) / k**2) * (2.0 * beta / z32) * pole


@pytest.mark.parametrize("statistics, temperature", [
    (Statistics.FERMI, R.T_FERMI_02), (Statistics.BOSE, R.T_BOSE_02),
    (Statistics.FERMI, R.T_FERMI_09), (Statistics.BOSE, R.T_BOSE_09),
    (Statistics.FERMI, R.T_CLASSICAL), (Statistics.BOSE, R.T_BOSE_099),
], ids=["fermion", "boson", "fermion_0.9", "boson_0.9", "classical", "boson_0.99"])
def test_weak_reconciliation_identity(statistics, temperature):
    """The series residual counts the occupation-pole contribution on top of
    the contour route, and the mismatch has a closed form:
    residual_quadrature - residual_weak equals the pole term exactly.  This
    pins both routes at once; the solver-facing consequence (series damping
    roughly 3x the contour damping at moderate k) is documented behavior.
    The gases run from the Maxwellian limit to a Bose gas at fugacity 0.99.
    The last rate, s = (-3 + i) Omega_p at y = 0.4, is deep in the damped
    half-plane, where alpha e^(Re theta^2) > 1 and the reflection terms of G
    summed one by one diverge."""
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    vth = math.sqrt(sc.v_th_sq)
    for y, om_frac, eta_frac in ((0.375, 1.07, -5e-4), (0.3, 1.05, 0.02), (0.42, 1.1, -0.01),
                                 (0.4, 1.0, -3.0)):
        k = y * sc.omega_p / vth
        s = complex(eta_frac * sc.omega_p, om_frac * sc.omega_p)
        rw = residual_weak(k, s, sp, sc.alpha, sc)[0]
        rq = residual_quadrature(k, s, sp, sc.alpha, sc)[0]
        pred = _pole_term(k, s, sp, sc.alpha, sc)
        scale = max(1.0, abs(rw), abs(rq), abs(pred))
        assert abs(rq - rw - pred) < 1e-12 * scale


@pytest.mark.filterwarnings("error")
def test_quadrature_near_condensation_against_references():
    """Bose gas at fugacity 0.999, where the fugacity series runs out of
    terms and the contour route is the only exact one, and at 1 - 1e-8 and
    1 - 1e-12.  The occupation poles sit 0.004 W, 1.25e-5 W and 1.25e-7 W
    from the real axis; the wall budget catches a rule that refines around
    them without bound."""
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_0999, statistics=Statistics.BOSE)
    sc = derive_scales(sp)
    assert abs(sc.alpha - 0.999) < 1e-9
    cases = {(0.999, k, s): want for (k, s), want in R.BOSE_0999_RESIDUALS.items()} | R.BOSE_NEAR_ONE_RESIDUALS
    start = time.perf_counter()
    for (alpha, k, s), want in cases.items():
        got = residual_quadrature(k, s, sp, alpha, sc)[0]
        assert abs(got - want) < 1e-13 * abs(want), (alpha, k, s)
    assert time.perf_counter() - start < 3.0


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, derandomize=True, deadline=None)
@given(delta=st.floats(math.log(1e-8), math.log(1e-1)).map(math.exp), y=st.floats(0.05, 1.0),
       eta_frac=st.just(0.0) | st.floats(-0.5, 0.1), om_frac=st.floats(0.3, 2.0))
def test_quadrature_near_condensation_refuses_or_stays_finite(delta, y, eta_frac, om_frac):
    # the Bose stratum T = T_c (1 + delta), delta log-uniform: a temperature
    # drawn log-uniformly almost never lands this close to T_c.  A numpy
    # warning fails the test
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_C * (1.0 + delta), statistics=Statistics.BOSE)
    try:
        sc = derive_scales(sp)
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        value, slope = residual_quadrature(k, complex(eta_frac, om_frac) * sc.omega_p, sp, sc.alpha, sc)
    except DisperseError:
        return
    assert cmath.isfinite(value) and cmath.isfinite(slope)


def _rule_estimates(p_hat, g_at_p, gas):
    """Each rule size of the thermal quadrature on one panel, in pass order,
    with its estimate and its integral of |integrand|.  Every node, weight
    and node slope, subtracted pole part included, is computed on each
    call, in the order of operations the record's node data must keep."""
    c_g, s_beta_w2 = gas.c_g, gas.s_beta_w2
    for n in (n for sizes in dispersion_core._GL_PASSES for n in sizes):
        u, w = dispersion_core._legendre_rule(n)
        d = u - p_hat
        g = c_g * dispersion_core._occupation_slope(u, s_beta_w2, gas.inv_alpha, gas.fermi)
        if gas.pole is not None:
            a = gas.pole.imag
            g -= c_g * (-u / (s_beta_w2 * (u * u + a * a)))
        vals = g - g_at_p
        weighted = w * np.where(d == 0, 0.0, vals / np.where(d == 0, 1.0, d))
        yield n, complex(weighted.sum()), float(np.abs(weighted).sum())


def _gauss_legendre_uncached(p_hat, g_at_p, gas):
    """The accept rule stated explicitly: the first size whose estimate
    agrees with the size before it to _GL_TOL of its integral of
    |integrand|; that estimate and the size."""
    previous = None
    for n, estimate, magnitude in _rule_estimates(p_hat, g_at_p, gas):
        if previous is not None and abs(estimate - previous) <= dispersion_core._GL_TOL * magnitude:
            return estimate, n
        previous = estimate
    raise AssertionError("reference rules did not agree")


@pytest.mark.parametrize("temperature, statistics", [
    (R.T_FERMI_02, Statistics.FERMI), (R.T_BOSE_02, Statistics.BOSE), (R.T_BOSE_09, Statistics.BOSE),
    (R.T_CLASSICAL, Statistics.FERMI), (R.T_BOSE_0999, Statistics.BOSE)])
def test_quadrature_matches_uncached_rule_bitwise(monkeypatch, temperature, statistics):
    # on and off the real-s axis, damped and growing; every gas integrates
    # one panel, and Bose 0.9 and 0.999, not Bose 0.2, subtract their poles
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    rng = np.random.default_rng(31)
    points = [(float(rng.uniform(0.1, 0.6)) * sc.omega_p / math.sqrt(sc.v_th_sq),
               complex(float(rng.choice([0.0, rng.uniform(-0.3, 0.05)])), float(rng.uniform(0.8, 1.6)))
               * sc.omega_p) for _ in range(40)]
    assert any(s.real == 0.0 for _, s in points)
    got = [residual_quadrature(k, s, sp, sc.alpha, sc)[0] for k, s in points]
    subtracted = set()

    def uncached(p_hat, g_at_p, slope_at_p, gas):
        subtracted.add(gas.pole is not None)
        return _gauss_legendre_uncached(p_hat, g_at_p, gas)[0], 0j

    monkeypatch.setattr(dispersion_core, "_gauss_legendre", uncached)
    assert got == [residual_quadrature(k, s, sp, sc.alpha, sc)[0] for k, s in points]
    assert subtracted == {statistics is Statistics.BOSE and sc.alpha > 0.5}
    # one panel: each size's row of weights is nonzero on that size's nodes
    # alone, leading the row, on [-1, 1], and sums to the panel's length
    gas = dispersion_core._thermal_gas(sp, sc.alpha)[1]
    sizes = [n for sizes in dispersion_core._GL_PASSES for n in sizes]
    rows = [(u, row) for u, rows, _ in gas.passes for u, row in zip(u, rows)]
    assert [np.count_nonzero(row[:n]) for (_, row), n in zip(rows, sizes)] == sizes
    assert [np.count_nonzero(row) for _, row in rows] == sizes
    assert all(abs(u).max() < 1.0 and u.imag.max() == 0.0 for u, _ in rows)
    assert all(abs(row.sum() - 2.0) < 1e-14 for _, row in rows)


def _slope_at(p_hat, gas):
    # the occupation slope at p_hat and its p-derivative, as the record's
    # node slopes hold it: with the subtracted pole part taken off
    slope, d_slope = dispersion_core._occupation_slope_at(p_hat, gas.s_beta_w2, gas.inv_alpha, gas.fermi)
    g_at_p, d_g = gas.c_g * slope, gas.c_g * d_slope
    if gas.pole is not None:
        half = gas.c_g / (2.0 * gas.s_beta_w2)
        q_up, q_down = 1.0 / (p_hat - gas.pole), 1.0 / (p_hat + gas.pole)
        g_at_p, d_g = g_at_p + half * (q_up + q_down), d_g - half * (q_up * q_up + q_down * q_down)
    return g_at_p, d_g


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fermi", [True, False])
def test_quadrature_rate_on_a_node_takes_the_removable_limit(fermi):
    # a real phase velocity exactly on a node of the first rule: that node's
    # quotient is 0/0, must not be evaluated, and counts as 0, as in the
    # uncached rule, on a plain panel and, for the Bose gas at fugacity 0.9,
    # on a subtracted one.  The first rule's nodes lead the record's first pass.
    for alpha in (0.2,) if fermi else (0.2, 0.9):
        gas = dispersion_core._ThermalGas(1.0, 64.0, alpha, Statistics.FERMI if fermi else Statistics.BOSE)
        assert (gas.pole is not None) == (alpha == 0.9)
        u = gas.passes[0][0][0][: dispersion_core._GL_PASSES[0][0]].real
        p_hat = complex(u[np.argmin(abs(u - 0.2))])
        g_at_p, slope_at_p = _slope_at(p_hat, gas)
        got, slope = dispersion_core._gauss_legendre(p_hat, g_at_p, slope_at_p, gas)
        assert cmath.isfinite(got) and cmath.isfinite(slope)
        assert got == _gauss_legendre_uncached(p_hat, g_at_p, gas)[0]


@pytest.mark.parametrize("s_beta_w2, mu, size", [(64.0, 10.0, 256), (64.0, 25.0, 512), (256.0, 64.0, None)],
                         ids=["uncut-256", "uncut-512", "uncut-fails"])
def test_quadrature_larger_rules_match_uncached_bitwise(s_beta_w2, mu, size):
    # a Fermi gas above fugacity 1, 1/alpha = e^-mu: its occupation poles sit
    # ~ pi/(2 mu) sqrt(mu/B) off the Fermi edge u = sqrt(mu/B), close enough
    # that the 64- and 128-node rules disagree and the 256- or 512-node rule
    # settles it, bit for bit as in the uncached rule, or, at B = 256 (edge at
    # 0.5, poles 0.012 off), no rule does and both refuse
    gas = dispersion_core._ThermalGas(1.0, s_beta_w2, math.exp(mu), Statistics.FERMI)
    p_hat = complex(0.3, -0.05)
    g_at_p, slope_at_p = _slope_at(p_hat, gas)
    if size is None:
        with pytest.raises(AssertionError, match="did not agree"):
            _gauss_legendre_uncached(p_hat, g_at_p, gas)
        with pytest.raises(QuadratureFailure, match="256 and 512"):
            dispersion_core._gauss_legendre(p_hat, g_at_p, slope_at_p, gas)
        return
    assert dispersion_core._gauss_legendre(p_hat, g_at_p, slope_at_p, gas)[0] == \
        _gauss_legendre_uncached(p_hat, g_at_p, gas)[0]
    assert _gauss_legendre_uncached(p_hat, g_at_p, gas)[1] == size
    # the pass before the accepting size's refuses
    passes = gas.passes
    gas.passes = passes[:[sizes[-1] for sizes in dispersion_core._GL_PASSES].index(size)]
    with pytest.raises(QuadratureFailure):
        dispersion_core._gauss_legendre(p_hat, g_at_p, slope_at_p, gas)


def _record(gas):
    # the five benchmark thermal gases by (temperature, statistics), or a
    # Fermi gas above fugacity 1 by (B, mu) as in the uncut tests above
    if isinstance(gas[1], Statistics):
        sp, sc = _thermal_gas(*gas)
        return dispersion_core._thermal_gas(sp, sc.alpha)[1]
    return dispersion_core._ThermalGas(1.0, gas[0], math.exp(gas[1]), Statistics.FERMI)


@pytest.mark.parametrize("gas, reached", [
    ((R.T_FERMI_02, Statistics.FERMI), {128}), ((R.T_BOSE_02, Statistics.BOSE), {128}),
    ((R.T_FERMI_09, Statistics.FERMI), {128}), ((R.T_BOSE_09, Statistics.BOSE), {128}),
    ((R.T_CLASSICAL, Statistics.FERMI), {128}), ((64.0, 10.0), {256}), ((64.0, 25.0), {256, 512}),
    ((256.0, 64.0), {None})],
    ids=["fermi-0.2", "bose-0.2", "fermi-0.9", "bose-0.9", "classical", "uncut-256", "uncut-512", "uncut-fails"])
def test_quadrature_accepts_the_size_the_explicit_rule_accepts(gas, reached):
    # the quadrature accepts a size on |estimate|, a lower bound on the
    # integral of |integrand|, before it forms that integral; on random rates,
    # on and off the real axis, it must accept the size, and return the
    # estimate, that the rule on the integral itself accepts, and refuse
    # (None) where that rule refuses.  The sizes each gas reaches are
    # pinned, so the rates exercise the rule at every size and the refusal.
    # The accepted size is the first one after the first rule whose estimate
    # is the returned one: a size whose estimate equals the one before it
    # bit for bit is accepted at once, as the classical gas's 128 nodes are
    gas = _record(gas)
    rng = np.random.default_rng(37)
    sizes = set()
    for _ in range(120):
        p_hat = complex(rng.uniform(-1.2, 1.2), rng.choice([0.0, rng.uniform(-0.2, 0.2)]))
        g_at_p, slope_at_p = _slope_at(p_hat, gas)
        try:
            want, size = _gauss_legendre_uncached(p_hat, g_at_p, gas)
        except AssertionError:
            with pytest.raises(QuadratureFailure):
                dispersion_core._gauss_legendre(p_hat, g_at_p, slope_at_p, gas)
            sizes.add(None)
            continue
        got = dispersion_core._gauss_legendre(p_hat, g_at_p, slope_at_p, gas)[0]
        assert got == want
        estimates = list(_rule_estimates(p_hat, g_at_p, gas))[1:]
        assert [n for n, estimate, _ in estimates if estimate == got][0] == size
        sizes.add(size)
    assert sizes == reached


@pytest.mark.parametrize("gap, accepted", [(0.8e-7, True), (1.2e-7, False)])
def test_quadrature_accept_rule_at_its_threshold(gap, accepted):
    # an integrand of one sign, where |estimate| is the integral of
    # |integrand| itself: two sizes just inside _GL_TOL of each other are
    # accepted, two just outside refused, as the rule on the integral does
    gas = _record((64.0, 10.0))
    gas.passes = ((np.ones((2, 1), complex), np.ones((2, 1), complex), np.array([[1.0], [1.0 + gap]], complex)),)
    if accepted:
        assert dispersion_core._gauss_legendre(0j, 0j, 0j, gas) == (1.0 + gap, 1.0 + gap)
    else:
        with pytest.raises(QuadratureFailure):
            dispersion_core._gauss_legendre(0j, 0j, 0j, gas)


def _clear_residual_caches():
    dispersion_core._thermal_gas.cache_clear()
    dispersion_core._weak_block.cache_clear()


def test_thermal_residual_caches_are_keyed_on_every_input():
    # Both residuals cache rate-independent work per gas.  These gases take
    # the same fugacity arguments but differ in temperature, statistics,
    # spin degeneracy, mass or density (the last three feed only the
    # quadrature's beta and c_g), and fugacities 0.2 and 0.21 give
    # residual_weak the same block size, so a cache key that leaves out a
    # field hands one call another's scales, nodes or coefficients; every
    # interleaved call must match the same call made with empty caches, bit
    # for bit.
    base = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                         temperature=R.T_FERMI_02, statistics=Statistics.FERMI)
    gases = []
    for sp in (base, dataclasses.replace(base, temperature=R.T_CLASSICAL),
               dataclasses.replace(base, statistics=Statistics.BOSE), dataclasses.replace(base, spin_degeneracy=1),
               dataclasses.replace(base, mass=2.0 * R.M_E), dataclasses.replace(base, density=2.0 * R.N0)):
        gases.append((sp, derive_scales(sp)))
    calls = []
    for y, s_frac in ((0.3, -0.01 + 1.05j), (0.45, -0.2 + 1.2j)):
        for alpha in (0.2, 0.21, 0.9):
            for sp, sc in gases:
                for fn in (residual_quadrature, residual_weak):
                    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
                    calls.append((fn, k, s_frac * sc.omega_p, sp, alpha, sc))
    cold = []
    for fn, *args in calls:
        _clear_residual_caches()
        cold.append(fn(*args))
    _clear_residual_caches()
    for _ in range(2):
        warm = [fn(*args) for fn, *args in calls]
        assert warm == cold


@settings(max_examples=200, derandomize=True)
@given(
    statistics=st.sampled_from(Statistics),
    alpha=st.floats(1e-6, 0.9999),
    y=st.floats(0.05, 1.0),
    eta_frac=st.just(0.0) | st.floats(-0.5, 0.1),
    om_frac=st.floats(0.3, 2.0),
)
def test_quadrature_refuses_or_stays_finite(weak_fermion, weak_fermion_scales, weak_boson,
                                            weak_boson_scales, statistics, alpha, y, eta_frac,
                                            om_frac):
    # the fugacity is an argument of residual_quadrature, so one temperature
    # per statistics covers the whole range
    sp, sc = (weak_fermion, weak_fermion_scales) if statistics is Statistics.FERMI \
        else (weak_boson, weak_boson_scales)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    try:
        z = residual_quadrature(k, complex(eta_frac, om_frac) * sc.omega_p, sp, alpha, sc)[0]
    except DisperseError:
        return
    assert cmath.isfinite(z)


def _weak_parts(k, s, species, alpha, scales):
    """(theta, the occupation pole 2 sqrt(pi) theta t/(1 +- t) with
    t = alpha e^(theta^2), and the factor that turns a response sum into
    residual_weak's normalized response).  Where Re theta^2 > 0 the pole is
    written in 1/t, which underflows where t would overflow."""
    beta = species.mass / (2.0 * K_B * species.temperature)
    theta = math.sqrt(beta) * s / k
    x = theta * theta
    pm = 1.0 if species.statistics is Statistics.FERMI else -1.0
    if x.real > 0.0:
        fraction = 1.0 / (cmath.exp(-x) / alpha + pm)
    else:
        t = alpha * cmath.exp(x)
        fraction = t / (1.0 + pm * t)
    pole = 2.0 * math.sqrt(math.pi) * theta * fraction
    norm = (2.0 / 3.0) * scales.v_ch**3
    return theta, pole, (coefficient_C1(k, scales) / k**2) * math.sqrt(math.pi / beta) / norm


@settings(max_examples=200, derandomize=True)
@given(
    statistics=st.sampled_from(Statistics),
    alpha=st.floats(1e-6, 0.9999),
    y=st.floats(0.05, 1.0),
    eta_frac=st.just(0.0) | st.floats(-3.0, 0.1),
    om_frac=st.floats(0.3, 2.0),
)
def test_weak_refuses_or_matches_quadrature(weak_fermion, weak_fermion_scales, weak_boson,
                                            weak_boson_scales, statistics, alpha, y, eta_frac,
                                            om_frac):
    # down to eta = -3 Omega_p, far past where the reflection terms of G
    # summed one by one diverge: residual_weak is finite (or refuses at its
    # term budget) without a numpy warning (the suite makes a RuntimeWarning
    # an error), and wherever the quadrature is finite too the two differ by
    # the pole term alone
    sp, sc = (weak_fermion, weak_fermion_scales) if statistics is Statistics.FERMI \
        else (weak_boson, weak_boson_scales)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    s = complex(eta_frac, om_frac) * sc.omega_p
    try:
        rw = residual_weak(k, s, sp, alpha, sc)[0]
    except DisperseError:
        return
    assert cmath.isfinite(rw)
    try:
        rq = residual_quadrature(k, s, sp, alpha, sc)[0]
    except DisperseError:
        return
    _, pole, factor = _weak_parts(k, s, sp, alpha, sc)
    pred = factor * pole
    assert abs(rq - rw - pred) <= 1e-12 * max(1.0, abs(rw), abs(rq), abs(pred))


def _weak_fixed_sum(k, s, species, alpha, scales, n_terms=1024):
    """residual_weak with its fugacity series summed over a fixed n_terms,
    G taken on the whole plane: on Re theta < 0 that sums the reflection
    terms of G one by one."""
    theta, pole, factor = _weak_parts(k, s, species, alpha, scales)
    j = np.arange(1, n_terms + 1, dtype=float)
    coef = alpha**j / np.sqrt(j)
    if species.statistics is Statistics.FERMI:
        coef = coef * np.where(j % 2.0 == 1.0, 1.0, -1.0)
    total = np.sum(coef * (scaled_erfc(np.sqrt(j) * theta) - 1.0))
    return 1.0 - factor * (total + pole)


@pytest.mark.parametrize("statistics", [Statistics.FERMI, Statistics.BOSE])
@pytest.mark.parametrize("temperature, alpha", [
    (R.T_FERMI_02, 0.2), (R.T_FERMI_02, 0.9), (R.T_CLASSICAL, 1e-6)])
def test_weak_series_truncation_matches_fixed_sum(statistics, temperature, alpha):
    # residual_weak sizes its block from alpha; a 1024-term sum leaves a
    # tail below 0.9^1024 ~ 1e-47.  The fugacity is an argument of
    # residual_weak, so one temperature serves several alphas.  The two
    # damped rates have Re theta < 0, where the fixed sum adds G's
    # reflection terms one by one and residual_weak adds their closed form,
    # the pole term, once: this pins that closed form.
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    vth = math.sqrt(sc.v_th_sq)
    for y, s_frac in ((0.2, 1.08j), (0.35, -0.05 + 1.05j), (0.45, -0.3 + 0.9j)):
        k = y * sc.omega_p / vth
        s = s_frac * sc.omega_p
        got = residual_weak(k, s, sp, alpha, sc)[0]
        want = _weak_fixed_sum(k, s, sp, alpha, sc)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_weak_and_quadrature_conjugate_symmetry(weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    vth = math.sqrt(sc.v_th_sq)
    k = 0.35 * sc.omega_p / vth
    s = complex(-3e-4 * sc.omega_p, 1.06 * sc.omega_p)
    for fn in (residual_weak, residual_quadrature):
        plus = fn(k, s, sp, sc.alpha, sc)[0]
        minus = fn(k, s.conjugate(), sp, sc.alpha, sc)[0]
        assert abs(minus - plus.conjugate()) < 1e-12 * abs(plus)


def test_weak_overflow_guard_stays_finite(weak_fermion, weak_fermion_scales):
    # theta = 40 on the real axis: exp(theta^2) alone overflows, the
    # assembled residual must not
    sp, sc = weak_fermion, weak_fermion_scales
    beta = sp.mass / (2.0 * K_B * sp.temperature)
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    s = complex(40.0 * k / math.sqrt(beta), 0.0)
    z = residual_weak(k, s, sp, sc.alpha, sc)[0]
    assert np.isfinite(z.real) and np.isfinite(z.imag)


def test_quadrature_overflow_guard_counts_the_fugacity(weak_boson, weak_boson_scales):
    # beta p^2 ~ 698 at alpha = 1e-6: exp(beta p^2) alone is finite, but the
    # occupation denominator (1/alpha) exp(beta p^2) overflows, and the slope
    # at the pole must come out ~0, not NaN
    sp, sc = weak_boson, weak_boson_scales
    k = 0.05 * sc.omega_p / math.sqrt(sc.v_th_sq)
    z = residual_quadrature(k, complex(0.02, 1.1) * sc.omega_p, sp, 1e-6, sc)[0]
    assert cmath.isfinite(z)


def test_weak_series_stays_on_the_right_half_plane(monkeypatch, weak_fermion, weak_fermion_scales):
    # s = (-3 + i) omega_p at k v_th / omega_p = 0.4: alpha exp(Re theta^2)
    # far above 1, where the reflection terms of G summed one by one
    # overflow.  |theta| > 6 there, so the tail table takes every term and
    # scaled_erfc is not called; at s = (-0.3 + i) omega_p one call takes
    # the head, every argument on Re z >= 0 and |z| <= 6.  The residual is
    # finite at both.  Near fugacity 1 the term budget refuses before any
    # call.
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.4 * sc.omega_p / math.sqrt(sc.v_th_sq)
    calls = []

    def counted(z):
        calls.append(z)
        return scaled_erfc(z)

    monkeypatch.setattr(dispersion_core, "scaled_erfc", counted)
    assert cmath.isfinite(residual_weak(k, complex(-3.0, 1.0) * sc.omega_p, sp, sc.alpha, sc)[0])
    assert calls == []
    assert cmath.isfinite(residual_weak(k, complex(-0.3, 1.0) * sc.omega_p, sp, sc.alpha, sc)[0])
    assert len(calls) == 1 and calls[0].size > 0
    assert np.all(calls[0].real >= 0.0) and np.all(np.abs(calls[0]) <= 6.0)
    with pytest.raises(NonConvergent, match="terms"):
        residual_weak(k, complex(-0.3, 1.0) * sc.omega_p, sp, 0.998, sc)
    assert len(calls) == 1


def _weak_series_mpmath(k, s, species, alpha):
    """residual_weak's response sum in 40-digit arithmetic from the same
    doubles: the J terms of its block, c_j (G(sqrt(j) theta) - 1) with G
    from mpmath's erfc, on -theta where Re theta < 0, plus the occupation
    pole term, twice there.  Returns (the number of terms with
    sqrt(j) |theta| <= 6, the sum rounded once); R.WEAK_SERIES_SUMS holds
    its values."""
    mp = pytest.importorskip("mpmath")
    fermi = species.statistics is Statistics.FERMI
    n_terms = dispersion_core._weak_block(alpha, fermi)[1].size
    beta = species.mass / (2.0 * K_B * species.temperature)
    theta = math.sqrt(beta) * s / k
    with mp.workdps(40):
        th = mp.mpc(theta)
        z0 = -th if theta.real < 0.0 else th
        t = alpha * mp.exp(th * th)
        pole = 2 * mp.sqrt(mp.pi) * th * t / (1 + t if fermi else 1 - t)
        total = pole * (2 if theta.real < 0.0 else 1)
        head = 0
        for j in range(1, n_terms + 1):
            z = mp.sqrt(j) * z0
            head += abs(z) <= 6
            c = (-1 if fermi and j % 2 == 0 else 1) * mp.mpf(alpha) ** j / mp.sqrt(j)
            total += c * (mp.sqrt(mp.pi) * z * mp.exp(z * z) * mp.erfc(z) - 1)
        return head, complex(total)


def test_weak_series_sums_come_from_the_mpmath_reference(classical_electron, classical_electron_scales):
    # the classical gas's block has 8 terms, cheap enough to redo in 40 digits
    sp, sc = classical_electron, classical_electron_scales
    for k, s, head, want in R.WEAK_SERIES_SUMS[R.T_CLASSICAL, "FERMI"]:
        got_head, got = _weak_series_mpmath(k, s, sp, sc.alpha)
        assert got_head == head and abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("temperature, statistics", list(R.WEAK_SERIES_SUMS))
def test_weak_series_matches_40_digit_sum(monkeypatch, temperature, statistics):
    # heads of 0, 1, about J/2 and J terms: the tail table alone, then one
    # term, half the terms and every term through scaled_erfc's rational
    # fit.  Within 1e-14 of the response, plus 1e-15 per unit of head
    # coefficient: the fit itself is good to ~5e-16 absolute up to |z| = 6,
    # up to ~1.3e-14 of the response when the one head term has |z| ~ 5.
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=Statistics[statistics])
    sc = derive_scales(sp)
    coef = dispersion_core._weak_block(sc.alpha, statistics == "FERMI")[1]
    heads = []

    def counted(z):
        heads.append(z.size)
        return scaled_erfc(z)

    monkeypatch.setattr(dispersion_core, "scaled_erfc", counted)
    for k, s, head, want in R.WEAK_SERIES_SUMS[temperature, statistics]:
        heads.clear()
        _, _, factor = _weak_parts(k, s, sp, sc.alpha, sc)
        got = (1.0 - residual_weak(k, s, sp, sc.alpha, sc)[0]) / factor
        assert heads == ([head] if head else [])
        assert abs(got - want) <= 1e-14 * abs(want) + 1e-15 * float(np.abs(coef[:head]).sum())
    covered = {head for _, _, head, _ in R.WEAK_SERIES_SUMS[temperature, statistics]}
    assert {0, 1, coef.size} < covered


def test_weak_block_entry_stays_bounded():
    # the worst case sits just inside the term budget: a Bose gas at
    # fugacity 0.9962 takes 9,932 terms.  Its entry holds sqrt(j), c_j and
    # the tail table, one row per head and one column per asymptotic order
    # _asymptotic_order can return, about 3.3 MB; the cache keeps 16.
    sqrt_j, coef, tail = dispersion_core._weak_block(0.9962, False)
    n_terms = coef.size
    assert n_terms == 9932
    assert tail.shape == (n_terms + 1, 39) == (n_terms + 1, quantum_stats._ASYM_COEFS.size - 1)
    entry = sqrt_j.nbytes + coef.nbytes + tail.nbytes
    assert entry == 8 * (2 * n_terms + 39 * (n_terms + 1)) < 3.3e6
    assert dispersion_core._weak_block.cache_info().maxsize * entry < 53e6
    with pytest.raises(NonConvergent, match="terms"):
        dispersion_core._weak_block(0.9963, False)


# ---------------------------------------------------------------------------
# the derivative each residual returns with its value
# ---------------------------------------------------------------------------

def _thermal_gas(temperature, statistics):
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    return sp, derive_scales(sp)


def _check_slope(fn, s):
    # the returned df/ds against central differences of the value with
    # h = 1e-6 |s|: along omega everywhere, and along eta off the real-s
    # axis, where the T = 0 residuals jump across eta = 0
    value, slope = fn(s)
    assert cmath.isfinite(value) and cmath.isfinite(slope)
    h = 1e-6 * abs(s)
    steps = (1j * h,) if s.real == 0.0 else (1j * h, h)
    for step in steps:
        numeric = (fn(s + step)[0] - fn(s - step)[0]) / (2.0 * step)
        assert abs(slope - numeric) <= 1e-6 * abs(slope), (s, step, slope, numeric)


# the five thermal gases of the benchmark, all at n0 = 1e28
_BENCHMARK_GASES = [(R.T_FERMI_02, Statistics.FERMI), (R.T_BOSE_02, Statistics.BOSE),
                    (R.T_FERMI_09, Statistics.FERMI), (R.T_BOSE_09, Statistics.BOSE),
                    (R.T_CLASSICAL, Statistics.FERMI)]


@pytest.mark.parametrize("temperature, statistics", _BENCHMARK_GASES,
                         ids=["fermion_0.2", "boson_0.2", "fermion_0.9", "boson_0.9", "classical"])
def test_thermal_residual_slopes_match_central_differences(temperature, statistics):
    # damped rates sit on the reflected side, Re theta < 0; the growing one
    # on Re theta > 0
    sp, sc = _thermal_gas(temperature, statistics)
    for y in (0.1, 0.25, 0.45):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        omega = omega_weak_biquadratic(k, sp, sc)
        for eta_frac in (0.0, -0.01, -0.2, 0.05):
            s = complex(eta_frac * sc.omega_p, omega)
            _check_slope(lambda s: residual_weak(k, s, sp, sc.alpha, sc), s)
            _check_slope(lambda s: residual_quadrature(k, s, sp, sc.alpha, sc), s)


def test_weak_slope_on_the_overflowed_pole_branch(weak_fermion, weak_fermion_scales):
    # theta = 40 + 0.3i: Re theta^2 > 700, where t/(1 + t) is taken as 1
    sp, sc = weak_fermion, weak_fermion_scales
    beta = sp.mass / (2.0 * K_B * sp.temperature)
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    s = complex(40.0, 0.3) * k / math.sqrt(beta)
    assert (math.sqrt(beta) * s / k).real ** 2 > 700.0
    _check_slope(lambda s: residual_weak(k, s, sp, sc.alpha, sc), s)


@pytest.mark.parametrize("alpha", [0.999, 1.0 - 1e-8])
def test_quadrature_slope_on_subtracted_panels(alpha):
    # the occupation poles 0.004 W and 1.25e-5 W from [-1, 1], subtracted:
    # the closed form's slope joins the rule's
    sp, sc = _thermal_gas(R.T_BOSE_0999, Statistics.BOSE)
    assert dispersion_core._thermal_gas(sp, alpha)[1].pole is not None
    for y in (0.1, 0.3, 0.45):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        for eta_frac in (0.0, -0.01, -0.2, 0.05):
            _check_slope(lambda s: residual_quadrature(k, s, sp, alpha, sc), complex(eta_frac, 1.1) * sc.omega_p)


def test_degenerate_residual_slopes_match_central_differences(electron_degenerate_scales):
    # r = 0.05 is inside the 1/p series, 0.3 and 0.9 below the edge velocity,
    # 1.5 above it; eps = -0.7 with r^2 + eps^2 > 1 switches the residue on
    # inside the series
    sc = electron_degenerate_scales
    k = R.K_REF
    for r in (0.05, 0.3, 0.9, 1.5):
        for eps in (0.0, -0.01, -0.3, -0.7, -1.5):
            omega = k * sc.v_ch / r
            s = complex(eps * omega, omega)
            _check_slope(lambda s: residual_degenerate(k, s, sc), s)
            _check_slope(lambda s: R.printed_degenerate_residual(k * sc.v_ch / s.imag, s.real / s.imag, k, sc), s)


# values from before the residuals returned their slope, bit for bit: rates
# as fractions of Omega_p at k v_th / Omega_p = 0.3, and (r, epsilon) at
# k = K_REF for the T = 0 gas (R.FROZEN_DEGENERATE), but the Bose quadrature
# column: frozen with the occupation poles subtracted, each within 1e-13 of
# R.BOSE_09_RESIDUALS.  The Fermi values were re-frozen once when zeta_pm's
# Fermi sum left np.dot, whose order is the BLAS kernel's, for numpy's own
# sum: derive_scales' Fermi v_th_sq now reads 0x1.0f6d51bfa416bp+41 under
# OpenBLAS's Haswell and SkylakeX kernels alike, and all eight Fermi values
# with it.  The Bose weak value at -0.2+1.2j still depends on the kernel:
# residual_weak's series sums with np.dot, and under Haswell it reads
# 0.32137855007614957 in its real part (the thread count changes none)
_FROZEN_THERMAL = {
    Statistics.FERMI: [
        (1.1j, (0.102782485344874-8.010108315373339e-07j), (0.10278248534486989-2.6700361113424087e-07j)),
        ((-0.01+1.05j), (0.006706529379745696+0.020866351929992824j), (0.006707649967748863+0.02086940264840045j)),
        ((0.05+1.2j), (0.26137213205528165-0.06621632434837404j), (0.2613721216220948-0.06621632943361842j)),
        ((-0.2+1.2j), (0.32593245316074293+0.24849277012243798j), (0.3259324749140027+0.24849276469005246j)),
    ],
    Statistics.BOSE: [
        (1.1j, (0.09377393508370635-0.00017515602015105017j), (0.0937739350837079-5.8385340051139154e-05j)),
        ((-0.01+1.05j), (-0.004691208024122373+0.020843908761120175j), (-0.0045983048813922345+0.02122785574363299j)),
        ((0.05+1.2j), (0.25523552587549025-0.0671829854346729j), (0.2552269186083054-0.06718122794272799j)),
        ((-0.2+1.2j), (0.3213785500761497+0.25145122657461233j), (0.3213685885022177+0.2514608194374906j)),
    ],
}


def test_residual_values_are_unchanged_bitwise(electron_degenerate, electron_degenerate_scales):
    for temperature, statistics in ((R.T_FERMI_02, Statistics.FERMI), (R.T_BOSE_09, Statistics.BOSE)):
        sp, sc = _thermal_gas(temperature, statistics)
        k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
        for s_frac, weak, quad in _FROZEN_THERMAL[statistics]:
            s = s_frac * sc.omega_p
            assert residual_weak(k, s, sp, sc.alpha, sc)[0] == weak
            assert residual_quadrature(k, s, sp, sc.alpha, sc)[0] == quad
            if statistics is Statistics.BOSE:
                want = R.BOSE_09_RESIDUALS[s_frac]
                assert abs(quad - want) < 1e-13 * abs(want)
    sp, sc = electron_degenerate, electron_degenerate_scales
    for r, eps, printed, quad in R.FROZEN_DEGENERATE:
        assert R.printed_degenerate_residual(r, eps, R.K_REF, sc)[0] == printed
        omega = R.K_REF * sc.v_ch / r
        if quad is not None:
            s = complex(eps * omega, omega)
            assert residual_quadrature(R.K_REF, s, sp, None, sc)[0] == quad
            assert residual_degenerate(R.K_REF, s, sc)[0] == quad


def test_degenerate_residuals_share_the_far_pole_series(electron_degenerate, electron_degenerate_scales):
    # small r: the printed bracket -lg/4 - r cancels to ~r^3/3, so the
    # residual and its printed reference take the integral from the same 1/p
    # series at |p| >= 10.  The series is unchanged bit for bit; both match
    # it, and are real on the undamped axis
    sp, sc = electron_degenerate, electron_degenerate_scales
    omega = R.K_REF * sc.v_ch / 0.05
    assert residual_quadrature(R.K_REF, complex(0.0, omega), sp, None, sc)[0] == (0.9967430388614023+0j)
    for r in (0.09, 0.05, 1e-3, 3e-4):
        omega = R.K_REF * sc.v_ch / r
        zd = R.printed_degenerate_residual(r, 0.0, R.K_REF, sc)[0]
        zq = residual_quadrature(R.K_REF, complex(0.0, omega), sp, None, sc)[0]
        assert zd.imag == 0.0 and zq.imag == 0.0
        assert abs(zd - zq) <= 1e-15 * abs(zq)


def _degenerate_residual_mpmath(k, s, scales, step):
    """residual_degenerate's value and slope at the doubles k and s in
    50-digit arithmetic, with the residue term on where step is true."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        kv = mp.mpf(k) * mp.mpf(scales.v_ch)
        p = 1j * mp.mpc(s.real, s.imag) / kv
        scale = (mp.mpf(scales.omega_p) ** 2 + mp.mpf(scales.lambda_quantum) * mp.mpf(k) ** 4) / kv**2
        log_ratio = mp.log((1 - p) / (-1 - p))
        integral, d_integral = -3 - 1.5 * p * log_ratio, -1.5 * log_ratio + 3 * p / (1 - p * p)
        if step:
            integral, d_integral = integral - 3j * mp.pi * p, d_integral - 3j * mp.pi
        return complex(1 - scale * integral), complex(-scale * d_integral * 1j / kv)


@settings(max_examples=300, derandomize=True)
@given(neutral=st.booleans(), k_frac=st.floats(0.01, 3.0), r=st.floats(0.01, 3.0),
       eps=st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda x: -(10.0**x))))
def test_degenerate_residual_matches_the_printed_form(neutral, k_frac, r, eps):
    # the s-coded closed form and the printed (r, epsilon) reference, at
    # (r, epsilon) as read back from s, on both T = 0 gases, each against
    # 50-digit mpmath at s with the residue term on by the coding's own rule
    # (the two rules can part within rounding of r^2 + epsilon^2 = 1, where
    # the residual jumps).  Near the edge velocity, at d = |p_hat -+ 1| from
    # it, the log turns the rounding of p_hat into ~eps/d, so the values must
    # lie within (4.5e-13 + 4 eps/d) max(1, |f|) and the slopes within
    # (8.8e-13 + 4 eps/d) |f'|.  Of 80,000 random points, two fifths of them
    # within 1e-2 of r = 1, the worst read 2.0e-13 and 1.8e-13 for d > 1e-3,
    # and 0.23 eps/d and 1.2 eps/d for d < 1e-3
    sp = SpeciesParams(mass=R.M_E, charge=0.0 if neutral else -R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=0.0, statistics=Statistics.FERMI)
    sc = derive_scales(sp)
    k = k_frac * R.K_REF
    omega = k * sc.v_ch / r
    s = complex(eps * omega, omega)
    p_hat = 1j * s / k / sc.v_ch  # as residual_degenerate forms it
    if p_hat.imag == 0.0 and abs(p_hat.real) == 1.0:
        with pytest.raises(SingularInput):
            residual_degenerate(k, s, sc)
        return
    conditioning = 4.0 * 2.0**-52 / min(abs(p_hat - 1.0), abs(p_hat + 1.0))
    codings = [(residual_degenerate(k, s, sc), (k * sc.v_ch) ** 2 + s.real * s.real - s.imag**2 >= 0.0)]
    r_back, eps_back = k * sc.v_ch / s.imag, s.real / s.imag
    try:  # the printed form refuses r = 1 on the axis, as read back
        codings.append((R.printed_degenerate_residual(r_back, eps_back, k, sc),
                        r_back * r_back + eps_back * eps_back >= 1.0))
    except SingularInput:
        pass
    for (value, slope), step in codings:
        want, want_slope = _degenerate_residual_mpmath(k, s, sc, step)
        assert abs(value - want) <= (4.5e-13 + conditioning) * max(1.0, abs(want))
        assert abs(slope - want_slope) <= (8.8e-13 + conditioning) * abs(want_slope)


@pytest.mark.parametrize("gas", ["electron_degenerate", "neutral_degenerate"])
def test_degenerate_residual_array_is_the_scalar_residual(request, gas):
    # residual_degenerate_array, which sweeps solve on, against
    # residual_degenerate at 5,000 random (k, s) a gas, half of them on the
    # undamped axis, at r = k v_F / omega in 0.02-3 (|p_hat| on both sides of
    # the far-pole switch at 10): the value within 1e-12 of max(1, |f|), and
    # the slope, taken as s df/ds, within 1e-12 of max(1, |s df/ds|); over
    # 60,000 such points the worst read 4.6e-13 and 1.8e-13, the value's next
    # to the switch, where the closed form cancels.  A RuntimeWarning fails the
    # test (pyproject's filterwarnings)
    sp = request.getfixturevalue(gas)
    sc = request.getfixturevalue(gas + "_scales")
    unit = R.K_REF if sp.charge else sc.v_ch / math.sqrt(sc.lambda_quantum)
    rng = np.random.default_rng(43)
    n = 5000
    k = np.exp(rng.uniform(math.log(0.01), math.log(3.0), n)) * unit
    omega = k * sc.v_ch / np.exp(rng.uniform(math.log(0.02), math.log(3.0), n))
    eta = np.where(np.arange(n) % 2 == 0, 0.0, -rng.uniform(0.0, 0.5, n) * omega)
    values, slopes, singular = dispersion_core.residual_degenerate_array(k, eta + 1j * omega, sc)
    assert not singular.any()
    far = np.abs(omega / (k * sc.v_ch)) >= dispersion_core._FAR_POLE
    assert 0 < far.sum() < n
    for i in range(n):
        s = complex(eta[i], omega[i])
        value, slope = residual_degenerate(float(k[i]), s, sc)
        assert abs(values[i] - value) <= 1e-12 * max(1.0, abs(value)), i
        assert abs((slopes[i] - slope) * s) <= 1e-12 * max(1.0, abs(slope * s)), i
        if eta[i] == 0.0 and k[i] * sc.v_ch < omega[i]:  # the undamped interior
            assert values[i].imag == 0.0 and math.copysign(1.0, values[i].imag) == 1.0, i
            assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0, i


def test_degenerate_residual_array_masks_the_edge_velocity(electron_degenerate_scales):
    # p_hat = -1 and +1 exactly on the axis, which residual_degenerate refuses,
    # come back masked with nan, beside a point that evaluates; k is a power
    # of two so that k v_F / k is v_F exactly
    sc = electron_degenerate_scales
    k = 2.0**30
    kv = k * sc.v_ch
    s = np.array([complex(0.0, kv), complex(0.0, -kv), complex(0.0, 2.0 * kv)])
    for rate in s[:2]:
        with pytest.raises(SingularInput):
            residual_degenerate(k, complex(rate), sc)
    values, slopes, singular = dispersion_core.residual_degenerate_array(np.full(3, k), s, sc)
    assert singular.tolist() == [True, True, False]
    assert np.isnan(values[:2]).all() and np.isnan(slopes[:2]).all()
    value, slope = residual_degenerate(k, complex(s[2]), sc)
    assert abs(values[2] - value) <= 1e-15 * abs(value) and abs(slopes[2] - slope) <= 1e-15 * abs(slope)


# ---------------------------------------------------------------------------
# closed-form branches
# ---------------------------------------------------------------------------

def test_closed_form_ordering(electron_degenerate_scales):
    # successively larger pressure corrections: bare, 1/3, 3/5
    sc = electron_degenerate_scales
    for k in np.linspace(0.05, 3.0, 40) * R.K_REF:
        ql = omega_quantum_langmuir(float(k), sc)
        c1c = omega_c1_corrected(float(k), sc)
        dbg = omega_degenerate_bohm_gross(float(k), sc)
        assert ql <= c1c <= dbg


def test_closed_forms_monotone_in_k(electron_degenerate_scales, weak_fermion,
                                    weak_fermion_scales):
    sc = electron_degenerate_scales
    ks = np.linspace(1e-3, 3.0, 400) * R.K_REF
    for fn in (omega_quantum_langmuir, omega_c1_corrected,
               omega_degenerate_bohm_gross, omega_zero_sound):
        vals = np.array([fn(float(k), sc) for k in ks])
        assert np.all(np.diff(vals) >= 0.0), fn.__name__
    for fn in (omega_weak_biquadratic, omega_weak_simple):
        vals = np.array([fn(float(k), weak_fermion, weak_fermion_scales) for k in ks])
        assert np.all(np.diff(vals) >= 0.0), fn.__name__


def test_quantum_langmuir_is_sqrt_c1(electron_degenerate_scales):
    sc = electron_degenerate_scales
    for k in (0.3 * R.K_REF, R.K_REF, 2.0 * R.K_REF):
        assert omega_quantum_langmuir(k, sc) == math.sqrt(coefficient_C1(k, sc))
        assert omega_quantum_langmuir(k, with_bohm_term(sc, False)) == sc.omega_p


def test_zero_sound_charged_small_k_limit(electron_degenerate_scales):
    sc = electron_degenerate_scales
    k = 1e-4 * R.K_REF
    ratio = omega_zero_sound(k, sc) / (k * sc.v_ch)
    assert rel(ratio, 1.0 + 2.0 * math.exp(-2.0)) < 1e-6


def test_zero_sound_exponent_grouping(electron_degenerate_scales):
    # regression for the exponent: x = (2/3) (k v)^2 / C1, omega = k v (1 + 2 e^(-x-2))
    sc = electron_degenerate_scales
    for k in (0.4 * R.K_REF, 1.1 * R.K_REF):
        c1 = coefficient_C1(k, sc)
        x = (2.0 / 3.0) * (k * sc.v_ch) ** 2 / c1
        expected = k * sc.v_ch * (1.0 + 2.0 * math.exp(-x - 2.0))
        assert omega_zero_sound(k, sc) == expected


def test_zero_sound_neutral_back_substitution(neutral_degenerate_scales):
    # the acoustic root of the neutral gas must nearly solve the full
    # undamped condition; kappa is k hbar / (2 m v), the quantum wavenumber
    sc = neutral_degenerate_scales
    kappa = 0.3
    k = kappa * sc.v_ch / math.sqrt(sc.lambda_quantum)
    omega = omega_zero_sound(k, sc)
    r = k * sc.v_ch / omega
    for zd in (R.printed_degenerate_residual(r, 0.0, k, sc)[0], residual_degenerate(k, complex(0.0, omega), sc)[0]):
        assert abs(zd.real) < 1e-3
        assert zd.imag == 0.0


def test_zero_sound_neutral_needs_restoring_force(neutral_degenerate_scales):
    with pytest.raises(ValueError, match="restoring"):
        omega_zero_sound(1e9, with_bohm_term(neutral_degenerate_scales, False))


def test_weak_biquadratic_solves_its_polynomial(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    for y in (0.1, 0.3, 0.6):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        om2 = omega_weak_biquadratic(k, weak_fermion, sc) ** 2
        c1 = coefficient_C1(k, sc)
        poly = om2 * om2 - c1 * om2 - c1 * k * k * sc.v_th_sq
        assert abs(poly) < 1e-9 * c1 * c1


@pytest.mark.parametrize("temperature, statistics", [
    (R.T_FERMI_02, Statistics.FERMI), (R.T_FERMI_09, Statistics.FERMI), (R.T_BOSE_02, Statistics.BOSE),
    (R.T_BOSE_09, Statistics.BOSE), (R.T_BOSE_099, Statistics.BOSE), (R.T_CLASSICAL, Statistics.FERMI),
])
def test_moment_table_is_row_zero_of_the_weak_tail_table(temperature, statistics):
    # both tables hold the far-field moments A_n zeta(n + 1/2), one from
    # zeta_pm and one summed over residual_weak's block:
    # b_n = (-1)^n T[0, n - 1] / zeta(3/2), n = 1 .. 39
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    alpha = derive_scales(sp).alpha
    table = dispersion_core._thermal_gas(sp, alpha)[1].fluid[0]
    tail = dispersion_core._weak_block(alpha, statistics is Statistics.FERMI)[2]
    norm = zeta_pm(1.5, alpha, statistics)
    assert len(table) == tail.shape[1] == 39
    assert table[0] == 1.0
    for n, b in enumerate(table, start=1):
        assert rel(b, (-1) ** n * tail[0, n - 1] / norm) <= 1e-15


def _omega_fluid_loop(k, species, scales):
    # the fluid root with its Newton sum indexing the moment table term by
    # term, as first written; returns the root and the order it summed to
    omega = omega_weak_biquadratic(k, species, scales)
    b = dispersion_core._thermal_gas(species, scales.alpha)[1].fluid[0]
    c1, u = coefficient_C1(k, scales), omega * omega
    x_u = k * k / (2.0 * dispersion_core.thermal_beta(species, scales.alpha))
    order, term = 2, b[1] * x_u / u if u > 0.0 else 0.0
    while order < len(b) and term >= 1e-17:
        following = term * (x_u / u) * b[order] / b[order - 1]
        if following >= term:
            break
        order, term = order + 1, following
    if order == 2:
        return omega, order
    for _ in range(20):
        x, total, slope = x_u / u, 0.0, 0.0
        for n in range(order, 0, -1):
            total, slope = total * x + b[n - 1], slope * x + (n - 1) * b[n - 1]
        step = (c1 * total - u) / (1.0 + c1 * slope / u)
        if not u + step > u:
            break
        u += step
    return math.sqrt(u), order


def test_omega_fluid_matches_the_term_by_term_loop_bitwise():
    # the Horner table of pairs (b_n, (n - 1) b_n) runs the loop's floating
    # point operations in its order: every test gas at y = 0.05-1.5, with
    # orders from the early return at 2 up to the full 39
    orders = set()
    for temperature, statistics in [
        (R.T_FERMI_02, Statistics.FERMI), (R.T_FERMI_09, Statistics.FERMI), (R.T_BOSE_01, Statistics.BOSE),
        (R.T_BOSE_02, Statistics.BOSE), (R.T_BOSE_09, Statistics.BOSE), (R.T_BOSE_099, Statistics.BOSE),
        (R.T_BOSE_0999, Statistics.BOSE), (R.T_CLASSICAL, Statistics.FERMI),
    ]:
        sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                           temperature=temperature, statistics=statistics)
        sc = derive_scales(sp)
        for y in [*np.linspace(0.05, 1.5, 59), 1e-9, 3.0]:
            k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
            want, order = _omega_fluid_loop(k, sp, sc)
            got = dispersion_core._omega_fluid(k, sp, sc)
            assert got == want and got.hex() == want.hex(), (temperature, statistics, y)
            orders.add(order)
    assert {2, 39} <= orders and len(orders) > 20


def test_omega_fluid_without_restoring_force_is_zero():
    # a neutral gas with the Bohm term off has C1 = 0: the biquadratic's 0
    sp = SpeciesParams(mass=R.M_E, charge=0.0, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_FERMI_02, statistics=Statistics.FERMI)
    sc = with_bohm_term(derive_scales(sp), False)
    for k in (1e6, 1e9, 1e11):
        assert dispersion_core._omega_fluid(k, sp, sc) == 0.0 == _omega_fluid_loop(k, sp, sc)[0]


def test_weak_simple_classical_limit(classical_electron, classical_electron_scales):
    sp, sc = classical_electron, classical_electron_scales
    k = 0.2 * sc.omega_p / math.sqrt(sc.v_th_sq)
    got = omega_weak_simple(k, sp, sc) ** 2
    expected = sc.omega_p**2 + 3.0 * K_B * sp.temperature / sp.mass * k * k \
        + sc.lambda_quantum * k**4
    assert rel(got, expected) < 1e-5


def test_weak_forms_reject_degenerate_scales(electron_degenerate,
                                             electron_degenerate_scales):
    with pytest.raises(ValueError, match="v_th_sq"):
        omega_weak_simple(R.K_REF, electron_degenerate, electron_degenerate_scales)
    with pytest.raises(ValueError, match="v_th_sq"):
        omega_weak_biquadratic(R.K_REF, electron_degenerate, electron_degenerate_scales)


def test_fermion_frequency_at_least_boson_at_same_temperature():
    # same mass, density, charge, temperature: Pauli pressure pushes the
    # fermion branch up
    common = dict(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                  temperature=R.T_FERMI_02)
    fermi = SpeciesParams(**common, statistics=Statistics.FERMI)
    bose = SpeciesParams(**common, statistics=Statistics.BOSE)
    sc_f, sc_b = derive_scales(fermi), derive_scales(bose)
    for y in (0.1, 0.25, 0.4):
        k = y * sc_f.omega_p / math.sqrt(sc_f.v_th_sq)
        assert omega_weak_simple(k, fermi, sc_f) >= omega_weak_simple(k, bose, sc_b)
        assert omega_weak_biquadratic(k, fermi, sc_f) >= omega_weak_biquadratic(k, bose, sc_b)


def test_degenerate_bohm_gross_equals_weak_simple_with_matched_speed(
    electron_degenerate_scales, weak_fermion
):
    # bit-identical by construction when (v_th)^2 is set to (3/5) v_F^2
    sc = electron_degenerate_scales
    matched = DerivedScales(
        omega_p=sc.omega_p, v_ch=sc.v_ch, alpha=0.5,
        v_th_sq=0.6 * sc.v_ch**2, lambda_quantum=sc.lambda_quantum,
    )
    for k in np.linspace(0.1, 2.5, 7) * R.K_REF:
        left = omega_degenerate_bohm_gross(float(k), sc)
        right = omega_weak_simple(float(k), weak_fermion, matched)
        assert left == right
