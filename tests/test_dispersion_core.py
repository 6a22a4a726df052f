"""Residual functions and closed-form branches.

The heavy cross-checks here are the dual-route ones: the printed degenerate
form against the contour quadrature, and the series form against the same
quadrature through an exact reconciliation identity.  Each route was written
against the source equations independently, so agreement is evidence, not
tautology.
"""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _refs as R
from disperse import (
    BranchId,
    ComplexRate,
    DisperseError,
    NonConvergent,
    ResidualValue,
    SingularInput,
    SpeciesParams,
    Statistics,
    coefficient_C1,
    derive_scales,
    omega_c1_corrected,
    omega_degenerate_bohm_gross,
    omega_quantum_langmuir,
    omega_weak_biquadratic,
    omega_weak_simple,
    omega_zero_sound,
    residual_degenerate,
    residual_quadrature,
    residual_weak,
    scaled_erfc,
    zeta_pm,
)
from disperse import dispersion_core
from disperse.quantum_stats import DerivedScales, K_B


def rel(a, b):
    return abs(a - b) / abs(b)


def complexified(r, eps, k, scales):
    """Assemble the full complex residual from the printed split form.

    The printed imaginary component has the common prefactor divided out
    (it multiplies a zero right-hand side), so the true analytic residual is
    real_part - i * pref * imag_part with pref = 3 C1 / (k^2 v_ch^2 r).
    """
    rv = residual_degenerate(r, eps, k, scales)
    pref = 3.0 * coefficient_C1(k, scales) / (k * k * scales.v_ch**2 * r)
    return complex(rv.real_part, -pref * rv.imag_part)


# ---------------------------------------------------------------------------
# restoring coefficient
# ---------------------------------------------------------------------------

def test_coefficient_c1_frozen(electron_degenerate_scales):
    sc = electron_degenerate_scales
    assert rel(coefficient_C1(R.K_REF, sc), R.C1_AT_KREF) < 1e-14
    quantum = coefficient_C1(R.K_REF, sc) - coefficient_C1(R.K_REF, sc, bohm_term=False)
    assert rel(quantum, R.QUANTUM_TERM_AT_KREF) < 1e-12


def test_coefficient_c1_hook_off_is_plasma_term(electron_degenerate_scales):
    sc = electron_degenerate_scales
    for k in (1e7, R.K_REF, 5.0 * R.K_REF):
        assert coefficient_C1(k, sc, bohm_term=False) == sc.omega_p**2


# ---------------------------------------------------------------------------
# small API contracts
# ---------------------------------------------------------------------------

def test_complex_rate_and_residual_value_fields():
    rate = ComplexRate(eta=-1.0, omega=2.0)
    assert rate.eta == -1.0 and rate.omega == 2.0
    rv = ResidualValue(real_part=0.5, imag_part=-0.25, region_flag=True)
    assert rv.region_flag is True


def test_degenerate_analytic_is_the_recombined_split(electron_degenerate_scales):
    sc = electron_degenerate_scales
    for r, eps in ((0.5, 0.0), (0.9, -0.05), (2.0, -0.1), (1.5, 0.2)):
        want = complexified(r, eps, R.K_REF, sc)
        assert abs(residual_degenerate(r, eps, R.K_REF, sc).analytic - want) <= 1e-14 * abs(want)


def test_branch_ids_are_stable():
    names = {b.name for b in BranchId}
    assert names == {
        "ExactDegenerate", "ExactWeak", "ExactQuadrature",
        "QuantumLangmuir", "C1Corrected", "DegenerateBohmGross",
        "ZeroSound", "WeakBiquadratic", "WeakSimple",
    }


# ---------------------------------------------------------------------------
# printed degenerate residual
# ---------------------------------------------------------------------------

def test_degenerate_undamped_interior_imag_is_bitwise_zero(electron_degenerate_scales):
    sc = electron_degenerate_scales
    for r in np.linspace(0.05, 0.95, 19):
        rv = residual_degenerate(float(r), 0.0, R.K_REF, sc)
        assert rv.imag_part == 0.0
        assert rv.region_flag is False


def test_degenerate_gapped_slice_imag_is_three_half_pi(electron_degenerate_scales):
    # outside the resonance circle on the undamped axis the arctangent sits
    # at pi and the step contributes another pi/2-free full pi
    sc = electron_degenerate_scales
    for r in (1.2, 1.7, 2.1):
        rv = residual_degenerate(r, 0.0, R.K_REF, sc)
        assert rv.imag_part == 1.5 * math.pi
        assert rv.region_flag is True


def test_degenerate_input_validation(electron_degenerate_scales):
    sc = electron_degenerate_scales
    with pytest.raises(ValueError):
        residual_degenerate(0.0, 0.0, R.K_REF, sc)
    with pytest.raises(ValueError):
        residual_degenerate(-0.5, 0.0, R.K_REF, sc)
    with pytest.raises(SingularInput):
        residual_degenerate(1.0, 0.0, R.K_REF, sc)


def test_degenerate_continuous_across_arctangent_midplane(electron_degenerate_scales):
    # 1 + eps^2 - r^2 changes sign at r = sqrt(1.01) for eps = 0.1; the
    # two-argument arctangent passes through pi/2 without a branch jump
    sc = electron_degenerate_scales
    below = residual_degenerate(math.sqrt(1.01) * (1 - 1e-9), 0.1, R.K_REF, sc)
    above = residual_degenerate(math.sqrt(1.01) * (1 + 1e-9), 0.1, R.K_REF, sc)
    assert rel(below.real_part, above.real_part) < 1e-6
    assert rel(below.imag_part, above.imag_part) < 1e-6


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
        zq = residual_quadrature(R.K_REF, complex(0.0, omega), sp, None, sc)
        rv = residual_degenerate(r, 0.0, R.K_REF, sc)
        assert zq.imag == 0.0
        assert abs(zq.real - rv.real_part) < 1e-7


def test_quadrature_matches_printed_on_gapped_slice(
    electron_degenerate, electron_degenerate_scales
):
    sp, sc = electron_degenerate, electron_degenerate_scales
    for r in (1.2, 1.7, 2.1):
        omega = 0.9 * sc.omega_p / r  # k fixed at 0.9 K_ref through r = k v/omega
        k = 0.9 * sc.omega_p / sc.v_ch
        omega = k * sc.v_ch / r
        zq = residual_quadrature(k, complex(0.0, omega), sp, None, sc)
        zd = complexified(r, 0.0, k, sc)
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
        zq = residual_quadrature(k, s, sp, None, sc)
        zd = complexified(r, eps, k, sc)
        assert abs(zq - zd) / abs(zd) < 1e-9, (r, eps, k / R.K_REF)
        count += 1


def test_quadrature_continuous_across_far_pole_switch(
    electron_degenerate, electron_degenerate_scales
):
    # the far-pole series takes over at |pole| = 2 (r = 0.5 on the undamped
    # axis); both sides must land on the printed form
    sp, sc = electron_degenerate, electron_degenerate_scales
    for r in (0.5 - 1e-5, 0.5 + 1e-5):
        omega = R.K_REF * sc.v_ch / r
        zq = residual_quadrature(R.K_REF, complex(0.0, omega), sp, None, sc)
        zd = complexified(r, 0.0, R.K_REF, sc)
        assert abs(zq - zd) / abs(zd) < 1e-9


def test_quadrature_real_on_positive_real_axis(
    electron_degenerate, electron_degenerate_scales, weak_fermion,
    weak_fermion_scales
):
    # real integrand against an imaginary pole offset: the odd part of the
    # kernel integrates to zero, leaving only panel-summation roundoff
    sp, sc = electron_degenerate, electron_degenerate_scales
    z = residual_quadrature(R.K_REF, complex(0.4 * sc.omega_p, 0.0), sp, None, sc)
    assert abs(z.imag) < 5e-15 * abs(z.real)
    wsc = weak_fermion_scales
    k = 0.35 * wsc.omega_p / math.sqrt(wsc.v_th_sq)
    z = residual_quadrature(k, complex(0.4 * wsc.omega_p, 0.0), weak_fermion,
                            wsc.alpha, wsc)
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
    """The series residual counts the occupation-pole contribution with the
    opposite sign from the contour route, and the mismatch has a closed form:
    residual_weak + residual_quadrature equals the pole term exactly.  This
    pins both routes at once; the solver-facing consequence (series damping
    roughly 3x the contour damping at moderate k) is documented behavior.
    The gases run from the Maxwellian limit to a Bose gas at fugacity 0.99."""
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    vth = math.sqrt(sc.v_th_sq)
    for y, om_frac, eta_frac in ((0.375, 1.07, -5e-4), (0.3, 1.05, 0.02), (0.42, 1.1, -0.01)):
        k = y * sc.omega_p / vth
        s = complex(eta_frac * sc.omega_p, om_frac * sc.omega_p)
        rw = residual_weak(k, s, sp, sc.alpha, sc)
        rq = residual_quadrature(k, s, sp, sc.alpha, sc)
        pred = _pole_term(k, s, sp, sc.alpha, sc)
        scale = max(1.0, abs(rw), abs(rq), abs(pred))
        assert abs(rw + rq - pred) < 1e-12 * scale


def test_quadrature_near_condensation_against_references():
    """Bose gas at fugacity 0.999, where the fugacity series runs out of
    terms and the contour route is the only exact one.  The occupation poles
    sit 0.004 W from the real axis; the wall budget catches a rule that
    refines around them without bound."""
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_0999, statistics=Statistics.BOSE)
    sc = derive_scales(sp)
    assert abs(sc.alpha - 0.999) < 1e-9
    start = time.perf_counter()
    for (k, s), want in R.BOSE_0999_RESIDUALS.items():
        got = residual_quadrature(k, s, sp, 0.999, sc)
        assert abs(got - want) < 1e-12 * abs(want)
    assert time.perf_counter() - start < 3.0


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
        z = residual_quadrature(k, complex(eta_frac, om_frac) * sc.omega_p, sp, alpha, sc)
    except DisperseError:
        return
    assert cmath.isfinite(z)


def _weak_fixed_sum(k, s, species, alpha, scales, n_terms=1024):
    """residual_weak with its fugacity series summed over a fixed n_terms."""
    beta = species.mass / (2.0 * K_B * species.temperature)
    theta = math.sqrt(beta) * s / k
    fermi = species.statistics is Statistics.FERMI
    j = np.arange(1, n_terms + 1, dtype=float)
    coef = alpha**j / np.sqrt(j)
    if fermi:
        coef = coef * np.where(j % 2.0 == 1.0, 1.0, -1.0)
    total = np.sum(coef * (scaled_erfc(np.sqrt(j) * theta) - 1.0))
    t = alpha * cmath.exp(theta * theta)
    pole = 2.0 * math.sqrt(math.pi) * theta * t / (1.0 + t if fermi else 1.0 - t)
    norm = (2.0 / 3.0) * scales.v_ch**3
    return (coefficient_C1(k, scales) / k**2) * math.sqrt(math.pi / beta) * (total + pole) / norm - 1.0


@pytest.mark.parametrize("statistics", [Statistics.FERMI, Statistics.BOSE])
@pytest.mark.parametrize("temperature, alpha", [
    (R.T_FERMI_02, 0.2), (R.T_FERMI_02, 0.9), (R.T_CLASSICAL, 1e-6)])
def test_weak_series_truncation_matches_fixed_sum(statistics, temperature, alpha):
    # residual_weak sizes its blocks from alpha; a 1024-term sum leaves a
    # tail below 0.9^1024 ~ 1e-47.  The fugacity is an argument of
    # residual_weak, so one temperature serves several alphas.
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    vth = math.sqrt(sc.v_th_sq)
    for y, s_frac in ((0.2, 1.08j), (0.35, -0.05 + 1.05j), (0.45, -0.3 + 0.9j)):
        k = y * sc.omega_p / vth
        s = s_frac * sc.omega_p
        got = residual_weak(k, s, sp, alpha, sc)
        want = _weak_fixed_sum(k, s, sp, alpha, sc)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_weak_and_quadrature_conjugate_symmetry(weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    vth = math.sqrt(sc.v_th_sq)
    k = 0.35 * sc.omega_p / vth
    s = complex(-3e-4 * sc.omega_p, 1.06 * sc.omega_p)
    for fn in (residual_weak, residual_quadrature):
        plus = fn(k, s, sp, sc.alpha, sc)
        minus = fn(k, s.conjugate(), sp, sc.alpha, sc)
        assert abs(minus - plus.conjugate()) < 1e-12 * abs(plus)


def test_weak_overflow_guard_stays_finite(weak_fermion, weak_fermion_scales):
    # theta = 40 on the real axis: exp(theta^2) alone overflows, the
    # assembled residual must not
    sp, sc = weak_fermion, weak_fermion_scales
    beta = sp.mass / (2.0 * K_B * sp.temperature)
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    s = complex(40.0 * k / math.sqrt(beta), 0.0)
    z = residual_weak(k, s, sp, sc.alpha, sc)
    assert np.isfinite(z.real) and np.isfinite(z.imag)


def test_quadrature_overflow_guard_counts_the_fugacity(weak_boson, weak_boson_scales):
    # beta p^2 ~ 698 at alpha = 1e-6: exp(beta p^2) alone is finite, but the
    # occupation denominator (1/alpha) exp(beta p^2) overflows, and the slope
    # at the pole must come out ~0, not NaN
    sp, sc = weak_boson, weak_boson_scales
    k = 0.05 * sc.omega_p / math.sqrt(sc.v_th_sq)
    z = residual_quadrature(k, complex(0.02, 1.1) * sc.omega_p, sp, 1e-6, sc)
    assert cmath.isfinite(z)


def test_weak_divergent_series_fails_fast(monkeypatch, weak_fermion, weak_fermion_scales):
    # s = (-3 + i) omega_p at k v_th / omega_p = 0.4: alpha exp(Re theta^2)
    # far above 1, so the first block already overflows; the series must give
    # up there instead of running on to its term budget
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.4 * sc.omega_p / math.sqrt(sc.v_th_sq)
    calls = []

    def counted(z):
        calls.append(len(z))
        return scaled_erfc(z)

    monkeypatch.setattr(dispersion_core, "scaled_erfc", counted)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonConvergent, match="diverges"):
            residual_weak(k, complex(-3.0, 1.0) * sc.omega_p, sp, sc.alpha, sc)
    assert len(calls) == 1


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
        assert omega_quantum_langmuir(k, sc, bohm_term=False) == sc.omega_p


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
    rv = residual_degenerate(r, 0.0, k, sc)
    assert abs(rv.real_part) < 1e-3
    assert rv.imag_part == 0.0


def test_zero_sound_neutral_needs_restoring_force(neutral_degenerate_scales):
    with pytest.raises(ValueError, match="restoring"):
        omega_zero_sound(1e9, neutral_degenerate_scales, bohm_term=False)


def test_weak_biquadratic_solves_its_polynomial(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    for y in (0.1, 0.3, 0.6):
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
        om2 = omega_weak_biquadratic(k, weak_fermion, sc) ** 2
        c1 = coefficient_C1(k, sc)
        poly = om2 * om2 - c1 * om2 - c1 * k * k * sc.v_th_sq
        assert abs(poly) < 1e-9 * c1 * c1


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
