"""Statistics layer: scales, occupation sums, special functions, distributions.

Frozen literals live in _refs; anything asserted against them was derived by
an independent route (closed forms, 40-digit arithmetic, or tightened
rehearsal runs) before the tolerances were set.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _refs as R
from disperse import DisperseError, SpeciesParams, Statistics, derive_scales, dominant_root
from disperse import quantum_stats
from disperse.errors import DegeneracyOutOfRange, NonConvergent
from disperse.quantum_stats import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    EPS0,
    HBAR,
    K_B,
    PLANCK_H,
    characteristic_velocity,
    degeneracy_parameter,
    fugacity_from_density,
    plasma_frequency,
    reduced_fz,
    reduced_fz_derivative,
    scaled_erfc,
    thermal_velocity_sq,
    zeta_pm,
)


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# constants and derived scales
# ---------------------------------------------------------------------------

def test_codata_spot_values():
    assert ELECTRON_MASS == 9.1093837015e-31
    assert ELEMENTARY_CHARGE == 1.602176634e-19
    assert K_B == 1.380649e-23
    assert HBAR == 1.054571817e-34
    assert PLANCK_H == 6.62607015e-34
    assert EPS0 == 8.8541878128e-12


def test_plasma_frequency_frozen(electron_degenerate):
    assert rel(plasma_frequency(electron_degenerate), R.OMEGA_P) < 1e-14


def test_plasma_frequency_neutral_is_zero(neutral_degenerate):
    assert plasma_frequency(neutral_degenerate) == 0.0


def test_characteristic_velocity_frozen(electron_degenerate):
    assert rel(characteristic_velocity(electron_degenerate), R.V_F) < 1e-14


def test_characteristic_velocity_same_for_both_statistics(weak_fermion, weak_boson):
    # density-only scale: temperature and statistics must not enter
    assert characteristic_velocity(weak_fermion) == characteristic_velocity(weak_boson)


def test_degeneracy_parameter_hits_frozen_targets(weak_fermion, weak_boson):
    # the reference temperatures were built to satisfy these identities
    assert rel(degeneracy_parameter(weak_fermion), R.FERMI_Z32_02) < 1e-12
    assert rel(degeneracy_parameter(weak_boson), R.BOSE_Z32_02) < 1e-12


def test_degeneracy_parameter_requires_positive_temperature(electron_degenerate):
    with pytest.raises(ValueError):
        degeneracy_parameter(electron_degenerate)


def test_derive_scales_degenerate_branch(electron_degenerate):
    sc = derive_scales(electron_degenerate)
    assert sc.alpha is None
    assert sc.v_th_sq == 0.0
    assert sc.lambda_quantum == HBAR**2 / (4.0 * R.M_E**2)
    assert rel(sc.omega_p, R.OMEGA_P) < 1e-14
    assert rel(sc.v_ch, R.V_F) < 1e-14


def test_derive_scales_thermal_branch(weak_fermion):
    sc = derive_scales(weak_fermion)
    assert rel(sc.alpha, 0.2) < 1e-10
    assert rel(sc.v_th_sq, R.VTH2_FERMI_02) < 1e-12


# ---------------------------------------------------------------------------
# species validation
# ---------------------------------------------------------------------------

def test_species_rejects_bad_inputs():
    good = dict(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                temperature=300.0, statistics=Statistics.FERMI)
    with pytest.raises(ValueError):
        SpeciesParams(**{**good, "mass": 0.0})
    with pytest.raises(ValueError):
        SpeciesParams(**{**good, "density": -1.0})
    with pytest.raises(ValueError):
        SpeciesParams(**{**good, "spin_degeneracy": 0})
    with pytest.raises(ValueError):
        SpeciesParams(**{**good, "temperature": -1.0})
    with pytest.raises(ValueError):
        SpeciesParams(**{**good, "statistics": "fermi"})


@pytest.mark.parametrize("field, value", [
    ("mass", math.inf), ("mass", math.nan),
    ("charge", math.nan), ("charge", math.inf), ("charge", -math.inf),
    ("density", math.inf), ("density", math.nan),
    ("temperature", math.nan), ("temperature", math.inf),
    ("spin_degeneracy", 2.0), ("spin_degeneracy", 1.5),
])
def test_species_rejects_non_finite_and_non_integer_fields(field, value):
    # left through, these give a NaN or zero omega_p, a NaN fugacity target
    # or a float degeneracy further down; the message names the field
    good = dict(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                temperature=300.0, statistics=Statistics.FERMI)
    with pytest.raises(ValueError, match=field):
        SpeciesParams(**{**good, field: value})


def test_species_zero_temperature_rules():
    deg = SpeciesParams(mass=R.M_E, charge=0.0, spin_degeneracy=2, density=R.N0,
                        temperature=0.0, statistics=Statistics.FERMI)
    assert deg.fully_degenerate  # forced by T = 0
    with pytest.raises(ValueError, match="only for fermions"):
        SpeciesParams(mass=R.M_E, charge=0.0, spin_degeneracy=2, density=R.N0,
                      temperature=0.0, statistics=Statistics.BOSE)
    warm = SpeciesParams(mass=R.M_E, charge=0.0, spin_degeneracy=2, density=R.N0,
                         temperature=300.0, statistics=Statistics.FERMI)
    assert not warm.fully_degenerate  # read from the temperature, not set
    with pytest.raises(TypeError):
        SpeciesParams(mass=R.M_E, charge=0.0, spin_degeneracy=2, density=R.N0,
                      temperature=300.0, statistics=Statistics.FERMI,
                      fully_degenerate=True)


# ---------------------------------------------------------------------------
# occupation sums
# ---------------------------------------------------------------------------

def test_zeta_closed_forms_at_alpha_one():
    assert zeta_pm(1.5, 0.0, Statistics.BOSE) == 0.0
    assert abs(zeta_pm(1.5, 1.0, Statistics.BOSE) - R.ZETA_32) < 1e-9
    assert abs(zeta_pm(2.5, 1.0, Statistics.BOSE) - R.ZETA_52) < 1e-9
    assert abs(zeta_pm(1.0, 1.0, Statistics.FERMI) - R.LN_2) < 1e-12
    assert abs(zeta_pm(1.5, 1.0, Statistics.FERMI) - R.FERMI_32_AT_1) < 1e-12


def test_zeta_frozen_polylogs_at_fugacity_02():
    assert rel(zeta_pm(1.5, 0.2, Statistics.FERMI), R.FERMI_Z32_02) < 1e-13
    assert rel(zeta_pm(2.5, 0.2, Statistics.FERMI), R.FERMI_Z52_02) < 1e-13
    assert rel(zeta_pm(1.5, 0.2, Statistics.BOSE), R.BOSE_Z32_02) < 1e-13
    assert rel(zeta_pm(2.5, 0.2, Statistics.BOSE), R.BOSE_Z52_02) < 1e-13


def test_zeta_matches_high_precision_polylog():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    # from 0.96 on the sums come from the expansion about alpha = 1
    for order in (1.5, 2.5):
        for alpha in (0.05, 0.3, 0.7, 0.95, 0.96, 0.999, 1.0 - 1e-6, 1.0 - 1e-12):
            bose_ref = float(mp.polylog(order, alpha))
            # polylog of a negative argument comes back as mpc with a zero
            # imaginary part; keep the real part
            fermi_ref = float(mp.re(-mp.polylog(order, -alpha)))
            assert rel(zeta_pm(order, alpha, Statistics.BOSE), bose_ref) < 1e-12
            assert rel(zeta_pm(order, alpha, Statistics.FERMI), fermi_ref) < 1e-12


def uncached_bose_near_one(order, mu):
    """Robinson's expansion as it read before its zetas were cached: each
    call evaluates the ten Euler-Maclaurin zetas afresh."""
    total = math.gamma(1.0 - order) * mu ** (order - 1.0)
    term = 1.0
    for k in range(10):
        total += quantum_stats._zeta_euler_maclaurin(order - k) * term
        term *= -mu / (k + 1)
    return total


def test_zeta_near_one_cache_is_bitwise(monkeypatch):
    # the cached zetas are the same floats, summed in the same order; 0.951
    # sits just past -ln alpha = 0.05, on the plain series
    orders = np.arange(1.5, 40.0)
    alphas = np.linspace(0.951, 0.999, 25)
    cases = [(float(o), float(a), s) for o in orders for a in alphas for s in Statistics]
    cached = [zeta_pm(*case) for case in cases]
    monkeypatch.setattr(quantum_stats, "_bose_near_one", uncached_bose_near_one)
    assert cached == [zeta_pm(*case) for case in cases]


def test_zeta_boson_divergence_and_validation():
    with pytest.raises(NonConvergent, match="diverges"):
        zeta_pm(1.0, 1.0, Statistics.BOSE)
    with pytest.raises(ValueError):
        zeta_pm(0.5, 0.3, Statistics.BOSE)
    with pytest.raises(ValueError):
        zeta_pm(1.5, 1.2, Statistics.BOSE)
    with pytest.raises(ValueError):
        zeta_pm(1.5, -0.1, Statistics.FERMI)


@given(
    order=st.floats(min_value=1.0, max_value=3.0),
    alpha=st.floats(min_value=0.01, max_value=0.97),
    bump=st.floats(min_value=0.01, max_value=0.02),
)
def test_zeta_monotone_in_alpha_and_fermi_below_bose(order, alpha, bump):
    lo = zeta_pm(order, alpha, Statistics.BOSE)
    hi = zeta_pm(order, alpha + bump, Statistics.BOSE)
    assert hi > lo
    lo_f = zeta_pm(order, alpha, Statistics.FERMI)
    hi_f = zeta_pm(order, alpha + bump, Statistics.FERMI)
    assert hi_f > lo_f
    assert lo_f < lo  # alternating sum sits below the all-positive one


# ---------------------------------------------------------------------------
# fugacity inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("temperature,target,stats", [
    (R.T_FERMI_02, 0.2, Statistics.FERMI),
    (R.T_FERMI_09, 0.9, Statistics.FERMI),
    (R.T_BOSE_01, 0.1, Statistics.BOSE),
    (R.T_BOSE_02, 0.2, Statistics.BOSE),
    (R.T_BOSE_05, 0.5, Statistics.BOSE),
    (R.T_BOSE_09, 0.9, Statistics.BOSE),
])
def test_fugacity_round_trips(temperature, target, stats):
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2,
                       density=R.N0, temperature=temperature, statistics=stats)
    assert rel(fugacity_from_density(sp), target) < 1e-10


def _boundary_temperature(mass, density, spin, statistics):
    """Temperature at which the degeneracy target reaches the fugacity-1
    value of the 3/2 sum: T_c for bosons, the Fermi-series bound otherwise."""
    bound = R.ZETA_32 if statistics is Statistics.BOSE else R.FERMI_32_AT_1
    return PLANCK_H**2 / (2.0 * math.pi * mass * K_B) * (density / (spin * bound)) ** (2.0 / 3.0)


@pytest.mark.parametrize("statistics, excess", [
    (Statistics.BOSE, 5e-4), (Statistics.BOSE, 1e-6), (Statistics.FERMI, 1e-7),
])
def test_fugacity_just_inside_the_boundary(statistics, excess):
    # the series needs ~1e6-1e13 terms at these fugacities
    t_edge = _boundary_temperature(R.M_E, R.N0, 2, statistics)
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=t_edge * (1.0 + excess), statistics=statistics)
    target = degeneracy_parameter(sp)
    sc = derive_scales(sp)
    assert 0.99 < sc.alpha < 1.0
    assert abs(zeta_pm(1.5, sc.alpha, statistics) - target) <= 1e-10 * target


@settings(max_examples=60, derandomize=True)
@given(
    statistics=st.sampled_from(Statistics),
    log_mass=st.floats(-31.0, -25.0),
    charge=st.sampled_from([0.0, -R.Q_E, R.Q_E, 2.0 * R.Q_E]),
    spin=st.integers(1, 4),
    log_density=st.floats(10.0, 32.0),
    # half the draws within 1e-3 of the boundary, where the series ran out
    log_excess=st.floats(-6.0, -3.0) | st.floats(-3.0, 4.0),
    below=st.sampled_from([False, False, False, True]),
    y=st.floats(0.05, 1.0),
)
def test_derive_scales_resolves_or_refuses_near_the_boundary(statistics, log_mass, charge, spin,
                                                             log_density, log_excess, below, y):
    # temperatures from 1e-6 to 1e4 relative above (or below) the boundary
    # temperature; never NonConvergent, and the solved fugacity meets its target
    mass, density = 10.0**log_mass, 10.0**log_density
    excess = 10.0**log_excess
    factor = 1.0 / (1.0 + excess) if below else 1.0 + excess
    try:
        sp = SpeciesParams(mass=mass, charge=charge, spin_degeneracy=spin, density=density,
                           temperature=_boundary_temperature(mass, density, spin, statistics) * factor,
                           statistics=statistics)
        sc = derive_scales(sp)
    except (DegeneracyOutOfRange, ValueError):
        return
    assert all(math.isfinite(v) for v in (sc.omega_p, sc.v_ch, sc.alpha, sc.v_th_sq, sc.lambda_quantum))
    target = degeneracy_parameter(sp)
    assert abs(zeta_pm(1.5, sc.alpha, statistics) - target) <= 1e-10 * target
    if charge != 0.0:
        k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    else:
        k = y * math.sqrt(sc.v_th_sq / sc.lambda_quantum)
    try:
        res = dominant_root(k, sp, sc)
    except DisperseError:
        return
    assert math.isfinite(res.rate.omega) and math.isfinite(res.rate.eta)


def test_fermion_too_degenerate_message():
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2,
                       density=R.N0, temperature=5000.0, statistics=Statistics.FERMI)
    with pytest.raises(DegeneracyOutOfRange) as err:
        fugacity_from_density(sp)
    assert "0.765147" in str(err.value)
    assert "fully degenerate" in str(err.value)


def test_boson_condensation_message():
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2,
                       density=R.N0, temperature=5000.0, statistics=Statistics.BOSE)
    with pytest.raises(DegeneracyOutOfRange) as err:
        fugacity_from_density(sp)
    assert "condens" in str(err.value)
    assert "2.612375" in str(err.value)


def test_boson_at_condensation_is_refused_naming_the_temperature():
    # within 1e-8 of the boundary the fugacity is not resolvable in double
    # precision, so the gas is refused where its scales are derived instead
    # of handing alpha = 1 to routes that cannot take it
    t = _boundary_temperature(R.M_E, R.N0, 2, Statistics.BOSE) * (1.0 + 1e-10)
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=t, statistics=Statistics.BOSE)
    with pytest.raises(DegeneracyOutOfRange, match="condens") as err:
        derive_scales(sp)
    assert f"T = {t:.9g} K" in str(err.value)


# ---------------------------------------------------------------------------
# thermal speed
# ---------------------------------------------------------------------------

def test_thermal_velocity_sq_frozen(weak_fermion, weak_boson):
    assert rel(thermal_velocity_sq(weak_fermion, 0.2), R.VTH2_FERMI_02) < 1e-12
    assert rel(thermal_velocity_sq(weak_boson, 0.2), R.VTH2_BOSE_02) < 1e-12


def test_thermal_velocity_sq_classical_limit(classical_electron):
    alpha = fugacity_from_density(classical_electron)
    got = thermal_velocity_sq(classical_electron, alpha)
    assert rel(got, 3.0 * K_B * R.T_CLASSICAL / R.M_E) < 1e-6


def test_thermal_velocity_sq_validation(weak_fermion, electron_degenerate):
    with pytest.raises(ValueError):
        thermal_velocity_sq(weak_fermion, 0.0)
    with pytest.raises(ValueError):
        thermal_velocity_sq(electron_degenerate, 0.5)


# ---------------------------------------------------------------------------
# scaled complementary error function
# ---------------------------------------------------------------------------

def test_scaled_erfc_real_axis_frozen():
    assert rel(scaled_erfc(0.5), R.G_HALF) < 1e-13
    assert rel(scaled_erfc(10.0), R.G_TEN) < 1e-13


def test_scaled_erfc_complex_frozen_points():
    for z, ref in R.G_COMPLEX.items():
        assert abs(scaled_erfc(z) - ref) / abs(ref) < 1e-13


def test_scaled_erfc_asymptotic_bound_on_real_axis():
    # |G - (1 - 1/(2 z^2) + 3/(4 z^4))| <= 8 / z^6 for real z >= 5; the grid
    # straddles the |z| = 6 switch between the rational fit and the series
    z = np.linspace(5.0, 50.0, 91)
    got = scaled_erfc(z).real
    approx = 1.0 - 1.0 / (2.0 * z * z) + 3.0 / (4.0 * z**4)
    assert np.all(np.abs(got - approx) <= 8.0 / z**6)


def test_scaled_erfc_conjugate_symmetry():
    pts = np.array([0.3 + 0.7j, -1.2 + 2.5j, 5.9 + 0.3j, 6.2 - 1.0j, -4.0 - 9.0j])
    left = scaled_erfc(np.conj(pts))
    right = np.conj(scaled_erfc(pts))
    assert np.all(np.abs(left - right) <= 1e-15 * np.abs(right))


def test_scaled_erfc_shapes_and_types():
    assert isinstance(scaled_erfc(0.5), complex)
    z = np.array([[0.5, 10.0], [1.0 + 1.0j, 5.0j]])
    out = scaled_erfc(z)
    assert out.shape == (2, 2)
    assert out[0, 0] == scaled_erfc(0.5)
    assert out[1, 1] == scaled_erfc(5.0j)


def test_scaled_erfc_batch_independent():
    # the large-|z| branch sizes its series from the smallest |z| of a
    # batch; every element must still get its own value.  Left half-plane
    # angles keep Re(z^2) <= 0, so the reflection term stays finite.
    radii = np.geomspace(6.01, 50.0, 40)
    angles = np.array([0.1, 0.7, 1.3, -0.4, -1.0, -1.5, 1.7, 2.2, -1.8, -2.3])
    z = radii * np.exp(1j * np.resize(angles, radii.size))
    batch = scaled_erfc(z)
    single = np.array([scaled_erfc(complex(v)) for v in z])
    assert np.all(np.abs(batch - single) <= 1e-15 * np.abs(single))


@pytest.mark.parametrize("size", [1, 2, 3, 64, 300])
def test_scaled_erfc_rational_fit_batch_independent_bitwise(size):
    # |z| <= 6 in both half-planes goes through the rational fit, which
    # builds a row of powers per element; each element's bits must not
    # depend on the batch around it
    rng = np.random.default_rng(size)
    z = 6.0 * np.sqrt(rng.random(size)) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))
    batch = scaled_erfc(z)
    single = np.array([scaled_erfc(complex(v)) for v in z])
    assert np.array_equal(batch, single)


def test_scaled_erfc_rational_fit_matches_horner():
    # the fit's polynomial is summed from a row of powers; Horner's rule on
    # the same coefficients is the reference, to a few ulp of G
    rng = np.random.default_rng(1994)
    z = 6.0 * np.sqrt(rng.random(4000)) * np.exp(1j * rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 4000))
    big_l = quantum_stats._WEIDEMAN_L
    d = big_l + z
    poly = np.polyval(quantum_stats._WEIDEMAN_COEFS, (big_l - z) / d)
    want = math.sqrt(math.pi) * z * (2.0 * poly / (d * d) + (1.0 / math.sqrt(math.pi)) / d)
    assert np.all(np.abs(scaled_erfc(z) - want) <= 2e-15 * np.abs(want))


def test_scaled_erfc_just_past_series_switch_matches_mpmath():
    # 6 < |z| < 6.6 is where the asymptotic series has its largest smallest
    # term.  Only Re z >= 0: the left half-plane reads these values back
    # through the reflection formula.
    mp = pytest.importorskip("mpmath")
    radii = np.linspace(6.001, 6.599, 5)
    angles = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 73)
    z = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    got = scaled_erfc(z)
    with mp.workdps(30):
        want = np.array([complex(mp.sqrt(mp.pi) * mp.mpc(v) * mp.exp(mp.mpc(v) ** 2)
                                 * mp.erfc(mp.mpc(v))) for v in z])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("size", [1, 3, 40])
def test_scaled_erfc_disc_batch_skips_only_the_masks(size):
    # a 1-D batch on Re z >= 0 with |z| <= 6 returns the rational fit
    # directly; the same values inside a mixed batch, which takes the masked
    # path, come out bit for bit the same
    rng = np.random.default_rng(size)
    z = 6.0 * np.sqrt(rng.random(size)) * np.exp(0.5j * rng.uniform(-np.pi, np.pi, size))
    z[0] = 6.0
    mixed = np.concatenate([z, [-1.0 + 0.5j, 7.0 - 2.0j]])
    assert np.array_equal(scaled_erfc(z), scaled_erfc(mixed)[:size])
    assert np.array_equal(scaled_erfc(z), quantum_stats._g_rational(z))


def _scaled_erfc_masked(z):
    # scaled_erfc's masked path, taken for every input, disc or not
    arr = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(arr).ravel()
    refl = flat.real < 0.0
    small = np.abs(flat) <= 6.0
    zp = np.where(refl, -flat, flat)
    out = np.empty_like(zp)
    if small.any():
        out[small] = quantum_stats._g_rational(zp[small])
    if not small.all():
        out[~small] = quantum_stats._g_asymptotic(zp[~small])
    if refl.any():
        zr = flat[refl]
        out[refl] = out[refl] + 2.0 * math.sqrt(math.pi) * zr * np.exp(zr * zr)
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@pytest.mark.parametrize("z", [
    np.array([-0.0, 1.0 + 1.0j]), np.array([complex(-0.0, -0.0), complex(0.0, -6.0)]),
    np.array([6.0, 6.0j, -6.0j]), np.array([math.nextafter(6.0, 7.0), 1.0]), np.array([-1e-300, 1.0]),
    np.array([math.nan, 1.0]), np.array([complex(1.0, math.nan)]), np.array([complex(math.nan, 0.0)]),
    np.array([math.inf, 1.0]), np.array([complex(0.0, math.inf)]), np.array([-math.inf]),
    np.array([], dtype=complex), np.array(0.5 + 0.5j), np.array(-0.0), 0.5, -0.0,
    np.array([[0.5, 1.0j], [2.0, 3.0 - 1.0j]]), np.zeros((0, 3)), [0.5, 6.0], np.arange(6.0)[::2],
], ids=repr)
def test_scaled_erfc_disc_check_matches_the_masked_path(z):
    # the disc check before any mask is built sends -0.0, |z| = 6.0 and a
    # clean 1-D disc to the rational fit and everything else (NaN, inf,
    # Re z < 0, empty, 0-d, 2-D) to the masked path: bits, shape and type
    # as if every input took the masked path
    with np.errstate(all="ignore"):
        got, want = scaled_erfc(z), _scaled_erfc_masked(z)
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert got.tobytes() == want.tobytes()


def _asymptotic_order_loop(r2):
    # the cut term by term: the smallest term, or the first term below
    # 1e-17, whichever comes first
    term = 1.0
    for k in range(1, len(quantum_stats._ASYM_COEFS)):
        ratio = (2.0 * k - 1.0) / (2.0 * r2)
        if ratio >= 1.0:
            return k - 1
        term *= ratio
        if term < 1e-17:
            return k
    return len(quantum_stats._ASYM_COEFS) - 1


def test_asymptotic_order_table_matches_the_term_by_term_loop():
    grid = np.concatenate([np.linspace(36.0, 100.0, 20001), np.geomspace(100.0, 1e4, 20001)])
    assert all(quantum_stats._asymptotic_order(r2) == _asymptotic_order_loop(r2) for r2 in grid.tolist())
    for b in quantum_stats._ORDER_BREAKS:
        for r2 in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)):
            assert quantum_stats._asymptotic_order(float(r2)) == _asymptotic_order_loop(float(r2))
        # each entry is where the cut moves, to the last double
        assert _asymptotic_order_loop(float(np.nextafter(b, 0.0))) != _asymptotic_order_loop(b)
    assert quantum_stats._asymptotic_order(1e300) == _asymptotic_order_loop(1e300) == 1


# ---------------------------------------------------------------------------
# reduced 1d distributions
# ---------------------------------------------------------------------------

def test_reduced_fz_normalization(weak_fermion, weak_boson):
    for sp, vth2 in ((weak_fermion, R.VTH2_FERMI_02), (weak_boson, R.VTH2_BOSE_02)):
        vth = math.sqrt(vth2)
        w = np.linspace(-10.0 * vth, 10.0 * vth, 20001)
        total = np.trapezoid(reduced_fz(w, sp, 0.2), w)
        assert rel(total, R.N0) < 1e-9


def test_reduced_fz_derivative_antisymmetric_bitwise(weak_fermion):
    vth = math.sqrt(R.VTH2_FERMI_02)
    w = np.linspace(0.1 * vth, 5.0 * vth, 500)
    plus = reduced_fz_derivative(w, weak_fermion, 0.2)
    minus = reduced_fz_derivative(-w, weak_fermion, 0.2)
    assert np.array_equal(minus, -plus)
    assert reduced_fz_derivative(0.0, weak_fermion, 0.2) == 0.0


def test_reduced_fz_validation(weak_fermion, electron_degenerate):
    with pytest.raises(ValueError):
        reduced_fz(0.0, weak_fermion, 1.0)
    with pytest.raises(ValueError):
        reduced_fz(0.0, electron_degenerate, 0.5)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("alpha", [0.2, 0.9, 0.999])
def test_reduced_fz_matches_polylog_reference(weak_fermion, weak_boson, statistics, alpha):
    # reference: -+(pi a_w / beta) Li_1(-+x) and -2 pi a_w w (-+Li_0(-+x)),
    # x = alpha exp(-beta w^2), in 40-digit arithmetic from the same doubles
    mp = pytest.importorskip("mpmath")
    sp = weak_fermion if statistics is Statistics.FERMI else weak_boson
    beta = sp.mass / (2.0 * K_B * sp.temperature)
    a_w = sp.spin_degeneracy * sp.mass**3 / PLANCK_H**3
    sign = 1 if statistics is Statistics.FERMI else -1
    w = np.linspace(-5.0, 5.0, 41) / math.sqrt(beta)
    got_f = reduced_fz(w, sp, alpha)
    got_d = reduced_fz_derivative(w, sp, alpha)
    with mp.workdps(40):
        for wi, f, d in zip(w, got_f, got_d):
            x = mp.mpf(alpha) * mp.exp(-mp.mpf(beta) * mp.mpf(wi) ** 2)
            want_f = -sign * mp.pi * mp.mpf(a_w) / mp.mpf(beta) * mp.polylog(1, -sign * x)
            want_d = 2 * sign * mp.pi * mp.mpf(a_w) * mp.mpf(wi) * mp.polylog(0, -sign * x)
            assert abs(f - want_f) <= 1e-14 * abs(want_f)
            assert abs(d - want_d) <= 1e-14 * abs(want_d)
