"""Time-domain oracle: integration invariants, fit quality, cross-checks.

The oracle never sees the residual functions: it integrates the linearized
kinetic equation for one Fourier mode and fits a damped exponential to the
density trace.  Agreement with the frequency-domain roots is therefore a
genuine two-route check, and the tests here freeze the rehearsed margins.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _refs as R
from disperse import (
    BranchId,
    DisperseError,
    FitAmbiguous,
    GridResonanceUnderresolved,
    NumericalBlowup,
    OracleConfig,
    SpeciesParams,
    Statistics,
    derive_scales,
    evolve_mode,
    first_point_seeds,
    solve_at_k,
)
from disperse import kinetic_oracle
from disperse.kinetic_oracle import InitShape, OracleRun, fit_omega_eta
from disperse.quantum_stats import fugacity_from_density


def rel(a, b):
    return abs(a - b) / abs(b)


def converged_root(k, branch, species, scales):
    for seed in first_point_seeds(k, branch, species, scales):
        try:
            res = solve_at_k(k, branch, species, scales, seed)
        except Exception:
            continue
        if res.converged:
            return res
    raise AssertionError(f"no converged root for {branch.name}")


def synthetic_run(omega, eta, n=4096, dt=0.01, real=False):
    t = np.arange(n) * dt
    z = np.exp((eta + 1j * omega) * t)
    if real:
        z = z.real.astype(complex)
    return OracleRun(k=1.0, omega_guess=omega, v=np.zeros(2), times=t,
                     density=z, snapshot=np.zeros(2, dtype=complex))


def plain_rk4(phi, stream, coupling, weights, dt, n_steps):
    """Four-stage RK4 on the oracle's linear system, stage by stage."""
    def rhs(state):
        return stream * state + np.dot(state, weights) * coupling

    density = [np.dot(phi, weights)]
    for _ in range(n_steps):
        k1 = rhs(phi)
        k2 = rhs(phi + 0.5 * dt * k1)
        k3 = rhs(phi + 0.5 * dt * k2)
        k4 = rhs(phi + dt * k3)
        phi = phi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        density.append(np.dot(phi, weights))
    return np.array(density), phi


def rk4_at_quarter_step(phi0, v, k, coupling, weights, h, n_steps):
    """Stand-in for the oracle's Volterra solve: plain RK4 at h/4, sampled
    at the oracle's own times."""
    density, phi = plain_rk4(phi0.astype(complex), -1j * k * v, coupling, weights,
                             h / 4.0, 4 * n_steps)
    return density[::4], phi


# ---------------------------------------------------------------------------
# configuration and input validation
# ---------------------------------------------------------------------------

def test_oracle_config_validation():
    OracleConfig(n_v=256, dt=0.01, t_end=20.0, v_max=3.0)  # fine
    with pytest.raises(ValueError, match="even"):
        OracleConfig(n_v=255)
    with pytest.raises(ValueError, match="even"):
        OracleConfig(n_v=128)
    with pytest.raises(ValueError, match="dt"):
        OracleConfig(dt=0.02)
    with pytest.raises(ValueError, match="dt"):
        OracleConfig(dt=0.0)
    OracleConfig(dt=1e-4, t_end=100.0)  # 10^6 samples: the cap itself
    with pytest.raises(ValueError, match="dt"):
        OracleConfig(dt=1e-9)  # 5e10 samples
    with pytest.raises(ValueError, match="20 periods"):
        OracleConfig(t_end=15.0)
    with pytest.raises(ValueError, match="v_max"):
        OracleConfig(v_max=0.0)


def test_evolve_mode_input_validation(weak_fermion, electron_degenerate):
    with pytest.raises(ValueError, match="nonzero"):
        evolve_mode(0.0, weak_fermion, 0.2)
    with pytest.raises(ValueError, match="fully degenerate"):
        evolve_mode(1e9, weak_fermion, None)
    with pytest.raises(ValueError, match="alpha"):
        evolve_mode(1e9, weak_fermion, 1.2)
    with pytest.raises(ValueError, match="omega_guess"):
        evolve_mode(1e9, weak_fermion, 0.2, omega_guess=-1.0)


def test_resonant_velocity_coverage_guard(electron_degenerate):
    # small k pushes the phase velocity far above the default 1.5 v_F window
    with pytest.raises(ValueError, match="raise v_max"):
        evolve_mode(0.2 * R.K_REF, electron_degenerate, None, OracleConfig())


# ---------------------------------------------------------------------------
# trace fitting on synthetic data
# ---------------------------------------------------------------------------

def test_fit_recovers_complex_mode():
    omega, eta, resid = fit_omega_eta(synthetic_run(7.3, -0.02))
    assert rel(omega, 7.3) < 1e-10
    assert abs(eta + 0.02) < 1e-10
    assert resid < 1e-10


def test_fit_recovers_growing_mode():
    omega, eta, _ = fit_omega_eta(synthetic_run(7.3, 0.015))
    assert rel(omega, 7.3) < 1e-10
    assert abs(eta - 0.015) < 1e-10


def test_fit_splits_real_trace_mirror():
    # a real cosine trace carries the conjugate line; the fit keeps the
    # analytic half and still lands on the underlying mode
    omega, eta, _ = fit_omega_eta(synthetic_run(7.3, -0.02, real=True))
    assert rel(omega, 7.3) < 1e-4
    assert abs(eta + 0.02) < 1e-3


def test_fit_undamped_mode_reads_zero_eta():
    omega, eta, _ = fit_omega_eta(synthetic_run(7.3, 0.0))
    assert abs(eta) < 1e-6 * omega


def test_fit_rejects_two_tone_trace():
    t = np.arange(4096) * 0.01
    z = np.exp(1j * 7.3 * t) + 0.8 * np.exp(1j * 3.1 * t)
    run = OracleRun(k=1.0, omega_guess=7.3, v=np.zeros(2), times=t,
                    density=z, snapshot=np.zeros(2, dtype=complex))
    with pytest.raises(FitAmbiguous, match="second spectral line"):
        fit_omega_eta(run)


def test_fit_trace_length_requirements():
    with pytest.raises(ValueError, match="too short"):
        fit_omega_eta(synthetic_run(7.3, 0.0, n=8))
    with pytest.raises(ValueError, match="periods"):
        fit_omega_eta(synthetic_run(7.3, 0.0, n=1000, dt=0.001))


def smooth_lengths(limit):
    """Every 2^a 3^b 5^c up to limit (at most 2^20), sorted."""
    powers = (2**a * 3**b * 5**c for a in range(21) for b in range(13) for c in range(9))
    return sorted(p for p in powers if p <= limit)


# 4003 - 4003 // 5 = 3203 is prime: the old cut fed the FFT a prime length
PRIME_CUT = 4003


@pytest.mark.parametrize("n_total", [16, 4001, 8001, 10001, 40001, PRIME_CUT])
def test_fit_window_is_largest_smooth_length(n_total):
    cut = n_total - n_total // 5
    kept = kinetic_oracle._smooth_floor(cut)
    smooth = smooth_lengths(cut)
    assert kept == smooth[-1] <= cut  # the largest 5-smooth length in the last 80%
    if n_total > 16:  # 13 samples hold only 12: no 5-smooth length is closer
        assert kept >= 0.97 * cut


def test_smooth_floor_matches_enumeration():
    smooth = smooth_lengths(6000)
    for n in range(1, 5000):
        assert kinetic_oracle._smooth_floor(n) == smooth[np.searchsorted(smooth, n, "right") - 1]


@pytest.mark.parametrize("eta", [-0.02, 0.015, 0.0])
def test_fit_recovers_mode_on_prime_cut_trace(eta):
    omega, eta_fit, resid = fit_omega_eta(synthetic_run(7.3, eta, n=PRIME_CUT))
    assert rel(omega, 7.3) < 1e-10
    assert abs(eta_fit - eta) < 1e-10
    assert resid < 1e-10


# ---------------------------------------------------------------------------
# Volterra building blocks against their direct sums
# ---------------------------------------------------------------------------

def forward_substitution(r, a):
    """r(z)/a(z) to len(r) terms by the O(n^2) recurrence."""
    q = np.zeros(len(r), dtype=complex)
    for m in range(len(r)):
        q[m] = (r[m] - np.dot(a[m:0:-1], q[:m])) / a[0]
    return q


def test_series_quotient_matches_forward_substitution():
    rng = np.random.default_rng(20)
    for n in range(1, 131):
        r = rng.normal(size=n) + 1j * rng.normal(size=n)
        a = (rng.normal(size=n) + 1j * rng.normal(size=n)) / n
        a[0] = 1.0 + rng.normal() + 1j * rng.normal()
        ref = forward_substitution(r, a)
        got = kinetic_oracle._series_quotient(r, a)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), n


def direct_chirp_z(x, theta, m):
    return x @ np.exp(-1j * theta * np.outer(np.arange(x.shape[-1]), np.arange(m)))


@pytest.mark.parametrize("n, m", [(37, 11), (64, 64), (25, 101), (1, 7), (9, 1)])
def test_chirp_z_matches_direct_sum(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    theta = 0.37
    x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    ref = direct_chirp_z(x, theta, m)
    # the exact-length chirp, and a longer shared one as the snapshot uses it
    for length in (max(n, m), max(n, m) + 250):
        chirp = np.exp((-0.5j * theta) * np.arange(length) ** 2)
        rows = kinetic_oracle._chirp_z(x, chirp, m)
        single = kinetic_oracle._chirp_z(x[1], chirp, m)
        scale = np.abs(ref).max()
        assert rows.shape == (2, m) and single.shape == (m,)
        assert np.abs(rows - ref).max() <= 1e-12 * scale
        assert np.abs(single - ref[1]).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# integration invariants
# ---------------------------------------------------------------------------

def test_linearity_in_amplitude_bitwise(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(n_v=512, dt=0.01, t_end=20.0)
    one = evolve_mode(k, weak_fermion, sc.alpha, cfg, amplitude=1e-6, fit=False)
    two = evolve_mode(k, weak_fermion, sc.alpha, cfg, amplitude=2e-6, fit=False)
    # the doubled run scales every float by an exact power of two
    assert np.array_equal(two.density, 2.0 * one.density)


def test_conjugate_mode_bitwise(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(n_v=512, dt=0.01, t_end=20.0)
    plus = evolve_mode(k, weak_fermion, sc.alpha, cfg, fit=False)
    minus = evolve_mode(-k, weak_fermion, sc.alpha, cfg, fit=False)
    assert np.array_equal(minus.density, np.conj(plus.density))


@pytest.mark.parametrize("case", ["thermal", "degenerate", "uniform_kick"])
def test_volterra_matches_plain_rk4(case, monkeypatch, weak_fermion, weak_fermion_scales,
                                    electron_degenerate):
    sc = weak_fermion_scales
    k_thermal = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    k, species, alpha, cfg = {
        "thermal": (k_thermal, weak_fermion, sc.alpha,
                    OracleConfig(n_v=512, dt=0.005, t_end=20.0)),
        # the smoothed Fermi edge needs dv <= v_F / 800, so no 512-point grid
        "degenerate": (R.K_REF, electron_degenerate, None,
                       OracleConfig(n_v=2560, dt=0.005, t_end=20.0)),
        "uniform_kick": (k_thermal, weak_fermion, sc.alpha,
                         OracleConfig(n_v=512, dt=0.005, t_end=20.0,
                                      init_shape=InitShape.UniformDensityKick)),
    }[case]
    run = evolve_mode(k, species, alpha, cfg, fit=False)
    monkeypatch.setattr(kinetic_oracle, "_volterra", rk4_at_quarter_step)
    ref = evolve_mode(k, species, alpha, cfg, fit=False)
    assert np.abs(run.density - ref.density).max() <= 1e-7 * np.abs(ref.density).max()
    assert np.abs(run.snapshot - ref.snapshot).max() <= 1e-6 * np.abs(ref.snapshot).max()


def test_volterra_sixth_order(weak_fermion, weak_fermion_scales):
    # halving the sample spacing must cut the trace error by about 2^6
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    traces = [
        evolve_mode(k, weak_fermion, sc.alpha, OracleConfig(n_v=512, dt=dt, t_end=20.0),
                    omega_guess=1.2 * sc.omega_p, fit=False).density
        for dt in (0.01, 0.005, 0.0025)
    ]
    err_coarse = np.abs(traces[0] - traces[2][::4]).max()
    err_fine = np.abs(traces[1] - traces[2][::2]).max()
    assert err_coarse >= 30.0 * err_fine


def test_zero_amplitude_gives_zero_trace(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    run = evolve_mode(k, weak_fermion, sc.alpha,
                      OracleConfig(n_v=512, dt=0.01, t_end=20.0), amplitude=0.0)
    assert np.all(run.density == 0.0)
    assert run.omega_fit is None and run.eta_fit is None


def test_trace_starts_at_requested_amplitude(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    run = evolve_mode(k, weak_fermion, sc.alpha,
                      OracleConfig(n_v=512, dt=0.01, t_end=20.0),
                      amplitude=1e-6, fit=False)
    assert abs(run.density[0] - 1e-6 * R.N0) < 1e-13 * 1e-6 * R.N0
    assert len(run.density) == len(run.times) == 2001


def test_neutral_boson_free_streaming_decays():
    # no restoring force at all: the mode just phase-mixes away, so the
    # envelope must never grow beyond summation roundoff
    nb = SpeciesParams(mass=R.M_E, charge=0.0, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_02, statistics=Statistics.BOSE)
    alpha = fugacity_from_density(nb)
    run = evolve_mode(1e9, nb, alpha, OracleConfig(n_v=1024, dt=0.01, t_end=20.0),
                      bohm_term=False, fit=False)
    mags = np.abs(run.density)
    assert np.all(np.diff(mags) <= 1e-12 * mags[0])
    assert mags[-1] < 1e-10 * mags[0]


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_recurrence_guard_fires(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    with pytest.raises(GridResonanceUnderresolved, match="phase-mixing"):
        evolve_mode(k, weak_fermion, sc.alpha,
                    OracleConfig(n_v=256, dt=0.01, t_end=400.0))


def test_blowup_guard_fires(monkeypatch, weak_fermion, weak_fermion_scales):
    # a negated f0' reverses the restoring force, so the mode grows; plain RK4
    # at the same spacing first passes the bound at the same sample
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    derivative = kinetic_oracle.reduced_fz_derivative
    monkeypatch.setattr(kinetic_oracle, "reduced_fz_derivative",
                        lambda *args: -derivative(*args))
    with pytest.raises(NumericalBlowup, match="grew past 1e6 times its start at sample 526$"):
        evolve_mode(k, weak_fermion, sc.alpha, OracleConfig(n_v=512, dt=0.005, t_end=20.0))


@pytest.fixture(scope="session")
def fixture_gases(electron_degenerate, neutral_degenerate, weak_fermion, weak_boson,
                  classical_electron, weak_fermion_scales, weak_boson_scales,
                  classical_electron_scales):
    """(species, alpha, k unit) per fixture gas: alpha None is full degeneracy,
    and the unit is omega_p over the gas's velocity scale."""
    thermal = [(weak_fermion, weak_fermion_scales), (weak_boson, weak_boson_scales),
               (classical_electron, classical_electron_scales)]
    return [(electron_degenerate, None, R.K_REF), (neutral_degenerate, None, R.K_REF)] + [
        (species, sc.alpha, R.OMEGA_P / math.sqrt(sc.v_th_sq)) for species, sc in thermal
    ]


@settings(max_examples=150, derandomize=True)
@given(
    gas=st.integers(0, 4),
    y=st.floats(0.2, 1.5),
    sign=st.sampled_from([1.0, -1.0]),
    n_v=st.integers(128, 2048).map(lambda half: 2 * half),
    # 0.002 keeps a t_end = 80 trace at 40 001 samples
    dt=st.floats(0.002, 0.1 / (2.0 * math.pi), exclude_max=True),
    t_end=st.floats(20.0, 80.0),
    v_max=st.none() | st.floats(1.0, 20.0),
    init_shape=st.sampled_from(InitShape),
    bohm_term=st.booleans(),
    amplitude=st.sampled_from([0.0, 1e-6, 1.0]),
    fit=st.booleans(),
)
def test_evolve_mode_refuses_or_stays_finite(fixture_gases, gas, y, sign, n_v, dt, t_end,
                                             v_max, init_shape, bohm_term, amplitude, fit):
    species, alpha, k_unit = fixture_gases[gas]
    cfg = OracleConfig(n_v=n_v, dt=dt, t_end=t_end, v_max=v_max, init_shape=init_shape)
    try:
        run = evolve_mode(sign * y * k_unit, species, alpha, cfg, bohm_term=bohm_term,
                          amplitude=amplitude, fit=fit)
    except (DisperseError, ValueError):
        return
    assert np.all(np.isfinite(run.density)) and np.all(np.isfinite(run.snapshot))
    fitted = (run.omega_fit, run.eta_fit, run.fit_residual)
    if fit and amplitude != 0.0:
        assert all(math.isfinite(value) for value in fitted)
    else:
        assert fitted == (None, None, None)


# ---------------------------------------------------------------------------
# cross-checks against the frequency-domain roots
# ---------------------------------------------------------------------------

def test_classical_damping_matches_quadrature_root(classical_electron,
                                                   classical_electron_scales):
    sp, sc = classical_electron, classical_electron_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    root = converged_root(k, BranchId.ExactQuadrature, sp, sc)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(n_v=4096, dt=0.005, t_end=60.0),
                      omega_guess=root.rate.omega)
    assert rel(run.omega_fit, root.rate.omega) < 1e-4
    assert root.rate.eta < 0.0 and run.eta_fit < 0.0
    assert rel(run.eta_fit, root.rate.eta) < 0.05


def test_classical_refinement_is_converged(classical_electron,
                                           classical_electron_scales):
    # guess pinned to the root so both runs sample the same window; the
    # damping here is ~1e-6 of omega and drifts with the fit alignment
    sp, sc = classical_electron, classical_electron_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    guess = converged_root(k, BranchId.ExactQuadrature, sp, sc).rate.omega
    coarse = evolve_mode(k, sp, sc.alpha,
                         OracleConfig(n_v=2048, dt=0.01, t_end=40.0),
                         omega_guess=guess)
    fine = evolve_mode(k, sp, sc.alpha,
                       OracleConfig(n_v=4096, dt=0.005, t_end=40.0),
                       omega_guess=guess)
    assert rel(coarse.omega_fit, fine.omega_fit) < 1e-5
    assert rel(coarse.eta_fit, fine.eta_fit) < 1e-2


def test_weak_mode_matches_roots(weak_fermion, weak_fermion_scales):
    """The oracle lands on the contour root: frequency to 1e-3, damping to
    5 percent.  The series root's frequency agrees too; its damping is the
    documented outlier (roughly 3x) and is asserted only by sign."""
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    quad = converged_root(k, BranchId.ExactQuadrature, sp, sc)
    series = converged_root(k, BranchId.ExactWeak, sp, sc)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(n_v=4096, dt=0.005, t_end=80.0),
                      omega_guess=quad.rate.omega)
    assert rel(run.omega_fit, quad.rate.omega) < 1e-3
    assert rel(run.eta_fit, quad.rate.eta) < 0.05
    assert rel(run.omega_fit, series.rate.omega) < 0.02
    assert series.rate.eta < 0.0 and run.eta_fit < 0.0


def test_bose_near_condensation_mode_matches_quadrature_root():
    """Bose gas at fugacity 0.999: the occupation is one closed form at any
    fugacity, so the oracle's set-up costs no more here than at 0.2; the wall
    budget catches a distribution summed term by term."""
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_0999, statistics=Statistics.BOSE)
    sc = derive_scales(sp)
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    quad = converged_root(k, BranchId.ExactQuadrature, sp, sc)
    start = time.perf_counter()
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(n_v=4096, dt=0.005, t_end=20.0),
                      omega_guess=quad.rate.omega)
    assert time.perf_counter() - start < 1.0
    assert rel(run.omega_fit, quad.rate.omega) < 0.02
    assert rel(run.eta_fit, quad.rate.eta) < 0.15


def test_degenerate_mode_has_no_damping(electron_degenerate,
                                        electron_degenerate_scales):
    sp, sc = electron_degenerate, electron_degenerate_scales
    k = 0.35 * R.K_REF
    root = converged_root(k, BranchId.ExactDegenerate, sp, sc)
    run = evolve_mode(k, sp, None,
                      OracleConfig(n_v=8192, dt=0.005, t_end=100.0, v_max=3.5))
    assert rel(run.omega_fit, root.rate.omega) < 1e-3
    assert abs(run.eta_fit) < 3e-6 * run.omega_fit


def test_uniform_kick_agrees_with_shaped_init(weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(n_v=2048, dt=0.005, t_end=60.0)
    shaped = evolve_mode(k, sp, sc.alpha, cfg)
    kicked = evolve_mode(k, sp, sc.alpha,
                         OracleConfig(n_v=2048, dt=0.005, t_end=60.0,
                                      init_shape=InitShape.UniformDensityKick))
    assert rel(kicked.omega_fit, shaped.omega_fit) < 0.03


def test_fit_independent_of_omega_guess(weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(n_v=2048, dt=0.005, t_end=60.0)
    mid = evolve_mode(k, sp, sc.alpha, cfg)
    lo = evolve_mode(k, sp, sc.alpha, cfg, omega_guess=0.8 * mid.omega_fit)
    hi = evolve_mode(k, sp, sc.alpha, cfg, omega_guess=1.2 * mid.omega_fit)
    assert rel(lo.omega_fit, hi.omega_fit) < 1e-3
