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
from disperse.kinetic_oracle import OracleRun, fit_omega_eta
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
        z = z.real
    return OracleRun(k=1.0, omega_guess=omega, times=t, density=z)


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
    return np.array(density)


def complex_times(spec, y):
    return np.fft.ifft(spec * np.fft.fft(y, len(spec)))


def complex_series_quotient(r, a):
    """Complex r(z)/a(z) to len(r) terms by Newton doubling on full FFTs."""
    n = len(r)
    sizes = [n, (n + 1) // 2]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    sizes.reverse()
    inv = np.array([1.0 / a[0]])
    for lo, hi in zip(sizes[:-2], sizes[1:-1]):
        inv_spec = np.fft.fft(inv, kinetic_oracle._fft_size(hi))
        err = complex_times(inv_spec, a[:hi])[lo:hi]
        inv = np.concatenate((inv, -complex_times(inv_spec, err)[:hi - lo]))
    half = sizes[-2]
    inv_spec = np.fft.fft(inv, kinetic_oracle._fft_size(n))
    head = complex_times(inv_spec, r[:half])[:half]
    tail = r[half:] - complex_times(np.fft.fft(a, len(inv_spec)), head)[half:n]
    return np.concatenate((head, complex_times(inv_spec, tail)[:n - half]))


def single_chirp_z(x, chirp, m):
    """X_q = sum_j x_j exp(-i theta j q), q = 0..m-1, for each row x of length
    n, given the chirp c_l = exp(-i theta l^2/2) for l = 0..max(n, m) - 1:
    Bluestein's transform as one convolution of length about n + m."""
    n = x.shape[-1]
    gap = kinetic_oracle._fft_size(n + m - 1) - m - n + 1
    spec = np.fft.fft(np.concatenate((chirp[:m], np.zeros(gap), chirp[n - 1:0:-1])).conj())
    return np.fft.ifft(spec * np.fft.fft(x * chirp[:n], len(spec)))[..., :m] * chirp[:m]


def complex_volterra(phi0, v, k, coupling, weights, h, n_steps):
    """The same Volterra solve on the full grid in complex arithmetic: F and K
    as one single-chirp transform in the frame of v_0, rotated back at the
    end.  It shares no transform code with the oracle."""
    n_t = n_steps + 1
    dv = v[1] - v[0]
    wc = weights * coupling
    chirp = np.exp((-0.5j * k * dv * h) * np.arange(max(len(v), n_t)) ** 2)
    free, kernel = single_chirp_z(np.stack((weights * phi0, wc)), chirp, n_t)
    u = dv * np.arange(len(v))
    lag = np.subtract.outer(np.arange(1, 9), np.arange(9))
    k_near = np.exp((-1j * k * h) * np.outer(np.arange(-7, 9), u)) @ wc
    block = (-h / 3628800.0) * np.array(kinetic_oracle._START) * k_near[lag + 7]
    block[:, 1:] += np.eye(8)
    rows = np.linalg.solve(block[:, 1:], free[1:9] - block[:, 0] * free[0])
    start = np.concatenate((free[:1], rows))
    gregory = kinetic_oracle._GREGORY
    kernel *= -h
    kernel[:5] *= gregory
    kernel[0] += 1.0
    free[:9] = np.convolve(kernel[:9], np.array(gregory + (1.0,) * 4) * start)[:9]
    density = complex_series_quotient(free, kernel)
    density[:9] = start
    return density * np.exp((-1j * k * v[0] * h) * np.arange(n_t))


def rk4_at_quarter_step(phi0, v, k, coupling, weights, h, n_steps):
    """Stand-in for the oracle's Volterra solve: plain RK4 at h/4, sampled
    at the oracle's own times."""
    density = plain_rk4(phi0.astype(complex), -1j * k * v, coupling, weights, h / 4.0, 4 * n_steps)
    return density[::4]


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
    # a real cosine trace holds the mode and its conjugate mirror, which
    # count as one pole
    omega, eta, _ = fit_omega_eta(synthetic_run(7.3, -0.02, real=True))
    assert rel(omega, 7.3) < 1e-10
    assert abs(eta + 0.02) < 1e-10


def test_fit_same_on_real_trace_and_its_complex_cast():
    # a real trace is fitted in real arithmetic; its complex cast must read
    # the same pole
    trace = synthetic_run(7.3, -0.02, real=True)
    cast = OracleRun(k=1.0, omega_guess=7.3, times=trace.times,
                     density=trace.density.astype(complex))
    assert np.isrealobj(trace.density)
    for got, ref in zip(fit_omega_eta(trace), fit_omega_eta(cast)):
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_fit_undamped_mode_reads_zero_eta():
    omega, eta, _ = fit_omega_eta(synthetic_run(7.3, 0.0))
    assert abs(eta) < 1e-12 * omega


def two_tone_run(omega_other):
    t = np.arange(4096) * 0.01
    z = np.exp(1j * 7.3 * t) + 0.8 * np.exp(1j * omega_other * t)
    return OracleRun(k=1.0, omega_guess=7.3, times=t, density=z)


def test_fit_rejects_two_tone_trace():
    # a second tone within 30% of the guess and 3 dB of the mode is ambiguous
    with pytest.raises(FitAmbiguous, match="second pole at 0.80"):
        fit_omega_eta(two_tone_run(6.6))
    # a far one is a separate pole the pencil resolves
    omega, eta, _ = fit_omega_eta(two_tone_run(3.1))
    assert rel(omega, 7.3) < 1e-10
    assert abs(eta) < 1e-10


def test_fit_refuses_trace_without_mode_near_guess():
    # the only pole near a guess of 5 is a roundoff pole of a pure tone at
    # 7.3: a misfit far above its amplitude refuses it
    run = synthetic_run(7.3, 0.0)
    run.omega_guess = 5.0
    with pytest.raises(FitAmbiguous, match="misfit"):
        fit_omega_eta(run)


def test_fit_trace_length_requirements():
    with pytest.raises(ValueError, match="too short"):
        fit_omega_eta(synthetic_run(7.3, 0.0, n=8))
    with pytest.raises(ValueError, match="periods"):
        fit_omega_eta(synthetic_run(7.3, 0.0, n=1000, dt=0.001))


# a prime trace length whose last 80% (3203 samples) is prime too: no length
# the fit reads may need to suit a fast transform
PRIME_CUT = 4003


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
    q = np.zeros(len(r))
    for m in range(len(r)):
        q[m] = (r[m] - np.dot(a[m:0:-1], q[:m])) / a[0]
    return q


def test_series_quotient_matches_forward_substitution():
    rng = np.random.default_rng(20)
    for n in range(1, 131):
        r = rng.normal(size=n)
        a = rng.normal(size=n) / n
        a[0] = 1.0 + rng.normal()
        ref = forward_substitution(r, a)
        got = kinetic_oracle._series_quotient(r, a)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), n


def direct_chirp_z(x, theta, m, shift):
    return x @ np.exp(-1j * theta * np.outer(np.arange(x.shape[-1]) + shift, np.arange(m)))


# blocks are 2n outputs wide: one short block, one exact block, one block and
# a sample, several blocks, and the one-node and one-output edges
@pytest.mark.parametrize("n, m", [(37, 11), (32, 64), (32, 65), (25, 101), (1, 7), (9, 1)])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_chirp_z_matches_direct_sum(n, m, shift):
    rng = np.random.default_rng(n * 1000 + m)
    theta = 0.37
    x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    ref = direct_chirp_z(x, theta, m, shift)
    rows = kinetic_oracle._chirp_z(x, theta, m, shift)
    single = kinetic_oracle._chirp_z(x[1], theta, m, shift)
    scale = np.abs(ref).max()
    assert rows.shape == (2, m) and single.shape == (m,)
    assert np.abs(rows - ref).max() <= 1e-12 * scale
    assert np.abs(single - ref[1]).max() <= 1e-12 * scale


def test_chirp_z_long_transform():
    # the oracle's own shape: n_v = 4096 folds to 2048 nodes, a t_end = 200
    # run records 40 001 samples, and the half-grid starts half a step out
    n, m, periods = 2048, 40_001, 41_000
    rng = np.random.default_rng(7)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = kinetic_oracle._chirp_z(x, 2.0 * math.pi / periods, m, 0.5)
    q = np.arange(0, m, 97)
    # theta (j + 1/2) q = pi ((2j + 1) q mod 2 periods) / periods, reduced in
    # integers so the reference carries no argument roundoff
    turns = np.outer(2 * np.arange(n) + 1, q) % (2 * periods)
    ref = x @ np.exp((-1j * math.pi / periods) * turns)
    assert np.abs(got[q] - ref).max() <= 1e-11 * np.abs(ref).max()


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
    assert np.isrealobj(plus.density)
    assert np.array_equal(minus.density, plus.density)


@pytest.mark.parametrize("case", ["thermal", "degenerate"])
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
    }[case]
    run = evolve_mode(k, species, alpha, cfg, fit=False)
    monkeypatch.setattr(kinetic_oracle, "_volterra", rk4_at_quarter_step)
    ref = evolve_mode(k, species, alpha, cfg, fit=False)
    assert np.abs(run.density - ref.density).max() <= 1e-7 * np.abs(ref.density).max()


@pytest.mark.parametrize("case", ["fermi_0.2", "degenerate"])
def test_folded_volterra_matches_complex_full_grid(case, monkeypatch, weak_fermion,
                                                   weak_fermion_scales, electron_degenerate):
    # the t_end = 200 modes of criterion 06 and of the compare window's T = 0 gas
    sc = weak_fermion_scales
    k, species, alpha = {
        "fermi_0.2": (0.38 * sc.omega_p / math.sqrt(sc.v_th_sq), weak_fermion, sc.alpha),
        "degenerate": (R.K_REF, electron_degenerate, None),
    }[case]
    cfg = OracleConfig(t_end=200.0)
    run = evolve_mode(k, species, alpha, cfg, fit=False)
    monkeypatch.setattr(kinetic_oracle, "_volterra", complex_volterra)
    ref = evolve_mode(k, species, alpha, cfg, fit=False)
    assert np.isrealobj(run.density)
    assert np.abs(run.density - ref.density).max() <= 1e-9 * np.abs(ref.density).max()


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
    bohm_term=st.booleans(),
    amplitude=st.sampled_from([0.0, 1e-6, 1.0]),
    fit=st.booleans(),
)
def test_evolve_mode_refuses_or_stays_finite(fixture_gases, gas, y, sign, n_v, dt, t_end,
                                             v_max, bohm_term, amplitude, fit):
    species, alpha, k_unit = fixture_gases[gas]
    cfg = OracleConfig(n_v=n_v, dt=dt, t_end=t_end, v_max=v_max)
    try:
        run = evolve_mode(sign * y * k_unit, species, alpha, cfg, bohm_term=bohm_term,
                          amplitude=amplitude, fit=fit)
    except (DisperseError, ValueError):
        return
    assert np.all(np.isfinite(run.density))
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
    assert rel(run.omega_fit, root.rate.omega) < 1e-8
    assert root.rate.eta < 0.0 and run.eta_fit < 0.0
    assert rel(run.eta_fit, root.rate.eta) < 1e-4


def test_classical_refinement_is_converged(classical_electron,
                                           classical_electron_scales):
    # guess pinned to the root so both runs sample the same window; the
    # damping here is ~1e-6 of omega, and the coarse grid moves it by ~2e-4
    sp, sc = classical_electron, classical_electron_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    guess = converged_root(k, BranchId.ExactQuadrature, sp, sc).rate.omega
    coarse = evolve_mode(k, sp, sc.alpha,
                         OracleConfig(n_v=2048, dt=0.01, t_end=40.0),
                         omega_guess=guess)
    fine = evolve_mode(k, sp, sc.alpha,
                       OracleConfig(n_v=4096, dt=0.005, t_end=40.0),
                       omega_guess=guess)
    assert rel(coarse.omega_fit, fine.omega_fit) < 1e-7
    assert rel(coarse.eta_fit, fine.eta_fit) < 1e-3


def test_weak_mode_matches_roots(weak_fermion, weak_fermion_scales):
    """The oracle lands on the contour root: frequency to 1e-8, damping to
    1e-6.  The series root's frequency agrees too; its damping is the
    documented outlier (roughly 3x) and is asserted only by sign."""
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    quad = converged_root(k, BranchId.ExactQuadrature, sp, sc)
    series = converged_root(k, BranchId.ExactWeak, sp, sc)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(n_v=4096, dt=0.005, t_end=80.0),
                      omega_guess=quad.rate.omega)
    assert rel(run.omega_fit, quad.rate.omega) < 1e-8
    assert rel(run.eta_fit, quad.rate.eta) < 1e-6
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
    assert rel(run.omega_fit, quad.rate.omega) < 1e-8
    assert rel(run.eta_fit, quad.rate.eta) < 1e-6


@pytest.mark.parametrize("gas, y", [("fermi_0.2", 0.6), ("fermi_0.2", 0.7), ("fermi_0.2", 0.9),
                                    ("bose_0.9", 0.45), ("bose_0.9", 0.6)])
def test_strongly_damped_mode_matches_quadrature_root(gas, y, weak_fermion):
    """Modes that decay below the free-streaming remainder well inside the
    trace (eta/omega from 1e-2 to 0.11) still read to the quadrature root."""
    sp = weak_fermion if gas == "fermi_0.2" else SpeciesParams(
        mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
        temperature=R.T_BOSE_09, statistics=Statistics.BOSE)
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    quad = converged_root(k, BranchId.ExactQuadrature, sp, sc)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(t_end=50.0), omega_guess=quad.rate.omega)
    assert rel(run.omega_fit, quad.rate.omega) < 1e-8
    assert rel(run.eta_fit, quad.rate.eta) < 1e-6


def test_fit_same_on_conjugate_mode(weak_boson, weak_boson_scales):
    # the traces at k and -k are the same real trace, which holds both
    # mirror poles: each fit reports the Im s > 0 one
    sc = weak_boson_scales
    k = 0.36 * sc.omega_p / math.sqrt(sc.v_th_sq)
    plus = evolve_mode(k, weak_boson, sc.alpha, OracleConfig(t_end=200.0))
    minus = evolve_mode(-k, weak_boson, sc.alpha, OracleConfig(t_end=200.0))
    assert rel(minus.omega_fit, plus.omega_fit) < 1e-11
    assert abs(minus.eta_fit - plus.eta_fit) < 1e-12 * plus.omega_fit


def test_degenerate_mode_has_no_damping(electron_degenerate,
                                        electron_degenerate_scales):
    sp, sc = electron_degenerate, electron_degenerate_scales
    k = 0.35 * R.K_REF
    root = converged_root(k, BranchId.ExactDegenerate, sp, sc)
    run = evolve_mode(k, sp, None,
                      OracleConfig(n_v=8192, dt=0.005, t_end=100.0, v_max=3.5))
    assert rel(run.omega_fit, root.rate.omega) < 1e-3
    assert abs(run.eta_fit) < 1e-8 * run.omega_fit


@pytest.mark.parametrize("x", [1.0, 1.15])
def test_degenerate_mode_reads_no_growth_at_default_grid(x, electron_degenerate):
    # the T = 0 modes of the benchmark's compare window, on the default grid
    run = evolve_mode(x * R.K_REF, electron_degenerate, None, OracleConfig(t_end=200.0))
    assert abs(run.eta_fit) <= 1e-8 * run.omega_fit


def test_fit_independent_of_omega_guess(weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(n_v=2048, dt=0.005, t_end=60.0)
    mid = evolve_mode(k, sp, sc.alpha, cfg)
    lo = evolve_mode(k, sp, sc.alpha, cfg, omega_guess=0.8 * mid.omega_fit)
    hi = evolve_mode(k, sp, sc.alpha, cfg, omega_guess=1.2 * mid.omega_fit)
    assert rel(lo.omega_fit, hi.omega_fit) < 1e-8
    assert rel(lo.eta_fit, hi.eta_fit) < 1e-5
