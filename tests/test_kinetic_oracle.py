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
    NumericalBlowup,
    OracleConfig,
    SpeciesParams,
    Statistics,
    derive_scales,
    dominant_root,
    evolve_mode,
    first_point_seeds,
    omega_zero_sound,
    solve_at_k,
)
from disperse import kinetic_oracle
from disperse.cli import oracle_agrees
from disperse.dispersion_core import coefficient_C1, omega_c1_corrected
from disperse.errors import DegeneracyOutOfRange
from disperse.kinetic_oracle import OracleRun, fit_omega_eta
from disperse.quantum_stats import (
    K_B,
    PLANCK_H,
    fugacity_from_density,
    reduced_fz,
    reduced_fz_derivative,
    thermal_beta,
    zeta_pm,
)


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
    """The oracle's grid system by plain RK4 at h/4, sampled at the oracle's
    own times."""
    density = plain_rk4(phi0.astype(complex), -1j * k * v, coupling, weights, h / 4.0, 4 * n_steps)
    return density[::4]


# the reference grid: at 4096 points its aliases of g stay below the
# tolerances of every trace these tests build on it (2048 do not)
REF_N_V = 4096


def thermal_grid(run, species, scales):
    """A fixed trapezoid grid of REF_N_V points over 8 max(v_ch, v_th) either
    side of v = 0 for a thermal run at the default amplitude, with the
    coupling i Lambda f0' sampled from the slope itself, which evolve_mode
    takes by parts instead: (phi0, v, k, coupling, weights, h, n_steps)."""
    v_max = 8.0 * max(scales.v_ch, math.sqrt(scales.v_th_sq))
    v = np.linspace(-v_max, v_max, REF_N_V)
    weights = np.full(REF_N_V, v[1] - v[0])
    weights[[0, -1]] *= 0.5
    f0 = reduced_fz(v, species, scales.alpha)
    norm = np.dot(f0, weights) / species.density
    f0 = f0 / norm
    phi0 = (1e-6 * species.density / np.dot(f0, weights)) * f0
    k = abs(run.k)
    coupling = (1j * coefficient_C1(k, scales) / (k * species.density)
                * reduced_fz_derivative(v, species, scales.alpha) / norm)
    return phi0, v, k, coupling, weights, run.times[1], len(run.times) - 1


def sharp_parabola_sums(k, v_f, times, amplitude_n0, c1):
    """F and K of the sharp T = 0 parabola by direct Gauss-Legendre sums over
    u = v/v_F on 128 panels of 32 nodes (each panel spans under 8 radians at
    k v_F t = 1e3): F the cosine transform of the kick, K the sine transform
    of the coupling's f0', with no integration by parts."""
    nodes, wts = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(-1.0, 1.0, 129)
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    u = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * wts).ravel()
    phase = np.outer(k * v_f * times, u)
    f0 = 0.75 * (1.0 - u * u) / v_f  # normalized to 1 over [-v_F, v_F]
    f0_slope = -1.5 * u / v_f**2
    free = amplitude_n0 * (np.cos(phase) @ (w * f0 * v_f))
    kernel = c1 / k * (np.sin(phase) @ (w * f0_slope * v_f))
    return free, kernel


# ---------------------------------------------------------------------------
# configuration and input validation
# ---------------------------------------------------------------------------

def test_oracle_config_validation():
    OracleConfig(dt=0.01, t_end=20.0)  # fine
    with pytest.raises(ValueError, match="dt"):
        OracleConfig(dt=0.02)
    with pytest.raises(ValueError, match="dt"):
        OracleConfig(dt=0.0)
    OracleConfig(dt=1e-4, t_end=100.0)  # 10^6 samples: the cap itself
    with pytest.raises(ValueError, match="dt"):
        OracleConfig(dt=1e-9)  # 5e10 samples
    with pytest.raises(ValueError, match="20 periods"):
        OracleConfig(t_end=15.0)


def test_evolve_mode_input_validation(weak_fermion, electron_degenerate):
    with pytest.raises(ValueError, match="nonzero"):
        evolve_mode(0.0, weak_fermion, 0.2)
    with pytest.raises(ValueError, match="fully degenerate"):
        evolve_mode(1e9, weak_fermion, None)
    with pytest.raises(ValueError, match="alpha"):
        evolve_mode(1e9, weak_fermion, 1.2)
    with pytest.raises(ValueError, match="omega_guess"):
        evolve_mode(1e9, weak_fermion, 0.2, omega_guess=-1.0)
    # g would stay above rounding past 2^500 samples: the support search
    # refuses k by name before its bisection could overflow
    for tiny in (1e-200, 5e-324):
        with pytest.raises(ValueError, match="^k = .* is too small"):
            evolve_mode(tiny, weak_fermion, 0.2)
    # non-finite inputs are refused by name on either kind of gas, before
    # they can reach the transform
    for species, alpha in ((weak_fermion, 0.2), (electron_degenerate, None)):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^k must"):
                evolve_mode(bad, species, alpha)
            with pytest.raises(ValueError, match="^omega_guess"):
                evolve_mode(1e9, species, alpha, omega_guess=bad)
            with pytest.raises(ValueError, match="^amplitude"):
                evolve_mode(1e9, species, alpha, amplitude=bad)


@pytest.mark.parametrize("gas", ["fermi_0.2", "bose_0.2"])
@pytest.mark.parametrize("y, t_end", [(0.1, 50.0), (0.1, 200.0), (0.05, 200.0)])
def test_slow_thermal_mode_matches_dominant_root(gas, y, t_end, weak_fermion, weak_boson):
    # y = 0.05-0.1: omega/k is 10-20 thermal widths, past the 8-width velocity
    # window, yet the transform of f0 reads the mode; over t_end = 200 the
    # kernel's support is 0.27-0.57 of the trace
    sp = weak_fermion if gas == "fermi_0.2" else weak_boson
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    root = dominant_root(k, sp, sc)
    assert root.rate.omega / k > 8.0 * math.sqrt(sc.v_th_sq)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(t_end=t_end))
    assert rel(run.omega_fit, root.rate.omega) <= 1e-10
    assert abs(run.eta_fit - root.rate.eta) <= 1e-11 * root.rate.omega


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
    # a real tone at 7.3 has no pole at all within 30% of a guess of 20
    run = synthetic_run(7.3, -0.02, real=True)
    run.omega_guess = 20.0
    with pytest.raises(FitAmbiguous, match="no pole within 30% of omega_guess"):
        fit_omega_eta(run)


def test_fit_names_a_zero_pencil_pole_quietly(monkeypatch, capfd):
    # a zero pole logs to -inf; handed to the least squares as a NaN column
    # it made LAPACK print to stderr before the refusal
    eigvals = np.linalg.eigvals

    def one_zero(matrix):
        poles = eigvals(matrix)
        poles[0] = 0.0
        return poles

    monkeypatch.setattr(np.linalg, "eigvals", one_zero)
    with pytest.raises(FitAmbiguous, match=r"^matrix pencil pole 0j is zero or not finite$"):
        fit_omega_eta(synthetic_run(7.3, -0.02, real=True))
    assert capfd.readouterr().err == ""


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


def full_matrix_fit(run):
    """fit_omega_eta as it read with one QR of the whole Hankel matrix, and
    the amplitudes and misfit from a least squares over the whole trace."""
    dt = run.times[1] - run.times[0]
    step = max(1, int(2.0 * math.pi / (8.0 * run.omega_guess * dt)))
    z = run.density[len(run.density) // 20::step]
    periods = (len(z) - 1) * step * dt * run.omega_guess / (2.0 * math.pi)
    pencil, order, max_misfit = kinetic_oracle._PENCIL, kinetic_oracle._ORDER, kinetic_oracle._MAX_MISFIT
    if periods < 10.0 or len(z) < 3 * pencil:
        raise ValueError(
            f"density trace too short to fit: {len(z)} samples over {periods:.1f} periods "
            f"after the transient cut; need {3 * pencil} samples and 10 periods"
        )
    try:
        with np.errstate(all="ignore"):
            hankel = np.lib.stride_tricks.sliding_window_view(z, pencil)
            v = np.linalg.svd(np.linalg.qr(hankel, mode="r"))[2][:order].T
            poles = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
            log_z = np.log(poles.astype(complex))
            bad = ~np.isfinite(log_z)
            if bad.any():
                raise FitAmbiguous(f"matrix pencil pole {poles[bad][0]} is zero or not finite")
            grow = log_z.real > 0.0
            terms = np.empty((len(z), order), complex)
            terms[0] = 1.0
            terms[1:] = np.exp(np.where(grow, -log_z, log_z))
            terms = np.cumprod(terms, axis=0)
            terms[:, grow] = terms[::-1, grow]
            terms /= np.linalg.norm(terms, axis=0)
            coef = np.linalg.lstsq(terms, z, rcond=None)[0]
            misfit = np.linalg.norm(z - terms @ coef)
    except np.linalg.LinAlgError as exc:
        raise FitAmbiguous(f"matrix pencil failed: {exc}") from exc
    s, amp = log_z / (step * dt), np.abs(coef)
    near = np.flatnonzero(np.abs(np.abs(s.imag) - run.omega_guess) <= 0.3 * run.omega_guess)
    if not near.size:
        raise FitAmbiguous("no pole within 30% of omega_guess")
    best = near[np.argmax(amp[near])]
    twin = near[np.argmin(np.abs(s[near] - s[best].conjugate()))]
    pair = (best, twin) if abs(s[twin] - s[best].conjugate()) <= 1e-6 * abs(s[best]) else (best,)
    rival = amp[np.setdiff1d(near, pair)]
    if rival.size and rival.max() > amp[best] / math.sqrt(2.0):
        raise FitAmbiguous(
            f"second pole at {rival.max() / amp[best]:.2f} of the mode's amplitude within "
            "30% of omega_guess; trace is not a single damped mode"
        )
    if not misfit <= max_misfit * amp[best]:
        raise FitAmbiguous(
            f"misfit {misfit / amp[best]:.3g} of the mode's amplitude, above {max_misfit:g}"
        )
    mode = s[max(pair, key=lambda i: s[i].imag)]
    return abs(float(mode.imag)), float(mode.real), float(misfit / np.linalg.norm(z))


def assert_fit_as_full_matrix(run):
    """fit_omega_eta reads what full_matrix_fit reads, to 1e-13 in omega and
    eta and 5e-11 in fit_residual, or refuses with the same message.

    fit_residual on an oracle trace is rounding, 1e-12 to 3e-11, and
    full_matrix_fit itself reads it up to 2.3e-11 apart on a criterion-06
    trace and that trace times 1.1.  So is the figure in a misfit refusal
    whose pole has a roundoff amplitude: full_matrix_fit reads 7.1 to 18 on
    one pure tone scaled by 0.9 to 3.  Such a figure must agree within a
    factor of 2, and the rest of the message exactly."""
    try:
        ref = full_matrix_fit(run)
    except (FitAmbiguous, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            fit_omega_eta(run)
        want, msg = str(exc).split(" ", 2), str(got.value).split(" ", 2)
        if want[0] == "misfit":
            assert 0.5 <= float(msg[1]) / float(want[1]) <= 2.0
            want[1] = msg[1]
        assert msg == want
        return
    omega, eta, resid = fit_omega_eta(run)
    assert abs(omega - ref[0]) <= 1e-13 * ref[0]
    assert abs(eta - ref[1]) <= 1e-13 * ref[0]
    assert abs(resid - ref[2]) <= 5e-11


def retuned(run, omega_guess):
    run.omega_guess = omega_guess
    return run


def complex_cast(run):
    run.density = run.density.astype(complex)
    return run


# every synthetic trace above, and traces of 200 and 544 decimated samples:
# Hankel matrices of under one block of _triangle and of exactly two
SYNTHETIC_TRACES = {
    "damped": lambda: synthetic_run(7.3, -0.02),
    "growing": lambda: synthetic_run(7.3, 0.015),
    "real": lambda: synthetic_run(7.3, -0.02, real=True),
    "complex_cast": lambda: complex_cast(synthetic_run(7.3, -0.02, real=True)),
    "undamped": lambda: synthetic_run(7.3, 0.0),
    "two_tone_near": lambda: two_tone_run(6.6),
    "two_tone_far": lambda: two_tone_run(3.1),
    "roundoff_pole": lambda: retuned(synthetic_run(7.3, 0.0), 5.0),
    "no_pole": lambda: retuned(synthetic_run(7.3, -0.02, real=True), 20.0),
    "too_few_samples": lambda: synthetic_run(7.3, 0.0, n=8),
    "too_few_periods": lambda: synthetic_run(7.3, 0.0, n=1000, dt=0.001),
    **{f"prime_cut_{eta}": (lambda eta=eta: synthetic_run(7.3, eta, n=PRIME_CUT))
       for eta in (-0.02, 0.015, 0.0)},
    "under_one_block": lambda: synthetic_run(7.3, -0.02, n=2105, real=True),
    "two_blocks": lambda: synthetic_run(7.3, -0.02, n=5720, real=True),
}


@pytest.mark.parametrize("name", SYNTHETIC_TRACES)
def test_fit_matches_full_matrix_fit_on_synthetic_traces(name):
    run = SYNTHETIC_TRACES[name]()
    # the fit decimates these traces by 10: the Hankel row counts the names claim
    rows = {"under_one_block": 200 - kinetic_oracle._PENCIL + 1, "two_blocks": 2 * kinetic_oracle._QR_ROWS}
    if name in rows:
        assert len(run.density[len(run.density) // 20::10]) - kinetic_oracle._PENCIL + 1 == rows[name]
    assert_fit_as_full_matrix(run)


def test_fit_matches_full_matrix_fit_on_oracle_traces(weak_fermion, weak_fermion_scales, weak_boson,
                                                      weak_boson_scales, electron_degenerate,
                                                      electron_degenerate_scales):
    # criterion 06's modes: ten damped thermal ones at t_end = 200, with the
    # root as the guess, and five undamped T = 0 ones at the defaults
    for sp, sc in ((weak_fermion, weak_fermion_scales), (weak_boson, weak_boson_scales)):
        for y in np.linspace(0.36, 0.40, 5):
            k = float(y) * sc.omega_p / math.sqrt(sc.v_th_sq)
            omega = converged_root(k, BranchId.ExactQuadrature, sp, sc).rate.omega
            assert_fit_as_full_matrix(evolve_mode(k, sp, sc.alpha, OracleConfig(t_end=200.0),
                                                  omega_guess=omega, fit=False))
    sc = electron_degenerate_scales
    for x in (0.3, 0.6, 1.0, 1.5, 2.0):
        assert_fit_as_full_matrix(evolve_mode(x * sc.omega_p / sc.v_ch, electron_degenerate, None,
                                              fit=False))


@pytest.mark.parametrize("dtype", [float, complex])
def test_blocked_triangle_matches_one_qr(dtype):
    # under one block, one block and a row, and several blocks with a short
    # last one; R^H R = x^H x fixes R up to the phase of each row
    rng = np.random.default_rng(33)
    for rows in (40, kinetic_oracle._QR_ROWS + 1, 1489):
        x = rng.normal(size=(rows, kinetic_oracle._PENCIL)).astype(dtype)
        if dtype is complex:
            x += 1j * rng.normal(size=x.shape)
        got = kinetic_oracle._triangle(x)
        ref = np.linalg.qr(x, mode="r")
        assert got.shape == ref.shape and got.dtype == ref.dtype
        gram = ref.conj().T @ ref
        assert np.abs(got.conj().T @ got - gram).max() <= 1e-13 * np.abs(gram).max()


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


# blocks are max(len(a), 1024) wide, or half of a shorter r: a one-term a
# with blocks that do not divide r, blocks of len(a) that do and do not
# divide r, halves of a short r (w under 1024), and two halves against an a
# longer than one of them, at odd and even len(r), past a quarter of r and
# one short of it.  An a within a block carries at _fft_size(w): equal to w
# (2500, 1; 4097, 1024) and above it (1025, 1; 4400, 1100), with len(a) == w
# (4400, 1100; 4097, 1024), and last blocks of one sample (2049, 1;
# 3301, 1100; 4097, 1024)
@pytest.mark.parametrize("n, m", [(2500, 1), (1025, 1), (4400, 1100), (4500, 1100),
                                  (130, 1), (130, 32), (1500, 800), (2049, 2049), (2048, 1025),
                                  (2500, 626), (2500, 2499), (130, 129), (2049, 1), (3301, 1100),
                                  (4097, 1024)])
def test_blocked_series_quotient_matches_forward_substitution(n, m):
    rng = np.random.default_rng(n + m)
    r = rng.normal(size=n)
    a = rng.normal(size=m) / m
    a[0] = 1.0 + abs(rng.normal())
    ref = forward_substitution(r, np.concatenate((a, np.zeros(n - m))))
    got = kinetic_oracle._series_quotient(r, a)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def unfolded_series_quotient(r, a):
    """The blocked quotient with every carry a product at the full length
    _fft_size(2w), as it read before short kernels carried at _fft_size(w)."""
    n, m = len(r), len(a)
    w = min(max(m, 1024), (n + 1) // 2)
    size = kinetic_oracle._fft_size(2 * w)
    times = kinetic_oracle._times
    a_spec, inv = np.fft.rfft(a, size), kinetic_oracle._reciprocal(a, w)
    inv_spec = np.fft.rfft(inv, size)
    err = np.fft.irfft((a_spec if m <= w else np.fft.rfft(a[:w], size)) * inv_spec, size)[:w]
    err[0] -= 1.0
    inv_spec = np.fft.rfft(inv - times(inv_spec, err, size)[:w], size)
    out = np.empty(n)
    for lo in range(0, n, w):
        block = r[lo:lo + w]
        if lo:
            block = block - times(a_spec, out[lo - w:lo], size)[w:w + len(block)]
        out[lo:lo + w] = times(inv_spec, block, size)[:len(block)]
    return out


# criterion 06's thermal modes, and a 400 001-sample trace of ~180 blocks,
# where the rounding each folded carry leaves must not build up
@pytest.mark.parametrize("gas, y, t_end", [(g, float(y), 200.0) for g in ("fermi_0.2", "bose_0.2")
                                           for y in np.linspace(0.36, 0.40, 5)]
                         + [("fermi_0.2", 0.6, 2000.0)])
def test_folded_carry_matches_full_length_carry(gas, y, t_end, monkeypatch, weak_fermion,
                                                 weak_boson):
    sp = weak_fermion if gas == "fermi_0.2" else weak_boson
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    omega = converged_root(k, BranchId.ExactQuadrature, sp, sc).rate.omega
    config = OracleConfig(t_end=t_end)
    run = evolve_mode(k, sp, sc.alpha, config, omega_guess=omega, fit=False)
    assert 2 * run.support <= len(run.times)  # the kernel fits in one block
    monkeypatch.setattr(kinetic_oracle, "_series_quotient", unfolded_series_quotient)
    ref = evolve_mode(k, sp, sc.alpha, config, omega_guess=omega, fit=False).density
    assert np.abs(run.density - ref).max() <= 1e-12 * np.abs(ref).max()


def direct_chirp_z(x, theta, m, shift):
    return x @ np.exp(-1j * theta * np.outer(np.arange(x.shape[-1]) + shift, np.arange(m)))


# blocks are 2n outputs wide: one short block, one exact block, one block and
# a sample, several blocks, and the one-node and one-output edges
@pytest.mark.parametrize("n, m", [(37, 11), (32, 64), (32, 65), (25, 101), (1, 7), (9, 1)])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_chirp_z_matches_direct_sum(n, m, shift):
    rng = np.random.default_rng(n * 1000 + m)
    theta = 0.37
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    ref = direct_chirp_z(x, theta, m, shift)
    got = kinetic_oracle._chirp_z(x, theta, m, shift)
    assert got.shape == (m,)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chirp_z_long_transform():
    # a 2048-node half-grid, a t_end = 200 run's 40 001 samples, and the
    # half-grid starting half a step out
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
    cfg = OracleConfig(dt=0.01, t_end=20.0)
    one = evolve_mode(k, weak_fermion, sc.alpha, cfg, amplitude=1e-6, fit=False)
    two = evolve_mode(k, weak_fermion, sc.alpha, cfg, amplitude=2e-6, fit=False)
    # the doubled run scales every float by an exact power of two
    assert np.array_equal(two.density, 2.0 * one.density)


def test_conjugate_mode_bitwise(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(dt=0.01, t_end=20.0)
    plus = evolve_mode(k, weak_fermion, sc.alpha, cfg, fit=False)
    minus = evolve_mode(-k, weak_fermion, sc.alpha, cfg, fit=False)
    assert np.isrealobj(plus.density)
    assert np.array_equal(minus.density, plus.density)


def test_volterra_matches_plain_rk4(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(dt=0.005, t_end=20.0)
    run = evolve_mode(k, weak_fermion, sc.alpha, cfg, fit=False)
    ref = rk4_at_quarter_step(*thermal_grid(run, weak_fermion, sc))
    assert np.abs(run.density - ref).max() <= 1e-7 * np.abs(ref).max()


@pytest.mark.parametrize("gas", ["fermi", "bose"])
@pytest.mark.parametrize("y", [0.3, 0.38])
def test_folded_volterra_matches_complex_full_grid(gas, y, weak_fermion, weak_fermion_scales,
                                                   weak_boson, weak_boson_scales):
    # the t_end = 200 modes of criterion 06 at y = 0.38, and y = 0.3: the
    # reference takes F and K over every sample, the oracle only over the
    # support of g, which the record says is under a quarter of the trace
    species, sc = {"fermi": (weak_fermion, weak_fermion_scales),
                   "bose": (weak_boson, weak_boson_scales)}[gas]
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(t_end=200.0)
    run = evolve_mode(k, species, sc.alpha, cfg, fit=False)
    ref = complex_volterra(*thermal_grid(run, species, sc))
    assert np.isrealobj(run.density)
    assert np.abs(run.density - ref).max() <= 1e-9 * np.abs(ref).max()
    if y == 0.38:
        assert 9 <= run.support < len(run.times) / 4


THERMAL_GASES = {
    "fermi_0.2": (R.T_FERMI_02, Statistics.FERMI), "bose_0.2": (R.T_BOSE_02, Statistics.BOSE),
    "fermi_0.9": (R.T_FERMI_09, Statistics.FERMI), "bose_0.9": (R.T_BOSE_09, Statistics.BOSE),
    "classical": (R.T_CLASSICAL, Statistics.FERMI),
}


@pytest.mark.parametrize("gas", sorted(THERMAL_GASES))
@pytest.mark.parametrize("y", [0.1, 0.3, 0.45, 0.6])
def test_support_bound_holds(gas, y):
    """The fugacity-series bound on |g(t)|/g(0) lies above the full-length
    transform wherever that is above rounding, and past the support the
    transform is at its rounding floor."""
    temperature, stats = THERMAL_GASES[gas]
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=stats)
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(t_end=200.0)
    run = evolve_mode(k, sp, sc.alpha, cfg, fit=False)
    # f0's transform on the reference grid, over every sample (phi0 is f0 scaled)
    phi0, v, _, _, weights, h, _ = thermal_grid(run, sp, sc)
    dv, half = v[1] - v[0], REF_N_V // 2
    g = kinetic_oracle._chirp_z((2.0 * weights * phi0)[half:], k * dv * h, len(run.times), v[half] / dv).real
    g /= np.dot(phi0, weights)
    assert 9 <= run.support <= len(run.times)
    assert np.abs(g[run.support:]).max(initial=0.0) <= 1e-14
    # the sum stops where the terms left, below about 1e-20 in all, could
    # only raise the bound
    j = np.arange(1.0, math.log(1e-20 * (1.0 - sc.alpha)) / math.log(sc.alpha) + 1.0)
    seen = np.flatnonzero(np.abs(g) > 1e-14)
    decay = (k * run.times[seen]) ** 2 / (4.0 * thermal_beta(sp, sc.alpha))
    bound = np.exp(-np.outer(decay, 1.0 / j)) @ (sc.alpha**j * j**-1.5)
    bound /= abs(zeta_pm(1.5, sc.alpha, stats))
    # for bosons the bound is the series itself, so the slack is the
    # transform's own error: up to 3e-13 relative near g = 0.4, and rounding
    assert np.all(np.abs(g[seen]) <= (1.0 + 1e-12) * bound + 1e-14)


@pytest.mark.parametrize("gap", [1e-6, 1e-12])
def test_support_uncut_near_condensation(gap):
    # a Bose gas within gap of fugacity 1 would need about 1/gap terms of the
    # bound (6e13 at 1e-12, past any memory): its AM-GM envelope is the
    # support instead, which passes the trace, and the grid that keeps its
    # alias past it has ~7e4 half-grid nodes at 1e-6 and is refused at 1e-12
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_0999, statistics=Statistics.BOSE)
    sc = derive_scales(sp)
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    if gap < 1e-9:
        with pytest.raises(DegeneracyOutOfRange, match=r"^fugacity 0\.999999999999 needs \d+ velocity nodes"):
            evolve_mode(k, sp, 1.0 - gap, OracleConfig(t_end=200.0), fit=False)
        return
    start = time.perf_counter()
    run = evolve_mode(k, sp, 1.0 - gap, OracleConfig(t_end=200.0), fit=False)
    assert time.perf_counter() - start < 1.0
    assert run.support == len(run.times) and np.all(np.isfinite(run.density))


def fugacity_series_g(species, alpha, k, times):
    """g(t) from f0's fugacity series, sum_j (-+1)^(j-1) alpha^j j^-1.5
    exp(-(k t)^2/(4 j beta)), over its value at t = 0; the terms left out
    are below 1e-17 in all."""
    fermi = species.statistics is Statistics.FERMI
    j = np.arange(1.0, math.log(1e-17 * (1.0 if fermi else 1.0 - alpha)) / math.log(alpha) + 1.0)
    terms = alpha**j * j**-1.5 * (np.where(j % 2.0 == 1.0, 1.0, -1.0) if fermi else 1.0)
    decay = (k * times) ** 2 / (4.0 * thermal_beta(species, alpha))
    return np.exp(-np.outer(decay, 1.0 / j)) @ terms / terms.sum()


@pytest.mark.parametrize("t_end", [50.0, 200.0])
@pytest.mark.parametrize("y", [1e-3, 0.05, 0.38, 1.5])
@pytest.mark.parametrize("gas", sorted(THERMAL_GASES) + ["bose_0.999"])
def test_thermal_g_matches_fugacity_series(gas, y, t_end, monkeypatch):
    """The support-sized midpoint grid reads g to rounding over the whole
    trace, cut or not: from a kernel that never decays inside it (y = 1e-3)
    to one that ends within a period (y = 1.5), at fugacity up to 0.999."""
    temperature, stats = (R.T_BOSE_0999, Statistics.BOSE) if gas == "bose_0.999" else THERMAL_GASES[gas]
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=stats)
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    seen = {}
    solve = kinetic_oracle._volterra

    def spy(free, kernel, h):
        seen.update(free=free)
        return solve(free, kernel, h)

    monkeypatch.setattr(kinetic_oracle, "_volterra", spy)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(t_end=t_end), fit=False)
    g = seen["free"] / (1e-6 * sp.density)
    picks = np.concatenate((np.arange(200), np.arange(200, len(run.times), 61)))
    ref = fugacity_series_g(sp, sc.alpha, k, run.times[picks])
    assert np.abs(g[picks] - ref).max() <= 5e-14


def test_volterra_takes_a_short_kernel(monkeypatch, weak_fermion, weak_fermion_scales):
    # a thermal run's kernel ends at its support: the solve matches the same
    # kernel padded with zeros, and a replayed prefix longer than the kernel
    # (the blow-up guard's) is a prefix of the whole solve
    sc = weak_fermion_scales
    k = 0.38 * sc.omega_p / math.sqrt(sc.v_th_sq)
    seen = {}
    solve = kinetic_oracle._volterra

    def spy(free, kernel, h):
        seen.update(free=free, kernel=kernel, h=h)
        return solve(free, kernel, h)

    monkeypatch.setattr(kinetic_oracle, "_volterra", spy)
    run = evolve_mode(k, weak_fermion, sc.alpha, OracleConfig(t_end=50.0), fit=False)
    free, kernel, h = seen["free"], seen["kernel"], seen["h"]
    assert len(kernel) == run.support < len(free) and not free[run.support:].any()
    padded = solve(free, np.concatenate((kernel, np.zeros(len(free) - len(kernel)))), h)
    scale = np.abs(padded).max()
    assert np.abs(run.density - padded).max() <= 1e-12 * scale
    steps = run.support + 700
    prefix = solve(free[:steps + 1], kernel[:steps + 1], h)
    assert np.abs(prefix - run.density[:steps + 1]).max() <= 1e-12 * scale


# both sides of the series/closed-form switch at x = 1, and out to x = 1e3
PARABOLA_X = np.concatenate(([0.0, 1e-8, 1e-4, 0.01, 0.1, 0.5], np.linspace(0.99, 1.01, 41),
                             [1.5, 2.0, math.pi, 4.4934, 10.0, 77.7, 100.0, 500.0, 1e3]))


def test_parabola_transform_matches_quadrature():
    got = kinetic_oracle._parabola_transform(PARABOLA_X)
    ref, _ = sharp_parabola_sums(1.0, 1.0, PARABOLA_X, 1.0, 1.0)
    assert np.abs(got - ref).max() <= 1e-13
    assert got[0] == 1.0


@pytest.mark.parametrize("case", ["charged", "neutral"])
def test_degenerate_free_and_kernel_match_quadrature(case, monkeypatch, electron_degenerate,
                                                      neutral_degenerate):
    # k v_F t reaches about 680 (charged) and 1160 (neutral) at t_end = 200;
    # the spy checks that the solve leaves its sampled F and K unchanged
    species, k = {
        "charged": (electron_degenerate, 3.0 * R.K_REF),
        "neutral": (neutral_degenerate, 0.67 * 2.0 * R.M_E * R.V_F / R.HBAR),
    }[case]
    seen = {}
    solve = kinetic_oracle._volterra

    def spy(free, kernel, h):
        seen.update(free=free.copy(), kernel=kernel.copy())
        density = solve(free, kernel, h)
        assert np.array_equal(free, seen["free"]) and np.array_equal(kernel, seen["kernel"])
        return density

    monkeypatch.setattr(kinetic_oracle, "_volterra", spy)
    run = evolve_mode(k, species, None, OracleConfig(t_end=200.0), fit=False)
    assert run.support is None  # the closed g needs no cut
    sc = derive_scales(species)
    picks = np.concatenate((np.arange(200), np.arange(200, len(run.times), 97)))
    free, kernel = sharp_parabola_sums(k, sc.v_ch, run.times[picks], 1e-6 * species.density,
                                       coefficient_C1(k, sc))
    assert k * sc.v_ch * run.times[1] < 0.1 and k * sc.v_ch * run.times[-1] > 500.0
    assert np.abs(seen["free"][picks] - free).max() <= 1e-13 * np.abs(free).max()
    assert np.abs(seen["kernel"][picks] - kernel).max() <= 1e-13 * np.abs(kernel).max()


def test_volterra_sixth_order(weak_fermion, weak_fermion_scales):
    # halving the sample spacing must cut the trace error by about 2^6
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    traces = [
        evolve_mode(k, weak_fermion, sc.alpha, OracleConfig(dt=dt, t_end=20.0),
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
                      OracleConfig(dt=0.01, t_end=20.0), amplitude=0.0)
    assert np.all(run.density == 0.0)
    assert run.omega_fit is None and run.eta_fit is None


def test_trace_starts_at_requested_amplitude(weak_fermion, weak_fermion_scales):
    sc = weak_fermion_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    run = evolve_mode(k, weak_fermion, sc.alpha,
                      OracleConfig(dt=0.01, t_end=20.0),
                      amplitude=1e-6, fit=False)
    assert abs(run.density[0] - 1e-6 * R.N0) < 1e-13 * 1e-6 * R.N0
    assert len(run.density) == len(run.times) == 2001


def test_neutral_boson_free_streaming_decays():
    # no restoring force at all: the mode just phase-mixes away, so the
    # envelope must never grow beyond summation roundoff
    nb = SpeciesParams(mass=R.M_E, charge=0.0, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_02, statistics=Statistics.BOSE)
    alpha = fugacity_from_density(nb)
    run = evolve_mode(1e9, nb, alpha, OracleConfig(dt=0.01, t_end=20.0),
                      bohm_term=False, fit=False)
    mags = np.abs(run.density)
    assert np.all(np.diff(mags) <= 1e-12 * mags[0])
    assert mags[-1] < 1e-10 * mags[0]


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_blowup_guard_fires(monkeypatch, weak_fermion, weak_fermion_scales):
    # a negated C1 reverses the restoring force, so the mode grows; plain RK4
    # at the same spacing first passes the bound at the same sample
    sc = weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    c1 = kinetic_oracle.coefficient_C1
    monkeypatch.setattr(kinetic_oracle, "coefficient_C1", lambda *args, **kwargs: -c1(*args, **kwargs))
    with pytest.raises(NumericalBlowup, match="grew past 1e6 times its start at sample 526$"):
        evolve_mode(k, weak_fermion, sc.alpha, OracleConfig(dt=0.005, t_end=20.0))


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
    # 0.002 keeps a t_end = 80 trace at 40 001 samples
    dt=st.floats(0.002, 0.1 / (2.0 * math.pi), exclude_max=True),
    t_end=st.floats(20.0, 80.0),
    bohm_term=st.booleans(),
    amplitude=st.sampled_from([0.0, 1e-6, 1.0]),
    fit=st.booleans(),
)
def test_evolve_mode_refuses_or_stays_finite(fixture_gases, gas, y, sign, dt, t_end,
                                             bohm_term, amplitude, fit):
    species, alpha, k_unit = fixture_gases[gas]
    cfg = OracleConfig(dt=dt, t_end=t_end)
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
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(dt=0.005, t_end=60.0),
                      omega_guess=root.rate.omega)
    assert rel(run.omega_fit, root.rate.omega) < 1e-8
    assert root.rate.eta < 0.0 and run.eta_fit < 0.0
    assert rel(run.eta_fit, root.rate.eta) < 1e-4


def test_classical_refinement_is_converged(classical_electron,
                                           classical_electron_scales):
    # guess pinned to the root so both runs sample the same window; the
    # damping here is ~1e-6 of omega, and the coarser dt moves it by ~2e-4
    sp, sc = classical_electron, classical_electron_scales
    k = 0.3 * sc.omega_p / math.sqrt(sc.v_th_sq)
    guess = converged_root(k, BranchId.ExactQuadrature, sp, sc).rate.omega
    coarse = evolve_mode(k, sp, sc.alpha,
                         OracleConfig(dt=0.01, t_end=40.0),
                         omega_guess=guess)
    fine = evolve_mode(k, sp, sc.alpha,
                       OracleConfig(dt=0.005, t_end=40.0),
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
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(dt=0.005, t_end=80.0),
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
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(dt=0.005, t_end=20.0),
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


@pytest.mark.parametrize("y, t_end", [(0.18, 50.0), (0.6, 200.0)])
def test_bose_near_condensation_matches_dominant_root(y, t_end):
    """Bose gas at fugacity 0.999, whose f0 peaks over about sqrt(1 - alpha)
    thermal widths: the grid sized from the kernel's support resolves it, and
    the oracle reads the root to 1e-9 omega, also over a trace long enough to
    outlast the support bound (t_end = 200 at y = 0.6)."""
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=R.T_BOSE_0999, statistics=Statistics.BOSE)
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    root = dominant_root(k, sp, sc)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(t_end=t_end))
    assert abs(run.omega_fit - root.rate.omega) <= 1e-9 * root.rate.omega
    assert abs(run.eta_fit - root.rate.eta) <= 1e-9 * root.rate.omega


@settings(max_examples=40, derandomize=True)
@given(statistics=st.sampled_from([Statistics.FERMI, Statistics.BOSE]),
       alpha=st.floats(0.01, 1.0 - 1e-4), y=st.floats(0.1, 0.6))
def test_thermal_oracle_agrees_with_dominant_root(statistics, alpha, y):
    # the temperature that puts the 3/2 occupation sum at alpha, so the gas
    # derive_scales solves is the one drawn; t_end = 200 at every fugacity
    lam = (R.N0 / (2 * zeta_pm(1.5, alpha, statistics))) ** (2.0 / 3.0)
    temperature = PLANCK_H**2 * lam / (2.0 * math.pi * R.M_E * K_B)
    sp = SpeciesParams(mass=R.M_E, charge=-R.Q_E, spin_degeneracy=2, density=R.N0,
                       temperature=temperature, statistics=statistics)
    sc = derive_scales(sp)
    k = y * sc.omega_p / math.sqrt(sc.v_th_sq)
    root = dominant_root(k, sp, sc)
    run = evolve_mode(k, sp, sc.alpha, OracleConfig(t_end=200.0))
    assert oracle_agrees(root.rate.omega, root.rate.eta, run.omega_fit, run.eta_fit)


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
    run = evolve_mode(k, sp, None, OracleConfig(t_end=100.0))
    assert rel(run.omega_fit, root.rate.omega) < 1e-8
    assert abs(run.eta_fit) < 1e-8 * run.omega_fit


@pytest.mark.parametrize("x", [0.05, 0.1, 0.15, 1.0, 1.15])
def test_degenerate_mode_reads_no_growth_at_default_grid(x, electron_degenerate,
                                                         electron_degenerate_scales):
    # the T = 0 modes of the benchmark's compare window at its t_end, and the
    # resonant small-k end, where the kernel is as long as the trace
    root = converged_root(x * R.K_REF, BranchId.ExactDegenerate, electron_degenerate,
                          electron_degenerate_scales)
    run = evolve_mode(x * R.K_REF, electron_degenerate, None, OracleConfig(t_end=200.0))
    assert rel(run.omega_fit, root.rate.omega) <= 1e-10
    assert abs(run.eta_fit - root.rate.eta) <= 1e-11 * root.rate.omega


def test_zero_sound_mode_is_undamped(neutral_degenerate, neutral_degenerate_scales):
    # kappa = hbar k/(2 m v_F) = 0.67: the phase velocity is 1.084 v_F, outside
    # the sharp Fermi sphere, so the exact T = 0 root has no damping
    sp, sc = neutral_degenerate, neutral_degenerate_scales
    k = 0.67 * 2.0 * R.M_E * R.V_F / R.HBAR
    root = converged_root(k, BranchId.ExactDegenerate, sp, sc)
    assert root.rate.eta == 0.0
    run = evolve_mode(k, sp, None, OracleConfig(t_end=200.0), omega_guess=root.rate.omega)
    assert rel(run.omega_fit, root.rate.omega) <= 1e-8
    assert abs(run.eta_fit) <= 1e-8 * root.rate.omega


@pytest.mark.parametrize("kappa", [0.6, 0.9, 0.95, 2.0, 60.0])
def test_neutral_degenerate_default_guess_is_larger_form(kappa, neutral_degenerate,
                                                        neutral_degenerate_scales):
    # zero sound up to kappa = hbar k/(2 m v_F) ~ 0.9; past it the quantum
    # term sets the mode, far above k v_F, and the C1 form is the larger
    sp, sc = neutral_degenerate, neutral_degenerate_scales
    k = kappa * sc.v_ch / math.sqrt(sc.lambda_quantum)
    run = evolve_mode(k, sp, None, OracleConfig(t_end=20.0), fit=False)
    form = omega_zero_sound if kappa <= 0.9 else omega_c1_corrected
    assert run.omega_guess == form(k, sc) == max(omega_zero_sound(k, sc), omega_c1_corrected(k, sc))


@pytest.mark.parametrize("kappa", [2.0, 4.0, 16.0, 35.0])
def test_quantum_sound_mode_matches_root(kappa, neutral_degenerate, neutral_degenerate_scales):
    # with a zero-sound guess these traces drew FitAmbiguous (kappa 2-16) or
    # NumericalBlowup (35) at the default t_end
    sp, sc = neutral_degenerate, neutral_degenerate_scales
    k = kappa * sc.v_ch / math.sqrt(sc.lambda_quantum)
    root = dominant_root(k, sp, sc)
    run = evolve_mode(k, sp, None)
    assert root.rate.eta == 0.0
    assert rel(run.omega_fit, root.rate.omega) <= 1e-9
    assert abs(run.eta_fit) <= 1e-10 * root.rate.omega


def test_blowup_refused_without_numpy_warning(neutral_degenerate, neutral_degenerate_scales):
    # a zero-sound guess at kappa 60 sets dt for a mode ~60 times slower than
    # the true one: the trace overflows to inf and NaN, and the typed refusal
    # must come out under the suite's error::RuntimeWarning filter
    sp, sc = neutral_degenerate, neutral_degenerate_scales
    k = 60.0 * sc.v_ch / math.sqrt(sc.lambda_quantum)
    with pytest.raises(NumericalBlowup, match="grew past 1e6"):
        evolve_mode(k, sp, None, omega_guess=omega_zero_sound(k, sc))


@settings(max_examples=40, derandomize=True)
@given(x=st.floats(0.05, 3.0))
def test_degenerate_mode_matches_root_or_refuses(electron_degenerate, electron_degenerate_scales, x):
    # charged T = 0 gas at k v_F/Omega_p = x, default config: no velocity grid
    # to miss the resonance, so the oracle reads the root or names its refusal
    sp, sc = electron_degenerate, electron_degenerate_scales
    root = converged_root(x * R.K_REF, BranchId.ExactDegenerate, sp, sc)
    try:
        run = evolve_mode(x * R.K_REF, sp, None)
    except DisperseError:
        return
    assert rel(run.omega_fit, root.rate.omega) <= 1e-8
    assert abs(run.eta_fit) <= 1e-8 * root.rate.omega


def test_fit_independent_of_omega_guess(weak_fermion, weak_fermion_scales):
    sp, sc = weak_fermion, weak_fermion_scales
    k = 0.375 * sc.omega_p / math.sqrt(sc.v_th_sq)
    cfg = OracleConfig(dt=0.005, t_end=60.0)
    mid = evolve_mode(k, sp, sc.alpha, cfg)
    lo = evolve_mode(k, sp, sc.alpha, cfg, omega_guess=0.8 * mid.omega_fit)
    hi = evolve_mode(k, sp, sc.alpha, cfg, omega_guess=1.2 * mid.omega_fit)
    assert rel(lo.omega_fit, hi.omega_fit) < 1e-8
    assert rel(lo.eta_fit, hi.eta_fit) < 1e-5
