"""Time-domain kinetic cross-check for the dispersion solver.

Evolves the linearized single-mode kinetic system on a velocity grid,

    d phi_j / dt = -i k v_j phi_j + i Lambda N(t) f0'(v_j),
    Lambda = (Omega_p^2 + hbar^2 k^4 / 4 m^2) / (k n0),
    N(t) = trapezoid(phi),

where both force terms (Coulomb and quantum pressure) enter with the same
sign; they are the two pieces of the restoring coefficient C1.  The
(omega, eta) that a matrix pencil reads off the recorded N(t)
(fit_omega_eta) provide a root check that shares nothing with the residual
evaluations: no occupation sums, no error functions, no contour
bookkeeping.

Streaming is diagonal and the coupling is rank one, so N obeys exactly the
convolution Volterra equation N = F + K * N, Landau's initial-value problem
on the grid: F streams phi(0) freely and K streams i Lambda f0'.  The grid
is symmetric with n_v even, f0 is even in v and the kick is shaped like f0,
so F is a cosine sum and K a sine sum over the positive half-grid, and N is
real: the same at k and -k.  Both sums come from one blocked chirp-z
transform (_chirp_z): batched FFTs of about 3 n_v/2 points, O(n_t log n_v).
The history integral is sampled at t_m = m dt with sixth-order Gregory end
weights after a nine-sample starting block, which leaves one lower-triangular
Toeplitz system, solved as a real power-series quotient with real FFT
products in O(n_t log n_t) (_volterra).

For the fully degenerate gas the step edge of the distribution is smoothed
by a sigmoid of width delta_v = v_F/200 so its derivative is
grid-representable; the pair (f0_smooth, f0'_smooth) below is an exact
antiderivative/derivative pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dispersion_core import (
    coefficient_C1,
    omega_degenerate_bohm_gross,
    omega_weak_simple,
    omega_zero_sound,
)
from .errors import FitAmbiguous, GridResonanceUnderresolved, NumericalBlowup
from .quantum_stats import PLANCK_H, SpeciesParams, reduced_fz, reduced_fz_derivative, scales_at


@dataclass(frozen=True)
class OracleConfig:
    """Grid and integration controls.

    v_max is a multiple of the gas velocity scale (max(v_ch, v_th) thermal,
    v_F degenerate); None selects 8 for thermal gases and 1.5 for full
    degeneracy.  dt, the spacing of the recorded density samples, is a
    fraction of one oscillation period 2 pi/omega_guess; t_end counts periods.
    Every run starts from a density kick shaped like f0.

    Known limit: on the neutral T = 0 gas a zero-sound phase velocity within
    a few edge widths of v_F reads damping (eta/omega down to -1e-2) that the
    sharp Fermi sphere does not have.
    """

    n_v: int = 4096
    v_max: float | None = None
    dt: float = 0.005
    t_end: float = 50.0

    def __post_init__(self):
        if self.n_v < 256 or self.n_v % 2 != 0:
            raise ValueError("n_v must be even and at least 256")
        if not 0.0 < 2.0 * math.pi * self.dt < 0.1:
            raise ValueError("dt (fraction of a period) must keep dt*omega below 0.1")
        if not self.t_end >= 20.0:
            raise ValueError("t_end must cover at least 20 periods")
        # 10^6 samples: 25x a t_end = 200 run at the default dt, 16 MB a trace
        if not self.t_end / self.dt < 1_000_000.5:
            raise ValueError("dt too small: t_end / dt must round to at most 10^6 samples")
        if self.v_max is not None and not self.v_max > 0:
            raise ValueError("v_max multiple must be positive")


@dataclass
class OracleRun:
    """Recorded density trace of one mode (real floats from evolve_mode) plus
    its dominant pole near omega_guess and the pencil's relative misfit
    (fit_omega_eta fills them in unless the run started from zero)."""

    k: float
    omega_guess: float
    times: np.ndarray
    density: np.ndarray
    omega_fit: float | None = None
    eta_fit: float | None = None
    fit_residual: float | None = None


def _degenerate_pair(v: np.ndarray, v_f: float, a_w: float, delta: float):
    # smoothed ground-state parabola and its exact derivative:
    #   f0  = 2 pi a v_F delta * log(1 + exp(u)),  u = (v_F^2 - v^2)/(2 v_F delta)
    #   f0' = -2 pi a v * sigmoid(u)
    u = (v_f * v_f - v * v) / (2.0 * v_f * delta)
    sig = np.where(u >= 0, 1.0 / (1.0 + np.exp(-np.abs(u))), np.exp(-np.abs(u)) / (1.0 + np.exp(-np.abs(u))))
    soft = np.where(u > 36.0, u, np.log1p(np.exp(np.minimum(u, 36.0))))
    f0 = 2.0 * math.pi * a_w * v_f * delta * soft
    fp = -2.0 * math.pi * a_w * v * sig
    return f0, fp


# sixth-order Gregory end weights: the trapezoid rule with these at both ends
# is exact through degree 5 once a row has 10 or more nodes
_GREGORY = (95 / 288, 317 / 240, 23 / 30, 793 / 720, 157 / 160)

# starting block: row m - 1 holds 3628800 * integral over [0, m] of the
# Lagrange basis on nodes 0..8, m = 1..8 (degree-8 interpolatory weights)
_START = (
    (1070017, 4467094, -4604594, 5595358, -5033120, 3146338, -1291214, 312874, -33953),
    (1036064, 5842688, -1359808, 3842816, -3715840, 2391296, -996928, 243968, -26656),
    (1043361, 5743062, 278478, 6474654, -4548960, 2789154, -1139022, 275562, -29889),
    (1040128, 5779456, 62464, 8384512, -2324480, 2363392, -1012736, 249856, -27392),
    (1042625, 5753750, 188750, 7958750, -100000, 4273250, -1228750, 286250, -30625),
    (1039392, 5785344, 46656, 8356608, -933120, 6905088, 409536, 186624, -23328),
    (1046689, 5716438, 340942, 7601566, 384160, 5152546, 3654322, 1562218, -57281),
    (1012736, 6029312, -950272, 10747904, -4648960, 10747904, -950272, 6029312, 1012736),
)


@functools.lru_cache(maxsize=256)
def _fft_size(n):
    """Smallest 2^a 3^b 5^c >= n with b + c <= 3: a length the FFT handles at
    full speed (a longer odd part saves less length than the speed it costs)."""
    odd_parts = (3**b * 5**c for b in range(4) for c in range(4 - b))
    return min(q << (-(-n // q) - 1).bit_length() for q in odd_parts)


def _times(spec, y, n):
    """Cyclic product, at length n, of real y with the real series whose rfft is spec."""
    return np.fft.irfft(spec * np.fft.rfft(y, n), n)


def _chirp_z(x, theta, m, shift=0.0):
    """X_q = sum_j x_j exp(-i theta (j + shift) q), q = 0..m-1, for each row x
    of length n.  The outputs go in blocks of width 2n, q = b width + r, and
    block b is one Bluestein transform of x_j exp(-i theta width (j + shift) b):
    jr = (j^2 + r^2 - (r - j)^2)/2 turns its sum over j into one convolution
    with the chirp c_l = exp(-i theta l^2/2), l < width, which every block
    shares, so all of them go through one batched FFT of about 3n points.
    The shift leaves exp(-i theta shift r) on the outputs, folded into c_r."""
    n = x.shape[-1]
    width = 2 * n
    chirp = np.exp((-0.5j * theta) * np.arange(width) ** 2)
    size = _fft_size(n + width - 1)
    spec = np.fft.fft(np.concatenate((chirp, np.zeros(size - width - n + 1), chirp[n - 1:0:-1])).conj())
    twiddle = np.ones((-(-m // width), n), complex)
    twiddle[1:] = np.exp((-1j * theta * width) * (np.arange(n) + shift))
    twiddle = np.cumprod(twiddle, axis=0) * chirp[:n]  # row b: exp(-i theta width (j + shift) b) c_j
    blocks = np.fft.ifft(spec * np.fft.fft(x[..., None, :] * twiddle, size))[..., :width]
    blocks *= chirp * np.exp((-1j * theta * shift) * np.arange(width))
    return blocks.reshape(x.shape[:-1] + (-1,))[..., :m]


def _series_quotient(r, a):
    """First len(r) coefficients of the real power series r(z)/a(z).

    Newton doubling builds 1/a (each step doubles the exact prefix); the last
    step folds r in instead (Karp-Markstein), so no product needs more than
    len(r) coefficients: where a cyclic product wraps, it wraps onto
    coefficients the step already knows.  Each step transforms inv once for
    both of its products.
    """
    n = len(r)
    sizes = [n, (n + 1) // 2]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    sizes.reverse()  # 1, 2, ..., ceil(n/2), n
    inv = np.array([1.0 / a[0]])
    for lo, hi in zip(sizes[:-2], sizes[1:-1]):
        inv_spec = np.fft.rfft(inv, size := _fft_size(hi))
        err = _times(inv_spec, a[:hi], size)[lo:hi]  # a * inv - 1 vanishes below lo
        inv = np.concatenate((inv, -_times(inv_spec, err, size)[:hi - lo]))
    half, size = sizes[-2], _fft_size(n)
    inv_spec = np.fft.rfft(inv, size)
    head = _times(inv_spec, r[:half], size)[:half]
    tail = r[half:] - _times(np.fft.rfft(a, size), head, size)[half:n]
    return np.concatenate((head, _times(inv_spec, tail, size)[:n - half]))


def _volterra(phi0, v, k, coupling, weights, h, n_steps):
    """Density N(t_m), t_m = m h, m = 0..n_steps, of
    phi_j' = -i k v_j phi_j + coupling_j N, N = weights . phi, for k > 0.

    Streaming is exact, so N = F + K * N with F(t) = sum_j w_j phi_j(0)
    e^{-i k v_j t} and K(t) = sum_j w_j coupling_j e^{-i k v_j t}.  The grid
    is symmetric (n_v even), phi(0) is even in v and coupling is i times an
    odd real function, so F is the cosine sum of 2 w phi(0) and K the sine
    sum of 2 Im(w coupling) over the positive half-grid: both real, and two
    rows of one blocked chirp-z transform there.  Rows 1..8 solve together
    with degree-8 interpolatory weights; K at their lags -7..8 comes from the
    same transform (K is odd).  Every later row m integrates with the Gregory
    weights, which factor as sigma_l gamma_{m-l}: the end weights at node l
    from the start and at lag m - l from the end, both 1 past the fifth.
    That makes the rest one lower-triangular Toeplitz system, a real
    power-series quotient.
    """
    half = len(v) // 2
    dv = v[1] - v[0]
    parts = (2.0 * weights * np.stack((phi0, coupling.imag)))[:, half:]  # cos, sin sums
    sums = _chirp_z(parts, k * dv * h, n_steps + 1, v[half] / dv)
    free, kernel = sums[0].real, -sums[1].imag

    k_near = np.concatenate((-kernel[7:0:-1], [0.0], kernel[1:9]))  # lags -7..8: K is odd in t
    lag = np.subtract.outer(np.arange(1, 9), np.arange(9))  # m - l
    block = (-h / 3628800.0) * np.array(_START) * k_near[lag + 7]
    block[:, 1:] += np.eye(8)
    rows = np.linalg.solve(block[:, 1:], free[1:9] - block[:, 0] * free[0])
    start = np.concatenate((free[:1], rows))

    # rows m >= 9 read (a * sigma N)_m = F_m with a = 1 - h gamma K, and sigma N
    # = N past node 4; rows 0..8 of the right side are (a * sigma N)_m of the
    # starting values, so one quotient reproduces them and carries on
    kernel *= -h
    kernel[:5] *= _GREGORY
    kernel[0] += 1.0
    free[:9] = np.convolve(kernel[:9], np.array(_GREGORY + (1.0,) * 4) * start)[:9]
    density = _series_quotient(free, kernel)
    density[:9] = start
    return density


def _first_breach(density):
    """Index of the first sample with |N| > 1e6 |N_0| (NaN included), or None."""
    over = np.flatnonzero(~(np.abs(density) <= 1e6 * abs(density[0])))
    return int(over[0]) if over.size else None


def evolve_mode(
    k: float,
    species: SpeciesParams,
    alpha: float | None,
    config: OracleConfig = OracleConfig(),
    *,
    bohm_term: bool = True,
    omega_guess: float | None = None,
    amplitude: float = 1e-6,
    fit: bool = True,
) -> OracleRun:
    """Integrate one Fourier mode and (optionally) fit its density trace.

    alpha = None selects the fully degenerate gas.  k may be negative: the
    trace is real, so it is the same at k and -k.  amplitude scales the
    initial density perturbation relative to n0; 0 gives the trivial zero
    run (fit skipped).  A trace that grows past 1e6 |N_0| raises
    NumericalBlowup naming the first sample over.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    k_abs = abs(k)
    degenerate = alpha is None
    scales = scales_at(species, alpha)
    v_ch = scales.v_ch

    if omega_guess is None:
        if degenerate:
            if species.charge != 0.0:
                omega_guess = omega_degenerate_bohm_gross(k_abs, scales, bohm_term=bohm_term)
            else:
                omega_guess = omega_zero_sound(k_abs, scales, bohm_term=bohm_term)
        else:
            omega_guess = omega_weak_simple(k_abs, species, scales, bohm_term=bohm_term)
    if not omega_guess > 0:
        raise ValueError("omega_guess must be positive")

    # v_th_sq is 0.0 for the degenerate gas, so the scale is v_F there
    multiple = config.v_max if config.v_max is not None else (1.5 if degenerate else 8.0)
    v_max = multiple * max(v_ch, math.sqrt(scales.v_th_sq))
    if v_max < omega_guess / k_abs:
        raise ValueError(
            f"velocity grid to {v_max:.4g} m/s does not cover the resonant velocity "
            f"{omega_guess / k_abs:.4g} m/s; raise v_max"
        )

    n_v = config.n_v
    v = np.linspace(-v_max, v_max, n_v)
    dv = v[1] - v[0]
    dt = config.dt * 2.0 * math.pi / omega_guess
    n_steps = int(round(config.t_end / config.dt))
    t_end_abs = n_steps * dt
    if k_abs * v_max * t_end_abs > n_v * math.pi:
        raise GridResonanceUnderresolved(
            f"phase-mixing scale k*v_max*t_end = {k_abs * v_max * t_end_abs:.4g} exceeds "
            f"n_v*pi = {n_v * math.pi:.4g}; refine n_v or shorten t_end"
        )

    a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
    if degenerate:
        delta = v_ch / 200.0
        if dv > delta / 4.0:
            raise ValueError(
                f"grid spacing {dv:.4g} m/s cannot resolve the smoothed edge width "
                f"{delta:.4g} m/s; raise n_v"
            )
        f0, fprime = _degenerate_pair(v, v_ch, a_w, delta)
    else:
        f0 = reduced_fz(v, species, alpha)
        fprime = reduced_fz_derivative(v, species, alpha)

    weights = np.full(n_v, dv)
    weights[0] *= 0.5
    weights[-1] *= 0.5

    # pin the grid's density to n0 so the restoring term sees the same
    # normalization the residuals use (edge smoothing adds O((delta/v_F)^2))
    norm = np.dot(f0, weights) / species.density
    f0 = f0 / norm
    fprime = fprime / norm

    phi0 = (amplitude * species.density / np.dot(f0, weights)) * f0

    c1 = coefficient_C1(k_abs, scales, bohm_term=bohm_term)
    coupling = (1j * c1 / (k_abs * species.density)) * fprime
    density = _volterra(phi0, v, k_abs, coupling, weights, dt, n_steps)
    if _first_breach(density) is not None:
        # the solve is causal: a shorter run is a prefix of this one that keeps
        # the roundoff of a huge late tail out of the early samples
        steps, breach = 16, None
        while breach is None:
            breach = _first_breach(_volterra(phi0, v, k_abs, coupling, weights, dt, steps))
            steps = min(2 * steps, n_steps)
        raise NumericalBlowup(f"density grew past 1e6 times its start at sample {breach}")

    run = OracleRun(k=k, omega_guess=omega_guess, times=np.arange(n_steps + 1) * dt, density=density)
    if fit and density[0] != 0.0:
        run.omega_fit, run.eta_fit, run.fit_residual = fit_omega_eta(run)
    return run


# Hankel columns of the pencil: a tall, thin matrix keeps the SVD cheap (a
# pencil near N/3 makes it about N/3 square); the order of the fitted model;
# the largest misfit the fit accepts, as a share of the mode's own amplitude
_PENCIL = 33
_ORDER = 12
_MAX_MISFIT = 1e-2


def fit_omega_eta(run: OracleRun):
    """Extract (omega_fit, eta_fit, fit_residual) from the density trace.

    A matrix pencil (Hua and Sarkar, IEEE Trans. ASSP 38 (1990) 814) fits
    _ORDER damped exponentials to the trace past its first 5%, decimated to
    about 8 samples per period of omega_guess (spacing h): the poles are
    s = log(eig(V1^+ V2))/h, V the leading right singular vectors of a Hankel
    matrix with _PENCIL columns and V1, V2 its rows but the last or the
    first; least squares gives each term's amplitude, its norm over the
    window.  The mode
    is the largest-amplitude pole with |Im s| within 30% of omega_guess.  A
    pole and its conjugate mirror (a real trace holds both) count once, and
    the fit reports the Im s > 0 member.  fit_residual is the relative misfit
    of the whole model.  FitAmbiguous: a second pole near the guess within
    3 dB of the mode, a misfit above _MAX_MISFIT of the mode's amplitude, no
    pole near the guess, or a failed decomposition.
    """
    dt = run.times[1] - run.times[0]
    step = max(1, int(2.0 * math.pi / (8.0 * run.omega_guess * dt)))
    z = run.density[len(run.density) // 20::step]
    periods = (len(z) - 1) * step * dt * run.omega_guess / (2.0 * math.pi)
    if periods < 10.0 or len(z) < 3 * _PENCIL:
        raise ValueError(
            f"density trace too short to fit: {len(z)} samples over {periods:.1f} periods "
            f"after the transient cut; need {3 * _PENCIL} samples and 10 periods"
        )
    try:
        # a zero pole or a singular pencil is left to the checks below
        with np.errstate(all="ignore"):
            # the triangle of a QR has the Hankel matrix's right singular vectors
            hankel = np.lib.stride_tricks.sliding_window_view(z, _PENCIL)
            v = np.linalg.svd(np.linalg.qr(hankel, mode="r"))[2][:_ORDER].T
            # complex, or a negative real eigenvalue of a real pencil logs to NaN
            log_z = np.log(np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:]).astype(complex))
            # each term is scaled to 1 at its largest sample, so none overflows
            powers = np.arange(len(z))[:, None] * log_z
            terms = np.exp(powers - np.maximum(powers.real[-1], 0.0))
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
    if not misfit <= _MAX_MISFIT * amp[best]:
        raise FitAmbiguous(
            f"misfit {misfit / amp[best]:.3g} of the mode's amplitude, above {_MAX_MISFIT:g}"
        )
    mode = s[max(pair, key=lambda i: s[i].imag)]
    return abs(float(mode.imag)), float(mode.real), float(misfit / np.linalg.norm(z))
