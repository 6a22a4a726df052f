"""Time-domain kinetic cross-check for the dispersion solver.

Evolves the linearized single-mode kinetic system

    d phi(v) / dt = -i k v phi(v) + i Lambda N(t) f0'(v),
    Lambda = (Omega_p^2 + hbar^2 k^4 / 4 m^2) / (k n0),
    N(t) = integral of phi over v,

where both force terms (Coulomb and quantum pressure) enter with the same
sign; they are the two pieces of the restoring coefficient C1.  The
(omega, eta) that a matrix pencil reads off the recorded N(t)
(fit_omega_eta) provide a root check that shares nothing with the residual
evaluations: no occupation sums, no error functions, no contour
bookkeeping.

Streaming is diagonal and the coupling is rank one, so N obeys exactly the
convolution Volterra equation N = F + K * N, Landau's initial-value problem:
F streams phi(0) freely and K streams i Lambda f0'.  f0 is even in v and the
kick is shaped like f0, so both come from one cosine transform g(t) of f0,
normalised to g(0) = 1: F = amplitude n0 g and, by parts (the edge term
vanishes with f0), K = -C1 t g.  N is real: the same at k and -k.  For a
thermal gas g is a midpoint sum over the positive half of a symmetric
velocity grid, one blocked chirp-z transform (_chirp_z) over the samples
where an a-priori bound leaves g above rounding (_support); F is zero past
them and K ends there.  dv keeps the sum's first alias, g(2 pi/(k dv) - t),
past that support.  For the fully degenerate gas f0 is the sharp parabola,
so no grid is needed: g is closed (_parabola_transform).  The history
integral is sampled at t_m = m dt with sixth-order Gregory end weights after
a nine-sample starting block, which leaves one lower-triangular Toeplitz
system, solved as a real power-series quotient with real FFT products
(_volterra), in blocks of w samples, w the kernel's length or at most half
the trace: O(n_t log w).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dispersion_core import (
    check_wavenumber,
    coefficient_C1,
    omega_c1_corrected,
    omega_degenerate_bohm_gross,
    omega_weak_simple,
    omega_zero_sound,
)
from .errors import DegeneracyOutOfRange, FitAmbiguous, NumericalBlowup
# unused here, reduced_fz_derivative stays importable: the benchmark's tracer patches it by this name
from .quantum_stats import SpeciesParams, reduced_fz, reduced_fz_derivative, scales_at  # noqa: F401
from .quantum_stats import Statistics, thermal_beta, with_bohm_term, zeta_pm


@dataclass(frozen=True)
class OracleConfig:
    """Integration controls.

    dt, the spacing of the recorded density samples, is a fraction of one
    oscillation period 2 pi/omega_guess; t_end counts periods.  Every run
    starts from a density kick shaped like f0.  A thermal gas's velocity
    grid is sized from its kernel's support, so it takes no control.
    """

    dt: float = 0.005
    t_end: float = 50.0

    def __post_init__(self):
        if not 0.0 < 2.0 * math.pi * self.dt < 0.1:
            raise ValueError("dt (fraction of a period) must keep dt*omega below 0.1")
        if not self.t_end >= 20.0:
            raise ValueError("t_end must cover at least 20 periods")
        # 10^6 samples: 25x a t_end = 200 run at the default dt, 16 MB a trace
        if not self.t_end / self.dt < 1_000_000.5:
            raise ValueError("dt too small: t_end / dt must round to at most 10^6 samples")


@dataclass
class OracleRun:
    """Recorded density trace of one mode (real floats from evolve_mode) plus
    its dominant pole near omega_guess and the pencil's relative misfit
    (fit_omega_eta fills them in unless the run started from zero).  support
    is the number of F and K samples a thermal run used (None at T = 0)."""

    k: float
    omega_guess: float
    times: np.ndarray
    density: np.ndarray
    omega_fit: float | None = None
    eta_fit: float | None = None
    fit_residual: float | None = None
    support: int | None = None


# Taylor coefficients of g(x) in x^2, highest first: (-1)^m 6 (m + 1)/(2m + 3)!
# for m = 0..9; the first one left out is below 3e-21 at x < 1
_PARABOLA_SERIES = [(-1) ** m * 6 * (m + 1) / math.factorial(2 * m + 3) for m in range(9, -1, -1)]


def _parabola_transform(x):
    """g(x) = 3 (sin x - x cos x)/x^3 = (3/4) int_{-1}^{1} (1 - u^2) cos(x u) du,
    the transform of the normalized T = 0 parabola, for ascending x >= 0.
    The closed form cancels to a relative 1e-15/x^2, so the leading samples
    below x = 1 take the Taylor series instead."""
    small, big = np.split(x, [np.searchsorted(x, 1.0)])
    return np.concatenate((np.polyval(_PARABOLA_SERIES, small * small),
                           3.0 * (np.sin(big) - big * np.cos(big)) / big**3))


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
    """X_q = sum_j x_j exp(-i theta (j + shift) q), q = 0..m-1, for x of
    length n.  The outputs go in blocks of width 2n, q = b width + r, and
    block b is one Bluestein transform of x_j exp(-i theta width (j + shift) b):
    jr = (j^2 + r^2 - (r - j)^2)/2 turns its sum over j into one convolution
    with the chirp c_l = exp(-i theta l^2/2), l < width, which every block
    shares, so all of them go through one batched FFT of about 3n points.
    The shift leaves exp(-i theta shift r) on the outputs, folded into c_r."""
    n = len(x)
    width = 2 * n
    chirp = np.exp((-0.5j * theta) * np.arange(width) ** 2)
    size = _fft_size(n + width - 1)
    spec = np.fft.fft(np.concatenate((chirp, np.zeros(size - width - n + 1), chirp[n - 1:0:-1])).conj())
    twiddle = np.ones((-(-m // width), n), complex)
    twiddle[1:] = np.exp((-1j * theta * width) * (np.arange(n) + shift))
    twiddle = np.cumprod(twiddle, axis=0) * chirp[:n]  # row b: exp(-i theta width (j + shift) b) c_j
    blocks = np.fft.ifft(spec * np.fft.fft(x * twiddle, size))[:, :width]
    blocks *= chirp * np.exp((-1j * theta * shift) * np.arange(width))
    return blocks.ravel()[:m]


def _reciprocal(a, n):
    """First n coefficients of the real power series 1/a(z), a zero past its
    samples, by Newton doubling: each step doubles the exact prefix and
    transforms inv once for both of its products."""
    sizes = [n]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    inv = np.array([1.0 / a[0]])
    for lo, hi in zip(sizes[:0:-1], sizes[-2::-1]):  # (1, 2), ..., (ceil(n/2), n)
        inv_spec = np.fft.rfft(inv, size := _fft_size(hi))
        err = _times(inv_spec, a[:hi], size)[lo:hi]  # a * inv - 1 vanishes below lo
        inv = np.concatenate((inv, -_times(inv_spec, err, size)[:hi - lo]))
    return inv


def _series_quotient(r, a):
    """First len(r) coefficients of the real power series r(z)/a(z), for
    len(a) <= len(r) (a is zero past its samples).

    The quotient fills blocks of w = min(max(len(a), 1024), ceil(len(r)/2))
    coefficients in turn (shorter blocks cost more in calls than in FFT
    length): 1/a to w terms, transformed once, times the block of r less the
    carry of a against the block before: a * out of that block, at length
    h = _fft_size(w) < 2w where len(a) <= w.  There the product wraps once,
    and what wraps onto its low coefficients is that block's own r less
    carry (a * inv = 1 to w terms), which the carry subtracts.  A longer a
    makes exactly two blocks, whose carry holds all of a against the first.
    Products with 1/a run at length 2w or more, so where one wraps, it
    wraps onto coefficients below the block.  One Newton step over all of
    1/a, against a[:w], first takes the doubling's accumulated error
    (a * inv - 1 up to 1e-12 on a resonant kernel, which would feed the
    undamped mode) down to one product's rounding.
    """
    n, m = len(r), len(a)
    w = min(max(m, 1024), (n + 1) // 2)
    size = _fft_size(2 * w)
    inv = _reciprocal(a, w)
    inv_spec = np.fft.rfft(inv, size)
    err = _times(inv_spec, a[:w], size)[:w]
    err[0] -= 1.0
    inv_spec = np.fft.rfft(inv - _times(inv_spec, err, size)[:w], size)
    carry_size = _fft_size(w) if m <= w else size
    wrap = max(2 * w - carry_size, 0)
    a_spec = np.fft.rfft(a, carry_size)
    out, side = np.empty(n), r[:w]
    out[:w] = _times(inv_spec, side, size)[:w]
    for lo in range(w, n, w):
        carry = _times(a_spec, out[lo - w:lo], carry_size)
        side = r[lo:lo + w] - np.concatenate((carry[w:], carry[:wrap] - side[:wrap]))[:min(w, n - lo)]
        out[lo:lo + w] = _times(inv_spec, side, size)[:len(side)]
    return out


# |g(t)| below this share of g(0) is double rounding: a thermal F and K end there
_SUPPORT_TOL = 2.0**-53
# the most fugacity-series terms a support bound sums (each bisection step
# takes one exponential a term)
_SUPPORT_TERMS = 8192
# the most half-grid velocity nodes a thermal run takes (fugacity within
# about 3e-7 of 1)
_MAX_NODES = 2**17


def _support(species, alpha, k, dt):
    """Samples t_m = m dt that a thermal g needs, which may pass the trace:
    the first m >= 9 (past the starting block) where an a-priori bound puts
    |g(t_m)| below _SUPPORT_TOL g(0).  f0 is the fugacity series
    sum_j (-+1)^(j-1) alpha^j exp(-j beta v^2)/j, whose terms transform to
    Gaussians in t, so |g(t)| |zeta_pm(1.5, alpha)| is at most
    sum_j alpha^j j^-1.5 exp(-(k t)^2/(4 j beta)), which falls with t: n_terms
    of it, and at most alpha^(n_terms + 1)/(1 - alpha) for the rest.  By
    AM-GM each term is at most j^-1.5 exp(-k t sqrt(-ln alpha/beta)), which
    ends the bisection; past _SUPPORT_TERMS terms (fugacity above about
    0.995) that envelope gives the support itself.
    """
    tol = _SUPPORT_TOL * abs(zeta_pm(1.5, alpha, species.statistics))
    beta = thermal_beta(species, alpha)
    n_terms = math.ceil(math.log(0.5 * tol * (1.0 - alpha)) / math.log(alpha))
    if n_terms <= _SUPPORT_TERMS:
        tol -= alpha ** (n_terms + 1) / (1.0 - alpha)  # at most half of it
    # the envelope's crossing; up to 2^500 the bisection's m^2 is a finite double
    decay = k * dt * math.sqrt(-math.log(alpha) / beta)
    span = math.log(zeta_pm(1.5, 1.0, Statistics.BOSE) / tol)
    if not span < decay * 2.0**500:
        raise ValueError(f"k = {k!r} is too small: the support of g would pass 2^500 samples")
    hi = max(9, math.floor(span / decay) + 1)
    if n_terms > _SUPPORT_TERMS:
        return hi
    j = np.arange(1.0, n_terms + 1.0)
    weights, rate = alpha**j * j**-1.5, (k * dt) ** 2 / (4.0 * beta) / j
    lo = 9  # bisect for the first m in [lo, hi) below tol, else hi
    while lo < hi:
        mid = (lo + hi) // 2
        if (weights * np.exp(-rate * float(mid * mid))).sum() >= tol:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _volterra(free, kernel, h):
    """Density N(t_m), t_m = m h, of N = F + K * N from the sampled free
    streaming F(t_m) and kernel K(t_m), K odd in t; neither is changed.
    kernel may stop short of free (at least nine samples): K is zero past it.

    Rows 1..8 solve together with degree-8 interpolatory weights; K at their
    lags -7..8 comes from the samples by oddness.  Every later row m
    integrates with the Gregory weights, which factor as sigma_l gamma_{m-l}:
    the end weights at node l from the start and at lag m - l from the end,
    both 1 past the fifth.  That makes the rest one lower-triangular Toeplitz
    system, a real power-series quotient.
    """
    k_near = np.concatenate((-kernel[7:0:-1], [0.0], kernel[1:9]))  # lags -7..8
    lag = np.subtract.outer(np.arange(1, 9), np.arange(9))  # m - l
    block = (-h / 3628800.0) * np.array(_START) * k_near[lag + 7]
    block[:, 1:] += np.eye(8)
    rows = np.linalg.solve(block[:, 1:], free[1:9] - block[:, 0] * free[0])
    start = np.concatenate((free[:1], rows))

    # rows m >= 9 read (a * sigma N)_m = F_m with a = 1 - h gamma K, and sigma N
    # = N past node 4; rows 0..8 of the right side are (a * sigma N)_m of the
    # starting values, so one quotient reproduces them and carries on
    a = -h * kernel
    a[:5] *= _GREGORY
    a[0] += 1.0
    r = np.concatenate((np.convolve(a[:9], np.array(_GREGORY + (1.0,) * 4) * start)[:9], free[9:]))
    density = _series_quotient(r, a)
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
    run (fit skipped).  A non-finite, too large (check_wavenumber) or, for a
    thermal gas, vanishingly small k (_support), omega_guess or amplitude
    raises ValueError naming it; a grid past _MAX_NODES nodes raises
    DegeneracyOutOfRange, and a trace that grows past 1e6 |N_0|
    NumericalBlowup naming the first sample.
    """
    if not math.isfinite(k) or k == 0:
        raise ValueError("k must be finite and nonzero")
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    k_abs = abs(k)
    degenerate = alpha is None
    scales = with_bohm_term(scales_at(species, alpha), bohm_term)
    check_wavenumber(k_abs, scales)
    v_ch = scales.v_ch

    if omega_guess is None:
        if degenerate:
            if species.charge != 0.0:
                omega_guess = omega_degenerate_bohm_gross(k_abs, scales)
            else:
                # zero sound hugs k v_F until the quantum term takes over
                # near kappa = hbar k/(2 m v_F) ~ 0.9; past it C1 sets the mode
                omega_guess = max(omega_zero_sound(k_abs, scales), omega_c1_corrected(k_abs, scales))
        else:
            omega_guess = omega_weak_simple(k_abs, species, scales)
    if not 0 < omega_guess < math.inf:
        raise ValueError("omega_guess must be positive and finite")

    dt = config.dt * 2.0 * math.pi / omega_guess
    n_steps = int(round(config.t_end / config.dt))
    times = np.arange(n_steps + 1) * dt
    c1 = coefficient_C1(k_abs, scales)
    support = None
    if degenerate:
        # exact streaming of the sharp parabola
        g = _parabola_transform(k_abs * v_ch * times)
    else:
        v_max = 8.0 * max(v_ch, math.sqrt(scales.v_th_sq))
        reach = _support(species, alpha, k_abs, dt)
        support = min(reach, n_steps + 1)
        # midpoint grid v_j = (j + 1/2) dv: the sum's first alias,
        # g(2 pi/(k dv) - t), stays past sample reach for every kept sample
        dv = 2.0 * math.pi / (k_abs * dt * (support + reach))
        n_half = math.ceil(v_max / dv)
        if n_half > _MAX_NODES:
            raise DegeneracyOutOfRange(
                f"fugacity {alpha!r} needs {n_half} velocity nodes to resolve its kernel's support, "
                f"more than {_MAX_NODES}"
            )
        # f0 is even: its cosine sum is the sum over the positive half
        f0 = reduced_fz((np.arange(n_half) + 0.5) * dv, species, alpha)
        g = _chirp_z(f0, k_abs * dv * dt, support, 0.5).real / f0.sum()
    # K by parts from the coupling i Lambda f0', Lambda = C1/(k n0); F is
    # zero and K ends past the support
    free = np.zeros(n_steps + 1)
    free[:len(g)] = amplitude * species.density * g
    kernel = -c1 * times[:len(g)] * g

    # a growing trace may overflow to inf and NaN: _first_breach judges it
    with np.errstate(over="ignore", invalid="ignore"):
        density = _volterra(free, kernel, dt)
        if _first_breach(density) is not None:
            # the solve is causal: a shorter run is a prefix of this one that keeps
            # the roundoff of a huge late tail out of the early samples
            steps, breach = 16, None
            while breach is None:
                breach = _first_breach(_volterra(free[:steps + 1], kernel[:steps + 1], dt))
                steps = min(2 * steps, n_steps)
            raise NumericalBlowup(f"density grew past 1e6 times its start at sample {breach}")

    run = OracleRun(k=k, omega_guess=omega_guess, times=times, density=density, support=support)
    if fit and density[0] != 0.0:
        run.omega_fit, run.eta_fit, run.fit_residual = fit_omega_eta(run)
    return run


# Hankel columns of the pencil: a tall, thin matrix keeps the SVD cheap (a
# pencil near N/3 makes it about N/3 square); the order of the fitted model;
# the largest misfit the fit accepts, as a share of the mode's own amplitude
_PENCIL = 33
_ORDER = 12
_MAX_MISFIT = 1e-2
# rows a block of _triangle factors at once (128 or 512 cost more)
_QR_ROWS = 256


def _triangle(x):
    """R of a QR of tall x (R^H R = x^H x): tall-skinny QR (Demmel et al.,
    SIAM J. Sci. Comput. 34 (2012) A206), one batched QR of _QR_ROWS-row
    blocks, the last padded with zero rows, then one of their triangles.
    On a 1552 x 33 Hankel matrix, 0.9 ms on a 2-vCPU box against 1.4 ms for
    one QR of the whole, and the small blocks start no BLAS threads."""
    blocks = np.zeros((-(-len(x) // _QR_ROWS) * _QR_ROWS, x.shape[1]), x.dtype)
    blocks[:len(x)] = x
    stacked = np.linalg.qr(blocks.reshape(-1, _QR_ROWS, x.shape[1]), mode="r")
    return np.linalg.qr(stacked.reshape(-1, x.shape[1]), mode="r")


def fit_omega_eta(run: OracleRun):
    """Extract (omega_fit, eta_fit, fit_residual) from the density trace.

    A matrix pencil (Hua and Sarkar, IEEE Trans. ASSP 38 (1990) 814) fits
    _ORDER damped exponentials to the trace past its first 5%, decimated to
    about 8 samples per period of omega_guess (spacing h): the poles are
    s = log(eig(V1^+ V2))/h, V the leading right singular vectors of a Hankel
    matrix with _PENCIL columns and V1, V2 its rows but the last or the
    first.  Least squares on the triangle of [terms | trace] gives each
    term's amplitude, its norm over the window, with the rank cut-off
    (rcond = eps times the trace's length) of one over the whole window, and
    the misfit is the norm of its reduced residual.  The mode
    is the largest-amplitude pole with |Im s| within 30% of omega_guess.  A
    pole and its conjugate mirror (a real trace holds both) count once, and
    the fit reports the Im s > 0 member.  fit_residual is the relative misfit
    of the whole model.  FitAmbiguous: a second pole near the guess within
    3 dB of the mode, a misfit above _MAX_MISFIT of the mode's amplitude, no
    pole near the guess, a zero or non-finite pole, or a failed
    decomposition.
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
        with np.errstate(all="ignore"):
            # the triangle of a QR has the Hankel matrix's right singular vectors
            hankel = np.lib.stride_tricks.sliding_window_view(z, _PENCIL)
            v = np.linalg.svd(_triangle(hankel))[2][:_ORDER].T
            # complex, or a negative real eigenvalue of a real pencil logs to NaN
            poles = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
            log_z = np.log(poles.astype(complex))
            bad = ~np.isfinite(log_z)
            if bad.any():
                raise FitAmbiguous(f"matrix pencil pole {poles[bad][0]} is zero or not finite")
            # each term is a running product from 1 at its largest sample, so
            # none under- or overflows: a growing one runs back from the last
            grow = log_z.real > 0.0
            terms = np.empty((len(z), _ORDER), complex)
            terms[0] = 1.0
            terms[1:] = np.exp(np.where(grow, -log_z, log_z))
            terms = np.cumprod(terms, axis=0)
            terms[:, grow] = terms[::-1, grow]
            # [terms | z] = Q tri: the least squares and its misfit read the same on tri
            tri = _triangle(np.column_stack((terms, z)))
            model = tri[:, :-1] / np.linalg.norm(tri[:, :-1], axis=0)
            coef = np.linalg.lstsq(model, tri[:, -1], rcond=np.finfo(float).eps * len(z))[0]
            misfit = np.linalg.norm(tri[:, -1] - model @ coef)
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
    return abs(float(mode.imag)), float(mode.real), float(misfit / np.linalg.norm(tri[:, -1]))
