"""Time-domain kinetic cross-check for the dispersion solver.

Evolves the linearized single-mode kinetic system on a velocity grid,

    d phi_j / dt = -i k v_j phi_j + i Lambda N(t) f0'(v_j),
    Lambda = (Omega_p^2 + hbar^2 k^4 / 4 m^2) / (k n0),
    N(t) = trapezoid(phi),

where both force terms (Coulomb and quantum pressure) enter with the same
sign; they are the two pieces of the restoring coefficient C1.  The fitted
(omega, eta) of the recorded N(t) provide a root check that shares nothing
with the residual evaluations: no occupation sums, no error functions, no
contour bookkeeping.

The scheme is classic RK4 at fixed step, applied as the one diagonal plus
rank-4 map it amounts to (_propagate).  For the fully degenerate gas the
step edge of the distribution is smoothed by a sigmoid of width
delta_v = v_F/200 so its derivative is grid-representable; the pair
(f0_smooth, f0'_smooth) below is an exact antiderivative/derivative pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dispersion_core import (
    omega_degenerate_bohm_gross,
    omega_weak_simple,
    omega_zero_sound,
)
from .errors import FitAmbiguous, GridResonanceUnderresolved, NumericalBlowup
from .quantum_stats import (
    HBAR,
    PLANCK_H,
    DerivedScales,
    SpeciesParams,
    characteristic_velocity,
    plasma_frequency,
    reduced_fz,
    reduced_fz_derivative,
    thermal_velocity_sq,
)


class InitShape(Enum):
    UniformDensityKick = "UniformDensityKick"
    MaxwellianShaped = "MaxwellianShaped"


@dataclass(frozen=True)
class OracleConfig:
    """Grid and integration controls.

    v_max is a multiple of the gas velocity scale (max(v_ch, v_th) thermal,
    v_F degenerate); None selects 8 for thermal gases and 1.5 for full
    degeneracy.  dt is a fraction of one oscillation period 2 pi/omega_guess;
    t_end counts periods.
    """

    n_v: int = 4096
    v_max: float | None = None
    dt: float = 0.005
    t_end: float = 50.0
    init_shape: InitShape = InitShape.MaxwellianShaped

    def __post_init__(self):
        if self.n_v < 256 or self.n_v % 2 != 0:
            raise ValueError("n_v must be even and at least 256")
        if not 0.0 < 2.0 * math.pi * self.dt < 0.1:
            raise ValueError("dt (fraction of a period) must keep dt*omega below 0.1")
        if not self.t_end >= 20.0:
            raise ValueError("t_end must cover at least 20 periods")
        if self.v_max is not None and not self.v_max > 0:
            raise ValueError("v_max multiple must be positive")


@dataclass
class OracleRun:
    """Recorded density trace of one mode plus fit results (filled in by
    fit_omega_eta unless the run was started from a zero perturbation)."""

    k: float
    omega_guess: float
    v: np.ndarray
    times: np.ndarray
    density: np.ndarray
    snapshot: np.ndarray
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


def _propagate(phi, stream, coupling, weights, dt, n_steps):
    """Take n_steps RK4 steps of phi' = A phi, A = diag(stream) + coupling w^T;
    returns the density trace w^T phi at every step and the final phi.

    One step is exactly P(hA), P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24.  With
    z = h stream and a = h coupling, expanding the powers of hA gives
    P(hA) = diag(P(z)) + U C W^T, U = [z^p a], W = [z^q w] (p, q < 4), where
    the 4x4 C mixes the moments mu_j = w^T z^j a.  A step is then
    phi -> P(z) phi + (W^T phi) (U C)^T, and (W^T phi)[0] is the density.
    """
    z = dt * stream
    zp = np.cumprod([np.ones_like(z), z, z, z], axis=0)  # rows z^0 .. z^3
    ut = zp * (dt * coupling)
    wt = zp * weights
    # (diag(z) + a w^T)^n - diag(z^n) = U C_n W^T with C_{n+1} = C_n T + e_n e_0^T,
    # where T shifts q up (one more factor z) and feeds the moments into q = 0
    t = np.eye(4, k=1, dtype=complex)
    t[:, 0] = wt @ ut[0]
    power = np.zeros((4, 4), dtype=complex)
    c = np.zeros((4, 4), dtype=complex)
    for n in range(4):
        power = power @ t
        power[n, 0] += 1.0
        c += power / math.factorial(n + 1)
    cu = c.T @ ut
    g = 1.0 + z * (1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z / 24.0)))

    density = np.empty(n_steps + 1, dtype=complex)
    n0_abs = abs(np.dot(phi, weights))
    for step in range(n_steps + 1):
        moments = wt @ phi
        density[step] = moments[0]
        if n0_abs > 0.0 and abs(moments[0]) > 1e6 * n0_abs:
            raise NumericalBlowup(f"density grew by {abs(moments[0]) / n0_abs:.3e} at step {step}")
        if step < n_steps:
            phi = g * phi + moments @ cu
    return density, phi


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

    alpha = None selects the fully degenerate gas.  k may be negative; the
    conjugate-mode identity N_{-k}(t) = conj(N_k(t)) holds bitwise for real
    initial data.  amplitude scales the initial density perturbation
    relative to n0; 0 gives the trivial zero run (fit skipped).
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    k_abs = abs(k)
    degenerate = alpha is None
    if degenerate and not species.fully_degenerate:
        raise ValueError("alpha = None requires a fully degenerate species")
    if not degenerate and not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    omega_p = plasma_frequency(species)
    v_ch = characteristic_velocity(species)
    lam_q = HBAR**2 / (4.0 * species.mass**2)
    v_th_sq = 0.0 if degenerate else thermal_velocity_sq(species, alpha)
    scales = DerivedScales(
        omega_p=omega_p, v_ch=v_ch, alpha=1.0 if degenerate else alpha,
        v_th_sq=v_th_sq, lambda_quantum=lam_q,
    )

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

    if degenerate:
        v_scale = v_ch
        v_max = (config.v_max if config.v_max is not None else 1.5) * v_scale
    else:
        v_scale = max(v_ch, math.sqrt(v_th_sq))
        v_max = (config.v_max if config.v_max is not None else 8.0) * v_scale
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

    if config.init_shape is InitShape.MaxwellianShaped:
        shape = f0.astype(complex)
    else:
        shape = np.ones(n_v, dtype=complex)
    raw = np.dot(shape, weights).real
    if amplitude == 0.0 or raw == 0.0:
        phi = np.zeros(n_v, dtype=complex)
    else:
        phi = (amplitude * species.density / raw) * shape

    hook = 1.0 if bohm_term else 0.0
    c1 = omega_p**2 + hook * lam_q * k_abs**4
    lam = c1 / (k * species.density)  # odd in k: conjugate-mode symmetry
    density, phi = _propagate(phi, -1j * k * v, (1j * lam) * fprime, weights, dt, n_steps)

    run = OracleRun(
        k=k,
        omega_guess=omega_guess,
        v=v,
        times=np.arange(n_steps + 1) * dt,
        density=density,
        snapshot=phi,
    )
    if fit and density[0] != 0.0:
        run.omega_fit, run.eta_fit, run.fit_residual = fit_omega_eta(run)
    return run


def fit_omega_eta(run: OracleRun):
    """Extract (omega_fit, eta_fit, fit_residual) from the density trace.

    Discards the first 20% (transient from subdominant roots), locates the
    spectral peak with quadratic interpolation on log magnitudes, converts a
    two-sided trace to its analytic signal when the mirror line is present,
    then reads eta from a linear fit of ln|envelope| and refines omega by a
    phase-slope regression.  fit_residual is the relative RMS misfit of the
    single damped-exponential model.
    """
    n_total = len(run.density)
    if n_total < 16:
        raise ValueError("density trace too short to fit")
    i0 = n_total // 5
    t = np.asarray(run.times[i0:], dtype=float)
    z = np.asarray(run.density[i0:], dtype=complex)
    n = len(z)
    dt = t[1] - t[0]
    periods_kept = (t[-1] - t[0]) * run.omega_guess / (2.0 * math.pi)
    if periods_kept < 10.0:
        raise ValueError(f"only {periods_kept:.1f} periods retained after the transient cut; need 10")

    spec = np.fft.fft(z)
    freq = np.fft.fftfreq(n, dt)
    mag = np.abs(spec)
    i_pk = int(np.argmax(mag))
    if mag[i_pk] == 0.0:
        raise ValueError("empty spectrum: cannot fit a zero trace")

    # quadratic refinement of the peak position on log magnitude
    i_m = (i_pk - 1) % n
    i_p = (i_pk + 1) % n
    if mag[i_m] > 0 and mag[i_p] > 0:
        lm, l0, lp = math.log(mag[i_m]), math.log(mag[i_pk]), math.log(mag[i_p])
        denom = lm - 2.0 * l0 + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    omega0 = 2.0 * math.pi * (freq[i_pk] + delta / (n * dt))

    # second-line detection outside the peak and its mirror neighborhoods
    width = max(3, n // 200)
    i_mirror = int(np.argmin(np.abs(freq + freq[i_pk])))
    masked = mag.copy()
    for center in {i_pk, i_mirror}:
        lo = center - width
        hi = center + width + 1
        idx = np.arange(lo, hi) % n
        masked[idx] = 0.0
    second = float(masked.max())
    if second > mag[i_pk] / math.sqrt(2.0):  # within 3 dB of the main line
        raise FitAmbiguous(
            f"second spectral line at {second / mag[i_pk]:.2f} of the main peak; "
            "trace is not a single damped mode"
        )

    # real-valued input shows the conjugate mirror line; keep the analytic part
    if i_mirror != i_pk and mag[i_mirror] > 0.5 * mag[i_pk]:
        side = np.sign(freq[i_pk]) if freq[i_pk] != 0 else 1.0
        analytic = np.where(freq * side >= 0, spec, 0.0)
        z_fit = np.fft.ifft(analytic) * 2.0
    else:
        z_fit = z

    env = np.abs(z_fit)
    env = np.maximum(env, env.max() * 1e-300)
    tau = t - t[0]
    eta_fit = float(np.polyfit(tau, np.log(env), 1)[0])
    phase = np.unwrap(np.angle(z_fit * np.exp(-1j * omega0 * tau)))
    omega_signed = omega0 + float(np.polyfit(tau, phase, 1)[0])

    model = np.exp((eta_fit + 1j * omega_signed) * tau)
    coef = np.vdot(model, z_fit) / np.vdot(model, model)
    resid = float(np.linalg.norm(z_fit - coef * model) / np.linalg.norm(z_fit))
    return abs(omega_signed), eta_fit, resid
