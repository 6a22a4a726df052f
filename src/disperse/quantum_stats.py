"""Equilibrium statistics of an ideal quantum gas: the species description,
the scales the solvers consume (plasma frequency, characteristic velocity,
fugacity, thermal speed) and three special functions:

* zeta_pm, the occupation sums sum_j (-+1)^(j-1) alpha^j / j^s: a series,
  or near alpha = 1 Robinson's expansion;
* scaled_erfc, G(z) = sqrt(pi) z exp(z^2) erfc(z), the kernel of
  residual_weak;
* reduced_fz, the 1d velocity distribution in closed form, which the
  kinetic oracle samples, and its derivative f0', the coupling that the
  oracle's kernel takes by parts.

Units are SI throughout.  Temperatures in K, densities in 1/m^3.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DegeneracyOutOfRange, NonConvergent

# CODATA 2018 values, 10 significant digits where more are defined.
# Fixed on purpose: these are not tunable inputs.
EPS0 = 8.8541878128e-12  # vacuum permittivity, F/m
HBAR = 1.054571817e-34  # reduced Planck constant, J s
PLANCK_H = 6.62607015e-34  # Planck constant, J s
K_B = 1.380649e-23  # Boltzmann constant, J/K
ELECTRON_MASS = 9.1093837015e-31  # electron mass, kg
ELEMENTARY_CHARGE = 1.602176634e-19  # elementary charge, C

_SQRT_PI = math.sqrt(math.pi)

_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 1_000_000


class Statistics(Enum):
    FERMI = "fermi"
    BOSE = "bose"


@dataclass(frozen=True)
class SpeciesParams:
    """Physical description of one gas species.  temperature == 0, allowed
    only for fermions, is the fully degenerate ground state."""

    mass: float
    charge: float
    spin_degeneracy: int
    density: float
    temperature: float
    statistics: Statistics

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if not math.isfinite(self.charge):
            raise ValueError("charge must be finite")
        if not 0 < self.density < math.inf:
            raise ValueError("density must be positive and finite")
        if not isinstance(self.spin_degeneracy, numbers.Integral) or self.spin_degeneracy < 1:
            raise ValueError("spin_degeneracy must be a positive integer")
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be non-negative and finite")
        if not isinstance(self.statistics, Statistics):
            raise ValueError("statistics must be a Statistics member")
        if self.temperature == 0 and self.statistics is not Statistics.FERMI:
            raise ValueError("temperature 0 makes sense only for fermions")

    @property
    def fully_degenerate(self) -> bool:
        return self.temperature == 0


@dataclass(frozen=True)
class DerivedScales:
    """Scales computed once per species and threaded through the solvers.

    alpha is None, with v_th_sq == 0.0, for the fully degenerate gas, as in
    every call that takes an alpha; for a thermal gas alpha is the solved
    fugacity in (0, 1).
    lambda_quantum = hbar^2/(4 m^2) weighs Bohm's quantum potential in C1(k)
    and is the one switch for it: every function below the public entry
    points reads it from here, and with_bohm_term returns the scales with it
    0.0.  Built by scales_at.
    """

    omega_p: float
    v_ch: float
    alpha: float | None
    v_th_sq: float
    lambda_quantum: float


def with_bohm_term(scales: DerivedScales, bohm_term: bool) -> DerivedScales:
    """The scales unchanged with the quantum-potential term on, or with
    lambda_quantum = 0.0, the classical restoring force, with it off."""
    return scales if bohm_term else replace(scales, lambda_quantum=0.0)


def plasma_frequency(species: SpeciesParams) -> float:
    """sqrt(q^2 n0 / (m eps0)); zero for a neutral gas."""
    return math.sqrt(species.charge**2 * species.density / (species.mass * EPS0))


def characteristic_velocity(species: SpeciesParams) -> float:
    """Velocity scale set by density alone: (3 n0 h^3 / (4 pi g m^3))^(1/3).

    Coincides with the Fermi velocity of the ground state; it also fixes the
    right-hand normalization of the thermal response, so it is defined for
    both statistics.
    """
    cube = 3.0 * species.density * PLANCK_H**3 / (4.0 * math.pi * species.spin_degeneracy * species.mass**3)
    return cube ** (1.0 / 3.0)


def degeneracy_parameter(species: SpeciesParams) -> float:
    """n0 h^3 / (g (2 pi m k_B T)^(3/2)), the target of the fugacity solve."""
    if species.temperature <= 0:
        raise ValueError("degeneracy parameter needs temperature > 0")
    lam3 = PLANCK_H**3 / (2.0 * math.pi * species.mass * K_B * species.temperature) ** 1.5
    return species.density * lam3 / species.spin_degeneracy


def _zeta_euler_maclaurin(r: float) -> float:
    """Riemann zeta for real r > 1 via Euler-Maclaurin at cutoff a = 40.

    The retained corrections leave an error around 1e-16 for r >= 1.1,
    far below every tolerance used downstream.
    """
    a = 40
    head = sum(j ** (-r) for j in range(1, a))
    tail = a ** (1.0 - r) / (r - 1.0)
    tail += 0.5 * a ** (-r)
    tail += r * a ** (-r - 1.0) / 12.0
    tail -= r * (r + 1.0) * (r + 2.0) * a ** (-r - 3.0) / 720.0
    tail += r * (r + 1.0) * (r + 2.0) * (r + 3.0) * (r + 4.0) * a ** (-r - 5.0) / 30240.0
    return head + tail


@functools.lru_cache(maxsize=64)
def _robinson_zetas(order: float) -> tuple[float, ...]:
    """zeta(order - k), k = 0..9: _bose_near_one's coefficients, fixed by the order."""
    return tuple(_zeta_euler_maclaurin(order - k) for k in range(10))


def _bose_near_one(order: float, mu: float) -> float:
    # Robinson's expansion of Li_s(e^-mu) about mu = 0 for non-integer s:
    # Gamma(1 - s) mu^(s-1) + sum_k zeta(s - k) (-mu)^k / k!.  Ten terms
    # reach double precision for mu < 0.1 (the series converges for
    # mu < 2 pi).  The Euler-Maclaurin zeta loses digits for s - k < -3,
    # where mu^k / k! keeps that error below 1e-15 of the sum.
    total = math.gamma(1.0 - order) * mu ** (order - 1.0)
    term = 1.0
    for k, zeta in enumerate(_robinson_zetas(order)):
        total += zeta * term
        term *= -mu / (k + 1)
    return total


def zeta_pm(order: float, alpha: float, statistics: Statistics) -> float:
    """Polylog-type sum sum_j (-+1)^(j-1) alpha^j / j^order.  Upper sign
    (alternating) for fermions, lower for bosons.

    Closed forms at alpha = 1.  For -ln alpha < 0.05 and an order at least
    0.01 from an integer the boson sum is Robinson's expansion about
    alpha = 1 and the fermion sum Li_s(alpha) - 2^(1-s) Li_s(alpha^2), so
    the series, which needs ~-ln(1e-14 (1 - alpha))/(1 - alpha) terms, never
    runs there.  Raises NonConvergent for the boson sum at alpha = 1 with
    order <= 1 (divergent) or when the series would need more than
    _SERIES_MAX_TERMS terms.
    """
    if order < 1.0:
        raise ValueError("order must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0:
        return 0.0
    fermi = statistics is Statistics.FERMI
    if alpha == 1.0:
        if fermi:
            if order == 1.0:
                return math.log(2.0)
            return (1.0 - 2.0 ** (1.0 - order)) * _zeta_euler_maclaurin(order)
        if order <= 1.0:
            raise NonConvergent("boson sum diverges at alpha = 1 for order <= 1")
        return _zeta_euler_maclaurin(order)

    log_a = math.log(alpha)
    # near an integer order Gamma(1 - s) and one zeta(s - k) both blow up
    # and cancel, so the expansion is kept to orders clear of it
    if log_a > -0.05 and abs(order - round(order)) >= 0.01:
        near = _bose_near_one(order, -log_a)
        return near - 2.0 ** (1.0 - order) * _bose_near_one(order, -2.0 * log_a) if fermi else near
    # alpha^j bounds the j-th term, so past j = est the next term (fermions,
    # alternating) or the geometric tail (bosons) is below _SERIES_TOL
    slack = 1.0 if fermi else 1.0 - alpha
    est = math.log(_SERIES_TOL * slack) / log_a
    n_terms = int(max(16.0, est + 8.0))
    if n_terms > _SERIES_MAX_TERMS:
        raise NonConvergent(f"series for order {order}, alpha {alpha} needs more than {_SERIES_MAX_TERMS} terms")
    j = np.arange(1, n_terms + 1, dtype=float)
    terms = np.exp(j * log_a - order * np.log(j))
    if fermi:
        return float(np.dot(np.where(j % 2.0 == 1.0, 1.0, -1.0), terms))
    return float(terms.sum())


# value of the boson sum at the condensation boundary, quoted in errors
_BOSE_CRITICAL = 2.6123753486854883


def fugacity_from_density(species: SpeciesParams) -> float:
    """Invert zeta_pm(3/2, alpha) = degeneracy parameter for alpha in (0, 1).

    Bisection on (0, 1) to 1e-12 relative; the sum is strictly increasing in
    alpha.  Within ~1e-4 of the boson boundary one ulp of alpha moves the
    sum by more than that, and the nearer of two adjacent alphas is
    returned.  A target at or above the alpha = 1 value of the sum raises
    DegeneracyOutOfRange naming the temperature: for bosons the gas
    condenses there, and a target within 1e-8 relative of the boundary
    counts as on it (finer is not resolvable in double precision near
    alpha = 1); for fermions the gas is too degenerate for this
    parametrization, so use the fully degenerate branch.
    """
    target = degeneracy_parameter(species)
    stats = species.statistics
    at = f"at T = {species.temperature:.9g} K the degeneracy target {target:.6g}"
    if stats is Statistics.FERMI:
        bound = (1.0 - 2.0**-0.5) * _BOSE_CRITICAL
        if target >= bound * (1.0 - 1e-12):
            raise DegeneracyOutOfRange(
                f"{at} is at or above the fugacity-1 value {bound:.16g} of the "
                "alternating 3/2 sum; treat the gas as fully degenerate instead"
            )
    else:
        bound = _BOSE_CRITICAL
        if target >= bound * (1.0 - 1e-8):
            raise DegeneracyOutOfRange(
                f"{at} reaches the condensation value {bound:.16g} of the 3/2 sum "
                "(to within 1e-8, the resolution near fugacity 1); the gas condenses "
                "at this density and temperature, which is outside this model"
            )

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return min((lo, hi), key=lambda a: abs(zeta_pm(1.5, a, stats) - target))
        val = zeta_pm(1.5, mid, stats)
        if abs(val - target) <= 1e-12 * target:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    raise NonConvergent(f"fugacity bisection stalled for target {target:.6g}")


def thermal_beta(species: SpeciesParams, alpha: float) -> float:
    """m / (2 k_B T) of a thermal gas at fugacity alpha; refuses an alpha
    outside (0, 1) or a temperature that is not positive."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1) for a thermal gas")
    if species.temperature <= 0:
        raise ValueError("a thermal gas needs temperature > 0")
    return species.mass / (2.0 * K_B * species.temperature)


def thermal_velocity_sq(species: SpeciesParams, alpha: float) -> float:
    """Mean-square velocity scale (3 k_B T / m) weighted by the ratio of the
    5/2 and 3/2 occupation sums.  Tends to 3 k_B T / m in the classical limit."""
    thermal_beta(species, alpha)  # refuses a gas that is not thermal
    num = zeta_pm(2.5, alpha, species.statistics)
    den = zeta_pm(1.5, alpha, species.statistics)
    return 3.0 * K_B * species.temperature / species.mass * num / den


def scales_at(species: SpeciesParams, alpha: float | None) -> DerivedScales:
    """The scales of the species at fugacity alpha; alpha = None selects the
    fully degenerate gas."""
    if alpha is None:
        if not species.fully_degenerate:
            raise ValueError("alpha = None requires a fully degenerate species")
        v_th_sq = 0.0
    else:
        v_th_sq = thermal_velocity_sq(species, alpha)
    return DerivedScales(omega_p=plasma_frequency(species), v_ch=characteristic_velocity(species),
                         alpha=alpha, v_th_sq=v_th_sq, lambda_quantum=HBAR**2 / (4.0 * species.mass**2))


def derive_scales(species: SpeciesParams) -> DerivedScales:
    """One-stop derivation of every scale the solvers consume."""
    return scales_at(species, None if species.fully_degenerate else fugacity_from_density(species))


# ---------------------------------------------------------------------------
# scaled complementary error function G(z) = sqrt(pi) z exp(z^2) erfc(z)
# ---------------------------------------------------------------------------

def _weideman_coefficients(n: int = 54):
    # Rational approximation of the Faddeeva function on the upper half
    # plane; coefficients from an FFT of the shifted Gaussian (real by
    # symmetry).  n = 54 keeps the worst error near the |z| = 6 boundary
    # around 1e-13.
    m2 = 2 * n
    big_l = math.sqrt(n / math.sqrt(2.0))
    idx = np.arange(-m2 + 1, m2)
    theta = (math.pi / m2) * idx
    t = big_l * np.tan(0.5 * theta)
    fn = np.zeros(2 * m2)
    fn[1:] = np.exp(-t * t) * (big_l * big_l + t * t)
    coefs = np.fft.fft(np.fft.fftshift(fn)).real / (2 * m2)
    return big_l, np.flipud(coefs[1 : n + 1])


_WEIDEMAN_L, _WEIDEMAN_COEFS = _weideman_coefficients()
_WEIDEMAN_EXPONENTS = np.arange(_WEIDEMAN_COEFS.size - 1, -1, -1)


def _g_rational(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0; uses w(iz) so the Faddeeva argument sits in the
    # upper half plane exactly where the rational fit converges
    big_l = _WEIDEMAN_L
    d = big_l + z  # = L - i*(i z)
    ratio = (big_l - z) / d
    # one row of powers ratio^(n-1), ..., ratio, 1 per element (numpy raises
    # a complex to a small integer power by repeated squaring), then each
    # row is reduced on its own by numpy's pairwise sum.  That keeps each
    # element's bits independent of the batch, which a BLAS product would not.
    powers = ratio[:, None] ** _WEIDEMAN_EXPONENTS
    poly = (powers * _WEIDEMAN_COEFS).sum(axis=1)
    w_iz = 2.0 * poly / (d * d) + (1.0 / _SQRT_PI) / d
    return _SQRT_PI * z * w_iz


# Coefficients (-1)^k (2k-1)!! of the asymptotic series
# G = sum_k (-1)^k (2k-1)!! / (2 z^2)^k, k = 0..; for |z| > 6 the series is
# cut at k <= 36 (the smallest term at |z|^2 = 36), so 40 entries suffice.
_ASYM_COEFS = np.cumprod(np.concatenate(([1.0], 1.0 - 2.0 * np.arange(1, 40))))


# The cut of the asymptotic series at |z|^2 = r2 is the last index kept: the
# smallest term, or the first term below 1e-17, whichever comes first.  A
# larger |z| in the same batch only sees terms that are still shrinking, so
# it loses nothing.  As r2 grows past 36 the smallest term moves out to
# index 39 and then the 1e-17 cut moves back in, one index per step; each
# entry below is the least double r2 at which the cut takes its next value,
# found by bisection on the term-by-term loop (the tests keep that loop).
_ORDER_BREAKS = (
    36.50000000000001, 37.50000000000001, 38.50000000000001, 39.518998102087856, 39.57504861040931,
    39.664067748077905, 39.789960265081426, 39.957259485827834, 40.17125666467395, 40.43816310364678,
    40.76531498605434, 41.16143444162136, 41.63696540194327, 42.20451003795076, 42.87940208904073,
    43.68046891824624, 44.63105741445079, 45.76043440636812, 47.10572754332388, 48.71466040112907,
    50.64947819688664, 52.992698007931935, 55.85572392518288, 59.392084950100205, 63.81836314862428,
    69.44836380248995, 76.75099945565066, 86.45259668733948, 99.72687655778343, 118.56888454088573,
    146.58396057936616, 190.7990320213179, 266.2793957870695, 409.5692967910003, 725.2842858356885,
    1591.3806996630892, 4943.748465473065, 28462.125488111084, 572357.121276666, 273861278.7525831,
    5.000000000000001e16,
)
_ORDERS = (36, 37, 38, *range(39, 0, -1))


def _asymptotic_order(r2: float) -> int:
    # valid for r2 > 35.5; every caller passes |z|^2 > 36
    return _ORDERS[bisect.bisect_right(_ORDER_BREAKS, r2)]


def _g_asymptotic(z: np.ndarray) -> np.ndarray:
    # One Horner pass in 1/(2 z^2) with a term count sized from the smallest
    # |z| of the batch.  Entered only for |z| > 6, where the smallest term is
    # ~1e-16.
    n = _asymptotic_order(float(np.min(z.real * z.real + z.imag * z.imag)))
    return np.polyval(_ASYM_COEFS[n::-1], 0.5 / (z * z))


def scaled_erfc(z):
    """G(z) = sqrt(pi) z exp(z^2) erfc(z), accepting complex scalars or arrays.

    Three regimes: rational fit for |z| <= 6 in the right half plane, the
    asymptotic series for |z| > 6, and the reflection
    G(z) = G(-z) + 2 sqrt(pi) z exp(z^2) for Re z < 0.  The reflection term
    overflows to inf for Re(z^2) beyond ~709; that is the honest double
    precision answer there.
    """
    arr = np.asarray(z, dtype=complex)
    if arr.ndim == 1 and arr.size and np.abs(arr).max() <= 6.0 and arr.real.min() >= 0.0:
        # the right-half-plane disc, which residual_weak's head always is; a
        # NaN fails the |z| test and takes the masked path
        return _g_rational(arr)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()

    refl = flat.real < 0.0
    small = np.abs(flat) <= 6.0
    zp = np.where(refl, -flat, flat)
    out = np.empty_like(zp)
    if small.any():
        out[small] = _g_rational(zp[small])
    big = ~small
    if big.any():
        out[big] = _g_asymptotic(zp[big])
    if refl.any():
        zr = flat[refl]
        with np.errstate(over="ignore", invalid="ignore"):
            out[refl] = out[refl] + 2.0 * _SQRT_PI * zr * np.exp(zr * zr)

    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# reduced 1d velocity distributions f_z(w) and their derivatives
# ---------------------------------------------------------------------------

def _occupation(w, species: SpeciesParams, alpha: float):
    # (w as floats, beta, x = alpha exp(-beta w^2)), x even in w
    beta = thermal_beta(species, alpha)
    w_arr = np.asarray(w, dtype=float)
    return w_arr, beta, alpha * np.exp(-beta * (w_arr * w_arr))


def reduced_fz(w, species: SpeciesParams, alpha: float):
    """1d velocity distribution of a thermal quantum gas, normalized so that
    its integral over w is the number density:
    (pi a_w / beta) log(1 + x) for fermions, -(pi a_w / beta) log(1 - x) for
    bosons, with x = alpha exp(-beta w^2) and a_w = g m^3 / h^3."""
    _, beta, x = _occupation(w, species, alpha)
    a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
    pref = a_w * math.pi / beta  # = g (m^3/h^3) * (2 pi k_B T / m)
    out = pref * np.log1p(x) if species.statistics is Statistics.FERMI else -pref * np.log1p(-x)
    return float(out) if np.ndim(w) == 0 else out


def reduced_fz_derivative(w, species: SpeciesParams, alpha: float):
    """d/dw of reduced_fz, -2 pi a_w w x / (1 +- x); the kernel of the
    longitudinal response.  w times an even factor, so it is odd bitwise."""
    w_arr, _, x = _occupation(w, species, alpha)
    a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
    sign = 1.0 if species.statistics is Statistics.FERMI else -1.0
    out = w_arr * (-2.0 * math.pi * a_w * x / (1.0 + sign * x))
    return float(out) if np.ndim(w) == 0 else out
