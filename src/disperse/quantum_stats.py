"""Equilibrium statistics of an ideal quantum gas, reduced to what the
dispersion solver needs: derived scales (plasma frequency, characteristic
velocity, fugacity, thermal speed) and the special functions that appear in
the longitudinal response (polylog-type sums, the scaled complementary error
function, reduced 1d velocity distributions).

Units are SI throughout.  Temperatures in K, densities in 1/m^3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .errors import DegeneracyOutOfRange, NonConvergent

# CODATA 2018 values, 10 significant digits where more are defined.
# Fixed table on purpose: these are not tunable inputs.
CODATA = MappingProxyType(
    {
        "eps0": 8.8541878128e-12,  # vacuum permittivity, F/m
        "hbar": 1.054571817e-34,  # reduced Planck constant, J s
        "h": 6.62607015e-34,  # Planck constant, J s
        "k_B": 1.380649e-23,  # Boltzmann constant, J/K
        "m_e": 9.1093837015e-31,  # electron mass, kg
        "q_e": 1.602176634e-19,  # elementary charge, C
    }
)

EPS0 = CODATA["eps0"]
HBAR = CODATA["hbar"]
PLANCK_H = CODATA["h"]
K_B = CODATA["k_B"]
ELECTRON_MASS = CODATA["m_e"]
ELEMENTARY_CHARGE = CODATA["q_e"]

_SQRT_PI = math.sqrt(math.pi)

_SERIES_TOL = 1e-14
_SERIES_BLOCK = 65536
_SERIES_MAX_TERMS = 10_000_000


class Statistics(Enum):
    FERMI = "fermi"
    BOSE = "bose"


@dataclass(frozen=True)
class SpeciesParams:
    """Physical description of one gas species.

    temperature == 0 is allowed only for fermions and forces the fully
    degenerate ground-state branch.  fully_degenerate may also be set
    explicitly at T > 0 to request the step-distribution idealization.
    """

    mass: float
    charge: float
    spin_degeneracy: int
    density: float
    temperature: float
    statistics: Statistics
    fully_degenerate: bool = False

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
        if self.temperature == 0:
            if self.statistics is not Statistics.FERMI:
                raise ValueError("temperature 0 makes sense only for fermions")
            object.__setattr__(self, "fully_degenerate", True)
        if self.fully_degenerate and self.statistics is not Statistics.FERMI:
            raise ValueError("fully_degenerate requires Fermi statistics")


@dataclass(frozen=True)
class DerivedScales:
    """Scales computed once per species and threaded through the solvers.

    alpha == 1.0 together with v_th_sq == 0.0 marks the fully degenerate
    branch; for a thermal gas alpha is the solved fugacity in (0, 1).
    """

    omega_p: float
    v_ch: float
    alpha: float
    v_th_sq: float
    lambda_quantum: float


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


def zeta_pm_info(order: float, alpha: float, statistics: Statistics, *, tol: float = _SERIES_TOL):
    """Polylog-type sum sum_j (-+1)^(j-1) alpha^j / j^order and the number of
    terms it took.  Upper sign (alternating) for fermions, lower for bosons.

    Closed forms at alpha = 1 report 0 terms.  Raises NonConvergent for the
    boson series at alpha = 1 with order <= 1 (divergent) or when the term
    budget runs out.
    """
    if order < 1.0:
        raise ValueError("order must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0:
        return 0.0, 0
    fermi = statistics is Statistics.FERMI
    if alpha == 1.0:
        if fermi:
            if order == 1.0:
                return math.log(2.0), 0
            return (1.0 - 2.0 ** (1.0 - order)) * _zeta_euler_maclaurin(order), 0
        if order <= 1.0:
            raise NonConvergent("boson sum diverges at alpha = 1 for order <= 1")
        return _zeta_euler_maclaurin(order), 0

    log_a = math.log(alpha)
    # crude coefficient-only bound on the terms needed, to size the first block
    slack = 1.0 if fermi else 1.0 - alpha
    est = math.log(tol * slack) / log_a if log_a < 0 else float(_SERIES_BLOCK)
    block = int(min(_SERIES_BLOCK, max(16.0, est + 8.0)))
    total = 0.0
    j0 = 1
    while j0 <= _SERIES_MAX_TERMS:
        j1 = min(j0 + block, _SERIES_MAX_TERMS + 1)
        block = _SERIES_BLOCK
        j = np.arange(j0, j1, dtype=float)
        terms = np.exp(j * log_a - order * np.log(j))
        if fermi:
            signs = np.where(j % 2.0 == 1.0, 1.0, -1.0)
            total += float(np.dot(signs, terms))
        else:
            total += float(terms.sum())
        j_next = float(j1)
        nxt = math.exp(j_next * log_a - order * math.log(j_next))
        # tail bound: next term alone (alternating) or geometric majorant
        bound = nxt if fermi else nxt / (1.0 - alpha)
        if bound < tol:
            return total, j1 - 1
        j0 = j1
    raise NonConvergent(f"series for order {order}, alpha {alpha} exceeded {_SERIES_MAX_TERMS} terms")


def zeta_pm(order: float, alpha: float, statistics: Statistics, *, tol: float = _SERIES_TOL) -> float:
    return zeta_pm_info(order, alpha, statistics, tol=tol)[0]


# value of the boson sum at the condensation boundary, quoted in errors
_BOSE_CRITICAL = 2.6123753486854883


def fugacity_from_density(species: SpeciesParams, *, tol: float = 1e-12) -> float:
    """Invert zeta_pm(3/2, alpha) = degeneracy parameter for alpha in (0, 1].

    Bisection on (0, 1); the sum is strictly increasing in alpha.  For bosons
    a target at the condensation boundary (within 1e-8 relative; finer is not
    resolvable in double precision near alpha = 1) returns exactly 1.0, and a
    target beyond it raises DegeneracyOutOfRange.  For fermions a target at or
    above the alpha = 1 value of the alternating sum means the gas is too
    degenerate for this parametrization; use the fully degenerate branch.
    """
    target = degeneracy_parameter(species)
    stats = species.statistics
    if stats is Statistics.FERMI:
        bound = (1.0 - 2.0**-0.5) * _BOSE_CRITICAL
        if target >= bound * (1.0 - 1e-12):
            raise DegeneracyOutOfRange(
                f"degeneracy target {target:.6g} is at or above the fugacity-1 "
                f"value {bound:.16g} of the alternating 3/2 sum; "
                "treat the gas as fully degenerate instead"
            )
    else:
        bound = _BOSE_CRITICAL
        if target >= bound * (1.0 + 1e-12):
            raise DegeneracyOutOfRange(
                f"degeneracy target {target:.6g} exceeds the condensation value "
                f"{bound:.16g} of the 3/2 sum; the gas condenses at this "
                "density and temperature, which is outside this model"
            )
        if target >= bound * (1.0 - 1e-8):
            return 1.0  # at the boundary within double-precision resolution

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        val = zeta_pm(1.5, mid, stats)
        if abs(val - target) <= tol * target:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    raise NonConvergent(f"fugacity bisection stalled for target {target:.6g}")


def thermal_velocity_sq(species: SpeciesParams, alpha: float) -> float:
    """Mean-square velocity scale (3 k_B T / m) weighted by the ratio of the
    5/2 and 3/2 occupation sums.  Tends to 3 k_B T / m in the classical limit."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if species.temperature <= 0:
        raise ValueError("thermal velocity needs temperature > 0")
    num = zeta_pm(2.5, alpha, species.statistics)
    den = zeta_pm(1.5, alpha, species.statistics)
    return 3.0 * K_B * species.temperature / species.mass * num / den


def derive_scales(species: SpeciesParams) -> DerivedScales:
    """One-stop derivation of every scale the solvers consume."""
    omega_p = plasma_frequency(species)
    v_ch = characteristic_velocity(species)
    lam_q = HBAR**2 / (4.0 * species.mass**2)
    if species.fully_degenerate:
        return DerivedScales(omega_p=omega_p, v_ch=v_ch, alpha=1.0, v_th_sq=0.0, lambda_quantum=lam_q)
    alpha = fugacity_from_density(species)
    v_th_sq = thermal_velocity_sq(species, alpha)
    return DerivedScales(omega_p=omega_p, v_ch=v_ch, alpha=alpha, v_th_sq=v_th_sq, lambda_quantum=lam_q)


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


def _g_rational(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0; uses w(iz) so the Faddeeva argument sits in the
    # upper half plane exactly where the rational fit converges
    big_l = _WEIDEMAN_L
    d = big_l + z  # = L - i*(i z)
    ratio = (big_l - z) / d
    poly = np.polyval(_WEIDEMAN_COEFS, ratio)
    w_iz = 2.0 * poly / (d * d) + (1.0 / _SQRT_PI) / d
    return _SQRT_PI * z * w_iz


# Coefficients (-1)^k (2k-1)!! of the asymptotic series
# G = sum_k (-1)^k (2k-1)!! / (2 z^2)^k, k = 0..; for |z| > 6 the series is
# cut at k <= 36 (the smallest term at |z|^2 = 36), so 40 entries suffice.
_ASYM_COEFS = np.cumprod(np.concatenate(([1.0], 1.0 - 2.0 * np.arange(1, 40))))


def _asymptotic_order(r2: float) -> int:
    # last index kept at |z|^2 = r2: the smallest term, or the first term
    # below 1e-17, whichever comes first.  A larger |z| in the same batch
    # only sees terms that are still shrinking, so it loses nothing.
    term = 1.0
    for k in range(1, len(_ASYM_COEFS)):
        ratio = (2.0 * k - 1.0) / (2.0 * r2)
        if ratio >= 1.0:
            return k - 1
        term *= ratio
        if term < 1e-17:
            return k
    return len(_ASYM_COEFS) - 1


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
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()

    refl = flat.real < 0.0
    zp = np.where(refl, -flat, flat)
    out = np.empty_like(zp)
    small = np.abs(zp) <= 6.0
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

def _series_signs(fermi: bool, j: int) -> float:
    return 1.0 if (not fermi or j % 2 == 1) else -1.0


def _fz_series(w, species: SpeciesParams, alpha: float, *, integrated: bool):
    # (w as floats, beta, sum_j (-+1)^(j-1) c_j exp(-j beta w^2)) with
    # c_j = alpha^j / j for the distribution (integrated), alpha^j for its slope
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1) for the thermal series")
    if species.temperature <= 0:
        raise ValueError("thermal distribution needs temperature > 0")
    w_arr = np.asarray(w, dtype=float)
    beta = species.mass / (2.0 * K_B * species.temperature)
    fermi = species.statistics is Statistics.FERMI
    acc = np.zeros_like(w_arr)
    aj = alpha
    j = 1
    w2 = w_arr * w_arr
    while True:
        c_j = aj / j if integrated else aj
        acc += _series_signs(fermi, j) * c_j * np.exp(-j * beta * w2)
        if aj / (1.0 - alpha) < 1e-16:
            break
        j += 1
        aj *= alpha
        if j > 100_000:
            raise NonConvergent("distribution series exceeded 100000 terms")
    return w_arr, beta, acc


def reduced_fz(w, species: SpeciesParams, alpha: float):
    """1d velocity distribution of a thermal quantum gas, normalized so that
    its integral over w is the number density."""
    _, beta, acc = _fz_series(w, species, alpha, integrated=True)
    a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
    pref = a_w * math.pi / beta  # = g (m^3/h^3) * (2 pi k_B T / m)
    out = pref * acc
    return float(out) if np.ndim(w) == 0 else out


def reduced_fz_derivative(w, species: SpeciesParams, alpha: float):
    """d/dw of reduced_fz; the kernel of the longitudinal response."""
    w_arr, _, acc = _fz_series(w, species, alpha, integrated=False)
    a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
    out = -2.0 * math.pi * a_w * w_arr * acc
    return float(out) if np.ndim(w) == 0 else out
