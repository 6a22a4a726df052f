"""Longitudinal dielectric residuals and closed-form branch frequencies.

Roots of the residuals in the complex rate s = eta + i*omega are the
dispersion branches: omega(k) is the oscillation frequency, eta(k) < 0 the
Landau damping rate.  Three residual evaluations are provided:

* residual_degenerate: the fully degenerate gas, written in the scaled
  variables r = k v_F / omega and epsilon = eta / omega.
* residual_weak: the thermal gas above degeneracy, as a fugacity series over
  scaled complementary error functions on Re theta >= 0 plus the closed-form
  occupation-pole term, which also stands in for the reflection terms.
* residual_quadrature: direct integration of the velocity-space response
  with pole subtraction, by Gauss-Legendre rules (closed form at full
  degeneracy).  Shares no special functions with the other two, so it
  serves as the independent cross-check path.

All three return one complex value, holomorphic in s away from their branch
cuts, oriented as 1 - (normalized response).  The weak and quadrature
values differ by the pole term alone; tests pin that relation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonConvergent, QuadratureFailure, SingularInput
from .quantum_stats import (
    PLANCK_H,
    DerivedScales,
    SpeciesParams,
    Statistics,
    scaled_erfc,
    thermal_beta,
)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class ComplexRate:
    """One complex root s = eta + i*omega with omega > 0.

    eta < 0 means damping.  The propagating-frequency convention omega > 0
    is enforced here; the conjugate root is implied.  Both parts are finite.
    """

    eta: float
    omega: float

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite (conjugate roots are implied)")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")

    @property
    def s(self) -> complex:
        return complex(self.eta, self.omega)

    def r(self, k: float, v_ch: float) -> float:
        return k * v_ch / self.omega


class BranchId(Enum):
    ExactDegenerate = "ExactDegenerate"
    ExactWeak = "ExactWeak"
    ExactQuadrature = "ExactQuadrature"
    QuantumLangmuir = "QuantumLangmuir"
    C1Corrected = "C1Corrected"
    DegenerateBohmGross = "DegenerateBohmGross"
    ZeroSound = "ZeroSound"
    WeakBiquadratic = "WeakBiquadratic"
    WeakSimple = "WeakSimple"


#: branches whose residual/expansion assumes the fully degenerate gas
DEGENERATE_BRANCHES = frozenset(
    {
        BranchId.ExactDegenerate,
        BranchId.QuantumLangmuir,
        BranchId.C1Corrected,
        BranchId.DegenerateBohmGross,
        BranchId.ZeroSound,
    }
)
#: branches that need a thermal gas with fugacity in (0, 1)
WEAK_BRANCHES = frozenset({BranchId.ExactWeak, BranchId.WeakBiquadratic, BranchId.WeakSimple})
#: branches solved by Newton iteration on a residual
EXACT_BRANCHES = frozenset({BranchId.ExactDegenerate, BranchId.ExactWeak, BranchId.ExactQuadrature})
CLOSED_FORM_BRANCHES = frozenset(BranchId) - EXACT_BRANCHES


def coefficient_C1(k: float, scales: DerivedScales) -> float:
    """Restoring coefficient Omega_p^2 + hbar^2 k^4 / (4 m^2).  The quantum
    term is scales.lambda_quantum k^4: the public entry points take
    bohm_term, and with_bohm_term's scales hold 0.0 for it."""
    if not k > 0:
        raise ValueError("k must be positive")
    return scales.omega_p**2 + scales.lambda_quantum * k**4


def check_wavenumber(k: float, scales: DerivedScales) -> None:
    """Raise ValueError unless k is positive and finite and k^4 and the square
    of C1(k) + 2 k^2 max(v_ch^2, v_th^2), which bounds what the closed forms
    and seeds square, are finite doubles."""
    if not 0 < k < math.inf:
        raise ValueError("k must be positive and finite")
    k2 = k * k
    scale = scales.omega_p**2 + scales.lambda_quantum * k2 * k2 + 2.0 * k2 * max(scales.v_ch**2, scales.v_th_sq)
    if not (k2 * k2 < math.inf and scale * scale < math.inf):
        raise ValueError(f"k = {k:.6g} is too large: k^4 or the squared frequency scale overflows a double")


def residual_degenerate(r: float, epsilon: float, k: float, scales: DerivedScales) -> complex:
    """Fully degenerate residual in the scaled variables r = k v_F/omega and
    epsilon = eta/omega.

    The printed form splits into a real part and an imaginary part with the
    common prefactor pref = 3 C1 / (k^2 v_F^2 r) divided out; the value
    returned is real_part - i pref imag_part, holomorphic in s.  Its
    imaginary part is identically zero for epsilon = 0 inside r^2 < 1 (all
    three terms of imag_part vanish there), which is why the undamped branch
    can be followed with epsilon pinned at exactly 0.0.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if r == 1.0 and epsilon == 0.0:
        raise SingularInput("phase velocity exactly at the edge velocity with no damping")
    c1 = coefficient_C1(k, scales)
    v_f = scales.v_ch
    # two-argument arctangent of (2 r eps) over (1 + eps^2 - r^2): continuous
    # across the branch switch of arctan at r^2 + eps^2 = 1, and equal to the
    # principal log form used by the quadrature path
    big_a = math.atan2(2.0 * r * epsilon, 1.0 + epsilon * epsilon - r * r)
    lg = math.log(((1.0 - r) ** 2 + epsilon * epsilon) / ((1.0 + r) ** 2 + epsilon * epsilon))
    step = 1.0 if r * r + epsilon * epsilon >= 1.0 else 0.0
    pref = 3.0 * c1 / (k * k * v_f * v_f * r)
    real_part = 1.0 - pref * (0.5 * epsilon * big_a - 0.25 * lg - r + math.pi * epsilon * step)
    imag_part = 0.5 * big_a + 0.25 * epsilon * lg + math.pi * step
    return complex(real_part, -pref * imag_part)


# residual_weak series: tail tolerance, which sizes the block, and term budget
_WEAK_TOL = 1e-14
_WEAK_MAX_TERMS = 10_000


@functools.lru_cache(maxsize=64)
def _weak_block(alpha: float, fermi: bool) -> tuple[np.ndarray, np.ndarray]:
    # sqrt(j) and the signed coefficients (-+1)^(j-1) alpha^j / sqrt(j),
    # j = 1 .. J.  |G(z) - 1| <= 1 on Re z >= 0, so the occupation sums' tail
    # bound on the coefficients sizes J for every rate.
    slack = 1.0 if fermi else 1.0 / (1.0 - alpha)
    n_terms = max(int(math.log(_WEAK_TOL / slack) / math.log(alpha)) + 2, 8)
    if n_terms > _WEAK_MAX_TERMS:
        raise NonConvergent(f"response series needs {n_terms} terms, more than {_WEAK_MAX_TERMS} (alpha = {alpha})")
    j = np.arange(1, n_terms + 1, dtype=float)
    sqrt_j = np.sqrt(j)
    coef = np.power(alpha, j) / sqrt_j
    if fermi:
        coef = coef * np.where(j % 2.0 == 1.0, 1.0, -1.0)
    sqrt_j.flags.writeable = coef.flags.writeable = False
    return sqrt_j, coef


def residual_weak(k: float, s: complex, species: SpeciesParams, alpha: float, scales: DerivedScales) -> complex:
    """Thermal-gas residual as a fugacity series over scaled complementary
    error functions, plus the occupation-pole term, normalized by the
    density moment (2/3) v_ch^3.  Returns 1 - (response)/(normalization).

    The series sum_j (-+1)^(j-1) (alpha^j / sqrt(j)) (G(sqrt(j) theta) - 1)
    runs on Re theta >= 0.  On Re theta < 0, G(z) = G(-z) + 2 sqrt(pi) z
    e^(z^2), and the reflection parts sum, continued where they diverge, to
    the pole term, which stands in for them.  The pole term also enters
    unconditionally, matching the analytic form this implements; see
    residual_quadrature for the contour-tracking variant.  NonConvergent
    comes only from the term budget (fugacity about 0.997 and up).
    """
    if not k > 0:
        raise ValueError("k must be positive")
    beta = thermal_beta(species, alpha)
    s = complex(s)
    theta = math.sqrt(beta) * s / k
    fermi = species.statistics is Statistics.FERMI
    sqrt_j, coef = _weak_block(alpha, fermi)

    # pole of the occupation denominator at w = i s / k
    x = theta * theta
    if x.real > 700.0:
        # t = alpha e^(theta^2) overflows; t/(1 +- t) -> +-1
        pole = (1.0 if fermi else -1.0) * 2.0 * _SQRT_PI * theta
    else:
        t = alpha * cmath.exp(x)
        den = 1.0 + t if fermi else 1.0 - t
        if den == 0:
            raise SingularInput("rate sits exactly on an occupation pole")
        pole = 2.0 * _SQRT_PI * theta * t / den

    reflect = theta.real < 0.0
    g = scaled_erfc(sqrt_j * (-theta if reflect else theta))
    total = complex(np.sum(coef * (g - 1.0))) + (pole if reflect else 0.0)

    c1 = coefficient_C1(k, scales)
    norm = (2.0 / 3.0) * scales.v_ch**3
    response = (c1 / (k * k)) * math.sqrt(math.pi / beta) * (total + pole)
    return 1.0 - response / norm


# ---------------------------------------------------------------------------
# direct quadrature of the velocity-space response
# ---------------------------------------------------------------------------

# Gauss-Legendre sizes per panel.  The subtracted integrand is analytic on
# [-1, 1], so the error falls geometrically and squares at each doubling:
# two sizes that agree to _GL_TOL leave the larger one good to ~_GL_TOL^2.
_GL_SIZES = (64, 128, 256, 512)
_GL_TOL = 1e-7


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Newton on P_n (three-term recurrence) from Tricomi's guesses: rounding
    # level after four steps at every size used.  Not numpy's leggauss: its
    # weights are good to only 1e-12..1e-10 here, ~1e-13 in the residual.
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _occupation_slope(u: np.ndarray, s_beta_w2: float, inv_alpha: float, fermi: bool) -> np.ndarray:
    # g(u) = -c u / ((1/alpha) exp(beta W^2 u^2) +- 1) up to the caller's
    # prefactor; closed occupation form, no series
    pm = 1.0 if fermi else -1.0
    return -u / (inv_alpha * np.exp(s_beta_w2 * u * u) + pm)


def _occupation_slope_at(p: complex, s_beta_w2: float, inv_alpha: float, fermi: bool) -> complex:
    # same function continued to a complex point; past the first guard
    # (1/alpha) exp(arg) would overflow, and the slope is below |p| e^-700
    pm = 1.0 if fermi else -1.0
    arg = s_beta_w2 * p * p
    if arg.real > 700.0 - math.log(inv_alpha):
        return 0.0 + 0.0j
    if arg.real < -700.0:
        return -p / pm
    den = inv_alpha * cmath.exp(arg) + pm
    if den == 0:
        raise SingularInput("rate sits exactly on an occupation pole")
    return -p / den


@functools.lru_cache(maxsize=64)
def _panel_nodes(
    n: int, cuts: tuple[float, ...], c_g: float, s_beta_w2: float, inv_alpha: float, fermi: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the n-point rule on every panel between cuts: nodes, weights and the
    # scaled occupation slope at the nodes, none of which depends on the rate
    edges = np.array(cuts)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    x, w = _legendre_rule(n)
    u = mid + half * x
    out = (u, half * w, c_g * _occupation_slope(u, s_beta_w2, inv_alpha, fermi))
    for a in out:
        a.flags.writeable = False
    return out


def _gauss_legendre(p_hat: complex, g_at_p: complex, gas: tuple) -> complex:
    # integral of (g(u) - g(p))/(u - p) over [cuts[0], cuts[-1]], gas being
    # _panel_nodes' arguments after n; every panel goes through one
    # vectorised evaluation per rule size
    previous = None
    for n in _GL_SIZES:
        u, weights, g = _panel_nodes(n, *gas)
        d = u - p_hat
        # a node can only collide with a real pole; the subtracted numerator
        # vanishes there too, so 0 is the removable-limit value
        weighted = weights * np.divide(g - g_at_p, d, out=np.zeros_like(d), where=d != 0)
        estimate = complex(weighted.sum())
        if previous is not None:
            # relative to the integral of |integrand|, which cancellation
            # cannot zero
            gap = abs(estimate - previous)
            if gap <= _GL_TOL * float(np.abs(weighted).sum()):
                return estimate
        previous = estimate
    raise QuadratureFailure(f"Gauss-Legendre rules of 256 and 512 nodes per panel differ by {gap:.3e}")


def _principal_log_ratio(p_hat: complex, eta_is_zero: bool) -> complex:
    # log((1 - p)/(-1 - p)): the integral of 1/(u - p) over [-1, 1].  For a
    # rate exactly on the real-s axis the ratio can land on the negative real
    # axis with a -0.0 imaginary part; force +0.0 so the branch agrees with
    # the eta -> 0- limit (principal value plus i pi times the slope).
    num = 1.0 - p_hat
    den = -1.0 - p_hat
    if den == 0:
        raise SingularInput("phase velocity exactly at the integration edge")
    ratio = num / den
    if eta_is_zero and ratio.imag == 0.0:
        ratio = complex(ratio.real, 0.0)
    return cmath.log(ratio)


def residual_quadrature(
    k: float, s: complex, species: SpeciesParams, alpha: float | None, scales: DerivedScales
) -> complex:
    """Velocity-space response integrated directly, with the pole handled by
    subtraction: integrate (g(u) - g(p))/(u - p) plus g(p) times the closed
    log of the end-point ratio.  Returns 1 - (C1/k^2 n0) * integral, so it
    shares the orientation of residual_degenerate.

    alpha = None selects the fully degenerate path, integrated in closed
    form.  A thermal gas takes Gauss-Legendre rules of doubling size, with
    [-1, 1] cut at the Bose occupation poles when they come close to it.
    Contour bookkeeping:

    * fully degenerate: a full residue term 2 pi i g(p) is added whenever
      k^2 v_F^2 + eta^2 - omega^2 >= 0 (step convention U(0) = 1), matching
      the printed combination of principal value and residue for that gas.
    * thermal: the residue is added for eta < 0 only, i.e. the integral is
      the analytic continuation from the growing half-plane.

    On the eta = 0 line the principal-branch log supplies the half residue
    by itself; nothing further is added there in the thermal case.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    s = complex(s)
    p = 1j * s / k  # pole in velocity space: (-omega + i eta)/k
    eta = s.real

    if alpha is None:
        if not species.fully_degenerate:
            raise ValueError("alpha = None requires a fully degenerate species")
        v_f = scales.v_ch
        w_scale = v_f
        p_hat = p / w_scale
        if p_hat.imag == 0.0 and abs(p_hat.real) == 1.0:
            raise SingularInput("phase velocity exactly at the edge velocity with no damping")
        # scaled slope g(u) = W^2 f'(W u)/n0 = -(3/2) u exactly, by the
        # density normalization of the ground-state parabola
        g_at_p = -1.5 * p_hat
        add_residue = (k * v_f) ** 2 + eta * eta - s.imag**2 >= 0.0
        if abs(p_hat) >= 2.0:
            # far pole: the subtraction scheme cancels two O(|p|) pieces and
            # loses precision, but the integral collapses analytically to
            #   integral = 3 q^2 sum_n q^(2n)/(2n + 3),  q = 1/p
            # (expand 1/(u - p) in u/p; odd terms drop).  Same principal
            # branch, since the pole stays off the segment.
            q2 = (1.0 / p_hat) ** 2
            term = q2
            integral = 0.0 + 0.0j
            for n in range(0, 200):
                contrib = 3.0 * term / (2 * n + 3)
                integral += contrib
                if abs(contrib) < 1e-18 * abs(integral):
                    break
                term *= q2
        else:
            # (g(u) - g(p))/(u - p) = -3/2 on all of [-1, 1]
            integral = -3.0 + g_at_p * _principal_log_ratio(p_hat, eta == 0.0)
    else:
        beta = thermal_beta(species, alpha)
        w_scale = 8.0 / math.sqrt(beta)  # exp(-beta W^2) ~ 1e-28: tail negligible
        s_beta_w2 = beta * w_scale * w_scale
        inv_alpha = 1.0 / alpha
        fermi = species.statistics is Statistics.FERMI
        a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
        c_g = 2.0 * math.pi * a_w * w_scale**3 / species.density
        p_hat = p / w_scale
        g_at_p = c_g * _occupation_slope_at(p_hat, s_beta_w2, inv_alpha, fermi)
        add_residue = eta < 0.0

        # Bose occupation poles sit at u = +-i sqrt(-ln alpha / (beta W^2));
        # Fermi poles stay beyond |u| ~ sqrt(pi)/8 for every fugacity
        pole = math.sqrt(-math.log(alpha) / s_beta_w2)
        cuts = (-1.0, -pole, pole, 1.0) if not fermi and 2.0 * pole < 0.5 else (-1.0, 1.0)
        integral = _gauss_legendre(p_hat, g_at_p, (cuts, c_g, s_beta_w2, inv_alpha, fermi))
        integral += g_at_p * _principal_log_ratio(p_hat, eta == 0.0)

    if add_residue:
        integral += 2.0j * math.pi * g_at_p
    c1 = coefficient_C1(k, scales)
    # (1/n0) integral over w of f'(w)/(w - p) = integral(u) / w_scale^2 here
    return 1.0 - (c1 / (k * k * w_scale * w_scale)) * integral


# ---------------------------------------------------------------------------
# closed-form branch frequencies
# ---------------------------------------------------------------------------

def omega_quantum_langmuir(k: float, scales: DerivedScales) -> float:
    """Dispersionless limit omega^2 = C1(k)."""
    return math.sqrt(coefficient_C1(k, scales))


def omega_c1_corrected(k: float, scales: DerivedScales) -> float:
    """First correction beyond the dispersionless limit for the degenerate
    gas: omega^2 = C1 (1 + sqrt(1 + 12 k^2 v_F^2 / (5 C1))) / 2."""
    c1 = coefficient_C1(k, scales)
    if c1 <= 0:
        raise ValueError("no restoring force: C1 vanished (neutral gas with the quantum term off)")
    x = 12.0 * (k * scales.v_ch) ** 2 / (5.0 * c1)
    return math.sqrt(0.5 * c1 * (1.0 + math.sqrt(1.0 + x)))


def omega_degenerate_bohm_gross(k: float, scales: DerivedScales) -> float:
    """Small-k expansion for the degenerate gas:
    omega^2 = Omega_p^2 + (3/5) k^2 v_F^2 + hbar^2 k^4/(4 m^2)."""
    if not k > 0:
        raise ValueError("k must be positive")
    om2 = scales.omega_p**2 + (0.6 * scales.v_ch**2) * k**2 + scales.lambda_quantum * k**4
    return math.sqrt(om2)


def omega_zero_sound(k: float, scales: DerivedScales) -> float:
    """Acoustic-like branch with phase velocity just above the edge velocity.

    Derivation sketch, kept because the exponent grouping is easy to get
    wrong: on the undamped axis the degenerate condition reads
        1 = (3 C1 / (k^2 vF^2 r)) [ (1/2) ln((1+r)/(1-r)) - r ].
    Writing r = 1 - d and expanding for d -> 0+ the bracket tends to
    (1/2) ln(2/d) - 1 and the prefactor to 3 C1 / (k^2 vF^2), so
        d = 2 exp(-2 k^2 vF^2 / (3 C1) - 2),
    i.e. omega = k vF (1 + 2 exp(-(2/3) k^2 vF^2 / C1 - 2)) to leading order.
    """
    c1 = coefficient_C1(k, scales)
    if c1 <= 0:
        raise ValueError("no restoring force: C1 vanished (neutral gas with the quantum term off)")
    x = (2.0 / 3.0) * (k * scales.v_ch) ** 2 / c1
    return k * scales.v_ch * (1.0 + 2.0 * math.exp(-x - 2.0))


def omega_weak_biquadratic(k: float, species: SpeciesParams, scales: DerivedScales) -> float:
    """Positive root of the thermal biquadratic
    omega^4 - C1 omega^2 - C1 k^2 v_th^2 = 0."""
    if not scales.v_th_sq > 0:
        raise ValueError("thermal branch needs v_th_sq > 0 (gas not fully degenerate)")
    c1 = coefficient_C1(k, scales)
    return math.sqrt(0.5 * (c1 + math.sqrt(c1 * c1 + 4.0 * (k * k) * scales.v_th_sq * c1)))


def omega_weak_simple(k: float, species: SpeciesParams, scales: DerivedScales) -> float:
    """Expanded thermal form omega^2 = Omega_p^2 + k^2 v_th^2 + hbar^2 k^4/(4 m^2).

    Evaluated with the same operation ordering as omega_degenerate_bohm_gross
    so the two are bit-identical when v_th_sq is set to (3/5) v_F^2.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    if not scales.v_th_sq > 0:
        raise ValueError("thermal branch needs v_th_sq > 0 (gas not fully degenerate)")
    om2 = scales.omega_p**2 + scales.v_th_sq * k**2 + scales.lambda_quantum * k**4
    return math.sqrt(om2)
