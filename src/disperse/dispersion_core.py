"""Longitudinal dielectric residuals and closed-form branch frequencies.

Roots of the residuals in the complex rate s = eta + i*omega are the
dispersion branches: omega(k) is the oscillation frequency, eta(k) < 0 the
Landau damping rate.  Three residual evaluations are provided:

* residual_degenerate: the fully degenerate gas, written in the scaled
  variables r = k v_F / omega and epsilon = eta / omega.
* residual_weak: the thermal gas above degeneracy, as a fugacity series over
  scaled complementary error functions plus an explicit pole term.
* residual_quadrature: direct integration of the velocity-space response
  with pole subtraction, by Gauss-Legendre rules (closed form at full
  degeneracy).  Shares no special functions with the other two, so it
  serves as the independent cross-check path.

Sign conventions differ between the printed forms these follow:
residual_degenerate and residual_quadrature vanish where the normalized
response F equals 1 and are oriented as 1 - (response terms), while
residual_weak returns (response terms) - 1.  Where the pole term is
negligible the weak and quadrature values therefore agree up to an overall
sign; tests pin the exact relation including the pole term.
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
    K_B,
    PLANCK_H,
    DerivedScales,
    SpeciesParams,
    Statistics,
    scaled_erfc,
)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class ComplexRate:
    """One complex root s = eta + i*omega with omega > 0.

    eta < 0 means damping.  The propagating-frequency convention omega > 0
    is enforced here; the conjugate root is implied.
    """

    eta: float
    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be positive (conjugate roots are implied)")

    @property
    def s(self) -> complex:
        return complex(self.eta, self.omega)

    def r(self, k: float, v_ch: float) -> float:
        return k * v_ch / self.omega


@dataclass(frozen=True)
class ResidualValue:
    """Real and imaginary residual components plus the resonance-region flag
    (True when r^2 + epsilon^2 >= 1, i.e. the step term is active).

    imag_part has the common prefactor pref = 3 C1 / (k^2 v_ch^2 r) divided
    out; `analytic` puts it back.
    """

    real_part: float
    imag_part: float
    region_flag: bool
    pref: float = math.nan

    @property
    def analytic(self) -> complex:
        """The residual as a function holomorphic in s = eta + i omega."""
        return complex(self.real_part, -self.pref * self.imag_part)


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


def coefficient_C1(k: float, scales: DerivedScales, *, bohm_term: bool = True) -> float:
    """Restoring coefficient Omega_p^2 + hbar^2 k^4 / (4 m^2); the quantum
    term is controlled by the bohm_term hook."""
    if not k > 0:
        raise ValueError("k must be positive")
    hook = 1.0 if bohm_term else 0.0
    return scales.omega_p**2 + hook * scales.lambda_quantum * k**4


def residual_degenerate(
    r: float, epsilon: float, k: float, scales: DerivedScales, *, bohm_term: bool = True
) -> ResidualValue:
    """Fully degenerate residual in the scaled variables r = k v_F/omega and
    epsilon = eta/omega.

    real_part vanishes on a branch; imag_part must vanish simultaneously.
    imag_part is identically zero for epsilon = 0 inside r^2 < 1 (all three
    of its terms vanish there), which is why the undamped branch can be
    followed with epsilon pinned at exactly 0.0.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if r == 1.0 and epsilon == 0.0:
        raise SingularInput("phase velocity exactly at the edge velocity with no damping")
    c1 = coefficient_C1(k, scales, bohm_term=bohm_term)
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
    return ResidualValue(real_part=real_part, imag_part=imag_part, region_flag=bool(step), pref=pref)


# residual_weak series: tail tolerance, which also sizes the first block, and
# the term budget
_WEAK_TOL = 1e-14
_WEAK_MAX_TERMS = 10_000


def residual_weak(
    k: float,
    s: complex,
    species: SpeciesParams,
    alpha: float,
    scales: DerivedScales,
    *,
    bohm_term: bool = True,
) -> complex:
    """Thermal-gas residual as a fugacity series over scaled complementary
    error functions, plus the occupation-pole term, normalized by the
    density moment (2/3) v_ch^3.  Returns (response)/(normalization) - 1.

    The pole term enters unconditionally, matching the analytic form this
    implements; see residual_quadrature for the contour-tracking variant.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if species.temperature <= 0:
        raise ValueError("thermal residual needs temperature > 0")
    s = complex(s)
    beta = species.mass / (2.0 * K_B * species.temperature)
    theta = math.sqrt(beta) * s / k
    fermi = species.statistics is Statistics.FERMI

    # sum_j (-+1)^(j-1) (alpha^j / sqrt(j)) (G(sqrt(j) theta) - 1), truncated
    # by the same coefficient tail bound as the occupation sums.  The block is
    # sized so that the bound passes after one block when |G - 1| <= 1; a
    # larger |G - 1|, from the reflection term at Re theta < 0, falls through
    # to further blocks.
    total = 0.0 + 0.0j
    slack = 1.0 if fermi else 1.0 / (1.0 - alpha)
    g_sup = 1.0
    block = int(math.log(_WEAK_TOL / slack) / math.log(alpha)) + 2
    block = min(max(block, 8), _WEAK_MAX_TERMS)
    j0 = 1
    while True:
        j = np.arange(j0, j0 + block, dtype=float)
        g = scaled_erfc(np.sqrt(j) * theta)
        coef = np.power(alpha, j) / np.sqrt(j)
        if fermi:
            coef = coef * np.where(j % 2.0 == 1.0, 1.0, -1.0)
        part = complex(np.sum(coef * (g - 1.0)))
        if not cmath.isfinite(part):
            # alpha exp(Re theta^2) > 1: the terms grow, so no later block helps
            raise NonConvergent(f"response series diverges at theta = {theta:.6g} (alpha = {alpha})")
        total += part
        g_sup = max(1.0, float(np.max(np.abs(g - 1.0))))
        j_next = j0 + block
        bound = alpha**j_next / math.sqrt(j_next) * slack * g_sup
        if bound < _WEAK_TOL:
            break
        j0 = j_next
        if j0 > _WEAK_MAX_TERMS:
            raise NonConvergent(f"response series passed {_WEAK_MAX_TERMS} terms (alpha = {alpha})")

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

    c1 = coefficient_C1(k, scales, bohm_term=bohm_term)
    norm = (2.0 / 3.0) * scales.v_ch**3
    response = (c1 / (k * k)) * math.sqrt(math.pi / beta) * (total + pole)
    return response / norm - 1.0


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


def _gauss_legendre(f, cuts: np.ndarray) -> complex:
    # integral of f over [cuts[0], cuts[-1]], one panel between each pair of
    # cuts; every panel goes through one vectorised call of f per rule size
    mid = 0.5 * (cuts[1:] + cuts[:-1])[:, None]
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    previous = None
    for n in _GL_SIZES:
        x, w = _legendre_rule(n)
        weighted = (half * w) * f(mid + half * x)
        estimate = complex(weighted.sum())
        if previous is not None:
            # relative to the integral of |f|, which cancellation cannot zero
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
    k: float,
    s: complex,
    species: SpeciesParams,
    alpha: float | None,
    scales: DerivedScales,
    *,
    bohm_term: bool = True,
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
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if species.temperature <= 0:
            raise ValueError("thermal quadrature needs temperature > 0")
        beta = species.mass / (2.0 * K_B * species.temperature)
        w_scale = 8.0 / math.sqrt(beta)  # exp(-beta W^2) ~ 1e-28: tail negligible
        s_beta_w2 = beta * w_scale * w_scale
        inv_alpha = 1.0 / alpha
        fermi = species.statistics is Statistics.FERMI
        a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
        c_g = 2.0 * math.pi * a_w * w_scale**3 / species.density
        p_hat = p / w_scale
        g_at_p = c_g * _occupation_slope_at(p_hat, s_beta_w2, inv_alpha, fermi)
        add_residue = eta < 0.0

        def integrand(u):
            d = u - p_hat
            # a quadrature node can only collide with a real pole; the subtracted
            # numerator vanishes there too, so 0 is the removable-limit value
            vals = c_g * _occupation_slope(u, s_beta_w2, inv_alpha, fermi) - g_at_p
            safe = np.where(d == 0, 1.0, d)
            out = vals / safe
            return np.where(d == 0, 0.0, out)

        # Bose occupation poles sit at u = +-i sqrt(-ln alpha / (beta W^2));
        # Fermi poles stay beyond |u| ~ sqrt(pi)/8 for every fugacity
        pole = math.sqrt(-math.log(alpha) / s_beta_w2)
        cuts = [-1.0, -pole, pole, 1.0] if not fermi and 2.0 * pole < 0.5 else [-1.0, 1.0]
        integral = _gauss_legendre(integrand, np.array(cuts))
        integral += g_at_p * _principal_log_ratio(p_hat, eta == 0.0)

    if add_residue:
        integral += 2.0j * math.pi * g_at_p
    c1 = coefficient_C1(k, scales, bohm_term=bohm_term)
    # (1/n0) integral over w of f'(w)/(w - p) = integral(u) / w_scale^2 here
    return 1.0 - (c1 / (k * k * w_scale * w_scale)) * integral


# ---------------------------------------------------------------------------
# closed-form branch frequencies
# ---------------------------------------------------------------------------

def omega_quantum_langmuir(k: float, scales: DerivedScales, *, bohm_term: bool = True) -> float:
    """Dispersionless limit omega^2 = C1(k)."""
    return math.sqrt(coefficient_C1(k, scales, bohm_term=bohm_term))


def omega_c1_corrected(k: float, scales: DerivedScales, *, bohm_term: bool = True) -> float:
    """First correction beyond the dispersionless limit for the degenerate
    gas: omega^2 = C1 (1 + sqrt(1 + 12 k^2 v_F^2 / (5 C1))) / 2."""
    c1 = coefficient_C1(k, scales, bohm_term=bohm_term)
    if c1 <= 0:
        raise ValueError("no restoring force: C1 vanished (neutral gas with the quantum term off)")
    x = 12.0 * (k * scales.v_ch) ** 2 / (5.0 * c1)
    return math.sqrt(0.5 * c1 * (1.0 + math.sqrt(1.0 + x)))


def omega_degenerate_bohm_gross(k: float, scales: DerivedScales, *, bohm_term: bool = True) -> float:
    """Small-k expansion for the degenerate gas:
    omega^2 = Omega_p^2 + (3/5) k^2 v_F^2 + hbar^2 k^4/(4 m^2)."""
    if not k > 0:
        raise ValueError("k must be positive")
    hook = 1.0 if bohm_term else 0.0
    om2 = scales.omega_p**2 + (0.6 * scales.v_ch**2) * k**2 + hook * scales.lambda_quantum * k**4
    return math.sqrt(om2)


def omega_zero_sound(k: float, scales: DerivedScales, *, bohm_term: bool = True) -> float:
    """Acoustic-like branch with phase velocity just above the edge velocity.

    Derivation sketch, kept because the exponent grouping is easy to get
    wrong: on the undamped axis the degenerate condition reads
        1 = (3 C1 / (k^2 vF^2 r)) [ (1/2) ln((1+r)/(1-r)) - r ].
    Writing r = 1 - d and expanding for d -> 0+ the bracket tends to
    (1/2) ln(2/d) - 1 and the prefactor to 3 C1 / (k^2 vF^2), so
        d = 2 exp(-2 k^2 vF^2 / (3 C1) - 2),
    i.e. omega = k vF (1 + 2 exp(-(2/3) k^2 vF^2 / C1 - 2)) to leading order.
    """
    c1 = coefficient_C1(k, scales, bohm_term=bohm_term)
    if c1 <= 0:
        raise ValueError("no restoring force: C1 vanished (neutral gas with the quantum term off)")
    x = (2.0 / 3.0) * (k * scales.v_ch) ** 2 / c1
    return k * scales.v_ch * (1.0 + 2.0 * math.exp(-x - 2.0))


def omega_weak_biquadratic(
    k: float, species: SpeciesParams, scales: DerivedScales, *, bohm_term: bool = True
) -> float:
    """Positive root of the thermal biquadratic
    omega^4 - C1 omega^2 - C1 k^2 v_th^2 = 0."""
    if not scales.v_th_sq > 0:
        raise ValueError("thermal branch needs v_th_sq > 0 (gas not fully degenerate)")
    c1 = coefficient_C1(k, scales, bohm_term=bohm_term)
    return math.sqrt(0.5 * (c1 + math.sqrt(c1 * c1 + 4.0 * (k * k) * scales.v_th_sq * c1)))


def omega_weak_simple(
    k: float, species: SpeciesParams, scales: DerivedScales, *, bohm_term: bool = True
) -> float:
    """Expanded thermal form omega^2 = Omega_p^2 + k^2 v_th^2 + hbar^2 k^4/(4 m^2).

    Evaluated with the same operation ordering as omega_degenerate_bohm_gross
    so the two are bit-identical when v_th_sq is set to (3/5) v_F^2.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    if not scales.v_th_sq > 0:
        raise ValueError("thermal branch needs v_th_sq > 0 (gas not fully degenerate)")
    hook = 1.0 if bohm_term else 0.0
    om2 = scales.omega_p**2 + scales.v_th_sq * k**2 + hook * scales.lambda_quantum * k**4
    return math.sqrt(om2)
