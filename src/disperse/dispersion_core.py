"""Longitudinal dielectric residuals and closed-form branch frequencies.

Roots of the residuals in the complex rate s = eta + i*omega are the
dispersion branches: omega(k) is the oscillation frequency, eta(k) < 0 the
Landau damping rate.  Three residual evaluations are provided, and the
fully degenerate gas has one coding, residual_degenerate:

* residual_degenerate: the fully degenerate gas, its velocity integral in
  closed form (the paper's printed form in r = k v_F/omega and
  epsilon = eta/omega, coded in s); residual_degenerate_array is it on arrays.
* residual_weak: the thermal gas above degeneracy, as a fugacity series over
  scaled complementary error functions on Re theta >= 0 plus the closed-form
  occupation-pole term, which also stands in for the reflection terms.
* residual_quadrature: direct integration of the velocity-space response
  with pole subtraction, by Gauss-Legendre rules; at full degeneracy
  (alpha = None) it is residual_degenerate.  Shares no special functions
  with residual_weak, so it serves as the independent cross-check path.

All three return the pair (f, df/ds): the value, holomorphic in s away
from their branch cuts and oriented as 1 - (normalized response), and its
complex derivative in closed form, which Newton takes as its slope.  The
weak and quadrature values differ by the pole term alone; tests pin that
relation, and tests/_refs.py holds the printed (r, epsilon) coding of the
degenerate residual as its independent reference.

The benchmark tracer (benchmark/tracing.py) wraps this module's global
scaled_erfc, which residual_weak looks up at call time, and the three
residuals by name where root_solver imports them; keep those lookups and names.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonConvergent, QuadratureFailure, SingularInput
from .quantum_stats import (
    PLANCK_H,
    _ASYM_COEFS,
    DerivedScales,
    SpeciesParams,
    Statistics,
    _asymptotic_order,
    scaled_erfc,
    thermal_beta,
    zeta_pm,
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


# |p| from which both degenerate residuals take the integral from its series
# (r below about 0.1).  There the series needs at most ~9 terms; below it the
# closed forms lose at most |p|^2 ~ 100 ulps to cancellation.
_FAR_POLE = 10.0


def _far_pole_series(p_hat: complex) -> tuple[complex, complex]:
    # integral of -(3/2) u/(u - p) over [-1, 1] for |p| >= _FAR_POLE, and its
    # p-derivative: expand 1/(u - p) in u/p, odd terms drop, and
    #   integral = 3 q^2 sum_n q^(2n)/(2n + 3),  q = 1/p.
    # The closed forms cancel two O(1) pieces down to O(1/p^2) out here; the
    # series does not.  Same principal branch, since the pole stays off the
    # segment.
    q = 1.0 / p_hat
    q2 = q**2
    term = q2
    integral = 0.0 + 0.0j
    slope = 0.0 + 0.0j  # sum_n (2n + 2) contrib_n = q d(integral)/dq
    for n in range(0, 200):
        contrib = 3.0 * term / (2 * n + 3)
        integral += contrib
        slope += (2 * n + 2) * contrib
        if abs(contrib) < 1e-18 * abs(integral):
            break
        term *= q2
    return integral, -q * slope  # dq/dp = -q^2


def _log_ratio_slope(p_hat: complex) -> complex:
    # d/dp log((1 - p)/(-1 - p))
    return -2.0 / ((1.0 - p_hat) * (1.0 + p_hat))


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


def residual_degenerate(k: float, s: complex, scales: DerivedScales) -> tuple[complex, complex]:
    """Fully degenerate residual 1 - (C1/(k^2 v_F^2)) I(p), integrated in
    closed form, and its derivative in s: the pole p = i s/(k v_F), scaled by
    v_F, and I = -3 - (3/2) p log((1 - p)/(-1 - p)) - 3 pi i p step, the
    paper's printed form in r = k v_F/omega and epsilon = eta/omega.  The
    step, a full residue term, is on where k^2 v_F^2 + eta^2 >= omega^2
    (r^2 + epsilon^2 >= 1, step convention U(0) = 1).  On the undamped axis
    inside r < 1 the value's imaginary part is exactly 0.0, so the undamped
    branch keeps eta == +0.0.  For |p| >= 10 the integral comes from its 1/p
    series, where the closed form cancels.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    s = complex(s)
    p = 1j * s / k  # pole in velocity space: (-omega + i eta)/k
    eta = s.real
    v_f = scales.v_ch
    p_hat = p / v_f
    if p_hat.imag == 0.0 and abs(p_hat.real) == 1.0:
        raise SingularInput("phase velocity exactly at the edge velocity with no damping")
    # scaled slope g(u) = v_F^2 f'(v_F u)/n0 = -(3/2) u exactly, by the
    # density normalization of the ground-state parabola
    g_at_p, d_g = -1.5 * p_hat, -1.5
    add_residue = (k * v_f) ** 2 + eta * eta - s.imag**2 >= 0.0
    if abs(p_hat) >= _FAR_POLE:
        integral, d_integral = _far_pole_series(p_hat)
    else:
        # (g(u) - g(p))/(u - p) = -3/2 on all of [-1, 1]
        log_ratio = _principal_log_ratio(p_hat, eta == 0.0)
        integral = -3.0 + g_at_p * log_ratio
        d_integral = d_g * log_ratio + g_at_p * _log_ratio_slope(p_hat)
    if add_residue:
        integral += 2.0j * math.pi * g_at_p
        d_integral += 2.0j * math.pi * d_g
    c1 = coefficient_C1(k, scales)
    # dp_hat/ds = i/(k v_F)
    scale = c1 / (k * k * v_f * v_f)
    return 1.0 - scale * integral, -scale * d_integral * (1j / (k * v_f))


def residual_degenerate_array(k: np.ndarray, s: np.ndarray,
                              scales: DerivedScales) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """residual_degenerate at every pair of the arrays k > 0 and s, to
    rounding: (f, df/ds, singular), singular marking the rates it refuses
    (p_hat = +-1 on the axis), where f and df/ds are nan.  The |p_hat| >= 10
    points take _far_pole_series one by one.  As in residual_degenerate,
    Im f is +0.0 on the undamped axis inside r < 1."""
    kv = k * scales.v_ch
    p_hat = -s.imag / k / scales.v_ch + 1j * (s.real / k / scales.v_ch)  # residual_degenerate's quotients
    far = np.abs(p_hat) >= _FAR_POLE
    singular = (p_hat == 1.0) | (p_hat == -1.0)
    # the closed form on every point, the refused and far ones moved to p = 0
    p = np.where(far | singular, 0.0, p_hat)
    num, den = 1.0 - p, -1.0 - p
    ratio = num / den
    ratio.imag[(ratio.imag == 0.0) & (s.real == 0.0)] = 0.0  # see _principal_log_ratio
    log_ratio = np.log(ratio)
    g_at_p = -1.5 * p_hat
    integral = g_at_p * log_ratio - 3.0
    d_integral = 2.0 * g_at_p / (num * den) - 1.5 * log_ratio
    for i in np.flatnonzero(far):
        integral[i], d_integral[i] = _far_pole_series(complex(p_hat[i]))
    integral[singular] = d_integral[singular] = np.nan
    residue = kv * kv + s.real * s.real - s.imag * s.imag >= 0.0
    integral[residue] += 2.0j * math.pi * g_at_p[residue]
    d_integral[residue] -= 3.0j * math.pi
    k2 = k * k  # k^4 as (k k)(k k): np.power's SIMD paths differ by CPU
    scale = (scales.omega_p**2 + scales.lambda_quantum * (k2 * k2)) / (k2 * scales.v_ch**2)
    return 1.0 - scale * integral, d_integral * (-1j * scale / kv), singular


# residual_weak series: tail tolerance, which sizes the block, and term budget
_WEAK_TOL = 1e-14
_WEAK_MAX_TERMS = 10_000
# the tail table's orders n = 1 .. the most _asymptotic_order returns, and
# the weights -2n that turn a row's sum into z times its z-derivative
_TAIL_ORDERS = np.arange(1, _ASYM_COEFS.size)
_TAIL_SLOPES = -2.0 * _TAIL_ORDERS


@functools.lru_cache(maxsize=16)
def _weak_block(alpha: float, fermi: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # sqrt(j), the signed c_j = (-+1)^(j-1) alpha^j / sqrt(j), j = 1 .. J, and
    # the tail table T[j0, n - 1] = A_n sum_{j > j0} c_j j^-n, since for |z| > 6
    # G(sqrt(j) z) - 1 = sum_n A_n (2 z^2)^-n j^-n.  |G(z) - 1| <= 1 on
    # Re z >= 0, so the occupation sums' tail bound sizes J for every rate.
    slack = 1.0 if fermi else 1.0 / (1.0 - alpha)
    n_terms = max(int(math.log(_WEAK_TOL / slack) / math.log(alpha)) + 2, 8)
    if n_terms > _WEAK_MAX_TERMS:
        raise NonConvergent(f"response series needs {n_terms} terms, more than {_WEAK_MAX_TERMS} (alpha = {alpha})")
    j = np.arange(1, n_terms + 1, dtype=float)
    sqrt_j = np.sqrt(j)
    coef = np.power(alpha, j) / sqrt_j
    if fermi:
        coef = coef * np.where(j % 2.0 == 1.0, 1.0, -1.0)
    # suffix sums, smallest terms first, over an empty row j0 = J
    terms = np.append(coef[:, None] / j[:, None] ** _TAIL_ORDERS, np.zeros((1, _TAIL_ORDERS.size)), axis=0)
    tail = np.cumsum(terms[::-1], axis=0)[::-1] * _ASYM_COEFS[_TAIL_ORDERS]
    sqrt_j.flags.writeable = coef.flags.writeable = tail.flags.writeable = False
    return sqrt_j, coef, tail


def residual_weak(
    k: float, s: complex, species: SpeciesParams, alpha: float, scales: DerivedScales
) -> tuple[complex, complex]:
    """Thermal-gas residual as a fugacity series over scaled complementary
    error functions, plus the occupation-pole term, normalized by the
    density moment (2/3) v_ch^3.  Returns 1 - (response)/(normalization)
    and its derivative in s.

    The series sum_j (-+1)^(j-1) (alpha^j / sqrt(j)) (G(sqrt(j) theta) - 1)
    runs on Re theta >= 0.  On Re theta < 0, G(z) = G(-z) + 2 sqrt(pi) z
    e^(z^2), and the reflection parts sum, continued where they diverge, to
    the pole term, which stands in for them.  The pole term also enters
    unconditionally, matching the analytic form this implements; see
    residual_quadrature for the contour-tracking variant.  Terms with
    sqrt(j) |theta| <= 6 go through scaled_erfc; the rest take G - 1 from
    its asymptotic series, whose sums over j the gas's tail table holds.
    The derivative takes d/dz G(sqrt(j) z) = (G + 2 j z^2 (G - 1))/z, from
    G'(z) = G(z) (1/z + 2 z) - 2 z, on the head and the tail table's row
    with weights -2n over z.  NonConvergent comes only from the term budget
    (fugacity about 0.997 and up).
    """
    if not k > 0:
        raise ValueError("k must be positive")
    beta = thermal_beta(species, alpha)
    s = complex(s)
    theta = math.sqrt(beta) * s / k
    fermi = species.statistics is Statistics.FERMI
    sqrt_j, coef, tail = _weak_block(alpha, fermi)

    # pole of the occupation denominator at w = i s / k, and its theta-derivative
    x = theta * theta
    if x.real > 700.0:
        # t = alpha e^(theta^2) overflows; t/(1 +- t) -> +-1
        d_pole = (1.0 if fermi else -1.0) * 2.0 * _SQRT_PI
        pole = d_pole * theta
    else:
        t = alpha * cmath.exp(x)
        den = 1.0 + t if fermi else 1.0 - t
        if den == 0:
            raise SingularInput("rate sits exactly on an occupation pole")
        pole = 2.0 * _SQRT_PI * theta * t / den
        d_pole = 2.0 * _SQRT_PI * (t / den) * (1.0 + 2.0 * x / den)

    reflect = theta.real < 0.0
    z = -theta if reflect else theta
    r2 = z.real * z.real + z.imag * z.imag
    # the head, sqrt(j) |z| <= 6, takes scaled_erfc's rational fit
    head = coef.size if coef.size * r2 <= 36.0 else int(36.0 / r2)
    total = pole if reflect else 0.0
    d_series = 0.0  # d/dz of the head and tail sums
    if head:
        w = sqrt_j[:head] * z
        g = scaled_erfc(w)
        g_minus_1 = g - 1.0
        total += complex(np.dot(coef[:head], g_minus_1))
        d_series += complex(np.dot(coef[:head], g + (2.0 * w * w) * g_minus_1)) / z
    if head < coef.size:
        order = _asymptotic_order((head + 1) * r2)
        powers = (0.5 / (z * z)) ** _TAIL_ORDERS[:order]
        row = tail[head, :order]
        total += complex(np.dot(row, powers))
        d_series += complex(np.dot(row, powers * _TAIL_SLOPES[:order])) / z
    # z = -theta on the reflected side, and the pole enters twice there
    d_total = (2.0 * d_pole - d_series) if reflect else (d_series + d_pole)

    c1 = coefficient_C1(k, scales)
    norm = (2.0 / 3.0) * scales.v_ch**3
    factor = (c1 / (k * k)) * math.sqrt(math.pi / beta)
    response = factor * (total + pole)
    return 1.0 - response / norm, -(factor / norm) * d_total * (math.sqrt(beta) / k)


# ---------------------------------------------------------------------------
# direct quadrature of the velocity-space response
# ---------------------------------------------------------------------------

# Gauss-Legendre sizes by evaluation pass.  The subtracted integrand is
# analytic on [-1, 1], so the error falls geometrically and squares at each
# doubling: two sizes that agree to _GL_TOL leave the larger one good to
# ~_GL_TOL^2.  The first two almost always agree: one pass; the larger rules
# are kept for poles nearer the segment (a Fermi gas above fugacity 1).
_GL_PASSES = ((64, 128), (256,), (512,))
_GL_TOL = 1e-7
# A Bose gas whose occupation poles +-i a lie within this of [-1, 1] has them
# subtracted (_ThermalGas).  Worst of 10 rates against 30-digit mpmath: the
# plain panel needs 256 nodes from a ~ 0.137 (fugacity 0.3) and reads 1e-13
# off at a = 0.128; the subtraction, whose closed form cancels more as the
# poles move away, reads 1.5e-14 to 2.9e-14 off at a = 0.128-0.159, 5e-13 at
# 0.27 (fugacity 0.01) and 2e-9 at 0.46 (fugacity 1e-6).  So Bose 0.2
# (a = 0.159) stays plain and Bose 0.9 (a = 0.041) is subtracted.
_NEAR_POLE = 0.15


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


def _occupation_slope_at(p: complex, s_beta_w2: float, inv_alpha: float, fermi: bool) -> tuple[complex, complex]:
    # same function continued to a complex point, and its p-derivative
    # -(1/den) (1 - 2 arg (1 - pm/den)); past the first guard
    # (1/alpha) exp(arg) would overflow, and the slope is below |p| e^-700
    pm = 1.0 if fermi else -1.0
    arg = s_beta_w2 * p * p
    if arg.real > 700.0 - math.log(inv_alpha):
        return 0.0 + 0.0j, 0.0 + 0.0j
    if arg.real < -700.0:
        return -p / pm, -1.0 / pm
    den = inv_alpha * cmath.exp(arg) + pm
    if den == 0:
        raise SingularInput("rate sits exactly on an occupation pole")
    return -p / den, -(1.0 - 2.0 * arg * (1.0 - pm / den)) / den


class _ThermalGas:
    """A thermal gas apart from k and s, in u = w/W: the slope's prefactor
    c_g, B = beta W^2, the fugacity and statistics; the subtracted pole i a
    (None on a plain panel) and L(i a) = log((1 - ia)/(-1 - ia)); each pass's
    nodes, rows of weights (one per size, zero past that size's nodes) and
    node slopes; and, built on first use, the fluid seed's moments, the
    root count's table and, set by root_solver._locus_seed, the root locus.

    A Bose slope g(u) = -c_g u/(e^(B u^2)/alpha - 1) has simple poles at
    u = +-i a, a = sqrt(-ln alpha / B), with residue -c_g/(2B) each.  For
    a < _NEAR_POLE the node slopes hold g - h, h(u) = -c_g u/(B (u^2 + a^2)),
    analytic out to the next poles at |u| >= 0.31; Fermi poles stay beyond
    |u| ~ sqrt(pi)/8 below fugacity 1."""

    def __init__(self, c_g: float, s_beta_w2: float, alpha: float, statistics: Statistics):
        self.c_g, self.s_beta_w2, self.alpha, self.statistics = c_g, s_beta_w2, alpha, statistics
        self.inv_alpha, self.fermi = 1.0 / alpha, statistics is Statistics.FERMI
        a = math.inf if self.fermi else math.sqrt(-math.log(alpha) / s_beta_w2)
        self.pole = complex(0.0, a) if a < _NEAR_POLE else None
        self.log_pole = None if self.pole is None else _principal_log_ratio(self.pole, False)
        passes = []
        for sizes in _GL_PASSES:
            # one row per size, padded to the pass's largest by repeating its
            # nodes at weight 0; held complex, as numpy casts them on each call
            rules, width = [_legendre_rule(n) for n in sizes], max(sizes)
            u = np.array([np.resize(x, width) for x, _ in rules])
            rows = np.array([np.resize(w, width) * (np.arange(width) < n) for n, (_, w) in zip(sizes, rules)])
            g = c_g * _occupation_slope(u, s_beta_w2, self.inv_alpha, self.fermi)
            if self.pole is not None:
                g -= c_g * (-u / (s_beta_w2 * (u * u + a * a)))
            u, rows, g = (np.array(x, dtype=complex) for x in (u, rows, g))
            u.flags.writeable = rows.flags.writeable = g.flags.writeable = False
            passes.append((u, rows, g))
        self.passes = tuple(passes)

    @functools.cached_property
    def fluid(self) -> tuple[tuple[float, ...], tuple[tuple[float, float], ...]]:
        # b_n = (2n - 1)!! zeta(n + 1/2) / zeta(3/2), n = 1 .. 39: the far-field
        # moments of the thermal response, omega^2 = C1 sum_n b_n x^(n - 1) on
        # the axis with x = k^2 / (2 beta omega^2); row 0 of _weak_block's tail
        # table over (-1)^n zeta(3/2), the first two the biquadratic; with
        # _omega_fluid's Horner pairs (b_n, (n - 1) b_n)
        norm = zeta_pm(1.5, self.alpha, self.statistics)
        b = tuple(abs(float(_ASYM_COEFS[n])) * zeta_pm(n + 0.5, self.alpha, self.statistics) / norm
                  for n in _TAIL_ORDERS.tolist())
        return b, tuple((bn, (n - 1) * bn) for n, bn in enumerate(b, start=1))

    @functools.cached_property
    def table(self) -> tuple[tuple, tuple, tuple] | None:
        return _box_count_table(self)


def _gauss_legendre(p_hat: complex, g_at_p: complex, slope_at_p: complex, gas: _ThermalGas) -> tuple[complex, complex]:
    # integral of (g(u) - g(p))/(u - p) over [-1, 1], g being the gas's node
    # slopes, and its p-derivative; each pass is one vectorised evaluation
    # over its rows, one per size, then numpy's pairwise sum along each row,
    # where the zeros padding a shorter row leave each size's bits as over
    # its own nodes.  A node can only collide with a real pole; the
    # subtracted numerator vanishes there too, so 0 is the removable-limit
    # value, and only such a rate pays for the masked division.
    on_axis = p_hat.imag == 0.0
    previous = None
    for u, rows, g in gas.passes:
        d = u - p_hat
        if on_axis and not d.all():
            quotient = rows * np.divide(g - g_at_p, d, out=np.zeros_like(d), where=d != 0)
        else:
            quotient = rows * ((g - g_at_p) / d)
        for i, estimate in enumerate(np.add.reduce(quotient, axis=1).tolist()):
            if previous is not None:
                # relative to the integral of |integrand|, which cancellation
                # cannot zero; |estimate| bounds it from below, so the
                # integral is formed only when that bound does not settle it
                gap = abs(estimate - previous)
                if gap <= _GL_TOL * abs(estimate) or gap <= _GL_TOL * float(np.add.reduce(np.abs(quotient[i]))):
                    # the derivative on the accepted rule alone: the quotient
                    # subtracted once more, (Q - g'(p))/(u - p), is analytic too
                    terms = quotient[i] - slope_at_p * rows[i]
                    d_n = d[i]
                    if on_axis and not d_n.all():
                        # a node on the pole counts 0, as in the value
                        terms = np.divide(terms, d_n, out=np.zeros_like(terms), where=d_n != 0)
                    else:
                        terms /= d_n
                    return estimate, complex(np.add.reduce(terms))
            previous = estimate
    raise QuadratureFailure(f"Gauss-Legendre rules of 256 and 512 nodes differ by {gap:.3e}")


@functools.lru_cache(maxsize=64)
def _thermal_gas(species: SpeciesParams, alpha: float) -> tuple[float, _ThermalGas]:
    # the velocity scale W and the gas's record
    beta = thermal_beta(species, alpha)
    w_scale = 8.0 / math.sqrt(beta)  # exp(-beta W^2) ~ 1e-28: tail negligible
    a_w = species.spin_degeneracy * species.mass**3 / PLANCK_H**3
    c_g = 2.0 * math.pi * a_w * w_scale**3 / species.density
    return w_scale, _ThermalGas(c_g, beta * w_scale * w_scale, alpha, species.statistics)


def _thermal_response(p_hat: complex, gas: _ThermalGas) -> tuple[complex, complex]:
    # J(p_hat), the thermal response residual_quadrature integrates, and
    # dJ/dp_hat: depends on the gas alone, not on k.  The residue enters
    # below the axis (Im p_hat < 0 is eta < 0), the continuation from the
    # growing half-plane; on the axis the principal log supplies half of it
    slope, d_slope = _occupation_slope_at(p_hat, gas.s_beta_w2, gas.inv_alpha, gas.fermi)
    g_at_p, d_g = gas.c_g * slope, gas.c_g * d_slope
    if gas.pole is None:
        integral, d_integral = _gauss_legendre(p_hat, g_at_p, d_g, gas)
    else:
        # the nodes hold g - h, h(u) = -(c_g/2B) sum_c 1/(u - c) over c = +-i a;
        # the integral of h/(u - p) adds (c_g/2B) sum_c L(c)/(p - c) to what
        # g(p) L(p) gives, with L(-i a) the conjugate of L(i a)
        if p_hat == gas.pole or p_hat == -gas.pole:
            raise SingularInput("rate sits exactly on an occupation pole")
        half = gas.c_g / (2.0 * gas.s_beta_w2)
        q_up, q_down = 1.0 / (p_hat - gas.pole), 1.0 / (p_hat + gas.pole)
        log_up, log_down = gas.log_pole, gas.log_pole.conjugate()
        integral, d_integral = _gauss_legendre(p_hat, g_at_p + half * (q_up + q_down),
                                               d_g - half * (q_up * q_up + q_down * q_down), gas)
        integral += half * (log_up * q_up + log_down * q_down)
        d_integral -= half * (log_up * q_up * q_up + log_down * q_down * q_down)
    log_ratio = _principal_log_ratio(p_hat, p_hat.imag == 0.0)
    integral += g_at_p * log_ratio
    d_integral += d_g * log_ratio + g_at_p * _log_ratio_slope(p_hat)
    if p_hat.imag < 0.0:
        integral += 2.0j * math.pi * g_at_p
        d_integral += 2.0j * math.pi * d_g
    return integral, d_integral


def residual_quadrature(
    k: float, s: complex, species: SpeciesParams, alpha: float | None, scales: DerivedScales
) -> tuple[complex, complex]:
    """Velocity-space response integrated directly, with the pole handled by
    subtraction: integrate (g(u) - g(p))/(u - p) plus g(p) times the closed
    log of the end-point ratio.  Returns 1 - (C1/k^2 n0) * integral, so it
    shares the orientation of residual_degenerate, and its derivative in s:
    each piece differentiated in p, the rule's on the rule it accepted.

    alpha = None selects the fully degenerate gas, residual_degenerate.  A
    thermal gas integrates [-1, 1] as one panel by Gauss-Legendre
    rules of doubling size (QuadratureFailure if 256 and 512 nodes still
    disagree); a Bose gas near condensation first subtracts its occupation
    poles' principal part and adds its integral in closed form, which
    reaches fugacity 1 - 1e-12.  What does not depend on k or s is built
    once per (species, alpha) in one record, _ThermalGas.
    The thermal residue is added for eta < 0 only, i.e. the integral is the
    analytic continuation from the growing half-plane; on the eta = 0 line
    the principal-branch log supplies the half residue by itself.
    """
    if alpha is None:
        if not species.fully_degenerate:
            raise ValueError("alpha = None requires a fully degenerate species")
        return residual_degenerate(k, s, scales)
    if not k > 0:
        raise ValueError("k must be positive")
    p = 1j * complex(s) / k  # pole in velocity space: (-omega + i eta)/k
    w_scale, gas = _thermal_gas(species, alpha)
    integral, d_integral = _thermal_response(p / w_scale, gas)
    c1 = coefficient_C1(k, scales)
    # (1/n0) integral over w of f'(w)/(w - p) = integral(u) / w_scale^2 here,
    # and dp/ds = i/(k w_scale)
    scale = c1 / (k * k * w_scale * w_scale)
    return 1.0 - scale * integral, -scale * d_integral * (1j / (k * w_scale))


# ---------------------------------------------------------------------------
# thermal roots in a box: argument-principle counts over the k-free response
# ---------------------------------------------------------------------------

# the box in p_hat = i s/(k W): Re p_hat in [-6, -0.01], Im p_hat in [-0.03, 0.1]
_BOX_RE = (-6.0, -0.01)
_BOX_IM = (-0.03, 0.1)
# the boundary starts as 24 segments on each long edge, geometric in Re p_hat
# since J turns fastest near 0, and 3 on each short edge; a segment whose tube
# meets the positive real axis is halved, at most 12 times, until the tube's
# radius is within 1e-3 of |J| at its ends
_BOX_LONG, _BOX_SHORT = 24, 3
_BOX_TOL = 1e-3
_BOX_DEPTH = 12


def _pole_near_box(gas: _ThermalGas) -> bool:
    # J's poles are the occupation slope's below the axis, where the residue
    # enters: s_beta_w2 p^2 = ln alpha + i phi, phi = 2 pi n (Bose) or
    # pi (2n + 1) (Fermi).  True when one lies in the box or between it and
    # Re p_hat = 0; |Im p^2| <= 2 |Re p| |Im p| bounds the n to try
    s_beta_w2, inv_alpha, fermi = gas.s_beta_w2, gas.inv_alpha, gas.fermi
    n_max = int(2.0 * s_beta_w2 * -_BOX_RE[0] * -_BOX_IM[0] / (2.0 * math.pi)) + 1
    for n in range(-n_max, n_max + 1):
        phi = math.pi * (2 * n + 1) if fermi else 2.0 * math.pi * n
        pole = cmath.sqrt(complex(-math.log(inv_alpha), phi) / s_beta_w2)
        if any(_BOX_RE[0] <= p.real <= 0.0 and _BOX_IM[0] <= p.imag < 0.0 for p in (pole, -pole)):
            return True
    return False


def _tube(a: tuple, b: tuple) -> float:
    # an estimate of how far J strays from its chord between two samples
    # (p_hat, J, J'): |J''| h^2 / 8, with |J''| h^2 the larger end value of
    # the cubic Hermite fit's second derivative (linear on the segment),
    # doubled.  Not a bound: nothing bounds J'' between the samples
    step = b[0] - a[0]
    rise, d_a, d_b = b[1] - a[1], a[2] * step, b[2] * step
    return max(abs(6.0 * rise - 4.0 * d_a - 2.0 * d_b), abs(6.0 * rise - 2.0 * d_a - 4.0 * d_b)) / 4.0


def _tube_on_axis(z_a: complex, z_b: complex, radius: float) -> tuple[float, float] | None:
    # the real interval the radius-tube around the chord z_a -> z_b covers, or None
    rise = z_b.imag - z_a.imag
    t_lo, t_hi = 0.0, 1.0
    if rise:
        t0, t1 = sorted(((-radius - z_a.imag) / rise, (radius - z_a.imag) / rise))
        t_lo, t_hi = max(t0, 0.0), min(t1, 1.0)
    elif abs(z_a.imag) > radius:
        return None
    if t_lo > t_hi:
        return None
    ends = (z_a.real + t_lo * (z_b.real - z_a.real), z_a.real + t_hi * (z_b.real - z_a.real))
    return min(ends) - radius, max(ends) + radius


def _box_count_table(gas: _ThermalGas) -> tuple[tuple, tuple, tuple] | None:
    # (lows, highs, counts): on each interval (lows[i], highs[i]) of X > 0 the
    # winding number of the sampled J(box boundary) - X, the number of roots
    # of J = X in the box, is counts[i].  The boundary is sampled with
    # _thermal_response, and X is counted where it lies outside every
    # segment's estimated tube around its chord and above the far field's
    # reach, |J| on the left edge: J ~ 1/p_hat^2 decreases in |p_hat| beyond it.
    # None when a pole of J lies in or beside the box or a sample fails
    if _pole_near_box(gas):
        return None
    (left, right), (bottom, top) = _BOX_RE, _BOX_IM
    along = left * (right / left) ** (np.arange(_BOX_LONG + 1) / _BOX_LONG)
    along[-1] = right
    up = np.linspace(bottom, top, _BOX_SHORT + 1)
    ring = ([complex(x, bottom) for x in along[:-1]] + [complex(right, y) for y in up[:-1]]
            + [complex(x, top) for x in along[:0:-1]] + [complex(left, y) for y in up[:0:-1]])
    chain, covers, far = [], [], 0.0
    try:
        samples = [(p, *_thermal_response(p, gas)) for p in ring]
        for segment in zip(samples, samples[1:] + samples[:1]):
            stack = [(*segment, 0)]
            while stack:
                a, b, depth = stack.pop()
                radius = _tube(a, b)
                cover = _tube_on_axis(a[1], b[1], radius)
                if cover and depth < _BOX_DEPTH and radius > _BOX_TOL * max(abs(a[1]), abs(b[1])):
                    p = 0.5 * (a[0] + b[0])
                    mid = (p, *_thermal_response(p, gas))
                    stack += [(mid, b, depth + 1), (a, mid, depth + 1)]
                    continue
                chain.append(a[1])
                if cover:
                    covers.append(cover)
                if a[0].real == b[0].real == left:
                    far = max(far, abs(a[1]) + radius, abs(b[1]) + radius)
    except (QuadratureFailure, SingularInput):
        return None
    z = np.array(chain)
    turns = np.roll(z, -1)

    def winding(x: float) -> int:
        return round(float(np.angle((turns - x) / (z - x)).sum()) / (2.0 * math.pi))

    lows, highs, counts, start = [], [], [], far
    for low, high in sorted(covers) + [(math.inf, math.inf)]:
        if low > start:
            lows.append(start)
            highs.append(low)
            counts.append(winding(0.5 * (start + low) if low < math.inf else 2.0 * start))
        start = max(start, high)
    return tuple(lows), tuple(highs), tuple(counts)


def _in_box(p_hat: complex) -> bool:
    return _BOX_RE[0] <= p_hat.real <= _BOX_RE[1] and _BOX_IM[0] <= p_hat.imag <= _BOX_IM[1]


def _box_root_count(k: float, s: complex, species: SpeciesParams, alpha: float,
                    scales: DerivedScales) -> int | None:
    """How many roots the thermal residual has at k in the box of
    p_hat = i s/(k W), given s in it: one bisection on X(k) = k^2 W^2 / C1(k)
    in the gas's table, which the gas builds here the first time it is
    asked about a rate in the box (~100 evaluations of J).  None when s lies
    outside the box, when the gas has no table (a pole beside the box), and
    when X(k) falls inside a segment's tube."""
    w_scale, gas = _thermal_gas(species, alpha)
    if not _in_box(1j * s / k / w_scale) or gas.table is None:
        return None
    lows, highs, counts = gas.table
    x = (k * w_scale) ** 2 / coefficient_C1(k, scales)
    i = bisect.bisect_right(lows, x) - 1
    return counts[i] if i >= 0 and x < highs[i] else None


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


def _omega_fluid(k: float, species: SpeciesParams, scales: DerivedScales) -> float:
    """Undamped root of the moment series summed to its smallest term at the
    biquadratic root (two terms, the biquadratic itself, at least; at most 39,
    the first below 1e-17 the last), by Newton in u = omega^2 from that root:
    every term is positive, so Newton rises monotonically onto the longer
    sum's root.  With no restoring force (C1 = 0) the biquadratic's 0 stays."""
    omega = omega_weak_biquadratic(k, species, scales)
    b, pairs = _thermal_gas(species, scales.alpha)[1].fluid
    c1, u = coefficient_C1(k, scales), omega * omega
    x_u = k * k / (2.0 * thermal_beta(species, scales.alpha))  # x = x_u / u
    order, term = 2, b[1] * x_u / u if u > 0.0 else 0.0
    while order < len(b) and term >= 1e-17:
        following = term * (x_u / u) * b[order] / b[order - 1]
        if following >= term:
            break
        order, term = order + 1, following
    if order == 2:
        return omega
    horner = pairs[order - 1::-1]  # n = order .. 1
    for _ in range(20):
        x, total, slope = x_u / u, 0.0, 0.0
        for bn, slope_n in horner:  # sum b_n x^(n-1) and x d/dx of it
            total, slope = total * x + bn, slope * x + slope_n
        step = (c1 * total - u) / (1.0 + c1 * slope / u)
        if not u + step > u:
            break
        u += step
    return math.sqrt(u)


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
