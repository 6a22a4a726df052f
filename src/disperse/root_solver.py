"""Damped Newton iteration on the dispersion residuals, plus k sweeps.

Every exact branch is solved for the complex rate s = eta + i*omega itself.
All three residuals are holomorphic in s away from their branch cuts and
oriented as 1 - (normalized response); the solver looks them up as module
globals at call time.  Each returns df/ds with its value, so the derivative
comes with every accepted point, and each Newton iteration costs one
residual call plus line-search trials.

Each iteration tries the Newton step first.  When it is rejected 20 times,
the step along omega that zeroes the real residual is tried from the same
iterate.  That takes a damped seed inside the degenerate continuum, where
the degenerate residual jumps across eta = 0, back to the undamped root.
On the eta = 0 axis inside the resonance-free degenerate interior the
residual is exactly real and its slope exactly imaginary, so the Newton
step's real part is a zero and eta stays +0.0 bitwise on undamped roots.
Convergence is always judged on the full complex residual, so a root that
needs eta != 0 cannot converge falsely on the axis.

For a fully degenerate species trial points with eta > 0 are rejected.  The
T = 0 Fermi sphere has no growing mode, but the degenerate residual adds
the resonance residue on the growing side too, and that gives it a
spurious purely growing root as omega -> 0.

Closed-form branches skip the iteration entirely; their residual_norm is a
back-substitution diagnostic, max(|Re f|, |Im f|) of residual_quadrature at
the closed-form rate (inf where that cannot be evaluated), so the
"converged implies residual_norm < abs_tol" reading applies to the
iterative branches only.

dominant_root and a sweep's first point walk one seed ladder of two rungs
and stop at the first root a rung converges to.  On ExactQuadrature the
first rung on a thermal gas comes from the gas's root locus where that
covers k (_build_locus): the damped root read off a Chebyshev interpolant,
which the residual accepts as it stands, so a call there makes one
residual call.

A T = 0 sweep on an exact branch first solves every k at once, by the
Newton step on arrays from each k's closed-form seed (_lockstep_newton);
the points it leaves unconverged take the scalar path.

The benchmark tracer (benchmark/tracing.py) wraps these call-time lookups, so
keep them: dominant_root and the scalar sweep points enter through the module
global solve_at_k (the branch its second positional argument), which reaches
the three residuals through this module's globals of their names.  The
closed-form diagnostics must keep calling the module global
residual_quadrature, one scalar call a point: at T = 0 they are its only
callers, and the tracer's T = 0 residual_quadrature metric reads nothing
without them until it is retired with the array points' metrics (ROADMAP
item 1b).
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dispersion_core import (
    CLOSED_FORM_BRANCHES,
    DEGENERATE_BRANCHES,
    WEAK_BRANCHES,
    BranchId,
    ComplexRate,
    DerivedScales,
    _occupation_slope_at,
    _omega_fluid,
    _thermal_gas,
    _thermal_response,
    _ThermalGas,
    check_wavenumber,
    coefficient_C1,
    omega_c1_corrected,
    omega_degenerate_bohm_gross,
    omega_quantum_langmuir,
    omega_weak_biquadratic,
    omega_weak_simple,
    omega_zero_sound,
    residual_degenerate,
    residual_degenerate_array,
    residual_quadrature,
    residual_weak,
)
from .errors import NoConvergence, NonConvergent, QuadratureFailure, SeedFailure, SingularInput
from .quantum_stats import SpeciesParams, with_bohm_term


@dataclass(frozen=True)
class SolverConfig:
    abs_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass(frozen=True)
class DispersionResult:
    k: float
    branch: BranchId
    rate: ComplexRate
    residual_norm: float
    converged: bool
    iterations: int
    region_flag: bool  # k^2 v_ch^2 + eta^2 >= omega^2, where the degenerate residue term is on


def check_branch_species(branch: BranchId, species: SpeciesParams, scales: DerivedScales) -> None:
    """Raise ValueError when a branch cannot apply to the species."""
    if branch in DEGENERATE_BRANCHES and not species.fully_degenerate:
        raise ValueError(f"{branch.name} requires a fully degenerate species")
    if branch in WEAK_BRANCHES:
        if species.fully_degenerate or not 0.0 < scales.alpha < 1.0:
            raise ValueError(f"{branch.name} requires a thermal gas with fugacity in (0, 1)")


def _max_abs(f: complex) -> float:
    return max(abs(f.real), abs(f.imag))


def _line_search(fun, degenerate: bool, s: complex, ds: complex, norm: float):
    """Try s - ds, halving the step up to 20 times until the residual norm
    falls; returns (s, (f, df/ds)) or None.  A trial needs omega > 0, and
    eta <= 0 on a fully degenerate species: the T = 0 Fermi sphere is stable,
    but the degenerate residual adds the resonance residue on the growing
    side too, which gives it spurious purely growing roots as omega -> 0."""
    step = 1.0
    for _ in range(20):
        sn = complex(s.real - step * ds.real, s.imag - step * ds.imag)
        step *= 0.5
        if sn.imag <= 0.0 or degenerate and sn.real > 0.0:
            continue
        try:
            pair = fun(sn)
        except (SingularInput, NonConvergent):
            continue
        if _max_abs(pair[0]) < norm:
            return sn, pair
    return None


def _newton(fun, s: complex, config: SolverConfig, degenerate: bool):
    """Damped Newton on a residual holomorphic in the rate s; fun returns
    the pair (f, df/ds).

    Returns (s, norm, iterations, failure) of the last iterate; failure is
    None on convergence, else why the iteration stopped.
    """
    f, slope = fun(s)
    norm = _max_abs(f)
    iterations = 0
    while not norm <= config.abs_tol:
        if iterations >= config.max_iter:
            return s, norm, iterations, f"no convergence after {iterations} iterations, residual {norm:.3e}"
        df = 1j * slope  # df/d(omega) = i df/ds
        if df == 0 or not cmath.isfinite(df):
            return s, norm, iterations, f"vanishing or non-finite derivative at iterate {s}"
        # the Newton step f / (df/ds), and as its fallback the step along
        # omega that zeroes Re f
        steps = [1j * f / df]
        if df.real != 0.0:
            steps.append(complex(0.0, f.real / df.real))
        for ds in steps:
            trial = _line_search(fun, degenerate, s, ds, norm)
            if trial is not None:
                break
        else:
            return s, norm, iterations, f"step rejected 20 times at residual {norm:.3e}"
        s, (f, slope) = trial
        norm = _max_abs(f)
        iterations += 1
    return s, norm, iterations, None


# every closed form under one call shape (k, species, scales)
_CLOSED_FORMS = {
    BranchId.QuantumLangmuir: lambda k, sp, sc: omega_quantum_langmuir(k, sc),
    BranchId.C1Corrected: lambda k, sp, sc: omega_c1_corrected(k, sc),
    BranchId.DegenerateBohmGross: lambda k, sp, sc: omega_degenerate_bohm_gross(k, sc),
    BranchId.ZeroSound: lambda k, sp, sc: omega_zero_sound(k, sc),
    BranchId.WeakBiquadratic: omega_weak_biquadratic,
    BranchId.WeakSimple: omega_weak_simple,
}


# Every result is built here, without the frozen dataclasses' generated
# __init__, whose keyword binding and per-field lookups cost as much per point
# as a residual call.  object.__setattr__ stores each field as __init__ does;
# filling __dict__ in one update would be cheaper still, but it gives every
# result a separate dict for the garbage collector to track, which doubled
# its collections over retained results.  __post_init__ keeps ComplexRate's
# checks and their messages.
_set_field = object.__setattr__


def _rate(eta: float, omega: float) -> ComplexRate:
    rate = object.__new__(ComplexRate)
    _set_field(rate, "eta", eta)
    _set_field(rate, "omega", omega)
    rate.__post_init__()
    return rate


def _result(k: float, branch: BranchId, rate: ComplexRate, scales: DerivedScales,
            residual_norm: float, converged: bool, iterations: int = 0) -> DispersionResult:
    result = object.__new__(DispersionResult)
    _set_field(result, "k", k)
    _set_field(result, "branch", branch)
    _set_field(result, "rate", rate)
    _set_field(result, "residual_norm", residual_norm)
    _set_field(result, "converged", converged)
    _set_field(result, "iterations", iterations)
    _set_field(result, "region_flag", (k * scales.v_ch) ** 2 + rate.eta**2 - rate.omega**2 >= 0.0)
    return result


def _closed_form(k: float, branch: BranchId, species: SpeciesParams, scales: DerivedScales) -> DispersionResult:
    """A closed-form branch at a checked k, with its back-substitution
    diagnostic; scales already carry the Bohm-term choice."""
    omega = _CLOSED_FORMS[branch](k, species, scales)
    rate = _rate(0.0, omega)  # checked before the residual sees omega
    try:
        diag = _max_abs(residual_quadrature(k, complex(0.0, omega), species, scales.alpha, scales)[0])
    except (SingularInput, NonConvergent, QuadratureFailure):
        diag = math.inf
    return _result(k, branch, rate, scales, diag, converged=True)


def solve_at_k(
    k: float,
    branch: BranchId,
    species: SpeciesParams,
    scales: DerivedScales,
    seed: ComplexRate,
    config: SolverConfig = SolverConfig(),
    *,
    bohm_term: bool = True,
) -> DispersionResult:
    """One root at one wavenumber.  Closed-form branches evaluate their
    formula and report a back-substitution diagnostic; exact branches run
    damped Newton on the rate s = eta + i omega from seed.s."""
    scales = with_bohm_term(scales, bohm_term)
    check_wavenumber(k, scales)
    check_branch_species(branch, species, scales)

    if branch in CLOSED_FORM_BRANCHES:
        return _closed_form(k, branch, species, scales)

    # each fun returns the residual's pair (f, df/ds)
    if branch is BranchId.ExactDegenerate:

        def fun(s):
            return residual_degenerate(k, s, scales)

    elif branch is BranchId.ExactWeak:

        def fun(s):
            return residual_weak(k, s, species, scales.alpha, scales)

    else:  # ExactQuadrature

        def fun(s):
            return residual_quadrature(k, s, species, scales.alpha, scales)

    s, norm, iterations, failure = _newton(fun, seed.s, config, species.fully_degenerate)
    result = _result(k, branch, _rate(s.real, s.imag), scales, norm, failure is None, iterations)
    if failure is not None:
        raise NoConvergence(failure, result)
    return result


# ---------------------------------------------------------------------------
# thermal root locus: the damped root of J(p_hat) = X as a function of X alone
# ---------------------------------------------------------------------------

# Chebyshev nodes (second kind) in log X over [X_lo, _LOCUS_SPAN X_lo], X_lo
# where the first-order damping estimate reads _LOCUS_DAMPED of omega; on the
# benchmark gases that is k v_th/Omega_p ~ 0.26-0.58 (0.22-0.5 at Bose
# fugacity 0.9), and 28 nodes leave the last Chebyshev coefficients at
# 0.8-1.4e-12 of the first on the benchmark and test gases
_LOCUS_NODES = 28
_LOCUS_SPAN = 5.0
_LOCUS_DAMPED = 1e-8
# the most the last four coefficients may reach, as a share of the first
_LOCUS_TAIL = 1e-11
# each node's Newton stops at this residual; one more step from its last
# evaluation squares the error
_LOCUS_STOP = SolverConfig(abs_tol=1e-8, max_iter=20)
# every node's root must lie in this box of p_hat = i s/(k W):
# Re p_hat in [-6, -0.01], Im p_hat in [-0.03, 0.1]
_BOX_RE = (-6.0, -0.01)
_BOX_IM = (-0.03, 0.1)


def _in_box(p_hat: complex) -> bool:
    return _BOX_RE[0] <= p_hat.real <= _BOX_RE[1] and _BOX_IM[0] <= p_hat.imag <= _BOX_IM[1]


def _damping_estimate(p: float, gas: _ThermalGas) -> float:
    # |eta|/omega to first order at the axis point p: on the axis Im J = pi g(p)
    # and, far out, J' ~ -2/p^3
    slope = _occupation_slope_at(complex(p), gas.s_beta_w2, gas.inv_alpha, gas.fermi)[0]
    return 0.5 * math.pi * gas.c_g * abs(slope) * p * p


def _build_locus(gas: _ThermalGas) -> tuple[float, float, float, float, list[complex]] | None:
    """The gas's root locus: the damped root p_hat*(X) of J(p_hat) = X, which
    is the thermal residual's root p_hat = i s/(k W) at every k with
    X(k) = k^2 W^2/C1(k), as a Chebyshev series in log X.  Returns
    (X_lo, X_hi, centre, scale, coefficients), the series' variable being
    t = (log X - centre) scale, or None.

    X_lo = Re J(p_lo) at the axis point p_lo where _damping_estimate reads
    _LOCUS_DAMPED, found by bisection on the closed-form slope; it rises from
    the far field to a peak near Re p_hat = -0.15, and the bracket stops at
    -0.25.  Node 0 is solved from p_lo, the fluid root at X_lo; each later
    node from the cubic Hermite extrapolation of the last two.  Every node is
    solved by _newton on 1 - J/X in the rate s = -i p_hat (k W = 1).  The
    build depends on the gas alone.  None when a node fails, leaves the box
    or damps less than a tenth of _LOCUS_DAMPED, or the series' last
    coefficients exceed _LOCUS_TAIL of its first."""
    low, high = _BOX_RE[0], -0.25
    if not _damping_estimate(high, gas) > _LOCUS_DAMPED:
        return None
    for _ in range(40):
        mid = 0.5 * (low + high)
        if _damping_estimate(mid, gas) < _LOCUS_DAMPED:
            low = mid
        else:
            high = mid
    last: list[complex] = []  # the pair (f, df/ds) of fun's last call
    try:
        x_lo = _thermal_response(complex(low), gas)[0].real
        t_lo = math.log(x_lo)
        centre, half = t_lo + 0.5 * math.log(_LOCUS_SPAN), 0.5 * math.log(_LOCUS_SPAN)
        ts = [centre - half * math.cos(math.pi * j / (_LOCUS_NODES - 1)) for j in range(_LOCUS_NODES)]
        ts[0] = t_lo
        nodes: list[tuple[float, complex, complex]] = []  # (t, s, ds/dt)
        for t in ts:
            x = math.exp(t)

            def fun(s, x=x):
                value, slope = _thermal_response(1j * s, gas)
                last[:] = 1.0 - value / x, -1j * slope / x
                return tuple(last)

            if not nodes:
                seed = complex(0.0, -low)
            elif len(nodes) == 1:
                t0, s0, d0 = nodes[0]
                seed = s0 + (t - t0) * d0
            else:
                (t0, s0, d0), (t1, s1, d1) = nodes[-2:]
                h = t1 - t0
                u = (t - t0) / h
                seed = ((2 * u - 3) * u * u + 1) * s0 + ((u - 2) * u + 1) * u * h * d0 \
                    + (3 - 2 * u) * u * u * s1 + (u - 1) * u * u * h * d1
            s, _, _, failure = _newton(fun, seed, _LOCUS_STOP, False)
            if failure is not None:
                return None
            f, slope = last
            # ds/dt = -1/slope: X d/dX of f(s, X) = 1 - J/X is J/X = 1 - f
            nodes.append((t, s - f / slope, (f - 1.0) / slope))
    except (SingularInput, NonConvergent, QuadratureFailure):
        return None
    ps = np.array([1j * s for _, s, _ in nodes])
    if not all(_in_box(p) and -p.imag >= 0.1 * _LOCUS_DAMPED * -p.real for p in ps.tolist()):
        return None
    # T_k at the nodes, x_j = -cos(pi j/N), and the trapezoid weights of the DCT
    n = _LOCUS_NODES - 1
    order = np.arange(n + 1)
    weights = np.where((order == 0) | (order == n), 0.5, 1.0)
    cos = np.cos(np.pi * np.outer(order, order) / n) * np.where(order % 2, -1.0, 1.0)[:, None]
    coefs = (2.0 / n) * (cos @ (weights * ps))
    coefs[0] *= 0.5
    coefs[n] *= 0.5
    if not np.abs(coefs[-4:]).max() <= _LOCUS_TAIL * abs(coefs[0]):
        return None
    return x_lo, math.exp(ts[-1]), centre, 1.0 / half, coefs.tolist()


def _locus_seed(k: float, species: SpeciesParams, scales: DerivedScales) -> ComplexRate | None:
    """The locus root at a checked k of a thermal gas, or None when X(k) lies
    outside its domain or the gas has no locus.  The gas builds its locus at
    its first ask and keeps it on its record."""
    w_scale, gas = _thermal_gas(species, scales.alpha)
    if "locus" not in vars(gas):
        gas.locus = _build_locus(gas)
    locus = gas.locus
    if locus is None:
        return None
    x_lo, x_hi, centre, scale, coefs = locus
    kw, c1 = float(k) * w_scale, coefficient_C1(k, scales)  # a numpy k gives float seeds too
    if not x_lo * c1 <= kw * kw <= x_hi * c1:  # X = (k W)^2/C1 in the domain; C1 = 0 is not
        return None
    x = kw * kw / c1
    t = min(max((math.log(x) - centre) * scale, -1.0), 1.0)
    # Clenshaw's recurrence
    b1 = b2 = 0j
    for c in coefs[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    p = t * b1 - b2 + coefs[0]
    return ComplexRate(eta=kw * p.imag, omega=-kw * p.real)


def _matched_closed(k: float, species: SpeciesParams, scales: DerivedScales) -> float:
    """Undamped frequency matching the gas's regime, used for seeding and
    for rescaling continuation guesses between k points: the degenerate
    closed form at T = 0, the thermal moment series' fluid root otherwise.
    check_branch_species admits degenerate branches at T = 0 only and weak
    branches above it, so the gas decides for every branch.  On the neutral
    gas zero sound hugs k v_F until the quantum term takes over near
    kappa = hbar k/(2 m v_F) ~ 0.9; past it C1 sets the mode, as in
    kinetic_oracle.evolve_mode's guess."""
    if species.fully_degenerate:
        if species.charge != 0.0:
            return omega_degenerate_bohm_gross(k, scales)
        return max(omega_zero_sound(k, scales), omega_c1_corrected(k, scales))
    return _omega_fluid(k, species, scales)


def first_point_seeds(
    k: float,
    branch: BranchId,
    species: SpeciesParams,
    scales: DerivedScales,
    *,
    bohm_term: bool = True,
) -> list[ComplexRate]:
    """Seed ladder for the first point of a sweep and for dominant_root: the
    gas-matched seed, then the dispersionless value on the axis.  The
    gas-matched seed is the damped locus root on ExactQuadrature where the
    thermal gas's root locus covers k (see _build_locus), and otherwise the
    gas-matched frequency on the axis: Bohm-Gross or zero sound at T = 0, the
    fluid root of a thermal gas.  A thermal neutral gas with the Bohm term
    off (C1 = 0, where the residual is identically 1) gets an empty ladder.
    ValueError when the branch cannot apply to the species or k is too
    large (check_wavenumber)."""
    check_branch_species(branch, species, scales)
    scales = with_bohm_term(scales, bohm_term)
    check_wavenumber(k, scales)
    return list(_seed_ladder(k, branch, species, scales))


def _seed_ladder(k: float, branch: BranchId, species: SpeciesParams, scales: DerivedScales,
                 matched: float | None = None) -> Iterator[ComplexRate]:
    """The seed ladder at a checked k on Bohm-adjusted scales: positive,
    deduplicated in omega, and each seed built once the one before it is
    tried.  matched is the gas-matched frequency when the caller has it; it
    is computed here only when the locus does not serve."""
    taken: list[float] = []

    def fresh(omega: float) -> Iterator[ComplexRate]:
        if omega > 0 and all(abs(omega - prev) > 1e-12 * omega for prev in taken):
            taken.append(omega)
            yield ComplexRate(eta=0.0, omega=omega)

    locus = (_locus_seed(k, species, scales)
             if branch is BranchId.ExactQuadrature and not species.fully_degenerate else None)
    if locus is not None:
        taken.append(locus.omega)
        yield locus
    else:
        yield from fresh(_matched_closed(k, species, scales) if matched is None else matched)
    yield from fresh(omega_quantum_langmuir(k, scales))


_SWEEP_POINT_ERRORS = (NoConvergence, SingularInput, QuadratureFailure, NonConvergent)


def _first_root(k: float, branch: BranchId, species: SpeciesParams, scales: DerivedScales,
                config: SolverConfig, matched: float | None = None) -> DispersionResult | None:
    """Newton from each rung of the seed ladder in turn (_seed_ladder's
    arguments): the first root a seed converges to, or None."""
    for seed in _seed_ladder(k, branch, species, scales, matched):
        try:
            return solve_at_k(k, branch, species, scales, seed, config)
        except _SWEEP_POINT_ERRORS:
            continue
    return None


def _array_norm(f: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(f.real), np.abs(f.imag))


def _lockstep_newton(ks: list[float], closed: list[float], scales: DerivedScales,
                     config: SolverConfig) -> dict[int, tuple[complex, float, int]]:
    """_newton's Newton step on every point of a T = 0 sweep at once, each
    k from its own seed, omega = closed[i] on the axis, with _line_search's
    halvings and trial rule.  A point drops out when its step is rejected 20
    times, its slope vanishes or is not finite, or it runs out of
    iterations; there is no step along omega.  Returns {index: (s, norm,
    iterations)} for the points that converged."""
    k = np.array(ks)
    s = 1j * np.array(closed)
    f, slope, singular = residual_degenerate_array(k, s, scales)
    norm = _array_norm(f)
    iterations = np.zeros(k.size, dtype=int)
    done = ~singular & (norm <= config.abs_tol)
    live = ~singular & ~done
    for iteration in range(1, config.max_iter + 1):
        at = np.flatnonzero(live & (slope != 0.0) & np.isfinite(slope))
        if not at.size:
            break
        live[:] = False
        ds, step = f[at] / slope[at], 1.0
        # _line_search at every point at once: each halves its step until its norm falls
        for _ in range(20):
            trial = s[at] - step * ds
            step *= 0.5
            tried = np.flatnonzero((trial.imag > 0.0) & (trial.real <= 0.0))
            f_t, slope_t, bad = residual_degenerate_array(k[at[tried]], trial[tried], scales)
            norm_t = _array_norm(f_t)
            won = ~bad & (norm_t < norm[at[tried]])
            fell = tried[won]
            moved = at[fell]
            s[moved], f[moved], slope[moved], norm[moved] = trial[fell], f_t[won], slope_t[won], norm_t[won]
            live[moved] = True
            keep = np.ones(at.size, dtype=bool)
            keep[fell] = False
            at, ds = at[keep], ds[keep]
            if not at.size:
                break
        iterations[live] = iteration
        done |= live & (norm <= config.abs_tol)
        live &= ~done
    s_list, norms, counts = s.tolist(), norm.tolist(), iterations.tolist()
    return {i: (s_list[i], norms[i], counts[i]) for i in np.flatnonzero(done).tolist()}


def sweep(
    k_grid,
    branch: BranchId,
    species: SpeciesParams,
    scales: DerivedScales,
    config: SolverConfig = SolverConfig(),
    *,
    bohm_term: bool = True,
) -> list[DispersionResult]:
    """Solve the branch over an increasing k grid.

    An exact branch on a fully degenerate gas first solves every k at once,
    each from its own closed-form seed (_lockstep_newton).  The other points,
    in k order: the first tries the whole seed ladder and raises SeedFailure
    if nothing converges; later ones seed from the last converged rate and
    record non-converged results instead of raising.
    """
    ks = [float(k) for k in k_grid]
    if not all(0 < k < math.inf for k in ks):
        raise ValueError("k grid must be positive and finite")
    if any(b >= a for a, b in zip(ks[1:], ks)):
        raise ValueError("k grid must be strictly increasing")
    check_branch_species(branch, species, scales)
    scales = with_bohm_term(scales, bohm_term)
    if not ks:
        return []
    try:
        check_wavenumber(ks[-1], scales)  # and so every smaller k
    except ValueError:
        for k in ks:  # name the first k that is too large
            check_wavenumber(k, scales)
        raise

    if branch in CLOSED_FORM_BRANCHES:
        return [_closed_form(k, branch, species, scales) for k in ks]
    closed = [_matched_closed(k, species, scales) for k in ks]
    batch = _lockstep_newton(ks, closed, scales, config) if species.fully_degenerate else {}
    results: list[DispersionResult] = []
    for i, k in enumerate(ks):
        if i in batch:
            s, norm, iterations = batch[i]
            res = _result(k, branch, _rate(s.real, s.imag), scales, norm, True, iterations)
        elif i == 0:
            res = _first_root(k, branch, species, scales, config, closed[0])
            if res is None:
                raise SeedFailure(f"no seed converged at the first point k = {k:.6e}")
        else:
            # rescale the previous rate by the closed-form ratio between the
            # two k points; plain omega continuation pushes r = k v_ch/omega
            # across the r = 1 wall for branches that hug the resonance
            ratio = closed[i] / closed_prev
            seed = ComplexRate(eta=prev.eta * ratio, omega=prev.omega * ratio)
            # an undamped degenerate root has r < 1; a seed pushed across r = 1
            # starts beyond the jump of the residue term and cannot step back
            # without eta > 0, so start halfway between the last r and 1
            r_prev = prev.r(k_prev, scales.v_ch)
            if species.fully_degenerate and prev.eta == 0.0 and r_prev < 1.0 <= seed.r(k, scales.v_ch):
                seed = ComplexRate(eta=0.0, omega=2.0 * k * scales.v_ch / (1.0 + r_prev))
            try:
                res = solve_at_k(k, branch, species, scales, seed, config)
            except _SWEEP_POINT_ERRORS as err:
                res = getattr(err, "result", None) or _result(k, branch, seed, scales, math.inf, False)
        results.append(res)
        if res.converged:
            prev, k_prev, closed_prev = res.rate, k, closed[i]
    return results


def dominant_root(
    k: float,
    species: SpeciesParams,
    scales: DerivedScales,
    config: SolverConfig = SolverConfig(),
    *,
    bohm_term: bool = True,
) -> DispersionResult:
    """Library-side helper: the species' exact branch (ExactDegenerate at full
    degeneracy, ExactQuadrature for a thermal gas) at k, from the seed
    ladder's first rung that converges, as at a sweep's first point.
    Raises SeedFailure when no rung converges.

    The first root found is taken as the least damped one, unchecked.  An
    equilibrium gas has no growing mode (Penrose, Phys. Fluids 3 (1960) 258),
    and Newton rejects eta > 0 at T = 0, so an undamped root is the answer.
    A damped thermal root comes from the gas-matched rung: the root locus's
    damped root where it covers k, which converges where it starts, or the
    fluid root, from which Newton follows the mode off the axis.  Tests hold
    the result to the least-damped root of a four-rung ladder (this one, the
    expanded value and 1.2x it, each run to convergence), bit for bit.
    """
    scales = with_bohm_term(scales, bohm_term)
    check_wavenumber(k, scales)
    branch = BranchId.ExactDegenerate if species.fully_degenerate else BranchId.ExactQuadrature
    res = _first_root(k, branch, species, scales, config)
    if res is None:
        raise SeedFailure(f"no seed converged at k = {k:.6e}")
    return res
