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

dominant_root stops the seed ladder at its first root when no other root can
be less damped: when that root is undamped, or on a thermal gas when a
per-gas root count finds it alone in a box (see dominant_root); otherwise
every seed runs to convergence.

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
    _box_root_count,
    _omega_fluid,
    check_wavenumber,
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
    """Seed ladder for the first point of a sweep, all on the axis: the gas-matched
    frequency (Bohm-Gross or zero sound at T = 0, the fluid root of a thermal gas), then
    the dispersionless value, the expanded value, and 1.2x it.  ValueError when the
    branch cannot apply to the species or k is too large (check_wavenumber)."""
    check_branch_species(branch, species, scales)
    scales = with_bohm_term(scales, bohm_term)
    check_wavenumber(k, scales)
    return list(_seed_ladder(k, species, scales, _matched_closed(k, species, scales)))


def _seed_ladder(k: float, species: SpeciesParams, scales: DerivedScales, matched: float) -> Iterator[ComplexRate]:
    """The seed ladder from the gas-matched frequency, at a checked k on Bohm-adjusted
    scales: positive, deduplicated, and each seed built once the one before it is tried."""
    taken: list[float] = []

    def fresh(omega: float) -> Iterator[ComplexRate]:
        if omega > 0 and all(abs(omega - prev) > 1e-12 * omega for prev in taken):
            taken.append(omega)
            yield ComplexRate(eta=0.0, omega=omega)

    yield from fresh(matched)
    yield from fresh(omega_quantum_langmuir(k, scales))
    expanded = (omega_degenerate_bohm_gross(k, scales) if species.fully_degenerate
                else omega_weak_simple(k, species, scales))
    yield from fresh(expanded)
    yield from fresh(1.2 * expanded)


_SWEEP_POINT_ERRORS = (NoConvergence, SingularInput, QuadratureFailure, NonConvergent)


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
            for seed in _seed_ladder(k, species, scales, closed[0]):
                try:
                    res = solve_at_k(k, branch, species, scales, seed, config)
                    break
                except _SWEEP_POINT_ERRORS:
                    continue
            else:
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
    """Library-side helper: launch the species' exact branch (ExactDegenerate
    at full degeneracy, ExactQuadrature for a thermal gas) from each seed in
    the ladder and return the distinct root with the largest eta (least
    damped).  Raises SeedFailure when nothing converges.

    The ladder stops at its first root when no other root can be less damped.
    An equilibrium gas has no growing mode (Penrose, Phys. Fluids 3 (1960)
    258), and Newton rejects eta > 0 at T = 0, so an undamped first root
    (eta == 0.0, on either gas) is the answer.  A damped thermal first root
    is the answer when it lies in the box Re p_hat in [-6, -0.01],
    Im p_hat in [-0.03, 0.1] of p_hat = i s/(k W) and the gas's table
    (dispersion_core._box_root_count) counts one root there.  A root at k
    solves J(p_hat) = X(k) = k^2 W^2 / C1(k), with J the gas's k-free
    response, so one table serves every k: the winding number of J around
    the box for each X, from ~95 samples of J.  It is an estimate checked by
    sampling, not a proof: a segment's distance from its chord comes from a
    Hermite fit of J'' at its two ends, doubled, and X is counted only
    outside those tubes.  No root outside the box is less damped: below it
    every root is more damped; above it lies no growing mode; beyond
    Re p_hat = -6 the response is its far-field moment series, ~1/p_hat^2,
    smaller in modulus than on the box's left edge, and the count is only
    taken above that edge's |J|; between Re p_hat = -0.01 and 0 it stays
    near its static value J(0) < 0, while a root needs J = X(k) > 0 (a gas
    with an occupation pole there gets no table).  So, as far as the
    estimate holds, the first root is the one the whole ladder returns.
    Tests check the count, and the strip to the right of the box, against
    dense counts on the residual.

    A gas builds its table at its first call whose damped first root lies in
    the box (~100 evaluations of J, 1.6-1.7 ms on the benchmark gases).  The
    ladder builds each seed only when the one before it has been tried, so a
    served call builds its first seed alone.  Otherwise (a damped root
    outside the box, a count other than 1, or a damped first root at T = 0,
    where the residual's step rule is not analytic across |p_hat| = 1) every
    seed runs to convergence.
    """
    scales = with_bohm_term(scales, bohm_term)
    check_wavenumber(k, scales)
    branch = BranchId.ExactDegenerate if species.fully_degenerate else BranchId.ExactQuadrature
    thermal = branch is BranchId.ExactQuadrature
    roots: list[DispersionResult] = []
    for seed in _seed_ladder(k, species, scales, _matched_closed(k, species, scales)):
        try:
            res = solve_at_k(k, branch, species, scales, seed, config)
        except _SWEEP_POINT_ERRORS:
            continue
        if not roots and (res.rate.eta == 0.0 or thermal and _box_root_count(
                k, res.rate.s, species, scales.alpha, scales) == 1):
            return res
        if all(abs(res.rate.omega - other.rate.omega) > 1e-8 * res.rate.omega for other in roots):
            roots.append(res)
    if not roots:
        raise SeedFailure(f"no seed converged at k = {k:.6e}")
    return max(roots, key=lambda item: item.rate.eta)
