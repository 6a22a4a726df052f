"""Damped Newton iteration on the dispersion residuals, plus k sweeps.

Coordinates are chosen per branch family so the iteration is well scaled:

* ExactDegenerate works in (r, epsilon) = (k v_F/omega, eta/omega).  The
  residual's imaginary part is identically zero along epsilon = 0 inside the
  resonance-free region, and the finite-difference Jacobian preserves an
  exactly-zero epsilon through the update, so undamped roots keep eta = 0.0
  bitwise.
* ExactWeak and ExactQuadrature work in (omega, eta)/omega_ref with
  omega_ref = Omega_p for charged gases and k v_ch for neutral ones.

On the eta = 0 slice the imaginary residual component can vanish over an
open neighborhood (resonance-free degenerate region) or sit many orders
below the real component (thermal Landau terms underflowing at small k).
Either way the 2-vector Jacobian row carries no usable information, so
when the seed's imaginary residual is within half the solver tolerance
the solver first runs damped Newton on the surviving scalar equation in
the frequency coordinate with eta pinned, falling back to the 2-vector
iteration if that fails.  The full residual vector still gates
convergence, so a root that actually needs eta != 0 cannot converge
falsely through the scalar path.

Closed-form branches skip the iteration entirely; their residual_norm is a
back-substitution diagnostic into the matching exact residual, so the
"converged implies residual_norm < abs_tol" reading applies to the
iterative branches only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dispersion_core import (
    CLOSED_FORM_BRANCHES,
    DEGENERATE_BRANCHES,
    WEAK_BRANCHES,
    BranchId,
    ComplexRate,
    DerivedScales,
    ResidualValue,
    coefficient_C1,
    omega_c1_corrected,
    omega_degenerate_bohm_gross,
    omega_quantum_langmuir,
    omega_weak_biquadratic,
    omega_weak_simple,
    omega_zero_sound,
    residual_degenerate,
    residual_quadrature,
    residual_weak,
)
from .errors import (
    NoConvergence,
    NonConvergent,
    QuadratureFailure,
    SeedFailure,
    SingularInput,
    SingularJacobian,
)
from .quantum_stats import SpeciesParams


@dataclass(frozen=True)
class SolverConfig:
    abs_tol: float = 1e-10
    max_iter: int = 100
    fd_step: float = 1e-7
    continuation: bool = True

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")
        if not 0 < self.fd_step < 1e-3:
            raise ValueError("fd_step must lie in (0, 1e-3)")


@dataclass(frozen=True)
class DispersionResult:
    k: float
    branch: BranchId
    rate: ComplexRate
    residual_norm: float
    converged: bool
    iterations: int
    damped: bool
    region_flag: bool


def check_branch_species(branch: BranchId, species: SpeciesParams, scales: DerivedScales) -> None:
    """Raise ValueError when a branch cannot apply to the species."""
    if branch in DEGENERATE_BRANCHES and not species.fully_degenerate:
        raise ValueError(f"{branch.name} requires a fully degenerate species")
    if branch in WEAK_BRANCHES:
        if species.fully_degenerate or not 0.0 < scales.alpha < 1.0:
            raise ValueError(f"{branch.name} requires a thermal gas with fugacity in (0, 1)")


def _resonance_gap(r: float, epsilon: float) -> bool:
    # keep Newton away from the non-removable point r = 1, epsilon = 0
    return abs(r - 1.0) < 1e-6 and abs(epsilon) < 1e-6


def _newton(fun, x0, config: SolverConfig, reject):
    """Damped Newton on a 2-vector residual with forward-difference Jacobian.

    Returns (x, norm, iterations).  Raises NoConvergence/SingularJacobian
    with (x, norm, iterations) attached as the .partial attribute.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fun(x), dtype=float)
    norm = float(np.max(np.abs(f)))
    iterations = 0
    while norm > config.abs_tol:
        if iterations >= config.max_iter:
            err = NoConvergence(f"no convergence after {iterations} iterations, residual {norm:.3e}")
            err.partial = (x, norm, iterations)
            raise err
        jac = np.empty((2, 2))
        for i in range(2):
            h = config.fd_step * max(abs(x[i]), 0.1)
            xp = x.copy()
            xp[i] += h
            try:
                fp = np.asarray(fun(xp), dtype=float)
            except SingularInput:
                xp[i] = x[i] - h
                fp = np.asarray(fun(xp), dtype=float)
                h = -h
            jac[:, i] = (fp - f) / h
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        norm_j = float(np.max(np.abs(jac).sum(axis=1)))
        if det == 0.0 or not math.isfinite(det) or norm_j * norm_j / abs(det) > 1e12:
            err = SingularJacobian(f"Jacobian condition beyond 1e12 at iterate {x.tolist()}")
            err.partial = (x, norm, iterations)
            raise err
        dx = np.array(
            [
                (f[0] * jac[1, 1] - f[1] * jac[0, 1]) / det,
                (jac[0, 0] * f[1] - jac[1, 0] * f[0]) / det,
            ]
        )
        step = 1.0
        accepted = False
        for _ in range(20):
            xn = x - step * dx
            if reject is not None and reject(xn):
                step *= 0.5
                continue
            try:
                fn = np.asarray(fun(xn), dtype=float)
            except (SingularInput, NonConvergent):
                step *= 0.5
                continue
            nn = float(np.max(np.abs(fn)))
            if math.isfinite(nn) and nn < norm:
                x, f, norm = xn, fn, nn
                accepted = True
                break
            step *= 0.5
        if not accepted:
            err = NoConvergence(f"step rejected 20 times at residual {norm:.3e}")
            err.partial = (x, norm, iterations)
            raise err
        iterations += 1
    return x, norm, iterations


def _newton_scalar(fun, x0, config: SolverConfig, reject):
    """Damped Newton in the first coordinate with the second held fixed.

    Used when the imaginary residual component is negligible at an
    eta = 0 seed: the 2-vector Jacobian row is all but zero, while the
    real equation alone is well posed.  Convergence is still measured on
    the full residual vector.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fun(x), dtype=float)
    norm = float(np.max(np.abs(f)))
    iterations = 0
    while norm > config.abs_tol:
        if iterations >= config.max_iter:
            err = NoConvergence(f"no convergence after {iterations} iterations, residual {norm:.3e}")
            err.partial = (x, norm, iterations)
            raise err
        h = config.fd_step * max(abs(x[0]), 0.1)
        xp = x.copy()
        xp[0] += h
        try:
            fp = np.asarray(fun(xp), dtype=float)
        except SingularInput:
            xp[0] = x[0] - h
            fp = np.asarray(fun(xp), dtype=float)
            h = -h
        slope = (fp[0] - f[0]) / h
        if slope == 0.0 or not math.isfinite(slope):
            err = SingularJacobian(f"flat real residual at iterate {x.tolist()}")
            err.partial = (x, norm, iterations)
            raise err
        dx = f[0] / slope
        step = 1.0
        accepted = False
        for _ in range(20):
            xn = x.copy()
            xn[0] = x[0] - step * dx
            if reject is not None and reject(xn):
                step *= 0.5
                continue
            try:
                fn = np.asarray(fun(xn), dtype=float)
            except (SingularInput, NonConvergent):
                step *= 0.5
                continue
            nn = float(np.max(np.abs(fn)))
            if math.isfinite(nn) and nn < norm:
                x, f, norm = xn, fn, nn
                accepted = True
                break
            step *= 0.5
        if not accepted:
            err = NoConvergence(f"step rejected 20 times at residual {norm:.3e}")
            err.partial = (x, norm, iterations)
            raise err
        iterations += 1
    return x, norm, iterations


def _solve_exact(fun, x0, config: SolverConfig, reject):
    # detect the undamped slice where the 2-vector system degenerates: the
    # imaginary component is exactly zero (resonance-free degenerate region)
    # or beneath the tolerance (Landau terms underflowed at small k), so the
    # Jacobian row carries no usable information either way
    scalar_err = None
    if x0[1] == 0.0:
        try:
            f0 = fun(x0)
        except (SingularInput, NonConvergent):
            f0 = None
        if f0 is not None and abs(f0[1]) <= 0.5 * config.abs_tol:
            try:
                return _newton_scalar(fun, x0, config, reject)
            except (NoConvergence, SingularJacobian) as err:
                scalar_err = err
    try:
        return _newton(fun, x0, config, reject)
    except (NoConvergence, SingularJacobian) as err:
        # keep whichever attempt got closest
        if scalar_err is not None and scalar_err.partial[1] < err.partial[1]:
            raise scalar_err
        raise err


def _closed_form_value(branch: BranchId, k, species, scales, bohm_term) -> float:
    if branch is BranchId.QuantumLangmuir:
        return omega_quantum_langmuir(k, scales, bohm_term=bohm_term)
    if branch is BranchId.C1Corrected:
        return omega_c1_corrected(k, scales, bohm_term=bohm_term)
    if branch is BranchId.DegenerateBohmGross:
        return omega_degenerate_bohm_gross(k, scales, bohm_term=bohm_term)
    if branch is BranchId.ZeroSound:
        return omega_zero_sound(k, scales, bohm_term=bohm_term)
    if branch is BranchId.WeakBiquadratic:
        return omega_weak_biquadratic(k, species, scales, bohm_term=bohm_term)
    if branch is BranchId.WeakSimple:
        return omega_weak_simple(k, species, scales, bohm_term=bohm_term)
    raise ValueError(f"{branch.name} is not a closed-form branch")


def _region_flag(k: float, rate: ComplexRate, scales: DerivedScales) -> bool:
    return (k * scales.v_ch) ** 2 + rate.eta**2 - rate.omega**2 >= 0.0


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
    damped Newton from the seed."""
    if not k > 0:
        raise ValueError("k must be positive")
    check_branch_species(branch, species, scales)

    if branch in CLOSED_FORM_BRANCHES:
        omega = _closed_form_value(branch, k, species, scales, bohm_term)
        rate = ComplexRate(eta=0.0, omega=omega)
        try:
            if branch in DEGENERATE_BRANCHES:
                res = residual_degenerate(rate.r(k, scales.v_ch), 0.0, k, scales, bohm_term=bohm_term)
                diag = abs(res.real_part)
            else:
                val = residual_weak(k, rate.s, species, scales.alpha, scales, bohm_term=bohm_term)
                diag = abs(val)
        except (SingularInput, NonConvergent):
            diag = math.inf
        return DispersionResult(
            k=k,
            branch=branch,
            rate=rate,
            residual_norm=diag,
            converged=True,
            iterations=0,
            damped=False,
            region_flag=_region_flag(k, rate, scales),
        )

    if branch is BranchId.ExactDegenerate:
        v_ch = scales.v_ch

        def fun(x):
            res = residual_degenerate(x[0], x[1], k, scales, bohm_term=bohm_term)
            return (res.real_part, res.imag_part)

        def reject(x):
            return x[0] <= 0.0 or _resonance_gap(x[0], x[1])

        x0 = (seed.r(k, v_ch), seed.epsilon)

        def decode(x):
            omega = k * v_ch / x[0]
            return ComplexRate(eta=x[1] * omega, omega=omega)

    else:
        omega_ref = scales.omega_p if species.charge != 0.0 else k * scales.v_ch
        if branch is BranchId.ExactWeak:

            def fun(x):
                val = residual_weak(
                    k, complex(x[1] * omega_ref, x[0] * omega_ref), species, scales.alpha, scales,
                    bohm_term=bohm_term,
                )
                return (val.real, val.imag)

        else:  # ExactQuadrature
            q_alpha = None if species.fully_degenerate else scales.alpha

            def fun(x):
                val = residual_quadrature(
                    k, complex(x[1] * omega_ref, x[0] * omega_ref), species, q_alpha, scales,
                    bohm_term=bohm_term,
                )
                return (val.real, val.imag)

        def reject(x):
            if x[0] <= 0.0:
                return True
            if species.fully_degenerate:
                omega = x[0] * omega_ref
                return _resonance_gap(k * scales.v_ch / omega, x[1] / x[0])
            return False

        x0 = (seed.omega / omega_ref, seed.eta / omega_ref)

        def decode(x):
            return ComplexRate(eta=x[1] * omega_ref, omega=x[0] * omega_ref)

    def build(x, norm, iterations, converged):
        rate = decode(x)
        return DispersionResult(
            k=k,
            branch=branch,
            rate=rate,
            residual_norm=norm,
            converged=converged,
            iterations=iterations,
            damped=rate.eta < 0.0,
            region_flag=_region_flag(k, rate, scales),
        )

    try:
        x, norm, iterations = _solve_exact(fun, x0, config, reject)
    except (NoConvergence, SingularJacobian) as err:
        x, norm, iterations = err.partial
        try:
            err.result = build(x, norm, iterations, converged=False)
        except ValueError:
            err.result = None  # last iterate not even decodable (omega <= 0)
        raise
    return build(x, norm, iterations, converged=True)


def _matched_closed(
    k: float, branch: BranchId, species: SpeciesParams, scales: DerivedScales, bohm_term: bool
) -> float:
    """Closed-form frequency matching the branch's regime, used for seeding
    and for rescaling continuation guesses between k points."""
    degenerate = species.fully_degenerate
    if branch is BranchId.ExactDegenerate or (branch is BranchId.ExactQuadrature and degenerate):
        if species.charge != 0.0:
            return omega_degenerate_bohm_gross(k, scales, bohm_term=bohm_term)
        return omega_zero_sound(k, scales, bohm_term=bohm_term)
    return omega_weak_biquadratic(k, species, scales, bohm_term=bohm_term)


def first_point_seeds(
    k: float,
    branch: BranchId,
    species: SpeciesParams,
    scales: DerivedScales,
    *,
    bohm_term: bool = True,
) -> list[ComplexRate]:
    """Seed ladder for the first point of a sweep: the branch-matched closed
    form, then the dispersionless value, the expanded value, and 1.2x it."""
    seeds: list[float] = [_matched_closed(k, branch, species, scales, bohm_term)]
    if species.fully_degenerate:
        fallback = omega_degenerate_bohm_gross(k, scales, bohm_term=bohm_term)
    else:
        fallback = omega_weak_simple(k, species, scales, bohm_term=bohm_term)
    seeds.append(omega_quantum_langmuir(k, scales, bohm_term=bohm_term))
    seeds.append(fallback)
    seeds.append(1.2 * fallback)
    out = []
    for omega in seeds:
        if omega > 0 and all(abs(omega - prev.omega) > 1e-12 * omega for prev in out):
            out.append(ComplexRate(eta=0.0, omega=omega))
    return out


_SWEEP_POINT_ERRORS = (NoConvergence, SingularJacobian, SingularInput, QuadratureFailure, NonConvergent)


def sweep(
    k_grid,
    branch: BranchId,
    species: SpeciesParams,
    scales: DerivedScales,
    config: SolverConfig = SolverConfig(),
    *,
    bohm_term: bool = True,
) -> list[DispersionResult]:
    """Solve the branch over an increasing k grid with continuation.

    The first point tries the whole seed ladder and raises SeedFailure if
    nothing converges.  Later points seed from the last converged rate (or
    re-run the ladder when continuation is off) and record non-converged
    results instead of raising.
    """
    ks = [float(k) for k in k_grid]
    if any(k <= 0 for k in ks):
        raise ValueError("k grid must be positive")
    if any(b >= a for a, b in zip(ks[1:], ks)):
        raise ValueError("k grid must be strictly increasing")
    check_branch_species(branch, species, scales)

    results: list[DispersionResult] = []
    if branch in CLOSED_FORM_BRANCHES:
        for k in ks:
            results.append(solve_at_k(k, branch, species, scales, ComplexRate(0.0, 1.0), config, bohm_term=bohm_term))
        return results

    prev: ComplexRate | None = None
    k_prev = 0.0
    for index, k in enumerate(ks):
        if prev is not None and config.continuation:
            # rescale the previous rate by the closed-form ratio between the
            # two k points; plain omega continuation pushes r = k v_ch/omega
            # across the r = 1 wall for branches that hug the resonance
            seed = prev
            try:
                ratio = (_matched_closed(k, branch, species, scales, bohm_term)
                         / _matched_closed(k_prev, branch, species, scales, bohm_term))
                seed = ComplexRate(eta=prev.eta * ratio, omega=prev.omega * ratio)
            except (ValueError, ZeroDivisionError):
                pass
            try:
                res = solve_at_k(k, branch, species, scales, seed, config, bohm_term=bohm_term)
            except _SWEEP_POINT_ERRORS as err:
                res = getattr(err, "result", None)
                if res is None:
                    res = DispersionResult(
                        k=k, branch=branch, rate=seed, residual_norm=math.inf,
                        converged=False, iterations=0, damped=seed.eta < 0.0,
                        region_flag=_region_flag(k, seed, scales),
                    )
        else:
            res = None
            last = None
            for seed in first_point_seeds(k, branch, species, scales, bohm_term=bohm_term):
                try:
                    res = solve_at_k(k, branch, species, scales, seed, config, bohm_term=bohm_term)
                    break
                except _SWEEP_POINT_ERRORS as err:
                    last = getattr(err, "result", None)
            else:
                if index == 0:
                    raise SeedFailure(f"no seed converged at the first point k = {k:.6e}")
                res = last if last is not None else DispersionResult(
                    k=k, branch=branch, rate=ComplexRate(0.0, omega_quantum_langmuir(k, scales, bohm_term=bohm_term)),
                    residual_norm=math.inf, converged=False, iterations=0, damped=False,
                    region_flag=False,
                )
        results.append(res)
        if res.converged:
            prev = res.rate
            k_prev = k
    return results


def dominant_root(
    k: float,
    species: SpeciesParams,
    scales: DerivedScales,
    config: SolverConfig = SolverConfig(),
    *,
    bohm_term: bool = True,
) -> DispersionResult:
    """Library-side helper: launch the species' exact branch from every seed
    in the ladder and return the distinct root with the largest eta (least
    damped).  Raises SeedFailure when nothing converges."""
    branch = BranchId.ExactDegenerate if species.fully_degenerate else BranchId.ExactWeak
    roots: list[DispersionResult] = []
    for seed in first_point_seeds(k, branch, species, scales, bohm_term=bohm_term):
        try:
            res = solve_at_k(k, branch, species, scales, seed, config, bohm_term=bohm_term)
        except _SWEEP_POINT_ERRORS:
            continue
        if all(abs(res.rate.omega - other.rate.omega) > 1e-8 * res.rate.omega for other in roots):
            roots.append(res)
    if not roots:
        raise SeedFailure(f"no seed converged at k = {k:.6e}")
    return max(roots, key=lambda item: item.rate.eta)
